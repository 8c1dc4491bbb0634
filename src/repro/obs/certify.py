"""Run certificates: re-derive a recorded run's claims from its trace.

A trace is *self-verifying*: together with its manifest it forms a
certificate that a small, engine-free checker can validate offline — the
VeriPB idea applied to goal-oriented executions.
:func:`certify_trace` replays the evidence a recorded run left behind and
re-derives every claim that is re-derivable without the engine:

* **stream shape** — one ``execution-started``/``execution-finished``
  pair, round indices consecutive from zero, no empty payload on a round
  line (silence is ``null``), nothing after the halt;
* **seed chain** — the per-party RNG seeds derive from the recorded
  master seed (``rng_digest`` recomputes from ``seed`` alone, so an
  edited seed or digest is caught);
* **goal verdict** — the recorded ``goal-verdict`` is rechecked against
  the recorded prefix evidence: compact goals re-run the settle
  arithmetic (``settle_round = int(total_prefixes * (1 - f))``), finite
  goals must have halted to achieve;
* **switch legality** — every ``strategy-switch`` is justified by a
  preceding eviction/decay of the same candidate, itself justified by a
  negative sensing indication; enumeration order and wrap-around are
  rechecked, and a candidate change without a switch (a dropped event)
  is flagged;
* **overhead arithmetic** — the enumeration-overhead decomposition
  recomputed from the stream must agree with the event counts;
* **fault replay** — when the trace header carries the channel's fault
  spec, the whole fault schedule is replayed from the recorded seed over
  the user↔server payloads each round line carries, and the
  ``fault-injected``/``fault-recovered`` events must match round for
  round;
* **proof transcripts** — ``proof-round`` events are rechecked: degree
  bounds, the quantifier/linearization/partial-sum consistency identity
  against the running claim, the claim chain, and
  ``claim_after = poly(challenge)``.

:func:`certify_ledger` certifies a whole ledger directory in one pass
over its manifest stream, sweep index lines included.

What is **not** re-derived: the verifier's *final* direct evaluation of
the arithmetized matrix/formula (it needs the instance, which the trace
does not carry) and the parties' actual message contents (the payloads
are recorded but their semantics belong to the strategies).  A rejecting
transcript whose recorded rounds all pass locally is therefore accepted
as-recorded.  See ``docs/OBSERVABILITY.md`` for the full threat model.

This module must stay **engine-free**: it imports only the emit-side
observability modules, the manifest-stream reader, the fault-channel
description (itself engine free), and the stdlib — never ``repro.core``
or the strategy packages.  A subprocess test pins this down.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro.comm.messages import SILENCE
from repro.faults.channel import (
    SERVER_TO_USER,
    USER_TO_SERVER,
    FaultyChannelRun,
    channel_from_spec,
)
from repro.obs.events import (
    ABANDON_REASONS,
    SWITCH_BELIEF_DECAY,
    SWITCH_REASONS,
    SWITCH_SENSING_NEGATIVE,
    TRIAL_DECAYED,
    TRIAL_ENDORSED,
    TRIAL_EVICTED,
    TRIAL_HALT_REJECTED,
    TRIAL_REASONS,
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
    FaultRecovered,
    GoalVerdict,
    ProofFinished,
    ProofRoundChecked,
    ProofStarted,
    RoundExecuted,
    SensingIndication,
    SessionAbandoned,
    StrategySwitch,
    TrialFinished,
    TrialStarted,
    TypeCache,
    dispatch_table,
    rng_chain_digest,
)
from repro.obs.manifests import (
    MANIFEST_STREAM,
    ManifestLocation,
    ManifestScan,
    compute_run_id,
    lookup,
    read_at,
)
from repro.obs.overhead import REPORT_STEPS, TraceFold
from repro.obs.sinks import (
    TRACE_SCHEMA_MINOR,
    Sink,
    TraceSchemaError,
    first_record,
    iter_trace_batches,
)
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from hashlib import _Hash

#: Checks the certifier runs, in report order.
CHECKS = (
    "stream",
    "seed-chain",
    "goal-verdict",
    "switch-legality",
    "overhead",
    "fault-replay",
    "proof",
    "manifest",
)

#: The subset that still applies to a *fragment* (a flight dump: the
#: stream may be missing its prefix).  Overhead arithmetic needs the
#: whole stream, so it is the one check fragment mode drops.
FRAGMENT_CHECKS = tuple(check for check in CHECKS if check != "overhead")

#: ``TrialFinished`` reasons that require a *negative* sensing indication.
_NEGATIVE_EVIDENCE = frozenset({TRIAL_EVICTED, TRIAL_DECAYED, TRIAL_HALT_REJECTED})

#: Trial-close reason → the switch reason it licenses.
_SWITCH_FOR_CLOSE = {
    TRIAL_EVICTED: SWITCH_SENSING_NEGATIVE,
    TRIAL_DECAYED: SWITCH_BELIEF_DECAY,
}


class CertificationError(ValueError):
    """A trace failed certification (raised by the ``certify=`` hooks)."""


@dataclass(frozen=True)
class CertifyIssue:
    """One failed re-derivation, anchored to a trace line when possible."""

    check: str
    message: str
    line: Optional[int] = None

    def format(self, trace: str = "") -> str:
        anchor = trace or "<events>"
        if self.line is not None:
            anchor = f"{anchor}:{self.line}"
        return f"{anchor}: [{self.check}] {self.message}"


@dataclass(frozen=True)
class CertificateReport:
    """The outcome of certifying one trace (see :attr:`ok`)."""

    trace: str
    certifiable: bool
    reason: str
    issues: Tuple[CertifyIssue, ...]
    events: int
    trace_sha256: Optional[str] = None
    manifest: Optional[str] = None
    checks: Tuple[str, ...] = CHECKS
    fragment: bool = False

    @property
    def ok(self) -> bool:
        """True when the trace is certifiable and every check passed."""
        return self.certifiable and not self.issues

    @property
    def status(self) -> str:
        """``CERTIFIED``, ``FAILED (…)`` or ``UNCERTIFIABLE (…)``."""
        if not self.certifiable:
            status = f"UNCERTIFIABLE ({self.reason})"
        elif self.issues:
            status = f"FAILED ({len(self.issues)} issue(s))"
        else:
            status = "CERTIFIED"
        return status + " [fragment]" if self.fragment else status

    def format(self) -> str:
        """Fixed-width text rendering (the CLI's default output)."""
        lines = [
            f"trace    : {self.trace}",
            f"events   : {self.events}",
            f"manifest : {self.manifest or '-'}",
            f"sha256   : {self.trace_sha256 or '-'}",
            f"checks   : {', '.join(self.checks)}",
            f"status   : {self.status}",
        ]
        for issue in self.issues:
            lines.append(issue.format(self.trace))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (the CLI's ``--format json`` output)."""
        return {
            "trace": self.trace,
            "certified": self.ok,
            "certifiable": self.certifiable,
            "reason": self.reason,
            "fragment": self.fragment,
            "events": self.events,
            "manifest": self.manifest,
            "trace_sha256": self.trace_sha256,
            "checks": list(self.checks),
            "issues": [
                {"check": i.check, "line": i.line, "message": i.message}
                for i in self.issues
            ],
        }


@dataclass
class _ProofState:
    """One open ``proof-started`` … ``proof-finished`` segment."""

    protocol: str
    modulus: int
    line: Optional[int]
    claim: int
    next_index: int = 0
    challenges: Dict[str, int] = field(default_factory=dict)
    rejected: bool = False
    all_rounds_ok: bool = True


class _Checker:
    """Single-pass re-derivation over one event stream.

    Feed events in trace order via :meth:`feed`, then call
    :meth:`finalize`; :attr:`issues` accumulates every failed check.

    With ``fragment=True`` the stream is a flight dump whose prefix may
    have been evicted: the first ``round-executed`` becomes the round
    sync point (its index is adopted), trial numbering syncs to the
    first trial event seen, a leading ``trial-finished``/``switch`` whose
    justifying context predates the window is accepted, and the
    whole-stream truncation and overhead checks are skipped.  Every
    in-window invariant still applies.
    """

    def __init__(
        self,
        header: Optional[Mapping[str, Any]],
        manifest: Optional[Mapping[str, Any]],
        *,
        fragment: bool = False,
    ) -> None:
        self.issues: List[CertifyIssue] = []
        self._header = header or {}
        self._manifest = manifest
        self._fragment = fragment

        # Stream shape.
        self._started: Optional[ExecutionStarted] = None
        self._finished: Optional[ExecutionFinished] = None
        self._abandoned: Optional[SessionAbandoned] = None
        self._verdict: Optional[GoalVerdict] = None
        self._verdict_line: Optional[int] = None
        self._expected_round = 0
        self._rounds_synced = not fragment
        self._halted = False

        # Fault replay.
        self._replay: Optional[FaultyChannelRun] = None
        self._replay_faults: Optional[_ReplayedFaults] = None
        self._round_faults: List[Tuple[str, str, str]] = []
        self._unreplayable_fault_line: Optional[int] = None

        # Switch legality.
        self._last_indication: Optional[SensingIndication] = None
        self._open_trial: Optional[TrialStarted] = None
        self._trials_started = 0
        self._trials_synced = not fragment
        self._last_closed: Optional[Tuple[TrialStarted, str]] = None
        self._pending_switch: Optional[StrategySwitch] = None

        # Proof segments.
        self._proof: Optional[_ProofState] = None
        self._proofs_finished = 0

        # The trace's counts — events, rounds seen, trials, switches —
        # and its overhead decomposition, folded as the stream goes by
        # (the summary-only steps are not taken).
        self._fold = TraceFold()

    # ------------------------------------------------------------------
    def issue(self, check: str, message: str, line: Optional[int] = None) -> None:
        self.issues.append(CertifyIssue(check=check, message=message, line=line))

    def feed(self, line: Optional[int], event: Event) -> None:
        cls = type(event)
        fold = self._fold
        fold.counts[cls] += 1
        handler, engine_level, step = _ROUTES[cls]
        if step is not None:
            step(fold, event)
        if engine_level and self._finished is not None:
            self.issue(
                "stream",
                f"{event.kind} event after execution-finished",
                line,
            )
        if self._abandoned is not None:
            self.issue(
                "stream",
                f"{event.kind} event after session-abandoned (the abandon "
                f"event terminates the stream)",
                line,
            )
        if handler is not None:
            handler(self, line, event)

    def _feed_indication(
        self, line: Optional[int], event: SensingIndication
    ) -> None:
        self._last_indication = event

    # ------------------------------------------------------------------
    # Stream shape + seed chain.
    def _feed_started(self, line: Optional[int], event: ExecutionStarted) -> None:
        if self._started is not None:
            self.issue("stream", "duplicate execution-started event", line)
            return
        self._started = event
        if sum(self._fold.counts.values()) == 1:
            # A fragment that still holds its execution-started lost no
            # prefix: every positional check applies from round zero.
            self._rounds_synced = True
            self._trials_synced = True
        draws = self._derive_seed_chain(line, event)
        self._setup_replay(line, draws)

    def _derive_seed_chain(
        self, line: Optional[int], event: ExecutionStarted
    ) -> Tuple[int, ...]:
        """Re-derive the per-party seeds; returns all four master draws."""
        master = random.Random(event.seed)
        draws = tuple(master.getrandbits(64) for _ in range(4))
        if event.rng_digest is None:
            self.issue(
                "seed-chain",
                "execution-started carries no rng digest (nothing commits "
                "to the seed derivation)",
                line,
            )
        else:
            expected = rng_chain_digest(event.seed, draws[:3])
            if event.rng_digest != expected:
                self.issue(
                    "seed-chain",
                    f"rng digest mismatch: trace records {event.rng_digest} "
                    f"but seed {event.seed} derives {expected} — the seed or "
                    f"digest field was edited",
                    line,
                )
        return draws

    def _setup_replay(self, line: Optional[int], draws: Tuple[int, ...]) -> None:
        spec = self._header.get("channel")
        if not isinstance(spec, Mapping):
            return
        try:
            channel = channel_from_spec(spec)
        except (KeyError, TypeError, ValueError) as exc:
            self.issue(
                "fault-replay",
                f"channel spec in the trace header does not rebuild: {exc}",
                line,
            )
            return
        # The engine draws the channel seed from the master stream right
        # after the three party seeds.
        self._replay_faults = _ReplayedFaults()
        self._replay = channel.start(draws[3], Tracer(sink=self._replay_faults))

    def _feed_abandoned(self, line: Optional[int], event: SessionAbandoned) -> None:
        self._abandoned = event
        if event.reason not in ABANDON_REASONS:
            self.issue(
                "stream",
                f"unknown session-abandoned reason {event.reason!r}",
                line,
            )
        if event.rounds_completed < self._fold.rounds_seen:
            self.issue(
                "stream",
                f"session-abandoned claims {event.rounds_completed} round(s) "
                f"but the stream already shows {self._fold.rounds_seen}",
                line,
            )

    def _feed_fault(
        self, line: Optional[int], event: Union[FaultInjected, FaultRecovered]
    ) -> None:
        if event.round_index != self._expected_round and self._rounds_synced:
            self.issue(
                "stream",
                f"{event.kind} for round {event.round_index} inside round "
                f"{self._expected_round}",
                line,
            )
        if event.site not in (USER_TO_SERVER, SERVER_TO_USER):
            return  # Server-side wrappers inject their own faults.
        if isinstance(event, FaultInjected):
            self._round_faults.append(("injected", event.site, event.fault))
        else:
            self._round_faults.append(("recovered", event.site, ""))
        if self._replay is None and self._unreplayable_fault_line is None:
            self._unreplayable_fault_line = line if line is not None else -1

    def _feed_round(self, line: Optional[int], event: RoundExecuted) -> None:
        if not self._rounds_synced:
            # Fragment sync point: the dump's first round-executed fixes
            # where the surviving window sits in the original stream.
            self._rounds_synced = True
            self._expected_round = event.round_index
        if event.round_index != self._expected_round:
            self.issue(
                "stream",
                f"rounds out of order: round-executed {event.round_index} "
                f"where round {self._expected_round} was expected",
                line,
            )
            self._expected_round = event.round_index
        if self._halted:
            self.issue(
                "stream",
                f"round {event.round_index} executed after the user halted",
                line,
            )
        if "" in event.payloads:
            self.issue(
                "stream",
                f"round {event.round_index} carries an empty payload "
                f"(silence is recorded as null)",
                line,
            )
        self._replay_round(line, event)
        if event.halted:
            self._halted = True
        self._expected_round = event.round_index + 1
        self._round_faults = []

    def _replay_round(self, line: Optional[int], event: RoundExecuted) -> None:
        replayed = self._replay_faults
        if self._replay is None or replayed is None:
            return
        try:
            self._replay.apply(
                event.round_index, event.u2s or SILENCE, event.s2u or SILENCE
            )
        except (KeyError, ValueError) as exc:
            self.issue(
                "fault-replay",
                f"fault-schedule replay lost sync at round "
                f"{event.round_index}: {exc}",
                line,
            )
            self._replay = None
            return
        derived = replayed.faults
        if derived != self._round_faults:
            self.issue(
                "fault-replay",
                f"round {event.round_index}: fault events diverge from the "
                f"replayed schedule (replay derives "
                f"{_format_faults(derived)}, trace has "
                f"{_format_faults(self._round_faults)})",
                line,
            )
        if derived:
            replayed.faults = []

    def _feed_finished(self, line: Optional[int], event: ExecutionFinished) -> None:
        if self._finished is not None:
            self.issue("stream", "duplicate execution-finished event", line)
            return
        self._finished = event
        rounds_seen = self._fold.rounds_seen
        if event.rounds_executed != rounds_seen:
            self.issue(
                "stream",
                f"execution-finished claims {event.rounds_executed} round(s) "
                f"but the trace shows {rounds_seen} round-executed "
                f"event(s)",
                line,
            )
        if event.halted != self._halted:
            self.issue(
                "stream",
                f"execution-finished halted={event.halted} disagrees with "
                f"the round events (halted={self._halted})",
                line,
            )

    # ------------------------------------------------------------------
    # Switch legality.
    def _feed_trial_started(self, line: Optional[int], event: TrialStarted) -> None:
        if self._open_trial is not None:
            self.issue(
                "switch-legality",
                f"trial {event.trial_number} started while trial "
                f"{self._open_trial.trial_number} is still open",
                line,
            )
        if not self._trials_synced:
            # Fragment sync point: adopt the first in-window trial number.
            self._trials_synced = True
            self._trials_started = event.trial_number
        if event.trial_number != self._trials_started:
            self.issue(
                "switch-legality",
                f"trial numbers not consecutive: got {event.trial_number}, "
                f"expected {self._trials_started}",
                line,
            )
        if self._pending_switch is not None:
            if event.candidate_index != self._pending_switch.to_index:
                self.issue(
                    "switch-legality",
                    f"trial opened on candidate {event.candidate_index} but "
                    f"the preceding switch moved to candidate "
                    f"{self._pending_switch.to_index}",
                    line,
                )
            self._pending_switch = None
        elif self._last_closed is not None:
            closed, _reason = self._last_closed
            if closed.budget is None and event.candidate_index != closed.candidate_index:
                self.issue(
                    "switch-legality",
                    f"candidate changed {closed.candidate_index} -> "
                    f"{event.candidate_index} without a justifying "
                    f"strategy-switch (dropped switch event?)",
                    line,
                )
        self._trials_started = event.trial_number + 1
        self._open_trial = event

    def _feed_trial_finished(self, line: Optional[int], event: TrialFinished) -> None:
        opened = self._open_trial
        pre_window = opened is None and not self._trials_synced
        if pre_window:
            # Fragment: this trial opened before the surviving window.
            # Sync numbering to it (the next start must be its successor)
            # and reconstruct the opened record from the finish itself so
            # a following switch can be justified; its sensing evidence
            # predates the window, so skip that.
            self._trials_synced = True
            self._trials_started = event.trial_number + 1
            opened = TrialStarted(
                round_index=event.round_index,
                trial_number=event.trial_number,
                candidate_index=event.candidate_index,
                budget=None,
            )
            self._open_trial = opened
        if opened is None:
            self.issue(
                "switch-legality",
                f"trial {event.trial_number} finished with no open trial",
                line,
            )
        elif (
            event.trial_number != opened.trial_number
            or event.candidate_index != opened.candidate_index
        ):
            self.issue(
                "switch-legality",
                f"trial-finished ({event.trial_number}, candidate "
                f"{event.candidate_index}) does not match the open trial "
                f"({opened.trial_number}, candidate {opened.candidate_index})",
                line,
            )
        if event.reason not in TRIAL_REASONS:
            self.issue(
                "switch-legality",
                f"unknown trial-finished reason {event.reason!r}",
                line,
            )
        indication = self._last_indication
        if pre_window:
            pass  # The justifying indication predates the dump window.
        elif event.reason in _NEGATIVE_EVIDENCE:
            if (
                indication is None
                or indication.candidate_index != event.candidate_index
                or indication.positive
            ):
                self.issue(
                    "switch-legality",
                    f"trial {event.trial_number} finished {event.reason!r} "
                    f"without a preceding negative sensing indication for "
                    f"candidate {event.candidate_index}",
                    line,
                )
        elif event.reason == TRIAL_ENDORSED:
            if (
                indication is None
                or indication.candidate_index != event.candidate_index
                or not indication.positive
            ):
                self.issue(
                    "switch-legality",
                    f"trial {event.trial_number} endorsed without a "
                    f"preceding positive sensing indication for candidate "
                    f"{event.candidate_index}",
                    line,
                )
        if opened is not None:
            self._last_closed = (opened, event.reason)
        self._open_trial = None

    def _feed_switch(self, line: Optional[int], event: StrategySwitch) -> None:
        if event.reason not in SWITCH_REASONS:
            self.issue(
                "switch-legality",
                f"unknown strategy-switch reason {event.reason!r}",
                line,
            )
        if self._open_trial is not None:
            self.issue(
                "switch-legality",
                f"strategy-switch while trial "
                f"{self._open_trial.trial_number} is open",
                line,
            )
        closed = self._last_closed
        if closed is None and not self._trials_synced:
            # Fragment: the eviction/decay justifying a leading switch
            # predates the dump window; in-window geometry still applies.
            pass
        elif (
            closed is None
            or closed[0].candidate_index != event.from_index
            or closed[1] not in _SWITCH_FOR_CLOSE
        ):
            self.issue(
                "switch-legality",
                f"strategy-switch away from candidate {event.from_index} is "
                f"not justified by a preceding eviction/decay of that "
                f"candidate",
                line,
            )
        elif _SWITCH_FOR_CLOSE[closed[1]] != event.reason:
            self.issue(
                "switch-legality",
                f"switch reason {event.reason!r} does not match the closing "
                f"trial's reason {closed[1]!r}",
                line,
            )
        if event.wrapped and event.to_index != 0:
            self.issue(
                "switch-legality",
                f"wrapped switch must return to candidate 0, not "
                f"{event.to_index}",
                line,
            )
        if (
            event.reason == SWITCH_SENSING_NEGATIVE
            and not event.wrapped
            and event.to_index != event.from_index + 1
        ):
            self.issue(
                "switch-legality",
                f"sensing-negative switch must advance the enumeration "
                f"({event.from_index} -> {event.from_index + 1}), not jump "
                f"to {event.to_index}",
                line,
            )
        self._last_closed = None
        self._pending_switch = event

    # ------------------------------------------------------------------
    # Goal verdict.
    def _feed_verdict(self, line: Optional[int], event: GoalVerdict) -> None:
        if self._verdict is not None:
            self.issue("goal-verdict", "duplicate goal-verdict event", line)
            return
        self._verdict = event
        self._verdict_line = line

    def _check_verdict(self) -> None:
        verdict = self._verdict
        line = self._verdict_line
        if verdict is None:
            if self._manifest is not None and "achieved" in self._manifest:
                self.issue(
                    "goal-verdict",
                    "manifest claims a goal outcome but the trace records no "
                    "goal-verdict event",
                )
            return
        finished = self._finished
        if finished is not None:
            if verdict.rounds != finished.rounds_executed:
                self.issue(
                    "goal-verdict",
                    f"verdict counts {verdict.rounds} round(s) but the "
                    f"execution ran {finished.rounds_executed}",
                    line,
                )
            if verdict.halted != finished.halted:
                self.issue(
                    "goal-verdict",
                    f"verdict halted={verdict.halted} disagrees with the "
                    f"execution (halted={finished.halted})",
                    line,
                )
        if verdict.compact:
            self._check_compact_verdict(verdict, line)
        elif verdict.achieved and not verdict.halted:
            self.issue(
                "goal-verdict",
                "finite goal recorded as achieved without halting",
                line,
            )

    def _check_compact_verdict(
        self, verdict: GoalVerdict, line: Optional[int]
    ) -> None:
        if verdict.settle_fraction is None or verdict.total_prefixes is None:
            self.issue(
                "goal-verdict",
                "compact verdict carries no prefix evidence "
                "(settle_fraction/total_prefixes missing)",
                line,
            )
            return
        total = verdict.total_prefixes
        last_bad = verdict.last_bad_round
        if self._finished is not None and total != self._finished.rounds_executed + 1:
            self.issue(
                "goal-verdict",
                f"verdict judged {total} prefixes but "
                f"{self._finished.rounds_executed} executed round(s) yield "
                f"{self._finished.rounds_executed + 1} (the initial state "
                f"counts)",
                line,
            )
        bad = verdict.bad_prefixes or 0
        if last_bad is None:
            if bad != 0:
                self.issue(
                    "goal-verdict",
                    f"verdict counts {bad} bad prefix(es) but records no "
                    f"last bad round",
                    line,
                )
        elif not 1 <= last_bad <= total or bad < 1 or bad > total:
            self.issue(
                "goal-verdict",
                f"prefix evidence out of range: last bad round {last_bad}, "
                f"{bad} bad of {total} prefixes",
                line,
            )
        settle_round = int(total * (1 - verdict.settle_fraction))
        derived = last_bad is None or last_bad <= settle_round
        if derived != verdict.achieved:
            self.issue(
                "goal-verdict",
                f"recorded achieved={verdict.achieved} but the settle "
                f"arithmetic derives {derived} (settle round {settle_round}, "
                f"last bad prefix {last_bad})",
                line,
            )

    # ------------------------------------------------------------------
    # Proof transcripts.
    def _feed_proof_started(self, line: Optional[int], event: ProofStarted) -> None:
        if self._proof is not None:
            self.issue(
                "proof",
                "proof-started inside an unfinished proof segment",
                line,
            )
        if event.modulus < 2:
            self.issue("proof", f"modulus {event.modulus} is not a prime", line)
            self._proof = None
            return
        self._proof = _ProofState(
            protocol=event.protocol,
            modulus=event.modulus,
            line=line,
            claim=event.claimed_value % event.modulus,
        )

    def _feed_proof_round(self, line: Optional[int], event: ProofRoundChecked) -> None:
        proof = self._proof
        if proof is None:
            self.issue("proof", "proof-round outside a proof segment", line)
            return
        if event.index != proof.next_index:
            self.issue(
                "proof",
                f"proof rounds out of order: got {event.index}, expected "
                f"{proof.next_index}",
                line,
            )
        proof.next_index = event.index + 1
        if proof.rejected:
            self.issue("proof", "proof-round after a rejecting round", line)
            return
        p = proof.modulus
        coeffs = _parse_poly(event.poly)
        if coeffs is None:
            self.issue(
                "proof", f"unparseable polynomial wire form {event.poly!r}", line
            )
            proof.rejected = True
            proof.all_rounds_ok = False
            return
        coeffs = [c % p for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        degree = len(coeffs) - 1
        s0 = _poly_eval(coeffs, 0, p)
        s1 = _poly_eval(coeffs, 1, p)
        derived_ok = degree <= event.degree_bound
        if derived_ok:
            expected = self._proof_identity(proof, event, s0, s1, line)
            derived_ok = expected is not None and expected == event.claim_before % p
        if event.claim_before % p != proof.claim:
            self.issue(
                "proof",
                f"claim chain broken at round {event.index}: claim_before "
                f"{event.claim_before} != running claim {proof.claim}",
                line,
            )
        recorded_ok = event.challenge is not None
        if recorded_ok != derived_ok:
            self.issue(
                "proof",
                f"round {event.index} ({event.op_kind} on {event.var}): "
                f"recorded {'pass' if recorded_ok else 'reject'} but "
                f"re-derivation says {'pass' if derived_ok else 'reject'}",
                line,
            )
        if event.challenge is not None:
            if not 0 <= event.challenge < p:
                self.issue(
                    "proof",
                    f"challenge {event.challenge} outside GF({p})",
                    line,
                )
            evaluated = _poly_eval(coeffs, event.challenge % p, p)
            if event.claim_after is None or event.claim_after % p != evaluated:
                self.issue(
                    "proof",
                    f"round {event.index}: claim_after {event.claim_after} "
                    f"!= poly({event.challenge}) = {evaluated}",
                    line,
                )
            proof.challenges[event.var] = event.challenge % p
            proof.claim = evaluated
        else:
            proof.rejected = True
            proof.all_rounds_ok = False
            if event.claim_after is not None:
                self.issue(
                    "proof",
                    f"rejected round {event.index} carries a claim_after",
                    line,
                )

    def _proof_identity(
        self,
        proof: _ProofState,
        event: ProofRoundChecked,
        s0: int,
        s1: int,
        line: Optional[int],
    ) -> Optional[int]:
        """The consistency identity's expected value, or None if unknown."""
        p = proof.modulus
        if event.op_kind == "forall":
            return (s0 * s1) % p
        if event.op_kind == "exists":
            return (s0 + s1 - s0 * s1) % p
        if event.op_kind == "sum":
            return (s0 + s1) % p
        if event.op_kind == "linearize":
            r_v = proof.challenges.get(event.var)
            if r_v is None:
                self.issue(
                    "proof",
                    f"linearize on {event.var} with no prior challenge for it",
                    line,
                )
                return None
            return ((1 - r_v) * s0 + r_v * s1) % p
        self.issue("proof", f"unknown proof operator {event.op_kind!r}", line)
        return None

    def _feed_proof_finished(self, line: Optional[int], event: ProofFinished) -> None:
        proof = self._proof
        if proof is None:
            self.issue("proof", "proof-finished outside a proof segment", line)
            return
        if event.accepted and not proof.all_rounds_ok:
            self.issue(
                "proof",
                "transcript accepted but a recorded round fails "
                "re-derivation",
                line,
            )
        # accepted=False with all rounds locally consistent is legitimate:
        # the verifier's final direct evaluation of the instance is the one
        # check this trace does not carry the data to re-derive.
        self._proof = None
        self._proofs_finished += 1

    # ------------------------------------------------------------------
    def finalize(self, trace_sha256: Optional[str] = None) -> None:
        """Run the whole-stream checks once the stream is exhausted.

        Truncation findings are suppressed for fragments (missing ends
        are their nature) and for streams terminated by a
        ``session-abandoned`` event — the abandon *is* the explained end
        of the stream, which is exactly what distinguishes a recovered
        flight dump from silent data loss.
        """
        explained_end = self._fragment or self._abandoned is not None
        if self._started is not None and self._finished is None:
            if not explained_end:
                self.issue(
                    "stream", "trace truncated: no execution-finished event"
                )
        if self._round_faults and not explained_end:
            self.issue(
                "stream",
                "trace ends mid-round: fault events without a closing "
                "round-executed",
            )
        if self._proof is not None and not explained_end:
            self.issue(
                "proof", "proof segment truncated: no proof-finished event"
            )
        if (
            self._unreplayable_fault_line is not None
            and self._replay is None
            and not self._fragment
        ):
            spec = self._header.get("channel")
            if not isinstance(spec, Mapping):
                self.issue(
                    "fault-replay",
                    "channel fault events present but the trace header "
                    "carries no channel spec to replay them against",
                    None
                    if self._unreplayable_fault_line < 0
                    else self._unreplayable_fault_line,
                )
        self._check_verdict()
        if not self._fragment:
            self._check_overhead()
        self._check_manifest(trace_sha256)

    def _check_overhead(self) -> None:
        report = self._fold.report()
        if report.productive_rounds + report.overhead_rounds != report.total_rounds:
            self.issue(
                "overhead",
                f"overhead decomposition does not add up: "
                f"{report.productive_rounds} + {report.overhead_rounds} != "
                f"{report.total_rounds}",
            )
        if report.trials != self._trials_started:
            self.issue(
                "overhead",
                f"overhead counts {report.trials} trial(s) but the stream "
                f"shows {self._trials_started}",
            )
        if self._finished is not None and self._fold.rounds_seen:
            if report.total_rounds != self._finished.rounds_executed:
                self.issue(
                    "overhead",
                    f"overhead accounts {report.total_rounds} round(s) but "
                    f"the execution ran {self._finished.rounds_executed}",
                )

    def _check_manifest(self, trace_sha256: Optional[str]) -> None:
        manifest = self._manifest
        if manifest is None:
            return
        kind = manifest.get("kind")
        if kind not in ("run", "cell"):
            self.issue(
                "manifest", f"manifest kind {kind!r} is not a run manifest"
            )
            return
        recorded_sha = manifest.get("trace_sha256")
        if (
            isinstance(recorded_sha, str)
            and trace_sha256 is not None
            and recorded_sha != trace_sha256
        ):
            self.issue(
                "manifest",
                f"trace digest mismatch: manifest stamps {recorded_sha} but "
                f"the file hashes to {trace_sha256} — the trace was modified "
                f"after recording",
            )
        started = self._started
        if started is not None:
            seeds = manifest.get("seeds")
            if isinstance(seeds, list) and started.seed not in seeds:
                self.issue(
                    "manifest",
                    f"execution seed {started.seed} is not among the "
                    f"manifest seeds {seeds}",
                )
            for key, recorded, actual in (
                ("max_rounds", manifest.get("max_rounds"), started.max_rounds),
                ("user", manifest.get("user"), started.user),
                ("server", manifest.get("server"), started.server),
            ):
                if recorded is not None and recorded != actual:
                    self.issue(
                        "manifest",
                        f"manifest {key}={recorded!r} disagrees with the "
                        f"trace ({actual!r})",
                    )
        if kind != "run":
            return  # Cell manifests aggregate several seeds' totals.
        finished = self._finished
        if finished is not None:
            if manifest.get("rounds") != finished.rounds_executed:
                self.issue(
                    "manifest",
                    f"manifest rounds={manifest.get('rounds')} disagrees "
                    f"with the trace ({finished.rounds_executed})",
                )
            if manifest.get("halted") != int(finished.halted):
                self.issue(
                    "manifest",
                    f"manifest halted={manifest.get('halted')} disagrees "
                    f"with the trace ({int(finished.halted)})",
                )
        verdict = self._verdict
        if verdict is not None:
            if manifest.get("achieved") != int(verdict.achieved):
                self.issue(
                    "manifest",
                    f"manifest achieved={manifest.get('achieved')} disagrees "
                    f"with the recorded verdict ({int(verdict.achieved)})",
                )
            if manifest.get("goal") not in (None, verdict.goal):
                self.issue(
                    "manifest",
                    f"manifest goal={manifest.get('goal')!r} disagrees with "
                    f"the recorded verdict ({verdict.goal!r})",
                )


class _ReplayedFaults(Sink):
    """The replayed channel's fault events of the current round, in the
    ``(kind, site, fault)`` form the checker collects from the trace."""

    def __init__(self) -> None:
        self.faults: List[Tuple[str, str, str]] = []

    def emit(self, event: Event) -> None:
        if isinstance(event, FaultInjected):
            self.faults.append(("injected", event.site, event.fault))
        else:
            self.faults.append(("recovered", getattr(event, "site", "?"), ""))


#: Event type -> (``_Checker`` handler, whether the type is an engine-level
#: event that may not follow ``execution-finished``).
_CHECKS: Dict[type, Tuple[Callable[["_Checker", Optional[int], Any], None], bool]] = {
    SessionAbandoned: (_Checker._feed_abandoned, False),
    ExecutionStarted: (_Checker._feed_started, True),
    FaultInjected: (_Checker._feed_fault, True),
    FaultRecovered: (_Checker._feed_fault, True),
    RoundExecuted: (_Checker._feed_round, True),
    ExecutionFinished: (_Checker._feed_finished, False),
    SensingIndication: (_Checker._feed_indication, False),
    TrialStarted: (_Checker._feed_trial_started, False),
    TrialFinished: (_Checker._feed_trial_finished, False),
    StrategySwitch: (_Checker._feed_switch, False),
    GoalVerdict: (_Checker._feed_verdict, False),
    ProofStarted: (_Checker._feed_proof_started, False),
    ProofRoundChecked: (_Checker._feed_proof_round, False),
    ProofFinished: (_Checker._feed_proof_finished, False),
}

_Route = Tuple[
    Optional[Callable[["_Checker", Optional[int], Any], None]],
    bool,
    Optional[Callable[[TraceFold, Any], None]],
]

#: Event type -> (handler or ``None``, engine level, the fold's step or
#: ``None``): one probe per event routes it everywhere it goes.  ``Event``
#: is a key, so every event type resolves to a route, the types neither
#: side reads to ``(None, False, None)``.
_ROUTES = cast(
    "TypeCache[_Route]",
    dispatch_table(
        {
            cls: (*_CHECKS.get(cls, (None, False)), REPORT_STEPS.get(cls))
            for cls in (Event, *_CHECKS, *REPORT_STEPS)
        }
    ),
)


def _format_faults(entries: List[Tuple[str, str, str]]) -> str:
    if not entries:
        return "none"
    return "+".join(
        f"{kind}:{site}:{fault}" if fault else f"{kind}:{site}"
        for kind, site, fault in entries
    )


def _poly_eval(coeffs: List[int], x: int, p: int) -> int:
    """Horner evaluation of lowest-first coefficients over GF(p)."""
    result = 0
    for c in reversed(coeffs):
        result = (result * x + c) % p
    return result


def _parse_poly(text: str) -> Optional[List[int]]:
    """Parse :meth:`Poly.serialize` wire form ("" is the zero polynomial)."""
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        return None


def _uncertifiable_reason(header: Optional[Mapping[str, Any]]) -> str:
    """Why a trace header rules out certification ("" = certifiable)."""
    if header is None:
        return ""  # In-memory streams come from this build's emitters.
    if not header:
        return "trace has no schema header (pre-versioning trace)"
    minor = header.get("trace_schema_minor")
    if isinstance(minor, int) and minor > TRACE_SCHEMA_MINOR:
        return (
            f"trace_schema_minor {minor} is newer than this build "
            f"({TRACE_SCHEMA_MINOR}); its evidence may not be understood"
        )
    return ""


def _certify(
    header: Optional[Mapping[str, Any]],
    batches: Iterable[List[Tuple[Optional[int], Event]]],
    *,
    manifest: Optional[Mapping[str, Any]],
    manifest_label: Optional[str],
    trace: str,
    fragment: bool,
    digest: "Optional[_Hash]" = None,
) -> CertificateReport:
    """Run the checker over ``batches`` and report.

    A malformed line that stops the batches becomes a leading ``stream``
    issue.  ``digest``, fed by the batches' reader, is read once they have
    ended, when it covers the whole file.
    """
    reason = _uncertifiable_reason(header)
    checker = _Checker(header, manifest, fragment=fragment)
    feed = checker.feed
    count = 0
    issues: List[CertifyIssue] = []
    try:
        for batch in batches:
            count += len(batch)
            if not reason:
                for line, event in batch:
                    feed(line, event)
    except TraceSchemaError as exc:
        issues.append(
            CertifyIssue(
                check="stream",
                message=f"trace unreadable past this point: {exc}",
                line=exc.line,
            )
        )
    trace_sha256 = None if digest is None else digest.hexdigest()
    if not reason:
        checker.finalize(trace_sha256)
        issues.extend(checker.issues)
    return CertificateReport(
        trace=trace,
        certifiable=not reason,
        reason=reason,
        issues=tuple(issues),
        events=count,
        trace_sha256=trace_sha256,
        manifest=manifest_label,
        checks=FRAGMENT_CHECKS if fragment else CHECKS,
        fragment=fragment,
    )


def certify_events(
    events: Iterable[Event],
    *,
    header: Optional[Mapping[str, Any]] = None,
    manifest: Optional[Mapping[str, Any]] = None,
    trace: str = "<events>",
    fragment: bool = False,
) -> CertificateReport:
    """Certify an in-memory event stream (no file, no line anchors).

    ``header=None`` means the events came straight from this build's
    emitters and are treated as current-schema; pass the parsed file
    header to apply the certifiability gate.  ``fragment=True`` applies
    the flight-dump relaxations (see :class:`_Checker`).
    """
    return _certify(
        header,
        [[(None, event) for event in events]],
        manifest=manifest,
        manifest_label=None,
        trace=trace,
        fragment=fragment,
    )


#: What names a run's manifest: a location (one line, read back by
#: offset), a stream to look the trace up in, a scan of one, or ``None``
#: for the stream beside the trace.
ManifestSource = Union[str, Path, ManifestLocation, ManifestScan, None]


def _load_manifest(
    trace_path: Path, manifest: ManifestSource
) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """The manifest to check against, if any, and its label.

    A location is read with one positioned read.  A stream, or a scan of
    one, yields the *last* line naming the trace's file name
    (:func:`~repro.obs.manifests.lookup`; damage after it raises), and
    none is a usage error (``ValueError``).  Without either, the sibling
    ``manifests.ndjson`` is searched the same way, and a trace with no
    sibling stream or no line in it is checked without a manifest.
    """
    if isinstance(manifest, ManifestLocation):
        return read_at(manifest), str(manifest)
    name = trace_path.name
    if manifest is None:
        stream = trace_path.parent / MANIFEST_STREAM
        if not stream.exists():
            return None, None
        manifest = ManifestScan(stream, only=name)
        if manifest.find(name) is None:
            return None, None
    return lookup(manifest, name)


def certify_trace(
    path: Union[str, Path],
    manifest_path: ManifestSource = None,
    *,
    fragment: bool = False,
) -> CertificateReport:
    """Certify a JSONL trace file (the ``repro.obs certify`` entry point).

    Reads the file once via :func:`~repro.obs.sinks.iter_trace_batches`:
    the same bytes are hashed for the manifest's tamper check and parsed a
    chunk at a time, so every issue is anchored to its 1-based file line.  A
    malformed or truncated line mid-stream becomes a ``stream`` issue (the
    certificate *fails*, exit 1) rather than an error — tampering must
    never look like a usage mistake.  Header-level schema errors (an
    unsupported major) still raise :class:`~repro.obs.sinks.TraceSchemaError`.

    ``fragment=True`` (the CLI's ``--fragment``) checks a flight dump:
    the invariants that survive a missing prefix and a missing end.
    """
    resolved = Path(path)
    digest = hashlib.sha256()
    header, batches = iter_trace_batches(resolved, digest=digest)
    manifest, manifest_label = _load_manifest(resolved, manifest_path)
    return _certify(
        header,
        batches,
        manifest=manifest,
        manifest_label=manifest_label,
        trace=str(resolved),
        fragment=fragment,
        digest=digest,
    )


def certify_run(
    trace_path: Union[str, Path],
    manifest_path: ManifestSource = None,
) -> CertificateReport:
    """Certify or raise — the hook behind ``record_run(..., certify=True)``."""
    report = certify_trace(trace_path, manifest_path)
    if not report.ok:
        raise CertificationError(report.format())
    return report


def _exit_code(result: Union[CertificateReport, str]) -> int:
    """The per-file CLI's exit status for a certificate or an error."""
    return 2 if isinstance(result, str) else int(not result.ok)


@dataclass(frozen=True)
class LedgerReport:
    """The outcome of certifying a ledger directory (``certify DIR``).

    Each trace pairs with its certificate, or with the error the per-file
    CLI exits 2 on; each sweep index line with what is wrong with it (""
    for nothing).  ``damage`` is a damaged line after the stream's last
    intact line, which no lookup may pass over.
    """

    traces: Tuple[Tuple[str, Union[CertificateReport, str]], ...]
    sweeps: Tuple[Tuple[str, str], ...]
    damage: str = ""

    @property
    def status(self) -> int:
        """The exit status: 2 on an error, 1 on a failed check, else 0."""
        codes = [_exit_code(result) for _, result in self.traces]
        codes += [int(bool(problem)) for _, problem in self.sweeps]
        return max(codes + [2 if self.damage else 0])

    def format(self) -> str:
        """One line per trace (plus its issues) and per sweep index, a count."""
        lines: List[str] = []
        for trace, result in self.traces:
            if isinstance(result, str):
                lines.append(f"{trace}: error: {result}")
                continue
            lines.append(f"{trace}: {result.status}")
            lines.extend(f"  {issue.format(trace)}" for issue in result.issues)
        lines += [f"{index}: {p or 'sweep index OK'}" for index, p in self.sweeps]
        if self.damage:
            lines.append(f"error: {self.damage}")
        codes = [_exit_code(result) for _, result in self.traces]
        lines.append(
            f"{len(codes)} trace(s): {codes.count(0)} certified, "
            f"{codes.count(1)} failed, {codes.count(2)} error(s); "
            f"{len(self.sweeps)} sweep index(es), "
            f"{sum(1 for _, problem in self.sweeps if problem)} failed"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form: each trace's certificate as ``certify T`` gives it."""
        return {
            "count": len(self.traces),
            "status": self.status,
            "traces": [
                {"trace": trace, "error": result}
                if isinstance(result, str)
                else result.to_dict()
                for trace, result in self.traces
            ],
            "sweeps": [
                {"index": index, "problem": problem or None}
                for index, problem in self.sweeps
            ],
            "damage": self.damage or None,
        }


def sweep_cells_digest(lines: Iterable[bytes]) -> str:
    """The sweep ledger's cell digest: SHA-256 over the per-line digests.

    Defined as the hash of the newline-joined SHA-256 hex digests of the
    cell manifest lines (as written, newline included) in stream order, so
    a single edited cell line changes it.
    """
    parts = [hashlib.sha256(line).hexdigest() for line in lines]
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()


def _sweep_problem(scan: ManifestScan, position: int) -> str:
    """What is wrong with the sweep index at ``scan.lines[position]``.

    Its cells are the lines right before it: one cell line per listed
    cell, whose digest is the index's ``cells_sha256`` and whose run ids
    are the ones it lists, in order.
    """
    index = scan.lines[position][2] or {}
    cells = index.get("cells")
    if not isinstance(cells, list):
        return "sweep index lists no cells"
    preceding = scan.lines[max(position - len(cells), 0):position]
    if len(preceding) < len(cells) or any(
        data is None or data.get("kind") != "cell" for _, _, data in preceding
    ):
        return (
            f"missing cell line(s): the index lists {len(cells)} cells, but "
            f"the {len(cells)} lines before it are not all cells"
        )
    recorded = index.get("cells_sha256")
    if recorded is None:
        return "sweep index carries no cells_sha256 digest"
    actual = sweep_cells_digest(raw for _, raw, _ in preceding)
    if recorded != actual:
        return (
            f"cells digest mismatch: the index stamps {recorded} but the cell "
            f"lines hash to {actual}"
        )
    for cell, (number, _, data) in enumerate(preceding):
        run_id = compute_run_id(data or {})
        if run_id != cells[cell]:
            return (
                f"cell run id mismatch: the index lists {cells[cell]} for "
                f"cell {cell}, but line {number} hashes to {run_id}"
            )
    return ""


def _certify_or_error(
    path: Path, scan: ManifestScan
) -> Union[CertificateReport, str]:
    """``certify_trace``, or the error the CLI would report (exit 2)."""
    try:
        return certify_trace(path, scan)
    except (OSError, ValueError, KeyError, TypeError) as error:
        return str(error)


def certify_ledger(
    directory: Union[str, Path], *, traces: bool = True
) -> LedgerReport:
    """Certify a ledger directory in one pass over its manifest stream.

    ``DIR/manifests.ndjson`` is read once.  Every trace it names is
    certified against that name's last line, as ``certify DIR/T
    --manifest DIR/manifests.ndjson`` would, and so is every ``*.jsonl``
    in ``DIR`` that opens with a trace header but that no line names (an
    abandoned session's trace, say), which fails its lookup.  Other
    streams (``metrics.jsonl``) are skipped and subdirectories are not
    entered.  Every sweep index line is checked against the cell lines
    right before it.  ``traces=False`` checks the stream alone: the hook
    behind ``analysis.runner.sweep(..., certify=True)``.
    """
    root = Path(directory)
    scan = ManifestScan(root / MANIFEST_STREAM)
    results: Tuple[Tuple[str, Union[CertificateReport, str]], ...] = ()
    if traces:
        paths = [root / name for name in scan.named] + [
            path for path in sorted(root.glob("*.jsonl"))
            if path.name not in scan.named
            and path.is_file() and "trace_schema" in first_record(path)
        ]
        results = tuple((str(path), _certify_or_error(path, scan)) for path in paths)
    sweeps = [
        (f"{scan.path}:{number}", _sweep_problem(scan, position))
        for position, (number, _, data) in enumerate(scan.lines)
        if data is not None and data.get("kind") == "sweep"
    ]
    try:
        scan.find()
        damage = ""
    except ValueError as exc:
        damage = str(exc)
    return LedgerReport(results, tuple(sweeps), damage)


__all__ = [
    "CHECKS",
    "CertificateReport",
    "CertificationError",
    "CertifyIssue",
    "LedgerReport",
    "certify_events",
    "certify_ledger",
    "certify_run",
    "certify_trace",
    "sweep_cells_digest",
]

"""Every sensing's monitor against an independent whole-view oracle.

A sensing is defined by its monitor (see :mod:`repro.core.sensing`), and
``Sensing.indicate`` folds that monitor over a view — so comparing the two
would compare the monitor with itself.  The oracle here is instead written
in the paper's own form: a *predicate of the history*, a plain function of
the whole prefix, evaluated afresh on every prefix.  Each library sensing
must agree with its reference on every prefix of the synthetic views,
the empty one included.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

import pytest

from repro.comm.messages import UserInbox, UserOutbox, parse_tagged
from repro.comm.codecs import IdentityCodec
from repro.core.execution import run_execution
from repro.core.properties import judge_run
from repro.core.sensing import (
    AllOfSensing,
    AnyOfSensing,
    ConstantSensing,
    GraceSensing,
    IncrementalSensing,
    LastWorldMessageSensing,
    NoRecentProgressSensing,
    Sensing,
)
from repro.core.views import UserView, ViewRecord
from repro.obs import GraceSuppressed, MemorySink, Tracer
from repro.servers.advisors import AdvisorServer
from repro.users.control_users import AdvisorFollowingUser
from repro.worlds.control import control_goal, control_sensing
from repro.worlds.counting import counting_sensing
from repro.worlds.computation import delegation_sensing
from repro.worlds.navigation import navigation_sensing
from repro.worlds.printer import printing_sensing

from tests.universal.helpers import YesSensing, keyword_sensing

History = Sequence[ViewRecord]
Predicate = Callable[[History], bool]


# -- Reference predicates: functions of the whole history ------------------


def constant(value: bool) -> Predicate:
    return lambda history: value


def negation(inner: Predicate) -> Predicate:
    return lambda history: not inner(history)


def world_messages(history: History) -> list:
    return [r.inbox.from_world for r in history if r.inbox.from_world]


def last_world_message(predicate, default: bool) -> Predicate:
    def reference(history: History) -> bool:
        messages = world_messages(history)
        return bool(predicate(messages[-1])) if messages else default

    return reference


def grace(rounds: int, inner: Predicate) -> Predicate:
    return lambda history: len(history) <= rounds or inner(history)


def all_of(*parts: Predicate) -> Predicate:
    return lambda history: all([part(history) for part in parts])


def any_of(*parts: Predicate) -> Predicate:
    return lambda history: any([part(history) for part in parts])


def no_stall(rounds: int) -> Predicate:
    def reference(history: History) -> bool:
        recent = history[-rounds:]
        return len(history) < rounds or any(
            r.inbox.from_world or r.inbox.from_server for r in recent
        )

    return reference


def printed_tail(history: History) -> bool:
    """The latest ``JOB:``-tagged world report shows the job printed."""
    jobs = [m for m in world_messages(history) if m.startswith("JOB:")]
    if not jobs:
        return False
    job, _, rest = jobs[-1].partition(";")
    tail = parse_tagged(rest)
    return tail is not None and tail[0] == "TAIL" and job[4:] in tail[1]


def arrived(history: History) -> bool:
    messages = world_messages(history)
    return bool(messages) and messages[-1].partition(";AT:")[2] == "1"


def proof_accepted(history: History) -> bool:
    return bool(history) and bool(
        getattr(history[-1].state_after, "proof_accepted", False)
    )


def yes_for_own_word(default: bool) -> Predicate:
    """The latest server reply is ``YES:<w>`` for a word ``w`` sent here."""

    def reference(history: History) -> bool:
        replies = [r.inbox.from_server for r in history if r.inbox.from_server]
        if not replies:
            return default
        verdict, _, word = replies[-1].partition(":")
        sent = [r.outbox.to_server for r in history]
        return verdict == "YES" and word in sent

    return reference


# -- Synthetic views ---------------------------------------------------------


class ProofState(NamedTuple):
    proof_accepted: bool


WORLD_CHATTER = [
    "FB:ok", "FB:bad", "noise", "JOB:doc", "JOB:doc;TAIL:xxdocxx",
    "JOB:doc;TAIL:zz", "JOB:doc;junk", "POS:1,2;AT:1", "POS:1,2;AT:0",
]


def synthetic_view(seed: int, rounds: int = 60) -> UserView:
    """A view mixing silence, world chatter, server replies and proof flags."""
    rng = random.Random(seed)
    view = UserView()
    for index in range(rounds):
        from_world = rng.choice(WORLD_CHATTER) if rng.random() < 0.4 else ""
        from_server = ""
        if rng.random() < 0.3:
            verdict = rng.choice(["YES", "NO"])
            from_server = f"{verdict}:U{rng.randrange(index + 3)}"
        view.append(
            ViewRecord(
                round_index=index,
                state_before=index,
                inbox=UserInbox(from_world=from_world, from_server=from_server),
                outbox=UserOutbox(to_server=f"U{index}" if rng.random() < 0.5 else ""),
                state_after=ProofState(rng.random() < 0.2) if index % 3 else index,
            )
        )
    return view


def monitor_trace(sensing: Sensing, view: UserView) -> list:
    monitor = sensing.incremental()
    return [monitor.empty] + [monitor.observe(record) for record in view]


def reference_trace(reference: Predicate, view: UserView) -> list:
    """The reference on every prefix, the empty one first."""
    records = view.records
    return [reference(records[:t]) for t in range(len(records) + 1)]


def _feedback_ok(message: str) -> bool:
    return message.endswith("ok")


def case(sensing: Sensing, reference: Predicate):
    return pytest.param(sensing, reference, id=sensing.name)


LIBRARY = [
    case(ConstantSensing(True), constant(True)),
    case(ConstantSensing(False), constant(False)),
    case(
        LastWorldMessageSensing(predicate=_feedback_ok, default=True),
        last_world_message(_feedback_ok, True),
    ),
    case(
        LastWorldMessageSensing(predicate=_feedback_ok, default=False),
        last_world_message(_feedback_ok, False),
    ),
    case(
        GraceSensing(LastWorldMessageSensing(predicate=_feedback_ok), grace_rounds=7),
        grace(7, last_world_message(_feedback_ok, True)),
    ),
    case(GraceSensing(ConstantSensing(False), grace_rounds=3), grace(3, constant(False))),
    case(NoRecentProgressSensing(stall_rounds=5), no_stall(5)),
    case(NoRecentProgressSensing(stall_rounds=1), no_stall(1)),
    case(
        LastWorldMessageSensing(predicate=_feedback_ok).negate(),
        negation(last_world_message(_feedback_ok, True)),
    ),
    case(
        AllOfSensing(
            (
                GraceSensing(LastWorldMessageSensing(predicate=_feedback_ok), 4),
                NoRecentProgressSensing(stall_rounds=6),
            )
        ),
        all_of(grace(4, last_world_message(_feedback_ok, True)), no_stall(6)),
    ),
    case(
        AnyOfSensing(
            (
                LastWorldMessageSensing(predicate=_feedback_ok, default=False),
                NoRecentProgressSensing(stall_rounds=9),
            )
        ),
        any_of(last_world_message(_feedback_ok, False), no_stall(9)),
    ),
    # The four finite-goal sensings.
    case(printing_sensing(), printed_tail),
    case(navigation_sensing(), arrived),
    case(delegation_sensing(), proof_accepted),
    case(counting_sensing(), proof_accepted),
    # Negation and the combinators over them.
    case(printing_sensing().negate(), negation(printed_tail)),
    case(AnyOfSensing(()), any_of()),
    case(AllOfSensing(()), all_of()),
    case(
        AllOfSensing((navigation_sensing(), GraceSensing(printing_sensing(), 2))),
        all_of(arrived, grace(2, printed_tail)),
    ),
    # The universal-user test helper.
    case(YesSensing(default=True), yes_for_own_word(True)),
    case(keyword_sensing(), grace(2, yes_for_own_word(False))),
]


class TestNativeEquivalence:
    @pytest.mark.parametrize("sensing,reference", LIBRARY)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monitor_matches_prefix_reevaluation(self, sensing, reference, seed):
        view = synthetic_view(seed)
        assert monitor_trace(sensing, view) == reference_trace(reference, view)

    @pytest.mark.parametrize("sensing,reference", LIBRARY)
    def test_indicate_matches_reference_on_every_prefix(self, sensing, reference):
        view = synthetic_view(3)
        records = view.records
        assert [
            sensing.indicate(UserView(records[:t])) for t in range(len(records) + 1)
        ] == reference_trace(reference, view)

    def test_library_sensing_is_native(self):
        """Every shipped sensing is defined by a monitor of its own."""
        for param in LIBRARY:
            sensing = param.values[0]
            assert isinstance(sensing.incremental(), IncrementalSensing), sensing.name

    def test_monitors_are_fresh_per_call(self):
        sensing = NoRecentProgressSensing(stall_rounds=3)
        view = synthetic_view(5)
        first = monitor_trace(sensing, view)
        second = monitor_trace(sensing, view)
        assert first == second

    def test_synthetic_views_exercise_both_verdicts(self):
        """The oracle comparison is not vacuous for the finite sensings."""
        for reference in (printed_tail, arrived, proof_accepted, yes_for_own_word(False)):
            verdicts = set()
            for seed in (0, 1, 2):
                verdicts.update(reference_trace(reference, synthetic_view(seed)))
            assert verdicts == {False, True}


class TestGraceEvents:
    def test_traced_grace_emits_same_suppressions(self):
        """``indicate`` (the fold) and a live monitor report the same rounds."""

        def events(run):
            tracer = Tracer(sink=MemorySink())
            sensing = GraceSensing(ConstantSensing(False), 4).with_tracer(tracer)
            run(sensing, synthetic_view(2, rounds=10))
            return [e.round_index for e in tracer.sink.of_kind(GraceSuppressed)]

        folded = events(lambda sensing, view: sensing.indicate(view))
        live = events(monitor_trace)
        assert folded == live == [0, 1, 2, 3]

    def test_combinators_report_every_grace_suppression(self):
        """A decided earlier component must not hide a later grace event."""
        tracer = Tracer(sink=MemorySink())
        sensing = AllOfSensing(
            (
                ConstantSensing(False),
                GraceSensing(ConstantSensing(False), 3).with_tracer(tracer),
            )
        )
        assert not sensing.indicate(synthetic_view(2, rounds=1))
        assert len(tracer.sink.of_kind(GraceSuppressed)) == 1


class _Mod3Sensing(Sensing):
    """Positive unless the trial length is a multiple of three."""

    def incremental(self) -> IncrementalSensing:
        return _Mod3Incremental()


class _Mod3Incremental(IncrementalSensing):
    __slots__ = ("_rounds",)
    empty = False

    def __init__(self) -> None:
        self._rounds = 0

    def observe(self, record: ViewRecord) -> bool:
        self._rounds += 1
        return bool(self._rounds % 3)


def control_run(max_rounds: int, seed: int):
    law = {"red": "blue", "blue": "red"}
    return run_execution(
        AdvisorFollowingUser(IdentityCodec()),
        AdvisorServer(law),
        control_goal(law).world,
        max_rounds=max_rounds,
        seed=seed,
    )


def judged_control_run(sensing: Sensing, max_rounds: int, seed: int):
    law = {"red": "blue", "blue": "red"}
    return judge_run(
        AdvisorFollowingUser(IdentityCodec()), AdvisorServer(law),
        control_goal(law), sensing, seed=seed, max_rounds=max_rounds,
    )


def trace_fold(trace: list) -> tuple:
    """(final indication, last negative round or -1) of a prefix trace."""
    negatives = [index for index, positive in enumerate(trace[1:]) if not positive]
    return trace[-1], negatives[-1] if negatives else -1


class TestIndicationsPerRound:
    """The judge folds the verdict on every non-empty prefix of the view."""

    def test_identical_trace_on_a_real_execution(self):
        sensing = control_sensing()
        reference = grace(
            sensing.grace_rounds,
            last_world_message(sensing.inner.predicate, sensing.inner.default),
        )
        judgement = judged_control_run(sensing, 120, seed=0)
        view = control_run(120, seed=0).user_view
        assert (judgement.indication, judgement.last_negative) == trace_fold(
            reference_trace(reference, view)
        )

    def test_identical_trace_for_custom_sensing(self):
        judgement = judged_control_run(_Mod3Sensing(), 80, seed=1)
        view = control_run(80, seed=1).user_view
        assert (judgement.indication, judgement.last_negative) == trace_fold(
            reference_trace(lambda history: bool(len(history) % 3), view)
        )
        assert judgement.last_negative == 77  # Rounds 2, 5, ..., 77 read negative.

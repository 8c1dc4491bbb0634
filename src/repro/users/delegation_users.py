"""Delegation users: the polynomial-time verifier as a user strategy.

:class:`DelegationUser` wraps the :class:`~repro.ip.qbf_protocol.QBFVerifierSession`
into the three-party model: it reads the instance from the world, runs the
interactive proof with the server *through a codec guess*, and halts with
``ANSWER:<bit>`` only if the proof verified.  Its state exposes
``proof_accepted``, which the delegation goal's sensing
(:class:`repro.worlds.computation.VerifiedProofSensing`) reads — making the
IP's soundness literally the *safety* of the sensing.

Behaviour under mismatch or malice, by construction:

* wrong codec — the server's replies decode to junk; the user waits, nudges
  (re-sends its last request after ``resend_every`` rounds) and never
  halts, so a universal wrapper's trial budget expires and the next
  candidate runs;
* cheating prover — some check fails; the user marks the trial failed and
  goes quiet (same outcome, rejection instead of timeout);
* lazy prover — a bare ``CLAIM`` never reaches the halt path, because only
  a finished, *accepted* verifier session can halt the user.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.comm.codecs import Codec
from repro.comm.messages import SILENCE, UserInbox, UserOutbox, parse_tagged
from repro.core.strategy import UserStrategy
from repro.errors import AlgebraError, CodecError, FormulaError
from repro.ip.qbf_protocol import QBFVerifierSession
from repro.ip.transcript import transcript_events
from repro.mathx.modular import Field
from repro.mathx.polynomials import Poly
from repro.obs.tracer import TracerLike, is_tracing
from repro.qbf.qbf import QBF

#: Protocol phases of the delegation user.
_WAIT_INSTANCE = "wait-instance"
_WAIT_CLAIM = "wait-claim"
_WAIT_POLY = "wait-poly"
_FAILED = "failed"


@dataclass(frozen=True)
class DelegationUserState:
    """State of one delegation attempt; ``proof_accepted`` feeds sensing.

    An immutable value: each step returns a new one, so a full recording's
    per-round records never alias a state a later round changed.  The
    verifier ``session`` is one object per proof, advanced as the
    polynomials arrive; sensing reads only ``proof_accepted``.  ``tracer``
    is the run's (``None`` when untraced), kept out of equality and
    ``repr``; it receives the finished proof's transcript events.
    """

    phase: str = _WAIT_INSTANCE
    instance: Optional[str] = None
    session: Optional[QBFVerifierSession] = None
    claim: Optional[int] = None
    expected_round: int = 0
    last_request: str = SILENCE
    rounds_waiting: int = 0
    proof_accepted: bool = False
    tracer: TracerLike = field(default=None, compare=False, repr=False)


#: One step's result: the next state and this round's outbox.
_Reply = Tuple[DelegationUserState, UserOutbox]


class DelegationUser(UserStrategy):
    """Verifies a delegated TQBF answer through one codec guess."""

    def __init__(
        self,
        codec: Codec,
        field_: Field,
        *,
        resend_every: int = 8,
        proof_seed: int = 0,
    ) -> None:
        if resend_every < 1:
            raise ValueError(f"resend_every must be >= 1: {resend_every}")
        self._codec = codec
        self._field = field_
        self._resend_every = resend_every
        self._proof_seed = proof_seed

    @property
    def name(self) -> str:
        return f"delegate@{self._codec.name}"

    def initial_state(self, rng: random.Random) -> DelegationUserState:
        return DelegationUserState()

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> DelegationUserState:
        return DelegationUserState(tracer=tracer)

    # ------------------------------------------------------------------
    def step(
        self, state: DelegationUserState, inbox: UserInbox, rng: random.Random
    ) -> _Reply:
        if state.phase == _FAILED:
            return state, UserOutbox()

        if state.phase == _WAIT_INSTANCE:
            reply = self._read_instance(state, inbox)
        elif state.phase == _WAIT_CLAIM:
            reply = self._read_claim(state, self._decode(inbox.from_server), rng)
        else:  # _WAIT_POLY
            reply = self._read_poly(state, self._decode(inbox.from_server))
        if reply is not None:
            return reply

        # Nothing useful arrived: wait, and nudge the server periodically in
        # case our request was lost or ignored.
        waiting = state.rounds_waiting + 1
        if waiting >= self._resend_every and state.last_request:
            return (
                replace(state, rounds_waiting=0),
                UserOutbox(to_server=self._codec.encode(state.last_request)),
            )
        return replace(state, rounds_waiting=waiting), UserOutbox()

    # ------------------------------------------------------------------
    def _read_instance(
        self, state: DelegationUserState, inbox: UserInbox
    ) -> Optional[_Reply]:
        parsed = parse_tagged(inbox.from_world)
        if parsed is None or parsed[0] != "INSTANCE":
            return None
        try:
            QBF.deserialize(parsed[1])
        except FormulaError:
            return None
        instance = parsed[1]
        state = replace(state, instance=instance, phase=_WAIT_CLAIM)
        return self._request(state, f"PROVE:{instance}")

    def _read_claim(
        self, state: DelegationUserState, server_says: Optional[str], rng: random.Random
    ) -> Optional[_Reply]:
        parsed = parse_tagged(server_says or "")
        if parsed is None or parsed[0] != "CLAIM" or parsed[1] not in ("0", "1"):
            return None
        assert state.instance is not None
        qbf = QBF.deserialize(state.instance)
        # The verifier's challenges must be unpredictable to the prover but
        # reproducible per execution: derive them from the engine-provided
        # user RNG (plus a fixed tweak so tests can pin them).
        session_rng = random.Random(rng.getrandbits(64) ^ self._proof_seed)
        session = QBFVerifierSession(qbf, self._field, session_rng)
        claim = int(parsed[1])
        session.begin(claim)
        state = replace(
            state, session=session, claim=claim, phase=_WAIT_POLY, expected_round=0
        )
        return self._request(state, "ROUND:0")

    def _read_poly(
        self, state: DelegationUserState, server_says: Optional[str]
    ) -> Optional[_Reply]:
        parsed = parse_tagged(server_says or "")
        if parsed is None or parsed[0] != "POLY":
            return None
        index_text, _, coeffs_text = parsed[1].partition(":")
        try:
            index = int(index_text)
        except ValueError:
            return None
        if index != state.expected_round:
            return None
        session = state.session
        assert session is not None
        try:
            poly = Poly.deserialize(self._field, coeffs_text)
        except AlgebraError:
            return replace(state, phase=_FAILED), UserOutbox()
        challenge = session.receive_poly(poly)
        if session.finished:
            self._emit_proof(state.tracer, session)
            if session.accepted:
                return (
                    replace(state, proof_accepted=True),
                    UserOutbox(halt=True, output=f"ANSWER:{state.claim}"),
                )
            return replace(state, phase=_FAILED), UserOutbox()
        state = replace(state, expected_round=index + 1)
        return self._request(state, f"ROUND:{index + 1}:{challenge}")

    def _emit_proof(self, tracer: TracerLike, session: QBFVerifierSession) -> None:
        """Serialise the finished session's transcript into the trace."""
        if not is_tracing(tracer):
            return
        transcript = session.transcript
        if transcript is None or transcript.accepted is None:
            return
        for event in transcript_events(
            transcript, protocol="qbf", modulus=self._field.p
        ):
            tracer.emit(event)

    # ------------------------------------------------------------------
    def _request(self, state: DelegationUserState, plain: str) -> _Reply:
        return (
            replace(state, last_request=plain, rounds_waiting=0),
            UserOutbox(to_server=self._codec.encode(plain)),
        )

    def _decode(self, message: str) -> Optional[str]:
        if message == SILENCE:
            return None
        try:
            return self._codec.decode(message)
        except CodecError:
            return None


def delegation_user_class(
    codecs: Sequence[Codec], field_: Field
) -> List[DelegationUser]:
    """One delegation user per codec guess, in enumeration order."""
    return [DelegationUser(codec, field_) for codec in codecs]


@dataclass(frozen=True)
class RepeatedDelegationState:
    """State of the multi-session wrapper: inner verifier + session id.

    An immutable value, like :class:`DelegationUserState`.

    ``done_with_session`` guards against the stale-announcement race: after
    answering session k, the world's k-announcements are still in flight
    for a round; re-verifying one would pair the *old* instance's CLAIM
    with the *next* instance and poison that session.
    """

    inner: DelegationUserState
    session: Optional[str] = None
    done_with_session: bool = False


class RepeatedDelegationUser(UserStrategy):
    """Runs one :class:`DelegationUser` per session, forever.

    Adapts the finite delegation protocol to the repeated-computation
    world (:mod:`repro.worlds.repeated`): it tracks the world's session id,
    restarts a fresh inner verifier whenever the session changes, strips
    the session framing off the instance announcement, and converts the
    inner verifier's halt into a session-tagged ``ANSWER:<k>=<bit>`` to the
    world.  A failed proof simply idles the session out — the deadline
    scores it and the next session begins, which is what lets a universal
    wrapper's sensing evict a wrong codec guess.
    """

    def __init__(
        self,
        codec: Codec,
        field_: Field,
        *,
        resend_every: int = 8,
        proof_seed: int = 0,
    ) -> None:
        self._verifier = DelegationUser(
            codec, field_, resend_every=resend_every, proof_seed=proof_seed
        )
        self._codec = codec

    @property
    def name(self) -> str:
        return f"redelegate@{self._codec.name}"

    def initial_state(self, rng: random.Random) -> RepeatedDelegationState:
        return RepeatedDelegationState(inner=self._verifier.initial_state(rng))

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> RepeatedDelegationState:
        """The inner verifier emits the proof events, so it keeps the tracer
        (and hands it on to each session's fresh verifier state)."""
        return RepeatedDelegationState(
            inner=self._verifier.initial_traced_state(rng, tracer)
        )

    def step(
        self, state: RepeatedDelegationState, inbox: UserInbox, rng: random.Random
    ) -> Tuple[RepeatedDelegationState, UserOutbox]:
        session, instance = self._parse_world(inbox.from_world)
        if session is not None and session != state.session:
            state = RepeatedDelegationState(
                inner=self._verifier.initial_traced_state(rng, state.inner.tracer),
                session=session,
            )

        announce = instance if not state.done_with_session else None
        synthetic = UserInbox(
            from_server=inbox.from_server,
            from_world=f"INSTANCE:{announce}" if announce else SILENCE,
        )
        inner, outbox = self._verifier.step(state.inner, synthetic, rng)

        if outbox.halt:
            parsed = parse_tagged(outbox.output or "")
            bit = parsed[1] if parsed is not None and parsed[0] == "ANSWER" else ""
            answer = (
                f"ANSWER:{state.session}={bit}"
                if bit in ("0", "1") and state.session is not None
                else SILENCE
            )
            # Idle until the world opens the next session (its id changes).
            idle = RepeatedDelegationState(
                inner=self._verifier.initial_traced_state(rng, state.inner.tracer),
                session=state.session,
                done_with_session=True,
            )
            return idle, UserOutbox(to_server=outbox.to_server, to_world=answer)
        return replace(state, inner=inner), outbox

    @staticmethod
    def _parse_world(message: str) -> Tuple[Optional[str], Optional[str]]:
        """Extract (session id, instance wire form) from an announcement."""
        if not message:
            return None, None
        body, _, _fb = message.partition(";FB:")
        parsed = parse_tagged(body)
        if parsed is None or parsed[0] != "INSTANCE":
            return None, None
        session, sep, instance = parsed[1].partition(":")
        if not sep or not session or not instance:
            return None, None
        return session, instance


def repeated_delegation_user_class(
    codecs: Sequence[Codec], field_: Field
) -> List[RepeatedDelegationUser]:
    """One repeated-delegation user per codec guess, in enumeration order."""
    return [RepeatedDelegationUser(codec, field_) for codec in codecs]

"""Counting users: the sumcheck verifier as a user strategy.

The #SAT sibling of :class:`repro.users.delegation_users.DelegationUser`:
reads the instance from the counting world, runs the sumcheck with the
server through a codec guess, and halts with ``COUNT:<n>`` only when the
proof verified.  State exposes ``proof_accepted`` for the goal's sensing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.comm.codecs import Codec
from repro.comm.messages import SILENCE, UserInbox, UserOutbox, parse_tagged
from repro.core.strategy import UserStrategy
from repro.errors import AlgebraError, CodecError, FormulaError
from repro.ip.sumcheck import SumcheckVerifierSession
from repro.ip.transcript import transcript_events
from repro.mathx.modular import Field
from repro.mathx.polynomials import Poly
from repro.obs.tracer import TracerLike, is_tracing
from repro.qbf import formulas
from repro.worlds.counting import canonical_order

_WAIT_INSTANCE = "wait-instance"
_WAIT_CLAIM = "wait-claim"
_WAIT_POLY = "wait-poly"
_FAILED = "failed"


@dataclass(frozen=True)
class CountingUserState:
    """State of one counting attempt; ``proof_accepted`` feeds sensing.

    An immutable value: each step returns a new one, so a full recording's
    per-round records never alias a state a later round changed.  The
    verifier ``session`` is one object per proof, advanced as the
    polynomials arrive; sensing reads only ``proof_accepted``.  ``tracer``
    is the run's (``None`` when untraced), kept out of equality and
    ``repr``; it receives the finished proof's transcript events.
    """

    phase: str = _WAIT_INSTANCE
    instance: Optional[str] = None
    session: Optional[SumcheckVerifierSession] = None
    claim: Optional[int] = None
    expected_round: int = 0
    last_request: str = SILENCE
    rounds_waiting: int = 0
    proof_accepted: bool = False
    tracer: TracerLike = field(default=None, compare=False, repr=False)


#: One step's result: the next state and this round's outbox.
_Reply = Tuple[CountingUserState, UserOutbox]


class CountingUser(UserStrategy):
    """Verifies a delegated #SAT count through one codec guess."""

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
        return f"count@{self._codec.name}"

    def initial_state(self, rng: random.Random) -> CountingUserState:
        return CountingUserState()

    def initial_traced_state(
        self, rng: random.Random, tracer: TracerLike
    ) -> CountingUserState:
        return CountingUserState(tracer=tracer)

    def step(
        self, state: CountingUserState, inbox: UserInbox, rng: random.Random
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
        # case our request was lost or ignored (no request before the
        # instance arrives, so nothing to nudge with).
        waiting = state.rounds_waiting + 1
        if waiting >= self._resend_every and state.last_request:
            return (
                replace(state, rounds_waiting=0),
                UserOutbox(to_server=self._codec.encode(state.last_request)),
            )
        return replace(state, rounds_waiting=waiting), UserOutbox()

    # ------------------------------------------------------------------
    def _read_instance(
        self, state: CountingUserState, inbox: UserInbox
    ) -> Optional[_Reply]:
        parsed = parse_tagged(inbox.from_world)
        if parsed is None or parsed[0] != "COUNT-INSTANCE":
            return None
        try:
            formulas.parse(parsed[1])
        except FormulaError:
            return None
        instance = parsed[1]
        state = replace(state, instance=instance, phase=_WAIT_CLAIM)
        return self._request(state, f"COUNT:{instance}")

    def _read_claim(
        self, state: CountingUserState, server_says: Optional[str], rng: random.Random
    ) -> Optional[_Reply]:
        parsed = parse_tagged(server_says or "")
        if parsed is None or parsed[0] != "CLAIMSUM":
            return None
        try:
            claim = int(parsed[1])
        except ValueError:
            return None
        assert state.instance is not None
        formula = formulas.parse(state.instance)
        order = canonical_order(formula)
        # Integer range check BEFORE the algebra: the sumcheck verifies the
        # claim modulo p, so a prover could claim ``count + p`` — field-equal
        # to the truth, integer-wrong.  A count of n variables lies in
        # [0, 2^n]; anything else is a lie no polynomial can launder.
        if not 0 <= claim <= 2 ** len(order):
            return replace(state, phase=_FAILED), UserOutbox()
        session_rng = random.Random(rng.getrandbits(64) ^ self._proof_seed)
        session = SumcheckVerifierSession(formula, self._field, order, session_rng)
        session.begin(claim)
        state = replace(
            state, session=session, claim=claim, phase=_WAIT_POLY, expected_round=0
        )
        return self._request(state, "SROUND:0")

    def _read_poly(
        self, state: CountingUserState, server_says: Optional[str]
    ) -> Optional[_Reply]:
        parsed = parse_tagged(server_says or "")
        if parsed is None or parsed[0] != "SPOLY":
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
                    UserOutbox(halt=True, output=f"COUNT:{state.claim}"),
                )
            return replace(state, phase=_FAILED), UserOutbox()
        state = replace(state, expected_round=index + 1)
        return self._request(state, f"SROUND:{index + 1}:{challenge}")

    def _emit_proof(
        self, tracer: TracerLike, session: SumcheckVerifierSession
    ) -> None:
        """Serialise the finished session's transcript into the trace."""
        if not is_tracing(tracer):
            return
        transcript = session.transcript
        if transcript is None or transcript.accepted is None:
            return
        for event in transcript_events(
            transcript, protocol="sumcheck", modulus=self._field.p
        ):
            tracer.emit(event)

    # ------------------------------------------------------------------
    def _request(self, state: CountingUserState, plain: str) -> _Reply:
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


def counting_user_class(
    codecs: Sequence[Codec], field_: Field
) -> List[CountingUser]:
    """One counting user per codec guess, in enumeration order."""
    return [CountingUser(codec, field_) for codec in codecs]

"""The computation world — the delegation goal (cf. Juba–Sudan, STOC'08).

The world poses an instance of TQBF and the (finite) goal is achieved when
the user halts having announced the instance's truth value.  The user is
meant to be polynomial-time, so it cannot just evaluate the instance — it
must extract the answer from the server, an untrusted, possibly alien
prover.  The interactive proof of :mod:`repro.ip` is what lets the user
*trust* an answer it cannot recompute: soundness makes "the proof verified"
a safe indication.

The referee, by contrast, is the model's omniscient judge: it evaluates the
instance (exponential time, fine for the judge) and compares with the
user's announced answer.  Note the asymmetry is exactly the paper's —
referees are definitional devices, not runtime components of the user.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.comm.messages import WorldInbox, WorldOutbox, parse_tagged
from repro.core.execution import ExecutionResult
from repro.core.goals import FiniteGoal
from repro.core.referees import FiniteReferee
from repro.core.sensing import IncrementalSensing, Sensing
from repro.core.strategy import WorldStrategy
from repro.core.views import ViewRecord
from repro.qbf.qbf import QBF


@dataclass(frozen=True)
class ComputationState:
    """World state: the posed instance (wire form, hashable & comparable)."""

    instance: str


class ComputationWorld(WorldStrategy):
    """Poses one QBF instance, re-announced every round as ``INSTANCE:<qbf>``.

    The world is passive beyond posing the problem: the interesting action
    is all on the user↔server channel.  Re-announcing each round keeps the
    goal forgiving and lets abandoned trials restart cleanly.
    """

    def __init__(self, instances: Sequence[QBF]) -> None:
        if not instances:
            raise ValueError("ComputationWorld needs at least one instance")
        self._instances = [q.serialize() for q in instances]

    @property
    def name(self) -> str:
        return f"computation-world[{len(self._instances)}]"

    def initial_state(self, rng: random.Random) -> ComputationState:
        return ComputationState(instance=rng.choice(self._instances))

    def step(
        self, state: ComputationState, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[ComputationState, WorldOutbox]:
        return state, WorldOutbox(to_user=f"INSTANCE:{state.instance}")


class CorrectAnswerReferee(FiniteReferee):
    """Accepts iff the user halted with ``ANSWER:<bit>`` matching the truth."""

    def accepts(self, execution: ExecutionResult) -> bool:
        state = execution.final_world_state()
        if not isinstance(state, ComputationState):
            return False
        output = execution.user_output or ""
        parsed = parse_tagged(output)
        if parsed is None or parsed[0] != "ANSWER" or parsed[1] not in ("0", "1"):
            return False
        truth = QBF.deserialize(state.instance).evaluate()
        return parsed[1] == ("1" if truth else "0")


def delegation_goal(instances: Sequence[QBF]) -> FiniteGoal:
    """The finite goal "announce the correct truth value of the instance"."""
    return FiniteGoal(
        name="delegation",
        world=ComputationWorld(instances),
        referee=CorrectAnswerReferee(),
        forgiving=True,
    )


@dataclass(frozen=True)
class VerifiedProofSensing(Sensing):
    """Positive iff the user's own verifier has accepted a proof.

    Sensing may inspect the user's internal states (they are part of the
    user's view); by convention the delegation and counting users expose a
    ``proof_accepted`` attribute on their state.  Safety here is *inherited
    from the soundness of the interactive proof*: whoever the server is,
    ``proof_accepted`` implies the announced value is correct except with
    probability ≈ deg/p.  This is the paper's delegation story in one line.
    """

    label: str = "verified-proof"

    @property
    def name(self) -> str:
        return self.label

    def incremental(self) -> IncrementalSensing:
        return _ProofAcceptedIncremental()


class _ProofAcceptedIncremental(IncrementalSensing):
    """Reads the flag off the latest user state; nothing to remember."""

    __slots__ = ()
    empty = False

    def observe(self, record: ViewRecord) -> bool:
        return bool(getattr(record.state_after, "proof_accepted", False))


def delegation_sensing() -> Sensing:
    """The delegation goal's sensing (see :class:`VerifiedProofSensing`)."""
    return VerifiedProofSensing()

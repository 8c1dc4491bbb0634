"""The counting world — #SAT delegation via the sumcheck protocol.

A second delegation goal alongside TQBF (:mod:`repro.worlds.computation`),
one complexity notch down: the world poses a CNF formula and the user must
announce its number of satisfying assignments.  #SAT is #P-complete — still
far beyond a polynomial-time user — and the classic LFKN *sumcheck*
protocol (:mod:`repro.ip.sumcheck`) lets an untrusted prover convince the
user of the count.

Mechanically a sibling of the computation world; the pair demonstrates
that the delegation story of the paper is not tied to one protocol: any
interactive proof with completeness and soundness plugs into the same
goal/sensing mold.  (This is also why the modules are separate rather than
generic over "some IP": the wire formats and referees are goal-specific,
the *pattern* is what repeats.)

Variable-order convention: both prover and verifier process variables in
the canonical sorted order of the formula's variable names, so no order
negotiation is needed on the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.comm.messages import WorldInbox, WorldOutbox, parse_tagged
from repro.core.execution import ExecutionResult
from repro.core.goals import FiniteGoal
from repro.core.referees import FiniteReferee
from repro.core.sensing import Sensing
from repro.core.strategy import WorldStrategy
from repro.errors import FormulaError
from repro.ip.sumcheck import count_satisfying_assignments
from repro.qbf import formulas
from repro.qbf.formulas import Formula
from repro.worlds.computation import VerifiedProofSensing


def canonical_order(formula: Formula) -> List[str]:
    """The variable order both parties use for the sumcheck rounds."""
    return sorted(formulas.variables(formula))


@dataclass(frozen=True)
class CountingState:
    """World state: the posed formula (wire form)."""

    instance: str


class CountingWorld(WorldStrategy):
    """Poses one CNF instance, re-announced as ``COUNT-INSTANCE:<formula>``."""

    def __init__(self, instances: Sequence[Formula]) -> None:
        if not instances:
            raise ValueError("CountingWorld needs at least one instance")
        self._instances = [formulas.serialize(f) for f in instances]

    @property
    def name(self) -> str:
        return f"counting-world[{len(self._instances)}]"

    def initial_state(self, rng: random.Random) -> CountingState:
        return CountingState(instance=rng.choice(self._instances))

    def step(
        self, state: CountingState, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[CountingState, WorldOutbox]:
        return state, WorldOutbox(to_user=f"COUNT-INSTANCE:{state.instance}")


class CorrectCountReferee(FiniteReferee):
    """Accepts iff the user halted with ``COUNT:<n>`` matching #SAT."""

    def accepts(self, execution: ExecutionResult) -> bool:
        state = execution.final_world_state()
        if not isinstance(state, CountingState):
            return False
        parsed = parse_tagged(execution.user_output or "")
        if parsed is None or parsed[0] != "COUNT":
            return False
        try:
            claimed = int(parsed[1])
        except ValueError:
            return False
        try:
            formula = formulas.parse(state.instance)
        except FormulaError:
            return False
        return claimed == count_satisfying_assignments(
            formula, canonical_order(formula)
        )


def counting_goal(instances: Sequence[Formula]) -> FiniteGoal:
    """The finite goal "announce the instance's satisfying-assignment count"."""
    return FiniteGoal(
        name="counting",
        world=CountingWorld(instances),
        referee=CorrectCountReferee(),
        forgiving=True,
    )


def counting_sensing() -> Sensing:
    """The counting goal's sensing: the user's sumcheck verifier accepted.

    Same convention as the TQBF goal (see
    :class:`~repro.worlds.computation.VerifiedProofSensing`): the counting
    users expose a ``proof_accepted`` flag on their state, and the
    sumcheck's soundness is what makes trusting it safe.
    """
    return VerifiedProofSensing(label="verified-sum")

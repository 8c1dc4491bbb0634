"""Patience budgets: bounded retry instead of spurious switching under noise.

The semantics under test (all three universal users):

* the budget is *per trial* and cumulative — a candidate is evicted on its
  ``patience + 1``-th negative indication, and interleaved positives do not
  refill the budget (a genuinely failing candidate cannot live forever on
  occasional luck);
* ``patience=0`` is exactly the paper's noiseless behaviour;
* a fault-induced spurious negative costs one strike, so a correct
  candidate survives it — the bounded retry the fault layer calls for.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.core.sensing import ConstantSensing, FunctionSensing
from repro.faults.channel import (
    CORRUPT,
    SERVER_TO_USER,
    ChannelFault,
    FaultyChannel,
    drop_channel,
)
from repro.faults.schedules import ScriptedSchedule
from repro.servers.advisors import AdvisorServer
from repro.servers.printer_servers import printer_server_class
from repro.servers.wrappers import EncodedServer
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import follower_user_class
from repro.users.printer_users import printer_user_class
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.printer import printing_goal, printing_sensing

from tests.universal.helpers import (
    EagerHaltUser,
    KeywordServer,
    KeywordUser,
    NullWorld,
    keyword_sensing,
)

WORDS = ["alpha", "beta", "gamma"]


def keyword_universal(**kwargs):
    return CompactUniversalUser(
        ListEnumeration([KeywordUser(w) for w in WORDS]),
        keyword_sensing(),
        **kwargs,
    )


class TestValidation:
    def test_negative_patience_rejected_everywhere(self):
        enumeration = ListEnumeration([KeywordUser("a")])
        with pytest.raises(ValueError):
            CompactUniversalUser(enumeration, ConstantSensing(False), patience=-1)
        with pytest.raises(ValueError):
            FiniteUniversalUser(enumeration, ConstantSensing(False), patience=-1)
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser(
                [KeywordUser("a")], ConstantSensing(False), patience=-1
            )
        with pytest.raises(ValueError):
            BeliefWeightedUniversalUser(
                [KeywordUser("a")], ConstantSensing(False), min_trial_rounds=-1
            )


class TestCompactStrikeAccounting:
    def run_rounds(self, user, rounds):
        result = run_execution(
            user, KeywordServer("none"), NullWorld(), max_rounds=rounds, seed=0
        )
        return result.final_user_state

    @pytest.mark.parametrize("patience", [0, 2, 5])
    def test_eviction_on_the_patience_plus_first_negative(self, patience):
        """Under always-negative sensing a trial lasts patience + 1 rounds."""
        user = CompactUniversalUser(
            ListEnumeration([KeywordUser(w) for w in WORDS]),
            ConstantSensing(False),
            patience=patience,
        )
        rounds = 12 * (patience + 1)
        state = self.run_rounds(user, rounds)
        assert state.switches == rounds // (patience + 1)

    def test_positives_do_not_refill_the_budget(self):
        """Alternating indications still evict — strikes are cumulative."""
        alternating = FunctionSensing(
            lambda view: len(view) % 2 == 0, label="alternating"
        )
        user = CompactUniversalUser(
            ListEnumeration([KeywordUser(w) for w in WORDS]),
            alternating,
            patience=1,
        )
        # Negatives land on trial rounds 1, 3, 5, ...; with patience=1 the
        # second negative (trial round 3) evicts, so trials last 3 rounds.
        state = self.run_rounds(user, 12)
        assert state.switches == 4


class TestCompactSpuriousSwitch:
    """The scenario the budget exists for: one fault-made negative."""

    def corrupt_once(self, round_index):
        return FaultyChannel(
            [ChannelFault(CORRUPT, ScriptedSchedule([round_index]), SERVER_TO_USER)],
            label=f"corrupt@{round_index}",
        )

    def run(self, patience):
        result = run_execution(
            keyword_universal(patience=patience),
            KeywordServer(WORDS[0]),  # Index 0 is correct from the start.
            NullWorld(),
            max_rounds=60,
            seed=0,
            channel=self.corrupt_once(10),
        )
        return result.final_user_state

    def test_without_patience_the_fault_evicts_the_right_candidate(self):
        state = self.run(patience=0)
        assert state.switches > 0

    def test_patience_absorbs_the_spurious_negative(self):
        state = self.run(patience=1)
        assert state.switches == 0
        assert state.index == 0


class TestBayesianPatience:
    def run_rounds(self, patience, rounds=12):
        user = BeliefWeightedUniversalUser(
            [KeywordUser("a"), KeywordUser("b")],
            ConstantSensing(False),
            patience=patience,
        )
        result = run_execution(
            user, KeywordServer("none"), NullWorld(), max_rounds=rounds, seed=0
        )
        return result.final_user_state

    def test_patience_defers_the_decay(self):
        # Uniform prior over two candidates: every decay flips the argmax,
        # so switches count decays exactly.
        assert self.run_rounds(patience=0).switches == 12
        assert self.run_rounds(patience=2).switches == 4


class TestFinitePatience:
    def run_single_slot(self, patience):
        """One scheduled trial only: retries are the whole recovery story."""
        user = FiniteUniversalUser(
            ListEnumeration([EagerHaltUser()]),
            ConstantSensing(False),  # Every halt is rejected.
            schedule_factory=lambda cap: iter([(0, 4)]),
            patience=patience,
        )
        result = run_execution(
            user, KeywordServer("none"), NullWorld(), max_rounds=20, seed=0
        )
        return result

    def test_without_patience_one_rejection_abandons_the_slot(self):
        result = self.run_single_slot(patience=0)
        assert not result.halted
        assert result.final_user_state.trials_run == 1

    def test_patience_grants_same_candidate_retries(self):
        result = self.run_single_slot(patience=2)
        assert not result.halted
        assert result.final_user_state.trials_run == 3

    def test_endorsed_halt_is_untouched_by_patience(self):
        user = FiniteUniversalUser(
            ListEnumeration([EagerHaltUser()]),
            ConstantSensing(True),
            schedule_factory=lambda cap: iter([(0, 4)]),
            patience=2,
        )
        result = run_execution(
            user, KeywordServer("none"), NullWorld(), max_rounds=20, seed=0
        )
        assert result.halted


class TestGoalsUnderDrop:
    """Acceptance: the test-suite goals still land under ≤10% Bernoulli drop."""

    def test_compact_control_under_drop_with_patience(self):
        codecs = codec_family(3)
        law = random_law(random.Random(5))
        goal = control_goal(law, deadline=20)
        for codec in codecs:
            server = EncodedServer(AdvisorServer(law), codec)
            user = CompactUniversalUser(
                ListEnumeration(follower_user_class(codecs)),
                control_sensing(grace_rounds=30),
                patience=2,
            )
            result = run_execution(
                user,
                server,
                goal.world,
                max_rounds=4000,
                seed=2,
                channel=drop_channel(0.10),
            )
            assert goal.evaluate(result).achieved, codec.name

    def test_finite_printing_under_drop_with_patience(self):
        codecs = codec_family(2)
        goal = printing_goal(["the doc"])
        server = printer_server_class(["space", "tagged"], codecs)[2]
        user = FiniteUniversalUser(
            ListEnumeration(printer_user_class(["space", "tagged"], codecs)),
            printing_sensing(),
            patience=1,
        )
        result = run_execution(
            user,
            server,
            goal.world,
            max_rounds=4000,
            seed=0,
            channel=drop_channel(0.10),
        )
        assert result.halted
        assert goal.evaluate(result).achieved

    def test_bayesian_control_under_drop_with_patience(self):
        codecs = codec_family(3)
        law = random_law(random.Random(5))
        goal = control_goal(law, deadline=20)
        server = EncodedServer(AdvisorServer(law), codecs[1])
        user = BeliefWeightedUniversalUser(
            follower_user_class(codecs),
            control_sensing(grace_rounds=30),
            patience=2,
        )
        result = run_execution(
            user,
            server,
            goal.world,
            max_rounds=4000,
            seed=2,
            channel=drop_channel(0.10),
        )
        assert goal.evaluate(result).achieved

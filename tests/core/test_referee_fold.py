"""The engine's live referee fold equals the post-hoc fold, everywhere.

A compact referee is judged as the run goes: ``run_execution(...,
referee=goal.referee)`` feeds the referee's monitor each world state, and
:meth:`CompactGoal.evaluate` reads that monitor.  These tests pin the
online verdict to the post-hoc :meth:`CompactReferee.judge` fold over a
full recording for every compact goal the library ships, pin the finite
referees (which read only the final state) across recording policies, and
pin the guard that refuses to judge a metrics-only run without its fold.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec, ReverseCodec, codec_family
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    ExecutionResult,
    run_execution,
)
from repro.core.referees import RefereeMonitor
from repro.core.strategy import SilentServer
from repro.errors import ExecutionError
from repro.machines.tabular import coded_server_class, relay_decoder_class, relay_goal
from repro.mathx.modular import Field
from repro.multiparty.babel import (
    babel_rendezvous_goal,
    babel_server,
    babel_user_class,
    community_names,
)
from repro.online.adapter import ThresholdUser
from repro.qbf.generators import random_qbf
from repro.servers.advisors import advisor_server_class
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.users.delegation_users import RepeatedDelegationUser
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.lookup import lookup_goal
from repro.worlds.repeated import repeated_delegation_goal

from tests.core.test_recording import (
    counting_family,
    delegation_family,
    navigation_family,
    printer_family,
)

LAW = random_law(random.Random(5))
CODECS = codec_family(3)
F = Field()


def control_universal_cast():
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )
    return user, advisor_server_class(LAW, CODECS)[2], control_goal(LAW), 400


def lookup_cast():
    return ThresholdUser(6), SilentServer(), lookup_goal(threshold=3, domain=8), 200


def repeated_cast():
    instances = [random_qbf(random.Random(s), 3) for s in (1, 2, 5)]
    goal = repeated_delegation_goal(instances)
    return RepeatedDelegationUser(ReverseCodec(), F), HonestProverServer(F), goal, 600


def repeated_matched_cast():
    user, server, goal, rounds = repeated_cast()
    return RepeatedDelegationUser(IdentityCodec(), F), server, goal, rounds


def relay_cast():
    symbols = tuple("abcd")
    users = relay_decoder_class(symbols)
    return users[0], coded_server_class(symbols)[1], relay_goal(symbols), 80


def babel_cast():
    names = community_names(4)
    users = babel_user_class(CODECS, names)
    server = babel_server(CODECS[1], names, ["red", "green", "blue"])
    return users[1], server, babel_rendezvous_goal(names), 200


COMPACT_CASTS = [
    pytest.param(control_universal_cast, id="control-universal"),
    pytest.param(lookup_cast, id="lookup"),
    pytest.param(repeated_cast, id="repeated"),
    pytest.param(repeated_matched_cast, id="repeated-matched"),
    pytest.param(relay_cast, id="relay"),
    pytest.param(babel_cast, id="babel"),
]

FINITE_FAMILIES = [
    pytest.param(printer_family, id="printer"),
    pytest.param(navigation_family, id="navigation"),
    pytest.param(counting_family, id="counting"),
    pytest.param(delegation_family, id="computation"),
]


class TestCompactFoldParity:
    @pytest.mark.parametrize("cast", COMPACT_CASTS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_live_fold_equals_post_hoc_judge(self, cast, seed):
        user, server, goal, rounds = cast()
        full = run_execution(
            user, server, goal.world, max_rounds=rounds, seed=seed,
            recording=FULL_RECORDING, referee=goal.referee,
        )
        assert isinstance(full.referee_monitor, RefereeMonitor)
        live = full.referee_monitor.verdict()
        assert live == goal.referee.judge(full)
        assert live.total_prefixes == len(full.world_states)

    @pytest.mark.parametrize("cast", COMPACT_CASTS)
    def test_metrics_outcome_equals_full_outcome(self, cast):
        user, server, goal, rounds = cast()
        full = run_execution(user, server, goal.world, max_rounds=rounds, seed=1)
        user, server, goal, rounds = cast()
        lean = run_execution(
            user, server, goal.world, max_rounds=rounds, seed=1,
            recording=METRICS_RECORDING, referee=goal.referee,
        )
        assert goal.evaluate(lean) == goal.evaluate(full)

    def test_some_cast_exercises_bad_prefixes(self):
        """The parity above is not vacuous: the casts do make mistakes."""
        bad = []
        for param in COMPACT_CASTS:
            user, server, goal, rounds = param.values[0]()
            result = run_execution(
                user, server, goal.world, max_rounds=rounds, seed=0,
                recording=METRICS_RECORDING, referee=goal.referee,
            )
            bad.append(result.referee_monitor.verdict().bad_prefixes)
        assert sum(1 for count in bad if count) >= 4, bad


class TestFiniteRefereesAcrossPolicies:
    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_verdict_identical_under_full_and_metrics(self, family):
        user, server, goal, rounds = family()
        full = run_execution(user, server, goal.world, max_rounds=rounds, seed=2)
        user, server, goal, rounds = family()
        lean = run_execution(
            user, server, goal.world, max_rounds=rounds, seed=2,
            recording=METRICS_RECORDING, referee=goal.referee,
        )
        assert lean.referee_monitor is None  # finite referees need none
        assert goal.referee.accepts(lean) == goal.referee.accepts(full)
        assert goal.evaluate(lean) == goal.evaluate(full)

    @pytest.mark.parametrize("family", FINITE_FAMILIES)
    def test_metrics_run_keeps_exactly_one_world_state(self, family):
        user, server, goal, rounds = family()
        full = run_execution(user, server, goal.world, max_rounds=rounds, seed=2)
        user, server, goal, rounds = family()
        lean = run_execution(
            user, server, goal.world, max_rounds=rounds, seed=2,
            recording=METRICS_RECORDING,
        )
        assert lean.world_states == [full.final_world_state()]


class TestEvaluateGuard:
    def test_metrics_result_without_fold_raises(self):
        user, server, goal, rounds = control_universal_cast()
        lean = run_execution(
            user, server, goal.world, max_rounds=50, seed=0,
            recording=METRICS_RECORDING,
        )
        with pytest.raises(ExecutionError, match="referee=goal.referee"):
            goal.evaluate(lean)

    def test_metrics_result_with_another_referees_fold_raises(self):
        user, server, goal, rounds = control_universal_cast()
        other = lookup_goal(threshold=3, domain=8)
        lean = run_execution(
            user, server, goal.world, max_rounds=50, seed=0,
            recording=METRICS_RECORDING, referee=other.referee,
        )
        with pytest.raises(ExecutionError):
            goal.evaluate(lean)

    def test_full_result_with_another_referees_fold_is_refolded(self):
        user, server, goal, rounds = control_universal_cast()
        other = lookup_goal(threshold=3, domain=8)
        full = run_execution(
            user, server, goal.world, max_rounds=300, seed=0,
            referee=other.referee,
        )
        assert goal.evaluate(full).compact_verdict == goal.referee.judge(full)

    def test_hand_built_result_is_folded(self):
        goal = lookup_goal(threshold=3, domain=8)
        result = ExecutionResult()
        result.world_states = [goal.world.initial_state(random.Random(0))]
        verdict = goal.evaluate(result).compact_verdict
        assert verdict is not None and verdict.total_prefixes == 1

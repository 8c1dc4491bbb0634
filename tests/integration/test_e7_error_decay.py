"""Integration: compact-goal semantics — errors stop (experiment E7).

Claim: under the universal user, the number of unacceptable prefixes is
finite: all mistakes cluster in the learning phase, the error curve goes
flat, and longer horizons add no new errors.
"""

from __future__ import annotations

import random

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import ControlState, control_goal, control_sensing, random_law

CODECS = codec_family(4)
LAW = random_law(random.Random(21))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)


def universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )


class TestE7:
    def test_mistakes_stop_after_settling(self):
        result = run_execution(
            universal(), SERVERS[-1], GOAL.world, max_rounds=2000, seed=0
        )
        verdict = GOAL.referee.judge(result)
        assert verdict.bad_prefixes > 0          # It did have to learn...
        assert verdict.last_bad_round is not None
        assert verdict.last_bad_round < 600      # ...but finished learning early.

    def test_longer_horizon_adds_no_errors(self):
        def mistakes_at(horizon):
            result = run_execution(
                universal(), SERVERS[2], GOAL.world, max_rounds=horizon, seed=3
            )
            state = result.final_world_state()
            assert isinstance(state, ControlState)
            return state.mistakes

        assert mistakes_at(2400) == mistakes_at(1200)

    def test_mistake_count_scales_with_codec_index(self):
        def mistakes_against(server_index):
            result = run_execution(
                universal(), SERVERS[server_index], GOAL.world,
                max_rounds=2000, seed=1,
            )
            return result.final_world_state().mistakes

        assert mistakes_against(3) > mistakes_against(0)

    def test_error_flags_form_a_clean_tail(self):
        result = run_execution(
            universal(), SERVERS[1], GOAL.world, max_rounds=1500, seed=2
        )
        flags = [GOAL.referee.state_acceptable(s) for s in result.world_states]
        tail = flags[len(flags) // 2:]
        assert all(tail)

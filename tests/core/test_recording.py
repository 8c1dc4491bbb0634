"""Recording policies must change what is *kept*, never what *happens*.

``METRICS_RECORDING`` skips per-round allocations; everything metric
collection reads — the latest world state, halt flag, user output, round
count, final user state, goal evaluation — must be identical to a
``FULL_RECORDING`` run from the same seed, on every benchmark goal family.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.metrics import collect_metrics
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    run_execution,
)
from repro.core.views import BoundedUserView, ViewRecord
from repro.comm.messages import UserInbox, UserOutbox
from repro.mathx.modular import Field
from repro.qbf.generators import random_cnf, random_qbf
from repro.servers.advisors import AdvisorServer
from repro.servers.counting_provers import HonestCountingServer
from repro.servers.guides import GuideServer
from repro.servers.printer_servers import make_printer
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.users.counting_users import CountingUser
from repro.users.delegation_users import DelegationUser
from repro.users.navigation_users import GuidedNavigator
from repro.users.printer_users import PrinterProtocolUser
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing
from repro.worlds.counting import counting_goal
from repro.worlds.navigation import corridor_grid, navigation_goal
from repro.worlds.printer import printing_goal

LAW = {"red": "blue", "blue": "red"}
F = Field()


def control_family():
    return (
        AdvisorFollowingUser(IdentityCodec()),
        AdvisorServer(LAW),
        control_goal(LAW),
        200,
    )


def control_universal_family():
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codec_family(2))), control_sensing()
    )
    return user, AdvisorServer(LAW), control_goal(LAW), 400


def printer_family():
    return (
        PrinterProtocolUser("tagged", IdentityCodec()),
        make_printer("tagged"),
        printing_goal(["the document"]),
        120,
    )


def counting_family():
    formula = random_cnf(random.Random(1), 4, 5)
    return (
        CountingUser(IdentityCodec(), F),
        HonestCountingServer(F),
        counting_goal([formula]),
        300,
    )


def delegation_family():
    instances = [random_qbf(random.Random(s), 2) for s in (1, 4)]
    return (
        DelegationUser(IdentityCodec(), F),
        HonestProverServer(F),
        delegation_goal(instances),
        300,
    )


def navigation_family():
    grid = corridor_grid(8)
    return (
        GuidedNavigator(IdentityCodec()),
        GuideServer(grid),
        navigation_goal(grid),
        300,
    )


FAMILIES = [
    pytest.param(control_family, id="control"),
    pytest.param(control_universal_family, id="control-universal"),
    pytest.param(printer_family, id="printer"),
    pytest.param(counting_family, id="counting"),
    pytest.param(delegation_family, id="delegation"),
    pytest.param(navigation_family, id="navigation"),
]


class TestMetricsParity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_metrics_run_matches_full_run(self, family, seed):
        user, server, goal, max_rounds = family()
        full = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=seed,
            recording=FULL_RECORDING,
        )
        user, server, goal, max_rounds = family()  # fresh strategies
        lean = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=seed,
            recording=METRICS_RECORDING, referee=goal.referee,
        )

        assert lean.rounds == []
        assert len(full.rounds) == full.rounds_executed
        assert lean.rounds_executed == full.rounds_executed
        assert lean.world_states == full.world_states[-1:]
        assert lean.halted == full.halted
        assert lean.user_output == full.user_output
        # Some user states hold protocol sessions without ``__eq__``, so
        # compare type here and content via the metrics extracted below.
        assert type(lean.final_user_state) is type(full.rounds[-1].user_state_after)
        assert collect_metrics(lean, goal) == collect_metrics(full, goal)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_goal_outcome_identical(self, family):
        user, server, goal, max_rounds = family()
        full_outcome = goal.evaluate(
            run_execution(
                user, server, goal.world, max_rounds=max_rounds, seed=3
            )
        )
        user, server, goal, max_rounds = family()
        lean_outcome = goal.evaluate(
            run_execution(
                user, server, goal.world, max_rounds=max_rounds, seed=3,
                recording=METRICS_RECORDING, referee=goal.referee,
            )
        )
        assert lean_outcome == full_outcome


class TestRecordingPolicy:
    def test_defaults(self):
        assert FULL_RECORDING.full
        assert not METRICS_RECORDING.full
        assert (FULL_RECORDING.label, METRICS_RECORDING.label) == ("full", "metrics")


def record(index: int) -> ViewRecord:
    return ViewRecord(
        round_index=index,
        state_before=index,
        inbox=UserInbox(),
        outbox=UserOutbox(),
        state_after=index + 1,
    )


class TestBoundedUserView:
    def test_len_counts_total_not_retained(self):
        view = BoundedUserView()
        for i in range(10):
            view.append(record(i))
        assert len(view) == 10
        assert view.records == ()

    def test_zero_window_stores_nothing(self):
        view = BoundedUserView()
        for i in range(5):
            view.append(record(i))
        view.advance(3)
        assert len(view) == 8
        assert list(view) == []
        assert view.last() is None

    def test_metrics_run_counts_rounds_only(self):
        user, server, goal, _ = control_family()
        result = run_execution(
            user, server, goal.world, max_rounds=50, seed=0,
            recording=METRICS_RECORDING,
        )
        assert isinstance(result.user_view, BoundedUserView)
        assert len(result.user_view) == 50
        assert list(result.user_view) == []

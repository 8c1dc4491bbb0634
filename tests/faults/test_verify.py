"""Robustness verification: grids, margins, and false-positive hunting."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.sensing import ConstantSensing
from repro.faults.channel import FaultyChannel, drop_channel
from repro.faults.verify import (
    RobustnessReport,
    default_fault_grid,
    verify_robustness,
)
from repro.obs.certify import CertificationError
from repro.servers.advisors import AdvisorServer, advisor_server_class
from repro.servers.printer_servers import printer_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.users.printer_users import PrinterProtocolUser, printer_user_class
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.printer import printing_goal, printing_sensing

LAW = {"red": "blue", "blue": "red"}


class TestDefaultGrid:
    def test_shape(self):
        grid = default_fault_grid()
        assert grid[0] is None  # The perfect link anchors the comparison.
        names = [c.name for c in grid[1:]]
        assert names == [
            "drop(0.05)",
            "drop(0.1)",
            "corrupt(0.1)",
            "burst-outage(4/32)",
        ]


class TestFiniteVerification:
    def make_report(self, **kwargs) -> RobustnessReport:
        codecs = codec_family(2)
        goal = printing_goal(["the doc"])
        user = FiniteUniversalUser(
            ListEnumeration(printer_user_class(["space", "tagged"], codecs)),
            printing_sensing(),
            patience=1,
        )
        servers = [printer_server_class(["space", "tagged"], codecs)[1]]
        return verify_robustness(
            user,
            servers,
            goal,
            printing_sensing(),
            grid=[None, drop_channel(0.05)],
            seeds=(0, 1),
            max_rounds=2000,
            **kwargs,
        )

    def test_safe_and_viable_on_a_mild_grid(self):
        report = self.make_report()
        assert report.safe
        assert report.viability_floor == 1.0
        perfect = report.point("perfect")
        assert perfect.runs == 2 and perfect.achieved == 2
        assert not math.isnan(perfect.mean_rounds)

    def test_point_lookup_and_format(self):
        report = self.make_report()
        assert report.point("drop(0.05)").safe
        with pytest.raises(KeyError):
            report.point("no-such-channel")
        table = report.format()
        assert "robustness" in table and "drop(0.05)" in table

    def test_unsafe_sensing_is_caught(self):
        """A blind halter endorsed by degenerate sensing = false positive."""
        goal = printing_goal(["the doc"])
        # Speaks the wrong dialect, then halts anyway on a timer.
        user = PrinterProtocolUser("space", IdentityCodec(), blind_halt_after=5)
        servers = printer_server_class(["tagged"], [IdentityCodec()])
        report = verify_robustness(
            user,
            servers,
            goal,
            ConstantSensing(True),
            grid=[None],
            seeds=(0,),
            max_rounds=200,
        )
        assert not report.safe
        assert report.point("perfect").false_positives == 1
        assert report.viability_floor == 0.0


class TestCompactVerification:
    def test_healthy_compact_system_is_safe(self):
        goal = control_goal(LAW)
        report = verify_robustness(
            AdvisorFollowingUser(IdentityCodec()),
            [AdvisorServer(LAW)],
            goal,
            control_sensing(),
            grid=[None, drop_channel(0.05)],
            seeds=(0,),
            max_rounds=600,
        )
        assert report.safe
        assert report.viability_floor == 1.0

    def test_settled_failure_with_blind_sensing_is_a_false_positive(self):
        """A user failing forever while sensing cheers is the compact
        safety violation: the run looks settled to anyone trusting sensing."""
        goal = control_goal(LAW)
        # Wrong codec: advice is never understood, mistakes never stop.
        wrong = AdvisorFollowingUser(codec_family(3)[2])
        report = verify_robustness(
            wrong,
            [AdvisorServer(LAW)],
            goal,
            ConstantSensing(True),
            grid=[None],
            seeds=(0,),
            max_rounds=300,
        )
        assert not report.safe
        assert report.point("perfect").false_positives == 1


def figures(report: RobustnessReport):
    """Every field of every grid point, NaN as ``None`` (NaN != NaN)."""
    return [
        tuple(
            None if isinstance(value, float) and math.isnan(value) else value
            for value in dataclasses.astuple(point)
        )
        for point in report.points
    ]


def finite_user() -> FiniteUniversalUser:
    codecs = codec_family(2)
    return FiniteUniversalUser(
        ListEnumeration(printer_user_class(["space", "tagged"], codecs)),
        printing_sensing(),
        patience=1,
    )


GRID_NAMES = [
    "perfect",
    "drop(0.05)",
    "drop(0.1)",
    "corrupt(0.1)",
    "burst-outage(4/32)",
]


class TestPinnedReports:
    """The reports of this module's casts, and of two universal users over
    the whole default grid, pinned field by field: the overhead folds the
    run's whole event stream, and certifying checks it, without moving a
    margin or an overhead."""

    @pytest.mark.parametrize("certify", [False, True])
    def test_this_modules_casts(self, certify):
        printing = printing_goal(["the doc"])
        control = control_goal(LAW)
        mild = verify_robustness(
            finite_user(),
            [printer_server_class(["space", "tagged"], codec_family(2))[1]],
            printing,
            printing_sensing(),
            grid=[None, drop_channel(0.05)],
            seeds=(0, 1),
            max_rounds=2000,
            certify=certify,
        )
        unsafe = verify_robustness(
            PrinterProtocolUser("space", IdentityCodec(), blind_halt_after=5),
            printer_server_class(["tagged"], [IdentityCodec()]),
            printing,
            ConstantSensing(True),
            grid=[None],
            seeds=(0,),
            max_rounds=200,
            certify=certify,
        )
        healthy = verify_robustness(
            AdvisorFollowingUser(IdentityCodec()),
            [AdvisorServer(LAW)],
            control,
            control_sensing(),
            grid=[None, drop_channel(0.05)],
            seeds=(0,),
            max_rounds=600,
            certify=certify,
        )
        blind = verify_robustness(
            AdvisorFollowingUser(codec_family(3)[2]),
            [AdvisorServer(LAW)],
            control,
            ConstantSensing(True),
            grid=[None],
            seeds=(0,),
            max_rounds=300,
            certify=certify,
        )
        assert figures(mild) == [
            ("perfect", 2, 2, 2, 0, 7.0, 0.5714285714285714),
            ("drop(0.05)", 2, 2, 2, 0, 7.0, 0.5714285714285714),
        ]
        assert figures(unsafe) == [("perfect", 1, 0, 1, 1, None, None)]
        assert figures(healthy) == [
            ("perfect", 1, 1, 0, 0, 600.0, None),
            ("drop(0.05)", 1, 1, 0, 0, 600.0, None),
        ]
        assert figures(blind) == [("perfect", 1, 0, 0, 1, None, None)]

    @pytest.mark.parametrize("certify", [False, True])
    def test_finite_user_over_the_default_grid(self, certify):
        report = verify_robustness(
            finite_user(),
            printer_server_class(["space", "tagged"], codec_family(2)),
            printing_goal(["the doc"]),
            printing_sensing(),
            seeds=(0, 1, 2),
            max_rounds=2000,
            certify=certify,
        )
        rounds = [13.75, 14.0, 14.0, 16.416666666666668, 17.0]
        overheads = [
            0.7634236453201969,
            0.7384236453201969,
            0.7384236453201969,
            0.7441707717569787,
            0.8077358146323662,
        ]
        assert figures(report) == [
            (name, 12, 12, 12, 0, mean_rounds, overhead)
            for name, mean_rounds, overhead in zip(GRID_NAMES, rounds, overheads)
        ]

    @pytest.mark.parametrize("certify", [False, True])
    def test_compact_user_over_the_default_grid(self, certify):
        codecs = codec_family(4)
        law = random_law(random.Random(1))
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(codecs)), control_sensing()
        )
        report = verify_robustness(
            user,
            advisor_server_class(law, codecs),
            control_goal(law),
            control_sensing(),
            seeds=(0, 3),
            max_rounds=600,
            certify=certify,
        )
        assert figures(report) == [
            (name, 8, 8, 0, 0, 600.0, 0.042499999999999996) for name in GRID_NAMES
        ]


class UndescribedChannel(FaultyChannel):
    """A drop channel that cannot describe itself to a trace header."""

    def spec(self):
        raise NotImplementedError


def test_certify_replays_the_channels_faults():
    """The certified stream holds the fault channel's events, replayed
    against the channel's spec: a channel that cannot describe itself
    leaves them unreplayable, and the faulted point fails to certify."""
    drops = drop_channel(0.1)
    undescribed = UndescribedChannel(drops.faults, label=drops.name)
    with pytest.raises(CertificationError, match="channel spec"):
        verify_robustness(
            AdvisorFollowingUser(IdentityCodec()),
            [AdvisorServer(LAW)],
            control_goal(LAW),
            control_sensing(),
            grid=[undescribed],
            seeds=(0,),
            max_rounds=600,
            certify=True,
        )

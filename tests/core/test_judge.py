"""The run judge against a whole-history reference.

:func:`repro.core.properties.judge_run` judges a run as it goes, keeping no
history.  The reference here is the definition written the long way: a
full recording of the bare user's run, the sensing's verdict on every
prefix of its view, and the goal's referee folded over the recorded world
states.  Every cast the property checkers, the fault-grid tests and the
sensing ablation (E6) judge must read the same from both.
"""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import run_execution
from repro.core.properties import Judgement, judge_run
from repro.core.sensing import ConstantSensing
from repro.core.strategy import SilentServer
from repro.faults.channel import drop_channel
from repro.online.adapter import threshold_user_class
from repro.servers.advisors import AdvisorServer, advisor_server_class
from repro.servers.printer_servers import printer_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.users.printer_users import PrinterProtocolUser, printer_user_class
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.lookup import lookup_goal, lookup_sensing
from repro.worlds.printer import printing_goal, printing_sensing


def reference_judgement(user, server, goal, sensing, *, seed, max_rounds, channel=None):
    """The judgement from a full recording, folded after the run."""
    execution = run_execution(
        user, server, goal.world, max_rounds=max_rounds, seed=seed, channel=channel
    )
    monitor = sensing.incremental()
    indications = [monitor.observe(record) for record in execution.user_view]
    negatives = [index for index, positive in enumerate(indications) if not positive]
    outcome = goal.evaluate(execution)
    if goal.is_compact:
        assert outcome.compact_verdict == goal.referee.judge(execution)
    return Judgement(
        outcome=outcome,
        halted=execution.halted,
        rounds=execution.rounds_executed,
        indication=indications[-1] if indications else monitor.empty,
        last_negative=negatives[-1] if negatives else -1,
    )


def cast(label, users, servers, goal, sensing, seeds, max_rounds, channels=(None,)):
    return [
        pytest.param(
            user, server, goal, sensing, seed, max_rounds, channel,
            id=f"{label}-{user.name}-{server.name}-{seed}"
            + ("" if channel is None else f"-{channel.name}"),
        )
        for user in users
        for server in servers
        for seed in seeds
        for channel in channels
    ]


# -- tests/core/test_properties.py ------------------------------------------
CODECS = codec_family(2)
DIALECTS = ("space", "tagged")
PRINT_GOAL = printing_goal(["hello"])
PRINT_SERVERS = printer_server_class(DIALECTS, CODECS)
PRINT_USERS = printer_user_class(DIALECTS, CODECS)
BLIND_USERS = printer_user_class(DIALECTS, CODECS, blind_halt_after=4)
LAW = random_law(random.Random(3))
CONTROL_GOAL = control_goal(LAW)
CONTROL_SERVERS = advisor_server_class(LAW, CODECS)
CONTROL_USERS = follower_user_class(CODECS)

PROPERTY_CASTS = (
    cast("finite", PRINT_USERS, PRINT_SERVERS, PRINT_GOAL, printing_sensing(), (0, 1, 2), 64)
    + cast("blind", BLIND_USERS, PRINT_SERVERS, PRINT_GOAL, ConstantSensing(True), (0, 1, 2), 64)
    + cast("never", PRINT_USERS, PRINT_SERVERS, PRINT_GOAL, ConstantSensing(False), (0, 1, 2), 64)
    + cast("compact", CONTROL_USERS, CONTROL_SERVERS, CONTROL_GOAL, control_sensing(), (0, 1), 200)
    + cast("always", CONTROL_USERS, CONTROL_SERVERS, CONTROL_GOAL, ConstantSensing(True), (0, 1), 200)
    + cast("never", CONTROL_USERS, CONTROL_SERVERS, CONTROL_GOAL, ConstantSensing(False), (0, 1), 200)
)

# -- tests/faults/test_verify.py --------------------------------------------
TWO_LAW = {"red": "blue", "blue": "red"}
DOC_GOAL = printing_goal(["the doc"])
MILD_GRID = (None, drop_channel(0.05))

VERIFY_CASTS = (
    cast(
        "grid",
        [
            FiniteUniversalUser(
                ListEnumeration(printer_user_class(["space", "tagged"], CODECS)),
                printing_sensing(),
                patience=1,
            )
        ],
        [printer_server_class(["space", "tagged"], CODECS)[1]],
        DOC_GOAL, printing_sensing(), (0, 1), 2000, MILD_GRID,
    )
    + cast(
        "grid",
        [PrinterProtocolUser("space", IdentityCodec(), blind_halt_after=5)],
        printer_server_class(["tagged"], [IdentityCodec()]),
        DOC_GOAL, ConstantSensing(True), (0,), 200,
    )
    + cast(
        "grid",
        [AdvisorFollowingUser(IdentityCodec())], [AdvisorServer(TWO_LAW)],
        control_goal(TWO_LAW), control_sensing(), (0,), 600, MILD_GRID,
    )
    + cast(
        "grid",
        [AdvisorFollowingUser(codec_family(3)[2])], [AdvisorServer(TWO_LAW)],
        control_goal(TWO_LAW), ConstantSensing(True), (0,), 300,
    )
)

# -- benchmarks/bench_e6_sensing_ablation.py --------------------------------
E6_CODECS = codec_family(3)
E6_PRINTER = printer_server_class(DIALECTS, E6_CODECS)[-1]
E6_PRINT_GOAL = printing_goal(["memo"])
E6_LOOKUP_GOAL = lookup_goal(threshold=3, domain=8)


def e6_finite(users, sensing):
    user = FiniteUniversalUser(ListEnumeration(users), sensing)
    return cast("e6", [user], [E6_PRINTER], E6_PRINT_GOAL, sensing, (0,), 3000)


def e6_compact(sensing):
    user = CompactUniversalUser(ListEnumeration(threshold_user_class(8)), sensing)
    return cast("e6", [user], [SilentServer()], E6_LOOKUP_GOAL, sensing, (0,), 1500)


E6_CASTS = (
    e6_finite(printer_user_class(DIALECTS, E6_CODECS, blind_halt_after=5), printing_sensing())
    + e6_finite(printer_user_class(DIALECTS, E6_CODECS, blind_halt_after=5), ConstantSensing(True))
    + e6_finite(printer_user_class(DIALECTS, E6_CODECS), ConstantSensing(False))
    + e6_compact(lookup_sensing())
    + e6_compact(ConstantSensing(True))
    + e6_compact(ConstantSensing(False))
)

ALL_CASTS = PROPERTY_CASTS + VERIFY_CASTS + E6_CASTS


@pytest.mark.parametrize(
    "user,server,goal,sensing,seed,max_rounds,channel", ALL_CASTS
)
def test_judge_matches_whole_history_reference(
    user, server, goal, sensing, seed, max_rounds, channel
):
    judged = judge_run(
        user, server, goal, sensing, seed=seed, max_rounds=max_rounds, channel=channel
    )
    reference = reference_judgement(
        user, server, goal, sensing, seed=seed, max_rounds=max_rounds, channel=channel
    )
    assert judged == reference


def test_casts_exercise_every_verdict():
    """Both verdicts read both ways on both goal kinds across the casts."""
    seen = set()
    for param in ALL_CASTS:
        user, server, goal, sensing, seed, max_rounds, channel = param.values
        judged = judge_run(
            user, server, goal, sensing, seed=seed, max_rounds=max_rounds, channel=channel
        )
        seen.add((goal.is_compact, "false_positive", judged.false_positive))
        seen.add((goal.is_compact, "settled", judged.settled))
    assert len(seen) == 8


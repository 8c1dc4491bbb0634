"""E4 — overhead tracks enumeration position.

Claim: the universal user's cost is governed by the index of the first
adequate strategy in its enumeration (the constant the follow-up works on
priors/beliefs attack).  We plant the matching codec at positions 0..N−1 of
the class and report the measured enumeration overhead per position,
using the trace-level accounting in :mod:`repro.obs.overhead` — the same
`OverheadReport` the `python -m repro.obs overhead` CLI prints — rather
than re-deriving counts from referee verdicts.

Expected shape: switches = position exactly; overhead rounds grow
linearly with the position.
"""

from __future__ import annotations

import random

from conftest import emit

from repro.analysis.tables import format_series
from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.obs import MemorySink, Tracer
from repro.obs.overhead import compute_overhead
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(10)
LAW = random_law(random.Random(3))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)


def run_position_sweep():
    user_class = follower_user_class(CODECS)
    points = []
    for position in range(len(SERVERS)):
        sink = MemorySink()
        tracer = Tracer(sink=sink)
        user = CompactUniversalUser(ListEnumeration(user_class), control_sensing())
        result = run_execution(
            user, SERVERS[position], GOAL.world,
            max_rounds=4000, seed=position, tracer=tracer,
        )
        outcome = GOAL.evaluate(result)
        assert outcome.achieved, position
        report = compute_overhead(sink.events)
        # The accounting agrees with the user's own terminal statistics.
        assert report.switches == position, (report.switches, position)
        assert report.settled_index == position
        assert report.total_rounds == result.rounds_executed
        points.append((position, report.overhead_rounds))
    return points


def test_e4_overhead_vs_position(benchmark):
    points = benchmark.pedantic(run_position_sweep, rounds=1, iterations=1)
    emit(
        format_series(
            "E4: overhead rounds vs enumeration position of the adequate codec",
            points,
            x_label="position",
            y_label="overhead rounds",
        )
    )
    overheads = [y for _, y in points]
    # Position 0 pays nothing; after that, monotone (weakly) and roughly
    # linear: the last position costs at least 5x the second one.
    assert overheads[0] == 0
    assert all(b >= a for a, b in zip(overheads, overheads[1:]))
    assert overheads[-1] >= 5 * max(1, overheads[1])

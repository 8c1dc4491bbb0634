"""E1 — Theorem 1, compact case: universal success over a server class.

Paper claim: "for any compact goal and any class of server strategies for
which there exists safe and viable sensing, there exists a universal user
strategy."  The table reports, for every codec-wrapped advisor in the
class: whether the goal was achieved, the index the universal user settled
on, the switches spent, and the last round with a mistake.

Expected shape: every row achieved=yes; settled index = server's codec
index; switches = index (enumeration order is respected).
"""

from __future__ import annotations

import random

from conftest import emit

from repro.analysis.tables import format_table
from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(8)
LAW = random_law(random.Random(1))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)
HORIZON = 3000


def universal():
    return CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
    )


def run_class_sweep():
    rows = []
    for index, server in enumerate(SERVERS):
        result = run_execution(
            universal(), server, GOAL.world, max_rounds=HORIZON, seed=index
        )
        outcome = GOAL.evaluate(result)
        state = result.rounds[-1].user_state_after
        verdict = outcome.compact_verdict
        rows.append(
            [
                server.name,
                outcome.achieved,
                state.index,
                state.switches,
                verdict.last_bad_round or 0,
            ]
        )
    return rows


def test_e1_universal_over_advisor_class(benchmark):
    rows = benchmark.pedantic(run_class_sweep, rounds=1, iterations=1)
    emit(
        format_table(
            ["server", "achieved", "settled idx", "switches", "last mistake @"],
            rows,
            title="E1: compact universal user vs advisor class "
                  f"(|class|={len(SERVERS)}, horizon={HORIZON})",
        )
    )
    assert all(row[1] for row in rows), "universality violated"
    assert [row[2] for row in rows] == list(range(len(SERVERS)))


def test_e1_single_settled_execution_cost(benchmark):
    """Micro: cost of one full execution against the last class member."""

    def run_once():
        return run_execution(
            universal(), SERVERS[-1], GOAL.world, max_rounds=HORIZON, seed=0
        )

    result = benchmark(run_once)
    assert GOAL.evaluate(result).achieved


def test_e1_jsonl_trace_replays_switch_count(tmp_path):
    """A JSONL trace replays to the switch count RunMetrics reports.

    Acceptance check for the tracing layer: write the full event stream of
    one E1 execution to disk, parse it back, and confirm the replayed
    :class:`StrategySwitch` events agree with both the live counters and
    the post-hoc metrics — the trace is a faithful account of the run.
    """
    from repro.analysis.metrics import collect_metrics
    from repro.obs import CounterSet, JsonlSink, StrategySwitch, Tracer, read_jsonl

    path = tmp_path / "e1_trace.jsonl"
    tracer = Tracer(sink=JsonlSink(path), counters=CounterSet())
    user = universal()
    user.tracer = tracer
    result = run_execution(
        user, SERVERS[-1], GOAL.world, max_rounds=HORIZON, seed=0, tracer=tracer
    )
    tracer.close()

    metrics = collect_metrics(result, GOAL)
    replayed = read_jsonl(path)
    switch_events = [e for e in replayed if isinstance(e, StrategySwitch)]
    assert metrics.switches == len(SERVERS) - 1
    assert len(switch_events) == metrics.switches
    assert tracer.counters.get("switches") == metrics.switches
    assert tracer.counters.get("rounds") == result.rounds_executed

"""Long metrics-only runs hold memory that does not grow with the horizon.

Each test warms a run up, then measures with :mod:`tracemalloc` what the
``repro`` package still holds after another 10^5 rounds.  A run that kept
one world state per round (≈170 B each for the control cast) would hold
~17 MB; the bound is 64 KiB.  The fault grid is checked by its peak: a
judged run keeps no history, so the peak does not grow with the horizon.
"""

from __future__ import annotations

import asyncio
import tracemalloc
from pathlib import Path

import repro
from repro.comm.codecs import IdentityCodec, codec_family
from repro.core.execution import METRICS_RECORDING, ExecutionStepper
from repro.faults.channel import drop_channel
from repro.faults.verify import verify_robustness
from repro.serve.engine import ServeEngine
from repro.serve.session import SessionSpec
from repro.servers.advisors import AdvisorServer, advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import AdvisorFollowingUser, follower_user_class
from repro.worlds.control import control_goal, control_sensing

LAW = {"red": "blue", "blue": "green", "green": "red"}
CODECS = codec_family(4)
WARMUP = 2_000
ROUNDS = 100_000
BOUND = 64 * 1024
REPRO_FILES = str(Path(repro.__file__).parent / "*")


def compact_cast():
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )
    return user, advisor_server_class(LAW, CODECS)[-1], control_goal(LAW)


def repro_bytes() -> int:
    """Bytes currently held by allocations made in ``repro`` code."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, REPRO_FILES)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_metrics_compact_run_retains_bounded_memory():
    user, server, goal = compact_cast()
    stepper = ExecutionStepper(
        user, server, goal.world, max_rounds=WARMUP + ROUNDS, seed=0,
        recording=METRICS_RECORDING, referee=goal.referee,
    )
    tracemalloc.start()
    try:
        stepper.step_many(WARMUP)
        before = repro_bytes()
        stepper.step_many(ROUNDS)
        grown = repro_bytes() - before
    finally:
        tracemalloc.stop()
    result = stepper.finish()
    assert result.rounds_executed == WARMUP + ROUNDS
    assert goal.evaluate(result).achieved
    assert grown < BOUND, f"{grown} B retained over {ROUNDS} rounds"


def test_served_session_retains_bounded_memory():
    """One session through the engine, no ledger: the settled outcome
    holds no per-round history either."""
    user, server, goal = compact_cast()

    def spec(rounds: int) -> SessionSpec:
        return SessionSpec(
            user=user, server=server, goal=goal, seed=0, max_rounds=rounds,
            recording=METRICS_RECORDING,
        )

    async def serve():
        async with ServeEngine(max_open=4, workers=1, slice_rounds=512) as engine:
            warm = await (await engine.submit(spec(WARMUP))).result()
            before = repro_bytes()
            outcome = await (await engine.submit(spec(ROUNDS))).result()
            return warm, outcome, repro_bytes() - before

    tracemalloc.start()
    try:
        warm, outcome, grown = asyncio.run(serve())
    finally:
        tracemalloc.stop()
    assert outcome.execution.rounds_executed == ROUNDS
    assert outcome.outcome.achieved
    assert grown < BOUND, f"{grown} B retained by a {ROUNDS}-round session"


def fault_grid_peak(rounds: int) -> int:
    """Peak bytes above the baseline while a one-point fault grid runs."""
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    report = verify_robustness(
        AdvisorFollowingUser(IdentityCodec()), [AdvisorServer(LAW)],
        control_goal(LAW), control_sensing(),
        grid=[drop_channel(0.05)], seeds=(0,), max_rounds=rounds,
    )
    assert report.safe and report.viability_floor == 1.0
    return tracemalloc.get_traced_memory()[1] - baseline


def universal_grid_peak(rounds: int) -> int:
    """Peak bytes above the baseline while the compact universal user runs
    a one-point fault grid against the four advisors."""
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    user, _, goal = compact_cast()
    report = verify_robustness(
        user, advisor_server_class(LAW, CODECS), goal, control_sensing(),
        grid=[drop_channel(0.05)], seeds=(0,), max_rounds=rounds,
    )
    assert report.safe
    assert report.points[0].mean_overhead_ratio < 1.0  # The fold saw trials.
    return tracemalloc.get_traced_memory()[1] - baseline


def test_universal_fault_grid_peak_does_not_grow_with_the_horizon():
    """A traceable user: its overhead folds as the events arrive and,
    without ``certify``, no event is kept, so ten times the rounds raise
    the grid's peak by less than the bound."""
    tracemalloc.start()
    try:
        universal_grid_peak(WARMUP)
        short = universal_grid_peak(2_000)
        long = universal_grid_peak(20_000)
    finally:
        tracemalloc.stop()
    assert long - short < BOUND, f"peak {short} B at 2000 rounds, {long} B at 20000"


def test_fault_grid_peak_does_not_grow_with_the_horizon():
    """A user without a tracer: every run is judged as it goes, so ten
    times the rounds raise the grid's peak by less than the bound."""
    tracemalloc.start()
    try:
        fault_grid_peak(WARMUP)
        short = fault_grid_peak(2_000)
        long = fault_grid_peak(20_000)
    finally:
        tracemalloc.stop()
    assert long - short < BOUND, f"peak {short} B at 2000 rounds, {long} B at 20000"

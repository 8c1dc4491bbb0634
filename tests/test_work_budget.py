"""Work budget: a no-op tracer adds no calls to a round.

``benchmarks/bench_engine.py`` bounds the ``NoopTracer`` against
``tracer=None`` by wall clock (≤5%), which flips on a loaded machine.
This is the same claim in a structural form: counted with
:func:`sys.setprofile`, a no-op tracer makes exactly as many Python and C
calls per round as no tracer.  Call counts are deterministic once a warm-up
pass has built the tables the parties answer from, so the gate cannot
flap.
"""

from __future__ import annotations

import random
import sys
from typing import Tuple

from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING, run_execution
from repro.obs import NoopTracer
from repro.obs.tracer import TracerLike
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

#: The shape of perfbench's sweep: the compact universal user over the
#: 8-codec follower class against advisors, 2000 rounds, metrics-only
#: and judged as it goes; two servers and two seeds keep it quick.
CODECS = codec_family(8)
LAW = random_law(random.Random(0))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)[:2]
SEEDS = (0, 1)
HORIZON = 2000


def cast_pass(tracer: TracerLike) -> int:
    """One pass over the cast with ``tracer`` on the engine and the user;
    returns the rounds run."""
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
        tracer=tracer,
    )
    rounds = 0
    for server in SERVERS:
        for seed in SEEDS:
            execution = run_execution(
                user, server, GOAL.world, max_rounds=HORIZON, seed=seed,
                tracer=tracer, recording=METRICS_RECORDING, referee=GOAL.referee,
            )
            rounds += execution.rounds_executed
    return rounds


def counted_pass(tracer: TracerLike) -> Tuple[int, int, int]:
    """(Python calls, C calls, rounds) of one profiled pass."""
    calls = {"call": 0, "c_call": 0}

    def profile(frame: object, event: str, arg: object) -> None:
        if event in calls:
            calls[event] += 1

    sys.setprofile(profile)
    try:
        rounds = cast_pass(tracer)
    finally:
        sys.setprofile(None)
    return calls["call"], calls["c_call"], rounds


def test_noop_tracer_adds_no_calls_per_round():
    cast_pass(None)  # Warm-up: builds the advisors' and followers' tables.
    off = counted_pass(None)
    noop = counted_pass(NoopTracer())
    python_calls, c_calls, rounds = off
    assert rounds == len(SERVERS) * len(SEEDS) * HORIZON
    # Not vacuous: the profiler saw the rounds' party steps.
    assert python_calls > 10 * rounds and c_calls > 5 * rounds
    assert noop == off, (
        f"per round: tracer=None {python_calls / rounds:.3f} Python / "
        f"{c_calls / rounds:.3f} C calls, NoopTracer "
        f"{noop[0] / rounds:.3f} / {noop[1] / rounds:.3f}"
    )

"""The three workloads: inputs built from a seed, passes that run them.

Each workload has a builder (inputs from ``--seed``, optionally wrapped in
the traced pass's proxies), a warm-up, and a unit of measured work:

* ``sweep``: one serial :func:`repro.analysis.runner.sweep` of the compact
  universal user over the 8-codec advisor class (Theorem 1's grid);
* ``serve-burst``: the mixed fleet submitted all at once to a fresh
  :class:`~repro.serve.engine.ServeEngine`, no faults, no ledger;
* ``serve-open``: the mixed fleet arriving open-loop at a fixed rate,
  behind a 10% drop channel, every session ledgered, traced and certified.

The program only ever sees the generated grid or fleet.  Latencies are
timed by the benchmark's own load generator from each arrival's due time.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import functools
import hashlib
import math
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from calibrate import NOMINAL_REFERENCE_S, SpeedSampler, reference_chunk, speed_factor

#: Sweep grid: Theorem 1's reproduction, the 8-codec follower class run
#: against its advisor class for 2000 rounds under 4 run seeds.  The law
#: and run seeds are pinned (cells/s moves with them by ~15%); ``--seed``
#: only permutes the cell order.
SWEEP_CODECS = 8
SWEEP_HORIZON = 2000
SWEEP_GRID_SEED = 0
SWEEP_RUN_SEEDS = 4

#: Fleet shape shared by the serve workloads: serve-burst holds 1200
#: sessions open for ~200 rounds (long enough for universal users to
#: settle); serve-open's sessions run 60 rounds.
BURST_SESSIONS = 1200
BURST_HORIZON = 200
FLEET_CODECS = 4
MAX_OPEN = 2048
WORKERS = 2
SLICE_ROUNDS = 32

#: serve-open: a fixed offered rate, 30% of this fleet's ledgered burst
#: capacity (~120 sessions/s, measured once on 2 cores).  At half capacity
#: host contention pushed the engine into queueing and p99 swung 13-93 ms
#: over five runs.  Never re-derived per run, so a faster program cannot
#: raise its own load.
OPEN_RATE = 36.0
OPEN_HORIZON = 60
OPEN_DROP = 0.1
#: An idle gap at least this long (s) before an arrival is used to time
#: one reference chunk (2-6 ms); a session's latency is scaled by the
#: samples within this many arrivals of its own.
IDLE_SAMPLE_S = 0.008
SPEED_WINDOW = 9
#: Wall-clock lag beyond what the CPU clock saw, above which an arrival's
#: lateness counts as the core having been taken away (s).
STALL_TOLERANCE_S = 0.001


class Plain:
    """The untraced pass's wrapping: every object goes in as built."""

    def strategy(self, strategy: Any) -> Any:
        return strategy

    def sensing(self, sensing: Any) -> Any:
        return sensing

    def channel(self, channel: Any) -> Any:
        return channel


def verdict_digest(verdicts: Sequence[Tuple[str, bool, int]]) -> str:
    """SHA-256 over the sorted (label, achieved, rounds) triples."""
    text = "\n".join(
        f"{label}|{int(achieved)}|{rounds}" for label, achieved, rounds in sorted(verdicts)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wrap_goal(goal: Any, wrap: Any) -> Any:
    return dataclasses.replace(goal, world=wrap.strategy(goal.world))


# ---------------------------------------------------------------------------
# sweep


@dataclasses.dataclass
class SweepGrid:
    user: Any
    servers: List[Any]
    goal: Any
    seeds: Tuple[int, ...]

    @property
    def cells(self) -> int:
        return len(self.servers) * len(self.seeds)


def sweep_grid(seed: int, wrap: Any) -> SweepGrid:
    from repro.comm.codecs import codec_family
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    entropy = random.Random(SWEEP_GRID_SEED)
    law = random_law(random.Random(entropy.getrandbits(64)))
    run_seeds = tuple(entropy.getrandbits(32) for _ in range(SWEEP_RUN_SEEDS))
    codecs = codec_family(SWEEP_CODECS)
    servers = [wrap.strategy(s) for s in advisor_server_class(law, codecs)]
    random.Random(seed).shuffle(servers)
    candidates = [wrap.strategy(u) for u in follower_user_class(codecs)]
    user = wrap.strategy(
        CompactUniversalUser(
            ListEnumeration(candidates, label="followers"),
            wrap.sensing(control_sensing()),
        )
    )
    return SweepGrid(user, servers, _wrap_goal(control_goal(law), wrap), run_seeds)


def sweep_pass(grid: SweepGrid, servers: Optional[Sequence[Any]] = None) -> Any:
    """One serial sweep; looked up at call time so a patched sweep is used."""
    import repro.analysis.runner as runner

    return runner.sweep(
        grid.user, list(grid.servers if servers is None else servers), grid.goal,
        seeds=grid.seeds, max_rounds=SWEEP_HORIZON,
    )


def sweep_verdicts(result: Any) -> List[Tuple[str, bool, int]]:
    return [
        (f"{cell.server_name}|{i}", run.achieved, run.rounds)
        for cell in result.cells
        for i, run in enumerate(cell.runs)
    ]


# ---------------------------------------------------------------------------
# serve fleets


def mixed_fleet(
    seed: int,
    sessions: int,
    wrap: Any,
    *,
    max_rounds: int,
    drop: float = 0.0,
) -> List[Any]:
    """The round-robin relay/control/universal fleet of ``demo_specs``.

    Built here from the same public builders and seed fan-out so the traced
    pass can wrap every strategy, the sensing function and the channel.
    """
    from repro.comm.codecs import codec_family
    from repro.core.execution import METRICS_RECORDING
    from repro.faults.channel import drop_channel
    from repro.machines.tabular import (
        coded_server_class,
        relay_decoder_class,
        relay_goal,
    )
    from repro.serve.session import SessionSpec, derive_session_seeds
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    channel = wrap.channel(drop_channel(drop)) if drop > 0.0 else None
    symbols = tuple("abcdefgh")
    r_goal = _wrap_goal(relay_goal(symbols), wrap)
    r_user = wrap.strategy(relay_decoder_class(symbols)[0])
    r_servers = [wrap.strategy(s) for s in coded_server_class(symbols)]

    codecs = codec_family(FLEET_CODECS)
    entropy = random.Random(seed)
    law_seed = entropy.getrandbits(64)
    session_root = entropy.getrandbits(64)
    law = random_law(random.Random(law_seed))
    c_goal = _wrap_goal(control_goal(law), wrap)
    c_servers = [wrap.strategy(s) for s in advisor_server_class(law, codecs)]
    c_users = [wrap.strategy(u) for u in follower_user_class(codecs)]
    u_user = wrap.strategy(
        CompactUniversalUser(
            ListEnumeration(c_users, label="followers"),
            wrap.sensing(control_sensing()),
        )
    )

    def spec(family: str, user: Any, server: Any, goal: Any, session_seed: int) -> Any:
        return SessionSpec(
            user=user, server=server, goal=goal, seed=session_seed,
            max_rounds=max_rounds, recording=METRICS_RECORDING, channel=channel,
            label=f"{family}|{server.name}|{session_seed}",
        )

    fleet = []
    for i, session_seed in enumerate(derive_session_seeds(session_root, sessions)):
        index = i // 3
        server = c_servers[index % len(c_servers)]
        if i % 3 == 0:
            relay_server = r_servers[index % len(r_servers)]
            fleet.append(spec("relay", r_user, relay_server, r_goal, session_seed))
        elif i % 3 == 1:
            user = c_users[index % len(c_users)]
            fleet.append(spec("control", user, server, c_goal, session_seed))
        else:
            fleet.append(spec("universal", u_user, server, c_goal, session_seed))
    return fleet


@dataclasses.dataclass
class ServeRun:
    """What one pass over a fleet produced, timed from the outside."""

    sessions: int
    settled: int
    failed: int
    verdicts: List[Tuple[str, bool, int]]
    #: Due time to settle per session, in arrival order: on the wall clock,
    #: and on the process's CPU clock scaled to the nominal core by the
    #: machine speed sampled around the arrival (see ``calibrate.py``).
    latency_ms: List[float]
    scaled_latency_ms: List[float]
    #: How late each arrival was submitted, on the CPU clock.
    lag_ms: List[float]
    #: Wall seconds of the pass, less the stretches the core was taken away.
    wall_s: float
    cpu_s: float
    open_high_water: int
    #: Mean machine speed over the pass.
    speed: float
    trace_bytes: int = 0


def _cpu_at(stamps: List[Tuple[float, float]], when: float) -> float:
    """The process CPU clock at wall time ``when``, from (wall, cpu) stamps.

    Between two stamps the CPU clock advances at most as fast as the wall
    clock and at most by what it advanced between them: the process is
    taken to be busy from the earlier stamp on, as far as its CPU time
    allows.
    """
    index = max(0, bisect.bisect_right(stamps, (when, math.inf)) - 1)
    wall, cpu = stamps[index]
    room = stamps[index + 1][1] - cpu if index + 1 < len(stamps) else math.inf
    return cpu + min(max(0.0, when - wall), room)


async def _drive(
    specs: Sequence[Any],
    due: Callable[[int, float], float],
    engine_kwargs: Dict[str, Any],
    sampler: Optional[SpeedSampler] = None,
) -> ServeRun:
    """Submit ``specs`` at their due times; latency runs from due to settle.

    Latencies are also read on the process CPU clock, which stops while
    the hypervisor runs someone else (the wall clock does not), and scaled
    by the machine's speed: the ``sampler``'s samples over the pass when
    given, else one reference chunk run before each arrival that finds the
    engine idle with time to spare (it delays no session), averaged over
    ``SPEED_WINDOW`` arrivals either side.
    """
    from repro.serve.engine import ServeEngine

    engine = ServeEngine(
        max_open=MAX_OPEN, workers=WORKERS, slice_rounds=SLICE_ROUNDS, **engine_kwargs
    )
    engine.start()
    count = len(specs)
    due_at = [0.0] * count
    settled_wall = [0.0] * count
    settled_cpu = [0.0] * count
    lag_ms: List[float] = []
    verdicts: List[Tuple[str, bool, int]] = []
    failures: List[BaseException] = []
    all_settled = asyncio.Event()
    pending = [count]

    def on_settle(future: "asyncio.Future[Any]", index: int) -> None:
        # Like a client, take the verdict and let the outcome go: holding
        # every finished session would grow the heap the collector walks.
        settled_wall[index] = time.perf_counter()
        settled_cpu[index] = time.process_time()
        error = future.exception()
        if error is None:
            outcome = future.result()
            verdicts.append(
                (specs[index].label, outcome.outcome.achieved,
                 outcome.execution.rounds_executed)
            )
        else:
            failures.append(error)
        pending[0] -= 1
        if not pending[0]:
            all_settled.set()

    edge_speeds = [speed_factor()]
    samples: Dict[int, float] = {}
    stamps = [(time.perf_counter(), time.process_time())]
    start = stamps[0][0] + 0.005
    stolen_s = 0.0
    for index, spec in enumerate(specs):
        due_at[index] = due(index, start + stolen_s)
        delay = due_at[index] - time.perf_counter()
        if delay > IDLE_SAMPLE_S:
            await asyncio.sleep(delay - IDLE_SAMPLE_S)
            if engine.open_sessions == 0:
                samples[index] = NOMINAL_REFERENCE_S / reference_chunk()
            stamps.append((time.perf_counter(), time.process_time()))
            delay = due_at[index] - stamps[-1][0]
        if delay > 0.0:
            await asyncio.sleep(delay)
        stamps.append((time.perf_counter(), time.process_time()))
        woke, cpu_woke = stamps[-1]
        # Lag the program caused shows on the CPU clock; wall-clock lag the
        # CPU clock did not see was the core taken away, and the schedule
        # pauses for it, as time would on a core of our own.
        program_lag = cpu_woke - _cpu_at(stamps, due_at[index])
        lag_ms.append(program_lag * 1000.0)
        stolen = woke - due_at[index] - program_lag
        if stolen > STALL_TOLERANCE_S:
            stolen_s += stolen
        handle = await engine.submit(spec)
        handle.future.add_done_callback(functools.partial(on_settle, index=index))
    await all_settled.wait()
    wall = max(settled_wall) - start - stolen_s
    cpu = max(settled_cpu) - _cpu_at(stamps, start)
    await engine.close()
    edge_speeds.append(speed_factor())
    speed = None if sampler is None else sampler.mean(start, start + wall)
    if speed is None:
        speeds = edge_speeds + list(samples.values())
        speed = sum(speeds) / len(speeds)
    scaled = []
    for index in range(count):
        near = [
            samples[i]
            for i in range(index - SPEED_WINDOW, index + SPEED_WINDOW + 1)
            if i in samples
        ]
        cpu_latency = settled_cpu[index] - _cpu_at(stamps, due_at[index])
        scaled.append(cpu_latency * 1000.0 * (sum(near) / len(near) if near else speed))
    histogram = engine.counters.histogram("serve.open_sessions")
    return ServeRun(
        sessions=count,
        settled=len(verdicts),
        failed=len(failures),
        verdicts=verdicts,
        latency_ms=[(done - at) * 1000.0 for done, at in zip(settled_wall, due_at)],
        scaled_latency_ms=scaled,
        lag_ms=lag_ms,
        wall_s=wall,
        cpu_s=cpu,
        open_high_water=int(histogram.maximum) if histogram.count else 0,
        speed=speed,
    )


def serve_burst(specs: Sequence[Any], sampler: Optional[SpeedSampler] = None) -> ServeRun:
    """Every session due at once, on a fresh engine without a ledger."""
    return asyncio.run(_drive(specs, lambda index, start: start, {}, sampler))


def serve_open(specs: Sequence[Any], rate: float, scratch: Path) -> ServeRun:
    """Open-loop arrivals at ``rate``/s into a ledgered, certifying engine.

    The ledger lives in a fresh directory under ``scratch`` and is deleted
    once its traces are measured.
    """
    ledger = Path(tempfile.mkdtemp(prefix="ledger-", dir=scratch))
    try:
        run = asyncio.run(
            _drive(
                specs,
                lambda index, start: start + index / rate,
                {"ledger_dir": ledger, "trace": True, "certify": True},
            )
        )
        run.trace_bytes = sum(path.stat().st_size for path in ledger.glob("*.jsonl"))
        return run
    finally:
        shutil.rmtree(ledger, ignore_errors=True)

"""Robustness verification: safety and viability across a fault grid.

Theorem 1's guarantees are stated for a noiseless medium; this module
measures what survives on a noisy one.  :func:`verify_robustness` runs a
(user, server, goal, sensing) system across a grid of fault-channel
configurations and reports, per grid point:

* the **empirical viability margin** — the fraction of runs that still
  achieve the goal (how much universality the noise costs);
* the **empirical safety margin** — whether any run produced a *false
  positive indication*: for finite goals, a halt the sensing endorsed on a
  history the referee rejects; for compact goals, a failing tail the
  sensing nevertheless scored all-positive (the settling criterion of
  :func:`repro.core.properties.check_compact_safety`);
* the **mean enumeration overhead** — for universal users (anything
  exposing a reassignable ``tracer``), the mean
  :attr:`~repro.obs.overhead.OverheadReport.overhead_ratio` across the
  point's runs, measured by :func:`repro.obs.overhead.compute_overhead`
  on each run's trace — noise should raise the overhead before it dents
  the success rate, and this column shows exactly that.

Safety is the property the paper makes unconditional — faults may delay
success but must never make failure look like success — so a single false
positive anywhere on the grid is a verification failure
(:attr:`RobustnessReport.safe` is False), while degraded success rates are
expected and merely quantified.

The grid is deterministic end to end: every run's fault trace derives
from its execution seed (see :mod:`repro.faults.schedules`), so a failing
grid point names an exactly replayable execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.execution import ExecutionResult, FaultyChannelLike, run_execution
from repro.core.goals import Goal, GoalOutcome
from repro.core.properties import _indications_per_round
from repro.core.sensing import Sensing
from repro.core.strategy import ServerStrategy, UserStrategy
from repro.faults.channel import (
    BOTH,
    CORRUPT,
    DROP,
    ChannelFault,
    FaultyChannel,
    drop_channel,
)
from repro.faults.schedules import BernoulliSchedule, BurstSchedule
from repro.obs.overhead import compute_overhead
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer


def default_fault_grid() -> List[Optional[FaultyChannel]]:
    """The standard degradation surface: perfect → drops → noise → bursts.

    Small enough to run inside a test, broad enough to cover the three
    qualitatively different failure modes (loss, corruption, outage).
    """
    return [
        None,
        drop_channel(0.05),
        drop_channel(0.10),
        FaultyChannel(
            [ChannelFault(CORRUPT, BernoulliSchedule(0.10, salt=1), BOTH)],
            label="corrupt(0.1)",
        ),
        FaultyChannel(
            [ChannelFault(DROP, BurstSchedule(period=32, burst=4, phase=8), BOTH)],
            label="burst-outage(4/32)",
        ),
    ]


@dataclass(frozen=True)
class FaultPointReport:
    """Aggregated outcomes for one fault-grid point."""

    channel_name: str
    runs: int
    achieved: int
    halted: int
    false_positives: int
    mean_rounds: float
    #: Mean enumeration-overhead ratio across the point's runs (NaN when
    #: the user is not universal / emitted no trials).
    mean_overhead_ratio: float = math.nan

    @property
    def success_rate(self) -> float:
        return self.achieved / self.runs if self.runs else math.nan

    @property
    def safe(self) -> bool:
        return self.false_positives == 0


@dataclass(frozen=True)
class RobustnessReport:
    """The full grid verdict: per-point margins plus headline properties."""

    goal_name: str
    user_name: str
    points: Tuple[FaultPointReport, ...]

    @property
    def safe(self) -> bool:
        """No false positive indication anywhere on the grid."""
        return all(point.safe for point in self.points)

    @property
    def viability_floor(self) -> float:
        """The worst success rate across the grid (1.0 = fully robust)."""
        return min((point.success_rate for point in self.points), default=math.nan)

    def point(self, channel_name: str) -> FaultPointReport:
        """Look up one grid point by its channel name."""
        for p in self.points:
            if p.channel_name == channel_name:
                return p
        raise KeyError(f"no grid point named {channel_name!r}")

    def format(self) -> str:
        """A fixed-width table of the grid (for logs and reports)."""
        from repro.analysis.tables import format_table

        rows = [
            [
                p.channel_name,
                f"{p.achieved}/{p.runs}",
                f"{p.success_rate:.2f}",
                str(p.false_positives),
                "-" if math.isnan(p.mean_rounds) else f"{p.mean_rounds:.0f}",
                "-"
                if math.isnan(p.mean_overhead_ratio)
                else f"{p.mean_overhead_ratio:.3f}",
            ]
            for p in self.points
        ]
        return format_table(
            [
                "fault channel", "achieved", "rate", "false-pos",
                "mean rounds", "overhead",
            ],
            rows,
            title=f"robustness: {self.user_name} on {self.goal_name}",
        )


def _false_positive(
    sensing: Sensing, execution: ExecutionResult, outcome: GoalOutcome
) -> bool:
    """Did sensing endorse a failure?  (The safety violation we hunt.)"""
    verdict = outcome.compact_verdict
    if verdict is not None:
        half = execution.rounds_executed // 2
        failing_late = (
            verdict.last_bad_round is not None and verdict.last_bad_round > half
        )
        if not failing_late:
            return False
        indications = _indications_per_round(sensing, execution.user_view)
        return all(indications[half:])
    if not execution.halted:
        return False
    if not sensing.indicate(execution.user_view):
        return False
    return not outcome.achieved


def _point_runs(
    user: UserStrategy,
    servers: Sequence[ServerStrategy],
    goal: Goal,
    channel: Optional[FaultyChannelLike],
    seeds: Sequence[int],
    max_rounds: int,
    user_traceable: bool,
) -> List[Tuple[ServerStrategy, int, ExecutionResult, Optional[MemorySink]]]:
    """All of one grid point's runs, server-major.

    One :func:`run_execution` per (server, seed).  A traceable user lends
    its ``tracer`` slot to a private :class:`~repro.obs.tracer.Tracer` per
    run, so every run carries its own in-order event stream (what overhead
    accounting and certification consume).
    """
    results: List[
        Tuple[ServerStrategy, int, ExecutionResult, Optional[MemorySink]]
    ] = []
    for server in servers:
        for seed in seeds:
            sink = MemorySink() if user_traceable else None
            saved = user.tracer if user_traceable else None
            if user_traceable:
                user.tracer = Tracer(sink=sink)
            try:
                execution = run_execution(
                    user,
                    server,
                    goal.world,
                    max_rounds=max_rounds,
                    seed=seed,
                    channel=channel,
                    referee=goal.referee,
                )
            finally:
                if user_traceable:
                    user.tracer = saved
            results.append((server, seed, execution, sink))
    return results


def verify_robustness(
    user: UserStrategy,
    servers: Sequence[ServerStrategy],
    goal: Goal,
    sensing: Sensing,
    *,
    grid: Optional[Sequence[Optional[FaultyChannelLike]]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    max_rounds: int = 2000,
    certify: bool = False,
) -> RobustnessReport:
    """Sweep the fault grid and measure empirical safety/viability margins.

    Every (channel, server, seed) triple is one full execution under the
    default (FULL) recording policy — the safety check replays the user's
    view through the sensing function, so per-round history is required.

    With ``certify=True`` (universal users only), every run's in-memory
    event stream is additionally handed to
    :func:`repro.obs.certify.certify_events`; any internal inconsistency
    — an unjustified strategy switch, a trial closed with an
    out-of-vocabulary reason — raises
    :class:`~repro.obs.certify.CertificationError` naming the offending
    grid point, so a grid that passes was not merely safe but internally
    coherent event-by-event.
    """
    if grid is None:
        grid = default_fault_grid()
    # Universal users expose a reassignable ``tracer``; borrowing it per
    # run yields the event stream the overhead accounting reads.  Tracing
    # is read-only, so every traced run is bitwise-identical to untraced.
    user_traceable = hasattr(user, "tracer")
    points: List[FaultPointReport] = []
    for channel in grid:
        name = "perfect" if channel is None else getattr(channel, "name", "channel")
        runs = achieved = halted = false_positives = 0
        achieved_rounds: List[int] = []
        overhead_ratios: List[float] = []
        for server, seed, execution, sink in _point_runs(
            user, servers, goal, channel, seeds, max_rounds, user_traceable
        ):
            runs += 1
            outcome = goal.evaluate(execution)
            if outcome.achieved:
                achieved += 1
                achieved_rounds.append(outcome.rounds)
            if execution.halted:
                halted += 1
            if _false_positive(sensing, execution, outcome):
                false_positives += 1
            if sink is not None:
                events = sink.events
                overhead = compute_overhead(events)
                if overhead.trials:
                    overhead_ratios.append(overhead.overhead_ratio)
                if certify:
                    # Lazy: the checker is analysis-side code and must
                    # not load on the plain verification path.
                    from repro.obs.certify import (
                        CertificationError,
                        certify_events,
                    )

                    label = f"{name}/server={server.name}/seed={seed}"
                    certificate = certify_events(events, trace=label)
                    if not certificate.ok:
                        raise CertificationError(certificate.format())
        points.append(
            FaultPointReport(
                channel_name=name,
                runs=runs,
                achieved=achieved,
                halted=halted,
                false_positives=false_positives,
                mean_rounds=(
                    sum(achieved_rounds) / len(achieved_rounds)
                    if achieved_rounds
                    else math.nan
                ),
                mean_overhead_ratio=(
                    sum(overhead_ratios) / len(overhead_ratios)
                    if overhead_ratios
                    else math.nan
                ),
            )
        )
    return RobustnessReport(
        goal_name=goal.name, user_name=user.name, points=tuple(points)
    )

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
  sensing nevertheless scored all-positive (the verdict the safety
  checkers read, :attr:`repro.core.properties.Judgement.false_positive`);
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

from repro.core.execution import FaultyChannelLike
from repro.core.goals import Goal
from repro.core.properties import judge_run
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
from repro.obs.flight import TeeSink
from repro.obs.overhead import OverheadFold
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

    Every (channel, server, seed) triple is one execution, judged as it
    goes by :func:`repro.core.properties.judge_run` and folded into its
    grid point's counters before the next run starts.

    With ``certify=True`` (universal users only), every run's events are
    additionally kept in memory and handed to
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
        runs = achieved = halted = false_positives = achieved_rounds = 0
        overhead_runs = 0
        overhead_total = 0.0
        for server in servers:
            for seed in seeds:
                # The overhead folds as the events arrive; the events
                # themselves are kept only for the certificate.
                fold = OverheadFold() if user_traceable else None
                kept = MemorySink() if user_traceable and certify else None
                saved = user.tracer if user_traceable else None
                if fold is not None:
                    user.tracer = Tracer(
                        sink=fold if kept is None else TeeSink(fold, kept)
                    )
                try:
                    judgement = judge_run(
                        user,
                        server,
                        goal,
                        sensing,
                        seed=seed,
                        max_rounds=max_rounds,
                        channel=channel,
                    )
                finally:
                    if user_traceable:
                        user.tracer = saved
                runs += 1
                outcome = judgement.outcome
                if outcome.achieved:
                    achieved += 1
                    achieved_rounds += outcome.rounds
                if outcome.halted:
                    halted += 1
                if judgement.false_positive:
                    false_positives += 1
                if fold is not None:
                    overhead = fold.report()
                    if overhead.trials:
                        overhead_runs += 1
                        overhead_total += overhead.overhead_ratio
                if kept is not None:
                    # Lazy: the checker is analysis-side code and must
                    # not load on the plain verification path.
                    from repro.obs.certify import (
                        CertificationError,
                        certify_events,
                    )

                    label = f"{name}/server={server.name}/seed={seed}"
                    certificate = certify_events(kept, trace=label)
                    if not certificate.ok:
                        raise CertificationError(certificate.format())
        points.append(
            FaultPointReport(
                channel_name=name,
                runs=runs,
                achieved=achieved,
                halted=halted,
                false_positives=false_positives,
                mean_rounds=achieved_rounds / achieved if achieved else math.nan,
                mean_overhead_ratio=(
                    overhead_total / overhead_runs if overhead_runs else math.nan
                ),
            )
        )
    return RobustnessReport(
        goal_name=goal.name, user_name=user.name, points=tuple(points)
    )

"""Tracers: the single object threaded through an instrumented run.

A tracer bundles a sink (the event stream) and, where someone reads
them, a :class:`CounterSet` (running totals derived from the events).
Instrumented code holds exactly one reference and calls ``emit``.

The contract that keeps the engine fast: every tracer exposes a class-level
``enabled`` flag, and instrumented hot loops hoist ``tracer is not None and
tracer.enabled`` into a local before the loop.  With ``tracer=None`` or a
:class:`NoopTracer`, the loop body therefore allocates *nothing* — no event
objects, no string joins, not even a method call — so tracing-off costs one
branch per round (benchmarked in ``benchmarks/bench_engine.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.obs.counters import CounterSet
from repro.obs.events import (
    Event,
    FaultInjected,
    FaultRecovered,
    GraceSuppressed,
    RoundExecuted,
    SensingIndication,
    StrategySwitch,
    TrialStarted,
)
from repro.obs.sinks import NullSink, Sink


def _count_sensing(counters: CounterSet, event: SensingIndication) -> None:
    counters.inc("sensing_positive" if event.positive else "sensing_negative")


def _count_round(counters: CounterSet, event: RoundExecuted) -> None:
    counters.inc("rounds")
    counters.inc("messages", event.messages)
    counters.inc("message_bytes", event.message_bytes)


def _count_switch(counters: CounterSet, event: StrategySwitch) -> None:
    counters.inc("switches")
    if event.wrapped:
        counters.inc("wraps")


def _count_one(name: str) -> Callable[[CounterSet, Event], None]:
    def count(counters: CounterSet, event: Event) -> None:
        counters.inc(name)

    return count


#: Exact event type -> the counters it bumps (other types bump none).
_COUNT: Dict[type, Callable[[CounterSet, Any], None]] = {
    RoundExecuted: _count_round,
    SensingIndication: _count_sensing,
    StrategySwitch: _count_switch,
    TrialStarted: _count_one("trials"),
    GraceSuppressed: _count_one("grace_suppressed"),
    FaultInjected: _count_one("faults_injected"),
    FaultRecovered: _count_one("faults_recovered"),
}


class NoopTracer:
    """A tracer that records nothing.

    Exists so call sites can take a tracer unconditionally; instrumented
    code that honours the ``enabled`` contract never even calls
    :meth:`emit`.  (The method is still a correct no-op for code that
    doesn't bother checking.)
    """

    __slots__ = ()
    enabled = False

    def emit(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """An enabled tracer: events to the sink, totals to the counters.

    Parameters
    ----------
    sink:
        Event destination; defaults to :class:`~repro.obs.sinks.NullSink`,
        i.e. a counters-only tracer — the cheapest *on* configuration,
        which is what sweeps use for per-cell telemetry.
    counters:
        Injectable so several runs can share one accumulator (a sweep cell
        aggregates across seeds this way).

    A tracer keeps counters when it is given a ``counters`` set or has no
    sink (the counters-only tracer).  ``Tracer(sink=s)`` only forwards:
    its ``counters`` is ``None``, and an event costs one sink call — the
    served and recorded traces have no counter reader, so they pay for
    none.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Sink] = None,
        counters: Optional[CounterSet] = None,
    ) -> None:
        if sink is None:
            sink = NullSink()
            if counters is None:
                counters = CounterSet()
        self.sink = sink
        self.counters = counters

    def emit(self, event: Event) -> None:
        """Record one event: update any counters, then forward to the sink."""
        counters = self.counters
        if counters is not None:
            count = _COUNT.get(type(event))
            if count is not None:
                count(counters, event)
        self.sink.emit(event)

    def close(self) -> None:
        """Close the sink (the counters remain readable)."""
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: What instrumented code accepts: off (None), explicitly off, or on.
TracerLike = Union[None, NoopTracer, Tracer]


def is_tracing(tracer: TracerLike) -> bool:
    """The hoisted hot-loop check, as a named helper for call sites."""
    return tracer is not None and tracer.enabled

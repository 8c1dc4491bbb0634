"""Layer spans recorded from outside the program.

Nothing under ``src/`` opens a span.  The traced run gets its per-layer
numbers from here instead:

* :class:`SpanRecorder` times calls and keeps, per layer, the call count,
  the total duration and the self time (duration minus the part covered by
  spans opened inside it).  Spans live in memory as per-layer totals and
  are read out when the run ends.
* :class:`TimedStrategy`, :class:`TimedSensing` and :class:`TimedChannel`
  are transparent proxies around the objects the benchmark hands to the
  program: party strategies (every enumerated candidate included), the
  sensing function (so the monitor its ``incremental()`` builds is timed)
  and the fault channel (so its per-run ``apply`` is timed).
* :class:`Patches` swaps public entry points for timed versions and puts
  the originals back.
* :class:`GcPauses` accounts garbage-collector pauses via ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter_ns


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``nan`` when empty.

    No interpolation: the figure is always a sample that occurred.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100]: {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class LayerTotals:
    """What one layer's spans add up to."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class SpanRecorder:
    """Per-layer span totals with self time = duration minus child spans.

    Spans nest through a stack of child-time accumulators: closing a span
    adds its duration to the accumulator of the span that encloses it.
    """

    def __init__(self) -> None:
        self._stack: List[int] = []
        self.layers: Dict[str, LayerTotals] = {}

    def layer(self, name: str) -> LayerTotals:
        totals = self.layers.get(name)
        if totals is None:
            totals = self.layers[name] = LayerTotals()
        return totals

    def open(self) -> int:
        """Open a span; returns its start time (pass it to :meth:`close`)."""
        self._stack.append(0)
        return clock()

    def close(self, totals: LayerTotals, start: int) -> None:
        """Close the innermost span into ``totals``."""
        elapsed = clock() - start
        stack = self._stack
        children = stack.pop()
        totals.calls += 1
        totals.total_ns += elapsed
        totals.self_ns += elapsed - children
        if stack:
            stack[-1] += elapsed

    @property
    def depth(self) -> int:
        return len(self._stack)

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span of layer ``name``."""
        totals = self.layer(name)

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            start = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(totals, start)

        return timed_call

    def calls(self, name: str) -> int:
        totals = self.layers.get(name)
        return 0 if totals is None else totals.calls

    def total_ns(self, name: str) -> int:
        totals = self.layers.get(name)
        return 0 if totals is None else totals.total_ns

    def self_ns(self, name: str) -> int:
        totals = self.layers.get(name)
        return 0 if totals is None else totals.self_ns

    def per_call_ns(self, name: str, *, own: bool = False) -> float:
        """Mean total (or, with ``own``, self) ns per call; 0 if never called."""
        totals = self.layers.get(name)
        if totals is None or not totals.calls:
            return 0.0
        return (totals.self_ns if own else totals.total_ns) / totals.calls

    def sum_self_ns(self) -> int:
        """Σ self over every layer (= the time inside outermost spans)."""
        return sum(totals.self_ns for totals in self.layers.values())


def party_layer(strategy: Any) -> str:
    """The layer a strategy belongs to: its ``repro`` subpackage."""
    parts = type(strategy).__module__.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else parts[0]


class TimedStrategy:
    """A party strategy whose ``step`` is a span of its layer.

    Everything else is forwarded, including ``name`` and the reassignable
    ``tracer`` attribute universal users expose (so a session borrowing it
    reaches the wrapped user, and ``hasattr(proxy, "tracer")`` answers as
    the wrapped strategy would).
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(
            self, "step", recorder.timed(party_layer(inner), inner.step)
        )

    @property
    def name(self) -> str:
        return self._inner.name

    def initial_state(self, rng: Any) -> Any:
        return self._inner.initial_state(rng)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __setattr__(self, attr: str, value: Any) -> None:
        setattr(self._inner, attr, value)

    def __repr__(self) -> str:
        return f"<timed {self._inner!r}>"


class SensingStats:
    """Observation counts of the timed sensing monitors."""

    __slots__ = ("observed", "negative")

    def __init__(self) -> None:
        self.observed = 0
        self.negative = 0


class _TimedMonitor:
    __slots__ = ("_inner", "_totals", "_recorder", "_stats")

    def __init__(
        self, inner: Any, recorder: SpanRecorder, stats: SensingStats
    ) -> None:
        self._inner = inner
        self._recorder = recorder
        self._totals = recorder.layer("sensing")
        self._stats = stats

    def observe(self, record: Any) -> bool:
        start = self._recorder.open()
        try:
            indication = self._inner.observe(record)
        finally:
            self._recorder.close(self._totals, start)
        stats = self._stats
        stats.observed += 1
        if not indication:
            stats.negative += 1
        return indication


class TimedSensing:
    """A sensing function whose incremental monitors time ``observe``."""

    def __init__(
        self, inner: Any, recorder: SpanRecorder, stats: SensingStats
    ) -> None:
        self._inner = inner
        self._recorder = recorder
        self._stats = stats

    @property
    def name(self) -> str:
        return self._inner.name

    def incremental(self) -> Any:
        # The library sensing functions all offer a native monitor; the
        # replay fallback would bypass the proxy, so insist on one.
        monitor = self._inner.incremental()
        if monitor is None:
            raise TypeError(f"{self._inner!r} offers no incremental monitor")
        return _TimedMonitor(monitor, self._recorder, self._stats)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class FaultStats:
    __slots__ = ("applied", "altered")

    def __init__(self) -> None:
        self.applied = 0
        self.altered = 0


class _TimedChannelRun:
    __slots__ = ("_inner", "_totals", "_recorder", "_stats")

    def __init__(self, inner: Any, recorder: SpanRecorder, stats: FaultStats) -> None:
        self._inner = inner
        self._recorder = recorder
        self._totals = recorder.layer("faults")
        self._stats = stats

    def apply(
        self, round_index: int, user_to_server: str, server_to_user: str
    ) -> Tuple[str, str]:
        start = self._recorder.open()
        try:
            out = self._inner.apply(round_index, user_to_server, server_to_user)
        finally:
            self._recorder.close(self._totals, start)
        stats = self._stats
        stats.applied += 1
        if out[0] != user_to_server or out[1] != server_to_user:
            stats.altered += 1
        return out


class TimedChannel:
    """A fault channel whose per-run ``apply`` is a ``faults`` span."""

    def __init__(self, inner: Any, recorder: SpanRecorder, stats: FaultStats) -> None:
        self._inner = inner
        self._recorder = recorder
        self._stats = stats

    @property
    def name(self) -> str:
        return self._inner.name

    def start(self, seed: int, tracer: Any = None) -> _TimedChannelRun:
        return _TimedChannelRun(
            self._inner.start(seed, tracer), self._recorder, self._stats
        )

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class Patches:
    """Swap attributes for timed versions; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` with ``value`` until :meth:`restore`."""
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


class GcPauses:
    """Collector pauses seen through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.pauses_ns: List[int] = []
        self.gen2_collections = 0
        self._started: Optional[int] = None

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = clock()
            return
        if self._started is not None:
            self.pauses_ns.append(clock() - self._started)
            self._started = None
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def total_ms(self) -> float:
        return sum(self.pauses_ns) / 1e6

    @property
    def max_ms(self) -> float:
        return max(self.pauses_ns, default=0) / 1e6

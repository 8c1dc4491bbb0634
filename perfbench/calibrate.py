"""Machine-speed reference: scale measured times to a nominal core.

The benchmark runs on shared virtual machines.  Neighbours take the core
away for up to ~100 ms at a time (steal time) and, while it runs, slow it
by up to ~2x for seconds to minutes.  So the benchmark times work on the
process CPU clock, which stops while the core is taken away, and scales it
by ``speed = NOMINAL_REFERENCE_S / t``, where ``t`` is the CPU time of a
fixed, program-independent, pure-Python reference chunk run next to the
work: the figure the run would have shown on a core that runs the chunk in
``NOMINAL_REFERENCE_S``.  A change to the program does not touch the
chunk, so it moves the scaled figures as it moves the raw ones; the raw
wall-clock figures are printed beside them.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Optional, Tuple

from spans import median

#: Seconds one :func:`reference_chunk` takes on an uncontended core of
#: the 2-core VM the benchmark was defined on (its fastest observed time).
NOMINAL_REFERENCE_S = 0.0019


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str) -> None:
        self.key = key
        self.value = value


def _touch(item: _Item, table: dict) -> int:
    table[item.key % 251] = item
    return len(item.value)


def reference_chunk() -> float:
    """Run the fixed reference work once; returns its process CPU seconds.

    Calls, attribute access, small-object and tuple allocation, dict and
    list traffic and string formatting: the interpreter work the simulated
    parties do, with no code from the program under test.
    """
    start = time.process_time()
    table: dict = {}
    total = 0
    items: List[tuple] = []
    for i in range(3000):
        item = _Item(i, f"m{i}")
        total += _touch(item, table)
        items.append((i & 7, item.value))
        if len(items) > 64:
            items.sort()
            del items[:32]
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return time.process_time() - start


def speed_factor(chunks: int = 9) -> float:
    """``NOMINAL_REFERENCE_S`` over the median of ``chunks`` reference runs.

    Below 1 when the core is slower than nominal; multiply a measured time
    by it to scale that time to the nominal core.
    """
    return NOMINAL_REFERENCE_S / median([reference_chunk() for _ in range(chunks)])


class SpeedSampler:
    """Samples the machine's speed every ``interval`` s while installed.

    A ``SIGALRM`` interval timer runs one reference chunk in the main
    thread, between the program's bytecodes, so a long synchronous call
    (a whole sweep) is sampled throughout.  The chunks take ~1% of the
    time; the workloads that use this are throughput-bound, not latency.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        chunk = reference_chunk()
        self.samples.append((time.perf_counter(), NOMINAL_REFERENCE_S / chunk))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self, start: float, end: float) -> Optional[float]:
        """Mean speed of the samples taken between ``start`` and ``end``."""
        inside = [speed for at, speed in self.samples if start <= at <= end]
        return sum(inside) / len(inside) if inside else None

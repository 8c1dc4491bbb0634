"""Flight recorder: the last N events of a session, recoverable on death.

Full tracing writes every event to disk and costs accordingly; the
flight recorder is the cheap always-on alternative for long-running
serving.  A :class:`FlightBuffer` is a bounded ring that keeps only the
most recent events in memory (plus a count of what it evicted), and
:func:`dump_flight` turns that ring into a ``flight/<session_id>.jsonl``
file when a session dies — the aviation black-box model: nothing is
written while things go well, and the final seconds survive a crash.

A dump is an ordinary schema-versioned trace *fragment*: the header
carries ``"flight": true`` and the eviction count, the body is normal
event lines, so :func:`repro.obs.sinks.iter_trace` reads it and
``python -m repro.obs certify --fragment`` checks the invariants that
survive a missing prefix.

:class:`TeeSink` composes the ring with full tracing when both are on —
one emit fans out to every child sink, keeping the session's single
tracer (and therefore the byte-identical trace guarantee) intact.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.events import Event
from repro.obs.sinks import JsonlSink, Sink


class FlightBuffer(Sink):
    """A bounded ring of the most recent events.

    Unlike :class:`~repro.obs.sinks.MemorySink` (unbounded by default,
    built for tests), the flight buffer *requires* a capacity and counts
    what it dropped — ``evicted`` is how a reader knows the dump's first
    event is not the session's first event.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"flight capacity must be positive: {capacity}")
        self.capacity = capacity
        self.evicted = 0
        self._events: Deque[Event] = deque()

    def emit(self, event: Event) -> None:
        if len(self._events) == self.capacity:
            self._events.popleft()
            self.evicted += 1
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        """The buffered events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._events)


class TeeSink(Sink):
    """Fans each event out to every child sink, in order.

    ``close`` closes every child even if an earlier close raises — the
    flight buffer must stay dumpable when the trace file's flush fails.
    """

    def __init__(self, *sinks: Sink) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = sinks

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


def dump_flight(
    events: Union[FlightBuffer, Iterable[Event]],
    path: Union[str, Path],
    *,
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a flight dump: schema header + the buffered events.

    The dump is written by a :class:`~repro.obs.sinks.JsonlSink`, so its
    lines are byte for byte what full tracing writes for the same events.
    The header is a normal trace header (current schema major/minor) plus
    ``"flight": true`` and, for a :class:`FlightBuffer`, the ``evicted``
    count — so downstream tooling can both read it with the stock trace
    readers and recognise it as a fragment.  Returns the written path.
    """
    resolved = Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    extras: Dict[str, Any] = {"flight": True}
    if isinstance(events, FlightBuffer):
        extras["evicted"] = events.evicted
        records = events.events
    else:
        records = list(events)
    for key, value in (header or {}).items():
        extras.setdefault(key, value)
    with JsonlSink(resolved, header=extras) as sink:
        for event in records:
            sink.emit(event)
    return resolved

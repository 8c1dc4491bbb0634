"""Structural interfaces (:class:`typing.Protocol`) for the core contracts.

Every extension point of the engine was historically duck-typed, with
"Like" stub classes (``FaultyChannelLike``, ``SweepExecutorLike``)
documenting the shape but checking nothing.  These Protocols make the
shapes *checkable*: ``mypy --strict`` verifies every implementation and
every call site, without forcing third-party strategies, sensing, or
executors to inherit from anything — the paper quantifies over strategy
*classes*, so the library must accept any object with the right
behaviour, not any object with the right ancestor.

The runtime contracts these shapes carry (determinism, purity,
statelessness) cannot be expressed in types; they are enforced by
``repro.lint`` (rules RL001–RL005, see ``docs/STATIC_ANALYSIS.md``) and
by the dynamic parity suites.  Protocols and lint rules are two walls
around the same invariants.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.core.views import UserView, ViewRecord
    from repro.obs.events import Event


@runtime_checkable
class StrategyLike(Protocol):
    """Anything the engine can drive: ``(state, inbox, rng) -> (state, outbox)``.

    The concrete base classes in :mod:`repro.core.strategy` implement
    this; the engine and the universal users only ever rely on this
    surface.  ``step`` must not mutate the receiver (rule RL002) and may
    draw randomness only from ``rng`` (rule RL001).
    """

    def initial_state(self, rng: random.Random) -> Any: ...

    def step(self, state: Any, inbox: Any, rng: random.Random) -> Tuple[Any, Any]: ...

    @property
    def name(self) -> str: ...


@runtime_checkable
class SensingLike(Protocol):
    """A Boolean predicate of the user's trial-local view (rule RL003)."""

    def indicate(self, view: "UserView") -> bool: ...

    def incremental(self) -> Optional["IncrementalSensingLike"]: ...

    @property
    def name(self) -> str: ...


@runtime_checkable
class IncrementalSensingLike(Protocol):
    """A per-trial monitor equivalent to some :class:`SensingLike`."""

    def observe(self, record: "ViewRecord") -> bool: ...


#: A bare callable usable as sensing via ``FunctionSensing`` — must be a
#: module-level function for process-pool sweeps (rule RL004).
SensingPredicate = Callable[["UserView"], bool]


@runtime_checkable
class TracerProtocol(Protocol):
    """What instrumented code needs from a tracer (see ``repro.obs``)."""

    enabled: bool

    def emit(self, event: "Event") -> None: ...

    def close(self) -> None: ...


@runtime_checkable
class ChannelRunLike(Protocol):
    """Per-execution state of a fault channel: consulted once per round."""

    def apply(
        self, round_index: int, user_to_server: str, server_to_user: str
    ) -> Tuple[str, str]: ...


@runtime_checkable
class ChannelLike(Protocol):
    """An unreliable user↔server link accepted by ``run_execution(channel=)``.

    ``start`` must be non-mutating (a channel is shared across sweep
    cells) and the run it returns must be a pure function of ``seed`` —
    the engine derives that seed from the master seed so fault traces
    replay exactly.
    """

    def start(self, seed: int, tracer: Any = None) -> ChannelRunLike: ...


@runtime_checkable
class ScheduleRunLike(Protocol):
    """Per-execution state of a fault schedule: ``fires`` per round."""

    def fires(self, round_index: int) -> bool: ...


@runtime_checkable
class FaultScheduleLike(Protocol):
    """A picklable, immutable description of *when* faults fire."""

    def start(self, seed: int) -> ScheduleRunLike: ...

    @property
    def name(self) -> str: ...


__all__ = [
    "ChannelLike",
    "ChannelRunLike",
    "FaultScheduleLike",
    "IncrementalSensingLike",
    "ScheduleRunLike",
    "SensingLike",
    "SensingPredicate",
    "StrategyLike",
    "TracerProtocol",
]

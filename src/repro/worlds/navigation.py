"""The navigation world — goals whose actions have physical consequences.

A grid maze: the user steers an agent with ``MOVE:<direction>`` commands
and must halt on the target cell.  The server is a *guide* who knows the
maze (:mod:`repro.servers.guides`); the user knows nothing but what the
world tells it — its position and whether it has arrived.

What this goal adds over printing/control: actions move persistent state
around, so an abandoned trial leaves the agent *somewhere else* — yet the
goal stays forgiving (any reachable position still reaches the target),
making it the sharpest test of the universal users' restart discipline:
enumeration overhead here is paid in literal extra steps through the maze.

The :class:`Grid` substrate (with breadth-first-search distance fields and
maze generators) is general-purpose and lives here with the world that
uses it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.comm.messages import WorldInbox, WorldOutbox, parse_tagged
from repro.core.execution import ExecutionResult
from repro.core.goals import FiniteGoal
from repro.core.referees import FiniteReferee
from repro.core.sensing import LastWorldMessageSensing, Sensing
from repro.core.strategy import WorldStrategy

Cell = Tuple[int, int]

#: Direction vocabulary, with deterministic tie-break order.
DIRECTIONS: Tuple[str, ...] = ("north", "east", "south", "west")
_DELTA: Dict[str, Cell] = {
    "north": (0, -1),
    "east": (1, 0),
    "south": (0, 1),
    "west": (-1, 0),
}


@dataclass(frozen=True)
class Grid:
    """An immutable rectangular maze.

    ``walls`` are blocked cells; ``start`` and ``target`` must be free and
    mutually reachable (validated at construction — an unreachable maze
    would make the goal unachievable and thus vacuous).
    """

    width: int
    height: int
    walls: FrozenSet[Cell]
    start: Cell
    target: Cell

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2: {self.width}x{self.height}")
        for label, cell in (("start", self.start), ("target", self.target)):
            if not self.in_bounds(cell):
                raise ValueError(f"{label} out of bounds: {cell}")
            if cell in self.walls:
                raise ValueError(f"{label} is a wall: {cell}")
        if self.distance_from_target(self.start) is None:
            raise ValueError("target unreachable from start")

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    def neighbours(self, cell: Cell) -> List[Tuple[str, Cell]]:
        """Free neighbouring cells with the direction leading to them."""
        x, y = cell
        out = []
        for direction in DIRECTIONS:
            dx, dy = _DELTA[direction]
            candidate = (x + dx, y + dy)
            if self.is_free(candidate):
                out.append((direction, candidate))
        return out

    def distance_field(self) -> Dict[Cell, int]:
        """BFS distances from the target over free cells (memo-free, cheap)."""
        distances: Dict[Cell, int] = {self.target: 0}
        queue = deque([self.target])
        while queue:
            cell = queue.popleft()
            for _, neighbour in self.neighbours(cell):
                if neighbour not in distances:
                    distances[neighbour] = distances[cell] + 1
                    queue.append(neighbour)
        return distances

    def distance_from_target(self, cell: Cell) -> Optional[int]:
        return self.distance_field().get(cell)

    def shortest_step(self, position: Cell) -> Optional[str]:
        """The direction of a shortest path toward the target.

        Deterministic tie-break (the :data:`DIRECTIONS` order) so guides
        are reproducible.  ``None`` when already at the target or stranded.
        """
        if position == self.target:
            return None
        field = self.distance_field()
        here = field.get(position)
        if here is None:
            return None
        for direction, neighbour in self.neighbours(position):
            if field.get(neighbour) == here - 1:
                return direction
        return None

    def step_from(self, position: Cell, direction: str) -> Cell:
        """The result of attempting a move (bumping a wall stays put)."""
        if direction not in _DELTA:
            return position
        dx, dy = _DELTA[direction]
        candidate = (position[0] + dx, position[1] + dy)
        return candidate if self.is_free(candidate) else position


def random_grid(
    rng: random.Random,
    width: int = 8,
    height: int = 8,
    wall_density: float = 0.25,
    *,
    max_attempts: int = 200,
) -> Grid:
    """A random maze with reachable corners (start top-left, target
    bottom-right); re-draws until connectivity holds."""
    if not 0.0 <= wall_density < 0.7:
        raise ValueError(f"wall_density out of range: {wall_density}")
    start: Cell = (0, 0)
    target: Cell = (width - 1, height - 1)
    for _ in range(max_attempts):
        walls = frozenset(
            (x, y)
            for x in range(width)
            for y in range(height)
            if (x, y) not in (start, target) and rng.random() < wall_density
        )
        try:
            return Grid(width, height, walls, start, target)
        except ValueError:
            continue
    raise ValueError("could not draw a connected maze; lower wall_density")


def corridor_grid(length: int = 10) -> Grid:
    """A 2-row serpentine corridor — worst-case path length per area."""
    if length < 3:
        raise ValueError(f"corridor needs length >= 3: {length}")
    walls = frozenset((x, 1) for x in range(1, length - 1))
    return Grid(length, 3, walls, (0, 0), (length - 1, 2))


@dataclass(frozen=True)
class NavigationState:
    """World state: where the agent is and how it has travelled."""

    position: Cell
    moves: int = 0
    bumps: int = 0


class NavigationWorld(WorldStrategy):
    """The maze environment.

    Broadcasts ``POS:<x>,<y>;AT:<0|1>`` to the user and ``POS:<x>,<y>`` to
    the server (the guide needs the position, not the arrival bit), and
    executes ``MOVE:<direction>`` commands; bumping a wall costs a round
    but no position change.
    """

    def __init__(self, grid: Grid) -> None:
        self._grid = grid

    @property
    def name(self) -> str:
        return f"navigation-world[{self._grid.width}x{self._grid.height}]"

    @property
    def grid(self) -> Grid:
        return self._grid

    def initial_state(self, rng: random.Random) -> NavigationState:
        return NavigationState(position=self._grid.start)

    def step(
        self, state: NavigationState, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[NavigationState, WorldOutbox]:
        parsed = parse_tagged(inbox.from_user)
        if parsed is not None and parsed[0] == "MOVE":
            new_position = self._grid.step_from(state.position, parsed[1])
            state = NavigationState(
                position=new_position,
                moves=state.moves + 1,
                bumps=state.bumps + (1 if new_position == state.position else 0),
            )
        x, y = state.position
        arrived = 1 if state.position == self._grid.target else 0
        return state, WorldOutbox(
            to_user=f"POS:{x},{y};AT:{arrived}",
            to_server=f"POS:{x},{y}",
        )


class ArrivedReferee(FiniteReferee):
    """Accepts iff the user halted with the agent on the target cell."""

    def __init__(self, grid: Grid) -> None:
        self._grid = grid

    def accepts(self, execution: ExecutionResult) -> bool:
        state = execution.final_world_state()
        return (
            isinstance(state, NavigationState)
            and state.position == self._grid.target
        )


def navigation_goal(grid: Grid) -> FiniteGoal:
    """The finite goal "stand on the target and halt".

    Forgiving: the maze is connected on its free component containing
    start and target, and moves are reversible, so any reachable position
    still reaches the target.
    """
    return FiniteGoal(
        name="navigation",
        world=NavigationWorld(grid),
        referee=ArrivedReferee(grid),
        forgiving=True,
    )


def _reports_arrival(message: str) -> bool:
    return message.partition(";AT:")[2] == "1"


def navigation_sensing() -> Sensing:
    """The navigation goal's sensing: the last position report says ``AT:1``.

    Safe (arrival is a world-state fact) and viable (a correctly guided
    user arrives and the report follows within one round).
    """
    return LastWorldMessageSensing(
        predicate=_reports_arrival, default=False, label="arrived"
    )

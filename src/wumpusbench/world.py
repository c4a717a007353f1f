"""Deterministic Wumpus-World environment: seeded generation, transitions, rewards.

Coordinates are ``(x, y)`` with ``x`` the column and ``y`` the row; ``(1, 1)``
is the bottom-left start room and adjacency is the 4-neighborhood. The start
room and its in-grid neighbors are guaranteed hazard-free.

World generation uses a Mersenne-Twister PRNG (``random.Random(seed)``) with a
fixed draw order: each pit in turn, then the wumpus, then the gold. Every draw
picks an index into the remaining eligible cells sorted by ``(y, x)``, so a
given config reproduces the same layout on any platform.

Movement is frontier-addressed: the agent names an unexplored cell adjacent to
any explored cell and is assumed to pass safely through explored territory.
Re-entering explored cells is not a move. A single arrow can be shot along a
straight line from the agent's cell; pits do not block it.

Grid geometry is computed once per grid size, on first use: :func:`geometry`
holds the cells in canonical order, the safe start zone and each cell's
in-grid neighbors in canonical order. Adjacency, percepts, world generation and
the frontier all read from that table, and the oracle builds its bitmasks from
it, so nothing recomputes or re-sorts neighbors per call. One predicate,
:func:`_on_frontier`, decides whether a cell is a legal move target; the
frontier listed in observations and the legality check in :func:`apply_action`
both use it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import AbstractSet, Iterable, NamedTuple

from .errors import ConfigurationError, IllegalActionError


class Cell(NamedTuple):
    x: int
    y: int


def sort_key(cell: Cell) -> tuple[int, int]:
    """Canonical cell ordering used everywhere: lexicographic by (y, x)."""
    return (cell.y, cell.x)


class Direction(str, Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {
    Direction.UP: (0, 1),
    Direction.DOWN: (0, -1),
    Direction.LEFT: (-1, 0),
    Direction.RIGHT: (1, 0),
}

DIRECTIONS = (Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT)


class Status(str, Enum):
    RUNNING = "running"
    SUCCESS = "success"
    DEATH_PIT = "death_pit"
    DEATH_WUMPUS = "death_wumpus"
    EXITED = "exited"
    TIMEOUT = "timeout"
    PROTOCOL_FAILURE = "protocol_failure"


TERMINAL_STATUSES = frozenset(s for s in Status if s is not Status.RUNNING)

START_CELL = Cell(1, 1)


@dataclass(frozen=True)
class WorldConfig:
    """Static parameters of one world. Exactly one gold is always placed."""

    grid_size: int
    num_pits: int
    num_wumpus: int
    seed: int
    step_limit: int = 50
    base_score: int = 50
    move_penalty: int = -1
    gold_bonus: int = 50
    pit_death: int = -20
    wumpus_death: int = -30
    kill_bonus: int = 20

    def __post_init__(self):
        if self.grid_size < 2:
            raise ConfigurationError(f"grid_size must be >= 2, got {self.grid_size}")
        if not 0 <= self.num_pits <= 3:
            raise ConfigurationError(f"num_pits must be in 0..3, got {self.num_pits}")
        if self.num_wumpus not in (0, 1):
            raise ConfigurationError(f"num_wumpus must be 0 or 1, got {self.num_wumpus}")
        if self.step_limit < 1:
            raise ConfigurationError(f"step_limit must be >= 1, got {self.step_limit}")


@dataclass(frozen=True)
class Percept:
    breeze: bool
    stench: bool
    glitter: bool
    scream: bool = False


class ActionKind(str, Enum):
    MOVE = "move"
    SHOOT = "shoot"
    EXIT = "exit"


@dataclass(frozen=True)
class Action:
    """One of: move to a frontier cell, shoot in a direction, or exit.

    The canonical text forms are ``move to position (x,y)``, ``<shootup>``
    (likewise down/left/right) and ``<exit>``.
    """

    kind: ActionKind
    target: Cell | None = None
    direction: Direction | None = None

    @staticmethod
    def move(x: int, y: int) -> "Action":
        return Action(ActionKind.MOVE, target=Cell(x, y))

    @staticmethod
    def shoot(direction: Direction | str) -> "Action":
        return Action(ActionKind.SHOOT, direction=Direction(direction))

    @staticmethod
    def exit() -> "Action":
        return Action(ActionKind.EXIT)

    def to_text(self) -> str:
        if self.kind is ActionKind.MOVE:
            return f"move to position ({self.target.x},{self.target.y})"
        if self.kind is ActionKind.SHOOT:
            return f"<shoot{self.direction.value}>"
        return "<exit>"


@dataclass(frozen=True)
class ArrowReport:
    direction: Direction
    scream: bool


@dataclass
class WorldState:
    """Full hidden state of one episode. Owned by exactly one episode runner."""

    config: WorldConfig
    pit_cells: frozenset[Cell]
    wumpus_cell: Cell | None
    wumpus_alive: bool
    gold_cell: Cell | None
    agent_cell: Cell
    explored: list[Cell]
    percept_log: dict[Cell, Percept]
    arrow_available: bool
    arrow_report: ArrowReport | None
    steps_taken: int
    score: int
    status: Status
    reward_ledger: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class TransitionResult:
    new_state: WorldState
    reward_delta: int
    percept: Percept
    terminal: bool


def in_grid(cell: Cell, n: int) -> bool:
    return 1 <= cell.x <= n and 1 <= cell.y <= n


class Geometry(NamedTuple):
    """Static layout of an n x n grid; see :func:`geometry`."""

    cells: tuple[Cell, ...]  # every cell, in canonical (y, x) order
    start_zone: frozenset[Cell]  # the start cell and its in-grid neighbors
    # In-grid 4-neighbors in canonical order, keyed by every cell of the grid
    # and of the ring just outside it; any farther cell has none.
    neighbors: dict[Cell, tuple[Cell, ...]]


@functools.cache
def geometry(n: int) -> Geometry:
    """The geometry table of an n x n grid, built on first use."""

    def inside(x: int, y: int) -> bool:
        return 1 <= x <= n and 1 <= y <= n

    neighbors = {
        # Down, left, right, up is canonical (y, x) order.
        Cell(x, y): tuple(
            Cell(ax, ay)
            for ax, ay in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1))
            if inside(ax, ay)
        )
        for y in range(0, n + 2)
        for x in range(0, n + 2)
    }
    cells = tuple(c for c in neighbors if inside(*c))
    return Geometry(
        cells=cells,
        start_zone=frozenset([START_CELL, *neighbors[START_CELL]]),
        neighbors=neighbors,
    )


def grid_cells(n: int) -> list[Cell]:
    """All cells of an n x n grid in canonical (y, x) order."""
    return list(geometry(n).cells)


def adjacent_cells(cell: Cell, n: int) -> list[Cell]:
    """In-grid 4-neighbors in canonical order."""
    return list(geometry(n).neighbors.get(cell, ()))


def safe_start_zone(n: int) -> frozenset[Cell]:
    """The start cell and its in-grid neighbors; hazards are never placed here."""
    return geometry(n).start_zone


def generate_world(config: WorldConfig) -> WorldState:
    """Build the world for ``config`` deterministically from its seed.

    Draw order is fixed: pit 1, pit 2, ..., then the wumpus, then the gold.
    Pits are pairwise distinct and, like the wumpus, never inside the safe
    start zone; the wumpus never shares a pit cell. Gold avoids pits and the
    start cell but may share the wumpus cell, so it is not guaranteed
    reachable.
    """
    n = config.grid_size
    rng = random.Random(config.seed)
    geo = geometry(n)
    hazard_pool = [c for c in geo.cells if c not in geo.start_zone]

    pits: list[Cell] = []
    for _ in range(config.num_pits):
        pool = [c for c in hazard_pool if c not in pits]
        if not pool:
            raise ConfigurationError(
                f"cannot place {config.num_pits} pits on a {n}x{n} grid"
            )
        pits.append(pool[rng.randrange(len(pool))])

    wumpus: Cell | None = None
    if config.num_wumpus:
        pool = [c for c in hazard_pool if c not in pits]
        if not pool:
            raise ConfigurationError(f"no cell left for the wumpus on a {n}x{n} grid")
        wumpus = pool[rng.randrange(len(pool))]

    gold_pool = [c for c in geo.cells if c not in pits and c != START_CELL]
    if not gold_pool:
        raise ConfigurationError(f"no cell left for the gold on a {n}x{n} grid")
    gold = gold_pool[rng.randrange(len(gold_pool))]

    return world_from_layout(config, pits, wumpus, gold)


def world_from_layout(
    config: WorldConfig,
    pits: Iterable[Cell],
    wumpus: Cell | None,
    gold: Cell,
) -> WorldState:
    """Build a world with an explicit layout, enforcing placement invariants.

    Used by the generator and by exhaustive layout enumeration in tests.
    """
    n = config.grid_size
    pit_set = frozenset(Cell(*p) for p in pits)
    wumpus = Cell(*wumpus) if wumpus is not None else None
    gold = Cell(*gold)
    start_zone = safe_start_zone(n)

    if len(pit_set) != config.num_pits:
        raise ConfigurationError("pit cells must be pairwise distinct and match num_pits")
    if (wumpus is not None) != bool(config.num_wumpus):
        raise ConfigurationError("wumpus presence must match num_wumpus")
    placed = [*pit_set, gold] + ([wumpus] if wumpus else [])
    for cell in placed:
        if not in_grid(cell, n):
            raise ConfigurationError(f"cell {cell} outside the {n}x{n} grid")
    if pit_set & start_zone or (wumpus in start_zone if wumpus else False):
        raise ConfigurationError("hazards may not be placed in the safe start zone")
    if wumpus in pit_set:
        raise ConfigurationError("wumpus may not share a pit cell")
    if gold in pit_set or gold == START_CELL:
        raise ConfigurationError("gold may not be in a pit or the start cell")

    state = WorldState(
        config=config,
        pit_cells=pit_set,
        wumpus_cell=wumpus,
        wumpus_alive=wumpus is not None,
        gold_cell=gold,
        agent_cell=START_CELL,
        explored=[START_CELL],
        percept_log={},
        arrow_available=True,
        arrow_report=None,
        steps_taken=0,
        score=config.base_score,
        status=Status.RUNNING,
        reward_ledger=[],
    )
    state.percept_log[START_CELL] = percepts_at(state, START_CELL)
    return state


def percepts_at(state: WorldState, cell: Cell) -> Percept:
    """Instantaneous percepts in ``cell``: breeze next to a pit, stench next
    to a live wumpus, glitter on the gold. Scream is transition-scoped and
    always false here."""
    n = state.config.grid_size
    if not in_grid(cell, n):
        raise ConfigurationError(f"cell {cell} outside the {n}x{n} grid")
    neighbors = geometry(n).neighbors[cell]
    breeze = not state.pit_cells.isdisjoint(neighbors)
    stench = state.wumpus_alive and state.wumpus_cell in neighbors
    glitter = state.gold_cell == cell
    return Percept(breeze=breeze, stench=stench, glitter=glitter)


def _on_frontier(cell: Cell, explored: AbstractSet[Cell], geo: Geometry) -> bool:
    """Whether in-grid ``cell`` is unexplored and next to an explored cell:
    the one definition of a legal move target."""
    return cell not in explored and not explored.isdisjoint(geo.neighbors[cell])


def frontier(state: WorldState) -> list[Cell]:
    """Unexplored cells adjacent to at least one explored cell, (y, x)-sorted."""
    geo = geometry(state.config.grid_size)
    explored = set(state.explored)
    return [c for c in geo.cells if _on_frontier(c, explored, geo)]


def legal_actions(state: WorldState) -> set[Action]:
    """Moves to every frontier cell, the four shots while the arrow is held,
    and exit. Only defined for running states."""
    if state.status is not Status.RUNNING:
        raise IllegalActionError(f"no legal actions in terminal status {state.status.value}")
    actions = {Action.move(c.x, c.y) for c in frontier(state)}
    if state.arrow_available:
        actions.update(Action.shoot(d) for d in DIRECTIONS)
    actions.add(Action.exit())
    return actions


def shoot_trajectory(agent: Cell, direction: Direction, n: int) -> list[Cell]:
    """Cells the arrow crosses, from the agent outward to the grid edge,
    excluding the agent's own cell."""
    dx, dy = Direction(direction).delta
    out = []
    cell = Cell(agent.x + dx, agent.y + dy)
    while in_grid(cell, n):
        out.append(cell)
        cell = Cell(cell.x + dx, cell.y + dy)
    return out


def apply_action(state: WorldState, action: Action) -> TransitionResult:
    """Advance the episode by one action, mutating ``state``.

    Moves cost the move penalty and resolve pit, then live wumpus, then gold
    pickup, in that order. Shots are free, consume the arrow and kill the
    wumpus if it lies on the trajectory. Exit terminates with no reward.
    Every action counts toward the step limit; hitting the limit while still
    running ends the episode as a timeout.

    Illegal actions raise without touching the state.
    """
    if state.status is not Status.RUNNING:
        raise IllegalActionError(f"episode already terminal ({state.status.value})")
    cfg = state.config
    n = cfg.grid_size

    if action.kind is ActionKind.MOVE:
        target = action.target
        if target is None or not in_grid(target, n):
            raise IllegalActionError(f"move target {target} outside the {n}x{n} grid")
        if not _on_frontier(target, set(state.explored), geometry(n)):
            raise IllegalActionError(
                f"move target {tuple(target)} is not an unexplored cell adjacent "
                "to explored territory"
            )
        state.steps_taken += 1
        state.explored.append(target)
        state.agent_cell = target
        percept = percepts_at(state, target)
        state.percept_log[target] = percept
        delta = cfg.move_penalty
        if target in state.pit_cells:
            delta += cfg.pit_death
            state.status = Status.DEATH_PIT
        elif state.wumpus_alive and target == state.wumpus_cell:
            delta += cfg.wumpus_death
            state.status = Status.DEATH_WUMPUS
        elif target == state.gold_cell:
            delta += cfg.gold_bonus
            state.gold_cell = None
            state.status = Status.SUCCESS

    elif action.kind is ActionKind.SHOOT:
        if not state.arrow_available:
            raise IllegalActionError("the arrow has already been fired")
        if action.direction is None:
            raise IllegalActionError("shoot requires a direction")
        state.steps_taken += 1
        state.arrow_available = False
        trajectory = shoot_trajectory(state.agent_cell, action.direction, n)
        scream = state.wumpus_alive and state.wumpus_cell in trajectory
        delta = 0
        if scream:
            state.wumpus_alive = False
            delta += cfg.kill_bonus
        state.arrow_report = ArrowReport(direction=action.direction, scream=scream)
        percept = replace(percepts_at(state, state.agent_cell), scream=scream)

    elif action.kind is ActionKind.EXIT:
        state.steps_taken += 1
        delta = 0
        state.status = Status.EXITED
        percept = percepts_at(state, state.agent_cell)

    else:  # pragma: no cover - enum is exhaustive
        raise IllegalActionError(f"unknown action kind {action.kind}")

    state.reward_ledger.append(delta)
    state.score += delta
    if state.status is Status.RUNNING and state.steps_taken >= cfg.step_limit:
        state.status = Status.TIMEOUT

    return TransitionResult(
        new_state=state,
        reward_delta=delta,
        percept=percept,
        terminal=state.status is not Status.RUNNING,
    )


def episode_score(ledger: Iterable[int], base: int) -> int:
    """Total score of a completed episode: base plus all reward deltas."""
    return base + sum(ledger)

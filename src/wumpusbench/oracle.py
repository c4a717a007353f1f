"""Deterministic logical agent used as a safety oracle and non-LLM baseline.

Inference is exact model counting over every hazard layout consistent with
the placement rules and the recorded percepts, without listing the layouts.
Pits and the wumpus interact only through the rule that the wumpus is not in
a pit, so the two sides are counted separately and combined exactly: the
wumpus cells that explain the stenches and the shots, and the pit sets that
explain the breezes. Pit sets are enumerated over the frontier only, the
cells next to a breezy record (the "frontier" of AIMA §13.6). No percept
constrains the other cells that may hold a pit, so they are exchangeable
apart from being wumpus candidates or not, and the pits left for them are
counted with binomial coefficients. A round's cost thus follows the size of
the frontier, not the area of the grid.

:func:`observe` is the one update: it folds an observation into a
:class:`KnowledgeBase` and derives ``kb.counts``, the :class:`HazardCounts`
that are the exact posterior (``count / total``). A cell is *certain* for a
hazard when its count equals ``total``, *impossible* when it is 0. Folding a
logged episode's observations with ``functools.reduce(observe, ...)`` gives
the oracle's knowledge at each round.

The policy is risk-neutral: it only ever enters provably safe cells, shoots
only a pinpointed wumpus, and exits rather than gamble.

Stench records are timestamped against the wumpus being alive: a cell visited
after a kill shows no stench even next to the corpse, and consistency checking
honors that.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .agents import Decision
from .errors import InconsistentPerceptsError
from .observation import Observation
from .world import (
    Action,
    Cell,
    Direction,
    START_CELL,
    WorldState,
    adjacent_cells,
    geometry,
    shoot_trajectory,
    sort_key,
)


@dataclass(frozen=True)
class PerceptRecord:
    breeze: bool
    stench: bool
    wumpus_alive: bool  # whether the wumpus was still alive when recorded


@dataclass(frozen=True)
class ShotRecord:
    origin: Cell
    direction: Direction
    scream: bool


class HazardCounts(NamedTuple):
    """Per-cell hazard counts over every consistent layout.

    ``pit[c]`` and ``wumpus[c]`` count the layouts with a pit, respectively the
    wumpus, in ``c``; ``total`` counts all layouts. World generation makes
    every legal layout equally likely, so ``count / total`` is the exact
    posterior probability of the hazard.
    """

    total: int
    pit: dict[Cell, int]
    wumpus: dict[Cell, int]

    def is_safe(self, cell: Cell, wumpus_dead: bool) -> bool:
        """No pit in ``cell`` in any layout, nor the live wumpus."""
        return not self.pit[cell] and (wumpus_dead or not self.wumpus[cell])


@dataclass
class KnowledgeBase:
    grid_size: int
    num_pits: int
    num_wumpus: int
    records: dict[Cell, PerceptRecord] = field(default_factory=dict)
    shots: list[ShotRecord] = field(default_factory=list)
    wumpus_known_dead: bool = False
    # Derived from the fields above by observe.
    counts: HazardCounts | None = field(default=None, init=False, repr=False)

    @property
    def safe_cells(self) -> frozenset[Cell]:
        """Cells with no pit in any consistent layout and, unless the wumpus
        is known dead, no wumpus either."""
        dead = self.wumpus_known_dead
        return frozenset(c for c in self.counts.pit if self.counts.is_safe(c, dead))


class _Grid(NamedTuple):
    """Bitmask view of an n x n grid, one bit per cell in canonical order."""

    bit: dict[Cell, int]
    neighbors: dict[Cell, int]  # mask of each cell's in-grid 4-neighbors
    hazard_zone: int  # mask of the cells outside the safe start zone

    def members(self, mask: int) -> list[int]:
        return [b for b in self.bit.values() if mask & b]


@functools.cache
def _grid(n: int) -> _Grid:
    geo = geometry(n)
    bit = {c: 1 << i for i, c in enumerate(geo.cells)}

    def mask(group) -> int:
        return sum(bit[c] for c in group)

    return _Grid(
        bit=bit,
        neighbors={c: mask(geo.neighbors[c]) for c in geo.cells},
        hazard_zone=mask(geo.cells) & ~mask(geo.start_zone),
    )


def _frontier_pit_sets(
    kb: KnowledgeBase, grid: _Grid
) -> tuple[list[int], list[tuple[tuple[int, ...], int]]]:
    """Split the cells that may hold a pit into the frontier, next to a breezy
    record, and the unconstrained rest. Returns the unconstrained cell bits
    and the frontier pit sets, as (cell bits, mask), that put a pit next to
    every breeze and leave at most as many pits as there are unconstrained
    cells; the remaining pits go to any of those cells."""
    pool = grid.hazard_zone
    breezy = []
    near_breeze = 0
    for cell, record in kb.records.items():
        pool &= ~grid.bit[cell]  # the agent survived this cell
        if record.breeze:
            breezy.append(grid.neighbors[cell])
            near_breeze |= grid.neighbors[cell]
        else:
            pool &= ~grid.neighbors[cell]
    frontier, free = [], []
    for b in grid.members(pool):
        (frontier if near_breeze & b else free).append(b)
    pit_sets = []
    for size in range(max(0, kb.num_pits - len(free)), kb.num_pits + 1):
        for combo in itertools.combinations(frontier, size):
            pits = sum(combo)
            if all(map(pits.__and__, breezy)):  # a pit next to every breeze
                pit_sets.append((combo, pits))
    return free, pit_sets


def _wumpus_cells(kb: KnowledgeBase, grid: _Grid) -> list[int | None]:
    """Bits of the wumpus cells that explain every stench record and every
    shot; ``[None]`` stands for the absent wumpus of a wumpus-free world."""
    if not kb.num_wumpus:
        silent = not any(r.stench for r in kb.records.values())
        return [None] if silent and not any(s.scream for s in kb.shots) else []
    allowed = grid.hazard_zone
    for cell, record in kb.records.items():
        if not record.wumpus_alive:
            if record.stench:
                return []  # a dead wumpus gives off no stench
            continue
        allowed &= ~grid.bit[cell]  # the agent survived this cell while it lived
        near = grid.neighbors[cell]
        allowed &= near if record.stench else ~near
    for shot in kb.shots:
        trajectory = shoot_trajectory(shot.origin, shot.direction, kb.grid_size)
        path = sum(grid.bit[c] for c in trajectory)
        allowed &= path if shot.scream else ~path
    return grid.members(allowed)


def consistent_layouts(kb: KnowledgeBase) -> list[tuple[frozenset[Cell], Cell | None]]:
    """All (pit set, wumpus cell) pairs consistent with rules and records."""
    grid = _grid(kb.grid_size)
    cell_of = {b: c for c, b in grid.bit.items()}
    wumpus_cells = _wumpus_cells(kb, grid)
    free, frontier_sets = _frontier_pit_sets(kb, grid)
    layouts = []
    for combo, frontier_pits in frontier_sets:
        for rest in itertools.combinations(free, kb.num_pits - len(combo)):
            pits = frontier_pits | sum(rest)
            pit_cells = frozenset(cell_of[b] for b in (*combo, *rest))
            layouts += [
                (pit_cells, None if w is None else cell_of[w])
                for w in wumpus_cells
                if w is None or not pits & w
            ]
    return layouts


def _choose(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def hazard_counts(kb: KnowledgeBase) -> HazardCounts:
    """Exact per-cell counts over :func:`consistent_layouts`, without listing
    them.

    A pit set ``P`` completes one layout with each wumpus candidate outside
    ``P``, and the wumpus in ``w`` with each pit set not holding ``w``. Each
    frontier pit set ``P_F`` stands for the ``C(u, m)`` pit sets that add
    ``m`` pits among the ``u`` unconstrained cells. Those cells are
    exchangeable apart from being wumpus candidates or not, so their share
    is counted in closed form: with ``base`` the wumpus candidates outside
    ``P_F`` and ``w_u`` those among the unconstrained cells, ``P_F`` gives
    ``C(u, m)·base - w_u·C(u-1, m-1)`` layouts, and an unconstrained cell
    has a pit in ``C(u-1, m-1)·base - w_u·C(u-2, m-2)`` of them, or in
    ``C(u-1, m-1)·(base-1) - (w_u-1)·C(u-2, m-2)`` when it is a wumpus
    candidate itself.
    """
    grid = _grid(kb.grid_size)
    wumpus_cells = _wumpus_cells(kb, grid)
    wumpus_mask = sum(w for w in wumpus_cells if w is not None)
    free, frontier_sets = _frontier_pit_sets(kb, grid)
    u = len(free)
    w_u = (sum(free) & wumpus_mask).bit_count()
    pit = dict.fromkeys(grid.bit.values(), 0)
    holding = dict.fromkeys(grid.bit.values(), 0)  # pit sets with a pit in each cell
    total = num_sets = 0
    # Per unconstrained cell, the same for each one apart from wumpus candidacy.
    free_pit = free_wumpus_pit = free_holding = 0
    for combo, pits in frontier_sets:
        m = kb.num_pits - len(combo)  # pits left for the unconstrained cells
        sets = _choose(u, m)
        with_one, with_two = _choose(u - 1, m - 1), _choose(u - 2, m - 2)
        base = len(wumpus_cells) - (pits & wumpus_mask).bit_count()
        layouts = sets * base - w_u * with_one
        total += layouts
        num_sets += sets
        for b in combo:
            pit[b] += layouts
            holding[b] += sets
        free_pit += with_one * base - w_u * with_two
        free_wumpus_pit += with_one * (base - 1) - (w_u - 1) * with_two
        free_holding += with_one
    for b in free:
        pit[b] = free_wumpus_pit if wumpus_mask & b else free_pit
        holding[b] = free_holding
    return HazardCounts(
        total=total,
        pit={c: pit[b] for c, b in grid.bit.items()},
        wumpus={
            c: num_sets - holding[b] if wumpus_mask & b else 0
            for c, b in grid.bit.items()
        },
    )


def observe(kb: KnowledgeBase, obs: Observation) -> KnowledgeBase:
    """A new knowledge base that adds ``obs`` to ``kb``: its scream, its shot
    and the percept at its position, with the counts derived once.

    The shot is read from the arrow status, fired from the current position:
    a shot does not move the agent, and the next observation reports it. A
    position already recorded keeps its first record. Raises
    :class:`InconsistentPerceptsError` when no layout explains the records,
    which indicates an environment bug.
    """
    arrow = obs.arrow_status
    dead = kb.wumpus_known_dead or arrow.scream_heard
    shots = kb.shots
    pos = obs.current_position
    if arrow.direction is not None and not shots:
        shots = [ShotRecord(pos, arrow.direction, arrow.scream_heard)]
    records = kb.records
    if pos not in records:
        records = {
            **records,
            pos: PerceptRecord(
                breeze=pos in obs.breeze_locations,
                stench=pos in obs.stench_locations,
                wumpus_alive=not dead,
            ),
        }
    out = replace(kb, records=records, shots=shots, wumpus_known_dead=dead)
    out.counts = hazard_counts(out)
    if not out.counts.total:
        raise InconsistentPerceptsError(
            "no hazard layout is consistent with the recorded percepts"
        )
    return out


def _direction_toward(origin: Cell, target: Cell) -> Direction | None:
    if origin.x == target.x:
        return Direction.UP if target.y > origin.y else Direction.DOWN
    if origin.y == target.y:
        return Direction.RIGHT if target.x > origin.x else Direction.LEFT
    return None


def oracle_policy(kb: KnowledgeBase, obs: Observation) -> Action:
    """Fixed priority rule: safest frontier move, else a certain kill shot,
    else exit. Gold is collected automatically on entry, so glitter never
    needs handling."""
    counts = kb.counts
    safe_frontier = [
        c
        for c in obs.suggestions.frontier_cells
        if counts.is_safe(c, kb.wumpus_known_dead)
    ]
    if safe_frontier:
        target = min(safe_frontier, key=sort_key)
        return Action.move(target.x, target.y)
    if obs.suggestions.shoot_options and not kb.wumpus_known_dead:
        certain = [c for c, n in counts.wumpus.items() if n == counts.total]
        if len(certain) == 1:
            direction = _direction_toward(obs.current_position, certain[0])
            if direction is not None and certain[0] in shoot_trajectory(
                obs.current_position, direction, kb.grid_size
            ):
                return Action.shoot(direction)
    return Action.exit()


class OracleAgent:
    """Harness-facing wrapper: folds each observation into the knowledge base
    with :func:`observe` and plays :func:`oracle_policy`. One instance per
    episode."""

    def __init__(self, grid_size: int, num_pits: int, num_wumpus: int):
        # Counts are derived by the first decide, which records a percept.
        self.kb = KnowledgeBase(grid_size, num_pits, num_wumpus)

    def decide(self, obs: Observation) -> Decision:
        self.kb = observe(self.kb, obs)
        return Decision(action=oracle_policy(self.kb, obs), provenance="oracle")


def full_info_solvable(world: WorldState) -> bool:
    """Whether the gold is reachable alive given full knowledge of the layout.

    Breadth-first flood fill over frontier moves: the region explorable
    without entering a pit or the live wumpus is the connected component of
    the start cell. One optional shot, fired from any cell of that component
    sharing a row or column with the wumpus, removes the wumpus before the
    fill is repeated.
    """
    gold = world.gold_cell
    if gold is None:
        return True
    n = world.config.grid_size
    pits = world.pit_cells
    wumpus = world.wumpus_cell if world.wumpus_alive else None

    def component(blocked: frozenset[Cell]) -> set[Cell]:
        seen = {START_CELL}
        queue = deque([START_CELL])
        while queue:
            cell = queue.popleft()
            for neighbor in adjacent_cells(cell, n):
                if neighbor not in seen and neighbor not in blocked:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen

    blocked = pits | ({wumpus} if wumpus else frozenset())
    reach = component(frozenset(blocked))
    if gold in reach:
        return True
    if wumpus is not None and any(
        c.x == wumpus.x or c.y == wumpus.y for c in reach
    ):
        return gold in component(pits)
    return False

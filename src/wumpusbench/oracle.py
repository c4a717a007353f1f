"""Deterministic logical agent used as a safety oracle and non-LLM baseline.

Inference is exact model counting over every hazard layout consistent with
the placement rules and the recorded percepts. Pits and the wumpus interact
only through the rule that the wumpus is not in a pit, so the two sides are
enumerated separately: the pit sets that explain the breezes, and the wumpus
cells that explain the stenches and the shots. Their counts are then combined
exactly, without building the pit-set x wumpus-cell product. A cell is
*certain* for a hazard when it carries it in every consistent layout,
*impossible* when in none. The policy is risk-neutral: it only ever enters
provably safe cells, shoots only a pinpointed wumpus, and exits rather than
gamble.

Stench records are timestamped against the wumpus being alive: a cell visited
after a kill shows no stench even next to the corpse, and consistency checking
honors that.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .agents import Decision
from .errors import InconsistentPerceptsError
from .observation import Observation
from .world import (
    Action,
    ActionKind,
    Cell,
    Direction,
    Percept,
    START_CELL,
    WorldState,
    adjacent_cells,
    geometry,
    grid_cells,
    shoot_trajectory,
    sort_key,
)


class CandidateStatus(str, Enum):
    IMPOSSIBLE = "impossible"
    POSSIBLE = "possible"
    CERTAIN = "certain"


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


def _statuses(counts: dict[Cell, int], total: int) -> Mapping[Cell, CandidateStatus]:
    """Read-only :class:`CandidateStatus` of every cell for one hazard."""

    def status(count: int) -> CandidateStatus:
        if count == 0:
            return CandidateStatus.IMPOSSIBLE
        if count == total:
            return CandidateStatus.CERTAIN
        return CandidateStatus.POSSIBLE

    return MappingProxyType({c: status(n) for c, n in counts.items()})


@dataclass
class KnowledgeBase:
    grid_size: int
    num_pits: int
    num_wumpus: int
    records: dict[Cell, PerceptRecord] = field(default_factory=dict)
    shots: list[ShotRecord] = field(default_factory=list)
    wumpus_known_dead: bool = False
    # Derived from the fields above by _recompute. The properties below are
    # read-only views of it, derived on access.
    counts: HazardCounts | None = field(default=None, init=False, repr=False)

    @property
    def pit_candidates(self) -> Mapping[Cell, CandidateStatus]:
        return _statuses(self.counts.pit, self.counts.total)

    @property
    def wumpus_candidates(self) -> Mapping[Cell, CandidateStatus]:
        return _statuses(self.counts.wumpus, self.counts.total)

    @property
    def safe_cells(self) -> frozenset[Cell]:
        """Cells with no pit in any consistent layout and, unless the wumpus
        is known dead, no wumpus either."""
        dead = self.wumpus_known_dead
        return frozenset(c for c in self.counts.pit if self.counts.is_safe(c, dead))


@dataclass(frozen=True)
class CellClassification:
    safe: frozenset[Cell]
    fatal: frozenset[Cell]
    unknown: frozenset[Cell]


def new_kb(grid_size: int, num_pits: int, num_wumpus: int) -> KnowledgeBase:
    """A knowledge base holding only the game's placement rules."""
    kb = KnowledgeBase(grid_size=grid_size, num_pits=num_pits, num_wumpus=num_wumpus)
    _recompute(kb)
    return kb


def update_kb(kb: KnowledgeBase, cell: Cell, percept: Percept) -> KnowledgeBase:
    """Record the percept observed in ``cell`` and re-derive all candidates.

    Raises :class:`InconsistentPerceptsError` when no layout explains the
    records, which indicates an environment bug.
    """
    record = PerceptRecord(
        breeze=percept.breeze,
        stench=percept.stench,
        wumpus_alive=not kb.wumpus_known_dead,
    )
    out = replace(kb, records={**kb.records, cell: record})
    _recompute(out)
    return out


def record_shot(
    kb: KnowledgeBase, origin: Cell, direction: Direction, scream: bool
) -> KnowledgeBase:
    """Record an arrow shot and its outcome; a scream marks the wumpus dead."""
    shot = ShotRecord(origin=origin, direction=direction, scream=scream)
    out = replace(
        kb,
        shots=[*kb.shots, shot],
        wumpus_known_dead=kb.wumpus_known_dead or scream,
    )
    _recompute(out)
    return out


def mark_wumpus_dead(kb: KnowledgeBase) -> KnowledgeBase:
    out = replace(kb, wumpus_known_dead=True)
    _recompute(out)
    return out


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


def _pit_sets(
    kb: KnowledgeBase, grid: _Grid
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Pit sets, as (cell bits, mask), that explain every breeze record."""
    pool = grid.hazard_zone
    breezy = []
    for cell, record in kb.records.items():
        pool &= ~grid.bit[cell]  # the agent survived this cell
        if record.breeze:
            breezy.append(grid.neighbors[cell])
        else:
            pool &= ~grid.neighbors[cell]
    for combo in itertools.combinations(grid.members(pool), kb.num_pits):
        pits = sum(combo)
        if all(map(pits.__and__, breezy)):  # a pit next to every breeze
            yield combo, pits


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
    return [
        (frozenset(cell_of[b] for b in combo), None if w is None else cell_of[w])
        for combo, pits in _pit_sets(kb, grid)
        for w in wumpus_cells
        if w is None or not pits & w
    ]


def hazard_counts(kb: KnowledgeBase) -> HazardCounts:
    """Exact per-cell counts over :func:`consistent_layouts`, without listing
    them: a pit set ``P`` completes one layout with each wumpus candidate
    outside ``P``, and the wumpus in ``w`` with each pit set not holding ``w``."""
    grid = _grid(kb.grid_size)
    wumpus_cells = _wumpus_cells(kb, grid)
    wumpus_mask = sum(w for w in wumpus_cells if w is not None)
    pit = dict.fromkeys(grid.bit.values(), 0)
    holding = dict.fromkeys(grid.bit.values(), 0)  # pit sets with a pit in each cell
    total = num_sets = 0
    for combo, pits in _pit_sets(kb, grid):
        layouts = len(wumpus_cells) - (pits & wumpus_mask).bit_count()
        total += layouts
        num_sets += 1
        for b in combo:
            pit[b] += layouts
            holding[b] += 1
    return HazardCounts(
        total=total,
        pit={c: pit[b] for c, b in grid.bit.items()},
        wumpus={
            c: num_sets - holding[b] if wumpus_mask & b else 0
            for c, b in grid.bit.items()
        },
    )


def _recompute(kb: KnowledgeBase) -> None:
    counts = hazard_counts(kb)
    if not counts.total:
        raise InconsistentPerceptsError(
            "no hazard layout is consistent with the recorded percepts"
        )
    kb.counts = counts


def classify_cells(kb: KnowledgeBase) -> CellClassification:
    """Partition the grid into provably safe, provably fatal and unknown."""
    cells = grid_cells(kb.grid_size)
    safe = kb.safe_cells
    pits, wumpus = kb.pit_candidates, kb.wumpus_candidates
    fatal = frozenset(
        c
        for c in cells
        if pits[c] is CandidateStatus.CERTAIN
        or (not kb.wumpus_known_dead and wumpus[c] is CandidateStatus.CERTAIN)
    )
    unknown = frozenset(c for c in cells if c not in safe and c not in fatal)
    return CellClassification(safe=safe, fatal=fatal - safe, unknown=unknown)


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
    """Harness-facing wrapper: feeds observations into the knowledge base and
    plays :func:`oracle_policy`. One instance per episode."""

    def __init__(self, grid_size: int, num_pits: int, num_wumpus: int):
        # Candidates are derived by the first decide, which records a percept.
        self.kb = KnowledgeBase(grid_size, num_pits, num_wumpus)
        self._pending_shot: tuple[Cell, Direction] | None = None

    def decide(self, obs: Observation) -> Decision:
        # This round's scream, shot outcome and percept go into the knowledge
        # base together, so inference runs once per round.
        kb = self.kb
        scream = obs.arrow_status.scream_heard
        dead = kb.wumpus_known_dead or scream
        shots = kb.shots
        if self._pending_shot is not None:
            origin, direction = self._pending_shot
            shots = [*shots, ShotRecord(origin, direction, scream)]
            self._pending_shot = None
        records = kb.records
        pos = obs.current_position
        if pos not in records:
            records = {
                **records,
                pos: PerceptRecord(
                    breeze=pos in obs.breeze_locations,
                    stench=pos in obs.stench_locations,
                    wumpus_alive=not dead,
                ),
            }
        self.kb = replace(kb, records=records, shots=shots, wumpus_known_dead=dead)
        _recompute(self.kb)
        action = oracle_policy(self.kb, obs)
        if action.kind is ActionKind.SHOOT:
            self._pending_shot = (pos, action.direction)
        return Decision(action=action, provenance="oracle")


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

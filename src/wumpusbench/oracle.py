"""Deterministic logical agent used as a safety oracle and non-LLM baseline.

Inference is exact model counting over every hazard layout consistent with
the placement rules and the recorded percepts, without listing the layouts.
Pits and the wumpus interact only through the rule that the wumpus is not in
a pit, so the two sides are counted separately and combined exactly: the
wumpus cells that explain the stenches and the shot, and the pit sets that
explain the breezes. Pit sets are enumerated over the frontier only, the
cells next to a breezy record (the "frontier" of AIMA §13.6). No percept
constrains the other cells that may hold a pit, so they are exchangeable
apart from being wumpus candidates or not, and the pits left for them are
counted with binomial coefficients. A round's cost thus follows the size of
the frontier, not the area of the grid. The bookkeeping follows suit. What
the records and the shot say is kept as masks: the cells that may hold a
pit, those next to a breeze, each breezy record's neighbors and the wumpus
candidates. :func:`observe` derives a child's masks from its parent's, one
rule per new record and one for the shot, so a round folds in its own
percept rather than every record again. The binomial coefficients come from
a table per number of unconstrained cells. The unconstrained cells share
their counts, two values at most, and so do the wumpus candidates off the
frontier; each such group is written at once, in C, from a table of the
cells of each mask. Only frontier cells are written one at a time. So the
Python-level work of a round is proportional to the frontier pit sets and
the frontier, not to the recorded cells or the unknown ones.

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

Knowledge bases are values: nothing mutates one in place once it is built.
:func:`observe` shares ``records`` and the shot between a parent and its
child, and :class:`OracleAgent` shares whole knowledge bases between agents.
A knowledge base that :func:`observe` built carries its masks, set before
anyone else can see it; any other one, such as the shared empty start, has
its masks folded from its records by the same rules each time they are
read, and nothing is written back.

The oracle is deterministic, so its play on a condition is a tree that
branches only on what it observes. :class:`OracleAgent` walks that tree
through a decision memo. Agents of a condition start from one shared empty
knowledge base, and each knowledge base remembers, per observation folded
into it, the next knowledge base and the action played. The key is the whole
observation, the only input besides the knowledge base, so a remembered
decision is exactly the one :func:`observe` and :func:`oracle_policy` would
make. Episodes of a condition thus share their opening rounds. A knowledge
base's size grows with the area of its grid, so the memo is capped at
``MEMO_CELLS`` grid cells held. Reaching the cap drops the shared starts
and everything remembered from them; agents already playing keep their own
branch.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import deque
from dataclasses import dataclass, field
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


# The eight records, keyed by (breeze, stench, wumpus_alive), shared by every
# knowledge base.
_PERCEPT_RECORDS = {
    (b, s, a): PerceptRecord(b, s, a)
    for b in (False, True)
    for s in (False, True)
    for a in (False, True)
}


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
    shot: ShotRecord | None = None  # the cave's one arrow, once fired
    # Derived from the fields above by observe.
    counts: HazardCounts | None = field(default=None, init=False, repr=False)
    # The masks of the records and the shot, when observe built this one.
    _constraints: _Constraints | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # The decision memo: observation -> (next knowledge base, action).
    _next: dict[Observation, tuple[KnowledgeBase, Action]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def wumpus_known_dead(self) -> bool:
        """Whether the shot was heard to scream."""
        return self.shot is not None and self.shot.scream

    @property
    def safe_cells(self) -> frozenset[Cell]:
        """Cells with no pit in any consistent layout and, unless the wumpus
        is known dead, no wumpus either."""
        dead = self.wumpus_known_dead
        return frozenset(c for c in self.counts.pit if self.counts.is_safe(c, dead))


class _Constraints(NamedTuple):
    """What a knowledge base's records and shot say about the hazards, as
    masks of the grid's cells. :func:`observe` derives a child's from its
    parent's with :func:`_with_record` and :func:`_with_shot`."""

    pool: int  # cells that may hold a pit
    near_breeze: int  # cells next to a breezy record
    breezy: tuple[int, ...]  # the neighbor mask of each breezy record
    wumpus: int  # cells that may hold the wumpus, if the world has one
    stench: bool  # whether any record holds a stench


class _CellSets(dict):
    """The cells of each mask looked up, as a dict keyed by cell in canonical
    order, built on first use and then shared: ``dict.fromkeys`` and
    ``dict.update`` reuse the hashes such a dict holds, so a count is written
    to all of its cells in C. At most ``_CELL_SETS_CELLS`` grid cells' worth
    of masks are kept per grid; any later mask is built each time."""

    def __init__(self, cell: dict[int, Cell]):
        super().__init__()
        self.cell = cell
        self.cap = _CELL_SETS_CELLS // len(cell)

    def __missing__(self, mask: int) -> dict[Cell, None]:
        cells = dict.fromkeys(map(self.cell.__getitem__, _Grid.members(mask)))
        if len(self) < self.cap:
            self[mask] = cells
        return cells


_CELL_SETS_CELLS = 1 << 16  # a few hundred masks fill up on 5x5 play


class _Grid(NamedTuple):
    """Bitmask view of an n x n grid, one bit per cell in canonical order."""

    bit: dict[Cell, int]  # keyed by every cell, in canonical order
    cell: dict[int, Cell]  # the inverse of ``bit``
    cells: _CellSets  # the cells of a mask
    neighbors: dict[Cell, int]  # mask of each cell's in-grid 4-neighbors
    zeros: dict[Cell, int]  # every cell with a count of 0
    empty: _Constraints  # what a knowledge base with no record or shot says

    @staticmethod
    def members(mask: int) -> list[int]:
        """The set bits of ``mask``, lowest first: canonical cell order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low)
            mask ^= low
        return out


@functools.cache
def _grid(n: int) -> _Grid:
    geo = geometry(n)
    bit = {c: 1 << i for i, c in enumerate(geo.cells)}
    cell = {b: c for c, b in bit.items()}

    def mask(group) -> int:
        return sum(bit[c] for c in group)

    hazard_zone = mask(geo.hazard_cells)
    return _Grid(
        bit=bit,
        cell=cell,
        cells=_CellSets(cell),
        neighbors={c: mask(geo.neighbors[c]) for c in geo.cells},
        zeros=dict.fromkeys(bit, 0),
        empty=_Constraints(hazard_zone, 0, (), hazard_zone, False),
    )


def _with_record(
    k: _Constraints, grid: _Grid, cell: Cell, record: PerceptRecord
) -> _Constraints:
    """``k`` with the record of ``cell`` added. The agent survived the cell,
    so it holds no pit, nor the wumpus while it lived; a quiet record rules
    out a pit next to it, and the stench, recorded while the wumpus lived,
    tells whether the wumpus is next to it. A dead wumpus gives off no
    stench, so a stench recorded after the scream leaves no candidate."""
    pool, near_breeze, breezy, wumpus, stench = k
    near = grid.neighbors[cell]
    pool &= ~grid.bit[cell]
    if record.breeze:
        near_breeze |= near
        breezy = (*breezy, near)
    else:
        pool &= ~near
    if record.wumpus_alive:
        wumpus &= ~grid.bit[cell] & (near if record.stench else ~near)
    elif record.stench:
        wumpus = 0
    return _Constraints(pool, near_breeze, breezy, wumpus, stench or record.stench)


def _with_shot(k: _Constraints, grid: _Grid, shot: ShotRecord, n: int) -> _Constraints:
    """``k`` with ``shot`` added: the wumpus is on its trajectory if and only
    if it screamed."""
    path = sum(grid.bit[c] for c in shoot_trajectory(shot.origin, shot.direction, n))
    return k._replace(wumpus=k.wumpus & (path if shot.scream else ~path))


def _constraints(kb: KnowledgeBase, grid: _Grid) -> _Constraints:
    """The constraints of ``kb``: those :func:`observe` carried, or else
    folded from its records and shot, which are not stored back."""
    k = kb._constraints
    if k is None:
        k = grid.empty
        for cell, record in kb.records.items():
            k = _with_record(k, grid, cell, record)
        if kb.shot is not None:
            k = _with_shot(k, grid, kb.shot, kb.grid_size)
    return k


def _frontier_pit_sets(
    kb: KnowledgeBase, k: _Constraints, frontier: list[int], u: int
) -> list[tuple[tuple[int, ...], int]]:
    """The frontier pit sets, as (cell bits, mask), smallest first, that put
    a pit next to every breeze and leave at most as many pits as there are
    unconstrained cells, ``u``; the remaining pits go to any of those cells.
    The empty set explains a breeze only when there is none, and then the
    frontier is empty too."""
    breezy = k.breezy
    if not breezy:
        return [((), 0)] if kb.num_pits <= u else []
    out = []
    for size in range(max(1, kb.num_pits - u), min(kb.num_pits, len(frontier)) + 1):
        for combo in itertools.combinations(frontier, size):
            pits = sum(combo)
            for near in breezy:  # a loop: all() costs a map per set
                if not pits & near:
                    break
            else:
                out.append((combo, pits))
    return out


def _wumpus_options(kb: KnowledgeBase, k: _Constraints) -> tuple[int, int]:
    """The mask of the wumpus candidates and the number of ways to place the
    wumpus: one per candidate, or, in a wumpus-free world, one for the
    absent wumpus unless a stench or a scream contradicts it."""
    if kb.num_wumpus:
        return k.wumpus, k.wumpus.bit_count()
    return 0, int(not k.stench and not kb.wumpus_known_dead)


def consistent_layouts(kb: KnowledgeBase) -> list[tuple[frozenset[Cell], Cell | None]]:
    """All (pit set, wumpus cell) pairs consistent with rules and records."""
    grid = _grid(kb.grid_size)
    cell_of = grid.cell
    k = _constraints(kb, grid)
    wumpus_mask, options = _wumpus_options(kb, k)
    wumpus_cells = grid.members(wumpus_mask) if kb.num_wumpus else [None] * options
    frontier = grid.members(k.pool & k.near_breeze)
    free = grid.members(k.pool & ~k.near_breeze)
    layouts = []
    for combo, frontier_pits in _frontier_pit_sets(kb, k, frontier, len(free)):
        for rest in itertools.combinations(free, kb.num_pits - len(combo)):
            pits = frontier_pits | sum(rest)
            pit_cells = frozenset(cell_of[b] for b in (*combo, *rest))
            layouts += [
                (pit_cells, None if w is None else cell_of[w])
                for w in wumpus_cells
                if w is None or not pits & w
            ]
    return layouts


@functools.cache
def _binomials(u: int, num_pits: int) -> tuple[tuple[int, int, int], ...]:
    """Per number ``m`` of pits left for ``u`` unconstrained cells: the ways
    to place them, ``C(u, m)``, and those with a pit in one given cell,
    ``C(u-1, m-1)``, and in each of two, ``C(u-2, m-2)``."""

    def choose(n: int, r: int) -> int:
        return math.comb(n, r) if 0 <= r <= n else 0

    return tuple(
        (choose(u, m), choose(u - 1, m - 1), choose(u - 2, m - 2))
        for m in range(num_pits + 1)
    )


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
    k = _constraints(kb, grid)
    wumpus_mask, options = _wumpus_options(kb, k)
    pool, near_breeze = k.pool, k.near_breeze
    free_mask = pool & ~near_breeze
    free_wumpus = free_mask & wumpus_mask
    u = free_mask.bit_count()
    w_u = free_wumpus.bit_count()
    frontier = grid.members(pool & near_breeze)
    num_pits = kb.num_pits
    binomials = _binomials(u, num_pits)
    frontier_pit: dict[int, int] = {}  # frontier bit -> layouts with a pit there
    holding: dict[int, int] = {}  # frontier bit -> pit sets with a pit there
    total = num_sets = free_pit = free_wumpus_pit = free_holding = 0
    for combo, pits in _frontier_pit_sets(kb, k, frontier, u):
        sets, with_one, with_two = binomials[num_pits - len(combo)]
        base = options - (pits & wumpus_mask).bit_count()
        layouts = sets * base - w_u * with_one
        total += layouts
        num_sets += sets
        for b in combo:
            frontier_pit[b] = frontier_pit.get(b, 0) + layouts
            holding[b] = holding.get(b, 0) + sets
        free_pit += with_one * base - w_u * with_two
        free_wumpus_pit += with_one * (base - 1) - (w_u - 1) * with_two
        free_holding += with_one
    # Each group of cells that share a count is written at once.
    cell, cells = grid.cell, grid.cells
    pit = {
        **grid.zeros,
        **dict.fromkeys(cells[free_mask ^ free_wumpus], free_pit),
        **dict.fromkeys(cells[free_wumpus], free_wumpus_pit),
    }
    for b, n in frontier_pit.items():
        pit[cell[b]] = n
    wumpus = {
        **grid.zeros,
        **dict.fromkeys(cells[wumpus_mask ^ free_wumpus], num_sets),
        **dict.fromkeys(cells[free_wumpus], num_sets - free_holding),
    }
    for b, n in holding.items():
        if wumpus_mask & b:
            wumpus[cell[b]] = num_sets - n
    return HazardCounts(total, pit, wumpus)


def observe(kb: KnowledgeBase, obs: Observation) -> KnowledgeBase:
    """A new knowledge base that adds ``obs`` to ``kb``: its shot, with the
    scream, and the percept at its position, with the counts derived once.

    The shot is read from the observation's arrow, fired from the current position:
    a shot does not move the agent, and the next observation reports it. The
    first shot reported is kept, as the cave holds one arrow, and so is the
    first record of a position. Raises :class:`InconsistentPerceptsError`
    when no layout explains the records, which indicates an environment bug.
    """
    grid = _grid(kb.grid_size)
    k = _constraints(kb, grid)
    arrow = obs.arrow
    shot = kb.shot
    pos = obs.current_position
    if arrow is not None and shot is None:
        shot = ShotRecord(pos, arrow.direction, arrow.scream)
        k = _with_shot(k, grid, shot, kb.grid_size)
    out = KnowledgeBase(kb.grid_size, kb.num_pits, kb.num_wumpus, kb.records, shot)
    if pos not in out.records:
        record = _PERCEPT_RECORDS[
            pos in obs.breeze_locations,
            pos in obs.stench_locations,
            not out.wumpus_known_dead,
        ]
        out.records = {**out.records, pos: record}
        k = _with_record(k, grid, pos, record)
    out._constraints = k
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
    total, pit, wumpus = kb.counts
    dead = kb.wumpus_known_dead
    safe_frontier = [
        c
        for c in obs.frontier_cells
        if not pit[c] and (dead or not wumpus[c])
    ]
    if safe_frontier:
        target = min(safe_frontier, key=sort_key)
        return Action.move(target.x, target.y)
    if obs.arrow is None and not dead:
        certain = [c for c, n in wumpus.items() if n == total]
        if len(certain) == 1:
            # ``observe`` rules out a live wumpus in the agent's cell, so a
            # shot toward the certain cell always crosses it.
            direction = _direction_toward(obs.current_position, certain[0])
            if direction is not None:
                return Action.shoot(direction)
    return Action.exit()


# The decision memo's cap, in grid cells: a remembered knowledge base holds a
# few maps with an entry per cell, so its size grows with the grid's area.
MEMO_CELLS = 1 << 16

_starts: dict[tuple[int, int, int], KnowledgeBase] = {}
_memo_cells = 0  # grid cells remembered since the starts were last dropped
_memo_lock = threading.RLock()


def clear_memo() -> None:
    """Drop the shared start knowledge bases and every decision remembered
    from them."""
    global _memo_cells
    with _memo_lock:
        _starts.clear()
        _memo_cells = 0


def _remember(
    kb: KnowledgeBase, obs: Observation, entry: tuple[KnowledgeBase, Action]
) -> None:
    """Store ``entry`` in ``kb``'s memo, first dropping the shared starts if
    it would take the memo past its cap."""
    global _memo_cells
    cells = kb.grid_size**2
    with _memo_lock:
        if _memo_cells + cells > MEMO_CELLS:
            clear_memo()
        if cells <= MEMO_CELLS:  # no grid larger than the cap is remembered
            kb._next[obs] = entry
            _memo_cells += cells


class OracleAgent:
    """Harness-facing wrapper: folds each observation into the knowledge base
    with :func:`observe` and plays :func:`oracle_policy`. One instance per
    episode.

    Decisions go through the memo described in the module docstring: the
    agent starts from its condition's shared empty knowledge base, and a
    decision its knowledge base already remembers for the observation is
    replayed instead of recomputed. The memo lives on the knowledge bases, so
    assigning ``agent.kb`` moves the agent to that knowledge base's own memo
    and cannot change what other agents remember.
    """

    def __init__(self, grid_size: int, num_pits: int, num_wumpus: int):
        # Counts are derived by the first decide, which records a percept.
        key = (grid_size, num_pits, num_wumpus)
        kb = _starts.get(key)
        if kb is None:
            kb = _starts.setdefault(key, KnowledgeBase(*key))
        self.kb = kb

    def decide(self, obs: Observation) -> Decision:
        kb = self.kb
        entry = kb._next.get(obs)
        if entry is None:
            child = observe(kb, obs)
            entry = (child, oracle_policy(child, obs))
            _remember(kb, obs, entry)
        self.kb, action = entry
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

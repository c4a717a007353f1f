"""Shared test utilities.

The brute-force functions here are deliberately independent reimplementations
(plain tuples, no package imports for the logic) so they can serve as oracles
for the package under test.
"""

from __future__ import annotations

import itertools
import re

from wumpusbench import Cell, WorldConfig, WorldState, world_from_layout


def brute_adjacent(cell: tuple[int, int], n: int) -> list[tuple[int, int]]:
    x, y = cell
    candidates = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
    return [(ax, ay) for ax, ay in candidates if 1 <= ax <= n and 1 <= ay <= n]


def brute_percepts(
    cell: tuple[int, int],
    n: int,
    pits: set[tuple[int, int]],
    wumpus: tuple[int, int] | None,
    wumpus_alive: bool,
    gold: tuple[int, int] | None,
) -> tuple[bool, bool, bool]:
    """(breeze, stench, glitter) by direct adjacency checking."""
    neighbors = brute_adjacent(cell, n)
    breeze = any(p in neighbors for p in pits)
    stench = wumpus_alive and wumpus is not None and tuple(wumpus) in neighbors
    glitter = gold is not None and tuple(gold) == tuple(cell)
    return breeze, stench, glitter


def brute_frontier(
    explored: set[tuple[int, int]], n: int
) -> set[tuple[int, int]]:
    """Unexplored cells adjacent to explored territory, by enumeration."""
    out = set()
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if (x, y) in explored:
                continue
            if any(c in explored for c in brute_adjacent((x, y), n)):
                out.add((x, y))
    return out


def hazard_layouts(n: int, num_pits: int, num_wumpus: int):
    """Every legal (pits, wumpus) placement for the given condition."""
    cells = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    start_zone = {(1, 1)} | set(brute_adjacent((1, 1), n))
    hazard_pool = [c for c in cells if c not in start_zone]
    for pits in itertools.combinations(hazard_pool, num_pits):
        wumpus_options = (
            [c for c in hazard_pool if c not in pits] if num_wumpus else [None]
        )
        for wumpus in wumpus_options:
            yield set(pits), wumpus


def enumerate_layouts(n: int, num_pits: int, num_wumpus: int):
    """Every legal (pits, wumpus, gold) placement for the given condition."""
    cells = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    for pits, wumpus in hazard_layouts(n, num_pits, num_wumpus):
        for gold in cells:
            if gold in pits or gold == (1, 1):
                continue
            yield pits, wumpus, gold


BRUTE_DELTAS = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}


def brute_trajectory(
    origin: tuple[int, int], direction: str, n: int
) -> list[tuple[int, int]]:
    """Cells an arrow crosses from ``origin`` to the grid edge."""
    dx, dy = BRUTE_DELTAS[direction]
    x, y = origin[0] + dx, origin[1] + dy
    out = []
    while 1 <= x <= n and 1 <= y <= n:
        out.append((x, y))
        x, y = x + dx, y + dy
    return out


def layout_explains(
    n: int,
    pits: set[tuple[int, int]],
    wumpus: tuple[int, int] | None,
    records: dict[tuple[int, int], tuple[bool, bool, bool]],
    shots: list[tuple[tuple[int, int], str, bool]],
) -> bool:
    """Whether a layout reproduces every ``cell -> (breeze, stench,
    wumpus_alive)`` record, without killing the agent in a recorded cell, and
    every ``(origin, direction, scream)`` shot."""
    for cell, (breeze, stench, alive) in records.items():
        if cell in pits or (alive and cell == wumpus):
            return False
        if brute_percepts(cell, n, pits, wumpus, alive, None)[:2] != (breeze, stench):
            return False
    return all(
        scream == (wumpus in brute_trajectory(origin, direction, n))
        for origin, direction, scream in shots
    )


def make_world(
    n: int = 3,
    pits: tuple = (),
    wumpus: tuple | None = None,
    gold: tuple = (2, 2),
    seed: int = 0,
    **config_kwargs,
) -> WorldState:
    """A world with an explicit layout (the config seed is then irrelevant)."""
    config = WorldConfig(
        grid_size=n,
        num_pits=len(pits),
        num_wumpus=0 if wumpus is None else 1,
        seed=seed,
        **config_kwargs,
    )
    return world_from_layout(
        config,
        [Cell(*p) for p in pits],
        Cell(*wumpus) if wumpus else None,
        Cell(*gold),
    )


def pit_pool_split(
    n: int, records: dict[tuple[int, int], tuple[bool, bool, bool]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(frontier, unconstrained): the cells that may hold a pit under
    ``records``, split by whether they are next to a breezy record."""
    cells = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    start_zone = {(1, 1)} | set(brute_adjacent((1, 1), n))
    excluded = start_zone | set(records)
    near_breeze = set()
    for cell, (breeze, _, _) in records.items():
        (near_breeze if breeze else excluded).update(brute_adjacent(cell, n))
    pool = [c for c in cells if c not in excluded]
    frontier = [c for c in pool if c in near_breeze]
    return frontier, [c for c in pool if c not in near_breeze]


def reference_hazard_counts(
    n: int,
    num_pits: int,
    num_wumpus: int,
    records: dict[tuple[int, int], tuple[bool, bool, bool]],
    shots: list[tuple[tuple[int, int], str, bool]],
) -> tuple[int, dict, dict]:
    """(total, pit counts, wumpus counts per cell) over every layout that
    explains ``records`` and ``shots`` (in :func:`layout_explains` form).

    Unfactored: it goes through every ``num_pits``-subset of the pit pool,
    frontier and unconstrained cells alike, and keeps those with a pit next
    to every breeze. Pits and the wumpus interact only through the wumpus not
    sitting in a pit, so a pit set ``P`` completes one layout with each
    wumpus cell outside ``P``.
    """
    cells = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    start_zone = {(1, 1)} | set(brute_adjacent((1, 1), n))
    frontier, unconstrained = pit_pool_split(n, records)
    breezy = [
        set(brute_adjacent(c, n)) for c, (breeze, _, _) in records.items() if breeze
    ]
    # bit i of covers[c]: a pit in c explains breezy record i
    covers = {
        c: sum(1 << i for i, near in enumerate(breezy) if c in near)
        for c in frontier + unconstrained
    }
    every_breeze = (1 << len(breezy)) - 1

    def explains_wumpus(w) -> bool:
        for cell, (_, stench, alive) in records.items():
            if alive and cell == w:
                return False
            if brute_percepts(cell, n, set(), w, alive, None)[1] != stench:
                return False
        return all(
            scream == (w in brute_trajectory(origin, direction, n))
            for origin, direction, scream in shots
        )

    options = [c for c in cells if c not in start_zone] if num_wumpus else [None]
    wumpus_cells = {w for w in options if explains_wumpus(w)}

    total = num_sets = 0
    pit = dict.fromkeys(cells, 0)
    holding = dict.fromkeys(cells, 0)
    for pits in itertools.combinations(frontier + unconstrained, num_pits):
        covered = 0
        for p in pits:
            covered |= covers[p]
        if covered != every_breeze:
            continue
        layouts = len(wumpus_cells) - sum(p in wumpus_cells for p in pits)
        total += layouts
        num_sets += 1
        for p in pits:
            pit[p] += layouts
            holding[p] += 1
    wumpus = {c: num_sets - holding[c] if c in wumpus_cells else 0 for c in cells}
    return total, pit, wumpus


# The reply parsers' patterns before they were made linear. They take
# quadratic time on long runs of "move" or of blank lines, but they define
# the matches the parsers keep.
REFERENCE_MOVE_RE = re.compile(
    r"move[^()<>]*?\(\s*(\d+)\s*,\s*(\d+)\s*\)", re.IGNORECASE
)
REFERENCE_ALTERNATIVE_RE = re.compile(
    r"alternative\s*[:=]\s*(.*?)(?=^\s*(?:confidence|rationale)\s*[:=]|\Z)",
    re.IGNORECASE | re.MULTILINE | re.DOTALL,
)

"""Shared test utilities.

The brute-force functions here are deliberately independent reimplementations
(plain tuples, no package imports for the logic) so they can serve as oracles
for the package under test.
"""

from __future__ import annotations

import itertools

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

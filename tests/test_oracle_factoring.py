"""Exactness of the frontier-factored oracle counts.

``hazard_counts`` enumerates pit sets over the frontier only (the cells next
to a breezy record) and counts the unconstrained cells in closed form. These
tests compare it, and ``consistent_layouts``, with the unfactored reference in
``helpers.py`` on sampled large-grid knowledge bases and on hand-built ones
for each edge of the closed form, and play the oracle on grids far larger
than the paper's.
"""

from __future__ import annotations

import pytest

from helpers import (
    brute_percepts,
    brute_trajectory,
    hazard_layouts,
    layout_explains,
    pit_pool_split,
    reference_hazard_counts,
)
from wumpusbench import (
    Cell,
    Direction,
    OracleAgent,
    Status,
    WorldConfig,
    apply_action,
    build_observation,
    full_info_solvable,
    generate_world,
    run_episode,
)
from wumpusbench.oracle import (
    KnowledgeBase,
    PerceptRecord,
    ShotRecord,
    consistent_layouts,
    hazard_counts,
)


def as_tuples(kb):
    """The kb's records and shot in the helpers' plain-tuple form."""
    records = {
        tuple(c): (r.breeze, r.stench, r.wumpus_alive) for c, r in kb.records.items()
    }
    shots = [
        (tuple(s.origin), s.direction.value, s.scream)
        for s in (kb.shot,)
        if s is not None
    ]
    return records, shots


def assert_matches_reference(kb):
    """``hazard_counts(kb)`` equals the unfactored reference; returns the
    reference's (total, pit, wumpus)."""
    records, shots = as_tuples(kb)
    total, pit, wumpus = reference_hazard_counts(
        kb.grid_size, kb.num_pits, kb.num_wumpus, records, shots
    )
    counts = hazard_counts(kb)
    assert counts.total == total > 0
    assert {tuple(c): n for c, n in counts.pit.items()} == pit
    assert {tuple(c): n for c, n in counts.wumpus.items()} == wumpus
    return total, pit, wumpus


def assert_layouts_match_brute_force(kb):
    """``consistent_layouts(kb)`` lists exactly the legal layouts that explain
    the kb's records and shots."""
    records, shots = as_tuples(kb)
    expected = {
        (frozenset(pits), w)
        for pits, w in hazard_layouts(kb.grid_size, kb.num_pits, kb.num_wumpus)
        if layout_explains(kb.grid_size, pits, w, records, shots)
    }
    found = consistent_layouts(kb)
    assert len(found) == len(expected) == hazard_counts(kb).total
    assert {(frozenset(map(tuple, p)), w and tuple(w)) for p, w in found} == expected


def built_kb(n, num_pits, num_wumpus, pits, wumpus, visits, shot=None, after=()):
    """A knowledge base holding the true percepts of ``visits`` in the world
    with ``pits`` and ``wumpus``, then the outcome of ``shot`` (origin,
    direction), then the percepts of ``after`` with the wumpus dead if the
    shot killed it."""
    kb = KnowledgeBase(n, num_pits, num_wumpus)
    alive = True

    def visit(cell):
        breeze, stench, _ = brute_percepts(cell, n, set(pits), wumpus, alive, None)
        kb.records[Cell(*cell)] = PerceptRecord(breeze, stench, alive)

    for cell in visits:
        visit(cell)
    if shot is not None:
        origin, direction = shot
        scream = wumpus in brute_trajectory(origin, direction.value, n)
        kb.shot = ShotRecord(Cell(*origin), direction, scream)
        alive = not scream
    for cell in after:
        visit(cell)
    return kb


# ---------------------------------------------------------------------------
# Sampled large-grid knowledge bases


@pytest.mark.parametrize("n, seeds", [(6, range(4)), (7, range(3)), (8, range(2))])
def test_counts_match_unfactored_reference_during_large_grid_play(n, seeds):
    checked = 0
    for seed in seeds:
        config = WorldConfig(grid_size=n, num_pits=3, num_wumpus=1, seed=seed)
        world = generate_world(config)
        agent = OracleAgent(n, 3, 1)
        while world.status is Status.RUNNING:
            action = agent.decide(build_observation(world)).action
            assert_matches_reference(agent.kb)
            checked += 1
            apply_action(world, action)
    assert checked >= 10


# ---------------------------------------------------------------------------
# Hand-built knowledge bases, one per edge of the closed form


def test_every_pit_forced_into_the_frontier():
    # (1,2) is quiet, so (2,2) holds no pit and (2,1)'s breeze forces one into
    # (3,1); (1,3)'s breeze needs a second one in (1,4) or (2,3). Both pits
    # are then on the frontier and no unconstrained cell can hold one.
    kb = built_kb(5, 2, 1, [(3, 1), (2, 3)], (5, 5), [(1, 1), (1, 2), (2, 1), (1, 3)])
    frontier, unconstrained = pit_pool_split(5, as_tuples(kb)[0])
    assert set(frontier) == {(3, 1), (1, 4), (2, 3)}
    total, pit, wumpus = assert_matches_reference(kb)
    assert pit[(3, 1)] == total
    assert unconstrained and not any(pit[c] for c in unconstrained)
    assert any(wumpus[c] for c in unconstrained)
    assert_layouts_match_brute_force(kb)


def test_fewer_unconstrained_cells_than_pits_left_for_them():
    # One unconstrained cell, (4,1), and three pits: only frontier pit sets
    # of two or three pits can be completed. With a wumpus, (4,1) is the only
    # cell no quiet record rules it out of, so it holds the wumpus, not a pit.
    pits = [(2, 3), (3, 1), (4, 3)]
    visits = [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2), (3, 3), (1, 4), (3, 4)]
    for num_wumpus, wumpus in ((0, None), (1, (4, 1))):
        kb = built_kb(4, 3, num_wumpus, pits, wumpus, visits)
        frontier, unconstrained = pit_pool_split(4, as_tuples(kb)[0])
        assert unconstrained == [(4, 1)] and len(frontier) >= 3
        total, pit, counts = assert_matches_reference(kb)
        assert (pit[(4, 1)] > 0) is (wumpus is None)
        assert counts[(4, 1)] == (total if wumpus else 0)
        assert_layouts_match_brute_force(kb)


def test_wumpus_candidates_among_unconstrained_cells():
    # (1,2) is quiet, so (2,1)'s breeze puts one of the three pits in (3,1).
    # The other two go to the unconstrained cells. A shot up from (1,1)
    # misses, so (1,4) and (1,5) are no wumpus candidates, while the other
    # unconstrained cells are.
    kb = built_kb(
        5,
        3,
        1,
        [(3, 1), (4, 4), (2, 5)],
        (5, 3),
        [(1, 1), (2, 1), (1, 2)],
        shot=((1, 1), Direction.UP),
    )
    frontier, unconstrained = pit_pool_split(5, as_tuples(kb)[0])
    assert frontier == [(3, 1)]
    _, pit, wumpus = assert_matches_reference(kb)
    assert not kb.shot.scream
    assert {c for c in unconstrained if pit[c] and not wumpus[c]} == {(1, 4), (1, 5)}
    assert sum(bool(pit[c] and wumpus[c]) for c in unconstrained) >= 2
    assert_layouts_match_brute_force(kb)


def test_wumpus_candidates_on_the_frontier():
    # A breeze and a stench in (2,1): its two unvisited neighbours are both
    # pit and wumpus candidates, and a frontier pit set of one pit leaves the
    # other pit for the unconstrained cells.
    kb = built_kb(5, 2, 1, [(3, 1), (4, 4)], (2, 2), [(1, 1), (2, 1)])
    frontier, unconstrained = pit_pool_split(5, as_tuples(kb)[0])
    assert frontier == [(3, 1), (2, 2)] and len(unconstrained) > 1
    _, pit, wumpus = assert_matches_reference(kb)
    assert all(pit[c] and wumpus[c] for c in frontier)
    assert_layouts_match_brute_force(kb)


def test_world_without_a_wumpus():
    kb = built_kb(4, 2, 0, [(3, 1), (3, 3)], None, [(1, 1), (2, 1), (1, 2), (2, 2)])
    _, _, wumpus = assert_matches_reference(kb)
    assert not any(wumpus.values())
    assert_layouts_match_brute_force(kb)


def test_world_without_pits():
    kb = built_kb(5, 0, 1, [], (3, 2), [(1, 1), (2, 1), (3, 1), (1, 2)])
    frontier, _ = pit_pool_split(5, as_tuples(kb)[0])
    assert frontier == []
    total, pit, wumpus = assert_matches_reference(kb)
    assert not any(pit.values())
    assert {c for c, n in wumpus.items() if n} == {(4, 1), (3, 2)} and total == 2
    assert_layouts_match_brute_force(kb)


def test_dead_wumpus():
    # The stench at (1,2) and the scream of the shot up from it put the
    # wumpus in (1,3); the agent then walks past the corpse, where it smells
    # nothing, and feels a breeze in (2,3) from (3,3) or (2,4).
    kb = built_kb(
        4,
        1,
        1,
        [(3, 3)],
        (1, 3),
        [(1, 1), (1, 2), (2, 1)],
        shot=((1, 2), Direction.UP),
        after=[(1, 3), (2, 2), (2, 3)],
    )
    assert kb.wumpus_known_dead
    total, pit, wumpus = assert_matches_reference(kb)
    assert wumpus[(1, 3)] == total
    assert pit[(3, 3)] + pit[(2, 4)] == total
    assert_layouts_match_brute_force(kb)


# ---------------------------------------------------------------------------
# Oracle play on large grids


@pytest.mark.parametrize("n", [8, 10, 12])
def test_oracle_never_dies_on_large_grids(n):
    wins = 0
    for seed in range(6):
        config = WorldConfig(
            grid_size=n, num_pits=3, num_wumpus=1, seed=seed, step_limit=200
        )
        record = run_episode(config, OracleAgent(n, 3, 1), agent_kind="oracle")
        assert record.error is None
        assert record.status not in ("death_pit", "death_wumpus")
        if record.success:
            wins += 1
            assert full_info_solvable(generate_world(config))
    assert wins

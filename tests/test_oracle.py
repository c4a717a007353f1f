from __future__ import annotations

import itertools

import pytest

from helpers import (
    brute_adjacent,
    enumerate_layouts,
    hazard_layouts,
    layout_explains,
    make_world,
)
from wumpusbench import (
    Action,
    ActionKind,
    ArrowStatus,
    Cell,
    Direction,
    InconsistentPerceptsError,
    Observation,
    OracleAgent,
    Percept,
    Status,
    Suggestions,
    WorldConfig,
    apply_action,
    build_observation,
    classify_cells,
    full_info_solvable,
    generate_world,
    new_kb,
    oracle_policy,
    run_episode,
    update_kb,
)
from wumpusbench.oracle import (
    CandidateStatus,
    consistent_layouts,
    hazard_counts,
    mark_wumpus_dead,
    record_shot,
)


def quiet():
    return Percept(breeze=False, stench=False, glitter=False)


def percept(breeze=False, stench=False):
    return Percept(breeze=breeze, stench=stench, glitter=False)


def synthetic_obs(position, frontier_cells, arrow=True):
    """A policy-level observation; content beyond frontier/arrow is unused."""
    return Observation(
        num_wumpus=1,
        num_pits=1,
        current_position=Cell(*position),
        quiet_locations=(),
        breeze_locations=(),
        stench_locations=(),
        suggestions=Suggestions(
            frontier_cells=tuple(Cell(*c) for c in frontier_cells),
            shoot_options=(Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT)
            if arrow
            else (),
        ),
        arrow_status=ArrowStatus(fired=not arrow, direction=None, scream_heard=False),
    )


# ---------------------------------------------------------------------------
# Knowledge-base updates


def test_quiet_start_marks_neighbors_safe():
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    assert {Cell(1, 1), Cell(1, 2), Cell(2, 1)} <= kb.safe_cells


def test_two_stenches_pinpoint_the_wumpus():
    kb = new_kb(3, num_pits=0, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    kb = update_kb(kb, Cell(1, 2), percept(stench=True))
    kb = update_kb(kb, Cell(2, 1), percept(stench=True))
    assert kb.wumpus_candidates[Cell(2, 2)] is CandidateStatus.CERTAIN
    assert classify_cells(kb).fatal == {Cell(2, 2)}


def test_single_breeze_leaves_two_pit_candidates():
    kb = new_kb(3, num_pits=1, num_wumpus=0)
    kb = update_kb(kb, Cell(1, 1), quiet())
    kb = update_kb(kb, Cell(2, 1), percept(breeze=True))
    possible = {
        c for c, s in kb.pit_candidates.items() if s is CandidateStatus.POSSIBLE
    }
    assert possible == {Cell(3, 1), Cell(2, 2)}
    assert not any(
        s is CandidateStatus.CERTAIN for s in kb.pit_candidates.values()
    )


def test_inconsistent_percepts_raise():
    kb = new_kb(3, num_pits=0, num_wumpus=0)
    kb = update_kb(kb, Cell(1, 1), quiet())
    with pytest.raises(InconsistentPerceptsError):
        update_kb(kb, Cell(2, 1), percept(breeze=True))  # breeze with zero pits


def test_stench_without_a_live_wumpus_is_inconsistent():
    dead = mark_wumpus_dead(update_kb(new_kb(3, 0, 1), Cell(1, 1), quiet()))
    absent = update_kb(new_kb(3, 0, 0), Cell(1, 1), quiet())
    for kb in (dead, absent):
        with pytest.raises(InconsistentPerceptsError):
            update_kb(kb, Cell(2, 1), percept(stench=True))


def test_kb_update_is_functional():
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    kb2 = update_kb(kb, Cell(1, 1), quiet())
    assert Cell(1, 1) not in kb.records
    assert Cell(1, 1) in kb2.records


# ---------------------------------------------------------------------------
# Classification


def test_fresh_kb_partitions_grid_into_safe_zone_and_unknown():
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    classification = classify_cells(kb)
    zone = {Cell(1, 1), Cell(1, 2), Cell(2, 1)}
    assert classification.safe >= zone
    assert classification.fatal == frozenset()
    all_cells = classification.safe | classification.fatal | classification.unknown
    assert all_cells == {Cell(x, y) for x in range(1, 4) for y in range(1, 4)}


def test_dead_wumpus_cell_becomes_safe():
    kb = new_kb(3, num_pits=0, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    kb = update_kb(kb, Cell(1, 2), percept(stench=True))
    kb = update_kb(kb, Cell(2, 1), percept(stench=True))
    assert Cell(2, 2) in classify_cells(kb).fatal
    kb = mark_wumpus_dead(kb)
    classification = classify_cells(kb)
    assert Cell(2, 2) in classification.safe
    assert classification.fatal == frozenset()


def test_safe_cells_sound_against_brute_force_enumeration():
    # Visit a safe prefix of several crafted worlds, then check every cell the
    # kb calls safe is hazard-free in every layout an independent enumeration
    # accepts.
    scenarios = [
        ((3, 1, 1), ((3, 1),), (2, 2), [(1, 1), (2, 1)]),
        ((3, 1, 1), ((2, 2),), (3, 3), [(1, 1), (2, 1), (3, 1)]),
        ((4, 2, 1), ((3, 1), (2, 3)), (4, 4), [(1, 1), (2, 1), (1, 2)]),
        ((4, 1, 0), ((4, 2),), None, [(1, 1), (2, 1), (1, 2), (2, 2)]),
    ]
    for (n, num_pits, num_wumpus), pits, wumpus, visits in scenarios:
        kb = new_kb(n, num_pits=num_pits, num_wumpus=num_wumpus)
        records = {}
        for cell in visits:
            true_percept = percept(
                breeze=any(p in brute_adjacent(cell, n) for p in pits),
                stench=wumpus is not None and wumpus in brute_adjacent(cell, n),
            )
            records[cell] = true_percept
            kb = update_kb(kb, Cell(*cell), true_percept)

        consistent = []
        cells = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
        zone = {(1, 1)} | set(brute_adjacent((1, 1), n))
        pool = [c for c in cells if c not in zone]
        wumpus_options = list(pool) if num_wumpus else [None]
        for combo in itertools.combinations(pool, num_pits):
            for w in wumpus_options:
                if w in combo:
                    continue
                ok = True
                for cell, rec in records.items():
                    breeze = any(p in brute_adjacent(cell, n) for p in combo)
                    stench = w is not None and w in brute_adjacent(cell, n)
                    if breeze != rec.breeze or stench != rec.stench:
                        ok = False
                    if cell in combo or cell == w:
                        ok = False
                if ok:
                    consistent.append((set(combo), w))
        assert consistent, "independent enumeration found no layout"
        assert (set(pits), wumpus) in consistent
        for safe_cell in kb.safe_cells:
            for combo, w in consistent:
                assert tuple(safe_cell) not in combo
                assert tuple(safe_cell) != w


def assert_counts_exact(kb, layouts):
    """Compare the kb's counts and layouts with the brute-force ``layouts``
    that explain its records; returns those layouts."""
    records = {
        tuple(c): (r.breeze, r.stench, r.wumpus_alive) for c, r in kb.records.items()
    }
    shots = [(tuple(s.origin), s.direction.value, s.scream) for s in kb.shots]
    layouts = [
        (pits, w)
        for pits, w in layouts
        if layout_explains(kb.grid_size, pits, w, records, shots)
    ]
    counts = hazard_counts(kb)
    assert counts.total == len(layouts)
    for cell in counts.pit:
        assert counts.pit[cell] == sum(tuple(cell) in pits for pits, _ in layouts)
        assert counts.wumpus[cell] == sum(tuple(cell) == w for _, w in layouts)
    found = consistent_layouts(kb)
    assert len(found) == len(layouts)
    assert {(frozenset(p), w) for p, w in found} == {
        (frozenset(p), w) for p, w in layouts
    }
    return layouts


def test_hazard_counts_match_brute_force_during_oracle_play():
    # Every odd seed forces an upward first-round shot from the start cell,
    # which misses or screams depending on the world; the oracle's own shots
    # scream. Records and shots are only ever added, so each knowledge base is
    # checked against the layouts that survived the previous one.
    conditions = [
        (3, 1, 1, range(16)),
        (3, 2, 0, range(8)),
        (4, 2, 1, range(10)),
        (4, 3, 1, range(4)),
        (5, 2, 1, range(3)),
    ]
    screams = set()
    for n, num_pits, num_wumpus, seeds in conditions:
        all_layouts = list(hazard_layouts(n, num_pits, num_wumpus))
        for seed in seeds:
            world = generate_world(
                WorldConfig(
                    grid_size=n, num_pits=num_pits, num_wumpus=num_wumpus, seed=seed
                )
            )
            truth = (
                {tuple(p) for p in world.pit_cells},
                tuple(world.wumpus_cell) if world.wumpus_cell else None,
            )
            agent = OracleAgent(n, num_pits, num_wumpus)
            layouts = assert_counts_exact(agent.kb, all_layouts)
            while world.status is Status.RUNNING:
                action = agent.decide(build_observation(world)).action
                layouts = assert_counts_exact(agent.kb, layouts)
                assert truth in layouts
                if seed % 2 and world.steps_taken == 0:
                    assert action.kind is ActionKind.MOVE
                    apply_action(world, Action.shoot(Direction.UP))
                    agent.kb = record_shot(
                        agent.kb, Cell(1, 1), Direction.UP, world.arrow_report.scream
                    )
                    layouts = assert_counts_exact(agent.kb, layouts)
                    continue
                apply_action(world, action)
            assert world.status not in (Status.DEATH_PIT, Status.DEATH_WUMPUS)
            screams.update(shot.scream for shot in agent.kb.shots)
    assert screams == {True, False}


# ---------------------------------------------------------------------------
# Policy


def test_policy_moves_to_first_safe_frontier_cell():
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 1))
    kb = new_kb(3, num_pits=0, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    action = oracle_policy(kb, build_observation(world))
    assert action == Action.move(2, 1)  # (2,1) before (1,2) in (y, x) order


def test_policy_shoots_pinpointed_wumpus_on_trajectory():
    # Quiet records everywhere except a stench at (1,2) leave exactly one
    # wumpus cell, (1,3), and force the single pit to (3,3): no safe frontier
    # remains, and from (1,1) the up-trajectory covers the wumpus.
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    kb = update_kb(kb, Cell(2, 1), quiet())
    kb = update_kb(kb, Cell(2, 2), quiet())
    kb = update_kb(kb, Cell(1, 2), percept(stench=True))
    assert kb.wumpus_candidates[Cell(1, 3)] is CandidateStatus.CERTAIN
    assert kb.pit_candidates[Cell(3, 3)] is CandidateStatus.CERTAIN
    obs = synthetic_obs((1, 1), frontier_cells=[(1, 3), (3, 3)])
    assert oracle_policy(kb, obs) == Action.shoot("up")


def test_policy_does_not_shoot_without_an_aligned_trajectory():
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    kb = update_kb(kb, Cell(2, 1), quiet())
    kb = update_kb(kb, Cell(2, 2), quiet())
    kb = update_kb(kb, Cell(1, 2), percept(stench=True))
    obs = synthetic_obs((2, 1), frontier_cells=[(1, 3), (3, 3)])
    assert oracle_policy(kb, obs) == Action.exit()  # (1,3) off both rays


def test_policy_exits_when_nothing_is_provably_safe():
    kb = new_kb(3, num_pits=1, num_wumpus=1)
    kb = update_kb(kb, Cell(1, 1), quiet())
    obs = synthetic_obs((1, 1), frontier_cells=[(3, 3)])
    assert oracle_policy(kb, obs) == Action.exit()


def test_oracle_agent_full_episode_with_kill():
    # pits (2,2) and (3,3), wumpus (1,3), gold (3,1): the oracle explores the
    # safe zone, pinpoints and shoots the wumpus, explores what the kill
    # opened up, and exits when only pit-suspect cells remain.
    world = make_world(n=3, pits=((2, 2), (3, 3)), wumpus=(1, 3), gold=(3, 1))
    from wumpusbench import apply_action

    agent = OracleAgent(3, 2, 1)
    actions = []
    while world.status is Status.RUNNING:
        decision = agent.decide(build_observation(world))
        actions.append(decision.action)
        apply_action(world, decision.action)
    assert actions == [
        Action.move(2, 1),
        Action.move(1, 2),
        Action.shoot("up"),
        Action.move(1, 3),
        Action.move(2, 3),
        Action.exit(),
    ]
    assert world.status is Status.EXITED
    assert not world.wumpus_alive
    assert world.score == 50 - 4 + 20  # four moves, one kill, free exit


def test_oracle_agent_collects_gold_sitting_under_the_wumpus():
    # Gold shares the wumpus cell, so the only way in is to pinpoint the
    # wumpus, walk everything else, shoot it once it blocks the last frontier,
    # and then step onto the corpse.
    world = make_world(n=3, pits=((3, 1),), wumpus=(2, 2), gold=(2, 2))
    agent = OracleAgent(3, 1, 1)
    from wumpusbench import apply_action

    while world.status is Status.RUNNING:
        decision = agent.decide(build_observation(world))
        apply_action(world, decision.action)
    assert world.status is Status.SUCCESS
    assert not world.wumpus_alive
    assert world.score == 50 - 7 + 20 + 50  # 7 moves, kill bonus, gold


# ---------------------------------------------------------------------------
# Full-information solvability


def test_open_world_is_solvable():
    assert full_info_solvable(make_world(n=3, gold=(3, 3)))


def test_gold_walled_off_by_pits_is_unsolvable():
    world = make_world(n=3, pits=((3, 2), (2, 3)), gold=(3, 3))
    assert not full_info_solvable(world)


def test_gold_behind_wumpus_is_solvable_via_kill():
    world = make_world(n=3, pits=((2, 3),), wumpus=(3, 2), gold=(3, 3))
    assert full_info_solvable(world)


def test_gold_on_wumpus_cell_requires_the_kill():
    world = make_world(n=3, wumpus=(2, 2), gold=(2, 2))
    assert full_info_solvable(world)


def test_kill_does_not_help_when_pits_enclose_the_gold():
    world = make_world(n=3, pits=((3, 2), (2, 3)), wumpus=(3, 1), gold=(3, 3))
    assert not full_info_solvable(world)


def test_solvability_agrees_with_reachability_on_pit_only_worlds():
    for pits, gold, expected in [
        (((2, 2),), (3, 3), True),
        (((2, 2), (3, 1)), (3, 3), True),  # around the top
        (((1, 3), (2, 2), (3, 1)), (3, 3), False),  # diagonal wall
    ]:
        world = make_world(n=3, pits=pits, gold=gold)
        assert full_info_solvable(world) is expected


# ---------------------------------------------------------------------------
# Episode-level properties


def test_oracle_never_dies_and_success_implies_solvable_on_sampled_worlds():
    deaths = 0
    for seed in range(120):
        config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=seed)
        record = run_episode(config, OracleAgent(3, 1, 1), agent_kind="oracle")
        if record.status in ("death_pit", "death_wumpus"):
            deaths += 1
        if record.success:
            assert full_info_solvable(generate_world(config))
    assert deaths == 0


def test_oracle_trajectory_is_deterministic():
    config = WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=5)
    first = run_episode(config, OracleAgent(4, 2, 1), agent_kind="oracle")
    second = run_episode(config, OracleAgent(4, 2, 1), agent_kind="oracle")
    assert [r.action for r in first.rounds] == [r.action for r in second.rounds]
    assert first.core_fingerprint() == second.core_fingerprint()


def test_enumeration_layout_counts_for_3x3():
    assert sum(1 for _ in enumerate_layouts(3, 0, 1)) == 48
    assert sum(1 for _ in enumerate_layouts(3, 1, 0)) == 42
    assert sum(1 for _ in enumerate_layouts(3, 1, 1)) == 210

from __future__ import annotations

import functools
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
    DIRECTIONS,
    Direction,
    InconsistentPerceptsError,
    Observation,
    OracleAgent,
    ScriptedAgent,
    Status,
    Suggestions,
    WorldConfig,
    apply_action,
    build_observation,
    full_info_solvable,
    generate_world,
    oracle_policy,
    parse_action,
    run_episode,
)
from wumpusbench.observation import observation_from_dict
from wumpusbench.oracle import (
    KnowledgeBase,
    ShotRecord,
    consistent_layouts,
    hazard_counts,
    observe,
)

ZONE = {Cell(1, 1), Cell(1, 2), Cell(2, 1)}
ALL_3X3 = {Cell(x, y) for x in range(1, 4) for y in range(1, 4)}


def seen(position, breeze=False, stench=False, shot=None, scream=False, frontier=()):
    """An observation at ``position`` perceiving ``breeze`` and ``stench``
    there; ``shot`` is the direction of the arrow already fired. Content the
    knowledge base and the policy do not read is left empty."""
    cell = Cell(*position)
    return Observation(
        num_wumpus=1,
        num_pits=1,
        current_position=cell,
        quiet_locations=(),
        breeze_locations=(cell,) if breeze else (),
        stench_locations=(cell,) if stench else (),
        suggestions=Suggestions(
            frontier_cells=tuple(Cell(*c) for c in frontier),
            shoot_options=() if shot else DIRECTIONS,
        ),
        arrow_status=ArrowStatus(
            fired=shot is not None,
            direction=None if shot is None else Direction(shot),
            scream_heard=scream,
        ),
    )


def walk(n, num_pits, num_wumpus, *observations):
    """The knowledge base after observing ``observations`` in order."""
    return functools.reduce(
        observe, observations, KnowledgeBase(n, num_pits, num_wumpus)
    )


def certain(kb):
    """Cells holding a pit, or the live wumpus, in every consistent layout."""
    counts = kb.counts
    return {
        c
        for c in counts.pit
        if counts.pit[c] == counts.total
        or (not kb.wumpus_known_dead and counts.wumpus[c] == counts.total)
    }


# ---------------------------------------------------------------------------
# Knowledge-base updates


def test_quiet_start_marks_neighbors_safe():
    kb = walk(3, 1, 1, seen((1, 1)))
    assert ZONE <= kb.safe_cells


def test_two_stenches_pinpoint_the_wumpus():
    kb = walk(3, 0, 1, seen((1, 1)), seen((1, 2), stench=True), seen((2, 1), stench=True))
    assert kb.counts.wumpus[Cell(2, 2)] == kb.counts.total
    assert certain(kb) == {Cell(2, 2)}


def test_single_breeze_leaves_two_pit_candidates():
    kb = walk(3, 1, 0, seen((1, 1)), seen((2, 1), breeze=True))
    counts = kb.counts
    possible = {c for c, n in counts.pit.items() if 0 < n < counts.total}
    assert possible == {Cell(3, 1), Cell(2, 2)}
    assert counts.total not in counts.pit.values()


def test_inconsistent_percepts_raise():
    kb = walk(3, 0, 0, seen((1, 1)))
    with pytest.raises(InconsistentPerceptsError):
        observe(kb, seen((2, 1), breeze=True))  # breeze with zero pits


def test_stench_without_a_live_wumpus_is_inconsistent():
    # The scream of an upward shot from the start kills the wumpus in (1,3).
    dead = walk(3, 0, 1, seen((1, 1)), seen((1, 1), shot="up", scream=True))
    absent = walk(3, 0, 0, seen((1, 1)))
    assert dead.wumpus_known_dead
    for kb in (dead, absent):
        with pytest.raises(InconsistentPerceptsError):
            observe(kb, seen((2, 1), stench=True))


def test_kb_update_is_functional():
    kb = KnowledgeBase(3, num_pits=1, num_wumpus=1)
    kb2 = observe(kb, seen((1, 1)))
    assert Cell(1, 1) not in kb.records and kb.counts is None
    assert Cell(1, 1) in kb2.records and kb2.counts.total


# ---------------------------------------------------------------------------
# Classification


def test_fresh_kb_partitions_grid_into_safe_zone_and_unknown():
    # The start cell borders only the hazard-free start zone, so it is always
    # quiet: observing it adds nothing to the placement rules.
    kb = walk(3, 1, 1, seen((1, 1)))
    counts = kb.counts
    assert kb.safe_cells == ZONE
    assert certain(kb) == set()
    assert {c for c in ALL_3X3 if counts.pit[c] or counts.wumpus[c]} == ALL_3X3 - ZONE


def test_dead_wumpus_cell_becomes_safe():
    kb = walk(3, 0, 1, seen((1, 1)), seen((1, 2), stench=True), seen((2, 1), stench=True))
    assert Cell(2, 2) in certain(kb)
    # An upward shot from (2,1) screams: it crossed (2,2).
    kb = observe(kb, seen((2, 1), stench=True, shot="up", scream=True))
    assert kb.wumpus_known_dead
    assert Cell(2, 2) in kb.safe_cells
    assert certain(kb) == set()


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
        kb = KnowledgeBase(n, num_pits=num_pits, num_wumpus=num_wumpus)
        records = {}
        for cell in visits:
            records[cell] = (
                any(p in brute_adjacent(cell, n) for p in pits),
                wumpus is not None and wumpus in brute_adjacent(cell, n),
            )
            kb = observe(kb, seen(cell, *records[cell]))

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
                    if (breeze, stench) != rec:
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
                    agent.kb = observe(agent.kb, build_observation(world))
                    assert agent.kb.shots == [
                        ShotRecord(Cell(1, 1), Direction.UP, world.arrow_report.scream)
                    ]
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
    obs = build_observation(world)
    kb = observe(KnowledgeBase(3, num_pits=0, num_wumpus=1), obs)
    assert oracle_policy(kb, obs) == Action.move(2, 1)  # (2,1) before (1,2) in (y, x) order


# Quiet records everywhere except a stench at (1,2) leave exactly one wumpus
# cell, (1,3), and force the single pit to (3,3): no safe frontier remains.
PINPOINTED = (seen((1, 1)), seen((2, 1)), seen((2, 2)), seen((1, 2), stench=True))


def test_policy_shoots_pinpointed_wumpus_on_trajectory():
    # From (1,1) the up-trajectory covers the wumpus.
    kb = walk(3, 1, 1, *PINPOINTED)
    assert kb.counts.wumpus[Cell(1, 3)] == kb.counts.total
    assert kb.counts.pit[Cell(3, 3)] == kb.counts.total
    obs = seen((1, 1), frontier=[(1, 3), (3, 3)])
    assert oracle_policy(kb, obs) == Action.shoot("up")


def test_policy_does_not_shoot_without_an_aligned_trajectory():
    kb = walk(3, 1, 1, *PINPOINTED)
    obs = seen((2, 1), frontier=[(1, 3), (3, 3)])
    assert oracle_policy(kb, obs) == Action.exit()  # (1,3) off both rays


def test_policy_exits_when_nothing_is_provably_safe():
    kb = walk(3, 1, 1, seen((1, 1)))
    obs = seen((1, 1), frontier=[(3, 3)])
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


@pytest.mark.parametrize(
    "script, shot",
    [
        (
            ["move to position (2,1)", "<shootup>", "move to position (2,2)"],
            ShotRecord(Cell(2, 1), Direction.UP, scream=False),
        ),
        (
            [
                "move to position (2,1)",
                "move to position (2,2)",
                "<shootright>",
                "move to position (2,3)",
            ],
            ShotRecord(Cell(2, 2), Direction.RIGHT, scream=True),
        ),
    ],
    ids=["missed", "screamed"],
)
def test_oracle_reads_a_shot_it_did_not_fire_from_the_observations(script, shot):
    # A scripted agent plays; the oracle only watches every round.
    world = make_world(n=3, wumpus=(3, 2), gold=(3, 3))
    agent = OracleAgent(3, 0, 1)
    for text in script:
        agent.decide(build_observation(world))
        apply_action(world, parse_action(text))
    agent.decide(build_observation(world))
    assert world.status is Status.RUNNING
    assert agent.kb.shots == [shot]
    assert agent.kb.wumpus_known_dead is shot.scream


def fold(record):
    """The knowledge base that observing a logged episode's rounds builds.
    Knowledge bases compare equal when their records, shots, wumpus_known_dead
    and counts are."""
    config = record.config
    return functools.reduce(
        observe,
        (observation_from_dict(r.observation) for r in record.rounds),
        KnowledgeBase(config.grid_size, config.num_pits, config.num_wumpus),
    )


def test_observe_folds_an_oracle_log():
    kills = 0
    for n, num_pits, seeds in [(3, 1, range(12)), (4, 2, range(6))]:
        for seed in seeds:
            config = WorldConfig(grid_size=n, num_pits=num_pits, num_wumpus=1, seed=seed)
            agent = OracleAgent(n, num_pits, 1)
            record = run_episode(config, agent, agent_kind="oracle")
            assert fold(record) == agent.kb
            kills += record.wumpus_killed
    assert kills  # seed 1 of the 3x3 condition ends with a kill shot


class Watched:
    """Plays a script while an oracle watches every round."""

    def __init__(self, script, oracle):
        self.script = ScriptedAgent(script)
        self.oracle = oracle

    def decide(self, obs):
        self.oracle.decide(obs)
        return self.script.decide(obs)


@pytest.mark.parametrize(
    "script, scream",
    [
        (["move to position (2,1)", "<shootup>", "move to position (2,2)", "<exit>"], False),
        (
            [
                "move to position (2,1)",
                "move to position (2,2)",
                "<shootright>",
                "move to position (2,3)",
                "<exit>",
            ],
            True,
        ),
    ],
    ids=["missed", "screamed"],
)
def test_observe_folds_a_scripted_log(script, scream):
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=7)
    world = generate_world(config)
    assert (world.wumpus_cell, world.gold_cell) == (Cell(3, 2), Cell(1, 2))
    oracle = OracleAgent(3, 0, 1)
    record = run_episode(config, Watched(script, oracle), agent_kind="scripted")
    assert record.status == "exited" and record.wumpus_killed is scream
    folded = fold(record)
    assert [shot.scream for shot in folded.shots] == [scream]
    assert folded == oracle.kb


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

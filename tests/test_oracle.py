from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import sys

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
    Cell,
    Direction,
    Observation,
    OracleAgent,
    ScriptedAgent,
    Status,
    WorldConfig,
    apply_action,
    build_observation,
    default_matrix,
    full_info_solvable,
    generate_world,
    legal_actions_from,
    matrix_from_dict,
    parse_action,
    run_episode,
    run_trials,
)
from wumpusbench import oracle as oracle_module
from wumpusbench.errors import InconsistentPerceptsError
from wumpusbench.harness import DEFAULT_CONDITIONS
from wumpusbench.oracle import (
    KnowledgeBase,
    ShotRecord,
    _constraints,
    _direction_toward,
    _grid,
    consistent_layouts,
    hazard_counts,
    observe,
    oracle_policy,
)
from wumpusbench.world import ArrowReport, sort_key

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
        frontier_cells=tuple(Cell(*c) for c in frontier),
        arrow=None if shot is None else ArrowReport(Direction(shot), scream),
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
    shots = [
        (tuple(s.origin), s.direction.value, s.scream)
        for s in (kb.shot,)
        if s is not None
    ]
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
                    assert agent.kb.shot == ShotRecord(
                        Cell(1, 1), Direction.UP, world.arrow_report.scream
                    )
                    layouts = assert_counts_exact(agent.kb, layouts)
                    continue
                apply_action(world, action)
            assert world.status not in (Status.DEATH_PIT, Status.DEATH_WUMPUS)
            if agent.kb.shot is not None:
                screams.add(agent.kb.shot.scream)
    assert screams == {True, False}


def test_grid_members_equal_a_full_scan_on_random_masks():
    rng = random.Random(0)
    for n in range(3, 13):
        grid = _grid(n)
        area = n * n
        masks = [0, (1 << area) - 1, 1, 1 << (area - 1)]
        masks += [rng.getrandbits(area) for _ in range(40)]
        masks += [
            sum(1 << i for i in rng.sample(range(area), rng.randint(1, 5)))
            for _ in range(40)
        ]
        for mask in masks:
            # The old scan: every cell's bit, in canonical cell order.
            assert grid.members(mask) == [b for b in grid.bit.values() if mask & b]


# ---------------------------------------------------------------------------
# Policy


def test_policy_moves_to_first_safe_frontier_cell():
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 1))
    obs = build_observation(world)
    kb = observe(KnowledgeBase(3, num_pits=0, num_wumpus=1), obs)
    assert oracle_policy(kb, obs) == Action.move(2, 1)  # (2,1) before (1,2) in (y, x) order
    assert oracle_policy(kb, obs) is Action.move(2, 1)  # one move per cell


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
    assert agent.kb.shot == shot
    assert agent.kb.wumpus_known_dead is shot.scream


def fold(record):
    """The knowledge base that observing a logged episode's rounds builds.
    Knowledge bases compare equal when their records, shot and counts are."""
    config = record.config
    return functools.reduce(
        observe,
        (r.observation for r in record.rounds),
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
    assert folded.shot.scream is scream
    assert folded == oracle.kb


# ---------------------------------------------------------------------------
# Carried constraints and the policy

# The 5x5 matrix of the benchmark's oracle-large workload.
LARGE_CONDITIONS = [
    {"grid_size": 5, "num_pits": 2, "num_wumpus": 1, "trials": 8},
    {"grid_size": 5, "num_pits": 3, "num_wumpus": 1, "trials": 4},
]


def folds(config, observations):
    """(knowledge base, observation) after each of ``observations``, folded
    by :func:`observe` from the condition's empty knowledge base."""
    kb = KnowledgeBase(config.grid_size, config.num_pits, config.num_wumpus)
    for obs in observations:
        kb = observe(kb, obs)
        yield kb, obs


def oracle_folds():
    """The folds of the oracle's play of the default and the 5x5 matrices at
    seeds 0-2."""
    for seed in range(3):
        large = matrix_from_dict({"master_seed": seed, "conditions": LARGE_CONDITIONS})
        for matrix in (default_matrix(seed), large):
            for _, config in matrix.configs():
                agent = OracleAgent(config.grid_size, config.num_pits, config.num_wumpus)
                record = run_episode(config, agent, agent_kind="oracle")
                yield from folds(config, [r.observation for r in record.rounds])


def random_folds():
    """The folds of seeded random legal play on 3x3 to 6x6 grids with 0-3
    pits, one wumpus in five games in six, which moves or shoots, and exits
    only when it can do neither."""
    for n in range(3, 7):
        for seed in range(60):
            rng = random.Random(seed)
            config = WorldConfig(
                grid_size=n, num_pits=seed % 4, num_wumpus=int(seed % 6 > 0), seed=seed
            )
            world = generate_world(config)
            observations = []
            while world.status is Status.RUNNING:
                obs = build_observation(world)
                observations.append(obs)
                options = legal_actions_from(obs)[:-1] or [Action.exit()]
                apply_action(world, rng.choice(options))
            yield from folds(config, observations)


def reference_policy(kb, obs):
    """The policy rule as first written: the safest frontier move by the
    counts' ``is_safe``, else a certain kill shot, else exit."""
    counts = kb.counts
    dead = kb.wumpus_known_dead
    safe = [c for c in obs.frontier_cells if counts.is_safe(c, dead)]
    if safe:
        target = min(safe, key=sort_key)
        return Action.move(target.x, target.y)
    if obs.shoot_options and not dead:
        certain = [c for c, n in counts.wumpus.items() if n == counts.total]
        if len(certain) == 1:
            direction = _direction_toward(obs.current_position, certain[0])
            if direction is not None:
                return Action.shoot(direction)
    return Action.exit()


@pytest.mark.parametrize("play", [oracle_folds, random_folds])
def test_carried_constraints_equal_the_fold_from_scratch(play):
    shots = 0
    for checked, (kb, _) in enumerate(play(), start=1):
        grid = _grid(kb.grid_size)
        scratch = KnowledgeBase(
            kb.grid_size, kb.num_pits, kb.num_wumpus, kb.records, kb.shot
        )
        assert kb._constraints == _constraints(scratch, grid)
        assert scratch._constraints is None  # folded when read, not stored
        shots += kb.shot is not None
    assert checked > 1000 and shots > 20


@pytest.mark.parametrize("play", [oracle_folds, random_folds])
def test_policy_plays_the_first_rule_in_any_frontier_order(play):
    kinds = set()
    for kb, obs in play():
        action = oracle_policy(kb, obs)
        assert action == reference_policy(kb, obs)
        kinds.add(action.kind)
        reversed_frontier = dataclasses.replace(obs, frontier_cells=obs.frontier_cells[::-1])
        assert oracle_policy(kb, reversed_frontier) == action
        assert reference_policy(kb, reversed_frontier) == action
    assert ActionKind.MOVE in kinds and ActionKind.EXIT in kinds


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


def test_every_oracle_shot_screams():
    # The oracle shoots only at a wumpus cell that every consistent layout
    # shares, so no shot may miss. Seeded play of the six paper conditions
    # and of 5x5 with 3 pits; each condition with a wumpus sees shots.
    conditions = [
        {"grid_size": c.grid_size, "num_pits": c.num_pits, "num_wumpus": c.num_wumpus}
        for c in DEFAULT_CONDITIONS
    ] + [{"grid_size": 5, "num_pits": 3, "num_wumpus": 1}]
    matrix = matrix_from_dict({"trials_per_condition": 200, "conditions": conditions})
    records = run_trials(
        matrix, lambda cfg: OracleAgent(cfg.grid_size, cfg.num_pits, cfg.num_wumpus)
    )
    shooters = [
        r for r in records if any(x.action.kind is ActionKind.SHOOT for x in r.rounds)
    ]
    assert all(r.wumpus_killed for r in shooters)
    shot_conditions = {r.condition for r in shooters}
    assert shot_conditions == {r.condition for r in records if r.config.num_wumpus}


def test_enumeration_layout_counts_for_3x3():
    assert sum(1 for _ in enumerate_layouts(3, 0, 1)) == 48
    assert sum(1 for _ in enumerate_layouts(3, 1, 0)) == 42
    assert sum(1 for _ in enumerate_layouts(3, 1, 1)) == 210


# ---------------------------------------------------------------------------
# Decision memo


def play_checked(world, agent, script=None, forget_at=None):
    """Play ``world`` with ``agent``, or with ``script`` while the agent
    watches, checking every action and knowledge base of the agent against
    an uncached fold of :func:`observe` and :func:`oracle_policy`. At round
    ``forget_at`` the agent's knowledge base is rebuilt from that round's
    observation alone, by assigning ``agent.kb``. Returns the steps taken."""
    config = world.config
    start = (config.grid_size, config.num_pits, config.num_wumpus)
    folded = KnowledgeBase(*start)
    moves = iter(script or ())
    while world.status is Status.RUNNING:
        obs = build_observation(world)
        if world.steps_taken == forget_at:
            agent.kb = observe(KnowledgeBase(*start), obs)
            folded = KnowledgeBase(*start)
        action = agent.decide(obs).action
        folded = observe(folded, obs)
        assert agent.kb == folded
        assert action == oracle_policy(folded, obs)
        apply_action(world, parse_action(next(moves)) if script else action)
    return world.steps_taken


def memo_cells_held():
    """Grid cells of the knowledge bases reachable from the shared starts."""
    held = 0
    stack = list(oracle_module._starts.values())
    while stack:
        kb = stack.pop()
        for child, _ in kb._next.values():
            held += child.grid_size**2
            stack.append(child)
    return held


@pytest.mark.parametrize(
    "n, num_pits, seeds", [(3, 1, 16), (4, 2, 10), (5, 2, 6), (6, 3, 4)]
)
def test_memoized_play_equals_the_uncached_fold(n, num_pits, seeds):
    oracle_module.clear_memo()
    configs = [
        WorldConfig(grid_size=n, num_pits=num_pits, num_wumpus=1, seed=seed)
        for seed in range(seeds)
    ]
    for _ in ("cold", "warm"):
        steps = [
            play_checked(generate_world(config), OracleAgent(n, num_pits, 1))
            for config in configs
        ]
    # An agent whose knowledge is reassigned mid-game follows its own
    # knowledge base, and what it remembers there reaches no other agent.
    long_games = [config for config, taken in zip(configs, steps) if taken > 2]
    assert long_games
    for config in long_games[:2]:
        for forget_at in (2, None):
            agent = OracleAgent(n, num_pits, 1)
            play_checked(generate_world(config), agent, forget_at=forget_at)


def test_memo_tells_a_missed_shot_from_a_scream():
    # The same script in two worlds: the shot up from (2,1) misses the
    # wumpus in (3,2) and kills the one in (2,3). Every observation agrees
    # until the scream, which only the arrow status reports.
    oracle_module.clear_memo()
    script = ["move to position (2,1)", "<shootup>", "<exit>"]
    for wumpus in ((3, 2), (2, 3)):
        world = make_world(n=3, wumpus=wumpus, gold=(3, 3))
        play_checked(world, OracleAgent(3, 0, 1), script=script)
        assert world.wumpus_alive is (wumpus == (3, 2))


def test_memo_tells_apart_observations_that_differ_only_in_suggestions():
    # In play the frontier follows from the percept lists, but the policy
    # reads it, so observations handed in by a caller may differ there only.
    oracle_module.clear_memo()
    obs = build_observation(make_world(n=3, wumpus=(3, 3), gold=(3, 1)))
    narrowed = dataclasses.replace(obs, frontier_cells=(Cell(1, 2),))
    assert OracleAgent(3, 0, 1).decide(obs).action == Action.move(2, 1)
    assert OracleAgent(3, 0, 1).decide(narrowed).action == Action.move(1, 2)


def test_agents_of_a_condition_share_its_start_and_build_it_once(monkeypatch):
    oracle_module.clear_memo()
    built = []

    class CountedKnowledgeBase(KnowledgeBase):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(oracle_module, "KnowledgeBase", CountedKnowledgeBase)
    agents = [OracleAgent(4, 2, 1) for _ in range(3)] + [OracleAgent(3, 1, 1)]
    assert built == [(4, 2, 1), (3, 1, 1)]
    assert agents[0].kb is agents[1].kb is agents[2].kb is not agents[3].kb
    oracle_module.clear_memo()


def test_memo_holds_at_most_its_cap_of_grid_cells():
    # 12x12 games with 3 pits reach new knowledge states often enough to fill
    # the memo several times over; the starts are dropped each time.
    oracle_module.clear_memo()
    start, starts = None, 0
    for seed in range(60):
        config = WorldConfig(grid_size=12, num_pits=3, num_wumpus=1, seed=seed)
        agent = OracleAgent(12, 3, 1)
        if agent.kb is not start:
            start, starts = agent.kb, starts + 1
        play_checked(generate_world(config), agent)
        held = memo_cells_held()
        assert held <= oracle_module._memo_cells <= oracle_module.MEMO_CELLS
    assert starts > 2


def test_threads_racing_on_a_cold_memo_play_as_one():
    conditions = [
        {"grid_size": c.grid_size, "num_pits": c.num_pits, "num_wumpus": c.num_wumpus}
        for c in DEFAULT_CONDITIONS
    ]
    matrix = matrix_from_dict({"trials_per_condition": 40, "conditions": conditions})

    def factory(cfg):
        return OracleAgent(cfg.grid_size, cfg.num_pits, cfg.num_wumpus)

    fingerprints = []
    oracle_module.clear_memo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's updates
    try:
        for parallelism in (8, 1):
            records = run_trials(
                matrix, factory, agent_kind="oracle", parallelism=parallelism
            )
            fingerprints.append([r.core_fingerprint() for r in records])
            # A lost update to the count would leave it below the cells held.
            assert memo_cells_held() <= oracle_module._memo_cells
    finally:
        sys.setswitchinterval(interval)
    assert fingerprints[0] == fingerprints[1]

from __future__ import annotations

import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_adjacent,
    brute_frontier,
    brute_percepts,
    make_world,
    reference_layout,
)
from wumpusbench import (
    Action,
    ActionKind,
    Cell,
    Direction,
    RandomLegalAgent,
    Status,
    WorldConfig,
    WorldState,
    apply_action,
    build_observation,
    generate_world,
    legal_actions_from,
    percepts_at,
    world_from_layout,
)
from wumpusbench.errors import ConfigurationError, IllegalActionError
from wumpusbench.world import (
    adjacent_cells,
    episode_score,
    frontier,
    safe_start_zone,
    shoot_trajectory,
)


def config(n=3, pits=0, wumpus=1, seed=0, **kw):
    return WorldConfig(grid_size=n, num_pits=pits, num_wumpus=wumpus, seed=seed, **kw)


# ---------------------------------------------------------------------------
# Generation


def test_generation_keeps_hazards_out_of_start_zone():
    world = generate_world(config(n=3, pits=0, wumpus=1, seed=42))
    assert world.wumpus_cell not in {Cell(1, 1), Cell(1, 2), Cell(2, 1)}
    assert world.gold_cell != Cell(1, 1)


def test_generation_places_distinct_pits_outside_start_zone():
    world = generate_world(config(n=4, pits=3, wumpus=1, seed=7))
    assert len(world.pit_cells) == 3
    assert not world.pit_cells & safe_start_zone(4)
    assert world.wumpus_cell not in world.pit_cells
    assert world.gold_cell not in world.pit_cells


def test_generation_is_deterministic():
    a = generate_world(config(n=4, pits=3, wumpus=1, seed=7))
    b = generate_world(config(n=4, pits=3, wumpus=1, seed=7))
    assert a == b


def test_generation_differs_across_seeds():
    layouts = {
        (
            generate_world(config(n=4, pits=2, wumpus=1, seed=s)).pit_cells,
            generate_world(config(n=4, pits=2, wumpus=1, seed=s)).wumpus_cell,
        )
        for s in range(20)
    }
    assert len(layouts) > 1


def test_generation_initial_state():
    world = generate_world(config(seed=3))
    assert world.agent_cell == Cell(1, 1)
    assert world.explored == [Cell(1, 1)]
    assert world.arrow_available
    assert world.score == world.config.base_score
    assert world.status is Status.RUNNING
    assert world.steps_taken == 0


def test_generation_infeasible_placement_raises():
    with pytest.raises(ConfigurationError):
        generate_world(config(n=2, pits=2, wumpus=0, seed=0))


def test_generation_draws_the_reference_layouts():
    for n, pits, wumpus, seed in itertools.product(range(2, 9), range(4), (0, 1), range(40)):
        cfg = config(n=n, pits=pits, wumpus=wumpus, seed=seed)
        try:
            expected = reference_layout(cfg)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as raised:
                generate_world(cfg)
            assert str(raised.value) == str(exc)
            continue
        world = generate_world(cfg)
        assert world.pit_cells == frozenset(expected[0])
        assert world.wumpus_cell == expected[1]
        assert world.gold_cell == expected[2]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        WorldConfig(grid_size=1, num_pits=0, num_wumpus=0, seed=0)
    with pytest.raises(ConfigurationError):
        WorldConfig(grid_size=3, num_pits=4, num_wumpus=0, seed=0)
    with pytest.raises(ConfigurationError):
        WorldConfig(grid_size=3, num_pits=0, num_wumpus=2, seed=0)
    with pytest.raises(ConfigurationError):
        WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=0, step_limit=0)


@pytest.mark.parametrize(
    "num_pits, num_wumpus, pits, wumpus, gold, message",
    [
        (2, 1, [(3, 3), (3, 3)], (2, 3), (3, 2), "pairwise distinct and match num_pits"),
        (1, 1, [(3, 3)], None, (3, 2), "wumpus presence must match num_wumpus"),
        (1, 0, [(3, 3)], None, (4, 1), r"Cell\(x=4, y=1\) outside the 3x3 grid"),
        (1, 1, [(2, 1)], (3, 3), (3, 2), "hazards may not be placed in the safe start zone"),
        (1, 1, [(3, 3)], (3, 3), (3, 2), "wumpus may not share a pit cell"),
        (1, 1, [(3, 3)], (2, 3), (1, 1), "gold may not be in a pit or the start cell"),
    ],
    ids=["pits", "wumpus-presence", "off-grid", "start-zone", "shared-cell", "gold"],
)
def test_world_from_layout_refuses_a_misplaced_layout(
    num_pits, num_wumpus, pits, wumpus, gold, message
):
    cfg = config(n=3, pits=num_pits, wumpus=num_wumpus)
    with pytest.raises(ConfigurationError, match=message):
        world_from_layout(cfg, [Cell(*p) for p in pits], wumpus, Cell(*gold))


# ---------------------------------------------------------------------------
# Geometry


def yx_sorted(cells):
    return sorted(cells, key=lambda c: (c[1], c[0]))


def test_adjacent_cells_match_brute_force_in_canonical_order():
    for n in range(2, 8):
        # The grid plus two rings outside it, where only the inner ring has
        # in-grid neighbors.
        for x in range(-1, n + 3):
            for y in range(-1, n + 3):
                expected = yx_sorted(brute_adjacent((x, y), n))
                assert adjacent_cells(Cell(x, y), n) == expected, (n, x, y)
    assert adjacent_cells(Cell(50, 50), 4) == []


def test_adjacent_cells_returns_a_fresh_list():
    first = adjacent_cells(Cell(2, 2), 4)
    first.append(Cell(9, 9))
    first.remove(Cell(2, 1))
    assert adjacent_cells(Cell(2, 2), 4) == [Cell(2, 1), Cell(1, 2), Cell(3, 2), Cell(2, 3)]


SMALL_GRIDS = ((3, 1, 1), (4, 2, 1), (5, 3, 1), (6, 2, 0), (6, 3, 1))


def random_play_states(conditions=SMALL_GRIDS, seeds=16):
    """Every running state of seeded random-legal play, by default on 3x3 to
    6x6 grids; ``conditions`` holds (grid size, pits, wumpus) triples."""
    for n, pits, wumpus in conditions:
        for seed in range(seeds):
            world = generate_world(config(n=n, pits=pits, wumpus=wumpus, seed=seed))
            agent = RandomLegalAgent(seed)
            while world.status is Status.RUNNING:
                yield world
                apply_action(world, agent.decide(build_observation(world)).action)


def test_frontier_matches_brute_force_along_random_play():
    rounds = 0
    for world in random_play_states():
        explored = {tuple(c) for c in world.explored}
        expected = yx_sorted(brute_frontier(explored, world.config.grid_size))
        assert frontier(world) == expected
        rounds += 1
    assert rounds > 100


def test_frontier_matches_brute_force_along_random_play_on_large_grids():
    # The listing is built from the explored cells' neighbors; on these
    # grids most cells are neither explored nor on the frontier.
    rounds = 0
    for world in random_play_states(((8, 3, 1), (10, 3, 1), (10, 0, 0)), seeds=12):
        explored = {tuple(c) for c in world.explored}
        expected = yx_sorted(brute_frontier(explored, world.config.grid_size))
        assert frontier(world) == expected
        rounds += 1
    assert rounds > 100


def test_apply_action_rejects_every_non_frontier_cell_along_random_play():
    for world in random_play_states():
        n = world.config.grid_size
        explored = {tuple(c) for c in world.explored}
        reachable = brute_frontier(explored, n)
        before = copy.deepcopy(world)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if (x, y) in reachable:
                    continue
                with pytest.raises(IllegalActionError, match="not an unexplored cell"):
                    apply_action(world, Action.move(x, y))
                assert world == before
        for x, y in ((0, 1), (1, 0), (n + 1, n), (n, n + 1), (50, 50)):
            with pytest.raises(IllegalActionError, match="outside the"):
                apply_action(world, Action.move(x, y))
        assert world == before


# ---------------------------------------------------------------------------
# Legal actions


def move_targets(state):
    return {
        tuple(a.target)
        for a in legal_actions_from(build_observation(state))
        if a.kind is ActionKind.MOVE
    }


def test_initial_legal_actions_match_brute_force_frontier():
    world = make_world(n=3, wumpus=(3, 3))
    expected = brute_frontier({(1, 1)}, 3)
    assert expected == {(1, 2), (2, 1)}
    assert move_targets(world) == expected
    actions = legal_actions_from(build_observation(world))
    shoots = {a.direction for a in actions if a.kind is ActionKind.SHOOT}
    assert shoots == set(Direction)
    assert Action.exit() in actions


def test_action_constructors_hand_out_one_object_per_action():
    assert Action.move(3, 7) is Action.move(3, 7)
    # An equal float or bool gets its own action, not the shared int one.
    assert Action.move(4.0, True).to_text() == "move to position (4.0,True)"
    assert Action.move(4, 1).to_text() == "move to position (4,1)"
    assert Action.shoot("up") is Action.shoot(Direction.UP)
    assert Action.shoot(Direction.DOWN) is Action.shoot("down")
    assert Action.exit() is Action.exit()


def test_frontier_grows_with_exploration():
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 2))
    apply_action(world, Action.move(2, 1))
    expected = brute_frontier({(1, 1), (2, 1)}, 3)
    assert expected == {(1, 2), (2, 2), (3, 1)}
    assert move_targets(world) == expected


def test_no_shoot_actions_once_arrow_spent():
    world = make_world(n=3, wumpus=(3, 3))
    apply_action(world, Action.shoot("up"))
    actions = legal_actions_from(build_observation(world))
    assert all(a.kind is not ActionKind.SHOOT for a in actions)


# ---------------------------------------------------------------------------
# Transitions


@pytest.mark.parametrize(
    "layout, before, action, delta",
    [
        ({"wumpus": (3, 3), "gold": (3, 2)}, [], Action.move(2, 1), -1),
        ({"pits": ((2, 2),), "gold": (3, 3)}, [Action.move(2, 1)], Action.move(2, 2), -21),
        ({"wumpus": (2, 2), "gold": (3, 3)}, [Action.move(2, 1)], Action.move(2, 2), -31),
        ({"gold": (2, 1)}, [], Action.move(2, 1), 49),
        ({"wumpus": (3, 1), "gold": (3, 3)}, [], Action.shoot("right"), 20),
        ({"wumpus": (3, 1), "gold": (3, 3)}, [], Action.shoot("up"), 0),
        ({"gold": (3, 3)}, [Action.move(2, 1)], Action.exit(), 0),
    ],
    ids=["move", "pit-death", "wumpus-death", "gold", "kill-shot", "miss", "exit"],
)
def test_apply_action_returns_the_delta_it_appends_to_the_ledger(
    layout, before, action, delta
):
    world = make_world(n=3, **layout)
    for earlier in before:
        apply_action(world, earlier)
    ledger = list(world.reward_ledger)
    result = apply_action(world, action)
    assert type(result) is int
    assert result == delta
    assert world.reward_ledger == [*ledger, result]


def test_move_onto_pit_is_fatal():
    world = make_world(n=3, pits=((2, 2),), gold=(3, 3))
    result = apply_action(world, Action.move(2, 1))
    assert result == -1
    result = apply_action(world, Action.move(2, 2))
    assert result == -21
    assert world.status is Status.DEATH_PIT


def test_move_onto_gold_succeeds():
    world = make_world(n=3, gold=(2, 1))
    result = apply_action(world, Action.move(2, 1))
    assert result == 49
    assert world.status is Status.SUCCESS
    assert world.gold_cell is None
    assert world.score == 99


def test_move_onto_live_wumpus_is_fatal():
    world = make_world(n=3, wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    result = apply_action(world, Action.move(2, 2))
    assert result == -31
    assert world.status is Status.DEATH_WUMPUS


def test_hazard_resolves_before_gold_pickup():
    world = make_world(n=3, wumpus=(2, 2), gold=(2, 2))
    apply_action(world, Action.move(2, 1))
    result = apply_action(world, Action.move(2, 2))
    assert world.status is Status.DEATH_WUMPUS
    assert result == -31
    assert world.gold_cell is not None


def test_dead_wumpus_cell_is_harmless_and_gold_collectable():
    world = make_world(n=3, wumpus=(2, 2), gold=(2, 2))
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.shoot("up"))  # from (2,1) hits (2,2)
    assert not world.wumpus_alive
    result = apply_action(world, Action.move(2, 2))
    assert world.status is Status.SUCCESS
    assert result == 49


def test_shoot_kill_earns_bonus_and_scream():
    world = make_world(n=3, wumpus=(3, 1), gold=(3, 3))
    result = apply_action(world, Action.shoot("right"))
    assert result == 20
    assert not world.wumpus_alive
    assert not world.arrow_available
    assert world.arrow_report.direction is Direction.RIGHT
    assert world.arrow_report.scream


def test_shoot_miss_consumes_arrow_silently():
    world = make_world(n=3, wumpus=(3, 1), gold=(3, 3))
    result = apply_action(world, Action.shoot("up"))
    assert result == 0
    assert world.wumpus_alive
    assert not world.arrow_available
    assert world.arrow_report.scream is False


def test_exit_costs_nothing():
    world = make_world(n=3, gold=(3, 3))
    result = apply_action(world, Action.exit())
    assert result == 0
    assert world.status is Status.EXITED
    assert world.score == 50


def test_illegal_actions_leave_state_unchanged():
    world = make_world(n=3, gold=(3, 3))
    before = (world.score, world.steps_taken, list(world.explored))
    with pytest.raises(IllegalActionError):
        apply_action(world, Action.move(3, 3))  # not on the frontier
    with pytest.raises(IllegalActionError):
        apply_action(world, Action.move(1, 1))  # already explored
    apply_action(world, Action.shoot("up"))
    with pytest.raises(IllegalActionError):
        apply_action(world, Action.shoot("up"))  # arrow spent
    assert world.score == before[0]
    assert world.explored == before[2]


def test_a_shot_without_a_direction_is_refused_and_changes_nothing():
    world = make_world(n=3, gold=(3, 3))
    before = copy.deepcopy(world)
    with pytest.raises(IllegalActionError, match="^shoot requires a direction$"):
        apply_action(world, Action(ActionKind.SHOOT))
    assert world == before


def test_acting_on_terminal_state_is_rejected():
    world = make_world(n=3, gold=(2, 1))
    apply_action(world, Action.move(2, 1))
    with pytest.raises(IllegalActionError):
        apply_action(world, Action.exit())


def test_timeout_at_exact_step_limit_counting_shoots():
    world = make_world(n=4, gold=(4, 4), step_limit=3)
    apply_action(world, Action.shoot("up"))
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.move(3, 1))
    assert world.steps_taken == 3
    assert world.status is Status.TIMEOUT
    assert world.score == 50 - 2  # accumulated score kept


def test_terminal_action_on_last_step_beats_timeout():
    world = make_world(n=3, gold=(2, 1), step_limit=1)
    apply_action(world, Action.move(2, 1))
    assert world.status is Status.SUCCESS


# ---------------------------------------------------------------------------
# Percepts


def test_stench_next_to_wumpus():
    world = make_world(n=3, wumpus=(2, 2), gold=(3, 3))
    assert percepts_at(world, Cell(1, 2)).stench
    assert percepts_at(world, Cell(2, 1)).stench
    assert not percepts_at(world, Cell(1, 1)).stench  # diagonal


def test_breeze_next_to_pit():
    world = make_world(n=3, pits=((2, 2),), gold=(3, 3))
    assert percepts_at(world, Cell(2, 1)).breeze
    assert not percepts_at(world, Cell(1, 1)).breeze


def test_quiet_cell_has_no_percepts():
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 2))
    percept = percepts_at(world, Cell(1, 1))
    assert percept == percepts_at(world, Cell(1, 1))
    assert not (percept.breeze or percept.stench or percept.glitter)


@pytest.mark.parametrize("cell", [(0, 1), (1, 0), (4, 2), (2, 4)])
def test_percepts_outside_the_grid_are_refused(cell):
    world = make_world(n=3, gold=(2, 2))
    with pytest.raises(ConfigurationError, match=r"outside the 3x3 grid"):
        percepts_at(world, Cell(*cell))


def test_glitter_only_on_gold_cell():
    world = make_world(n=3, gold=(2, 2))
    assert percepts_at(world, Cell(2, 2)).glitter
    assert not percepts_at(world, Cell(2, 1)).glitter


def test_dead_wumpus_emits_no_stench_but_history_is_kept():
    world = make_world(n=3, wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))  # records stench at (2,1)
    apply_action(world, Action.shoot("up"))
    assert not percepts_at(world, Cell(1, 2)).stench
    assert world.percept_log[Cell(2, 1)].stench  # recorded history stays


def test_percepts_match_brute_force_on_a_crafted_world():
    world = make_world(n=4, pits=((3, 1), (2, 3)), wumpus=(4, 4), gold=(4, 2))
    for x in range(1, 5):
        for y in range(1, 5):
            expected = brute_percepts(
                (x, y), 4, {(3, 1), (2, 3)}, (4, 4), True, (4, 2)
            )
            percept = percepts_at(world, Cell(x, y))
            assert (percept.breeze, percept.stench, percept.glitter) == expected


# ---------------------------------------------------------------------------
# Trajectories and scoring


def test_shoot_trajectory_geometry():
    assert shoot_trajectory(Cell(1, 1), Direction.RIGHT, 3) == [Cell(2, 1), Cell(3, 1)]
    assert shoot_trajectory(Cell(3, 3), Direction.RIGHT, 3) == []
    assert shoot_trajectory(Cell(1, 1), Direction.UP, 3) == [Cell(1, 2), Cell(1, 3)]
    assert shoot_trajectory(Cell(2, 2), Direction.DOWN, 3) == [Cell(2, 1)]
    assert shoot_trajectory(Cell(2, 2), Direction.LEFT, 3) == [Cell(1, 2)]


def test_episode_score_examples():
    assert episode_score([-1, -1, -1, 49], 50) == 96  # 4 moves, last onto gold
    assert episode_score([-1, -1, -31], 50) == 17  # 3 moves, last into the wumpus


def test_kill_then_gold_replay_scores_118():
    world = make_world(n=3, wumpus=(3, 1), gold=(2, 2))
    for action in (Action.shoot("right"), Action.move(2, 1), Action.move(2, 2)):
        apply_action(world, action)
    assert world.status is Status.SUCCESS
    assert world.score == 118
    assert episode_score(world.reward_ledger, 50) == 118


# ---------------------------------------------------------------------------
# Invariants


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), walk=st.integers(0, 2**31))
def test_random_walks_preserve_ledger_and_exploration_invariants(seed, walk):
    rng = random.Random(walk)
    conditions = [(3, 0, 1), (3, 1, 0), (3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 3, 1)]
    n, pits, wumpus = conditions[seed % len(conditions)]
    world = generate_world(config(n=n, pits=pits, wumpus=wumpus, seed=seed))
    explored_sizes = [len(world.explored)]
    kills = 0
    gold_pickups = 0
    while world.status is Status.RUNNING:
        options = sorted(
            legal_actions_from(build_observation(world)), key=lambda a: a.to_text()
        )
        action = options[rng.randrange(len(options))]
        before_gold = world.gold_cell
        apply_action(world, action)
        if action.kind is ActionKind.SHOOT and world.arrow_report.scream:
            kills += 1
        if before_gold is not None and world.gold_cell is None:
            gold_pickups += 1
        assert world.agent_cell in world.explored
        explored_sizes.append(len(world.explored))
    assert world.score == episode_score(world.reward_ledger, 50)
    assert explored_sizes == sorted(explored_sizes)  # monotone exploration
    assert len(set(world.explored)) == len(world.explored)
    assert kills <= 1
    assert gold_pickups <= 1
    assert world.steps_taken <= world.config.step_limit


def test_world_state_stores_each_fact_once():
    assert [f.name for f in dataclasses.fields(WorldState)] == [
        "config",
        "pit_cells",
        "wumpus_cell",
        "gold_cell",
        "percept_log",
        "arrow_report",
        "status",
        "reward_ledger",
    ]
    world = make_world(n=3, wumpus=(3, 2), gold=(3, 3))
    for action in (Action.move(2, 1), Action.move(2, 2), Action.shoot("right")):
        apply_action(world, action)
    views = {
        "explored": [Cell(1, 1), Cell(2, 1), Cell(2, 2)],
        "agent_cell": Cell(2, 2),
        "steps_taken": 3,
        "score": 50 - 2 + 20,
        "arrow_available": False,
        "wumpus_alive": False,
    }
    for name, value in views.items():
        assert getattr(world, name) == value
        with pytest.raises(AttributeError):
            setattr(world, name, value)

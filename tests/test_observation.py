from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_MOVE_RE, make_world
from wumpusbench import (
    Action,
    ActionParseError,
    Cell,
    Direction,
    OBSERVATION_KEYS,
    apply_action,
    build_observation,
    frontier_suggestions,
    generate_world,
    legal_actions,
    observation_from_json,
    observation_to_dict,
    observation_to_json,
    parse_action,
    WorldConfig,
)
from wumpusbench.observation import (
    _MOVE_RE,
    KEY_ARROW,
    KEY_BREEZE,
    KEY_POSITION,
    KEY_QUIET,
    KEY_STENCH,
    KEY_SUGGESTIONS,
)


# ---------------------------------------------------------------------------
# Building


def test_fresh_world_observation_is_quiet():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    assert obs.quiet_locations == (Cell(1, 1),)
    assert obs.breeze_locations == ()
    assert obs.stench_locations == ()
    assert obs.current_position == Cell(1, 1)


def test_stench_history_accumulates_per_visited_cell():
    world = make_world(n=3, wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.move(3, 1))
    apply_action(world, Action.move(3, 2))
    obs = build_observation(world)
    assert obs.stench_locations == (Cell(2, 1), Cell(3, 2))
    assert Cell(2, 1) not in obs.quiet_locations


def test_cell_with_breeze_and_stench_in_both_lists_not_quiet():
    world = make_world(n=3, pits=((3, 1),), wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    obs = build_observation(world)
    assert Cell(2, 1) in obs.breeze_locations
    assert Cell(2, 1) in obs.stench_locations
    assert Cell(2, 1) not in obs.quiet_locations
    assert not set(obs.quiet_locations) & (
        set(obs.breeze_locations) | set(obs.stench_locations)
    )


def test_arrow_status_reflects_shot_and_scream():
    world = make_world(n=3, wumpus=(3, 1), gold=(3, 3))
    obs = build_observation(world)
    assert obs.arrow_status.fired is False
    assert obs.arrow_status.direction is None
    apply_action(world, Action.shoot("right"))
    obs = build_observation(world)
    assert obs.arrow_status.fired is True
    assert obs.arrow_status.direction is Direction.RIGHT
    assert obs.arrow_status.scream_heard is True


def test_stench_recorded_before_kill_stays_in_observation():
    world = make_world(n=3, wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.shoot("up"))
    apply_action(world, Action.move(1, 2))  # visited after the kill: no stench
    obs = build_observation(world)
    assert Cell(2, 1) in obs.stench_locations
    assert Cell(1, 2) in obs.quiet_locations


def test_counts_come_from_the_config():
    obs = build_observation(make_world(n=4, pits=((3, 3), (4, 1)), wumpus=(4, 4)))
    assert obs.num_pits == 2
    assert obs.num_wumpus == 1


# ---------------------------------------------------------------------------
# Suggestions


def test_frontier_sorted_row_major_from_start():
    world = make_world(n=3, gold=(3, 3))
    suggestions = frontier_suggestions(world)
    assert suggestions.frontier_cells == (Cell(2, 1), Cell(1, 2))
    assert suggestions.shoot_options == (
        Direction.UP,
        Direction.DOWN,
        Direction.LEFT,
        Direction.RIGHT,
    )


def test_shoot_options_empty_after_arrow_spent():
    world = make_world(n=3, gold=(3, 3))
    apply_action(world, Action.shoot("left"))
    assert frontier_suggestions(world).shoot_options == ()


def test_frontier_empty_when_grid_exhausted():
    world = make_world(n=2, gold=(2, 2), step_limit=10)
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.move(1, 2))
    apply_action(world, Action.move(2, 2))  # last cell; collects the gold
    assert frontier_suggestions(world).frontier_cells == ()


def test_suggestions_agree_with_legal_moves():
    world = generate_world(WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=11))
    apply_action(world, Action.move(2, 1))
    frontier_set = set(frontier_suggestions(world).frontier_cells)
    move_set = {a.target for a in legal_actions(world) if a.target is not None}
    assert frontier_set == move_set


# ---------------------------------------------------------------------------
# Serialization


def test_wire_form_uses_the_eight_fixed_keys_in_order():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    data = observation_to_dict(obs)
    assert tuple(data.keys()) == OBSERVATION_KEYS


def test_json_round_trip_is_identity():
    world = make_world(n=3, pits=((3, 1),), wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.shoot("up"))
    obs = build_observation(world)
    assert observation_from_json(observation_to_json(obs)) == obs


def test_wire_values_are_plain_json():
    world = make_world(n=3, wumpus=(3, 1), gold=(3, 3))
    apply_action(world, Action.shoot("right"))
    data = json.loads(observation_to_json(build_observation(world)))
    assert data[KEY_POSITION] == [1, 1]
    assert data[KEY_QUIET] == [[1, 1]]
    assert data[KEY_SUGGESTIONS]["shoot_options"] == []
    assert data[KEY_ARROW] == {
        "fired": True,
        "direction": "right",
        "scream_heard": True,
    }
    assert data[KEY_BREEZE] == []
    assert data[KEY_STENCH] == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), moves=st.integers(0, 6))
def test_round_trip_identity_over_random_histories(seed, moves):
    world = generate_world(WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=seed))
    from wumpusbench import Status

    for _ in range(moves):
        if world.status is not Status.RUNNING:
            break
        options = sorted(
            (a for a in legal_actions(world) if a.target is not None),
            key=lambda a: a.to_text(),
        )
        if not options:
            break
        apply_action(world, options[seed % len(options)])
    obs = build_observation(world)
    assert observation_from_json(observation_to_json(obs)) == obs
    assert build_observation(world) == obs  # pure function of the state


# ---------------------------------------------------------------------------
# Action grammar


def test_parse_move_sentence():
    assert parse_action("I will move to position (2,1).") == Action.move(2, 1)


def test_parse_shoot_token():
    assert parse_action("...therefore <shootright>.") == Action.shoot("right")


def test_parse_exit_token():
    assert parse_action("Nothing safe is left. <exit>") == Action.exit()


def test_parse_error_without_action():
    with pytest.raises(ActionParseError):
        parse_action("The cave is lovely.")


def test_parse_is_case_insensitive_and_tolerates_spacing():
    assert parse_action("MOVE TO POSITION ( 3 , 2 )") == Action.move(3, 2)
    assert parse_action("< ShootUp >") == Action.shoot("up")
    assert parse_action("<EXIT>") == Action.exit()


def test_last_match_wins():
    text = (
        "I considered move to position (1,2), and <shootleft> crossed my mind, "
        "but finally: move to position (2,2)"
    )
    assert parse_action(text) == Action.move(2, 2)
    text = "Perhaps move to position (1,2)? No. Final answer: <exit>"
    assert parse_action(text) == Action.exit()


@given(
    st.one_of(
        st.builds(Action.move, st.integers(1, 9), st.integers(1, 9)),
        st.sampled_from([Action.shoot(d) for d in Direction]),
        st.just(Action.exit()),
    )
)
def test_canonical_rendering_round_trips(action):
    assert parse_action(action.to_text()) == action


@given(
    prefix=st.text(
        alphabet=st.characters(blacklist_characters="<>()", blacklist_categories=("Cs",)),
        max_size=40,
    ),
    action=st.sampled_from(
        [Action.move(2, 1), Action.shoot("down"), Action.exit()]
    ),
)
def test_rendering_survives_leading_noise(prefix, action):
    assert parse_action(prefix + " " + action.to_text()) == action


MOVE_PIECES = [
    "move", "MoVe", "mo", "ve", " to ", "(", ")", "<", ">", ",", " ", "\n",
    "2", "13", "x", "<exit>", "move to position (2,1)", "( 3 , 4 )",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(MOVE_PIECES), max_size=30).map("".join))
def test_move_matches_equal_the_reference_pattern(text):
    found = [(m.start(), m.groups()) for m in _MOVE_RE.finditer(text) if m.group(1)]
    assert found == [(m.start(), m.groups()) for m in REFERENCE_MOVE_RE.finditer(text)]


def test_parse_action_reads_past_a_long_run_of_moves():
    # Every "move" of the run reads its cell at the "<" of the exit token.
    assert parse_action("move " * 16_000 + "<exit>") == Action.exit()

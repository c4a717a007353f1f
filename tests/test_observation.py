from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_MOVE_RE, make_world, reference_build_observation
from wumpusbench import (
    Action,
    ActionKind,
    Cell,
    Direction,
    OracleAgent,
    Status,
    apply_action,
    build_observation,
    default_matrix,
    generate_world,
    legal_actions_from,
    matrix_from_dict,
    observation_to_json,
    parse_action,
    WorldConfig,
)
from wumpusbench.errors import ActionParseError
from wumpusbench.observation import (
    _ARROWS,
    _MOVE_RE,
    KEY_ARROW,
    KEY_BREEZE,
    KEY_NUM_PITS,
    KEY_POSITION,
    KEY_QUIET,
    KEY_STENCH,
    KEY_SUGGESTIONS,
    OBSERVATION_KEYS,
    observation_from_dict,
    observation_to_dict,
)
from wumpusbench.oracle import _PERCEPT_RECORDS, PerceptRecord
from wumpusbench.world import _PERCEPTS, DIRECTIONS, ArrowReport, Percept


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
    assert obs.arrow is None
    assert obs.shoot_options is DIRECTIONS
    apply_action(world, Action.shoot("right"))
    obs = build_observation(world)
    assert obs.arrow is world.arrow_report
    assert obs.arrow == ArrowReport(Direction.RIGHT, scream=True)
    assert obs.shoot_options == ()


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


def test_observation_matches_the_plain_reference_along_random_play():
    # Seeded random play on every grid size from 3x3 to 8x8. Each round checks
    # the state after every legal action, the played one included, so final
    # states are checked too. The walk takes no shots, so it carries the
    # arrow as far as it goes, and every direction is tried from every cell
    # it reaches.
    arrow_states = set()
    for n, num_pits, num_wumpus, seed in itertools.product(
        range(3, 9), (0, 2), (0, 1), range(16)
    ):
        config = WorldConfig(n, num_pits, num_wumpus, seed=100 * n + seed)
        state = generate_world(config)
        rng = random.Random(seed)
        while state.status is Status.RUNNING:
            obs = build_observation(state)
            for action in legal_actions_from(obs):
                after = dataclasses.replace(
                    state,
                    percept_log={**state.percept_log},
                    reward_ledger=[*state.reward_ledger],
                )
                apply_action(after, action)
                got = build_observation(after)
                reference = reference_build_observation(after)
                assert got == reference, (after, action)
                assert build_observation(after, obs) == reference, (after, action)
                assert observation_to_dict(got) == observation_to_dict(reference)
                report = after.arrow_report
                arrow_states.add(report and (report.direction, report.scream))
            walks = [a for a in legal_actions_from(obs) if a.kind is not ActionKind.SHOOT]
            apply_action(state, walks[rng.randrange(len(walks))])
    assert arrow_states == {None} | set(itertools.product(DIRECTIONS, (False, True)))


ORACLE_MATRICES = [
    *(default_matrix(seed) for seed in range(3)),
    # The benchmark's seed-0 oracle-large matrix.
    matrix_from_dict(
        {
            "master_seed": 0,
            "conditions": [
                {"grid_size": 5, "num_pits": 2, "num_wumpus": 1, "trials": 8},
                {"grid_size": 5, "num_pits": 3, "num_wumpus": 1, "trials": 4},
            ],
        }
    ),
]


@pytest.mark.parametrize(
    "matrix", ORACLE_MATRICES, ids=["default-0", "default-1", "default-2", "large-0"]
)
def test_advanced_observation_equals_a_fresh_build_along_oracle_play(matrix):
    for _, config in matrix.configs():
        state = generate_world(config)
        agent = OracleAgent(config.grid_size, config.num_pits, config.num_wumpus)
        obs = None
        while state.status is Status.RUNNING:
            obs = build_observation(state, obs)
            assert obs == build_observation(state), (config, state.percept_log)
            apply_action(state, agent.decide(obs).action)


def test_a_stale_previous_observation_is_refused():
    world = make_world(n=4, gold=(4, 4))
    before = build_observation(world)
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.move(1, 2))
    # Two moves back: (1,2) was on that frontier too, but the agent was at
    # (1,1), not at the cell it left for (1,2).
    with pytest.raises(ValueError, match="stale for an agent at"):
        build_observation(world, before)
    # Another episode whose agent is at (2,1), like this one's before its
    # last move, but which has explored (1,2) already.
    other = make_world(n=4, gold=(4, 4))
    apply_action(other, Action.move(1, 2))
    apply_action(other, Action.move(2, 1))
    with pytest.raises(ValueError, match="stale: its frontier lacks"):
        build_observation(world, build_observation(other))


@pytest.mark.parametrize(
    "table, expected",
    [
        (
            _PERCEPTS,
            {k: Percept(*k) for k in itertools.product((False, True), repeat=3)},
        ),
        (
            _PERCEPT_RECORDS,
            {k: PerceptRecord(*k) for k in itertools.product((False, True), repeat=3)},
        ),
        (
            _ARROWS,
            {
                (False, None, False): None,
                **{
                    (True, d.value, s): ArrowReport(d, s)
                    for d, s in itertools.product(DIRECTIONS, (False, True))
                },
            },
        ),
    ],
    ids=["percepts", "percept-records", "arrow-status"],
)
def test_shared_value_tables_hold_every_combination_once(table, expected):
    assert table == expected
    assert len(set(table.values())) == len(table)
    for value in (v for v in table.values() if v is not None):
        field = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))


# ---------------------------------------------------------------------------
# Frontier and shot options


def test_frontier_sorted_row_major_from_start():
    world = make_world(n=3, gold=(3, 3))
    obs = build_observation(world)
    assert obs.frontier_cells == (Cell(2, 1), Cell(1, 2))
    assert obs.shoot_options == (
        Direction.UP,
        Direction.DOWN,
        Direction.LEFT,
        Direction.RIGHT,
    )


def test_shoot_options_empty_after_arrow_spent():
    world = make_world(n=3, gold=(3, 3))
    apply_action(world, Action.shoot("left"))
    assert build_observation(world).shoot_options == ()


def test_frontier_empty_when_grid_exhausted():
    world = make_world(n=2, gold=(2, 2), step_limit=10)
    apply_action(world, Action.move(2, 1))
    apply_action(world, Action.move(1, 2))
    apply_action(world, Action.move(2, 2))  # last cell; collects the gold
    assert build_observation(world).frontier_cells == ()


def test_suggestions_agree_with_legal_moves():
    world = generate_world(WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=11))
    apply_action(world, Action.move(2, 1))
    obs = build_observation(world)
    frontier_set = set(obs.frontier_cells)
    actions = legal_actions_from(obs)
    move_set = {a.target for a in actions if a.target is not None}
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
    assert observation_from_dict(json.loads(observation_to_json(obs))) == obs


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


def test_wire_directions_are_plain_strings_not_enum_members():
    # Direction is a str subclass, so comparing with a logged dict would not
    # tell the two apart; the wire form must hold exact str values.
    world = make_world(n=3, wumpus=(3, 1), gold=(3, 3))
    options = observation_to_dict(build_observation(world))[KEY_SUGGESTIONS]
    assert options["shoot_options"] == ["up", "down", "left", "right"]
    assert all(type(d) is str for d in options["shoot_options"])
    apply_action(world, Action.shoot("right"))
    data = observation_to_dict(build_observation(world))
    assert data[KEY_SUGGESTIONS]["shoot_options"] == []
    assert data[KEY_ARROW]["direction"] == "right"
    assert type(data[KEY_ARROW]["direction"]) is str


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), moves=st.integers(0, 6))
def test_round_trip_identity_over_random_histories(seed, moves):
    world = generate_world(WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=seed))
    from wumpusbench import Status

    for _ in range(moves):
        if world.status is not Status.RUNNING:
            break
        options = sorted(
            (
                a
                for a in legal_actions_from(build_observation(world))
                if a.target is not None
            ),
            key=lambda a: a.to_text(),
        )
        if not options:
            break
        apply_action(world, options[seed % len(options)])
    obs = build_observation(world)
    assert observation_from_dict(json.loads(observation_to_json(obs))) == obs
    assert build_observation(world) == obs  # pure function of the state


def test_decoding_shares_cells_shot_options_and_arrow_states():
    world = make_world(n=3, pits=((3, 1),), wumpus=(2, 2), gold=(3, 3))
    apply_action(world, Action.move(2, 1))
    obs = build_observation(world)
    first, second = (
        observation_from_dict(json.loads(observation_to_json(obs))) for _ in range(2)
    )
    assert first == second == obs
    assert observation_from_dict(observation_to_dict(obs)) == obs
    assert first.current_position is second.current_position
    assert first.breeze_locations[0] is second.breeze_locations[0]
    assert first.shoot_options is DIRECTIONS
    assert first.arrow is None
    apply_action(world, Action.shoot("up"))
    fired, again = (
        observation_from_dict(observation_to_dict(build_observation(world)))
        for _ in range(2)
    )
    assert fired.shoot_options == ()
    assert fired.arrow == world.arrow_report
    assert fired.arrow is again.arrow


def _replace_first_cell(data, key, value):
    data[key][0] = value


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.update({KEY_POSITION: ["1", "1"]}),
        lambda data: data.update({KEY_POSITION: [1.0, 1.0]}),
        lambda data: data.update({KEY_POSITION: [1]}),
        lambda data: _replace_first_cell(data, KEY_QUIET, [1, 1, 1]),
        lambda data: _replace_first_cell(data, KEY_QUIET, [True, 1]),
        lambda data: data.update({KEY_BREEZE: {}}),
        lambda data: data.update({"ninth key": []}),
        lambda data: data.pop(KEY_ARROW),
        lambda data: data.update({KEY_NUM_PITS: 1.0}),
        lambda data: data[KEY_SUGGESTIONS].update({"shoot_options": "up"}),
        lambda data: data[KEY_SUGGESTIONS].update({"shoot_options": ["UP"]}),
        lambda data: data[KEY_SUGGESTIONS].pop("frontier_cells"),
        lambda data: data[KEY_SUGGESTIONS].update({"shoot_options": ["up"]}),
        lambda data: data[KEY_SUGGESTIONS]["shoot_options"].reverse(),
        lambda data: data[KEY_SUGGESTIONS].update({"shoot_options": []}),
        lambda data: data[KEY_ARROW].update({"fired": True, "direction": "up"}),
        lambda data: data[KEY_ARROW].update({"direction": ["up"]}),
        lambda data: data[KEY_ARROW].update({"shots": 1}),
        lambda data: data.update({KEY_ARROW: None}),
        lambda data: data[KEY_ARROW].update({"direction": "up"}),
        lambda data: data[KEY_ARROW].update({"scream_heard": 0}),
    ],
    ids=[
        "string-coordinates",
        "float-coordinates",
        "one-number-cell",
        "three-number-cell",
        "bool-coordinate",
        "object-for-list",
        "ninth-key",
        "missing-key",
        "float-count",
        "string-for-shot-list",
        "unknown-direction",
        "missing-suggestions-key",
        "one-shot-option-before-the-shot",
        "shot-options-out-of-order",
        "no-shot-options-before-the-shot",
        "shot-options-after-the-shot",
        "unhashable-direction",
        "unknown-arrow-key",
        "null-arrow",
        "unfired-arrow-with-direction",
        "int-for-bool-scream",
    ],
)
def test_wire_form_is_decoded_exactly_or_refused(edit):
    world = make_world(n=3, gold=(3, 3))
    data = json.loads(observation_to_json(build_observation(world)))
    edit(data)
    with pytest.raises(ValueError, match="^observation"):
        observation_from_dict(data)


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

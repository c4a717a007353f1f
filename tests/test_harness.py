from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from wumpusbench import (
    Action,
    ChatClient,
    CompletionLog,
    Decision,
    EpisodeRecord,
    LlmAgent,
    MockChatServer,
    MockReply,
    OracleAgent,
    PlannerCriticAgent,
    Price,
    ScriptedAgent,
    TrialMatrix,
    UsageRecord,
    WorldConfig,
    build_observation,
    default_matrix,
    generate_world,
    matrix_from_dict,
    price_table_from_dict,
    read_records,
    render_frames,
    run_episode,
    run_trials,
    summarize,
    verify_record,
    write_records,
)
import wumpusbench.observation as observation_module
from wumpusbench.errors import (
    ConfigurationError,
    LogCorruptionError,
    ReplayMismatchError,
    SummaryError,
)
from wumpusbench.harness import DEFAULT_TRIALS_PER_CONDITION, Condition
from wumpusbench.mockserver import script_from_json
from wumpusbench.world import ArrowReport, Direction
from wumpusbench.observation import (
    KEY_BREEZE,
    KEY_POSITION,
    KEY_QUIET,
    KEY_STENCH,
    KEY_SUGGESTIONS,
)


class FirstFrontierAgent:
    """Always moves to the first frontier cell, optionally avoiding one cell."""

    def __init__(self, avoid=None):
        self.avoid = avoid

    def decide(self, obs):
        for cell in obs.frontier_cells:
            if self.avoid is None or tuple(cell) != tuple(self.avoid):
                return Decision(action=Action.move(cell.x, cell.y), provenance="scripted")
        return Decision(action=Action.exit(), provenance="scripted")


def oracle_factory(config: WorldConfig) -> OracleAgent:
    return OracleAgent(config.grid_size, config.num_pits, config.num_wumpus)


# ---------------------------------------------------------------------------
# Episode runner


def test_scripted_walk_into_pit_matches_hand_replay():
    # seed 0 places the pit on the first-frontier walk; derive the expected
    # ledger by replaying the same walk directly through the environment.
    config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=0, seed=0)
    record = run_episode(config, FirstFrontierAgent(), agent_kind="scripted")
    from wumpusbench import Status, apply_action, build_observation

    state = generate_world(config)
    while state.status is Status.RUNNING:
        obs = build_observation(state)
        target = obs.frontier_cells[0]
        apply_action(state, Action.move(target.x, target.y))
    assert state.status is Status.DEATH_PIT
    assert record.status == "death_pit"
    assert record.score == state.score == 24


def test_scripted_agent_runs_fixed_action_list():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    gold = generate_world(config).gold_cell
    actions = ["<shootup>", "<exit>"]
    record = run_episode(config, ScriptedAgent(actions), agent_kind="scripted")
    assert record.status == "exited"
    assert record.score == 50
    assert [r.action.to_text() for r in record.rounds] == ["<shootup>", "<exit>"]
    assert gold is not None  # untouched


def test_step_cap_truncates_at_exactly_fifty_actions():
    config = WorldConfig(grid_size=8, num_pits=0, num_wumpus=0, seed=4)
    gold = generate_world(config).gold_cell
    record = run_episode(config, FirstFrontierAgent(avoid=gold), agent_kind="scripted")
    assert record.status == "timeout"
    assert len(record.rounds) == 50
    assert record.step_count() == 50
    assert record.score == 50 - 50


def test_script_exhaustion_becomes_protocol_failure():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    record = run_episode(config, ScriptedAgent(["<shootup>"]), agent_kind="scripted")
    assert record.status == "protocol_failure"
    assert record.error is not None
    assert not record.success


def test_success_and_kill_flags_recomputable():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=42)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    assert record.success == (record.status == "success")
    killed = any("<shoot" in r.action.to_text() and r.reward_delta > 0 for r in record.rounds)
    assert record.wumpus_killed == killed


class RecordingOracle:
    """Plays the oracle and keeps every observation it is handed."""

    def __init__(self, config: WorldConfig):
        self.oracle = oracle_factory(config)
        self.seen = []

    def decide(self, obs):
        self.seen.append(obs)
        return self.oracle.decide(obs)


def test_a_played_round_keeps_the_very_observation_its_agent_received():
    config = WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=3)
    agent = RecordingOracle(config)
    record = run_episode(config, agent, agent_kind="oracle")
    assert len(record.rounds) == len(agent.seen) > 1
    assert all(r.observation is seen for r, seen in zip(record.rounds, agent.seen))


def test_consecutive_rounds_share_the_cell_tuples_they_did_not_change():
    shared = set()
    for seed in range(12):
        config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=seed)
        record = run_episode(config, oracle_factory(config), agent_kind="oracle")
        for before, after in zip(record.rounds, record.rounds[1:]):
            for name, cells in (
                ("quiet", lambda obs: obs.quiet_locations),
                ("breeze", lambda obs: obs.breeze_locations),
                ("stench", lambda obs: obs.stench_locations),
                ("frontier", lambda obs: obs.frontier_cells),
            ):
                old, new = cells(before.observation), cells(after.observation)
                if old and old == new:
                    assert old is new, (seed, after.index, name)
                    shared.add(name)
    assert shared == {"quiet", "breeze", "stench", "frontier"}


# ---------------------------------------------------------------------------
# Trial matrix


def test_default_matrix_is_six_conditions_of_25():
    matrix = default_matrix(master_seed=0)
    assert matrix.total_trials() == 150
    assert len(matrix.entries) == 6
    labels = [c.label for c, _ in matrix.entries]
    assert labels == [
        "3x3_p0_w1",
        "3x3_p1_w0",
        "3x3_p1_w1",
        "4x4_p1_w1",
        "4x4_p2_w1",
        "4x4_p3_w1",
    ]
    for _, seeds in matrix.entries:
        assert len(seeds) == 25
        assert len(set(seeds)) == 25


def test_matrix_rejects_duplicate_seeds():
    with pytest.raises(ValueError):
        TrialMatrix(entries=[(Condition(3, 0, 1), (1, 1))])


def test_matrix_from_dict_with_explicit_conditions():
    matrix = matrix_from_dict(
        {
            "conditions": [
                {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [5, 6]},
                {"grid_size": 4, "num_pits": 2, "num_wumpus": 1, "trials": 3},
            ],
            "master_seed": 7,
        }
    )
    assert matrix.total_trials() == 5
    assert matrix.entries[0][1] == (5, 6)


@pytest.mark.parametrize(
    "grid_size, num_pits, num_wumpus", [(2, 2, 0), (2, 1, 1), (2, 3, 1)]
)
def test_matrix_from_dict_refuses_hazards_that_do_not_fit(grid_size, num_pits, num_wumpus):
    # A 2x2 grid has one cell outside the start zone.
    fits = {"grid_size": 3, "num_pits": 1, "num_wumpus": 1, "trials": 3}
    crowded = {"grid_size": grid_size, "num_pits": num_pits, "num_wumpus": num_wumpus}
    with pytest.raises(ConfigurationError, match="^condition 1 .*do not fit"):
        matrix_from_dict({"conditions": [fits, {**crowded, "trials": 3}]})


def test_matrix_from_dict_accepts_hazards_that_just_fit():
    matrix = matrix_from_dict(
        {
            "conditions": [
                {"grid_size": 2, "num_pits": 1, "num_wumpus": 0, "seeds": [1]},
                {"grid_size": 2, "num_pits": 0, "num_wumpus": 1, "seeds": [1]},
                {"grid_size": 3, "num_pits": 3, "num_wumpus": 1, "seeds": [1]},
            ]
        }
    )
    records = run_trials(matrix, oracle_factory, agent_kind="oracle")
    assert not [r.error for r in records if r.error]


def test_run_trials_emits_one_record_per_seed():
    matrix = matrix_from_dict(
        {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1, 2]}]}
    )
    records = run_trials(matrix, oracle_factory, agent_kind="oracle")
    assert len(records) == 2
    assert [r.seed for r in records] == [1, 2]
    assert all(r.condition == "3x3_p0_w1" for r in records)


def test_run_trials_parallelism_does_not_change_results():
    matrix = matrix_from_dict(
        {
            "conditions": [
                {"grid_size": 3, "num_pits": 1, "num_wumpus": 1, "trials": 6},
                {"grid_size": 4, "num_pits": 2, "num_wumpus": 1, "trials": 6},
            ]
        }
    )
    serial = run_trials(matrix, oracle_factory, agent_kind="oracle", parallelism=1)
    parallel = run_trials(matrix, oracle_factory, agent_kind="oracle", parallelism=8)
    assert [r.core_fingerprint() for r in serial] == [
        r.core_fingerprint() for r in parallel
    ]


def test_run_trials_records_agent_crashes_without_aborting():
    class ExplodingAgent:
        def decide(self, obs):
            raise RuntimeError("boom")

    matrix = matrix_from_dict(
        {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1, 2]}]}
    )
    records = run_trials(matrix, lambda cfg: ExplodingAgent(), agent_kind="custom")
    assert len(records) == 2
    assert all(r.status == "protocol_failure" for r in records)
    assert all("boom" in r.error for r in records)


def test_run_trials_logs_an_inference_crash_as_a_harness_error(tmp_path):
    # Told there are no pits, the oracle cannot explain the breeze it meets
    # on seed 1 and raises InconsistentPerceptsError; on seed 0 it meets none
    # and wins. The crash is a check of the package failing, not the agent
    # failing to act, so it is neither a game nor a protocol failure.
    condition = {"grid_size": 4, "num_pits": 1, "num_wumpus": 1, "seeds": [0, 1]}
    won, crashed = run_trials(
        matrix_from_dict({"conditions": [condition]}),
        lambda cfg: OracleAgent(cfg.grid_size, 0, 1),
        agent_kind="oracle",
    )
    assert won.status == "success"
    assert crashed.status == "harness_error"
    assert len(crashed.rounds) == 1 and crashed.score == 49  # the move before the crash
    assert crashed.error.startswith("wumpusbench.errors.InconsistentPerceptsError")
    path = tmp_path / "log.jsonl"
    write_records(path, [won, crashed])
    assert read_records(path) == [won, crashed]
    verify_record(won)
    with pytest.raises(ReplayMismatchError, match="harness_error"):
        verify_record(crashed)
    summary = summarize([won, crashed])
    assert summary.runs == summary.harness_errors == 1
    assert summary.protocol_failures == 0
    assert summary.success_rate == 100.0
    assert summary.avg_total_reward == won.score
    assert "Harness errors          1" in summary.format_text()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_episode_that_fails_before_its_first_round_is_logged_with_no_rounds(
    parallelism,
):
    # The factory's RuntimeError is the agent failing to act; three pits do
    # not fit on a 2x2 grid, so generate_world raises ConfigurationError.
    # matrix_from_dict refuses such a condition, so the matrix is built here.
    def factory(cfg):
        if cfg.seed == 2:
            raise RuntimeError("no agent for seed 2")
        return oracle_factory(cfg)

    matrix = TrialMatrix(
        entries=[
            (Condition(3, 0, 1), (1, 2, 3)),
            (Condition(2, 3, 0), (4,)),
            (Condition(3, 0, 1), (5,)),
        ]
    )
    records = run_trials(matrix, factory, agent_kind="oracle", parallelism=parallelism)
    assert [r.seed for r in records] == [1, 2, 3, 4, 5]
    failed = {r.seed: r for r in records if r.seed in (2, 4)}
    assert [(r.status, r.rounds, r.score) for r in failed.values()] == [
        ("protocol_failure", [], 50),
        ("harness_error", [], 50),
    ]
    assert failed[2].error == "RuntimeError: no agent for seed 2"
    assert failed[4].error == (
        "wumpusbench.errors.ConfigurationError: cannot place 3 pits on a 2x2 grid"
    )
    assert failed[4].condition == "2x2_p3_w0"
    assert all(r.rounds and not r.error for r in records if r.seed not in failed)


def test_an_agent_crash_keeps_the_rounds_and_tokens_already_spent(tmp_path):
    # Round 1 makes one model call and moves; round 2 raises.
    class CrashesInRoundTwo:
        def __init__(self):
            self.rounds = 0

        def decide(self, obs):
            self.rounds += 1
            if self.rounds == 2:
                raise RuntimeError("boom")
            call = CompletionLog(
                role="model",
                model="m",
                messages=[],
                response="move to position (2,1)",
                usage=UsageRecord(100, 20, 120, latency=0.5),
            )
            return Decision(action=Action.move(2, 1), provenance="model", calls=[call])

    matrix = matrix_from_dict(
        {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1]}]}
    )
    (record,) = run_trials(matrix, lambda cfg: CrashesInRoundTwo(), agent_kind="custom")
    assert record.status == "protocol_failure"
    assert record.error == "RuntimeError: boom"
    assert [r.action for r in record.rounds] == [Action.move(2, 1)]
    assert record.score == 49
    path = tmp_path / "log.jsonl"
    write_records(path, [record])
    assert read_records(path) == [record]
    verify_record(record)
    summary = summarize([record])
    assert summary.protocol_failures == 1
    assert (summary.total_prompt_tokens, summary.total_completion_tokens) == (100, 20)


# ---------------------------------------------------------------------------
# Persistence and replay


def test_record_json_round_trip(tmp_path):
    config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=8)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    path = tmp_path / "episodes.jsonl"
    write_records(path, [record])
    loaded = read_records(path)
    assert len(loaded) == 1
    assert loaded[0].to_dict() == record.to_dict()


def test_the_seed_zero_default_oracle_log_keeps_its_bytes(tmp_path):
    # Rounds hold typed observations, encoded only as the log is written;
    # the bytes of this log pin the format that encoding must keep.
    records = run_trials(default_matrix(0), oracle_factory, agent_kind="oracle")
    path = tmp_path / "default.jsonl"
    write_records(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "79bbbc278f190ebeecc278c8a892808f91d2e14a18a0fdd5ab43210b4d7ed811"
    )
    assert read_records(path) == records


def test_corrupt_log_line_is_named(tmp_path):
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=1)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    path = tmp_path / "episodes.jsonl"
    write_records(path, [record])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{this is not json\n")
    with pytest.raises(LogCorruptionError, match="line 2"):
        read_records(path)


@pytest.mark.parametrize("schema", [None, 0, 2, "1", True, 1.0])
def test_a_record_of_an_unsupported_schema_is_named(tmp_path, schema):
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=1)
    data = run_episode(config, oracle_factory(config), agent_kind="oracle").to_dict()
    if schema is None:
        del data["schema"]
    else:
        data["schema"] = schema
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(
        LogCorruptionError, match=f"line 1: unsupported record schema {schema!r}$"
    ):
        read_records(path)


def test_verify_record_accepts_faithful_logs():
    config = WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=3)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    final = verify_record(record)
    assert final.score == record.score


def test_verify_record_detects_tampered_seed():
    config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=10)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    tampered = dataclasses.replace(record.config, seed=11)
    record.config = tampered
    with pytest.raises(ReplayMismatchError):
        verify_record(record)


def test_verify_record_detects_tampered_score():
    config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=10)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    record.score += 1
    with pytest.raises(ReplayMismatchError):
        verify_record(record)


def _move_a_breeze_cell_to_quiet(obs):
    cell = obs[KEY_BREEZE].pop(0)
    obs[KEY_QUIET] = sorted([*obs[KEY_QUIET], cell], key=lambda c: (c[1], c[0]))


@pytest.mark.parametrize(
    "edit",
    [
        lambda obs: obs.update({KEY_POSITION: obs[KEY_SUGGESTIONS]["frontier_cells"][0]}),
        lambda obs: obs[KEY_SUGGESTIONS]["frontier_cells"].pop(),
        _move_a_breeze_cell_to_quiet,
    ],
    ids=["position", "frontier-cell-dropped", "breeze-cell-quiet"],
)
def test_a_logged_observation_that_differs_from_the_replay_is_refused(tmp_path, edit):
    # Play builds each observation from the one before; the replay builds it
    # from scratch. This comparison is what holds the two to the same result.
    data, index = _logged_episode_with_a_breeze()
    edit(data["rounds"][index]["observation"])
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(data) + "\n")
    [edited] = read_records(path)
    with pytest.raises(
        ReplayMismatchError, match=f"round {index}: observation diverges"
    ):
        verify_record(edited)


def test_the_audit_catches_a_wrong_observation_in_the_successor_memo(monkeypatch):
    # Play takes round 1's observation from the successor memo; the replay
    # builds every round after the first from scratch, so it refuses a wrong
    # entry that play handed out.
    memo = {}
    monkeypatch.setattr(observation_module, "_successors", memo)
    config = WorldConfig(grid_size=4, num_pits=1, num_wumpus=1, seed=3)
    honest = run_episode(config, FirstFrontierAgent())
    assert len(honest.rounds) > 2
    verify_record(honest)
    first, second = (r.observation for r in honest.rounds[:2])
    [key] = [key for key, (previous, _) in memo.items() if previous is first]
    wrong = dataclasses.replace(second, arrow=ArrowReport(Direction.UP, False))
    memo[key] = (first, wrong)
    record = run_episode(config, FirstFrontierAgent())
    assert record.rounds[0].observation is first
    assert record.rounds[1].observation is wrong
    with pytest.raises(
        ReplayMismatchError, match=r"^round 1: observation diverges from the log$"
    ):
        verify_record(record)


def _logged_episode_with_a_breeze():
    """The JSON of a played episode, and the index of its first round whose
    observation holds a breeze cell and a frontier cell."""
    config = WorldConfig(grid_size=4, num_pits=2, num_wumpus=1, seed=3)
    data = run_episode(config, oracle_factory(config), agent_kind="oracle").to_dict()
    index = next(
        i
        for i, r in enumerate(data["rounds"])
        if r["observation"][KEY_BREEZE] and r["observation"][KEY_SUGGESTIONS]["frontier_cells"]
    )
    return data, index


@pytest.mark.parametrize(
    "edit",
    [
        lambda obs: obs.update({"ninth key": []}),
        lambda obs: obs.pop(KEY_STENCH),
        lambda obs: obs[KEY_BREEZE][0].append(1),
        lambda obs: obs[KEY_SUGGESTIONS].update({"shoot_options": ["up", "north"]}),
        lambda obs: obs.update({KEY_POSITION: [str(v) for v in obs[KEY_POSITION]]}),
    ],
    ids=[
        "ninth-key",
        "missing-key",
        "three-number-cell",
        "unknown-shot-direction",
        "string-coordinate",
    ],
)
def test_a_malformed_logged_observation_is_refused_on_reading(tmp_path, edit):
    # test_observation.py checks the decoder's other refusals one by one.
    data, index = _logged_episode_with_a_breeze()
    edit(data["rounds"][index]["observation"])
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(LogCorruptionError, match=r"episodes\.jsonl: line 1: observation"):
        read_records(path)


def _kill_and_success_records():
    # Seed 0 puts the wumpus at (1,3), in line with a shot up from the start.
    shot = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=0)
    killed = run_episode(shot, ScriptedAgent(["<shootup>", "<exit>"]))
    won = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=42)
    success = run_episode(won, oracle_factory(won), agent_kind="oracle")
    assert (killed.success, killed.wumpus_killed) == (False, True)
    assert (success.success, success.wumpus_killed) == (True, False)
    return killed, success


@pytest.mark.parametrize("field", ["success", "wumpus_killed"])
def test_verify_record_detects_tampered_outcome_flags(field):
    for record in _kill_and_success_records():
        verify_record(record)
        tampered = dataclasses.replace(record, **{field: not getattr(record, field)})
        with pytest.raises(ReplayMismatchError, match=field):
            verify_record(tampered)


@pytest.mark.parametrize(
    "position, index", [(1, 7), (-1, 0)], ids=["skipped-ahead", "repeated-at-the-end"]
)
def test_verify_record_refuses_a_round_index_other_than_its_position(
    tmp_path, position, index
):
    data, _ = _logged_episode_with_a_breeze()
    data["rounds"][position]["index"] = index
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(data) + "\n")
    [edited] = read_records(path)  # well formed, so it reads
    expected = position % len(data["rounds"])
    with pytest.raises(
        ReplayMismatchError, match=f"^round {expected}: logged index {index}$"
    ):
        verify_record(edited)


def test_verify_record_refuses_a_death_relabelled_as_a_protocol_failure():
    # Seed 0 puts the one pit at (1,3), straight up from the start.
    config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=0, seed=0)
    script = ["move to position (1,2)", "move to position (1,3)"]
    record = run_episode(config, ScriptedAgent(script), agent_kind="scripted")
    assert record.status == "death_pit"
    verify_record(record)
    # As a protocol failure the death would leave every rate.
    forged = dataclasses.replace(record, status="protocol_failure")
    with pytest.raises(
        ReplayMismatchError,
        match=r"^final status death_pit != running \(logged protocol_failure\)$",
    ):
        verify_record(forged)


def test_verify_record_refuses_a_round_after_a_protocol_failure():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    record = run_episode(config, ScriptedAgent(["<shootup>"]), agent_kind="scripted")
    assert record.status == "protocol_failure"
    verify_record(record)
    placeholder = record.rounds[-1]
    assert placeholder.flags == ["protocol-failure"]
    # A round past the placeholder would never be replayed.
    record.rounds.append(dataclasses.replace(placeholder, index=len(record.rounds), flags=[]))
    with pytest.raises(
        ReplayMismatchError,
        match="^round 1: a protocol-failure round must be the last round of a "
        "protocol_failure record$",
    ):
        verify_record(record)


def test_endpoint_failure_keeps_the_spend_of_the_failed_round():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    planner = 'Analysis: a\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>'
    # The critic's request finds the script exhausted and gets a 500.
    with MockChatServer([MockReply(planner, 12, 4)]) as server:
        agent = PlannerCriticAgent(ChatClient(server.url, "m", max_retries=0), 3)
        record = run_episode(config, agent, agent_kind="llm")
    assert record.status == "protocol_failure"
    assert record.error.startswith("TransportError:")
    [failed] = record.rounds
    assert failed.flags == ["protocol-failure"]
    assert [c.role for c in failed.calls] == ["planner"]
    assert failed.calls[0].response == planner
    assert (record.prompt_tokens(), record.completion_tokens()) == (12, 4)
    verify_record(record)


def test_failed_round_keeps_the_flags_of_refused_replies():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    # The retry after the reply without an action finds the script exhausted.
    with MockChatServer([MockReply("Analysis: no idea", 5, 1)]) as server:
        agent = LlmAgent(ChatClient(server.url, "m", max_retries=0), 3)
        record = run_episode(config, agent, agent_kind="llm", mechanism="cos")
    assert record.status == "protocol_failure"
    [failed] = record.rounds
    assert failed.flags == ["unparseable-action", "protocol-failure"]
    assert [c.response for c in failed.calls] == ["Analysis: no idea"]
    verify_record(record)


def test_failed_round_puts_the_planner_flags_first():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    planner = "Analysis: a\nGuess: none\nAction: <exit>"  # malformed guess
    script = [MockReply(planner, 12, 4), MockReply("no verdict", 3, 1)]
    with MockChatServer(script) as server:
        agent = PlannerCriticAgent(ChatClient(server.url, "m", max_retries=0), 3)
        record = run_episode(config, agent, agent_kind="llm")
    [failed] = record.rounds
    assert failed.flags == ["malformed-guess", "unparseable-verdict", "protocol-failure"]
    assert [c.role for c in failed.calls] == ["planner", "critic"]


def test_failed_round_after_exhausted_parse_retries_keeps_every_flag():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    with MockChatServer([MockReply("nothing", 1, 1)] * 4) as server:
        agent = LlmAgent(ChatClient(server.url, "m", max_retries=0), 3)
        record = run_episode(config, agent, agent_kind="llm", mechanism="cos")
    [failed] = record.rounds
    assert failed.flags == ["unparseable-action"] * 4 + ["protocol-failure"]
    assert record.error == "no usable action after 4 completions"


def test_success_replay_final_frame_shows_agent_on_gold_cell():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=42)
    gold = generate_world(config).gold_cell
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    assert record.success
    frames = render_frames(record)
    last = frames[-1]
    assert "status success" in last
    row = next(line for line in last.splitlines() if line.startswith(f"y{gold.y}"))
    assert row.split()[gold.x] == "A"


def test_frames_reveal_hazards():
    config = WorldConfig(grid_size=4, num_pits=3, num_wumpus=1, seed=7)
    record = run_episode(config, oracle_factory(config), agent_kind="oracle")
    board = render_frames(record)[0]
    assert board.count("P") == 3
    assert "W" in board


# ---------------------------------------------------------------------------
# Metrics


def make_record(score, steps, status="success", killed=False):
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=0)
    from wumpusbench.harness import RoundRecord

    observation = build_observation(generate_world(config))
    rounds = [
        RoundRecord(
            index=i,
            observation=observation,
            action=Action.move(2, 1),
            provenance="scripted",
            reward_delta=0,
        )
        for i in range(steps)
    ]
    return EpisodeRecord(
        config=config,
        agent_kind="scripted",
        mechanism=None,
        models={},
        condition=None,
        rounds=rounds,
        status=status,
        score=score,
        success=status == "success",
        wumpus_killed=killed,
    )


def test_summary_averages_rewards_and_rates():
    records = [
        make_record(96, 4, status="success"),
        make_record(17, 3, status="death_wumpus"),
    ]
    summary = summarize(records)
    assert summary.runs == 2
    assert summary.avg_total_reward == pytest.approx(56.5)
    assert summary.success_rate == pytest.approx(50.0)
    assert summary.avg_steps == pytest.approx(3.5)
    assert summary.min_steps == 3 and summary.max_steps == 4
    assert summary.avg_reward_per_step == pytest.approx((96 / 4 + 17 / 3) / 2)


def test_summary_excludes_protocol_failures_from_rates():
    records = [
        make_record(96, 4, status="success"),
        make_record(50, 1, status="protocol_failure"),
    ]
    summary = summarize(records)
    assert summary.runs == 1
    assert summary.protocol_failures == 1
    assert summary.success_rate == pytest.approx(100.0)


def spend_record(status, prompt_tokens, completion_tokens, steps=1):
    from wumpusbench import ChatMessage, CompletionLog, UsageRecord
    from wumpusbench.harness import RoundRecord

    call = CompletionLog(
        role="model",
        model="m",
        messages=[ChatMessage("user", "x")],
        response="y",
        usage=UsageRecord(
            prompt_tokens, completion_tokens, prompt_tokens + completion_tokens, 1.0
        ),
    )
    record = make_record(50 - steps, steps, status=status)
    record.rounds[0].calls.append(call)
    return record


def test_summary_of_only_protocol_failures_reports_their_spend():
    records = [
        spend_record("protocol_failure", 100, 10),
        spend_record("protocol_failure", 300, 30),
    ]
    summary = summarize(records, {"m": Price(input_per_1k=1.0, output_per_1k=2.0)})
    assert (summary.runs, summary.protocol_failures) == (0, 2)
    assert (summary.total_prompt_tokens, summary.total_completion_tokens) == (400, 40)
    assert summary.total_cost == pytest.approx((400 * 1.0 + 40 * 2.0) / 1000)
    assert summary.avg_total_reward == summary.success_rate == summary.tps == 0.0
    assert (summary.min_steps, summary.max_steps) == (0, 0)
    text = summary.format_text()
    assert "Total runs              0" in text
    assert "Total prompt tokens     400" in text


def test_summary_totals_cover_every_episode_and_averages_only_completed():
    records = [
        spend_record("success", 1000, 500, steps=2),
        spend_record("protocol_failure", 200, 0),
    ]
    summary = summarize(records, {"m": Price(input_per_1k=1.0, output_per_1k=2.0)})
    assert (summary.runs, summary.protocol_failures) == (1, 1)
    assert summary.avg_prompt_tokens == 1000
    assert summary.avg_cost_per_step == pytest.approx(2.0 / 2)
    assert (summary.total_prompt_tokens, summary.total_completion_tokens) == (1200, 500)
    assert summary.total_cost == pytest.approx(2.0 + 0.2)
    assert summary.to_dict()["total_cost"] == summary.total_cost


def test_summary_rejects_empty_input():
    with pytest.raises(SummaryError):
        summarize([])


def test_cost_arithmetic_from_price_table():
    from wumpusbench import CompletionLog, ChatMessage, UsageRecord
    from wumpusbench.harness import RoundRecord

    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=0)
    call = CompletionLog(
        role="model",
        model="m",
        messages=[ChatMessage("user", "x")],
        response="y",
        usage=UsageRecord(1000, 500, 1500, latency=2.0),
    )
    record = EpisodeRecord(
        config=config,
        agent_kind="llm",
        mechanism="cos",
        models={"model": "m"},
        condition=None,
        rounds=[
            RoundRecord(
                index=0,
                observation=build_observation(generate_world(config)),
                action=Action.move(2, 1),
                provenance="model",
                reward_delta=-1,
                calls=[call],
            )
        ],
        status="exited",
        score=49,
        success=False,
        wumpus_killed=False,
    )
    summary = summarize([record], {"m": Price(input_per_1k=1.0, output_per_1k=2.0)})
    assert summary.avg_cost_per_step == pytest.approx(2.0)  # one step
    assert summary.avg_prompt_tokens == 1000
    assert summary.avg_completion_tokens == 500
    assert summary.avg_total_tokens == 1500
    assert summary.tps == pytest.approx(250.0)
    assert summary.avg_latency_per_step == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Mock-backed end-to-end episode


def test_llm_episode_through_harness_with_mock_endpoint():
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    replies = [
        MockReply(
            'Analysis: start\nGuess: {"wumpus": [], "pits": []}\n'
            "Action: move to position (2,1)",
            prompt_tokens=12,
            completion_tokens=34,
        ),
        MockReply(
            'Analysis: nothing\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>',
            prompt_tokens=40,
            completion_tokens=6,
        ),
    ]
    with MockChatServer(replies) as server:
        record = run_episode(
            config,
            LlmAgent(ChatClient(server.url, "mock-model", max_retries=0), 3),
            agent_kind="llm",
            mechanism="cos",
            models={"model": "mock-model"},
        )
    assert record.status == "exited"
    assert record.prompt_tokens() == 52
    assert record.completion_tokens() == 40
    assert record.total_tokens() == 92
    summary = summarize([record])
    assert summary.avg_total_tokens == 92


def test_script_from_json_accepts_both_shapes():
    replies = script_from_json(
        {"replies": [{"content": "a", "prompt_tokens": 1, "completion_tokens": 2}]}
    )
    assert replies[0].content == "a"
    replies = script_from_json([{"content": "b", "delay": 0.5}])
    assert replies[0].delay == 0.5


def test_the_readmes_price_table_and_mock_script_read_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    prices, script = map(json.loads, re.findall(r"```json\n(.*?)```", readme, re.DOTALL))
    assert price_table_from_dict(prices) == {"my-model": Price(0.15, 0.60)}
    [reply] = script_from_json(script)
    assert reply.content.startswith("Analysis: ...\nGuess: ")
    assert (reply.prompt_tokens, reply.completion_tokens, reply.delay) == (12, 34, 0.05)


def test_matrix_from_dict_listed_conditions_default_to_the_top_level_trials():
    matrix = matrix_from_dict(
        {
            "trials_per_condition": 4,
            "conditions": [
                {"grid_size": 3, "num_pits": 0, "num_wumpus": 1},
                {"grid_size": 4, "num_pits": 1, "num_wumpus": 1, "trials": 2},
            ],
        }
    )
    assert [len(seeds) for _, seeds in matrix.entries] == [4, 2]
    listed = matrix_from_dict(
        {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1}]}
    )
    assert listed.total_trials() == DEFAULT_TRIALS_PER_CONDITION

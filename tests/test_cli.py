from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

from wumpusbench import (
    ChatClient,
    ChatMessage,
    MockChatServer,
    MockReply,
    OracleAgent,
    cli,
    default_matrix,
    matrix_from_dict,
    read_records,
    verify_record,
)
from wumpusbench.cli import main


@pytest.fixture
def tiny_matrix(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "conditions": [
                    {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1, 2, 3]}
                ]
            }
        )
    )
    return str(path)


def test_run_oracle_writes_log_and_prints_summary(tiny_matrix, tmp_path, capsys):
    out = tmp_path / "episodes.jsonl"
    code = main(
        [
            "run",
            "--agent",
            "oracle",
            "--matrix",
            tiny_matrix,
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    assert len(read_records(out)) == 3
    stdout = capsys.readouterr().out
    assert "Total runs" in stdout
    assert "Success rate" in stdout


def test_replay_prints_frames(tiny_matrix, tmp_path, capsys):
    out = tmp_path / "episodes.jsonl"
    main(["run", "--agent", "oracle", "--matrix", tiny_matrix, "--out", str(out), "--quiet"])
    capsys.readouterr()
    code = main(["replay", "--log", str(out), "--episode", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "round 0: start" in stdout
    assert "y1" in stdout and "x1" in stdout


def test_summarize_reads_prices(tiny_matrix, tmp_path, capsys):
    out = tmp_path / "episodes.jsonl"
    main(["run", "--agent", "oracle", "--matrix", tiny_matrix, "--out", str(out), "--quiet"])
    prices = tmp_path / "prices.json"
    prices.write_text(json.dumps({"default": {"input_per_1k": 1.0, "output_per_1k": 2.0}}))
    capsys.readouterr()
    code = main(["summarize", "--log", str(out), "--prices", str(prices)])
    assert code == 0
    assert "Avg cost per step" in capsys.readouterr().out


def test_run_scripted_agent_from_action_file(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps(
            {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 0, "seeds": [9]}]}
        )
    )
    actions = tmp_path / "actions.json"
    actions.write_text(json.dumps(["<shootup>", "<exit>"]))
    code = main(
        [
            "run",
            "--agent",
            "scripted",
            "--actions",
            str(actions),
            "--matrix",
            str(matrix),
            "--quiet",
        ]
    )
    assert code == 0


def test_run_llm_against_mock_endpoint(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps(
            {"conditions": [{"grid_size": 3, "num_pits": 0, "num_wumpus": 0, "seeds": [9]}]}
        )
    )
    reply = 'Analysis: a\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>'
    with MockChatServer([MockReply(reply, 5, 5)]) as server:
        code = main(
            [
                "run",
                "--agent",
                "llm",
                "--mechanism",
                "cos",
                "--endpoint",
                server.url,
                "--model",
                "mock-model",
                "--matrix",
                str(matrix),
                "--quiet",
            ]
        )
    assert code == 0
    assert "Total runs" in capsys.readouterr().out


def test_run_llm_keeps_one_connection_across_episodes(tiny_matrix, capsys):
    reply = 'Analysis: a\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>'
    with MockChatServer([MockReply(reply, 5, 5)] * 3) as server:
        code = main(
            [
                "run",
                "--agent",
                "llm",
                "--endpoint",
                server.url,
                "--model",
                "mock-model",
                "--matrix",
                tiny_matrix,
                "--parallelism",
                "1",
                "--quiet",
            ]
        )
    assert code == 0
    assert len(server.peers) == 3
    assert len(set(server.peers)) == 1


def test_run_llm_gives_both_models_one_session_pooled_per_worker():
    args = cli.build_parser().parse_args(
        [
            "run",
            "--agent",
            "llm",
            "--mechanism",
            "planner-critic",
            "--endpoint",
            "https://api.example/v1",
            "--model",
            "planner",
            "--critic-model",
            "critic",
            "--parallelism",
            "16",
        ]
    )
    factory, _, models = cli._agent_factory(args, cli.RunConfig())
    agent = factory(SimpleNamespace(grid_size=3))
    assert models == {"planner": "planner", "critic": "critic"}
    assert agent.critic_client is not agent.planner_client
    session = agent.planner_client._session
    assert agent.critic_client._session is session
    pool = session.get_adapter("https://api.example/v1").poolmanager
    assert pool.connection_pool_kw["maxsize"] == 16


def test_cli_reports_package_errors_cleanly(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    missing.write_text("{broken\n")
    code = main(["summarize", "--log", str(missing)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_keeps_the_finished_episodes_of_an_interrupted_run(
    tiny_matrix, tmp_path, monkeypatch
):
    started = 0

    def interrupted_after_two(*args):
        nonlocal started
        started += 1
        if started == 3:
            raise KeyboardInterrupt
        return OracleAgent(*args)

    monkeypatch.setattr(cli, "OracleAgent", interrupted_after_two)
    out = tmp_path / "episodes.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--matrix", tiny_matrix, "--out", str(out), "--quiet"])
    records = read_records(out)
    assert [r.seed for r in records] == [1, 2]
    for record in records:
        verify_record(record)


def test_parallel_run_appends_every_record_once_and_whole(tmp_path, capsys):
    data = {
        "conditions": [
            {"grid_size": 3, "num_pits": 1, "num_wumpus": 1, "trials": 20},
            {"grid_size": 4, "num_pits": 2, "num_wumpus": 1, "trials": 20},
        ]
    }
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(data))
    out = tmp_path / "episodes.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost update
    try:
        code = main(
            ["run", "--matrix", str(matrix), "--parallelism", "8", "--out", str(out)]
        )
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    records = read_records(out)
    for record in records:
        verify_record(record)
    expected = [(c.label, cfg.seed) for c, cfg in matrix_from_dict(data).configs()]
    assert sorted((r.condition, r.seed) for r in records) == sorted(expected)
    progress = re.findall(r"^\[(\d+)/40\]", capsys.readouterr().err, re.MULTILINE)
    assert sorted(map(int, progress)) == list(range(1, 41))


@pytest.mark.parametrize(
    "conditions, message",
    [
        (
            [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [4, 4]}],
            "condition 0 .*duplicate seeds",
        ),
        (
            [
                {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1]},
                {"num_pits": 0, "num_wumpus": 1, "seeds": [2]},
            ],
            "condition 1: .*grid_size",
        ),
    ],
    ids=["duplicate-seeds", "missing-grid-size"],
)
def test_run_reports_a_bad_matrix_file_as_an_error(
    tmp_path, capsys, conditions, message
):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"conditions": conditions}))
    assert main(["run", "--matrix", str(matrix), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert re.search(f"^error: {message}", captured.err)
    assert "Traceback" not in captured.err


def test_run_refuses_a_negative_seed_in_a_matrix_file(tmp_path, capsys):
    conditions = [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [7, -7]}]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"conditions": conditions}))
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--matrix", str(matrix), "--quiet", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: condition 0 (3x3_p0_w1) has a negative seed -7"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("step_limit", "x"), ("master_seed", [1])], ids=["text", "list"]
)
def test_run_reports_a_malformed_top_level_matrix_field(tmp_path, capsys, field, value):
    conditions = [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1}]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({field: value, "conditions": conditions}))
    assert main(["run", "--matrix", str(matrix), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert re.search(f"^error: matrix: MatrixFile.{field} must be int, not ", captured.err)
    assert "Traceback" not in captured.err


def test_matrix_default_flag_wins_over_the_config_matrix(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "matrix": {
                    "conditions": [
                        {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1, 2]}
                    ]
                }
            }
        )
    )
    out = tmp_path / "episodes.jsonl"
    args = ["run", "--config", str(config), "--out", str(out), "--quiet"]
    assert main(args) == 0
    assert len(read_records(out)) == 2
    out.unlink()
    assert main([*args, "--matrix", "default"]) == 0
    assert len(read_records(out)) == 150


def test_seed_and_step_limit_flags_set_the_default_matrix(tmp_path):
    out = tmp_path / "episodes.jsonl"
    argv = ["run", "--seed", "7", "--step-limit", "3", "--quiet", "--out", str(out)]
    assert main(argv) == 0
    records = read_records(out)
    expected = default_matrix(master_seed=7, step_limit=3).configs()
    assert [r.config for r in records] == [config for _, config in expected]


V1_LOG = Path(__file__).resolve().parent / "fixtures" / "v1.jsonl"


@pytest.mark.parametrize("episode", range(len(V1_LOG.read_text().splitlines())))
def test_replay_verifies_every_v1_fixture_episode(episode, capsys):
    assert main(["replay", "--log", str(V1_LOG), "--episode", str(episode)]) == 0
    assert f"episode {episode}:" in capsys.readouterr().out


def test_summarize_reads_the_v1_fixture(capsys):
    assert main(["summarize", "--log", str(V1_LOG)]) == 0
    assert "Total runs" in capsys.readouterr().out


# An llm run's config with one more field; the endpoint is never contacted,
# because a malformed field is reported before any episode starts.
LLM_CONFIG = '{"endpoint": "http://127.0.0.1:9/v1", "model": "m", %s}'


def stop_mock_serve_at_once(monkeypatch, argv):
    """Make an in-process ``mock-serve`` stop at its first sleep, as on
    Ctrl-C: a script that the loader wrongly accepts then makes the command
    return 0, and the test fail, instead of serving forever."""

    def interrupt(seconds):
        raise KeyboardInterrupt

    if argv[0] == "mock-serve":
        monkeypatch.setattr(cli.time, "sleep", interrupt)


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("matrix.json", '{"conditions": 5}', ["run", "--matrix"], "conditions: "),
        ("matrix.json", "[1, 2]", ["run", "--matrix"], "matrix: "),
        ("config.json", "[1]", ["run", "--config"], "config.json: "),
        (
            "script.json",
            '[{"content": "x", "delay": "soon"}]',
            ["mock-serve", "--script"],
            "reply 0: ",
        ),
        ("script.json", "[]", ["mock-serve", "--script"], "must not be empty"),
        (
            "prices.json",
            '{"default": {"input_per_1k": "x"}}',
            ["summarize", "--log", str(V1_LOG), "--prices"],
            "price 'default': ",
        ),
        (
            "config.json",
            '{"prices": {"default": {"input_per_1k": "x"}}}',
            ["run", "--quiet", "--out", "episodes.jsonl", "--config"],
            "price 'default': ",
        ),
        ("matrix.json", "{broken", ["run", "--matrix"], "matrix.json: invalid JSON"),
        ("matrix.json", "[" * 200_000, ["run", "--matrix"], "matrix.json: invalid JSON"),
        ("episodes.jsonl", "[" * 200_000, ["summarize", "--log"], "episodes.jsonl: line 1: "),
        (
            "matrix.json",
            '{"conditions": [{"grid_size": 2, "num_pits": 2, "num_wumpus": 1, "trials": 3}]}',
            ["run", "--matrix"],
            "condition 0 (2x2_p2_w1): 2 pits and 1 wumpus do not fit",
        ),
        (
            "matrix.json",
            '{"trials_per_condition": 1}',
            ["run", "--quiet", "--out", "episodes.jsonl", "--seed", "7", "--matrix"],
            "--seed and --step-limit apply only to the default matrix",
        ),
        (
            "config.json",
            '{"matrix": {"trials_per_condition": 1}}',
            ["run", "--quiet", "--out", "episodes.jsonl", "--step-limit", "3", "--config"],
            "--seed and --step-limit apply only to the default matrix",
        ),
        (None, None, ["replay", "--log"], "missing.jsonl"),
        (
            "config.json",
            LLM_CONFIG % '"temperature": "hot"',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.temperature must be float, not 'hot'",
        ),
        (
            "config.json",
            LLM_CONFIG % '"mechanism": 5',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.mechanism must be str, not 5",
        ),
        (
            "config.json",
            LLM_CONFIG % '"mechanism": "planner-critic", "critic_threshold": [1]',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.critic_threshold must be float, not [1]",
        ),
        (
            "config.json",
            '{"endpoint": 123, "model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.endpoint must be str | None, not 123",
        ),
        (
            "config.json",
            '{"endpoint": "not a url", "model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "endpoint: expected an http or https URL with a host, not 'not a url'",
        ),
        (
            "config.json",
            '{"endpoint": "ftp://h/v1", "model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "endpoint: expected an http or https URL",
        ),
        (
            "config.json",
            '{"endpoint": "http://", "model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "endpoint: expected an http or https URL",
        ),
        (
            "config.json",
            '{"endpoint": "http://h:99999/v1", "model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "endpoint: Port out of range",
        ),
        (
            "config.json",
            '{"endpoint": "http://127.0.0.1:9/v1", "model": 5}',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.model must be str | None, not 5",
        ),
        (
            "config.json",
            LLM_CONFIG % '"mechanism": "planner-critic", "critic_model": ["c"]',
            ["run", "--agent", "llm", "--config"],
            "RunConfig.critic_model must be str | None, not ['c']",
        ),
        (
            "config.json",
            LLM_CONFIG % '"mechanism": "planner-critic", "critic_threshold": 1.5',
            ["run", "--agent", "llm", "--config"],
            "threshold must be in [0, 1]",
        ),
        (
            "actions.json",
            '["move to position (2,1)", "jump"]',
            ["run", "--agent", "scripted", "--actions"],
            "actions.json: action 1: no recognizable action",
        ),
        (
            "actions.json",
            '["<exit>", 5]',
            ["run", "--agent", "scripted", "--actions"],
            "actions.json: action 1: expected a string",
        ),
        (
            "actions.json",
            '{"0": "<exit>"}',
            ["run", "--agent", "scripted", "--actions"],
            "actions.json: expected a JSON list",
        ),
        (
            "config.json",
            "{}",
            ["run", "--agent", "scripted", "--config"],
            "--actions FILE is required with --agent scripted",
        ),
        (
            "config.json",
            '{"model": "m"}',
            ["run", "--agent", "llm", "--config"],
            "--endpoint and --model are required with --agent llm",
        ),
        (
            "config.json",
            LLM_CONFIG % '"mechanism": "tot"',
            ["run", "--agent", "llm", "--config"],
            "unknown mechanism 'tot'",
        ),
    ],
    ids=[
        "matrix-conditions-not-a-list",
        "matrix-not-an-object",
        "config-not-an-object",
        "script-delay-not-a-number",
        "script-empty",
        "price-not-a-number",
        "config-price-not-a-number",
        "invalid-json",
        "too-deeply-nested-json",
        "too-deeply-nested-log",
        "matrix-condition-does-not-fit",
        "matrix-file-with-seed-flag",
        "config-matrix-with-step-limit-flag",
        "missing-log",
        "config-temperature-not-a-number",
        "config-mechanism-not-a-string",
        "config-critic-threshold-not-a-number",
        "config-endpoint-not-a-string",
        "config-endpoint-not-a-url",
        "config-endpoint-not-http",
        "config-endpoint-without-host",
        "config-endpoint-port-out-of-range",
        "config-model-not-a-string",
        "config-critic-model-not-a-string",
        "config-critic-threshold-out-of-range",
        "actions-not-an-action",
        "actions-not-a-string",
        "actions-not-a-list",
        "scripted-without-actions",
        "llm-without-endpoint",
        "config-unknown-mechanism",
    ],
)
def test_cli_reports_a_malformed_input_file_as_an_error(
    tmp_path, capsys, monkeypatch, name, text, argv, message
):
    monkeypatch.chdir(tmp_path)
    stop_mock_serve_at_once(monkeypatch, argv)
    path = tmp_path / (name or "missing.jsonl")
    if text is not None:
        path.write_text(text)
    assert main([*argv, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    # Refused before the first episode: no record was written.
    assert list(tmp_path.iterdir()) == ([path] if text is not None else [])


TINY_CONDITION = {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "seeds": [1]}


def _v1_line_with_flags(flags) -> str:
    data = json.loads(V1_LOG.read_text().splitlines()[0])
    data["rounds"][0]["flags"] = flags
    return json.dumps(data)


@pytest.mark.parametrize(
    "name, data, argv, key",
    [
        ("config.json", {"critic_treshold": 0.2}, ["--config"], "critic_treshold"),
        ("config.json", {"temprature": 0.5}, ["--config"], "temprature"),
        ("config.json", {"temperature": "0.5"}, ["--config"], "temperature"),
        ("matrix.json", {"master_sed": 5}, ["--matrix"], "master_sed"),
        ("matrix.json", {"trails_per_condition": 3}, ["--matrix"], "trails_per_condition"),
        (
            "matrix.json",
            {"conditions": [{**TINY_CONDITION, "grid_size": 4.9}]},
            ["--matrix"],
            "grid_size",
        ),
        (
            "matrix.json",
            {"conditions": [{**TINY_CONDITION, "num_pits": True}]},
            ["--matrix"],
            "num_pits",
        ),
        (
            "matrix.json",
            {"conditions": [{**TINY_CONDITION, "seeds": [1.7]}]},
            ["--matrix"],
            "seeds",
        ),
        (
            "matrix.json",
            {"step_limit": 12.5, "conditions": [TINY_CONDITION]},
            ["--matrix"],
            "step_limit",
        ),
        (
            "prices.json",
            {"default": {"input_per_1K": 0.5}},
            ["summarize", "--log", str(V1_LOG), "--prices"],
            "input_per_1K",
        ),
        (
            "prices.json",
            {"default": {"input_per_1k": True}},
            ["summarize", "--log", str(V1_LOG), "--prices"],
            "input_per_1k",
        ),
        (
            "script.json",
            [{"content": "Action: <exit>", "completion_token": 40}],
            ["mock-serve", "--port", "0", "--script"],
            "completion_token",
        ),
        ("log.jsonl", _v1_line_with_flags([1]), ["summarize", "--log"], "flags"),
        (
            "script.json",
            [{"content": "a"}, {"content": "<exit>", "delay": float("inf")}],
            ["mock-serve", "--port", "0", "--script"],
            "reply 1: delay",
        ),
        (
            "script.json",
            [{"content": "<exit>", "prompt_tokens": -3}],
            ["mock-serve", "--port", "0", "--script"],
            "reply 0: token counts must not be negative: prompt_tokens",
        ),
        (
            "config.json",
            '{"endpoint": "http://127.0.0.1:9/v1", "model": "m"}',
            ["--agent", "llm", "--temperature", "nan", "--config"],
            "temperature must be a finite number, not nan",
        ),
        (
            "config.json",
            LLM_CONFIG % '"temperature": NaN',
            ["--agent", "llm", "--config"],
            "temperature must be a finite number, not nan",
        ),
        (
            "config.json",
            LLM_CONFIG % '"temperature": -Infinity',
            ["--agent", "llm", "--config"],
            "temperature must be a finite number, not -inf",
        ),
        (
            "script.json",
            [{"content": "<exit>"}],
            ["mock-serve", "--port", "70000", "--script"],
            "port must be in 0..65535, not 70000",
        ),
        (
            "script.json",
            [{"content": "<exit>"}],
            ["mock-serve", "--port", "-1", "--script"],
            "port must be in 0..65535, not -1",
        ),
    ],
    ids=[
        "config-unknown-key",
        "config-misspelt-temperature",
        "config-string-temperature",
        "matrix-unknown-key",
        "matrix-misspelt-trials",
        "matrix-fractional-grid-size",
        "matrix-bool-pits",
        "matrix-fractional-seed",
        "matrix-fractional-step-limit",
        "prices-unknown-key",
        "prices-bool-price",
        "script-unknown-key",
        "log-int-flag",
        "script-infinite-delay",
        "script-negative-tokens",
        "flag-nan-temperature",
        "config-nan-temperature",
        "config-infinite-temperature",
        "mock-serve-port-above-range",
        "mock-serve-negative-port",
    ],
)
def test_an_unknown_or_mistyped_input_key_is_refused_by_name(
    tmp_path, capsys, monkeypatch, name, data, argv, key
):
    monkeypatch.chdir(tmp_path)
    stop_mock_serve_at_once(monkeypatch, argv)
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    if argv[0].startswith("--"):  # a run: its log would show any episode played
        argv = ["run", "--quiet", "--out", "episodes.jsonl", *argv]
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and key in line
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


def test_mock_serve_prints_its_url_at_once_and_stops_cleanly_on_interrupt(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"replies": [{"content": "hello", "prompt_tokens": 2}]}))
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["mock-serve", "--port", "0", "--script", str(script)]
    child = subprocess.Popen(
        [sys.executable, "-m", "wumpusbench.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        # Unflushed, the line would wait in the child's buffer until it exits.
        assert select.select([child.stdout], [], [], 30)[0], "no URL line"
        url = re.match(r"mock chat endpoint at (\S+) ", child.stdout.readline())[1]
        session = requests.Session()
        session.trust_env = False  # straight to the local port, whatever the proxies
        client = ChatClient(url, "m", max_retries=0, session=session)
        content, usage = client.complete([ChatMessage("user", "hi")])
        assert (content, usage.prompt_tokens) == ("hello", 2)
        session.close()
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=30) == 0
        assert "Traceback" not in child.stderr.read()
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
        child.stderr.close()


@pytest.mark.parametrize("parallelism", ["0", "-2"])
def test_run_refuses_a_parallelism_below_one(tmp_path, capsys, parallelism):
    out = tmp_path / "episodes.jsonl"
    code = main(["run", "--parallelism", parallelism, "--out", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: parallelism: expected at least 1, not {parallelism}\n"
    )
    assert not out.exists()


def test_replay_says_an_empty_log_holds_no_episodes(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    assert main(["replay", "--log", str(log)]) == 1
    assert capsys.readouterr().err == f"error: {log}: the log holds no episodes\n"
    assert main(["replay", "--log", str(V1_LOG), "--episode", "5"]) == 1
    assert capsys.readouterr().err == "error: episode index 5 out of range 0..4\n"

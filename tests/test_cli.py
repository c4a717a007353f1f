from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from wumpusbench import (
    MockChatServer,
    MockReply,
    OracleAgent,
    cli,
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


@pytest.mark.parametrize(
    "field, value", [("step_limit", "x"), ("master_seed", [1])], ids=["text", "list"]
)
def test_run_reports_a_malformed_top_level_matrix_field(tmp_path, capsys, field, value):
    conditions = [{"grid_size": 3, "num_pits": 0, "num_wumpus": 1}]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({field: value, "conditions": conditions}))
    assert main(["run", "--matrix", str(matrix), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert re.search(f"^error: {field}: malformed field", captured.err)
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


V1_LOG = Path(__file__).resolve().parent / "fixtures" / "v1.jsonl"


@pytest.mark.parametrize("episode", range(len(V1_LOG.read_text().splitlines())))
def test_replay_verifies_every_v1_fixture_episode(episode, capsys):
    assert main(["replay", "--log", str(V1_LOG), "--episode", str(episode)]) == 0
    assert f"episode {episode}:" in capsys.readouterr().out


def test_summarize_reads_the_v1_fixture(capsys):
    assert main(["summarize", "--log", str(V1_LOG)]) == 0
    assert "Total runs" in capsys.readouterr().out

"""The episode-log format against a checked-in v1 log.

``fixtures/v1.jsonl`` was written by the v1 codec that encoded and decoded
each record type field by field by hand, before the field-driven codec
replaced it. It holds an oracle win, an oracle episode with a kill shot, a
scripted shot, a planner-critic win with a critic override, a
``malformed-guess`` flag and a parse retry, and a ``protocol_failure``
episode that keeps its calls. ``fixtures/v1_frames.json`` holds the frames
the v1 code rendered for each of them.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from wumpusbench import (
    ChatClient,
    LogCorruptionError,
    MockChatServer,
    MockReply,
    PlannerCriticAgent,
    WorldConfig,
    parse_action,
    read_records,
    render_frames,
    run_episode,
    verify_record,
    write_records,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
V1_LOG = FIXTURES / "v1.jsonl"


def v1_lines() -> list[str]:
    return V1_LOG.read_text(encoding="utf-8").splitlines()


def test_v1_log_covers_the_logged_cases():
    records = read_records(V1_LOG)
    rounds = [r for record in records for r in record.rounds]
    assert any(r.success and r.agent_kind == "oracle" for r in records)
    assert any(r.wumpus_killed for r in records)
    assert any(r.provenance == "critic" for r in rounds)
    assert any("malformed-guess" in r.flags for r in rounds)
    retried = [r for r in rounds if "unparseable-action" in r.flags]
    assert any(r.provenance != "none" for r in retried)
    [failed] = [r for r in records if r.status == "protocol_failure"]
    assert failed.rounds[-1].calls


def test_every_v1_line_reads_verifies_and_encodes_back_unchanged(tmp_path):
    lines = v1_lines()
    records = read_records(V1_LOG)
    assert len(records) == len(lines)
    out = tmp_path / "rewritten.jsonl"
    write_records(out, records)
    for line, record, rewritten in zip(lines, records, out.read_text().splitlines()):
        verify_record(record)
        assert record.to_dict() == json.loads(line)
        assert json.loads(rewritten) == json.loads(line)
        assert len(rewritten) == len(line)


def test_played_episode_reads_back_as_the_record_that_was_written(tmp_path):
    # Dataclass equality compares nested types too, so a message left as a
    # dict or an action left as text would not read back equal.
    script = [
        MockReply("Analysis: thinking about it\nGuess: none", 210, 9),
        MockReply(
            "Analysis: start\nGuess: not json\nAction: move to position (2,1)", 230, 14
        ),
        MockReply(
            "Confidence: 0.3\nAlternative: move to position (1,2)\nRationale: safer",
            180,
            12,
        ),
        MockReply(
            'Analysis: quiet\nGuess: {"wumpus": [[3, 1]], "pits": [[2, 3]]}\n'
            "Action: move to position (2,2)",
            260,
            21,
        ),
        MockReply("Confidence: 0.9\nAlternative: none\nRationale: fine", 190, 8),
    ]
    with MockChatServer(script) as server:
        agent = PlannerCriticAgent(ChatClient(server.url, "m", max_retries=0), 3)
        record = run_episode(
            WorldConfig(3, 1, 1, 6), agent, agent_kind="llm", mechanism="planner_critic"
        )
    assert [c.role for c in record.rounds[0].calls] == ["planner", "planner", "critic"]
    assert record.rounds[1].guess is not None
    path = tmp_path / "played.jsonl"
    write_records(path, [record])
    assert read_records(path) == [record]


def test_frames_of_v1_episodes_are_unchanged():
    expected = json.loads((FIXTURES / "v1_frames.json").read_text(encoding="utf-8"))
    assert [render_frames(r) for r in read_records(V1_LOG)] == expected


DROP = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("rounds", 0, "action"), "dance", "no recognizable action"),
        (("config", "grid_size"), 1, "grid_size"),
        (("seed",), 12345, "seed"),
        (("seed",), DROP, "seed"),
        (("rounds", 0, "mood"), "calm", "mood"),
        (("mechanism",), DROP, "mechanism"),
        (("config", "colour"), "red", "colour"),
    ],
    ids=[
        "unparseable-action",
        "invalid-config",
        "seed-mismatch",
        "missing-seed",
        "unknown-round-key",
        "missing-required-key",
        "unknown-config-key",
    ],
)
def test_undecodable_line_is_named_as_log_corruption(tmp_path, path, value, message):
    lines = v1_lines()
    data = json.loads(lines[1])
    *parents, key = path
    target = reduce(getitem, parents, data)
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(f"{lines[0]}\n{json.dumps(data)}\n", encoding="utf-8")
    with pytest.raises(LogCorruptionError, match=rf"bad\.jsonl: line 2: .*{message}"):
        read_records(bad)


def test_non_canonical_action_text_is_log_corruption(tmp_path):
    # The reply parser reads this as a shot up, which the log would write
    # back as "<shootup>": a different line, so not one the log wrote.
    text = "I will not <exit> but <shootup>"
    assert parse_action(text).to_text() == "<shootup>"
    lines = v1_lines()
    data = json.loads(lines[1])
    data["rounds"][0]["action"] = text
    bad = tmp_path / "bad.jsonl"
    bad.write_text(f"{lines[0]}\n{json.dumps(data)}\n", encoding="utf-8")
    with pytest.raises(
        LogCorruptionError, match=r"bad\.jsonl: line 2: non-canonical action text"
    ):
        read_records(bad)


def test_missing_optional_key_takes_its_default(tmp_path):
    data = json.loads(v1_lines()[0])
    del data["error"]
    for round_data in data["rounds"]:
        del round_data["calls"], round_data["guess"]
    path = tmp_path / "short.jsonl"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    [record] = read_records(path)
    assert record.error is None
    assert all(r.calls == [] and r.guess is None for r in record.rounds)
    verify_record(record)

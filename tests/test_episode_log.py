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
import random
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from helpers import ScriptedCompleter, reference_decode_action
from wumpusbench import (
    Action,
    ChatClient,
    LlmAgent,
    MockChatServer,
    MockReply,
    OracleAgent,
    PlannerCriticAgent,
    ScriptedAgent,
    WorldConfig,
    parse_action,
    read_records,
    render_frames,
    run_episode,
    verify_record,
    write_records,
)
from wumpusbench.errors import LogCorruptionError, WumpusBenchError
from wumpusbench.harness import _decode_action

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
    agent = PlannerCriticAgent(ScriptedCompleter(script, "m"), 3)
    record = run_episode(
        WorldConfig(3, 1, 1, 6), agent, agent_kind="llm", mechanism="planner_critic"
    )
    assert [c.role for c in record.rounds[0].calls] == ["planner", "planner", "critic"]
    assert record.rounds[1].guess is not None
    path = tmp_path / "played.jsonl"
    write_records(path, [record])
    assert read_records(path) == [record]


def play_planner_critic_log(path: Path, seeds) -> list[dict]:
    """Play a one-round planner-critic episode per seed against the mock
    endpoint, write their records to ``path``, and return the request bodies
    that the endpoint kept. Each episode makes the same three calls: the
    planner is asked again after a reply without an action."""
    script = [
        MockReply("Analysis: thinking about it\nGuess: none", 210, 9),
        MockReply('Analysis: quiet\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>', 230, 14),
        MockReply("Confidence: 0.9\nAlternative: none\nRationale: fine", 190, 8),
    ] * len(seeds)
    with MockChatServer(script) as server:
        records = [
            run_episode(
                WorldConfig(3, 0, 0, seed),
                PlannerCriticAgent(ChatClient(server.url, "m", max_retries=0), 3),
                agent_kind="llm",
                mechanism="planner_critic",
            )
            for seed in seeds
        ]
        assert len(server.requests) == len(script)
    assert all(r.status == "exited" for r in records)
    write_records(path, records, append=False)
    return server.requests


def test_a_read_log_holds_each_message_text_once(tmp_path):
    # Every call of a role repeats its system prompt; read back, the texts
    # of all calls of all records are one object.
    path = tmp_path / "planner-critic.jsonl"
    play_planner_critic_log(path, seeds=(1, 2, 3))
    records = read_records(path)
    for role in ("planner", "critic"):
        texts = [
            m.content
            for r in records
            for rd in r.rounds
            for c in rd.calls
            if c.role == role
            for m in c.messages
            if m.role == "system"
        ]
        assert len(texts) == {"planner": 6, "critic": 3}[role]
        assert all(text is texts[0] for text in texts)
    by_text = {}
    for message in (m for r in records for rd in r.rounds for c in rd.calls for m in c.messages):
        assert by_text.setdefault(message.content, message.content) is message.content
    assert [r.to_dict() for r in records] == [
        json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
    ]


def test_the_mock_endpoint_keeps_each_request_text_once(tmp_path):
    requests = play_planner_critic_log(tmp_path / "planner-critic.jsonl", seeds=(1, 2))
    systems = [m["content"] for r in requests for m in r["messages"] if m["role"] == "system"]
    assert len(systems) == 6 and len(set(systems)) == 2
    assert len({id(text) for text in systems}) == 2


def test_frames_of_v1_episodes_are_unchanged():
    expected = json.loads((FIXTURES / "v1_frames.json").read_text(encoding="utf-8"))
    assert [render_frames(r) for r in read_records(V1_LOG)] == expected


def replay_agent(record, replies):
    """A fresh agent of the record's kind, mechanism and models; the
    completer of each model name draws on ``replies``, one shared iterator."""
    config = record.config
    if record.agent_kind == "oracle":
        return OracleAgent(config.grid_size, config.num_pits, config.num_wumpus)
    if record.agent_kind == "scripted":
        return ScriptedAgent([r.action for r in record.rounds])
    clients = {name: ScriptedCompleter(replies, model) for name, model in record.models.items()}
    if record.mechanism == "planner_critic":
        return PlannerCriticAgent(
            clients["planner"], config.grid_size, critic_client=clients["critic"]
        )
    return LlmAgent(clients["model"], config.grid_size, mechanism=record.mechanism)


@pytest.mark.parametrize("episode", range(len(v1_lines())))
def test_v1_episode_plays_again_from_its_logged_decisions(episode):
    # Every prompt sent, reply parsed, flag, guess and provenance must come
    # out as logged; only call latencies may differ.
    record = read_records(V1_LOG)[episode]
    replies = (
        MockReply(c.response, c.usage.prompt_tokens, c.usage.completion_tokens)
        for r in record.rounds
        for c in r.calls
    )
    played = run_episode(
        record.config,
        replay_agent(record, replies),
        agent_kind=record.agent_kind,
        mechanism=record.mechanism,
        models=record.models,
        condition=record.condition,
    )
    assert next(replies, None) is None
    assert played.core_fingerprint() == record.core_fingerprint()


DROP = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("rounds", 0, "action"), "dance", "no recognizable action"),
        (("config", "grid_size"), 1, "grid_size"),
        (("seed",), 12345, "seed"),
        (("seed",), DROP, "seed"),
        (("seed",), 1622631747.0, "seed"),  # equal to config.seed, but a float
        (("rounds", 0, "mood"), "calm", "mood"),
        (("mechanism",), DROP, "mechanism"),
        (("config", "colour"), "red", "colour"),
        (("models", "model"), 5, r"EpisodeRecord\.models must be dict\[str, str\]"),
        (("models", "model"), None, r"EpisodeRecord\.models must be"),
        (("models",), ["model"], r"EpisodeRecord\.models must be"),
        (("rounds", 0, "guess"), 7, r"RoundRecord\.guess must be"),
        (("rounds", 0, "guess"), {"wumpus": []}, r"RoundRecord\.guess must be"),
        (
            ("rounds", 0, "guess"),
            {"wumpus": [], "pits": [], "note": ""},
            r"RoundRecord\.guess must be",
        ),
        (("rounds", 0, "guess"), {"wumpus": [[1.9, True]], "pits": []}, "guess must be"),
        (("rounds", 0, "guess"), {"wumpus": [], "pits": [["2", "1"]]}, "guess must be"),
        (("rounds", 0, "guess"), {"wumpus": [[2, 2, 1]], "pits": []}, "guess must be"),
        (("rounds", 0, "guess"), {"wumpus": [], "pits": [3, 1]}, "guess must be"),
    ],
    ids=[
        "unparseable-action",
        "invalid-config",
        "seed-mismatch",
        "missing-seed",
        "float-seed",
        "unknown-round-key",
        "missing-required-key",
        "unknown-config-key",
        "int-model-name",
        "null-model-name",
        "models-not-an-object",
        "int-guess",
        "guess-without-pits",
        "guess-with-another-key",
        "float-and-bool-guess-cell",
        "text-guess-cell",
        "three-number-guess-cell",
        "guess-cell-not-a-pair",
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


@pytest.mark.parametrize(
    "edits, message",
    [
        ({("rounds", 0, "index"): "zero"}, "RoundRecord.index must be int"),
        ({("rounds", 0, "reward_delta"): -1.0}, "RoundRecord.reward_delta must be int"),
        ({("success",): 1}, "EpisodeRecord.success must be bool"),
        ({("config", "seed"): True}, "WorldConfig.seed must be int"),
        ({("error",): 3}, "EpisodeRecord.error must be str | None"),
        ({("rounds", 0, "flags"): [1, None]}, r"RoundRecord.flags must be list\[str\]"),
        ({("rounds", 0, "flags"): "unparseable"}, r"RoundRecord.flags must be list\[str\]"),
        (
            {
                ("rounds", 0, "index"): "zero",
                ("rounds", 0, "reward_delta"): -1.0,
                ("success",): 1,
            },
            "must be",
        ),
    ],
    ids=[
        "str-for-int",
        "float-for-int",
        "int-for-bool",
        "bool-for-int",
        "int-for-str",
        "int-in-str-list",
        "str-for-str-list",
        "all-three",
    ],
)
def test_wrongly_typed_scalar_is_log_corruption(tmp_path, edits, message):
    data = json.loads(v1_lines()[0])
    for (*parents, key), value in edits.items():
        reduce(getitem, parents, data)[key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(data) + "\n", encoding="utf-8")
    with pytest.raises(LogCorruptionError, match=rf"bad\.jsonl: line 1: .*{message}"):
        read_records(bad)


def test_integer_is_read_where_a_float_is_annotated(tmp_path):
    data = next(json.loads(line) for line in v1_lines() if '"latency"' in line)
    call = next(c for r in data["rounds"] for c in r["calls"])
    call["usage"]["latency"] = 2
    path = tmp_path / "int-latency.jsonl"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    [record] = read_records(path)
    assert next(c for r in record.rounds for c in r.calls).usage.latency == 2


@pytest.mark.parametrize(
    "usage, message",
    [
        (
            {"prompt_tokens": -5, "completion_tokens": 3, "total_tokens": -2},
            r"token counts must not be negative: prompt_tokens is -5",
        ),
        (
            {"prompt_tokens": 5, "completion_tokens": -3, "total_tokens": 2},
            r"token counts must not be negative: completion_tokens is -3",
        ),
        (
            {"prompt_tokens": 5, "completion_tokens": 3, "total_tokens": 999},
            r"total_tokens 999 != prompt_tokens 5 \+ completion_tokens 3",
        ),
        (
            {"latency": float("nan")},
            r"latency must be finite and not negative, not nan",
        ),
        (
            {"latency": float("inf")},
            r"latency must be finite and not negative, not inf",
        ),
        (
            {"latency": -3.5},
            r"latency must be finite and not negative, not -3\.5",
        ),
    ],
    ids=[
        "negative-prompt-tokens",
        "negative-completion-tokens",
        "total-not-the-sum",
        "nan-latency",
        "infinite-latency",
        "negative-latency",
    ],
)
def test_an_impossible_token_count_is_log_corruption(tmp_path, usage, message):
    data = next(json.loads(line) for line in v1_lines() if '"latency"' in line)
    call = next(c for r in data["rounds"] for c in r["calls"])
    call["usage"].update(usage)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(data) + "\n", encoding="utf-8")
    with pytest.raises(LogCorruptionError, match=rf"bad\.jsonl: line 1: {message}$"):
        read_records(bad)


def test_blank_lines_between_records_are_skipped(tmp_path):
    first, second = v1_lines()[:2]
    path = tmp_path / "spaced.jsonl"
    path.write_text(f"\n{first}\n\n  \t\n{second}\n\n", encoding="utf-8")
    assert read_records(path) == read_records(V1_LOG)[:2]


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


CANONICAL_ACTIONS = [
    *(f"move to position ({x},{y})" for x in range(13) for y in range(13)),
    *(f"<shoot{d}>" for d in ("up", "down", "left", "right")),
    "<exit>",
]
NEAR_MISSES = [
    "move to position (01,2)",
    "move to position (1,02)",
    "move to position ( 1,2)",
    "move to position (1, 2)",
    "Move to position (1,2)",
    "move  to position (1,2)",
    "move to (1,2)",
    "move to position (1,2) ",
    "move to position (1,2)\n",
    "I move to position (1,2)",
    "move to position (-1,2)",
    "move to position (\u0661,\u0662)",  # Arabic-Indic digits
    "move to position (1,2) <exit>",
    "<SHOOTUP>",
    "<shoot up>",
    "< exit>",
    "<exit> ",
    "<exit><exit>",
    "",
]
# Characters that random edits of canonical texts put in.
EDIT_CHARS = "move topsiñ(),0123456789-<>hexitMOVE \t\n\u0663\uff11"


def mutated(rng: random.Random, text: str) -> str:
    """``text`` with one to three random deletions, insertions or
    replacements of a character."""
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 and i < len(chars):
            del chars[i]
        elif edit == 1:
            chars.insert(i, rng.choice(EDIT_CHARS))
        elif i < len(chars):
            chars[i] = rng.choice(EDIT_CHARS)
    return "".join(chars)


def decoded(decode, text):
    try:
        return decode(text)
    except (ValueError, WumpusBenchError) as exc:
        return type(exc), str(exc)


def test_action_decoder_accepts_exactly_what_the_reference_accepts():
    rng = random.Random(7)
    randoms = [mutated(rng, rng.choice(CANONICAL_ACTIONS)) for _ in range(4000)]
    randoms += [
        "".join(map(chr, rng.choices(range(32, 127), k=rng.randrange(1, 30))))
        for _ in range(1000)
    ]
    for text in CANONICAL_ACTIONS:
        action = _decode_action(text)
        assert action == reference_decode_action(text)
        assert action.to_text() == text
    for text in NEAR_MISSES + randoms:
        assert decoded(_decode_action, text) == decoded(reference_decode_action, text)
    assert all(isinstance(decoded(_decode_action, t), tuple) for t in NEAR_MISSES)


def test_a_move_text_decodes_to_one_shared_action():
    for text in ("move to position (3,7)", "<shootleft>", "<exit>"):
        assert _decode_action(text) is _decode_action(text)
    # A refused text is refused again, not remembered.
    for _ in range(2):
        assert decoded(_decode_action, "move to position (01,2)")[0] is LogCorruptionError


def test_a_read_action_is_the_object_the_parser_and_the_constructor_hand_out():
    action = _decode_action("move to position (3,7)")
    assert action is parse_action("Action: move to position (3,7)")
    assert action is Action.move(3, 7)
    assert _decode_action("<shootup>") is parse_action("<SHOOTUP>") is Action.shoot("up")
    assert _decode_action("<exit>") is Action.exit()

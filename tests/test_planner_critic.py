from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_ALTERNATIVE_RE, REFERENCE_CONFIDENCE_RE, ScriptedCompleter, make_world
from wumpusbench import (
    Action,
    ArbitrationConfig,
    CriticVerdict,
    MockReply,
    PlannerCriticAgent,
    arbitrate,
    build_observation,
)
from wumpusbench.errors import ActionParseError, ArbitrationError, ConfigurationError
from wumpusbench.llm import MAX_PARSE_RETRIES
from wumpusbench.planner_critic import (
    _ALTERNATIVE_RE,
    _CONFIDENCE_RE,
    critique,
    parse_critic_verdict,
)

PLANNER_REPLY = (
    "Analysis: the frontier is quiet so far.\n"
    'Guess: {"wumpus": [], "pits": []}\n'
    "Action: move to position (2,1)"
)


def verdict_reply(confidence, alternative="none", rationale="fine"):
    return (
        f"Confidence: {confidence}\n"
        f"Alternative: {alternative}\n"
        f"Rationale: {rationale}"
    )


# ---------------------------------------------------------------------------
# Arbitration rule


def test_high_confidence_keeps_planner_action():
    action, provenance = arbitrate(
        Action.move(2, 1),
        CriticVerdict(0.9, None, ""),
        ArbitrationConfig(threshold=0.7),
    )
    assert action == Action.move(2, 1)
    assert provenance == "planner"


def test_low_confidence_executes_critic_alternative():
    action, provenance = arbitrate(
        Action.move(2, 1),
        CriticVerdict(0.4, Action.move(1, 2), "breeze ahead"),
        ArbitrationConfig(threshold=0.7),
    )
    assert action == Action.move(1, 2)
    assert provenance == "critic"


def test_equality_at_threshold_goes_to_the_planner():
    action, provenance = arbitrate(
        Action.exit(),
        CriticVerdict(0.7, Action.move(1, 2), ""),
        ArbitrationConfig(threshold=0.7),
    )
    assert action == Action.exit()
    assert provenance == "planner"


def test_arbitration_boundary_matrix():
    cfg = ArbitrationConfig(threshold=0.7)
    alternative = Action.move(1, 2)
    for confidence in (0.0, 0.69, 0.7, 0.71, 1.0):
        action, provenance = arbitrate(
            Action.move(2, 1), CriticVerdict(confidence, alternative, ""), cfg
        )
        if confidence < 0.7:
            assert (action, provenance) == (alternative, "critic")
        else:
            assert (action, provenance) == (Action.move(2, 1), "planner")


def test_below_threshold_without_alternative_is_an_error():
    with pytest.raises(ArbitrationError):
        arbitrate(
            Action.move(2, 1),
            CriticVerdict(0.2, None, ""),
            ArbitrationConfig(threshold=0.7),
        )


def test_threshold_must_be_a_probability():
    with pytest.raises(ConfigurationError):
        ArbitrationConfig(threshold=1.5)


@given(
    confidence=st.floats(0.0, 1.0, allow_nan=False),
    threshold=st.floats(0.0, 1.0, allow_nan=False),
)
def test_arbitration_is_a_pure_threshold_function(confidence, threshold):
    proposal = Action.exit()
    alternative = Action.move(1, 2)
    action, provenance = arbitrate(
        proposal,
        CriticVerdict(confidence, alternative, ""),
        ArbitrationConfig(threshold=threshold),
    )
    if confidence >= threshold:
        assert (action, provenance) == (proposal, "planner")
    else:
        assert (action, provenance) == (alternative, "critic")


# ---------------------------------------------------------------------------
# Verdict parsing


def test_parse_verdict_with_alternative_action():
    verdict = parse_critic_verdict(
        verdict_reply(0.4, "move to position (1,2)", "breeze at (2,1)")
    )
    assert verdict.confidence == 0.4
    assert verdict.alternative == Action.move(1, 2)
    assert "breeze" in verdict.rationale


def test_parse_verdict_without_alternative():
    verdict = parse_critic_verdict(verdict_reply(0.95))
    assert verdict.confidence == 0.95
    assert verdict.alternative is None


def test_parse_verdict_requires_in_range_confidence():
    with pytest.raises(ActionParseError):
        parse_critic_verdict("Confidence: 7\nAlternative: none")
    with pytest.raises(ActionParseError):
        parse_critic_verdict("looks fine to me")


def test_parse_verdict_last_confidence_wins():
    text = "Confidence: 0.2... wait, reconsidering.\nConfidence: 0.8\nAlternative: none"
    assert parse_critic_verdict(text).confidence == 0.8


def test_a_restated_verdict_is_read_from_the_restatement():
    text = (
        "Confidence: 0.9\nAlternative: none\nRationale: looks fine.\n\n"
        "On reflection:\nConfidence: 0.2\nAlternative: <exit>\nRationale: too risky."
    )
    assert parse_critic_verdict(text) == CriticVerdict(0.2, Action.exit(), "too risky.")


@pytest.mark.parametrize("number", ["15%", "10", "05", "0,8"])
def test_parse_verdict_reads_the_whole_number(number):
    # Each starts with a digit that alone would be an in-range confidence.
    with pytest.raises(ActionParseError):
        parse_critic_verdict(verdict_reply(number))


ALTERNATIVE_PIECES = [
    "Alternative:", "alternative =", "Confidence:", "rationale=", "confidence",
    ":", "\n", "\n\n", " ", "\t", "\r", "\x0b", "\x85", "\u2028", "<exit>", "x",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(ALTERNATIVE_PIECES), max_size=30).map("".join))
def test_alternative_matches_equal_the_reference_pattern(text):
    def alternative(pattern):
        match = pattern.search(text)
        return match and match.group(1).strip()

    assert alternative(_ALTERNATIVE_RE) == alternative(REFERENCE_ALTERNATIVE_RE)


CONFIDENCE_PIECES = [
    "Confidence", "confidence", ":", "=", " ", "\t", "\n", "\r", "\x0b",
    "\u2028", "0", "0.8", ".5", "15", ",", "%", " %", "x",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(CONFIDENCE_PIECES), max_size=30).map("".join))
def test_confidence_matches_equal_the_reference_pattern(text):
    def found(pattern):
        return [(m.span(), m.groups()) for m in pattern.finditer(text)]

    assert found(_CONFIDENCE_RE) == found(REFERENCE_CONFIDENCE_RE)


def test_parse_verdict_reads_past_a_long_run_of_whitespace():
    text = "Confidence" + " " * 16_000 + "x\nConfidence: 0.5\nAlternative: none"
    assert parse_critic_verdict(text) == CriticVerdict(0.5, None, "")


def test_parse_verdict_reads_an_alternative_before_many_blank_lines():
    text = "Confidence: 0.5\nAlternative: <exit>" + "\n" * 32_000
    assert parse_critic_verdict(text) == CriticVerdict(0.5, Action.exit(), "")


# ---------------------------------------------------------------------------
# Critique orchestration


def test_critique_accepts_confident_verdict():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    client = ScriptedCompleter([MockReply(verdict_reply(0.9), 5, 5)], "critic-model")
    verdict, calls, flags = critique(
        client, obs, Action.move(2, 1), threshold=0.7, grid_size=3
    )
    assert verdict.confidence == 0.9
    assert len(calls) == 1
    assert calls[0].role == "critic"
    assert "critic-parse-failure" not in flags


def test_critique_retries_low_confidence_without_legal_alternative():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    script = [
        MockReply(verdict_reply(0.2, "none"), 1, 1),  # overrule needs an action
        MockReply(verdict_reply(0.2, "move to position (3,3)"), 1, 1),  # illegal
        MockReply(verdict_reply(0.2, "move to position (1,2)"), 1, 1),
    ]
    verdict, calls, flags = critique(
        ScriptedCompleter(script, "critic-model"), obs, Action.move(2, 1), threshold=0.7, grid_size=3
    )
    assert verdict.alternative == Action.move(1, 2)
    assert len(calls) == 3
    assert flags.count("missing-or-illegal-alternative") == 2


def test_an_unparseable_alternative_is_none_and_asked_for_again():
    assert parse_critic_verdict(verdict_reply(0.2, "jump")).alternative is None
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    script = [
        MockReply(verdict_reply(0.2, "jump"), 1, 1),
        MockReply(verdict_reply(0.2, "move to position (1,2)"), 1, 1),
    ]
    verdict, calls, flags = critique(
        ScriptedCompleter(script, "critic-model"), obs, Action.move(2, 1), threshold=0.7, grid_size=3
    )
    assert verdict.alternative == Action.move(1, 2)
    assert len(calls) == 2
    assert flags == ["missing-or-illegal-alternative"]


def test_critique_falls_back_to_full_confidence_after_malformed_verdicts():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    # One reply more than the budget: the critic must not ask for it.
    script = [MockReply("no numbers here", 1, 1)] * (MAX_PARSE_RETRIES + 2)
    client = ScriptedCompleter(script, "critic-model")
    verdict, calls, flags = critique(
        client, obs, Action.move(2, 1), threshold=0.7, grid_size=3
    )
    assert len(client.requests) == MAX_PARSE_RETRIES + 1
    assert verdict.confidence == 1.0
    assert verdict.alternative is None
    assert flags == [
        *["unparseable-verdict"] * (MAX_PARSE_RETRIES + 1),
        "critic-parse-failure",
    ]
    assert len(calls) == MAX_PARSE_RETRIES + 1


def test_critique_asks_again_after_a_percentage_confidence():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    script = [
        MockReply(verdict_reply("15%", "move to position (1,2)"), 1, 1),
        MockReply(verdict_reply(0.15, "move to position (1,2)"), 1, 1),
    ]
    verdict, calls, flags = critique(
        ScriptedCompleter(script, "critic-model"), obs, Action.move(2, 1), threshold=0.7, grid_size=3
    )
    assert verdict.confidence == 0.15
    assert verdict.alternative == Action.move(1, 2)
    assert len(calls) == 2
    assert flags == ["unparseable-verdict"]


# ---------------------------------------------------------------------------
# Full agent


def test_planner_critic_agent_round_uses_two_calls_and_tags_provenance():
    world = make_world(n=3, gold=(3, 3))
    script = [
        MockReply(PLANNER_REPLY, 10, 5),
        MockReply(verdict_reply(0.9), 7, 3),
    ]
    agent = PlannerCriticAgent(ScriptedCompleter(script, "dual-model"), 3)
    decision = agent.decide(build_observation(world))
    assert decision.action == Action.move(2, 1)
    assert decision.provenance == "planner"
    assert [c.role for c in decision.calls] == ["planner", "critic"]


def test_planner_critic_agent_executes_critic_override():
    world = make_world(n=3, gold=(3, 3))
    script = [
        MockReply(PLANNER_REPLY, 10, 5),
        MockReply(verdict_reply(0.3, "move to position (1,2)", "risky"), 7, 3),
    ]
    agent = PlannerCriticAgent(ScriptedCompleter(script, "dual-model"), 3)
    decision = agent.decide(build_observation(world))
    assert decision.action == Action.move(1, 2)
    assert decision.provenance == "critic"


def test_planner_critic_agent_carries_planner_guess_forward():
    world = make_world(n=3, gold=(3, 3), step_limit=10)
    script = [
        MockReply(PLANNER_REPLY.replace('"pits": []', '"pits": [[3,1]]'), 1, 1),
        MockReply(verdict_reply(0.9), 1, 1),
        MockReply(PLANNER_REPLY.replace("move to position (2,1)", "<exit>"), 1, 1),
        MockReply(verdict_reply(0.9), 1, 1),
    ]
    from wumpusbench import apply_action

    client = ScriptedCompleter(script, "dual-model")
    agent = PlannerCriticAgent(client, 3)
    first = agent.decide(build_observation(world))
    apply_action(world, first.action)
    agent.decide(build_observation(world))
    planner_round2 = client.requests[2][1].content
    critic_round2 = client.requests[3][1].content
    assert first.guess_raw in planner_round2
    assert "Previous guess" not in critic_round2  # critic sees obs + proposal only
    assert "Proposed action: <exit>" in critic_round2

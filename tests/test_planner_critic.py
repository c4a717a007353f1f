from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_ALTERNATIVE_RE, make_world
from wumpusbench import (
    Action,
    ActionParseError,
    ArbitrationConfig,
    ArbitrationError,
    ChatClient,
    ConfigurationError,
    CriticVerdict,
    MockChatServer,
    MockReply,
    PlannerCriticAgent,
    arbitrate,
    build_observation,
    critique,
    parse_critic_verdict,
)
from wumpusbench.planner_critic import _ALTERNATIVE_RE

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


def test_parse_verdict_reads_an_alternative_before_many_blank_lines():
    text = "Confidence: 0.5\nAlternative: <exit>" + "\n" * 32_000
    assert parse_critic_verdict(text) == CriticVerdict(0.5, Action.exit(), "")


# ---------------------------------------------------------------------------
# Critique orchestration


def test_critique_accepts_confident_verdict():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    with MockChatServer([MockReply(verdict_reply(0.9), 5, 5)]) as server:
        client = ChatClient(server.url, "critic-model", max_retries=0)
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
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "critic-model", max_retries=0)
        verdict, calls, flags = critique(
            client, obs, Action.move(2, 1), threshold=0.7, grid_size=3
        )
    assert verdict.alternative == Action.move(1, 2)
    assert len(calls) == 3
    assert flags.count("missing-or-illegal-alternative") == 2


def test_critique_falls_back_to_full_confidence_after_malformed_verdicts():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    script = [MockReply("no numbers here", 1, 1)] * 3
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "critic-model", max_retries=0)
        verdict, calls, flags = critique(
            client, obs, Action.move(2, 1), threshold=0.7, grid_size=3, max_parse_retries=2
        )
    assert verdict.confidence == 1.0
    assert verdict.alternative is None
    assert "critic-parse-failure" in flags
    assert len(calls) == 3


def test_critique_asks_again_after_a_percentage_confidence():
    obs = build_observation(make_world(n=3, gold=(3, 3)))
    script = [
        MockReply(verdict_reply("15%", "move to position (1,2)"), 1, 1),
        MockReply(verdict_reply(0.15, "move to position (1,2)"), 1, 1),
    ]
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "critic-model", max_retries=0)
        verdict, calls, flags = critique(
            client, obs, Action.move(2, 1), threshold=0.7, grid_size=3
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
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "dual-model", max_retries=0)
        agent = PlannerCriticAgent(client, 3)
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
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "dual-model", max_retries=0)
        agent = PlannerCriticAgent(client, 3)
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

    with MockChatServer(script) as server:
        client = ChatClient(server.url, "dual-model", max_retries=0)
        agent = PlannerCriticAgent(client, 3)
        first = agent.decide(build_observation(world))
        apply_action(world, first.action)
        agent.decide(build_observation(world))
        planner_round2 = server.requests[2]["messages"][1]["content"]
        critic_round2 = server.requests[3]["messages"][1]["content"]
    assert first.guess_raw in planner_round2
    assert "Previous guess" not in critic_round2  # critic sees obs + proposal only
    assert "Proposed action: <exit>" in critic_round2

"""Dual-role orchestration: a Planner proposes, a Critic scores, a threshold
arbitrates.

Each round makes exactly two model invocations (plus bounded parse retries):
the planner runs one chained-guess round and proposes an action; the critic
sees the observation plus that proposal and answers with a confidence in
[0, 1], an optional alternative action and a rationale. Confidence at or
above the threshold executes the planner's action; strictly below it, the
critic's alternative is executed instead. A critic whose verdict stays
unparseable after retries is treated as fully confident (no intervention)
and flagged, so model noncompliance never blocks an episode. The planner's
decision is the round's decision: arbitration sets its action and
provenance, and the critic's calls and flags follow the planner's.

Both roles call the model through :func:`wumpusbench.llm.ask_until`, with
the same ``MAX_PARSE_RETRIES``; the critic's refusals flag
``unparseable-verdict`` or ``missing-or-illegal-alternative`` (asked again)
and exhaustion ``critic-parse-failure``. :func:`arbitrate` guards against a
missing alternative too, for verdicts that do not come from :func:`critique`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .agents import CompletionLog, Completer, Decision, legal_actions_from
from .chat import ChatMessage
from .errors import (
    ActionParseError,
    ArbitrationError,
    ConfigurationError,
    EpisodeProtocolFailure,
)
from .llm import ask_until, environment_rules, run_cos_round
from .observation import Observation, observation_to_json, parse_action
from .world import Action

DEFAULT_THRESHOLD = 0.7


@dataclass(frozen=True)
class CriticVerdict:
    confidence: float
    alternative: Action | None
    rationale: str


@dataclass(frozen=True)
class ArbitrationConfig:
    """Ties (confidence equal to the threshold) go to the planner."""

    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )


def arbitrate(
    proposal: Action, verdict: CriticVerdict, cfg: ArbitrationConfig
) -> tuple[Action, str]:
    """Pick the executed action; returns it with its provenance tag."""
    if verdict.confidence >= cfg.threshold:
        return proposal, "planner"
    if verdict.alternative is None:
        raise ArbitrationError(
            f"confidence {verdict.confidence} below threshold {cfg.threshold} "
            "but the critic supplied no alternative"
        )
    return verdict.alternative, "critic"


@cache
def critic_system_prompt(grid_size: int) -> str:
    return (
        f"{environment_rules(grid_size)}\n\n"
        "You are a safety reviewer for the explorer described above. You will "
        "be given the explorer's current observation and a proposed action. "
        "Judge how safe and sensible the proposal is, paying attention to "
        "clues such as breezes and stenches.\n"
        "Respond in exactly three labeled sections:\n"
        "Confidence: a number between 0 and 1 expressing how confident "
        "you are that the proposed action should be executed.\n"
        "Alternative: a better action in the exact action grammar, or "
        "the word none. Always supply one when your confidence is low.\n"
        "Rationale: a short justification."
    )


def build_critic_prompt(
    obs: Observation, proposal: Action, grid_size: int
) -> list[ChatMessage]:
    user = (
        f"Observation:\n{observation_to_json(obs)}\n\n"
        f"Proposed action: {proposal.to_text()}"
    )
    system = critic_system_prompt(grid_size)
    return [ChatMessage("system", system), ChatMessage("user", user)]


# One whitespace run before the number, split by the separator only when
# there is one: two runs around an optional separator would try every split
# of a long run.
_CONFIDENCE_RE = re.compile(
    r"confidence\s*(?:[:=]\s*)?(\d+(?:[.,]\d+)?|\.\d+)([ \t]*%)?", re.IGNORECASE
)
# The next label ends the alternative. Indentation before a label stays on
# its line: a blank-line run before it is left to strip(), as a lookahead
# that skipped it would rescan the run from every line start.
_ALTERNATIVE_RE = re.compile(
    r"alternative\s*[:=]\s*(.*?)(?=^[^\S\n]*(?:confidence|rationale)\s*[:=]|\Z)",
    re.IGNORECASE | re.MULTILINE | re.DOTALL,
)
_RATIONALE_RE = re.compile(r"rationale\s*[:=]", re.IGNORECASE)


def parse_critic_verdict(text: str) -> CriticVerdict:
    """Parse a critic reply; the last confidence, alternative and rationale
    labels stated win, so a reply that restates its verdict is read from the
    restatement alone. Raises
    :class:`ActionParseError` when there is none, or when it is a percentage,
    has a decimal comma or lies outside [0, 1]."""
    matches = list(_CONFIDENCE_RE.finditer(text))
    if not matches:
        raise ActionParseError(f"no confidence score in: {text!r:.200}")
    number, percent = matches[-1].groups()
    if percent or "," in number:
        raise ActionParseError(f"{matches[-1].group(0)!r} is not a decimal number")
    confidence = float(number)
    if not 0.0 <= confidence <= 1.0:
        raise ActionParseError(f"confidence {confidence} outside [0, 1]")

    alternative: Action | None = None
    alt_matches = list(_ALTERNATIVE_RE.finditer(text))
    if alt_matches:
        alt_text = alt_matches[-1].group(1).strip()
        if not re.fullmatch(r"none\.?", alt_text, re.IGNORECASE):
            try:
                alternative = parse_action(alt_text)
            except ActionParseError:
                alternative = None

    rationale = ""
    rat_matches = list(_RATIONALE_RE.finditer(text))
    if rat_matches:
        rationale = text[rat_matches[-1].end() :].strip()
    return CriticVerdict(
        confidence=confidence, alternative=alternative, rationale=rationale
    )


def critique(
    client: Completer,
    obs: Observation,
    proposal: Action,
    *,
    threshold: float,
    grid_size: int,
) -> tuple[CriticVerdict, list[CompletionLog], list[str]]:
    """One critic review of ``proposal``.

    A verdict is usable when it parses, lies in range, and - if it would
    overrule the planner - names a legal alternative. Retries exhausted means
    confidence 1.0 (no intervention), flagged as ``critic-parse-failure``.
    """
    legal = legal_actions_from(obs)

    def accept(content: str) -> tuple[CriticVerdict | None, str | None]:
        try:
            verdict = parse_critic_verdict(content)
        except ActionParseError:
            return None, "unparseable-verdict"
        if verdict.confidence < threshold and verdict.alternative not in legal:
            return None, "missing-or-illegal-alternative"
        return verdict, None

    messages = build_critic_prompt(obs, proposal, grid_size)
    verdict, calls, flags = ask_until(client, messages, accept, role="critic")
    if verdict is None:
        flags.append("critic-parse-failure")
        verdict = CriticVerdict(confidence=1.0, alternative=None, rationale="")
    return verdict, calls, flags


class PlannerCriticAgent:
    """Planner proposes, critic reviews, threshold arbitrates. By default the
    same model plays both roles with different prompts."""

    def __init__(
        self,
        planner_client: Completer,
        grid_size: int,
        *,
        critic_client: Completer | None = None,
        arbitration: ArbitrationConfig | None = None,
    ):
        self.planner_client = planner_client
        self.critic_client = critic_client or planner_client
        self.grid_size = grid_size
        self.arbitration = arbitration or ArbitrationConfig()
        self.prev_guess: str | None = None

    def decide(self, obs: Observation) -> Decision:
        decision = run_cos_round(
            self.planner_client,
            obs,
            self.prev_guess,
            grid_size=self.grid_size,
            role="planner",
        )
        self.prev_guess = decision.guess_raw
        try:
            verdict, calls, flags = critique(
                self.critic_client,
                obs,
                decision.action,
                threshold=self.arbitration.threshold,
                grid_size=self.grid_size,
            )
        except EpisodeProtocolFailure as exc:
            exc.calls = decision.calls + exc.calls
            exc.flags = decision.flags + exc.flags
            raise
        decision.action, decision.provenance = arbitrate(
            decision.action, verdict, self.arbitration
        )
        decision.calls += calls
        decision.flags += flags
        return decision

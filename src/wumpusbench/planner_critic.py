"""Dual-role orchestration: a Planner proposes, a Critic scores, a threshold
arbitrates.

Each round makes exactly two model invocations (plus bounded parse retries):
the planner runs one chained-guess round and proposes an action; the critic
sees the observation plus that proposal and answers with a confidence in
[0, 1], an optional alternative action and a rationale. Confidence at or
above the threshold executes the planner's action; strictly below it, the
critic's alternative is executed instead. A critic whose verdict stays
unparseable after retries is treated as fully confident (no intervention)
and flagged, so model noncompliance never blocks an episode.

Both roles call the model through :func:`wumpusbench.llm.ask_until`; the
critic's refusals flag ``unparseable-verdict`` or
``missing-or-illegal-alternative`` (asked again) and exhaustion
``critic-parse-failure``. :func:`arbitrate` guards against a missing
alternative too, for verdicts that do not come from :func:`critique`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .agents import CompletionLog, Decision, legal_actions_from
from .chat import ChatClient, ChatMessage
from .errors import (
    ActionParseError,
    ArbitrationError,
    ConfigurationError,
    EpisodeProtocolFailure,
)
from .llm import (
    DEFAULT_MAX_PARSE_RETRIES,
    MECHANISM_COS,
    ask_until,
    default_system_prompt,
    environment_rules,
    run_cos_round,
)
from .observation import Observation, observation_to_json, parse_action
from .world import Action

CONFIDENCE_LABEL = "Confidence:"
ALTERNATIVE_LABEL = "Alternative:"
RATIONALE_LABEL = "Rationale:"

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


def critic_system_prompt(grid_size: int) -> str:
    return (
        f"{environment_rules(grid_size)}\n\n"
        "You are a safety reviewer for the explorer described above. You will "
        "be given the explorer's current observation and a proposed action. "
        "Judge how safe and sensible the proposal is, paying attention to "
        "clues such as breezes and stenches.\n"
        "Respond in exactly three labeled sections:\n"
        f"{CONFIDENCE_LABEL} a number between 0 and 1 expressing how confident "
        "you are that the proposed action should be executed.\n"
        f"{ALTERNATIVE_LABEL} a better action in the exact action grammar, or "
        "the word none. Always supply one when your confidence is low.\n"
        f"{RATIONALE_LABEL} a short justification."
    )


def build_critic_prompt(
    obs: Observation, proposal: Action, system_prompt: str
) -> list[ChatMessage]:
    user = (
        f"Observation:\n{observation_to_json(obs)}\n\n"
        f"Proposed action: {proposal.to_text()}"
    )
    return [ChatMessage("system", system_prompt), ChatMessage("user", user)]


_CONFIDENCE_RE = re.compile(
    r"confidence\s*[:=]?\s*(\d+(?:[.,]\d+)?|\.\d+)([ \t]*%)?", re.IGNORECASE
)
# The next label ends the alternative. Indentation before a label stays on
# its line: a blank-line run before it is left to strip(), as a lookahead
# that skipped it would rescan the run from every line start.
_ALTERNATIVE_RE = re.compile(
    r"alternative\s*[:=]\s*(.*?)(?=^[^\S\n]*(?:confidence|rationale)\s*[:=]|\Z)",
    re.IGNORECASE | re.MULTILINE | re.DOTALL,
)


def parse_critic_verdict(text: str) -> CriticVerdict:
    """Parse a critic reply; the last confidence stated wins. Raises
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
    alt_match = _ALTERNATIVE_RE.search(text)
    if alt_match:
        alt_text = alt_match.group(1).strip()
        if not re.fullmatch(r"none\.?", alt_text, re.IGNORECASE):
            try:
                alternative = parse_action(alt_text)
            except ActionParseError:
                alternative = None

    rationale = ""
    rat_pos = text.lower().find("rationale")
    if rat_pos >= 0:
        rationale = text[rat_pos + len("rationale") :].lstrip(":= ").strip()
    return CriticVerdict(
        confidence=confidence, alternative=alternative, rationale=rationale
    )


def critique(
    client: ChatClient,
    obs: Observation,
    proposal: Action,
    *,
    threshold: float,
    grid_size: int,
    max_parse_retries: int = DEFAULT_MAX_PARSE_RETRIES,
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

    messages = build_critic_prompt(obs, proposal, critic_system_prompt(grid_size))
    verdict, calls, flags = ask_until(
        client, messages, accept, role="critic", max_parse_retries=max_parse_retries
    )
    if verdict is None:
        flags.append("critic-parse-failure")
        verdict = CriticVerdict(confidence=1.0, alternative=None, rationale="")
    return verdict, calls, flags


class PlannerCriticAgent:
    """Planner proposes, critic reviews, threshold arbitrates. By default the
    same model plays both roles with different prompts."""

    def __init__(
        self,
        planner_client: ChatClient,
        grid_size: int,
        *,
        critic_client: ChatClient | None = None,
        arbitration: ArbitrationConfig | None = None,
    ):
        self.planner_client = planner_client
        self.critic_client = critic_client or planner_client
        self.grid_size = grid_size
        self.arbitration = arbitration or ArbitrationConfig()
        self.planner_prompt = default_system_prompt(MECHANISM_COS, grid_size)
        self.prev_guess: str | None = None

    def decide(self, obs: Observation) -> Decision:
        turn, planner_calls, flags = run_cos_round(
            self.planner_client,
            obs,
            self.prev_guess,
            system_prompt=self.planner_prompt,
            grid_size=self.grid_size,
            role="planner",
        )
        self.prev_guess = turn.guess_raw
        try:
            verdict, critic_calls, critic_flags = critique(
                self.critic_client,
                obs,
                turn.action,
                threshold=self.arbitration.threshold,
                grid_size=self.grid_size,
            )
        except EpisodeProtocolFailure as exc:
            exc.calls = planner_calls + exc.calls
            exc.flags = flags + exc.flags
            raise
        action, provenance = arbitrate(turn.action, verdict, self.arbitration)
        return Decision(
            action=action,
            provenance=provenance,
            calls=planner_calls + critic_calls,
            analysis=turn.analysis,
            guess=turn.guess.to_dict(),
            guess_raw=turn.guess_raw,
            flags=flags + critic_flags,
        )

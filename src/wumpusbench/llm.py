"""Prompt assembly and structured-response parsing for model-driven agents.

Two prompting mechanisms are provided:

* ``cot`` - the model reasons freely and ends with one action.
* ``cos`` - every reply has three labeled sections: ``Analysis:`` (free
  reasoning), ``Guess:`` (a JSON hypothesis of hazard positions) and
  ``Action:`` (the decision). The raw guess text of each round is carried
  verbatim into the next round's prompt under a ``Previous guess`` heading,
  forming an explicit chain of hypotheses across the episode.

Every model call in the package goes through :func:`ask_until`, which logs
each call and asks again, adding a flag, while the round's ``accept`` refuses
the reply: here ``unparseable-action`` and ``illegal-action`` (an accepted
``cos`` reply with an unusable guess adds ``malformed-guess``), and the
critic's flags in :mod:`wumpusbench.planner_critic`. Exhausted retries or an
endpoint error end the episode as a protocol failure, with the calls logged.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, TypeVar

from .agents import CompletionLog, Decision, legal_actions_from
from .chat import ChatClient, ChatMessage
from .errors import (
    ActionParseError,
    EpisodeProtocolFailure,
    ProtocolError,
    TransportError,
)
from .observation import Observation, observation_to_json, parse_action
from .world import Action, Cell, in_grid

MECHANISM_COT = "cot"
MECHANISM_COS = "cos"
MECHANISM_PLANNER_CRITIC = "planner_critic"

DEFAULT_MAX_PARSE_RETRIES = 3

ANALYSIS_LABEL = "Analysis:"
GUESS_LABEL = "Guess:"
ACTION_LABEL = "Action:"

T = TypeVar("T")


def environment_rules(grid_size: int) -> str:
    """The game rules shared by every system prompt."""
    n = grid_size
    return (
        f"You are exploring a hidden cave of {n}x{n} rooms. Rooms are named by "
        "coordinates (x,y) where x is the column and y is the row; (1,1) is the "
        "bottom-left room, where you start. The start room and the rooms next to "
        "it are always safe.\n"
        "Hidden in the cave are bottomless pits, possibly a wumpus (a deadly "
        "monster), and one gold treasure. Entering a room with a pit or a live "
        "wumpus kills you. Entering the room with the gold collects it "
        "automatically and ends the task successfully.\n"
        "Rooms next to a pit feel a breeze; rooms next to the live wumpus smell "
        "of stench. The observation you receive each turn is a JSON object "
        "aggregating everything you have sensed so far, plus suggested rooms to "
        "explore and available shots.\n"
        "Each turn you take exactly one action:\n"
        "- move to an unexplored room adjacent to any explored room, written "
        "exactly as: move to position (x,y)\n"
        "- shoot your single arrow along a straight line, written exactly as one "
        "of: <shootup> <shootdown> <shootleft> <shootright> (if the wumpus is on "
        "that line it dies and you hear a scream)\n"
        "- leave the cave, written exactly as: <exit>\n"
        "Scoring: you start with 50 points; each move costs 1 point; collecting "
        "the gold is worth +50; killing the wumpus is worth +20; dying in a pit "
        "costs -20 and dying to the wumpus costs -30. Shooting and exiting are "
        "free."
    )


_COS_FORMAT = (
    "Respond in exactly three labeled sections:\n"
    f"{ANALYSIS_LABEL} your reasoning about the current observation.\n"
    f'{GUESS_LABEL} a JSON object with your current hazard hypothesis, for '
    'example {"wumpus": [[2,2]], "pits": [[3,1]]}. Use empty lists when unsure.\n'
    f"{ACTION_LABEL} your chosen action, written in the exact form given above."
)

_COT_FORMAT = (
    "Think step by step, then finish your reply with a single line containing "
    "exactly one action in the exact form given above."
)


def default_system_prompt(mechanism: str, grid_size: int) -> str:
    fmt = _COS_FORMAT if mechanism == MECHANISM_COS else _COT_FORMAT
    return f"{environment_rules(grid_size)}\n\n{fmt}"


def build_prompt(
    mechanism: str,
    obs: Observation,
    prev_guess: str | None,
    system_prompt: str,
) -> list[ChatMessage]:
    """The [system, user] message pair for one round.

    In ``cos`` mode the previous round's guess text, when there is one, is
    appended verbatim after the observation.
    """
    user = f"Observation:\n{observation_to_json(obs)}"
    if mechanism == MECHANISM_COS and prev_guess:
        user += f"\n\nPrevious guess:\n{prev_guess}"
    return [ChatMessage("system", system_prompt), ChatMessage("user", user)]


@dataclass(frozen=True)
class Guess:
    wumpus: tuple[Cell, ...]
    pits: tuple[Cell, ...]

    def to_dict(self) -> dict:
        return {
            "wumpus": [list(c) for c in self.wumpus],
            "pits": [list(c) for c in self.pits],
        }


EMPTY_GUESS = Guess(wumpus=(), pits=())


@dataclass
class CosTurn:
    """One parsed chain-of-speculation reply."""

    analysis: str
    guess: Guess
    guess_raw: str | None  # exact text propagated to the next prompt
    action: Action
    malformed_guess: bool


_SECTION_RE = re.compile(r"^\s*(Analysis|Guess|Action)\s*:", re.IGNORECASE | re.MULTILINE)


def _split_sections(text: str) -> dict[str, str]:
    sections: dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(text))
    for i, match in enumerate(matches):
        label = match.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections.setdefault(label, text[match.end():end].strip())
    return sections


def _first_json_object(text: str) -> str | None:
    """The first balanced {...} block in ``text``, or None."""
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def _parse_guess_block(block: str) -> Guess | None:
    """Parse a guess JSON object, tolerating tuple-style parentheses."""
    for candidate in (block, block.replace("(", "[").replace(")", "]")):
        try:
            data = json.loads(candidate)
        except (ValueError, RecursionError):  # too deep a nesting is malformed too
            continue
        if not isinstance(data, dict):
            return None
        try:
            wumpus = tuple(Cell(int(x), int(y)) for x, y in data.get("wumpus", []))
            pits = tuple(Cell(int(x), int(y)) for x, y in data.get("pits", []))
        except (TypeError, ValueError):
            return None
        return Guess(wumpus=wumpus, pits=pits)
    return None


def parse_cos_response(text: str, grid_size: int | None = None) -> CosTurn:
    """Split a reply into Analysis/Guess/Action and parse the pieces.

    A missing or unparseable guess (including guess cells outside the grid
    when ``grid_size`` is given) degrades to an empty guess with the
    ``malformed_guess`` flag set; a missing action raises
    :class:`ActionParseError` for the caller's retry policy.
    """
    sections = _split_sections(text)
    action = parse_action(text)  # raises when absent; last match wins

    guess = EMPTY_GUESS
    guess_raw: str | None = None
    malformed = True
    block = _first_json_object(sections.get("guess", ""))
    if block is not None:
        parsed = _parse_guess_block(block)
        if parsed is not None:
            in_bounds = grid_size is None or all(
                in_grid(c, grid_size) for c in (*parsed.wumpus, *parsed.pits)
            )
            if in_bounds:
                guess = parsed
                guess_raw = block
                malformed = False
    return CosTurn(
        analysis=sections.get("analysis", ""),
        guess=guess,
        guess_raw=guess_raw,
        action=action,
        malformed_guess=malformed,
    )


def ask_until(
    client: ChatClient,
    messages: list[ChatMessage],
    accept: Callable[[str], tuple[T | None, str | None]],
    *,
    role: str,
    max_parse_retries: int,
) -> tuple[T | None, list[CompletionLog], list[str]]:
    """Ask up to ``max_parse_retries + 1`` times until ``accept(content)``
    returns ``(result, None)`` rather than ``(None, flag)``.

    Returns the result (None if every reply was refused), the calls and the
    refusal flags. An endpoint error becomes :class:`EpisodeProtocolFailure`
    carrying the calls and flags so far.
    """
    calls: list[CompletionLog] = []
    flags: list[str] = []
    for _ in range(max_parse_retries + 1):
        try:
            content, usage = client.complete(messages)
        except (TransportError, ProtocolError) as exc:
            raise EpisodeProtocolFailure(
                f"{type(exc).__name__}: {exc}", calls=calls, flags=flags
            ) from exc
        calls.append(
            CompletionLog(
                role=role,
                model=client.model,
                messages=list(messages),
                response=content,
                usage=usage,
            )
        )
        result, flag = accept(content)
        if flag is None:
            return result, calls, flags
        flags.append(flag)
    return None, calls, flags


def run_cos_round(
    client: ChatClient,
    obs: Observation,
    prev_guess: str | None,
    *,
    mechanism: str = MECHANISM_COS,
    system_prompt: str,
    grid_size: int,
    max_parse_retries: int = DEFAULT_MAX_PARSE_RETRIES,
    role: str = "model",
) -> tuple[CosTurn, list[CompletionLog], list[str]]:
    """One prompted round with bounded parse retries.

    Returns the parsed turn, the call log, and any flags raised on the way.
    Raises :class:`EpisodeProtocolFailure` when every attempt produced no
    usable (parseable and legal) action.
    """

    def accept(content: str) -> tuple[CosTurn | None, str | None]:
        try:
            if mechanism == MECHANISM_COT:
                turn = CosTurn(
                    analysis=content,
                    guess=EMPTY_GUESS,
                    guess_raw=None,
                    action=parse_action(content),
                    malformed_guess=False,
                )
            else:
                turn = parse_cos_response(content, grid_size)
        except ActionParseError:
            return None, "unparseable-action"
        if turn.action not in legal_actions_from(obs):
            return None, "illegal-action"
        return turn, None

    messages = build_prompt(mechanism, obs, prev_guess, system_prompt)
    turn, calls, flags = ask_until(
        client, messages, accept, role=role, max_parse_retries=max_parse_retries
    )
    if turn is None:
        raise EpisodeProtocolFailure(
            f"no usable action after {max_parse_retries + 1} completions",
            calls=calls,
            flags=flags,
        )
    if turn.malformed_guess:
        flags.append("malformed-guess")
    return turn, calls, flags


class LlmAgent:
    """Chat-model agent running the plain (``cot``) or chained (``cos``)
    prompting pipeline. One instance per episode."""

    def __init__(
        self,
        client: ChatClient,
        grid_size: int,
        *,
        mechanism: str = MECHANISM_COS,
    ):
        if mechanism not in (MECHANISM_COT, MECHANISM_COS):
            raise ValueError(f"unsupported mechanism {mechanism!r}")
        self.client = client
        self.grid_size = grid_size
        self.mechanism = mechanism
        self.system_prompt = default_system_prompt(mechanism, grid_size)
        self.prev_guess: str | None = None

    def decide(self, obs: Observation) -> Decision:
        turn, calls, flags = run_cos_round(
            self.client,
            obs,
            self.prev_guess,
            mechanism=self.mechanism,
            system_prompt=self.system_prompt,
            grid_size=self.grid_size,
        )
        self.prev_guess = turn.guess_raw  # always None under ``cot``
        return Decision(
            action=turn.action,
            provenance="model",
            calls=calls,
            analysis=turn.analysis,
            guess=turn.guess.to_dict(),
            guess_raw=turn.guess_raw,
            flags=flags,
        )

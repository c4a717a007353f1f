"""Prompt assembly and structured-response parsing for model-driven agents.

Two prompting mechanisms are provided:

* ``cot`` - the model reasons freely and ends with one action.
* ``cos`` - every reply has three labeled sections: ``Analysis:`` (free
  reasoning), ``Guess:`` (a JSON hypothesis of hazard positions) and
  ``Action:`` (the decision). The raw guess text of each round is carried
  verbatim into the next round's prompt under a ``Previous guess`` heading,
  forming an explicit chain of hypotheses across the episode.

A reply parses to the round's :class:`~wumpusbench.agents.Decision`, the one
value that goes on to the episode log. Every model call in the package goes
through :func:`ask_until`, which logs each call and asks again, up to
``MAX_PARSE_RETRIES`` times, adding a flag, while the round's ``accept``
refuses the reply: here ``unparseable-action`` and ``illegal-action`` (an
accepted ``cos`` reply with an unusable guess adds ``malformed-guess``), and
the critic's flags in :mod:`wumpusbench.planner_critic`. Exhausted retries or
an endpoint error end the episode as a protocol failure, with the calls
logged. The system prompts follow from the mechanism and the grid size.
"""

from __future__ import annotations

import json
import re
from functools import cache
from typing import Callable, TypeVar

from .agents import CompletionLog, Completer, Decision, _cell_pairs, legal_actions_from
from .chat import ChatMessage
from .errors import (
    ActionParseError,
    ConfigurationError,
    EpisodeProtocolFailure,
    ProtocolError,
    TransportError,
)
from .observation import Observation, observation_to_json, parse_action
from .world import Cell, in_grid

MECHANISM_COT = "cot"
MECHANISM_COS = "cos"
MECHANISM_PLANNER_CRITIC = "planner_critic"

MAX_PARSE_RETRIES = 3

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
    "Analysis: your reasoning about the current observation.\n"
    "Guess: a JSON object with your current hazard hypothesis, for "
    'example {"wumpus": [[2,2]], "pits": [[3,1]]}. Use empty lists when unsure.\n'
    "Action: your chosen action, written in the exact form given above."
)

_COT_FORMAT = (
    "Think step by step, then finish your reply with a single line containing "
    "exactly one action in the exact form given above."
)


@cache
def default_system_prompt(mechanism: str, grid_size: int) -> str:
    fmt = _COS_FORMAT if mechanism == MECHANISM_COS else _COT_FORMAT
    return f"{environment_rules(grid_size)}\n\n{fmt}"


def build_prompt(
    mechanism: str, obs: Observation, prev_guess: str | None, grid_size: int
) -> list[ChatMessage]:
    """The [system, user] message pair for one round.

    In ``cos`` mode the previous round's guess text, when there is one, is
    appended verbatim after the observation.
    """
    user = f"Observation:\n{observation_to_json(obs)}"
    if mechanism == MECHANISM_COS and prev_guess:
        user += f"\n\nPrevious guess:\n{prev_guess}"
    system = default_system_prompt(mechanism, grid_size)
    return [ChatMessage("system", system), ChatMessage("user", user)]


# Indentation before a label stays on its line: a blank-line run before it
# is left to strip(), as a pattern that skipped it would rescan the run from
# every line start.
_SECTION_RE = re.compile(
    r"^[^\S\n]*(Analysis|Guess|Action)\s*:", re.IGNORECASE | re.MULTILINE
)


def _split_sections(text: str) -> dict[str, str]:
    sections: dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(text))
    for i, match in enumerate(matches):
        label = match.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections.setdefault(label, text[match.end():end].strip())
    return sections


_DECODER = json.JSONDecoder()


def _parse_guess(section: str, grid_size: int | None) -> tuple[dict, str] | None:
    """The wire form of the first JSON object in a Guess section, read by the
    standard decoder and tolerating tuple-style parentheses, with its text as
    written; None when there is none, it is malformed (a hazard that is not a
    list of [x, y] pairs of ints, read as they are) or, given ``grid_size``,
    it names a cell outside the grid. A missing hazard is an empty list."""
    start = section.find("{")
    if start < 0:
        return None
    # The swap is one character for one, so the object spans the same text.
    for candidate in (section, section.replace("(", "[").replace(")", "]")):
        try:
            data, end = _DECODER.raw_decode(candidate, start)
        except (ValueError, RecursionError):  # too deep a nesting is malformed too
            continue
        guess = {key: data.get(key, []) for key in ("wumpus", "pits")}
        if not all(map(_cell_pairs, guess.values())):
            return None
        if grid_size is not None and not all(
            in_grid(Cell(*c), grid_size) for c in (*guess["wumpus"], *guess["pits"])
        ):
            return None
        return guess, section[start:end]
    return None


def parse_cos_response(text: str, grid_size: int | None = None) -> Decision:
    """Split a reply into Analysis/Guess/Action and parse the pieces.

    A missing or unparseable guess (including guess cells outside the grid
    when ``grid_size`` is given) degrades to an empty guess with the
    ``malformed-guess`` flag; a missing action raises
    :class:`ActionParseError` for the caller's retry policy.
    """
    sections = _split_sections(text)
    action = parse_action(text)  # raises when absent; last match wins
    parsed = _parse_guess(sections.get("guess", ""), grid_size)
    decision = Decision(action, "model", analysis=sections.get("analysis", ""))
    if parsed is None:
        decision.guess = {"wumpus": [], "pits": []}
        decision.flags.append("malformed-guess")
    else:
        decision.guess, decision.guess_raw = parsed
    return decision


def ask_until(
    client: Completer,
    messages: list[ChatMessage],
    accept: Callable[[str], tuple[T | None, str | None]],
    *,
    role: str,
) -> tuple[T | None, list[CompletionLog], list[str]]:
    """Ask up to ``MAX_PARSE_RETRIES + 1`` times until ``accept(content)``
    returns ``(result, None)`` rather than ``(None, flag)``.

    Returns the result (None if every reply was refused), the calls and the
    refusal flags. An endpoint error becomes :class:`EpisodeProtocolFailure`
    carrying the calls and flags so far.
    """
    calls: list[CompletionLog] = []
    flags: list[str] = []
    for _ in range(MAX_PARSE_RETRIES + 1):
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
    client: Completer,
    obs: Observation,
    prev_guess: str | None,
    *,
    mechanism: str = MECHANISM_COS,
    grid_size: int,
    role: str = "model",
) -> Decision:
    """One prompted round with bounded parse retries.

    Returns the round's decision with ``role`` as its provenance, every call
    made, and the flags of the refused replies before the accepted reply's
    own. Raises :class:`EpisodeProtocolFailure` when every attempt produced
    no usable (parseable and legal) action.
    """

    def accept(content: str) -> tuple[Decision | None, str | None]:
        try:
            if mechanism == MECHANISM_COT:
                decision = Decision(
                    parse_action(content),
                    role,
                    analysis=content,
                    guess={"wumpus": [], "pits": []},
                )
            else:
                decision = parse_cos_response(content, grid_size)
        except ActionParseError:
            return None, "unparseable-action"
        if decision.action not in legal_actions_from(obs):
            return None, "illegal-action"
        return decision, None

    messages = build_prompt(mechanism, obs, prev_guess, grid_size)
    decision, calls, flags = ask_until(client, messages, accept, role=role)
    if decision is None:
        raise EpisodeProtocolFailure(
            f"no usable action after {MAX_PARSE_RETRIES + 1} completions",
            calls=calls,
            flags=flags,
        )
    decision.provenance = role
    decision.calls = calls
    decision.flags[:0] = flags
    return decision


class LlmAgent:
    """Chat-model agent running the plain (``cot``) or chained (``cos``)
    prompting pipeline. One instance per episode."""

    def __init__(
        self,
        client: Completer,
        grid_size: int,
        *,
        mechanism: str = MECHANISM_COS,
    ):
        if mechanism not in (MECHANISM_COT, MECHANISM_COS):
            raise ConfigurationError(f"unsupported mechanism {mechanism!r}")
        self.client = client
        self.grid_size = grid_size
        self.mechanism = mechanism
        self.prev_guess: str | None = None

    def decide(self, obs: Observation) -> Decision:
        decision = run_cos_round(
            self.client,
            obs,
            self.prev_guess,
            mechanism=self.mechanism,
            grid_size=self.grid_size,
        )
        self.prev_guess = decision.guess_raw  # always None under ``cot``
        return decision

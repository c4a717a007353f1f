"""Agent and completer protocols plus the simple non-LLM agents.

An agent sees only observations. Its decision carries the chosen action, who
chose it (oracle, scripted, random, model, planner or critic), and the full
log of any model calls made along the way so the harness can account tokens
and latency per round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .chat import ChatMessage, UsageRecord
from .errors import EpisodeProtocolFailure
from .observation import Observation, parse_action
from .world import Action


@dataclass
class CompletionLog:
    """One model call: what was sent, what came back, what it cost."""

    role: str  # "model" | "planner" | "critic"
    model: str
    messages: list[ChatMessage]
    response: str
    usage: UsageRecord


@dataclass
class Decision:
    action: Action
    provenance: str
    calls: list[CompletionLog] = field(default_factory=list)
    analysis: str | None = None
    guess: dict | None = None  # {"wumpus": [[x, y], ...], "pits": [[x, y], ...]}
    guess_raw: str | None = None
    flags: list[str] = field(default_factory=list)


def _cell_pairs(cells) -> bool:
    """Whether ``cells`` is a guess's cell list as JSON holds it: a list of
    [x, y] pairs of ints, where a bool is no int."""
    return type(cells) is list and all(
        type(cell) is list and len(cell) == 2 and type(cell[0]) is int is type(cell[1])
        for cell in cells
    )


class Agent(Protocol):
    def decide(self, obs: Observation) -> Decision: ...


class Completer(Protocol):
    """A model as agents ask it; ``ChatClient`` is one. ``complete`` returns a
    reply's text and usage, or raises ``TransportError`` or ``ProtocolError``."""

    model: str  # logged with each call

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, UsageRecord]: ...


def legal_actions_from(obs: Observation) -> list[Action]:
    """The legal actions implied by an observation, in a fixed order."""
    out = [Action.move(c.x, c.y) for c in obs.frontier_cells]
    out.extend(Action.shoot(d) for d in obs.shoot_options)
    out.append(Action.exit())
    return out


class ScriptedAgent:
    """Plays a fixed action sequence; raises a protocol failure when it runs
    out of script."""

    def __init__(self, actions: Iterable[Action | str]):
        self._actions = [
            a if isinstance(a, Action) else parse_action(a) for a in actions
        ]
        self._cursor = 0

    def decide(self, obs: Observation) -> Decision:
        if self._cursor >= len(self._actions):
            raise EpisodeProtocolFailure("scripted agent ran out of actions")
        action = self._actions[self._cursor]
        self._cursor += 1
        return Decision(action=action, provenance="scripted")


class RandomLegalAgent:
    """Uniformly random choice among the legal actions; seeded and
    deterministic."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def decide(self, obs: Observation) -> Decision:
        options = legal_actions_from(obs)
        action = options[self._rng.randrange(len(options))]
        return Decision(action=action, provenance="random")

"""Aggregated eight-field observation and the agent action grammar.

The observation is what agents see: it never exposes hazard positions, only
the percept history of visited cells plus frontier/shooting suggestions. It
serializes to a single JSON object whose keys are fixed wire strings (see
``OBSERVATION_KEYS``); parsing that text back yields an identical observation.

Action grammar (case-insensitive, last match in the text wins so that
chain-of-thought replies can mention candidates before the final choice):

* ``move to position (x,y)`` - any ``move...`` verb followed by coordinates
  in parentheses;
* ``<shootup>``, ``<shootdown>``, ``<shootleft>``, ``<shootright>``;
* ``<exit>``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ActionParseError
from .world import (
    Action,
    Cell,
    Direction,
    DIRECTIONS,
    WorldState,
    frontier,
    sort_key,
)

KEY_NUM_WUMPUS = "number of Wumpus"
KEY_NUM_PITS = "number of pit"
KEY_POSITION = "Current Position"
KEY_QUIET = "No breeze or stench is detected in these locations"
KEY_BREEZE = "A breeze is detected in the following locations"
KEY_STENCH = "A stench is detected in the following locations"
KEY_SUGGESTIONS = (
    "When you have confirmed that the corresponding locations are safe, "
    "prioritize exploring these areas"
)
KEY_ARROW = "The situation with the arrows"

OBSERVATION_KEYS = (
    KEY_NUM_WUMPUS,
    KEY_NUM_PITS,
    KEY_POSITION,
    KEY_QUIET,
    KEY_BREEZE,
    KEY_STENCH,
    KEY_SUGGESTIONS,
    KEY_ARROW,
)


@dataclass(frozen=True)
class Suggestions:
    frontier_cells: tuple[Cell, ...]
    shoot_options: tuple[Direction, ...]


@dataclass(frozen=True)
class ArrowStatus:
    fired: bool
    direction: Direction | None
    scream_heard: bool


@dataclass(frozen=True)
class Observation:
    """The aggregated percept summary handed to agents each round."""

    num_wumpus: int
    num_pits: int
    current_position: Cell
    quiet_locations: tuple[Cell, ...]
    breeze_locations: tuple[Cell, ...]
    stench_locations: tuple[Cell, ...]
    suggestions: Suggestions
    arrow_status: ArrowStatus


def frontier_suggestions(state: WorldState) -> Suggestions:
    """Frontier cells in (y, x) order plus the shot directions still open."""
    shoot = DIRECTIONS if state.arrow_available else ()
    return Suggestions(
        frontier_cells=tuple(frontier(state)),
        shoot_options=tuple(shoot),
    )


def build_observation(state: WorldState) -> Observation:
    """Aggregate the full percept history of ``state`` into an observation.

    Location lists reflect the percepts recorded when each cell was first
    visited; a stench recorded before the wumpus died stays recorded. A cell
    is quiet only if it had neither breeze nor stench, and a cell with both
    appears in both lists.
    """
    quiet, breeze, stench = [], [], []
    for cell, percept in state.percept_log.items():
        if percept.breeze:
            breeze.append(cell)
        if percept.stench:
            stench.append(cell)
        if not percept.breeze and not percept.stench:
            quiet.append(cell)
    report = state.arrow_report
    return Observation(
        num_wumpus=state.config.num_wumpus,
        num_pits=state.config.num_pits,
        current_position=state.agent_cell,
        quiet_locations=tuple(sorted(quiet, key=sort_key)),
        breeze_locations=tuple(sorted(breeze, key=sort_key)),
        stench_locations=tuple(sorted(stench, key=sort_key)),
        suggestions=frontier_suggestions(state),
        arrow_status=ArrowStatus(
            fired=report is not None,
            direction=report.direction if report else None,
            scream_heard=report.scream if report else False,
        ),
    )


def observation_to_dict(obs: Observation) -> dict:
    """The eight-key wire form of an observation."""
    return {
        KEY_NUM_WUMPUS: obs.num_wumpus,
        KEY_NUM_PITS: obs.num_pits,
        KEY_POSITION: list(obs.current_position),
        KEY_QUIET: [list(c) for c in obs.quiet_locations],
        KEY_BREEZE: [list(c) for c in obs.breeze_locations],
        KEY_STENCH: [list(c) for c in obs.stench_locations],
        KEY_SUGGESTIONS: {
            "frontier_cells": [list(c) for c in obs.suggestions.frontier_cells],
            "shoot_options": [d.value for d in obs.suggestions.shoot_options],
        },
        KEY_ARROW: {
            "fired": obs.arrow_status.fired,
            "direction": obs.arrow_status.direction.value
            if obs.arrow_status.direction
            else None,
            "scream_heard": obs.arrow_status.scream_heard,
        },
    }


def observation_to_json(obs: Observation) -> str:
    return json.dumps(observation_to_dict(obs), indent=2)


def observation_from_dict(data: dict) -> Observation:
    def cells(raw) -> tuple[Cell, ...]:
        return tuple(Cell(int(x), int(y)) for x, y in raw)

    suggestions = data[KEY_SUGGESTIONS]
    arrow = data[KEY_ARROW]
    return Observation(
        num_wumpus=int(data[KEY_NUM_WUMPUS]),
        num_pits=int(data[KEY_NUM_PITS]),
        current_position=Cell(*map(int, data[KEY_POSITION])),
        quiet_locations=cells(data[KEY_QUIET]),
        breeze_locations=cells(data[KEY_BREEZE]),
        stench_locations=cells(data[KEY_STENCH]),
        suggestions=Suggestions(
            frontier_cells=cells(suggestions["frontier_cells"]),
            shoot_options=tuple(Direction(d) for d in suggestions["shoot_options"]),
        ),
        arrow_status=ArrowStatus(
            fired=bool(arrow["fired"]),
            direction=Direction(arrow["direction"]) if arrow["direction"] else None,
            scream_heard=bool(arrow["scream_heard"]),
        ),
    )


def observation_from_json(text: str) -> Observation:
    return observation_from_dict(json.loads(text))


# A move's cell is read at the first of "()<>" after the word, which every
# "move" before that character shares. One match takes the whole run and
# leaves the cell groups empty when no cell follows; trying each "move" of
# the run again would take quadratic time.
_MOVE_RE = re.compile(
    r"move[^()<>]*(?:\(\s*(\d+)\s*,\s*(\d+)\s*\))?", re.IGNORECASE
)
_TOKEN_RE = re.compile(
    r"<\s*(shootup|shootdown|shootleft|shootright|exit)\s*>", re.IGNORECASE
)


def parse_action(text: str) -> Action:
    """Extract the final action from free-form agent text.

    Raises :class:`ActionParseError` when no recognizable action occurs.
    """
    best_pos = -1
    best: Action | None = None
    for match in _MOVE_RE.finditer(text):
        if match.group(1) is not None and match.start() > best_pos:
            best_pos = match.start()
            best = Action.move(int(match.group(1)), int(match.group(2)))
    for match in _TOKEN_RE.finditer(text):
        if match.start() > best_pos:
            best_pos = match.start()
            token = match.group(1).lower()
            if token == "exit":
                best = Action.exit()
            else:
                best = Action.shoot(token.removeprefix("shoot"))
    if best is None:
        raise ActionParseError(f"no recognizable action in: {text!r:.200}")
    return best

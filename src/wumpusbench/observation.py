"""Aggregated eight-field observation and the agent action grammar.

The observation is what agents see: it never exposes hazard positions, only
the percept history of visited cells plus frontier/shooting suggestions. It
serializes to a single JSON object whose keys are fixed wire strings (see
``OBSERVATION_KEYS``). :func:`observation_from_dict` decodes that object back
to an identical observation, and refuses one whose keys, types or values are
not exactly those of the wire form.

Building one is cheap per round. From scratch, the percept log is sorted once
and split, in that order, into the quiet, breeze and stench lists, and the
frontier is built from the explored cells' neighbors. Given the observation
built before the episode's latest action, :func:`build_observation` instead
inserts the one cell that action may have explored into the sorted tuples and
the frontier, and shares every tuple the action left unchanged. The arrow is
the world's own :class:`ArrowReport`, or ``None`` while it is unfired; the
shot options follow from it (``DIRECTIONS`` itself until the shot, then
``()``), so they are read, not stored.

Each distinct observation of play is built once per process. An observation
depends only on the one before it and on what the latest action revealed, so
a process-wide successor memo maps that to the observation built: the key is
``previous`` (by identity), the grid size, the wumpus and pit counts, the
agent's cell with its breeze and stench, and the arrow report. Equal
observations across the episodes of a condition are thus one shared object,
and the oracle's decision memo, which keys on observations, finds them by
identity. A build without ``previous`` uses the memo only for a one-cell
log, round 0; the replay behind ``verify_record`` builds every later round
from scratch, so it still checks each observation play took from the memo.
The stale-``previous`` checks run before the lookup. The memo holds at most
4,096 entries, about 2 MiB, and is cleared when full; it holds nothing an
agent may not see. Keying on ``previous``'s identity, not its value, spares a
hash of the whole observation, and keeps every successor sharing its tuples
with the very ``previous`` it was advanced from.

Action grammar (case-insensitive, last match in the text wins so that
chain-of-thought replies can mention candidates before the final choice):

* ``move to position (x,y)`` - any ``move...`` verb followed by coordinates
  in parentheses;
* ``<shootup>``, ``<shootdown>``, ``<shootleft>``, ``<shootright>``;
* ``<exit>``.
"""

from __future__ import annotations

import functools
import json
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ActionParseError
from .world import (
    Action,
    ArrowReport,
    Cell,
    Direction,
    DIRECTIONS,
    WorldState,
    frontier,
    geometry,
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
class Observation:
    """The aggregated percept summary handed to agents each round."""

    num_wumpus: int
    num_pits: int
    current_position: Cell
    quiet_locations: tuple[Cell, ...]
    breeze_locations: tuple[Cell, ...]
    stench_locations: tuple[Cell, ...]
    frontier_cells: tuple[Cell, ...]  # unexplored neighbors, (y, x)-sorted
    arrow: ArrowReport | None  # None while the arrow is unfired

    @property
    def shoot_options(self) -> tuple[Direction, ...]:
        """The directions a shot may still take: all four, or none once fired."""
        return DIRECTIONS if self.arrow is None else ()


# The successor memo: key -> (previous, observation); see the module
# docstring. The value holds ``previous`` so that its id, which the key holds,
# names no other object while the entry lives. Cleared when it reaches its
# cap, which on 5x5 grids is about 2 MiB.
_MEMO_ENTRIES = 4096
_successors: dict[tuple, tuple[Observation | None, Observation]] = {}
_successors_lock = threading.Lock()


def build_observation(
    state: WorldState, previous: Observation | None = None
) -> Observation:
    """Aggregate the full percept history of ``state`` into an observation.

    Location lists reflect the percepts recorded when each cell was first
    visited; a stench recorded before the wumpus died stays recorded. A cell
    is quiet only if it had neither breeze nor stench, and a cell with both
    appears in both lists.

    Without ``previous`` the log is sorted once and split in that order. With
    ``previous``, the observation built for the same episode before its
    latest action, the result is advanced from it instead: the one cell a
    move explored is inserted into the location tuples and the frontier, and
    every tuple the action did not change is shared. Both give equal results.
    Raises :class:`ValueError` when the log shows that ``previous`` is stale:
    its position is neither the agent's cell nor the cell explored before it.

    The result comes from the successor memo (see the module docstring) when
    the same ``previous`` met the same revealed cell before, or when a
    one-cell log met the same first cell; it is stored there otherwise.
    """
    log = state.percept_log
    visited = reversed(log)
    position = next(visited)
    if previous is None:
        if len(log) > 1:  # a build from scratch past round 0 skips the memo
            return _build(state, None, position)
    elif previous.current_position != position:
        if previous.current_position != next(visited, None):
            raise ValueError(
                f"previous observation at {tuple(previous.current_position)} "
                f"is stale for an agent at {tuple(position)}"
            )
        if position not in previous.frontier_cells:
            raise ValueError(
                f"previous observation is stale: its frontier lacks "
                f"{tuple(position)}, the cell explored since"
            )
    config = state.config
    percept = log[position]
    key = (
        id(previous),
        config.grid_size,
        config.num_wumpus,
        config.num_pits,
        position,
        percept.breeze,
        percept.stench,
        state.arrow_report,
    )
    entry = _successors.get(key)
    if entry is not None:
        return entry[1]
    entry = (previous, _build(state, previous, position))
    _successors_lock.acquire()  # cheaper than ``with``, which each miss pays for
    try:
        if len(_successors) >= _MEMO_ENTRIES:
            _successors.clear()
        # A thread that stored the same key first wins, so both share it.
        return _successors.setdefault(key, entry)[1]
    finally:
        _successors_lock.release()


def _build(
    state: WorldState, previous: Observation | None, position: Cell
) -> Observation:
    """The observation of ``state``, whose agent is at ``position``: from
    scratch without ``previous``, else advanced from ``previous``, which the
    caller has found not stale."""
    log = state.percept_log
    if previous is None:
        quiet, breeze, stench = [], [], []
        for cell in sorted(log, key=sort_key):
            percept = log[cell]
            if percept.breeze:
                breeze.append(cell)
            if percept.stench:
                stench.append(cell)
            if not percept.breeze and not percept.stench:
                quiet.append(cell)
        quiet, breeze, stench = tuple(quiet), tuple(breeze), tuple(stench)
        frontier_cells = tuple(frontier(state))
    else:
        quiet = previous.quiet_locations
        breeze = previous.breeze_locations
        stench = previous.stench_locations
        frontier_cells = previous.frontier_cells
        if previous.current_position != position:
            near = set(frontier_cells)
            near.update(geometry(state.config.grid_size).neighbors[position])
            near.difference_update(log)
            frontier_cells = tuple(sorted(near, key=sort_key))
            percept = log[position]
            if percept.breeze:
                breeze = _inserted(breeze, position)
            if percept.stench:
                stench = _inserted(stench, position)
            if not percept.breeze and not percept.stench:
                quiet = _inserted(quiet, position)
    config = state.config
    return Observation(
        config.num_wumpus,
        config.num_pits,
        position,
        quiet,
        breeze,
        stench,
        frontier_cells,
        state.arrow_report,
    )


def _inserted(cells: tuple[Cell, ...], cell: Cell) -> tuple[Cell, ...]:
    """The (y, x)-sorted ``cells``, which lack ``cell``, with ``cell`` in order."""
    i = bisect_left(cells, sort_key(cell), key=sort_key)
    return (*cells[:i], cell, *cells[i:])


# The plain wire string of each direction, and None for no direction: a
# table lookup is cheaper than the enum's value descriptor.
_WIRE = {None: None, **{d: d.value for d in DIRECTIONS}}


def observation_to_dict(obs: Observation) -> dict:
    """The eight-key wire form of an observation, ready for ``json``: each
    cell stays a ``Cell`` and each cell list a tuple, which ``json`` writes
    as arrays; directions become their plain strings."""
    arrow = obs.arrow
    return {
        KEY_NUM_WUMPUS: obs.num_wumpus,
        KEY_NUM_PITS: obs.num_pits,
        KEY_POSITION: obs.current_position,
        KEY_QUIET: obs.quiet_locations,
        KEY_BREEZE: obs.breeze_locations,
        KEY_STENCH: obs.stench_locations,
        KEY_SUGGESTIONS: {
            "frontier_cells": obs.frontier_cells,
            "shoot_options": [_WIRE[d] for d in obs.shoot_options],
        },
        KEY_ARROW: {
            "fired": arrow is not None,
            "direction": None if arrow is None else _WIRE[arrow.direction],
            "scream_heard": arrow is not None and arrow.scream,
        },
    }


def observation_to_json(obs: Observation) -> str:
    return json.dumps(observation_to_dict(obs), indent=2)


# Decoded cells, each built on first use and then shared: a lookup costs less
# than building a ``Cell``. The last 4096 pairs used (a 64x64 grid) are kept.
_cell = functools.lru_cache(maxsize=4096)(Cell)
_LISTS = frozenset((list, tuple))
_KEYS = frozenset(OBSERVATION_KEYS)
_SUGGESTION_KEYS = frozenset(("frontier_cells", "shoot_options"))
_ARROW_KEYS = frozenset(("fired", "direction", "scream_heard"))
# The nine arrow states by their wire values (fired, direction, scream):
# unfired (None), or fired in a direction, with or without a scream.
_ARROWS = {
    (False, None, False): None,
    **{
        (True, _WIRE[d], scream): ArrowReport(d, scream)
        for d in DIRECTIONS
        for scream in (False, True)
    },
}
_UNFIRED_SHOTS = [_WIRE[d] for d in DIRECTIONS]


def _object(data, keys: frozenset[str], name: str) -> dict:
    """``data``, which must be an object with exactly the ``keys``."""
    if type(data) is not dict:
        raise ValueError(f"{name} must be an object, not {data!r:.80}")
    if data.keys() != keys:
        faults = [
            f"{fault} keys {sorted(names)}"
            for fault, names in (("missing", keys - data.keys()), ("unknown", data.keys() - keys))
            if names
        ]
        raise ValueError(f"{name}: {', '.join(faults)}")
    return data


def _cells(raw, name: str) -> tuple[Cell, ...]:
    """The cells of the list ``raw``, each an [x, y] pair of ints. The type
    test matters: a float or a bool would find the cell of the int it equals."""
    if type(raw) in _LISTS:
        try:
            cells = [_cell(x, y) for x, y in raw if type(x) is int is type(y)]
        except (TypeError, ValueError):  # an item that is not a pair
            cells = ()
        if len(cells) == len(raw):
            return tuple(cells)
    raise ValueError(
        f"observation {name} {raw!r:.80}: each cell must be an [x, y] pair of ints"
    )


def observation_from_dict(data: dict) -> Observation:
    """Decode the wire form exactly, coercing nothing: each object must hold
    exactly its keys, a count or coordinate must be an int, a cell a pair,
    the arrow one of its nine states, and the shot options all four wire
    directions in order while the arrow is unfired and none once it is
    fired. Raises :class:`ValueError` naming the first fault. Cells and the
    arrow reports come from shared tables."""
    _object(data, _KEYS, "observation")
    num_wumpus, num_pits = data[KEY_NUM_WUMPUS], data[KEY_NUM_PITS]
    if not type(num_wumpus) is int is type(num_pits):
        raise ValueError(
            f"observation counts must be ints, not {num_wumpus!r} and {num_pits!r}"
        )
    suggestions = _object(
        data[KEY_SUGGESTIONS], _SUGGESTION_KEYS, "observation suggestions"
    )
    (position,) = _cells((data[KEY_POSITION],), "position")
    status = _object(data[KEY_ARROW], _ARROW_KEYS, "observation arrow status")
    wire = status["fired"], status["direction"], status["scream_heard"]
    try:
        valid = type(wire[0]) is bool is type(wire[2]) and wire in _ARROWS
    except TypeError:  # an unhashable direction
        valid = False
    if not valid:
        raise ValueError(f"observation arrow status {status!r:.80} is not a valid state")
    arrow = _ARROWS[wire]
    shots = suggestions["shoot_options"]
    if type(shots) not in _LISTS or list(shots) != (
        _UNFIRED_SHOTS if arrow is None else []
    ):
        raise ValueError(
            f"observation shoot options {shots!r:.80} must be all four directions "
            "before the shot and none after it"
        )
    return Observation(
        num_wumpus,
        num_pits,
        position,
        _cells(data[KEY_QUIET], "quiet locations"),
        _cells(data[KEY_BREEZE], "breeze locations"),
        _cells(data[KEY_STENCH], "stench locations"),
        _cells(suggestions["frontier_cells"], "frontier cells"),
        arrow,
    )


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

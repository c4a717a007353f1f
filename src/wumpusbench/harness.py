"""Episode runner, trial matrix, persistence and replay rendering.

An episode record logs everything needed to audit a run: the configuration
and seed (which fully determine the world), every observation, every model
call with usage, and every executed action with its provenance. Records
serialize one-per-line to an append-only JSONL log; loading a record and
re-simulating it from the seed must reproduce every observation, reward and
the final score, which :func:`verify_record` enforces.
"""

from __future__ import annotations

import json
import random
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

from .agents import Agent, CompletionLog
from .errors import (
    ConfigurationError, EpisodeProtocolFailure, LogCorruptionError, ReplayMismatchError,
    WumpusBenchError,
)
from .observation import build_observation, observation_to_dict, parse_action
from .world import (
    Action,
    ActionKind,
    Cell,
    Status,
    WorldConfig,
    WorldState,
    apply_action,
    generate_world,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Records


@dataclass
class RoundRecord:
    index: int
    observation: dict  # eight-key wire form
    action: Action
    provenance: str
    reward_delta: int
    analysis: str | None = None
    guess: dict | None = None
    guess_raw: str | None = None
    flags: list[str] = field(default_factory=list)
    calls: list[CompletionLog] = field(default_factory=list)


@dataclass
class EpisodeRecord:
    config: WorldConfig
    agent_kind: str
    mechanism: str | None
    models: dict[str, str]
    condition: str | None
    rounds: list[RoundRecord]
    status: str
    score: int
    success: bool
    wumpus_killed: bool
    error: str | None = None

    @property
    def seed(self) -> int:
        return self.config.seed

    def step_count(self) -> int:
        return sum(
            1
            for r in self.rounds
            if r.action.kind in (ActionKind.MOVE, ActionKind.SHOOT)
        )

    def prompt_tokens(self) -> int:
        return sum(c.usage.prompt_tokens for r in self.rounds for c in r.calls)

    def completion_tokens(self) -> int:
        return sum(c.usage.completion_tokens for r in self.rounds for c in r.calls)

    def total_tokens(self) -> int:
        return sum(c.usage.total_tokens for r in self.rounds for c in r.calls)

    def total_latency(self) -> float:
        return sum(c.usage.latency for r in self.rounds for c in r.calls)

    def usage_by_model(self) -> list[tuple[str, int, int]]:
        """(model, prompt tokens, completion tokens) per call."""
        return [
            (c.model, c.usage.prompt_tokens, c.usage.completion_tokens)
            for r in self.rounds
            for c in r.calls
        ]

    def to_dict(self) -> dict:
        """The JSON object :func:`write_records` writes for this record."""
        return json.loads(_ENCODER.encode(self))

    @staticmethod
    def from_dict(data: dict) -> "EpisodeRecord":
        """Decode one log line's object; the top-level ``seed`` must mirror
        ``config.seed``."""
        rest = {**data}
        schema = rest.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise LogCorruptionError(f"unsupported record schema {schema!r}")
        seed = rest.pop("seed", None)
        record = _decoder(EpisodeRecord)(rest)
        if seed != record.seed:
            raise LogCorruptionError(
                f"top-level seed {seed!r} != config.seed {record.seed!r}"
            )
        return record

    def core_fingerprint(self) -> str:
        """Deterministic JSON of everything except wall-clock latencies."""
        data = self.to_dict()
        for round_data in data["rounds"]:
            for call in round_data["calls"]:
                call["usage"] = {**call["usage"], "latency": None}
        return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# Episode loop


def run_episode(
    config: WorldConfig,
    agent: Agent,
    *,
    agent_kind: str = "custom",
    mechanism: str | None = None,
    models: dict[str, str] | None = None,
    condition: str | None = None,
) -> EpisodeRecord:
    """Run one episode: observe, decide, act, until a terminal status.

    An exception from the agent or from the step ends the episode, and the
    rounds executed so far stay logged with the score they earned. An agent's
    :class:`EpisodeProtocolFailure` (exhausted parse retries, or a transport
    or protocol error from the endpoint) gives status ``protocol_failure``,
    and the failed round is logged with the calls it made and the flags of
    the replies refused in it. Any other exception gets the status and error
    text of :func:`_failure`.
    """
    state = generate_world(config)
    rounds: list[RoundRecord] = []
    error: str | None = None

    while state.status is Status.RUNNING:
        obs = build_observation(state)
        obs_dict = observation_to_dict(obs)
        try:
            decision = agent.decide(obs)
            result = apply_action(state, decision.action)
        except EpisodeProtocolFailure as exc:
            state.status = Status.PROTOCOL_FAILURE
            error = str(exc)
            rounds.append(
                RoundRecord(
                    index=len(rounds),
                    observation=obs_dict,
                    action=Action.exit(),
                    provenance="none",
                    reward_delta=0,
                    flags=[*exc.flags, "protocol-failure"],
                    calls=list(exc.calls),
                )
            )
            break
        except Exception as exc:  # record, never abort the batch
            state.status, error = _failure(exc)
            break
        rounds.append(
            RoundRecord(
                index=len(rounds),
                observation=obs_dict,
                action=decision.action,
                provenance=decision.provenance,
                reward_delta=result.reward_delta,
                analysis=decision.analysis,
                guess=decision.guess,
                guess_raw=decision.guess_raw,
                flags=list(decision.flags),
                calls=list(decision.calls),
            )
        )

    # Protocol-failure rounds log no executed action; drop the placeholder
    # from accounting by excluding it from scores/steps (reward_delta is 0).
    return EpisodeRecord(
        config=config,
        agent_kind=agent_kind,
        mechanism=mechanism,
        models=models or {},
        condition=condition,
        rounds=rounds,
        status=state.status.value,
        score=state.score,
        success=state.status is Status.SUCCESS,
        wumpus_killed=_wumpus_killed(state),
        error=error,
    )


def _failure(exc: Exception) -> tuple[Status, str]:
    """Status and error text of an episode ended by ``exc``. A package error
    (inconsistent percepts, an illegal action, a bad configuration) is the
    harness failing its own checks, which no model reply can cause, so it
    gets ``harness_error``; any other exception is the agent failing to act
    and gets ``protocol_failure``."""
    status = (
        Status.HARNESS_ERROR
        if isinstance(exc, WumpusBenchError)
        else Status.PROTOCOL_FAILURE
    )
    return status, "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _wumpus_killed(state: WorldState) -> bool:
    return state.arrow_report.scream if state.arrow_report else False


# ---------------------------------------------------------------------------
# Trial matrix


@dataclass(frozen=True)
class Condition:
    grid_size: int
    num_pits: int
    num_wumpus: int

    @property
    def label(self) -> str:
        return f"{self.grid_size}x{self.grid_size}_p{self.num_pits}_w{self.num_wumpus}"


DEFAULT_CONDITIONS = (
    Condition(3, 0, 1),
    Condition(3, 1, 0),
    Condition(3, 1, 1),
    Condition(4, 1, 1),
    Condition(4, 2, 1),
    Condition(4, 3, 1),
)

DEFAULT_TRIALS_PER_CONDITION = 25


@dataclass
class TrialMatrix:
    """Conditions with their per-trial seeds; seeds are distinct within a
    condition."""

    entries: list[tuple[Condition, tuple[int, ...]]]
    step_limit: int = 50

    def __post_init__(self):
        for i, (condition, seeds) in enumerate(self.entries):
            if len(set(seeds)) != len(seeds):
                raise ConfigurationError(
                    f"condition {i} ({condition.label}) has duplicate seeds"
                )

    def configs(self) -> list[tuple[Condition, WorldConfig]]:
        out = []
        for condition, seeds in self.entries:
            for seed in seeds:
                out.append(
                    (
                        condition,
                        WorldConfig(
                            grid_size=condition.grid_size,
                            num_pits=condition.num_pits,
                            num_wumpus=condition.num_wumpus,
                            seed=seed,
                            step_limit=self.step_limit,
                        ),
                    )
                )
        return out

    def total_trials(self) -> int:
        return sum(len(seeds) for _, seeds in self.entries)


def _draw_seeds(master_seed: int, condition_index: int, count: int) -> tuple[int, ...]:
    rng = random.Random(f"{master_seed}:{condition_index}")
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < count:
        seed = rng.getrandbits(31)
        if seed not in seen:
            seen.add(seed)
            seeds.append(seed)
    return tuple(seeds)


def default_matrix(
    master_seed: int = 0,
    trials_per_condition: int = DEFAULT_TRIALS_PER_CONDITION,
    step_limit: int = 50,
) -> TrialMatrix:
    """The standard six-condition, 25-trials-each benchmark matrix."""
    entries = [
        (condition, _draw_seeds(master_seed, i, trials_per_condition))
        for i, condition in enumerate(DEFAULT_CONDITIONS)
    ]
    return TrialMatrix(entries=entries, step_limit=step_limit)


def matrix_from_dict(data: dict) -> TrialMatrix:
    """Load a matrix from config JSON; omitted seeds are drawn from
    ``master_seed`` deterministically. A malformed top-level field raises
    :class:`ConfigurationError` naming it, and a condition with a missing or
    malformed field one naming its index."""

    def top_level(name: str, default: int) -> int:
        try:
            return int(data.get(name, default))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{name}: malformed field ({type(exc).__name__}: {exc})"
            ) from exc

    master_seed = top_level("master_seed", 0)
    step_limit = top_level("step_limit", 50)
    trials = top_level("trials_per_condition", DEFAULT_TRIALS_PER_CONDITION)
    if "conditions" not in data:
        return default_matrix(master_seed, trials, step_limit)
    entries = []
    for i, entry in enumerate(data["conditions"]):
        try:
            condition = Condition(
                grid_size=int(entry["grid_size"]),
                num_pits=int(entry["num_pits"]),
                num_wumpus=int(entry["num_wumpus"]),
            )
            if "seeds" in entry:
                seeds = tuple(int(s) for s in entry["seeds"])
            else:
                seeds = _draw_seeds(master_seed, i, int(entry.get("trials", trials)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"condition {i}: missing or malformed field "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        entries.append((condition, seeds))
    return TrialMatrix(entries=entries, step_limit=step_limit)


def run_trials(
    matrix: TrialMatrix,
    agent_factory: Callable[[WorldConfig], Agent],
    *,
    agent_kind: str = "custom",
    mechanism: str | None = None,
    models: dict[str, str] | None = None,
    parallelism: int = 1,
    on_episode: Callable[[EpisodeRecord], None] | None = None,
) -> list[EpisodeRecord]:
    """Run every (condition, seed) episode; failures never abort the batch.

    Results come back in matrix order regardless of the degree of
    parallelism, and each episode gets a fresh agent from the factory.
    :func:`run_episode` logs an episode that its agent ends. An episode whose
    agent factory or world generation raises is logged with no rounds, and
    the status and error text of :func:`_failure`.
    """
    jobs = matrix.configs()

    def run_one(job: tuple[Condition, WorldConfig]) -> EpisodeRecord:
        condition, config = job
        try:
            record = run_episode(
                config,
                agent_factory(config),
                agent_kind=agent_kind,
                mechanism=mechanism,
                models=models,
                condition=condition.label,
            )
        except Exception as exc:  # record, never abort the batch
            status, error = _failure(exc)
            record = EpisodeRecord(
                config=config,
                agent_kind=agent_kind,
                mechanism=mechanism,
                models=models or {},
                condition=condition.label,
                rounds=[],
                status=status.value,
                score=config.base_score,
                success=False,
                wumpus_killed=False,
                error=error,
            )
        if on_episode is not None:
            on_episode(record)
        return record

    if parallelism <= 1:
        return [run_one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_one, jobs))


# ---------------------------------------------------------------------------
# Persistence and replay


def _value_decoder(hint) -> Callable | None:
    """How to rebuild a value annotated ``hint`` (a dataclass or an action,
    alone or as list items) from its JSON form; None to keep the JSON value."""
    if hint is Action:
        return _decode_action
    if is_dataclass(hint):
        return _decoder(hint)
    if get_origin(hint) is list and (item := _value_decoder(get_args(hint)[0])):
        return lambda values: [item(value) for value in values]
    return None


def _decode_action(text: str) -> Action:
    """The action a log wrote as ``text``, which must be its canonical text:
    :func:`parse_action` also reads free-text replies, and a line it accepts
    but would write back differently was not written by this codec."""
    # Looked up per call, so a wrapper set on this module's attribute sees it.
    action = parse_action(text)
    if action.to_text() != text:
        raise LogCorruptionError(f"non-canonical action text {text!r}")
    return action


_SCALARS = (bool, int, float, str, NoneType)


def _scalar_types(hint) -> tuple[type, ...] | None:
    """The JSON value types a field annotated ``hint`` accepts, if it is a
    scalar (``int``, ``bool``, ``str`` or ``float``, alone or ``| None``):
    a bool is not an int, and an int is a float."""
    types = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if not all(t in _SCALARS for t in types):
        return None
    return (*types, int) if float in types else types


@cache
def _decoder(cls: type) -> Callable[[dict], object]:
    """Rebuild a ``cls`` from its JSON object, nested values by the field
    annotations, resolved once per class. A scalar of the wrong type raises
    :class:`LogCorruptionError`. The constructor rejects an unknown key or a
    missing required one, and fills in a missing optional one."""
    hints = get_type_hints(cls)
    scalars = [
        (f.name, types, getattr(hint, "__name__", str(hint)))
        for f in fields(cls)
        if (types := _scalar_types(hint := hints[f.name])) is not None
    ]
    nested = [
        (f.name, decode)
        for f in fields(cls)
        if (decode := _value_decoder(hints[f.name])) is not None
    ]

    def decode(data: dict):
        kwargs = {**data}
        for name, types, label in scalars:
            if name in kwargs and type(kwargs[name]) not in types:
                raise LogCorruptionError(
                    f"{cls.__name__}.{name} must be {label}, not {kwargs[name]!r}"
                )
        for name, decode_value in nested:
            if name in kwargs:
                kwargs[name] = decode_value(kwargs[name])
        return cls(**kwargs)

    return decode


def _to_json(obj) -> object:
    """``json`` hook: an action as its canonical text, any other dataclass as
    its instance dictionary, which holds exactly its fields; an episode also
    gets its ``schema`` and ``seed``."""
    if isinstance(obj, Action):
        return obj.to_text()
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not part of a record")
    if isinstance(obj, EpisodeRecord):
        return {"schema": SCHEMA_VERSION, "seed": obj.seed, **vars(obj)}
    return vars(obj)


# Records are trees, so the encoder skips its reference-cycle bookkeeping.
_ENCODER = json.JSONEncoder(default=_to_json, check_circular=False)


def write_records(
    path: str | Path, records: Iterable[EpisodeRecord], *, append: bool = True
) -> None:
    """Append records to a JSONL log, one episode per line."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(_ENCODER.encode(record) + "\n")


def read_records(path: str | Path) -> list[EpisodeRecord]:
    """Every record in a JSONL log; a line that does not decode raises
    :class:`LogCorruptionError` naming the file and the line."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(EpisodeRecord.from_dict(json.loads(line)))
            except (ValueError, TypeError, WumpusBenchError) as exc:
                raise LogCorruptionError(f"{path}: line {lineno}: {exc}") from exc
    return records


def _replay(
    state: WorldState, record: EpisodeRecord
) -> Iterator[tuple[RoundRecord, dict, int]]:
    """Step ``state``, fresh from ``record``'s seed, through the record's
    executed rounds, up to a protocol failure: per round, the round, the
    observation before its action, and the action's reward."""
    for round_record in record.rounds:
        if "protocol-failure" in round_record.flags:
            return
        observation = observation_to_dict(build_observation(state))
        reward = apply_action(state, round_record.action).reward_delta
        yield round_record, observation, reward


def verify_record(record: EpisodeRecord) -> WorldState:
    """Re-simulate a record from its seed and check it reproduces the log.

    Returns the final state; raises :class:`ReplayMismatchError` on the first
    divergence (wrong observation, reward, score, status, success or kill).
    A logged action that is illegal in the replayed world raises
    :class:`IllegalActionError` before its round's observation is compared. A
    ``harness_error`` record never verifies: its replay is left running.
    """
    state = generate_world(record.config)
    for round_record, observation, reward in _replay(state, record):
        if observation != round_record.observation:
            raise ReplayMismatchError(
                f"round {round_record.index}: observation diverges from the log"
            )
        if reward != round_record.reward_delta:
            raise ReplayMismatchError(
                f"round {round_record.index}: reward {reward} != "
                f"logged {round_record.reward_delta}"
            )
    for name, replayed in (
        ("score", state.score),
        ("success", state.status is Status.SUCCESS),
        ("wumpus_killed", _wumpus_killed(state)),
    ):
        if getattr(record, name) != replayed:
            raise ReplayMismatchError(
                f"final {name} {replayed} != logged {getattr(record, name)}"
            )
    if record.status != Status.PROTOCOL_FAILURE.value and state.status.value != record.status:
        raise ReplayMismatchError(
            f"final status {state.status.value} != logged {record.status}"
        )
    return state


def render_board(state: WorldState, *, reveal: bool = True) -> str:
    """ASCII board: A agent, P pit, W/w live/dead wumpus, G gold, . explored,
    ? unexplored."""
    n = state.config.grid_size
    lines = []
    for y in range(n, 0, -1):
        row = []
        for x in range(1, n + 1):
            cell = Cell(x, y)
            symbol = "." if cell in state.percept_log else "?"
            if reveal:
                if cell == state.gold_cell:
                    symbol = "G"
                if cell == state.wumpus_cell:
                    symbol = "W" if state.wumpus_alive else "w"
                if cell in state.pit_cells:
                    symbol = "P"
            if cell == state.agent_cell:
                symbol = "A"
            row.append(symbol)
        lines.append(f"y{y:<2} " + " ".join(row))
    lines.append("    " + " ".join(f"x{x}" for x in range(1, n + 1)))
    return "\n".join(lines)


def render_frames(record: EpisodeRecord) -> list[str]:
    """One ASCII frame per round (plus the initial board), re-simulated from
    the seed with hazards revealed."""
    state = generate_world(record.config)
    frames = [f"{render_board(state)}\nround 0: start  score {state.score}"]
    for round_record, _, _ in _replay(state, record):
        frames.append(
            f"{render_board(state)}\n"
            f"round {round_record.index + 1}: {round_record.action.to_text()} "
            f"({round_record.provenance})  reward {round_record.reward_delta:+d}  "
            f"score {state.score}  status {state.status.value}"
        )
    failed = next((r for r in record.rounds if "protocol-failure" in r.flags), None)
    if failed is not None:
        frames.append(f"round {failed.index + 1}: protocol failure")
    return frames


def persist_and_replay(
    path: str | Path, record: EpisodeRecord
) -> tuple[EpisodeRecord, list[str]]:
    """Append ``record`` to the log, read it back, verify the round trip and
    the replay, and return the reloaded record with its rendered frames."""
    write_records(path, [record])
    reloaded = read_records(path)[-1]
    if reloaded != record:
        raise ReplayMismatchError("record changed across the write/read round trip")
    verify_record(reloaded)
    return reloaded, render_frames(reloaded)

"""Episode runner, trial matrix, persistence and replay rendering.

An episode record logs everything needed to audit a run: the configuration
and seed (which fully determine the world), every observation, every model
call with usage, and every executed action with its provenance. Records
serialize one-per-line to an append-only JSONL log; loading a record and
re-simulating it from the seed must reproduce every observation, reward and
the final score, which :func:`verify_record` enforces.

A logged action is its canonical text. Reading hands it to the free-text
reply parser, :func:`parse_action`, and accepts it only when the action found
renders back to exactly that text, so the log has no grammar of its own; a
fault is named as no recognizable action or as a non-canonical text. Each
distinct text is parsed once, and its action is the one shared object that
:class:`Action`'s constructors hand out. A round keeps the
:class:`Observation` its agent saw; the log holds its eight-key wire form,
built as the record is written and decoded exactly as it is read. The model
names and a round's guess are checked for the shapes that the agents write.
A call's usage is read into a :class:`UsageRecord`, which checks itself as it
does for the chat client: no count negative, the total their sum, and a
latency that a clock can measure.

Before a decision's action is applied, its provenance, analysis, guess,
guess_raw and flags are held to the rules the reader holds a round to, so a
decision that the log could not read back ends its episode as
``protocol_failure`` instead of making the whole log unreadable.

Each chat message text is interned as it is read (``sys.intern``). Every
model call of an agent repeats one of a few system prompts, so a log of N
calls would otherwise hold N copies of each; interned, equal texts share one
``str`` for as long as any record refers to it, and the interpreter drops it
with its last reference.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, lru_cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

from .agents import Agent, CompletionLog, Decision, _cell_pairs
from .chat import ChatMessage, UsageRecord
from .errors import (
    ConfigurationError, EpisodeProtocolFailure, IllegalActionError, InconsistentPerceptsError,
    LogCorruptionError, ReplayMismatchError, WumpusBenchError,
)
from .observation import (
    Observation,
    build_observation,
    observation_from_dict,
    observation_to_dict,
    parse_action,
)
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
    observation: Observation  # the object the agent saw
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
        # True == 1 == 1.0, so an equality test alone would let both through.
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise LogCorruptionError(f"unsupported record schema {schema!r}")
        seed = rest.pop("seed", None)
        record = _decoder(EpisodeRecord)(rest)
        if type(seed) is not int or seed != record.seed:
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
    text of :func:`_failure`; so does a decision that the log could not read
    back (a guess of the wrong shape, say, a flag that is not text or a call
    that is not a :class:`CompletionLog`), which :func:`_check_decision`
    refuses before its action is applied: the episode ends as
    ``protocol_failure`` with no round for it. The failed round of an
    :class:`EpisodeProtocolFailure` is checked the same way, so flags or
    calls that the log could not read back end the episode with no round
    either.
    """
    state = generate_world(config)
    rounds: list[RoundRecord] = []
    error: str | None = None

    obs = None
    while state.status is Status.RUNNING:
        obs = build_observation(state, obs)
        failed = None
        try:
            try:
                decision = agent.decide(obs)
            except EpisodeProtocolFailure as exc:
                failed = exc
                # The failed round executed no action: an exit placeholder
                # with reward 0 keeps it out of the score and the step count.
                flags = [*exc.flags, "protocol-failure"]
                decision = Decision(Action.exit(), "none", calls=exc.calls, flags=flags)
            _check_decision(decision)
            reward = 0 if failed else apply_action(state, decision.action)
        except Exception as exc:  # record, never abort the batch
            state.status, error = _failure(exc)
            break
        if failed:
            state.status, error = Status.PROTOCOL_FAILURE, str(failed)
        rounds.append(
            RoundRecord(
                index=len(rounds),
                observation=obs,
                action=decision.action,
                provenance=decision.provenance,
                reward_delta=reward,
                analysis=decision.analysis,
                guess=decision.guess,
                guess_raw=decision.guess_raw,
                flags=list(decision.flags),
                calls=list(decision.calls),
            )
        )

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


# The fields of a decision that its round logs as they are.
_DECIDED = ("provenance", "analysis", "guess", "guess_raw", "flags")


def _check_decision(decision: Decision) -> None:
    """Refuse, as the agent failing to act, a decision whose round the log
    could not read back: its provenance, analysis, guess, guess_raw and flags
    are held to the rules that :func:`read_records` holds a round's fields to,
    and its calls to :func:`_check_calls`. An action with a text provenance
    and nothing else, as every oracle round is, needs no further look."""
    plain = decision.analysis is decision.guess is decision.guess_raw is None
    if plain and decision.flags == decision.calls == [] and type(decision.provenance) is str:
        return
    try:
        _check_calls(decision.calls)
        _field_values(RoundRecord)({name: getattr(decision, name) for name in _DECIDED})
    except LogCorruptionError as exc:
        raise TypeError(f"the decision cannot be logged: {exc}") from None


def _check_calls(calls) -> None:
    """Raise :class:`LogCorruptionError` unless ``calls`` is a list of
    :class:`CompletionLog` whose role, model and response are text, whose
    messages are :class:`ChatMessage` with a text role and content, and
    whose usage is a :class:`UsageRecord`, which checks its own values."""
    if type(calls) is not list:
        raise LogCorruptionError(f"RoundRecord.calls must be a list, not {calls!r:.80}")
    for call in calls:
        if type(call) is not CompletionLog:
            raise LogCorruptionError(f"a call must be a CompletionLog, not {call!r:.80}")
        for name in ("role", "model", "response"):
            if type(value := getattr(call, name)) is not str:
                raise LogCorruptionError(f"CompletionLog.{name} must be str, not {value!r:.80}")
        if type(messages := call.messages) is not list:
            raise LogCorruptionError(
                f"CompletionLog.messages must be a list, not {messages!r:.80}"
            )
        for message in messages:
            if not (
                type(message) is ChatMessage
                and type(message.role) is str
                and type(message.content) is str
            ):
                raise LogCorruptionError(
                    f"a message must be a ChatMessage of text, not {message!r:.80}"
                )
        if type(call.usage) is not UsageRecord:
            raise LogCorruptionError(
                f"CompletionLog.usage must be a UsageRecord, not {call.usage!r:.80}"
            )


# The environment's own checks: a bad configuration, an action the world
# refuses and percepts that no hazard layout explains.
_HARNESS_FAULTS = (ConfigurationError, IllegalActionError, InconsistentPerceptsError)


def _failure(exc: Exception) -> tuple[Status, str]:
    """Status and error text of an episode ended by ``exc``. One of the
    environment's own checks failing (``_HARNESS_FAULTS``) gets
    ``harness_error``. Any other exception is the agent failing to act and
    gets ``protocol_failure``: a package error too, such as a reply with no
    action, a failed arbitration, or a transport or protocol error from the
    agent's model."""
    status = (
        Status.HARNESS_ERROR
        if isinstance(exc, _HARNESS_FAULTS)
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
    """Conditions with their per-trial seeds; seeds are non-negative and
    distinct within a condition."""

    entries: list[tuple[Condition, tuple[int, ...]]]
    step_limit: int = 50

    def __post_init__(self):
        for i, (condition, seeds) in enumerate(self.entries):
            # random.Random seeds with the absolute value: -7 plays 7's world.
            if (lowest := min(seeds, default=0)) < 0:
                raise ConfigurationError(
                    f"condition {i} ({condition.label}) has a negative seed {lowest}"
                )
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


@dataclass
class MatrixFile:
    """A matrix file; without ``conditions``, the six default ones."""

    master_seed: int = 0
    step_limit: int = 50
    trials_per_condition: int = DEFAULT_TRIALS_PER_CONDITION
    conditions: list | None = None


@dataclass
class ConditionEntry:
    """One listed condition: its seeds, or ``trials`` seeds drawn."""

    grid_size: int
    num_pits: int
    num_wumpus: int
    seeds: list[int] | None = None
    trials: int | None = None


def matrix_from_dict(data: dict) -> TrialMatrix:
    """Load a matrix from config JSON; omitted seeds are drawn from
    ``master_seed`` deterministically. Data that is not an object, or a
    malformed or unknown top-level key, raises :class:`ConfigurationError`
    naming it, and a condition with a missing, malformed or unknown key, or
    with more hazards than fit outside the start zone, one naming its index."""
    spec = from_json(MatrixFile, data, "matrix")
    if spec.conditions is None:
        return default_matrix(spec.master_seed, spec.trials_per_condition, spec.step_limit)
    if not isinstance(spec.conditions, list):
        raise ConfigurationError(f"conditions: expected a list, not {spec.conditions!r:.80}")
    entries = []
    for i, item in enumerate(spec.conditions):
        entry = from_json(ConditionEntry, item, f"condition {i}")
        seeds = entry.seeds
        if seeds is None:
            trials = spec.trials_per_condition if entry.trials is None else entry.trials
            seeds = _draw_seeds(spec.master_seed, i, trials)
        condition = Condition(entry.grid_size, entry.num_pits, entry.num_wumpus)
        # The start cell and its two neighbours never hold a hazard.
        if entry.num_pits + entry.num_wumpus > entry.grid_size**2 - 3:
            raise ConfigurationError(
                f"condition {i} ({condition.label}): {entry.num_pits} pits and "
                f"{entry.num_wumpus} wumpus do not fit outside the start zone"
            )
        entries.append((condition, tuple(seeds)))
    return TrialMatrix(entries=entries, step_limit=spec.step_limit)


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


def _decode_guess(guess):
    """A round's logged guess, which must be None or an object holding
    exactly the ``wumpus`` and ``pits`` cell lists that the agents write."""
    if guess is None or (
        type(guess) is dict
        and guess.keys() == _GUESS_KEYS
        and all(map(_cell_pairs, guess.values()))
    ):
        return guess
    raise LogCorruptionError(
        "RoundRecord.guess must be null or an object of exactly wumpus and pits, "
        f"each a list of [x, y] int pairs, not {guess!r:.80}"
    )


_GUESS_KEYS = frozenset(("wumpus", "pits"))


# Fields whose annotation does not say the shape of their JSON form, or
# whose values are kept once per process: a message text runs after its str
# check.
_FIELD_DECODERS = {
    "RoundRecord.guess": _decode_guess,
    "ChatMessage.content": sys.intern,
}


def _value_decoder(hint, name: str) -> Callable | None:
    """How to rebuild a value annotated ``hint`` (a dataclass, an action or
    an observation, alone, as list items or ``| None``) from its JSON form,
    or check field ``name``'s list of scalars or map of scalars to scalars,
    or its shape given in ``_FIELD_DECODERS``; None to keep it."""
    if name in _FIELD_DECODERS:
        return _FIELD_DECODERS[name]
    if hint is Action:
        return _decode_action
    if hint is Observation:
        return observation_from_dict
    if is_dataclass(hint):
        return _decoder(hint)
    args = get_args(hint)
    if isinstance(hint, UnionType) and len(args) == 2 and NoneType in args:
        inner = _value_decoder(args[args[0] is NoneType], name)
        return inner and (lambda value: value if value is None else inner(value))
    if get_origin(hint) is dict:
        return _map_check(hint, name, *map(_scalar_types, args))
    if get_origin(hint) is not list:
        return None
    if item := _value_decoder(args[0], name):
        return lambda values: [item(value) for value in values]
    if (types := _scalar_types(args[0])) is None:
        return None

    def check(values: list) -> list:
        if type(values) is list:
            for value in values:  # a loop: all() costs a generator per list
                if type(value) not in types:
                    break
            else:
                return values
        raise LogCorruptionError(f"{name} must be {hint}, not {values!r:.80}")

    return check


def _map_check(hint, name: str, keys, values) -> Callable | None:
    """A check that field ``name`` is an object of the scalar ``keys`` and
    ``values`` types that ``hint`` annotates; None when they are not scalars."""
    if keys is None or values is None:
        return None

    def check(mapping: dict) -> dict:
        if type(mapping) is dict and all(
            type(k) in keys and type(v) in values for k, v in mapping.items()
        ):
            return mapping
        raise LogCorruptionError(f"{name} must be {hint}, not {mapping!r:.80}")

    return check


@lru_cache(maxsize=4096)  # the five tokens and most moves of a 64x64 grid
def _decode_action(text: str) -> Action:
    """The action a log wrote as ``text``, which must be its canonical text:
    :func:`parse_action` must find an action in it that renders back to
    exactly ``text``. Other text is refused: as unparseable when no action is
    found, else as non-canonical. Each accepted text is parsed once."""
    # parse_action is looked up per call, so a wrapper set on this module's
    # attribute sees it.
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
def _field_values(cls: type) -> Callable[[dict], dict]:
    """The values of the fields of a ``cls`` that a JSON object holds, as
    keyword arguments: nested values rebuilt by the field annotations,
    resolved once per class. A scalar (or list item) of the wrong type raises
    :class:`LogCorruptionError`."""
    hints = get_type_hints(cls)
    scalars = [
        (f.name, types, getattr(hint, "__name__", str(hint)))
        for f in fields(cls)
        if (types := _scalar_types(hint := hints[f.name])) is not None
    ]
    nested = [
        (f.name, decode)
        for f in fields(cls)
        if (decode := _value_decoder(hints[f.name], f"{cls.__name__}.{f.name}"))
    ]

    def values(data: dict) -> dict:
        kwargs = {**data}
        for name, types, label in scalars:
            if name in kwargs and type(kwargs[name]) not in types:
                raise LogCorruptionError(
                    f"{cls.__name__}.{name} must be {label}, not {kwargs[name]!r}"
                )
        for name, decode_value in nested:
            if name in kwargs:
                kwargs[name] = decode_value(kwargs[name])
        return kwargs

    return values


@cache
def _decoder(cls: type) -> Callable[[dict], object]:
    """Rebuild a ``cls`` from its JSON object, with the values that
    :func:`_field_values` reads. The constructor rejects an unknown key or a
    missing required one, fills in a missing optional one, and applies the
    class's own value rules."""
    values = _field_values(cls)
    return lambda data: cls(**values(data))


def from_json(cls: type, data, where: str):
    """A ``cls`` read from ``data``, a JSON object of an input file, as records
    are read: :class:`ConfigurationError` names ``where`` and the bad key."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, not {data!r:.80}")
    try:
        return _decoder(cls)(data)
    except (TypeError, WumpusBenchError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _to_json(obj) -> object:
    """``json`` hook: an action as its canonical text, an observation as its
    eight-key wire form, any other dataclass as its instance dictionary,
    which holds exactly its fields; an episode also gets its ``schema`` and
    ``seed``."""
    if isinstance(obj, Action):
        return obj.to_text()
    if isinstance(obj, Observation):
        return observation_to_dict(obj)
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
            except (ValueError, TypeError, RecursionError, WumpusBenchError) as exc:
                raise LogCorruptionError(f"{path}: line {lineno}: {exc}") from exc
    return records


def _replay(
    state: WorldState, record: EpisodeRecord
) -> Iterator[tuple[RoundRecord, Observation, int]]:
    """Step ``state``, fresh from ``record``'s seed, through the record's
    executed rounds, up to a protocol failure: per round, the round, the
    observation before its action, built from scratch so that it checks the
    one play advanced from the previous round's, and the action's reward."""
    for round_record in record.rounds:
        if "protocol-failure" in round_record.flags:
            return
        observation = build_observation(state)
        reward = apply_action(state, round_record.action)
        yield round_record, observation, reward


def verify_record(record: EpisodeRecord) -> WorldState:
    """Re-simulate a record from its seed and check it reproduces the log.

    Returns the final state; raises :class:`ReplayMismatchError` on the first
    divergence (wrong round index, observation, reward, score, status, success
    or kill). A logged action that is illegal in the replayed world raises
    :class:`IllegalActionError` before its round's observation is compared. A
    ``harness_error`` record never verifies: its replay is left running. A
    ``protocol_failure`` record verifies only when its replay is left running,
    since its agent failed to act, and a round flagged ``protocol-failure``
    may only be the last round of such a record.
    """
    failed = record.status == Status.PROTOCOL_FAILURE.value
    for position, round_record in enumerate(record.rounds):
        if round_record.index != position:
            raise ReplayMismatchError(f"round {position}: logged index {round_record.index}")
        last = position == len(record.rounds) - 1
        if "protocol-failure" in round_record.flags and not (failed and last):
            raise ReplayMismatchError(
                f"round {position}: a protocol-failure round must be the last "
                "round of a protocol_failure record"
            )
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
    expected = Status.RUNNING.value if failed else record.status
    if state.status.value != expected:
        raise ReplayMismatchError(
            f"final status {state.status.value} != {expected} (logged {record.status})"
        )
    return state


def render_board(state: WorldState) -> str:
    """ASCII board: A agent, P pit, W/w live/dead wumpus, G gold, . explored,
    ? unexplored."""
    n = state.config.grid_size
    lines = []
    for y in range(n, 0, -1):
        row = []
        for x in range(1, n + 1):
            cell = Cell(x, y)
            symbol = "." if cell in state.percept_log else "?"
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
    the seed, with every hazard shown."""
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


"""Output checks applied to every episode the benchmark runs.

A record passes when it survives the JSONL round trip unchanged, replays
exactly from its seed (``verify_record``), did not end in a protocol failure
or a death, and, where the workload scripted the model, matches the scripted
expectation: the executed actions, score and status of the oracle trajectory
it replays, the scripted token totals, call count, critic overrides and parse
retries.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

from wumpusbench import harness
from wumpusbench.world import Action, ActionKind


@dataclass(frozen=True)
class Expected:
    """What a scripted episode must reproduce."""

    actions: tuple[str, ...]
    score: int
    status: str
    calls: int
    prompt_tokens: int
    completion_tokens: int
    overrides: int
    retries: int


def replay_error(record) -> str | None:
    """``verify_record`` as a verdict: None when the replay matches."""
    try:
        harness.verify_record(record)
    except Exception as exc:  # any exception, not only a mismatch, fails the record
        return f"{type(exc).__name__}: {exc}"
    return None


def episode_problems(
    record, reloaded, replay: str | None, expected: Expected | None
) -> list[str]:
    """Every way ``record`` (and its reloaded copy) fails the checks."""
    problems = []
    if replay is not None:
        problems.append(f"replay failed: {replay}")
    if reloaded.to_dict() != record.to_dict():
        problems.append("record changed across the JSONL round trip")
    if record.status == "protocol_failure":
        problems.append(f"protocol failure: {record.error}")
    if record.status.startswith("death"):
        problems.append(f"agent died ({record.status})")
    if expected is None:
        return problems
    actions = tuple(r.action.to_text() for r in record.rounds)
    observed = {
        "actions": actions,
        "score": record.score,
        "status": record.status,
        "calls": sum(len(r.calls) for r in record.rounds),
        "prompt_tokens": record.prompt_tokens(),
        "completion_tokens": record.completion_tokens(),
        "overrides": sum(r.provenance == "critic" for r in record.rounds),
        "retries": sum(r.flags.count("unparseable-action") for r in record.rounds),
    }
    for key, value in observed.items():
        if value != getattr(expected, key):
            problems.append(f"{key} {value!r} != scripted {getattr(expected, key)!r}")
    return problems


def matrix_digest(records) -> str:
    """SHA-256 over (condition, seed, status, score, action texts) per episode."""
    rows = [
        [r.condition, r.seed, r.status, r.score, [x.action.to_text() for x in r.rounds]]
        for r in records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def self_test(record, expected: Expected | None) -> list[tuple[str, list[str]]]:
    """Feed the checker two tampered copies of a passing record.

    The altered action replaces the record's first move with the legal
    ``<exit>``, so only the replay and the scripted expectation can tell.
    Returns each tampering with the problems the checker found in it; an
    empty list means the checker passed a record it must fail.
    """
    tampered_action = copy.deepcopy(record)
    first = tampered_action.rounds[0]
    if first.action.kind is not ActionKind.MOVE:
        raise ValueError("the self-test needs a record that opens with a move")
    first.action = Action.exit()
    tampered_score = copy.deepcopy(record)
    tampered_score.score += 1
    return [
        (label, episode_problems(bad, bad, replay_error(bad), expected))
        for label, bad in (("altered action", tampered_action), ("altered score", tampered_score))
    ]

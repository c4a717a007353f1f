"""The prompts lose nothing the game needs: a model that reads only the prompt
text, and answers with the oracle's move, plays every episode of the default
matrix as the oracle does, under every mechanism."""

from __future__ import annotations

import json
import re
import socket

import pytest

from wumpusbench import (
    Action,
    LlmAgent,
    OracleAgent,
    PlannerCriticAgent,
    UsageRecord,
    default_matrix,
    parse_action,
    run_trials,
    verify_record,
)
from wumpusbench.observation import observation_from_dict

_DECODER = json.JSONDecoder()
_OBSERVATION = "Observation:\n"
_PROPOSAL = "\n\nProposed action: "


class OracleModel:
    """A completer that plays the oracle from the prompt text alone: the grid
    size from the system prompt, and the observation, through
    ``observation_from_dict``, from the user message. One per episode.

    Asked for a move, it answers the oracle's in the format the system prompt
    asks for, with the oracle's certain hazards as its guess, but every
    ``exit_every``-th time it answers ``<exit>``. Asked to review a proposal,
    it agrees with the oracle's move and overrules any other with the
    oracle's move at confidence 0.2."""

    model = "oracle"

    def __init__(self, exit_every: int = 0):
        self.exit_every = exit_every
        self.moves_asked = 0
        self.oracle: OracleAgent | None = None
        self.last: tuple | None = None  # an observation and the oracle's move

    def complete(self, messages):
        system, user = (message.content for message in messages)
        data, end = _DECODER.raw_decode(user, len(_OBSERVATION))
        move = self.oracle_move(system, observation_from_dict(data))
        if user.startswith(_PROPOSAL, end):
            if parse_action(user[end + len(_PROPOSAL):]) == move:
                reply = "Confidence: 0.9\nAlternative: none\nRationale: the oracle's move"
            else:
                reply = f"Confidence: 0.2\nAlternative: {move.to_text()}\nRationale: not it"
        else:
            self.moves_asked += 1
            if self.exit_every and self.moves_asked % self.exit_every == 0:
                move = Action.exit()
            if "Guess:" in system:
                total, pit, wumpus = self.oracle.kb.counts
                guess = {
                    "wumpus": [list(c) for c, n in wumpus.items() if n == total],
                    "pits": [list(c) for c, n in pit.items() if n == total],
                }
                reply = f"Analysis: oracle\nGuess: {json.dumps(guess)}\nAction: {move.to_text()}"
            else:
                reply = f"The oracle's move:\n{move.to_text()}"
        return reply, UsageRecord(1, 1, 2, 0.0)

    def oracle_move(self, system: str, obs) -> Action:
        """The oracle's move for ``obs``; a planner and its critic ask about
        the same observation, which the oracle sees once."""
        if self.last is None or self.last[0] != obs:
            if self.oracle is None:
                n = int(re.search(r"cave of (\d+)x\1 rooms", system)[1])
                self.oracle = OracleAgent(n, obs.num_pits, obs.num_wumpus)
            self.last = obs, self.oracle.decide(obs).action
        return self.last[1]


def played(record) -> tuple:
    return (
        record.condition,
        record.seed,
        record.status,
        record.score,
        [r.action.to_text() for r in record.rounds],
    )


@pytest.fixture(scope="module")
def oracle_play():
    records = run_trials(
        default_matrix(0),
        lambda cfg: OracleAgent(cfg.grid_size, cfg.num_pits, cfg.num_wumpus),
        agent_kind="oracle",
    )
    return [played(r) for r in records]


@pytest.mark.parametrize(
    "mechanism, factory, overrides",
    [
        ("cot", lambda cfg: LlmAgent(OracleModel(), cfg.grid_size, mechanism="cot"), 0),
        ("cos", lambda cfg: LlmAgent(OracleModel(), cfg.grid_size), 0),
        ("planner_critic", lambda cfg: PlannerCriticAgent(OracleModel(), cfg.grid_size), 0),
        (
            "planner_critic",
            lambda cfg: PlannerCriticAgent(OracleModel(exit_every=4), cfg.grid_size),
            114,
        ),
    ],
    ids=["cot", "cos", "planner-critic", "planner-critic-overruled"],
)
def test_a_model_reading_only_the_prompt_plays_as_the_oracle(
    monkeypatch, oracle_play, mechanism, factory, overrides
):
    def no_socket(*args, **kwargs):
        raise OSError("no socket may be opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    records = run_trials(default_matrix(0), factory, agent_kind="llm", mechanism=mechanism)
    assert [played(r) for r in records] == oracle_play
    rounds = [r for record in records for r in record.rounds]
    assert not any(r.flags for r in rounds)
    assert sum(r.provenance == "critic" for r in rounds) == overrides
    for record in records:
        verify_record(record)

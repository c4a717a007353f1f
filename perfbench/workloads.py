"""The benchmark's workloads and one measured pass over a workload's inputs.

A workload turns a master seed into a trial matrix; ``llm-mock`` also turns
the oracle's play of that matrix into a mock-endpoint script. The package
only ever sees the matrix and the script. A pass takes the matrix one
condition at a time: it plays the condition through ``run_trials`` at
parallelism 1, then writes its records to JSONL, reads them back,
replay-verifies and summarizes them. Finally it checks every output.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import requests

from checks import Expected, episode_problems, matrix_digest, replay_error, self_test
from wumpusbench import chat, harness, metrics, mockserver, oracle, planner_critic, world
from wumpusbench.errors import SummaryError
from wumpusbench.world import ActionKind

MOCK_MODEL = "mock-model"
MOCK_DELAY_S = 0.005
PLANNER_TOKENS = (1200, 300)  # (prompt, completion) per planner reply
CRITIC_TOKENS = (1100, 40)
OVERRIDE_EVERY = 4  # every 4th round of a matrix the critic overrules the planner
RETRY_EVERY = 10  # every 10th round the first planner reply has no action
# The audit of one condition takes a few milliseconds on the oracle workloads,
# short enough for a single scheduling hiccup to move it by half.
AUDIT_REPEATS = 5

LARGE_CONDITIONS = [
    {"grid_size": 5, "num_pits": 2, "num_wumpus": 1, "trials": 8},
    {"grid_size": 5, "num_pits": 3, "num_wumpus": 1, "trials": 4},
]


def build_matrix(workload: str, master_seed: int):
    if workload == "oracle-paper":
        return harness.default_matrix(master_seed)
    if workload == "oracle-large":
        return harness.matrix_from_dict(
            {"master_seed": master_seed, "conditions": LARGE_CONDITIONS}
        )
    if workload == "llm-mock":
        return harness.default_matrix(master_seed, trials_per_condition=10)
    raise ValueError(f"unknown workload {workload!r}")


def rep_seed(seed: int, rep: int) -> int:
    """Master seed of the ``rep``-th matrix of a run.

    The first matrix is the run's own seed; the ones after it come from a
    sequence that every run shares. Episode cost varies by about half from one
    world to the next on 5x5 grids, so matrices drawn afresh for every run
    would make runs on different seeds measure different amounts of work.
    """
    if rep == 0:
        return seed
    return random.Random(f"perfbench-shared:{rep}").getrandbits(31)


def oracle_factory(config):
    return oracle.OracleAgent(config.grid_size, config.num_pits, config.num_wumpus)


# ---------------------------------------------------------------------------
# Mock script

_ANALYSIS = (
    "The observation lists every room visited so far with the breeze and stench "
    "readings recorded there. A room with neither reading rules out a pit or the "
    "wumpus next to it, so its unexplored neighbours are safe to enter. A breeze "
    "means at least one neighbouring room holds a pit, and a stench means the "
    "live wumpus is next door; where readings overlap, the hazard sits in a room "
    "adjacent to all of them. The previous hypothesis stands unless a new "
    "reading contradicts it. The arrow is only worth firing when a single room "
    "can hold the wumpus and it lies on a straight line from here. Otherwise the "
    "safe frontier room with the lowest coordinates comes first, and leaving the "
    "cave beats entering a room that might be deadly. Every reading so far has "
    "been checked against each candidate layout, and the candidates that "
    "survive agree on which frontier rooms are safe; the choice below follows "
    "from that agreement rather than from a guess about the remaining rooms."
)


def _planner_reply(guess: str, action: str | None) -> mockserver.MockReply:
    text = f"Analysis: {_ANALYSIS}\nGuess: {guess}\n"
    if action is not None:
        text += f"Action: {action}\n"
    return mockserver.MockReply(text, *PLANNER_TOKENS, delay=MOCK_DELAY_S)


def _critic_reply(alternative: str | None) -> mockserver.MockReply:
    if alternative is None:
        text = "Confidence: 0.9\nAlternative: none\nRationale: the proposal is sound."
    else:
        text = (
            f"Confidence: 0.2\nAlternative: {alternative}\n"
            "Rationale: leaving gives up a room already proven safe."
        )
    return mockserver.MockReply(text, *CRITIC_TOKENS, delay=MOCK_DELAY_S)


def build_script(oracle_records) -> tuple[list, list[Expected]]:
    """Replies that make the planner-critic agent replay each oracle episode.

    Rounds are numbered across the whole matrix. Every ``OVERRIDE_EVERY``-th
    round the planner proposes ``<exit>`` and the critic overrules it with the
    oracle's action; every ``RETRY_EVERY``-th round the first planner reply
    has no action, which forces one parse retry. The planner's guess is the
    episode's true hazard layout.
    """
    script: list[mockserver.MockReply] = []
    expected: list[Expected] = []
    round_no = 0
    for record in oracle_records:
        state = world.generate_world(record.config)
        guess = json.dumps(
            {
                "wumpus": [list(state.wumpus_cell)] if state.wumpus_cell else [],
                "pits": sorted(list(c) for c in state.pit_cells),
            }
        )
        first = len(script)
        overrides = retries = 0
        for round_record in record.rounds:
            round_no += 1
            action = round_record.action.to_text()
            if round_no % RETRY_EVERY == 0:
                script.append(_planner_reply(guess, None))
                retries += 1
            override = round_no % OVERRIDE_EVERY == 0
            script.append(_planner_reply(guess, "<exit>" if override else action))
            script.append(_critic_reply(action if override else None))
            overrides += override
        replies = script[first:]
        expected.append(
            Expected(
                actions=tuple(r.action.to_text() for r in record.rounds),
                score=record.score,
                status=record.status,
                calls=len(replies),
                prompt_tokens=sum(r.prompt_tokens for r in replies),
                completion_tokens=sum(r.completion_tokens for r in replies),
                overrides=overrides,
                retries=retries,
            )
        )
    return script, expected


# ---------------------------------------------------------------------------
# Inputs and passes


@dataclass
class Inputs:
    workload: str
    matrix: object
    script: list = field(default_factory=list)
    expected: list = field(default_factory=list)  # Expected or None per episode

    @property
    def scripted(self) -> bool:
        return bool(self.script)


def prepare(workload: str, master_seed: int) -> Inputs:
    """The matrix and, for ``llm-mock``, the script built from oracle play."""
    matrix = build_matrix(workload, master_seed)
    if workload != "llm-mock":
        return Inputs(workload, matrix, [], [None] * matrix.total_trials())
    oracle_records = harness.run_trials(matrix, oracle_factory, agent_kind="oracle")
    script, expected = build_script(oracle_records)
    return Inputs(workload, matrix, script, expected)


def start_endpoint(inputs: Inputs) -> mockserver.MockChatServer:
    return mockserver.MockChatServer(inputs.script).start()


class CountingSession(requests.Session):
    """The one HTTP session every chat client of a run shares; counts posts
    and the process CPU time each one takes."""

    def __init__(self) -> None:
        super().__init__()
        self.posts = 0
        self.post_cpu_s: list[float] = []

    def post(self, *args, **kwargs):
        self.posts += 1
        started = process_time()
        try:
            return super().post(*args, **kwargs)
        finally:
            self.post_cpu_s.append(process_time() - started)


@dataclass
class AgentClock:
    """Process CPU time in a pass: the oracle's own, the harness's between two
    oracle calls, and each episode's with the oracle's share of it.

    The per-call metrics count CPU time, not wall time. On a shared host the
    wall time around a mock-endpoint call also holds the host's delay in
    waking an idle CPU after the injected sleep, and that delay moved them by
    a quarter between runs of the same code.
    """

    agent_s: float = 0.0
    decides: int = 0
    gaps_s: list[float] = field(default_factory=list)
    episodes: list[tuple[float, float, int]] = field(default_factory=list)
    _episode_start: tuple[float, float, int] = (0.0, 0.0, 0)

    def start_episode(self) -> None:
        self._episode_start = (process_time(), self.agent_s, self.decides)

    def end_episode(self) -> None:
        """Keep (CPU s, oracle CPU s, decides) of the episode just played."""
        started, agent_s, decides = self._episode_start
        self.episodes.append(
            (process_time() - started, self.agent_s - agent_s, self.decides - decides)
        )


class _TimedOracle:
    """Oracle agent that charges the CPU time of its construction and decisions
    to ``clock`` and records the CPU time from one call to the next."""

    def __init__(self, config, clock: AgentClock):
        started = process_time()
        self._agent = oracle_factory(config)
        self._clock = clock
        self._last_end = process_time()
        clock.agent_s += self._last_end - started

    def decide(self, obs):
        started = process_time()
        self._clock.gaps_s.append(started - self._last_end)
        decision = self._agent.decide(obs)
        self._last_end = process_time()
        self._clock.agent_s += self._last_end - started
        self._clock.decides += 1
        return decision


@dataclass
class PassResult:
    episodes: int
    rounds: int
    calls: int  # model calls on llm-mock, oracle decisions on the oracle workloads
    run_s: float
    audit_s: float
    overhead_ms: list[float]  # per call, CPU time outside the agent's own
    episode_ms_per_call: list[float]  # per episode, the same over its calls
    record_bytes: int
    overrides: int
    retries: int
    posts: int
    server_requests: int
    failed: int
    problems: list[str]
    self_test: list[tuple[str, list[str]]]  # tampering, problems found


def run_pass(
    inputs: Inputs,
    session: CountingSession,
    out_dir: Path,
    *,
    tracer=None,
    server: mockserver.MockChatServer | None = None,
    reference: str | None = None,
    with_self_test: bool = False,
) -> PassResult:
    """Play, persist, verify and summarize one matrix, then check it.

    ``reference`` is the expected :func:`matrix_digest`, when one is known.
    """

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    clock = AgentClock()
    if inputs.scripted:
        server = server or start_endpoint(inputs)
        session.posts = 0
        session.post_cpu_s = []

        def factory(config):
            clock.start_episode()
            client = chat.ChatClient(server.url, MOCK_MODEL, session=session)
            return planner_critic.PlannerCriticAgent(client, config.grid_size)

        kind, mechanism = "llm", "planner_critic"
        models = {"planner": MOCK_MODEL, "critic": MOCK_MODEL}
    else:

        def factory(config):
            clock.start_episode()
            return _TimedOracle(config, clock)

        kind, mechanism, models = "oracle", None, None

    path = out_dir / f"records-{inputs.workload}.jsonl"
    records, reloaded, replays, summary_errors = [], [], [], []
    run_s = audit_s = 0.0
    record_bytes = 0
    # Each condition is played and then audited before the next one starts,
    # so that a pass holds many short audits spread over its whole length: on
    # a shared host the speed of the memory-heavy audit can switch by half
    # from one second to the next, and a few audits bunched at the end of a
    # pass sample too few of those states.
    for condition, seeds in inputs.matrix.entries:
        phase("run")
        started = perf_counter()
        played = harness.run_trials(
            harness.TrialMatrix([(condition, seeds)], inputs.matrix.step_limit),
            factory,
            agent_kind=kind,
            mechanism=mechanism,
            models=models,
            parallelism=1,
            on_episode=lambda record: clock.end_episode(),
        )
        run_s += perf_counter() - started

        phase("audit")
        audit_times = []
        for _ in range(AUDIT_REPEATS):
            summary_error = None
            started = perf_counter()
            harness.write_records(path, played, append=False)
            back = harness.read_records(path)
            replayed = [replay_error(r) for r in back]
            try:
                metrics.summarize(back)
            except SummaryError as exc:
                summary_error = f"{condition.label}: {exc}"
            audit_times.append(perf_counter() - started)
        audit_s += statistics.median(audit_times)
        record_bytes += path.stat().st_size
        records += played
        reloaded += back
        replays += replayed
        if summary_error is not None:
            summary_errors.append(summary_error)
    if server is not None:
        server.stop()
    phase("check")

    problems: list[str] = []  # matrix-level problems fail every episode
    if len(reloaded) != len(records):
        problems.append(f"{len(records)} records written, {len(reloaded)} read back")
        reloaded = records
        replays = [replay_error(r) for r in records]
    problems += [f"summarize: {error}" for error in summary_errors]
    if reference is not None and matrix_digest(records) != reference:
        problems.append("matrix digest differs from the stored reference")
    calls = sum(len(r.calls) for rec in records for r in rec.rounds)
    server_requests = len(server.requests) if server is not None else 0
    if inputs.scripted and not server_requests == calls == len(inputs.script):
        problems.append(
            f"mock server saw {server_requests} requests, {calls} calls logged, "
            f"{len(inputs.script)} scripted"
        )
    matrix_failed = bool(problems)
    bad_episodes = 0
    for record, back, replay, expected in zip(
        records, reloaded, replays, inputs.expected
    ):
        found = episode_problems(record, back, replay, expected)
        if found:
            bad_episodes += 1
            problems.append(f"{record.condition}/{record.seed}: {'; '.join(found)}")

    tests: list[tuple[str, list[str]]] = []
    if with_self_test:
        index = next(
            i
            for i, r in enumerate(reloaded)
            if r.rounds and r.rounds[0].action.kind is ActionKind.MOVE
        )
        tests = self_test(reloaded[index], inputs.expected[index])

    rounds = sum(len(r.rounds) for r in records)
    if inputs.scripted:
        # The model's own time is the mock's injected sleep, which takes no CPU.
        overhead_ms = [1e3 * cpu_s for cpu_s in session.post_cpu_s]
        episode_calls = [sum(len(r.calls) for r in rec.rounds) for rec in records]
    else:
        calls = clock.decides
        overhead_ms = [1e3 * gap for gap in clock.gaps_s]
        episode_calls = [n for _, _, n in clock.episodes]
    episode_ms_per_call = [
        1e3 * (cpu_s - agent_s) / n
        for (cpu_s, agent_s, _), n in zip(clock.episodes, episode_calls)
        if n
    ]
    return PassResult(
        episodes=len(records),
        rounds=rounds,
        calls=calls,
        run_s=run_s,
        audit_s=audit_s,
        overhead_ms=overhead_ms,
        episode_ms_per_call=episode_ms_per_call,
        record_bytes=record_bytes,
        overrides=sum(r.provenance == "critic" for rec in records for r in rec.rounds),
        retries=sum(
            r.flags.count("unparseable-action") for rec in records for r in rec.rounds
        ),
        posts=session.posts if inputs.scripted else 0,
        server_requests=server_requests,
        failed=len(records) if matrix_failed else bad_episodes,
        problems=problems,
        self_test=tests,
    )

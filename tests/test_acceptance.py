"""Acceptance suite.

One test per release criterion, each printing an ``ACCEPTANCE PASS`` line
(run with ``pytest tests/test_acceptance.py -v -s``). Tolerances are pinned
here: everything is exact except the per-step latency bound (±20 ms around
the injected mock delays).
"""

from __future__ import annotations

import os

import pytest

from helpers import brute_percepts, enumerate_layouts
from wumpusbench import (
    Action,
    ArbitrationConfig,
    Cell,
    ChatClient,
    CriticVerdict,
    Decision,
    LlmAgent,
    MockChatServer,
    MockReply,
    OracleAgent,
    Price,
    RandomLegalAgent,
    ScriptedAgent,
    Status,
    WorldConfig,
    apply_action,
    arbitrate,
    build_observation,
    default_matrix,
    full_info_solvable,
    generate_world,
    percepts_at,
    run_episode,
    run_trials,
    summarize,
    world_from_layout,
)

THREE_BY_THREE_CONDITIONS = [(0, 1), (1, 0), (1, 1)]
FOUR_BY_FOUR_CONDITIONS = [(1, 1), (2, 1), (3, 1)]
ALL_CONDITIONS = [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1)]  # distinct (pits, wumpus)


def drive(world, agent):
    """Run an agent against an explicit (crafted) world."""
    while world.status is Status.RUNNING:
        decision = agent.decide(build_observation(world))
        apply_action(world, decision.action)
    return world


def layout_world(n, pits, wumpus, gold, **kw):
    config = WorldConfig(
        grid_size=n,
        num_pits=len(pits),
        num_wumpus=0 if wumpus is None else 1,
        seed=0,
        **kw,
    )
    return world_from_layout(
        config,
        [Cell(*p) for p in pits],
        Cell(*wumpus) if wumpus else None,
        Cell(*gold),
    )


def test_percepts_match_brute_force_everywhere():
    """Exhaustive 3x3 layouts per condition plus >= 10,000 sampled 4x4
    layouts: percepts_at agrees exactly with direct adjacency checking."""
    checked = 0
    for num_pits, num_wumpus in ALL_CONDITIONS:
        for pits, wumpus, gold in enumerate_layouts(3, num_pits, num_wumpus):
            world = layout_world(3, tuple(pits), wumpus, gold)
            for x in range(1, 4):
                for y in range(1, 4):
                    expected = brute_percepts((x, y), 3, pits, wumpus, True, gold)
                    got = percepts_at(world, Cell(x, y))
                    assert (got.breeze, got.stench, got.glitter) == expected
                    checked += 1

    sampled = 0
    for seed in range(3400):
        for num_pits, num_wumpus in FOUR_BY_FOUR_CONDITIONS:
            config = WorldConfig(
                grid_size=4, num_pits=num_pits, num_wumpus=num_wumpus, seed=seed
            )
            world = generate_world(config)
            pits = {tuple(c) for c in world.pit_cells}
            wumpus = tuple(world.wumpus_cell) if world.wumpus_cell else None
            gold = tuple(world.gold_cell)
            for x in range(1, 5):
                for y in range(1, 5):
                    expected = brute_percepts((x, y), 4, pits, wumpus, True, gold)
                    got = percepts_at(world, Cell(x, y))
                    assert (got.breeze, got.stench, got.glitter) == expected
            sampled += 1
    assert sampled >= 10_000
    print(
        f"\nACCEPTANCE PASS: percept brute-force equivalence "
        f"({checked} exhaustive 3x3 checks, {sampled} sampled 4x4 layouts)"
    )


def test_ledger_identity_over_random_episodes():
    """10,000 random-legal-action episodes: terminal score equals 50 plus the
    sum of reward deltas, exactly, every episode."""
    conditions = [(3, 0, 1), (3, 1, 0), (3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 3, 1)]
    episodes = 0
    for seed in range(10_000):
        n, num_pits, num_wumpus = conditions[seed % len(conditions)]
        config = WorldConfig(
            grid_size=n, num_pits=num_pits, num_wumpus=num_wumpus, seed=seed
        )
        world = generate_world(config)
        agent = RandomLegalAgent(seed)
        drive(world, agent)
        assert world.score == 50 + sum(world.reward_ledger)
        episodes += 1
    assert episodes == 10_000
    print(f"\nACCEPTANCE PASS: ledger identity over {episodes} random episodes")


def test_deterministic_records_across_runs_and_parallelism():
    """Same seed and actions give byte-identical record core fields across
    repeated runs and across parallelism 1 vs 8."""
    script = ["<shootup>", "move to position (2,1)", "move to position (2,2)", "<exit>"]
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=1, seed=42)
    one = run_episode(config, ScriptedAgent(script), agent_kind="scripted")
    two = run_episode(config, ScriptedAgent(script), agent_kind="scripted")
    assert one.core_fingerprint() == two.core_fingerprint()

    from wumpusbench import matrix_from_dict, OracleAgent as _Oracle

    matrix = matrix_from_dict(
        {
            "conditions": [
                {"grid_size": 3, "num_pits": 1, "num_wumpus": 1, "trials": 6},
                {"grid_size": 4, "num_pits": 3, "num_wumpus": 1, "trials": 6},
            ]
        }
    )

    def factory(cfg):
        return _Oracle(cfg.grid_size, cfg.num_pits, cfg.num_wumpus)

    runs = [
        run_trials(matrix, factory, agent_kind="oracle", parallelism=p)
        for p in (1, 8, 1, 8)
    ]
    fingerprints = [[r.core_fingerprint() for r in records] for records in runs]
    assert all(fp == fingerprints[0] for fp in fingerprints[1:])
    print("\nACCEPTANCE PASS: deterministic records across runs and parallelism 1 vs 8")


def test_oracle_safety_exhaustive_3x3():
    """Across every legal 3x3 layout of each condition the oracle never dies,
    and each success is confirmed reachable by the full-information check."""
    deaths = 0
    successes = 0
    layouts = 0
    for num_pits, num_wumpus in THREE_BY_THREE_CONDITIONS:
        for pits, wumpus, gold in enumerate_layouts(3, num_pits, num_wumpus):
            world = layout_world(3, tuple(pits), wumpus, gold)
            reference = layout_world(3, tuple(pits), wumpus, gold)
            agent = OracleAgent(3, num_pits, num_wumpus)
            drive(world, agent)
            layouts += 1
            assert world.status is not Status.PROTOCOL_FAILURE
            if world.status in (Status.DEATH_PIT, Status.DEATH_WUMPUS):
                deaths += 1
            if world.status is Status.SUCCESS:
                successes += 1
                assert full_info_solvable(reference)
    assert deaths == 0
    assert layouts == 300
    print(
        f"\nACCEPTANCE PASS: oracle safety ({layouts} exhaustive layouts, "
        f"0 deaths, {successes} successes all confirmed solvable)"
    )


def test_reward_range_kill_then_gold_and_negative_wander():
    """A kill-then-gold episode scores 118 (> 100); a long wander ending in a
    pit scores negative."""
    world = layout_world(3, (), (3, 1), (2, 2))
    for action in (Action.shoot("right"), Action.move(2, 1), Action.move(2, 2)):
        apply_action(world, action)
    assert world.status is Status.SUCCESS
    assert world.score == 118
    assert world.score > 100

    wander = layout_world(8, ((3, 1),), None, (8, 8), step_limit=50)
    moves = 0
    while moves < 35:
        obs = build_observation(wander)
        target = next(
            c
            for c in obs.suggestions.frontier_cells
            if tuple(c) not in {(3, 1), (8, 8)}
        )
        apply_action(wander, Action.move(target.x, target.y))
        moves += 1
    apply_action(wander, Action.move(3, 1))
    assert wander.status is Status.DEATH_PIT
    assert wander.score == 50 - 36 - 20 == -6
    assert wander.score < 0
    print("\nACCEPTANCE PASS: reward range (kill-then-gold 118 > 100, wander-then-die -6 < 0)")


def test_arbitration_rule_boundary_matrix():
    """With threshold 0.7 the critic's alternative executes exactly when
    confidence < 0.7."""
    cfg = ArbitrationConfig(threshold=0.7)
    proposal = Action.move(2, 1)
    alternative = Action.move(1, 2)
    for confidence in (0.0, 0.69, 0.7, 0.71, 1.0):
        action, provenance = arbitrate(
            proposal, CriticVerdict(confidence, alternative, ""), cfg
        )
        expect_critic = confidence < 0.7
        assert (provenance == "critic") is expect_critic
        assert action == (alternative if expect_critic else proposal)
    print("\nACCEPTANCE PASS: arbitration boundary matrix at threshold 0.7")


def test_chain_of_speculation_guess_propagation():
    """In a mock episode the round-t prompt quotes round-(t-1)'s guess
    verbatim; the first prompt has none."""
    guesses = [
        '{"wumpus": [[3,3]], "pits": []}',
        '{"wumpus": [[3,3]], "pits": [[2,2]]}',
        '{"wumpus": [], "pits": [[2,2]]}',
    ]
    replies = [
        MockReply(f"Analysis: r1\nGuess: {guesses[0]}\nAction: move to position (2,1)", 5, 5),
        MockReply(f"Analysis: r2\nGuess: {guesses[1]}\nAction: move to position (1,2)", 5, 5),
        MockReply(f"Analysis: r3\nGuess: {guesses[2]}\nAction: <exit>", 5, 5),
    ]
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    with MockChatServer(replies) as server:
        record = run_episode(
            config,
            LlmAgent(ChatClient(server.url, "mock-model", max_retries=0), 3),
            agent_kind="llm",
            mechanism="cos",
        )
        prompts = [req["messages"][1]["content"] for req in server.requests]
    assert record.status == "exited"
    assert len(prompts) == 3
    assert "Previous guess" not in prompts[0]
    assert guesses[0] in prompts[1]
    assert guesses[1] in prompts[2]
    assert guesses[1] not in prompts[1]
    print("\nACCEPTANCE PASS: chain-of-speculation guess propagation (3 rounds)")


def test_metrics_plumbing_exact_tokens_cost_and_latency():
    """Scripted usage and delays reproduce token totals exactly, cost to
    exact arithmetic, and per-step latency within ±20 ms of the injection."""
    replies = [
        MockReply(
            'Analysis: a\nGuess: {"wumpus": [], "pits": []}\nAction: move to position (2,1)',
            prompt_tokens=12,
            completion_tokens=34,
            delay=0.05,
        ),
        MockReply(
            'Analysis: b\nGuess: {"wumpus": [], "pits": []}\nAction: move to position (1,2)',
            prompt_tokens=56,
            completion_tokens=78,
            delay=0.06,
        ),
        MockReply(
            'Analysis: c\nGuess: {"wumpus": [], "pits": []}\nAction: <exit>',
            prompt_tokens=9,
            completion_tokens=1,
            delay=0.07,
        ),
    ]
    config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9)
    with MockChatServer(replies) as server:
        record = run_episode(
            config,
            LlmAgent(ChatClient(server.url, "mock-model", max_retries=0), 3),
            agent_kind="llm",
            mechanism="cos",
            models={"model": "mock-model"},
        )
    assert record.prompt_tokens() == 77
    assert record.completion_tokens() == 113
    assert record.total_tokens() == 190

    summary = summarize([record], {"mock-model": Price(1.0, 2.0)})
    assert summary.avg_prompt_tokens == 77
    assert summary.avg_completion_tokens == 113
    assert summary.avg_total_tokens == 190
    # two steps (the exit is not a step): (77*1 + 113*2) / 1000 / 2
    assert summary.avg_cost_per_step == pytest.approx(0.303 / 2)
    injected_per_step = (0.05 + 0.06 + 0.07) / 2
    assert abs(summary.avg_latency_per_step - injected_per_step) <= 0.020
    assert summary.tps == pytest.approx(113 / record.total_latency())
    print(
        f"\nACCEPTANCE PASS: metrics plumbing (tokens exact, cost exact, "
        f"latency {summary.avg_latency_per_step * 1000:.1f} ms/step vs "
        f"{injected_per_step * 1000:.1f} injected)"
    )


def test_default_trial_matrix_runs_150_episodes():
    """The default matrix is six conditions x 25 distinct seeds and yields
    exactly 150 episode records."""
    matrix = default_matrix(master_seed=0)
    assert matrix.total_trials() == 150
    for _, seeds in matrix.entries:
        assert len(set(seeds)) == 25

    def factory(cfg):
        return OracleAgent(cfg.grid_size, cfg.num_pits, cfg.num_wumpus)

    records = run_trials(matrix, factory, agent_kind="oracle", parallelism=8)
    assert len(records) == 150
    by_condition = {}
    for record in records:
        # run_trials records any crash, an inference error included, as a
        # protocol failure, so the batch finishing proves nothing on its own.
        assert record.error is None
        assert record.status not in (
            Status.PROTOCOL_FAILURE,
            Status.DEATH_PIT,
            Status.DEATH_WUMPUS,
        )
        by_condition.setdefault(record.condition, []).append(record.seed)
    assert len(by_condition) == 6
    for seeds in by_condition.values():
        assert len(seeds) == 25
        assert len(set(seeds)) == 25
    print("\nACCEPTANCE PASS: default trial matrix emits 150 episodes across 6 conditions")


def test_step_cap_truncates_at_exactly_50_actions():
    """An agent issuing only legal moves and shots stops at exactly 50
    actions with status timeout."""

    class MovesAndOneShot:
        def __init__(self, avoid):
            self.avoid = avoid
            self.rounds = 0

        def decide(self, obs):
            self.rounds += 1
            if self.rounds == 10 and obs.suggestions.shoot_options:
                return Decision(action=Action.shoot("up"), provenance="scripted")
            target = next(
                c for c in obs.suggestions.frontier_cells if tuple(c) != tuple(self.avoid)
            )
            return Decision(action=Action.move(target.x, target.y), provenance="scripted")

    config = WorldConfig(grid_size=8, num_pits=0, num_wumpus=0, seed=4, step_limit=50)
    gold = generate_world(config).gold_cell
    record = run_episode(config, MovesAndOneShot(gold), agent_kind="scripted")
    assert record.status == "timeout"
    assert len(record.rounds) == 50
    assert record.step_count() == 50
    kinds = {r.action.kind.value for r in record.rounds}
    assert kinds == {"move", "shoot"}
    print("\nACCEPTANCE PASS: step cap truncates at exactly 50 actions with status timeout")


@pytest.mark.skipif(
    not os.environ.get("WUMPUSBENCH_LIVE_ENDPOINT"),
    reason="live smoke run is optional; set WUMPUSBENCH_LIVE_ENDPOINT and "
    "WUMPUSBENCH_LIVE_MODEL (plus an API key) to enable",
)
def test_live_model_smoke_run():
    """Optional: a 6-episode mini-matrix against a real chat endpoint
    completes and produces a summary. No numeric targets asserted."""
    from wumpusbench import matrix_from_dict

    endpoint = os.environ["WUMPUSBENCH_LIVE_ENDPOINT"]
    model = os.environ.get("WUMPUSBENCH_LIVE_MODEL", "gpt-4o-mini")
    matrix = matrix_from_dict(
        {
            "conditions": [
                {"grid_size": 3, "num_pits": 0, "num_wumpus": 1, "trials": 3},
                {"grid_size": 3, "num_pits": 1, "num_wumpus": 1, "trials": 3},
            ]
        }
    )

    def factory(cfg):
        return LlmAgent(ChatClient(endpoint, model), cfg.grid_size)

    records = run_trials(
        matrix, factory, agent_kind="llm", mechanism="cos", models={"model": model}
    )
    assert len(records) == 6
    summary = summarize(records)
    print(f"\nACCEPTANCE PASS: live smoke run\n{summary.format_text()}")

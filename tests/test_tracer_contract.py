"""The benchmark's span tracer must still find and fire every layer it wraps.

``perfbench/tracing.py`` replaces package functions at the module attributes
their callers look up. A refactor that renames such a function, or stops
calling it through that attribute, leaves its per-layer metric at zero
without any error; this test turns that into a failure. It makes no timing
assertion.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from wumpusbench import (
    ChatClient,
    MockChatServer,
    MockReply,
    OracleAgent,
    PlannerCriticAgent,
    WorldConfig,
    harness,
    metrics,
)

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The oracle no longer calls this one; the benchmark's own follow-up replaces it.
NOT_FIRED = {"oracle.consistent_layouts"}

PLANNER_REPLY = (
    "Analysis: quiet so far.\n"
    'Guess: {"wumpus": [], "pits": []}\n'
    "Action: move to position (2,1)"
)
VERDICT_REPLY = "Confidence: 0.9\nAlternative: none\nRationale: fine"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_and_fires(tmp_path):
    tracing = load_tracing()
    for path, attr, *_ in (*tracing.SPANNED, *tracing.COUNTED):
        assert attr in tracing._resolve(path).__dict__, f"{path}.{attr}"

    llm_config = WorldConfig(grid_size=3, num_pits=0, num_wumpus=0, seed=9, step_limit=1)
    oracle_config = WorldConfig(grid_size=3, num_pits=1, num_wumpus=1, seed=10)
    original_run_episode = harness.run_episode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with MockChatServer([MockReply(PLANNER_REPLY), MockReply(VERDICT_REPLY)]) as server:
            client = ChatClient(server.url, "m", max_retries=0)
            records = [
                harness.run_episode(
                    llm_config, PlannerCriticAgent(client, 3), condition="llm"
                )
            ]
        records.append(
            harness.run_episode(oracle_config, OracleAgent(3, 1, 1), condition="oracle")
        )
        path = tmp_path / "records.jsonl"
        harness.write_records(path, records)
        for record in harness.read_records(path):
            harness.verify_record(record)
        metrics.summarize(records)
    finally:
        tracer.uninstall()
    assert harness.run_episode is original_run_episode

    assert [r.error for r in records] == [None, None]
    spanned = {name for _, _, name, _, _ in tracing.SPANNED}
    fired = {span.name for span in tracer.spans}
    assert spanned - NOT_FIRED - fired == set()
    counted = {name for _, _, name in tracing.COUNTED}
    assert counted <= {name for name, _ in tracer.counts}

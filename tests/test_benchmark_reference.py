"""The benchmark's stored seed-0 digests must match the package's play.

``perfbench/reference.json`` holds, per workload, the ``matrix_digest`` of the
oracle's play of the workload's seed-0 matrix. The benchmark compares against
it only when it runs at seed 0; this test replays the same matrices in
process, so a change to world generation, the rules or the oracle that moves
any episode fails here too. One seed-0 pass of each oracle workload also
runs the benchmark's whole check chain (JSONL round trip, replay, summary,
digest and the checker's self-test), so a break in any of them fails here
rather than as a failed benchmark run. ``perfbench/`` is loaded read-only and
never put on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wumpusbench import chat, harness, mockserver, planner_critic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports checks.py by its bare name; drop both afterwards.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_seed_zero_play_matches_the_stored_digests(monkeypatch):
    checks = load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert set(reference["digests"]) == {"oracle-paper", "oracle-large", "llm-mock"}
    for workload, digest in reference["digests"].items():
        matrix = workloads.build_matrix(workload, reference["seed"])
        records = harness.run_trials(matrix, workloads.oracle_factory, agent_kind="oracle")
        assert checks.matrix_digest(records) == digest, workload


@pytest.mark.parametrize("workload", ["oracle-paper", "oracle-large"])
def test_seed_zero_pass_passes_every_check(monkeypatch, tmp_path, workload):
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    result = workloads.run_pass(
        workloads.prepare(workload, reference["seed"]),
        workloads.CountingSession(),
        tmp_path,
        reference=reference["digests"][workload],
        with_self_test=True,
    )
    assert (result.failed, result.problems) == (0, [])
    matrix = workloads.build_matrix(workload, reference["seed"])
    assert result.episodes == matrix.total_trials()
    labels = [label for label, _ in result.self_test]
    assert labels == ["altered action", "altered score"]
    assert all(found for _, found in result.self_test)


def test_seed_zero_llm_mock_prompts_keep_their_bytes(monkeypatch):
    # The prompts the planner-critic agent posts while it replays the seed-0
    # llm-mock script, with the script's delays dropped. Their digest pins
    # the observation text a model reads, whatever form a round keeps it in.
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    inputs = workloads.prepare("llm-mock", 0)
    script = [dataclasses.replace(reply, delay=0.0) for reply in inputs.script]
    with mockserver.MockChatServer(script) as server:

        def factory(config):
            client = chat.ChatClient(server.url, workloads.MOCK_MODEL)
            return planner_critic.PlannerCriticAgent(client, config.grid_size)

        records = harness.run_trials(
            inputs.matrix, factory, agent_kind="llm", mechanism="planner_critic"
        )
    assert all(r.status != "protocol_failure" for r in records)
    messages = json.dumps([request["messages"] for request in server.requests])
    assert len(server.requests) == len(script) == 690
    assert hashlib.sha256(messages.encode()).hexdigest() == (
        "6c3bd04aa647b20452f39086a765672e192b0de0f603d25f33f8463d8ca6daef"
    )

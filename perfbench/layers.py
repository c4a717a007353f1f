"""Per-layer metrics derived from the spans and counters of traced passes.

A metric whose layer a workload never calls reads 0; ``README.md`` lists
which layers each workload exercises.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from workloads import AUDIT_REPEATS, MOCK_DELAY_S

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
GRIDS = ("3x3", "4x4", "5x5")
DECIDES = ("oracle.decide", "planner_critic.decide")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, sample count) at the highest percentile that has at
    least 10 samples beyond it, by nearest rank; zeros when there is none."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            ordered = sorted(values)
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1], n
    return 0.0, 0.0, n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer, traced, untraced, setup_s: float, scripted: bool
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the ``traced`` passes; ``untraced`` are the passes
    over the same matrices without tracing, ``setup_s`` the traced set-up."""
    spans, counts = tracer.spans, tracer.counts
    run_s = sum(p.run_s for p in traced)
    episodes = sum(p.episodes for p in traced)
    rounds = sum(p.rounds for p in traced)
    model_rounds = rounds if scripted else 0
    model_calls = sum(p.calls for p in traced) if scripted else 0
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def mean(name: str, scale: float) -> float:
        found = by_name[name]
        return scale * _ratio(sum(s.duration for s in found), len(found))

    def mean_self(name: str, scale: float, only=None) -> float:
        found = by_name[name]
        total = 0.0
        for span in found:
            inner = [c for c in children[span.id] if only is None or c.name in only]
            total += span.duration - sum(c.duration for c in inner)
        return scale * _ratio(total, len(found))

    out: dict[str, tuple[float, str]] = {}

    decides = by_name["oracle.decide"]
    decide_ids = {s.id for s in decides}
    for grid in GRIDS:
        ms = [1e3 * s.duration for s in decides if (s.episode or "").startswith(grid + "_")]
        out[f"oracle.decide.ms_p50.{grid}"] = (statistics.median(ms) if ms else 0.0, "ms")
    pct, value, n = tail([1e3 * s.duration for s in decides])
    out["oracle.decide.ms_tail"] = (value, "ms")
    out["oracle.decide.tail_pct"] = (pct, "%")
    out["oracle.decide.samples"] = (n, "count")
    layouts = [s for s in by_name["oracle.consistent_layouts"] if s.parent in decide_ids]
    out["oracle.consistent_layouts.calls_per_decide"] = (
        _ratio(len(layouts), len(decides)),
        "count",
    )
    out["oracle.consistent_layouts.layouts_per_call"] = (
        _ratio(sum(s.value for s in layouts), len(layouts)),
        "count",
    )
    # The oracle plays in the run phase, except on llm-mock where it only
    # builds the script during set-up.
    oracle_phase, phase_s = ("setup", setup_s) if scripted else ("run", run_s)
    out["oracle.share"] = (
        _ratio(sum(s.duration for s in decides if s.phase == oracle_phase), phase_s),
        "ratio",
    )

    out["world.generate_world.us"] = (mean("world.generate_world", 1e6), "us")
    out["world.apply_action.us"] = (mean("world.apply_action", 1e6), "us")
    out["world.frontier.calls_per_round"] = (
        _ratio(counts[("world.frontier", "run")], rounds),
        "count",
    )
    out["observation.build_observation.us"] = (
        mean("observation.build_observation", 1e6),
        "us",
    )
    out["observation.parse_action.us"] = (mean("observation.parse_action", 1e6), "us")
    out["observation.observation_to_json.us"] = (
        mean("observation.observation_to_json", 1e6),
        "us",
    )

    out["llm.build_prompt.us"] = (mean("llm.build_prompt", 1e6), "us")
    out["llm.parse_cos_response.us"] = (mean("llm.parse_cos_response", 1e6), "us")
    out["llm.run_cos_round.self_ms"] = (mean_self("llm.run_cos_round", 1e3), "ms")
    out["llm.parse_retries_per_round"] = (
        _ratio(sum(p.retries for p in traced), model_rounds),
        "count",
    )
    out["planner_critic.parse_critic_verdict.us"] = (
        mean("planner_critic.parse_critic_verdict", 1e6),
        "us",
    )
    out["planner_critic.critique.self_ms"] = (
        mean_self("planner_critic.critique", 1e3),
        "ms",
    )
    out["planner_critic.override_share"] = (
        _ratio(sum(p.overrides for p in traced), model_rounds),
        "ratio",
    )

    overhead = [1e3 * (s.duration - MOCK_DELAY_S) for s in by_name["chat.complete"]]
    pct, value, n = tail(overhead)
    out["chat.complete.overhead_ms_p50"] = (
        statistics.median(overhead) if overhead else 0.0,
        "ms",
    )
    out["chat.complete.overhead_ms_tail"] = (value, "ms")
    out["chat.complete.tail_pct"] = (pct, "%")
    out["chat.complete.samples"] = (n, "count")
    out["chat.posts_per_call"] = (_ratio(sum(p.posts for p in traced), model_calls), "count")
    out["mockserver.requests_per_call"] = (
        _ratio(sum(p.server_requests for p in traced), model_calls),
        "count",
    )

    out["harness.run_episode.self_ms"] = (
        mean_self("harness.run_episode", 1e3, only=DECIDES),
        "ms",
    )
    records_audited = episodes * AUDIT_REPEATS
    for name in ("write_records", "read_records"):
        total = sum(s.duration for s in by_name[f"harness.{name}"])
        out[f"harness.{name}.us_per_record"] = (1e6 * _ratio(total, records_audited), "us")
    out["harness.verify_record.us_per_record"] = (mean("harness.verify_record", 1e6), "us")
    out["harness.record_bytes"] = (
        _ratio(sum(p.record_bytes for p in traced), episodes),
        "B",
    )
    out["metrics.summarize.ms"] = (mean("metrics.summarize", 1e3), "ms")
    out["trace.overhead_share"] = (
        _ratio(
            sum(p.run_s + p.audit_s for p in traced),
            sum(p.run_s + p.audit_s for p in untraced),
        ),
        "ratio",
    )
    return out

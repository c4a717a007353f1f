"""Aggregate statistics over a set of episode records.

Steps are the moves and shots an episode executed; exits do not count toward
per-step averages. Protocol-failure and harness-error episodes are excluded
from every average and rate and reported as separate counts, so neither model
noncompliance nor a crash of the harness masquerades as a game outcome; their
spend still counts in the token and cost totals, which cover every episode. A
log of such episodes only summarizes to zero runs and zero averages. Reward
per step is the per-episode mean of score over steps (zero-step episodes are
skipped). Cost uses a per-1000-token price table keyed by model name with a
``default`` fallback; tokens-per-second is total completion tokens over total
measured latency.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import SummaryError

if TYPE_CHECKING:  # pragma: no cover
    from .harness import EpisodeRecord


@dataclass(frozen=True)
class Price:
    input_per_1k: float = 0.0
    output_per_1k: float = 0.0


PriceTable = Mapping[str, Price]


def price_table_from_dict(data: Mapping[str, Mapping[str, float]]) -> dict[str, Price]:
    return {
        name: Price(
            input_per_1k=float(p.get("input_per_1k", 0.0)),
            output_per_1k=float(p.get("output_per_1k", 0.0)),
        )
        for name, p in data.items()
    }


def _price_for(model: str, prices: PriceTable | None) -> Price:
    if not prices:
        return Price()
    return prices.get(model) or prices.get("default") or Price()


@dataclass(frozen=True)
class MetricsSummary:
    runs: int
    protocol_failures: int
    harness_errors: int
    avg_total_reward: float
    reward_std: float  # sample (n-1) standard deviation
    avg_steps: float
    min_steps: int
    max_steps: int
    avg_reward_per_step: float
    success_rate: float  # percent
    wumpus_kill_rate: float  # percent
    avg_latency_per_step: float  # seconds
    avg_prompt_tokens: float  # per run
    avg_completion_tokens: float
    avg_total_tokens: float
    avg_cost_per_step: float
    tps: float  # completion tokens per second of generation latency
    # Spend over every episode, protocol failures included.
    total_prompt_tokens: int
    total_completion_tokens: int
    total_cost: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def format_text(self) -> str:
        lines = [
            f"Total runs              {self.runs}",
            f"Protocol failures       {self.protocol_failures}",
            f"Harness errors          {self.harness_errors}",
            f"Avg total reward        {self.avg_total_reward:.2f} (±{self.reward_std:.2f})",
            f"Avg steps               {self.avg_steps:.2f} (range: {self.min_steps}-{self.max_steps})",
            f"Avg reward per step     {self.avg_reward_per_step:.2f}",
            f"Success rate (%)        {self.success_rate:.2f}",
            f"Wumpus kill rate (%)    {self.wumpus_kill_rate:.2f}",
            f"Avg latency per step(s) {self.avg_latency_per_step:.3f}",
            f"Avg prompt tokens       {self.avg_prompt_tokens:.1f}",
            f"Avg completion tokens   {self.avg_completion_tokens:.1f}",
            f"Avg total tokens        {self.avg_total_tokens:.1f}",
            f"Avg cost per step       {self.avg_cost_per_step:.6f}",
            f"TPS (tokens/s)          {self.tps:.2f}",
            f"Total prompt tokens     {self.total_prompt_tokens}",
            f"Total completion tokens {self.total_completion_tokens}",
            f"Total cost              {self.total_cost:.6f}",
        ]
        return "\n".join(lines)


def _cost(record: "EpisodeRecord", prices: PriceTable | None) -> float:
    cost = 0.0
    for model, prompt_toks, completion_toks in record.usage_by_model():
        price = _price_for(model, prices)
        cost += (
            prompt_toks * price.input_per_1k + completion_toks * price.output_per_1k
        ) / 1000.0
    return cost


# Statuses of episodes that ended without a game outcome.
_NOT_GAMES = ("protocol_failure", "harness_error")


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def summarize(
    records: Sequence["EpisodeRecord"], prices: PriceTable | None = None
) -> MetricsSummary:
    """Aggregate ``records`` into one summary."""
    if not records:
        raise SummaryError("cannot summarize an empty record set")
    not_games = [r for r in records if r.status in _NOT_GAMES]
    completed = [r for r in records if r.status not in _NOT_GAMES]
    completed_cost = sum(_cost(r, prices) for r in completed)

    scores = [r.score for r in completed]
    steps = [r.step_count() for r in completed]
    per_step = [s / k for s, k in zip(scores, steps) if k > 0]

    total_steps = sum(steps)
    total_completion = sum(r.completion_tokens() for r in completed)
    total_latency = sum(r.total_latency() for r in completed)
    n = len(completed)
    return MetricsSummary(
        runs=n,
        protocol_failures=sum(r.status == "protocol_failure" for r in not_games),
        harness_errors=sum(r.status == "harness_error" for r in not_games),
        avg_total_reward=statistics.mean(scores) if n else 0.0,
        reward_std=statistics.stdev(scores) if n > 1 else 0.0,
        avg_steps=statistics.mean(steps) if n else 0.0,
        min_steps=min(steps, default=0),
        max_steps=max(steps, default=0),
        avg_reward_per_step=statistics.mean(per_step) if per_step else 0.0,
        success_rate=100.0 * _per(sum(r.success for r in completed), n),
        wumpus_kill_rate=100.0 * _per(sum(r.wumpus_killed for r in completed), n),
        avg_latency_per_step=_per(total_latency, total_steps),
        avg_prompt_tokens=_per(sum(r.prompt_tokens() for r in completed), n),
        avg_completion_tokens=_per(total_completion, n),
        avg_total_tokens=_per(sum(r.total_tokens() for r in completed), n),
        avg_cost_per_step=_per(completed_cost, total_steps),
        tps=_per(total_completion, total_latency),
        total_prompt_tokens=sum(r.prompt_tokens() for r in records),
        total_completion_tokens=sum(r.completion_tokens() for r in records),
        total_cost=completed_cost + sum(_cost(r, prices) for r in not_games),
    )

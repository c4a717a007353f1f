"""Span tracer that instruments wumpusbench from outside the package.

Each wrapper replaces a public function at the module attribute its caller
looks up (for example ``wumpusbench.harness.build_observation``, which is what
``run_episode`` calls) and records one span per call: id, name, start, end,
parent span, episode id, benchmark phase and an optional measured value.
Hot paths are wrapped count-only, because a span per call would distort the
traced run. :meth:`Tracer.uninstall` puts every original back, so the
untraced passes of the same process run the unmodified package. Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    episode: str | None
    phase: str
    value: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _episode_of_run(args, kwargs) -> str:
    config = args[0]
    return f"{kwargs.get('condition')}/{config.seed}"


def _episode_of_record(args, kwargs) -> str:
    record = args[0]
    return f"{record.condition}/{record.seed}"


# (object path under wumpusbench, attribute, span name, episode id, value)
SPANNED: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("harness", "run_episode", "harness.run_episode", _episode_of_run, None),
    ("harness", "generate_world", "world.generate_world", None, None),
    ("harness", "build_observation", "observation.build_observation", None, None),
    ("harness", "apply_action", "world.apply_action", None, None),
    ("harness", "parse_action", "observation.parse_action", None, None),
    ("harness", "write_records", "harness.write_records", None, None),
    ("harness", "read_records", "harness.read_records", None, None),
    ("harness", "verify_record", "harness.verify_record", _episode_of_record, None),
    ("metrics", "summarize", "metrics.summarize", None, None),
    ("oracle", "consistent_layouts", "oracle.consistent_layouts", None, len),
    ("oracle.OracleAgent", "decide", "oracle.decide", None, None),
    ("llm", "build_prompt", "llm.build_prompt", None, None),
    ("llm", "parse_cos_response", "llm.parse_cos_response", None, None),
    ("llm", "parse_action", "observation.parse_action", None, None),
    ("llm", "observation_to_json", "observation.observation_to_json", None, None),
    ("planner_critic", "run_cos_round", "llm.run_cos_round", None, None),
    ("planner_critic", "critique", "planner_critic.critique", None, None),
    (
        "planner_critic",
        "parse_critic_verdict",
        "planner_critic.parse_critic_verdict",
        None,
        None,
    ),
    ("planner_critic", "parse_action", "observation.parse_action", None, None),
    (
        "planner_critic",
        "observation_to_json",
        "observation.observation_to_json",
        None,
        None,
    ),
    ("planner_critic.PlannerCriticAgent", "decide", "planner_critic.decide", None, None),
    ("chat.ChatClient", "complete", "chat.complete", None, None),
)

# Called twice per move round at a few microseconds each: counted, not timed.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("world", "frontier", "world.frontier"),
    ("observation", "frontier", "world.frontier"),
)


def _resolve(path: str):
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"wumpusbench.{module}")
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[tuple[str, str]] = Counter()  # (name, phase)
        self.phase = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._episode: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, fn, name: str, episode_of, value_of):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            outer_episode = self._episode
            if episode_of is not None:
                self._episode = episode_of(args, kwargs)
            self._stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                value = None
                if value_of is not None and result is not None:
                    value = value_of(result)
                self.spans.append(
                    Span(
                        span_id, name, start, end, parent, self._episode, self.phase, value
                    )
                )
                self._episode = outer_episode

        return traced

    def _counted(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(name, self.phase)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name, episode_of, value_of in SPANNED:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._spanned(original, name, episode_of, value_of))
        for path, attr, name in COUNTED:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
            for (name, phase), count in sorted(self.counts.items()):
                handle.write(
                    json.dumps({"counter": name, "phase": phase, "count": count}) + "\n"
                )

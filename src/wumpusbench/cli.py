"""Command-line interface.

Subcommands:

* ``run`` - execute a trial matrix with an oracle, model-driven or scripted
  agent and append each episode's record to a JSONL log as it finishes.
* ``replay`` - re-simulate one logged episode and print its board frames.
* ``summarize`` - aggregate a log into the metrics table.
* ``mock-serve`` - serve a scripted chat endpoint for offline runs.

API credentials are read only from the environment (``WUMPUSBENCH_API_KEY``,
falling back to ``OPENAI_API_KEY``), never from flags or config files.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .agents import ScriptedAgent
from .chat import ChatClient
from .errors import ActionParseError, ConfigurationError, WumpusBenchError
from .harness import (
    EpisodeRecord,
    TrialMatrix,
    default_matrix,
    from_json,
    matrix_from_dict,
    read_records,
    render_frames,
    run_trials,
    verify_record,
    write_records,
)
from .llm import (
    LlmAgent,
    MECHANISM_COS,
    MECHANISM_COT,
    MECHANISM_PLANNER_CRITIC,
)
from .metrics import price_table_from_dict, summarize
from .mockserver import MockChatServer, script_from_json
from .observation import parse_action
from .oracle import OracleAgent
from .planner_critic import DEFAULT_THRESHOLD, ArbitrationConfig, PlannerCriticAgent
from .world import Action


def _load_json(path: str):
    """The JSON value in the file at ``path``; invalid JSON raises
    :class:`ConfigurationError` naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # too deep a nesting too
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


@dataclass(frozen=True)
class RunConfig:
    """A ``--config`` file; a flag given overrides the key of its name."""

    endpoint: str | None = None
    model: str | None = None
    mechanism: str = MECHANISM_COS
    critic_model: str | None = None
    critic_threshold: float = DEFAULT_THRESHOLD
    temperature: float = 0.0
    prices: dict = field(default_factory=dict)
    matrix: dict | None = None


_FLAGS = ("endpoint", "model", "mechanism", "critic_model", "critic_threshold", "temperature")


def _build_matrix(args, config: RunConfig) -> TrialMatrix:
    """The matrix of ``--matrix`` or the config's ``matrix``, else the default
    one; ``--seed`` and ``--step-limit`` set only the default one's."""
    given = {"master_seed": args.seed, "step_limit": args.step_limit}
    given = {name: value for name, value in given.items() if value is not None}
    if args.matrix and args.matrix != "default":
        data = _load_json(args.matrix)
    elif args.matrix is None and config.matrix is not None:
        data = config.matrix
    else:
        return default_matrix(**given)
    if given:
        raise ConfigurationError(
            "--seed and --step-limit apply only to the default matrix; "
            "a matrix sets its own master_seed and step_limit"
        )
    return matrix_from_dict(data)


def _script_actions(path: str) -> list[Action]:
    """The actions of an ``--actions`` file, a JSON list of action texts; a
    malformed file raises :class:`ConfigurationError` naming the index."""
    script = _load_json(path)
    if not isinstance(script, list):
        raise ConfigurationError(f"{path}: expected a JSON list, not {script!r:.80}")
    actions = []
    for i, text in enumerate(script):
        if not isinstance(text, str):
            raise ConfigurationError(f"{path}: action {i}: expected a string, not {text!r:.80}")
        try:
            actions.append(parse_action(text))
        except ActionParseError as exc:
            raise ConfigurationError(f"{path}: action {i}: {exc}") from exc
    return actions


def _agent_factory(args, config: RunConfig):
    flags = {name: value for name in _FLAGS if (value := getattr(args, name)) is not None}
    config = replace(config, **flags)
    mechanism = config.mechanism.replace("-", "_")
    if args.agent == "oracle":
        return (
            lambda cfg: OracleAgent(cfg.grid_size, cfg.num_pits, cfg.num_wumpus),
            None,
            {},
        )
    if args.agent == "scripted":
        if not args.actions:
            raise ConfigurationError("--actions FILE is required with --agent scripted")
        actions = _script_actions(args.actions)
        return lambda cfg: ScriptedAgent(actions), None, {}

    endpoint, model, temperature = config.endpoint, config.model, config.temperature
    if not endpoint or not model:
        raise ConfigurationError("--endpoint and --model are required with --agent llm")
    if mechanism not in (MECHANISM_COT, MECHANISM_COS, MECHANISM_PLANNER_CRITIC):
        raise ConfigurationError(f"unknown mechanism {mechanism!r}")
    # One client per model for the whole run, on one session, shared by every
    # episode and worker thread, so that a run keeps its connections open
    # across episodes. requests' pool for an https or proxied endpoint keeps
    # a connection for each worker thread rather than urllib3's default ten.
    session = requests.Session()
    pool = HTTPAdapter(pool_maxsize=max(args.parallelism, DEFAULT_POOLSIZE))
    session.mount("http://", pool)
    session.mount("https://", pool)
    client = ChatClient(endpoint, model, temperature=temperature, session=session)

    if mechanism == MECHANISM_PLANNER_CRITIC:
        critic_model = config.critic_model or model
        arbitration = ArbitrationConfig(config.critic_threshold)
        critic = (
            ChatClient(endpoint, critic_model, temperature=temperature, session=session)
            if critic_model != model
            else client
        )

        def factory(cfg):
            return PlannerCriticAgent(
                client, cfg.grid_size, critic_client=critic, arbitration=arbitration
            )

        return factory, mechanism, {"planner": model, "critic": critic_model}

    def factory(cfg):
        return LlmAgent(client, cfg.grid_size, mechanism=mechanism)

    return factory, mechanism, {"model": model}


def cmd_run(args) -> int:
    config = RunConfig()
    if args.config:
        config = from_json(RunConfig, _load_json(args.config), args.config)
    if args.parallelism < 1:
        raise ConfigurationError(f"parallelism: expected at least 1, not {args.parallelism}")
    matrix = _build_matrix(args, config)
    prices = price_table_from_dict(config.prices)
    factory, mechanism, models = _agent_factory(args, config)
    total = matrix.total_trials()
    done = 0
    lock = threading.Lock()

    def on_episode(record: EpisodeRecord) -> None:
        # Each record is appended as soon as its episode ends, so a crash or an
        # interrupt keeps every finished one. Workers are threads, hence the lock.
        nonlocal done
        with lock:
            done += 1
            if args.out:
                write_records(args.out, [record])
            if not args.quiet:
                print(
                    f"[{done}/{total}] {record.condition} seed={record.seed} "
                    f"status={record.status} score={record.score}",
                    file=sys.stderr,
                )

    records = run_trials(
        matrix,
        factory,
        agent_kind=args.agent,
        mechanism=mechanism,
        models=models,
        parallelism=args.parallelism,
        on_episode=on_episode,
    )
    if args.out:
        print(f"wrote {len(records)} episode records to {args.out}", file=sys.stderr)
    print(summarize(records, prices).format_text())
    return 0


def cmd_replay(args) -> int:
    records = read_records(args.log)
    if not records:
        raise ConfigurationError(f"{args.log}: the log holds no episodes")
    if not 0 <= args.episode < len(records):
        raise ConfigurationError(
            f"episode index {args.episode} out of range 0..{len(records) - 1}"
        )
    record = records[args.episode]
    if not args.no_verify:
        verify_record(record)
    print(
        f"episode {args.episode}: {record.condition or 'ad hoc'} seed={record.seed} "
        f"agent={record.agent_kind} status={record.status} score={record.score}"
    )
    for frame in render_frames(record):
        print()
        print(frame)
    return 0


def cmd_summarize(args) -> int:
    records = read_records(args.log)
    prices = None
    if args.prices:
        prices = price_table_from_dict(_load_json(args.prices))
    print(summarize(records, prices).format_text())
    return 0


def cmd_mock_serve(args) -> int:
    script = script_from_json(_load_json(args.script))
    server = MockChatServer(script, port=args.port).start()
    try:
        print(
            f"mock chat endpoint at {server.url} ({len(script)} scripted replies)",
            flush=True,
        )
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wumpusbench",
        description="Wumpus-World benchmark harness for LLM decision-making agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a trial matrix")
    run.add_argument("--config", help="JSON config file (endpoint, model, prices, ...)")
    run.add_argument(
        "--agent", choices=["oracle", "llm", "scripted"], default="oracle"
    )
    run.add_argument(
        "--mechanism",
        choices=["cot", "cos", "planner-critic"],
        help="prompting mechanism for --agent llm (default cos)",
    )
    run.add_argument("--endpoint", help="chat-completions URL")
    run.add_argument("--model", help="model name")
    run.add_argument("--critic-model", help="critic model (defaults to --model)")
    run.add_argument("--critic-threshold", type=float, help="arbitration threshold")
    run.add_argument("--temperature", type=float, help="sampling temperature")
    run.add_argument(
        "--matrix", help="matrix JSON file, or 'default' for the standard six conditions"
    )
    run.add_argument("--seed", type=int, help="default matrix's master seed (default 0)")
    run.add_argument("--step-limit", type=int, help="default matrix's step limit (default 50)")
    run.add_argument("--actions", help="JSON action list for --agent scripted")
    run.add_argument("--parallelism", type=int, default=1)
    run.add_argument("--out", help="append episode records to this JSONL file")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="render one logged episode")
    replay.add_argument("--log", required=True)
    replay.add_argument("--episode", type=int, default=0)
    replay.add_argument("--no-verify", action="store_true")
    replay.set_defaults(func=cmd_replay)

    summ = sub.add_parser("summarize", help="aggregate a log into metrics")
    summ.add_argument("--log", required=True)
    summ.add_argument("--prices", help="price table JSON file")
    summ.set_defaults(func=cmd_summarize)

    mock = sub.add_parser("mock-serve", help="serve a scripted chat endpoint")
    mock.add_argument("--script", required=True, help="JSON reply script")
    mock.add_argument("--port", type=int, default=8099)
    mock.set_defaults(func=cmd_mock_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WumpusBenchError, OSError) as exc:  # OSError: a file to read or write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

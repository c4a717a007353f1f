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

import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .agents import ScriptedAgent
from .chat import ChatClient
from .errors import ActionParseError, ConfigurationError, WumpusBenchError
from .harness import (
    EpisodeRecord,
    TrialMatrix,
    default_matrix,
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
from .planner_critic import ArbitrationConfig, PlannerCriticAgent
from .world import Action


def _load_json(path: str):
    """The JSON value in the file at ``path``; invalid JSON raises
    :class:`ConfigurationError` naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


def _build_matrix(args, config: dict) -> TrialMatrix:
    if args.matrix and args.matrix != "default":
        return matrix_from_dict(_load_json(args.matrix))
    if args.matrix is None and "matrix" in config:
        return matrix_from_dict(config["matrix"])
    return default_matrix(master_seed=args.seed, step_limit=args.step_limit)


def _setting(flag, config: dict, name: str, default, convert):
    """``convert`` of the command-line value ``flag`` when given, else of the
    config's field ``name`` (``default`` when absent); a malformed config
    value raises :class:`ConfigurationError` naming the field."""
    if flag is not None:
        return convert(flag)
    try:
        return convert(config.get(name, default))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{name}: malformed field ({type(exc).__name__}: {exc})"
        ) from exc


def _underscored(name: str) -> str:
    return name.replace("-", "_")


def _text(value):
    """``value`` when it is a string or None; anything else raises TypeError."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, not {value!r:.80}")
    return value


def _script_actions(path: str) -> list[Action]:
    """The actions of an ``--actions`` file, a JSON list of action texts; a
    malformed file raises :class:`ConfigurationError` naming the index."""
    script = _load_json(path)
    if not isinstance(script, list):
        raise ConfigurationError(f"{path}: expected a JSON list, not {script!r:.80}")
    actions = []
    for i, text in enumerate(script):
        try:
            actions.append(parse_action(_text(text)))
        except (TypeError, ActionParseError) as exc:
            raise ConfigurationError(f"{path}: action {i}: {exc}") from exc
    return actions


def _agent_factory(args, config: dict):
    mechanism = _setting(
        args.mechanism, config, "mechanism", MECHANISM_COS, _underscored
    )
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

    endpoint = _setting(args.endpoint, config, "endpoint", None, _text)
    model = _setting(args.model, config, "model", None, _text)
    if not endpoint or not model:
        raise ConfigurationError("--endpoint and --model are required with --agent llm")
    if mechanism not in (MECHANISM_COT, MECHANISM_COS, MECHANISM_PLANNER_CRITIC):
        raise ConfigurationError(f"unknown mechanism {mechanism!r}")
    temperature = _setting(args.temperature, config, "temperature", 0.0, float)
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
        critic_model = (
            _setting(args.critic_model, config, "critic_model", None, _text) or model
        )
        arbitration = ArbitrationConfig(
            _setting(args.critic_threshold, config, "critic_threshold", 0.7, float)
        )
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
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigurationError(f"{args.config}: expected a JSON object")
    if args.parallelism < 1:
        raise ConfigurationError(f"parallelism: expected at least 1, not {args.parallelism}")
    matrix = _build_matrix(args, config)
    prices = price_table_from_dict(config.get("prices", {}))
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
    print(f"mock chat endpoint at {server.url} ({len(script)} scripted replies)")
    try:
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
    run.add_argument("--seed", type=int, default=0, help="master seed for trial seeds")
    run.add_argument("--step-limit", type=int, default=50)
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

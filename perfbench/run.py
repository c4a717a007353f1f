"""wumpusbench benchmark: one workload, one seed, one line of JSON.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-paper --seed 0 --seconds 30 --trace 0

Workloads are ``oracle-paper``, ``oracle-large`` and ``llm-mock`` (see
``perfbench/README.md``). A run plays a sequence of matrices drawn from
``--seed`` until ``--seconds`` have passed, checks every output, prints every
metric with its unit, then prints one JSON object as its last line. With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1``
each matrix is played once untraced and once traced, and it holds the
per-layer metrics. The exit code is 0 only when every check passed. The
package is imported from ``src/`` next to this directory, never from the
environment.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, before the package import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("oracle-paper", "oracle-large", "llm-mock")
SETUP_SAMPLES = 5  # this process plus four fresh ones


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time the set-up alone and print it as JSON (used for set-up samples)",
    )
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "wumpusbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no wumpusbench sources under {src}")
    sys.path.insert(0, str(src))
    import wumpusbench

    if Path(wumpusbench.__file__).resolve().parent != src / "wumpusbench":
        raise SystemExit(f"error: imported wumpusbench from {wumpusbench.__file__}")


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as it measures itself."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def end_to_end(
    passes, setup_s: list[float], peak_rss_mb: float
) -> dict[str, tuple[float, str]]:
    episodes = sum(p.episodes for p in passes)
    run_s = sum(p.run_s for p in passes)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "episodes_per_s": (episodes / run_s, "1/s"),
        "audit_episodes_per_s": (episodes / sum(p.audit_s for p in passes), "1/s"),
        "harness_ms_per_call": (
            statistics.median(ms for p in passes for ms in p.episode_ms_per_call),
            "ms",
        ),
        "call_overhead_ms_p50": (
            statistics.median(ms for p in passes for ms in p.overhead_ms),
            "ms",
        ),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import layers
    import tracing
    import workloads

    inputs = workloads.prepare(args.workload, workloads.rep_seed(args.seed, 0))
    server = workloads.start_endpoint(inputs) if inputs.scripted else None
    own_setup_s = perf_counter() - STARTED
    if args.setup_only:
        if server is not None:
            server.stop()
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    session = workloads.CountingSession()
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    traced_setup_s = 0.0

    def traced_pass(master: int, reference: str | None) -> None:
        nonlocal traced_setup_s
        tracer.install()
        try:
            tracer.phase = "setup"
            started = perf_counter()
            traced_inputs = workloads.prepare(args.workload, master)
            traced_setup_s += perf_counter() - started
            traced.append(
                workloads.run_pass(
                    traced_inputs, session, OUT_DIR, tracer=tracer, reference=reference
                )
            )
        finally:
            tracer.uninstall()

    measure_start = perf_counter()
    rep = 0
    try:
        while True:
            rep_start = perf_counter()
            master = workloads.rep_seed(args.seed, rep)
            reference = None
            if args.seed == references["seed"] and rep == 0:
                reference = references["digests"][args.workload]
            # Traced and untraced passes take turns going first, so that
            # neither always runs in the other's wake.
            if tracer is not None and rep % 2:
                traced_pass(master, reference)
            if rep:
                inputs = workloads.prepare(args.workload, master)
            untraced.append(
                workloads.run_pass(
                    inputs,
                    session,
                    OUT_DIR,
                    server=server,
                    reference=reference,
                    with_self_test=rep == 0,
                )
            )
            if rep == 0:
                # Later matrices differ in size, and how many of them a run
                # plays depends on the machine's speed; the seed's own first
                # matrix is the same work on every machine.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            server = None
            if tracer is not None and not rep % 2:
                traced_pass(master, reference)
            rep += 1
            # Stop when one more matrix would end over half a matrix late, so
            # that a run measures about --seconds on average.
            now = perf_counter()
            if now - measure_start + (now - rep_start) / 2 >= args.seconds:
                break
    finally:
        if server is not None:
            server.stop()
        session.close()

    passes = untraced + traced
    attempted = sum(p.episodes for p in passes)
    failed = sum(p.failed for p in passes)
    self_test = untraced[0].self_test
    correct = failed == 0 and all(found for _, found in self_test)

    if tracer is None:
        setup_s = [own_setup_s] + [
            setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        reported = end_to_end(untraced, setup_s, peak_rss_mb)
        shown = dict(reported)
    else:
        setup_s = [own_setup_s]
        reported = layers.layer_metrics(
            tracer, traced, untraced, traced_setup_s, inputs.scripted
        )
        shown = {**end_to_end(untraced, setup_s, peak_rss_mb), **reported}
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    failure_rate = failed / attempted

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "matrices": rep,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for key, value in environment.items():
        print(f"# {key}: {value}")
    for label, found in self_test:
        print(f"# self-test, {label}: {f'caught: {found[0]}' if found else 'MISSED'}")
    for problem in (p for run in passes for p in run.problems):
        print(f"# FAILED {problem}")
    print(f"{'failure_rate':40s} {failure_rate:.6g} ratio ({failed} of {attempted} episodes)")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **environment,
                **result,
                "failure_rate": failure_rate,
                "setup_samples_s": setup_s,
                "passes": [
                    {
                        "traced": is_traced,
                        "episodes": p.episodes,
                        "rounds": p.rounds,
                        "calls": p.calls,
                        "run_s": p.run_s,
                        "audit_s": p.audit_s,
                    }
                    for is_traced, group in ((False, untraced), (True, traced))
                    for p in group
                ],
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

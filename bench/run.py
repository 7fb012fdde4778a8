"""Benchmark of fracrelax: one workload per process, one JSON line of results.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced round (see
README.md).  Operations are repeated in whole rounds, so the failed share of
the attempted operations is the same in every run.
"""

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"
WORKLOADS = ("closed_form", "oracle", "verify")
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
MAX_MESSAGES = 5


def import_program():
    """Put the checkout's ``src`` first on the path and import fracrelax."""
    package = SRC / "fracrelax"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no fracrelax package at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fracrelax

    if Path(fracrelax.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported fracrelax from {fracrelax.__file__}")


def child(args, probe: str) -> float:
    """Run a probe in a fresh process and return the number it prints."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", probe,
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {probe} probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(work, checker, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done.

    Only ``workloads.run`` is timed; checks run between operations.  Each
    round's curve nodes per timed second go to ``round_rates``.
    """
    import workloads

    stats = {"times": [], "round_rates": [], "attempted": 0, "failed": 0,
             "failures": [], "checks": []}
    began = time.perf_counter()
    r = 0
    while True:
        ops = work.round_ops(r)
        checker.prepare(ops)
        nodes, timed = 0, 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workloads.run(op)
                else:
                    with tracer.span("bench.op"):
                        result = workloads.run(op)
            except (ArithmeticError, ValueError) as exc:  # the program's error families
                result = None
                stats["failures"].append(f"{op.problem}: {type(exc).__name__}: {exc}")
            stats["times"].append(time.perf_counter() - t0)
            timed += stats["times"][-1]
            stats["attempted"] += 1
            if result is None:
                stats["failed"] += 1
                continue
            nodes += result.nodes
            stats["checks"] += checker.check(op, result)  # may mark a known fault failed
            stats["failed"] += result.failed
            if result.failure:
                stats["failures"].append(result.failure)
        stats["round_rates"].append(nodes / timed)
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - began >= seconds:
            break
    return stats


def prepared(args):
    import checks
    import workloads

    work = workloads.build(args.workload, args.seed)
    checker = checks.Checker(args.seed)
    checker.prepare(work.round_ops(0))
    return work, checker


def emit(stats, metrics):
    for kind in ("failures", "checks"):
        for msg in stats[kind][:MAX_MESSAGES]:
            print(f"{kind}: {msg}", file=sys.stderr)
    # failed operations (raised, failing ladders, known faults) count in
    # `failed`; `correct` speaks of the checks of the output
    print(json.dumps({
        "correct": not stats["checks"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "round"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe == "setup":
        t0 = time.perf_counter()
        import_program()
        import workloads

        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter() - t0))
        return 0
    import_program()
    if args.probe == "round":
        work, checker = prepared(args)
        print(repr(sum(measure(work, checker, rounds=1)["times"])))
        return 0

    if args.trace == 0:
        setup_s = statistics.median(child(args, "setup") for _ in range(SETUP_PROBES))
        work, checker = prepared(args)
        stats = measure(work, checker, seconds=args.seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "nodes_per_s": (statistics.median(stats["round_rates"]), "nodes/s"),
            "op_p50_ms": (1e3 * statistics.median(stats["times"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        untraced_s = child(args, "round")
        work, checker = prepared(args)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            stats = measure(work, checker, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (sum(stats["times"]) - untraced_s, "s")
    emit(stats, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark trajectory: bench/run.py's metrics for one or more checkouts, as one JSON file.

    python3 -B tools/trajectory.py --out BENCH_26.json --seeds 1-5 --seconds 30 \\
        --root parent=../parent --root change=.

For each workload of BENCHMARK.json and each seed, every checkout given by
``--root [LABEL=]PATH`` runs ``python3 -B bench/run.py --workload W --seed S
--seconds N`` and then the same seed's ``--trace 1`` round, in subprocesses
from its own root (the checkouts take turns, and which goes first alternates
from seed to seed).  Nothing under ``bench/`` is changed; a traced round
leaves its spans in that checkout's ``bench/out/``, which git ignores.  The
file holds, per checkout, the runs and the traced rounds, the median and
quartiles over the seeds of each end-to-end and each per-layer metric,
``wc -l`` of each ``src/`` module and the git SHA; and the python, numpy and
mpmath versions and the CPU count of the machine.

The tool stops with an error, and writes nothing, where a run fails, prints
no result or reports outputs that are not correct, and where a per-layer
count (calls, terms, passes, bytes) differs between seeds in a workload
whose inputs do not depend on the seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
# Some end-to-end fields of bench/run.py are known to mislead; each is
# written with a note naming the line of CHANGES.md that records why.
NOTES = {
    "setup_s": "counts compiling the sources where a checkout has no usable __pycache__, "
               "15-30% of the metric (FOUND, CHANGES.md line 176)",
    "peak_rss_mb": "grows with the rounds a run completes, so a faster tree reads a higher "
                   "peak (FOUND, CHANGES.md line 97)",
    "trace.overhead_s": "the traced round minus one untraced round in another process; reads "
                        "below zero when the tracer costs less than the noise "
                        "(FOUND, CHANGES.md line 66)",
}
# verify draws its problems from the seed (bench/workloads.py), so its
# per-layer counts move from seed to seed; those of the others repeat.
SEEDED_INPUTS = ("verify",)
COUNT_UNITS = ("count", "bytes")


def seed_list(text: str) -> list[int]:
    """'1,2,7-9' -> [1, 2, 7, 8, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError("no seed given")
    return seeds


def tree(text: str) -> tuple[str, Path]:
    label, _, path = text.rpartition("=")
    root = Path(path).resolve()
    if not (root / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no bench/run.py under {path}")
    return label or root.name, root


def bench(label: str, root: Path, workload: str, seed: int, *args: str,
          timeout: float) -> dict:
    """One run's result line, from ``root``; refused unless its outputs are correct."""
    cmd = [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", str(seed),
           *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd[2:])} in {root} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise SystemExit(f"error: {label}: {workload} seed {seed} ({' '.join(cmd[2:])} in "
                         f"{root}) reports correct = {result.get('correct')!r}:\n{proc.stderr}")
    return {"seed": seed, **result}


def same_counts(label: str, workload: str, traced: list[dict]) -> None:
    """Stop where a per-layer count differs between the seeds' traced rounds."""
    for name, field in traced[0]["metrics"].items():
        values = {run["seed"]: run["metrics"][name]["value"] for run in traced}
        if field["unit"] in COUNT_UNITS and len(set(values.values())) > 1:
            raise SystemExit(f"error: {label}: {workload} {name} differs between seeds: {values}")


def git_sha(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": bool(status) if sha else None}


def src_lines(root: Path) -> dict:
    """``wc -l`` of each module under src/ (newlines counted), and their total."""
    counts = {str(f.relative_to(root)): f.read_bytes().count(b"\n")
              for f in sorted((root / "src").rglob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def summary(runs: list[dict]) -> dict:
    """Median and quartiles over the runs of each metric, with its unit."""
    out = {}
    for name, field in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"unit": field["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "n": len(values)}
        if name in NOTES:
            out[name]["note"] = NOTES[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--root", type=tree, action="append",
                        help="[LABEL=]PATH of a checkout; repeat to compare (default: this one)")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    roots = args.root or [tree(str(CHECKOUT))]
    if len({label for label, _ in roots}) < len(roots):
        parser.error("two checkouts share a label")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    timeout = 600.0 + 2.0 * args.seconds

    runs = {label: {w: [] for w in workloads} for label, _ in roots}
    traced = {label: {w: [] for w in workloads} for label, _ in roots}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            for label, root in (roots if i % 2 == 0 else roots[::-1]):
                print(f"{label}: {w} seed {seed}", file=sys.stderr, flush=True)
                runs[label][w].append(bench(label, root, w, seed, "--seconds", str(args.seconds),
                                            timeout=timeout))
                traced[label][w].append(bench(label, root, w, seed, "--trace", "1",
                                              timeout=timeout))
        if w not in SEEDED_INPUTS:
            for label, _ in roots:
                same_counts(label, w, traced[label][w])
    trees = []
    for label, root in roots:
        entry = {"label": label, "git": git_sha(root), "src_lines": src_lines(root),
                 "workloads": {}}
        for w in workloads:
            entry["workloads"][w] = {
                "end_to_end": summary(runs[label][w]),
                "runs": runs[label][w],
                "per_layer": summary(traced[label][w]),
                "traced_runs": traced[label][w],
            }
        trees.append(entry)
    doc = {
        "command": "python3 -B bench/run.py --workload W --seed S {--seconds N | --trace 1}",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "machine": {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
                    **{pkg: metadata.version(pkg) for pkg in ("numpy", "mpmath")}},
        "trees": trees,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

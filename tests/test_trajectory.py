"""tools/trajectory.py on a stub checkout whose bench/run.py prints canned result lines.

The stub reads ``bench/canned.json`` (workload -> seed -> "plain" or "traced"
-> result line) and prints the entry its arguments name, so each test runs
in well under a second and starts no real benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", TOOL)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

WORKLOADS = ("closed_form", "oracle", "verify")
STUB = """\
import argparse, json
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed")
parser.add_argument("--seconds")
parser.add_argument("--trace", default="0")
args = parser.parse_args()
canned = json.loads((Path(__file__).parent / "canned.json").read_text())
print("progress line")
print(json.dumps(canned[args.workload][args.seed]["traced" if args.trace == "1" else "plain"]))
"""


def plain(seed, correct=True):
    """An end-to-end result line whose metrics are linear in the seed."""
    metrics = {"setup_s": (0.1 * seed, "s"), "nodes_per_s": (1000.0 * seed, "nodes/s"),
               "op_p50_ms": (2.0 * seed, "ms"), "peak_rss_mb": (60.0 + seed, "MB")}
    return {"correct": correct, "attempted": 16, "failed": 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(seed, correct=True, terms=5000):
    metrics = {"mittag_leffler.calls": (300, "count"), "mittag_leffler.terms": (terms, "count"),
               "riemann_liouville.weights.bytes": (4096, "bytes"),
               "mittag_leffler.busy_s": (0.01 * seed, "s"), "trace.overhead_s": (-0.001, "s")}
    return {"correct": correct, "attempted": 16, "failed": 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def checkout(tmp_path, seeds, lines=None):
    """A checkout under tmp_path with the stub; ``lines[(w, seed, kind)]`` replaces a line."""
    root = tmp_path / "tree"
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB)
    canned = {w: {str(s): {"plain": plain(s), "traced": traced(s)} for s in seeds}
              for w in WORKLOADS}
    for (w, seed, kind), line in (lines or {}).items():
        canned[w][str(seed)][kind] = line
    (root / "bench" / "canned.json").write_text(json.dumps(canned))
    return root


def run_tool(tmp_path, root, seeds):
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--seeds", seeds, "--seconds", "1", "--root", f"stub={root}"]
    assert trajectory.main(argv) == 0
    return json.loads(out.read_text())


def workload(doc, w):
    (tree,) = doc["trees"]
    assert tree["label"] == "stub"
    return tree["workloads"][w]


def test_medians_and_quartiles_over_seeds(tmp_path):
    doc = run_tool(tmp_path, checkout(tmp_path, range(1, 6)), "1-5")
    assert doc["seeds"] == [1, 2, 3, 4, 5]
    entry = workload(doc, "oracle")
    assert [run["seed"] for run in entry["runs"]] == [1, 2, 3, 4, 5]
    rate = entry["end_to_end"]["nodes_per_s"]
    assert (rate["median"], rate["q1"], rate["q3"], rate["n"]) == (3000.0, 2000.0, 4000.0, 5)
    assert rate["unit"] == "nodes/s"


def test_one_run_is_its_own_median_and_quartiles(tmp_path):
    doc = run_tool(tmp_path, checkout(tmp_path, [7]), "7")
    for w in WORKLOADS:
        p50 = workload(doc, w)["end_to_end"]["op_p50_ms"]
        assert (p50["median"], p50["q1"], p50["q3"], p50["n"]) == (14.0, 14.0, 14.0, 1)


def test_notes_on_known_faulty_fields(tmp_path):
    entry = workload(run_tool(tmp_path, checkout(tmp_path, [1]), "1"), "closed_form")
    noted = {name for part in ("end_to_end", "per_layer")
             for name, field in entry[part].items() if "note" in field}
    assert noted == {"setup_s", "peak_rss_mb", "trace.overhead_s"}
    assert entry["end_to_end"]["setup_s"]["note"] == trajectory.NOTES["setup_s"]
    assert "CHANGES.md line" in entry["per_layer"]["trace.overhead_s"]["note"]


@pytest.mark.parametrize("kind", ["plain", "traced"])
def test_incorrect_run_is_refused(tmp_path, kind):
    line = plain(2, correct=False) if kind == "plain" else traced(2, correct=False)
    root = checkout(tmp_path, [1, 2], lines={("verify", 2, kind): line})
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        trajectory.main(["--out", str(out), "--seeds", "1-2", "--root", f"stub={root}"])
    assert str(exc.value).startswith("error: stub: verify seed 2 (")
    assert "reports correct = False" in str(exc.value)
    assert ("--trace 1" in str(exc.value)) == (kind == "traced")
    assert not out.exists()


def test_per_layer_medians_over_seeds(tmp_path):
    entry = workload(run_tool(tmp_path, checkout(tmp_path, range(1, 4)), "1-3"), "closed_form")
    assert [run["seed"] for run in entry["traced_runs"]] == [1, 2, 3]
    busy = entry["per_layer"]["mittag_leffler.busy_s"]
    assert (busy["median"], busy["n"]) == (0.02, 3)
    assert busy["q1"] == pytest.approx(0.015) and busy["q3"] == pytest.approx(0.025)
    terms = entry["per_layer"]["mittag_leffler.terms"]
    assert (terms["median"], terms["q1"], terms["q3"]) == (5000, 5000, 5000)


@pytest.mark.parametrize("name", ["mittag_leffler.terms", "riemann_liouville.weights.bytes"])
def test_count_that_differs_between_seeds_stops(tmp_path, name):
    line = traced(3)
    line["metrics"][name]["value"] += 1
    root = checkout(tmp_path, range(1, 4), lines={("oracle", 3, "traced"): line})
    with pytest.raises(SystemExit) as exc:
        run_tool(tmp_path, root, "1-3")
    assert str(exc.value).startswith(f"error: stub: oracle {name} differs between seeds: ")


def test_seeded_inputs_may_move_counts(tmp_path):
    # verify draws its problems from the seed, so its counts are summarised, not compared
    root = checkout(tmp_path, [1, 2], lines={("verify", 2, "traced"): traced(2, terms=5004)})
    terms = workload(run_tool(tmp_path, root, "1-2"), "verify")["per_layer"]["mittag_leffler.terms"]
    assert (terms["median"], terms["q1"], terms["q3"]) == (5002, 5001, 5003)


def test_failed_run_stops(tmp_path):
    root = checkout(tmp_path, [1])
    (root / "bench" / "run.py").write_text("import sys\nsys.exit('boom')\n")
    with pytest.raises(SystemExit, match=r"--workload closed_form --seed 1 .* failed:\nboom"):
        run_tool(tmp_path, root, "1")

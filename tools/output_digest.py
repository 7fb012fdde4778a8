"""SHA-256 of the benchmark's outputs: rounds 0 and 1 of every workload.

    python3 -B tools/output_digest.py [--root CHECKOUT]

Imports ``src/`` and ``bench/`` of the checkout at ``--root`` (by default
the one holding this file) and runs rounds 0 and 1 of each workload, built
with seed 11, through ``workloads.run``, untimed and unchecked; nothing
under ``bench/`` is changed.  Every operation's curves (name and float64
bytes), report CSV and exit code, or the error it raised (type and
message), feed one SHA-256 per workload, printed one per line; the last
line digests all of them.  Two trees that print the same lines gave the
same bits.
"""

import os

# One BLAS thread, as in bench/run.py, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROUNDS = 2
SEED = 11


def digest(workloads, name: str) -> str:
    import numpy as np

    h = hashlib.sha256()
    work = workloads.build(name, SEED)
    for r in range(ROUNDS):
        for op in work.round_ops(r):
            try:
                result = workloads.run(op)
            except (ArithmeticError, ValueError) as exc:  # the program's error families
                h.update(f"raised {type(exc).__name__}: {exc}\n".encode())
                continue
            for key in sorted(result.curves):
                h.update(f"curve {key}\n".encode())
                h.update(np.ascontiguousarray(result.curves[key], dtype=float).tobytes())
            h.update(f"exit {result.exit_code!r}\n".encode())
            h.update(result.report_csv.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import fracrelax
    import workloads

    if Path(fracrelax.__file__).resolve().parent != root / "src" / "fracrelax":
        raise SystemExit(f"error: imported fracrelax from {fracrelax.__file__}")
    total = hashlib.sha256()
    for name in workloads.WORKLOADS:
        line = f"{name} {digest(workloads, name)}"
        total.update(line.encode())
        print(line, flush=True)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 of the benchmark's outputs and of the evaluator's own scan.

    python3 -B tools/output_digest.py [--root CHECKOUT]

Imports ``src/`` and ``bench/`` of the checkout at ``--root`` (by default
the one holding this file) and runs rounds 0 and 1 of each workload, built
with seed 11, through ``workloads.run``, untimed and unchecked; nothing
under ``bench/`` is changed.  Every operation's curves (name and float64
bytes), report CSV and exit code, or the error it raised (type and
message), feed one SHA-256 per workload, printed one per line.  Two lines
digest a fixed scan of the Mittag-Leffler evaluator: over SCAN_PARAMS,
``ml_eval_many`` on a negative-axis curve and on SCAN_Z, and a lone
``ml_eval_detailed`` at each z of SCAN_Z and at each point of SCAN_MP.
``evaluator_values`` holds each value's bits, or each refusal's type and
message; ``evaluator_regimes`` each lone value's regime and terms, so that
a change which moves only how values are made shows as such.  The last
line digests all of them.  Two trees that print the same lines gave the
same bits.
"""

import os

# One BLAS thread, as in bench/run.py, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROUNDS = 2
SEED = 11
# The evaluator scan: every regime (double pass, contour with its far form,
# mpmath, a certified 0.0) and every refusal (overflow, a pass that does
# not stop), at alpha below and above 1 and 2.
SCAN_PARAMS = tuple((alpha, beta) for alpha in (0.3, 0.7, 1.0, 1.5, 2.5)
                    for beta in (0.5, 1.0, 2.0)) + ((1e-4, 1.0),)
SCAN_Z = (-1e300, -100.0, -40.0, -12.0, -6.5, -1.6535, -0.5, 0.0,
          0.5, 0.999, 2.0, 30.0, 800.0)
# (alpha, beta, z) that take the mpmath series: at |z| <= 1 the double
# pass's estimate does not certify these E[0.5, 6] and E[0.5, 8] values,
# well below 1; E[0.7, 0.5] at the double nearest its zero takes two
# passes, at 25 and 50 digits.
SCAN_MP = tuple((0.5, beta, z) for beta in (6.0, 8.0) for z in (-0.05, -0.3, -0.85)) + (
    (0.7, 0.5, -1.6535283825291351),)


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


def _outcome(call) -> tuple[bytes, bytes]:
    """The (value, regime) bytes ``call()`` returned; where it raised a
    program error, that error's type and message, and ``raised``."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:  # the program's error families
        return f"raised {type(exc).__name__}: {exc}\n".encode(), b"raised\n"


def scan_digest(mittag_leffler) -> tuple[str, str]:
    """The hex digests of the scan's values and of its regimes."""
    import numpy as np

    values, regimes = hashlib.sha256(), hashlib.sha256()

    def feed(label: str, call):
        value, regime = _outcome(call)
        for h, data in ((values, value), (regimes, regime)):
            h.update(label.encode())
            h.update(data)

    def lone(params, z):
        res = mittag_leffler.ml_eval_detailed(params, z)
        return struct.pack("<d", res.value) + b"\n", f"{res.regime} {res.terms}\n".encode()

    for alpha, beta in SCAN_PARAMS:
        params = mittag_leffler.MLParams(alpha, beta)
        for zs in (-np.linspace(0.0, 12.0 * alpha, 241), np.array(SCAN_Z)):
            feed(f"params {alpha!r} {beta!r} curve\n",
                 lambda: (mittag_leffler.ml_eval_many(params, zs).tobytes(), b"\n"))
        for z in SCAN_Z:
            feed(f"params {alpha!r} {beta!r} lone {z!r}\n", lambda: lone(params, z))
    for alpha, beta, z in SCAN_MP:
        params = mittag_leffler.MLParams(alpha, beta)
        feed(f"mp {alpha!r} {beta!r} {z!r}\n", lambda: lone(params, z))
    return values.hexdigest(), regimes.hexdigest()


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
    from fracrelax import mittag_leffler

    total = hashlib.sha256()

    def emit(name: str, value: str):
        line = f"{name} {value}"
        total.update(line.encode())
        print(line, flush=True)

    for name in workloads.WORKLOADS:
        emit(name, digest(workloads, name))
    for name, value in zip(("evaluator_values", "evaluator_regimes"), scan_digest(mittag_leffler)):
        emit(name, value)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --out DIR --result FILE [--setup-only]

Imports psilab from the checkout's `src/`, builds the workload's inputs from
the seed, stamps the moment the first operation can begin (CLOCK_MONOTONIC,
comparable with the parent's clock), then runs the pass unless
`--setup-only`.  The result goes to FILE as JSON; a traced pass also writes
its spans next to it.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None if it cannot be queried."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import psilab
    if os.path.dirname(os.path.dirname(psilab.__file__)) != SRC:
        raise SystemExit(f"psilab imported from {psilab.__file__}, not {SRC}")
    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()

    result = {"ready": ready}
    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        result.update(workloads.run_pass(ops, args.out, tracer))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": np.__version__, "scipy": scipy.__version__}
        result["blas_threads"] = _blas_threads()
        if tracer is not None:
            result["layers"], result["top_spans"] = tracer.metrics(result)
            result["units"] = {name: unit for name, unit, _ in tracing.PER_LAYER}
            tracer.write(os.path.splitext(args.result)[0] + ".spans.json")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

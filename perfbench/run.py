"""psilab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sg_analyzer|bs_scene|nogo_verdicts \
        --seed N --seconds S --trace 0|1

Run from the root of a psilab checkout.  Each pass runs the workload's
operation list once in a fresh worker process (`worker.py`); passes repeat
until the next one would end after S seconds (at least one pass, two with
--trace 1).  Set-up is timed on every pass and on extra set-up-only workers
after one untimed warm-up, so the report is a median.

--trace 0 reports the end-to-end metrics (medians over the passes):
  setup_s      process start until the first operation can begin
  wall_s       one pass over the operation list
  peak_rss_mb  peak resident memory of the worker process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, with trace.overhead_ratio (traced over untraced
wall time).

Every operation's output is checked; fail_ratio (failed / attempted
operations) is printed and carried by the result's `failed` and `attempted`.
The last line of standard output is the JSON result.  Provenance and the
per-pass data are written to perfbench/_runs/<workload>-s<seed>-t<trace>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sg_analyzer", "bs_scene", "nogo_verdicts")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150


def _source_provenance() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "src_py_lines": lines}


def _spawn(args, run_dir: str, tag: str, traced: bool, setup_only: bool,
           env: dict) -> dict:
    """Run one worker to completion; return its result with its set-up time."""
    result_path = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--out", os.path.join(run_dir, tag),
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    shutil.rmtree(os.path.join(run_dir, tag), ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "psilab", "__init__.py")):
        print(f"error: no psilab sources under {SRC}; run from a psilab checkout",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, "_runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, str(nproc))

    start = time.monotonic()
    _spawn(args, run_dir, "warmup", False, True, env)
    setups = [_spawn(args, run_dir, f"setup{k}", False, True, env)["setup_s"]
              for k in range(SETUP_PROBES)]
    passes = []
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.monotonic()
        res = _spawn(args, run_dir, f"pass{len(passes)}", traced, False, env)
        res["traced"] = traced
        passes.append(res)
        if not traced:
            setups.append(res["setup_s"])
        now = time.monotonic()
        if len(passes) >= min_passes and now - start + (now - began) > args.seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        units = traced_passes[0]["units"]
        values = {name: statistics.median(p["layers"][name] for p in traced_passes)
                  for name in units if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced_passes)
            / statistics.median(p["wall_s"] for p in plain))
        tops = [", ".join(p["top_spans"]) for p in traced_passes]
    else:
        units = dict(END_TO_END)
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(p["wall_s"] for p in plain),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    provenance = dict(_source_provenance(), seed=args.seed, nproc=nproc,
                      cpu_count=os.cpu_count(), blas_threads=passes[0]["blas_threads"],
                      **passes[0]["versions"])
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}  "
          f"passes = {len(passes)} ({len(traced_passes)} traced)  "
          f"setups = {len(setups)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_ratio = {failed / attempted!r} 1 ({failed} of {attempted} operations)")
    if args.trace:
        print("trace.top_layer_spans = " + " | ".join(tops))
    for f in failures:
        print(f"FAILED {f}")
    print("provenance = " + json.dumps(provenance, sort_keys=True))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, provenance=provenance, setups=setups, passes=passes,
                       failures=failures), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

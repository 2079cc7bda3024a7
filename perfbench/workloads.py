"""The benchmark's workloads: fixed operation lists and their output checks.

Each workload is a closed loop with one client: `run_pass` runs the
operations one after another in the calling process and checks each
operation's output before the next one starts.  Operations go through the
public entry points only (`psilab.cli.main`, plus `nogo` and `ontology` for
the analytic sweep).  The seed sets the `--seed` of the `bohm` operations;
the no-go scenes are fixed inputs.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from psilab import cli, nogo, ontology, qcore

# The repo's tests check ensemble statistics at 3 sigma for one fixed seed.
# Every benchmark run draws a new seed, and a 3-sigma gate would fail a
# correct program in about 1 statistic of 370, so the gate is 5 sigma
# (false-alarm rate 6e-7 per statistic).  A wrong outcome rule moves the
# estimate by far more than either bound.
Z_GATE = 5.0
SG_THETA = math.pi / 2
SG_N = 10_000
SG_STEPS = 3000  # bohm-sg default t_final / dt
BS_N = 400
BS_PREPS = ("psi1", "psi2", "plus", "minus")
SWEEP_CELLS = 6
SWEEP_PATTERNS = 5214  # len(enumerate_support_patterns(6))
SCENES = ("overlap2", "disjoint2", "n3", "n3_wide")


@dataclass(frozen=True)
class Op:
    """One operation: `run(out_dir) -> (exit code, payload)` and its check.

    `check(payload, expect)` returns the list of violated expectations.
    `root` names the span that covers the operation in a traced pass;
    `scene` labels the LP counters of the operation.
    """

    name: str
    run: Callable[[str], tuple[int, dict]]
    check: Callable[[dict, dict], list[str]]
    expect: dict = field(default_factory=dict)
    root: str = "cli.main"
    scene: str | None = None


def _cli(argv: list[str], summary: str):
    def run(out_dir: str) -> tuple[int, dict]:
        # Looked up at call time, so a traced pass sees the wrapped entry.
        rc = cli.main(argv + ["--out", out_dir])
        with open(os.path.join(out_dir, summary), encoding="utf-8") as fh:
            return rc, json.load(fh)

    return run


def _outside(name: str, value: float, lo: float, hi: float) -> list[str]:
    # Written so that NaN fails.
    return [] if lo < value < hi else [f"{name} = {value!r} outside ({lo}, {hi})"]


def _born_band(p: float, n: int) -> tuple[float, float]:
    half = Z_GATE * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half


def _check_sg(payload: dict, expect: dict) -> list[str]:
    stats = payload["stats"]
    fails = [] if stats["valid"] else ["ensemble not valid (unresolved > 1%)"]
    fails += _outside("p_plus", stats["p_plus"],
                      *_born_band(expect["p_plus"], stats["n"]))
    fails += _outside("norm_drift", payload["norm_drift"],
                      -1.0, 1e-8 * max(SG_STEPS / 1000.0, 1.0))
    fails += _outside("max_continuity_residual",
                      payload["max_continuity_residual"], -1.0, 1e-4)
    return fails


def _check_bs(payload: dict, expect: dict) -> list[str]:
    fails = [] if payload["valid"] else ["scene not valid (unresolved > 1%)"]
    return fails + _outside("p_gate3", payload["p_gate3"], *expect["p_gate3"])


def _check_table(payload: dict, expect: dict) -> list[str]:
    return _outside("max_error_vs_reference",
                    payload["max_error_vs_reference"], -1.0, expect["max_error"])


def _check_verdict(payload: dict, expect: dict) -> list[str]:
    status = payload["status"]
    fails = []
    if status != payload["expected_status"]:
        fails.append(f"status {status} != expected_status "
                     f"{payload['expected_status']}")
    if status != expect["status"]:
        fails.append(f"status {status} != {expect['status']}")
    if status == "INFEASIBLE" and not payload["has_certificate"]:
        fails.append("infeasible verdict without a certificate")
    return fails


def _check_escapes(payload: dict, expect: dict) -> list[str]:
    scenes = payload["scenes"]
    fails = [] if set(scenes) == set(expect["scenes"]) else [
        f"scenes {sorted(scenes)} != {sorted(expect['scenes'])}"]
    return fails + [f"escape {s} not passed"
                    for s, rep in sorted(scenes.items()) if not rep["passed"]]


def _check_sweep(payload: dict, expect: dict) -> list[str]:
    fails = []
    if payload["checked"] != expect["patterns"]:
        fails.append(f"checked {payload['checked']} of {expect['patterns']} patterns")
    if payload["mismatches"]:
        fails.append(f"{payload['mismatches']} patterns where contradiction "
                     "does not match overlapping supports")
    return fails


def _sweep(out_dir: str) -> tuple[int, dict]:
    """Analytic contradiction iff overlapping supports, for every pattern."""
    zeros = nogo.zero_constraints([qcore.ket(0), qcore.ket_plus()],
                                  qcore.pbr_basis_2qubit())
    checked = mismatches = 0
    for m, s1, s2 in ontology.enumerate_support_patterns(SWEEP_CELLS):
        space = ontology.LambdaSpace(weights=np.ones(m))
        model = ontology.OntModel(
            space,
            {"psi1": ontology.uniform_density(space, "psi1", s1),
             "psi2": ontology.uniform_density(space, "psi2", s2)},
            ontology.UniversalResponse(("1", "2", "3", "4"),
                                       np.full((4, m, m), 0.25)),
            product_arity=2,
        )
        verdict = nogo.analytic_contradiction(model, zeros)
        found = isinstance(verdict, nogo.ContradictionCertificate)
        mismatches += found != bool(set(s1) & set(s2))
        checked += 1
    return 0, {"checked": checked, "mismatches": mismatches}


def _sg_ops(seed: int) -> list[Op]:
    argv = ["bohm-sg", "--theta", repr(SG_THETA), "--n", str(SG_N),
            "--seed", str(seed)]
    return [Op("bohm-sg", _cli(argv, "bohm_sg.json"), _check_sg,
               {"p_plus": math.cos(SG_THETA / 2.0) ** 2})]


def _bs_ops(seed: int) -> list[Op]:
    bands = {"psi1": _born_band(0.5, BS_N), "psi2": _born_band(0.5, BS_N),
             "plus": (0.97, 2.0), "minus": (-1.0, 0.03)}
    return [
        Op(f"bohm-bs-{prep}",
           _cli(["bohm-bs", "--prep", prep, "--n", str(BS_N),
                 "--seed", str(seed), "--csv", "--svg"], "bohm_bs.json"),
           _check_bs, {"p_gate3": bands[prep]})
        for prep in BS_PREPS
    ]


def _nogo_ops(seed: int) -> list[Op]:
    del seed  # the scenes are fixed inputs

    def check(argv, scene, status):
        return Op(f"pbr-check-{scene}", _cli(["pbr-check"] + argv, "pbr_check.json"),
                  _check_verdict, {"status": status}, scene=scene)

    return [
        Op("pbr-table", _cli(["pbr-table"], "pbr_table.json"), _check_table,
           {"max_error": 1e-12}),
        check(["--scene", "overlap"], "overlap2", "INFEASIBLE"),
        check(["--scene", "disjoint"], "disjoint2", "FEASIBLE"),
        check(["--scene", "n3"], "n3", "INFEASIBLE"),
        check(["--scene", "n3", "--cells-per-support", "5", "--shared", "2"],
              "n3_wide", "INFEASIBLE"),
        Op("escape-demo", _cli(["escape-demo"], "escape_demo.json"),
           _check_escapes, {"scenes": ("beam-splitter", "single-qubit-orthogonal")}),
        Op("analytic-sweep", _sweep, _check_sweep, {"patterns": SWEEP_PATTERNS},
           root="bench.sweep"),
    ]


WORKLOADS = {
    "sg_analyzer": _sg_ops,
    "bs_scene": _bs_ops,
    "nogo_verdicts": _nogo_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operation list; the seed fixes every input."""
    return WORKLOADS[workload](seed)


def _unresolved(payload: dict) -> tuple[int, int]:
    """(unresolved, attempted) trajectories reported by a bohm payload."""
    if "stats" in payload:
        return payload["stats"]["counts"]["unresolved"], payload["stats"]["n"]
    if payload.get("scenario") == "bohm-bs":
        counts = payload["counts"]
        return counts["unresolved"], sum(counts.values())
    return 0, 0


def run_pass(ops: list[Op], out_root: str, tracer=None) -> dict:
    """Run every operation once, in order, checking each output in turn.

    An operation fails if it exits non-zero, raises, or violates a check.
    Each operation writes into its own directory under `out_root`.
    """
    failures = []
    failed = artifact_bytes = unresolved = trajectories = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    for k, op in enumerate(ops):
        out_dir = os.path.join(out_root, f"{k:02d}-{op.name}")
        os.makedirs(out_dir)
        scope = tracer.operation(k, op.root, op.scene) if tracer else nullcontext()
        try:
            with scope:
                rc, payload = op.run(out_dir)
            problems = [] if rc == 0 else [f"exit code {rc}"]
            problems += op.check(payload, op.expect)
            lost, total = _unresolved(payload)
            unresolved += lost
            trajectories += total
        except Exception as exc:  # noqa: BLE001 - any crash fails the operation
            problems = [f"{type(exc).__name__}: {exc}"]
        artifact_bytes += sum(e.stat().st_size for e in os.scandir(out_dir))
        if problems:
            failed += 1
            failures += [f"{op.name}: {p}" for p in problems]
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu_start,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "artifact_bytes": artifact_bytes,
        "unresolved": unresolved,
        "trajectories": trajectories,
    }

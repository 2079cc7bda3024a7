"""Spans and counters around psilab's public entry points, from outside.

`Tracer.install` replaces each entry point at the module attribute its
callers look up at call time (for example `bohm.solve_banded`, which the
Crank-Nicolson step calls through `psilab.bohm`'s globals), so nothing under
`src/` changes.  Spans are kept in memory as
`[name, start, end, parent index, operation id]` and written out when the
pass ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from psilab import bohm, nogo, ontology, qcore, svgplot
from workloads import SCENES

# (module, attribute, span name).  `nogo.phase1` is the simplex solver as
# `nogo.lp_feasibility` looks it up.
ENTRY_POINTS = (
    (bohm, "simulate", "bohm.simulate"),
    (bohm, "integrate_ensemble", "bohm.integrate_ensemble"),
    (bohm, "sample_initial", "bohm.sample_initial"),
    (bohm, "solve_banded", "bohm.solve_banded"),
    (bohm, "trajectories_to_csv", "bohm.trajectories_to_csv"),
    (svgplot, "render_lines", "svgplot.render_lines"),
    (nogo, "build_feasibility_problem", "nogo.build_feasibility_problem"),
    (nogo, "phase1", "simplex.phase1"),
    (nogo, "lp_feasibility", "nogo.lp_feasibility"),
    (nogo, "analytic_contradiction", "nogo.analytic_contradiction"),
    (nogo, "zero_constraints", "nogo.zero_constraints"),
    (qcore, "pbr_basis_n", "qcore.pbr_basis_n"),
    (qcore, "coefficient_table", "qcore.coefficient_table"),
    (ontology, "predict", "ontology.predict"),
)
LAYERS = ("bohm", "simplex", "nogo", "qcore", "ontology", "svgplot", "cli", "bench")

_PER_SCENE = (
    ("simplex.phase1_s", "s"), ("simplex.pivots", "count"),
    ("simplex.tableau_mb", "MB"), ("nogo.build_s", "s"),
    ("nogo.lp_rows", "count"), ("nogo.lp_cols", "count"),
    ("nogo.lp_nnz", "count"),
)
# (name, unit, better).  `*_mb` figures other than peak RSS are computed
# from array shapes, not measured.
PER_LAYER = (
    ("bohm.simulate_s", "s", "lower"),
    ("bohm.simulate_self_s", "s", "lower"),
    ("bohm.cn_solve_us", "us", "lower"),
    ("bohm.cn_solves", "count", "lower"),
    ("bohm.cell_steps", "count", "lower"),
    ("bohm.integrate_s", "s", "lower"),
    ("bohm.traj_steps", "count", "lower"),
    ("bohm.integrate_ns_per_traj_step", "ns", "lower"),
    ("bohm.record_mb", "MB", "lower"),
    ("bohm.sample_s", "s", "lower"),
    ("bohm.artifact_s", "s", "lower"),
    ("bohm.norm_drift", "1", "lower"),
    ("bohm.continuity_max", "residual", "lower"),
    ("bohm.unresolved_ratio", "1", "lower"),
) + tuple(
    (f"{stem}.{scene}", unit, "lower")
    for stem, unit in _PER_SCENE for scene in SCENES
) + (
    ("nogo.lp_feasibility_self_s", "s", "lower"),
    ("nogo.analytic_s", "s", "lower"),
    ("nogo.analytic_calls", "count", "lower"),
    ("nogo.zero_constraints_s", "s", "lower"),
    ("qcore.pbr_basis_n_s", "s", "lower"),
    ("qcore.coefficient_table_s", "s", "lower"),
    ("ontology.predict_s", "s", "lower"),
    ("svgplot.render_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.accounted_ratio", "1", "higher"),
    ("trace.overhead_ratio", "1", "lower"),
)


def _layer(span_name: str) -> str:
    return span_name.split(".")[0]


def _array_mb(obj) -> float:
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray)) / 1e6


def _on_solve(tr, args, result):
    tr.counters["bohm.cell_steps"] += len(args[2])


def _on_simulate(tr, args, record):
    tr.peak("bohm.record_mb", _array_mb(record))
    tr.peak("bohm.norm_drift", float(np.max(np.abs(record.norms - 1.0))))
    tr.peak("bohm.continuity_max", float(np.max(record.continuity)))


def _on_integrate(tr, args, ens):
    tr.counters["bohm.traj_steps"] += len(ens.x0) * (len(ens.times) - 1)


def _on_build(tr, args, problem):
    a = problem.a_eq
    nnz = a.nnz if hasattr(a, "nnz") else np.count_nonzero(a)
    for stem, value in (("rows", a.shape[0]), ("cols", a.shape[1]), ("nnz", nnz)):
        tr.counters[f"nogo.lp_{stem}.{tr.scene}"] = int(value)


def _on_phase1(tr, args, result):
    m, n = np.shape(args[0])
    # Dense tableau [A | I | b] of float64.
    tr.counters[f"simplex.tableau_mb.{tr.scene}"] = m * (n + m + 1) * 8 / 1e6
    tr.counters[f"simplex.pivots.{tr.scene}"] = result.iterations


OBSERVERS = {
    "bohm.solve_banded": _on_solve,
    "bohm.simulate": _on_simulate,
    "bohm.integrate_ensemble": _on_integrate,
    "nogo.build_feasibility_problem": _on_build,
    "simplex.phase1": _on_phase1,
}


class Tracer:
    """Span recorder for one pass of one workload in one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.scene = None
        self.scenes = {}  # operation id -> scene label
        self._op = None
        self._stack = []

    def install(self, assign=setattr) -> None:
        """Wrap every entry point; tests pass `monkeypatch.setattr` to undo it."""
        for module, attr, name in ENTRY_POINTS:
            assign(module, attr,
                   self._wrap(getattr(module, attr), name, OBSERVERS.get(name)))

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int, root: str, scene: str | None):
        """Attribute spans and counters to one operation under a root span."""
        self._op, self.scene = op_id, scene
        self.scenes[op_id] = scene
        span = self._open(root)
        try:
            yield
        finally:
            self._close(span)
            self._op = self.scene = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "scenes": self.scenes}, fh)

    def own_times(self) -> tuple[list[float], list[float]]:
        """Per span: self time, and time inside its own layer.

        Self time subtracts every child span; in-layer time subtracts only
        children of other layers, so `bohm.simulate` keeps the solves it
        makes and `nogo.lp_feasibility` loses the simplex it calls.
        """
        dur = [s[2] - s[1] for s in self.spans]
        own, in_layer = dur[:], dur[:]
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
                if _layer(s[0]) != _layer(self.spans[s[3]][0]):
                    in_layer[s[3]] -= d
        return own, in_layer

    def metrics(self, pass_result: dict) -> tuple[dict, list[str]]:
        """Per-layer metrics of one traced pass, and its 3 largest layer spans."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_scene = defaultdict(float)
        layer_span = defaultdict(float)
        for span, self_s, in_layer in zip(self.spans, *self.own_times()):
            name = span[0]
            total[name] += span[2] - span[1]
            own[name] += self_s
            layer_span[name] += in_layer
            calls[name] += 1
            layer_self[_layer(name)] += self_s
            scene = self.scenes.get(span[4])
            if scene is not None:
                by_scene[name, scene] += span[2] - span[1]
        c = self.counters
        solves = calls["bohm.solve_banded"]
        out = {
            "bohm.simulate_s": total["bohm.simulate"],
            "bohm.simulate_self_s": own["bohm.simulate"],
            "bohm.cn_solve_us": total["bohm.solve_banded"] / solves * 1e6 if solves else 0.0,
            "bohm.cn_solves": solves,
            "bohm.cell_steps": c["bohm.cell_steps"],
            "bohm.integrate_s": total["bohm.integrate_ensemble"],
            "bohm.traj_steps": c["bohm.traj_steps"],
            "bohm.integrate_ns_per_traj_step": (
                total["bohm.integrate_ensemble"] / c["bohm.traj_steps"] * 1e9
                if c["bohm.traj_steps"] else 0.0),
            "bohm.record_mb": c["bohm.record_mb"],
            "bohm.sample_s": total["bohm.sample_initial"],
            "bohm.artifact_s": total["bohm.trajectories_to_csv"],
            "bohm.norm_drift": c["bohm.norm_drift"],
            "bohm.continuity_max": c["bohm.continuity_max"],
            "bohm.unresolved_ratio": (
                pass_result["unresolved"] / pass_result["trajectories"]
                if pass_result["trajectories"] else 0.0),
            "nogo.lp_feasibility_self_s": own["nogo.lp_feasibility"],
            "nogo.analytic_s": total["nogo.analytic_contradiction"],
            "nogo.analytic_calls": calls["nogo.analytic_contradiction"],
            "nogo.zero_constraints_s": total["nogo.zero_constraints"],
            "qcore.pbr_basis_n_s": total["qcore.pbr_basis_n"],
            "qcore.coefficient_table_s": total["qcore.coefficient_table"],
            "ontology.predict_s": total["ontology.predict"],
            "svgplot.render_s": total["svgplot.render_lines"],
            "cli.artifact_bytes": pass_result["artifact_bytes"],
            "trace.accounted_ratio": sum(layer_self.values()) / pass_result["wall_s"],
        }
        for scene in SCENES:
            out[f"simplex.phase1_s.{scene}"] = by_scene["simplex.phase1", scene]
            out[f"nogo.build_s.{scene}"] = by_scene["nogo.build_feasibility_problem", scene]
            for stem in ("simplex.pivots", "simplex.tableau_mb", "nogo.lp_rows",
                         "nogo.lp_cols", "nogo.lp_nnz"):
                out[f"{stem}.{scene}"] = c[f"{stem}.{scene}"]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        top = sorted(layer_span, key=layer_span.get, reverse=True)[:3]
        return ({k: float(v) for k, v in out.items()},
                [f"{name} {layer_span[name]:.3f} s" for name in top])

"""The benchmark's own tests: its checks can fail, and its trace adds up.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _nogo_op(name):
    return next(op for op in workloads.build("nogo_verdicts", 0) if op.name == name)


@pytest.mark.parametrize("name, wrong", [
    ("pbr-table", {"max_error": 0.0}),
    ("pbr-check-overlap2", {"status": "FEASIBLE"}),
    ("pbr-check-disjoint2", {"status": "INFEASIBLE"}),
    ("escape-demo", {"scenes": ("beam-splitter",)}),
])
def test_wrong_expectation_raises_fail_ratio(tmp_path, name, wrong):
    op = _nogo_op(name)
    right = workloads.run_pass([op], str(tmp_path / "right"))
    assert right["failed"] == 0, right["failures"]
    bad = workloads.run_pass([replace(op, expect=wrong)], str(tmp_path / "wrong"))
    assert bad["failed"] / bad["attempted"] > 0
    assert bad["failures"] and bad["failures"][0].startswith(name)


def test_crashing_operation_counts_as_failed(tmp_path):
    def explode(out_dir):
        raise RuntimeError("boom")

    ok = _nogo_op("pbr-table")
    res = workloads.run_pass([replace(ok, run=explode), ok], str(tmp_path))
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert "RuntimeError: boom" in res["failures"][0]


def test_bohm_checks_reject_wrong_statistics():
    sg = workloads.build("sg_analyzer", 0)[0]
    good = {"stats": {"valid": True, "p_plus": 0.5047, "n": 10_000},
            "norm_drift": 6.5e-14, "max_continuity_residual": 4e-13}
    assert sg.check(good, sg.expect) == []
    assert sg.check(dict(good, stats=dict(good["stats"], p_plus=0.6)), sg.expect)
    assert sg.check(dict(good, norm_drift=float("nan")), sg.expect)
    assert sg.check(dict(good, max_continuity_residual=2e-4), sg.expect)

    preps = {op.name: op for op in workloads.build("bs_scene", 0)}
    plus, psi1 = preps["bohm-bs-plus"], preps["bohm-bs-psi1"]
    assert plus.check({"valid": True, "p_gate3": 1.0}, plus.expect) == []
    assert plus.check({"valid": True, "p_gate3": 0.5}, plus.expect)
    assert psi1.check({"valid": True, "p_gate3": 0.48}, psi1.expect) == []
    assert psi1.check({"valid": True, "p_gate3": 1.0}, psi1.expect)
    assert psi1.check({"valid": False, "p_gate3": 0.48}, psi1.expect)


def test_traced_pass_reports_every_layer_metric(tmp_path, monkeypatch):
    ops = [_nogo_op(n) for n in ("pbr-table", "pbr-check-overlap2", "escape-demo")]
    tracer = tracing.Tracer()
    tracer.install(monkeypatch.setattr)
    res = workloads.run_pass(ops, str(tmp_path), tracer)
    assert res["failed"] == 0, res["failures"]
    layers, top = tracer.metrics(res)

    names = {name for name, _, _ in tracing.PER_LAYER}
    assert set(layers) == names - {"trace.overhead_ratio"}
    assert layers["simplex.pivots.overlap2"] == 93
    assert (layers["nogo.lp_rows.overlap2"], layers["nogo.lp_cols.overlap2"],
            layers["nogo.lp_nnz.overlap2"]) == (52, 144, 400)
    assert layers["simplex.tableau_mb.overlap2"] == 52 * (144 + 52 + 1) * 8 / 1e6
    assert layers["nogo.analytic_calls"] == 1  # the certificate cross-check
    assert layers["simplex.phase1_s.overlap2"] > 0
    assert layers["bohm.cn_solves"] == 0
    self_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_sum == pytest.approx(layers["trace.accounted_ratio"] * res["wall_s"])
    assert 0.5 < layers["trace.accounted_ratio"] <= 1.0
    assert len(top) == 3

    spans_path = tmp_path / "spans.json"
    tracer.write(str(spans_path))
    spans = json.loads(spans_path.read_text())["spans"]
    assert [s[0] for s in spans if s[3] == -1] == ["cli.main"] * 3
    assert {s[4] for s in spans} == {0, 1, 2}


def test_self_times_subtract_children():
    tracer = tracing.Tracer()
    tracer.spans = [["nogo.lp_feasibility", 0.0, 10.0, -1, 0],
                    ["simplex.phase1", 1.0, 7.0, 0, 0],
                    ["nogo.analytic_contradiction", 8.0, 9.0, 0, 0]]
    own, in_layer = tracer.own_times()
    assert own == [3.0, 6.0, 1.0]
    assert in_layer == [4.0, 6.0, 1.0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


def test_exits_nonzero_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nogo_verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

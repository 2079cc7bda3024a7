"""Scenario runner: every experiment as a subcommand with file outputs.

Subcommands: pbr-table, pbr-check, escape-demo, bohm-sg, bohm-bs, selftest.
Parameters come from the command line and/or a flat key=value config file
(`#` comments allowed; command line wins).  JSON and CSV artifacts are
byte-identical for identical config + seed, and every JSON payload carries
a sha256 hash of its resolved scientific parameters.

Exit codes: 0 success, 1 scientific-check failure, 2 usage error (including
input outside a documented domain: NogoError, OntologyError, DomainError).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import bohm, nogo, ontology, qcore, svgplot
from .simplex import LpStatus

TABLE_REF = np.array(
    [
        [0.0, 0.5, 0.5, 1 / np.sqrt(2)],
        [0.5, 0.0, 1 / np.sqrt(2), 0.5],
        [0.5, 1 / np.sqrt(2), 0.0, 0.5],
        [1 / np.sqrt(2), 0.5, 0.5, 0.0],
    ]
)

PRODUCT_LABELS = ("psi1*psi1", "psi1*psi2", "psi2*psi1", "psi2*psi2")


class UsageError(Exception):
    """Bad invocation or malformed configuration."""


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_kv_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = (value.strip(), lineno)
    return entries


def _coerce(action: argparse.Action, text: str, where: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{where}: boolean key needs true/false, got {text!r}")
    try:
        value = action.type(text) if action.type is not None else text
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"{where}: value {value!r} not in {sorted(action.choices)!r}"
        )
    return value


def _apply_config(parser: argparse.ArgumentParser, ns: argparse.Namespace,
                  argv_tail) -> None:
    """Overlay config-file values onto defaulted (not CLI-given) options."""
    if not ns.config:
        return
    actions = {
        a.dest: a
        for a in parser._actions
        if a.dest not in ("help", "config")
    }
    explicit = set()
    for a in parser._actions:
        for opt in a.option_strings:
            if any(tok == opt or tok.startswith(opt + "=") for tok in argv_tail):
                explicit.add(a.dest)
    for key, (text, lineno) in _parse_kv_file(ns.config).items():
        if key not in actions:
            raise UsageError(f"{ns.config}:{lineno}: unknown key {key!r}")
        if key in explicit:
            continue
        setattr(ns, key, _coerce(actions[key], text, f"{ns.config}:{lineno}"))


def _out_dir(ns) -> str:
    out = ns.out or os.environ.get("PSILAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _config_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


def _emit_json(out_dir: str, name: str, payload: dict) -> str:
    return _write(out_dir, name, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $PSILAB_OUT or .)")
    parser.add_argument("--csv", action="store_true", help="emit CSV artifacts")
    parser.add_argument("--svg", action="store_true", help="emit SVG artifacts")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parser_pbr_table() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab pbr-table",
                                description="Product-state coefficient table")
    _add_common(p)
    return p


def _run_pbr_table(ns) -> int:
    out = _out_dir(ns)
    states = [qcore.ket(0), qcore.ket_plus()]
    basis = qcore.pbr_basis_2qubit()
    pairs = [
        qcore.tensor([states[j], states[k]])
        for j in range(2) for k in range(2)
    ]
    table = qcore.coefficient_table(pairs, basis)
    err = float(np.max(np.abs(table - TABLE_REF)))
    params = {"scenario": "pbr-table"}
    payload = {
        "scenario": "pbr-table",
        "config_hash": _config_hash(params),
        "labels": list(PRODUCT_LABELS),
        "table": [[float(v) for v in row] for row in table],
        "max_error_vs_reference": err,
    }
    _emit_json(out, "pbr_table.json", payload)
    _write(out, "pbr_table.csv", qcore.table_to_csv(list(PRODUCT_LABELS), table))
    return 0 if err < 1e-12 else 1


def _parser_pbr_check() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab pbr-check",
                                description="No-go feasibility check for a scene")
    _add_common(p)
    p.add_argument("--scene", choices=("overlap", "disjoint", "n3"),
                   default="overlap")
    p.add_argument("--cells-per-support", type=int, default=4)
    p.add_argument("--shared", type=int, default=2)
    p.add_argument("--theta", type=float, default=np.pi / 4,
                   help="pair angle for the n3 scene")
    return p


def _run_pbr_check(ns) -> int:
    out = _out_dir(ns)
    if ns.scene == "n3":
        basis = qcore.pbr_basis_n(ns.theta, 3)  # NotFound -> NogoError
        states = list(qcore.make_qubit_pair(ns.theta))
        problem = nogo.pbr_scene_problem(
            ns.cells_per_support, ns.shared, n=3, basis=basis, states=states
        )
        expected = LpStatus.INFEASIBLE
    else:
        shared = ns.shared if ns.scene == "overlap" else 0
        basis = qcore.pbr_basis_2qubit()
        states = [qcore.ket(0), qcore.ket_plus()]
        problem = nogo.pbr_scene_problem(ns.cells_per_support, shared)
        expected = (
            LpStatus.INFEASIBLE if ns.scene == "overlap" else LpStatus.FEASIBLE
        )
    zeros = nogo.zero_constraints(states, basis)
    report = nogo.lp_feasibility(problem)
    params = {
        "scenario": "pbr-check", "scene": ns.scene,
        "cells_per_support": ns.cells_per_support,
        "shared": ns.shared, "theta": ns.theta,
    }
    payload = {
        "scenario": "pbr-check",
        "scene": ns.scene,
        "config_hash": _config_hash(params),
        "n_zero_constraints": len(zeros),
        "max_zero_born_value": max((z.born_value for z in zeros), default=0.0),
        "status": report.status.name,
        "expected_status": expected.name,
        "iterations": report.iterations,
        "residual": report.residual,
        "has_certificate": report.certificate is not None,
        "certificate_margin": report.certificate_margin,
    }
    _emit_json(out, "pbr_check.json", payload)
    return 0 if report.status is expected else 1


def _parser_escape_demo() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab escape-demo",
                                description="Build and verify contextual escapes")
    _add_common(p)
    p.add_argument("--scene",
                   choices=("beam-splitter", "single-qubit-orthogonal", "both"),
                   default="both")
    return p


def _verify_escape(scene: str) -> dict:
    model = nogo.contextual_escape(scene)
    born = nogo.scene_born(scene)
    max_err = max(
        abs(ontology.predict(model, prep, ctx, outcome) - want)
        for (prep, ctx, outcome), want in born.items()
    )
    labels = model.prep_labels
    overlaps = [
        ontology.overlap(model.preparations[a], model.preparations[b])
        for i, a in enumerate(labels) for b in labels[i + 1:]
    ]
    deterministic, offenders = nogo.determinism_check(model)
    # The escape claim needs *some* distinct preparations with common
    # support (plus/minus in the beam-splitter scene); other pairs may be
    # disjoint by design.
    return {
        "model": model,
        "report": {
            "max_born_error": max_err,
            "max_pairwise_overlap": max(overlaps),
            "deterministic": deterministic,
            "classification": ontology.classify(model).name,
            "passed": bool(
                max_err <= 1e-12 and max(overlaps) > 0 and deterministic
            ),
        },
    }


def _run_escape_demo(ns) -> int:
    out = _out_dir(ns)
    scenes = (
        ("beam-splitter", "single-qubit-orthogonal")
        if ns.scene == "both" else (ns.scene,)
    )
    params = {"scenario": "escape-demo", "scene": ns.scene}
    reports = {}
    ok = True
    for scene in scenes:
        result = _verify_escape(scene)
        reports[scene] = result["report"]
        ok = ok and result["report"]["passed"]
        _write(out, f"escape_{scene}.json",
               ontology.model_to_json(result["model"]) + "\n")
    payload = {
        "scenario": "escape-demo",
        "config_hash": _config_hash(params),
        "scenes": reports,
    }
    _emit_json(out, "escape_demo.json", payload)
    return 0 if ok else 1


def _parser_bohm_sg() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab bohm-sg",
                                description="Spin-analyzer trajectory ensemble")
    _add_common(p)
    p.add_argument("--theta", type=float, default=np.pi / 2)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20120417)
    p.add_argument("--cells", type=int, default=1792)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=3.0)
    p.add_argument("--b1", type=float, default=-4.0)
    p.add_argument("--paths", type=int, default=24,
                   help="trajectories kept for CSV/SVG artifacts")
    return p


def _check_ensemble_args(ns) -> None:
    if ns.n < 1:
        raise UsageError("n must be at least 1")
    if ns.paths < 0:
        raise UsageError(f"paths must be at least 0, got {ns.paths}")


def _write_paths(ns, out, stem, title, record, x0s) -> None:
    """CSV and/or SVG of the first ``ns.paths`` trajectories, as requested."""
    if not (ns.csv or ns.svg) or ns.paths < 1:
        return
    trajs = bohm.integrate_trajectories(record, x0s[: ns.paths])
    if ns.csv:
        _write(out, f"{stem}_trajectories.csv", bohm.trajectories_to_csv(trajs))
    if ns.svg:
        series = [(tr.times, tr.xs) for tr in trajs]
        _write(out, f"{stem}_trajectories.svg", svgplot.render_lines(
            series, title=title, x_label="t", y_label="x"
        ))


def _run_bohm_sg(ns) -> int:
    out = _out_dir(ns)
    if not 0.0 <= ns.theta <= np.pi:
        raise UsageError(f"theta must lie in [0, pi], got {ns.theta}")
    _check_ensemble_args(ns)
    try:
        cfg = bohm.SternGerlachConfig(
            cells=ns.cells, dt=ns.dt, t_final=ns.t_final, b1=ns.b1
        )
    except bohm.ConfigError as exc:
        raise UsageError(str(exc)) from exc
    record = bohm.simulate(cfg, theta=ns.theta)
    x0s = bohm.sample_initial(record.initial, ns.n, ns.seed)
    ens = bohm.integrate_ensemble(record, x0s)
    stats = bohm._stats_from_outcomes(ens.outcomes, ns.seed)
    params = {
        "scenario": "bohm-sg", "theta": ns.theta, "n": ns.n, "seed": ns.seed,
        "cells": ns.cells, "dt": ns.dt, "t_final": ns.t_final, "b1": ns.b1,
    }
    payload = {
        "scenario": "bohm-sg",
        "config_hash": _config_hash(params),
        "theta": ns.theta,
        "born_p_plus": float(np.cos(ns.theta / 2.0) ** 2),
        "stats": stats.to_dict(),
        "norm_drift": float(np.max(np.abs(record.norms - 1.0))),
        "max_continuity_residual": float(np.max(record.continuity)),
    }
    _emit_json(out, "bohm_sg.json", payload)
    _write_paths(ns, out, "bohm_sg", "analyzer trajectories", record, x0s)
    return 0 if stats.valid else 1


def _parser_bohm_bs() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab bohm-bs",
                                description="Crossed-packet beam-splitter scene")
    _add_common(p)
    p.add_argument("--prep", choices=bohm.BS_PREPS, default="plus")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--seed", type=int, default=20120417)
    p.add_argument("--paths", type=int, default=24,
                   help="trajectories kept for CSV/SVG artifacts")
    return p


def _run_bohm_bs(ns) -> int:
    out = _out_dir(ns)
    _check_ensemble_args(ns)
    res = bohm.beam_splitter_scene(ns.prep, ns.n, ns.seed)
    params = {
        "scenario": "bohm-bs", "prep": ns.prep, "n": ns.n, "seed": ns.seed,
    }
    payload = {
        "scenario": "bohm-bs",
        "config_hash": _config_hash(params),
        "prep": ns.prep,
        "counts": {"gate3": res.gate3, "gate4": res.gate4,
                   "unresolved": res.n_unresolved},
        "p_gate3": res.p_gate3(),
        "mass_plus_side": bohm.transmitted_mass(res.record),
        "seed": ns.seed,
        "valid": res.valid,
    }
    _emit_json(out, "bohm_bs.json", payload)
    _write_paths(ns, out, "bohm_bs", "beam-splitter trajectories",
                 res.record, res.x0)
    return 0 if res.valid else 1


def _parser_selftest() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab selftest",
                                description="Condensed invariant suite")
    _add_common(p)
    return p


def _selftest_checks():
    states = [qcore.ket(0), qcore.ket_plus()]
    basis = qcore.pbr_basis_2qubit()

    def check_table():
        pairs = [qcore.tensor([states[j], states[k]])
                 for j in range(2) for k in range(2)]
        table = qcore.coefficient_table(pairs, basis)
        return float(np.max(np.abs(table - TABLE_REF))) < 1e-12

    def check_zeros():
        zeros = nogo.zero_constraints(states, basis)
        return len(zeros) == 4 and all(z.born_value < 1e-12 for z in zeros)

    def check_lp():
        infeasible = nogo.lp_feasibility(nogo.pbr_scene_problem(4, 2))
        feasible = nogo.lp_feasibility(nogo.pbr_scene_problem(4, 0))
        return (infeasible.status is LpStatus.INFEASIBLE
                and feasible.status is LpStatus.FEASIBLE)

    def check_escapes():
        return all(
            _verify_escape(scene)["report"]["passed"]
            for scene in ("beam-splitter", "single-qubit-orthogonal")
        )

    def check_sampling():
        cfg = bohm.SternGerlachConfig()
        f0 = bohm.prepare(cfg, 0.0)
        a = bohm.sample_initial(f0, 64, seed=5)
        b = bohm.sample_initial(f0, 64, seed=5)
        return bool(np.array_equal(a, b))

    def check_analyzer():
        cfg = bohm.SternGerlachConfig()
        stats = bohm.run_ensemble(cfg, 0.0, 64, seed=5)
        record = bohm.simulate(cfg, theta=np.pi / 2)
        return (stats.p_plus == 1.0
                and float(np.max(np.abs(record.norms - 1.0))) < 1e-8
                and float(np.max(record.continuity)) < 1e-4)

    return (
        ("coefficient-table", check_table),
        ("zero-constraints", check_zeros),
        ("lp-feasibility", check_lp),
        ("contextual-escapes", check_escapes),
        ("sampling-determinism", check_sampling),
        ("analyzer-ensemble", check_analyzer),
    )


def _run_selftest(ns) -> int:
    out = _out_dir(ns)
    results = {}
    ok = True
    for name, fn in _selftest_checks():
        passed = bool(fn())
        results[name] = passed
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'} - {name}")
    payload = {
        "scenario": "selftest",
        "config_hash": _config_hash({"scenario": "selftest"}),
        "checks": results,
        "passed": ok,
    }
    _emit_json(out, "selftest.json", payload)
    return 0 if ok else 1


_COMMANDS = {
    "pbr-table": (_parser_pbr_table, _run_pbr_table),
    "pbr-check": (_parser_pbr_check, _run_pbr_check),
    "escape-demo": (_parser_escape_demo, _run_escape_demo),
    "bohm-sg": (_parser_bohm_sg, _run_bohm_sg),
    "bohm-bs": (_parser_bohm_bs, _run_bohm_bs),
    "selftest": (_parser_selftest, _run_selftest),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: psilab <subcommand> [options]\n\nsubcommands: "
              + ", ".join(sorted(_COMMANDS)))
        return 0 if argv else 2
    name, tail = argv[0], argv[1:]
    if name not in _COMMANDS:
        print(f"error: unknown subcommand {name!r}; choose from "
              f"{', '.join(sorted(_COMMANDS))}", file=sys.stderr)
        return 2
    build, run = _COMMANDS[name]
    parser = build()
    try:
        ns = parser.parse_args(tail)
        _apply_config(parser, ns, tail)
        return run(ns)
    except (UsageError, nogo.NogoError, ontology.OntologyError,
            qcore.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse's own usage failure
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

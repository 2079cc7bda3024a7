"""Scenario runner: every experiment as a subcommand with file outputs.

Subcommands: pbr-table, pbr-check, escape-demo, bohm-sg, bohm-bs, selftest.
Parameters come from the command line and/or a flat key=value config file
(`#` comments allowed).  Each file value is checked and becomes its option's
default, so the command line wins (abbreviated flags included) and a
malformed value fails even where the command line overrides it.  `main`
heads every JSON payload with the scenario and `config_hash`: the sha256 of
the scenario and every option except `config`, `out`, `paths`, `csv` and
`svg`, which choose where or whether artifacts are written.  Artifacts are
byte-identical for identical config + seed.

Exit codes: 0 success, 1 scientific-check failure, 2 usage error (including
input outside a documented domain: NogoError, OntologyError, DomainError,
bohm.ConfigError, and a pbr-check option off its default in a scene that does
not read it) and an OSError on a config file or an output path.  Artifacts
are staged in one private directory (``.psilab-*``, made in the nearest
existing ancestor of the output directory) and renamed into place only when
the subcommand returns (exit 0 or 1).  The output directory is created then,
so a usage error or any other exception leaves neither a file nor a
directory behind.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import shutil
import sys
import tempfile

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

# Options that choose where or whether artifacts are written (not hashed).
_UNHASHED = ("config", "out", "paths", "csv", "svg")

# pbr-check options that some scenes do not read, with their defaults.  A
# value off the default there would only change config_hash, so it is
# rejected.
_PBR_CHECK_DEFAULTS = {"shared": 2, "theta": np.pi / 4}
_PBR_CHECK_UNREAD = {"overlap": ("theta",), "disjoint": ("theta", "shared")}


class UsageError(Exception):
    """Bad invocation or malformed configuration."""


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_kv_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config is not UTF-8 text: {exc}") from exc
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
                  argv_tail) -> argparse.Namespace:
    """Re-parse the command line over the config file's values as defaults."""
    if not ns.config:
        return ns
    actions = {
        a.dest: a
        for a in parser._actions
        if a.dest not in ("help", "config")
    }
    defaults = {}
    for key, (text, lineno) in _parse_kv_file(ns.config).items():
        if key not in actions:
            raise UsageError(f"{ns.config}:{lineno}: unknown key {key!r}")
        defaults[key] = _coerce(actions[key], text, f"{ns.config}:{lineno}")
    parser.set_defaults(**defaults)
    return parser.parse_args(argv_tail)


def _config_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _Staged:
    """The artifacts of one run, by name in staging order, written into a
    private stage (None until the first artifact) and renamed into the output
    directory by ``_commit``."""

    def __init__(self, out_dir: str):
        self.dir = out_dir
        self.stage = None
        self.names = []


def _write(out: _Staged, name: str, write) -> None:
    """Stage the artifact ``name``: ``write(fh)`` fills the open text file."""
    if out.stage is None:
        # The nearest existing ancestor keeps every rename on one file system.
        parent = os.path.abspath(out.dir)
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        out.stage = tempfile.mkdtemp(prefix=".psilab-", dir=parent)
    with open(os.path.join(out.stage, name), "x", encoding="utf-8",
              newline="\n") as fh:
        out.names.append(name)
        write(fh)


def _emit_json(out: _Staged, name: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(out, name, lambda fh: fh.write(text))


def _commit(out: _Staged) -> None:
    """Create the output directory and rename every staged artifact into
    place, none if a target is a directory."""
    targets = [os.path.join(out.dir, name) for name in out.names]
    for path in targets:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    os.makedirs(out.dir, exist_ok=True)
    for name, path in zip(out.names, targets):
        os.replace(os.path.join(out.stage, name), path)
        print(f"wrote {path}")


def _discard(out: _Staged) -> None:
    """Delete the stage and whatever was not committed from it."""
    if out.stage is not None:
        shutil.rmtree(out.stage, ignore_errors=True)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $PSILAB_OUT or .)")


def _add_ensemble(parser: argparse.ArgumentParser, n: int) -> None:
    """Options shared by the two trajectory-ensemble subcommands."""
    parser.add_argument("--n", type=int, default=n)
    parser.add_argument("--seed", type=int, default=20120417)
    parser.add_argument("--paths", type=int, default=24,
                        help="trajectories kept for CSV/SVG artifacts")
    parser.add_argument("--csv", action="store_true",
                        help="emit the trajectory CSV")
    parser.add_argument("--svg", action="store_true",
                        help="emit the trajectory SVG")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parser_pbr_table() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab pbr-table",
                                description="Product-state coefficient table")
    _add_common(p)
    return p


def _pbr_table():
    """Coefficient table of the four products of |0>, |+> against the fixed
    2-qubit basis, and its largest deviation from TABLE_REF."""
    states = [qcore.ket(0), qcore.ket_plus()]
    pairs = [qcore.tensor([a, b]) for a in states for b in states]
    table = qcore.coefficient_table(pairs, qcore.pbr_basis_2qubit())
    return table, float(np.max(np.abs(table - TABLE_REF)))


def _run_pbr_table(ns, out, head) -> int:
    table, err = _pbr_table()
    payload = {
        **head,
        "labels": list(PRODUCT_LABELS),
        "table": [[float(v) for v in row] for row in table],
        "max_error_vs_reference": err,
    }
    _emit_json(out, "pbr_table.json", payload)
    csv = qcore.table_to_csv(list(PRODUCT_LABELS), table)
    _write(out, "pbr_table.csv", lambda fh: fh.write(csv))
    return 0 if err < 1e-12 else 1


def _parser_pbr_check() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab pbr-check",
                                description="No-go feasibility check for a scene")
    _add_common(p)
    p.add_argument("--scene", choices=("overlap", "disjoint", "n3"),
                   default="overlap")
    p.add_argument("--cells-per-support", type=int, default=4)
    p.add_argument("--shared", type=int, default=_PBR_CHECK_DEFAULTS["shared"])
    p.add_argument("--theta", type=float, default=_PBR_CHECK_DEFAULTS["theta"],
                   help="pair angle for the n3 scene")
    return p


def _run_pbr_check(ns, out, head) -> int:
    for dest in _PBR_CHECK_UNREAD.get(ns.scene, ()):
        if getattr(ns, dest) != _PBR_CHECK_DEFAULTS[dest]:
            raise UsageError(f"--{dest} does nothing for --scene {ns.scene}")
    shared = 0 if ns.scene == "disjoint" else ns.shared
    if ns.scene == "n3":
        problem = nogo.pbr_scene_problem(
            ns.cells_per_support, shared, n=3,
            basis=qcore.pbr_basis_n(ns.theta, 3),  # NotFound -> NogoError
            states=list(qcore.make_qubit_pair(ns.theta)),
        )
    else:
        problem = nogo.pbr_scene_problem(ns.cells_per_support, shared)
    # The zero constraints force a contradiction exactly where the two
    # supports share weight; disjoint supports admit a universal response.
    expected = (LpStatus.INFEASIBLE if ontology.overlap(*problem.densities) > 0.0
                else LpStatus.FEASIBLE)
    report = nogo.lp_feasibility(problem)
    payload = {
        **head,
        "scene": ns.scene,
        "n_zero_constraints": len(problem.zeros),
        "max_zero_born_value": max((z.born_value for z in problem.zeros),
                                   default=0.0),
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
                   choices=(*nogo.ESCAPE_SCENES, "both"),
                   default="both")
    return p


def _verify_escape(scene: str):
    """The escape model of a scene and its report."""
    model = nogo.contextual_escape(scene)
    born = nogo.scene_born(scene)
    max_err = max(
        abs(ontology.predict(model, prep, ctx, outcome) - want)
        for (prep, ctx, outcome), want in born.items()
    )
    overlap = ontology.max_pairwise_overlap(model)
    deterministic, offenders = nogo.determinism_check(model)
    # The escape claim needs *some* distinct preparations with common
    # support (plus/minus in the beam-splitter scene); other pairs may be
    # disjoint by design.
    return model, {
        "max_born_error": max_err,
        "max_pairwise_overlap": overlap,
        "deterministic": deterministic,
        "classification": ontology.classify(model).name,
        "passed": bool(max_err <= 1e-12 and overlap > 0 and deterministic),
    }


def _run_escape_demo(ns, out, head) -> int:
    scenes = tuple(nogo.ESCAPE_SCENES) if ns.scene == "both" else (ns.scene,)
    reports = {}
    ok = True
    for scene in scenes:
        model, report = _verify_escape(scene)
        reports[scene] = report
        ok = ok and report["passed"]
        text = ontology.model_to_json(model) + "\n"
        _write(out, f"escape_{scene}.json", lambda fh: fh.write(text))
    _emit_json(out, "escape_demo.json", {**head, "scenes": reports})
    return 0 if ok else 1


def _parser_bohm_sg() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab bohm-sg",
                                description="Spin-analyzer trajectory ensemble")
    _add_common(p)
    _add_ensemble(p, n=1000)
    p.add_argument("--theta", type=float, default=np.pi / 2)
    p.add_argument("--cells", type=int, default=bohm.SternGerlachConfig.cells)
    p.add_argument("--dt", type=float, default=bohm.SternGerlachConfig.dt)
    p.add_argument("--t-final", type=float, default=bohm.SternGerlachConfig.t_final)
    p.add_argument("--b1", type=float, default=bohm.SternGerlachConfig.b1)
    return p


def _check_ensemble_args(ns) -> None:
    # bohm rejects paths above n.  Without --csv/--svg _kept_paths passes 0,
    # so a negative --paths would never reach it: it is checked here.
    if ns.paths < 0:
        raise UsageError(f"paths must be at least 0, got {ns.paths}")


def _kept_paths(ns) -> int:
    """How many of the sampled points the run tracks for the CSV/SVG."""
    return ns.paths if (ns.csv or ns.svg) else 0


def _write_paths(ns, out, stem, title, record: bohm.EvolutionRecord) -> None:
    """CSV and/or SVG of the tracked trajectories, as requested."""
    times, xs, sigmas = record.times, record.paths_x, record.paths_sigma
    if not xs.shape[1]:
        return
    if ns.csv:
        _write(out, f"{stem}_trajectories.csv",
               lambda fh: bohm.trajectories_to_csv(fh, times, xs, sigmas))
    if ns.svg:
        series = [(times, x) for x in xs.T]
        _write(out, f"{stem}_trajectories.svg",
               lambda fh: svgplot.render_lines(fh, series, title))


def _run_bohm_sg(ns, out, head) -> int:
    _check_ensemble_args(ns)
    cfg = bohm.SternGerlachConfig(
        cells=ns.cells, dt=ns.dt, t_final=ns.t_final, b1=ns.b1
    )
    run = bohm.run_ensemble(cfg, ns.theta, ns.n, ns.seed, _kept_paths(ns))
    payload = {
        **head,
        "theta": ns.theta,
        "born_p_plus": float(np.cos(ns.theta / 2.0) ** 2),
        "stats": run.stats.to_dict(),
        "norm_drift": float(np.max(np.abs(run.record.norms - 1.0))),
        "max_continuity_residual": float(np.max(run.record.continuity)),
    }
    _emit_json(out, "bohm_sg.json", payload)
    _write_paths(ns, out, "bohm_sg", "analyzer trajectories", run.record)
    return 0 if run.stats.valid else 1


def _parser_bohm_bs() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab bohm-bs",
                                description="Crossed-packet beam-splitter scene")
    _add_common(p)
    _add_ensemble(p, n=400)
    p.add_argument("--prep", choices=bohm.BS_PREPS, default="plus")
    return p


def _run_bohm_bs(ns, out, head) -> int:
    _check_ensemble_args(ns)
    run = bohm.beam_splitter_scene(ns.prep, ns.n, ns.seed, _kept_paths(ns))
    stats = run.stats
    # Gate 3 is the + (x > 0) exit, gate 4 the - exit.
    payload = {
        **head,
        "prep": ns.prep,
        "counts": {"gate3": stats.n_plus, "gate4": stats.n_minus,
                   "unresolved": stats.n_unresolved},
        "p_gate3": stats.p_plus,
        "mass_plus_side": bohm.transmitted_mass(run.record),
        "seed": ns.seed,
        "valid": stats.valid,
    }
    _emit_json(out, "bohm_bs.json", payload)
    _write_paths(ns, out, "bohm_bs", "beam-splitter trajectories", run.record)
    return 0 if stats.valid else 1


def _parser_selftest() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilab selftest",
                                description="Condensed invariant suite")
    _add_common(p)
    return p


def _selftest_checks():
    def check_table():
        return _pbr_table()[1] < 1e-12

    def check_zeros():
        zeros = nogo.zero_constraints([qcore.ket(0), qcore.ket_plus()],
                                      qcore.pbr_basis_2qubit())
        return len(zeros) == 4 and all(z.born_value < 1e-12 for z in zeros)

    def check_lp():
        infeasible = nogo.lp_feasibility(nogo.pbr_scene_problem(4, 2))
        feasible = nogo.lp_feasibility(nogo.pbr_scene_problem(4, 0))
        return (infeasible.status is LpStatus.INFEASIBLE
                and feasible.status is LpStatus.FEASIBLE)

    def check_escapes():
        return all(_verify_escape(scene)[1]["passed"]
                   for scene in nogo.ESCAPE_SCENES)

    def check_sampling():
        cfg = bohm.SternGerlachConfig()
        f0 = bohm.prepare(cfg, 0.0)
        a = bohm.sample_initial(f0, 64, seed=5)
        b = bohm.sample_initial(f0, 64, seed=5)
        return bool(np.array_equal(a, b))

    def check_analyzer():
        cfg = bohm.SternGerlachConfig()
        stats = bohm.run_ensemble(cfg, 0.0, 64, seed=5).stats
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


def _run_selftest(ns, out, head) -> int:
    results = {}
    ok = True
    for name, fn in _selftest_checks():
        passed = bool(fn())
        results[name] = passed
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'} - {name}")
    _emit_json(out, "selftest.json", {**head, "checks": results, "passed": ok})
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
    out = None
    try:
        ns = _apply_config(parser, parser.parse_args(tail), tail)
        params = {k: v for k, v in vars(ns).items() if k not in _UNHASHED}
        head = {"scenario": name,
                "config_hash": _config_hash({"scenario": name, **params})}
        out = _Staged(ns.out or os.environ.get("PSILAB_OUT") or ".")
        rc = run(ns, out, head)
        _commit(out)
        return rc
    except (UsageError, nogo.NogoError, ontology.OntologyError,
            qcore.DomainError, bohm.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse's own usage failure
        return int(exc.code or 0)
    finally:
        if out is not None:
            _discard(out)


if __name__ == "__main__":
    sys.exit(main())

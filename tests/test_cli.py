import errno
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import psilab
from psilab import cli, nogo, svgplot


# config_hash of the runs below, pinned: a change to which options are hashed,
# or how, shows here.
CONFIG_HASH = {
    "pbr-table": "ca61dbad379d1c91c284b8fee8c6947af4b12be5b79d6af0f09c9d23b09ef4bd",
    "pbr-check-overlap":
        "38fbd7339f7388d51ede8861ea43d17f605627721f2135482a5582027c3eff15",
    "pbr-check-disjoint":
        "058bb65d672b470dba723abe6631cf2a254caf9d67a7251963ebdeeeacd7e9eb",
    "escape-demo": "001ddd0f19d71f0d7d3cf97cb6dd967e0f2689fc606589fbf4514ba59f6788d3",
    "bohm-sg-args": "0967467f112c760497df8a9e5d101084667d8ceabeffea578fec20882d13df9c",
    "bohm-sg-unresolved":
        "658ec0bfeeef176043e206289b0693d96c69182d18e3e3ea76b6485d0ba7332b",
    "bohm-bs-plus": "b704ff92135a6237ec050fb5cb14bf4728fc05d160a975f03cabba35a21291d6",
    "config-applied":
        "c91ce45169873fc2d568980e53b710ddfd7e4646ef139d3456e50bcdc8ae50bb",
    "config-cli-wins":
        "2fb651e000fc78b68f1f72f285092e7defcd4ceb5e16644cf025c2e1752659a9",
    "config-abbreviated":
        "873754278d8b90657ad90e177ed9f7abb650029ebf0c01cce181f629fbaae154",
    "selftest": "17e254bf93b0f25e3d5b63866daf72460b341759fe14d6159c3f8ce95dfc008d",
}


def run(args):
    return cli.main(args)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestPbrTable:
    def test_outputs_and_exit(self, tmp_path):
        assert run(["pbr-table", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "pbr_table.json")
        table = np.array(payload["table"])
        assert np.max(np.abs(table - cli.TABLE_REF)) < 1e-12
        assert payload["config_hash"] == CONFIG_HASH["pbr-table"]
        csv_lines = (tmp_path / "pbr_table.csv").read_text().splitlines()
        assert csv_lines[0] == "state,phi_1,phi_2,phi_3,phi_4"
        assert len(csv_lines) == 5


class TestPbrCheck:
    def test_overlap_scene_infeasible(self, tmp_path):
        assert run(["pbr-check", "--scene", "overlap", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "pbr_check.json")
        assert payload["status"] == "INFEASIBLE"
        assert payload["has_certificate"]
        assert payload["n_zero_constraints"] == 4
        assert payload["max_zero_born_value"] < 1e-12
        assert payload["certificate_margin"] == pytest.approx(0.25, abs=1e-9)  # q^n = (2/4)^2
        assert payload["config_hash"] == CONFIG_HASH["pbr-check-overlap"]

    def test_disjoint_scene_feasible(self, tmp_path):
        assert run(["pbr-check", "--scene", "disjoint", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "pbr_check.json")
        assert payload["status"] == "FEASIBLE"
        assert payload["residual"] < 1e-9
        assert payload["certificate_margin"] is None
        assert payload["config_hash"] == CONFIG_HASH["pbr-check-disjoint"]

    @pytest.mark.parametrize("scene", ["overlap", "n3"])
    def test_disjoint_supports_expect_feasible(self, tmp_path, scene):
        argv = ["pbr-check", "--scene", scene, "--shared", "0"]
        assert run([*argv, "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "pbr_check.json")
        assert payload["status"] == payload["expected_status"] == "FEASIBLE"

    @pytest.mark.parametrize("args", [
        ["--shared", "-1"],
        ["--cells-per-support", "0"],
        ["--scene", "n3", "--theta", "0"],
        ["--scene", "n3", "--theta", str(np.pi / 8)],  # no 3-copy basis
        # Options the scene does not read, off their defaults.
        ["--scene", "overlap", "--theta", "1.0"],
        ["--scene", "disjoint", "--theta", "1.0"],
        ["--scene", "disjoint", "--shared", "3"],
    ])
    def test_outside_domain_is_usage_error(self, tmp_path, capsys, args):
        assert run(["pbr-check", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "pbr_check.json").exists()

    def test_n3_without_basis_names_the_margin(self, tmp_path, capsys):
        theta = np.pi / 8
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        margin = 2 * c**3 - (c + s) ** 3  # k = 0 side minus the other sides
        argv = ["pbr-check", "--scene", "n3", "--theta", str(theta)]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert f"margin {margin:.3g}" in capsys.readouterr().err


def test_module_entry_point_imports_cli_once(tmp_path):
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "psilab.cli",
         "pbr-table", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pbr_table.json").exists()


def test_pbr_check_cases_need_no_solver(tmp_path, monkeypatch):
    """Every pbr-check case of tools/snapshot_artifacts.py gets its expected
    verdict from a closed form: PBR's Farkas vector or the Born witness."""
    def no_solver(a, b):
        raise AssertionError("phase1 called")

    monkeypatch.setattr(nogo, "phase1", no_solver)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "snapshot_artifacts.py")
    spec = importlib.util.spec_from_file_location("snapshot_artifacts", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    cases = {case: argv for case, argv in snapshot.CASES.items()
             if argv[0] == "pbr-check"}
    assert len(cases) == 8
    for case, argv in cases.items():
        assert run([*argv, "--out", str(tmp_path / case)]) == 0, case


def test_pbr_check_imports_no_solver(tmp_path):
    """A pbr-check run never imports scipy.optimize (~20 MB of RSS)."""
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    code = ("import sys; from psilab import cli; "
            "rc = cli.main(['pbr-check', '--scene', 'n3', '--cells-per-support', "
            "'5', '--shared', '2', '--out', sys.argv[1]]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_no_go_runs_load_no_bohmian_stack(tmp_path):
    """pbr-table, pbr-check and escape-demo never import bohm (and with it
    scipy.linalg) or svgplot."""
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    code = ("import sys; from psilab import cli; "
            "rcs = [cli.main(a + ['--out', sys.argv[1]]) for a in ("
            "['pbr-table'], ['pbr-check', '--scene', 'n3', "
            "'--cells-per-support', '5', '--shared', '2'], ['escape-demo'])]; "
            "print(rcs, [m for m in ('psilab.bohm', 'psilab.svgplot', "
            "'scipy.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_library_import_loads_no_scipy():
    """`import psilab` loads no submodule, so qcore and ontology come
    without scipy, which only the LP and the stepper need."""
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    code = ("import sys; from psilab import qcore, ontology; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestEscapeDemo:
    def test_both_scenes_pass(self, tmp_path):
        assert run(["escape-demo", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "escape_demo.json")
        for scene in ("beam-splitter", "single-qubit-orthogonal"):
            rep = payload["scenes"][scene]
            assert rep["passed"]
            assert rep["classification"] == "PSI_EPISTEMIC"
            assert rep["max_born_error"] <= 1e-12
            assert rep["max_pairwise_overlap"] > 0
        assert (tmp_path / "escape_beam-splitter.json").exists()
        assert payload["config_hash"] == CONFIG_HASH["escape-demo"]

    @pytest.mark.parametrize("scene", list(nogo.ESCAPE_SCENES))
    def test_single_scene(self, tmp_path, scene):
        assert run(["escape-demo", "--scene", scene, "--out", str(tmp_path)]) == 0
        assert set(os.listdir(tmp_path)) == {"escape_demo.json",
                                             f"escape_{scene}.json"}
        payload = load(tmp_path / "escape_demo.json")
        assert list(payload["scenes"]) == [scene]
        assert payload["scenes"][scene]["passed"]


class TestBohmSg:
    ARGS = ["--theta", "0", "--n", "40", "--t-final", "1.5", "--seed", "7"]

    def test_theta_zero_all_plus(self, tmp_path):
        assert run(["bohm-sg", *self.ARGS, "--out", str(tmp_path),
                    "--csv", "--svg", "--paths", "4"]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["stats"]["p_plus"] == 1.0
        assert payload["stats"]["counts"]["unresolved"] == 0
        assert payload["norm_drift"] < 1e-8
        assert payload["config_hash"] == CONFIG_HASH["bohm-sg-args"]
        csv = (tmp_path / "bohm_sg_trajectories.csv").read_text()
        assert csv.splitlines()[0] == "traj_id,t,x,sigma"
        svg = (tmp_path / "bohm_sg_trajectories.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_byte_identical_reruns(self, tmp_path):
        cases = (
            (["bohm-sg", *self.ARGS], ["bohm_sg.json"]),
            (["bohm-bs", "--prep", "plus", "--n", "40", "--csv", "--svg"],
             ["bohm_bs.json", "bohm_bs_trajectories.csv",
              "bohm_bs_trajectories.svg"]),
        )
        for i, (args, names) in enumerate(cases):
            d1, d2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            assert run([*args, "--out", str(d1)]) == 0
            assert run([*args, "--out", str(d2)]) == 0
            for name in names:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_invalid_theta_is_usage_error(self, tmp_path, capsys):
        for theta in ("7", "nan"):
            assert run(["bohm-sg", "--theta", theta, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_resolved_point_reports_null_estimators(self, tmp_path):
        # At t = 0.3 the packets have not separated: no point resolves.
        assert run(["bohm-sg", "--t-final", "0.3", "--n", "200",
                    "--out", str(tmp_path)]) == 1
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["config_hash"] == CONFIG_HASH["bohm-sg-unresolved"]
        stats = payload["stats"]
        assert stats["counts"]["unresolved"] == 200 and not stats["valid"]
        assert stats["p_plus"] is None and stats["p_minus"] is None
        assert stats["e_sigma"] is None

    def test_zero_paths_writes_no_trajectories(self, tmp_path):
        assert run(["bohm-sg", *self.ARGS, "--out", str(tmp_path),
                    "--csv", "--svg", "--paths", "0"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bohm_sg.json"]

    def test_paths_beyond_n_ignored_without_artifacts(self, tmp_path):
        assert run(["bohm-sg", *self.ARGS, "--n", "10", "--paths", "24",
                    "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bohm_sg.json"]

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSILAB_OUT", str(tmp_path / "env"))
        assert run(["bohm-sg", *self.ARGS]) == 0
        assert (tmp_path / "env" / "bohm_sg.json").exists()


@pytest.mark.parametrize("args", [
    ["bohm-sg", "--t-final", "0.0001"],  # rounds to zero steps of dt = 1e-3
    ["bohm-sg", "--paths", "-3", "--csv"],
    ["bohm-bs", "--paths", "-3", "--csv"],
    ["bohm-sg", "--n", "5", "--paths", "6", "--csv"],  # more paths than points
    ["bohm-bs", "--n", "5", "--paths", "6", "--svg"],
    ["bohm-sg", "--t-final", "inf"],
    ["bohm-sg", "--dt", "nan"],
    ["bohm-sg", "--cells", "10"],
    ["bohm-sg", "--b1", "nan"],
    ["bohm-sg", "--seed", "-1"],
    ["bohm-bs", "--seed", "-1"],
    ["bohm-sg", "--n", "0"],
    ["bohm-bs", "--n", "0"],
    ["bohm-bs", "--paths", "-3"],  # negative without an artifact flag
    ["bohm-sg", "--t-final", "3.0004"],  # 3000.4 steps of dt = 1e-3
])
def test_bohm_outside_domain_is_usage_error(tmp_path, capsys, args):
    assert run([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


class TestBohmBs:
    def test_plus_preparation(self, tmp_path):
        assert run(["bohm-bs", "--prep", "plus", "--n", "100", "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "bohm_bs.json")
        assert payload["p_gate3"] > 0.97
        assert payload["counts"]["gate3"] + payload["counts"]["gate4"] \
            + payload["counts"]["unresolved"] == 100
        assert payload["config_hash"] == CONFIG_HASH["bohm-bs-plus"]


def test_trajectory_artifacts_stream_to_file(tmp_path):
    """The trajectory CSV and SVG are written a path at a time: the run's
    peak of traced allocations stays below twice the bytes it writes (a
    whole-document string costs more than the document)."""
    argv = ["bohm-bs", "--prep", "plus", "--n", "400", "--csv", "--svg",
            "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert written > 4_000_000
    assert peak < 2 * written


class TestConfigFile:
    def test_config_values_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# analyzer demo\n"
            "theta = 0\n"
            "n = 25\n"
            "t_final = 1.5\n"
            "seed = 11\n"
        )
        assert run(["bohm-sg", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["theta"] == 0.0
        assert payload["stats"]["n"] == 25
        assert payload["config_hash"] == CONFIG_HASH["config-applied"]

    def test_command_line_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0\nn = 25\nt_final = 1.5\n")
        assert run(["bohm-sg", "--config", str(cfg), "--n", "30",
                    "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["stats"]["n"] == 30
        assert payload["config_hash"] == CONFIG_HASH["config-cli-wins"]

    @pytest.mark.parametrize("flag", [["--see", "5"], ["--see=5"]])
    def test_abbreviated_command_line_flag_wins(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0\nn = 25\nt_final = 1.5\nseed = 9\n")
        assert run(["bohm-sg", *flag, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["stats"]["seed"] == 5
        assert payload["config_hash"] == CONFIG_HASH["config-abbreviated"]

    def test_malformed_value_rejected_though_overridden(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta = 0\nn = abc\n")
        assert run(["bohm-sg", "--config", str(cfg), "--n", "5",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.cfg:2" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("text,lines", [
        ("theta = 0\nn = abc\nn = 20\nt_final = 0.5\n", ("2", "3")),
        ("theta = 0\nt-final = 0.5\nt_final = 1.5\n", ("2", "3")),
    ], ids=["malformed_then_valid", "dash_and_underscore"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, lines):
        """A key given twice (after '-' becomes '_') is a usage error naming
        both lines, so no line hides another."""
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text)
        assert run(["bohm-sg", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"dup.cfg:{lines[1]}" in err and f"line {lines[0]}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["dup.cfg"]

    def test_unread_pbr_check_option_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shared = 3\n")
        assert run(["pbr-check", "--config", str(cfg), "--scene", "disjoint",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --shared does nothing for --scene disjoint\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta = 0\nbogus = 1\n")
        assert run(["bohm-sg", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err and "bogus" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta 0\n")
        assert run(["bohm-sg", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run(["bohm-sg", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert run(["bohm-sg", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.cfg" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


class TestOutputPaths:
    """An output path that cannot be written is a usage error, not a crash."""

    def assert_usage_error(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_out_names_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        self.assert_usage_error(capsys, ["pbr-table", "--out", str(tmp_path / "taken")])

    def test_env_out_names_a_file(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "taken").write_text("")
        monkeypatch.setenv("PSILAB_OUT", str(tmp_path / "taken"))
        self.assert_usage_error(capsys, ["pbr-table"])

    def test_artifact_name_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "pbr_table.json").mkdir()
        self.assert_usage_error(capsys, ["pbr-table", "--out", str(tmp_path)])
        assert not (tmp_path / "pbr_table.csv").exists()

    @pytest.mark.parametrize("argv, taken", [
        (["escape-demo"], "escape_demo.json"),
        (["pbr-table"], "pbr_table.csv"),
        (["bohm-bs", "--n", "50", "--csv", "--svg"], "bohm_bs_trajectories.svg"),
    ])
    def test_later_artifact_a_directory_writes_nothing(self, tmp_path, capsys,
                                                       argv, taken):
        """Artifacts named before the blocked one are not left behind."""
        (tmp_path / taken).mkdir()
        self.assert_usage_error(capsys, [*argv, "--out", str(tmp_path)])
        assert [p.name for p in tmp_path.iterdir()] == [taken]

    def test_usage_error_creates_no_directory(self, tmp_path, capsys):
        self.assert_usage_error(
            capsys, ["bohm-bs", "--n", "0", "--out", str(tmp_path / "new" / "sub")])
        assert not (tmp_path / "new").exists()

    def test_failure_mid_write_removes_new_directories(self, tmp_path, monkeypatch):
        """A run that staged an artifact before failing removes the output
        directory it made, and each parent it made for it."""
        def failing(fh, series, title):
            raise RuntimeError("writer failed")

        monkeypatch.setattr(svgplot, "render_lines", failing)
        with pytest.raises(RuntimeError):
            run(["bohm-sg", "--n", "30", "--t-final", "0.05", "--svg",
                 "--out", str(tmp_path / "new" / "sub")])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                     RuntimeError("writer failed")])
    def test_failure_mid_write_leaves_no_file(self, tmp_path, capsys,
                                              monkeypatch, exc):
        """A writer that fails partway leaves neither its truncated file nor
        the artifacts staged before it."""
        def failing(fh, series, title):
            fh.write("<svg")
            raise exc

        monkeypatch.setattr(svgplot, "render_lines", failing)
        argv = ["bohm-sg", "--n", "30", "--t-final", "0.05", "--csv", "--svg",
                "--out", str(tmp_path)]
        if isinstance(exc, OSError):
            assert "No space left" in self.assert_usage_error(capsys, argv)
        else:
            with pytest.raises(RuntimeError):
                run(argv)
        assert list(tmp_path.iterdir()) == []

    def test_failure_partway_makes_no_stage(self, tmp_path, capsys, monkeypatch):
        """A subcommand that fails after building its first artifact makes no
        stage: staging starts only once the subcommand has returned."""
        escape, scenes = nogo.contextual_escape, []

        def second_fails(scene):
            scenes.append(scene)
            if len(scenes) == 2:
                raise nogo.NogoError("second scene failed")
            return escape(scene)

        mkdtemp, stages = tempfile.mkdtemp, []

        def counted(*args, **kwargs):
            stages.append(kwargs)
            return mkdtemp(*args, **kwargs)

        monkeypatch.setattr(nogo, "contextual_escape", second_fails)
        monkeypatch.setattr(tempfile, "mkdtemp", counted)
        self.assert_usage_error(capsys, ["escape-demo", "--out", str(tmp_path)])
        assert len(scenes) == 2 and stages == []
        assert list(tmp_path.iterdir()) == []

    def test_stale_temp_file_does_not_block_a_run(self, tmp_path):
        """A temporary file left under this pid's name by an earlier, killed
        run neither blocks the run nor is touched by it."""
        stale = tmp_path / f".pbr_table.json.{os.getpid()}.tmp"
        stale.write_text("stale")
        assert run(["pbr-table", "--out", str(tmp_path)]) == 0
        assert stale.read_text() == "stale"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            stale.name, "pbr_table.csv", "pbr_table.json"]

    def test_failed_rerun_keeps_earlier_artifacts(self, tmp_path, monkeypatch):
        """A rerun that fails partway leaves the earlier run's artifacts as
        they were, and no stage in the output directory or its parent."""
        out = tmp_path / "out"
        argv = ["bohm-sg", "--n", "30", "--t-final", "0.05", "--csv",
                "--out", str(out)]
        assert run(argv) in (0, 1)  # artifacts are committed at exit 0 or 1
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["bohm_sg.json", "bohm_sg_trajectories.csv"]

        def failing(fh, series, title):
            fh.write("<svg")
            raise RuntimeError("writer failed")

        monkeypatch.setattr(svgplot, "render_lines", failing)
        with pytest.raises(RuntimeError):
            run([*argv, "--svg"])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_subcommand_help(self, capsys, name):
        assert run([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: psilab {name}")
        assert "--config" in out and "--out" in out

    def test_bad_flag_value(self, tmp_path):
        assert run(["pbr-check", "--scene", "nonsense"]) == 2

    @pytest.mark.parametrize("command",
                             ["pbr-table", "pbr-check", "escape-demo", "selftest"])
    def test_artifact_flags_only_on_bohm_commands(self, tmp_path, capsys, command):
        for flag in ("--csv", "--svg"):
            assert run([command, flag, "--out", str(tmp_path)]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("csv = true\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "run.cfg:1: unknown key 'csv'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


class TestSelftest:
    def test_all_checks_pass(self, tmp_path, capsys):
        assert run(["selftest", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok - ") == 6 and "FAIL" not in out
        payload = load(tmp_path / "selftest.json")
        assert payload["passed"] is True
        assert payload["config_hash"] == CONFIG_HASH["selftest"]

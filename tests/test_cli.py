import json
import os
import subprocess
import sys

import numpy as np
import pytest

import psilab
from psilab import cli


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
        assert payload["config_hash"]
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
        assert payload["certificate_margin"] == pytest.approx(5.0, abs=1e-9)

    def test_disjoint_scene_feasible(self, tmp_path):
        assert run(["pbr-check", "--scene", "disjoint", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "pbr_check.json")
        assert payload["status"] == "FEASIBLE"
        assert payload["residual"] < 1e-9
        assert payload["certificate_margin"] is None

    @pytest.mark.parametrize("args", [
        ["--shared", "-1"],
        ["--cells-per-support", "0"],
        ["--scene", "n3", "--theta", "0"],
        ["--scene", "n3", "--theta", str(np.pi / 8)],  # no 3-copy basis
    ])
    def test_outside_domain_is_usage_error(self, tmp_path, capsys, args):
        assert run(["pbr-check", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "pbr_check.json").exists()


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


class TestBohmSg:
    ARGS = ["--theta", "0", "--n", "40", "--t-final", "1.5", "--seed", "7"]

    def test_theta_zero_all_plus(self, tmp_path):
        assert run(["bohm-sg", *self.ARGS, "--out", str(tmp_path),
                    "--csv", "--svg", "--paths", "4"]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["stats"]["p_plus"] == 1.0
        assert payload["stats"]["counts"]["unresolved"] == 0
        assert payload["norm_drift"] < 1e-8
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

    def test_invalid_theta_is_usage_error(self, tmp_path):
        assert run(["bohm-sg", "--theta", "7", "--out", str(tmp_path)]) == 2

    def test_zero_paths_writes_no_trajectories(self, tmp_path):
        assert run(["bohm-sg", *self.ARGS, "--out", str(tmp_path),
                    "--csv", "--svg", "--paths", "0"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bohm_sg.json"]

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSILAB_OUT", str(tmp_path / "env"))
        assert run(["bohm-sg", *self.ARGS]) == 0
        assert (tmp_path / "env" / "bohm_sg.json").exists()


@pytest.mark.parametrize("args", [
    ["bohm-sg", "--t-final", "0.0001"],  # rounds to zero steps of dt = 1e-3
    ["bohm-sg", "--paths", "-3", "--csv"],
    ["bohm-bs", "--paths", "-3", "--csv"],
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

    def test_command_line_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0\nn = 25\nt_final = 1.5\n")
        assert run(["bohm-sg", "--config", str(cfg), "--n", "30",
                    "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "bohm_sg.json")
        assert payload["stats"]["n"] == 30

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


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_bad_flag_value(self, tmp_path):
        assert run(["pbr-check", "--scene", "nonsense"]) == 2


class TestSelftest:
    def test_all_checks_pass(self, tmp_path, capsys):
        assert run(["selftest", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok - ") == 6 and "FAIL" not in out
        payload = load(tmp_path / "selftest.json")
        assert payload["passed"] is True

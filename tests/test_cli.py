"""Harness behavior: outputs, config resolution, exit codes, rerun bytes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from liouvillelab import (
    SolverConfig,
    assemble_operators,
    cli,
    onofri_suite,
    read_off_mesh,
)
from liouvillelab.errors import NumericError

LN_FOUR_PI = np.log(4.0 * np.pi)


def run(args):
    return cli.parse_and_run([str(a) for a in args])


def run_module(args, prelude=None):
    """Run ``python -m liouvillelab.cli`` in a subprocess on this source tree.

    With ``prelude``, the subprocess runs that code first (to patch a
    dependency) and then the CLI entry point.
    """
    src = Path(cli.__file__).resolve().parents[1]
    paths = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    if prelude is None:
        command = ["-m", "liouvillelab.cli"]
    else:
        command = ["-c", prelude + "\nfrom liouvillelab.cli import main\nmain()\n"]
    return subprocess.run(
        [sys.executable, *command, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestMeshInfo:
    def test_level_one_counts(self, tmp_path, capsys):
        assert run(["mesh-info", "--level", 1, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "V=42 E=120 F=80 euler=2" in out
        info = json.loads((tmp_path / "mesh_info.json").read_text())
        assert info["vertices"] == 42
        assert info["faces"] == 80
        assert info["euler_characteristic"] == 2
        assert info["total_area"] == pytest.approx(4.0 * np.pi, abs=1e-12)

    def test_off_round_trip(self, tmp_path):
        first = tmp_path / "first"
        assert run(["mesh-info", "--level", 1, "--out", first]) == 0
        second = tmp_path / "second"
        code = run(["mesh-info", "--mesh-file", first / "mesh.off", "--out", second])
        assert code == 0
        a = json.loads((first / "mesh_info.json").read_text())
        b = json.loads((second / "mesh_info.json").read_text())
        assert (a["vertices"], a["edges"], a["faces"]) == (
            b["vertices"],
            b["edges"],
            b["faces"],
        )

    def test_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["mesh-info", "--level", 1]) == 0
        assert (tmp_path / "runs" / "mesh-info" / "run_manifest.json").exists()


class TestSweep:
    def test_three_epsilons_match_closed_form(self, tmp_path, capsys):
        code = run(
            [
                "sweep-eps",
                "--level",
                2,
                "--eps",
                "0.5,0.25,0.1",
                "--out",
                tmp_path,
                "--no-plots",
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,energy,el_residual,steps"
        assert len(lines) == 4
        for row in lines[1:]:
            eps, energy = float(row.split(",")[0]), float(row.split(",")[1])
            expected = -(8.0 * np.pi - eps) * LN_FOUR_PI
            assert energy == pytest.approx(expected, rel=1e-8)
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert not list(tmp_path.glob("*.svg"))

    def test_manifest_contract(self, tmp_path):
        run(["sweep-eps", "--level", 2, "--eps", "0.5", "--out", tmp_path])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "sweep-eps"
        assert manifest["artifacts"] == sorted(manifest["artifacts"])
        assert manifest["seed_scheme"] == "child_seed = seed * 1000003 + index"
        assert manifest["parameters"]["epsilons"] == [0.5]
        for name in manifest["artifacts"]:
            assert (tmp_path / name).exists()

    def test_rerun_byte_identical(self, tmp_path):
        args = ["sweep-eps", "--level", 2, "--eps", "0.5,0.25", "--seed", 3]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        # manifest (wall time) and SVG are outside the byte contract
        names = [
            p.name
            for p in a.iterdir()
            if p.suffix in (".csv", ".json") and p.name != "run_manifest.json"
        ]
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSingleCommands:
    def test_minimize_round(self, tmp_path, capsys):
        code = run(
            ["minimize", "--level", 2, "--eps", "0.5", "--out", tmp_path]
        )
        assert code == 0
        assert "minimize: eps=0.5" in capsys.readouterr().out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["energy"] == pytest.approx(
            -(8.0 * np.pi - 0.5) * LN_FOUR_PI, rel=1e-8
        )
        assert abs(result["constraint_pairing"]) < 1e-8
        # v_field carries the unit-mass normalization
        assert result["exp_volume"] == pytest.approx(1.0, abs=1e-10)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,energy,grad_norm,el_residual"

    def test_mean_field_round_converges_immediately(self, tmp_path, capsys):
        code = run(["mean-field", "--level", 2, "--eps", "0.5", "--out", tmp_path])
        assert code == 0
        assert "iterations=0" in capsys.readouterr().out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["el_residual"] < 1e-10

    def test_green_round(self, tmp_path):
        assert run(["green", "--level", 2, "--out", tmp_path, "--no-plots"]) == 0
        info = json.loads((tmp_path / "green.json").read_text())
        assert info["pole"] == 0
        assert info["distance_exact"] is True
        assert abs(info["integral"]) < 1e-8
        assert np.isfinite(info["A_value"])
        field_rows = (tmp_path / "green_field.csv").read_text().splitlines()
        assert len(field_rows) == 162 + 1

    def test_bubble_report(self, tmp_path):
        assert run(["bubble", "--R", 1.0, "--out", tmp_path]) == 0
        info = json.loads((tmp_path / "bubble.json").read_text())
        assert info["radius"] == 1.0
        assert info["dirichlet_integral"] == pytest.approx(33.30256199039814, abs=1e-9)
        assert info["dirichlet_closed_form"] == pytest.approx(33.30256199039814)
        assert abs(info["mass_closed_form"] - 0.7585469929947761) < 1e-12
        profile = (tmp_path / "profile.csv").read_text().splitlines()
        assert profile[0] == "r,phi"
        assert len(profile) == 514

    def test_flow_short_run(self, tmp_path):
        code = run(
            ["flow", "--level", 2, "--t-end", 2.0, "--out", tmp_path, "--no-plots"]
        )
        assert code == 0
        info = json.loads((tmp_path / "flow.json").read_text())
        assert info["final_time"] == pytest.approx(2.0, abs=1e-9)
        assert info["volume_drift"] < 1e-9
        rows = (tmp_path / "flow.csv").read_text().splitlines()
        assert rows[0] == "t,energy,volume,max_curv_dev,dt"
        assert len(rows) == info["steps"] + 2

    def test_disk_equality_case(self, tmp_path):
        assert run(["disk", "--out", tmp_path]) == 0
        info = json.loads((tmp_path / "disk.json").read_text())
        assert info["t"] == pytest.approx(1.0, abs=1e-15)
        assert abs(info["value"]) < 1e-10
        assert abs(info["margin"]) < 1e-10

    def test_inequalities_bundle(self, tmp_path, capsys):
        code = run(
            [
                "inequalities",
                "--level",
                2,
                "--samples",
                10,
                "--trials",
                2,
                "--out",
                tmp_path,
                "--no-plots",
            ]
        )
        assert code == 0
        reports = json.loads((tmp_path / "inequalities.json").read_text())
        names = [r["name"] for r in reports]
        assert names.count("disk_dirichlet_gap") == 4
        for expected in (
            "local_exponential_bound",
            "global_exponential_sup",
            "onofri_deficit",
            "poincare_constant",
            "exp_integrability",
        ):
            assert expected in names
        assert len(capsys.readouterr().out.splitlines()) == len(reports)
        margins = list(tmp_path.glob("margins_*.csv"))
        assert len(margins) >= 7

    def test_onofri_suite_runs_on_the_loaded_mesh(self, tmp_path):
        # A bumpy background is removed from the loaded mesh, not replaced
        # by a --level icosphere.
        assert run(["mesh-info", "--level", 2, "--out", tmp_path / "mesh"]) == 0
        mesh_file = tmp_path / "mesh" / "mesh.off"
        code = run(
            ["inequalities", "--mesh-file", mesh_file, "--metric-amp", 0.2,
             "--level", 1, "--samples", 6, "--trials", 1, "--out", tmp_path,
             "--no-plots"]
        )
        assert code == 0
        reports = json.loads((tmp_path / "inequalities.json").read_text())
        (onofri,) = [r for r in reports if r["name"] == "onofri_deficit"]
        ops = assemble_operators(read_off_mesh(mesh_file))
        assert onofri == onofri_suite(ops, 6, 0).as_dict()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("level = 1\n# comment line\n\nseed = 3\n")
        out = tmp_path / "out"
        assert run(["mesh-info", "--config", cfg, "--out", out]) == 0
        assert "V=42" in capsys.readouterr().out
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["mesh_level"] == 1
        assert manifest["parameters"]["seed"] == 3

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("level = 1\n")
        out = tmp_path / "out"
        assert run(["mesh-info", "--config", cfg, "--level", 2, "--out", out]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["mesh_level"] == 2

    def test_plots_toggle_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("plots = false\n")
        out = tmp_path / "out"
        assert run(["bubble", "--config", cfg, "--out", out]) == 0
        assert not list(out.glob("*.svg"))

    @pytest.mark.parametrize(
        "text",
        [
            "wavelength = 3\n",
            "level = 1\nlevel = 2\n",
            "level one\n",
            "level = one\n",
            "plots = maybe\n",
        ],
    )
    def test_malformed_config(self, tmp_path, text, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run(["mesh-info", "--config", cfg, "--out", tmp_path]) == 2
        assert capsys.readouterr().err != ""

    def test_missing_config_file(self, tmp_path):
        assert run(["mesh-info", "--config", tmp_path / "absent.cfg"]) == 2


class TestExitCodes:
    def test_unknown_command(self):
        assert run(["nonsense"]) == 2

    def test_bad_epsilon_range(self, tmp_path, capsys):
        assert run(["minimize", "--eps", 30, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "ParameterError" in err

    def test_failure_location_independent_of_launch(self, tmp_path, capsys):
        # Under ``python -m`` the cli module is ``__main__``; the reported
        # frame must be the same as through parse_and_run.
        args = ["minimize", "--eps", "30", "--out", str(tmp_path)]
        assert run(args) == 2
        in_process = capsys.readouterr().err
        proc = run_module(args)
        assert proc.returncode == 2
        assert proc.stderr == in_process
        assert "in cli.parse_and_run" in in_process

    def test_bad_bubble_radius(self, tmp_path):
        assert run(["bubble", "--R", -1, "--out", tmp_path]) == 2

    def test_budget_exhaustion_is_convergence_failure(self, tmp_path, capsys):
        code = run(
            [
                "minimize",
                "--level",
                2,
                "--metric-amp",
                0.4,
                "--max-iter",
                1,
                "--tol",
                "1e-12",
                "--out",
                tmp_path,
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "ConvergenceError" in err
        assert "solver." in err

    def test_unresolvable_green_fit(self, tmp_path, capsys):
        assert run(["green", "--level", 1, "--out", tmp_path]) == 3
        assert "ResolutionError" in capsys.readouterr().err

    def test_numeric_breakdown_maps_to_four(self, tmp_path, capsys, monkeypatch):
        def explode(spec, outdir):
            raise NumericError("synthetic breakdown")

        monkeypatch.setitem(cli._HANDLERS, "mesh-info", explode)
        assert run(["mesh-info", "--out", tmp_path]) == 4
        assert "NumericError" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["minimize", "--level", 1, "--max-iter", 0],
            ["minimize", "--level", 1, "--tol", 0],
            ["mean-field", "--level", 1, "--max-iter", 0],
            ["disk", "--grid-n", 0],
        ],
    )
    def test_explicit_zero_is_not_replaced_by_default(self, tmp_path, capsys, args):
        assert run(args + ["--out", tmp_path]) == 2
        assert "ParameterError" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            # --amp is unused here; the run used to finish and then exit 4
            # on the manifest, which records every option.
            ["inequalities", "--level", 1, "--samples", 3, "--trials", 1, "--amp", "inf"],
            ["mesh-info", "--level", 1, "--R", "nan"],
        ],
    )
    def test_non_finite_option_is_refused_before_work(self, tmp_path, capsys, args):
        assert run(args + ["--out", tmp_path]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_json_is_numeric_failure(self, tmp_path, capsys):
        # pi R^2 overflows, so bubble_checks refuses before any artifact.
        assert run(["bubble", "--R", 1e200, "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert "NumericError in green.bubble_checks" in err
        assert "closed forms are not finite" in err
        assert not (tmp_path / "bubble.json").exists()

    def test_non_finite_json_writer_refuses(self, tmp_path):
        with pytest.raises(NumericError, match="bubble.json"):
            cli._write_json(tmp_path / "bubble.json", {"mass_integral": float("nan")})
        assert not (tmp_path / "bubble.json").exists()

    def test_missed_bubble_peak_is_numeric_failure(self, tmp_path, capsys):
        assert run(["bubble", "--R", 1e6, "--out", tmp_path]) == 4
        assert "closed form" in capsys.readouterr().err
        assert not (tmp_path / "bubble.json").exists()

    def test_missed_bubble_peak_stderr_is_one_typed_line(self, tmp_path):
        # SciPy's IntegrationWarning is folded into the error message
        # instead of printing ahead of it.
        proc = run_module(["bubble", "--R", "1e6", "--out", tmp_path])
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("NumericError in green.bubble_checks: ")
        assert "quadrature warned: The integral is probably divergent" in lines[0]
        assert proc.stderr == lines[0] + "\n"

    def test_singular_solve_stderr_is_one_typed_line(self, tmp_path):
        # A NaN-returning spsolve that warns the way SciPy's does on an
        # exactly singular matrix.
        prelude = (
            "import warnings, numpy as np, scipy.sparse.linalg as spla\n"
            "def spsolve(matrix, rhs):\n"
            "    warnings.warn('Matrix is exactly singular', spla.MatrixRankWarning,"
            " stacklevel=2)\n"
            "    return np.full(len(rhs), np.nan)\n"
            "spla.spsolve = spsolve\n"
        )
        proc = run_module(["green", "--level", 3, "--out", tmp_path], prelude)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("NumericError in green.solve_green: ")
        assert "Matrix is exactly singular" in lines[0]
        assert proc.stderr == lines[0] + "\n"

    def test_newton_overflow_stderr_is_one_typed_line(self, tmp_path):
        # Overflowing Newton trials are rejected without numpy warnings.
        proc = run_module(
            ["mean-field", "--level", 2, "--eps", 0.5, "--metric-amp", 0.2,
             "--amp", 0.1, "--out", tmp_path]
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ConvergenceError in solver.solve_mean_field: ")

    def test_eigensolver_failure_maps_to_four(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("synthetic", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        assert run(["minimize", "--level", 2, "--metric-amp", 0.3, "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert "NumericError in mesh.random_band_field: round eigensolve failed" in err

    def test_non_finite_csv_is_numeric_failure(self, tmp_path):
        with pytest.raises(NumericError, match="profile.csv"):
            cli._write_csv(tmp_path / "profile.csv", "r,phi", [("0", "-inf")])
        assert not (tmp_path / "profile.csv").exists()


class TestOptionTable:
    KEYS = {
        "level", "metric-seed", "metric-amp", "eps", "seed", "tol", "max-iter",
        "out", "mesh-file", "bands", "amp", "pole", "R", "t-end", "dt0", "a",
        "b", "r", "grid-n", "samples", "trials", "p", "delta", "plots",
    }

    def test_flags_and_config_keys_name_the_same_options(self):
        # Every flag is a config key without its dashes; --no-plots is plots.
        dest_by_key = {
            a.option_strings[0].removeprefix("--no-").removeprefix("--"): a.dest
            for a in cli._build_parser()._actions
            if a.option_strings and a.dest not in ("help", "config")
        }
        assert set(dest_by_key) == set(cli._OPTIONS) == self.KEYS
        assert all(cli._OPTIONS[key].name == d for key, d in dest_by_key.items())
        spec_fields = {f.name for f in dataclasses.fields(cli.RunSpec)}
        assert set(dest_by_key.values()) <= spec_fields

    def test_eps_list_parsed_on_flag_and_config_paths(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5, 0.25\n")
        ns = cli._build_parser().parse_args(["sweep-eps", "--config", str(cfg)])
        assert cli._resolve(ns, None).epsilons == (0.5, 0.25)
        ns = cli._build_parser().parse_args(["sweep-eps", "--eps", "0.5,0.25"])
        assert cli._resolve(ns, None).epsilons == (0.5, 0.25)

    def test_unset_options_take_run_spec_defaults(self):
        ns = cli._build_parser().parse_args(["flow"])
        assert cli._resolve(ns, None) == cli.RunSpec(command="flow")
        assert cli.RunSpec(command="flow").output_dir == "runs/flow"

    def test_command_choices_are_the_handlers(self):
        (command,) = [
            a for a in cli._build_parser()._actions if a.dest == "command"
        ]
        assert list(command.choices) == list(cli._HANDLERS)

    def test_unset_solver_options_take_library_defaults(self, tmp_path, monkeypatch):
        seen = {}

        class Stop(Exception):
            pass

        def record(name):
            def fake(*args, **kwargs):
                seen[name] = (args, kwargs)
                raise Stop

            return fake

        monkeypatch.setattr(cli, "minimize_perturbed", record("minimize"))
        monkeypatch.setattr(cli, "solve_mean_field", record("mean-field"))
        for command in ("minimize", "mean-field"):
            with pytest.raises(Stop):
                run([command, "--level", 1, "--eps", 0.5, "--out", tmp_path])
        assert seen["minimize"][0][1] == SolverConfig(epsilon=0.5)
        assert set(seen["mean-field"][1]) == {"initial"}

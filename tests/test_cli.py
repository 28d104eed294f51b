"""Harness behavior: outputs, config resolution, exit codes, rerun bytes."""

import ast
import dataclasses
import json
import os
import re
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
    disk_floor_gap,
    disk_min_dirichlet,
    inequalities,
    onofri_suite,
    read_off_mesh,
)
from liouvillelab import mesh as mesh_module
from liouvillelab.errors import NumericError
from liouvillelab.svg import write_line_plot

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

    @pytest.mark.parametrize("plots", [True, False])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, plots):
        commands = [
            ["minimize", "--level", 2, "--amp", 0.2],
            ["sweep-eps", "--level", 2, "--eps", "0.5,0.25"],
            ["mean-field", "--level", 2],
            ["green", "--level", 2],
            ["bubble"],
            ["flow", "--level", 2, "--t-end", 0.5],
            ["inequalities", "--level", 2, "--samples", 3, "--trials", 1],
            ["disk", "--grid-n", 512],
            ["mesh-info", "--level", 2],
        ]
        assert [args[0] for args in commands] == list(cli._HANDLERS)
        for args in commands:
            out = tmp_path / args[0]
            flags = [] if plots else ["--no-plots"]
            assert run(args + flags + ["--out", out]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            written = sorted(p.name for p in out.iterdir())
            written.remove("run_manifest.json")
            assert written == manifest["artifacts"], args
            if not plots:
                assert not list(out.glob("*.svg")), args

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

    def test_green_figure_on_a_bumpy_background_spans_the_sphere(self, tmp_path, monkeypatch):
        # The fit's march, stopped at its annulus, is the run's only one; the
        # figure's round arcs still place every vertex but the pole, with
        # finite coordinates.
        calls = []
        march = mesh_module._fast_march

        def counting(mesh, phi, source, radius):
            calls.append((assemble_operators(mesh).mean_edge_length, radius))
            return march(mesh, phi, source, radius)

        monkeypatch.setattr(mesh_module, "_fast_march", counting)
        args = ["green", "--level", 4, "--pole", 5, "--metric-amp", 0.3, "--out", tmp_path]
        assert run(args) == 0
        assert len(calls) == 1
        h, radius = calls[0]
        assert radius == 8.0 * h
        svg = (tmp_path / "green_vs_distance.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        assert ">round distance</text>" in svg
        # The arcs run from the nearest vertex to the antipode, at pi.
        assert ">3.142</text>" in svg
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
        xs = [float(point.split(",")[0]) for point in points]
        assert xs == sorted(xs)
        assert (xs[0], xs[-1]) == (64.0, 624.0)  # the plot's left and right edges

    @pytest.mark.parametrize(
        ("args", "figure"),
        [
            (["mean-field", "--level", 2, "--eps", 0.5], "residual_trace.svg"),
            (["flow", "--level", 2, "--t-end", 1], "flow_deviation.svg"),
        ],
    )
    def test_log_axis_names_log10_once(self, tmp_path, args, figure):
        assert run([*args, "--out", tmp_path]) == 0
        svg = (tmp_path / figure).read_text()
        assert svg.count("log10") == 1

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

    def test_disk_solves_once(self, tmp_path, monkeypatch):
        # The gap report reuses the command's minimum instead of re-solving.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return disk_min_dirichlet(*args, **kwargs)

        monkeypatch.setattr(cli, "disk_min_dirichlet", counted)
        monkeypatch.setattr(inequalities, "disk_min_dirichlet", counted)
        args = ["disk", "--a", 20.0, "--grid-n", 512, "--no-plots", "--out", tmp_path]
        assert run(args) == 0
        assert len(calls) == 1
        info = json.loads((tmp_path / "disk.json").read_text())
        gap = disk_floor_gap(20.0, 0.0, 1.0, grid_n=512)
        assert info["margin"] == gap.worst_margin
        assert info["grid_n"] == gap.parameters["grid_n"] == 512

    def test_disk_equality_case(self, tmp_path):
        assert run(["disk", "--out", tmp_path]) == 0
        info = json.loads((tmp_path / "disk.json").read_text())
        assert info["t"] == pytest.approx(1.0, abs=1e-15)
        assert abs(info["value"]) < 1e-10
        assert abs(info["margin"]) < 1e-10

    def test_disk_margin_is_nonnegative_at_large_t(self, tmp_path):
        # t = 256 at the default grid: the trapezoid constraint gave -2.13e-5.
        assert run(["disk", "--r=0.0625", "--no-plots", "--out", tmp_path]) == 0
        info = json.loads((tmp_path / "disk.json").read_text())
        assert info["t"] == pytest.approx(256.0, rel=1e-12)
        assert info["margin"] >= 0.0

    def test_disk_gaps_depend_on_t_only(self, tmp_path):
        # The four disk gaps run at fixed t, so moving b and r changes nothing.
        margins = []
        for extra in ([], ["--b", -5, "--r", 0.01]):
            out = tmp_path / str(len(margins))
            args = ["inequalities", "--level", 2, "--samples", 3, "--trials", 1]
            assert run(args + extra + ["--no-plots", "--out", out]) == 0
            reports = json.loads((out / "inequalities.json").read_text())
            margins.append(
                [r["worst_margin"] for r in reports if r["name"] == "disk_dirichlet_gap"]
            )
        assert len(margins[0]) == 4
        assert np.allclose(margins[1], margins[0], rtol=0.0, atol=1e-9)

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
        # by an icosphere of the default level.
        assert run(["mesh-info", "--level", 2, "--out", tmp_path / "mesh"]) == 0
        mesh_file = tmp_path / "mesh" / "mesh.off"
        code = run(
            ["inequalities", "--mesh-file", mesh_file, "--metric-amp", 0.2,
             "--samples", 6, "--trials", 1, "--out", tmp_path, "--no-plots"]
        )
        assert code == 0
        reports = json.loads((tmp_path / "inequalities.json").read_text())
        (onofri,) = [r for r in reports if r["name"] == "onofri_deficit"]
        ops = assemble_operators(read_off_mesh(mesh_file))
        assert onofri == onofri_suite(ops, 6, 0).as_dict()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("level = 1\n# comment line\n\nmetric-seed = 3\n")
        out = tmp_path / "out"
        assert run(["mesh-info", "--config", cfg, "--out", out]) == 0
        assert "V=42" in capsys.readouterr().out
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["mesh_level"] == 1
        assert manifest["parameters"]["metric_seed"] == 3

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

    @pytest.mark.parametrize(
        ("option", "content"),
        [
            ("--mesh-file", None),
            ("--mesh-file", b"OFF\n\xff\n"),
            ("--config", b"level = 1 # \xff\n"),
        ],
        ids=["missing-mesh", "mesh-not-ascii", "config-not-utf8"],
    )
    def test_unreadable_input_file(self, tmp_path, capsys, option, content):
        # A file the user names that cannot be read or decoded is one typed
        # line naming it, not a traceback.
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert run(["mesh-info", option, path, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("DataError in ") and f"cannot read {path}:" in line
        assert not any(out.glob("*"))


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

    def test_out_naming_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run(["mesh-info", "--level", 1, "--out", afile]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("DataError in ")
        assert f"cannot create output directory {afile}:" in line
        assert sorted(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize(
        ("args", "name"),
        [
            (["minimize", "--level", 2], "u_min.csv"),
            (["sweep-eps", "--level", 2, "--eps", 0.5], "sweep.csv"),
            (["bubble"], "bubble.json"),
            (["mesh-info", "--level", 2], "mesh.off"),
            (["flow", "--level", 2, "--t-end", 0.5], "flow_energy.svg"),
        ],
        ids=["field-csv", "csv", "json", "off", "svg"],
    )
    def test_unwritable_artifact_is_one_typed_line(self, tmp_path, capsys, args, name):
        # A directory where an artifact should go: each kind of writer
        # reports the path in one DataError line, not a traceback.
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run([*args, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.match(rf"DataError in \S+: cannot write {re.escape(str(out / name))}: ", line)

    @pytest.mark.parametrize(
        ("args", "name"),
        [(["bubble"], "bubble.json"), (["sweep-eps", "--level", 2, "--eps", 0.5], "sweep.csv")],
        ids=["json", "csv"],
    )
    def test_private_writer_methods_are_not_the_reported_operation(
        self, tmp_path, capsys, args, name
    ):
        # _Artifacts.json and _Artifacts.csv are methods of a private class,
        # so the line names the innermost public frame, not "cli.json".
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run([*args, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("DataError in cli.parse_and_run: cannot write ")

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        # The output directory is made at the first write, not before the work.
        out = tmp_path / "o1"
        assert run(["mesh-info", "--mesh-file", tmp_path / "absent.off", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("DataError in ")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--b=-400", "--b=400", "--r=1e-200"])
    def test_disk_ratio_out_of_range(self, tmp_path, capsys, option):
        # Each is finite, but t = a e^{-2b} / (pi r^2) over- or underflows.
        out = tmp_path / "out"
        assert run(["disk", option, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ParameterError in solver.disk_min_dirichlet: t = ")
        assert not out.exists()

    def test_disk_grid_too_coarse(self, tmp_path, capsys):
        # t = 1e6 at grid 256: the disk profile cannot be held, exit 3.
        out = tmp_path / "out"
        args = ["disk", "--grid-n", 256, "--r", 0.001, "--no-plots", "--out", out]
        assert run(args) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ResolutionError in solver.disk_min_dirichlet:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bubble", "disk", "inequalities"])
    def test_huge_grid_is_one_typed_line(self, tmp_path, capsys, command):
        # 1e14 nodes would be hundreds of TiB: refused by the range check,
        # where numpy's allocator would end in a traceback.
        out = tmp_path / "out"
        args = [command, "--grid-n", 10**14, "--out", out]
        if command == "inequalities":
            args += ["--level", 1, "--samples", 3]
        assert run(args) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ParameterError in ")
        assert "_n must be an integer in [" in line and line.endswith(str(10**14))
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(set(cli._HANDLERS) - {"sweep-eps"}))
    def test_eps_list_only_for_sweep(self, tmp_path, capsys, command):
        # A command that reads one epsilon would run the first value and
        # record both; a command that reads none refuses --eps itself.
        assert run([command, "--eps", "0.5,0.25", "--out", tmp_path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        if command in ("minimize", "mean-field", "inequalities"):
            assert line.startswith("ParameterError in ") and "only sweep-eps" in line
        else:
            expected = f"{command} does not read --eps"
            assert line == f"ParameterError in cli.parse_and_run: {expected}"
        assert not any(tmp_path.iterdir())

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
            # Both are read: --p only by the fifth suite, after the others
            # ran, and --metric-amp also by the manifest.
            ["inequalities", "--level", 1, "--samples", 3, "--trials", 1, "--p", "inf"],
            ["mesh-info", "--level", 1, "--metric-amp", "nan"],
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

    @pytest.mark.parametrize("R", [1e5, 1e6])
    def test_large_bubble_radius_succeeds(self, tmp_path, R):
        assert run(["bubble", "--R", R, "--out", tmp_path]) == 0
        info = json.loads((tmp_path / "bubble.json").read_text())
        assert info["mass_integral"] == pytest.approx(info["mass_closed_form"], rel=1e-15)

    def test_missed_bubble_peak_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("liouvillelab.green.quad", lambda *args, **options: (0.0, 0.0))
        assert run(["bubble", "--R", 1e6, "--out", tmp_path]) == 4
        assert "closed form" in capsys.readouterr().err
        assert not (tmp_path / "bubble.json").exists()

    def test_missed_bubble_peak_stderr_is_one_typed_line(self, tmp_path):
        # A quadrature that steps over the peak and warns the way SciPy's
        # does; the IntegrationWarning is folded into the error message
        # instead of printing ahead of it.
        prelude = (
            "import warnings, scipy.integrate, liouvillelab.green\n"
            "def quad(func, a, b, **options):\n"
            "    warnings.warn('The integral is probably divergent, or slowly"
            " convergent.', scipy.integrate.IntegrationWarning, stacklevel=2)\n"
            "    return 0.0, 0.0\n"
            "liouvillelab.green.quad = quad\n"
        )
        proc = run_module(["bubble", "--R", "1e6", "--out", tmp_path], prelude)
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
            "def spsolve(matrix, rhs, **options):\n"
            "    warnings.warn('Matrix is exactly singular', spla.MatrixRankWarning,"
            " stacklevel=2)\n"
            "    return np.full(len(rhs), np.nan)\n"
            "spla.spsolve = spsolve\n"
        )
        proc = run_module(["flow", "--level", 2, "--out", tmp_path], prelude)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("NumericError in flow.run_flow: ")
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

    def test_mesh_without_faces_stderr_is_one_typed_line(self, tmp_path):
        mesh_file = tmp_path / "empty.off"
        mesh_file.write_text("OFF\n2 0 0\n1 0 0\n-1 0 0\n")
        proc = run_module(["mesh-info", "--mesh-file", mesh_file, "--out", tmp_path / "out"])
        assert proc.returncode == 2
        assert proc.stderr == "DataError in mesh.read_off_mesh: mesh has no faces\n"

    @pytest.mark.parametrize("r", ["1e-200", "1e200"])
    def test_extreme_disk_radius_stderr_is_one_typed_line(self, tmp_path, r):
        # pi r^2 underflows or overflows: refused, with no warning ahead
        proc = run_module(
            ["inequalities", "--level", 2, "--samples", 3, "--r", r, "--out", tmp_path]
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ParameterError in ")

    def test_subnormal_disk_area_stderr_is_one_typed_line(self, tmp_path):
        # pi r^2 is subnormal at r = 1e-160, so is each disk gap's a: the
        # first gap refuses it rather than run at a t that lost its digits.
        proc = run_module(
            ["inequalities", "--level", 2, "--samples", 3, "--r", "1e-160", "--out", tmp_path]
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "ParameterError in solver.disk_min_dirichlet: t = a exp(-2b) / (pi r^2) "
            "needs a normal positive a, got "
        )
        assert len(proc.stderr.splitlines()) == 1

    def test_coarse_band_field_stderr_is_one_typed_line(self, tmp_path):
        # 24 bands need the l = 4 block, which a level-1 mesh cannot resolve.
        proc = run_module(
            ["sweep-eps", "--level", 1, "--amp", 0.5, "--bands", 24, "--out", tmp_path]
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ResolutionError in mesh.random_band_field: ")
        assert "not resolved" in lines[0]

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
        assert cli._resolve(ns).epsilons == (0.5, 0.25)
        ns = cli._build_parser().parse_args(["sweep-eps", "--eps", "0.5,0.25"])
        assert cli._resolve(ns).epsilons == (0.5, 0.25)

    def test_unset_options_take_run_spec_defaults(self):
        ns = cli._build_parser().parse_args(["flow"])
        assert cli._resolve(ns) == cli.RunSpec(command="flow")
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



def _declared(command):
    """The RunSpec fields the command reads, by the option declarations."""
    return {f.name for f in cli._OPTIONS.values() if command in f.metadata["readers"]}


def _spec_reads():
    """Command -> the spec.<field> reads of its handler, of the module's
    functions it passes spec to, and of the _Artifacts call in _execute."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def is_spec(node):
        return isinstance(node, ast.Name) and node.id == "spec"

    def reads(top):
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and is_spec(node.value):
                found.add(node.attr)
            elif isinstance(node, ast.Call) and any(map(is_spec, node.args)):
                if isinstance(node.func, ast.Name) and node.func.id in functions:
                    found |= reads(functions[node.func.id])
        return found

    (artifacts,) = [
        node for node in ast.walk(functions["_execute"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Artifacts"
    ]
    shared = reads(artifacts)
    assert shared == {"output_dir", "plots"}
    return {
        command: reads(functions[handler.__name__]) | shared
        for command, handler in cli._HANDLERS.items()
    }


class TestOptionReaders:
    # Small runs of all nine commands.
    RUNS = {
        "minimize": ["--level", 1],
        "sweep-eps": ["--level", 1, "--eps", "0.5,0.25"],
        "mean-field": ["--level", 1],
        "green": ["--level", 2],
        "bubble": [],
        "flow": ["--level", 1, "--t-end", 0.5],
        "inequalities": ["--level", 1, "--samples", 3, "--trials", 1],
        "disk": ["--grid-n", 512],
        "mesh-info": ["--level", 1],
    }

    def test_each_handler_reads_exactly_its_declared_options(self):
        # A handler that starts reading an option it does not declare, or
        # stops reading one it does, fails here.
        assert {c for f in cli._OPTIONS.values() for c in f.metadata["readers"]} == set(
            cli._HANDLERS
        )
        reads = _spec_reads()
        for command in cli._HANDLERS:
            assert reads[command] == _declared(command), command

    @pytest.mark.parametrize("command", list(RUNS))
    def test_manifest_records_exactly_the_options_read(self, tmp_path, command):
        assert list(self.RUNS) == list(cli._HANDLERS)
        assert run([command, *self.RUNS[command], "--no-plots", "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert set(manifest["parameters"]) == {"command"} | _declared(command)

    def test_foreign_flag_is_one_typed_line_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["disk", "--samples", 3, "--trials", 7, "--level", 6, "--out", out]
        assert run(args) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"ParameterError in cli\.parse_and_run: disk does not read --(samples|trials|level)",
            line,
        )
        assert not out.exists()

    def test_foreign_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 2\nsamples = 3\n")
        out = tmp_path / "out"
        assert run(["disk", "--config", cfg, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "ParameterError in cli.parse_and_run: "
            "disk does not read config key 'samples' (line 2)"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        ("config", "flags", "named"),
        [
            ("", ["--level", 1, "--mesh-file", "m.off"], "--level and --mesh-file"),
            ("level = 1\n", ["--mesh-file", "m.off"], "config key 'level' (line 1) and --mesh-file"),
            (
                "mesh-file = m.off\nlevel = 1\n", [],
                "config key 'level' (line 2) and config key 'mesh-file' (line 1)",
            ),
        ],
        ids=["flags", "mixed", "config"],
    )
    def test_level_with_mesh_file_is_refused(self, tmp_path, capsys, config, flags, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run(["mesh-info", "--config", cfg, *flags, "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ParameterError in cli.parse_and_run: {named} both name the mesh"
        assert not out.exists()

    def test_mesh_file_run_records_no_level(self, tmp_path):
        assert run(["mesh-info", "--level", 1, "--out", tmp_path / "a"]) == 0
        mesh_file = tmp_path / "a" / "mesh.off"
        assert run(["mesh-info", "--mesh-file", mesh_file, "--out", tmp_path / "b"]) == 0
        manifest = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
        assert manifest["parameters"]["mesh_file"] == str(mesh_file)
        assert "mesh_level" not in manifest["parameters"]

    def test_config_with_byte_order_mark_gives_the_same_run(self, tmp_path):
        # Editors may save UTF-8 with a BOM; it is not part of the first key.
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.cfg").write_bytes(prefix + b"level = 1\n")
            args = ["mesh-info", "--config", tmp_path / f"{name}.cfg"]
            assert run(args + ["--out", tmp_path / name]) == 0
        for artifact in ("mesh_info.json", "mesh.off"):
            plain = (tmp_path / "plain" / artifact).read_bytes()
            assert (tmp_path / "bom" / artifact).read_bytes() == plain

    def test_help_names_each_options_readers(self):
        helps = {action.dest: action.help for action in cli._build_parser()._actions}
        for f in cli._OPTIONS.values():
            assert helps[f.name].endswith(f" [{', '.join(f.metadata['readers'])}]")
        assert helps["grid_n"] == "radial grid size [bubble, inequalities, disk]"

def test_line_plot_keeps_each_pixel_columns_extremes_in_order(tmp_path):
    # 40,961 points, the level-6 Green figure's count, on a 560-pixel-wide
    # plot: at most the lowest and highest point of each column remain.
    xs = np.linspace(0.0, np.pi, 40961)
    ys = np.cos(50.0 * xs)
    ys[20000] = 3.0  # a spike inside one column is kept
    path = tmp_path / "plot.svg"
    write_line_plot(path, {"s": (xs, ys)}, title="t", xlabel="x", ylabel="y")
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1).split()
    px, py = np.array([point.split(",") for point in points], dtype=float).T
    assert len(points) <= 2 * 561
    assert (np.diff(px) >= 0).all()
    assert py.min() == 28.0  # the spike, at the plot's top edge
    assert (px.min(), px.max()) == (64.0, 624.0)


@pytest.mark.parametrize("log_y", [False, True])
def test_line_plot_drops_non_finite_rows(tmp_path, log_y):
    xs = [0.0, 1.0, np.inf, 3.0, np.nan, 5.0, 6.0]
    ys = [1.0, np.nan, 2.0, -np.inf, 3.0, np.inf, 4.0]
    path = tmp_path / "plot.svg"
    write_line_plot(path, {"s": (xs, ys)}, title="t", xlabel="x", ylabel="y", log_y=log_y)
    svg = path.read_text()
    assert "nan" not in svg and "inf" not in svg
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    assert len(points) == 2  # the rows at x = 0 and x = 6

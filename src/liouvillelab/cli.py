"""Command-line harness: configuration, run manifests, and file emission.

One top-level seed drives all randomness through the documented splitting
scheme (child = seed * 1000003 + index), so reruns with the same RunSpec
produce byte-identical CSV and JSON outputs.  The run manifest (wall time)
and SVG figures are excluded from that byte contract.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from .energy import _check_epsilon, perturbed_functional
from .errors import (
    ConvergenceError,
    DataError,
    MeshQualityError,
    NumericError,
    ParameterError,
    ResolutionError,
)
from .flow import run_flow
from .green import (
    bubble_checks,
    bubble_dirichlet_closed_form,
    bubble_mass_closed_form,
    bubble_profile,
    solve_green,
)
from .inequalities import (
    _SEED_STRIDE,
    brezis_merle_check,
    check_global_mt,
    check_local_mt,
    onofri_suite,
    poincare_constant,
    disk_floor_gap,
)
from .mesh import (
    _is_round,
    assemble_operators,
    build_icosphere,
    integrate,
    random_band_field,
    read_off_mesh,
    set_conformal_background,
    write_field_csv,
    write_off_mesh,
)
from .solver import SolverConfig, disk_min_dirichlet, minimize_perturbed, solve_mean_field
from .svg import write_line_plot

_SEED_SCHEME = f"child_seed = seed * {_SEED_STRIDE} + index"


def _parse_eps(text: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ParameterError(f"bad epsilon list '{text}': {exc}") from exc
    if not values:
        raise ParameterError("epsilon list is empty")
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: '{text}'")


def _option(key: str, default, convert, help_text: str):
    """A RunSpec field that is also the flag --<key> and the config key <key>.

    A boolean option defaulting to True is switched off by --no-<key>.
    """
    return field(
        default=default, metadata={"key": key, "convert": convert, "help": help_text}
    )


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved inputs of one harness run, and the CLI's option table.

    Every field but ``command`` is one option: its metadata names the flag
    and config key and the converter from text.  tolerance, max_iterations
    and grid_n default to None, meaning "use the library function's own
    default"; amplitude defaults to None, meaning "use the command's own
    start"; output_dir defaults to runs/<command>.  Validation of numeric
    ranges is left to the library calls so the failure surface is identical
    for CLI and programmatic use.
    """

    command: str
    mesh_level: int = _option("level", 4, int, "icosphere level")
    metric_seed: int = _option("metric-seed", 0, int, "background field seed")
    metric_amplitude: float = _option(
        "metric-amp", 0.0, float, "background field amplitude (0: round)"
    )
    epsilons: tuple = _option("eps", (0.5,), _parse_eps, "comma-separated list")
    seed: int = _option("seed", 0, int, "top-level seed for all sampling")
    tolerance: float | None = _option("tol", None, float, "solver tolerance")
    max_iterations: int | None = _option(
        "max-iter", None, int, "solver iteration cap"
    )
    output_dir: str | None = _option(
        "out", None, str, "output directory (default runs/<command>)"
    )
    mesh_file: str | None = _option("mesh-file", None, str, "OFF mesh to load")
    bands: int = _option("bands", 8, int, "band limit of random fields")
    amplitude: float | None = _option("amp", None, float, "initial field size")
    pole: int = _option("pole", 0, int, "Green function pole vertex")
    bubble_radius: float = _option("R", 1.0, float, "bubble radius")
    t_end: float = _option("t-end", 10.0, float, "flow end time")
    dt0: float = _option("dt0", 0.01, float, "initial flow step")
    a: float = _option("a", float(np.pi), float, "disk volume constraint")
    b: float = _option("b", 0.0, float, "disk boundary value")
    r: float = _option("r", 1.0, float, "disk radius")
    grid_n: int | None = _option("grid-n", None, int, "radial grid size")
    samples: int = _option("samples", 200, int, "samples per inequality suite")
    trials: int = _option("trials", 5, int, "global ascent trials")
    p: float = _option("p", 2.0, float, "norm exponent")
    delta: float = _option("delta", float(2.0 * np.pi), float, "Brezis-Merle delta")
    plots: bool = _option("plots", True, _parse_bool, "skip SVG figures")

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise ParameterError(f"unknown command '{self.command}'")
        if not self.epsilons:
            raise ParameterError("at least one epsilon value is required")
        for eps in self.epsilons:
            _check_epsilon(eps)
        for f in fields(self):
            # The manifest records every option, and JSON has no NaN or inf.
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ParameterError(f"--{f.metadata['key']} must be finite, got {value}")
        if self.output_dir is None:
            object.__setattr__(self, "output_dir", str(Path("runs") / self.command))


# Config key -> RunSpec field; config keys are the flags without dashes.
_OPTIONS = {f.metadata["key"]: f for f in fields(RunSpec) if f.metadata}


def _read_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _OPTIONS:
            raise ParameterError(f"unknown config key '{key}' (line {lineno})")
        if key in values:
            raise ParameterError(f"duplicate config key '{key}' (line {lineno})")
        try:
            values[key] = _OPTIONS[key].metadata["convert"](val)
        except ValueError as exc:
            raise ParameterError(f"bad value for config key '{key}': {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville-lab",
        description="Numerical laboratory for a conformal curvature "
        "functional on triangulated spheres.",
    )
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("--config", default=None, help="key = value config file")
    for key, f in _OPTIONS.items():
        if f.default is True:
            parser.add_argument(
                f"--no-{key}", action="store_const", const=False, dest=f.name,
                help=f.metadata["help"],
            )
        else:
            parser.add_argument(
                f"--{key}", type=f.metadata["convert"], dest=f.name,
                metavar=key.upper().replace("-", "_"), help=f.metadata["help"],
            )
    return parser


def _resolve(ns: argparse.Namespace, config_file) -> RunSpec:
    """Each option from its flag, else the config file, else its default."""
    path = ns.config if ns.config is not None else config_file
    cfg = _read_config(path) if path is not None else {}
    values = {}
    for key, f in _OPTIONS.items():
        value = getattr(ns, f.name)
        if value is None:
            value = cfg.get(key)
        if value is not None:
            values[f.name] = value
    return RunSpec(command=ns.command, **values)


def _build_mesh(spec: RunSpec):
    if spec.mesh_file is not None:
        mesh = read_off_mesh(spec.mesh_file)
    else:
        mesh = build_icosphere(spec.mesh_level)
    if spec.metric_amplitude != 0.0:
        phi = random_band_field(
            mesh, spec.metric_seed, spec.bands, spec.metric_amplitude
        )
        mesh = set_conformal_background(mesh, phi, normalize=True)
    return mesh


def _operators(spec: RunSpec):
    return assemble_operators(_build_mesh(spec))


def _given(**options) -> dict:
    """The options the user set; the library's own defaults fill the rest."""
    return {key: value for key, value in options.items() if value is not None}


def _initial_field(spec: RunSpec, ops, default_amplitude: float):
    amp = default_amplitude if spec.amplitude is None else spec.amplitude
    if amp == 0.0:
        return np.zeros(ops.mass.shape)
    return random_band_field(ops.mesh, spec.seed, spec.bands, amp)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"non-finite value in {path.name}: {exc}") from exc
    path.write_text(text + "\n", encoding="ascii")


# How str() and _g17 spell the values no artifact may contain.
_NON_FINITE = {"nan", "inf", "-inf"}


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        cells = [str(cell) for cell in row]
        if _NON_FINITE.intersection(cells):
            raise NumericError(f"non-finite value in {path.name}: {','.join(cells)}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_trace_csv(path: Path, rows) -> None:
    # Every row's norm is an Euler-Lagrange residual: the mean-field Newton
    # residual, or the minimizer's gradient norm at u, which equals the
    # residual at the unit-volume shift of u.
    out = [
        (int(step), _g17(energy), _g17(norm), _g17(norm)) for step, energy, norm in rows
    ]
    _write_csv(path, "step,energy,grad_norm,el_residual", out)


def _result_json(ops, result) -> dict:
    breakdown = perturbed_functional(ops, result.u_min, result.epsilon)
    return {
        "epsilon": result.epsilon,
        "energy": result.energy,
        "energy_parts": breakdown.as_dict(),
        "el_residual": result.el_residual,
        "peak_value": result.peak_value,
        "peak_vertex": result.peak_vertex,
        "iterations": len(result.iterations),
        "polish_steps": result.polish_steps,
        "constraint_pairing": integrate(ops, ops.curvature * result.u_min),
        "exp_volume": float(np.exp(result.v_field) @ ops.mass),
    }


def _solver_config(spec: RunSpec, eps: float) -> SolverConfig:
    return SolverConfig(
        epsilon=eps,
        **_given(
            max_iterations=spec.max_iterations, gradient_tolerance=spec.tolerance
        ),
    )


def _cmd_minimize(spec: RunSpec, outdir: Path):
    config = _solver_config(spec, spec.epsilons[0])
    ops = _operators(spec)
    initial = _initial_field(spec, ops, default_amplitude=0.0)
    result = minimize_perturbed(ops, config, initial)
    artifacts = ["u_min.csv", "v_field.csv", "trace.csv", "result.json"]
    write_field_csv(outdir / "u_min.csv", result.u_min)
    write_field_csv(outdir / "v_field.csv", result.v_field)
    _write_trace_csv(outdir / "trace.csv", result.iterations)
    _write_json(outdir / "result.json", _result_json(ops, result))
    if spec.plots:
        steps = [row[0] for row in result.iterations]
        energies = [row[1] for row in result.iterations]
        write_line_plot(
            outdir / "energy_trace.svg",
            {"energy": (steps, energies)},
            title="energy vs iteration",
            xlabel="iteration",
            ylabel="energy",
        )
        artifacts.append("energy_trace.svg")
    line = (
        f"minimize: eps={spec.epsilons[0]:g} energy={result.energy:.9f} "
        f"el_residual={result.el_residual:.3e} "
        f"iterations={len(result.iterations)} polish={result.polish_steps}"
    )
    return [line], artifacts


def _cmd_sweep(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    rows, lines = [], []
    warm = _initial_field(spec, ops, default_amplitude=0.0)
    last = None
    for eps in spec.epsilons:
        result = minimize_perturbed(ops, _solver_config(spec, eps), warm)
        warm = result.u_min  # continuation between epsilon stages
        last = result
        rows.append(
            (
                _g17(eps),
                _g17(result.energy),
                _g17(result.el_residual),
                len(result.iterations),
            )
        )
        lines.append(
            f"sweep-eps: eps={eps:g} energy={result.energy:.9f} "
            f"el_residual={result.el_residual:.3e}"
        )
    artifacts = ["sweep.csv", "u_min.csv", "result.json"]
    _write_csv(outdir / "sweep.csv", "epsilon,energy,el_residual,steps", rows)
    write_field_csv(outdir / "u_min.csv", last.u_min)
    _write_json(
        outdir / "result.json",
        {
            "epsilons": list(spec.epsilons),
            "energies": [float(row[1]) for row in rows],
            "final": _result_json(ops, last),
        },
    )
    if spec.plots:
        write_line_plot(
            outdir / "sweep.svg",
            {"energy": (list(spec.epsilons), [float(r[1]) for r in rows])},
            title="minimum energy vs epsilon",
            xlabel="epsilon",
            ylabel="energy",
        )
        artifacts.append("sweep.svg")
    return lines, artifacts


def _cmd_mean_field(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    initial = None
    if spec.amplitude is not None and spec.amplitude != 0.0:
        initial = _initial_field(spec, ops, default_amplitude=0.0)
    result = solve_mean_field(
        ops,
        spec.epsilons[0],
        initial=initial,
        **_given(tolerance=spec.tolerance, max_iterations=spec.max_iterations),
    )
    artifacts = ["v_field.csv", "trace.csv", "result.json"]
    write_field_csv(outdir / "v_field.csv", result.v_field)
    _write_trace_csv(outdir / "trace.csv", result.iterations)
    _write_json(outdir / "result.json", _result_json(ops, result))
    if spec.plots:
        steps = [row[0] for row in result.iterations]
        residuals = [row[2] for row in result.iterations]
        write_line_plot(
            outdir / "residual_trace.svg",
            {"residual": (steps, residuals)},
            title="mean-field residual",
            xlabel="iteration",
            ylabel="log10 residual",
            log_y=True,
        )
        artifacts.append("residual_trace.svg")
    line = (
        f"mean-field: eps={spec.epsilons[0]:g} "
        f"el_residual={result.el_residual:.3e} "
        f"iterations={len(result.iterations) - 1}"
    )
    return [line], artifacts


def _cmd_green(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    result = solve_green(ops, spec.pole)
    artifacts = ["green_field.csv", "green.json"]
    write_field_csv(outdir / "green_field.csv", result.field)
    _write_json(
        outdir / "green.json",
        {
            "pole": result.pole,
            "A_value": result.A_value,
            "fit_window": list(result.fit_window),
            "fit_residual": result.fit_residual,
            "distance_exact": result.distance_exact,
            "integral": integrate(ops, result.field),
        },
    )
    if spec.plots:
        order = np.argsort(result.distances)
        keep = result.distances[order] > 0.5 * ops.mean_edge_length
        dist = result.distances[order][keep]
        series = {"computed": (dist, result.field[order][keep])}
        if _is_round(ops.mesh):
            series["closed_form"] = (dist, -4.0 * np.log(np.sin(dist / 2.0)) - 2.0)
        write_line_plot(
            outdir / "green_vs_distance.svg",
            series,
            title="Green function vs distance",
            xlabel="geodesic distance",
            ylabel="G",
        )
        artifacts.append("green_vs_distance.svg")
    line = (
        f"green: pole={result.pole} A={result.A_value:.6f} "
        f"fit_residual={result.fit_residual:.3e}"
    )
    return [line], artifacts


def _cmd_bubble(spec: RunSpec, outdir: Path):
    radius = spec.bubble_radius
    report = bubble_checks(radius, **_given(quadrature_n=spec.grid_n))
    payload = report.as_dict()
    payload["dirichlet_closed_form"] = bubble_dirichlet_closed_form(radius)
    payload["mass_closed_form"] = bubble_mass_closed_form(radius)
    artifacts = ["bubble.json", "profile.csv"]
    _write_json(outdir / "bubble.json", payload)
    rr = np.linspace(0.0, radius, 513)
    phi = bubble_profile(np.column_stack([rr, np.zeros_like(rr)]))
    _write_csv(
        outdir / "profile.csv",
        "r,phi",
        [(_g17(x), _g17(y)) for x, y in zip(rr, phi)],
    )
    if spec.plots:
        write_line_plot(
            outdir / "profile.svg",
            {"phi0": (rr, phi)},
            title="standard bubble profile",
            xlabel="r",
            ylabel="phi0",
        )
        artifacts.append("profile.svg")
    line = (
        f"bubble: R={radius:g} dirichlet_integral={report.dirichlet_integral:.6f} "
        f"mass_integral={report.mass_integral:.9f} "
        f"pde_residual_max={report.pde_residual_max:.3e}"
    )
    return [line], artifacts


def _cmd_flow(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    u0 = _initial_field(spec, ops, default_amplitude=0.3)
    trace = run_flow(ops, u0, t_end=spec.t_end, dt0=spec.dt0)
    artifacts = ["flow.csv", "final_field.csv", "flow.json"]
    _write_csv(
        outdir / "flow.csv",
        "t,energy,volume,max_curv_dev,dt",
        [
            (_g17(t), _g17(e), _g17(v), _g17(d), _g17(s))
            for t, e, v, d, s in zip(
                trace.times,
                trace.energies,
                trace.volumes,
                trace.curvature_deviation,
                trace.step_sizes,
            )
        ],
    )
    write_field_csv(outdir / "final_field.csv", trace.final_field)
    _write_json(
        outdir / "flow.json",
        {
            "steps": len(trace.times) - 1,
            "final_time": trace.times[-1],
            "final_energy": trace.energies[-1],
            "final_max_curv_dev": trace.curvature_deviation[-1],
            "volume_drift": max(abs(v - trace.volumes[0]) for v in trace.volumes),
        },
    )
    if spec.plots:
        write_line_plot(
            outdir / "flow_energy.svg",
            {"energy": (trace.times, trace.energies)},
            title="flow energy",
            xlabel="t",
            ylabel="energy",
        )
        write_line_plot(
            outdir / "flow_deviation.svg",
            {"max_curv_dev": (trace.times, trace.curvature_deviation)},
            title="curvature deviation",
            xlabel="t",
            ylabel="log10 max deviation",
            log_y=True,
        )
        artifacts.extend(["flow_energy.svg", "flow_deviation.svg"])
    line = (
        f"flow: steps={len(trace.times) - 1} t_end={trace.times[-1]:g} "
        f"final_energy={trace.energies[-1]:.6e} "
        f"final_max_curv_dev={trace.curvature_deviation[-1]:.3e}"
    )
    return [line], artifacts


def _margin_rows(report):
    return [(s, _g17(m)) for s, m in report.sample_margins]


def _cmd_inequalities(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    reports = []
    lines = []
    artifacts = ["inequalities.json"]

    grid = _given(grid_n=spec.grid_n)
    local = check_local_mt(spec.r, spec.samples, spec.seed, **grid)
    reports.append(local)

    gaps = []
    for t in (0.5, 1.0, 2.0, 4.0):
        a = t * np.pi * spec.r * spec.r * np.exp(2.0 * spec.b)
        gaps.append(disk_floor_gap(a, spec.b, spec.r, **grid))
    reports.extend(gaps)

    global_mt = check_global_mt(ops, spec.epsilons[0], spec.trials, spec.seed)
    reports.append(global_mt)

    onofri_ops = ops
    if not _is_round(ops.mesh):
        # The sharp-deficit suite is defined on the round background only,
        # so it runs on the same mesh with the background removed.
        flat = np.zeros(ops.mesh.num_vertices)
        onofri_ops = assemble_operators(set_conformal_background(ops.mesh, flat))
    onofri = onofri_suite(onofri_ops, spec.samples, spec.seed)
    reports.append(onofri)

    poincare = poincare_constant(ops, spec.p, seed=spec.seed)
    reports.append(poincare)

    bm = brezis_merle_check(spec.r, spec.delta, spec.samples, spec.seed, **grid)
    reports.append(bm)

    _write_json(outdir / "inequalities.json", [rep.as_dict() for rep in reports])
    for rep in reports:
        if rep.sample_margins:
            name = f"margins_{rep.name}.csv"
            # Gap reports share a name; disambiguate by parameter.
            if rep.name == "disk_dirichlet_gap":
                name = f"margins_{rep.name}_t{rep.parameters['t']:g}.csv"
            _write_csv(outdir / name, "seed,margin", _margin_rows(rep))
            artifacts.append(name)
        lines.append(
            f"{rep.name}: samples={rep.samples} "
            f"worst_margin={rep.worst_margin:.6e} worst_seed={rep.worst_seed}"
        )
    return lines, artifacts


def _cmd_disk(spec: RunSpec, outdir: Path):
    grid = _given(grid_n=spec.grid_n)
    minimum = disk_min_dirichlet(spec.a, spec.b, spec.r, **grid)
    gap = disk_floor_gap(spec.a, spec.b, spec.r, **grid)
    artifacts = ["disk.json", "profile.csv"]
    _write_json(
        outdir / "disk.json",
        {
            "a": spec.a,
            "b": spec.b,
            "r": spec.r,
            "grid_n": gap.parameters["grid_n"],
            "value": minimum.value,
            "multiplier": minimum.multiplier,
            "residual": minimum.residual,
            "bound": gap.parameters["bound"],
            "margin": gap.worst_margin,
            "t": gap.parameters["t"],
        },
    )
    _write_csv(
        outdir / "profile.csv",
        "r,w",
        [(_g17(x), _g17(y)) for x, y in zip(minimum.radii, minimum.profile)],
    )
    if spec.plots:
        write_line_plot(
            outdir / "profile.svg",
            {"w": (minimum.radii, minimum.profile)},
            title="constrained disk minimizer",
            xlabel="rho",
            ylabel="w",
        )
        artifacts.append("profile.svg")
    line = (
        f"disk: value={minimum.value:.9f} bound={gap.parameters['bound']:.9f} "
        f"margin={gap.worst_margin:.3e}"
    )
    return [line], artifacts


def _cmd_mesh_info(spec: RunSpec, outdir: Path):
    ops = _operators(spec)
    mesh = ops.mesh
    euler = mesh.num_vertices - mesh.num_edges + mesh.num_faces
    artifacts = ["mesh.off", "mesh_info.json"]
    write_off_mesh(outdir / "mesh.off", mesh)
    _write_json(
        outdir / "mesh_info.json",
        {
            "vertices": mesh.num_vertices,
            "edges": mesh.num_edges,
            "faces": mesh.num_faces,
            "euler_characteristic": euler,
            "total_area": ops.total_area,
            "flat_area": ops.flat_area,
            "mass_correction": ops.mass_correction,
            "mean_edge_length": ops.mean_edge_length,
            "curvature_min": float(ops.curvature.min()),
            "curvature_max": float(ops.curvature.max()),
        },
    )
    lines = [
        f"V={mesh.num_vertices} E={mesh.num_edges} F={mesh.num_faces} "
        f"euler={euler}",
        f"total_area={ops.total_area:.12f} mean_edge={ops.mean_edge_length:.6f} "
        f"mass_correction={ops.mass_correction:.9f}",
        f"curvature range [{ops.curvature.min():.6f}, {ops.curvature.max():.6f}]",
    ]
    return lines, artifacts


_HANDLERS = {
    "minimize": _cmd_minimize,
    "sweep-eps": _cmd_sweep,
    "mean-field": _cmd_mean_field,
    "green": _cmd_green,
    "bubble": _cmd_bubble,
    "flow": _cmd_flow,
    "inequalities": _cmd_inequalities,
    "disk": _cmd_disk,
    "mesh-info": _cmd_mesh_info,
}


def _locate(exc: BaseException) -> str:
    """Innermost package frame of the failure, preferring public names.

    Frames are matched by their module's import name (``__spec__``), which
    stays ``liouvillelab.cli`` when the CLI runs as ``python -m`` and its
    ``__name__`` is ``__main__``.
    """
    best = "cli.parse_and_run"
    best_public = None
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        spec = frame.f_globals.get("__spec__")
        module = spec.name if spec else frame.f_globals.get("__name__", "")
        if module.startswith("liouvillelab"):
            name = f"{module.rsplit('.', 1)[-1]}.{frame.f_code.co_name}"
            best = name
            if not frame.f_code.co_name.startswith("_"):
                best_public = name
        tb = tb.tb_next
    return best_public or best


def _execute(spec: RunSpec) -> int:
    start = time.perf_counter()
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines, artifacts = _HANDLERS[spec.command](spec, outdir)
    from . import __version__

    manifest = {
        "command": spec.command,
        "parameters": asdict(spec),
        "artifacts": sorted(artifacts),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed_scheme": _SEED_SCHEME,
        "wall_time_seconds": round(time.perf_counter() - start, 3),
    }
    _write_json(outdir / "run_manifest.json", manifest)
    for line in lines:
        print(line)
    return 0


def parse_and_run(argv, config_file=None) -> int:
    """Run one harness command; returns the process exit status.

    Exit codes: 0 success, 2 parameter or input-data errors, 3 convergence
    or resolution failures, 4 numerical breakdown.  Error messages name the
    package module and operation that failed.
    """
    try:
        # Converters run inside parse_args, so a bad --eps list raises here.
        ns = _build_parser().parse_args(list(argv))
        return _execute(_resolve(ns, config_file))
    except SystemExit as exc:  # argparse: --help, or a malformed command line
        return 0 if exc.code in (0, None) else 2
    except (ParameterError, DataError, MeshQualityError) as exc:
        print(f"{type(exc).__name__} in {_locate(exc)}: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ResolutionError) as exc:
        print(f"{type(exc).__name__} in {_locate(exc)}: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"{type(exc).__name__} in {_locate(exc)}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()

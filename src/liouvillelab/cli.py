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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from .energy import _check_epsilon, _exp_weights, perturbed_functional
from .errors import (
    ConvergenceError,
    DataError,
    MeshQualityError,
    NumericError,
    ParameterError,
    ResolutionError,
    _text,
    _write,
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
    _disk_gap,
    brezis_merle_check,
    check_global_mt,
    check_local_mt,
    onofri_suite,
    poincare_constant,
    disk_floor_gap,
)
from .mesh import (
    _arcs,
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


def _option(key: str, default, convert, help_text: str, readers, lists=()):
    """A RunSpec field that is also the flag --<key> and the config key <key>.

    ``readers`` are the commands that read it, ``lists`` those that take
    more than one value.  A boolean option defaulting to True is switched
    off by --no-<key>.
    """
    meta = dict(key=key, convert=convert, help=help_text, readers=readers, lists=lists)
    return field(default=default, metadata=meta)


_MINIMIZERS = ("minimize", "sweep-eps", "mean-field")
_STARTS = (*_MINIMIZERS, "flow")  # the commands that draw a start field
_MESHES = (*_STARTS, "green", "inequalities", "mesh-info")
_ALL = (*_MESHES, "bubble", "disk")
_INEQ, _DISKS = ("inequalities",), ("inequalities", "disk")


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved inputs of one harness run, and the CLI's option table.

    Every field but ``command`` is one option: its metadata names the flag
    and config key, the converter from text and the commands that read it.
    tolerance, max_iterations and grid_n default to None, meaning "use the
    library function's own default"; amplitude defaults to None, meaning
    "use the command's own start"; output_dir defaults to runs/<command>.
    Up front, before any work, it checks the command, that every float
    option is finite (JSON has no NaN or inf), that only a list reader gets
    more than one value, and every --eps against the library's epsilon
    rule, (0, 8*pi), so a sweep cannot fail at a late stage on a bad value.
    The rule also covers the inequalities command, whose --eps goes to
    check_global_mt, although that function accepts any positive epsilon.
    Every other range is left to the library call, which raises the same
    ParameterError for CLI and programmatic use.
    """

    command: str
    mesh_level: int = _option("level", 4, int, "icosphere level", _MESHES)
    metric_seed: int = _option("metric-seed", 0, int, "background field seed", _MESHES)
    metric_amplitude: float = _option(
        "metric-amp", 0.0, float, "background field amplitude (0: round)", _MESHES
    )
    epsilons: tuple = _option(
        "eps", (0.5,), _parse_eps, "epsilon (a comma-separated list for sweep-eps)",
        (*_MINIMIZERS, *_INEQ), lists=("sweep-eps",),
    )
    seed: int = _option(
        "seed", 0, int, "top-level seed for all sampling", (*_STARTS, *_INEQ)
    )
    tolerance: float | None = _option("tol", None, float, "solver tolerance", _MINIMIZERS)
    max_iterations: int | None = _option(
        "max-iter", None, int, "solver iteration cap", _MINIMIZERS
    )
    output_dir: str | None = _option(
        "out", None, str, "output directory (default runs/<command>)", _ALL
    )
    mesh_file: str | None = _option("mesh-file", None, str, "OFF mesh to load", _MESHES)
    bands: int = _option("bands", 8, int, "band limit of random fields", _MESHES)
    amplitude: float | None = _option("amp", None, float, "initial field size", _STARTS)
    pole: int = _option("pole", 0, int, "Green function pole vertex", ("green",))
    bubble_radius: float = _option("R", 1.0, float, "bubble radius", ("bubble",))
    t_end: float = _option("t-end", 10.0, float, "flow end time", ("flow",))
    dt0: float = _option("dt0", 0.01, float, "initial flow step", ("flow",))
    a: float = _option("a", float(np.pi), float, "disk volume constraint", ("disk",))
    b: float = _option("b", 0.0, float, "disk boundary value", _DISKS)
    r: float = _option("r", 1.0, float, "disk radius", _DISKS)
    grid_n: int | None = _option(
        "grid-n", None, int, "radial grid size", ("bubble", *_DISKS)
    )
    samples: int = _option("samples", 200, int, "samples per inequality suite", _INEQ)
    trials: int = _option("trials", 5, int, "global ascent trials", _INEQ)
    p: float = _option("p", 2.0, float, "norm exponent", _INEQ)
    delta: float = _option("delta", float(2.0 * np.pi), float, "Brezis-Merle delta", _INEQ)
    plots: bool = _option("plots", True, _parse_bool, "skip SVG figures", _ALL)

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise ParameterError(f"unknown command '{self.command}'")
        if not self.epsilons:
            raise ParameterError("at least one epsilon value is required")
        for key, f in _OPTIONS.items():
            value, lists = getattr(self, f.name), f.metadata["lists"]
            if isinstance(value, tuple) and len(value) > 1 and self.command not in lists:
                raise ParameterError(
                    f"--{key} takes one value for {self.command}; "
                    f"only {', '.join(lists)} takes a list"
                )
            # The manifest may record the option, and JSON has no NaN or inf.
            if isinstance(value, float) and not np.isfinite(value):
                raise ParameterError(f"--{key} must be finite, got {value}")
        for eps in self.epsilons:
            _check_epsilon(eps)
        if self.output_dir is None:
            object.__setattr__(self, "output_dir", str(Path("runs") / self.command))


# Config key -> RunSpec field; config keys are the flags without dashes.
_OPTIONS = {f.metadata["key"]: f for f in fields(RunSpec) if f.metadata}


def _read_config(path) -> dict:
    """Config key -> (value, where the file gives it)."""
    values: dict = {}
    for lineno, raw in enumerate(_text(path, "utf-8-sig").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        where = f"config key '{key}' (line {lineno})"
        if key not in _OPTIONS:
            raise ParameterError(f"unknown {where}")
        if key in values:
            raise ParameterError(f"duplicate {where}")
        try:
            values[key] = (_OPTIONS[key].metadata["convert"](val), where)
        except ValueError as exc:
            raise ParameterError(f"bad value for {where}: {exc}") from exc
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
        text = f"{f.metadata['help']} [{', '.join(f.metadata['readers'])}]"
        if f.default is True:
            parser.add_argument(
                f"--no-{key}", action="store_const", const=False, dest=f.name, help=text
            )
        else:
            parser.add_argument(
                f"--{key}", type=f.metadata["convert"], dest=f.name,
                metavar=key.upper().replace("-", "_"), help=text,
            )
    return parser


def _resolve(ns: argparse.Namespace) -> RunSpec:
    """Each option from its flag, else the config file, else its default;
    an option the command does not read, or a level with a mesh file, is
    refused before any work."""
    given = _read_config(ns.config) if ns.config is not None else {}
    for key, f in _OPTIONS.items():
        if getattr(ns, f.name) is not None:
            given[key] = (getattr(ns, f.name), f"--{key}")
    for key, (_, where) in given.items():
        if ns.command not in _OPTIONS[key].metadata["readers"]:
            raise ParameterError(f"{ns.command} does not read {where}")
    if "level" in given and "mesh-file" in given:
        raise ParameterError(
            f"{given['level'][1]} and {given['mesh-file'][1]} both name the mesh"
        )
    values = {_OPTIONS[key].name: value for key, (value, _) in given.items()}
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
    _write(path, text + "\n")


# How str() and _g17 spell the values no artifact may contain.
_NON_FINITE = {"nan", "inf", "-inf"}


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        cells = [str(cell) for cell in row]
        if _NON_FINITE.intersection(cells):
            raise NumericError(f"non-finite value in {path.name}: {','.join(cells)}")
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


class _Artifacts:
    """The run's output directory, recording the name of each file written.

    One method per file kind; ``plot`` writes nothing when plots are off.
    ``names`` becomes the manifest's artifact list.
    """

    def __init__(self, outdir: Path, plots: bool):
        self.outdir, self.plots, self.names = outdir, plots, []
        if outdir.exists():
            self._mkdir()  # refuses an --out naming a file before any work

    def _mkdir(self):
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {self.outdir}: {exc}") from exc

    def _path(self, name: str) -> Path:
        if not self.names:
            self._mkdir()  # at the first write, so a run that fails first leaves none
        self.names.append(name)
        return self.outdir / name

    def json(self, name, obj):
        _write_json(self._path(name), obj)

    def csv(self, name, header, rows):
        _write_csv(self._path(name), header, rows)

    def field(self, name, values):
        write_field_csv(self._path(name), values)

    def mesh(self, name, mesh):
        write_off_mesh(self._path(name), mesh)

    def plot(self, name, series, **labels):
        if self.plots:
            write_line_plot(self._path(name), series, **labels)


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
        "exp_volume": float(_exp_weights(ops, result.v_field).sum()),
    }


def _write_result(out: _Artifacts, ops, result, figure, series, column, **labels):
    """v_field.csv, trace.csv and result.json, then the trace figure.

    The figure plots trace column ``column`` (1 energy, 2 residual) against
    the step.  Every trace row's norm is the minimizer's gradient norm at u,
    which equals the Euler-Lagrange residual at the unit-volume shift of u;
    ``mean-field`` runs the same minimizer.
    """
    rows = result.iterations
    out.field("v_field.csv", result.v_field)
    out.csv(
        "trace.csv",
        "step,energy,grad_norm,el_residual",
        [(int(step), _g17(e), _g17(norm), _g17(norm)) for step, e, norm in rows],
    )
    out.json("result.json", _result_json(ops, result))
    steps = [row[0] for row in rows]
    out.plot(
        figure, {series: (steps, [row[column] for row in rows])},
        xlabel="iteration", **labels,
    )


def _solver_config(spec: RunSpec, eps: float) -> SolverConfig:
    return SolverConfig(
        epsilon=eps,
        **_given(
            max_iterations=spec.max_iterations, gradient_tolerance=spec.tolerance
        ),
    )


def _cmd_minimize(spec: RunSpec, out: _Artifacts):
    config = _solver_config(spec, spec.epsilons[0])
    ops = _operators(spec)
    initial = _initial_field(spec, ops, default_amplitude=0.0)
    result = minimize_perturbed(ops, config, initial)
    out.field("u_min.csv", result.u_min)
    _write_result(
        out, ops, result, "energy_trace.svg", series="energy", column=1,
        title="energy vs iteration", ylabel="energy",
    )
    return [
        f"minimize: eps={spec.epsilons[0]:g} energy={result.energy:.9f} "
        f"el_residual={result.el_residual:.3e} "
        f"iterations={len(result.iterations)} polish={result.polish_steps}"
    ]


def _cmd_sweep(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    rows, lines = [], []
    warm = _initial_field(spec, ops, default_amplitude=0.0)
    for eps in spec.epsilons:
        result = minimize_perturbed(ops, _solver_config(spec, eps), warm)
        warm = result.u_min  # continuation between epsilon stages
        rows.append(
            (_g17(eps), _g17(result.energy), _g17(result.el_residual),
             len(result.iterations))
        )
        lines.append(
            f"sweep-eps: eps={eps:g} energy={result.energy:.9f} "
            f"el_residual={result.el_residual:.3e}"
        )
    energies = [float(row[1]) for row in rows]
    out.csv("sweep.csv", "epsilon,energy,el_residual,steps", rows)
    out.field("u_min.csv", result.u_min)
    out.json(
        "result.json",
        {
            "epsilons": list(spec.epsilons),
            "energies": energies,
            "final": _result_json(ops, result),
        },
    )
    out.plot(
        "sweep.svg",
        {"energy": (list(spec.epsilons), energies)},
        title="minimum energy vs epsilon",
        xlabel="epsilon",
        ylabel="energy",
    )
    return lines


def _cmd_mean_field(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    result = solve_mean_field(
        ops,
        spec.epsilons[0],
        initial=_initial_field(spec, ops, default_amplitude=0.0),
        **_given(tolerance=spec.tolerance, max_iterations=spec.max_iterations),
    )
    _write_result(
        out, ops, result, "residual_trace.svg", series="residual", column=2,
        title="mean-field residual", ylabel="residual", log_y=True,
    )
    return [
        f"mean-field: eps={spec.epsilons[0]:g} "
        f"el_residual={result.el_residual:.3e} "
        f"iterations={len(result.iterations) - 1}"
    ]


def _cmd_green(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    result = solve_green(ops, spec.pole)
    out.field("green_field.csv", result.field)
    out.json(
        "green.json",
        {
            "pole": result.pole,
            "A_value": result.A_value,
            "fit_window": list(result.fit_window),
            "fit_residual": result.fit_residual,
            "distance_exact": result.distance_exact,
            "integral": integrate(ops, result.field),
        },
    )
    arcs = _arcs(ops.mesh, result.pole)  # any background: G_g + phi = G_round + const
    order = np.argsort(arcs)
    keep = arcs[order] > 0.5 * ops.mean_edge_length
    dist = arcs[order][keep]
    series = {"computed": (dist, result.field[order][keep])}
    if _is_round(ops.mesh):
        series["closed_form"] = (dist, -4.0 * np.log(np.sin(dist / 2.0)) - 2.0)
    out.plot(
        "green_vs_distance.svg", series, title="Green function vs distance",
        xlabel="round distance", ylabel="G",
    )
    return [
        f"green: pole={result.pole} A={result.A_value:.6f} "
        f"fit_residual={result.fit_residual:.3e}"
    ]


def _cmd_bubble(spec: RunSpec, out: _Artifacts):
    radius = spec.bubble_radius
    report = bubble_checks(radius, **_given(quadrature_n=spec.grid_n))
    payload = report.as_dict()
    payload["dirichlet_closed_form"] = bubble_dirichlet_closed_form(radius)
    payload["mass_closed_form"] = bubble_mass_closed_form(radius)
    out.json("bubble.json", payload)
    rr = np.linspace(0.0, radius, 513)
    phi = bubble_profile(np.column_stack([rr, np.zeros_like(rr)]))
    out.csv("profile.csv", "r,phi", [(_g17(x), _g17(y)) for x, y in zip(rr, phi)])
    out.plot(
        "profile.svg",
        {"phi0": (rr, phi)},
        title="standard bubble profile",
        xlabel="r",
        ylabel="phi0",
    )
    return [
        f"bubble: R={radius:g} dirichlet_integral={report.dirichlet_integral:.6f} "
        f"mass_integral={report.mass_integral:.9f} "
        f"pde_residual_max={report.pde_residual_max:.3e}"
    ]


def _cmd_flow(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    u0 = _initial_field(spec, ops, default_amplitude=0.3)
    trace = run_flow(ops, u0, t_end=spec.t_end, dt0=spec.dt0)
    columns = (
        trace.times, trace.energies, trace.volumes, trace.curvature_deviation,
        trace.step_sizes,
    )
    rows = [tuple(map(_g17, row)) for row in zip(*columns)]
    out.csv("flow.csv", "t,energy,volume,max_curv_dev,dt", rows)
    out.field("final_field.csv", trace.final_field)
    out.json(
        "flow.json",
        {
            "steps": len(trace.times) - 1,
            "final_time": trace.times[-1],
            "final_energy": trace.energies[-1],
            "final_max_curv_dev": trace.curvature_deviation[-1],
            "volume_drift": max(abs(v - trace.volumes[0]) for v in trace.volumes),
        },
    )
    out.plot(
        "flow_energy.svg",
        {"energy": (trace.times, trace.energies)},
        title="flow energy",
        xlabel="t",
        ylabel="energy",
    )
    out.plot(
        "flow_deviation.svg",
        {"max_curv_dev": (trace.times, trace.curvature_deviation)},
        title="curvature deviation",
        xlabel="t",
        ylabel="max deviation",
        log_y=True,
    )
    return [
        f"flow: steps={len(trace.times) - 1} t_end={trace.times[-1]:g} "
        f"final_energy={trace.energies[-1]:.6e} "
        f"final_max_curv_dev={trace.curvature_deviation[-1]:.3e}"
    ]


def _cmd_inequalities(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    grid = _given(grid_n=spec.grid_n)
    reports = [check_local_mt(spec.r, spec.samples, spec.seed, **grid)]
    for t in (0.5, 1.0, 2.0, 4.0):
        a = t * np.pi * spec.r * spec.r * np.exp(2.0 * spec.b)
        reports.append(disk_floor_gap(a, spec.b, spec.r, **grid))
    reports.append(check_global_mt(ops, spec.epsilons[0], spec.trials, spec.seed))

    onofri_ops = ops
    if not _is_round(ops.mesh):
        # The sharp-deficit suite is defined on the round background only,
        # so it runs on the same mesh with the background removed.
        flat = np.zeros(ops.mesh.num_vertices)
        onofri_ops = assemble_operators(set_conformal_background(ops.mesh, flat))
    reports.append(onofri_suite(onofri_ops, spec.samples, spec.seed))
    reports.append(poincare_constant(ops, spec.p, seed=spec.seed))
    reports.append(
        brezis_merle_check(spec.r, spec.delta, spec.samples, spec.seed, **grid)
    )

    lines = []
    out.json("inequalities.json", [rep.as_dict() for rep in reports])
    for rep in reports:
        if rep.sample_margins:
            name = f"margins_{rep.name}.csv"
            # Gap reports share a name; disambiguate by parameter.
            if rep.name == "disk_dirichlet_gap":
                name = f"margins_{rep.name}_t{rep.parameters['t']:g}.csv"
            out.csv(name, "seed,margin", [(s, _g17(m)) for s, m in rep.sample_margins])
        lines.append(
            f"{rep.name}: samples={rep.samples} "
            f"worst_margin={rep.worst_margin:.6e} worst_seed={rep.worst_seed}"
        )
    return lines


def _cmd_disk(spec: RunSpec, out: _Artifacts):
    minimum = disk_min_dirichlet(spec.a, spec.b, spec.r, **_given(grid_n=spec.grid_n))
    gap = _disk_gap(minimum, spec.a, spec.b, spec.r)
    out.json(
        "disk.json",
        {
            **gap.parameters,
            "multiplier": minimum.multiplier,
            "residual": minimum.residual,
            "margin": gap.worst_margin,
        },
    )
    out.csv(
        "profile.csv",
        "r,w",
        [(_g17(x), _g17(y)) for x, y in zip(minimum.radii, minimum.profile)],
    )
    out.plot(
        "profile.svg",
        {"w": (minimum.radii, minimum.profile)},
        title="constrained disk minimizer",
        xlabel="rho",
        ylabel="w",
    )
    return [
        f"disk: value={minimum.value:.9f} bound={gap.parameters['bound']:.9f} "
        f"margin={gap.worst_margin:.3e}"
    ]


def _cmd_mesh_info(spec: RunSpec, out: _Artifacts):
    ops = _operators(spec)
    mesh = ops.mesh
    euler = mesh.num_vertices - mesh.num_edges + mesh.num_faces
    out.mesh("mesh.off", mesh)
    out.json(
        "mesh_info.json",
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
    return [
        f"V={mesh.num_vertices} E={mesh.num_edges} F={mesh.num_faces} "
        f"euler={euler}",
        f"total_area={ops.total_area:.12f} mean_edge={ops.mean_edge_length:.6f} "
        f"mass_correction={ops.mass_correction:.9f}",
        f"curvature range [{ops.curvature.min():.6f}, {ops.curvature.max():.6f}]",
    ]


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
    ``__name__`` is ``__main__``.  A method of a private class is private
    too; its class is read off ``self``, since ``co_qualname`` needs
    Python 3.11.
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
            owner = type(frame.f_locals.get("self")).__name__
            if not (frame.f_code.co_name.startswith("_") or owner.startswith("_")):
                best_public = name
        tb = tb.tb_next
    return best_public or best


def _execute(spec: RunSpec) -> int:
    start = time.perf_counter()
    out = _Artifacts(Path(spec.output_dir), spec.plots)
    lines = _HANDLERS[spec.command](spec, out)
    from . import __version__

    read = [f.name for f in _OPTIONS.values() if spec.command in f.metadata["readers"]]
    if spec.mesh_file is not None:  # the file replaces the level
        read.remove("mesh_level")
    manifest = {
        "command": spec.command,
        "parameters": {"command": spec.command, **{k: getattr(spec, k) for k in read}},
        "artifacts": sorted(out.names),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed_scheme": _SEED_SCHEME,
        "wall_time_seconds": round(time.perf_counter() - start, 3),
    }
    out.json("run_manifest.json", manifest)
    for line in lines:
        print(line)
    return 0


_EXIT_CODES = {
    ParameterError: 2,
    DataError: 2,
    MeshQualityError: 2,
    ConvergenceError: 3,
    ResolutionError: 3,
    NumericError: 4,
}


def parse_and_run(argv) -> int:
    """Run one harness command; returns the process exit status.

    Exit codes: 0 success, 2 parameter or input-data errors, 3 convergence
    or resolution failures, 4 numerical breakdown.  Error messages name the
    package module and operation that failed.
    """
    try:
        # Converters run inside parse_args, so a bad --eps list raises here.
        ns = _build_parser().parse_args(list(argv))
        return _execute(_resolve(ns))
    except SystemExit as exc:  # argparse: --help, or a malformed command line
        return 0 if exc.code in (0, None) else 2
    except tuple(_EXIT_CODES) as exc:
        print(f"{type(exc).__name__} in {_locate(exc)}: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()

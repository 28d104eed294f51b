"""Every count, index and seed a public entry point takes is refused with a
ParameterError when it is not an integer in range; real parameters are
refused when they are not finite.  Every per-vertex field is refused with a
DataError naming it when it is not one finite real entry per vertex."""

import inspect
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import liouvillelab as L
from liouvillelab import DataError, ParameterError
from liouvillelab.errors import _MAX_GRID

# Parameter names that hold a count, an index or a seed wherever they occur.
INTEGER_NAMES = {
    "level", "seed", "bands", "samples", "trials", "modes", "starts",
    "iterations", "grid_n", "quadrature_n", "max_iterations", "pole", "source",
    "expected_vertices",
}


def _read_one_row(expected_vertices):
    # One row, so a cast would accept True and 1.0 as its count.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        L.write_field_csv(path, [0.0])
        return L.read_field_csv(path, expected_vertices)


# (entry point, integer parameter) -> (call with that parameter set to the
# given value and every other argument valid, the integer just below its
# range).  Each row is refused at 2.5, at True, below its range, and at the
# fraction just inside its range, which a truncating cast would accept.
COUNTS = {
    ("build_icosphere", "level"): (lambda ops, v: L.build_icosphere(v), -1),
    ("random_band_field", "seed"): (lambda ops, v: L.random_band_field(ops.mesh, v, 3, 0.5), -1),
    ("random_band_field", "bands"): (lambda ops, v: L.random_band_field(ops.mesh, 0, v, 0.5), 0),
    ("geodesic_distances", "source"): (lambda ops, v: L.geodesic_distances(ops, v), -1),
    ("read_field_csv", "expected_vertices"): (lambda ops, v: _read_one_row(v), -1),
    ("solve_green", "pole"): (lambda ops, v: L.solve_green(ops, v), -1),
    ("bubble_checks", "quadrature_n"): (lambda ops, v: L.bubble_checks(1.0, v), 15),
    ("disk_min_dirichlet", "grid_n"): (
        lambda ops, v: L.disk_min_dirichlet(np.pi, 0.0, 1.0, v), 255
    ),
    ("disk_floor_gap", "grid_n"): (lambda ops, v: L.disk_floor_gap(np.pi, 0.0, 1.0, v), 255),
    ("SolverConfig", "max_iterations"): (lambda ops, v: L.SolverConfig(0.5, max_iterations=v), 0),
    ("solve_mean_field", "max_iterations"): (
        lambda ops, v: L.solve_mean_field(ops, 0.5, max_iterations=v), 0
    ),
    ("sample_seed", "seed"): (lambda ops, v: L.sample_seed(v, 0), -1),
    ("check_local_mt", "samples"): (lambda ops, v: L.check_local_mt(1.0, v, 0), 0),
    ("check_local_mt", "seed"): (lambda ops, v: L.check_local_mt(1.0, 3, v), -1),
    ("check_local_mt", "modes"): (lambda ops, v: L.check_local_mt(1.0, 3, 0, modes=v), 0),
    ("check_local_mt", "grid_n"): (lambda ops, v: L.check_local_mt(1.0, 3, 0, grid_n=v), 255),
    ("check_global_mt", "trials"): (lambda ops, v: L.check_global_mt(ops, 0.5, v, 0), 0),
    ("check_global_mt", "seed"): (lambda ops, v: L.check_global_mt(ops, 0.5, 2, v), -1),
    ("onofri_suite", "samples"): (lambda ops, v: L.onofri_suite(ops, v, 0), 0),
    ("onofri_suite", "seed"): (lambda ops, v: L.onofri_suite(ops, 3, v), -1),
    ("poincare_constant", "modes"): (lambda ops, v: L.poincare_constant(ops, 2.0, modes=v), 0),
    ("poincare_constant", "starts"): (
        lambda ops, v: L.poincare_constant(ops, 3.0, starts=v, iterations=5), 0
    ),
    ("poincare_constant", "seed"): (
        lambda ops, v: L.poincare_constant(ops, 3.0, starts=2, seed=v, iterations=5), -1
    ),
    ("poincare_constant", "iterations"): (
        lambda ops, v: L.poincare_constant(ops, 3.0, starts=2, iterations=v), -1
    ),
    ("brezis_merle_check", "samples"): (lambda ops, v: L.brezis_merle_check(1.0, np.pi, v, 0), 0),
    ("brezis_merle_check", "seed"): (lambda ops, v: L.brezis_merle_check(1.0, np.pi, 3, v), -1),
    ("brezis_merle_check", "grid_n"): (
        lambda ops, v: L.brezis_merle_check(1.0, np.pi, 3, 0, grid_n=v), 255
    ),
}

# The 1D grid sizes, which are also refused just above _MAX_GRID, before
# numpy would try to allocate them.
GRID_ROWS = {
    ("bubble_checks", "quadrature_n"),
    ("disk_min_dirichlet", "grid_n"),
    ("disk_floor_gap", "grid_n"),
    ("check_local_mt", "grid_n"),
    ("brezis_merle_check", "grid_n"),
}

CASES = [
    pytest.param(call, value, id=f"{entry}-{name}-{label}")
    for (entry, name), (call, below) in COUNTS.items()
    for label, value in (
        ("2.5", 2.5), ("True", True), ("below", below), ("fraction", below + 1.5),
        *((("above", _MAX_GRID + 1),) if (entry, name) in GRID_ROWS else ()),
    )
]


@pytest.mark.parametrize(("call", "value"), CASES)
def test_integer_parameter_refused(ops2, call, value):
    with pytest.raises(ParameterError):
        call(ops2, value)


@pytest.mark.parametrize(
    "call",
    [
        lambda ops: L.random_band_field(ops.mesh, 0, 3, np.nan),
        lambda ops: L.random_band_field(ops.mesh, 0, 3, np.inf),
        lambda ops: L.SolverConfig(0.5, max_iterations=np.nan),
        # p = 2 takes no sample, so only the up-front check sees its seed.
        lambda ops: L.poincare_constant(ops, 2.0, seed=1.5),
    ],
    ids=[
        "band-amplitude-nan",
        "band-amplitude-inf",
        "config-max-iterations-nan",
        "poincare-p2-seed",
    ],
)
def test_non_finite_or_fractional_parameter_refused(ops2, call):
    with pytest.raises(ParameterError):
        call(ops2)


def _entry_points():
    for name in L.__all__:
        value = getattr(L, name)
        if isinstance(value, type) and "__post_init__" not in vars(value):
            continue  # a result record or an exception: it checks nothing
        if callable(value):
            yield name, value


def test_table_covers_every_integer_parameter():
    # A new entry point with a count, index or seed needs a row above.
    found = {
        (name, param)
        for name, value in _entry_points()
        for param in inspect.signature(value).parameters
        if param in INTEGER_NAMES
    }
    assert found == set(COUNTS)


# Parameter names that hold a per-vertex field wherever they occur.
FIELD_NAMES = {"u", "u0", "initial", "f", "phi", "values", "v", "background_factor"}

# (entry point, name in the refusal) -> call with that field set to the given
# array and every other argument valid.  Each row is refused one entry
# short, with a NaN, an inf or a string entry, and as a bool or complex array.
FIELDS = {
    ("TriangulatedSphere", "background_factor"): (
        lambda ops, x: L.TriangulatedSphere(ops.mesh.vertices, ops.mesh.faces, x)
    ),
    ("set_conformal_background", "phi"): lambda ops, x: L.set_conformal_background(ops.mesh, x),
    ("sample_field", "values"): lambda ops, x: L.sample_field(ops.mesh, x, ops.mesh.vertices[:3]),
    ("integrate", "f"): lambda ops, x: L.integrate(ops, x),
    ("dirichlet_energy", "u"): lambda ops, x: L.dirichlet_energy(ops, x),
    ("log_volume", "u"): lambda ops, x: L.log_volume(ops, x),
    ("liouville_energy", "u"): lambda ops, x: L.liouville_energy(ops, x),
    ("perturbed_functional", "u"): lambda ops, x: L.perturbed_functional(ops, x, 0.5),
    ("perturbed_gradient", "u"): lambda ops, x: L.perturbed_gradient(ops, x, 0.5),
    ("onofri_deficit", "u"): lambda ops, x: L.onofri_deficit(ops, x),
    ("conformal_curvature", "u"): lambda ops, x: L.conformal_curvature(ops, x),
    ("project_constraint", "u"): lambda ops, x: L.project_constraint(ops, x),
    ("minimize_perturbed", "initial"): (
        lambda ops, x: L.minimize_perturbed(ops, L.SolverConfig(0.5), x)
    ),
    ("solve_mean_field", "initial"): lambda ops, x: L.solve_mean_field(ops, 0.5, x),
    ("flow_step", "u"): lambda ops, x: L.flow_step(ops, x, 0.01),
    ("run_flow", "u0"): lambda ops, x: L.run_flow(ops, x, 0.1),
    ("rescale_diagnostic", "v"): lambda ops, x: L.rescale_diagnostic(x, ops, 1.0),
    # The field is an attribute of the GreenResult, so the walk below
    # cannot see it; the other attributes are never read.
    ("extract_A", "green.field"): (
        lambda ops, x: L.extract_A(L.GreenResult(x, 0, 0.0, (0.0, 0.0), 0.0, None, True), ops)
    ),
}

# Field parameters with a rule of their own, and why.
OWN_RULE = {
    # The writer's finiteness test is the self-check on the lab's own
    # artifacts: a non-finite value there is a NumericError (CLI exit 4),
    # not bad input (exit 2).
    ("write_field_csv", "values"),
}


def _bad_fields(n):
    short = np.zeros(n - 1)
    nan, inf = np.zeros(n), np.zeros(n)
    nan[0], inf[-1] = np.nan, np.inf
    string = [0.0] * (n - 1) + ["0.5"]  # a float cast would accept it
    complex_ = np.zeros(n, dtype=complex)
    complex_[0] = 1j  # a float cast would drop it with a warning
    return {
        "short": short,
        "nan": nan,
        "inf": inf,
        "string": string,
        "bool": np.ones(n, dtype=bool),
        "complex": complex_,
    }


FIELD_CASES = [
    pytest.param(call, name, label, id=f"{entry}-{name}-{label}")
    for (entry, name), call in FIELDS.items()
    for label in _bad_fields(2)
]


@pytest.mark.parametrize(("call", "name", "label"), FIELD_CASES)
def test_field_refused(ops2, call, name, label):
    bad = _bad_fields(len(ops2.mass))[label]
    with pytest.raises(DataError, match=rf"^{re.escape(name)} "):
        call(ops2, bad)


def test_field_check_converts_integer_and_strided_input(ops2):
    # Integers are real; a strided view is copied to C order, so a product
    # with it rounds like the contiguous array (BLAS sums a strided dot
    # product in another order).
    n = len(ops2.mass)
    ones = np.ones(n)
    assert L.integrate(ops2, np.ones(n, dtype=np.int32)) == L.integrate(ops2, ones)
    strided = np.stack([ones, ones], axis=1)[:, 0]
    assert L.integrate(ops2, strided) == L.integrate(ops2, ones)


def test_field_table_covers_every_field_parameter():
    # A new entry point with a per-vertex field needs a row above.
    found = {
        (name, param)
        for name, value in _entry_points()
        for param in inspect.signature(value).parameters
        if param in FIELD_NAMES
    }
    walked = {key for key in FIELDS if key[0] != "extract_A"}
    assert found == walked | OWN_RULE

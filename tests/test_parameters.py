"""Every count, index and seed a public entry point takes is refused with a
ParameterError when it is not an integer in range; real parameters are
refused when they are not finite."""

import inspect

import numpy as np
import pytest

import liouvillelab as L
from liouvillelab import ParameterError

# Parameter names that hold a count, an index or a seed wherever they occur.
INTEGER_NAMES = {
    "level", "seed", "bands", "samples", "trials", "modes", "starts",
    "iterations", "grid_n", "quadrature_n", "max_iterations", "pole", "source",
}

# (entry point, integer parameter) -> (call with that parameter set to the
# given value and every other argument valid, the integer just below its
# range).  Each row is refused at 2.5, at True, below its range, and at the
# fraction just inside its range, which a truncating cast would accept.
COUNTS = {
    ("build_icosphere", "level"): (lambda ops, v: L.build_icosphere(v), -1),
    ("random_band_field", "seed"): (lambda ops, v: L.random_band_field(ops.mesh, v, 3, 0.5), -1),
    ("random_band_field", "bands"): (lambda ops, v: L.random_band_field(ops.mesh, 0, v, 0.5), 0),
    ("geodesic_distances", "source"): (lambda ops, v: L.geodesic_distances(ops, v), -1),
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

CASES = [
    pytest.param(call, value, id=f"{entry}-{name}-{label}")
    for (entry, name), (call, below) in COUNTS.items()
    for label, value in (
        ("2.5", 2.5), ("True", True), ("below", below), ("fraction", below + 1.5)
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

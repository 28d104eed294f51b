"""Constrained minimization, mean-field Newton, and the radial disk problem."""

import numpy as np
import pytest

from liouvillelab import (
    EIGHT_PI,
    ConvergenceError,
    DataError,
    MinimizerResult,
    NumericError,
    ParameterError,
    SolverConfig,
    assemble_operators,
    build_icosphere,
    disk_min_dirichlet,
    minimize_perturbed,
    project_constraint,
    random_band_field,
    set_conformal_background,
    solve_mean_field,
)

FOUR_PI = 4.0 * np.pi


def round_energy(epsilon):
    # Closed form on the round sphere: the constant field is the minimizer.
    return -(EIGHT_PI - epsilon) * np.log(FOUR_PI)


# ---------------------------------------------------------------- constraint


def test_project_constraint_constant_maps_to_zero(ops3):
    out = project_constraint(ops3, np.ones(ops3.mass.shape[0]))
    assert np.abs(out).max() <= 1e-14


def test_project_constraint_idempotent(ops3, rng):
    u = rng.standard_normal(ops3.mass.shape[0])
    once = project_constraint(ops3, u)
    twice = project_constraint(ops3, once)
    assert np.abs(twice - once).max() <= 1e-13
    assert abs(float((ops3.curvature * once) @ ops3.mass)) <= 1e-9


def test_project_constraint_odd_field_unchanged(ops3):
    # x3 pairs to zero against the round curvature by symmetry.
    x3 = ops3.mesh.vertices[:, 2]
    out = project_constraint(ops3, x3)
    assert np.abs(out - x3).max() <= 1e-12


def test_project_constraint_rejects_wrong_length(ops3):
    with pytest.raises(DataError):
        project_constraint(ops3, np.zeros(7))


# -------------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -0.5},
        {"epsilon": EIGHT_PI},
        {"epsilon": float("nan")},
        {"epsilon": 0.5, "max_iterations": 0},
        {"epsilon": 0.5, "gradient_tolerance": 0.0},
        {"epsilon": 0.5, "gradient_tolerance": -1e-8},
        {"epsilon": EIGHT_PI + 1.0},
        {"epsilon": 0.5, "max_iterations": -1},
        {"epsilon": 0.5, "gradient_tolerance": float("-inf")},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ParameterError):
        SolverConfig(**kwargs)


def test_config_rejects_nan_tolerance():
    # A NaN tolerance never compares true, so the minimizer would never stop.
    with pytest.raises(ParameterError):
        SolverConfig(epsilon=0.5, gradient_tolerance=float("nan"))


# ----------------------------------------------------------------- minimizer


@pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
def test_round_minimum_matches_closed_form(ops3, epsilon):
    result = minimize_perturbed(ops3, SolverConfig(epsilon=epsilon))
    expected = round_energy(epsilon)
    assert abs(result.energy - expected) <= 1e-8 * abs(expected)
    assert result.u_min.max() - result.u_min.min() < 1e-3


def test_round_minimum_from_rough_start(ops3):
    # A band-limited start must still land on the constant minimizer.
    init = random_band_field(ops3.mesh, 3, 6, 0.4)
    result = minimize_perturbed(ops3, SolverConfig(epsilon=0.25), init)
    expected = round_energy(0.25)
    assert abs(result.energy - expected) <= 1e-8 * abs(expected)
    assert result.u_min.max() - result.u_min.min() < 1e-6


def test_minimizer_invariants_on_bumpy_background(bumpy3):
    result = minimize_perturbed(bumpy3, SolverConfig(epsilon=0.25))
    assert abs(float((bumpy3.curvature * result.u_min) @ bumpy3.mass)) <= 1e-9
    volume = float(np.exp(result.v_field) @ bumpy3.mass)
    assert abs(volume - 1.0) <= 1e-9
    assert result.el_residual < 1e-6
    assert np.isfinite(result.energy)
    # the v-field is the constraint minimizer up to the volume shift
    shift = result.u_min - result.v_field
    assert shift.max() - shift.min() <= 1e-12


def test_energy_trace_nonincreasing(bumpy3):
    result = minimize_perturbed(bumpy3, SolverConfig(epsilon=0.5))
    energies = [row[1] for row in result.iterations]
    slack = 1e-11 * (1.0 + abs(result.energy))
    for earlier, later in zip(energies, energies[1:]):
        assert later <= earlier + slack


def test_peak_fields_consistent(bumpy3):
    result = minimize_perturbed(bumpy3, SolverConfig(epsilon=0.5))
    assert result.peak_value == result.v_field[result.peak_vertex]
    assert result.peak_value == result.v_field.max()


def test_minimizer_budget_exhaustion_carries_best(bumpy3):
    config = SolverConfig(epsilon=0.5, max_iterations=1)
    with pytest.raises(ConvergenceError) as info:
        minimize_perturbed(bumpy3, config)
    best = info.value.best
    assert isinstance(best, MinimizerResult)
    assert np.isfinite(best.energy)
    assert len(info.value.trace) >= 1


@pytest.mark.parametrize("max_iterations", [1, 5, 20])
def test_max_iterations_caps_descent_and_polish(bumpy3, max_iterations):
    # Descent and Newton steps share the budget; the trace adds the start row
    # of each phase.
    config = SolverConfig(epsilon=0.5, max_iterations=max_iterations)
    try:
        rows = minimize_perturbed(bumpy3, config).iterations
    except ConvergenceError as exc:
        rows = exc.trace
    assert len(rows) <= max_iterations + 2


def test_minimizer_rejects_bad_initial(ops2):
    with pytest.raises(DataError):
        minimize_perturbed(ops2, SolverConfig(epsilon=0.5), np.zeros(5))
    bad = np.zeros(ops2.mass.shape[0])
    bad[3] = np.inf
    with pytest.raises(DataError):
        minimize_perturbed(ops2, SolverConfig(epsilon=0.5), bad)


@pytest.mark.filterwarnings("error")
def test_overflowing_start_is_numeric_error(ops2):
    # Finite entries whose energy overflows; the loop must not start on inf.
    huge = random_band_field(ops2.mesh, 0, 4, 1e300)
    with pytest.raises(NumericError, match="overflows"):
        minimize_perturbed(ops2, SolverConfig(epsilon=0.5), huge)


def test_warm_start_sweep_monotone_in_epsilon(bumpy3):
    # Continuation in epsilon: energies decrease as the perturbation shrinks.
    energies = []
    init = None
    for epsilon in (0.5, 0.25, 0.1):
        result = minimize_perturbed(bumpy3, SolverConfig(epsilon=epsilon), init)
        energies.append(result.energy)
        init = result.u_min
    assert energies[0] > energies[1] > energies[2]


def test_band_sweep_takes_newton_steps_from_the_start():
    # The benchmark's band background at level 4.  H1 descent alone cannot
    # move along the near-null conformal modes and needed about 1000 steps
    # per stage at eps <= 0.25; Newton steps finish each stage in a few.
    mesh = build_icosphere(4)
    phi = random_band_field(mesh, 7, 8, 0.3)
    ops = assemble_operators(set_conformal_background(mesh, phi, normalize=True))
    expected = (-64.35393395602412, -65.0384811491466, -65.44970245604593)
    init = None
    for epsilon, energy in zip((0.5, 0.25, 0.1), expected):
        result = minimize_perturbed(ops, SolverConfig(epsilon=epsilon), init)
        assert abs(result.energy - energy) <= 1e-9, epsilon
        assert len(result.iterations) <= 30, epsilon
        assert result.polish_steps >= 1
        init = result.u_min


# ---------------------------------------------------------------- mean field


def test_mean_field_round_constant_is_immediate(ops3):
    result = solve_mean_field(ops3, 0.5)
    # spec'd start is the exact solution; at most one corrective step
    assert len(result.iterations) - 1 <= 1
    assert np.abs(result.v_field + np.log(FOUR_PI)).max() <= 1e-12
    assert result.el_residual < 1e-10 * EIGHT_PI


def test_mean_field_round_small_perturbation_recovers_constant(ops3, rng):
    v0 = -np.log(FOUR_PI) + 0.05 * rng.standard_normal(ops3.mass.shape[0])
    result = solve_mean_field(ops3, 0.25, initial=v0)
    assert result.v_field.max() - result.v_field.min() <= 1e-9
    assert result.el_residual < 1e-10 * EIGHT_PI


def test_mean_field_unit_volume_on_bumpy(bumpy3):
    result = solve_mean_field(bumpy3, 0.5)
    volume = float(np.exp(result.v_field) @ bumpy3.mass)
    assert abs(volume - 1.0) <= 1e-9
    assert result.el_residual < 1e-10 * EIGHT_PI


def test_mean_field_matches_minimizer_stationarity(bumpy3):
    # The minimizer's v-field solves the same equation the Newton path does.
    minimized = minimize_perturbed(bumpy3, SolverConfig(epsilon=0.25))
    assert minimized.el_residual < 1e-8


def test_mean_field_budget_exhaustion(bumpy3):
    with pytest.raises(ConvergenceError) as info:
        solve_mean_field(bumpy3, 0.5, max_iterations=1)
    assert np.isfinite(np.asarray(info.value.best)).all()
    assert len(info.value.trace) >= 1


def test_mean_field_rejects_bad_inputs(ops2):
    with pytest.raises(ParameterError):
        solve_mean_field(ops2, EIGHT_PI)
    with pytest.raises(DataError):
        solve_mean_field(ops2, 0.5, initial=np.zeros(3))
    bad = np.full(ops2.mass.shape[0], np.nan)
    with pytest.raises(DataError):
        solve_mean_field(ops2, 0.5, initial=bad)


def test_mean_field_deterministic(bumpy3):
    a = solve_mean_field(bumpy3, 0.5)
    b = solve_mean_field(bumpy3, 0.5)
    assert np.array_equal(a.v_field, b.v_field)


# ---------------------------------------------------------------------- disk


def test_disk_volume_matched_case_is_flat():
    # a = pi r^2 e^{2b} makes w = b admissible with zero Dirichlet energy.
    flat = disk_min_dirichlet(np.pi, 0.0, 1.0)
    assert abs(flat.value) <= 1e-12
    assert np.abs(flat.profile).max() <= 1e-12
    shifted = disk_min_dirichlet(4.0 * np.pi * np.exp(3.4), 1.7, 2.0)
    assert abs(shifted.value) <= 1e-9
    assert np.abs(shifted.profile - 1.7).max() <= 1e-9


@pytest.mark.parametrize("t", [0.5, 2.0, 4.0])
def test_disk_value_meets_lower_bound(t):
    bound = FOUR_PI * (np.log(t) + 1.0 / t - 1.0)
    result = disk_min_dirichlet(t * np.pi, 0.0, 1.0)
    margin = result.value - bound
    assert margin >= -1e-6
    # the bound is attained in the continuum, so the gap stays small
    assert abs(margin) <= 1e-4


def test_disk_grid_refinement_is_second_order():
    bound = FOUR_PI * (np.log(2.0) + 0.5 - 1.0)
    coarse = disk_min_dirichlet(2.0 * np.pi, 0.0, 1.0, grid_n=512)
    fine = disk_min_dirichlet(2.0 * np.pi, 0.0, 1.0, grid_n=1024)
    assert abs(fine.value - bound) < 0.3 * abs(coarse.value - bound)


def test_disk_value_depends_only_on_volume_ratio():
    # Shifting b and rescaling r leave t = a e^{-2b} / (pi r^2) fixed.
    base = disk_min_dirichlet(2.0 * np.pi, 0.3, 1.0)
    shifted = disk_min_dirichlet(2.0 * np.pi * np.exp(1.8), 1.2, 1.0)
    scaled = disk_min_dirichlet(2.0 * np.pi * 2.25, 0.3, 1.5)
    assert abs(shifted.value - base.value) <= 1e-9
    assert abs(scaled.value - base.value) <= 1e-9


def test_disk_profile_boundary_and_shape():
    result = disk_min_dirichlet(2.0 * np.pi, 0.0, 1.0)
    assert result.profile[-1] == 0.0
    assert result.radii[0] == 0.0
    assert result.radii[-1] == 1.0
    # volume-expanding case bulges upward toward the center
    assert result.profile[0] > 0.0
    assert np.all(np.diff(result.profile) <= 1e-12)


def test_disk_rejects_bad_parameters():
    for args in [
        (-1.0, 0.0, 1.0),
        (0.0, 0.0, 1.0),
        (np.pi, np.inf, 1.0),
        (np.pi, np.nan, 1.0),
        (np.pi, 0.0, -1.0),
        (np.pi, 0.0, 0.0),
    ]:
        with pytest.raises(ParameterError):
            disk_min_dirichlet(*args)
    with pytest.raises(ParameterError):
        disk_min_dirichlet(np.pi, 0.0, 1.0, grid_n=255)

"""Constrained minimization, the mean-field solve, and the radial disk problem."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.integrate import simpson

from liouvillelab import (
    EIGHT_PI,
    ConvergenceError,
    DataError,
    MinimizerResult,
    NumericError,
    ParameterError,
    ResolutionError,
    SolverConfig,
    assemble_operators,
    build_icosphere,
    disk_min_dirichlet,
    minimize_perturbed,
    project_constraint,
    random_band_field,
    set_conformal_background,
    solve_mean_field,
    solver,
)
from liouvillelab.inequalities import _disk_gap

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


def test_el_residual_is_the_last_trace_norm(bumpy3):
    # The result is the loop's last iterate, not a re-evaluation of it.
    result = minimize_perturbed(bumpy3, SolverConfig(epsilon=0.25))
    assert result.el_residual == result.iterations[-1][2]
    assert result.energy == result.iterations[-1][1]
    mean_field = solve_mean_field(bumpy3, 0.5)
    assert mean_field.el_residual == mean_field.iterations[-1][2]


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


def test_mean_field_reaches_the_minimizer_on_bumpy_at_small_epsilon(bumpy3):
    # From the default constant start, where a residual-merit Newton spends
    # its 100 steps and stops at residual 1.45e-2.
    result = solve_mean_field(bumpy3, 0.25)
    assert abs(result.energy - -66.75120335254773) <= 1e-9
    assert result.el_residual < 1e-10 * EIGHT_PI


def test_mean_field_on_bumpy_matches_the_newton_solution(bumpy3):
    # Every 80th vertex and the peak of the v-field a residual-merit
    # Newton iteration finds in 26 steps (energy -66.0254084855474).
    newton_samples = [
        -2.7866634572707603, -2.1711800030744866, -2.6052058863775005,
        -2.6872887769391403, -3.032816592239314, -2.1438403597915636,
        -3.1496239804506954, -2.463803328266217, -2.547507837269483,
    ]
    result = solve_mean_field(bumpy3, 0.5)
    assert abs(result.energy - -66.0254084855474) <= 1e-10
    assert np.abs(result.v_field[::80] - newton_samples).max() <= 1e-10
    assert result.peak_vertex == 428
    assert abs(result.peak_value - -1.6815590061862937) <= 1e-10
    assert abs(result.v_field.min() - -3.1601135876546143) <= 1e-10


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
    # an integer boundary value is the same input as its float value
    as_int = disk_min_dirichlet(2.0 * np.pi, 0, 1.0)
    as_float = disk_min_dirichlet(2.0 * np.pi, 0.0, 1.0)
    assert as_int.value == as_float.value
    assert np.array_equal(as_int.profile, as_float.profile)


@pytest.mark.parametrize("t", [0.01, 0.5, 2.0, 100.0])
def test_disk_solves_one_problem_per_t(t):
    # w(rho) = b + v(rho / r) maps every (b, r) at the same t onto one
    # unit-disk problem, so each cell must converge to the (0, 1) answer.
    ref = disk_min_dirichlet(t * np.pi, 0.0, 1.0)
    for b, r in [(3.0, 1.0), (0.0, 50.0), (-5.0, 0.01), (-5.0, 1.0), (0.0, 0.01)]:
        scale = r * r * np.exp(2.0 * b)
        cell = disk_min_dirichlet(t * np.pi * scale, b, r)
        assert abs(cell.value - ref.value) <= 1e-12 * abs(ref.value)
        assert np.abs((cell.profile - b) - ref.profile).max() <= 1e-12
        assert np.abs(cell.radii / r - ref.radii).max() <= 1e-12
        mapped = cell.multiplier * scale
        assert abs(mapped - ref.multiplier) <= 1e-12 * abs(ref.multiplier)


def test_disk_profile_boundary_and_shape():
    result = disk_min_dirichlet(2.0 * np.pi, 0.0, 1.0)
    assert result.profile[-1] == 0.0
    assert result.radii[0] == 0.0
    assert result.radii[-1] == 1.0
    # volume-expanding case bulges upward toward the center
    assert result.profile[0] > 0.0
    assert np.all(np.diff(result.profile) <= 1e-12)


def _continuum_disk(t, rho):
    # The unit-disk minimizer with int e^{2v} = pi t, its radial derivative
    # and its multiplier: v0 = ln t - ln(1 + (t - 1) rho^2).
    c = t - 1.0
    density = 1.0 + c * rho * rho
    return np.log(t) - np.log(density), -2.0 * c * rho / density, 4.0 * c / t**2


def _count_newton_solves(monkeypatch):
    # Each Newton step factors its KKT block once.
    calls = []
    factor = solver._factor

    def counted(matrix, what, *args, **options):
        calls.append(what)
        return factor(matrix, what, *args, **options)

    monkeypatch.setattr(solver, "_factor", counted)
    return lambda: calls.count("disk Newton step")


@pytest.mark.parametrize("t", [0.003, 0.01, 0.5, 2.0, 100.0, 1614.0, 1e5])
def test_disk_newton_starts_at_the_continuum_minimizer(t, monkeypatch):
    # Started at the continuum minimizer, full Newton steps need only a few
    # solves at the default grid, from t = 0.003 to t = 1e5.
    solves = _count_newton_solves(monkeypatch)
    disk_min_dirichlet(t * np.pi, 0.0, 1.0)
    assert 1 <= solves() <= 6


def _spsolve_factor(matrix, what):
    # The one-shot solve of the same KKT block, in the order given.
    return lambda rhs: spla.spsolve(matrix.tocsc(), rhs, permc_spec="NATURAL")


@pytest.mark.parametrize("grid_n", [256, 4096])
@pytest.mark.parametrize(
    "a, b, r",
    [(np.pi, 0.0, 1.0), (2 * np.pi, 0.3, 1.0), (np.pi / 2, -1.0, 2.0), (40.0, 0.0, 1.0)],
)
def test_disk_newton_step_matches_a_one_shot_solve(a, b, r, grid_n, monkeypatch):
    # The factored step and SciPy's one-shot spsolve run the same SuperLU
    # on the same matrix: every output is bitwise the same.
    minimum = disk_min_dirichlet(a, b, r, grid_n)
    monkeypatch.setattr(solver, "_factor", _spsolve_factor)
    reference = disk_min_dirichlet(a, b, r, grid_n)
    assert minimum.value == reference.value
    assert minimum.multiplier == reference.multiplier
    assert minimum.residual == reference.residual
    assert np.array_equal(minimum.radii, reference.radii)
    assert np.array_equal(minimum.profile, reference.profile)


def test_disk_cell_moments_match_quadrature():
    # I_m(d) = int_0^1 s^m e^{ds} ds against 60-point Gauss-Legendre; a huge
    # or infinite d, at which SciPy's hyp1f1 does not return, gives inf at once.
    nodes, weights = np.polynomial.legendre.leggauss(60)
    s, weights = (nodes + 1.0) / 2.0, weights / 2.0
    d = np.array([-50.0, -1.0, 0.0, 1e-9, 0.7, 30.0])
    expected = [(s**m * np.exp(np.outer(d, s))) @ weights for m in range(4)]
    assert np.allclose(solver._cell_moments(d), expected, rtol=1e-12, atol=0.0)
    assert np.isinf(solver._cell_moments(np.array([800.0, 1e300, np.inf]))).all()


def test_disk_value_bounds_the_floor_from_above(monkeypatch):
    # With the constraint exact per cell the discrete minimizer is admissible
    # in the continuum, so no admitted t in [1e-3, 1e6] falls below the floor.
    solves = _count_newton_solves(monkeypatch)
    admitted = 0
    for t in np.logspace(-3, 6, 91):
        before = solves()
        try:
            minimum = disk_min_dirichlet(t * np.pi, 0.0, 1.0)
        except ResolutionError:
            assert solves() == before
            continue
        admitted += 1
        gap = _disk_gap(minimum, t * np.pi, 0.0, 1.0)
        bound = gap.parameters["bound"]
        assert gap.worst_margin >= -1e-10 * max(1.0, abs(bound)), t
        assert solves() - before <= 4, t
    assert admitted == 90  # the refusal takes t = 1e-3 only


@pytest.mark.parametrize("t", [1e6, 0.003])
def test_disk_grid_too_coarse_for_the_profile(t, monkeypatch):
    # At grid 256, e^{2 v0} more than doubles across one cell: refused
    # before any solve.
    solves = _count_newton_solves(monkeypatch)
    with pytest.raises(ResolutionError, match=r"t = .* grid_n = 256"):
        disk_min_dirichlet(t * np.pi, 0.0, 1.0, grid_n=256)
    assert solves() == 0


@pytest.mark.parametrize("t", [0.1, 4.0, 100.0])
def test_disk_profile_converges_to_the_closed_form(t):
    # The discrete profile and multiplier approach v0 and mu0 at second order.
    errors = []
    for n in (1024, 2048):
        result = disk_min_dirichlet(t * np.pi, 0.0, 1.0, grid_n=n)
        v0, _, mu0 = _continuum_disk(t, result.radii)
        errors.append(
            (np.abs(result.profile - v0).max(), abs(result.multiplier - mu0) / abs(mu0))
        )
    (coarse_v, coarse_mu), (fine_v, fine_mu) = errors
    assert coarse_v >= 3.5 * fine_v
    assert coarse_mu >= 3.5 * fine_mu


@pytest.mark.parametrize("t", [0.1, 4.0, 100.0])
def test_disk_closed_form_meets_the_floor(t):
    # v0 holds volume pi t, and its Dirichlet energy is the gap's floor.
    rho = np.linspace(0.0, 1.0, 2**16 + 1)
    v0, dv0, _ = _continuum_disk(t, rho)
    volume = 2.0 * np.pi * simpson(np.exp(2.0 * v0) * rho, x=rho)
    energy = 2.0 * np.pi * simpson(dv0 * dv0 * rho, x=rho)
    bound = _disk_gap(disk_min_dirichlet(t * np.pi, 0.0, 1.0), t * np.pi, 0.0, 1.0)
    assert abs(volume - np.pi * t) <= 1e-6 * np.pi * t
    assert abs(energy - bound.parameters["bound"]) <= 1e-6


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
    # finite parameters whose t = a e^{-2b} / (pi r^2) over- or underflows
    for args in [(np.pi, -400.0, 1.0), (np.pi, 400.0, 1.0), (np.pi, 0.0, 1e-200)]:
        with pytest.raises(ParameterError, match="t = a exp"):
            disk_min_dirichlet(*args)

"""Inequality suites: margins, empirical constants, seed replay."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.integrate import simpson

import liouvillelab as L
from liouvillelab import inequalities
from liouvillelab.errors import NumericError, ParameterError
from liouvillelab.inequalities import (
    InequalityReport,
    _radial_disk_field,
    _radial_poisson_exp_integral,
    brezis_merle_check,
    check_global_mt,
    check_local_mt,
    onofri_suite,
    poincare_constant,
    sample_seed,
    disk_floor_gap,
)

LN_FOUR_PI = np.log(4.0 * np.pi)


def test_sample_seed_splitting():
    assert sample_seed(7, 0) == 7_000_021
    assert sample_seed(7, 1) == 7_000_022
    seen = {sample_seed(s, i) for s in range(5) for i in range(100)}
    assert len(seen) == 500


class TestLocalBound:
    def test_margins_nonnegative(self):
        for r, eps, amp in ((1.0, 0.0, 1.0), (0.5, 0.0, 2.0), (3.0, 0.1, 1.0)):
            rep = check_local_mt(r, 50, 42, epsilon=eps, amplitude_scale=amp)
            assert rep.worst_margin > -1e-6
            assert rep.samples == 50
            assert len(rep.sample_margins) == 50

    def test_worst_is_min_and_replays(self):
        rep = check_local_mt(1.0, 25, 9)
        margins = [m for _, m in rep.sample_margins]
        assert rep.worst_margin == min(margins)
        # rebuild the worst sample from its reported seed, bitwise
        grid = np.linspace(0.0, 1.0, 2049)
        rng = np.random.default_rng(rep.worst_seed)
        u, du = _radial_disk_field(rng, grid, 6, 1.0)
        dirichlet = 2.0 * np.pi * simpson(du * du * grid, x=grid)
        exp_int = 2.0 * np.pi * simpson(np.exp(u) * grid, x=grid)
        margin = np.log(np.pi) + 1.0 + dirichlet / (16.0 * np.pi) - np.log(exp_int)
        assert margin == rep.worst_margin

    def test_margin_does_not_depend_on_r(self):
        # u(rho) = U(rho / r): every radius gives the unit disk's margins,
        # also where pi r^2 underflows or overflows.
        unit = check_local_mt(1.0, 3, 0, grid_n=256).sample_margins
        for r in (1e-200, 1e-100, 1e-3, 7.0, 1e100, 1e200):
            rep = check_local_mt(r, 3, 0, grid_n=256)
            assert rep.sample_margins == unit
            assert rep.parameters["r"] == r

    def test_epsilon_widens_margin(self):
        base = check_local_mt(1.0, 20, 3).worst_margin
        sharp = check_local_mt(1.0, 20, 3, epsilon=0.2).worst_margin
        assert sharp > base

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0.0},
            {"r": -1.0},
            {"r": np.inf},
            {"samples": 0},
            {"epsilon": -0.1},
            {"epsilon": np.nan},
            {"epsilon": np.inf},
            {"amplitude_scale": np.nan},
            {"amplitude_scale": np.inf},
            {"grid_n": 0},
            {"grid_n": 1},
            {"grid_n": 255},
        ],
    )
    def test_parameter_rejection(self, kwargs):
        full = {"r": 1.0, "samples": 5, "seed": 0, **kwargs}
        with pytest.raises(ParameterError):
            check_local_mt(**full)

    def test_nan_margin_is_numeric_failure(self):
        # e^u overflows, so every margin is inf - inf; NaN must not pass.
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="NaN"):
            check_local_mt(1.0, 5, 0, amplitude_scale=1e160)


class TestDiskGap:
    def test_equality_case_exact(self):
        # t = 1 is the equality configuration of the closed-form floor
        rep = disk_floor_gap(np.pi, 0.0, 1.0)
        assert rep.parameters["t"] == pytest.approx(1.0, abs=1e-15)
        assert abs(rep.worst_margin) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 2.0, 4.0])
    def test_gap_within_quadrature_bias(self, t):
        rep = disk_floor_gap(t * np.pi, 0.0, 1.0)
        assert rep.worst_margin > -1e-6
        assert abs(rep.worst_margin) < 1e-5

    def test_bias_is_second_order(self):
        coarse = disk_floor_gap(2.0 * np.pi, 0.0, 1.0, grid_n=1024).worst_margin
        fine = disk_floor_gap(2.0 * np.pi, 0.0, 1.0, grid_n=4096).worst_margin
        assert abs(fine) < 0.3 * abs(coarse)

    @pytest.mark.parametrize("t", [0.1, 2.0, 100.0, 1614.0])
    def test_margin_is_positive_and_falls_at_second_order(self, t):
        coarse, fine = (
            disk_floor_gap(t * np.pi, 0.0, 1.0, grid_n=n).worst_margin for n in (1024, 2048)
        )
        assert coarse >= 3.5 * fine > 0.0

    def test_large_t_margin(self):
        # Pinned to the exact-constraint margin, an upper bound on the floor.
        rep = disk_floor_gap(1614.0 * np.pi, 0.0, 1.0)
        assert abs(rep.worst_margin - 3.3488360486444435e-05) <= 1e-9

    def test_depends_on_t_only(self):
        # same t reached through different (a, b, r) gives the same margin
        rep1 = disk_floor_gap(2.0 * np.pi, 0.0, 1.0)
        rep2 = disk_floor_gap(8.0 * np.pi * np.exp(-3.0), -1.5, 2.0)
        assert rep1.parameters["t"] == pytest.approx(rep2.parameters["t"], rel=1e-14)
        assert rep1.worst_margin == pytest.approx(rep2.worst_margin, abs=1e-9)
        # integer b and r are the same inputs as their float values
        assert disk_floor_gap(2.0 * np.pi, 0, 1) == rep1

    @pytest.mark.parametrize(
        "a, r, name",
        [
            (2.0 * np.pi * 1e-160**2, 1e-160, "a"),  # t = 2 read back as 1.99984
            (1e-310, 1.0, "a"),
            (1e-300, 1e-160, "pi r\\^2"),
        ],
        ids=["both", "a", "area"],
    )
    def test_subnormal_input_is_refused(self, a, r, name):
        # A subnormal a or pi r^2 has lost the digits t would carry.
        with pytest.raises(ParameterError, match=f"needs a normal positive {name},"):
            disk_floor_gap(a, 0.0, r)


class TestGlobalBound:
    def test_round_supremum(self, ops3):
        rep = check_global_mt(ops3, 0.1, 4, 11)
        assert not rep.parameters["diverged"]
        assert rep.parameters["sup_value"] == pytest.approx(LN_FOUR_PI, rel=0.01)
        assert rep.worst_margin > 0.0

    def test_round_ascent_is_one_factor_and_few_steps(self, ops3, monkeypatch):
        # The negative Hessian at the constant is the ascent metric: 14
        # accepted steps here, where the Sobolev metric 2 kappa S + M took
        # 420, and 95 if trials oscillate at their roundoff floor.  No step
        # needs the Sobolev fallback, so it is never factored.
        # The trials' band fields need the 11-band eigenbasis, whose
        # eigensolve factors too: build it before counting.
        L.random_band_field(ops3.mesh, 0, 11, 1.0)
        factored = []
        splu = spla.splu

        def counting_splu(matrix, **options):
            factored.append(matrix)
            return splu(matrix, **options)

        monkeypatch.setattr(spla, "splu", counting_splu)
        rep = check_global_mt(ops3, 0.1, 4, 11)
        assert rep.parameters["total_iterations"] <= 30
        assert len(factored) == 1
        assert rep.parameters["sup_value"] == pytest.approx(LN_FOUR_PI, abs=1e-12)

    def test_ascent_ends_at_its_roundoff_floor(self, ops3):
        # A near-constant start reaches ln 4 pi in two Hessian steps.  There
        # a tie must not pass the sufficient-increase test, or the trial
        # oscillates about the maximum until the stagnation window fires
        # (over 30 steps); once no step can register a rise the line search
        # fails and the trial ends.  The Hessian is solved densely here.
        kappa = 1.0 / (16.0 * np.pi) + 0.1
        area, mass = ops3.total_area, ops3.mass
        hessian = (
            2.0 * kappa * ops3.stiffness.toarray()
            - np.diag(mass / area)
            + (2.0 / area**2) * np.outer(mass, mass)
        )
        u0 = L.random_band_field(ops3.mesh, 5, 8, 1e-3)
        value, steps, diverged = inequalities._ascend(
            ops3, u0, kappa, (lambda rhs: np.linalg.solve(hessian, rhs),),
            inequalities._ASCENT_CAP,
        )
        assert not diverged
        assert steps <= 4
        assert value == pytest.approx(LN_FOUR_PI, abs=1e-12)

    def test_strong_background_switches_to_the_sobolev_metric(self):
        # Band amplitude 1.5: 2 kappa lambda_1 = 0.056 < 1/A = 0.080, so the
        # Hessian metric is indefinite on mean-zero fields.  Its slope turns
        # nonpositive a few dozen steps in, 7.4e-3 below the supremum; the
        # trial must finish in the Sobolev metric.  The pinned value is the
        # Sobolev-only ascent's.
        mesh = L.build_icosphere(3)
        phi = L.random_band_field(mesh, 2, 6, 1.5)
        ops = L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
        rep = check_global_mt(ops, 0.01, 1, 0)
        assert not rep.parameters["diverged"]
        assert abs(rep.parameters["sup_value"] - 3.9530319828851956) <= 1e-9

    def test_bumpy_stays_bounded(self, bumpy3):
        rep = check_global_mt(bumpy3, 0.1, 4, 11)
        assert not rep.parameters["diverged"]
        assert np.isfinite(rep.parameters["sup_value"])

    def test_smaller_epsilon_larger_sup(self, ops3):
        loose = check_global_mt(ops3, 0.5, 1, 0).parameters["sup_value"]
        tight = check_global_mt(ops3, 0.05, 1, 0).parameters["sup_value"]
        assert tight >= loose

    def test_parameter_rejection(self, ops3):
        with pytest.raises(ParameterError):
            check_global_mt(ops3, 0.0, 2, 0)
        with pytest.raises(ParameterError):
            check_global_mt(ops3, -0.1, 2, 0)
        with pytest.raises(ParameterError):
            check_global_mt(ops3, 0.1, 0, 0)
        for eps in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                check_global_mt(ops3, eps, 2, 0)


class TestOnofriSuite:
    def test_nan_deficit_is_numeric_failure(self, ops2, monkeypatch):
        monkeypatch.setattr(inequalities, "onofri_deficit", lambda ops, u: np.nan)
        with pytest.raises(NumericError, match="onofri_deficit"):
            onofri_suite(ops2, 3, 0)

    def test_zero_field_margin_vanishes(self, ops3):
        rep = onofri_suite(ops3, 5, 5)
        assert abs(rep.sample_margins[0][1]) < 1e-12

    def test_margins_bounded_by_discretization(self, ops3):
        rep = onofri_suite(ops3, 30, 5)
        assert rep.worst_margin > -2e-2

    def test_refinement_tightens_worst_margin(self, ops3):
        coarse = onofri_suite(ops3, 30, 5).worst_margin
        ops4 = L.assemble_operators(L.build_icosphere(4))
        fine = onofri_suite(ops4, 30, 5).worst_margin
        assert fine > coarse
        assert fine > -5e-3

    def test_random_fields_strictly_positive(self, ops3):
        # odd samples draw band fields, far from the equality manifold
        rep = onofri_suite(ops3, 10, 5)
        band_margins = [m for _, m in rep.sample_margins[1::2]]
        assert min(band_margins) > 1e-3

    def test_parameter_rejection(self, ops3):
        with pytest.raises(ParameterError):
            onofri_suite(ops3, 0, 1)
        with pytest.raises(ParameterError):
            onofri_suite(ops3, 5, 1, amplitude_max=0.0)
        with pytest.raises(ParameterError):
            onofri_suite(ops3, 5, 1, dilation_max=0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                onofri_suite(ops3, 5, 1, amplitude_max=bad)
            with pytest.raises(ParameterError):
                onofri_suite(ops3, 5, 1, dilation_max=bad)

    def test_dilation_beyond_float_range_names_dilation_max(self, ops2):
        # A bound whose square overflows is refused up front, naming the
        # argument the caller passed rather than a scale the suite drew.
        with pytest.raises(ParameterError, match="dilation_max"):
            onofri_suite(ops2, 5, 0, dilation_max=1e200)


class TestPoincareConstant:
    def test_p2_sharp_constant(self):
        ops4 = L.assemble_operators(L.build_icosphere(4))
        rep = poincare_constant(ops4, 2.0)
        assert rep.parameters["c_p"] == pytest.approx(0.5, rel=0.01)
        assert rep.samples == 1
        assert rep.worst_margin == 0.0

    def test_p2_coarse_mesh(self, ops3):
        rep = poincare_constant(ops3, 2.0)
        assert rep.parameters["c_p"] == pytest.approx(0.5, rel=0.02)

    def test_p4_ascent(self, ops3):
        rep = poincare_constant(ops3, 4.0, starts=4)
        c4 = rep.parameters["c_p"]
        assert 0.0 < c4 < 0.5
        again = poincare_constant(ops3, 4.0, starts=4)
        assert again.parameters["c_p"] == c4

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, np.nan])
    def test_bad_exponent(self, ops3, p):
        with pytest.raises(ParameterError):
            poincare_constant(ops3, p)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"modes": 0},
            {"modes": -1},
            {"modes": 2.5},
            {"p": 3.0, "starts": 0},
            {"p": 3.0, "iterations": -1},
        ],
        ids=["modes=0", "modes=-1", "modes=2.5", "starts=0", "iterations=-1"],
    )
    def test_bad_counts(self, ops2, kwargs):
        with pytest.raises(ParameterError):
            poincare_constant(ops2, **{"p": 2.0, **kwargs})

    def test_modes_capped_by_mesh(self):
        ops1 = L.assemble_operators(L.build_icosphere(1))
        with pytest.raises(ParameterError):
            poincare_constant(ops1, 2.0, modes=50)

    def test_eigsh_no_convergence_is_numeric_error(self, ops2, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("synthetic", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(NumericError, match="Poincare eigensolve failed"):
            poincare_constant(ops2, 2.0, modes=8)

    def test_dense_eigh_failure_is_numeric_error(self, ops2, monkeypatch):
        def not_definite(*args, **kwargs):
            raise sla.LinAlgError("synthetic: pencil is not positive definite")

        monkeypatch.setattr(sla, "eigh", not_definite)
        with pytest.raises(NumericError, match="reduced eigenproblem failed"):
            poincare_constant(ops2, 2.0, modes=8)


class TestExpIntegrability:
    def test_zero_source_closed_form(self):
        grid = np.linspace(0.0, 2.0, 1001)
        value, f_norm = _radial_poisson_exp_integral(grid, np.zeros_like(grid), 1.0)
        assert value == 4.0 * np.pi
        assert f_norm == 0.0

    def test_margins_under_guard(self):
        rep = brezis_merle_check(1.0, 2.0 * np.pi, 30, 3)
        assert rep.worst_margin > 0.0
        assert rep.parameters["max_integral"] > np.pi
        assert rep.parameters["max_integral"] < rep.parameters["guard"]

    def test_delta_near_critical_still_finite(self):
        rep = brezis_merle_check(1.0, 12.5, 12, 3)
        assert np.isfinite(rep.parameters["max_integral"])
        assert rep.worst_margin > 0.0

    def test_concentration_grows_as_delta_shrinks(self):
        wide = brezis_merle_check(1.0, 6.0, 12, 3).parameters["max_integral"]
        tight = brezis_merle_check(1.0, 1.0, 12, 3).parameters["max_integral"]
        assert tight > wide

    def test_margins_scale_with_r_squared(self):
        # Every source is F(rho / r), so each integral is r^2 times the unit
        # disk's; the margins, guard and largest integral scale exactly.
        unit = brezis_merle_check(1.0, np.pi, 6, 0, grid_n=256)
        for r in (1e-150, 1e-3, 7.0, 1e153):
            rep = brezis_merle_check(r, np.pi, 6, 0, grid_n=256)
            scale = r * r
            assert rep.sample_margins == [(s, m * scale) for s, m in unit.sample_margins]
            for key in ("guard", "max_integral"):
                assert rep.parameters[key] == unit.parameters[key] * scale

    @pytest.mark.parametrize("r", [1e-160, 1e200])
    def test_radius_beyond_the_float_range_is_refused(self, r):
        # pi r^2 is subnormal at 1e-160, where the scaled margins would
        # lose their digits silently, and overflows at 1e200
        with pytest.raises(ParameterError, match="out of range"):
            brezis_merle_check(r, np.pi, 3, 0, grid_n=256)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0.0},
            {"delta": 0.0},
            {"delta": 4.0 * np.pi},
            {"delta": -1.0},
            {"samples": 0},
            {"grid_n": 0},
            {"grid_n": 255},
            {"seed": -1},
        ],
    )
    def test_parameter_rejection(self, kwargs):
        full = {"r": 1.0, "delta": np.pi, "samples": 4, "seed": 0, **kwargs}
        with pytest.raises(ParameterError):
            brezis_merle_check(**full)


class TestReportContract:
    def test_as_dict_round_trip(self):
        rep = check_local_mt(1.0, 3, 0)
        d = rep.as_dict()
        assert d["name"] == "local_exponential_bound"
        assert d["samples"] == 3
        assert d["worst_margin"] == rep.worst_margin
        assert "sample_margins" not in d

    def test_reports_deterministic(self, ops3):
        a = onofri_suite(ops3, 8, 21)
        b = onofri_suite(ops3, 8, 21)
        assert a.worst_margin == b.worst_margin
        assert a.worst_seed == b.worst_seed
        assert a.sample_margins == b.sample_margins

    def test_worst_seed_among_samples(self):
        rep = brezis_merle_check(1.0, np.pi, 9, 17)
        seeds = {s for s, _ in rep.sample_margins}
        assert rep.worst_seed in seeds
        assert isinstance(rep, InequalityReport)


def _nan_disk_field(rng, grid, modes, amplitude_scale):
    return np.full_like(grid, np.nan), np.full_like(grid, np.nan)


# The five sampled suites, small, each with a helper that the test
# replaces to make its margins NaN.
SAMPLED_SUITES = {
    "local": (
        lambda ops: check_local_mt(1.0, 4, 0, grid_n=256),
        "_radial_disk_field", _nan_disk_field,
    ),
    "onofri": (
        lambda ops: onofri_suite(ops, 4, 0), "onofri_deficit", lambda ops, u: np.nan
    ),
    "brezis_merle": (
        lambda ops: brezis_merle_check(1.0, np.pi, 4, 0, grid_n=256),
        "_radial_poisson_exp_integral", lambda grid, f, delta: (np.nan, 1.0),
    ),
    "global": (
        lambda ops: check_global_mt(ops, 0.5, 5, 0),
        "_ascend", lambda *args: (np.nan, 0, False),
    ),
    # No step is taken, so the NaN field reaches the quotient itself.
    "poincare": (
        lambda ops: poincare_constant(ops, 3.0, starts=3, seed=0, iterations=0),
        "_tangent_project", lambda ops, g: np.full_like(g, np.nan),
    ),
}


def _sample_seed_callers(source):
    # The top-level definitions that call sample_seed anywhere inside.
    return {
        top.name
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "sample_seed" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


class TestSampledSuites:
    @pytest.mark.parametrize("suite", sorted(SAMPLED_SUITES))
    def test_nan_margin_is_numeric_failure(self, ops3, monkeypatch, suite):
        run, helper, nan_helper = SAMPLED_SUITES[suite]
        monkeypatch.setattr(inequalities, helper, nan_helper)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="NaN margin"):
            run(ops3)

    @pytest.mark.parametrize("suite", sorted(SAMPLED_SUITES))
    def test_worst_seed_is_the_first_worst_row(self, ops3, monkeypatch, suite):
        # Read on the report _sampled_report builds, since the Poincare
        # report keeps no rows.  On the round sphere every global trial ends
        # at ln 4 pi, so its five margins tie and the first trial is worst,
        # though a later one has the largest value.
        built = []
        sampled_report = inequalities._sampled_report

        def recording(*args):
            built.append(sampled_report(*args))
            return built[-1]

        monkeypatch.setattr(inequalities, "_sampled_report", recording)
        report = SAMPLED_SUITES[suite][0](ops3)
        (sampled,) = built
        rows = sampled.sample_margins
        first = next(s for s, m in rows if m == sampled.worst_margin)
        assert report.worst_seed == sampled.worst_seed == first
        assert report.sample_margins in ([], rows)

    def test_sample_seed_is_called_only_in_the_shared_loop(self):
        source = Path(inequalities.__file__).read_text()
        assert _sample_seed_callers(source) == {"_sampled_report"}

    def test_guard_sees_nested_and_qualified_calls(self):
        source = (
            "def suite(seed):\n"
            "    def margin_of(i):\n"
            "        return sample_seed(seed, i)\n"
            "def other(seed):\n"
            "    return inequalities.sample_seed(seed, 0)\n"
            "def unrelated(seed):\n"
            "    return seed_of(seed)\n"
        )
        assert _sample_seed_callers(source) == {"suite", "other"}

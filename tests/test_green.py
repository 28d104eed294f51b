"""Green-function solver, bubble quadrature, and rescale diagnostics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import IntegrationWarning

import liouvillelab as L
from liouvillelab.errors import DataError, NumericError, ParameterError, ResolutionError
from liouvillelab import mesh as mesh_module
from liouvillelab.mesh import geodesic_distances

A_ROUND = 4.0 * np.log(2.0) - 2.0
ROUND_ENERGY = -8.0 * np.pi * np.log(4.0 * np.pi)


def _peak_missing_quad(func, a, b, **options):
    # What an adaptive rule reports when it never samples a narrow peak:
    # nothing, with SciPy's divergence warning and a small error estimate.
    warnings.warn(
        "The integral is probably divergent, or slowly convergent.",
        IntegrationWarning,
        stacklevel=2,
    )
    return 0.0, 0.0


def _hops_from(ops, source):
    # unweighted graph distance, used to carve out the singular neighborhood
    from scipy.sparse.csgraph import dijkstra

    adj = (ops.stiffness != 0).astype(np.int8)
    return dijkstra(adj, unweighted=True, indices=source)


class TestRoundGreen:
    def test_matches_closed_form_outside_two_ring(self, ops4):
        green = L.solve_green(ops4, 0)
        hops = _hops_from(ops4, 0)
        outside = hops > 2.5
        exact = -4.0 * np.log(np.sin(green.distances[outside] / 2.0)) - 2.0
        assert np.abs(green.field[outside] - exact).max() < 0.05

    def test_antipodal_value(self, ops4):
        green = L.solve_green(ops4, 0)
        antipode = int(np.argmax(green.distances))
        # closed form at d = pi gives exactly -2
        assert abs(green.field[antipode] + 2.0) < 0.02

    def test_mean_zero(self, ops4):
        green = L.solve_green(ops4, 0)
        total = float(green.field @ ops4.mass)
        assert abs(total) < 1e-8 * float(np.abs(green.field).max())

    def test_regular_part_constant(self, ops4):
        green = L.solve_green(ops4, 0)
        assert abs(green.A_value - A_ROUND) < 0.05

    def test_fit_metadata(self, ops4):
        green = L.solve_green(ops4, 0)
        h = ops4.mean_edge_length
        lo, hi = green.fit_window
        assert lo == pytest.approx(4.0 * h)
        assert hi == pytest.approx(8.0 * h)
        assert green.pole == 0
        assert green.distance_exact
        assert np.isfinite(green.fit_residual)

    def test_pole_invariance(self, ops4):
        a0 = L.solve_green(ops4, 0).A_value
        a1 = L.solve_green(ops4, 17).A_value
        assert abs(a0 - a1) < 0.01

    def test_symmetry_sampled_pairs(self, ops4):
        fields = {p: L.solve_green(ops4, p).field for p in (0, 5, 700, 2000)}
        for p, q in ((0, 5), (0, 700), (5, 2000), (700, 2000)):
            assert abs(fields[p][q] - fields[q][p]) < 1e-9

    def test_field_finite_everywhere(self, ops4):
        green = L.solve_green(ops4, 0)
        assert np.all(np.isfinite(green.field))
        # the pole carries the largest (regularized) value
        assert int(np.argmax(green.field)) == 0


class TestBumpyGreen:
    def test_reciprocity_identity(self, bumpy3):
        # discrete exact: G_p(q) - G_q(p) = (1/4pi) \int K (G_p - G_q)
        KM = bumpy3.curvature * bumpy3.mass
        for p, q in ((0, 41), (3, 200), (17, 444)):
            gp = L.solve_green(bumpy3, p)
            gq = L.solve_green(bumpy3, q)
            lhs = gp.field[q] - gq.field[p]
            rhs = float(KM @ (gp.field - gq.field)) / (4.0 * np.pi)
            assert abs(lhs - rhs) < 1e-9

    def test_log_fit_quality_fine_mesh(self):
        mesh = L.build_icosphere(5)
        phi = L.random_band_field(mesh, 7, 8, 0.3)
        ops = L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
        green = L.solve_green(ops, 0)
        assert not green.distance_exact
        assert green.fit_residual < 0.02
        assert np.isfinite(green.A_value)

    def test_regular_part_varies_with_pole(self):
        mesh = L.build_icosphere(4)
        phi = L.random_band_field(mesh, 7, 8, 0.3)
        ops = L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
        a0 = L.solve_green(ops, 0).A_value
        a1 = L.solve_green(ops, 1234).A_value
        assert abs(a0 - a1) > 0.01

    @staticmethod
    def _band_ops(level):
        mesh = L.build_icosphere(level)
        phi = L.random_band_field(mesh, 7, 8, 0.3)
        return L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_fit_equals_the_fit_on_full_distances(self, level):
        # The march stops at the fit annulus; the fit must not see it.
        ops = self._band_ops(level)
        for pole in (0, 17, ops.mesh.num_vertices // 3):
            green = L.solve_green(ops, pole)
            full = replace(green, distances=geodesic_distances(ops, pole)[0])
            L.extract_A(full, ops)
            assert green.A_value == full.A_value
            assert green.fit_residual == full.fit_residual
            assert green.fit_window == full.fit_window
            beyond = full.distances > green.fit_window[1]
            assert np.isinf(green.distances[beyond]).all()
            assert np.array_equal(green.distances[~beyond], full.distances[~beyond])

    @pytest.mark.parametrize("background", ["mobius", "band"])
    def test_round_fit_of_shifted_field_matches_marched_A(self, background):
        # G_g + phi = G_round + const, so the annulus fit of G_g + phi against
        # round arcs, plus phi(pole), is A_g without a march.  Level 5: at
        # level 4 the band background's gap reaches 0.048.
        mesh = L.build_icosphere(5)
        if background == "mobius":
            phi = L.mobius_dilation_factor(mesh, 2.0)
        else:
            phi = L.random_band_field(mesh, 2, 6, 0.4)
        ops = L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
        phi = ops.mesh.background_factor
        round_ops = L.assemble_operators(mesh)
        poles = np.random.default_rng(5).choice(mesh.num_vertices, 3, replace=False)
        for pole in poles:
            green = L.solve_green(ops, pole)
            arcs, exact = geodesic_distances(round_ops, pole)
            assert exact
            shifted = replace(green, field=green.field + phi, distances=arcs)
            a_round = L.extract_A(shifted, round_ops) + phi[pole]
            assert abs(a_round - green.A_value) < 0.01
            if background == "mobius":
                assert abs(a_round - A_ROUND) < 0.02

    def test_march_stops_at_the_fit_annulus(self, monkeypatch):
        # Measured 2.1% of the full march's front updates at level 5.
        ops = self._band_ops(5)
        calls = [0]
        update = mesh_module._fmm_face_update

        def counting(*args):
            calls[0] += 1
            return update(*args)

        monkeypatch.setattr(mesh_module, "_fmm_face_update", counting)
        L.solve_green(ops, 0)
        stopped = calls[0]
        geodesic_distances(ops, 0)
        assert 0 < stopped < 0.05 * (calls[0] - stopped)


def _background_ops(level, background):
    mesh = L.build_icosphere(level)
    if background == "mobius":
        phi = L.mobius_dilation_factor(mesh, 2.0)
    else:
        phi = L.random_band_field(mesh, 7, 8, 0.3)
    return L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))


class TestGreenSolver:
    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_matches_the_bordered_direct_solve(self, level, monkeypatch):
        # The zero-mean normalization as a bordered row and column, factored
        # in the mesh order with the border last.  Multigrid takes 9-10
        # iterations at every level.
        monkeypatch.setattr(mesh_module, "_MG_MAX_ITERATIONS", 12)
        ops = _background_ops(level, "mobius")
        n = ops.mesh.num_vertices
        column = ops.mass[:, None] / (4.0 * np.pi)
        system = sp.bmat([[ops.stiffness, column], [column.T, None]]).tocsr()
        order = np.append(mesh_module._ordering(ops.mesh), n)
        solve = mesh_module._factor(system[order][:, order], "bordered Green system")
        for pole in (0, 5, n // 3):
            rhs = np.append(-2.0 * ops.curvature * ops.mass, 0.0)
            rhs[pole] += 8.0 * np.pi
            expected = np.empty(n + 1)
            expected[order] = solve(rhs[order])
            expected = expected[:-1]
            field = L.solve_green(ops, pole).field
            assert np.abs(field - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("background", ["mobius", "band"])
    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_background_shifts_the_round_field_by_minus_phi(self, level, background):
        # K_g m_g = m_round + S phi / 2, so S G_g = S (G_round - phi): the two
        # differ by a constant.  Level 3 is solved directly, 4-5 by multigrid.
        ops = _background_ops(level, background)
        phi = ops.mesh.background_factor
        round_mesh = L.set_conformal_background(ops.mesh, np.zeros_like(phi))
        round_ops = L.assemble_operators(round_mesh)
        for pole in (0, 17, ops.mesh.num_vertices - 1):
            round_field = L.solve_green(round_ops, pole).field
            gap = L.solve_green(ops, pole).field - (round_field - phi)
            assert np.ptp(gap) <= 1e-12 * np.abs(round_field).max()


class TestGreenValidation:
    def test_non_finite_field_is_data_error(self, ops4):
        green = L.solve_green(ops4, 0)
        green.field[5] = np.nan
        with pytest.raises(DataError):
            L.extract_A(green, ops4)

    def test_coarse_mesh_rejected(self):
        ops = L.assemble_operators(L.build_icosphere(1))
        with pytest.raises(ResolutionError):
            L.solve_green(ops, 0)

    @pytest.mark.parametrize("pole", [-1, 642, 10**9])
    def test_pole_out_of_range(self, ops3, pole):
        with pytest.raises(ParameterError):
            L.solve_green(ops3, pole)


class TestBubbleProfile:
    def test_origin_and_radial_symmetry(self):
        assert L.bubble_profile(np.zeros(2)) == 0.0
        rng = np.random.default_rng(7101)
        for _ in range(50):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            r = rng.uniform(0.0, 5.0)
            a = L.bubble_profile(np.array([r, 0.0]))
            b = L.bubble_profile(r * np.array([np.cos(theta), np.sin(theta)]))
            assert abs(a - b) < 1e-12

    def test_unit_circle_value(self):
        value = L.bubble_profile(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert value.shape == (2,)
        assert np.allclose(value, -2.8421608255885853, rtol=0, atol=1e-13)

    def test_decreasing_in_radius(self):
        r = np.linspace(0.0, 10.0, 201)
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        values = L.bubble_profile(pts)
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((4, 1)), 1.0])
    def test_bad_shape_rejected(self, bad):
        with pytest.raises(DataError):
            L.bubble_profile(bad)


class TestBubbleChecks:
    def test_unit_radius_report(self):
        report = L.bubble_checks(1.0)
        assert report.radius == 1.0
        assert abs(report.dirichlet_integral - 33.30256199039814) < 1e-6
        assert abs(report.mass_integral - 0.7585469929947761) < 1e-8
        assert report.pde_residual_max < 1e-10
        assert report.rescaled_profile_error is None

    def test_closed_forms_match_quadrature(self):
        for R in (0.5, 1.0, 3.0):
            report = L.bubble_checks(R)
            assert report.dirichlet_integral == pytest.approx(
                L.bubble_dirichlet_closed_form(R), abs=1e-8
            )
            assert report.mass_integral == pytest.approx(
                L.bubble_mass_closed_form(R), abs=1e-10
            )

    @pytest.mark.parametrize("R", [1e5, 1e6, 1e30, 7e153])
    def test_large_radius_matches_closed_forms(self, R, recwarn):
        # Past 1/sqrt(pi) the integrals run in ln s, so the peak at the
        # origin is never stepped over.
        report = L.bubble_checks(R)
        mass, dirichlet = L.bubble_mass_closed_form(R), L.bubble_dirichlet_closed_form(R)
        assert abs(report.mass_integral - mass) <= 1e-15 * mass
        assert abs(report.dirichlet_integral - dirichlet) <= 1e-15 * dirichlet
        assert len(recwarn) == 0

    def test_missed_peak_is_numeric_failure(self, monkeypatch):
        # A quadrature that steps over the peak reports a mass near 0
        # against a closed form near 1.
        monkeypatch.setattr("liouvillelab.green.quad", _peak_missing_quad)
        with pytest.raises(NumericError, match="mass quadrature"):
            L.bubble_checks(1e6)

    @pytest.mark.parametrize("R", [1e5, 1e6, 1e100])
    def test_quadrature_warning_is_recorded_in_the_error(self, R, recwarn, monkeypatch):
        # Nothing is printed; SciPy's text travels in the one-line message.
        monkeypatch.setattr("liouvillelab.green.quad", _peak_missing_quad)
        with pytest.raises(NumericError, match="; quadrature warned: ") as info:
            L.bubble_checks(R)
        assert "\n" not in str(info.value)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("R", [1e155, 1e200, 1e300])
    def test_non_finite_closed_form_is_numeric_failure(self, R, recwarn):
        # pi R^2 overflows: the mass closed form is NaN, Dirichlet inf.
        assert not np.isfinite(L.bubble_mass_closed_form(R))
        with pytest.raises(NumericError, match="closed forms are not finite"):
            L.bubble_checks(R)
        assert len(recwarn) == 0

    def test_large_radius_mass_saturates(self):
        report = L.bubble_checks(100.0)
        assert abs(report.mass_integral - 1.0) < 1e-3
        assert report.mass_integral < 1.0

    def test_mass_monotone_in_radius(self):
        masses = [L.bubble_checks(R).mass_integral for R in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(masses, masses[1:]))

    @pytest.mark.parametrize("R", [0.0, -1.0, np.nan])
    def test_bad_radius(self, R):
        with pytest.raises(ParameterError):
            L.bubble_checks(R)

    def test_bad_quadrature(self):
        with pytest.raises(ParameterError):
            L.bubble_checks(1.0, quadrature_n=8)


def _pullback_field(ops, tau, source=0):
    d, _ = geodesic_distances(ops, source)
    return 2.0 * np.log(tau) - 2.0 * np.log1p(np.pi * tau**2 * d**2)


class TestRescaleDiagnostic:
    def test_non_finite_field_is_data_error(self, ops4):
        v = _pullback_field(ops4, 4.0)
        v[7] = np.nan
        with pytest.raises(DataError):
            L.rescale_diagnostic(v, ops4, 1.0)

    def test_synthetic_concentration(self, ops4):
        v = _pullback_field(ops4, 4.0)
        report = L.rescale_diagnostic(v, ops4, 1.0)
        assert report.rescaled_profile_error is not None
        assert report.rescaled_profile_error < 0.2

    def test_error_shrinks_under_refinement(self, ops4):
        coarse = L.rescale_diagnostic(_pullback_field(ops4, 4.0), ops4, 1.0)
        ops5 = L.assemble_operators(L.build_icosphere(5))
        fine = L.rescale_diagnostic(_pullback_field(ops5, 4.0), ops5, 1.0)
        assert fine.rescaled_profile_error < 0.6 * coarse.rescaled_profile_error

    def test_sharp_peak_on_fine_mesh(self):
        ops6 = L.assemble_operators(L.build_icosphere(6))
        report = L.rescale_diagnostic(_pullback_field(ops6, 5.0), ops6, 1.0)
        assert report.rescaled_profile_error < 0.05

    def test_flat_field_rejected(self, ops3):
        with pytest.raises(ResolutionError):
            L.rescale_diagnostic(np.zeros(len(ops3.mesh.vertices)), ops3, 1.0)

    def test_unresolved_peak_rejected(self, ops3):
        # pullback radius R/tau below three edge lengths cannot be sampled
        v = _pullback_field(ops3, 5.0)
        with pytest.raises(ResolutionError):
            L.rescale_diagnostic(v, ops3, 1.0)

    def test_oversized_window_rejected(self, ops4):
        v = _pullback_field(ops4, 5.0)
        with pytest.raises(ResolutionError):
            L.rescale_diagnostic(v, ops4, 10.0)


class TestLowerBoundPredictor:
    def test_round_identity(self):
        predicted = L.lower_bound_predictor(A_ROUND)
        assert abs(predicted - ROUND_ENERGY) < 1e-12

    def test_zero_A(self):
        assert L.lower_bound_predictor(0.0) == pytest.approx(
            -53.902941226551604, abs=1e-12
        )

    def test_decreasing_in_A(self):
        rng = np.random.default_rng(512)
        values = np.sort(rng.uniform(-2.0, 2.0, size=20))
        predicted = [L.lower_bound_predictor(a) for a in values]
        assert all(x > y for x, y in zip(predicted, predicted[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError):
            L.lower_bound_predictor(bad)

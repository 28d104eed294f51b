"""End-to-end acceptance checks.

Eight independent criteria, each printing one PASS line when it holds
(run with -s to see them).  Meshes are shared per module because the
level-5 and level-6 builds dominate the setup cost.  The largest costs
are criterion 4 with its 1000-trial adversarial ascent (about 13 s on a
2-core x86_64 machine) and the level-6 sweep.
"""

import time

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import liouvillelab as L
from liouvillelab.energy import perturbed_functional, perturbed_gradient
from liouvillelab.flow import run_flow
from liouvillelab.inequalities import (
    brezis_merle_check,
    check_global_mt,
    check_local_mt,
    onofri_suite,
    poincare_constant,
    disk_floor_gap,
)
from liouvillelab.solver import SolverConfig, minimize_perturbed

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi
LN_FOUR_PI = np.log(FOUR_PI)
A_ROUND = 4.0 * np.log(2.0) - 2.0


@pytest.fixture(scope="module")
def ops5():
    return L.assemble_operators(L.build_icosphere(5))


def _bumpy_ops(level):
    mesh = L.build_icosphere(level)
    phi = L.random_band_field(mesh, 7, 8, 0.3)
    return L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))


def test_criterion_1_round_perturbed_minimum(ops5):
    u0 = L.random_band_field(ops5.mesh, 3, 8, 0.05)
    worst_rel, worst_spread, worst_time = 0.0, 0.0, 0.0
    for eps in (0.5, 0.25, 0.1):
        start = time.perf_counter()
        result = minimize_perturbed(ops5, SolverConfig(epsilon=eps), u0)
        elapsed = time.perf_counter() - start
        target = -(EIGHT_PI - eps) * LN_FOUR_PI
        rel = abs(result.energy - target) / abs(target)
        spread = float(result.u_min.max() - result.u_min.min())
        assert rel < 0.01, f"eps={eps}: energy {result.energy} vs {target}"
        assert spread < 1e-3, f"eps={eps}: minimizer spread {spread}"
        assert elapsed < 120.0, f"eps={eps}: took {elapsed:.0f}s"
        worst_rel = max(worst_rel, rel)
        worst_spread = max(worst_spread, spread)
        worst_time = max(worst_time, elapsed)
    print(
        f"criterion 1: PASS level-5 round minimum, rel err <= {worst_rel:.2e}, "
        f"spread <= {worst_spread:.2e}, <= {worst_time:.1f}s per epsilon"
    )


def test_criterion_2_bubble_identities():
    report = L.bubble_checks(1.0)
    dirichlet_exact = 16.0 * np.pi * (
        np.log(1.0 + np.pi) + 1.0 / (1.0 + np.pi) - 1.0
    )
    assert report.pde_residual_max < 1e-10
    assert abs(report.dirichlet_integral - dirichlet_exact) < 1e-6
    worst_mass = 0.0
    for R in (0.5, 1.0, 2.0):
        s = np.pi * R * R
        err = abs(L.bubble_checks(R).mass_integral - s / (1.0 + s))
        worst_mass = max(worst_mass, err)
    assert worst_mass < 1e-8
    print(
        f"criterion 2: PASS bubble identities, pde residual "
        f"{report.pde_residual_max:.1e}, dirichlet err "
        f"{abs(report.dirichlet_integral - dirichlet_exact):.1e}, "
        f"mass err <= {worst_mass:.1e}"
    )


def test_criterion_3_green_function():
    ops6 = L.assemble_operators(L.build_icosphere(6))
    green = L.solve_green(ops6, 0)
    adjacency = (ops6.stiffness != 0).astype(np.int8)
    hops = dijkstra(adjacency, unweighted=True, indices=0, limit=2.5)
    outside = ~np.isfinite(hops)
    outside[0] = False
    exact = -4.0 * np.log(np.sin(green.distances[outside] / 2.0)) - 2.0
    max_err = float(np.abs(green.field[outside] - exact).max())
    assert max_err < 0.05
    assert abs(green.A_value - A_ROUND) < 0.05
    identity_gap = abs(L.lower_bound_predictor(A_ROUND) - (-EIGHT_PI * LN_FOUR_PI))
    assert identity_gap < 1e-12
    print(
        f"criterion 3: PASS level-6 Green function, max err {max_err:.4f}, "
        f"A err {abs(green.A_value - A_ROUND):.4f}, "
        f"predictor identity gap {identity_gap:.1e}"
    )


def test_criterion_4_inequality_suites(ops5):
    start = time.perf_counter()
    margins = {}

    onofri = onofri_suite(ops5, 1000, 0)
    margins["onofri"] = onofri.worst_margin

    local = check_local_mt(1.0, 1000, 0)
    margins["local_bound"] = local.worst_margin

    ascent_start = time.perf_counter()
    ascent = check_global_mt(ops5, 0.1, 1000, 0)
    ascent_seconds = time.perf_counter() - ascent_start
    assert not ascent.parameters["diverged"]
    assert ascent.worst_margin > 0.0

    for t in (0.5, 1.0, 2.0, 4.0):
        gap = disk_floor_gap(t * np.pi, 0.0, 1.0)
        margins[f"gap_t{t:g}"] = gap.worst_margin
        if t == 1.0:
            assert abs(gap.worst_margin) < 1e-8

    bm = brezis_merle_check(1.0, 2.0 * np.pi, 1000, 0)
    margins["exp_integrability"] = bm.worst_margin

    worst = min(margins.values())
    elapsed = time.perf_counter() - start
    assert worst > -1e-3, f"worst margin {worst} from {margins}"
    assert elapsed < 600.0, f"suites took {elapsed:.0f}s"
    print(
        f"criterion 4: PASS 1000-sample suites, worst margin {worst:.2e}, "
        f"ascent sup {ascent.parameters['sup_value']:.6f} bounded "
        f"({ascent_seconds:.0f}s, {ascent.parameters['total_iterations']} steps), "
        f"{elapsed:.0f}s total"
    )


def test_criterion_5_poincare_constant(ops5):
    report = poincare_constant(ops5, 2.0)
    c2 = report.parameters["c_p"]
    assert abs(c2 - 0.5) < 0.01
    print(f"criterion 5: PASS level-5 sharp constant c2 = {c2:.6f} (0.5 +- 2%)")


def test_criterion_6_flow_convergence(ops5):
    u0 = L.random_band_field(ops5.mesh, 5, 8, 0.3)
    start = time.perf_counter()
    trace = run_flow(ops5, u0, 10.0)
    elapsed = time.perf_counter() - start
    monotone = all(
        b <= a + 1e-12 * (1.0 + abs(a))
        for a, b in zip(trace.energies, trace.energies[1:])
    )
    drift = max(abs(v - FOUR_PI) for v in trace.volumes)
    final_dev = trace.curvature_deviation[-1]
    assert monotone
    assert drift < 1e-9
    assert final_dev < 1e-3
    assert elapsed < 120.0
    print(
        f"criterion 6: PASS flow to t=10, monotone, volume drift {drift:.1e}, "
        f"final max|R-2| {final_dev:.1e}, {elapsed:.0f}s"
    )


def test_criterion_7_sweep_stability_across_levels():
    energies = {}
    for level in (5, 6):
        ops = _bumpy_ops(level)
        warm = np.zeros(ops.mass.shape)
        row = []
        for eps in (0.5, 0.25, 0.1):
            result = minimize_perturbed(ops, SolverConfig(epsilon=eps), warm)
            warm = result.u_min
            row.append(result.energy)
        energies[level] = row
    for row in energies.values():
        assert all(np.isfinite(e) for e in row)
        # smaller eps relaxes the penalty, so the minimum decreases
        assert row[0] > row[1] > row[2]
    worst_rel = max(
        abs(a - b) / abs(a) for a, b in zip(energies[5], energies[6])
    )
    assert worst_rel < 0.005
    print(
        f"criterion 7: PASS bumpy sweep stable across levels 5/6, "
        f"energies {['%.4f' % e for e in energies[6]]}, "
        f"level gap <= {100 * worst_rel:.4f}%"
    )


def test_criterion_8_structural_invariants(ops4, bumpy3, rng):
    gb_round = abs(float(ops4.curvature @ ops4.mass) - FOUR_PI)
    gb_bumpy = abs(float(bumpy3.curvature @ bumpy3.mass) - FOUR_PI)
    assert max(gb_round, gb_bumpy) < 1e-9

    u = L.random_band_field(bumpy3.mesh, 12, 6, 0.8)
    quad_bumpy = float(u @ (bumpy3.stiffness @ u))
    ops3_round = L.assemble_operators(L.build_icosphere(3))
    quad_round = float(u @ (ops3_round.stiffness @ u))
    conf_gap = abs(quad_bumpy - quad_round) / max(1.0, abs(quad_round))
    assert conf_gap < 1e-10

    u4 = L.random_band_field(ops4.mesh, 4, 5, 0.6)
    base = perturbed_functional(ops4, u4, 0.25).total
    shift_gap = max(
        abs(perturbed_functional(ops4, u4 + c, 0.25).total - base)
        for c in (-7.0, 7.0)
    ) / max(1.0, abs(base))
    assert shift_gap < 1e-9

    grad = perturbed_gradient(ops4, u4, 0.25)
    direction = rng.standard_normal(u4.shape)
    direction /= np.abs(direction).max()
    h = 1e-6
    fd = (
        perturbed_functional(ops4, u4 + h * direction, 0.25).total
        - perturbed_functional(ops4, u4 - h * direction, 0.25).total
    ) / (2.0 * h)
    analytic = float((grad * direction) @ ops4.mass)
    fd_rel = abs(fd - analytic) / max(1.0, abs(analytic))
    assert fd_rel < 1e-5
    print(
        f"criterion 8: PASS invariants, gauss-bonnet {max(gb_round, gb_bumpy):.1e}, "
        f"conformal {conf_gap:.1e}, shift {shift_gap:.1e}, gradient fd {fd_rel:.1e}"
    )

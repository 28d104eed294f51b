import numpy as np
import pytest

from liouvillelab import (
    DataError,
    EIGHT_PI,
    FOUR_PI,
    ParameterError,
    assemble_operators,
    build_icosphere,
    conformal_curvature,
    integrate,
    liouville_energy,
    log_volume,
    mobius_dilation_factor,
    onofri_deficit,
    perturbed_functional,
    perturbed_gradient,
    random_band_field,
    sample_seed,
    set_conformal_background,
)


def test_breakdown_parts_sum_to_total(ops3, rng):
    for _ in range(10):
        u = rng.standard_normal(ops3.mass.shape[0])
        for br in (liouville_energy(ops3, u), perturbed_functional(ops3, u, 0.7)):
            parts = br.dirichlet + br.curvature_term + br.log_volume_term
            assert abs(parts - br.total) <= 1e-12 * max(1.0, abs(br.total))


def test_zero_field_values(ops3):
    assert liouville_energy(ops3, np.zeros(ops3.mass.shape)).total == 0.0
    br = perturbed_functional(ops3, np.zeros(ops3.mass.shape), 0.5)
    expected = -(EIGHT_PI - 0.5) * np.log(FOUR_PI)
    assert abs(br.total - expected) <= 1e-10 * abs(expected)


def test_perturbed_value_against_direct_summation(ops4):
    # Independent reassembly of the same discrete functional, term by term,
    # straight from the operator arrays.
    u = ops4.mesh.vertices[:, 2]
    eps = 1.0
    beta = EIGHT_PI - eps
    direct = (
        0.5 * float(u @ (ops4.stiffness @ u))
        + (beta / FOUR_PI) * float((ops4.curvature * u) @ ops4.mass)
        - beta * float(np.log((np.exp(u) * ops4.mass).sum()))
    )
    assert abs(perturbed_functional(ops4, u, eps).total - direct) <= 1e-8


def test_constant_shift_invariance(ops3, bumpy3, rng):
    """I_eps(u + c) = I_eps(u) because the curvature integrates to 4 pi."""
    for ops in (ops3, bumpy3):
        u = random_band_field(ops.mesh, 11, 5, 0.6)
        base = perturbed_functional(ops, u, 0.3).total
        for c in (5.0, -20.0, 17.5):
            shifted = perturbed_functional(ops, u + c, 0.3).total
            assert abs(shifted - base) <= 1e-9 * max(1.0, abs(base))


def test_liouville_constant_shift_adds_sixteen_pi_c(ops3):
    u = random_band_field(ops3.mesh, 3, 4, 0.5)
    base = liouville_energy(ops3, u).total
    shifted = liouville_energy(ops3, u + 2.0).total
    assert abs(shifted - base - 16.0 * np.pi * 2.0) <= 1e-9


def test_epsilon_out_of_range_rejected(ops2):
    u = np.zeros(ops2.mass.shape)
    for eps in (0.0, -1.0, EIGHT_PI, 30.0, np.nan):
        with pytest.raises(ParameterError):
            perturbed_functional(ops2, u, eps)
        with pytest.raises(ParameterError):
            perturbed_gradient(ops2, u, eps)


def test_field_validation(ops2):
    with pytest.raises(DataError):
        perturbed_functional(ops2, np.zeros(5), 0.5)
    bad = np.zeros(ops2.mass.shape)
    bad[3] = np.inf
    with pytest.raises(DataError):
        log_volume(ops2, bad)


def test_log_volume_overflow_safe(ops2):
    u = np.full(ops2.mass.shape, 800.0)
    assert abs(log_volume(ops2, u) - (800.0 + np.log(FOUR_PI))) <= 1e-9


def test_epsilon_monotone_at_large_volume(ops3):
    # At fixed u with zero curvature pairing and volume above 4 pi the
    # derivative in eps is ln int e^u > 0.
    u = random_band_field(ops3.mesh, 21, 6, 0.8)
    u = u - integrate(ops3, ops3.curvature * u) / integrate(ops3, ops3.curvature)
    u = u + max(0.0, np.log(FOUR_PI) - log_volume(ops3, u)) + 0.1
    values = [perturbed_functional(ops3, u, eps).total
              for eps in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gradient_matches_finite_differences(ops3, ops4):
    """Directional derivatives in the mass pairing, central differences."""
    step = 1e-6
    for ops in (ops3, ops4):
        n = ops.mass.shape[0]
        u = random_band_field(ops.mesh, 17, 5, 0.7)
        g = perturbed_gradient(ops, u, 0.5)
        rng = np.random.default_rng(99)
        for _ in range(20):
            h = rng.standard_normal(n)
            h /= np.sqrt(float((h * h) @ ops.mass))
            plus = perturbed_functional(ops, u + step * h, 0.5).total
            minus = perturbed_functional(ops, u - step * h, 0.5).total
            fd = (plus - minus) / (2.0 * step)
            pairing = float((g * h) @ ops.mass)
            assert abs(fd - pairing) <= 1e-5 * max(1.0, abs(pairing))


def test_gradient_mean_and_round_critical_point(ops4):
    u = random_band_field(ops4.mesh, 6, 7, 0.9)
    g = perturbed_gradient(ops4, u, 0.25)
    scale = np.sqrt(float((g * g) @ ops4.mass))
    assert abs(float(g @ ops4.mass)) <= 1e-10 * max(1.0, scale)

    # constants are critical on the round sphere
    g0 = perturbed_gradient(ops4, np.zeros(ops4.mass.shape), 0.25)
    assert np.sqrt(float((g0 * g0) @ ops4.mass)) <= 1e-12


def test_onofri_deficit_reference_values(ops4):
    assert onofri_deficit(ops4, np.zeros(ops4.mass.shape)) == pytest.approx(0.0, abs=1e-14)

    x3 = ops4.mesh.vertices[:, 2]
    exact = 1.0 / 6.0 - np.log(np.sinh(1.0))
    disc = onofri_deficit(ops4, x3)
    assert disc > 0.0
    assert abs(disc - exact) <= 1e-3

    # independent direct summation of the same discrete quantity
    direct = (
        float(x3 @ (ops4.stiffness @ x3)) / (16.0 * np.pi)
        + float(x3 @ ops4.mass) / FOUR_PI
        - np.log(float((np.exp(x3) * ops4.mass).sum()) / FOUR_PI)
    )
    assert abs(disc - direct) <= 1e-9


def test_onofri_deficit_near_zero_on_dilations():
    ops5 = assemble_operators(build_icosphere(5))
    for lam in (2.0, 3.0):
        u = mobius_dilation_factor(ops5.mesh, lam)
        assert abs(onofri_deficit(ops5, u)) <= 2e-3


def test_onofri_requires_round_background(bumpy3):
    with pytest.raises(ParameterError):
        onofri_deficit(bumpy3, np.zeros(bumpy3.mass.shape))


def test_onofri_deficit_nonnegative_over_band_samples(ops3):
    # 1000 seeded fields; small negatives only at discretization scale.
    worst = np.inf
    for i in range(1000):
        s = sample_seed(0, i)
        rng = np.random.default_rng(s)
        bands = int(rng.integers(2, 10))
        amp = float(rng.uniform(0.1, 1.2))
        u = random_band_field(ops3.mesh, s, bands, amp)
        worst = min(worst, onofri_deficit(ops3, u))
    assert worst >= -1e-3


def test_normalized_liouville_energy_bounded_below(ops3):
    # Volume-normalized fields: continuum lower bound is 0.
    worst = np.inf
    for i in range(1000):
        s = sample_seed(5, i)
        rng = np.random.default_rng(s)
        bands = int(rng.integers(2, 10))
        amp = float(rng.uniform(0.1, 1.2))
        u = random_band_field(ops3.mesh, s, bands, amp)
        u = u - log_volume(ops3, u) + np.log(FOUR_PI)
        worst = min(worst, liouville_energy(ops3, u).total)
    assert worst >= -0.05


def test_liouville_vanishes_on_dilations():
    ops5 = assemble_operators(build_icosphere(5))
    u = mobius_dilation_factor(ops5.mesh, 2.0)
    assert abs(liouville_energy(ops5, u).total) <= 1e-2


def test_conformal_curvature_values(ops3, rng):
    r0 = conformal_curvature(ops3, np.zeros(ops3.mass.shape))
    assert np.abs(r0 - 2.0).max() <= 1e-12

    c = 1.7
    rc = conformal_curvature(ops3, np.full(ops3.mass.shape, c))
    assert np.abs(rc - 2.0 * np.exp(-c)).max() <= 1e-12

    # total curvature of the new metric is a quadrature identity
    u = rng.standard_normal(ops3.mass.shape[0]) * 0.5
    r_new = conformal_curvature(ops3, u)
    total = float((r_new * np.exp(u)) @ ops3.mass)
    assert abs(total - 2.0 * FOUR_PI) <= 1e-6


def _background_pair(level, background):
    # The round operators and those of the normalized background e^phi g_round.
    mesh = build_icosphere(level)
    if background == "mobius":
        phi = mobius_dilation_factor(mesh, 2.0)
    else:
        phi = random_band_field(mesh, 7, 8, 0.3)
    ops = assemble_operators(set_conformal_background(mesh, phi, normalize=True))
    return assemble_operators(mesh), ops, ops.mesh.background_factor


@pytest.mark.parametrize("background", ["mobius", "band"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_perturbed_functional_on_a_background_is_the_shifted_round_one(level, background):
    # K_g m_g = m_round + S phi / 2 exactly, so F^g_eps(u) = F^round_eps(u + phi)
    # - (eps/8pi)(u + phi)^T S phi + (eps/8pi - 1/2) phi^T S phi
    # - (beta/4pi) sum m_round phi.  Measured worst relative gap 2.4e-16.
    round_ops, ops, phi = _background_pair(level, background)
    u = random_band_field(ops.mesh, 4, 8, 0.5)
    s_phi = ops.stiffness @ phi
    for epsilon in (0.5, 0.1, 0.01):
        beta = EIGHT_PI - epsilon
        energy = perturbed_functional(ops, u, epsilon).total
        shifted = (
            perturbed_functional(round_ops, u + phi, epsilon).total
            - (epsilon / EIGHT_PI) * ((u + phi) @ s_phi)
            + (epsilon / EIGHT_PI - 0.5) * (phi @ s_phi)
            - (beta / FOUR_PI) * (ops.round_mass @ phi)
        )
        assert abs(energy - shifted) <= 1e-12 * max(1.0, abs(energy))


@pytest.mark.parametrize("background", ["mobius", "band"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_liouville_energy_on_a_background_is_the_shifted_round_one(level, background):
    # E^g(u) = E^round(u + phi) - phi^T S phi - 4 sum m_round phi.
    # Measured worst relative gap 8.9e-16.
    round_ops, ops, phi = _background_pair(level, background)
    u = random_band_field(ops.mesh, 4, 8, 0.5)
    energy = liouville_energy(ops, u).total
    shifted = (
        liouville_energy(round_ops, u + phi).total
        - phi @ (ops.stiffness @ phi)
        - 4.0 * (ops.round_mass @ phi)
    )
    assert abs(energy - shifted) <= 1e-12 * max(1.0, abs(energy))

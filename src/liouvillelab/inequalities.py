"""Property-based and adversarial checks of the sharp integral
inequalities that control the variational problem.

Every suite reports an :class:`InequalityReport` whose ``worst_margin`` is
the minimum of (bound - quantity) over all samples: nonnegative margins
mean no violation.  Randomness is split per sample as
``seed * 1_000_003 + index`` so any single sample replays bitwise from the
reported ``worst_seed``.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid, simpson

from .energy import _exp_density, _exp_operator, _exp_weights, log_volume, onofri_deficit
from .errors import _MAX_GRID, NumericError, ParameterError, _count, _real
from .mesh import (
    FOUR_PI,
    DiscreteOperators,
    _factor,
    _lowest_modes,
    mobius_dilation_factor,
    random_band_field,
)
from .solver import _armijo, _backtracking, _disk_ratio, disk_min_dirichlet
from .solver import mass_norm, project_constraint

SIXTEEN_PI = 16.0 * np.pi

_SEED_STRIDE = 1_000_003

_ASCENT_CAP = 5000
_DIVERGENCE_THRESHOLD = 1.0e6


@dataclass
class InequalityReport:
    """Aggregated outcome of one inequality suite.

    worst_margin: min over samples of (bound - quantity); >= 0 passes.
    worst_seed: per-sample seed of the first sample whose margin equals
        worst_margin, the one rule of every sampled suite.
    parameters: suite inputs plus reported empirical constants.
    sample_margins: optional (seed, margin) rows for CSV dumps.
    """

    name: str
    samples: int
    worst_margin: float
    worst_seed: int
    parameters: dict = field(default_factory=dict)
    sample_margins: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """Every field but the per-sample rows, which go to CSV instead."""
        summary = asdict(self)
        del summary["sample_margins"]
        return summary


def sample_seed(seed: int, index: int) -> int:
    """Per-sample child seed: counter splitting with a fixed odd stride."""
    # numpy's generators take no negative seed
    return _count("seed", seed, 0) * _SEED_STRIDE + _count("index", index, 0)


def _sampled_report(name, samples, seed, margin_of, parameters):
    """Report of a suite whose sample i has margin margin_of(i, seed_i, rng).

    seed_i is ``sample_seed(seed, i)`` and rng a fresh generator on it.  The
    worst margin is the first smallest one.  A NaN margin raises
    NumericError, since it compares false with every bound and would pass.
    """
    worst_margin, worst_seed = np.inf, sample_seed(seed, 0)
    rows = []
    for i in range(samples):
        s_i = sample_seed(seed, i)
        margin = margin_of(i, s_i, np.random.default_rng(s_i))
        if np.isnan(margin):
            raise NumericError(f"{name}: sample {i} (seed {s_i}) has a NaN margin")
        rows.append((s_i, margin))
        if margin < worst_margin:
            worst_margin, worst_seed = margin, s_i
    return InequalityReport(
        name=name,
        samples=samples,
        worst_margin=float(worst_margin),
        worst_seed=worst_seed,
        parameters=parameters,
        sample_margins=rows,
    )


def _radial_disk_field(rng, grid, modes, amplitude_scale):
    # Zero-boundary radial band on the unit disk: cos((k - 1/2) pi rho)
    # vanishes at rho = 1.
    coeffs = rng.standard_normal(modes)
    amp = rng.uniform(0.2, 2.0) * amplitude_scale
    k = np.arange(1, modes + 1) - 0.5
    phases = np.pi * np.outer(grid, k)
    u = amp * (np.cos(phases) @ coeffs)
    du = -amp * (np.sin(phases) @ (coeffs * k * np.pi))
    return u, du


def check_local_mt(
    r: float,
    samples: int,
    seed: int,
    epsilon: float = 0.0,
    amplitude_scale: float = 1.0,
    modes: int = 6,
    grid_n: int = 2048,
) -> InequalityReport:
    """Exponential-moment bound for zero-boundary fields on a disk.

    For each random radial field u with u(r) = 0 the margin is

        ln(pi r^2 e) + (1/(16 pi) + epsilon) int |grad u|^2 - ln int e^u,

    nonnegative in the continuum for epsilon >= 0.  ``epsilon`` sharpens
    the exponent (the small-radius variant), ``amplitude_scale`` stresses
    the scaling behavior.  The fields are u(rho) = U(rho / r), so the
    margin does not depend on r: it is evaluated on the unit disk, and r is
    only validated and recorded.
    """
    r = _real("r", r, 0.0)
    samples = _count("samples", samples, 1)
    epsilon = _real("epsilon", epsilon, 0.0, closed=True)
    amplitude_scale = _real("amplitude_scale", amplitude_scale)
    modes = _count("modes", modes, 1)
    # 0 or 1 cells gave +inf margins; disk_min_dirichlet's floor
    grid_n = _count("grid_n", grid_n, 256, _MAX_GRID)
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    bound_const = np.log(np.pi) + 1.0
    coeff = 1.0 / SIXTEEN_PI + epsilon

    def margin_of(i, s_i, rng):
        u, du = _radial_disk_field(rng, grid, modes, amplitude_scale)
        dirichlet = 2.0 * np.pi * simpson(du * du * grid, x=grid)
        exp_int = 2.0 * np.pi * simpson(np.exp(u) * grid, x=grid)
        return bound_const + coeff * dirichlet - np.log(exp_int)

    parameters = {
        "r": r,
        "epsilon": epsilon,
        "amplitude_scale": amplitude_scale,
        "modes": modes,
        "grid_n": grid_n,
    }
    return _sampled_report(
        "local_exponential_bound", samples, seed, margin_of, parameters
    )


def disk_floor_gap(a: float, b: float, r: float, grid_n: int = 4096) -> InequalityReport:
    """Gap of the constrained disk minimum over its closed-form floor.

    margin = disk_min_dirichlet(a, b, r) - 4 pi (ln t + 1/t - 1) with
    t = a exp(-2b) / (pi r^2), so the bound depends on (a, b) only through
    t.  The margin is zero at t = 1 and otherwise an O(h^2) excess,
    h = 1 / grid_n, that Rayleigh-Ritz keeps nonnegative up to the Newton stop.
    """
    return _disk_gap(disk_min_dirichlet(a, b, r, grid_n), a, b, r)


def _disk_gap(minimum, a, b, r) -> InequalityReport:
    """The disk_floor_gap report of a disk_min_dirichlet(a, b, r) result."""
    t = _disk_ratio(a, b, r)
    bound = FOUR_PI * (np.log(t) + 1.0 / t - 1.0)
    margin = float(minimum.value - bound)
    parameters = {
        "a": a,
        "b": b,
        "r": r,
        "grid_n": len(minimum.radii) - 1,
        "t": t,
        "value": minimum.value,
        "bound": float(bound),
    }
    return _sampled_report("disk_dirichlet_gap", 1, 0, lambda *_: margin, parameters)


def _tangent_project(ops, g):
    # Remove the component normal to {int K u = 0} in the mass metric.
    k_field = ops.curvature
    scale = ((g * k_field) @ ops.mass) / ((k_field * k_field) @ ops.mass)
    return g - scale * k_field


def _ascend(ops, u0, kappa, metrics, cap):
    """Maximize ln int e^u - kappa u^T S u over the pairing constraint.

    Projected ascent whose step solves a metric against the gradient:
    ``metrics`` lists inverse-metric solves in order of preference.  The
    first is the negative Hessian at the constant maximizer, a Newton-like
    step that flattens both the 1/h^2 stiffness conditioning and the
    functional's curvature; it is positive only while 2 kappa lambda_1 >
    1/V.  A step whose slope in the current metric is <= 0 switches the
    trial to the next metric (the Sobolev metric 2 kappa S + M, positive
    everywhere) for the rest of the trial; with no metric left the trial
    ends.  Doubling/backtracking line search; stops on a small tangent
    gradient, a stagnant value window or a failed line search.  Returns
    (best value, accepted steps, diverged flag).

    The line search is the minimizer's on the negated value, from the
    doubled last step (see ``solver._armijo``): a trial at its roundoff
    floor ends through the failed search.
    """
    u = project_constraint(ops, u0)
    value = log_volume(ops, u) - kappa * float(u @ (ops.stiffness @ u))
    step = 1.0
    anchor = value
    metric = 0
    for it in range(cap):
        if value > _DIVERGENCE_THRESHOLD:
            return value, it, True
        if it % 20 == 0:
            if it > 0 and value - anchor < 1e-12 * max(1.0, abs(value)):
                return value, it, False
            anchor = value
        grad = _exp_density(ops, u) - 2.0 * kappa * (ops.stiffness @ u) / ops.mass
        grad = _tangent_project(ops, grad)
        if mass_norm(ops, grad) < 1e-10 * max(1.0, abs(value)):
            return value, it, False
        for metric in range(metric, len(metrics)):
            direction = _tangent_project(ops, metrics[metric](grad * ops.mass))
            slope = float((direction * grad) @ ops.mass)
            if slope > 0:
                break
        else:
            return value, it, False
        for step in _backtracking(-value, -slope, min(step * 2.0, 1e3)):
            u_try = project_constraint(ops, u + step * direction)
            v_try = log_volume(ops, u_try) - kappa * float(
                u_try @ (ops.stiffness @ u_try)
            )
            if _armijo(value - v_try, step, -slope):
                break
        else:
            return value, it, False
        u, value = u_try, v_try
    return value, cap, value > _DIVERGENCE_THRESHOLD


def check_global_mt(
    ops: DiscreteOperators, epsilon: float, trials: int, seed: int
) -> InequalityReport:
    """Adversarial boundedness of ln int e^u - (1/(16 pi) + eps) int |grad u|^2.

    Gradient ascent from a zero start plus ``trials - 1`` random band-field
    starts; the pass condition is that no ascent crosses the divergence
    threshold.  A trial's margin is the threshold minus its value.  The best
    value found is the empirical log-supremum constant, reported in
    parameters["sup_value"], and worst_seed is the first trial that reached
    it up to the rounding of the margin: the first with the worst margin.
    On the round sphere the supremum is ln(4 pi), attained by constants,
    and every trial ends there to roundoff, so the margins tie and
    worst_seed is the first trial's seed.

    The ascent steps in the negative Hessian at the constant,
    H = K + (2/V^2) w w^T with K = 2 kappa S - W/V, where w, W and V are the
    moment's weights, operator and volume at u = 0.  K is indefinite (-1/V
    on constants) and is factored once per suite; since S 1 = 0 and W 1 = w,
    K^-1 w = -V 1, so Sherman-Morrison gives
    H^-1 b = K^-1 b - (2/V)(w^T K^-1 b) 1 with no further solve.  A trial
    whose step has a nonpositive slope in H (H is positive only while
    2 kappa lambda_1 > 1/V, which strong backgrounds can break) continues in
    the Sobolev metric 2 kappa S + M, factored at most once per suite and
    only when a trial needs it.
    """
    epsilon = _real("epsilon", epsilon, 0.0)
    trials = _count("trials", trials, 1)
    seed = _count("seed", seed, 0)
    kappa = 1.0 / SIXTEEN_PI + epsilon
    zero = np.zeros(ops.mass.shape)
    weights = _exp_weights(ops, zero)
    volume = float(weights.sum())
    solve_k = _factor(
        2.0 * kappa * ops.stiffness - _exp_operator(ops, zero, 1.0 / volume),
        "ascent metric",
        ops.mesh,
    )

    def solve_hessian(rhs):
        x = solve_k(rhs)
        return x - (2.0 / volume) * float(weights @ x)

    @functools.cache
    def sobolev_factor():
        metric = 2.0 * kappa * ops.stiffness + sp.diags(ops.mass)
        return _factor(metric, "ascent Sobolev metric", ops.mesh)

    metrics = (solve_hessian, lambda rhs: sobolev_factor()(rhs))
    ascents = []  # (value, accepted steps, diverged) per trial

    def margin_of(i, s_i, rng):
        if i == 0:
            u0 = zero
        else:
            bands = int(rng.integers(3, 12))
            amp = float(rng.uniform(0.3, 2.0))
            u0 = random_band_field(ops.mesh, s_i, bands, amp)
        ascents.append(_ascend(ops, u0, kappa, metrics, _ASCENT_CAP))
        return _DIVERGENCE_THRESHOLD - ascents[-1][0]

    report = _sampled_report(
        "global_exponential_sup", trials, seed, margin_of, {"epsilon": epsilon}
    )
    values, iterations, diverged = zip(*ascents)
    report.parameters.update(
        sup_value=float(max(values)),
        diverged=any(diverged),
        iteration_cap=_ASCENT_CAP,
        divergence_threshold=_DIVERGENCE_THRESHOLD,
        total_iterations=sum(iterations),
    )
    return report


def onofri_suite(
    ops: DiscreteOperators,
    samples: int,
    seed: int,
    amplitude_max: float = 1.5,
    dilation_max: float = 4.0,
) -> InequalityReport:
    """Sharp exponential-moment deficits over random and dilation fields.

    Requires a round background (the deficit is only defined there).  Odd
    samples draw band fields, even samples (past the first) draw dilation
    factors with log-uniform scale in [1/dilation_max, dilation_max]; the
    dilations are near-equality cases, so they probe the sharp constant.
    dilation_max is at most 1e150, so every drawn scale's square stays in
    the floating-point range.  Margins are the deficits themselves:
    nonnegative up to discretization.
    """
    samples = _count("samples", samples, 1)
    amplitude_max = _real("amplitude_max", amplitude_max, 0.0)
    dilation_max = _real("dilation_max", dilation_max, 1.0, 1e150, closed=True)

    def margin_of(i, s_i, rng):
        if i == 0:
            u = np.zeros(ops.mass.shape)
        elif i % 2 == 0:
            loglam = rng.uniform(-np.log(dilation_max), np.log(dilation_max))
            u = mobius_dilation_factor(ops.mesh, float(np.exp(loglam)))
        else:
            bands = int(rng.integers(2, 10))
            amp = float(rng.uniform(0.1, amplitude_max))
            u = random_band_field(ops.mesh, s_i, bands, amp)
        return onofri_deficit(ops, u)

    parameters = {"amplitude_max": amplitude_max, "dilation_max": dilation_max}
    return _sampled_report("onofri_deficit", samples, seed, margin_of, parameters)


def poincare_constant(
    ops: DiscreteOperators,
    p: float,
    modes: int = 30,
    starts: int = 8,
    seed: int = 0,
    iterations: int = 400,
) -> InequalityReport:
    """Best constant c_p in (int |u|^p)^(2/p) <= c_p int |grad u|^2 over
    the curvature-pairing constraint.

    p = 2: exact reduction to a dense generalized eigenproblem over the
    lowest ``modes`` eigenfields plus the constant direction (constants
    cost no Dirichlet energy but are constrained through the pairing).
    p != 2: multi-start projected gradient ascent on the log quotient.
    The constant is reported in parameters["c_p"]; worst_margin is 0 by
    convention (the inequality defines c_p rather than bounding it).
    """
    p = _real("p", p, 1.0, closed=True)
    modes = _count("modes", modes, 1, ops.mass.shape[0] - 3)
    starts = _count("starts", starts, 1)
    seed = _count("seed", seed, 0)
    iterations = _count("iterations", iterations, 0)
    vals, vecs = _lowest_modes(
        ops.stiffness, ops.mass, modes + 1, "Poincare eigensolve", ops.mesh
    )
    vals, vecs = vals[1:], vecs[:, 1:]
    if vals.min() <= 0:
        raise NumericError("nonpositive eigenvalue in the constrained pencil")

    if p == 2:
        # u = c0/sqrt(A) + sum a_k psi_k; constraint eliminates c0.
        kappa = vecs.T @ (ops.mass * ops.curvature)
        kappa0 = float((ops.curvature @ ops.mass) / np.sqrt(ops.total_area))
        ratio = kappa / kappa0
        numerator = np.eye(modes) + np.outer(ratio, ratio)
        try:
            pencil = sla.eigh(numerator, np.diag(vals), eigvals_only=True)
        except sla.LinAlgError as exc:
            raise NumericError(f"Poincare reduced eigenproblem failed: {exc}") from exc
        c_p = float(pencil.max())
        report_samples, worst_seed = 1, seed
    else:
        inv_mass = 1.0 / ops.mass

        def margin_of(i, s_i, rng):
            u = _tangent_project(ops, vecs @ rng.standard_normal(modes))
            for _ in range(iterations):
                norm2 = float((u * u) @ ops.mass)
                if norm2 < 1e-30:
                    break
                u = u / np.sqrt(norm2)
                su = ops.stiffness @ u
                dirichlet = float(u @ su)
                p_int = float((np.abs(u) ** p) @ ops.mass)
                grad = (
                    2.0 * np.abs(u) ** (p - 1.0) * np.sign(u) / p_int
                    - 2.0 * (su * inv_mass) / dirichlet
                )
                direction = _tangent_project(ops, grad)
                d_norm = mass_norm(ops, direction)
                if d_norm < 1e-10:
                    break
                u = u + 0.1 * direction / max(1.0, d_norm)
            su = ops.stiffness @ u
            quotient = float((np.abs(u) ** p) @ ops.mass) ** (2.0 / p) / float(u @ su)
            return -quotient

        # The largest quotient is the smallest margin; negation is exact.
        ascent = _sampled_report("poincare_constant", starts, seed, margin_of, {})
        report_samples, c_p, worst_seed = starts, -ascent.worst_margin, ascent.worst_seed
    return InequalityReport(
        name="poincare_constant",
        samples=report_samples,
        worst_margin=0.0,
        worst_seed=worst_seed,
        parameters={"p": p, "c_p": c_p, "modes": modes},
    )


def _radial_poisson_exp_integral(grid, f_values, delta):
    """Closed-chain evaluation of the exponential integrability functional.

    Solves -Delta u = f radially with u(r) = 0 through two cumulative
    integrals, then returns (2 pi int exp((4 pi - delta)|u| / ||f||_1) rho,
    ||f||_1).  A zero source gives exactly pi r^2.
    """
    r = grid[-1]
    flux = cumulative_trapezoid(f_values * grid, grid, initial=0.0)
    f_norm = 2.0 * np.pi * np.trapezoid(np.abs(f_values) * grid, grid)
    if f_norm == 0.0:
        return np.pi * r * r, 0.0
    integrand = np.zeros_like(grid)
    integrand[1:] = flux[1:] / grid[1:]
    cumulative = cumulative_trapezoid(integrand, grid, initial=0.0)
    u = cumulative[-1] - cumulative
    weight = np.exp((FOUR_PI - delta) * np.abs(u) / f_norm)
    return 2.0 * np.pi * np.trapezoid(weight * grid, grid), f_norm


def brezis_merle_check(
    r: float, delta: float, samples: int, seed: int, grid_n: int = 4096
) -> InequalityReport:
    """Exponential integrability of -Delta u = f with zero boundary data.

    Cycles through three source families: centered Gaussian bumps with
    widths geometrically spaced from r/2 down to 4 grid cells, random
    zero-boundary radial bands, and signed bump differences.  The guard
    value is 10x the widest-bump integral; margins are guard - integral.
    The empirical constant (the largest integral seen) is reported in
    parameters["max_integral"].

    Every source is f(rho) = F(rho / r), so u scales by r^2 with ||f||_1
    and each integral is r^2 times its unit-disk value: the suite runs on
    the unit disk and scales the integrals, guard and margins by r^2.  An r
    whose pi r^2 is not a normal positive float, or whose scaled guard
    overflows, is refused with a ParameterError.
    """
    r = _real("r", r, 0.0)
    delta = _real("delta", delta, 0.0, FOUR_PI)
    samples = _count("samples", samples, 1)
    grid_n = _count("grid_n", grid_n, 256, _MAX_GRID)
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    h = 1.0 / grid_n
    widths = np.geomspace(0.5, 4.0 * h, num=max(8, min(64, samples)))
    reference = np.exp(-(grid**2) / (2.0 * 0.5**2))
    guard, _ = _radial_poisson_exp_integral(grid, reference, delta)
    guard *= 10.0
    scale = r * r
    if not np.pi * scale >= np.finfo(float).tiny or np.isinf(guard * scale):
        raise ParameterError(
            f"r = {r:g} is out of range: pi r^2 = {np.pi * scale:g} and the guard "
            f"{guard * scale:g} must be normal positive floats"
        )
    integrals = []

    def margin_of(i, s_i, rng):
        kind = i % 3
        if kind == 0:
            sigma = widths[i // 3 % len(widths)]
            f_values = rng.uniform(0.5, 2.0) * np.exp(
                -(grid**2) / (2.0 * sigma * sigma)
            )
        elif kind == 1:
            f_values, _ = _radial_disk_field(rng, grid, 6, 1.0)
        else:
            s1, s2 = rng.choice(widths, size=2, replace=False)
            f_values = np.exp(-(grid**2) / (2 * s1 * s1)) - rng.uniform(
                0.3, 1.0
            ) * np.exp(-(grid**2) / (2 * s2 * s2))
        integral, _ = _radial_poisson_exp_integral(grid, f_values, delta)
        integrals.append(integral)
        return (guard - integral) * scale

    parameters = {"r": r, "delta": delta, "grid_n": grid_n}
    parameters["guard"] = float(guard * scale)
    report = _sampled_report("exp_integrability", samples, seed, margin_of, parameters)
    report.parameters["max_integral"] = float(max(integrals) * scale)
    return report

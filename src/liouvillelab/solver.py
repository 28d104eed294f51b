"""Constrained minimization of the perturbed functional and its
Euler-Lagrange equation, plus the radial constrained disk problem."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import hyp1f1

from .energy import (
    EIGHT_PI,
    _check_epsilon,
    _exp_operator,
    log_volume,
    perturbed_functional,
    perturbed_gradient,
)
from .errors import ConvergenceError, NumericError, ParameterError, ResolutionError
from .errors import _MAX_GRID, _count, _field, _real
from .mesh import DiscreteOperators, ScalarField, _factor, _minres, _v_cycle

_STEP_FLOOR = 2.0**-30
_DISK_MAX_JUMP = np.log(2.0) / 2.0  # exp(2 v0) may at most double across a disk cell
_H1_STEPS = 3  # H1 steps before the first Newton try and after a rejected one
_LINE_SEARCH_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4  # Armijo constant


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of :func:`minimize_perturbed` and :func:`solve_mean_field`.

    gradient_tolerance is the mass-norm stopping threshold, relative to
    max(1, |energy|); :func:`solve_mean_field` sets it to 8*pi times its
    own tolerance and checks its residual against that bound.
    max_iterations caps every step the solver takes, H1 and Newton steps
    together.  The mean-field solve runs the same minimizer, so it returns
    the constrained minimizer, not a saddle point.
    """

    epsilon: float
    max_iterations: int = 4000
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _count("max_iterations", self.max_iterations, 1)
        _real("gradient_tolerance", self.gradient_tolerance, 0.0)


@dataclass
class MinimizerResult:
    """Outcome of a variational solve.

    u_min satisfies the zero-mean curvature pairing constraint; v_field is
    the same critical point normalized to unit exponential volume, so it
    solves the mean-field equation.  iterations holds (step, energy,
    gradient_norm) rows, one for the start and one per step; every
    gradient_norm is the mass-norm Euler-Lagrange residual at the
    unit-volume shift of the row's iterate, and el_residual is the last
    row's.  polish_steps is the number of Newton steps among them; the
    name is kept for the artifacts that read it.
    """

    epsilon: float
    u_min: ScalarField
    v_field: ScalarField
    energy: float
    el_residual: float
    peak_value: float
    peak_vertex: int
    iterations: list = field(default_factory=list)
    polish_steps: int = 0


def mass_norm(ops: DiscreteOperators, g: np.ndarray) -> float:
    """Mass-weighted L2 norm used for every stopping test in this module."""
    return float(np.sqrt((g * g) @ ops.mass))


def project_constraint(ops: DiscreteOperators, u: np.ndarray) -> ScalarField:
    """Shift u by a constant so the curvature pairing integral vanishes.

    Because the functional is constant-shift invariant, this projection
    changes neither the energy nor the gradient; it is idempotent.
    """
    u = _field("u", u, len(ops.mass))
    total = float(ops.curvature @ ops.mass)
    return u - float((ops.curvature * u) @ ops.mass) / total


def _newton_direction(ops, epsilon, u, grad, precond):
    # Newton step of the Euler-Lagrange equation at v = u - log_volume(u),
    # where its residual is grad, by MINRES on the symmetric indefinite
    # Jacobian, preconditioned by the H1 cycle; None when the solve fails.
    v = u - log_volume(ops, u)
    jac = ops.stiffness - _exp_operator(ops, v, EIGHT_PI - epsilon)
    try:
        return _minres(jac, -(grad * ops.mass), precond, "minimizer Newton step")
    except NumericError:
        return None


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trial fails its test
def minimize_perturbed(
    ops: DiscreteOperators, config: SolverConfig, initial: np.ndarray | None = None
) -> MinimizerResult:
    """Minimize the perturbed functional over the zero-pairing hyperplane.

    One loop with the energy as merit function.  From the fourth step on,
    each step first tries Newton on the Euler-Lagrange equation (Jacobian
    S - diag(beta exp(v) mass) at the unit-volume shift v), which moves
    along the three near-null conformal modes where gradient steps crawl
    at small epsilon; it is taken when Armijo backtracking on the energy
    accepts it.  Otherwise, and for 3 steps after a rejected try, the step
    is H1 gradient descent with Armijo backtracking, preconditioned by one
    multigrid V-cycle of stiffness plus mass, which on a mesh with no
    recorded level above 642 vertices is its exact LU (symmetric positive
    definite either way, so the direction descends).  The Jacobian is
    symmetric but indefinite; the Newton system is solved by MINRES with
    that same cycle as preconditioner, and a MINRES failure rejects the
    try like a failed line search.  Trial points are
    projected onto the hyperplane; max_iterations caps all steps, and the
    trace's energies never rise.  Raises ConvergenceError with the best
    iterate attached if the gradient norm misses the tolerance when the
    budget is spent or the energy reaches its roundoff floor, NumericError
    if the functional overflows at the start.
    """
    if initial is None:
        initial = np.zeros(ops.mass.shape)
    else:
        initial = _field("initial", initial, len(ops.mass))

    u = project_constraint(ops, initial)
    energy = perturbed_functional(ops, u, config.epsilon).total
    grad = perturbed_gradient(ops, u, config.epsilon)
    grad_norm = mass_norm(ops, grad)
    if not np.isfinite(energy + grad_norm):
        raise NumericError("the functional overflows at the initial field")
    rows = [(0, energy, grad_norm)]
    precond = _v_cycle(ops.stiffness + sp.diags(ops.mass), "H1 preconditioner", ops.mesh)
    h1_step = 1.0
    newton_steps = rejected = 0  # rejected: last step whose Newton try failed
    for iteration in range(1, config.max_iterations + 1):
        # 0.5 * tolerance is below every final threshold; a roundoff plateau
        # above it ends the loop below, and the final check decides.
        if grad_norm <= 0.5 * config.gradient_tolerance:
            break
        for newton in (True, False) if iteration > rejected + _H1_STEPS else (False,):
            if newton:
                direction = _newton_direction(ops, config.epsilon, u, grad, precond)
                step = 1.0
            else:
                direction = -precond(grad * ops.mass)
                step = min(h1_step * 2.0, 16.0)
            slope = 0.0 if direction is None else float((direction * grad) @ ops.mass)
            while slope < 0.0 and step >= _STEP_FLOOR:  # descent directions only
                u_try = project_constraint(ops, u + step * direction)
                energy_try = perturbed_functional(ops, u_try, config.epsilon).total
                if energy_try <= energy + step * _SUFFICIENT_DECREASE * slope:
                    break
                step *= _LINE_SEARCH_SHRINK
            else:
                rejected = iteration
                continue  # fall back to the H1 direction
            break
        else:
            break  # energy is at the roundoff floor
        newton_steps += newton
        h1_step = h1_step if newton else step
        previous = energy, grad_norm
        u, energy = u_try, energy_try
        grad = perturbed_gradient(ops, u, config.epsilon)
        grad_norm = mass_norm(ops, grad)
        rows.append((iteration, energy, grad_norm))
        if energy >= previous[0] and grad_norm >= previous[1]:
            break  # roundoff plateau: the step gained nothing

    v = u - log_volume(ops, u)
    peak = int(np.argmax(v))
    result = MinimizerResult(
        epsilon=config.epsilon,
        u_min=u,
        v_field=v,
        energy=energy,
        el_residual=grad_norm,
        peak_value=float(v[peak]),
        peak_vertex=peak,
        iterations=rows,
        polish_steps=newton_steps,
    )
    tolerance = config.gradient_tolerance * max(1.0, abs(energy))
    if not grad_norm <= tolerance:  # also catches NaN
        raise ConvergenceError(
            f"gradient norm {grad_norm:.3e} above tolerance {tolerance:.3e}",
            best=result,
            trace=result.iterations,
        )
    return result


def solve_mean_field(
    ops: DiscreteOperators,
    epsilon: float,
    initial: np.ndarray | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 100,
) -> MinimizerResult:
    """Solve -Delta v + (beta/4pi) K = beta exp(v), int exp(v) dV = 1.

    The solution returned is the constrained minimizer of the perturbed
    functional, found by :func:`minimize_perturbed` from ``initial``, not a
    saddle point.  ``tolerance`` is relative: the residual mass-norm is
    compared against tolerance * 8*pi.  The default start is the constant
    field with unit exponential volume, which on a round background is
    already the exact solution.  The returned v_field satisfies the unit
    volume normalization to solver precision.  Raises ConvergenceError with
    the best v-field and the trace attached if the residual misses the
    tolerance.
    """
    # Validates epsilon, tolerance and max_iterations before any work.
    config = SolverConfig(
        epsilon=epsilon,
        max_iterations=max_iterations,
        gradient_tolerance=_real("tolerance", tolerance, 0.0) * EIGHT_PI,
    )
    if initial is None:
        initial = np.full(ops.mass.shape, -log_volume(ops, np.zeros(ops.mass.shape)))
    try:
        result = minimize_perturbed(ops, config, initial)
    except ConvergenceError as exc:
        result = exc.best
    # The minimizer's final test is relative to max(1, |energy|).
    if not result.el_residual <= config.gradient_tolerance:  # also catches NaN
        raise ConvergenceError(
            f"mean-field residual {result.el_residual:.3e} above "
            f"{config.gradient_tolerance:.1e} after {len(result.iterations) - 1} "
            "steps",
            best=result.v_field,
            trace=result.iterations,
        )
    return result


@dataclass(frozen=True)
class DiskMinimum:
    """Constrained radial Dirichlet minimum on a flat disk.

    value is the full Dirichlet integral 2*pi * int w'(rho)^2 rho d rho;
    radii and profile sample the minimizer.  multiplier is the constraint
    multiplier at the solution, mapped back from the unit disk as
    mu / (r^2 exp(2 b)); residual is the Lagrange residual of the returned
    unit-disk solution, dimensionless: the interior gradient and the volume
    gap relative to pi t (see :func:`disk_min_dirichlet`).
    """

    value: float
    radii: np.ndarray
    profile: np.ndarray
    multiplier: float
    residual: float


def _disk_ratio(a: float, b: float, r: float) -> float:
    """t = a exp(-2b) / (pi r^2), the disk problem's one parameter; finite, > 0.

    a and pi r^2 must be normal positive floats: a subnormal one has lost
    the digits that t would carry, so t comes out wrong with no error.
    """
    area = np.pi * r * r
    for name, value in (("a", a), ("pi r^2", area)):
        if not np.finfo(float).tiny <= value < np.inf:
            raise ParameterError(
                f"t = a exp(-2b) / (pi r^2) needs a normal positive {name}, got {value:g}"
            )
    with np.errstate(all="ignore"):
        t = a * np.exp(-2.0 * b) / area
    return _real("t = a exp(-2b) / (pi r^2)", float(t), 0.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # _factor checks the step
def disk_min_dirichlet(a: float, b: float, r: float, grid_n: int = 4096) -> DiskMinimum:
    """Minimize int |grad w|^2 over the disk of radius r subject to
    int exp(2 w) dx = a and boundary value w = b.

    The problem depends on (a, b, r) only through t = a exp(-2b) / (pi r^2):
    w(rho) = b + v(rho / r), where v minimizes on the unit disk with v(1) = 0
    and int exp(2 v) = pi t; the multiplier maps back as mu / (r^2 exp(2 b)).
    v is P1 in rho with its Dirichlet integral and constraint exact per cell,
    so the map is exact and v is admissible in the continuum: by Rayleigh-Ritz
    the value is at least the continuum minimum, up to the Newton stop.
    Newton with the exact Hessian, factored once per step by _factor, starts
    at the continuum minimizer v0 = ln t - ln(1 + (t - 1) rho^2),
    mu0 = 4 (t - 1) / t^2, O(h^2) from the answer, takes full steps and
    stops at a correction below 1e-10.  A grid
    on which v0 changes by more than ln 2 / 2 between neighbouring nodes
    cannot hold the profile: ResolutionError, before any solve, because
    there the value lies far above the minimum and Newton's solves can turn
    singular.  Second-order accurate: doubling grid_n quarters the error.
    """
    a = _real("a", a, 0.0)
    b = _real("b", b)
    r = _real("r", r, 0.0)
    n = _count("grid_n", grid_n, 256, _MAX_GRID)
    t = _disk_ratio(a, b, r)
    rho = np.linspace(0.0, 1.0, n + 1)
    # 1 + (t - 1) rho^2 in a form that is exactly t at rho = 1, so v0(1) = 0.
    log_density = np.log(t * rho * rho + (1.0 - rho * rho))
    jump = float(np.abs(np.diff(log_density)).max())
    if jump > _DISK_MAX_JUMP:
        raise ResolutionError(
            f"disk profile at t = {t:.6g} changes by {jump:.3g} between "
            f"neighbouring nodes of grid_n = {n}, above ln 2 / 2"
        )
    h = 1.0 / n
    # Conductances rho_{j+1/2} / h = j + 1/2 of the form sum_j k_j (v_{j+1} - v_j)^2.
    k = np.arange(n) + 0.5
    target = t / 2.0  # int_0^1 e^{2v} rho d rho

    def residual(v, mu):
        # Cell j's moments c_m = int s^m e^{2v} rho d rho, rho = (j + s) h, are
        # h^2 e^{2 v_j} (j I_m + I_{m+1}) at d = 2 (v_{j+1} - v_j); c_0 sums to
        # the constraint.  Flux differences keep grad's roundoff at the fluxes'.
        moments = _cell_moments(2.0 * np.diff(v))
        c = h * h * np.exp(2.0 * v[:-1]) * (np.arange(n) * moments[:3] + moments[1:])
        grad_c = 2.0 * (c[0] - np.diff(c[1], prepend=0.0))
        grad = -2.0 * np.diff(k * np.diff(v), prepend=0.0) - mu * grad_c
        gap = c[0].sum() / target - 1.0
        return grad, gap, c, grad_c, float(np.sqrt(grad @ grad + gap * gap))

    v, mu = np.log(t) - log_density, 4.0 * (t - 1.0) / (t * t)
    for _ in range(80):
        grad, gap, c, grad_c, res_norm = residual(v, mu)
        # Exact Hessian: 2 (Dirichlet block at conductances w) - diag(2 mu grad_c).
        w = k + 2.0 * mu * (c[1] - c[2])
        diagonal = 2.0 * (w + np.append(0.0, w[:-1]) - mu * grad_c)
        hess = sp.diags([-2.0 * w[:-1], diagonal, -2.0 * w[:-1]], [-1, 0, 1])
        column = -grad_c
        # KKT system [[hess, column], [-column^T / target, 0]] by its Schur
        # complement: one tridiagonal factor for both right-hand sides
        # keeps the border out of the pivoting.
        y, z = _factor(hess, "disk Newton step")(np.column_stack([-grad, column])).T
        d_mu = (column @ y - gap * target) / (column @ z)
        d_v = np.append(y - d_mu * z, 0.0)
        step = max(np.abs(d_v).max(), abs(d_mu) / max(1.0, abs(mu)))
        v, mu = v + d_v, mu + d_mu
        if step <= 1e-10:
            break  # Newton's last correction: the rest is below roundoff
    else:
        raise ConvergenceError(
            f"disk Newton did not converge in 80 steps (residual {res_norm:.3e})",
            best=b + v,
        )
    value = float(2.0 * np.pi * (k @ np.diff(v) ** 2))  # scale-free: no mapping
    multiplier = float(mu / (r * r * np.exp(2.0 * b)))
    return DiskMinimum(value, r * rho, b + v, multiplier, residual(v, mu)[4])


def _cell_moments(d):
    # I_m(d) = int_0^1 s^m e^{ds} ds, m = 0..3.  SciPy's hyp1f1(a, a+1, x)
    # hangs at huge x for a >= 2; past d ~ 710 every I_m overflows anyway.
    m = np.arange(4.0)[:, None]
    return hyp1f1(m + 1.0, m + 2.0, np.minimum(d, 1e3)) / (m + 1.0)

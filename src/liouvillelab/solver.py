"""Constrained minimization of the perturbed functional and its
Euler-Lagrange equation, plus the radial constrained disk problem."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .energy import (
    EIGHT_PI,
    _check_epsilon,
    _exp_operator,
    log_volume,
    perturbed_functional,
    perturbed_gradient,
)
from .errors import ConvergenceError, NumericError, _count, _field, _real
from .mesh import DiscreteOperators, ScalarField, _factor, _solve, integrate

_STEP_FLOOR = 2.0**-30
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
    total = integrate(ops, ops.curvature)
    return u - integrate(ops, ops.curvature * u) / total


def _newton_direction(ops, epsilon, u, grad):
    # Newton step of the Euler-Lagrange equation at v = u - log_volume(u),
    # where its residual is grad; None when the solve fails.
    v = u - log_volume(ops, u)
    jac = ops.stiffness - _exp_operator(ops, v, EIGHT_PI - epsilon)
    try:
        return _solve(jac, -(grad * ops.mass), "minimizer Newton step", ops.mesh)
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
    is H1 gradient descent (preconditioned by stiffness plus mass) with
    Armijo backtracking.  Trial points are projected onto the hyperplane;
    max_iterations caps all steps, and the trace's energies never rise.
    Raises ConvergenceError with the best iterate attached if the
    gradient norm misses the tolerance when the budget is spent or the
    energy reaches its roundoff floor, NumericError if the functional
    overflows at the start.
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
    precond = _factor(ops.stiffness + sp.diags(ops.mass), "H1 preconditioner", ops.mesh)
    h1_step = 1.0
    newton_steps = rejected = 0  # rejected: last step whose Newton try failed
    for iteration in range(1, config.max_iterations + 1):
        # 0.5 * tolerance is below every final threshold; a roundoff plateau
        # above it ends the loop below, and the final check decides.
        if grad_norm <= 0.5 * config.gradient_tolerance:
            break
        for newton in (True, False) if iteration > rejected + _H1_STEPS else (False,):
            if newton:
                direction, step = _newton_direction(ops, config.epsilon, u, grad), 1.0
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
        initial = np.full(ops.mass.shape, -np.log(ops.total_area))
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
    radii and profile sample the minimizer; multiplier is the constraint
    multiplier at the solution, and residual the final Newton residual.
    """

    value: float
    radii: np.ndarray
    profile: np.ndarray
    multiplier: float
    residual: float


def disk_min_dirichlet(
    a: float, b: float, r: float, grid_n: int = 4096
) -> DiskMinimum:
    """Minimize int |grad w|^2 over the disk of radius r subject to
    int exp(2 w) dx = a and boundary value w = b.

    Radial finite differences with trapezoid cell quadrature; Newton on the
    Lagrange system with continuation in the log of the constraint level
    (the unconstrained start w = b is exact for a = pi r^2 exp(2 b)).
    Second-order accurate: doubling grid_n quarters the error.
    """
    a = _real("a", a, 0.0)
    b = _real("b", b)
    r = _real("r", r, 0.0)
    n = _count("grid_n", grid_n, 256)
    h = r / n
    rho = np.arange(n + 1) * h
    # Quadrature weights for int_0^r f rho d rho over cells around nodes.
    q = np.empty(n + 1)
    q[0] = h * h / 8.0
    q[1:n] = rho[1:n] * h
    q[n] = r * h / 2.0 - h * h / 8.0
    rho_mid = 0.5 * (rho[:-1] + rho[1:])
    main = np.zeros(n + 1)
    main[:-1] += rho_mid / h
    main[1:] += rho_mid / h
    form = sp.diags([-rho_mid / h, main, -rho_mid / h], [-1, 0, 1]).tocsc()
    two_pi = 2.0 * np.pi
    # Scale-free constraint level; w = b, multiplier 0 solves level 1.
    level_target = a * np.exp(-2.0 * b) / (np.pi * r * r)
    log_level = np.log(level_target)
    n_stages = max(1, int(np.ceil(abs(log_level) / 0.4)))

    w = np.full(n + 1, b)
    mu = 0.0
    res_norm = 0.0
    interior = form[:n, :n]
    for stage in range(1, n_stages + 1):
        level = np.exp(log_level * stage / n_stages)
        a_stage = level * np.pi * r * r * np.exp(2.0 * b) / two_pi
        scale = max(1.0, a_stage)
        for _ in range(80):
            e2w = np.exp(2.0 * w)
            grad_w = 2.0 * (form @ w)[:n] - 2.0 * mu * q[:n] * e2w[:n]
            gap = (q * e2w).sum() - a_stage
            res_norm = float(np.sqrt((grad_w**2).sum() + gap * gap))
            if res_norm < 1e-10 * scale:
                break
            hess = 2.0 * interior - sp.diags(4.0 * mu * q[:n] * e2w[:n])
            column = -2.0 * (q[:n] * e2w[:n])
            # KKT system [[hess, column], [-column^T, 0]] by its Schur
            # complement: one tridiagonal solve for both right-hand sides
            # keeps the border out of the pivoting.
            y, z = _solve(
                hess, np.column_stack([-grad_w, column]), "disk Newton step"
            ).T
            d_mu = (column @ y - gap) / (column @ z)
            d_w = y - d_mu * z
            damping = 1.0
            while damping >= _STEP_FLOOR:
                w_try = w.copy()
                w_try[:n] += damping * d_w
                mu_try = mu + damping * d_mu
                e2w_t = np.exp(2.0 * w_try)
                g_t = 2.0 * (form @ w_try)[:n] - 2.0 * mu_try * q[:n] * e2w_t[:n]
                gap_t = (q * e2w_t).sum() - a_stage
                if np.sqrt((g_t**2).sum() + gap_t * gap_t) < res_norm:
                    break
                damping *= 0.5
            else:
                if res_norm <= 1e-8 * scale:
                    break  # roundoff plateau; the solution is converged
                raise NumericError("disk continuation hit the damping floor")
            w, mu = w_try, mu_try
        else:
            raise ConvergenceError(
                f"disk Newton did not converge at stage {stage}/{n_stages} "
                f"(residual {res_norm:.3e})",
                best=w,
            )
    value = float(two_pi * (w @ (form @ w)))
    return DiskMinimum(value, rho, w, float(mu), res_norm)

"""Constrained minimization of the perturbed functional and its
Euler-Lagrange equation, plus the radial constrained disk problem."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .energy import (
    EIGHT_PI,
    _check_epsilon,
    _check_field,
    log_volume,
    perturbed_functional,
    perturbed_gradient,
)
from .errors import ConvergenceError, DataError, NumericError, ParameterError
from .mesh import FOUR_PI, DiscreteOperators, ScalarField, _factor, _solve, integrate

_STEP_FLOOR = 2.0**-30
_DESCENT_CAP = 1000  # H1 descent steps before the Newton polish takes over
_LINE_SEARCH_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4  # Armijo constant


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of :func:`minimize_perturbed` and :func:`solve_mean_field`.

    gradient_tolerance is the mass-norm stopping threshold, relative to
    max(1, |energy|) for the minimizer and to 8*pi for the mean-field
    residual.  max_iterations caps every step the solver takes: descent and
    Newton steps together for the minimizer, Newton steps for the mean-field
    solve.
    """

    epsilon: float
    max_iterations: int = 4000
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0:  # also rejects NaN
            raise ParameterError("gradient_tolerance must be positive")


@dataclass
class MinimizerResult:
    """Outcome of a variational solve.

    u_min satisfies the zero-mean curvature pairing constraint; v_field is
    the same critical point normalized to unit exponential volume, so it
    solves the mean-field equation.  iterations holds (step, energy,
    gradient_norm) rows; the last polish_steps of them come from the Newton
    phase, whose gradient_norm column is the Euler-Lagrange residual.
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
    u = np.asarray(u, dtype=np.float64)
    if u.shape != ops.mass.shape:
        raise DataError("field length does not match the mesh")
    total = integrate(ops, ops.curvature)
    return u - integrate(ops, ops.curvature * u) / total


def _el_residual(ops, v, epsilon):
    # Euler-Lagrange residual field at unit exponential volume.
    beta = EIGHT_PI - epsilon
    return (
        (ops.stiffness @ v) / ops.mass
        + (beta / FOUR_PI) * ops.curvature
        - beta * np.exp(v)
    )


def _newton_mean_field(ops, epsilon, v0, tolerance, max_iterations,
                       floor_tolerance=0.0):
    """Damped Newton iteration on the mean-field residual.

    Steps are accepted on residual decrease (the Jacobian is indefinite, so
    the energy is not the merit function here).  Far from the solution the
    plain Newton direction can be dominated by the three near-null conformal
    modes of the Jacobian (eigenvalue ~ epsilon/4pi); when step halving
    collapses, the direction is recomputed from the regularized normal
    equations (Levenberg style), which always descends the residual norm.
    The regularization decays to zero on full steps, restoring the
    quadratic tail.  Returns (v, trace) where trace rows are (iteration,
    energy, residual_norm).  Raises NumericError if the damping floor is
    hit above floor_tolerance, ConvergenceError if the iteration budget
    runs out.
    """
    beta = EIGHT_PI - epsilon

    def energy_at(v):
        return perturbed_functional(
            ops, project_constraint(ops, v), epsilon
        ).total

    v = np.asarray(v0, dtype=np.float64).copy()
    residual = _el_residual(ops, v, epsilon)
    res_norm = mass_norm(ops, residual)
    trace = [(0, energy_at(v), res_norm)]
    lam = 0.0
    lam_floor, lam_cap = 1e-2, 1e8
    for it in range(1, max_iterations + 1):
        if res_norm <= tolerance:
            return v, trace
        jac = ops.stiffness - sp.diags(beta * np.exp(v) * ops.mass)
        if lam == 0.0:
            matrix, rhs = jac, -(residual * ops.mass)
        else:
            normal = jac @ sp.diags(1.0 / ops.mass) @ jac
            matrix, rhs = normal + sp.diags(lam * ops.mass), -(jac @ residual)
        step = _solve(matrix, rhs, "mean-field Newton step")
        damping = 1.0
        while damping >= _STEP_FLOOR:
            # An overflowing trial has an inf or NaN norm and fails the test.
            with np.errstate(over="ignore", invalid="ignore"):
                v_try = v + damping * step
                res_try = _el_residual(ops, v_try, epsilon)
                res_try_norm = mass_norm(ops, res_try)
            if res_try_norm < res_norm:
                break
            damping *= 0.5
        else:
            if res_norm <= floor_tolerance:
                return v, trace  # roundoff plateau, good enough for caller
            if lam < lam_cap:
                lam = min(max(10.0 * lam, lam_floor), lam_cap)
                continue  # retry this iterate with a stiffer system
            raise NumericError(
                f"mean-field damping floor reached at residual {res_norm:.3e}",
                trace=trace,
            )
        if damping == 1.0:
            lam = 0.0 if lam <= lam_floor else 0.1 * lam
        elif damping <= 0.0625 and lam < lam_cap:
            lam = min(max(10.0 * lam, lam_floor), lam_cap)
        v, residual, res_norm = v_try, res_try, res_try_norm
        trace.append((it, energy_at(v), res_norm))
    raise ConvergenceError(
        f"mean-field Newton did not reach {tolerance:.1e} "
        f"in {max_iterations} iterations (residual {res_norm:.3e})",
        best=v,
        trace=trace,
    )


def solve_mean_field(
    ops: DiscreteOperators,
    epsilon: float,
    initial: np.ndarray | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 100,
) -> MinimizerResult:
    """Solve -Delta v + (beta/4pi) K = beta exp(v), int exp(v) dV = 1.

    Newton with residual-monotone step halving; ``tolerance`` is relative
    (the residual mass-norm is compared against tolerance * 8*pi).  The
    default start is the constant field with unit exponential volume, which
    on a round background is already the exact solution.  The returned
    v_field satisfies the unit volume normalization to solver precision.
    """
    # Validates epsilon, tolerance and max_iterations before any work.
    config = SolverConfig(
        epsilon=epsilon, max_iterations=max_iterations, gradient_tolerance=tolerance
    )
    if initial is None:
        v0 = np.full(ops.mass.shape, -np.log(ops.total_area))
    else:
        v0 = _check_field(ops, initial)
        v0 = v0 - log_volume(ops, v0)
    v, trace = _newton_mean_field(
        ops, epsilon, v0, tolerance * EIGHT_PI, max_iterations
    )
    v = v - log_volume(ops, v)  # re-center; drift is at roundoff level
    return _package_result(ops, config, v, trace_rows=None, newton_trace=trace)


def _package_result(ops, config, v, trace_rows, newton_trace):
    u = project_constraint(ops, v)
    breakdown = perturbed_functional(ops, u, config.epsilon)
    residual = mass_norm(ops, _el_residual(ops, v, config.epsilon))
    peak = int(np.argmax(v))
    rows = list(trace_rows) if trace_rows else []
    offset = rows[-1][0] + 1 if rows else 0
    polish = 0
    if newton_trace is not None:
        for it, en, res in newton_trace:
            rows.append((offset + it, en, res))
            polish += 1
    return MinimizerResult(
        epsilon=config.epsilon,
        u_min=u,
        v_field=v,
        energy=breakdown.total,
        el_residual=residual,
        peak_value=float(v[peak]),
        peak_vertex=peak,
        iterations=rows,
        polish_steps=polish,
    )


def minimize_perturbed(
    ops: DiscreteOperators, config: SolverConfig, initial: np.ndarray | None = None
) -> MinimizerResult:
    """Minimize the perturbed functional over the zero-pairing hyperplane.

    One path: projected gradient descent with Armijo backtracking drives the
    iterate into a basin, then one Newton polish on the Euler-Lagrange
    equation finishes to the gradient tolerance.  The descent direction is
    the gradient in the H1 inner product (preconditioned by stiffness plus
    mass), which keeps the near-flat conformal valley of the functional
    tractable at small epsilon.  Descent hands off to the polish once the
    gradient norm drops below max(tolerance, min(1e-2, 1e-3 * initial
    norm)), after min(1000, max_iterations) steps, or when the line search
    reaches the roundoff floor; the polish gets the rest of max_iterations,
    at most 100 steps.  The energy column of the iteration trace is
    nonincreasing up to a 1e-11 relative slack (the polish is
    residual-monotone, not energy-monotone).  Raises ConvergenceError with
    the best iterate attached if the final gradient norm misses the
    tolerance.
    """
    if initial is None:
        initial = np.zeros(ops.mass.shape)
    else:
        initial = _check_field(ops, initial)

    u = project_constraint(ops, initial)
    energy = perturbed_functional(ops, u, config.epsilon).total
    grad = perturbed_gradient(ops, u, config.epsilon)
    grad_norm = mass_norm(ops, grad)
    rows = [(0, energy, grad_norm)]
    precond = _factor(ops.stiffness + sp.diags(ops.mass), "H1 preconditioner")
    handoff = max(
        config.gradient_tolerance * max(1.0, abs(energy)),
        min(1e-2, 1e-3 * grad_norm),
    )
    step = 1.0
    iteration = 0
    while iteration < min(_DESCENT_CAP, config.max_iterations) and grad_norm > handoff:
        direction = precond(grad * ops.mass)
        slope = float((direction * grad) @ ops.mass)
        step = min(step * 2.0, 16.0)
        decrease = _SUFFICIENT_DECREASE * slope
        with np.errstate(over="ignore", invalid="ignore"):
            while step >= _STEP_FLOOR:
                u_try = project_constraint(ops, u - step * direction)
                energy_try = perturbed_functional(ops, u_try, config.epsilon).total
                if energy_try <= energy - step * decrease:
                    break
                step *= _LINE_SEARCH_SHRINK
            else:
                break  # energy is at the roundoff floor; let the polish decide
        u, energy = u_try, energy_try
        grad = perturbed_gradient(ops, u, config.epsilon)
        grad_norm = mass_norm(ops, grad)
        iteration += 1
        rows.append((iteration, energy, grad_norm))

    v = u - log_volume(ops, u)
    try:
        # 0.5 * tolerance is below every possible final threshold; a
        # roundoff plateau under the plain tolerance is still fine because
        # the final check below has the last word.
        v, newton_trace = _newton_mean_field(
            ops, config.epsilon, v, 0.5 * config.gradient_tolerance,
            min(config.max_iterations - iteration, 100),
            floor_tolerance=config.gradient_tolerance,
        )
    except ConvergenceError as exc:
        v, newton_trace = exc.best, exc.trace
    except NumericError:
        newton_trace = None  # the polish broke down; keep the descent iterate
    if newton_trace is not None:
        v = v - log_volume(ops, v)
    result = _package_result(ops, config, v, rows, newton_trace)

    tolerance = config.gradient_tolerance * max(1.0, abs(result.energy))
    final_grad = perturbed_gradient(ops, result.u_min, config.epsilon)
    final_norm = mass_norm(ops, final_grad)
    if final_norm > tolerance:
        raise ConvergenceError(
            f"gradient norm {final_norm:.3e} above tolerance {tolerance:.3e}",
            best=result,
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
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("a must be positive")
    if not np.isfinite(b):
        raise ParameterError("b must be finite")
    if not np.isfinite(r) or r <= 0:
        raise ParameterError("r must be positive")
    if grid_n < 256:
        raise ParameterError("grid_n must be >= 256")

    n = int(grid_n)
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
            kkt = sp.bmat([[hess, column[:, None]], [-column[None, :], None]])
            delta = _solve(kkt, -np.concatenate([grad_w, [gap]]), "disk Newton step")
            damping = 1.0
            while damping >= _STEP_FLOOR:
                w_try = w.copy()
                w_try[:n] += damping * delta[:n]
                mu_try = mu + damping * delta[n]
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

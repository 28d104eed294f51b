"""Point-source Green's function, its regular part, and the explicit
concentration bubble with its closed-form integrals.

The Green's function G of the working metric solves

    -Delta G + 2 K = 8 pi delta_pole,    int G dV = 0,

which is solvable because the curvature integrates to exactly 4 pi.  The
discrete system is the cotangent stiffness pinned at one vertex, which
makes it SPD; the pin's constant is removed by a shift to zero mean.  It
is solved by conjugate gradients preconditioned by a multigrid V-cycle
over the mesh's recorded subdivision levels; on a mesh with none above
level 3 (and on an OFF mesh) the cycle is the system's exact LU.  Near
the pole G behaves like -4 ln(distance) + A + o(1); the constant A feeds
the lower-bound predictor.  The bubble

    phi0(x) = -2 ln(1 + pi |x|^2)

is the entire radial solution of -Delta phi0 = 8 pi exp(phi0) with unit
total mass; its Dirichlet and mass integrals over B_R have closed forms
used as mesh-free oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.integrate import IntegrationWarning, quad

from .energy import EIGHT_PI
from .errors import _MAX_GRID, DataError, NumericError, ResolutionError
from .errors import _count, _field, _real
from .mesh import (
    FOUR_PI,
    DiscreteOperators,
    ScalarField,
    _geodesic,
    _multigrid,
    sample_field,
)

_ANNULUS_INNER = 4.0  # in mean-edge-length units
_ANNULUS_OUTER = 8.0
_MIN_ANNULUS_VERTICES = 30


@dataclass
class GreenResult:
    """Green field with the regular-part fit attached.

    field has zero metric mean (the pinned solution, shifted);
    fit_window is the (inner, outer) annulus radii actually used;
    distance_exact records whether geodesic distances were exact arcs
    (round background) or came from fast marching over the faces (bumpy
    background, first-order accurate in the edge length); the march stops
    at the annulus' outer radius and leaves inf beyond it.
    """

    field: ScalarField
    pole: int
    A_value: float
    fit_window: tuple
    fit_residual: float
    distances: np.ndarray
    distance_exact: bool


@dataclass(frozen=True)
class BubbleReport:
    """Closed-form bubble integrals over B_R, plus the pullback error when
    produced by :func:`rescale_diagnostic`."""

    radius: float
    dirichlet_integral: float
    mass_integral: float
    pde_residual_max: float
    rescaled_profile_error: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def solve_green(ops: DiscreteOperators, pole: int) -> GreenResult:
    """Solve the point-source problem at a vertex and fit the regular part.

    The discrete source is a unit point mass at the pole scaled by 8*pi,
    paired with the lumped masses; compatibility (source total equals the
    curvature integral) is exact.  The system is S pinned at one vertex k,
    S + e_k e_k^T, which is SPD; its solution, shifted to zero metric mean,
    is the field the zero-mean bordered system gives.  It is solved by
    conjugate gradients preconditioned by one V-cycle over the mesh's own
    subdivision levels, which on levels 0-3 and OFF meshes is the exact
    LU.  A bumpy background's distances are marched only to the fit
    annulus.
    """
    n = ops.mass.shape[0]
    pole = _count("pole", pole, 0, n - 1)
    rhs = -2.0 * ops.curvature * ops.mass
    rhs[pole] += EIGHT_PI
    # The pin is the one of the first twelve vertices farthest from the
    # pole: every icosphere level keeps them, and a pin near the pole would
    # shift the whole solution by the pole's large value, and its rounding.
    vertices = ops.mesh.vertices
    pin = int(np.argmin(vertices[:12] @ vertices[pole]))
    pinned = ops.stiffness + sp.csr_matrix(([1.0], ([pin], [pin])), shape=(n, n))
    solution = _multigrid(pinned, rhs, "Green system", ops.mesh)
    g_field = solution - (solution @ ops.mass) / ops.total_area
    distances, exact = _geodesic(ops, pole, _ANNULUS_OUTER * ops.mean_edge_length)
    result = GreenResult(
        field=g_field,
        pole=pole,
        A_value=np.nan,
        fit_window=(np.nan, np.nan),
        fit_residual=np.nan,
        distances=distances,
        distance_exact=exact,
    )
    extract_A(result, ops)
    return result


def extract_A(green: GreenResult, ops: DiscreteOperators) -> float:
    """Constant-fit of G + 4 ln(distance) over a resolution-scaled annulus.

    The annulus spans 4 to 8 mean edge lengths from the pole; the fit is
    mass-weighted least squares against a constant (the o(1) remainder is
    dropped and reported through fit_residual).  Updates the fields of
    ``green`` in place and returns the constant; distances beyond the
    annulus may be inf.  A field that does not match the mesh or is not
    finite raises DataError.
    """
    _field("green.field", green.field, len(ops.mass))
    h = ops.mean_edge_length
    inner, outer = _ANNULUS_INNER * h, _ANNULUS_OUTER * h
    d = green.distances
    ring = (d >= inner) & (d <= outer)
    count = int(ring.sum())
    if count < _MIN_ANNULUS_VERTICES:
        raise ResolutionError(
            f"fit annulus [{inner:.3g}, {outer:.3g}] holds {count} vertices, "
            f"need {_MIN_ANNULUS_VERTICES}"
        )
    regular = green.field[ring] + 4.0 * np.log(d[ring])
    weights = ops.mass[ring]
    a_value = float((regular * weights).sum() / weights.sum())
    residual = float(
        np.sqrt(((regular - a_value) ** 2 * weights).sum() / weights.sum())
    )
    green.A_value = a_value
    green.fit_window = (inner, outer)
    green.fit_residual = residual
    return a_value


def bubble_profile(points: np.ndarray) -> np.ndarray:
    """Exact bubble values phi0(x) = -2 ln(1 + pi |x|^2) at planar points.

    Accepts an (..., 2) array of coordinates; phi0(0) = 0 and the value
    depends on |x| only.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise DataError("points must be planar coordinates with shape (..., 2)")
    r_sq = (pts * pts).sum(axis=-1)
    return -2.0 * np.log1p(np.pi * r_sq)


def _bubble_radial(rho: np.ndarray) -> np.ndarray:
    return -2.0 * np.log1p(np.pi * rho * rho)


def bubble_dirichlet_closed_form(R: float) -> float:
    """16*pi*(ln(1+pi R^2) + 1/(1+pi R^2) - 1), the exact antiderivative
    of the bubble's Dirichlet density over B_R."""
    s = np.pi * R * R
    return 16.0 * np.pi * (np.log1p(s) + 1.0 / (1.0 + s) - 1.0)


def bubble_mass_closed_form(R: float) -> float:
    """pi R^2 / (1 + pi R^2), the exact bubble mass over B_R."""
    s = np.pi * R * R
    return s / (1.0 + s)


def bubble_checks(R: float, quadrature_n: int = 2001) -> BubbleReport:
    """Mesh-free verification of the bubble identities over B_R.

    The PDE residual substitutes analytic first and second radial
    derivatives into -Delta phi0 - 8 pi exp(phi0) on a radial grid of
    quadrature_n points; the mass and Dirichlet integrals use adaptive
    quadrature and are reported as computed.  Each is compared with its
    closed form and raises NumericError if it misses by more than 1e-9
    relative to max(1, |closed form|): for large R the adaptive rule can
    step over the bubble's peak near the origin while its own error
    estimate stays small.  A non-finite closed form (pi R^2 overflows),
    residual or quadrature value also raises NumericError.  Warnings the
    quadrature emits are recorded rather than printed; a failure message
    carries their text on its one line.
    """
    R = _real("R", R, 0.0)
    quadrature_n = _count("quadrature_n", quadrature_n, 16, _MAX_GRID)
    exact_mass = bubble_mass_closed_form(R)
    exact_dirichlet = bubble_dirichlet_closed_form(R)
    if not np.isfinite([exact_mass, exact_dirichlet]).all():
        raise NumericError(
            f"bubble closed forms are not finite at R = {R:g} "
            f"(mass {exact_mass}, Dirichlet {exact_dirichlet})"
        )
    rho = np.linspace(0.0, R, quadrature_n)
    denom = 1.0 + np.pi * rho * rho
    d1 = -4.0 * np.pi * rho / denom
    # 1 - pi rho^2 = 2 - denom; in this form nothing squares denom, so d2
    # stays finite wherever the closed forms are.
    d2 = -4.0 * np.pi * (2.0 / denom - 1.0) / denom
    laplacian = np.empty_like(rho)
    laplacian[0] = 2.0 * d2[0]  # radial limit: phi'/rho -> phi''(0)
    laplacian[1:] = d2[1:] + d1[1:] / rho[1:]
    residual = np.abs(-laplacian - EIGHT_PI * np.exp(_bubble_radial(rho)))
    pde_residual_max = float(residual.max())

    # Over [0, 1/sqrt(pi)] in s, the rest in t = ln s: in s the adaptive
    # rule steps over the peak at the origin once R is large, while in t
    # both densities are smooth and bounded for every R.  With y = pi s^2
    # they are 2 y/(1+y)^2 and 32 pi (y/(1+y))^2, written not to overflow
    # (y is finite wherever the closed forms are).
    def mass_density(s):
        return 2.0 * np.pi * s * np.exp(_bubble_radial(np.asarray(s)))

    def dirichlet_density(s):
        return 2.0 * np.pi * s * (4.0 * np.pi * s / (1.0 + np.pi * s * s)) ** 2

    def mass_density_log(t):
        y = np.exp(2.0 * t + np.log(np.pi))
        return 2.0 / ((1.0 + y) * (1.0 + 1.0 / y))

    def dirichlet_density_log(t):
        return 32.0 * np.pi / (1.0 + np.exp(-2.0 * t - np.log(np.pi))) ** 2

    split = min(R, 1.0 / np.sqrt(np.pi))

    def integral(near, far):
        near_val, near_err = quad(near, 0.0, split, epsabs=1e-12, epsrel=1e-12)
        far_val, far_err = quad(far, np.log(split), np.log(R), epsabs=1e-12, epsrel=1e-12)
        return near_val + far_val, near_err + far_err

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        mass_val, mass_err = integral(mass_density, mass_density_log)
        dir_val, dir_err = integral(dirichlet_density, dirichlet_density_log)
    # SciPy's messages span several lines; each becomes one clause.
    texts = dict.fromkeys(" ".join(str(w.message).split()) for w in caught)
    notes = "".join(f"; quadrature warned: {text}" for text in texts)
    values = (pde_residual_max, mass_val, mass_err, dir_val, dir_err)
    if not np.isfinite(values).all():
        shown = ", ".join(f"{x:.3g}" for x in values)
        raise NumericError(
            f"bubble check produced a non-finite value at R = {R:g} (residual, "
            f"mass, mass error, Dirichlet, Dirichlet error: {shown}){notes}"
        )
    if mass_err > 1e-9 or dir_err > 1e-7:
        raise NumericError(
            f"bubble quadrature did not converge (errors {mass_err:.1e}, "
            f"{dir_err:.1e}){notes}"
        )
    for name, value, exact in (
        ("mass", mass_val, exact_mass),
        ("Dirichlet", dir_val, exact_dirichlet),
    ):
        if abs(value - exact) > 1e-9 * max(1.0, abs(exact)):
            raise NumericError(
                f"bubble {name} quadrature {value:.12g} misses its closed form "
                f"{exact:.12g} at R = {R:g}{notes}"
            )
    return BubbleReport(
        radius=float(R),
        dirichlet_integral=float(dir_val),
        mass_integral=float(mass_val),
        pde_residual_max=pde_residual_max,
    )


def _tangent_basis(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic orthonormal pair spanning the tangent plane at x0.
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(x0)))] = 1.0
    e1 = np.cross(x0, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(x0, e1)
    return e1, e2


def rescale_diagnostic(
    v: ScalarField, ops: DiscreteOperators, R: float
) -> BubbleReport:
    """Pull a concentrating field back to its peak scale and compare with
    the bubble.

    With beta = max v, tau = exp(beta/2), the pullback is
    phi(x) = v(exp_peak(x / tau)) - 2 ln(tau) for planar x in B_R, sampled
    on a polar grid via the exponential map at the peak vertex and
    barycentric interpolation.  Reports the sup difference against phi0
    together with the closed-form B_R integrals.
    """
    v = _field("v", v, len(ops.mass))
    R = _real("R", R, 0.0)
    if float(v.max() - v.min()) < 1e-8:
        raise ResolutionError("field has no concentration peak (flat to 1e-8)")
    peak = int(np.argmax(v))
    beta = float(v[peak])
    tau = np.exp(beta / 2.0)
    pullback_radius = R / tau
    if pullback_radius < 3.0 * ops.mean_edge_length:
        raise ResolutionError(
            f"peak scale {pullback_radius:.3g} is below 3 edge lengths "
            f"({3 * ops.mean_edge_length:.3g}); refine the mesh"
        )
    if pullback_radius > 0.5 * np.pi:
        raise ResolutionError(
            f"pullback radius {pullback_radius:.3g} exceeds the normal "
            "neighborhood of the peak"
        )
    x0 = ops.mesh.vertices[peak]
    e1, e2 = _tangent_basis(x0)
    n_radial, n_angular = 40, 16
    radii = np.linspace(R / n_radial, R, n_radial)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    rho_sphere = (rr / tau).ravel()
    direction = (
        np.cos(aa).ravel()[:, None] * e1[None, :]
        + np.sin(aa).ravel()[:, None] * e2[None, :]
    )
    points = (
        np.cos(rho_sphere)[:, None] * x0[None, :]
        + np.sin(rho_sphere)[:, None] * direction
    )
    points = np.vstack([x0[None, :], points])
    sampled = sample_field(ops.mesh, v, points)
    pulled = sampled - 2.0 * np.log(tau)
    reference = np.concatenate([[0.0], _bubble_radial(rr.ravel())])
    profile_error = float(np.abs(pulled - reference).max())
    return replace(bubble_checks(R), rescaled_profile_error=profile_error)


def lower_bound_predictor(A: float) -> float:
    """Energy floor predicted from the regular part: -4*pi*A - 8*pi*ln(pi)
    - 8*pi (the unquantified additive constant is taken as zero).

    At the round-sphere value A = 4 ln 2 - 2 this collapses algebraically
    to -8*pi*ln(4*pi), the round-sphere limit of the perturbed minima.
    """
    A = _real("A", A)
    return -FOUR_PI * A - EIGHT_PI * np.log(np.pi) - EIGHT_PI

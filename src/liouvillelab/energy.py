"""Energy functionals on a conformal class: evaluation and first variation.

Conventions: the unknown u is a per-vertex log density, the candidate
metric is exp(u) times the working metric, volumes use the metric masses,
and every exponential moment is evaluated with a max-shift so large fields
cannot overflow.  The moment int exp(u) phi_i dV is discretized only in
``_exp_weights`` (lumped today, mass_i exp(u_i)); the density and the
operator derive from it, and all three take checked fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, _field, _real
from .mesh import (
    FOUR_PI,
    DiscreteOperators,
    ScalarField,
    _is_round,
    dirichlet_energy,
    integrate,
)

EIGHT_PI = 8.0 * np.pi


@dataclass(frozen=True)
class EnergyBreakdown:
    """Value of a functional split into its three constituent terms.

    Each part is stored with the coefficient it carries inside the total,
    so ``dirichlet + curvature_term + log_volume_term == total`` always.
    """

    dirichlet: float
    curvature_term: float
    log_volume_term: float
    total: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_epsilon(epsilon: float) -> float:
    return _real("epsilon", epsilon, 0.0, EIGHT_PI)


def _exp_weights(ops: DiscreteOperators, u: np.ndarray) -> np.ndarray:
    """Per-vertex moment int phi_i exp(u) dV; their sum is the volume."""
    return np.exp(u) * ops.mass


def _exp_density(ops: DiscreteOperators, u: np.ndarray) -> np.ndarray:
    """Mass-gradient of ln int exp(u) dV: the normalized candidate density.

    The weights' sum is the volume, so w / (mass * sum w) has unit mass;
    the max-shift cancels in the ratio and keeps exp from overflowing.
    """
    weights = _exp_weights(ops, u - u.max())
    return weights / (ops.mass * weights.sum())


def _exp_operator(ops: DiscreteOperators, u: np.ndarray, scale: float = 1.0):
    """First variation of the weights, h -> int scale exp(u) h phi_i dV, sparse."""
    return sp.diags(scale * _exp_weights(ops, u))


def log_volume(ops: DiscreteOperators, u: np.ndarray) -> float:
    """ln of the candidate-metric volume integral exp(u) dV, overflow-safe."""
    u = _field("u", u, len(ops.mass))
    shift = float(u.max())
    return shift + float(np.log(_exp_weights(ops, u - shift).sum()))


def liouville_energy(ops: DiscreteOperators, u: np.ndarray) -> EnergyBreakdown:
    """Dirichlet part plus twice the scalar-curvature pairing.

    total = int |grad u|^2 + 2 int R u with R = 2 K.  The zero field gives
    zero, and adding a constant c shifts the value by exactly 16*pi*c
    (Gauss-Bonnet); the descent dynamics of this functional at fixed volume
    is the normalized flow in :mod:`liouvillelab.flow`.
    """
    u = _field("u", u, len(ops.mass))
    dir_part = dirichlet_energy(ops, u)
    curv_part = 4.0 * integrate(ops, ops.curvature * u)
    return EnergyBreakdown(dir_part, curv_part, 0.0, dir_part + curv_part)


def perturbed_functional(
    ops: DiscreteOperators, u: np.ndarray, epsilon: float
) -> EnergyBreakdown:
    """Penalized functional whose minimizers solve the mean-field equation.

    total = 1/2 int |grad u|^2 + (8*pi - eps)/(4*pi) int K u
            - (8*pi - eps) ln int exp(u).

    Adding a constant to u leaves the total unchanged (exactly, because the
    discrete curvature integrates to exactly 4*pi).
    """
    u = _field("u", u, len(ops.mass))  # the parts below take it as checked
    beta = EIGHT_PI - _check_epsilon(epsilon)
    dir_part = 0.5 * float(u @ (ops.stiffness @ u))
    curv_part = (beta / FOUR_PI) * float((ops.curvature * u) @ ops.mass)
    shift = float(u.max())  # log_volume's overflow-safe moment
    log_part = -beta * (shift + float(np.log(_exp_weights(ops, u - shift).sum())))
    return EnergyBreakdown(
        dir_part, curv_part, log_part, dir_part + curv_part + log_part
    )


def perturbed_gradient(
    ops: DiscreteOperators, u: np.ndarray, epsilon: float
) -> ScalarField:
    """Mass-gradient field g of the perturbed functional.

    Directional derivative at u along h equals the mass inner product
    sum(g * h * mass); finite differences of :func:`perturbed_functional`
    converge to it.  Its mass-weighted mean vanishes identically.
    """
    u = _field("u", u, len(ops.mass))
    epsilon = _check_epsilon(epsilon)
    beta = EIGHT_PI - epsilon
    return (
        (ops.stiffness @ u) / ops.mass
        + (beta / FOUR_PI) * ops.curvature
        - beta * _exp_density(ops, u)
    )


def onofri_deficit(ops: DiscreteOperators, u: np.ndarray) -> float:
    """Slack of the sharp exponential-moment inequality on the round sphere.

    deficit = (1/16pi) int |grad u|^2 + (1/4pi) int u
              - ln((1/4pi) int exp(u)),
    nonnegative for smooth fields, zero exactly on the Moebius family.
    Requires a round background (zero conformal factor).
    """
    if not _is_round(ops.mesh):
        raise ParameterError("deficit is defined on the round background only")
    u = _field("u", u, len(ops.mass))
    return (
        dirichlet_energy(ops, u) / (16.0 * np.pi)
        + integrate(ops, u) / FOUR_PI
        - (log_volume(ops, u) - np.log(FOUR_PI))
    )


def conformal_curvature(ops: DiscreteOperators, u: np.ndarray) -> ScalarField:
    """Scalar curvature of the metric exp(u) * g, per vertex.

    R_new = exp(-u) * ((S u)/mass + 2 K); the zero field returns exactly
    twice the working curvature, and constants rescale it by exp(-c).
    """
    u = _field("u", u, len(ops.mass))
    return np.exp(-u) * ((ops.stiffness @ u) / ops.mass + 2.0 * ops.curvature)

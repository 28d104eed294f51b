"""Normalized curvature flow on conformal factors at fixed volume 4*pi.

The evolution du/dt = 2 - R(u), with R(u) the curvature of exp(u) times
the working metric, is the descent dynamics of the Liouville energy at
fixed volume; its stationary points have constant curvature 2.  Steps are
semi-implicit (implicit in the Laplacian, explicit in the exponential
weight), renormalized to exact volume after every step, and accepted only
when the energy does not increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import _exp_operator, _exp_weights, log_volume
from .energy import conformal_curvature, liouville_energy
from .errors import NumericError, _field, _real
from .mesh import FOUR_PI, DiscreteOperators, ScalarField, _solve

_DT_FLOOR = 1e-8
_DT_CAP = 0.5
_DT_GROWTH = 1.5


@dataclass
class FlowTrace:
    """Per-accepted-step history of a flow run (row 0 is the initial state).

    final_field holds the last accepted conformal factor; it is not part
    of the CSV serialization.
    """

    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    volumes: list = field(default_factory=list)
    curvature_deviation: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    final_field: np.ndarray | None = None

    def append(self, t, energy, volume, deviation, dt):
        self.times.append(float(t))
        self.energies.append(float(energy))
        self.volumes.append(float(volume))
        self.curvature_deviation.append(float(deviation))
        self.step_sizes.append(float(dt))


def _renormalize(ops, u):
    # Exact volume normalization: shift so int exp(u) dV = 4*pi.
    return u + (np.log(FOUR_PI) - log_volume(ops, u))


def _semi_implicit(ops, u, dt):
    # (W + dt S) u_new = W (u + dt (2 - R_explicit)), W the exponential
    # moment at u, with the curvature's Laplacian term moved to the left.
    weight = _exp_operator(ops, u)
    matrix = weight + dt * ops.stiffness
    rhs = weight @ (u + dt * (2.0 - 2.0 * ops.curvature * np.exp(-u)))
    return _renormalize(ops, _solve(matrix, rhs, "flow step", ops.mesh))


def _guarded_step(ops, u, energy, dt):
    """Step from u, halving dt until the energy does not rise above energy.

    The given dt is always tried, even below the floor; a halved one only
    while it is at least the floor.  Returns (u_new, energy_new, dt_used),
    or None once no dt is left to try.  The slack is 1e-12 relative.
    """
    while True:
        u_new = _semi_implicit(ops, u, dt)
        energy_new = liouville_energy(ops, u_new).total
        if energy_new <= energy + 1e-12 * (1.0 + abs(energy)):
            return u_new, energy_new, dt
        dt *= 0.5
        if dt < _DT_FLOOR:
            return None


def flow_step(ops: DiscreteOperators, u: ScalarField, dt: float) -> ScalarField:
    """One accepted step of the normalized flow starting from dt.

    The step is retried with halved dt until the Liouville energy does not
    increase (1e-12 relative slack); a dt below the 1e-8 floor gets one
    try, and halving below it raises a stiffness NumericError.  The
    returned factor has exact volume 4*pi.
    """
    dt = _real("dt", dt, 0.0)
    u0 = _renormalize(ops, _field("u", u, len(ops.mass)))
    step = _guarded_step(ops, u0, liouville_energy(ops, u0).total, dt)
    if step is None:
        raise NumericError(
            f"flow step rejected down to dt floor {_DT_FLOOR:g} (stiff state)"
        )
    return step[0]


def run_flow(
    ops: DiscreteOperators, u0: ScalarField, t_end: float, dt0: float = 0.01
) -> FlowTrace:
    """Adaptive flow to t_end with energy-guarded steps.

    Accepted steps grow dt by 1.5x up to 0.5; rejected attempts halve it.
    The trace records every accepted state starting with the initial one
    (normalized to volume 4*pi).  Any NumericError raised while stepping
    (stiffness, a failed or non-finite solve) carries the partial trace as
    ``.trace``.
    """
    t_end = _real("t_end", t_end, 0.0)
    dt0 = _real("dt0", dt0, 0.0)
    u = _renormalize(ops, _field("u0", u0, len(ops.mass)))
    trace = FlowTrace()

    def record(t, u_state, energy, dt_used):
        deviation = np.abs(conformal_curvature(ops, u_state) - 2.0).max()
        trace.append(t, energy, _exp_weights(ops, u_state).sum(), deviation, dt_used)
        trace.final_field = u_state

    energy = liouville_energy(ops, u).total
    record(0.0, u, energy, 0.0)
    t = 0.0
    dt = dt0
    try:
        while t < t_end - 1e-12:
            step = _guarded_step(ops, u, energy, min(dt, t_end - t))
            if step is None:
                raise NumericError(
                    f"flow became stiff at t = {t:.6g} (dt floor {_DT_FLOOR:g})"
                )
            u, energy, dt_used = step
            t += dt_used
            dt = min(dt_used * _DT_GROWTH, _DT_CAP)
            record(t, u, energy, dt_used)
    except NumericError as exc:
        exc.trace = trace
        raise
    return trace

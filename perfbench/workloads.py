"""The benchmark workloads.

Four parts (``Sweep``, ``Ascent``, ``Green``, ``Flow``) each exercise one
engine of the library; the two benchmark workloads run them in pairs.  Each
part has a set-up (mesh, background, operators and every lazy per-mesh
cache its ops touch), an input generator driven by an op seed, one op (the
public library call whose time is measured) and an output check against a
closed-form oracle or a recorded reference.  Checks are written
with plain numpy on the operator arrays, so they call no library function
and never appear in a layer span.
"""

from __future__ import annotations

import math

import numpy as np

import liouvillelab as L

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
LN_FOUR_PI = math.log(FOUR_PI)
A_ROUND = 4.0 * math.log(2.0) - 2.0


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    return seed * 1_000_003 + index


def _log_volume(ops, u):
    shift = float(u.max())
    return shift + math.log(float((np.exp(u - shift) * ops.mass).sum()))


class Workload:
    """Common shape: ``setup`` -> state, ``make_input``, ``op``, ``check``.

    ``check`` returns the list of failed conditions and a one-line summary
    of the oracle and reference values it measured.

    ``op_seconds`` is the op time measured on the reference machine (2-core
    x86_64, one BLAS thread); a run of ``--seconds s`` performs
    ``round(s / op_seconds)`` ops, at least one, so the work in a run is
    fixed by its arguments and every count repeats exactly.
    """

    name = ""
    level = 0
    smoke_level = 0
    op_seconds = 1.0

    def __init__(self, refs: dict, smoke: bool):
        self.level = self.smoke_level if smoke else self.level
        # Oracle tolerances and recorded references for this mesh level.
        self.refs = refs[self.name][f"level{self.level}"]

    def ops_for(self, seconds: float) -> int:
        return max(1, int(seconds / self.op_seconds + 0.5))


class Sweep(Workload):
    """Warm-started epsilon sweep of the minimizer on a band background."""

    name = "sweep"
    level = 5
    smoke_level = 3
    op_seconds = 6.0
    eps = (0.5, 0.25, 0.1)

    def setup(self):
        mesh = L.build_icosphere(self.level)
        phi = L.random_band_field(mesh, 7, 8, 0.3)
        bumpy = L.set_conformal_background(mesh, phi, normalize=True)
        # Starting fields are drawn on the round mesh, whose 8-band
        # eigenbasis the background already filled.
        return {"round_mesh": mesh, "ops": L.assemble_operators(bumpy)}

    def make_input(self, state, seed):
        return L.random_band_field(state["round_mesh"], seed, 8, 0.01)

    def op(self, state, start):
        results, warm = [], start
        for eps in self.eps:
            result = L.minimize_perturbed(state["ops"], L.SolverConfig(epsilon=eps), warm)
            results.append(result)
            warm = result.u_min
        return results

    def check(self, state, start, results):
        ops, refs = state["ops"], self.refs
        energies = [r.energy for r in results]
        problems, worst = [], [0.0, 0.0, 0.0]
        if not all(math.isfinite(e) for e in energies):
            return [f"non-finite energies {energies}"], "non-finite energies"
        if not all(a > b for a, b in zip(energies, energies[1:])):
            problems.append(f"energies not strictly decreasing along the sweep {energies}")
        for eps, r, ref in zip(self.eps, results, refs["energies"]):
            beta = EIGHT_PI - eps
            u = r.u_min
            grad = (
                (ops.stiffness @ u) / ops.mass
                + (beta / FOUR_PI) * ops.curvature
                - beta * np.exp(u - _log_volume(ops, u))
            )
            grad_norm = math.sqrt(float((grad * grad) @ ops.mass))
            tol = L.SolverConfig(epsilon=eps).gradient_tolerance * max(1.0, abs(r.energy))
            if grad_norm > tol:
                problems.append(f"eps={eps}: gradient norm {grad_norm:.3e} > {tol:.3e}")
            worst[0] = max(worst[0], grad_norm / tol)
            pairing = ops.curvature * u * ops.mass
            worst[1] = max(worst[1], abs(pairing.sum()))
            if abs(pairing.sum()) > refs["pairing_tol"] * (1.0 + np.abs(pairing).sum()):
                problems.append(f"eps={eps}: pairing constraint {pairing.sum():.3e}")
            if abs(r.energy - ref) > refs["energy_tol"]:
                problems.append(f"eps={eps}: energy {r.energy!r} vs reference {ref!r}")
            worst[2] = max(worst[2], abs(r.energy - ref))
        summary = (
            f"energies {', '.join(f'{e:.9f}' for e in energies)}; max |E - ref| "
            f"{worst[2]:.1e}, max grad/tol {worst[0]:.2f}, max |pairing| {worst[1]:.1e}"
        )
        return problems, summary


class Ascent(Workload):
    """Adversarial Sobolev ascent for the global exponential bound."""

    name = "ascent"
    level = 5
    smoke_level = 3
    op_seconds = 2.5
    epsilon = 0.1
    # check_global_mt draws 3..11 bands per trial; 11 needs the l <= 3 basis,
    # which also covers the 8-band flow starts that share this set-up.
    max_bands = 11

    def setup(self):
        mesh = L.build_icosphere(self.level)
        L.random_band_field(mesh, 0, self.max_bands, 1.0)
        return {"ops": L.assemble_operators(mesh)}

    def make_input(self, state, seed):
        return seed

    def op(self, state, seed):
        return L.check_global_mt(state["ops"], self.epsilon, self.refs["trials"], seed)

    def check(self, state, seed, report):
        # Every trial must reach the supremum ln(4 pi), not only the best
        # one: trial 0 starts at u = 0, where the value is already ln(4 pi).
        problems, params = [], report.parameters
        if params["diverged"]:
            problems.append("ascent diverged")
        gap = abs(params["sup_value"] - LN_FOUR_PI)
        if gap > self.refs["sup_tol"]:
            problems.append(f"sup_value off ln(4 pi) by {gap:.3e}")
        if len(report.sample_margins) != self.refs["trials"]:
            problems.append(f"{len(report.sample_margins)} trials reported, "
                            f"{self.refs['trials']} requested")
        threshold = params["divergence_threshold"]
        trial_gaps = [abs(threshold - margin - LN_FOUR_PI) for _, margin in report.sample_margins]
        for trial, trial_gap in enumerate(trial_gaps):
            if trial_gap > self.refs["sup_tol"]:
                problems.append(f"trial {trial} ended off ln(4 pi) by {trial_gap:.3e}")
        summary = (
            f"|sup - ln 4pi| {gap:.1e}, max over trials {max(trial_gaps, default=0.0):.1e}, "
            f"diverged {params['diverged']}, {params['total_iterations']} iterations"
        )
        return problems, summary


class Green(Workload):
    """Green function at a random pole on a Moebius-dilation background."""

    name = "green"
    level = 6
    smoke_level = 3
    op_seconds = 10.0
    dilation = 2.0

    def setup(self):
        mesh = L.build_icosphere(self.level)
        phi = L.mobius_dilation_factor(mesh, self.dilation)
        bumpy = L.set_conformal_background(mesh, phi, normalize=True)
        return {"ops": L.assemble_operators(bumpy)}

    def make_input(self, state, seed):
        return int(np.random.default_rng(seed).integers(state["ops"].mass.shape[0]))

    def op(self, state, pole):
        return L.solve_green(state["ops"], pole)

    def check(self, state, pole, result):
        ops, problems = state["ops"], []
        error = abs(result.A_value - A_ROUND)
        if not error <= self.refs["A_tol"]:
            problems.append(f"pole {pole}: A = {result.A_value!r}, oracle {A_ROUND!r}")
        if not np.isfinite(result.field).all():
            problems.append(f"pole {pole}: non-finite Green field")
        weighted = result.field * ops.mass
        if abs(weighted.sum()) > self.refs["mean_tol"] * np.abs(weighted).sum():
            problems.append(f"pole {pole}: field mean integral {weighted.sum():.3e}")
        if result.distance_exact:
            problems.append("distances were exact arcs; the fast march was bypassed")
        summary = (
            f"pole {pole}: |A - (4 ln 2 - 2)| {error:.4f}, mean integral "
            f"{weighted.sum():.1e}, exact distances {result.distance_exact}"
        )
        return problems, summary


class Flow(Workload):
    """Normalized curvature flow from a band field to t = 10.

    It has no set-up of its own: it runs on ``Ascent``'s round mesh.
    """

    name = "flow"
    level = 5
    smoke_level = 3
    op_seconds = 2.7
    t_end = 10.0

    def make_input(self, state, seed):
        return L.random_band_field(state["ops"].mesh, seed, 8, 0.3)

    def op(self, state, u0):
        return L.run_flow(state["ops"], u0, self.t_end)

    def check(self, state, u0, trace):
        problems = []
        e = trace.energies
        if not all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(e, e[1:])):
            problems.append("energy increased along the flow")
        drift = max(abs(v - FOUR_PI) for v in trace.volumes)
        if drift > self.refs["volume_tol"]:
            problems.append(f"volume drift {drift:.3e}")
        if trace.curvature_deviation[-1] > self.refs["deviation_tol"]:
            problems.append(f"final max|R - 2| = {trace.curvature_deviation[-1]:.3e}")
        summary = (
            f"{len(trace.times) - 1} steps, volume drift {drift:.1e}, "
            f"final max|R - 2| {trace.curvature_deviation[-1]:.1e}"
        )
        return problems, summary


class Pair(Workload):
    """Two parts run back to back as one op, each checked by its own check.

    Pairing halves the number of workloads, so within the benchmark's time
    budget each run measures about twice as long, which steadies its figures
    against the host's speed swings of tens of seconds.
    """

    parts = ()

    def __init__(self, refs: dict, smoke: bool):
        self.parts = [part(refs, smoke) for part in type(self).parts]
        self.level = "/".join(str(part.level) for part in self.parts)
        self.op_seconds = sum(part.op_seconds for part in self.parts)

    def setup(self):
        return [part.setup() for part in self.parts]

    def make_input(self, states, seed):
        return [part.make_input(st, seed) for part, st in zip(self.parts, states)]

    def op(self, states, inputs):
        return [part.op(st, inp) for part, st, inp in zip(self.parts, states, inputs)]

    def check(self, states, inputs, outputs):
        problems, notes = [], []
        for part, st, inp, out in zip(self.parts, states, inputs, outputs):
            found, note = part.check(st, inp, out)
            problems.extend(f"{part.name}: {p}" for p in found)
            notes.append(f"{part.name}: {note}")
        return problems, "; ".join(notes)


class Round(Pair):
    """Ascent, then flow, on one level-5 round mesh whose set-up they share."""

    name = "round"
    parts = (Ascent, Flow)

    def setup(self):
        state = self.parts[0].setup()
        return [state, state]


class Background(Pair):
    """Minimizer sweep on a band background, then Green on a Moebius one."""

    name = "background"
    parts = (Sweep, Green)


WORKLOADS = {w.name: w for w in (Round, Background)}

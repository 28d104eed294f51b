"""Normalized curvature flow: descent, volume pinning, failure paths."""

import dataclasses

import numpy as np
import pytest

import liouvillelab as L
from liouvillelab.errors import DataError, NumericError, ParameterError
from liouvillelab.flow import FlowTrace, flow_step, run_flow

FOUR_PI = 4.0 * np.pi


def _monotone(energies):
    return all(
        b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:])
    )


class TestStationaryStart:
    def test_round_factor_is_fixed(self, ops3):
        trace = run_flow(ops3, np.zeros(ops3.mass.shape), 1.0)
        assert np.abs(trace.final_field).max() < 1e-12
        assert max(trace.curvature_deviation) < 1e-12
        assert trace.energies[-1] == pytest.approx(trace.energies[0], abs=1e-12)

    def test_single_step_stays_put(self, ops3):
        u = flow_step(ops3, np.zeros(ops3.mass.shape), 0.01)
        assert np.abs(u).max() < 1e-12


class TestDescentRun:
    def test_tilt_start(self, ops3):
        u0 = 0.2 * ops3.mesh.vertices[:, 2]
        trace = run_flow(ops3, u0, 10.0)
        assert _monotone(trace.energies)
        assert trace.times[-1] == pytest.approx(10.0, abs=1e-9)
        assert all(abs(v - FOUR_PI) < 1e-10 for v in trace.volumes)
        # flow flattens the tilt by two orders of magnitude
        assert trace.curvature_deviation[-1] < 0.1 * trace.curvature_deviation[0]

    def test_band_start_reaches_steady_state(self, ops3):
        u0 = L.random_band_field(ops3.mesh, 5, 8, 0.3)
        trace = run_flow(ops3, u0, 10.0)
        assert _monotone(trace.energies)
        assert trace.energies[0] - trace.energies[-1] > 1.0
        assert trace.curvature_deviation[-1] < 0.01

    def test_trace_shape(self, ops3):
        u0 = 0.2 * ops3.mesh.vertices[:, 2]
        trace = run_flow(ops3, u0, 2.0)
        n = len(trace.times)
        assert n >= 3
        assert len(trace.energies) == n
        assert len(trace.volumes) == n
        assert len(trace.curvature_deviation) == n
        assert len(trace.step_sizes) == n
        assert trace.times[0] == 0.0
        assert trace.step_sizes[0] == 0.0
        assert all(a < b for a, b in zip(trace.times, trace.times[1:]))
        assert max(trace.step_sizes) <= 0.5
        assert trace.final_field is not None

    def test_step_growth_capped(self, ops3):
        trace = run_flow(ops3, np.zeros(ops3.mass.shape), 5.0, dt0=0.01)
        # smooth run: dt grows 1.5x per step until the 0.5 cap
        assert max(trace.step_sizes) == 0.5

    def test_deterministic(self, ops3):
        u0 = L.random_band_field(ops3.mesh, 5, 8, 0.3)
        a = run_flow(ops3, u0, 3.0)
        b = run_flow(ops3, u0, 3.0)
        assert a.times == b.times
        assert a.energies == b.energies
        assert np.array_equal(a.final_field, b.final_field)


class TestFlowStep:
    def test_descends_energy(self, bumpy3):
        u0 = L.random_band_field(bumpy3.mesh, 2, 5, 0.3)
        before = L.liouville_energy(bumpy3, u0 - np.log((np.exp(u0) @ bumpy3.mass) / FOUR_PI))
        u1 = flow_step(bumpy3, u0, 0.05)
        after = L.liouville_energy(bumpy3, u1)
        assert after.total <= before.total + 1e-12 * (1.0 + abs(before.total))
        assert (np.exp(u1) @ bumpy3.mass) == pytest.approx(FOUR_PI, abs=1e-10)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_bad_dt(self, ops3, dt):
        with pytest.raises(ParameterError):
            flow_step(ops3, np.zeros(ops3.mass.shape), dt)

    def test_bad_field_length(self, ops3):
        with pytest.raises(DataError):
            flow_step(ops3, np.zeros(7), 0.01)

    def test_step_below_the_floor_is_tried(self, ops3):
        # The floor stops the halving; a dt already below it gets one try.
        u0 = 0.2 * ops3.mesh.vertices[:, 2]
        u1 = flow_step(ops3, u0, 5e-9)
        before, after = (L.liouville_energy(ops3, u).total for u in (u0, u1))
        assert after <= before + 1e-12 * (1.0 + abs(before))
        assert (np.exp(u1) @ ops3.mass) == pytest.approx(FOUR_PI, abs=1e-10)

    def test_run_ends_with_a_step_below_the_floor(self, ops2):
        u0 = L.random_band_field(ops2.mesh, 0, 8, 0.5)
        trace = run_flow(ops2, u0, 0.010000005)
        assert trace.times == pytest.approx([0.0, 0.01, 0.010000005], rel=1e-12)
        assert trace.step_sizes[-1] == pytest.approx(5e-9, rel=1e-6)


class TestFailurePaths:
    def test_stiff_run_attaches_partial_trace(self, ops3):
        # inconsistent operator: sign-flipped stiffness drives every
        # candidate step uphill, so the energy guard bottoms out
        bad = dataclasses.replace(ops3, stiffness=-ops3.stiffness)
        u0 = 0.2 * ops3.mesh.vertices[:, 2]
        with pytest.raises(NumericError) as info:
            run_flow(bad, u0, 1.0)
        assert "stiff" in str(info.value)
        trace = info.value.trace
        assert isinstance(trace, FlowTrace)
        assert len(trace.times) >= 1
        assert trace.times[0] == 0.0

    def test_failed_solve_attaches_partial_trace(self, ops2):
        # a weakly anti-diffusive operator blows the first step up to
        # non-finite values inside the solve, before the energy guard
        bad = dataclasses.replace(ops2, stiffness=-1e-5 * ops2.stiffness)
        u0 = L.random_band_field(ops2.mesh, 0, 8, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite") as info:
                run_flow(bad, u0, 10.0)
        trace = info.value.trace
        assert isinstance(trace, FlowTrace)
        assert trace.times[0] == 0.0

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan])
    def test_bad_t_end(self, ops3, t_end):
        with pytest.raises(ParameterError):
            run_flow(ops3, np.zeros(ops3.mass.shape), t_end)

    def test_bad_dt0(self, ops3):
        with pytest.raises(ParameterError):
            run_flow(ops3, np.zeros(ops3.mass.shape), 1.0, dt0=0.0)

    def test_bad_initial_field(self, ops3):
        with pytest.raises(DataError):
            run_flow(ops3, np.zeros(5), 1.0)
        bad = np.zeros(ops3.mass.shape)
        bad[3] = np.nan
        with pytest.raises(DataError):
            run_flow(ops3, bad, 1.0)

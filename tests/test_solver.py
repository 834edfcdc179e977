import copy
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chemofront
from chemofront import solver
from chemofront.diagnostics import HISTORY_COLUMNS
from chemofront.model import (
    ConstantSensitivity,
    Field,
    Grid,
    LinearSwitchSensitivity,
    ModelParams,
    StateQuad,
    logistic_growth,
)
from chemofront.profiles import barenblatt
from chemofront.solver import (
    SimulationError,
    SolverConfig,
    chemotactic_flux,
    diffusive_flux,
    max_abs_derivatives,
    peak_coordinate,
    run,
)

from conftest import STANDARD_MODEL, bump_field, make_standard_initial, time_after_steps


def uniform_state(cells, u=1.0, v=0.0, w=0.0, z=0.0, h_total=2.0):
    g = Grid((cells,), (h_total,), (0.0,))
    return StateQuad(Field.full(g, u), Field.full(g, v), Field.full(g, w), Field.full(g, z))


def cfl(s, params):
    """The CFL dt of a state, through solver.cfl_dt (the name tests patch)."""
    return solver.cfl_dt(s.grid, s.u.values, solver._face_diffs(s.v.values), params)[0]


def drift_flux(s, params):
    """chemotactic_flux of a state."""
    u = s.u.values
    return chemotactic_flux(u, u ** params.m, solver._face_diffs(s.v.values), params.phi, s.grid.h)


def kernel_step(s, params, t_end=1.0):
    """One solver.step from a checked state of a run to t_end, with run()'s cap and floor.

    Returns (the next state, checked again; dt; the clipped mass; the RKL2 stages).
    """
    g = s.grid
    u, v, w, z, dt, clipped, _, stages = solver.step(
        g, s.u.values, s.v.values, s.w.values, s.z.values, s.t, params, t_end - s.t, solver._time_tolerance(t_end))
    return StateQuad(Field(g, u), Field(g, v), Field(g, w), Field(g, z), s.t + dt), dt, clipped, stages


def stage_gain():
    """G, the forward-Euler diffusion steps that a super-step of MAX_STAGES stages covers."""
    return solver._stage_gain(solver.MAX_STAGES)


class TestCflDt:
    def test_stage_gain_at_four_stages(self):
        assert solver._stage_gain(4) == 4.5

    def test_uniform_density_worked_value(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 1.0), Field.full(g, 0.3), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0)
        dt = cfl(s, p)
        # safety 0.25 times h^2 over: diffusion 2 * 1 * 2 * 1^1 = 4 over the
        # stage gain G, no drift under flat v, reaction 1e-4 * 1 * 2 * 1 = 2e-4
        assert dt == pytest.approx(0.25e-4 / (4.0 / stage_gain() + 2e-4), rel=1e-13)

    def test_reaction_term_scales_with_r_above_one(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 2.0), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        # diffusion 2 * 1 * 2 * 2^1 = 8 over the stage gain G, reaction 1e-4 * 1 * 2 * 2^1 * max(r, 1)
        dt = cfl(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=4.0))
        assert dt == pytest.approx(0.25e-4 / (8.0 / stage_gain() + 1.6e-3), rel=1e-13)
        # r <= 1 keeps the term, and dt, exactly as at r = 1
        dt_r1 = cfl(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0))
        assert cfl(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=0.5)) == dt_r1
        assert dt_r1 == pytest.approx(0.25e-4 / (8.0 / stage_gain() + 4e-4), rel=1e-13)

    def test_vacuum_limit(self):
        g = Grid((10,), (1.0,), (0.0,))
        s = StateQuad(Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        # every term vanishes, so the cap h is dt
        assert cfl(s, ModelParams(m=2.0, mu=0.0)) == g.h

    def test_drift_term_is_the_upwinded_flux_speed(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 0.5), Field(g, 3.0 * g.axis_centers(0)), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=3.0, mu=0.0)
        # diffusion 2 * 3 * 0.5^2 = 1.5 over the stage gain G; drift h * 3 * 0.5^2 * |grad v| = 0.01 * 0.75 * 3
        dt = cfl(s, p)
        assert dt == pytest.approx(0.25e-4 / (1.5 / stage_gain() + 0.0225), rel=1e-12)

    @pytest.mark.parametrize("dim, m, faces", [(1, 1.5, 2.0), (2, 3.0, 4.0), (2, 5.0, 5.0)])
    def test_drift_term_counts_every_outgoing_face(self, dim, m, faces):
        # the flux leaves at the speed m u^(m-1) |grad v|, and through up to 2 dim faces of a cell
        g = Grid((100,) * dim, (1.0,) * dim, (0.0,) * dim)  # h = 0.01
        v = 300.0 * g.axis_centers(0).reshape((-1,) + (1,) * (dim - 1)) + np.zeros(g.cells)  # grad v = 300 along x
        s = StateQuad(Field.full(g, 0.5), Field(g, v), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=m, mu=0.0)
        diffusion = 2.0 * dim * m * 0.5 ** (m - 1.0) / stage_gain()
        drift = 0.01 * faces * 0.5 ** (m - 1.0) * 300.0
        assert cfl(s, p) == pytest.approx(0.25e-4 / (diffusion + drift), rel=1e-12)

    @given(
        m=st.floats(min_value=1.05, max_value=4.0),
        safety=st.floats(min_value=0.05, max_value=1.0),
        u=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=4, max_size=24),
        v_scale=st.floats(min_value=0.0, max_value=1e4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_dt_keeps_the_drift_courant_number_under_the_safety(self, m, safety, u, v_scale, seed):
        # the Courant number of a cell draining through both its faces
        g = Grid((len(u),), (2.0,), (-1.0,))
        v = v_scale * np.random.default_rng(seed).random(len(u))
        s = StateQuad(Field(g, np.asarray(u)), Field(g, v), Field.full(g, 1.0), Field.full(g, 0.0))
        p = ModelParams(m=m, mu=1.0, phi=ConstantSensitivity(-1.0))
        with mock.patch.object(solver, "CFL_SAFETY", safety):
            dt = cfl(s, p)
        courant = dt * max(m, 2.0) * max(u) ** (m - 1.0) * max_abs_derivatives(s.v)[0] / g.h
        assert courant <= safety * (1.0 + 1e-12)

    def test_linear_in_safety_factor(self, monkeypatch):
        s = uniform_state(50, u=0.7, v=0.1)
        p = ModelParams(m=2.5, mu=0.5)
        dt = cfl(s, p)
        monkeypatch.setattr(solver, "CFL_SAFETY", 2.0 * solver.CFL_SAFETY)
        assert cfl(s, p) == pytest.approx(2.0 * dt)

    def test_h_caps_a_slowly_diffusing_state(self):
        s = uniform_state(50, u=1e-6)  # h = 0.04, and the CFL bound is about 450
        assert cfl(s, ModelParams(m=2.0)) == s.grid.h

    def test_positive_for_any_state(self):
        s = uniform_state(50, u=100.0)
        assert cfl(s, ModelParams(m=3.0, mu=5.0)) > 0.0


class TestFluxes:
    def test_diffusive_flux_pinned_jump(self):
        # the face difference u_R^m - u_L^m, which is -h times the face flux
        fl = diffusive_flux(np.array([0.0, 0.0, 0.5, 0.5]) ** 2.0)[0]
        assert fl.shape == (3,)
        assert fl[0] == 0.0
        assert fl[1] == pytest.approx(0.25)
        assert fl[2] == 0.0

    def test_diffusive_flux_zero_on_flat_and_empty(self):
        assert np.all(diffusive_flux(np.full(8, 0.5) ** 3.0)[0] == 0.0)
        assert np.all(diffusive_flux(np.zeros(8) ** 2.0)[0] == 0.0)

    def test_chemo_flux_upwind_picks_departure_side(self):
        g = Grid((4,), (0.4,), (0.0,))
        u = Field(g, np.array([1.0, 1.0, 0.0, 0.0]))
        v = Field(g, np.array([0.0, 0.0, 1.0, 1.0]))
        s = StateQuad(u, v, Field.full(g, 0.0), Field.full(g, 0.0))
        fl = drift_flux(s, ModelParams(m=2.0, phi=ConstantSensitivity(1.0)))[0]
        # face 1: velocity (1-0)/h > 0, upwind takes the left cell's u^m = 1
        assert fl[1] == pytest.approx(10.0)
        assert fl[0] == 0.0 and fl[2] == 0.0

    def test_quorum_switch_takes_phi_at_the_face_mean(self):
        # phi(u) = 1 - u/u* switches sign at u* = 0.5, and every face here joins a cell below u* to one above
        # it, so phi taken at either cell alone gives a different flux, of the other sign on some faces
        u_star, m, h = 0.5, 2.0, 0.1
        u = np.array([0.1, 0.8, 0.3, 0.9, 0.2, 0.6, 0.45, 0.7])
        v = np.array([0.0, 1.0, 0.5, 2.0, 1.0, 0.2, 0.7, 0.1])
        expected = []
        for left, right, v_left, v_right in zip(u[:-1], u[1:], v[:-1], v[1:]):
            phi = min(1.0, max(-1.0, 1.0 - 0.5 * (left + right) / u_star))
            speed = phi * (v_right - v_left) / h
            expected.append(speed * (left if speed > 0.0 else right) ** m)
        [flux] = chemotactic_flux(u, u ** m, solver._face_diffs(v), LinearSwitchSensitivity(u_star), h)
        np.testing.assert_allclose(flux, expected, rtol=1e-13, atol=0.0)

    def test_chemo_flux_vanishes_without_signal_or_sensitivity(self):
        g = Grid((6,), (0.6,), (0.0,))
        u = Field(g, np.linspace(0.1, 1.0, 6))
        s = StateQuad(u, Field.full(g, 0.5), Field.full(g, 0.0), Field.full(g, 0.0))
        assert np.all(drift_flux(s, ModelParams(m=2.0))[0] == 0.0)
        v = Field(g, np.linspace(0.0, 1.0, 6))
        s2 = StateQuad(u, v, Field.full(g, 0.0), Field.full(g, 0.0))
        p0 = ModelParams(m=2.0, phi=ConstantSensitivity(0.0))
        assert np.all(drift_flux(s2, p0)[0] == 0.0)


def dense_neumann_lap(cells, h):
    """Cell-centred Neumann Laplacian as a dense matrix on the row-major grid."""

    def lap1(n):
        lap = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        lap[0, 0] = lap[-1, -1] = -1.0
        return lap / (h * h)

    if len(cells) == 1:
        return lap1(cells[0])
    nx, ny = cells
    return np.kron(lap1(nx), np.eye(ny)) + np.kron(np.eye(nx), lap1(ny))


class TestHelmholtzSolve:
    @pytest.mark.parametrize("cells", [(4,), (40,), (8, 8), (6, 10)])
    @pytest.mark.parametrize("shift, dt", [(1.0, 1e-3), (1.5, 0.3)])
    def test_matches_dense_solve(self, cells, shift, dt):
        g = Grid(cells, tuple(0.25 * c for c in cells), (0.0,) * len(cells))
        rhs = np.random.default_rng(len(cells) * 100 + cells[0]).uniform(0.0, 1.0, cells)
        a = shift * np.eye(g.n_cells) - dt * dense_neumann_lap(cells, g.h)
        exact = np.linalg.solve(a, rhs.ravel()).reshape(cells)
        x = solver._helmholtz_solve(g, shift, dt, rhs)
        assert x.shape == cells
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("cells", [(64,), (12, 20)])
    def test_uniform_rhs_returns_rhs_over_shift(self, cells):
        g = Grid(cells, tuple(0.1 * c for c in cells), (0.0,) * len(cells))
        x = solver._helmholtz_solve(g, 1.25, 0.01, np.full(cells, 0.7))
        assert np.max(np.abs(x - 0.7 / 1.25)) <= 4 * np.spacing(0.7 / 1.25)


class TestStep:
    def test_steady_state_is_fixed_point(self):
        s = uniform_state(64, u=1.0, v=0.7, w=0.0, z=1.0)
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0, phi=ConstantSensitivity(1.0))
        out, dt, _, _ = kernel_step(s, p)
        assert np.allclose(out.u.values, 1.0, atol=1e-14)
        assert np.allclose(out.v.values, 0.7, atol=1e-14)
        assert np.allclose(out.w.values, 0.0, atol=1e-14)
        assert np.allclose(out.z.values, 1.0, atol=1e-14)
        assert dt > 0.0

    def test_empty_state_is_frozen(self):
        s = uniform_state(32, u=0.0, v=0.4, w=0.8, z=0.0)
        p = ModelParams(m=2.0, mu=1.0)
        out, _, _, _ = kernel_step(s, p)
        assert np.allclose(out.u.values, 0.0, atol=1e-15)
        assert np.allclose(out.w.values, 0.8, atol=1e-15)
        assert np.allclose(out.v.values, 0.4, atol=1e-14)
        assert np.allclose(out.z.values, 0.0, atol=1e-15)

    def test_matrix_decay_is_exact_exponential(self):
        g = Grid((16,), (1.0,), (0.0,))
        rng = np.random.default_rng(5)
        s = StateQuad(
            Field(g, rng.uniform(0.0, 1.0, 16)),
            Field(g, rng.uniform(0.0, 1.0, 16)),
            Field(g, rng.uniform(0.2, 1.0, 16)),
            Field(g, rng.uniform(0.0, 2.0, 16)),
        )
        out, dt, _, _ = kernel_step(s, ModelParams(m=2.0))
        assert np.allclose(out.w.values, s.w.values * np.exp(-s.z.values * dt), rtol=1e-15)

    def test_single_step_conserves_vw_mass(self):
        g = Grid((32,), (2.0,), (-1.0,))
        rng = np.random.default_rng(17)
        s = StateQuad(
            Field(g, rng.uniform(0.0, 0.8, 32)),
            Field(g, rng.uniform(0.0, 1.0, 32)),
            Field(g, rng.uniform(0.0, 1.0, 32)),
            Field(g, rng.uniform(0.0, 1.5, 32)),
        )
        p = ModelParams(m=2.0, mu=0.0, phi=ConstantSensitivity(1.0))
        out, _, _, _ = kernel_step(s, p)
        assert out.mass_vw() == pytest.approx(s.mass_vw(), rel=1e-13)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_step_preserves_nonnegativity(self, seed):
        g = Grid((24,), (1.0,), (0.0,))
        rng = np.random.default_rng(seed)
        s = StateQuad(
            Field(g, rng.uniform(0.0, 1.2, 24)),
            Field(g, rng.uniform(0.0, 1.0, 24)),
            Field(g, rng.uniform(0.0, 1.0, 24)),
            Field(g, rng.uniform(0.0, 1.0, 24)),
        )
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, phi=ConstantSensitivity(1.0))
        out, _, _, _ = kernel_step(s, p)
        for f in (out.u, out.v, out.w, out.z):
            assert np.all(f.values >= 0.0)
        assert np.all(out.w.values <= s.w.values + 1e-16)

    def test_support_grows_at_most_one_cell_per_stage(self):
        state = make_standard_initial(cells=64)
        for _ in range(5):
            reach = state.u.values > 0.0
            state, _, _, stages = kernel_step(state, STANDARD_MODEL)
            for _ in range(stages):
                reach = reach | np.roll(reach, 1) | np.roll(reach, -1)  # the centred support never wraps
            assert stages == solver.MAX_STAGES  # diffusion sets dt, at the stage cap
            assert np.all(state.u.values[~reach] == 0.0)  # exact zeros beyond
        assert not reach.all()  # vacuum was left to check

    def test_density_stays_under_carrying_capacity(self):
        state = make_standard_initial(cells=64)
        for _ in range(300):
            state, _, _, _ = kernel_step(state, STANDARD_MODEL)
            assert state.u.values.max() <= 1.0 + 1e-12

    def test_symmetry_is_preserved(self):
        state = make_standard_initial(cells=64)
        for _ in range(200):
            state, _, _, _ = kernel_step(state, STANDARD_MODEL)
        for f in (state.u, state.v, state.w, state.z):
            assert np.allclose(f.values, f.values[::-1], atol=1e-13)

    @pytest.mark.parametrize("depth", [1e-6, 1e-16])
    def test_negative_helmholtz_output_is_refused_unless_rounding(self, monkeypatch, depth):
        s = uniform_state(16, u=0.5, v=0.3, w=0.2, z=0.1)
        real_solve = solver._helmholtz_solve

        def bad_v_solve(grid, shift, dt, rhs):
            x = real_solve(grid, shift, dt, rhs)
            if shift == 1.0:  # the v solve; z uses 1 + dt
                x[3] = -depth * np.max(np.abs(x))
            return x

        monkeypatch.setattr(solver, "_helmholtz_solve", bad_v_solve)
        if depth > 1e-12:
            with pytest.raises(SimulationError, match="field v"):
                kernel_step(s, ModelParams(m=2.0))
        else:
            out, _, _, _ = kernel_step(s, ModelParams(m=2.0))
            assert out.v.values[3] == 0.0

    def test_2d_step_conserves_and_stays_nonnegative(self):
        g = Grid((16, 16), (2.0, 2.0), (-1.0, -1.0))
        u0 = bump_field(g, (0.0, 0.0), 0.4, 0.5)
        s = StateQuad(u0, Field.full(g, 0.0), Field.full(g, 1.0), Field.full(g, 0.0))
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, phi=ConstantSensitivity(1.0))
        m0 = s.mass_vw()
        for _ in range(25):
            s, _, _, _ = kernel_step(s, p)
        assert s.mass_vw() == pytest.approx(m0, rel=1e-12)
        assert np.all(s.u.values >= 0.0)
        assert np.all(s.w.values >= 0.0)


def _porous_fisher_cell_means(grid, t, x0):
    """Exact cell averages of the sharp travelling wave u = (1 - e^{(x - x0 - t)/2})_+.

    It solves u_t = (u^2)_xx + u (1 - u), the model at m = 2, delta = mu = r = 1
    and phi = 0, and moves right at speed exactly 1; the antiderivative of
    1 - e^{(x - s)/2} is x - 2 e^{(x - s)/2}, and u = 0 right of s = x0 + t.
    """
    front = x0 + t
    edges = np.minimum(grid.origin[0] + grid.h * np.arange(grid.cells[0] + 1), front)
    return np.diff(edges - 2.0 * np.exp((edges - front) / 2.0)) / grid.h


class TestRun:
    def test_emission_cadence(self):
        initial = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=time_after_steps(initial, STANDARD_MODEL, 25), output_stride=10)
        emitted = []
        res = run(initial, STANDARD_MODEL, cfg, emit=lambda s, row: emitted.append((s, row)))
        assert res.steps == 25
        assert list(res.history) == list(HISTORY_COLUMNS)
        assert len(emitted) == 4  # steps 0, 10, 20, 25
        for name, col in res.history.items():
            assert col.dtype == np.float64 and len(col) == 4
        # each emitted row is the history's row for that state, and its time is the state's
        for i, (s, row) in enumerate(emitted):
            assert row == tuple(res.history[name][i] for name in HISTORY_COLUMNS)
            assert row[0] == s.t
        assert emitted[-1][0].t == res.final.t

    @pytest.mark.parametrize("u_scale, t_end, binds", [(1.0, 0.05, "diffusion"), (0.0, 0.5, "cap")])
    def test_run_records_each_steps_dt_and_binding_term(self, u_scale, t_end, binds):
        # an empty density under a flat signal steps at the cap h = 1/16
        initial = make_standard_initial(cells=32)
        initial = dataclasses.replace(initial, u=Field(initial.grid, u_scale * initial.u.values))
        res = run(initial, STANDARD_MODEL, SolverConfig(t_end=t_end))
        assert list(res.bound_by) == list(solver.BINDING_TERMS)
        assert len(res.dts) == res.steps == sum(res.bound_by.values()) > 1
        assert res.bound_by[binds] == res.steps
        assert math.fsum(res.dts) == pytest.approx(t_end, rel=1e-12)

    def test_zero_duration_returns_initial(self):
        # step 0 is emitted like any run's, so the history holds the initial state's row
        initial = make_standard_initial(cells=64)
        res = run(initial, STANDARD_MODEL, SolverConfig(t_end=0.0))
        assert res.steps == 0
        assert res.final is initial
        assert list(res.history) == list(HISTORY_COLUMNS)
        assert all(col.dtype == np.float64 and col.size == 1 for col in res.history.values())
        full = run(initial, STANDARD_MODEL, SolverConfig(t_end=0.01))
        assert all(res.history[name][0] == full.history[name][0] for name in HISTORY_COLUMNS)

    def test_zero_duration_and_zero_steps_emit_alike(self):
        # a t_end within the time tolerance 1e-12 counts as reached before any step
        initial = make_standard_initial(cells=32)
        emitted = []
        for t_end in (0.0, 5e-13):
            res = run(initial, STANDARD_MODEL, SolverConfig(t_end=t_end), emit=lambda s, row: emitted.append((s, row)))
            assert res.final is initial and res.steps == 0 and len(res.dts) == 0
        (a, row_a), (b, row_b) = emitted
        assert a is b is initial and row_a == row_b

    def test_reaches_requested_time(self):
        initial = make_standard_initial(cells=64)
        res = run(initial, STANDARD_MODEL, SolverConfig(t_end=0.01, output_stride=1000))
        assert res.final.t == pytest.approx(0.01, abs=1e-12)

    def test_barenblatt_refinement_errors_shrink(self):
        """Source-free spreading converges to the reference profile."""
        p = ModelParams(m=2.0, mu=0.0, phi=ConstantSensitivity(0.0))
        errs = []
        for cells in (64, 128, 256):
            g = Grid((cells,), (12.0,), (-6.0,))
            x = g.axis_centers(0)
            s = StateQuad(
                Field(g, barenblatt(x, 1.0, 2.0, 1)),
                Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0),
                t=1.0,
            )
            res = run(s, p, SolverConfig(t_end=0.25, output_stride=10**9))
            exact = barenblatt(x, 1.25, 2.0, 1)
            errs.append(float(np.abs(res.final.u.values - exact).sum()) * g.h)
        assert errs[0] > errs[1] > errs[2]

    def test_porous_fisher_wave_converges_at_second_order(self):
        """Growth on: the exact wave from x0 = 24 to t = 4 on [0, 32], at 128/256/512 cells.

        The least-squares slope of log L1 error against log h must lie in
        [1.75, 2.25], criterion 04's band, and the errors must shrink at every
        halving.  The front starts and ends on a cell edge of every grid.  The
        left wall's no-flux mismatch, the wave's flux 2 u u_x there, moves at
        most 2 e^{-12} of mass over the run, far below the errors.
        """
        params = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0, phi=ConstantSensitivity(0.0))
        spacings, errors = [], []
        for cells in (128, 256, 512):
            g = Grid((cells,), (32.0,), (0.0,))
            zero = Field.full(g, 0.0)
            s = StateQuad(Field(g, _porous_fisher_cell_means(g, 0.0, 24.0)), zero, zero, zero)
            res = run(s, params, SolverConfig(t_end=4.0, output_stride=10**9))
            assert res.total_clipped == 0.0
            spacings.append(g.h)
            errors.append(float(np.abs(res.final.u.values - _porous_fisher_cell_means(g, 4.0, 24.0)).sum()) * g.h)
            # the 1e-12 front leads the exact one by a precursor of a few cells that shrinks with h
            edge = g.h * (np.flatnonzero(res.final.u.values > 1e-12).max() + 1)
            print("porous-Fisher %d cells: L1 %.4e, 1e-12 front %.6g" % (cells, errors[-1], edge))
            assert 28.0 <= edge <= 28.0 + 3.0 * g.h
        order = float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])
        print("porous-Fisher order %.4f" % order)
        assert errors[0] > errors[1] > errors[2]
        assert 1.75 <= order <= 2.25, (errors, order)

    def test_planar_porous_fisher_wave_on_a_2d_grid_converges_at_second_order(self):
        """The same wave along axis 0 of (n, 4) grids over [0, 32] x [0, 4h], at 96/192/384 cells.

        The 2D path, growth on, must keep u constant along axis 1 to the bit,
        clip nothing, shrink the L1 error per unit width at every halving and
        fit an order in criterion 04's band [1.75, 2.25].  The (4, 96) run is
        the exact transpose of the (96, 4) run, step for step.
        """
        params = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0, phi=ConstantSensitivity(0.0))
        cfg = SolverConfig(t_end=4.0, output_stride=10**9)

        def wave_run(cells, axis):
            line = Grid((cells,), (32.0,), (0.0,))
            g = Grid((cells, 4), (32.0, 4.0 * line.h), (0.0, 0.0))
            u0 = np.repeat(_porous_fisher_cell_means(line, 0.0, 24.0)[:, None], 4, axis=1)
            if axis == 1:
                g, u0 = Grid(g.cells[::-1], g.extent[::-1], (0.0, 0.0)), u0.T.copy()
            zero = Field.full(g, 0.0)
            res = run(StateQuad(Field(g, u0), zero, zero, zero), params, cfg)
            return res, _porous_fisher_cell_means(line, 4.0, 24.0), line.h

        spacings, errors = [], []
        for cells in (96, 192, 384):
            res, exact, h = wave_run(cells, 0)
            u = res.final.u.values
            assert res.total_clipped == 0.0
            assert np.all(u == u[:, :1])
            spacings.append(h)
            errors.append(float(np.abs(u - exact[:, None]).sum()) * h * h / (4.0 * h))
            print("planar porous-Fisher (%d, 4): L1 per unit width %.4e, %d steps" % (cells, errors[-1], res.steps))
            if cells == 96:
                across, _, _ = wave_run(cells, 1)
                assert across.steps == res.steps == 288
                assert list(across.dts) == list(res.dts)
                assert np.array_equal(across.final.u.values, u.T)
        order = float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])
        print("planar porous-Fisher order %.4f" % order)
        assert errors[0] > errors[1] > errors[2]
        assert 1.75 <= order <= 2.25, (errors, order)

    def test_smooth_porous_medium_converges_at_second_order(self):
        """Non-degenerate u0 = 1 + cos(pi x)/2: each halving quarters the successive-grid L1 difference."""
        p = ModelParams(m=2.0, mu=0.0, phi=ConstantSensitivity(0.0))
        finals = []
        for cells in (16, 32, 64, 128):
            g = Grid((cells,), (2.0,), (-1.0,))
            edges = -1.0 + g.h * np.arange(cells + 1)
            u0 = 1.0 + 0.5 * np.diff(np.sin(np.pi * edges)) / (np.pi * g.h)  # exact cell means
            s = StateQuad(Field(g, u0), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
            res = run(s, p, SolverConfig(t_end=0.05, output_stride=10**9))
            finals.append((res.final.u.values, g.h))
        diffs = []
        for (coarse, h), (fine, _) in zip(finals, finals[1:]):
            restricted = 0.5 * (fine[0::2] + fine[1::2])
            diffs.append(float(np.abs(coarse - restricted).sum()) * h)
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        for ratio in ratios:
            assert 3.6 <= ratio <= 4.4, (diffs, ratios)


class TestDriftMomentIdentity:
    """With mu = 0 and u zero in both wall cells at every stage, the diffusive
    face fluxes telescope out of u's first moment, so over one step
        sum(x u) h^dim changes by dt h^dim sum(drift face fluxes)
    along each axis, up to rounding.  The drift is the only term that can move
    the centre of mass; a step that drops it or flips its sign breaks this."""

    @staticmethod
    def states(dim, phi):
        """The TestChemotaxisEndToEnd bump of u under a signal peaking to its right (and above it in 2D)."""
        g = Grid((64,) * dim, (2.0,) * dim, (-1.0,) * dim)
        peak = (0.5,) if dim == 1 else (0.5, 0.3)
        w, z = Field.full(g, 0.0), Field.full(g, 0.0)
        s = StateQuad(bump_field(g, (0.0,) * dim, 0.25, 0.5), bump_field(g, peak, 0.5, 1.0), w, z)
        return s, ModelParams(m=2.0, mu=0.0, phi=phi)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("phi", [ConstantSensitivity(1.0), LinearSwitchSensitivity(0.5)], ids=["constant", "switch"])
    def test_first_moment_moves_by_the_drift_flux(self, dim, phi):
        s, params = self.states(dim, phi)
        g = s.grid
        gap = solver.MAX_STAGES + 1  # the support grows by at most one cell per stage
        for _ in range(4):
            occupied = np.nonzero(s.u.values > 0.0)
            assert all(idx.min() >= gap and idx.max() < n - gap for idx, n in zip(occupied, g.cells))
            fluxes = drift_flux(s, params)
            new, dt, clipped, _ = kernel_step(s, params)
            assert clipped == 0.0
            for axis in range(dim):
                x = g.axis_centers(axis).reshape([-1 if a == axis else 1 for a in range(dim)])
                moved = float(np.sum(x * (new.u.values - s.u.values))) * g.cell_volume
                drift = dt * g.cell_volume * float(np.sum(fluxes[axis]))
                scale = dt * g.cell_volume * float(np.sum(np.abs(fluxes[axis])))
                assert drift > 0.0  # the signal pulls u toward its peak along both axes
                assert abs(moved - drift) <= 1e-12 * scale, (axis, moved, drift, scale)
            s = new


def quadratic(d2):
    return 2.0 - d2


# (dim, signal as a function of the squared distance d2 to the centre cell, bump
# height, model changes).  The clips case steps at twice its CFL dt at safety 1
# (kernel_case patches CFL_SAFETY and cfl_dt), so that the cell under the apex
# of a repelling 2D cone, which drains through four faces, is overdrawn.
KERNEL_CASES = {
    "1d": (1, quadratic, 0.8, {}),
    "2d": (2, quadratic, 0.8, {}),
    "no_drift": (1, quadratic, 0.8, {"phi": ConstantSensitivity(0.0)}),
    "clips": (2, lambda d2: 100.0 * (3.0 - np.sqrt(d2)), 0.8, {"phi": ConstantSensitivity(-1.0)}),
}


def kernel_case(case, monkeypatch):
    """(state, params, config) of a KERNEL_CASES entry: a bump under a signal
    centred on the middle cell, on 32 cells or 12 x 16."""
    dim, signal, height, model_changes = KERNEL_CASES[case]
    if case == "clips":
        monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
        real_cfl = solver.cfl_dt

        def doubled(*args):
            dt, terms = real_cfl(*args)
            return 2.0 * dt, terms

        monkeypatch.setattr(solver, "cfl_dt", doubled)
    g = Grid((32,), (2.0,), (-1.0,)) if dim == 1 else Grid((12, 16), (1.5, 2.0), (-0.75, -1.0))
    centre = tuple(g.axis_centers(a)[n // 2] for a, n in enumerate(g.cells))
    v = Field(g, signal(g.center_distance2(centre)))
    state = StateQuad(bump_field(g, centre, 0.5, height), v, Field.full(g, 1.0), Field.full(g, 0.5))
    params = dataclasses.replace(STANDARD_MODEL, **model_changes)
    return state, params, SolverConfig(t_end=1.0, output_stride=7)


class TestKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_run_equals_repeated_step_bit_for_bit(self, case, monkeypatch):
        initial, params, cfg = kernel_case(case, monkeypatch)
        cfg = dataclasses.replace(cfg, t_end=time_after_steps(initial, params, 40, cfg.t_end))
        res = run(initial, params, cfg)
        # the reference loop steps under run's own cap and stopping rule
        state, total, steps = initial, 0.0, 0
        while state.t < cfg.t_end - solver._time_tolerance(cfg.t_end):
            state, _, clipped, _ = kernel_step(state, params, cfg.t_end)
            total += clipped
            steps += 1
            assert np.min(state.u.values) >= 0.0
        assert res.steps == steps == 40
        for name in ("u", "v", "w", "z"):
            assert np.array_equal(getattr(res.final, name).values, getattr(state, name).values), name
        assert res.final.t == state.t
        assert res.total_clipped == total
        if case == "clips":
            assert total > 0.0  # the clipping path ran

    def test_clipped_mass_is_what_the_clip_adds_to_u(self, monkeypatch):
        # with mu = 0 the fluxes conserve the integral of u, so a step changes it by its clipped mass alone
        initial, params, cfg = kernel_case("clips", monkeypatch)
        params = dataclasses.replace(params, mu=0.0)
        state, total = initial, 0.0
        for _ in range(40):
            nxt, _, clipped, _ = kernel_step(state, params, cfg.t_end)
            mass = state.u.mass()
            assert nxt.u.mass() - mass == pytest.approx(clipped, rel=1e-12, abs=1e-12 * mass)
            state, total = nxt, total + clipped
        assert total > 0.0

    @pytest.mark.parametrize("height", [6.0, 9.0])
    def test_repelled_tall_bump_loses_no_mass(self, height, monkeypatch):
        # the drift term bounds the upwinded flux at its true speed, so a tall
        # bump driven out of a strong quadratic signal is never overdrawn
        g = Grid((32,), (2.0,), (-1.0,))
        v = Field(g, 50.0 * (2.0 - g.center_distance2((0.0,))))
        s = StateQuad(bump_field(g, (0.0,), 0.5, height), v, Field.full(g, 1.0), Field.full(g, 0.5))
        params = dataclasses.replace(STANDARD_MODEL, phi=ConstantSensitivity(-1.0))
        monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
        res = run(s, params, SolverConfig(t_end=time_after_steps(s, params, 40)))
        assert res.total_clipped == 0.0
        assert res.bound_by["drift"] == 40

    def test_repelling_cone_apex_is_not_overdrawn(self, monkeypatch):
        # the apex cell of v = 500 (3 - |x|) drains through both faces; a drift
        # term that counted one face clipped 0.015 of mass 0.667 here at m = 1.5
        g = Grid((33,), (2.0,), (-1.0,))
        v = Field(g, 500.0 * (3.0 - np.sqrt(g.center_distance2((0.0,)))))
        s = StateQuad(bump_field(g, (0.0,), 0.5, 1.0), v, Field.full(g, 1.0), Field.full(g, 0.5))
        params = dataclasses.replace(STANDARD_MODEL, m=1.5, phi=ConstantSensitivity(-1.0))
        monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
        res = run(s, params, SolverConfig(t_end=time_after_steps(s, params, 40)))
        assert res.bound_by["drift"] == 40
        assert res.total_clipped == 0.0

    def test_steep_box_stays_nonnegative_at_the_stage_cap(self, monkeypatch):
        # a height-6 box at m = 1.5 diffused at the full stage cap of every step;
        # with 37 stages (most steps at the dt = h cap) the same run went negative
        g = Grid((64, 64), (2.0, 2.0), (-1.0, -1.0))
        x = g.axis_centers(0)
        box = 6.0 * ((np.abs(x)[:, None] < 0.25) & (np.abs(x)[None, :] < 0.25))
        s = StateQuad(Field(g, box), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        params = ModelParams(m=1.5, mu=0.0, phi=ConstantSensitivity(0.0))
        monkeypatch.setattr(solver, "CFL_SAFETY", 1.0)
        res = run(s, params, SolverConfig(t_end=time_after_steps(s, params, 20)))
        assert res.bound_by["diffusion"] == 20 and res.stages == 20 * solver.MAX_STAGES
        assert res.total_clipped == 0.0
        monkeypatch.setattr(solver, "MAX_STAGES", 37)
        assert run(s, params, SolverConfig(t_end=time_after_steps(s, params, 20))).total_clipped > 0.01

    @pytest.mark.parametrize("stages", [2, 3, 4])
    def test_rkl2_weights_are_second_order_and_stable_over_the_stage_gain(self, stages):
        # on u' = lambda u the super-step multiplies u by P(z), z = dt lambda
        weights = solver._rkl2_weights(stages)

        def amplification(z):
            prev, y = 1.0, 1.0 + weights[0][3] * z
            for mu, nu, rest, mu_t, gamma_t in weights[1:]:
                prev, y = y, mu * y + nu * prev + rest + mu_t * z * y + gamma_t * z
            return y

        for z in (-1e-2, -1e-3):
            assert abs(amplification(z) - (1.0 + z + z * z / 2.0)) <= 0.1 * abs(z) ** 3
        # forward Euler is stable for z in [-2, 0]; the super-step for G = (s^2 + s - 2)/4 times that
        gain = (stages * stages + stages - 2) / 4.0
        assert max(abs(amplification(z)) for z in np.linspace(-2.0 * gain, 0.0, 4001)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("safety", [0.25, 1.0])
    def test_fast_logistic_decay_does_not_overshoot(self, safety, monkeypatch):
        # mu u (1 - r u) with r u = 60 at the peak: a reaction term blind to r let
        # 40 steps clip 0.288 of mass 4.0 at safety 0.25 and 11.0 at safety 1
        g = Grid((32,), (2.0,), (-1.0,))
        s = StateQuad(bump_field(g, (0.0,), 0.5, 6.0), Field.full(g, 0.0), Field.full(g, 1.0), Field.full(g, 0.5))
        params = ModelParams(m=2.0, delta=1.0, mu=1e4, r=10.0)
        monkeypatch.setattr(solver, "CFL_SAFETY", safety)
        res = run(s, params, SolverConfig(t_end=time_after_steps(s, params, 40)))
        assert res.bound_by["reaction"] == 40
        assert res.total_clipped == 0.0

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_step_moves_u_by_the_public_cfl_and_fluxes(self, case, monkeypatch):
        s, params, cfg = kernel_case(case, monkeypatch)
        out, dt, _, stages = kernel_step(s, params, cfg.t_end)
        g = s.grid
        assert dt == cfl(s, params)
        # the fewest stages s >= 2, at most MAX_STAGES, whose (s^2 + s - 2)/4 forward-Euler steps cover dt
        explicit = dt * 2.0 * g.dim * params.m * s.u.values.max() ** (params.m - 1.0)
        need = explicit / (solver.CFL_SAFETY * g.h * g.h) * (1.0 - 1e-12)
        cap = solver.MAX_STAGES
        assert stages == next((n for n in range(2, cap) if (n * n + n - 2) / 4.0 >= need), cap)

        def div(fluxes):  # per cell, its right minus its left face flux over h, with zero boundary faces
            out = np.zeros(g.cells)
            for axis, f in enumerate(fluxes):
                pad = [(0, 0)] * f.ndim
                pad[axis] = (1, 1)
                out += np.diff(np.pad(f, pad), axis=axis)
            return out / g.h

        def lap(y):  # the flux-form diffusion of max(y, 0)^m, whose face fluxes are -1/h times diffusive_flux
            return -div([-d / g.h for d in diffusive_flux(np.maximum(y, 0.0) ** params.m)])

        # the RKL2 recurrence of Meyer, Balsara & Aslam (2014), written out
        w1 = 4.0 / (stages * stages + stages - 2.0)
        b = [1.0 / 3.0] * 3 + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0)) for j in range(3, stages + 1)]
        u = s.u.values
        lap0 = lap(u)
        prev, y = u, u + b[1] * w1 * dt * lap0
        for j in range(2, stages + 1):
            mu = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
            nu = -(j - 1.0) / j * b[j] / b[j - 2]
            gamma = -(1.0 - b[j - 1]) * mu * w1
            prev, y = y, mu * y + nu * prev + (1.0 - mu - nu) * u + mu * w1 * dt * lap(y) + gamma * dt * lap0
        expected = y - dt * div(drift_flux(s, params))
        expected += dt * logistic_growth(u, params.mu, params.delta, params.r)
        expected[expected < 0.0] = 0.0
        np.testing.assert_allclose(out.u.values, expected, rtol=0.0, atol=1e-13 * u.max())
        assert np.array_equal(out.u.values == 0.0, expected == 0.0)

        # then w decays exactly against the current z, v gains the mass w lost, and z relaxes toward the
        # current u; v and z each by a dense solve of (shift I - dt Lap) x = rhs
        v, w, z = s.v.values, s.w.values, s.z.values
        w_new = w * np.exp(-z * dt)
        a = np.eye(g.n_cells) - dt * dense_neumann_lap(g.cells, g.h)
        v_new = np.linalg.solve(a, (v + (w - w_new)).ravel()).reshape(g.cells)
        z_new = np.linalg.solve(a + dt * np.eye(g.n_cells), (z + dt * u).ravel()).reshape(g.cells)
        np.testing.assert_array_equal(out.w.values, w_new)
        for name, x in (("v", v_new), ("z", z_new)):
            np.testing.assert_allclose(getattr(out, name).values, x, rtol=0.0, atol=1e-12 * np.abs(x).max(),
                                       err_msg=name)

    def test_nan_attractant_solve_names_field_v(self, monkeypatch):
        monkeypatch.setattr(solver, "_helmholtz_solve", lambda grid, shift, dt, rhs: np.full(rhs.shape, np.nan))
        with pytest.raises(SimulationError, match="field v lost finiteness"):
            run(make_standard_initial(cells=32), STANDARD_MODEL, SolverConfig(t_end=1.0))

    def test_nan_density_names_field_u(self, monkeypatch):
        monkeypatch.setattr(solver, "logistic_growth", lambda u, mu, delta, r: np.full(u.shape, np.nan))
        with pytest.raises(SimulationError, match="field u lost finiteness"):
            run(make_standard_initial(cells=32), STANDARD_MODEL, SolverConfig(t_end=1.0))

    def test_emitted_states_are_distinct_and_unchanged(self):
        initial = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=time_after_steps(initial, STANDARD_MODEL, 50), output_stride=7)
        kept, copies = [], []
        run(initial, STANDARD_MODEL, cfg, emit=lambda s, row: kept.append(s))
        run(initial, STANDARD_MODEL, cfg, emit=lambda s, row: copies.append(copy.deepcopy(s)))
        assert len(kept) == len(copies) == 9  # steps 0, 7, ..., 49 and 50
        arrays = [getattr(s, name).values for s in kept for name in ("u", "v", "w", "z")]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        for s, c in zip(kept, copies):
            assert s.t == c.t
            for name in ("u", "v", "w", "z"):
                assert np.array_equal(getattr(s, name).values, getattr(c, name).values)

    @pytest.mark.parametrize("term", ["diffusion", "drift", "reaction", "cap"])
    def test_collapsed_dt_raises_at_once_naming_the_binding_term(self, term, monkeypatch):
        # the cap case is a vacuum on cells of h = 1.6e-13, below the floor 1e-12
        g = Grid((64,), (1e-11 if term == "cap" else 2.0,), (-1.0,))
        height = {"diffusion": 1e13, "cap": 0.0}.get(term, 0.5)
        signal = 1e13 * g.axis_centers(0) ** 2 if term == "drift" else np.zeros(64)
        params = dataclasses.replace(STANDARD_MODEL, mu=1e16 if term == "reaction" else 1.0)
        cfg = SolverConfig(t_end=1.0)
        s = StateQuad(bump_field(g, (0.0,), 0.25, height), Field(g, signal), Field.full(g, 1.0), Field.full(g, 0.0))
        rows, dts = [], []
        real_cfl = solver.cfl_dt

        def recorded(*args):
            dt, terms = real_cfl(*args)
            dts.append(dt)
            return dt, terms

        monkeypatch.setattr(solver, "cfl_dt", recorded)
        with pytest.raises(SimulationError, match="the %s term binds" % term):
            run(s, params, cfg, emit=lambda state, row: rows.append(row))
        assert len(rows) == 1  # only the initial row: the first step raised
        assert len(dts) == 1 and dts[0] < solver._time_tolerance(cfg.t_end)  # at its first CFL dt
        with pytest.raises(SimulationError, match="the %s term binds" % term):
            kernel_step(s, params, cfg.t_end)


def test_peak_coordinate_finds_bump_center():
    g = Grid((64,), (2.0,), (-1.0,))
    f = bump_field(g, (0.25,), 0.2, 1.0)
    (x,) = peak_coordinate(f)
    assert abs(x - 0.25) <= g.h


def test_gradient_and_laplacian_probes():
    g = Grid((32,), (1.0,), (0.0,))
    assert max_abs_derivatives(Field.full(g, 3.0)) == (0.0, 0.0)
    assert max_abs_derivatives(Field(g, 2.0 * g.axis_centers(0)))[0] == pytest.approx(2.0)
    # a ramp 2x along axis 0: slope 2 everywhere, and the Neumann walls turn it in the edge cells, 2h / h^2
    g2 = Grid((16, 8), (1.0, 0.5), (0.0, 0.0))
    ramp = Field(g2, np.broadcast_to(2.0 * g2.axis_centers(0)[:, None], g2.cells))
    assert max_abs_derivatives(ramp) == pytest.approx((2.0, 2.0 / g2.h))


def test_cli_import_loads_no_scipy():
    src = str(Path(chemofront.__file__).resolve().parents[1])
    code = "import sys, chemofront.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_the_process_pool():
    # only sweep starts worker processes; every other command skips their ~30 stdlib modules
    src = str(Path(chemofront.__file__).resolve().parents[1])
    code = "import sys, chemofront.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

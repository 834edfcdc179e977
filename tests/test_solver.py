import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chemofront
from chemofront import solver
from chemofront.model import (
    ConstantSensitivity,
    Field,
    Grid,
    ModelParams,
    StateQuad,
    logistic_growth,
)
from chemofront.profiles import barenblatt
from chemofront.solver import (
    SimulationError,
    SolverConfig,
    cfl_dt,
    chemotactic_flux,
    diffusive_flux,
    max_abs_gradient,
    max_abs_laplacian,
    peak_coordinate,
    run,
    step,
)

from conftest import STANDARD_MODEL, bump_field, make_standard_initial


def uniform_state(cells, u=1.0, v=0.0, w=0.0, z=0.0, h_total=2.0):
    g = Grid((cells,), (h_total,), (0.0,))
    return StateQuad(Field.full(g, u), Field.full(g, v), Field.full(g, w), Field.full(g, z))


class TestCflDt:
    def test_uniform_density_worked_value(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 1.0), Field.full(g, 0.3), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0)
        dt = cfl_dt(s, p, SolverConfig(t_end=1.0))
        # diffusion 2 * 1 * 2 * 1^1 = 4 over the stage gain 4.5, no drift under
        # flat v, reaction 1e-4 * 1 * 2 * 1 = 2e-4
        assert dt == pytest.approx(0.25e-4 / (4.0 / 4.5 + 2e-4), rel=1e-13)
        assert dt == pytest.approx(2.8119e-5, rel=1e-4)

    def test_reaction_term_scales_with_r_above_one(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 2.0), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        # diffusion 2 * 1 * 2 * 2^1 = 8 over the stage gain 4.5, reaction 1e-4 * 1 * 2 * 2^1 * max(r, 1)
        dt = cfl_dt(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=4.0), SolverConfig(t_end=1.0))
        assert dt == pytest.approx(0.25e-4 / (8.0 / 4.5 + 1.6e-3), rel=1e-13)
        # r <= 1 keeps the term, and dt, exactly as at r = 1
        dt_r1 = cfl_dt(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0), SolverConfig(t_end=1.0))
        assert cfl_dt(s, ModelParams(m=2.0, delta=1.0, mu=1.0, r=0.5), SolverConfig(t_end=1.0)) == dt_r1
        assert dt_r1 == pytest.approx(0.25e-4 / (8.0 / 4.5 + 4e-4), rel=1e-13)

    def test_vacuum_limit(self):
        g = Grid((10,), (1.0,), (0.0,))
        s = StateQuad(Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=2.0, mu=0.0)
        # every term vanishes, so the cap (dt_max, default h) is dt
        assert cfl_dt(s, p, SolverConfig(t_end=1.0)) == g.h
        assert cfl_dt(s, p, SolverConfig(t_end=1.0, dt_max=0.03)) == 0.03

    def test_drift_term_is_the_upwinded_flux_speed(self):
        g = Grid((100,), (1.0,), (0.0,))  # h = 0.01
        s = StateQuad(Field.full(g, 0.5), Field(g, 3.0 * g.axis_centers(0)), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=3.0, mu=0.0)
        # diffusion 2 * 3 * 0.5^2 = 1.5 over the stage gain 4.5; drift h * 3 * 0.5^2 * |grad v| = 0.01 * 0.75 * 3
        dt = cfl_dt(s, p, SolverConfig(t_end=1.0))
        assert dt == pytest.approx(0.25e-4 / (1.5 / 4.5 + 0.0225), rel=1e-12)

    @pytest.mark.parametrize("dim, m, faces", [(1, 1.5, 2.0), (2, 3.0, 4.0), (2, 5.0, 5.0)])
    def test_drift_term_counts_every_outgoing_face(self, dim, m, faces):
        # the flux leaves at the speed m u^(m-1) |grad v|, and through up to 2 dim faces of a cell
        g = Grid((100,) * dim, (1.0,) * dim, (0.0,) * dim)  # h = 0.01
        v = 300.0 * g.axis_centers(0).reshape((-1,) + (1,) * (dim - 1)) + np.zeros(g.cells)  # grad v = 300 along x
        s = StateQuad(Field.full(g, 0.5), Field(g, v), Field.full(g, 0.0), Field.full(g, 0.0))
        p = ModelParams(m=m, mu=0.0)
        diffusion = 2.0 * dim * m * 0.5 ** (m - 1.0) / 4.5
        drift = 0.01 * faces * 0.5 ** (m - 1.0) * 300.0
        assert cfl_dt(s, p, SolverConfig(t_end=1.0)) == pytest.approx(0.25e-4 / (diffusion + drift), rel=1e-12)

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
        dt = cfl_dt(s, p, SolverConfig(t_end=1.0, cfl_safety=safety))
        courant = dt * max(m, 2.0) * max(u) ** (m - 1.0) * max_abs_gradient(s.v) / g.h
        assert courant <= safety * (1.0 + 1e-12)

    def test_linear_in_safety_factor(self):
        s = uniform_state(50, u=0.7, v=0.1)
        p = ModelParams(m=2.5, mu=0.5)
        dt1 = cfl_dt(s, p, SolverConfig(t_end=1.0, cfl_safety=0.5))
        dt2 = cfl_dt(s, p, SolverConfig(t_end=1.0, cfl_safety=0.25))
        assert dt1 == pytest.approx(2.0 * dt2)

    def test_dt_max_cap(self):
        s = uniform_state(50)
        p = ModelParams(m=2.0)
        dt = cfl_dt(s, p, SolverConfig(t_end=1.0, dt_max=1e-9))
        assert dt == 1e-9

    def test_positive_for_any_state(self):
        s = uniform_state(50, u=100.0)
        assert cfl_dt(s, ModelParams(m=3.0, mu=5.0), SolverConfig(t_end=1.0)) > 0.0


class TestFluxes:
    def test_diffusive_flux_pinned_jump(self):
        g = Grid((4,), (0.4,), (0.0,))  # h = 0.1
        u = Field(g, np.array([0.0, 0.0, 1.0, 1.0]))
        s = StateQuad(u, Field.full(g, 0.0), Field.full(g, 0.0), Field.full(g, 0.0))
        fl = diffusive_flux(s, ModelParams(m=2.0))[0]
        assert fl.shape == (3,)
        assert fl[0] == 0.0
        assert fl[1] == pytest.approx(-10.0)
        assert fl[2] == 0.0

    def test_diffusive_flux_zero_on_flat_and_empty(self):
        s = uniform_state(8, u=0.5)
        assert np.all(diffusive_flux(s, ModelParams(m=3.0))[0] == 0.0)
        s0 = uniform_state(8, u=0.0)
        assert np.all(diffusive_flux(s0, ModelParams(m=2.0))[0] == 0.0)

    def test_chemo_flux_upwind_picks_departure_side(self):
        g = Grid((4,), (0.4,), (0.0,))
        u = Field(g, np.array([1.0, 1.0, 0.0, 0.0]))
        v = Field(g, np.array([0.0, 0.0, 1.0, 1.0]))
        s = StateQuad(u, v, Field.full(g, 0.0), Field.full(g, 0.0))
        fl = chemotactic_flux(s, ModelParams(m=2.0, phi=ConstantSensitivity(1.0)))[0]
        # face 1: velocity (1-0)/h > 0, upwind takes the left cell's u^m = 1
        assert fl[1] == pytest.approx(10.0)
        assert fl[0] == 0.0 and fl[2] == 0.0

    def test_chemo_flux_vanishes_without_signal_or_sensitivity(self):
        g = Grid((6,), (0.6,), (0.0,))
        u = Field(g, np.linspace(0.1, 1.0, 6))
        s = StateQuad(u, Field.full(g, 0.5), Field.full(g, 0.0), Field.full(g, 0.0))
        assert np.all(chemotactic_flux(s, ModelParams(m=2.0))[0] == 0.0)
        v = Field(g, np.linspace(0.0, 1.0, 6))
        s2 = StateQuad(u, v, Field.full(g, 0.0), Field.full(g, 0.0))
        p0 = ModelParams(m=2.0, phi=ConstantSensitivity(0.0))
        assert np.all(chemotactic_flux(s2, p0)[0] == 0.0)


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
        out, rep = step(s, p, SolverConfig(t_end=1.0))
        assert np.allclose(out.u.values, 1.0, atol=1e-14)
        assert np.allclose(out.v.values, 0.7, atol=1e-14)
        assert np.allclose(out.w.values, 0.0, atol=1e-14)
        assert np.allclose(out.z.values, 1.0, atol=1e-14)
        assert rep.dt_used > 0.0

    def test_empty_state_is_frozen(self):
        s = uniform_state(32, u=0.0, v=0.4, w=0.8, z=0.0)
        p = ModelParams(m=2.0, mu=1.0)
        out, _ = step(s, p, SolverConfig(t_end=1.0))
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
        out, rep = step(s, ModelParams(m=2.0), SolverConfig(t_end=1.0))
        assert np.allclose(out.w.values, s.w.values * np.exp(-s.z.values * rep.dt_used), rtol=1e-15)

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
        out, rep = step(s, p, SolverConfig(t_end=1.0))
        assert rep.mass_vw == pytest.approx(s.mass_vw(), rel=1e-13)

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
        out, _ = step(s, p, SolverConfig(t_end=1.0))
        for f in (out.u, out.v, out.w, out.z):
            assert np.all(f.values >= 0.0)
        assert np.all(out.w.values <= s.w.values + 1e-16)

    def test_support_grows_at_most_one_cell_per_stage(self):
        state = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=1.0)
        for _ in range(5):
            reach = state.u.values > 0.0
            state, rep = step(state, STANDARD_MODEL, cfg)
            for _ in range(rep.stages):
                reach = reach | np.roll(reach, 1) | np.roll(reach, -1)  # the centred support never wraps
            assert rep.stages == solver.MAX_STAGES  # diffusion sets dt, at the stage cap
            assert np.all(state.u.values[~reach] == 0.0)  # exact zeros beyond
        assert not reach.all()  # vacuum was left to check

    def test_density_stays_under_carrying_capacity(self):
        state = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=1.0)
        for _ in range(300):
            state, rep = step(state, STANDARD_MODEL, cfg)
            assert rep.max_u <= 1.0 + 1e-12

    def test_symmetry_is_preserved(self):
        state = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=1.0)
        for _ in range(200):
            state, _ = step(state, STANDARD_MODEL, cfg)
        for f in (state.u, state.v, state.w, state.z):
            assert np.allclose(f.values, f.values[::-1], atol=1e-13)

    def test_nonpositive_dt_cap_rejected(self):
        s = uniform_state(16)
        with pytest.raises(SimulationError):
            step(s, ModelParams(m=2.0), SolverConfig(t_end=1.0), dt_cap=0.0)

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
                step(s, ModelParams(m=2.0), SolverConfig(t_end=1.0))
        else:
            out, _ = step(s, ModelParams(m=2.0), SolverConfig(t_end=1.0))
            assert out.v.values[3] == 0.0

    def test_2d_step_conserves_and_stays_nonnegative(self):
        g = Grid((16, 16), (2.0, 2.0), (-1.0, -1.0))
        u0 = bump_field(g, (0.0, 0.0), 0.4, 0.5)
        s = StateQuad(u0, Field.full(g, 0.0), Field.full(g, 1.0), Field.full(g, 0.0))
        p = ModelParams(m=2.0, delta=1.0, mu=1.0, phi=ConstantSensitivity(1.0))
        cfg = SolverConfig(t_end=1.0)
        m0 = s.mass_vw()
        for _ in range(25):
            s, rep = step(s, p, cfg)
        assert s.mass_vw() == pytest.approx(m0, rel=1e-12)
        assert np.all(s.u.values >= 0.0)
        assert np.all(s.w.values >= 0.0)


class TestRun:
    def test_emission_cadence(self):
        initial = make_standard_initial(cells=64)
        cfg = SolverConfig(t_end=10.0, output_stride=10)
        snaps = []
        rows = []
        res = run(initial, STANDARD_MODEL, cfg,
                  history_sink=rows.append, snapshot_sink=snaps.append,
                  max_steps=25)
        assert res.steps == 25
        assert len(rows) == len(res.history) == 4  # steps 0, 10, 20, 25
        assert len(snaps) == 4
        assert snaps[-1].t == res.final.t

    @pytest.mark.parametrize("dt_max, binds", [(None, "diffusion"), (1e-4, "cap")])
    def test_run_records_each_steps_dt_and_binding_term(self, dt_max, binds):
        initial = make_standard_initial(cells=32)
        res = run(initial, STANDARD_MODEL, SolverConfig(t_end=0.05, dt_max=dt_max))
        assert list(res.bound_by) == list(solver.BINDING_TERMS)
        assert len(res.dts) == res.steps == sum(res.bound_by.values())
        assert res.bound_by[binds] == res.steps
        assert math.fsum(res.dts) == pytest.approx(0.05, rel=1e-12)

    def test_zero_duration_returns_initial(self):
        initial = make_standard_initial(cells=64)
        res = run(initial, STANDARD_MODEL, SolverConfig(t_end=0.0))
        assert res.steps == 0
        assert res.final is initial

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


def quadratic(d2):
    return 2.0 - d2


# (dim, signal as a function of the squared distance d2 to the centre cell, bump
# height, model changes, solver changes).  The clips case steps at twice its
# CFL dt (kernel_case patches _cfl_dt), so that the cell under the apex of a
# repelling 2D cone, which drains through four faces, is overdrawn.
KERNEL_CASES = {
    "1d": (1, quadratic, 0.8, {}, {}),
    "2d": (2, quadratic, 0.8, {}, {}),
    "no_drift": (1, quadratic, 0.8, {"phi": ConstantSensitivity(0.0)}, {}),
    "clips": (2, lambda d2: 100.0 * (3.0 - np.sqrt(d2)), 0.8, {"phi": ConstantSensitivity(-1.0)}, {"cfl_safety": 1.0}),
}


def kernel_case(case, monkeypatch):
    """(state, params, config) of a KERNEL_CASES entry: a bump under a signal
    centred on the middle cell, on 32 cells or 12 x 16."""
    dim, signal, height, model_changes, solver_changes = KERNEL_CASES[case]
    if case == "clips":
        cfl = solver._cfl_dt

        def doubled(*args):
            dt, terms, cap = cfl(*args)
            return 2.0 * dt, terms, cap

        monkeypatch.setattr(solver, "_cfl_dt", doubled)
    g = Grid((32,), (2.0,), (-1.0,)) if dim == 1 else Grid((12, 16), (1.5, 2.0), (-0.75, -1.0))
    centre = tuple(g.axis_centers(a)[n // 2] for a, n in enumerate(g.cells))
    v = Field(g, signal(g.center_distance2(centre)))
    state = StateQuad(bump_field(g, centre, 0.5, height), v, Field.full(g, 1.0), Field.full(g, 0.5))
    params = dataclasses.replace(STANDARD_MODEL, **model_changes)
    return state, params, dataclasses.replace(SolverConfig(t_end=1.0, output_stride=7), **solver_changes)


class TestKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_run_equals_repeated_step_bit_for_bit(self, case, monkeypatch):
        initial, params, cfg = kernel_case(case, monkeypatch)
        res = run(initial, params, cfg, max_steps=40)
        state, total = initial, 0.0
        for _ in range(40):
            state, rep = step(state, params, cfg)
            total += rep.negativity_clipped
            assert np.min(state.u.values) >= 0.0
        for name in ("u", "v", "w", "z"):
            assert np.array_equal(getattr(res.final, name).values, getattr(state, name).values), name
        assert res.final.t == state.t
        assert res.total_clipped == total
        if case == "clips":
            assert total > 0.0  # the clipping path ran

    @pytest.mark.parametrize("height", [6.0, 9.0])
    def test_repelled_tall_bump_loses_no_mass(self, height):
        # the drift term bounds the upwinded flux at its true speed, so a tall
        # bump driven out of a strong quadratic signal is never overdrawn
        g = Grid((32,), (2.0,), (-1.0,))
        v = Field(g, 50.0 * (2.0 - g.center_distance2((0.0,))))
        s = StateQuad(bump_field(g, (0.0,), 0.5, height), v, Field.full(g, 1.0), Field.full(g, 0.5))
        params = dataclasses.replace(STANDARD_MODEL, phi=ConstantSensitivity(-1.0))
        res = run(s, params, SolverConfig(t_end=1.0, cfl_safety=1.0), max_steps=40)
        assert res.total_clipped == 0.0
        assert res.bound_by["drift"] == 40

    def test_repelling_cone_apex_is_not_overdrawn(self):
        # the apex cell of v = 500 (3 - |x|) drains through both faces; a drift
        # term that counted one face clipped 0.015 of mass 0.667 here at m = 1.5
        g = Grid((33,), (2.0,), (-1.0,))
        v = Field(g, 500.0 * (3.0 - np.sqrt(g.center_distance2((0.0,)))))
        s = StateQuad(bump_field(g, (0.0,), 0.5, 1.0), v, Field.full(g, 1.0), Field.full(g, 0.5))
        params = dataclasses.replace(STANDARD_MODEL, m=1.5, phi=ConstantSensitivity(-1.0))
        res = run(s, params, SolverConfig(t_end=1.0, cfl_safety=1.0), max_steps=40)
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
        cfg = SolverConfig(t_end=1.0, cfl_safety=1.0)
        res = run(s, params, cfg, max_steps=20)
        assert res.bound_by["diffusion"] == 20 and res.stages == 20 * solver.MAX_STAGES
        assert res.total_clipped == 0.0
        monkeypatch.setattr(solver, "MAX_STAGES", 37)
        assert run(s, params, cfg, max_steps=20).total_clipped > 0.01

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
    def test_fast_logistic_decay_does_not_overshoot(self, safety):
        # mu u (1 - r u) with r u = 60 at the peak: a reaction term blind to r let
        # 40 steps clip 0.288 of mass 4.0 at safety 0.25 and 11.0 at safety 1
        g = Grid((32,), (2.0,), (-1.0,))
        s = StateQuad(bump_field(g, (0.0,), 0.5, 6.0), Field.full(g, 0.0), Field.full(g, 1.0), Field.full(g, 0.5))
        params = ModelParams(m=2.0, delta=1.0, mu=1e4, r=10.0)
        res = run(s, params, SolverConfig(t_end=1.0, cfl_safety=safety), max_steps=40)
        assert res.bound_by["reaction"] == 40
        assert res.total_clipped == 0.0

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_step_moves_u_by_the_public_cfl_and_fluxes(self, case, monkeypatch):
        s, params, cfg = kernel_case(case, monkeypatch)
        out, rep = step(s, params, cfg)
        dt, g = rep.dt_used, s.grid
        assert dt == cfl_dt(s, params, cfg)
        # the fewest stages s >= 2 (at most 4) whose (s^2 + s - 2)/4 forward-Euler steps cover dt
        explicit = dt * 2.0 * g.dim * params.m * s.u.values.max() ** (params.m - 1.0)
        need = explicit / (cfg.cfl_safety * g.h * g.h) * (1.0 - 1e-12)
        assert rep.stages == next((n for n in (2, 3) if (n * n + n - 2) / 4.0 >= need), 4)

        def lap(y):  # the flux-form diffusion of max(y, 0)^m
            y_state = StateQuad(Field(g, np.maximum(y, 0.0)), s.v, s.w, s.z)
            return -solver._divergence(diffusive_flux(y_state, params), g.cells, g.h)

        # the RKL2 recurrence of Meyer, Balsara & Aslam (2014), written out
        stages = rep.stages
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
        expected = y - dt * solver._divergence(chemotactic_flux(s, params), g.cells, g.h)
        expected += dt * logistic_growth(u, params.mu, params.delta, params.r)
        expected[expected < 0.0] = 0.0
        np.testing.assert_allclose(out.u.values, expected, rtol=0.0, atol=1e-13 * u.max())
        assert np.array_equal(out.u.values == 0.0, expected == 0.0)

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
        cfg = SolverConfig(t_end=1.0, output_stride=7)
        kept, copies = [], []
        run(initial, STANDARD_MODEL, cfg, snapshot_sink=kept.append, max_steps=50)
        run(initial, STANDARD_MODEL, cfg, snapshot_sink=lambda s: copies.append(s.copy()), max_steps=50)
        assert len(kept) == len(copies) == 9  # steps 0, 7, ..., 49 and 50
        arrays = [getattr(s, name).values for s in kept for name in ("u", "v", "w", "z")]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        for s, c in zip(kept, copies):
            assert s.t == c.t
            for name in ("u", "v", "w", "z"):
                assert np.array_equal(getattr(s, name).values, getattr(c, name).values)

    @pytest.mark.parametrize("term", ["diffusion", "drift", "reaction", "dt_max/h cap"])
    def test_collapsed_dt_raises_at_once_naming_the_binding_term(self, term):
        g = Grid((64,), (2.0,), (-1.0,))
        height = 1e13 if term == "diffusion" else 0.5
        signal = 1e13 * g.axis_centers(0) ** 2 if term == "drift" else np.zeros(64)
        params = dataclasses.replace(STANDARD_MODEL, mu=1e16 if term == "reaction" else 1.0)
        cfg = SolverConfig(t_end=1.0, dt_max=1e-14 if term == "dt_max/h cap" else None)
        s = StateQuad(bump_field(g, (0.0,), 0.25, height), Field(g, signal), Field.full(g, 1.0), Field.full(g, 0.0))
        rows = []
        with pytest.raises(SimulationError, match="the %s term binds" % term):
            run(s, params, cfg, history_sink=rows.append)
        assert len(rows) == 1  # only the initial row: the first step raised
        with pytest.raises(SimulationError, match="the %s term binds" % term):
            step(s, params, cfg)


def test_peak_coordinate_finds_bump_center():
    g = Grid((64,), (2.0,), (-1.0,))
    f = bump_field(g, (0.25,), 0.2, 1.0)
    (x,) = peak_coordinate(f)
    assert abs(x - 0.25) <= g.h


def test_gradient_and_laplacian_probes():
    g = Grid((32,), (1.0,), (0.0,))
    flat = Field.full(g, 3.0)
    assert max_abs_gradient(flat) == 0.0
    assert max_abs_laplacian(flat) == 0.0
    ramp = Field(g, 2.0 * g.axis_centers(0))
    assert max_abs_gradient(ramp) == pytest.approx(2.0)


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

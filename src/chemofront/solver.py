"""Conservative finite-volume time stepping for the four-field system.

    u_t = Lap((u + eps)^m - eps^m) - div(phi(u) u^m grad v) + mu u^delta (1 - r u)
    v_t = Lap v + w z
    w_t = -w z
    z_t = Lap z - z + u

on a box with no-flux boundaries.  Design points that the tests lean on:

* u is advanced explicitly in flux form; the diffusive face flux differences
  the transformed variable (u + eps)^m - eps^m, which preserves exact zeros
  and hence a sharp numerical support (one cell per step at most).
* w is integrated exactly per cell, w <- w exp(-z dt), and the attractant
  source reuses the very mass w lost, so the cell sum of v + w is conserved
  to solver tolerance regardless of dt.
* v and z solve (s I - dt Lap) x = b exactly in the Neumann eigenbasis, the
  DCT-II (semi-implicit, the default), or step explicitly for cross checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Field, Grid, ModelParams, StateQuad, logistic_growth
from . import diagnostics

__all__ = [
    "SimulationError",
    "SolverConfig",
    "StepReport",
    "RunResult",
    "cfl_dt",
    "diffusive_flux",
    "chemotactic_flux",
    "step",
    "run",
]

_STEPPERS = ("semi-implicit", "explicit")


class SimulationError(RuntimeError):
    """The time integration failed (non-finite values or unstable input)."""


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl_safety: float = 0.25
    output_stride: int = 100
    clip_negative: bool = True
    chemo_upwind: bool = True
    v_z_stepper: str = "semi-implicit"
    dt_max: float | None = None  # None means the grid spacing h

    def __post_init__(self):
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1], got %r" % self.cfl_safety)
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and >= 0, got %r" % self.t_end)
        if not (isinstance(self.output_stride, int) and self.output_stride >= 1):
            raise ValueError("output_stride must be a positive integer, got %r" % self.output_stride)
        if self.v_z_stepper not in _STEPPERS:
            raise ValueError("v_z_stepper must be one of %r, got %r" % (_STEPPERS, self.v_z_stepper))
        if self.dt_max is not None and not (self.dt_max > 0.0):
            raise ValueError("dt_max must be positive when given, got %r" % self.dt_max)


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    min_u: float
    max_u: float
    mass_vw: float
    negativity_clipped: float


@dataclass
class RunResult:
    history: "diagnostics.FrontHistory"
    final: StateQuad
    total_clipped: float
    steps: int


def _sl(ndim: int, axis: int, s: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = s
    return tuple(out)


def _max_grad(values: np.ndarray, h: float) -> float:
    """Largest face-difference gradient magnitude over all axes."""
    best = 0.0
    for axis in range(values.ndim):
        d = np.diff(values, axis=axis)
        if d.size:
            best = max(best, float(np.max(np.abs(d))) / h)
    return best


def cfl_dt(state: StateQuad, params: ModelParams, config: SolverConfig) -> float:
    """Stable explicit step for the current state.

    dt = cfl_safety * h^2 / (2 dim (m (max_u + eps_reg)^(m-1) + 1)
                             + h max|grad v| + h^2 mu (delta+1) max(max_u, 1)^delta),
    additionally capped at dt_max (default h).  The three denominator terms
    cover degenerate diffusion plus the unit-diffusivity fields, the upwinded
    drift, and the reaction respectively.
    """
    grid = state.grid
    h = grid.h
    max_u = float(np.max(state.u.values))
    diff_term = 2.0 * grid.dim * (params.m * (max_u + params.eps_reg) ** (params.m - 1.0) + 1.0)
    drift_term = h * _max_grad(state.v.values, h)
    react_term = h * h * params.mu * (params.delta + 1.0) * max(max_u, 1.0) ** params.delta
    dt = config.cfl_safety * h * h / (diff_term + drift_term + react_term)
    cap = config.dt_max if config.dt_max is not None else h
    return min(dt, cap)


def diffusive_flux(state: StateQuad, params: ModelParams) -> list[np.ndarray]:
    """Per-axis interior face fluxes of the degenerate diffusion.

    Face value -(T_R - T_L)/h with T = (u + eps)^m - eps^m, so the flux is
    oriented from the denser cell toward vacuum and vanishes identically on
    faces between empty cells.  Boundary faces are zero and are not stored.
    """
    u = state.u.values
    h = state.grid.h
    eps = params.eps_reg
    if eps > 0.0:
        tr = (u + eps) ** params.m - eps ** params.m
    else:
        tr = u ** params.m
    return [-np.diff(tr, axis=a) / h for a in range(u.ndim)]


def chemotactic_flux(state: StateQuad, params: ModelParams, upwind: bool = True) -> list[np.ndarray]:
    """Per-axis interior face fluxes of the drift term div(phi(u) u^m grad v).

    The face velocity is phi(u_face) (v_R - v_L)/h with u_face the arithmetic
    mean; the advected quantity u^m is taken from the upwind cell (or the
    mean when upwind is off).  Zero advected mass means zero flux, so vacuum
    stays intact.
    """
    u = state.u.values
    v = state.v.values
    h = state.grid.h
    um = u ** params.m
    out = []
    for a in range(u.ndim):
        lo = _sl(u.ndim, a, slice(None, -1))
        hi = _sl(u.ndim, a, slice(1, None))
        vel = params.phi.eval(0.5 * (u[lo] + u[hi])) * (np.diff(v, axis=a) / h)
        if upwind:
            adv = np.where(vel > 0.0, um[lo], um[hi])
        else:
            adv = 0.5 * (um[lo] + um[hi])
        out.append(vel * adv)
    return out


def _divergence(fluxes: list[np.ndarray], shape: tuple, h: float) -> np.ndarray:
    """Cell divergence of per-axis interior face fluxes, zero boundary faces."""
    div = np.zeros(shape)
    ndim = len(shape)
    for a, f in enumerate(fluxes):
        div[_sl(ndim, a, slice(None, -1))] += f
        div[_sl(ndim, a, slice(1, None))] -= f
    div /= h
    return div


def _lap_apply(values: np.ndarray, h: float) -> np.ndarray:
    """Neumann Laplacian in flux form (for the explicit stepper)."""
    lap = np.zeros_like(values)
    for a in range(values.ndim):
        d = np.diff(values, axis=a)
        lap[_sl(values.ndim, a, slice(None, -1))] += d
        lap[_sl(values.ndim, a, slice(1, None))] -= d
    return lap / (h * h)


@lru_cache(maxsize=8)
def _neumann_eigenbasis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix (row k: k-th Neumann eigenvector on n cells)
    and the eigenvalues of -Lap; read-only, since the cache shares them.
    """
    k = np.arange(n)
    c = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    c[0] = np.sqrt(1.0 / n)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / n)) / (h * h)
    c.flags.writeable = lam.flags.writeable = False
    return c, lam


def _helmholtz_solve(grid: Grid, shift: float, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (shift I - dt Lap) x = rhs exactly in the Neumann eigenbasis.

    The mean is solved apart as mean/shift and mode 0 of the rest is zeroed,
    which keeps uniform data and the cell sum exact to rounding.
    """
    mean = float(np.mean(rhs))
    cx, lam_x = _neumann_eigenbasis(grid.cells[0], grid.h)
    if grid.dim == 1:
        coef = cx @ (rhs - mean)
        coef[0] = 0.0
        return mean / shift + cx.T @ (coef / (shift + dt * lam_x))
    cy, lam_y = _neumann_eigenbasis(grid.cells[1], grid.h)
    coef = cx @ (rhs - mean) @ cy.T
    coef[0, 0] = 0.0
    return mean / shift + cx.T @ (coef / (shift + dt * (lam_x[:, None] + lam_y))) @ cy


def step(state: StateQuad, params: ModelParams, config: SolverConfig, dt_cap: float | None = None):
    """Advance all four fields by one stable step.

    Returns (new_state, StepReport).  Order within the step: the cell density
    moves explicitly off the current v; the matrix decays exactly against the
    current z; the attractant gains exactly the mass the matrix lost; z then
    relaxes toward the current u.
    """
    grid = state.grid
    h = grid.h
    dt = cfl_dt(state, params, config)
    if dt_cap is not None:
        if dt_cap <= 0.0:
            raise SimulationError("nonpositive dt_cap %r" % dt_cap)
        dt = min(dt, dt_cap)

    u = state.u.values
    v = state.v.values
    w = state.w.values
    z = state.z.values

    fluxes = diffusive_flux(state, params)
    if params.phi is not None:
        chemo = chemotactic_flux(state, params, upwind=config.chemo_upwind)
        fluxes = [f + c for f, c in zip(fluxes, chemo)]
    u_new = u - dt * _divergence(fluxes, grid.cells, h)
    if params.mu > 0.0:
        u_new += dt * logistic_growth(u, params.mu, params.delta, params.r)

    clipped = 0.0
    if config.clip_negative:
        neg = u_new < 0.0
        if np.any(neg):
            clipped = -float(u_new[neg].sum()) * grid.cell_volume
            u_new[neg] = 0.0

    # exact matrix decay; the attractant source below reuses w_old - w_new
    w_new = w * np.exp(-z * dt)
    transferred = w - w_new

    if config.v_z_stepper == "semi-implicit":
        v_new = _helmholtz_solve(grid, 1.0, dt, v + transferred)
        z_new = _helmholtz_solve(grid, 1.0 + dt, dt, z + dt * u)
        # the exact solves are >= 0 (M-matrix, rhs >= 0): drop rounding-level negatives only
        for name, x in (("v", v_new), ("z", z_new)):
            low = float(np.min(x))
            if low < 0.0:
                if low < -1e-12 * float(np.max(x)):  # equivalent to low < -1e-12 max|x|
                    raise SimulationError("field %s went negative (%r) at t=%r" % (name, low, state.t + dt))
                np.maximum(x, 0.0, out=x)
    else:
        v_new = v + dt * _lap_apply(v, h) + transferred
        z_new = z + dt * (_lap_apply(z, h) - z + u)

    for name, arr in (("u", u_new), ("v", v_new), ("w", w_new), ("z", z_new)):
        if not np.all(np.isfinite(arr)):
            raise SimulationError("field %s lost finiteness at t=%r" % (name, state.t + dt))

    new_state = StateQuad(
        Field(grid, u_new),
        Field(grid, v_new),
        Field(grid, w_new),
        Field(grid, z_new),
        state.t + dt,
    )
    report = StepReport(
        dt_used=dt,
        min_u=float(np.min(u_new)),
        max_u=float(np.max(u_new)),
        mass_vw=new_state.mass_vw(),
        negativity_clipped=clipped,
    )
    return new_state, report


def peak_coordinate(field: Field) -> tuple[float, ...]:
    """Cell-center coordinate of the field maximum (first one on ties)."""
    grid = field.grid
    flat = int(np.argmax(field.values))
    idx = np.unravel_index(flat, grid.cells)
    return tuple(grid.axis_centers(a)[i] for a, i in enumerate(idx))


def max_abs_gradient(field: Field) -> float:
    """Largest face-difference gradient magnitude of a field."""
    return _max_grad(field.values, field.grid.h)


def max_abs_laplacian(field: Field) -> float:
    """Largest discrete Neumann Laplacian magnitude of a field."""
    lap = _lap_apply(field.values, field.grid.h)
    return float(np.max(np.abs(lap))) if lap.size else 0.0


def run(
    initial: StateQuad,
    params: ModelParams,
    config: SolverConfig,
    history_sink=None,
    snapshot_sink=None,
    max_steps: int | None = None,
    support_threshold: float = None,
) -> RunResult:
    """Integrate from the initial state to t_end (or for max_steps steps).

    Diagnostics rows and snapshots are emitted at step 0, every
    output_stride steps, and at the final step.  history_sink and
    snapshot_sink are callables taking a row tuple / a StateQuad.
    A zero-length run returns the initial state and an empty history.
    """
    threshold = diagnostics.SUPPORT_THRESHOLD if support_threshold is None else support_threshold
    history = diagnostics.FrontHistory()
    state = initial
    t_end = initial.t + config.t_end
    budget = math.inf if max_steps is None else max_steps

    if config.t_end <= 0.0 and max_steps is None:
        return RunResult(history, initial, 0.0, 0)

    x0 = peak_coordinate(initial.u)
    targets = diagnostics.steady_state_targets(initial, params)

    def emit(s: StateQuad):
        row = diagnostics.history_row(s, x0, targets, threshold)
        history.append(row)
        if history_sink is not None:
            history_sink(row)
        if snapshot_sink is not None:
            snapshot_sink(s)

    emit(state)
    steps = 0
    total_clipped = 0.0
    tiny = 1e-12 * max(1.0, abs(t_end))
    while steps < budget and (max_steps is not None or state.t < t_end - tiny):
        cap = None if max_steps is not None else t_end - state.t
        state, rep = step(state, params, config, dt_cap=cap)
        steps += 1
        total_clipped += rep.negativity_clipped
        done = steps >= budget or (max_steps is None and state.t >= t_end - tiny)
        if steps % config.output_stride == 0 or done:
            emit(state)
        if done:
            break
    return RunResult(history, state, total_clipped, steps)

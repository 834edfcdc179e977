"""Conservative finite-volume time stepping for the four-field system.

    u_t = Lap(u^m) - div(phi(u) u^m grad v) + mu u^delta (1 - r u)
    v_t = Lap v + w z
    w_t = -w z
    z_t = Lap z - z + u

on a box with no-flux boundaries.  There is one scheme, with no switches;
the design points that the tests lean on:

* the diffusion of u takes one s-stage RKL2 super-step (Meyer, Balsara &
  Aslam, J. Comput. Phys. 257, 2014) per step, in flux form on u^m.  Every
  stage diffuses max(Y, 0)^m; a cell whose neighbours are all empty gets
  exact zeros, so the numerical support stays sharp and grows by at most one
  cell per stage.
* the drift and the growth are added explicitly at the step's start: the
  drift advects u^m from the upwind cell of each face, so an empty cell
  sends nothing and vacuum stays vacuum.  A negative u left by a step is
  clipped to zero and its mass is reported as clipped.
* w is integrated exactly per cell, w <- w exp(-z dt), and the attractant
  source reuses the very mass w lost, so the cell sum of v + w is conserved
  to solver tolerance regardless of dt.
* v and z solve (s I - dt Lap) x = b exactly in the Neumann eigenbasis, the
  DCT-II: a semi-implicit update that is stable for any dt.
* so dt (cfl_dt) budgets for u alone: its degenerate diffusion, whose
  super-step of up to S = MAX_STAGES stages covers (S^2 + S - 2)/4
  forward-Euler steps, its upwinded drift through all 2 dim faces of a cell,
  and its growth, at the fixed safety CFL_SAFETY and never above h.  Each
  step takes the fewest stages s >= 2 that cover its dt.  run() records
  every step's dt, which of these terms or the h cap set it, and the stages
  taken.
* run() loops over step(), the kernel, on bare arrays with one finiteness
  check per step; Field/StateQuad validation sits at the edge, in the states
  run() emits.  A CFL dt below the run's time tolerance raises.
  A run has one stopping rule: every step is capped at t_end - t, and the
  run ends at the step that reaches t_end within that tolerance.
* run() has one output: every emitted state and its diagnostics row go to a
  single emit(state, row) callback, and the rows also make up the run's
  history, a dict of float64 columns keyed by diagnostics.HISTORY_COLUMNS.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import Field, Grid, ModelParams, StateQuad, logistic_growth
from . import diagnostics

__all__ = [
    "SimulationError",
    "SolverConfig",
    "RunResult",
    "BINDING_TERMS",
    "cfl_dt",
    "peak_coordinate",
    "max_abs_derivatives",
    "diffusive_flux",
    "chemotactic_flux",
    "step",
    "run",
]

class SimulationError(RuntimeError):
    """The time integration failed (non-finite values or unstable input)."""


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    output_stride: int = 100

    def __post_init__(self):
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and >= 0, got %r" % self.t_end)
        if not (isinstance(self.output_stride, int) and self.output_stride >= 1):
            raise ValueError("output_stride must be a positive integer, got %r" % self.output_stride)


# what can set a step's CFL dt: the three terms of cfl_dt in order, then its cap
BINDING_TERMS = ("diffusion", "drift", "reaction", "cap")

# most RKL2 stages per step; s stages cover (s^2 + s - 2)/4 forward-Euler diffusion steps
MAX_STAGES = 4

# the share of the CFL bound h^2 / (sum of the terms) that a step takes
CFL_SAFETY = 0.25


@dataclass
class RunResult:
    """A run's history and final state.  center is the run's one centre, the
    initial peak that every support_radius is measured about; history maps
    each HISTORY_COLUMNS name, in that order, to a float64 column with one
    entry per emitted state; dts holds the dt of every step, bound_by counts,
    per BINDING_TERMS entry, the steps whose CFL dt it set (the last step,
    shortened to land on t_end, counts for its CFL term), and stages sums the
    RKL2 stages of every step."""
    center: tuple
    history: dict
    final: StateQuad
    total_clipped: float
    steps: int
    dts: array = field(default_factory=lambda: array("d"))
    bound_by: dict = field(default_factory=lambda: dict.fromkeys(BINDING_TERMS, 0))
    stages: int = 0


@lru_cache(maxsize=2)
def _faces(ndim: int) -> tuple:
    """Per axis, the (left, right) index tuples of the cells beside its interior faces."""
    def cut(axis, s):
        return tuple(s if a == axis else slice(None) for a in range(ndim))
    return tuple((cut(a, slice(None, -1)), cut(a, slice(1, None))) for a in range(ndim))


def _face_diffs(values: np.ndarray) -> list[np.ndarray]:
    """Per-axis differences across interior faces, right cell minus left."""
    return [values[hi] - values[lo] for lo, hi in _faces(values.ndim)]


def _max_grad(diffs: list[np.ndarray], h: float) -> float:
    """Largest face-difference gradient magnitude over all axes."""
    return max(float(np.abs(d).max()) / h for d in diffs)


def _stage_gain(stages: int) -> float:
    """Forward-Euler diffusion steps that one RKL2 super-step of this many stages covers."""
    return (stages * stages + stages - 2) / 4.0


def cfl_dt(grid: Grid, u: np.ndarray, dv: list[np.ndarray], params: ModelParams):
    """Stable step for density u under a signal with face differences dv.

    dt = CFL_SAFETY * h^2 / (2 dim m max_u^(m-1) / G
                             + h max(m, 2 dim) max_u^(m-1) max|grad v|
                             + h^2 mu (delta+1) max(max_u, 1)^delta max(r, 1)),
    with CFL_SAFETY = 0.25 and G = (S^2 + S - 2)/4 = 4.5 at S = MAX_STAGES,
    additionally capped at h, which is also dt when all three terms vanish.  The
    terms bound the degenerate diffusion of u, which one RKL2 super-step of
    up to S stages covers for G forward-Euler steps; the upwinded drift
    phi u^m grad v, which moves at the speed m u^(m-1) |grad v| and drains a
    cell through up to 2 dim faces (|phi| <= 1 for every rule); and the
    reaction mu u^delta (1 - r u), whose decay above u = 1/r scales with r.
    The three share one budget, since all of them drain the same cells within
    a step.  v and z need no term: their semi-implicit solve is stable for any dt.

    Returns (dt, terms), terms the (diffusion, drift, reaction) denominators
    above, to name the one that binds; the diffusion term is already divided by G.
    """
    h = grid.h
    m = params.m
    max_u = float(u.max())
    motility = max_u ** (m - 1.0)
    terms = (
        2.0 * grid.dim * m * motility / _stage_gain(MAX_STAGES),
        h * max(m, 2.0 * grid.dim) * motility * _max_grad(dv, h),
        h * h * params.mu * (params.delta + 1.0) * max(max_u, 1.0) ** params.delta * max(params.r, 1.0),
    )
    total = terms[0] + terms[1] + terms[2]
    if total == 0.0:  # vacuum under a flat signal: only the cap bounds dt
        return h, terms
    return min(CFL_SAFETY * h * h / total, h), terms


def diffusive_flux(ym: np.ndarray) -> list[np.ndarray]:
    """Per-axis interior face differences of ym = max(y, 0)^m, right cell minus left.

    Each is -h times the face flux of the degenerate diffusion, which runs
    from the denser cell toward vacuum and vanishes identically on faces
    between empty cells.  Boundary faces are zero and are not stored.
    """
    return _face_diffs(ym)


def chemotactic_flux(u: np.ndarray, um: np.ndarray, dv: list[np.ndarray], phi, h: float) -> list[np.ndarray]:
    """Per-axis interior face fluxes of the drift term div(phi(u) u^m grad v), given um = u^m.

    The face velocity is phi(u_face) (v_R - v_L)/h with u_face the arithmetic
    mean; the advected quantity u^m is taken from the upwind cell.  Zero
    advected mass means zero flux, so vacuum stays intact.
    """
    out = []
    for (lo, hi), d in zip(_faces(u.ndim), dv):
        vel = phi.eval(0.5 * (u[lo] + u[hi])) * (d / h)
        out.append(vel * np.where(vel > 0.0, um[lo], um[hi]))
    return out


def _scatter(face_values: list[np.ndarray], shape: tuple) -> np.ndarray:
    """Per cell, the sum of per-axis interior face values: + on the face's left cell, - on its right."""
    out = np.zeros(shape)
    for (lo, hi), f in zip(_faces(len(shape)), face_values):
        out[lo] += f
        out[hi] -= f
    return out


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
    mean = float(rhs.sum()) / rhs.size
    cx, lam_x = _neumann_eigenbasis(grid.cells[0], grid.h)
    if grid.dim == 1:
        coef = cx @ (rhs - mean)
        coef[0] = 0.0
        return mean / shift + cx.T @ (coef / (shift + dt * lam_x))
    cy, lam_y = _neumann_eigenbasis(grid.cells[1], grid.h)
    coef = cx @ (rhs - mean) @ cy.T
    coef[0, 0] = 0.0
    return mean / shift + cx.T @ (coef / (shift + dt * (lam_x[:, None] + lam_y))) @ cy


@lru_cache(maxsize=MAX_STAGES)
def _rkl2_weights(stages: int) -> tuple:
    """Per stage j = 1..s of the s-stage RKL2 super-step (Meyer, Balsara & Aslam
    2014): (mu_j, nu_j, 1 - mu_j - nu_j, mu~_j, gamma~_j), with b_0 = b_1 = b_2 = 1/3,
    b_j = (j^2 + j - 2) / (2 j (j + 1)) and w_1 = 4 / (s^2 + s - 2); stage 1 uses mu~_1 alone."""
    w1 = 1.0 / _stage_gain(stages)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0)) for j in range(3, stages + 1)]
    weights = [(0.0, 0.0, 1.0, b[1] * w1, 0.0)]
    for j in range(2, stages + 1):
        mu = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
        nu = -(j - 1.0) / j * b[j] / b[j - 2]
        weights.append((mu, nu, 1.0 - mu - nu, mu * w1, -(1.0 - b[j - 1]) * mu * w1))
    return tuple(weights)


def _stage_count(explicit_steps: float) -> int:
    """Fewest stages s >= 2, at most MAX_STAGES, that cover this many forward-Euler diffusion steps."""
    stages = 2
    while stages < MAX_STAGES and _stage_gain(stages) < explicit_steps:
        stages += 1
    return stages


def _rkl2_diffuse(u: np.ndarray, um: np.ndarray, tau: float, stages: int, m: float):
    """u after one RKL2 super-step of u_t = Lap(u^m) over dt = tau h^2, given um = max(u, 0)^m:
        Y_1 = u + mu~_1 dt L(u),
        Y_j = mu_j Y_(j-1) + nu_j Y_(j-2) + (1 - mu_j - nu_j) u + mu~_j dt L(Y_(j-1)) + gamma~_j dt L(u),
    with h^2 L(Y) each cell's sum of diffusive_flux(max(Y, 0)^m), the
    flux-form Laplacian of max(Y, 0)^m; returns Y_s.  Each stage calls
    diffusive_flux once."""
    weights = _rkl2_weights(stages)
    sums0 = _scatter(diffusive_flux(um), u.shape)
    prev, y = u, u + (weights[0][3] * tau) * sums0
    for mu, nu, rest, mu_t, gamma_t in weights[1:]:
        sums = _scatter(diffusive_flux(np.maximum(y, 0.0) ** m), y.shape)
        prev, y = y, mu * y + nu * prev + rest * u + (mu_t * tau) * sums + (gamma_t * tau) * sums0
    return y


def _time_tolerance(t_end: float) -> float:
    """Times within this of t_end count as reached; a CFL dt below it is a collapse."""
    return 1e-12 * max(1.0, abs(t_end))


def step(grid, u, v, w, z, t, params, dt_cap, dt_floor):
    """One step of all four fields on bare arrays, the kernel of run().

    Returns new arrays (u, v, w, z), dt, the clipped mass, the BINDING_TERMS
    index of what set the CFL dt and the RKL2 stages taken, and never writes
    its inputs.  dt is cfl_dt's dt cut to dt_cap (run passes the time left);
    a CFL dt below dt_floor raises SimulationError naming the term that binds.

    Order within the step: the cell density diffuses by one RKL2 super-step
    and moves by the drift off the current v and the growth, both at the
    current u; the matrix decays exactly against the current z; the
    attractant gains exactly the mass the matrix lost; z then relaxes toward
    the current u.
    """
    h = grid.h
    dv = _face_diffs(v)
    dt, terms = cfl_dt(grid, u, dv, params)
    bound = len(terms) if dt == h else terms.index(max(terms))  # index into BINDING_TERMS
    if dt < dt_floor:
        raise SimulationError(
            "CFL dt %r fell below %r at t=%r: the %s term binds" % (dt, dt_floor, t, BINDING_TERMS[bound]))
    dt = min(dt, dt_cap)
    stages = _stage_count(_stage_gain(MAX_STAGES) * dt * terms[0] / (CFL_SAFETY * h * h))

    um = np.maximum(u, 0.0) ** params.m  # both the diffusion and the drift move u^m
    u_new = _rkl2_diffuse(u, um, dt / (h * h), stages, params.m)
    u_new -= dt * (_scatter(chemotactic_flux(u, um, dv, params.phi, h), grid.cells) / h)
    if params.mu > 0.0:
        u_new += dt * logistic_growth(u, params.mu, params.delta, params.r)

    clipped = 0.0
    neg = u_new < 0.0
    if neg.any():
        clipped = -float(u_new[neg].sum()) * grid.cell_volume
        u_new[neg] = 0.0

    # exact matrix decay; the attractant source below reuses w_old - w_new
    w_new = w * np.exp(-z * dt)
    transferred = w - w_new

    v_new = _helmholtz_solve(grid, 1.0, dt, v + transferred)
    z_new = _helmholtz_solve(grid, 1.0 + dt, dt, z + dt * u)
    # the exact solves are >= 0 (M-matrix, rhs >= 0): drop rounding-level negatives only
    for name, x in (("v", v_new), ("z", z_new)):
        low = float(x.min())
        if low < 0.0:
            if low < -1e-12 * float(x.max()):  # equivalent to low < -1e-12 max|x|
                raise SimulationError("field %s went negative (%r) at t=%r" % (name, low, t + dt))
            np.maximum(x, 0.0, out=x)

    # a non-finite entry makes the total non-finite; an overflowing total of finite entries falls through
    if not math.isfinite(np.concatenate((u_new, v_new, w_new, z_new), axis=None).sum()):
        for name, arr in (("u", u_new), ("v", v_new), ("w", w_new), ("z", z_new)):
            if not np.isfinite(arr).all():
                raise SimulationError("field %s lost finiteness at t=%r" % (name, t + dt))
    return u_new, v_new, w_new, z_new, dt, clipped, bound, stages


def peak_coordinate(field: Field) -> tuple[float, ...]:
    """Cell-center coordinate of the field maximum (first one on ties)."""
    grid = field.grid
    flat = int(np.argmax(field.values))
    idx = np.unravel_index(flat, grid.cells)
    return tuple(grid.axis_centers(a)[i] for a, i in enumerate(idx))


def max_abs_derivatives(field: Field) -> tuple[float, float]:
    """(largest face-difference gradient magnitude, largest discrete Neumann Laplacian magnitude) of a field."""
    h = field.grid.h
    diffs = _face_diffs(field.values)
    return _max_grad(diffs, h), float(np.abs(_scatter(diffs, field.grid.cells)).max()) / (h * h)


def run(
    initial: StateQuad,
    params: ModelParams,
    config: SolverConfig,
    emit=None,
) -> RunResult:
    """Integrate from the initial state to t_end.

    Every step is capped at the time left, and the run ends at the step
    that reaches t_end within 1e-12 max(1, |t_end|).  A state is emitted at
    step 0, every output_stride steps, and at that final step: its
    diagnostics row (one value per HISTORY_COLUMNS entry) joins the history,
    and emit, when given, is called with the state and that row.  Each
    emitted state is new, built on the loop's arrays only when it is
    emitted, apart from step 0's, which is the initial state itself.  So a
    zero-length run (t_end within that tolerance of 0) emits the initial
    state once, its history holds that one row, and it returns the initial
    state.  A CFL dt below the same tolerance raises SimulationError naming
    the term that binds.  The result holds every step's dt, per
    BINDING_TERMS entry how many steps it bound, and the RKL2 stages summed
    over the steps, and its centre, the initial peak: the squared distances
    from it are computed once, and every row's support_radius reads them.
    """
    columns = [array("d") for _ in diagnostics.HISTORY_COLUMNS]
    state = initial
    t_end = initial.t + config.t_end

    x0 = peak_coordinate(initial.u)
    d2 = initial.grid.center_distance2(x0)
    v_target = float(np.mean(initial.v.values) + np.mean(initial.w.values))

    def emit_state(s: StateQuad):
        row = diagnostics.history_row(s, d2, v_target, params.r)
        for col, value in zip(columns, row):
            col.append(value)
        if emit is not None:
            emit(s, row)

    emit_state(state)
    grid = initial.grid
    u, v, w, z, t = initial.u.values, initial.v.values, initial.w.values, initial.z.values, initial.t
    steps = stages = 0
    total_clipped = 0.0
    dts, counts = array("d"), [0] * len(BINDING_TERMS)
    tiny = _time_tolerance(t_end)
    while t < t_end - tiny:
        u, v, w, z, dt, clipped, bound, taken = step(grid, u, v, w, z, t, params, t_end - t, tiny)
        t += dt
        steps += 1
        stages += taken
        total_clipped += clipped
        dts.append(dt)
        counts[bound] += 1
        if steps % config.output_stride == 0 or t >= t_end - tiny:
            state = StateQuad(Field(grid, u), Field(grid, v), Field(grid, w), Field(grid, z), t)
            emit_state(state)
    history = {name: np.array(col) for name, col in zip(diagnostics.HISTORY_COLUMNS, columns)}
    return RunResult(x0, history, state, total_clipped, steps, dts, dict(zip(BINDING_TERMS, counts)), stages)

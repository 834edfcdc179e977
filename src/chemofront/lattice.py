"""Stochastic lattice walk whose hydrodynamic limit is the cell PDE.

Particles hop on a 1D chain of sites with reflecting ends.  The jump rate
from site i to a neighbor is q(relative density at i) * (alpha + beta *
(v_dest - v_here)), scaled by 1/h^2: the jump probability q(s) = s^(m-1) is
charged at the departure site, so crowded origins push particles out.  Over
a flat signal this walk relaxes to the degenerate diffusion
u_t = alpha (u^m)_xx, the solver's PDE, which the continuum twin runs.
Time advances by tau leaping with per-site binomial (multinomial) draws,
which conserves particles exactly.

A state's occupancy is one chain, (sites,), or an ensemble of them,
(members, sites), over the same frozen signal v.  run_adaptive leaps on the
bare occupancy array: the signal gaps are evaluated once per run; each leap
evaluates the rates of every member once, takes one dt, the leap-condition
dt of the fastest member, and draws every move with a single multinomial
call from the state's one generator.  Every leap checks the overflow cap and
counts the sites above u_max per member; a LatticeState, with its full
validation, is built only for the final state.  A leap dt below
1e-12 * max(1, t_end), the tolerance the continuum solver uses for t_end,
raises ValueError, so a run that can never reach t_end stops at once.
step_tau_leap is the checked public step (dt > 0, leap condition) over the
same rate and leap kernels.

run_ensemble and continuum_twin run a [lattice] section: the members as the
rows of one batched run, seeded by one generator default_rng(base_seed),
and the matching continuum run.  The CLI's lattice command and
scripts/lattice_vs_pde.py both use them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .model import ConstantSensitivity, Field, Grid, ModelParams, StateQuad

__all__ = [
    "LatticeConfig",
    "LatticeState",
    "rate_arrays",
    "step_tau_leap",
    "coarse_density",
    "run_adaptive",
    "initial_state",
    "Member",
    "run_ensemble",
    "continuum_twin",
]

LEAP_LIMIT = 0.1  # dt * max rate must stay below this for the leap to be honest
OVERFLOW_FACTOR = 4  # occupancy above OVERFLOW_FACTOR * u_max aborts the run


@dataclass(frozen=True)
class LatticeConfig:
    """The [lattice] section of a run config: one walker ensemble and its run length."""

    sites: int
    u_max: int
    particles: int
    t_end: float
    alpha: float = 1.0
    beta: float = 0.0
    seeds: int = 1
    cells_per_bin: int = 1
    leap_fraction: float = 0.5
    extent: float = 1.0
    origin: float = 0.0
    compare_pde: bool = False

    def __post_init__(self):
        if self.sites < 2 or self.u_max < 1 or self.particles < 1:
            raise ValueError("lattice sites, u_max and particles must be positive")
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("lattice t_end must be finite and positive, got %r" % self.t_end)
        if not (self.alpha >= 0.0):
            raise ValueError("lattice alpha must be >= 0, got %r" % self.alpha)
        if not (abs(self.beta) <= 1.0):
            raise ValueError("lattice beta must satisfy |beta| <= 1, got %r" % self.beta)
        if self.particles > OVERFLOW_FACTOR * self.u_max:
            raise ValueError(
                "lattice particles %d exceed the overflow cap %d = %d * u_max; all start on the centre site"
                % (self.particles, OVERFLOW_FACTOR * self.u_max, OVERFLOW_FACTOR)
            )
        if self.seeds < 1:
            raise ValueError("lattice needs at least one seed")
        if self.sites % self.cells_per_bin != 0:
            raise ValueError("cells_per_bin must divide sites")
        if not (0 < self.leap_fraction <= 1):
            raise ValueError("leap_fraction must lie in (0, 1]")
        if not (0.0 < self.extent < math.inf):
            raise ValueError("lattice extent must be finite and positive, got %r" % self.extent)
        if not math.isfinite(self.origin):
            raise ValueError("lattice origin must be finite, got %r" % self.origin)


@dataclass(eq=False)
class LatticeState:
    """Occupancies plus the frozen signal landscape and kinetic constants.

    occupancy counts particles per site (u_max of them make relative density
    one), for one chain (sites,) or for an ensemble (members, sites) whose
    rows share v and the generator rng; v is the prescribed signal over the
    sites.  Sites above u_max are counted as capacity violations (one count
    per member for an ensemble) but only occupancy beyond OVERFLOW_FACTOR *
    u_max is an error, because the walk does not hard-block arrivals.
    """

    occupancy: np.ndarray
    u_max: int
    v: np.ndarray
    m: float
    alpha: float = 1.0
    beta: float = 0.0
    seed: int = 0
    spacing: float = 1.0
    origin: float = 0.0
    capacity_violations: int = 0
    rng: np.random.Generator = None

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=np.int64)
        if self.occupancy.ndim not in (1, 2) or self.occupancy.shape[-1] < 2 or self.occupancy.size == 0:
            raise ValueError("occupancy must be a (sites,) or (members, sites) array with >= 2 sites")
        if np.any(self.occupancy < 0):
            raise ValueError("occupancy must be nonnegative")
        if not (isinstance(self.u_max, (int, np.integer)) and self.u_max >= 1):
            raise ValueError("u_max must be a positive integer, got %r" % self.u_max)
        cap = OVERFLOW_FACTOR * self.u_max
        if np.any(self.occupancy > cap):
            raise ValueError("occupancy exceeds the overflow cap %d" % cap)
        self.v = np.asarray(self.v, dtype=float)
        if self.v.shape != self.occupancy.shape[-1:]:
            raise ValueError("v must hold one value per site")
        if not (self.m > 1.0):
            raise ValueError("m must be > 1, got %r" % self.m)
        if not (self.alpha >= 0.0):
            raise ValueError("alpha must be >= 0, got %r" % self.alpha)
        if not (abs(self.beta) <= 1.0):
            raise ValueError("beta must satisfy |beta| <= 1, got %r" % self.beta)
        if not (self.spacing > 0.0):
            raise ValueError("spacing must be positive, got %r" % self.spacing)
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    @property
    def sites(self) -> int:
        return self.occupancy.shape[-1]

    def relative_density(self) -> np.ndarray:
        return self.occupancy / float(self.u_max)

    def particle_count(self):
        """Particles on the chain, or per member of an ensemble."""
        return self.occupancy.sum(axis=-1)


def _gains(s: LatticeState):
    """alpha -/+ beta * (v gap) on the faces, for jumps to the left and right.

    v is frozen in a state, so a run evaluates these once.
    """
    dv_r = s.v[1:] - s.v[:-1]  # signal gap across face (i, i+1)
    return s.alpha - s.beta * dv_r, s.alpha + s.beta * dv_r


def _rates(s: LatticeState, occupancy: np.ndarray, gain_l, gain_r):
    """rate_arrays for the (..., sites) occupancy given, with the constants of s.

    Counts are never negative, so q is the plain power (the jump probability
    u^(m-1) of the model, taken at the departure site) with no scan for
    negative input.
    """
    q = (occupancy / float(s.u_max)) ** (s.m - 1.0)
    left = np.zeros(occupancy.shape)
    right = np.zeros(occupancy.shape)
    np.multiply(q[..., :-1], gain_r, out=right[..., :-1])
    np.multiply(q[..., 1:], gain_l, out=left[..., 1:])
    np.maximum(left, 0.0, out=left)
    np.maximum(right, 0.0, out=right)
    scale = 1.0 / (s.spacing * s.spacing)
    left *= scale
    right *= scale
    return left, right


def rate_arrays(s: LatticeState):
    """Per-particle jump rates (to_left, to_right) for every site.

    Reflecting boundaries show up as zero outward rates at the ends; negative
    raw rates (strong adverse drift) clamp to zero.
    """
    return _rates(s, s.occupancy, *_gains(s))


def _leap(occupancy: np.ndarray, left, right, dt: float, rng, u_max: int, probs: np.ndarray):
    """One multinomial leap on bare (..., sites) counts.

    Returns the new counts and the sites above u_max along the last axis.
    probs is an occupancy.shape + (3,) scratch buffer for the (left, right,
    stay) probabilities; one multinomial call draws every site of every row.
    Every particle moves at most once, so each row conserves its total
    exactly; the input array is not written.
    """
    p_left, p_right, stay = probs[..., 0], probs[..., 1], probs[..., 2]
    np.multiply(left, dt, out=p_left)
    np.multiply(right, dt, out=p_right)
    np.subtract(1.0, p_left, out=stay)
    stay -= p_right
    moves = rng.multinomial(occupancy, probs)
    go_left = moves[..., 0]
    go_right = moves[..., 1]

    occ = occupancy - go_left - go_right
    occ[..., :-1] += go_left[..., 1:]
    occ[..., 1:] += go_right[..., :-1]

    cap = OVERFLOW_FACTOR * u_max
    if occ.max() > cap:
        raise ValueError("occupancy exceeded the overflow cap %d during a leap" % cap)
    return occ, (occ > u_max).sum(axis=-1)


def step_tau_leap(s: LatticeState, dt: float) -> LatticeState:
    """Advance the occupancies by dt with one multinomial leap per site.

    Requires dt * max rate <= 0.1, over every member of an ensemble, so the
    frozen-rate approximation holds.  Returns a new state (the generator
    advances in place).
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    left, right = rate_arrays(s)
    max_rate = max(float(left.max()), float(right.max()), 0.0)
    if dt * max_rate > LEAP_LIMIT * (1.0 + 1e-9):
        raise ValueError(
            "leap condition violated: dt * max_rate = %g exceeds %g"
            % (dt * max_rate, LEAP_LIMIT)
        )
    probs = np.empty(s.occupancy.shape + (3,))
    occ, flags = _leap(s.occupancy, left, right, dt, s.rng, s.u_max, probs)
    return replace(s, occupancy=occ, capacity_violations=s.capacity_violations + flags)


def run_adaptive(s: LatticeState, t_end: float, leap_fraction: float = 0.5):
    """Leap to t_end, each step sized at leap_fraction of the allowed limit.

    Returns (state, t_reached, steps).  The members of an ensemble state
    leap together: dt is that of the member with the largest rate, so every
    member stays inside the leap condition.  leap_fraction in (0, 1] trades
    steps for leap bias.  A leap dt below 1e-12 * max(1, t_end) raises
    ValueError.
    """
    if not (0.0 < leap_fraction <= 1.0):
        raise ValueError("leap_fraction must lie in (0, 1], got %r" % leap_fraction)
    gains = _gains(s)
    floor = solver._time_tolerance(t_end)
    occ = s.occupancy
    probs = np.empty(occ.shape + (3,))
    flags = s.capacity_violations + np.zeros(occ.shape[:-1], dtype=np.int64)
    t = 0.0
    steps = 0
    while t < t_end * (1.0 - 1e-12):
        left, right = _rates(s, occ, *gains)
        max_rate = max(float(left.max()), float(right.max()))
        if max_rate <= 0.0:
            break  # frozen configuration, nothing will ever move
        dt = leap_fraction * LEAP_LIMIT / max_rate
        if dt < floor:
            raise ValueError(
                "lattice leap dt %.3g fell below the floor %.3g = 1e-12 * max(1, t_end): "
                "max rate %.6g at t = %.6g" % (dt, floor, max_rate, t)
            )
        dt = min(dt, t_end - t)
        occ, new_flags = _leap(occ, left, right, dt, s.rng, s.u_max, probs)
        flags = flags + new_flags
        t += dt
        steps += 1
    return replace(s, occupancy=occ, capacity_violations=flags), t, steps


def coarse_density(s: LatticeState, cells_per_bin: int) -> Field:
    """Bin the relative density onto the matching finite-volume grid.

    sites must divide evenly into bins; the result lives on a 1D Grid with
    the same total extent and origin as the lattice.
    """
    if not (isinstance(cells_per_bin, (int, np.integer)) and cells_per_bin >= 1):
        raise ValueError("cells_per_bin must be a positive integer")
    if s.sites % cells_per_bin != 0:
        raise ValueError(
            "sites (%d) must be a multiple of cells_per_bin (%d)" % (s.sites, cells_per_bin)
        )
    n_bins = s.sites // cells_per_bin
    dens = s.relative_density().reshape(n_bins, cells_per_bin).mean(axis=1)
    grid = Grid(
        cells=(n_bins,),
        extent=(s.sites * s.spacing,),
        origin=(s.origin,),
    )
    return Field(grid, dens)


def initial_state(config: LatticeConfig, m: float, seed: int) -> LatticeState:
    """The state a [lattice] section starts from: every particle on the centre site, flat signal."""
    occupancy = np.zeros(config.sites, dtype=np.int64)
    occupancy[config.sites // 2] = config.particles
    return LatticeState(
        occupancy=occupancy,
        u_max=config.u_max,
        v=np.zeros(config.sites),
        m=m,
        alpha=config.alpha,
        beta=config.beta,
        seed=seed,
        spacing=config.extent / config.sites,
        origin=config.origin,
    )


@dataclass(frozen=True)
class Member:
    """One finished ensemble member and its coarse relative density."""

    seed: int
    t: float
    capacity_violations: int
    density: Field


def run_ensemble(config: LatticeConfig, m: float, base_seed: int) -> list[Member]:
    """Run config.seeds members as the rows of one batched run_adaptive.

    One generator, default_rng(base_seed), draws every row; member i is row i
    and carries the label base_seed + i.  A one-member ensemble is the run of
    initial_state(config, m, base_seed).
    """
    start = initial_state(config, m, base_seed)
    batch = replace(start, occupancy=np.tile(start.occupancy, (config.seeds, 1)))
    final, t, _ = run_adaptive(batch, config.t_end, config.leap_fraction)
    return [
        Member(
            base_seed + i,
            t,
            int(flags),
            coarse_density(replace(final, occupancy=row, capacity_violations=flags), config.cells_per_bin),
        )
        for i, (row, flags) in enumerate(zip(final.occupancy, final.capacity_violations))
    ]


def continuum_twin(config: LatticeConfig, m: float) -> Field:
    """Final density of the continuum run that the ensemble mean should match.

    Pure degenerate diffusion of the relative density (the drift vanishes over
    a flat signal) on the coarse grid, from the binned t = 0 mound, to
    alpha * t_end: every per-particle rate carries a factor alpha, the PDE not.
    """
    u0 = coarse_density(initial_state(config, m, 0), config.cells_per_bin)
    grid = Grid(cells=u0.grid.cells, extent=(config.extent,), origin=(config.origin,))
    zero = Field.full(grid, 0.0)
    initial = StateQuad(Field(grid, u0.values), zero, zero, zero, t=0.0)
    params = ModelParams(m=m, delta=1.0, mu=0.0, r=1.0, phi=ConstantSensitivity(0.0))
    pde_config = solver.SolverConfig(t_end=config.alpha * config.t_end, output_stride=10**9)
    return solver.run(initial, params, pde_config).final.u

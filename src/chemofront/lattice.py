"""Stochastic lattice walk whose hydrodynamic limit is the cell PDE.

Particles hop on a 1D chain of sites with reflecting ends.  The jump rate
from site i to each neighbor on the chain is q(relative density at i) / h^2:
the jump probability q(s) = s^(m-1) is charged at the departure site, so
crowded origins push particles out.  This walk relaxes to the degenerate
diffusion u_t = (u^m)_xx, the solver's PDE, which the continuum twin runs.
Time advances by tau leaping with per-site binomial (multinomial) draws,
which conserves particles exactly.

A state's occupancy is one chain, (sites,), or an ensemble of them,
(members, sites).  run_adaptive leaps on the bare occupancy array: the
(sites, 3) table of 1/h^2 on the jumps that stay on the chain is built once
per run; each leap evaluates the rates of every member once (rate_arrays),
as one (left, right, stay) array, takes one dt, and draws every move with
one multinomial call from the state's one generator (step_tau_leap).

The leap rule.  The expected update of a leap is an explicit Euler step of
the lattice porous-medium equation, which is stable while each direction's
jump probability dt * rate stays at or below 1/(2m).  Every leap is sized
at THETA = 0.8 of that bound, dt * max rate = THETA / (2m), by the fastest
member; so a site's stay probability is at least 1 - THETA/m > 0 for every
m > 1.  The last leap is cut to land on t_end.  Every leap checks the
overflow cap and, when a site is above u_max, adds per member the leap's
site-time above u_max, the walk's one capacity measure; a LatticeState, with
its full validation, is built only for the final state.  A walk has the
continuum solver's one stopping rule: it ends at the leap that reaches
t_end within 1e-12 * max(1, t_end).  A walk with no positive rate (empty,
or every q underflowed) takes one leap of the whole time left, which moves
nothing; a leap dt below the tolerance raises ValueError, so a run that
can never reach t_end stops at once.

run_ensemble and continuum_twin run a [lattice] section: the members as the
rows of one batched run, seeded by one generator default_rng(base_seed),
and the matching continuum run.  The batch stays one array to the end:
run_ensemble starts the members from initial_state, one (seeds, sites)
state, and returns an EnsembleRun: the leap sizes, the site-time above
u_max per member and the coarse densities as one (seeds, bins) array, each
bin the mean relative density of its cells_per_bin sites, on
LatticeConfig.bins(), the lattice's one coarse grid, on which continuum_twin
runs.  The CLI's lattice command and scripts/lattice_vs_pde.py both use
them.
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
    "EnsembleRun",
    "rate_arrays",
    "step_tau_leap",
    "run_adaptive",
    "initial_state",
    "run_ensemble",
    "continuum_twin",
]

THETA = 0.8  # every leap takes dt * max rate = THETA / (2m), this fraction of the stability bound 1/(2m)
OVERFLOW_FACTOR = 4  # occupancy above OVERFLOW_FACTOR * u_max aborts the run


@dataclass(frozen=True)
class LatticeConfig:
    """The [lattice] section of a run config: one walker ensemble and its run length."""

    sites: int
    u_max: int
    particles: int
    t_end: float
    seeds: int = 1
    cells_per_bin: int = 1
    extent: float = 1.0
    origin: float = 0.0
    compare_pde: bool = False

    def __post_init__(self):
        if self.sites < 2 or self.u_max < 1 or self.particles < 1:
            raise ValueError("lattice sites, u_max and particles must be positive")
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("lattice t_end must be finite and positive, got %r" % self.t_end)
        if self.particles > OVERFLOW_FACTOR * self.u_max:
            raise ValueError(
                "lattice particles %d exceed the overflow cap %d = %d * u_max; all start on the centre site"
                % (self.particles, OVERFLOW_FACTOR * self.u_max, OVERFLOW_FACTOR)
            )
        if self.seeds < 1:
            raise ValueError("lattice needs at least one seed")
        if self.cells_per_bin < 1:
            raise ValueError("lattice cells_per_bin must be >= 1, got %d" % self.cells_per_bin)
        if self.sites % self.cells_per_bin != 0:
            raise ValueError("cells_per_bin must divide sites")
        if self.sites // self.cells_per_bin < 4:
            raise ValueError("lattice needs at least 4 bins, got %d = sites // cells_per_bin"
                             % (self.sites // self.cells_per_bin))
        if not (0.0 < self.extent < math.inf):
            raise ValueError("lattice extent must be finite and positive, got %r" % self.extent)
        if not math.isfinite(self.origin):
            raise ValueError("lattice origin must be finite, got %r" % self.origin)

    @property
    def spacing(self) -> float:
        """The distance between neighbouring sites."""
        return self.extent / self.sites

    @property
    def start_site(self) -> int:
        """The centre site, on which every particle starts."""
        return self.sites // 2

    def bins(self) -> Grid:
        """The sites // cells_per_bin bins over [origin, origin + extent]: coarse densities' and twin's grid."""
        return Grid(cells=(self.sites // self.cells_per_bin,), extent=(self.extent,), origin=(self.origin,))


@dataclass(eq=False)
class LatticeState:
    """Occupancies plus the walk's constants.

    occupancy counts particles per site (u_max of them make relative density
    one), for one chain (sites,) or for an ensemble (members, sites) whose
    rows share the generator rng.  capacity_time is the site-time above
    u_max, of shape occupancy.shape[:-1] (one value per member for an
    ensemble; a scalar given is broadcast): each leap adds its dt times the
    number of sites it left above u_max, so the measure hardly depends on
    the leap size.  Only occupancy beyond OVERFLOW_FACTOR * u_max is an
    error, because the walk does not hard-block arrivals.
    """

    occupancy: np.ndarray
    u_max: int
    m: float
    rng: np.random.Generator
    spacing: float = 1.0
    capacity_time: np.ndarray = 0.0

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
        if not (self.m > 1.0):
            raise ValueError("m must be > 1, got %r" % self.m)
        if not (self.spacing > 0.0):
            raise ValueError("spacing must be positive, got %r" % self.spacing)
        self.capacity_time = np.broadcast_to(self.capacity_time, self.occupancy.shape[:-1]).astype(float)

    @property
    def sites(self) -> int:
        return self.occupancy.shape[-1]

    def relative_density(self) -> np.ndarray:
        return self.occupancy / float(self.u_max)


def _jump_table(s: LatticeState) -> np.ndarray:
    """The (sites, 3) (left, right, stay) rate factors: 1/h^2 on each jump that stays on the chain, else 0."""
    table = np.zeros((s.sites, 3))
    table[1:, 0] = table[:-1, 1] = 1.0 / (s.spacing * s.spacing)
    return table


def rate_arrays(s: LatticeState, occupancy: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The (..., sites, 3) (left, right, stay) jump rates of the occupancy given, stay at zero.

    table is the run's _jump_table(s).  Counts are never negative, so q is
    the plain power (the jump probability u^(m-1) of the model, taken at the
    departure site) with no scan for negative input; reflecting ends show up
    as zero outward rates.
    """
    q = (occupancy / float(s.u_max)) ** (s.m - 1.0)
    return q[..., None] * table


def step_tau_leap(occupancy: np.ndarray, rates: np.ndarray, dt: float, rng, u_max: int):
    """One multinomial leap on bare (..., sites) counts with their (..., sites, 3) rates.

    Returns the new counts and each row's site-time above u_max over the
    leap (0.0 when no site is above).  One multinomial call draws every site
    of every row; every particle moves at most once, so each row conserves
    its total exactly.  Neither input array is written.  The caller sizes
    dt: run_adaptive keeps dt * max rate at THETA / (2m).
    """
    probs = rates * dt
    probs[..., 2] = 1.0 - probs[..., 0] - probs[..., 1]
    moves = rng.multinomial(occupancy, probs)
    occ = moves[..., 2].copy()  # each site's stayers, plus the movers from its two neighbours
    occ[..., :-1] += moves[..., 1:, 0]
    occ[..., 1:] += moves[..., :-1, 1]

    top = occ.max()
    cap = OVERFLOW_FACTOR * u_max
    if top > cap:
        raise ValueError("occupancy exceeded the overflow cap %d during a leap" % cap)
    return occ, ((occ > u_max).sum(axis=-1) * dt if top > u_max else 0.0)


def run_adaptive(s: LatticeState, t_end: float):
    """Leap to t_end, each leap sized at dt * max rate = THETA / (2m).

    Returns (state, t_reached, dts), dts the (leaps,) array of leap sizes.
    The members of an ensemble state leap together: dt is that of the
    member with the largest rate, so every member stays inside the
    stability bound.  The last leap is cut to land on t_end, and with no
    positive rate the leap dt is infinite, so that one leap is the whole
    time left.  It stops by solver.run's rule: t_end counts as reached
    within 1e-12 * max(1, t_end), and a leap dt below that tolerance raises
    ValueError.
    """
    table = _jump_table(s)
    tiny = solver._time_tolerance(t_end)
    occ = s.occupancy
    site_time = s.capacity_time
    t = 0.0
    dts = []
    while t < t_end - tiny:
        rates = rate_arrays(s, occ, table)
        max_rate = float(rates.max())
        dt = THETA / (2.0 * s.m * max_rate) if max_rate > 0.0 else math.inf
        if dt < tiny:
            raise ValueError(
                "lattice leap dt %.3g fell below the floor %.3g = 1e-12 * max(1, t_end): "
                "max rate %.6g at t = %.6g" % (dt, tiny, max_rate, t)
            )
        dt = min(dt, t_end - t)
        occ, leap_time = step_tau_leap(occ, rates, dt, s.rng, s.u_max)
        site_time = site_time + leap_time
        t += dt
        dts.append(dt)
    return replace(s, occupancy=occ, capacity_time=site_time), t, np.array(dts)


def _bin(density: np.ndarray, cells_per_bin: int) -> np.ndarray:
    """(..., sites) values averaged over bins of cells_per_bin sites along the last axis."""
    return density.reshape(density.shape[:-1] + (-1, cells_per_bin)).mean(axis=-1)


def initial_state(config: LatticeConfig, m: float, seed: int) -> LatticeState:
    """The start of a [lattice] section, (seeds, sites): every member's particles on the centre site."""
    occupancy = np.zeros((config.seeds, config.sites), dtype=np.int64)
    occupancy[:, config.start_site] = config.particles
    return LatticeState(
        occupancy=occupancy,
        u_max=config.u_max,
        m=m,
        rng=np.random.default_rng(seed),
        spacing=config.spacing,
    )


@dataclass(frozen=True, eq=False)
class EnsembleRun:
    """One batched ensemble run of a [lattice] section, row i for member i.

    t is the time reached and dts the (leaps,) leap sizes; site_time is the
    (seeds,) site-time above u_max (LatticeState.capacity_time); density
    holds the (seeds, bins) coarse relative densities on the config's bins().
    """

    t: float
    dts: np.ndarray
    site_time: np.ndarray
    density: np.ndarray


def run_ensemble(config: LatticeConfig, m: float, base_seed: int) -> EnsembleRun:
    """Run config.seeds members as the rows of one batched run_adaptive.

    One generator, default_rng(base_seed), draws every row; member i is row
    i and carries the label base_seed + i.  A one-member ensemble draws
    what a one-chain (sites,) run from the same start and seed draws.
    """
    start = initial_state(config, m, base_seed)
    final, t, dts = run_adaptive(start, config.t_end)
    return EnsembleRun(t, dts, final.capacity_time, _bin(final.relative_density(), config.cells_per_bin))


def continuum_twin(config: LatticeConfig, m: float) -> Field:
    """Final density of the continuum run that the ensemble mean should match.

    Pure degenerate diffusion of the relative density (no drift, phi = 0) on
    the coarse grid to t_end.  It starts from the particles' mound, whose
    mass sits on the centre of one site, split between the two bins whose
    centres bracket that point with linear weights, so the twin starts with
    the particles' mass and centre of mass.
    """
    site_centre = config.origin + (config.start_site + 0.5) * config.spacing
    grid = config.bins()
    weights = np.clip(1.0 - np.abs(grid.axis_centers(0) - site_centre) / grid.h, 0.0, None)
    mass = config.particles / config.u_max * config.spacing
    zero = Field.full(grid, 0.0)
    initial = StateQuad(Field(grid, weights * (mass / grid.h)), zero, zero, zero, t=0.0)
    params = ModelParams(m=m, delta=1.0, mu=0.0, r=1.0, phi=ConstantSensitivity(0.0))
    pde_config = solver.SolverConfig(t_end=config.t_end, output_stride=10**9)
    return solver.run(initial, params, pde_config).final.u

"""Front tracking, rate fitting, conservation audits and the sandwich check for completed runs.

Three constants, with no per-call override, make the support rule (u > SUPPORT_THRESHOLD),
the sandwich rule (u crosses an envelope by more than SANDWICH_TOL) and the mass rule
(the v + w drift of conservation_audit exceeds MASS_TOL); verify fails on either of the last two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Field, StateQuad

__all__ = [
    "SUPPORT_THRESHOLD",
    "SANDWICH_TOL",
    "MASS_TOL",
    "HISTORY_COLUMNS",
    "support_radius",
    "history_row",
    "Fit",
    "fit",
    "DriftAudit",
    "conservation_audit",
    "SandwichReport",
    "sandwich_check",
]

SUPPORT_THRESHOLD = 1e-12
SANDWICH_TOL = 1e-8
MASS_TOL = 1e-10

# a run's history is a dict of float64 columns under these names, in this order,
# one entry per emitted state (solver.run, and history.csv read back by
# config_io.read_csv_columns); the three 'minus' norms measure sup distance to
# the steady values (1/r for u and z, mean v0 + mean w0 for v)
HISTORY_COLUMNS = (
    "t",
    "support_radius",
    "sup_u",
    "inf_u_on_support",
    "norm_u_minus_1",
    "norm_w",
    "norm_v_minus_target",
    "norm_z_minus_1",
    "mass_u",
    "mass_vw",
)


def support_radius(u: Field, d2) -> float:
    """Radius of the occupied region about the run's one centre, d2 holding each cell's squared distance from it.

    Largest distance to the center of any cell with u > SUPPORT_THRESHOLD,
    plus half a cell so the reported ball covers the whole cell; 0.0 when no
    cell is on the support.
    """
    mask = u.values > SUPPORT_THRESHOLD
    if not np.any(mask):
        return 0.0
    return float(np.sqrt(np.max(d2[mask]))) + 0.5 * u.grid.h


def history_row(state: StateQuad, d2, v_target: float, r: float):
    """One row of HISTORY_COLUMNS, its support_radius measured on d2, the run's squared distances from its centre.

    u and z settle to the carrying capacity 1/r and v to v_target, its
    initial mean plus the matrix initial mean (the combined mean is conserved
    while w converts into v).
    """
    u = state.u.values
    on = u > SUPPORT_THRESHOLD
    inf_on = float(u[on].min()) if np.any(on) else 0.0
    capacity = 1.0 / r
    return (
        state.t,
        support_radius(state.u, d2),
        float(u.max()),
        inf_on,
        float(np.max(np.abs(u - capacity))),
        float(np.max(np.abs(state.w.values))),
        float(np.max(np.abs(state.v.values - v_target))),
        float(np.max(np.abs(state.z.values - capacity))),
        state.u.mass(),
        state.mass_vw(),
    )


@dataclass(frozen=True)
class Fit:
    """A fit's kind and fits.csv's columns after it, in order."""

    kind: str
    exponent_or_rate: float
    prefactor: float
    r_squared: float
    stderr: float
    samples: int


def fit(kind: str, t, values, t_min=None) -> Fit:
    """Fit a straight line to log values by least squares, with r^2 and the slope's standard error.

    kind "power_law" fits values ~ prefactor * (1+t)**exponent, regressing on
    log(1+t); kind "exponential" fits values ~ prefactor * exp(-rate t),
    regressing on t.  Only samples with t >= t_min (default: 20% into the
    series) and values > 0 participate; fewer than 8 such samples is an error,
    and so is a constant series (all their logs equal), which has no rate.
    """
    if kind not in ("power_law", "exponential"):
        raise ValueError("fit kind must be 'power_law' or 'exponential', got %r" % (kind,))
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape:
        raise ValueError("t and values must have matching shapes")
    if t_min is None:
        t_min = t.min() + 0.2 * (t.max() - t.min()) if t.size else 0.0  # an empty series keeps no sample
    keep = (t >= t_min) & (values > 0.0)
    n = int(keep.sum())
    if n < 8:
        raise ValueError("%s fit needs >= 8 usable samples, got %d" % (kind.replace("_", "-"), n))
    x = np.log1p(t[keep]) if kind == "power_law" else t[keep]
    y = np.log(values[keep])
    if np.all(y == y[0]):
        raise ValueError("%s fit of a constant series" % kind.replace("_", "-"))
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("fit abscissae are all identical")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    # a rate is minus the slope: 0.0 - slope, not -slope, so a zero slope gives rate +0.0, never -0.0
    exponent_or_rate = slope if kind == "power_law" else 0.0 - slope
    return Fit(kind, exponent_or_rate, math.exp(intercept), r2, stderr, n)


@dataclass(frozen=True)
class DriftAudit:
    drift: float
    relative: bool


def conservation_audit(masses) -> DriftAudit:
    """Worst drift of the conserved v + w mass along a run.

    masses is the sequence of v + w masses of the run's states in time
    order, the first being the initial state's (the mass_vw history column,
    or StateQuad.mass_vw() of each snapshot).  The drift is relative to the
    initial mass when that is nonzero; absolute (flagged) when the run
    started with no attractant or matrix at all.
    """
    mass = np.asarray(masses, dtype=float)
    if mass.size == 0:
        raise ValueError("cannot audit an empty history")
    m0 = mass[0]
    worst = float(np.max(np.abs(mass - m0)))
    if m0 == 0.0:
        return DriftAudit(worst, relative=False)
    return DriftAudit(worst / abs(m0), relative=True)


@dataclass
class SandwichReport:
    max_lower_violation: float
    max_upper_violation: float
    violation_count: int
    checked_lower: int = 0
    checked_upper: int = 0

    @property
    def clean(self) -> bool:
        return self.violation_count == 0


def sandwich_check(snapshots, envelopes, d2) -> SandwichReport:
    """Verify profile ordering against simulated states: any iterable of them on one grid, read in one pass.

    envelopes are comparison profiles (profiles.ProfileParams) about the
    run's one centre, and d2, shaped like the snapshots' cells, holds each
    cell's squared distance from it.  Each envelope is checked on every
    snapshot whose time, counted from the first snapshot, lies in its window
    [0, valid_until]: a 'lower' profile must stay below u, an 'upper' one
    above it.  Every cell of a checked snapshot that crosses its envelope by
    more than SANDWICH_TOL counts as one violation.
    """
    worst = {"lower": 0.0, "upper": 0.0}
    checked = {"lower": 0, "upper": 0}
    count = 0
    grid = t0 = None
    for snap in snapshots:
        if grid is None:
            grid, t0 = snap.grid, snap.t  # the window starts at the first snapshot
            if np.shape(d2) != grid.cells:
                raise ValueError("d2 has shape %s, the snapshots' grid %s" % (np.shape(d2), grid.cells))
        elif snap.grid != grid:
            raise ValueError("snapshots must share one grid")
        rel_t = snap.t - t0
        for env in envelopes:
            if rel_t > env.valid_until + 1e-15:
                continue
            sign = 1.0 if env.kind == "lower" else -1.0
            viol = sign * (env.evaluate(d2, rel_t) - snap.u.values)
            worst[env.kind] = max(worst[env.kind], float(viol.max()))
            checked[env.kind] += 1
            count += int(np.count_nonzero(viol > SANDWICH_TOL))
    if grid is None:
        raise ValueError("need at least one snapshot")
    return SandwichReport(worst["lower"], worst["upper"], count, checked["lower"], checked["upper"])

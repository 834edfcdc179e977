"""Front tracking, rate fitting and conservation audits for completed runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Field, ModelParams, StateQuad
from .profiles import ProfileParams

__all__ = [
    "SUPPORT_THRESHOLD",
    "HISTORY_COLUMNS",
    "FrontHistory",
    "support_radius",
    "SteadyStateTargets",
    "steady_state_targets",
    "history_row",
    "PowerLawFit",
    "fit_power_law",
    "ExponentialFit",
    "fit_exponential",
    "DriftAudit",
    "conservation_audit",
    "SandwichReport",
    "sandwich_check",
]

SUPPORT_THRESHOLD = 1e-12

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


@dataclass
class FrontHistory:
    """Diagnostics rows sampled along a run, one tuple per sample time.

    Columns are HISTORY_COLUMNS; the three 'minus' norms measure sup distance
    to the steady values (1/r for u and z, mean v0 + mean w0 for v).
    """

    rows: list = field(default_factory=list)

    def append(self, row):
        if len(row) != len(HISTORY_COLUMNS):
            raise ValueError("history row needs %d entries, got %d" % (len(HISTORY_COLUMNS), len(row)))
        self.rows.append(tuple(float(x) for x in row))

    def column(self, name: str) -> np.ndarray:
        try:
            i = HISTORY_COLUMNS.index(name)
        except ValueError:
            raise KeyError("unknown history column %r" % name) from None
        return np.array([r[i] for r in self.rows])

    def __len__(self):
        return len(self.rows)


def support_radius(u: Field, x0, threshold: float = SUPPORT_THRESHOLD) -> float:
    """Radius of the occupied region around x0.

    Largest distance from x0 to the center of any cell with u > threshold,
    plus half a cell so the reported ball covers the whole cell; 0.0 when
    nothing exceeds the threshold.
    """
    mask = u.values > threshold
    if not np.any(mask):
        return 0.0
    d2 = u.grid.center_distance2(x0)
    return float(np.sqrt(np.max(d2[mask]))) + 0.5 * u.grid.h


@dataclass(frozen=True)
class SteadyStateTargets:
    u_target: float
    v_target: float
    w_target: float
    z_target: float


def steady_state_targets(initial: StateQuad, params: ModelParams) -> SteadyStateTargets:
    """Late-time constants the fields settle to.

    u and z both approach the carrying capacity 1/r, w dies out, and v
    approaches its own initial mean plus the matrix initial mean (the
    combined mean is conserved while w converts into v).
    """
    return SteadyStateTargets(
        u_target=1.0 / params.r,
        v_target=float(np.mean(initial.v.values) + np.mean(initial.w.values)),
        w_target=0.0,
        z_target=1.0 / params.r,
    )


def history_row(state: StateQuad, x0, targets: SteadyStateTargets):
    """One row of HISTORY_COLUMNS; a cell is on the support when u > SUPPORT_THRESHOLD."""
    u = state.u.values
    on = u > SUPPORT_THRESHOLD
    inf_on = float(u[on].min()) if np.any(on) else 0.0
    return (
        state.t,
        support_radius(state.u, x0),
        float(u.max()),
        inf_on,
        float(np.max(np.abs(u - targets.u_target))),
        float(np.max(np.abs(state.w.values))),
        float(np.max(np.abs(state.v.values - targets.v_target))),
        float(np.max(np.abs(state.z.values - targets.z_target))),
        state.u.mass(),
        state.mass_vw(),
    )


def _fit_window(t: np.ndarray, t_min):
    if t_min is None:
        t_min = t.min() + 0.2 * (t.max() - t.min())
    return t >= t_min


def _least_squares_line(x: np.ndarray, y: np.ndarray):
    """Slope, intercept, r^2 and slope standard error of a straight-line fit."""
    n = x.size
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("fit abscissae are all identical")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else 0.0
    return slope, intercept, r2, stderr


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float
    stderr: float
    samples: int


def fit_power_law(t, values, t_min=None) -> PowerLawFit:
    """Fit values ~ prefactor * (1+t)**exponent by least squares in log space.

    Only samples with t >= t_min (default: 20% into the series) and
    values > 0 participate; fewer than 8 such samples is an error.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape:
        raise ValueError("t and values must have matching shapes")
    keep = _fit_window(t, t_min) & (values > 0.0)
    if int(keep.sum()) < 8:
        raise ValueError("power-law fit needs >= 8 usable samples, got %d" % int(keep.sum()))
    x = np.log1p(t[keep])
    y = np.log(values[keep])
    slope, intercept, r2, stderr = _least_squares_line(x, y)
    return PowerLawFit(slope, math.exp(intercept), r2, stderr, int(keep.sum()))


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    prefactor: float
    r_squared: float
    stderr: float
    samples: int
    excluded: int


def fit_exponential(t, values, t_min=None) -> ExponentialFit:
    """Fit values ~ prefactor * exp(-rate t) by least squares on log values.

    Nonpositive samples cannot enter the log and are excluded and counted;
    fewer than 8 usable samples is an error.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape:
        raise ValueError("t and values must have matching shapes")
    window = _fit_window(t, t_min)
    positive = values > 0.0
    keep = window & positive
    excluded = int(np.sum(window & ~positive))
    if int(keep.sum()) < 8:
        raise ValueError("exponential fit needs >= 8 usable samples, got %d" % int(keep.sum()))
    slope, intercept, r2, stderr = _least_squares_line(t[keep], np.log(values[keep]))
    return ExponentialFit(-slope, math.exp(intercept), r2, stderr, int(keep.sum()), excluded)


@dataclass(frozen=True)
class DriftAudit:
    drift: float
    relative: bool


def conservation_audit(history: FrontHistory) -> DriftAudit:
    """Worst drift of the conserved v + w mass along a run.

    Relative to the initial mass when that is nonzero; absolute (flagged)
    when the run started with no attractant or matrix at all.
    """
    if len(history) == 0:
        raise ValueError("cannot audit an empty history")
    mass = history.column("mass_vw")
    m0 = mass[0]
    worst = float(np.max(np.abs(mass - m0)))
    if m0 == 0.0:
        return DriftAudit(worst, relative=False)
    return DriftAudit(worst / abs(m0), relative=True)


@dataclass
class SandwichReport:
    max_lower_violation: float
    max_upper_violation: float
    violation_locations: list
    checked_lower: int = 0
    checked_upper: int = 0

    @property
    def clean(self) -> bool:
        return not self.violation_locations


_MAX_LOCATIONS = 1000


def _grid_points(grid):
    if grid.dim == 1:
        return grid.axis_centers(0)
    x = grid.axis_centers(0)
    y = grid.axis_centers(1)
    return np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)


def sandwich_check(
    snapshots,
    lower: ProfileParams | None = None,
    upper: ProfileParams | None = None,
    upper_valid_until: float | None = None,
    tol: float = 1e-8,
) -> SandwichReport:
    """Verify profile ordering against simulated states.

    For every snapshot, the lower profile must stay below u everywhere (all
    times) and the upper profile must stay above u for snapshot times up to
    upper_valid_until.  Violations beyond tol are recorded with their cell
    coordinate and time (capped at 1000 entries).
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("need at least one snapshot")
    if upper is not None and upper_valid_until is None:
        raise ValueError("an upper profile needs its validity end time")
    grid = snapshots[0].grid
    pts = _grid_points(grid)
    worst_lo = 0.0
    worst_hi = 0.0
    locations = []
    n_lo = 0
    n_hi = 0

    def record(viol, t):
        if len(locations) >= _MAX_LOCATIONS:
            return
        idxs = np.argwhere(viol > tol)
        for idx in idxs[: _MAX_LOCATIONS - len(locations)]:
            if grid.dim == 1:
                coord = float(grid.axis_centers(0)[idx[0]])
            else:
                coord = (float(grid.axis_centers(0)[idx[0]]), float(grid.axis_centers(1)[idx[1]]))
            locations.append((coord, float(t)))

    for snap in snapshots:
        if snap.grid != grid:
            raise ValueError("snapshots must share one grid")
        rel_t = snap.t - snapshots[0].t
        u = snap.u.values
        if lower is not None:
            g = lower.evaluate(pts, rel_t)
            viol = g - u
            worst_lo = max(worst_lo, float(viol.max()))
            n_lo += 1
            record(viol, snap.t)
        if upper is not None and rel_t <= upper_valid_until + 1e-15:
            g = upper.evaluate(pts, rel_t)
            viol = u - g
            worst_hi = max(worst_hi, float(viol.max()))
            n_hi += 1
            record(viol, snap.t)

    return SandwichReport(
        max_lower_violation=worst_lo,
        max_upper_violation=worst_hi,
        violation_locations=locations,
        checked_lower=n_lo,
        checked_upper=n_hi,
    )

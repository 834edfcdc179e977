"""Core data types for the degenerate chemotaxis model.

The state consists of four fields on a uniform cell-centered grid:
cell density u, attractant v, matrix w, and degrading enzyme z.
Motility is density dependent through u**(m-1) with m > 1, so u has a
genuine free boundary; the chemotactic drift is modulated by a bounded
sensitivity rule phi with |phi| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "ConstantSensitivity",
    "LinearSwitchSensitivity",
    "TabulatedSensitivity",
    "ModelParams",
    "StateQuad",
    "logistic_growth",
]

_H_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box, 1 or 2 space dimensions.

    Spacing must come out identical on every axis (the solver assumes a
    single h).  Cell centers sit at origin + (i + 1/2) h.
    """

    cells: tuple[int, ...]
    extent: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if len(self.cells) not in (1, 2):
            raise ValueError("grid dim must be 1 or 2, got %d axes" % len(self.cells))
        if len(self.extent) != len(self.cells) or len(self.origin) != len(self.cells):
            raise ValueError("cells, extent and origin must have matching length")
        for c in self.cells:
            if c < 4:
                raise ValueError("need at least 4 cells per axis, got %d" % c)
        for e in self.extent:
            if not (e > 0) or not math.isfinite(e):
                raise ValueError("extent must be positive and finite, got %r" % e)
        hs = [e / c for e, c in zip(self.extent, self.cells)]
        h0 = hs[0]
        for h in hs[1:]:
            if abs(h - h0) > _H_RTOL * h0:
                raise ValueError("anisotropic spacing not supported: %r" % (hs,))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def h(self) -> float:
        return self.extent[0] / self.cells[0]

    @property
    def n_cells(self) -> int:
        n = 1
        for c in self.cells:
            n *= c
        return n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + (np.arange(self.cells[axis]) + 0.5) * self.h

    def center_distance2(self, x0) -> np.ndarray:
        """Squared Euclidean distance of every cell center from point x0.

        Returns an array shaped like a field on this grid.
        """
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (self.dim,):
            raise ValueError("x0 must have %d coordinates" % self.dim)
        offsets = np.ix_(*(self.axis_centers(a) - x0[a] for a in range(self.dim)))
        return sum(d * d for d in offsets)

    def diameter(self) -> float:
        return math.sqrt(sum(e * e for e in self.extent))


@dataclass
class Field:
    """One scalar unknown on a Grid; values are float64, one per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.cells:
            raise ValueError(
                "field shape %r does not match grid cells %r"
                % (self.values.shape, self.grid.cells)
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.cells, float(value)))

    def mass(self) -> float:
        """Integral of the field, cell sum times cell volume."""
        return float(self.values.sum()) * self.grid.cell_volume


# --- chemotactic sensitivity rules -----------------------------------------
#
# A rule maps an array of u to values in [-1, 1] (a scalar u gives a numpy
# scalar or 0-d array).  Evaluation is unchecked for speed; validation
# happens at construction.


@dataclass(frozen=True)
class ConstantSensitivity:
    value: float = 1.0

    def __post_init__(self):
        if abs(self.value) > 1.0:
            raise ValueError("constant sensitivity must satisfy |c| <= 1, got %r" % self.value)

    def eval(self, u):
        """The constant as a read-only broadcast view shaped like u."""
        return np.broadcast_to(float(self.value), np.shape(u))


@dataclass(frozen=True)
class LinearSwitchSensitivity:
    """phi(u) = 1 - u/u_star, clamped to [-1, 1]; attracts below u_star, repels above."""

    u_star: float = 1.0

    def __post_init__(self):
        if not (self.u_star > 0):
            raise ValueError("switch density u_star must be positive, got %r" % self.u_star)

    def eval(self, u):
        return np.clip(1.0 - np.asarray(u, dtype=float) / self.u_star, -1.0, 1.0)


@dataclass(frozen=True)
class TabulatedSensitivity:
    """Piecewise-linear table of (u, phi) nodes, constant beyond the ends.

    Rejected at construction when any node leaves [-1, 1] or any segment
    slope exceeds 1 in magnitude.
    """

    nodes_u: tuple[float, ...]
    nodes_phi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes_u", tuple(float(x) for x in self.nodes_u))
        object.__setattr__(self, "nodes_phi", tuple(float(x) for x in self.nodes_phi))
        if len(self.nodes_u) != len(self.nodes_phi) or len(self.nodes_u) < 2:
            raise ValueError("table needs >= 2 matching (u, phi) nodes")
        us = np.asarray(self.nodes_u)
        ps = np.asarray(self.nodes_phi)
        if np.any(np.diff(us) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        if np.any(np.abs(ps) > 1.0 + 1e-15):
            raise ValueError("table values must satisfy |phi| <= 1")
        slopes = np.diff(ps) / np.diff(us)
        if np.any(np.abs(slopes) > 1.0 + 1e-12):
            raise ValueError("table slope magnitude must be <= 1, got max %r" % float(np.max(np.abs(slopes))))

    def eval(self, u):
        return np.interp(np.asarray(u, dtype=float), self.nodes_u, self.nodes_phi)


@dataclass(frozen=True)
class ModelParams:
    """Model constants.

    m > 1 is the motility exponent, delta >= 1 the growth exponent, mu >= 0
    the growth rate, r > 0 the crowding coefficient (carrying capacity 1/r),
    phi the sensitivity rule.  The diffusion is the degenerate Lap(u^m) itself.
    """

    m: float
    delta: float = 1.0
    mu: float = 0.0
    r: float = 1.0
    phi: object = field(default_factory=ConstantSensitivity)

    def __post_init__(self):
        if not (self.m > 1.0):
            raise ValueError("motility exponent m must be > 1, got %r" % self.m)
        if not (self.delta >= 1.0):
            raise ValueError("growth exponent delta must be >= 1, got %r" % self.delta)
        if not (self.mu >= 0.0):
            raise ValueError("growth rate mu must be >= 0, got %r" % self.mu)
        if not (self.r > 0.0):
            raise ValueError("crowding coefficient r must be > 0, got %r" % self.r)
        if not hasattr(self.phi, "eval"):
            raise ValueError("phi must be a sensitivity rule with an eval method")


@dataclass
class StateQuad:
    """The four fields at one time; all live on the same grid."""

    u: Field
    v: Field
    w: Field
    z: Field
    t: float = 0.0

    def __post_init__(self):
        g = self.u.grid
        for name in ("v", "w", "z"):
            if getattr(self, name).grid != g:
                raise ValueError("field %s is not on the same grid as u" % name)
        self.t = float(self.t)
        if not math.isfinite(self.t):
            raise ValueError("time must be finite")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def mass_vw(self) -> float:
        """Combined attractant plus matrix mass, the conserved quantity."""
        return float((self.v.values + self.w.values).sum()) * self.grid.cell_volume


def logistic_growth(u, mu: float, delta: float, r: float):
    """Growth term mu * u**delta * (1 - r u); zero at u = 0 and u = 1/r."""
    arr = np.asarray(u, dtype=float)
    return mu * arr ** delta * (1.0 - r * arr)

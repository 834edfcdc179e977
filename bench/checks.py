"""Output checks computed apart from the program.

Nothing here imports chemofront: snapshots are read with this module's own
parser of the snapshot format, and the lattice reference is the closed-form
Barenblatt profile.  Every check returns None when the output passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import csv
import math

import numpy as np

SNAPSHOT_MAGIC = b"DCSIM1"
FIELDS = ("u", "v", "w", "z")

MASS_RTOL = 1e-10  # relative drift of the cell sum of v + w
SYMMETRY_RTOL = 1e-12  # asymmetry of u, relative to sup u
PARTICLE_ATOL = 1e-6  # particles; far below one, far above %.17g rounding
LATTICE_L1_TOL = 0.05


def parse_snapshot(blob: bytes) -> dict:
    """Decode one snapshot: six ASCII header lines, then u, v, w, z as <f8.

    Header lines: magic, dim, cells, extent, t, field order.
    """
    parts = blob.split(b"\n", 6)
    if len(parts) != 7 or parts[0] != SNAPSHOT_MAGIC:
        raise ValueError("not a %s snapshot" % SNAPSHOT_MAGIC.decode())
    dim = int(parts[1])
    cells = tuple(int(c) for c in parts[2].split())
    if len(cells) != dim or tuple(parts[5].decode().split()) != FIELDS:
        raise ValueError("bad snapshot header")
    n = math.prod(cells)
    payload = parts[6]
    if len(payload) != 4 * 8 * n:
        raise ValueError("snapshot payload has %d bytes, expected %d" % (len(payload), 32 * n))
    data = np.frombuffer(payload, dtype="<f8").reshape((4,) + cells)
    return {"t": float(parts[4]), "cells": cells, **dict(zip(FIELDS, data))}


def check_nonnegative(snaps: list[dict]) -> str | None:
    worst = min(float(np.min(s[f])) for s in snaps for f in FIELDS)
    if not worst >= 0.0:
        return "a field reaches %.3e < 0" % worst
    return None


def check_vw_mass(snaps: list[dict]) -> str | None:
    sums = np.array([float(np.sum(s["v"]) + np.sum(s["w"])) for s in snaps])
    drift = float(np.max(np.abs(sums - sums[0]))) / abs(sums[0])
    if not drift <= MASS_RTOL:
        return "v + w cell sum drifts by %.3e relative (tol %.0e)" % (drift, MASS_RTOL)
    return None


def check_symmetry(snaps: list[dict]) -> str | None:
    """u must equal its mirror images on every axis, and its transpose in 2D."""
    worst = 0.0
    for s in snaps:
        u = s["u"]
        images = [np.flip(u, axis=a) for a in range(u.ndim)]
        if u.ndim == 2:
            images.append(u.T)
        sup = float(np.max(np.abs(u)))
        for image in images:
            worst = max(worst, float(np.max(np.abs(u - image))) / sup)
    if not worst <= SYMMETRY_RTOL:
        return "u asymmetry %.3e of sup u (tol %.0e)" % (worst, SYMMETRY_RTOL)
    return None


def check_verify_report(text: str, exit_code: int) -> str | None:
    """verify must exit 0, check both envelopes at least once, find no violation."""
    rows = dict(csv.reader(text.splitlines()[1:]))
    lower = float(rows["checked_lower"])
    upper = float(rows["checked_upper"])
    violations = float(rows["violation_count"])
    if exit_code != 0 or not (lower > 0 and upper > 0 and violations == 0):
        return "verify exit %d, checked lower %g upper %g, %g violations" % (
            exit_code, lower, upper, violations)
    return None


def read_ensemble(text: str) -> dict[int, tuple[float, np.ndarray, np.ndarray]]:
    """ensemble.csv -> {seed: (time, bin centers, densities)}."""
    cols: dict[int, list] = {}
    for row in csv.DictReader(text.splitlines()):
        cols.setdefault(int(row["seed"]), []).append(
            (float(row["time"]), int(row["bin"]), float(row["center"]), float(row["density"])))
    out = {}
    for seed, rows in cols.items():
        rows.sort(key=lambda r: r[1])
        out[seed] = (rows[0][0], np.array([r[2] for r in rows]), np.array([r[3] for r in rows]))
    return out


def check_particles(density: np.ndarray, lat: dict) -> str | None:
    """One member's bin densities must sum back to the particles it started with."""
    total = float(np.sum(density)) * lat["cells_per_bin"] * lat["u_max"]
    if not abs(total - lat["particles"]) <= PARTICLE_ATOL:
        return "member holds %.9g particles, started with %d" % (total, lat["particles"])
    return None


def barenblatt_bin_means(edges: np.ndarray, t: float, mass: float, x0: float, m: float) -> np.ndarray:
    """Exact bin averages of the 1D Barenblatt solution of u_t = (u^m)_xx.

    Only m = 2 is needed: U = t^(-1/3) (C - x^2 / (12 t^(2/3)))_+ with C set
    by the mass, (4/3) C^(3/2) sqrt(12) = mass.
    """
    if m != 2.0:
        raise ValueError("closed-form bin means are written for m = 2 only")
    c = (3.0 * mass / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)
    k = 1.0 / (12.0 * t ** (2.0 / 3.0))
    radius = math.sqrt(c / k)

    def antideriv(x):
        x = np.clip(x - x0, -radius, radius)
        return t ** (-1.0 / 3.0) * (c * x - k * x ** 3 / 3.0)

    return (antideriv(edges[1:]) - antideriv(edges[:-1])) / np.diff(edges)


def check_barenblatt(mean: np.ndarray, centers: np.ndarray, t: float, lat: dict) -> str | None:
    """The ensemble mean must lie within L1 0.05 of the Barenblatt profile of its mass."""
    width = centers[1] - centers[0]
    edges = np.append(centers - 0.5 * width, centers[-1] + 0.5 * width)
    spacing = lat["extent"] / lat["sites"]
    mass = lat["particles"] / lat["u_max"] * spacing
    # every particle starts on site sites // 2
    x0 = lat["origin"] + (lat["sites"] // 2 + 0.5) * spacing
    exact = barenblatt_bin_means(edges, lat["alpha"] * t, mass, x0, lat["m"])
    l1 = float(np.sum(np.abs(mean - exact))) * width
    if not l1 <= LATTICE_L1_TOL:
        return "ensemble mean is L1 %.4g from the Barenblatt profile (tol %g)" % (l1, LATTICE_L1_TOL)
    return None

"""Each output check of the benchmark must pass clean output and reject a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

LAT = {"sites": 200, "u_max": 25000, "particles": 100000, "seeds": 3, "cells_per_bin": 5,
       "extent": 2.0, "origin": -1.0, "m": 2.0, "alpha": 1.0}


def _snapshot_bytes(u, v, w, z, t=0.5):
    cells = u.shape
    header = "DCSIM1\n%d\n%s\n%s\n%.17g\nu v w z\n" % (
        len(cells), " ".join(map(str, cells)), " ".join("2" for _ in cells), t)
    return header.encode() + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (u, v, w, z))


def _bump(cells):
    axes = [-1.0 + (np.arange(n) + 0.5) * (2.0 / n) for n in cells]
    d2 = sum(np.meshgrid(*[x * x for x in axes], indexing="ij"))
    return 0.5 * np.clip(1.0 - d2 / 0.0625, 0.0, None)


def _snaps(cells, corrupt=None):
    """Two snapshots of a symmetric state; corrupt(u, v, w, z) edits the second."""
    u = _bump(cells)
    v = 0.1 * u
    w = 1.0 - v
    z = 0.2 * u
    first = checks.parse_snapshot(_snapshot_bytes(u, v, w, z, t=0.0))
    fields = [a.copy() for a in (u, v, w, z)]
    if corrupt is not None:
        corrupt(*fields)
    second = checks.parse_snapshot(_snapshot_bytes(*fields))
    return [first, second]


@pytest.mark.parametrize("cells", [(128,), (64, 64)])
def test_clean_snapshots_pass(cells):
    snaps = _snaps(cells)
    assert checks.check_nonnegative(snaps) is None
    assert checks.check_vw_mass(snaps) is None
    assert checks.check_symmetry(snaps) is None


def test_parser_reads_the_program_format(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from chemofront.config_io import write_snapshot
    from chemofront.model import Field, Grid, StateQuad

    grid = Grid(cells=(8, 8), extent=(2.0, 2.0), origin=(-1.0, -1.0))
    rng = np.random.default_rng(0)
    fields = [rng.random((8, 8)) for _ in range(4)]
    path = tmp_path / "snap.bin"
    write_snapshot(str(path), StateQuad(*(Field(grid, f) for f in fields), t=0.25))
    snap = checks.parse_snapshot(path.read_bytes())
    assert snap["t"] == 0.25
    for name, values in zip(checks.FIELDS, fields):
        assert np.array_equal(snap[name], values)


def test_negative_cell_is_rejected():
    def corrupt(u, v, w, z):
        u.flat[3] = -1e-14

    assert checks.check_nonnegative(_snaps((128,), corrupt)) is not None


def test_vw_mass_drift_is_rejected():
    def corrupt(u, v, w, z):
        w.flat[0] += 1e-9 * w.size

    assert checks.check_vw_mass(_snaps((128,), corrupt)) is not None


@pytest.mark.parametrize("cells, axis", [((128,), 0), ((64, 64), 0), ((64, 64), 1)])
def test_shifted_u_is_rejected(cells, axis):
    def corrupt(u, v, w, z):
        u[...] = np.roll(u, 1, axis=axis)

    assert checks.check_symmetry(_snaps(cells, corrupt)) is not None


def test_transposed_asymmetry_is_rejected():
    def corrupt(u, v, w, z):
        # mirror symmetric on both axes, but not under the transpose
        u[...] = u * (1.0 + 0.01 * np.linspace(-1, 1, 64) ** 2)[:, None]

    assert checks.check_symmetry(_snaps((64, 64), corrupt)) is not None


VERIFY_REPORT = "metric,value\nchecked_lower,63\nchecked_upper,3\nviolation_count,%d\n"


def test_verify_report():
    assert checks.check_verify_report(VERIFY_REPORT % 0, 0) is None
    assert checks.check_verify_report(VERIFY_REPORT % 1, 0) is not None
    assert checks.check_verify_report(VERIFY_REPORT % 0, 3) is not None
    unchecked = (VERIFY_REPORT % 0).replace("checked_upper,3", "checked_upper,0")
    assert checks.check_verify_report(unchecked, 0) is not None


def _ensemble_csv(densities, t=0.5):
    bins = densities[0].size
    width = LAT["extent"] / bins
    lines = ["seed,time,bin,center,density"]
    for seed, dens in enumerate(densities, start=101):
        for b, val in enumerate(dens):
            lines.append("%d,%.17g,%d,%.17g,%.17g" % (seed, t, b, LAT["origin"] + (b + 0.5) * width, val))
    return "\n".join(lines) + "\n"


def _exact_mean():
    bins = LAT["sites"] // LAT["cells_per_bin"]
    width = LAT["extent"] / bins
    edges = LAT["origin"] + width * np.arange(bins + 1)
    spacing = LAT["extent"] / LAT["sites"]
    x0 = LAT["origin"] + (LAT["sites"] // 2 + 0.5) * spacing
    mass = LAT["particles"] / LAT["u_max"] * spacing
    return checks.barenblatt_bin_means(edges, 0.5, mass, x0, 2.0)


def test_barenblatt_bin_means_hold_the_mass():
    mean = _exact_mean()
    assert np.sum(mean) * 0.05 == pytest.approx(0.04, rel=1e-12)
    assert np.all(mean >= 0.0)


def test_lost_particle_is_rejected():
    per_particle = 1.0 / (LAT["u_max"] * LAT["cells_per_bin"])
    counts = np.zeros(40, dtype=np.int64)
    counts[15:25] = LAT["particles"] // 10
    dens = counts * per_particle
    lost = dens.copy()
    lost[20] -= per_particle
    ensemble = checks.read_ensemble(_ensemble_csv([dens, lost]))
    assert checks.check_particles(ensemble[101][2], LAT) is None
    assert checks.check_particles(ensemble[102][2], LAT) is not None


def test_moved_mean_is_rejected():
    exact = _exact_mean()
    ensemble = checks.read_ensemble(_ensemble_csv([exact]))
    t, centers, dens = ensemble[101]
    assert checks.check_barenblatt(dens, centers, t, LAT) is None
    # 0.03 per bin over a width of 2 is L1 0.06, beyond the 0.05 tolerance
    assert checks.check_barenblatt(dens + 0.03, centers, t, LAT) is not None
    # the mass is only 0.04, so a shift passes up to 10 bins (L1 0.0497)
    assert checks.check_barenblatt(np.roll(dens, 12), centers, t, LAT) is not None


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(run.WORKLOADS.values())

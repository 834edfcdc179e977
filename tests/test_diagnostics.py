import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemofront.diagnostics import (
    HISTORY_COLUMNS,
    SANDWICH_TOL,
    SUPPORT_THRESHOLD,
    Fit,
    conservation_audit,
    fit,
    history_row,
    sandwich_check,
    support_radius,
)
from chemofront.model import ConstantSensitivity, Field, Grid, ModelParams, StateQuad
from chemofront.profiles import select_lower_profile, select_upper_profile
from chemofront.solver import SolverConfig, peak_coordinate, run

from conftest import bump_field, make_standard_initial


# --- support measurement ----------------------------------------------------


def test_support_radius_covers_occupied_cells():
    g = Grid((64,), (2.0,), (-1.0,))
    u = bump_field(g, (0.0,), 0.25, 0.5)
    d2 = g.center_distance2((0.0,))
    r = support_radius(u, d2)
    occupied = d2[u.values > 0.0]
    assert r == pytest.approx(float(np.sqrt(occupied.max())) + 0.5 * g.h)
    assert r <= 0.25 + g.h

def test_support_radius_empty_field_is_zero():
    g = Grid((16,), (1.0,), (0.0,))
    assert support_radius(Field.full(g, 0.0), g.center_distance2((0.5,))) == 0.0

def test_support_radius_threshold_masks_low_values():
    g = Grid((16,), (1.0,), (0.0,))
    vals = np.full(16, 1e-14)
    vals[3] = SUPPORT_THRESHOLD
    vals[8] = 1.0
    u = Field(g, vals)
    d2 = g.center_distance2((g.axis_centers(0)[8],))
    assert support_radius(u, d2) == pytest.approx(0.5 * g.h)
    # the history's support column and its infimum on the support follow the same rule
    zero = Field.full(g, 0.0)
    row = dict(zip(HISTORY_COLUMNS, history_row(StateQuad(u, zero, zero, zero), d2, 0.0, 1.0)))
    assert row["support_radius"] == support_radius(u, d2)
    assert row["inf_u_on_support"] == 1.0
    vals[3] = 2.0 * SUPPORT_THRESHOLD
    assert support_radius(Field(g, vals), d2) == pytest.approx(5.5 * g.h)


# --- steady targets and history rows ----------------------------------------


def test_history_row_targets_the_carrying_capacity():
    # u and z settle to 1/r = 0.5, v to mean v0 + mean w0 = 0.7
    g = Grid((8,), (1.0,), (0.0,))
    s = StateQuad(Field.full(g, 0.3), Field.full(g, 0.2), Field.full(g, 0.5), Field.full(g, 0.0))
    named = dict(zip(HISTORY_COLUMNS, history_row(s, g.center_distance2((0.5,)), 0.7, 2.0)))
    assert named["norm_u_minus_1"] == pytest.approx(0.2)
    assert named["norm_v_minus_target"] == pytest.approx(0.5)
    assert named["norm_z_minus_1"] == pytest.approx(0.5)
    # run takes the same targets from the model and its initial state
    first = run(s, ModelParams(m=2.0, r=2.0), SolverConfig(t_end=0.0)).history
    row = history_row(s, g.center_distance2(peak_coordinate(s.u)), 0.7, 2.0)
    assert [first[name][0] for name in HISTORY_COLUMNS] == pytest.approx(list(row), abs=1e-15)


def test_history_row_norms():
    g = Grid((8,), (1.0,), (0.0,))
    s = StateQuad(Field.full(g, 0.9), Field.full(g, 0.65), Field.full(g, 0.1), Field.full(g, 1.2))
    row = history_row(s, g.center_distance2((0.5,)), 0.75, 1.0)
    named = dict(zip(HISTORY_COLUMNS, row))
    assert named["sup_u"] == pytest.approx(0.9)
    assert named["inf_u_on_support"] == pytest.approx(0.9)
    assert named["norm_u_minus_1"] == pytest.approx(0.1)
    assert named["norm_w"] == pytest.approx(0.1)
    assert named["norm_v_minus_target"] == pytest.approx(0.65 - 0.75, abs=1e-12) or \
        named["norm_v_minus_target"] == pytest.approx(0.1)
    assert named["norm_z_minus_1"] == pytest.approx(0.2)
    assert named["mass_u"] == pytest.approx(0.9)
    assert named["mass_vw"] == pytest.approx(0.75)


# --- law fitting ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["power_law", "exponential"])
def test_fit_records_hold_the_columns_of_fits_csv_in_order(kind):
    # fit writes a record's fields as they stand, after the column name
    names = [f.name for f in dataclasses.fields(Fit)]
    assert names == ["kind", "exponent_or_rate", "prefactor", "r_squared", "stderr", "samples"]
    assert fit(kind, np.linspace(0.0, 1.0, 10), np.linspace(1.0, 2.0, 10)).kind == kind


def test_fit_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match=r"^fit kind must be 'power_law' or 'exponential', got 'power-law'$"):
        fit("power-law", np.linspace(0.0, 1.0, 10), np.ones(10))


def test_power_law_noiseless_recovery():
    t = np.linspace(0.0, 10.0, 200)
    vals = 1.7 * (1.0 + t) ** 0.42
    got = fit("power_law", t, vals)
    assert got.exponent_or_rate == pytest.approx(0.42, rel=1e-9)
    assert got.prefactor == pytest.approx(1.7, rel=1e-9)
    assert got.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exponential_noiseless_recovery():
    t = np.linspace(0.0, 12.0, 150)
    vals = 0.8 * np.exp(-0.33 * t)
    got = fit("exponential", t, vals)
    assert got.exponent_or_rate == pytest.approx(0.33, rel=1e-9)
    assert got.prefactor == pytest.approx(0.8, rel=1e-9)


def test_power_law_noisy_recovery_within_three_stderr():
    # per-draw the 3-stderr bound holds ~99.7% of the time; over a fixed
    # seed panel demand near-full coverage so one tail draw cannot flake
    t = np.linspace(0.0, 20.0, 300)
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(2400 + seed)
        exponent = 0.1 + 1.4 * (seed / 39.0)
        vals = 2.0 * (1.0 + t) ** exponent * (1.0 + 0.01 * rng.standard_normal(300))
        got = fit("power_law", t, vals)
        hits += abs(got.exponent_or_rate - exponent) <= 3.0 * got.stderr
    assert hits >= 38


def test_exponential_noisy_recovery_within_three_stderr():
    t = np.linspace(0.0, 10.0, 300)
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(5200 + seed)
        rate = 0.05 + 1.95 * (seed / 39.0)
        vals = 1.5 * np.exp(-rate * t) * (1.0 + 0.01 * rng.standard_normal(300))
        got = fit("exponential", t, vals)
        hits += abs(got.exponent_or_rate - rate) <= 3.0 * got.stderr
    assert hits >= 38


def test_fit_window_default_drops_leading_fifth():
    t = np.linspace(0.0, 10.0, 100)
    vals = np.exp(-0.5 * t)
    vals[t < 2.0] = 50.0  # junk in the dropped window must not matter
    got = fit("exponential", t, vals)
    assert got.exponent_or_rate == pytest.approx(0.5, rel=1e-12)
    assert got.samples == int(np.sum(t >= 2.0))


@pytest.mark.parametrize("kind", ["power_law", "exponential"])
def test_constant_series_is_refused(kind):
    # a series that cannot move has no rate: it is refused, not reported as a fitted 0 with r^2 = 1
    with pytest.raises(ValueError, match=r"^%s fit of a constant series$" % kind.replace("_", "-")):
        fit(kind, np.linspace(0.0, 10.0, 40), np.ones(40))


def test_zero_slope_has_a_positive_zero_rate():
    # symmetric about the window's middle, so the slope is exactly 0
    got = fit("exponential", np.arange(8.0), [1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0], t_min=0.0)
    assert got.exponent_or_rate == 0.0
    assert math.copysign(1.0, got.exponent_or_rate) == 1.0  # +0.0: a fits table must not print -0


def test_fits_need_eight_samples():
    t = np.linspace(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="samples"):
        fit("power_law", t, np.ones(6), t_min=0.0)
    with pytest.raises(ValueError, match="samples"):
        fit("exponential", t, np.ones(6), t_min=0.0)


def test_empty_series_is_too_short_not_a_numpy_error():
    with pytest.raises(ValueError, match=r"^power-law fit needs >= 8 usable samples, got 0$"):
        fit("power_law", [], [])
    with pytest.raises(ValueError, match=r"^exponential fit needs >= 8 usable samples, got 0$"):
        fit("exponential", [], [])


def test_exponential_counts_nonpositive_exclusions():
    t = np.linspace(0.0, 10.0, 50)
    vals = np.exp(-t)
    vals[30] = 0.0
    vals[35] = -1e-3
    got = fit("exponential", t, vals, t_min=0.0)
    assert got.samples == 48


# --- conservation audit -----------------------------------------------------


def test_conservation_audit_relative_drift():
    audit = conservation_audit([2.0, 2.0 + 4e-12, 2.0 - 2e-12])
    assert audit.relative
    assert audit.drift == pytest.approx(2e-12)


def test_conservation_audit_absolute_when_starting_empty():
    audit = conservation_audit([0.0, 1e-13])
    assert not audit.relative
    assert audit.drift == pytest.approx(1e-13)
    with pytest.raises(ValueError):
        conservation_audit([])


# --- sandwich checking ------------------------------------------------------


LOWER = select_lower_profile(
    m=2.0, n=1, mu=1.0, delta=1.0, seed_radius=0.15, seed_height=0.25,
    diam=2.0, c1=1.0, c2=1.0,
)
UPPER = select_upper_profile(
    m=2.0, mu=1.0, delta=1.0, r0=0.25, r1=0.75, sup_height=0.5,
    c1=1.0, c2=1.0,
)


def profile_state(grid, profile, t, pad=0.0):
    """A state whose u is the profile about the origin, the centre of every sandwich check below."""
    vals = profile.evaluate(grid.center_distance2((0.0,)), t) + pad
    v, w, z = (Field.full(grid, 0.0) for _ in range(3))
    return StateQuad(Field(grid, np.clip(vals, 0.0, None)), v, w, z, t=t)


def test_profiles_bracket_the_seed_bump():
    """Construction-time ordering: sub-profile <= bump <= super-profile."""
    g = Grid((128,), (2.0,), (-1.0,))
    u0 = bump_field(g, (0.0,), 0.25, 0.5).values
    d2 = g.center_distance2((0.0,))
    assert np.all(LOWER.evaluate(d2, 0.0) <= u0 + 1e-15)
    assert np.all(u0 <= UPPER.evaluate(d2, 0.0) + 1e-15)


def test_sandwich_clean_run_reports_no_violations():
    g = Grid((64,), (2.0,), (-1.0,))
    snaps = [profile_state(g, LOWER, t, pad=0.05) for t in (0.0, 0.5, 1.0)]
    report = sandwich_check(snaps, [LOWER], g.center_distance2((0.0,)))
    assert report.clean
    assert report.violation_count == 0
    assert report.max_lower_violation == 0.0
    assert report.checked_lower == 3
    assert report.checked_upper == 0


def test_sandwich_detects_and_counts_violations():
    g = Grid((64,), (2.0,), (-1.0,))
    good = profile_state(g, LOWER, 0.0, pad=0.05)
    bad = profile_state(g, LOWER, 1.0, pad=0.05)
    bad.u.values[30:34] = 0.0  # carve a hole of four cells under the sub-profile
    d2 = g.center_distance2((0.0,))
    assert np.all(LOWER.evaluate(d2[30:34], 1.0) > SANDWICH_TOL)
    report = sandwich_check([good, bad], [LOWER], d2)
    assert not report.clean
    assert report.violation_count == 4
    assert report.max_lower_violation > 0.0


def test_sandwich_counts_only_crossings_beyond_the_tolerance():
    """verify's rule: u below a sub-profile by up to SANDWICH_TOL is clean, by more is a violation."""
    assert SANDWICH_TOL == 1e-8
    g = Grid((64,), (2.0,), (-1.0,))
    d2 = g.center_distance2((0.0,))
    zeros = lambda: Field.full(g, 0.0)
    covered = LOWER.evaluate(d2, 0.0) > SANDWICH_TOL

    def under(depth):
        u = np.clip(LOWER.evaluate(d2, 0.0) - depth, 0.0, None)
        return sandwich_check([StateQuad(Field(g, u), zeros(), zeros(), zeros())], [LOWER], d2)

    assert under(0.5 * SANDWICH_TOL).clean
    deep = under(2.0 * SANDWICH_TOL)
    assert deep.violation_count == int(covered.sum()) > 0


def test_sandwich_upper_respects_validity_window():
    g = Grid((64,), (2.0,), (-1.0,))
    d2 = g.center_distance2((0.0,))
    zeros = lambda: Field.full(g, 0.0)
    inside = StateQuad(Field(g, 0.9 * UPPER.evaluate(d2, 0.0)), zeros(), zeros(), zeros(), t=0.0)
    # far beyond t0 the density may exceed the super-profile freely
    beyond = StateQuad(Field.full(g, 3.0), zeros(), zeros(), zeros(), t=UPPER.valid_until + 5.0)
    report = sandwich_check([inside, beyond], [UPPER], d2)
    assert report.checked_upper == 1
    assert report.checked_lower == 0
    assert report.clean


def test_sandwich_reads_a_one_pass_stream_as_it_reads_a_list():
    g = Grid((64,), (2.0,), (-1.0,))
    snaps = [profile_state(g, LOWER, t, pad=0.05) for t in (0.0, 0.5, 1.0)]
    snaps[2].u.values[30:34] = 0.0
    d2 = g.center_distance2((0.0,))
    assert sandwich_check(iter(snaps), [LOWER, UPPER], d2) == sandwich_check(snaps, [LOWER, UPPER], d2)


def test_sandwich_refuses_no_snapshots_and_mixed_grids():
    d2 = Grid((64,), (2.0,), (-1.0,)).center_distance2((0.0,))
    with pytest.raises(ValueError, match="at least one snapshot"):
        sandwich_check([], [LOWER], d2)
    a = profile_state(Grid((64,), (2.0,), (-1.0,)), LOWER, 0.0)
    b = profile_state(Grid((32,), (2.0,), (-1.0,)), LOWER, 0.0)
    with pytest.raises(ValueError, match="one grid"):
        sandwich_check([a, b], [], d2)


@pytest.mark.parametrize("shape", [(32,), (64, 1)])
def test_sandwich_refuses_distances_not_shaped_like_the_grid(shape):
    # (64, 1) would broadcast against u's (64,) and check 4096 cells that do not exist
    snap = profile_state(Grid((64,), (2.0,), (-1.0,)), LOWER, 0.0)
    message = "d2 has shape %s, the snapshots' grid (64,)" % (shape,)
    with pytest.raises(ValueError, match=re.escape(message)):
        sandwich_check([snap], [LOWER], np.zeros(shape))


def test_sandwich_counts_every_violating_cell_of_every_snapshot():
    """No cap: 2048 cells, three snapshots and both envelope kinds give thousands of violations."""
    g = Grid((2048,), (2.0,), (-1.0,))
    d2 = g.center_distance2((0.0,))
    zeros = lambda: Field.full(g, 0.0)
    empty = StateQuad(zeros(), zeros(), zeros(), zeros(), t=0.0)
    flooded = StateQuad(Field.full(g, 3.0), zeros(), zeros(), zeros(), t=0.5 * UPPER.valid_until)
    late = StateQuad(zeros(), zeros(), zeros(), zeros(), t=1.0)
    lower_tall = select_lower_profile(
        m=2.0, n=1, mu=1.0, delta=1.0, seed_radius=1.4, seed_height=0.5,
        diam=2.0, c1=1.0, c2=1.0,
    )
    report = sandwich_check([empty, flooded, late], [lower_tall, UPPER], d2)
    below = sum(int(np.sum(lower_tall.evaluate(d2, s.t) - s.u.values > SANDWICH_TOL)) for s in (empty, flooded, late))
    above = sum(int(np.sum(s.u.values - UPPER.evaluate(d2, s.t) > SANDWICH_TOL)) for s in (empty, flooded))
    # the tall sub-profile covers the whole domain on both empty snapshots; 3.0 tops the super-profile everywhere
    assert (below, above) == (2 * 2048, 2048)
    assert report.violation_count == below + above == 6144
    assert (report.checked_lower, report.checked_upper) == (3, 2)
    assert not report.clean


def test_lower_profile_stays_under_upper_on_shared_window():
    g = Grid((128,), (2.0,), (-1.0,))
    times = (0.0, 0.5 * UPPER.valid_until, UPPER.valid_until)
    snaps = [profile_state(g, UPPER, t) for t in times]
    report = sandwich_check(snaps, [LOWER], g.center_distance2((0.0,)))
    assert report.clean

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chemofront.profiles import (
    BlowupResult,
    ConstructionError,
    ProfileParams,
    barenblatt,
    barenblatt_support_radius,
    classify_blowup,
    lower_profile_branches,
    select_lower_profile,
    select_upper_profile,
)


# --- source-free reference solution -----------------------------------------


def test_barenblatt_mass_constant_in_time():
    x = np.linspace(-30.0, 30.0, 60001)
    h = x[1] - x[0]
    masses = [float(barenblatt(x, t, 2.0, 1).sum()) * h for t in (0.0, 1.0, 4.0)]
    # midpoint quadrature across the support corner caps accuracy near 1e-8
    assert masses[0] == pytest.approx(masses[1], rel=1e-6)
    assert masses[0] == pytest.approx(masses[2], rel=1e-6)


def test_barenblatt_vanishes_outside_support():
    t, m, n = 2.0, 2.0, 1
    R = barenblatt_support_radius(t, m, n)
    assert barenblatt(R * 1.001, t, m, n) == 0.0
    assert barenblatt(-R * 1.001, t, m, n) == 0.0
    assert barenblatt(R * 0.999, t, m, n) > 0.0


def test_barenblatt_residual_small_inside_support():
    """Central-difference residual of u_t = (u^m)_xx at the pinned resolution."""
    m, n = 2.0, 1
    h, dt, t = 1e-3, 1e-6, 1.0
    R = barenblatt_support_radius(t, m, n)
    x = np.arange(-1.2 * R, 1.2 * R + h / 2, h)
    mid = barenblatt(x, t, m, n)
    dtB = (barenblatt(x, t + dt, m, n) - barenblatt(x, t - dt, m, n)) / (2 * dt)
    pw = mid**m
    lap = (np.roll(pw, -1) - 2 * pw + np.roll(pw, 1)) / h**2
    inside = (mid > 0) & (np.roll(mid, 1) > 0) & (np.roll(mid, -1) > 0)
    inside[0] = inside[-1] = False
    assert np.max(np.abs(dtB - lap)[inside]) <= 1e-3


def test_barenblatt_2d_radial_symmetry():
    pts = np.array([[0.3, 0.4], [0.5, 0.0], [0.0, -0.5]])
    vals = barenblatt(pts, 1.0, 2.0, 2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


# --- comparison profile shapes ----------------------------------------------


def test_profile_params_validation():
    with pytest.raises(ValueError, match="kind"):
        ProfileParams("middle", 1.0, 1.0, 0.3, 1.4, 1.0, 2.0)
    with pytest.raises(ValueError, match="spread_exp"):
        ProfileParams("lower", 1.0, 1.0, 0.6, 0.4, 1.0, 2.0)
    with pytest.raises(ValueError, match="rate_exp"):
        ProfileParams("lower", 1.0, 1.0, 0.3, 0.9, 1.0, 2.0)
    # (1 - spread_exp)/(m - 1) = 0.7 holds to rounding, not to a margin
    with pytest.raises(ValueError, match="rate_exp"):
        ProfileParams("lower", 1.0, 1.0, 0.3, 0.7 + 1e-6, 1.0, 2.0)
    with pytest.raises(ValueError, match="time_shift"):
        ProfileParams("upper", 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 0.1)


def test_profile_validity_window_is_checked_per_kind():
    lower = ProfileParams("lower", 1.0, 1.0, 0.3, 0.7, 1.0, 2.0)
    assert lower.valid_until == math.inf
    with pytest.raises(ValueError, match="lower profile holds for all t"):
        ProfileParams("lower", 1.0, 1.0, 0.3, 0.7, 1.0, 2.0, 0.5)
    assert ProfileParams("upper", 1.0, 1.0, 1.0, 1.0, 0.5, 2.0, 0.1).valid_until == 0.1
    for window in (math.inf, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="finite valid_until"):
            ProfileParams("upper", 1.0, 1.0, 1.0, 1.0, 0.5, 2.0, window)


def test_lower_selection_worked_example():
    p = select_lower_profile(
        m=2.0, n=1, mu=1.0, delta=1.0,
        seed_radius=1.0, seed_height=0.5, diam=1.0,
        c1=1.0, c2=1.0,
    )
    assert p.amplitude == pytest.approx(0.0625)
    assert p.spread_exp == pytest.approx(0.499)
    assert p.rate_exp == pytest.approx(0.501)
    assert p.support_scale == pytest.approx(1.0)
    # center value after the support has spread for a while
    assert p.evaluate(0.0, 3.0) == pytest.approx(0.0625 * 4.0**-0.501, rel=1e-12)
    assert p.evaluate(0.0, 3.0) == pytest.approx(0.0312068, rel=1e-4)


def test_upper_selection_worked_example():
    p = select_upper_profile(
        m=2.0, mu=1.0, delta=1.0,
        r0=0.25, r1=0.75, sup_height=0.5,
        c1=1.0, c2=1.0,
    )
    assert p.time_shift == pytest.approx(2.0**-7)
    assert p.amplitude == pytest.approx(8.0 / 3.0)
    assert p.support_scale == pytest.approx(0.25 / 2.0**-7)
    assert p.valid_until == pytest.approx(2.0**-7)
    # amplitude was chosen to pin the profile to sup_height on the seed edge
    assert p.evaluate(0.25 ** 2, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert p.evaluate(0.0, 0.0) > 0.5


def test_upper_selection_gives_up_when_squeezed():
    with pytest.raises(ConstructionError):
        select_upper_profile(
            m=2.0, mu=1.0, delta=1.0,
            r0=0.25, r1=0.75, sup_height=1e12,
            c1=1.0, c2=1.0,
        )


def _upper_inequality_excess(m, mu, delta, r0, r1, sup_height, c1, c2, tau):
    """log(lhs / rhs) of each of the upper profile's three sufficient inequalities at time shift tau, from eps, eta
    and the window's far end s written out; an inequality holds where its excess is <= 0.

        (m-1) beta >= 8 m eps^(m-1) s^((m-1) sigma - beta + 1)
        2 sigma / 3 >= coeff eps^(m-1) s^((m-1) sigma + 1) eta,  coeff = c2 + (m + eps tau^sigma eta^d)^2 c1^2 m
        sigma / 3 >= mu eps^(delta-1) s^((delta-1) sigma + 1) eta^(d (delta-1))

    with beta = sigma = 1 and d = 1/(m-1).
    """
    d = 1.0 / (m - 1.0)
    r2 = 0.5 * (r0 + r1)
    gap = r2 * r2 - r0 * r0
    log_eps = math.log(sup_height) - (1.0 - d) * math.log(tau) - d * math.log(gap)
    log_eta = 2.0 * math.log(r2) - math.log(tau)
    log_s = math.log(tau + min(tau, tau * ((r1 / r2) ** 2 - 1.0)))
    log_inner = log_eps + math.log(tau) + d * log_eta
    log_bracket = np.logaddexp(math.log(m), log_inner)
    log_coeff = np.logaddexp(math.log(c2), 2.0 * log_bracket + 2.0 * math.log(c1) + math.log(m))
    return (
        math.log(8.0 * m) + (m - 1.0) * (log_eps + log_s) - math.log(m - 1.0),
        log_coeff + (m - 1.0) * log_eps + m * log_s + log_eta - math.log(2.0 / 3.0),
        (
            math.log(mu) + (delta - 1.0) * (log_eps + d * log_eta) + delta * log_s + math.log(3.0)
            if mu > 0.0
            else -math.inf
        ),
    )


@given(
    m=st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
    delta_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    mu=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=1e2)),
    r0=st.floats(min_value=0.05, max_value=2.0),
    spread=st.floats(min_value=0.1, max_value=5.0),
    sup_height=st.floats(min_value=1e-2, max_value=2.0),
    c1=st.floats(min_value=1e-4, max_value=1.0),
    c2=st.floats(min_value=1e-4, max_value=1.0),
)
@settings(max_examples=400, deadline=None)
def test_upper_time_shift_is_the_largest_power_of_two_meeting_every_inequality(
    m, delta_frac, mu, r0, spread, sup_height, c1, c2
):
    delta = 1.0 + delta_frac * (m - 1.0)
    assume(delta < m)
    r1 = r0 * (1.0 + spread)
    args = (m, mu, delta, r0, r1, sup_height, c1, c2)
    tol = 1e-9
    try:
        profile = select_upper_profile(*args)
    except ConstructionError as exc:
        assert "m=%g" % m in str(exc)
        if "time shift above 1e-8" in str(exc):
            assert max(_upper_inequality_excess(*args, 2.0**-26)) > -tol
        return
    tau = profile.time_shift
    assert tau == 2.0 ** round(math.log2(tau)) and 2.0**-26 <= tau <= 0.5
    assert max(_upper_inequality_excess(*args, tau)) <= tol
    # valid_until is the t0 whose window end tau + t0 is the s at which _upper_inequality_excess checks the inequalities
    assert profile.valid_until == tau * min(1.0, (r1 / (0.5 * (r0 + r1))) ** 2 - 1.0)
    if tau < 0.5:
        assert max(_upper_inequality_excess(*args, 2.0 * tau)) > -tol


def test_selection_input_validation():
    with pytest.raises(ValueError):
        select_lower_profile(2.0, 1, 0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        select_lower_profile(2.0, 1, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        select_lower_profile(2.0, 1, 1.0, 1.0, 1.0, 0.7, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        select_upper_profile(2.0, 1.0, 1.0, 0.75, 0.25, 0.5, 1.0, 1.0)


@given(
    m=st.floats(min_value=1.2, max_value=4.0),
    n=st.sampled_from([1, 2]),
    mu=st.floats(min_value=0.01, max_value=5.0),
    delta_frac=st.floats(min_value=0.0, max_value=0.95),
    seed_radius=st.floats(min_value=0.05, max_value=2.0),
    seed_height=st.floats(min_value=0.01, max_value=0.5),
    diam=st.floats(min_value=0.1, max_value=10.0),
    c1=st.floats(min_value=1e-3, max_value=10.0),
    c2=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_lower_selection_satisfies_every_branch(
    m, n, mu, delta_frac, seed_radius, seed_height, diam, c1, c2
):
    delta = 1.0 + delta_frac * (m - 1.0)
    assume(delta < m)
    p = select_lower_profile(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2)
    branches = lower_profile_branches(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2)
    for log_b, value in branches:
        assert p.amplitude <= value() * (1.0 + 1e-12)
        assert math.log(value()) == pytest.approx(log_b, rel=1e-12, abs=1e-12)
    assert 0.0 < p.spread_exp <= 0.499
    assert p.rate_exp == pytest.approx((1.0 - p.spread_exp) / (m - 1.0))
    # never taller than the seed it sits under
    assert p.evaluate(0.0, 0.0) <= seed_height * (1.0 + 1e-12)


@given(
    t1=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_profile_support_radii_formulas_and_growth(t1, dt):
    lo = select_lower_profile(2.0, 1, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
    up = select_upper_profile(2.0, 1.0, 1.0, 0.25, 0.75, 0.5, 1.0, 1.0)
    # the support ball has radius sqrt(support_scale) (shift + t)^(spread_exp / 2): shift 1 and spread
    # below 1/2 for the lower profile, spread 1 for the upper one
    def r_lo(t):
        return math.sqrt(lo.support_scale) * (1.0 + t) ** (lo.spread_exp / 2.0)

    def r_up(t):
        return math.sqrt(up.support_scale) * (up.time_shift + t) ** 0.5

    for radius, profile in ((r_lo, lo), (r_up, up)):
        assert radius(t1 + dt) > radius(t1)
        # edge of the support is where the evaluated profile dies
        assert profile.evaluate((radius(t1) * 1.0001) ** 2, t1) == 0.0
        assert profile.evaluate((radius(t1) * 0.999) ** 2, t1) > 0.0

# --- scalar comparison ODEs -------------------------------------------------


def test_blowup_worked_example_ln2():
    res = classify_blowup(C=1.0, c=1.0, m=2.0, g0=2.0)
    assert res.outcome == "blows_up"
    assert res.time == pytest.approx(math.log(2.0), rel=1e-14)


def test_blowup_bounded_and_marginal():
    assert classify_blowup(1.0, 4.0, 2.0, 2.0).outcome == "bounded"
    assert classify_blowup(1.0, 2.0, 2.0, 2.0).outcome == "marginal"


def test_blowup_input_validation():
    with pytest.raises(ValueError):
        classify_blowup(-1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        classify_blowup(1.0, 1.0, 1.0, 1.0)


@given(
    C=st.floats(min_value=0.05, max_value=5.0),
    c=st.floats(min_value=0.05, max_value=5.0),
    m=st.floats(min_value=1.2, max_value=4.0),
    g0=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_blowup_time_closes_the_separated_integral(C, c, m, g0):
    """Blow-up happens exactly when the transformed variable g^{1-m} hits 0.

    Separation of variables gives G(t) = g0^{1-m} - (m-1)(C/c)(1-e^{-ct});
    the classifier's finite time must be G's root, and bounded verdicts must
    leave G with a strictly positive limit.
    """
    thr = (m - 1.0) * g0 ** (m - 1.0)
    assume(abs(c / C - thr) > 1e-9 * thr)
    res = classify_blowup(C, c, m, g0)

    def G(t):
        return g0 ** (1.0 - m) - (m - 1.0) * (C / c) * (1.0 - math.exp(-c * t))

    if res.outcome == "blows_up":
        assert res.time > 0.0 and math.isfinite(res.time)
        assert abs(G(res.time)) <= 1e-9 * g0 ** (1.0 - m)
        assert G(0.5 * res.time) > 0.0
    else:
        assert res.outcome == "bounded"
        assert res.time is None
        limit = g0 ** (1.0 - m) - (m - 1.0) * C / c
        assert limit > 0.0

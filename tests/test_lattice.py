import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemofront import lattice, solver
from chemofront.lattice import (
    OVERFLOW_FACTOR,
    THETA,
    LatticeConfig,
    LatticeState,
    continuum_twin,
    initial_state,
    rate_arrays,
    run_adaptive,
    run_ensemble,
    step_tau_leap,
)
from chemofront.model import Grid


def make_state(occupancy, u_max=100, m=2.0, seed=0, spacing=1.0):
    return LatticeState(occupancy=np.asarray(occupancy, dtype=np.int64), u_max=u_max, m=m,
                        rng=np.random.default_rng(seed), spacing=spacing)


def rates_of(s):
    """The (to_left, to_right) per-particle jump rates of a state's sites, through rate_arrays."""
    rates = rate_arrays(s, s.occupancy, lattice._jump_table(s))
    return rates[..., 0], rates[..., 1]


def leap(s, dt):
    """A state advanced by one step_tau_leap of dt (the generator advances in place)."""
    occ, site_time = step_tau_leap(s.occupancy, rate_arrays(s, s.occupancy, lattice._jump_table(s)), dt, s.rng, s.u_max)
    return dataclasses.replace(s, occupancy=occ, capacity_time=s.capacity_time + site_time)


class TestValidation:
    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            make_state([-1, 5, 5, 5])

    def test_overflow_cap_enforced_at_construction(self):
        cap = OVERFLOW_FACTOR * 10
        make_state([cap, 0, 0, 0], u_max=10)  # exactly at the cap is fine
        with pytest.raises(ValueError, match="overflow"):
            make_state([cap + 1, 0, 0, 0], u_max=10)

    def test_jump_probability_domain_is_refused(self):
        # q = (count / u_max)^(m - 1) is taken only on counts >= 0 and m > 1
        with pytest.raises(ValueError, match="nonnegative"):
            make_state([-1, 5, 5, 5])
        with pytest.raises(ValueError, match="m must be > 1"):
            make_state([5, 5, 5, 5], m=1.0)

    def test_ensemble_rows_share_the_sites(self):
        s = make_state([[1, 2, 3, 4], [4, 3, 2, 1], [0, 0, 9, 0]])
        assert s.sites == 4
        assert s.occupancy.sum(axis=-1).tolist() == [10, 10, 9]
        with pytest.raises(ValueError, match="members, sites"):
            make_state(np.ones((2, 2, 2)))

    def test_capacity_time_holds_one_value_per_member_from_the_start(self):
        s = make_state([[10, 20, 30, 40], [40, 30, 20, 10]])
        assert s.capacity_time.shape == (2,)
        assert leap(s, 0.01).capacity_time.shape == (2,)  # below u_max, so no leap adds to it
        assert make_state([10, 20, 30, 40]).capacity_time.shape == ()

    def test_capacity_time_keeps_per_member_values_and_refuses_the_wrong_shape(self):
        occ = np.array([[10, 20, 30, 40], [40, 30, 20, 10]])
        rng = np.random.default_rng(0)
        s = LatticeState(occupancy=occ, u_max=100, m=2.0, rng=rng, capacity_time=[0.25, 1.5])
        assert s.capacity_time.tolist() == [0.25, 1.5]
        with pytest.raises(ValueError):
            LatticeState(occupancy=occ, u_max=100, m=2.0, rng=rng, capacity_time=np.zeros(3))


class TestLatticeConfig:
    def test_geometry_the_walk_and_the_twin_share(self):
        config = LatticeConfig(sites=21, u_max=50, particles=100, t_end=0.25, cells_per_bin=3, extent=2.1, origin=-1.0)
        assert config.spacing == 2.1 / 21 and config.start_site == 10
        state = initial_state(config, 2.0, 0)
        assert state.spacing == config.spacing and state.sites == 21
        assert state.occupancy.shape == (1, 21) and np.flatnonzero(state.occupancy[0]).tolist() == [10]
        # the bins of run_ensemble's densities and of the twin: 7 bins of 3 sites each over [-1, 1.1]
        bins = config.bins()
        assert bins == Grid(cells=(7,), extent=(2.1,), origin=(-1.0,))
        assert bins.h == pytest.approx(3 * state.spacing, rel=1e-15)
        assert run_ensemble(config, 2.0, 0).density.shape == (1, 7)

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ({"t_end": float("inf")}, "t_end"),
            ({"t_end": float("nan")}, "t_end"),
            ({"extent": float("inf")}, "extent"),
            ({"extent": 0.0}, "extent"),
            ({"origin": float("nan")}, "origin"),
            ({"origin": float("-inf")}, "origin"),
            ({"cells_per_bin": 3}, "cells_per_bin must divide sites"),
            ({"cells_per_bin": 0}, "cells_per_bin must be >= 1, got 0"),
            ({"cells_per_bin": -5}, "cells_per_bin must be >= 1, got -5"),
            ({"sites": 6, "cells_per_bin": 2}, "at least 4 bins, got 3"),
            ({"particles": 201}, "overflow cap 200"),
        ],
    )
    def test_record_refuses_unbounded_or_unknown_values(self, bad, fragment):
        good = dict(sites=20, u_max=50, particles=100, t_end=0.25)
        LatticeConfig(**good)
        with pytest.raises(ValueError, match=fragment):
            LatticeConfig(**dict(good, **bad))


class TestRates:
    # at unit spacing a departure site's rate is the jump probability
    # q = (count / u_max)^(m - 1) itself
    def test_jump_probability_pinned_values(self):
        for count, m, q in ((0, 2.0, 0.0), (100, 3.0, 1.0), (50, 2.0, 0.5)):
            left, right = rates_of(make_state([count] * 4, u_max=100, m=m))
            assert right[1] == left[1] == pytest.approx(q, rel=1e-15), (count, m)

    @given(
        m=st.floats(min_value=1.01, max_value=6.0),
        counts=st.lists(st.integers(0, OVERFLOW_FACTOR * 50), min_size=2, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_jump_probability_monotone(self, m, counts):
        _, right = rates_of(make_state(np.sort(counts), u_max=50, m=m))
        assert np.all(np.diff(right[:-1]) >= 0.0)  # the last site has no right face

    def test_empty_site_emits_nothing(self):
        s = make_state([0, 0, 0, 0])
        left, right = rates_of(s)
        assert (left[1], right[1]) == (0.0, 0.0)

    def test_reflecting_boundaries(self):
        s = make_state([50, 50, 50, 50])
        left, right = rates_of(s)
        assert left[0] == 0.0
        assert right[-1] == 0.0

    def test_pushing_reads_departure_density(self):
        s = make_state([100, 50, 0, 50], u_max=100)
        left, right = rates_of(s)
        # q at the half-full departure site, whatever its full and empty neighbours hold
        assert left[1] == right[1] == pytest.approx(0.5)
        assert left[2] == right[2] == 0.0

    def test_rate_scale_is_inverse_spacing_squared(self):
        a = make_state([50, 50, 50, 50], spacing=1.0)
        b = make_state([50, 50, 50, 50], spacing=0.5)
        la, _ = rates_of(a)
        lb, _ = rates_of(b)
        assert lb[1] == pytest.approx(4.0 * la[1])

    def test_rate_is_the_departure_jump_probability_over_h2_on_every_chain_jump(self):
        occ = np.array([[0, 30, 120, 75, 10], [200, 0, 50, 50, 1]])
        s = make_state(occ, u_max=100, m=2.5, spacing=0.5)
        left, right = rates_of(s)
        q = (occ / 100.0) ** 1.5
        assert left.shape == right.shape == occ.shape
        assert np.array_equal(right[:, :-1], q[:, :-1] * 4.0)
        assert np.array_equal(left[:, 1:], q[:, 1:] * 4.0)
        assert np.all(left[:, 0] == 0.0) and np.all(right[:, -1] == 0.0)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_mean_field_face_flux_runs_down_the_gradient(self, m):
        """q at the departure site gives the diffusivity D = m u^(m-1) > 0."""
        occ = np.array([0, 10, 40, 90, 160, 250, 160, 90, 40, 10, 0])
        s = make_state(occ, u_max=100, m=m)
        left, right = rates_of(s)
        flux = occ[:-1] * right[:-1] - occ[1:] * left[1:]  # expected net jumps i -> i + 1
        grad = np.diff(occ)
        live = (occ[:-1] > 0) & (occ[1:] > 0)
        assert np.all(np.sign(flux[live] * grad[live]) == -1)


class TestLeaping:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_particles_conserved(self, seed):
        rng = np.random.default_rng(seed)
        occ = rng.integers(0, 80, size=12)
        s = make_state(occ, u_max=100, seed=seed)
        total = s.occupancy.sum()
        for _ in range(5):
            s = leap(s, 0.05)
            assert s.occupancy.sum() == total

    def test_empty_lattice_is_absorbing(self):
        # no site has a positive rate: one leap of the whole time left moves nothing
        s = make_state([0] * 8)
        out, t, dts = run_adaptive(s, 1.0)
        assert t == 1.0 and dts.tolist() == [1.0]
        assert np.all(out.occupancy == 0)

    def test_underflowed_rates_still_reach_t_end(self):
        # q = (1/10)^399 underflows to 0 at every site, as for lattice_ensemble.cfg at m = 400
        s = make_state([[0, 10, 0, 0], [0, 0, 10, 0]], u_max=100, m=400.0)
        assert rates_of(s)[0].max() == 0.0
        out, t, dts = run_adaptive(s, 0.5)
        assert t == 0.5 and dts.tolist() == [0.5]
        assert np.array_equal(out.occupancy, s.occupancy)
        assert out.capacity_time.tolist() == [0.0, 0.0]

    def test_same_seed_reproduces_trajectory(self):
        a = make_state([0, 0, 200, 0, 0], u_max=100, seed=42)
        b = make_state([0, 0, 200, 0, 0], u_max=100, seed=42)
        ra, ta, _ = run_adaptive(a, 0.3)
        rb, tb, _ = run_adaptive(b, 0.3)
        assert ta == tb
        assert np.array_equal(ra.occupancy, rb.occupancy)

    def test_different_seeds_differ(self):
        a = make_state([0, 0, 200, 0, 0], u_max=100, seed=1)
        b = make_state([0, 0, 200, 0, 0], u_max=100, seed=2)
        ra, _, _ = run_adaptive(a, 0.3)
        rb, _, _ = run_adaptive(b, 0.3)
        assert not np.array_equal(ra.occupancy, rb.occupancy)

    def test_capacity_time_counted_not_fatal(self):
        s = make_state([150, 0, 150, 0, 150], u_max=100, seed=3)
        out = leap(s, 0.01)
        # the leap adds its dt for every site it leaves above u_max
        assert out.capacity_time == np.count_nonzero(out.occupancy > 100) * 0.01 > 0.0
        assert out.occupancy.sum() == s.occupancy.sum()

    def test_ensemble_mean_stays_symmetric(self):
        """Symmetric load: asymmetry within 3 standard errors."""
        n_sites, n_seeds = 21, 12
        t_end = 0.4
        diffs = []
        for seed in range(n_seeds):
            occ = np.zeros(n_sites, dtype=np.int64)
            occ[n_sites // 2] = 300
            s = make_state(occ, u_max=100, seed=900 + seed)
            out, _, _ = run_adaptive(s, t_end)
            dens = out.relative_density()
            diffs.append(dens - dens[::-1])
        diffs = np.array(diffs)
        mean = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        live = se > 0.0
        assert np.all(np.abs(mean[live]) <= 3.0 * se[live])
        assert np.all(mean[~live] == 0.0)


def _leap_dt(m, max_rate, time_left):
    """The leap rule: dt * max rate = THETA / (2m), cut to land on t_end; with no positive rate, the time left."""
    return min(THETA / (2.0 * m * max_rate), time_left) if max_rate > 0.0 else time_left


def _reference_walk(s, t_end):
    """run_adaptive's walk written out apart from its kernels, with a checked LatticeState rebuilt every leap.

    Each site's per-particle rate is q / h^2, q = (n / u_max)^(m - 1), on each
    jump that stays on the chain; a leap draws (left, right, stay) with
    probabilities (rate dt, rate dt, 1 - left - right) in one multinomial
    call and moves the movers to their neighbours.
    """
    t, dts = 0.0, []
    while t < t_end - solver._time_tolerance(t_end):
        rate = (s.occupancy / float(s.u_max)) ** (s.m - 1.0) * (1.0 / (s.spacing * s.spacing))
        dt = _leap_dt(s.m, float(rate.max()), t_end - t)
        left, right = np.zeros(rate.shape), np.zeros(rate.shape)
        left[..., 1:] = rate[..., 1:] * dt
        right[..., :-1] = rate[..., :-1] * dt
        moves = s.rng.multinomial(s.occupancy, np.stack([left, right, 1.0 - left - right], axis=-1))
        occ = moves[..., 2].copy()
        occ[..., :-1] += moves[..., 1:, 0]  # the left movers of the site to the right
        occ[..., 1:] += moves[..., :-1, 1]  # the right movers of the site to the left
        above = (occ > s.u_max).sum(axis=-1) * dt
        s = LatticeState(occupancy=occ, u_max=s.u_max, m=s.m, rng=s.rng, spacing=s.spacing,
                         capacity_time=s.capacity_time + above)
        t += dt
        dts.append(dt)
    return s, t, np.array(dts)


def _mound(n_sites, load):
    occ = np.zeros(n_sites, dtype=np.int64)
    occ[n_sites // 2] = load
    return occ


# (start state, t_end) of each case
ONE_PATH_CASES = {
    # the mound spreads, so its leaps grow; it runs to 8 to take more than 10 of them
    "pushing": (lambda: make_state(_mound(21, 300), u_max=100, seed=11), 8.0),
    # a batched state of two members, one starting above u_max, with m != 2 and spacing != 1
    "ensemble": (lambda: make_state(
        [_mound(16, 120), np.full(16, 30)], u_max=100, m=2.5, seed=13, spacing=0.5), 2.0),
    "over_capacity": (lambda: make_state([150, 0, 150, 0, 150], u_max=100, seed=14), 2.0),
}


class TestOnePath:
    @pytest.mark.parametrize("case", sorted(ONE_PATH_CASES))
    def test_run_adaptive_matches_checked_steps_bit_for_bit(self, case):
        start, t_end = ONE_PATH_CASES[case]
        fast, t_fast, dts_fast = run_adaptive(start(), t_end)
        ref, t_ref, dts_ref = _reference_walk(start(), t_end)
        assert np.array_equal(fast.occupancy, ref.occupancy)
        assert t_fast == t_ref == t_end
        assert np.array_equal(dts_fast, dts_ref)
        assert dts_fast.size > 10
        assert np.array_equal(fast.capacity_time, ref.capacity_time)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        if case == "over_capacity":
            assert fast.capacity_time > 0

    def test_one_rate_evaluation_per_leap_and_one_state_per_run(self, monkeypatch):
        s = ONE_PATH_CASES["pushing"][0]()
        calls = {"tables": 0, "rates": 0, "states": 0}
        table, rates, post_init = lattice._jump_table, lattice.rate_arrays, LatticeState.__post_init__

        def counting_table(*args):
            calls["tables"] += 1
            return table(*args)

        def counting_rates(*args):
            calls["rates"] += 1
            return rates(*args)

        def counting_post_init(state):
            calls["states"] += 1
            post_init(state)

        monkeypatch.setattr(lattice, "_jump_table", counting_table)
        monkeypatch.setattr(lattice, "rate_arrays", counting_rates)
        monkeypatch.setattr(LatticeState, "__post_init__", counting_post_init)
        _, _, dts = run_adaptive(s, 0.3)
        assert calls == {"tables": 1, "rates": dts.size, "states": 1}

    def test_stops_within_the_solvers_time_tolerance_of_t_end(self, monkeypatch):
        # five leaps end 7e-13 short of t_end = 0.5: within the solver's 1e-12, outside 1e-12 * t_end
        t_end, leaps, short = 0.5, 5, 7e-13
        rate = THETA / (2.0 * 2.0 * ((t_end - short) / leaps))

        def flat_rates(s, occupancy, table):
            rates = np.full(occupancy.shape + (3,), rate)
            rates[..., 0, 0] = rates[..., -1, 1] = 0.0
            rates[..., 2] = 0.0
            return rates

        monkeypatch.setattr(lattice, "rate_arrays", flat_rates)
        _, t, dts = run_adaptive(make_state([0, 0, 150, 0, 0], u_max=50, m=2.0), t_end)
        assert dts.size == leaps
        assert 1e-12 * t_end < t_end - t <= solver._time_tolerance(t_end)

    def test_leap_below_the_floor_raises(self):
        s = make_state([0, 0, 150, 0, 0], u_max=50, seed=1)
        with pytest.raises(ValueError, match=r"floor 1e\+288.*max rate 3 at t = 0"):
            run_adaptive(s, 1e300)


# criterion 09's [lattice] section (tests/test_acceptance.py LATTICE_LIMIT_CFG)
CRITERION_09 = LatticeConfig(sites=200, u_max=25000, particles=100000, t_end=0.5, seeds=10,
                             cells_per_bin=5, extent=2.0, origin=-1.0)

# L1 from the expected leap to the continuum twin on CRITERION_09 with every leap at jump
# probability dt * max rate = 0.05, the rule before THETA, which took 2.7 (m = 3) to 5.3 (m = 1.5) times the leaps
MEAN_FIELD_L1_AT_P005 = {1.5: 3.108e-5, 2.0: 1.486e-4, 3.0: 5.884e-4}


class TestLeapRule:
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_leaps_sit_at_theta_of_the_stability_bound(self, m):
        class DrawRecorder:
            """The state's generator, keeping the (left, right, stay) probabilities of every draw."""

            def __init__(self, rng):
                self.rng, self.probs = rng, []

            def multinomial(self, n, pvals):
                self.probs.append(pvals.copy())
                return self.rng.multinomial(n, pvals)

        start = make_state([_mound(41, 300), _mound(41, 200)], u_max=100, m=m, seed=7, spacing=0.1)
        start.rng = draws = DrawRecorder(start.rng)
        _, t, dts = run_adaptive(start, 0.05)
        assert t == 0.05 and len(draws.probs) == dts.size > 10
        jump = [probs[..., :2].max() for probs in draws.probs]  # each leap's dt * max rate
        for dt_rate in jump[:-1]:
            assert dt_rate == pytest.approx(THETA / (2.0 * m), rel=1e-12)
        assert 0.0 < jump[-1] <= THETA / (2.0 * m) * (1.0 + 1e-12)
        # p_left + p_right <= 2 * THETA / (2m), so no site is asked to send out more than it holds
        for probs in draws.probs:
            assert np.array_equal(probs[..., 2], 1.0 - probs[..., 0] - probs[..., 1])
            assert probs[..., 2].min() >= 1.0 - THETA / m - 1e-12

    @pytest.mark.parametrize("m", sorted(MEAN_FIELD_L1_AT_P005))
    def test_expected_leap_keeps_the_time_step_bias_of_small_leaps(self, m):
        """The leap rule's mean field, free of sampling noise, stays near the continuum twin.

        Iterating the expected leap (each site sends dt * rate of its load to
        each side) with the rule's dt isolates the time-step bias.  It may
        exceed that of leaps at jump probability 0.05 by at most a quarter.
        """
        s = initial_state(CRITERION_09, m, 0)
        load = s.occupancy[0].astype(float)  # every member starts alike: the mean field of one
        table = lattice._jump_table(s)
        t = 0.0
        while t < CRITERION_09.t_end - solver._time_tolerance(CRITERION_09.t_end):
            rates = rate_arrays(s, load, table)
            dt = _leap_dt(m, rates.max(), CRITERION_09.t_end - t)
            to_left, to_right = load * rates[:, 0] * dt, load * rates[:, 1] * dt
            load = load - to_left - to_right
            load[:-1] += to_left[1:]
            load[1:] += to_right[:-1]
            t += dt
        twin = continuum_twin(CRITERION_09, m)
        density = (load / CRITERION_09.u_max).reshape(-1, CRITERION_09.cells_per_bin).mean(axis=1)
        l1 = np.abs(density - twin.values).sum() * twin.grid.h
        print("m = %g: mean-field L1 %.4g against %.4g at jump probability 0.05" % (m, l1, MEAN_FIELD_L1_AT_P005[m]))
        assert l1 <= 1.25 * MEAN_FIELD_L1_AT_P005[m]


class TestEnsemble:
    CONFIG = LatticeConfig(sites=20, u_max=50, particles=150, t_end=0.05, seeds=3,
                           cells_per_bin=2, extent=2.0, origin=-1.0)

    @staticmethod
    def _spy(monkeypatch, name):
        """Record the arguments and results of every call of lattice.<name>."""
        calls = []
        inner = getattr(lattice, name)

        def spy(*args):
            out = inner(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(lattice, name, spy)
        return calls

    def test_one_member_ensemble_is_the_base_seed_run(self, monkeypatch):
        config = dataclasses.replace(self.CONFIG, seeds=1)
        start = initial_state(config, 2.0, 40)
        # one (sites,) chain, seed 40, with its one capacity value
        chain = dataclasses.replace(start, occupancy=start.occupancy[0], capacity_time=0.0,
                                    rng=np.random.default_rng(40))
        state, t, dts = run_adaptive(chain, config.t_end)
        runs = self._spy(monkeypatch, "run_adaptive")
        run = run_ensemble(config, 2.0, 40)
        final, t_batch, dts_batch = runs[0][1]
        assert final.occupancy.shape == (1, 20)
        assert np.array_equal(final.occupancy[0], state.occupancy)
        assert t_batch == t and np.array_equal(dts_batch, dts)
        assert final.rng.bit_generator.state == state.rng.bit_generator.state
        assert run.t == t and np.array_equal(run.dts, dts)
        assert run.site_time.tolist() == [state.capacity_time]
        assert state.capacity_time > 0
        assert run.density.shape == (1, 10)
        assert np.array_equal(run.density[0], (state.occupancy / 50).reshape(10, 2).mean(axis=1))

    def test_members_conserve_particles_inside_the_leap_condition(self, monkeypatch):
        leaps = self._spy(monkeypatch, "step_tau_leap")
        run = run_ensemble(self.CONFIG, 2.0, 40)
        density = run.density
        assert run.site_time.shape == (3,) and density.shape == (3, 10)
        assert len(leaps) > 10
        for (occ, rates, dt, *_), (new, leap_time) in leaps:
            assert occ.shape == new.shape == (3, 20) and rates.shape == (3, 20, 3)
            assert np.all(new.sum(axis=-1) == 150)
            assert np.all(dt * rates.max(axis=(-2, -1)) <= 0.5 / 2.0)  # the stability bound 1/(2m), per member
            # each member's site-time above u_max over the leap, counted when some site is above u_max
            assert np.array_equal(leap_time, (new > 50).sum(axis=-1) * dt if new.max() > 50 else 0.0)
        # one shared dt, set by the fastest member (the last leap is cut to t_end)
        for (_, rates, dt, *_), _ in leaps[:-1]:
            assert dt * rates.max() == pytest.approx(THETA / (2.0 * 2.0), rel=1e-12)
        assert run.dts.tolist() == [args[2] for args, _ in leaps]
        # the run's site-time above u_max sums the leaps' site-times, in leap order
        site_time = np.zeros(3)
        for _, (_, leap_time) in leaps:
            site_time = site_time + leap_time
        assert np.array_equal(run.site_time, site_time) and np.all(site_time > 0.0)
        final = leaps[-1][1][0]
        for member, row in zip(density, final):
            assert np.array_equal(member, (row / 50).reshape(10, 2).mean(axis=1))
        # each member has its own draws
        assert len({row.tobytes() for row in final}) == 3

    def test_same_seed_gives_the_same_bytes(self):
        def digest(run):
            return run.t, run.dts.tobytes(), run.site_time.tobytes(), run.density.tobytes()

        first = digest(run_ensemble(self.CONFIG, 2.0, 40))
        assert digest(run_ensemble(self.CONFIG, 2.0, 40)) == first
        other = digest(run_ensemble(self.CONFIG, 2.0, 41))
        assert other[-1] != first[-1]

    def test_run_ensemble_leaps_through_one_run_adaptive_call(self, monkeypatch):
        runs = self._spy(monkeypatch, "run_adaptive")
        run_ensemble(self.CONFIG, 2.0, 40)
        assert len(runs) == 1
        (batch, t_end), _ = runs[0]
        assert np.array_equal(batch.occupancy, np.tile(_mound(20, 150), (3, 1)))
        assert batch.rng.bit_generator.seed_seq.entropy == 40  # default_rng(40)
        assert t_end == self.CONFIG.t_end

    def test_run_ensemble_builds_the_start_and_the_final_state_only(self, monkeypatch):
        built = []
        check = LatticeState.__post_init__

        def counted(state):
            built.append(state.occupancy.shape)
            check(state)

        monkeypatch.setattr(LatticeState, "__post_init__", counted)
        run_ensemble(self.CONFIG, 2.0, 40)
        assert built == [(3, 20), (3, 20)]

    def test_batched_mean_matches_the_continuum_moments(self):
        """Mass-normalised L1 and moments of the criterion-09 ensemble (3 members).

        Criterion 09's absolute L1 tolerance of 0.05 exceeds the mass 0.04, so
        it accepts the continuum profile moved by 10 of its 40 bins.  These
        checks refuse that shift.  The continuum run starts with the
        particles' mass and centre of mass, so the centres differ only by
        sampling.
        """
        config = dataclasses.replace(CRITERION_09, seeds=3)
        mean = run_ensemble(config, 2.0, 101).density.mean(axis=0)
        twin = continuum_twin(config, 2.0)
        x = twin.grid.axis_centers(0)
        half_bin = 0.5 * twin.grid.h

        def gaps(profile):
            """(mass-normalised L1, centre gap, relative variance gap) to the twin."""
            mass = profile.sum()
            centre = (x * profile).sum() / mass
            var = ((x - centre) ** 2 * profile).sum() / mass
            ref = twin.values
            ref_centre = (x * ref).sum() / ref.sum()
            ref_var = ((x - ref_centre) ** 2 * ref).sum() / ref.sum()
            return np.abs(profile - ref).sum() / ref.sum(), abs(centre - ref_centre), abs(var / ref_var - 1.0)

        rel_l1, centre_gap, var_gap = gaps(mean)
        print("relative L1 %.4f, centre gap %.4f, variance gap %.4f" % (rel_l1, centre_gap, var_gap))
        assert rel_l1 <= 0.1
        assert centre_gap <= half_bin
        assert var_gap <= 0.02
        shifted_l1, shifted_centre, _ = gaps(np.roll(twin.values, 10))
        assert shifted_l1 > 0.1 and shifted_centre > half_bin

    def test_continuum_twin_lives_on_the_coarse_grid(self):
        twin = continuum_twin(self.CONFIG, 2.0)
        assert twin.grid.cells == (10,)
        assert twin.grid.extent == (2.0,)
        assert twin.grid.origin == (-1.0,)
        assert twin.grid == self.CONFIG.bins()
        # the particles' mass: 150 / u_max of relative density on one site of spacing 0.1
        assert twin.mass() == pytest.approx(150 / 50 * self.CONFIG.spacing, rel=1e-12)


class TestCoarseDensity:
    """run_ensemble's densities: each bin is the mean relative density of its cells_per_bin sites."""

    @staticmethod
    def _density_of(monkeypatch, config, occupancy):
        """run_ensemble's density row for a run that ends at the given (sites,) occupancy."""
        def ends_at(s, t_end):
            return dataclasses.replace(s, occupancy=np.tile(occupancy, (config.seeds, 1))), t_end, np.zeros(0)

        monkeypatch.setattr(lattice, "run_adaptive", ends_at)
        return run_ensemble(config, 2.0, 0).density[0]

    def test_uniform_occupancy_binning(self, monkeypatch):
        config = LatticeConfig(sites=8, u_max=100, particles=30, t_end=1.0, cells_per_bin=2)
        assert np.allclose(self._density_of(monkeypatch, config, [30] * 8), [0.3] * 4)

    def test_identity_binning(self, monkeypatch):
        config = LatticeConfig(sites=4, u_max=100, particles=10, t_end=1.0)
        assert np.allclose(self._density_of(monkeypatch, config, [10, 20, 30, 40]), [0.1, 0.2, 0.3, 0.4])

    def test_alternating_average(self, monkeypatch):
        config = LatticeConfig(sites=16, u_max=100, particles=2, t_end=1.0, cells_per_bin=2)
        assert np.allclose(self._density_of(monkeypatch, config, [0, 2] * 8), 1.0 / 100.0)

    def test_grid_geometry_carries_over(self):
        config = LatticeConfig(sites=16, u_max=100, particles=1, t_end=1.0, cells_per_bin=4, extent=4.0, origin=-1.0)
        assert config.spacing == 0.25
        assert config.bins() == Grid(cells=(4,), extent=(4.0,), origin=(-1.0,))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="cells_per_bin must divide sites"):
            LatticeConfig(sites=9, u_max=100, particles=1, t_end=1.0, cells_per_bin=2)

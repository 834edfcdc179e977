import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemofront.lattice import (
    KERNELS,
    LEAP_LIMIT,
    OVERFLOW_FACTOR,
    LatticeConfig,
    LatticeState,
    coarse_density,
    rate_arrays,
    run_adaptive,
    step_tau_leap,
    transition_rates,
)
from chemofront.model import ConstantSensitivity, LinearSwitchSensitivity


def make_state(occupancy, u_max=100, m=2.0, alpha=1.0, beta=0.0, kernel="pushing",
               v=None, z=None, seed=0, spacing=1.0):
    occ = np.asarray(occupancy, dtype=np.int64)
    if v is None:
        v = np.zeros(occ.size)
    if z is None:
        z = np.zeros(occ.size)
    return LatticeState(
        occupancy=occ, u_max=u_max, v=v, z=z, m=m, alpha=alpha,
        beta_sens=ConstantSensitivity(beta), kernel=kernel, seed=seed,
        spacing=spacing,
    )


class TestValidation:
    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            make_state([-1, 5, 5, 5])

    def test_overflow_cap_enforced_at_construction(self):
        cap = OVERFLOW_FACTOR * 10
        make_state([cap, 0, 0, 0], u_max=10)  # exactly at the cap is fine
        with pytest.raises(ValueError, match="overflow"):
            make_state([cap + 1, 0, 0, 0], u_max=10)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            make_state([1, 1, 1, 1], kernel="teleport")

    def test_signal_shape_must_match(self):
        with pytest.raises(ValueError):
            make_state([1, 1, 1, 1], v=np.zeros(3))

    def test_density_dependent_drift_needs_quorum_kernel(self):
        occ = np.array([5, 5, 5, 5], dtype=np.int64)
        with pytest.raises(ValueError, match="quorum"):
            LatticeState(occupancy=occ, u_max=10, v=np.zeros(4), z=np.zeros(4),
                         m=2.0, beta_sens=LinearSwitchSensitivity(1.0), kernel="pushing")
        LatticeState(occupancy=occ, u_max=10, v=np.zeros(4), z=np.zeros(4),
                     m=2.0, beta_sens=LinearSwitchSensitivity(1.0), kernel="quorum_pushing")


class TestLatticeConfig:
    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ({"t_end": float("inf")}, "t_end"),
            ({"t_end": float("nan")}, "t_end"),
            ({"extent": float("inf")}, "extent"),
            ({"extent": 0.0}, "extent"),
            ({"origin": float("nan")}, "origin"),
            ({"origin": float("-inf")}, "origin"),
            ({"kernel": "teleport"}, "kernel"),
        ],
    )
    def test_record_refuses_unbounded_or_unknown_values(self, bad, fragment):
        good = dict(sites=20, u_max=50, particles=100, t_end=0.25)
        LatticeConfig(**good)
        with pytest.raises(ValueError, match=fragment):
            LatticeConfig(**dict(good, **bad))


class TestRates:
    def test_pushing_flat_signal_at_half_density(self):
        s = make_state([50, 50, 50, 50], u_max=100, m=2.0, alpha=1.0)
        left, right = transition_rates(s, 1)
        assert left == pytest.approx(0.5)
        assert right == pytest.approx(0.5)

    def test_empty_site_emits_nothing(self):
        s = make_state([0, 0, 0, 0])
        assert transition_rates(s, 1) == (0.0, 0.0)

    def test_reflecting_boundaries(self):
        s = make_state([50, 50, 50, 50])
        left, right = rate_arrays(s)
        assert left[0] == 0.0
        assert right[-1] == 0.0

    def test_volume_filling_reads_destination_density(self):
        s = make_state([100, 50, 0, 50], u_max=100, kernel="volume_filling")
        left, right = transition_rates(s, 1)
        assert left == pytest.approx(1.0)   # q at the full left neighbor
        assert right == pytest.approx(0.0)  # q at the empty right neighbor

    def test_rate_scale_is_inverse_spacing_squared(self):
        a = make_state([50, 50, 50, 50], spacing=1.0)
        b = make_state([50, 50, 50, 50], spacing=0.5)
        la, _ = rate_arrays(a)
        lb, _ = rate_arrays(b)
        assert lb[1] == pytest.approx(4.0 * la[1])

    def test_adverse_drift_clamps_to_zero(self):
        v = np.array([0.0, 10.0, 20.0, 30.0])
        s = make_state([50, 50, 50, 50], alpha=0.1, beta=1.0, v=v)
        left, right = rate_arrays(s)
        assert np.all(left >= 0.0)
        assert np.all(right >= 0.0)
        assert left[2] == 0.0  # strong uphill signal blocks the downhill jump

    def test_kernels_agree_when_q_is_constant(self):
        """Uniform occupancy makes q flat, collapsing both q placements."""
        v = np.linspace(0.0, 0.3, 6)
        push = make_state([40] * 6, beta=0.5, v=v, kernel="pushing")
        fill = make_state([40] * 6, beta=0.5, v=v, kernel="volume_filling")
        pl, pr = rate_arrays(push)
        fl, fr = rate_arrays(fill)
        assert np.allclose(pl, fl)
        assert np.allclose(pr, fr)

    def test_quorum_kernel_reads_beta_off_z(self):
        v = np.linspace(0.0, 0.3, 6)
        z = np.full(6, 0.5)
        quorum = LatticeState(
            occupancy=np.array([40] * 6, dtype=np.int64), u_max=100,
            v=v, z=z, m=2.0, beta_sens=LinearSwitchSensitivity(1.0),
            kernel="quorum_pushing",
        )
        plain = make_state([40] * 6, beta=0.5, v=v, kernel="pushing")
        ql, qr = rate_arrays(quorum)
        pl, pr = rate_arrays(plain)
        assert np.allclose(ql, pl)
        assert np.allclose(qr, pr)

    def test_site_index_bounds(self):
        s = make_state([1, 1, 1, 1])
        with pytest.raises(ValueError):
            transition_rates(s, 4)


class TestLeaping:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_particles_conserved(self, seed):
        rng = np.random.default_rng(seed)
        occ = rng.integers(0, 80, size=12)
        s = make_state(occ, u_max=100, seed=seed)
        total = s.particle_count()
        for _ in range(5):
            s = step_tau_leap(s, 0.05)
            assert s.particle_count() == total

    def test_empty_lattice_is_absorbing(self):
        s = make_state([0] * 8)
        out, t, steps = run_adaptive(s, 1.0)
        assert steps == 0
        assert np.all(out.occupancy == 0)

    def test_leap_condition_enforced(self):
        s = make_state([100, 0, 0, 0], u_max=100)  # density 1, rate 1
        with pytest.raises(ValueError, match="leap"):
            step_tau_leap(s, 2.0 * LEAP_LIMIT)
        step_tau_leap(s, 0.5 * LEAP_LIMIT)

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

    def test_capacity_violations_counted_not_fatal(self):
        s = make_state([150, 0, 150, 0, 150], u_max=100, seed=3)
        out = step_tau_leap(s, 0.01)
        assert out.capacity_violations >= 0
        assert out.particle_count() == s.particle_count()

    def test_ensemble_mean_stays_symmetric(self):
        """Flat signal + symmetric load: asymmetry within 3 standard errors."""
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


class TestCoarseDensity:
    def test_uniform_occupancy_binning(self):
        s = make_state([30] * 8, u_max=100)
        f = coarse_density(s, 2)
        assert np.allclose(f.values, 0.3)
        assert f.grid.cells == (4,)

    def test_identity_binning(self):
        s = make_state([10, 20, 30, 40], u_max=100)
        f = coarse_density(s, 1)
        assert np.allclose(f.values, [0.1, 0.2, 0.3, 0.4])

    def test_alternating_average(self):
        s = make_state([0, 2] * 8, u_max=100)
        f = coarse_density(s, 2)
        assert np.allclose(f.values, 1.0 / 100.0)

    def test_grid_geometry_carries_over(self):
        s = LatticeState(
            occupancy=np.ones(16, dtype=np.int64), u_max=100,
            v=np.zeros(16), z=np.zeros(16), m=2.0,
            spacing=0.25, origin=-1.0,
        )
        f = coarse_density(s, 4)
        assert f.grid.extent == (4.0,)
        assert f.grid.origin == (-1.0,)

    def test_divisibility_enforced(self):
        s = make_state([1] * 9)
        with pytest.raises(ValueError, match="multiple"):
            coarse_density(s, 2)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemofront.model import (
    ConstantSensitivity,
    Field,
    Grid,
    LinearSwitchSensitivity,
    ModelParams,
    StateQuad,
    TabulatedSensitivity,
    logistic_growth,
)


class TestGrid:
    def test_spacing_and_volume(self):
        g = Grid((50,), (2.0,), (-1.0,))
        assert g.h == pytest.approx(0.04)
        assert g.cell_volume == pytest.approx(0.04)
        assert g.dim == 1
        assert g.n_cells == 50

    def test_2d_volume_is_h_squared(self):
        g = Grid((10, 20), (1.0, 2.0), (0.0, 0.0))
        assert g.h == pytest.approx(0.1)
        assert g.cell_volume == pytest.approx(0.01)
        assert g.n_cells == 200

    def test_anisotropic_spacing_rejected(self):
        with pytest.raises(ValueError, match="anisotropic"):
            Grid((10, 10), (1.0, 2.0), (0.0, 0.0))

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            Grid((3,), (1.0,), (0.0,))

    def test_three_axes_rejected(self):
        with pytest.raises(ValueError):
            Grid((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    def test_axis_centers_are_cell_midpoints(self):
        g = Grid((4,), (1.0,), (2.0,))
        assert np.allclose(g.axis_centers(0), [2.125, 2.375, 2.625, 2.875])

    def test_center_distance2_matches_manual(self):
        g = Grid((8, 8), (2.0, 2.0), (-1.0, -1.0))
        d2 = g.center_distance2((0.0, 0.0))
        x = g.axis_centers(0)
        manual = x[:, None] ** 2 + x[None, :] ** 2
        assert np.allclose(d2, manual)
        assert g.diameter() == pytest.approx(2.0 * np.sqrt(2.0))

    @pytest.mark.parametrize(
        "grid, x0",
        [
            (Grid((7,), (1.3,), (-0.4,)), (0.31,)),
            (Grid((6, 10), (0.6, 1.0), (-0.1, 0.2)), (0.31, 0.47)),
        ],
    )
    def test_center_distance2_is_the_per_axis_formula_bit_for_bit(self, grid, x0):
        """One broadcast sum over the axes gives the bits of the 1D and 2D formulas it replaced."""
        if grid.dim == 1:
            d = grid.axis_centers(0) - x0[0]
            formula = d * d
        else:
            dx = grid.axis_centers(0) - x0[0]
            dy = grid.axis_centers(1) - x0[1]
            formula = dx[:, None] ** 2 + dy[None, :] ** 2
        d2 = grid.center_distance2(x0)
        assert d2.shape == grid.cells and d2.dtype == np.float64
        assert d2.tobytes() == formula.tobytes()
        with pytest.raises(ValueError, match="coordinates"):
            grid.center_distance2(x0 + (0.0,))


class TestField:
    def test_shape_mismatch_rejected(self):
        g = Grid((8,), (1.0,), (0.0,))
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros(9))

    def test_non_finite_rejected(self):
        g = Grid((8,), (1.0,), (0.0,))
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(g, vals)

    def test_mass_is_sum_times_volume(self):
        g = Grid((10,), (2.0,), (0.0,))
        f = Field.full(g, 3.0)
        assert f.mass() == pytest.approx(6.0)


class TestStateQuad:
    def test_grid_mismatch_rejected(self):
        g1 = Grid((8,), (1.0,), (0.0,))
        g2 = Grid((9,), (1.0,), (0.0,))
        with pytest.raises(ValueError):
            StateQuad(Field.full(g1, 1.0), Field.full(g2, 0.0), Field.full(g1, 0.0), Field.full(g1, 0.0))

    def test_mass_vw_sums_both_fields(self):
        g = Grid((10,), (1.0,), (0.0,))
        s = StateQuad(Field.full(g, 1.0), Field.full(g, 0.25), Field.full(g, 0.75), Field.full(g, 0.0))
        assert s.mass_vw() == pytest.approx(1.0)


# --- sensitivity rules ------------------------------------------------------


def test_constant_sensitivity_bound_enforced():
    with pytest.raises(ValueError):
        ConstantSensitivity(1.5)
    assert ConstantSensitivity(1.0).eval(0.7) == 1.0


def test_constant_sensitivity_array_is_a_read_only_view_of_the_constant():
    u = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    phi = ConstantSensitivity(-0.25).eval(u)
    assert phi.shape == u.shape
    assert np.all(phi == -0.25)
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


def test_linear_switch_pinned_values():
    assert LinearSwitchSensitivity(0.5).eval(0.5) == 0.0
    assert LinearSwitchSensitivity(1.0).eval(2.0) == -1.0


def test_tabulated_validation():
    with pytest.raises(ValueError, match="increasing"):
        TabulatedSensitivity((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="<= 1"):
        TabulatedSensitivity((0.0, 1.0), (0.0, 1.5))
    with pytest.raises(ValueError, match="slope"):
        TabulatedSensitivity((0.0, 0.1), (-0.5, 0.5))


def test_tabulated_is_flat_beyond_ends():
    rule = TabulatedSensitivity((0.0, 1.0, 2.0), (1.0, 0.5, -0.5))
    assert rule.eval(-3.0) == 1.0
    assert rule.eval(9.0) == -0.5


@st.composite
def bounded_rules(draw):
    kind = draw(st.sampled_from(["constant", "switch", "table"]))
    if kind == "constant":
        return ConstantSensitivity(draw(st.floats(min_value=-1.0, max_value=1.0)))
    if kind == "switch":
        # slope magnitude is 1/u_star, so only u_star >= 1 keeps it within 1
        return LinearSwitchSensitivity(draw(st.floats(min_value=1.0, max_value=10.0)))
    n = draw(st.integers(min_value=2, max_value=5))
    us = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=n, max_size=n, unique=True)))
    if len(us) < 2 or min(np.diff(us)) < 1e-3:
        us = list(np.linspace(0.0, 5.0, n))
    phis = [draw(st.floats(min_value=-1.0, max_value=1.0))]
    for i in range(1, n):
        gap = us[i] - us[i - 1]
        lo = max(-1.0, phis[-1] - gap)
        hi = min(1.0, phis[-1] + gap)
        phis.append(draw(st.floats(min_value=lo, max_value=hi)))
    return TabulatedSensitivity(tuple(us), tuple(phis))


@given(rule=bounded_rules(), u=st.floats(min_value=-5.0, max_value=15.0))
@settings(max_examples=120, deadline=None)
def test_sensitivity_bounded_and_slope_limited(rule, u):
    lo = rule.eval(u)
    hi = rule.eval(u + 1e-3)
    assert abs(lo) <= 1.0 + 1e-15
    assert abs(hi - lo) / 1e-3 <= 1.0 + 1e-6


# --- logistic growth --------------------------------------------------------


def test_logistic_pinned_values():
    assert logistic_growth(1.0, 1.0, 1.0, 1.0) == 0.0
    assert logistic_growth(0.0, 2.0, 3.0, 1.0) == 0.0
    assert logistic_growth(0.5, 2.0, 2.0, 1.0) == pytest.approx(0.25)


@given(
    u=st.floats(min_value=1e-6, max_value=50.0),
    mu=st.floats(min_value=1e-3, max_value=10.0),
    delta=st.floats(min_value=1.0, max_value=3.0),
    r=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_logistic_sign_structure(u, mu, delta, r):
    val = logistic_growth(u, mu, delta, r)
    cap = 1.0 / r
    if u < cap * (1.0 - 1e-12):
        assert val > 0.0
    elif u > cap * (1.0 + 1e-12):
        assert val < 0.0


# --- parameter validation ---------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 1.0},
        {"m": 2.0, "delta": 0.5},
        {"m": 2.0, "mu": -1.0},
        {"m": 2.0, "r": 0.0},
        {"m": 2.0, "phi": 1.0},
    ],
)
def test_model_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)

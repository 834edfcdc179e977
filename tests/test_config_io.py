"""Config text parsing, snapshot files, and history CSV round trips."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemofront.config_io import (
    BumpInit,
    ConfigError,
    ConstantInit,
    LatticeConfig,
    RunConfig,
    SnapshotError,
    SnapshotInit,
    SnapshotVersionError,
    build_initial_state,
    parse_config,
    parse_config_file,
    read_csv_columns,
    read_history_csv,
    read_snapshot,
    serialize_config,
    write_history_csv,
    write_snapshot,
)
from chemofront.diagnostics import HISTORY_COLUMNS, FrontHistory
from chemofront.model import (
    ConstantSensitivity,
    Field,
    Grid,
    LinearSwitchSensitivity,
    ModelParams,
    StateQuad,
    TabulatedSensitivity,
)
from chemofront.solver import SolverConfig

MINIMAL = """
[model]
m = 2.0

[grid]
dim = 1
cells = 16
extent = 2.0

[solver]
t_end = 0.5

[initial]
u = constant 0.5
"""


# --- parsing ----------------------------------------------------------------


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.m == 2.0
        assert cfg.model.delta == 1.0
        assert cfg.model.mu == 0.0
        assert cfg.model.r == 1.0
        assert cfg.model.phi == ConstantSensitivity(1.0)
        assert [f.name for f in dataclasses.fields(cfg.model)] == ["m", "delta", "mu", "r", "phi"]
        assert cfg.grid == Grid(cells=(16,), extent=(2.0,), origin=(0.0,))
        assert cfg.solver.cfl_safety == 0.25
        assert cfg.solver.output_stride == 100
        assert cfg.solver.dt_max is None
        assert [f.name for f in dataclasses.fields(cfg.solver)] == ["t_end", "cfl_safety", "output_stride", "dt_max"]
        assert cfg.initial["u"] == ConstantInit(0.5)
        for name in ("v", "w", "z"):
            assert cfg.initial[name] == ConstantInit(0.0)
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "model", "grid", "solver", "initial", "out_dir", "seed", "sweep", "lattice"]
        assert cfg.out_dir == "out"
        assert cfg.seed == 0
        assert cfg.sweep == {}
        assert cfg.lattice is None

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace("m = 2.0", "m = 2.0  # quadratic diffusion\n\n# standalone comment")
        assert parse_config(text).model.m == 2.0

    def test_scalar_extent_broadcasts_in_2d(self):
        text = MINIMAL.replace("dim = 1", "dim = 2").replace("cells = 16", "cells = 8, 8")
        cfg = parse_config(text)
        assert cfg.grid.extent == (2.0, 2.0)

    def test_bump_initial_parses(self):
        text = MINIMAL.replace("u = constant 0.5", "u = bump 0.25 0.5 1.5")
        cfg = parse_config(text)
        assert cfg.initial["u"] == BumpInit(center=(0.25,), radius=0.5, height=1.5)

    def test_phi_rules_parse(self):
        for rule, expected in [
            ("constant -0.5", ConstantSensitivity(-0.5)),
            ("linear_switch 2.0", LinearSwitchSensitivity(2.0)),
            ("table 0:0,1:0.5,2:1", TabulatedSensitivity((0.0, 1.0, 2.0), (0.0, 0.5, 1.0))),
        ]:
            text = MINIMAL.replace("m = 2.0", "m = 2.0\nphi = %s" % rule)
            assert parse_config(text).model.phi == expected

    def test_solver_booleans_and_stepper(self):
        # the retired switches are read at the one scheme's values and ignored
        text = MINIMAL.replace(
            "t_end = 0.5",
            "t_end = 0.5\nclip_negative = on\nchemo_upwind = yes\nv_z_stepper = semi-implicit\ndt_max = 0.01",
        )
        assert parse_config(text) == parse_config(MINIMAL.replace("t_end = 0.5", "t_end = 0.5\ndt_max = 0.01"))

    @pytest.mark.parametrize(
        "lines",
        [
            "clip_negative = on\nchemo_upwind = on\nv_z_stepper = semi-implicit",
            "clip_negative = true\nchemo_upwind = YES\nv_z_stepper = semi-implicit",
            "chemo_upwind = On",
        ],
    )
    def test_retired_solver_keys_at_kept_values_are_ignored(self, lines):
        cfg = parse_config(MINIMAL.replace("t_end = 0.5", "t_end = 0.5\n" + lines))
        assert cfg == parse_config(MINIMAL)

    @pytest.mark.parametrize(
        "line",
        [
            "v_z_stepper = explicit",
            "v_z_stepper = Semi-Implicit",
            "chemo_upwind = off",
            "clip_negative = no",
            "clip_negative = maybe",
        ],
    )
    def test_retired_solver_keys_at_other_values_are_refused(self, line):
        key, value = line.split(" = ")
        text = MINIMAL.replace("t_end = 0.5", "t_end = 0.5\n" + line)
        pattern = r"line 12: option solver\.%s was removed; .* got '%s'" % (key, value)
        with pytest.raises(ConfigError, match=pattern):
            parse_config(text)

    def test_retired_lattice_kernel_at_pushing_is_ignored(self):
        text = MINIMAL + "\n[lattice]\nsites = 20\nu_max = 50\nparticles = 100\nt_end = 0.25\n"
        cfg = parse_config(text + "kernel = pushing\n")
        assert cfg == parse_config(text)
        assert "kernel" not in serialize_config(cfg)

    @pytest.mark.parametrize(
        "section, lines",
        [
            ("model", "eps_reg = 0.0"),
            ("model", "eps_reg = 0"),
            ("oracles", "check_lower = on\ncheck_upper = on"),
            ("oracles", "check_upper = TRUE"),
            ("oracles", ""),
        ],
    )
    def test_retired_model_and_oracle_keys_at_kept_values_are_ignored(self, section, lines):
        if section == "oracles":
            text = MINIMAL + "\n[oracles]\n" + lines + "\n"
        else:
            text = MINIMAL.replace("m = 2.0", "m = 2.0\n" + lines)
        cfg = parse_config(text)
        assert cfg == parse_config(MINIMAL)
        assert serialize_config(cfg) == serialize_config(parse_config(MINIMAL))

    @pytest.mark.parametrize(
        "line, where, kept",
        [
            ("eps_reg = 0.05", "model.eps_reg", "0.0"),
            ("eps_reg = nan", "model.eps_reg", "0.0"),
            ("check_upper = off", "oracles.check_upper", "on"),
            ("check_lower = no", "oracles.check_lower", "on"),
            ("check_lower = maybe", "oracles.check_lower", "on"),
        ],
    )
    def test_retired_model_and_oracle_keys_at_other_values_are_refused(self, line, where, kept):
        key, value = line.split(" = ")
        if where.startswith("oracles"):
            text, line_no = MINIMAL + "\n[oracles]\n" + line + "\n", len(MINIMAL.splitlines()) + 3
        else:
            text, line_no = MINIMAL.replace("m = 2.0", "m = 2.0\n" + line), 4
        pattern = r"line %d: option %s was removed; chemofront always runs %s = %s, got '%s'" % (
            line_no, where.replace(".", r"\."), key, kept, value)
        with pytest.raises(ConfigError, match=pattern):
            parse_config(text)

    def test_output_section(self):
        text = MINIMAL + "\n[output]\ndir = results\nseed = 42\n"
        cfg = parse_config(text)
        assert cfg.out_dir == "results"
        assert cfg.seed == 42

    def test_sweep_section(self):
        text = MINIMAL + "\n[sweep]\nmodel.m = 2.0, 3.0, 4.0\nsolver.cfl_safety = 0.1, 0.2\n"
        cfg = parse_config(text)
        assert cfg.sweep == {"model.m": (2.0, 3.0, 4.0), "solver.cfl_safety": (0.1, 0.2)}

    def test_lattice_section_defaults(self):
        text = MINIMAL + "\n[lattice]\nsites = 20\nu_max = 50\nparticles = 100\nt_end = 0.25\n"
        lat = parse_config(text).lattice
        assert lat == LatticeConfig(sites=20, u_max=50, particles=100, t_end=0.25)
        assert lat.seeds == 1
        assert lat.compare_pde is False


class TestParseErrors:
    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda t: t.replace("[grid]", "[mesh]"), "unknown section"),
            (lambda t: t + "\n[model]\nmu = 1\n", "duplicate section"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nm = 3.0"), "duplicate key"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nslope = 1"), "unknown key"),
            (lambda t: "stray = 1\n" + t, "before any section"),
            (lambda t: t.replace("m = 2.0", "just words"), "expected 'key = value'"),
            (lambda t: t.replace("[solver]\nt_end = 0.5\n", ""), "missing required section"),
            (lambda t: t.replace("u = constant 0.5", "v = constant 0.5"), "'u'"),
            (lambda t: t.replace("m = 2.0", "m = fast"), "must be a number"),
            (lambda t: t.replace("dim = 1", "dim = 3"), "must be 1 or 2"),
            (lambda t: t.replace("cells = 16", "cells = 16.5"), "integers"),
            (lambda t: t + "\n[lattice]\nsites = 20\nu_max = 50\nparticles = 100\nt_end = 1\ncompare_pde = maybe\n", "on/off"),
            (lambda t: t.replace("constant 0.5", "bump 0.0 0.5"), "bump needs"),
            (lambda t: t.replace("constant 0.5", "bump 0.0 -1.0 0.5"), "radius"),
            (lambda t: t.replace("constant 0.5", "bump 0.0 1.0 -0.5"), "height"),
            (lambda t: t.replace("constant 0.5", "gaussian 1.0"), "constant/bump/snapshot"),
            (lambda t: t.replace("constant 0.5", "snapshot missing.bin u"), "does not exist"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nphi = sigmoid 1"), "constant/linear_switch/table"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nphi = table 0-0,1-1"), "bad phi rule"),
            (lambda t: t.replace("cells = 16", "cells = nan"), r"line 7: grid\.cells must be a finite number"),
            (lambda t: t.replace("cells = 16", "cells = 1e400"), r"grid\.cells must be a finite number"),
            (lambda t: t.replace("extent = 2.0", "extent = 2.0\norigin = nan"), r"grid\.origin must be a finite"),
            (lambda t: t.replace("m = 2.0", "m = inf"), r"line 3: model\.m must be a finite number"),
            (lambda t: t.replace("t_end = 0.5", "t_end = 0.5\ndt_max = inf"), r"solver\.dt_max must be a finite"),
            (lambda t: t.replace("constant 0.5", "bump nan 0.5 1.0"), r"initial\.u must be a finite number"),
            (lambda t: t.replace("constant 0.5", "constant -inf"), r"initial\.u must be a finite number"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nphi = constant nan"), r"model\.phi must be a finite"),
            (lambda t: t.replace("m = 2.0", "m = 2.0\nphi = table 0:0,inf:1"), r"model\.phi must be a finite"),
            (lambda t: t + "\n[sweep]\nmodel.m = 2.0, nan\n", r"sweep\.model\.m must be a finite number"),
            (lambda t: t + "\n[sweep]\nmodel.m = 2.0, 0.5\n", r"sweep\.model\.m value 0\.5: motility exponent m"),
            (lambda t: t + "\n[sweep]\nsolver.cfl_safety = 2.0\n", r"sweep\.solver\.cfl_safety value 2\.0"),
            (
                lambda t: t + "\n[lattice]\nsites = 20\nu_max = 50\nparticles = 100\nt_end = inf\n",
                r"lattice\.t_end must be a finite number",
            ),
        ],
    )
    def test_bad_text_raises_config_error(self, mangle, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(mangle(MINIMAL))

    def test_space_separated_grid_list_names_the_comma_form(self):
        text = MINIMAL.replace("dim = 1", "dim = 2").replace("cells = 16", "cells = 64 64")
        with pytest.raises(ConfigError, match=r"grid\.cells must be comma-separated numbers \(e\.g\. '64, 64'\), got '64 64'"):
            parse_config(text)

    def test_errors_carry_line_numbers(self):
        text = MINIMAL.replace("dim = 1", "dim = one")
        line = next(i for i, ln in enumerate(text.splitlines(), start=1) if "dim" in ln)
        with pytest.raises(ConfigError, match="line %d" % line):
            parse_config(text)

    def test_model_constraint_becomes_config_error(self):
        # ModelParams itself rejects m <= 1; the wrapper re-raises as ConfigError
        with pytest.raises(ConfigError, match="m"):
            parse_config(MINIMAL.replace("m = 2.0", "m = 1.0"))

    def test_solver_constraint_becomes_config_error(self):
        with pytest.raises(ConfigError, match="cfl_safety"):
            parse_config(MINIMAL.replace("t_end = 0.5", "t_end = 0.5\ncfl_safety = 0.0"))

    def test_sweep_rejects_non_numeric_target(self):
        text = MINIMAL + "\n[sweep]\nmodel.phi = 1, 2\n"
        with pytest.raises(ConfigError, match="model.m"):
            # error message lists the allowed targets
            parse_config(text)

    def test_sweep_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="numbers"):
            parse_config(MINIMAL + "\n[sweep]\nmodel.m = 2.0, tall\n")
        with pytest.raises(ConfigError, match="at least one"):
            parse_config(MINIMAL + "\n[sweep]\nmodel.m = ,\n")

    def test_lattice_constraint_becomes_config_error(self):
        text = MINIMAL + "\n[lattice]\nsites = 1\nu_max = 50\nparticles = 10\nt_end = 0.5\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_lattice_unknown_kernel(self):
        text = (
            MINIMAL
            + "\n[lattice]\nsites = 10\nu_max = 50\nparticles = 10\nt_end = 0.5\nkernel = teleport\n"
        )
        line = len(text.splitlines())
        pattern = r"line %d: option lattice\.kernel was removed; chemofront always runs kernel = pushing, got 'teleport'"
        with pytest.raises(ConfigError, match=pattern % line):
            parse_config(text)

    @pytest.mark.parametrize("kernel", ["volume_filling", "quorum_pushing"])
    def test_compare_pde_needs_the_pushing_kernel(self, kernel):
        # the kernel option is retired: every value but pushing is refused, compared or not
        text = (
            MINIMAL
            + "\n[lattice]\nsites = 10\nu_max = 50\nparticles = 10\nt_end = 0.5\n"
            + "kernel = %s\ncompare_pde = on\n" % kernel
        )
        for compare in ("on", "off"):
            with pytest.raises(ConfigError, match=r"option lattice\.kernel was removed; .* got '%s'" % kernel):
                parse_config(text.replace("compare_pde = on", "compare_pde = " + compare))
        assert parse_config(text.replace(kernel, "pushing")).lattice.compare_pde is True


# --- serialize / parse round trip -------------------------------------------


class TestSerializeRoundTrip:
    def full_config(self):
        return parse_config(
            MINIMAL.replace("m = 2.0", "m = 2.5\nphi = table 0:0,1:0.25,3:1")
            .replace("u = constant 0.5", "u = bump -0.125 0.5 0.75\nw = constant 1.0")
            + "\n[output]\ndir = run_out\nseed = 11"
            + "\n[sweep]\nmodel.mu = 0.5, 1.5"
            + "\n[lattice]\nsites = 24\nu_max = 50\nparticles = 200\nt_end = 0.125\n"
            + "kernel = pushing\nseeds = 3\ncells_per_bin = 2\n"
        )

    def test_full_config_text_is_fixed(self):
        # the exact bytes of config.cfg, key order included
        assert serialize_config(self.full_config()) == FULL_CONFIG_TEXT

    def test_round_trip_preserves_everything(self):
        cfg = self.full_config()
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_minimal(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_repr_floats_survive_exactly(self):
        text = MINIMAL.replace("m = 2.0", "m = 2.0000000000000004")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)).model.m == cfg.model.m

    def test_snapshot_initial_serializes(self, tmp_path):
        grid = Grid(cells=(8,), extent=(1.0,), origin=(0.0,))
        state = StateQuad(
            Field.full(grid, 0.5), Field.full(grid, 0.0), Field.full(grid, 1.0), Field.full(grid, 0.0)
        )
        write_snapshot(str(tmp_path / "seed.bin"), state)
        text = MINIMAL.replace("cells = 16", "cells = 8").replace("extent = 2.0", "extent = 1.0")
        text = text.replace("u = constant 0.5", "u = snapshot seed.bin u")
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.initial["u"] == SnapshotInit("seed.bin", "u")
        again = parse_config(serialize_config(cfg), base_dir=str(tmp_path))
        assert again.initial["u"] == cfg.initial["u"]


FULL_CONFIG_TEXT = """\
[model]
m = 2.5
delta = 1.0
mu = 0.0
r = 1.0
phi = table 0.0:0.0,1.0:0.25,3.0:1.0

[grid]
dim = 1
cells = 16
extent = 2.0
origin = 0.0

[solver]
t_end = 0.5
cfl_safety = 0.25
output_stride = 100

[initial]
u = bump -0.125 0.5 0.75
v = constant 0.0
w = constant 1.0
z = constant 0.0

[output]
dir = run_out
seed = 11

[sweep]
model.mu = 0.5, 1.5

[lattice]
sites = 24
u_max = 50
particles = 200
t_end = 0.125
alpha = 1.0
beta = 0.0
seeds = 3
cells_per_bin = 2
leap_fraction = 0.5
extent = 1.0
origin = 0.0
compare_pde = off
"""


def test_config_written_with_eps_reg_and_oracles_parses_equal():
    # the config.cfg of a run directory written while [model] eps_reg and [oracles] were options
    old = FULL_CONFIG_TEXT.replace("r = 1.0\n", "r = 1.0\neps_reg = 0.0\n", 1).replace(
        "\n[sweep]", "\n[oracles]\ncheck_lower = on\ncheck_upper = on\n\n[sweep]")
    assert old.count("eps_reg") == 1 and old.count("[oracles]") == 1
    assert parse_config(old) == parse_config(FULL_CONFIG_TEXT)
    assert serialize_config(parse_config(old)) == FULL_CONFIG_TEXT


def _finite(lo=-1e6, hi=1e6, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kw)


_models = st.builds(
    ModelParams,
    m=_finite(1.0, 10.0, exclude_min=True),
    delta=_finite(1.0, 10.0),
    mu=_finite(0.0, 10.0),
    r=_finite(0.0, 10.0, exclude_min=True),
    phi=st.one_of(
        st.builds(ConstantSensitivity, _finite(-1.0, 1.0)),
        st.builds(LinearSwitchSensitivity, _finite(0.0, 10.0, exclude_min=True)),
    ),
)
_solvers = st.builds(
    SolverConfig,
    t_end=_finite(0.0, 1e3),
    cfl_safety=_finite(0.0, 1.0, exclude_min=True),
    output_stride=st.integers(1, 10**6),
    dt_max=st.none() | _finite(0.0, 1.0, exclude_min=True),
)


@st.composite
def _lattices(draw):
    cells_per_bin = draw(st.integers(1, 8))
    u_max = draw(st.integers(1, 10**6))
    return LatticeConfig(
        sites=cells_per_bin * draw(st.integers(2, 50)),
        u_max=u_max,
        particles=draw(st.integers(1, 4 * u_max)),
        t_end=draw(_finite(0.0, 1e3, exclude_min=True)),
        alpha=draw(_finite(0.0)),
        beta=draw(_finite(-1.0, 1.0)),
        seeds=draw(st.integers(1, 100)),
        cells_per_bin=cells_per_bin,
        leap_fraction=draw(_finite(0.0, 1.0, exclude_min=True)),
        extent=draw(_finite(0.0, 1e6, exclude_min=True)),
        origin=draw(_finite()),
        compare_pde=draw(st.booleans()),
    )


@given(
    model=_models,
    solver=_solvers,
    lattice=st.none() | _lattices(),
)
@settings(max_examples=200, deadline=None)
def test_record_sections_round_trip(model, solver, lattice):
    cfg = parse_config(MINIMAL)
    cfg = RunConfig(model, cfg.grid, solver, cfg.initial, lattice=lattice)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


class TestParseConfigFile:
    def test_reads_file_and_resolves_snapshot_relative_to_it(self, tmp_path):
        grid = Grid(cells=(16,), extent=(2.0,), origin=(0.0,))
        state = StateQuad(
            Field.full(grid, 0.25),
            Field.full(grid, 0.0),
            Field.full(grid, 1.0),
            Field.full(grid, 0.0),
        )
        write_snapshot(str(tmp_path / "prev.bin"), state)
        text = MINIMAL.replace("u = constant 0.5", "u = snapshot prev.bin u")
        (tmp_path / "run.cfg").write_text(text, encoding="ascii")
        cfg = parse_config_file(str(tmp_path / "run.cfg"))
        built = build_initial_state(cfg, base_dir=str(tmp_path))
        assert np.all(built.u.values == 0.25)


# --- initial state construction ---------------------------------------------


class TestBuildInitialState:
    def test_builds_all_four_fields_at_t_zero(self):
        cfg = parse_config(MINIMAL.replace("u = constant 0.5", "u = bump 1.0 0.5 2.0\nw = constant 1.0"))
        state = build_initial_state(cfg)
        assert state.t == 0.0
        # peak sampled at cell centers, so slightly under the nominal height
        assert 1.9 < state.u.values.max() <= 2.0
        assert np.all(state.w.values == 1.0)
        assert np.all(state.v.values == 0.0)

    def test_negative_initial_rejected(self):
        cfg = parse_config(MINIMAL.replace("u = constant 0.5", "u = constant 0.5\nv = constant -0.1"))
        with pytest.raises(ConfigError, match="nonnegative"):
            build_initial_state(cfg)

    def test_bump_center_dimension_checked(self):
        cfg = parse_config(MINIMAL)
        bad = RunConfig(
            model=cfg.model,
            grid=cfg.grid,
            solver=cfg.solver,
            initial=dict(cfg.initial, u=BumpInit(center=(0.0, 0.0), radius=0.5, height=1.0)),
        )
        with pytest.raises(ConfigError, match="center"):
            build_initial_state(bad)


# --- snapshot files ---------------------------------------------------------


def sample_state(cells=12, dim=1):
    shape = (cells,) * dim
    grid = Grid(cells=shape, extent=(3.0,) * dim, origin=(-1.5,) * dim)
    rng = np.random.default_rng(5)
    fields = [Field(grid, rng.uniform(0.0, 2.0, size=shape)) for _ in range(4)]
    return StateQuad(*fields, t=0.7071067811865476)


class TestSnapshotRoundTrip:
    def test_values_and_time_bitwise_exact(self, tmp_path):
        state = sample_state()
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state)
        back = read_snapshot(path, origin=state.grid.origin)
        assert back.t == state.t
        assert back.grid == state.grid
        for name in ("u", "v", "w", "z"):
            assert np.array_equal(getattr(back, name).values, getattr(state, name).values)

    def test_2d_round_trip(self, tmp_path):
        state = sample_state(cells=6, dim=2)
        path = str(tmp_path / "snap2d.bin")
        write_snapshot(path, state)
        back = read_snapshot(path, origin=state.grid.origin)
        assert back.grid == state.grid
        assert np.array_equal(back.u.values, state.u.values)

    def test_origin_is_required(self, tmp_path):
        state = sample_state()
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state)
        with pytest.raises(TypeError, match="origin"):
            read_snapshot(path)

    def test_rewriting_is_byte_identical(self, tmp_path):
        state = sample_state()
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        write_snapshot(a, state)
        write_snapshot(b, read_snapshot(a, origin=state.grid.origin))
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSnapshotErrors:
    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"PNG\x00\x01\x02" + b"\n" * 8)
        with pytest.raises(SnapshotError):
            read_snapshot(str(path), origin=(0.0,))

    def test_future_version_flagged_distinctly(self, tmp_path):
        path = tmp_path / "next.bin"
        path.write_bytes(b"DCSIM2\n1\n8\n1.0\n0.0\nu v w z\n" + b"\x00" * (4 * 8 * 8))
        with pytest.raises(SnapshotVersionError, match="DCSIM2"):
            read_snapshot(str(path), origin=(0.0,))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"DCSIM1\n1\n8\n")
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(str(path), origin=(0.0,))

    def test_truncated_payload(self, tmp_path):
        state = sample_state()
        path = str(tmp_path / "cut.bin")
        write_snapshot(path, state)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(SnapshotError, match="bytes"):
            read_snapshot(path, origin=state.grid.origin)

    def test_wrong_field_order(self, tmp_path):
        path = tmp_path / "swapped.bin"
        path.write_bytes(b"DCSIM1\n1\n8\n1.0\n0.0\nz w v u\n" + b"\x00" * (4 * 8 * 8))
        with pytest.raises(SnapshotError, match="field order"):
            read_snapshot(str(path), origin=(0.0,))

    @pytest.mark.parametrize("name, index", [("u", 3), ("z", 4 * 8 - 1)])
    def test_non_finite_payload_names_the_file_and_field(self, tmp_path, name, index):
        path = tmp_path / "nan.bin"
        payload = np.zeros(4 * 8)
        payload[index] = np.nan
        path.write_bytes(b"DCSIM1\n1\n8\n1.0\n0.0\nu v w z\n" + payload.astype("<f8").tobytes())
        with pytest.raises(SnapshotError, match=r"bad snapshot payload in '%s': %s field contains non-finite" % (re.escape(str(path)), name)):
            read_snapshot(str(path), origin=(0.0,))

    @pytest.mark.parametrize(
        "cells, extent, t, fragment",
        [
            (b"2", b"1.0", b"0.0", "at least 4 cells"),
            (b"8", b"-1.0", b"0.0", "extent must be positive"),
            (b"8", b"nan", b"0.0", "extent must be positive"),
            (b"8", b"1.0", b"inf", "time inf is not finite"),
        ],
    )
    def test_header_the_grid_refuses_names_the_file(self, tmp_path, cells, extent, t, fragment):
        path = tmp_path / "header.bin"
        path.write_bytes(b"DCSIM1\n1\n%s\n%s\n%s\nu v w z\n" % (cells, extent, t) + b"\x00" * (4 * 8 * 8))
        with pytest.raises(SnapshotError, match=r"bad snapshot header in '%s' \(.*%s" % (re.escape(str(path)), fragment)):
            read_snapshot(str(path), origin=(0.0,))

    def test_axis_count_mismatch(self, tmp_path):
        path = tmp_path / "axes.bin"
        path.write_bytes(b"DCSIM1\n2\n8\n1.0 1.0\n0.0\nu v w z\n" + b"\x00" * (4 * 8 * 8))
        with pytest.raises(SnapshotError, match="axes"):
            read_snapshot(str(path), origin=(0.0,))


# --- history CSV ------------------------------------------------------------


def sample_history(rows=5):
    history = FrontHistory()
    rng = np.random.default_rng(9)
    for i in range(rows):
        history.append((float(i),) + tuple(rng.uniform(0.0, 3.0, size=len(HISTORY_COLUMNS) - 1)))
    return history


class TestHistoryCsv:
    def test_round_trip_exact(self, tmp_path):
        history = sample_history()
        path = str(tmp_path / "history.csv")
        write_history_csv(path, history)
        back = read_history_csv(path)
        assert np.array_equal(np.asarray(back.rows), np.asarray(history.rows))

    def test_header_is_the_column_tuple(self, tmp_path):
        path = str(tmp_path / "history.csv")
        write_history_csv(path, sample_history(1))
        header = open(path, "r", encoding="ascii").readline().strip()
        assert tuple(header.split(",")) == HISTORY_COLUMNS

    def test_column_mismatch_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("t,sup_u\n0.0,1.0\n", encoding="ascii")
        with pytest.raises(ConfigError, match="columns"):
            read_history_csv(str(path))

    def test_read_csv_columns_generic(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n3,4\n", encoding="ascii")
        cols = read_csv_columns(str(path))
        assert np.array_equal(cols["a"], [1.0, 3.0])
        assert np.array_equal(cols["b"], [2.0, 4.0])

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("", "empty"),
            ("a,b\n1\n", "fields"),
            ("a,b\n1,x\n", "not a number"),
            ("t,t,support_radius\n0,0,1\n", "repeats column 't'"),
        ],
    )
    def test_csv_errors(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="ascii")
        with pytest.raises(ConfigError, match=fragment):
            read_csv_columns(str(path))

    def test_streaming_writer_matches_batch_writer(self, tmp_path):
        from chemofront.config_io import HistoryCsvWriter

        history = sample_history()
        batch = str(tmp_path / "batch.csv")
        stream = str(tmp_path / "stream.csv")
        write_history_csv(batch, history)
        writer = HistoryCsvWriter(stream)
        for row in history.rows:
            writer(row)
        writer.close()
        assert open(batch, "rb").read() == open(stream, "rb").read()

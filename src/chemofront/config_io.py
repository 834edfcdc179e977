"""Run configuration files, binary snapshots and CSV tables.

Config files are line oriented, `key = value` entries under bracketed
section headers, with `#` comments.  Unknown sections or keys are errors,
as are malformed values; error messages carry the line number.

Snapshots are a 6-line ASCII header (magic, dim, cells per axis, extent per
axis, time, field order) followed by the four fields as raw little-endian
float64 in row-major order.  The header does not carry the domain origin;
readers that care (the verify command) take it from the run's config file,
otherwise the origin defaults to zero.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .diagnostics import HISTORY_COLUMNS, FrontHistory
from .model import (
    ConstantSensitivity,
    Field,
    Grid,
    LinearSwitchSensitivity,
    ModelParams,
    StateQuad,
    TabulatedSensitivity,
)
from .solver import SolverConfig

__all__ = [
    "ConfigError",
    "SnapshotError",
    "SnapshotVersionError",
    "BumpInit",
    "ConstantInit",
    "SnapshotInit",
    "OracleToggles",
    "LatticeConfig",
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "build_initial_state",
    "write_snapshot",
    "read_snapshot",
    "write_history_csv",
    "read_history_csv",
    "read_csv_columns",
]

SNAPSHOT_MAGIC = "DCSIM1"
FIELD_ORDER = ("u", "v", "w", "z")


class ConfigError(Exception):
    """Bad configuration text: syntax, unknown key, or constraint violation."""


class SnapshotError(Exception):
    """Malformed snapshot file (bad header or truncated payload)."""


class SnapshotVersionError(SnapshotError):
    """Snapshot written by an incompatible format version."""


# --- initial conditions -----------------------------------------------------


@dataclass(frozen=True)
class BumpInit:
    """Quadratic bump height * (1 - |x - center|^2 / radius^2)_+ ."""

    center: tuple[float, ...]
    radius: float
    height: float

    def build(self, grid: Grid, base_dir: str) -> np.ndarray:
        if len(self.center) != grid.dim:
            raise ConfigError("bump center needs %d coordinates" % grid.dim)
        d2 = grid.center_distance2(self.center)
        return self.height * np.clip(1.0 - d2 / (self.radius * self.radius), 0.0, None)


@dataclass(frozen=True)
class ConstantInit:
    value: float

    def build(self, grid: Grid, base_dir: str) -> np.ndarray:
        return np.full(grid.cells, self.value)


@dataclass(frozen=True)
class SnapshotInit:
    path: str
    field_name: str

    def build(self, grid: Grid, base_dir: str) -> np.ndarray:
        state = read_snapshot(os.path.join(base_dir, self.path), origin=grid.origin)
        if state.grid != grid:
            raise ConfigError(
                "snapshot %r grid %r does not match configured grid %r"
                % (self.path, state.grid.cells, grid.cells)
            )
        return getattr(state, self.field_name).values.copy()


@dataclass(frozen=True)
class OracleToggles:
    check_lower: bool = True
    check_upper: bool = True


@dataclass(frozen=True)
class LatticeConfig:
    sites: int
    u_max: int
    particles: int
    t_end: float
    alpha: float = 1.0
    beta: float = 0.0
    kernel: str = "pushing"
    seeds: int = 1
    cells_per_bin: int = 1
    leap_fraction: float = 0.5
    extent: float = 1.0
    origin: float = 0.0
    compare_pde: bool = False

    def __post_init__(self):
        if self.sites < 2 or self.u_max < 1 or self.particles < 1:
            raise ValueError("lattice sites, u_max and particles must be positive")
        if not (self.t_end > 0):
            raise ValueError("lattice t_end must be positive")
        if self.seeds < 1:
            raise ValueError("lattice needs at least one seed")
        if self.sites % self.cells_per_bin != 0:
            raise ValueError("cells_per_bin must divide sites")
        if not (0 < self.leap_fraction <= 1):
            raise ValueError("leap_fraction must lie in (0, 1]")
        if not (self.extent > 0):
            raise ValueError("lattice extent must be positive")


@dataclass
class RunConfig:
    model: ModelParams
    grid: Grid
    solver: SolverConfig
    initial: dict
    oracles: OracleToggles = dc_field(default_factory=OracleToggles)
    out_dir: str = "out"
    seed: int = 0
    sweep: dict = dc_field(default_factory=dict)
    lattice: LatticeConfig | None = None


# --- parsing ----------------------------------------------------------------

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}

# sweeps vary numeric knobs only; rules like phi need a separate config file
_SWEEPABLE = {
    "model.m",
    "model.delta",
    "model.mu",
    "model.r",
    "model.eps_reg",
    "solver.t_end",
    "solver.cfl_safety",
    "solver.dt_max",
}

_SECTIONS = ("model", "grid", "solver", "initial", "output", "oracles", "sweep", "lattice")

_KEYS = {
    "model": {"m", "delta", "mu", "r", "eps_reg", "phi"},
    "grid": {"dim", "cells", "extent", "origin"},
    "solver": {
        "t_end",
        "cfl_safety",
        "output_stride",
        "clip_negative",
        "chemo_upwind",
        "v_z_stepper",
        "dt_max",
    },
    "initial": {"u", "v", "w", "z"},
    "output": {"dir", "seed"},
    "oracles": {"check_lower", "check_upper"},
    "lattice": {
        "sites",
        "u_max",
        "particles",
        "t_end",
        "alpha",
        "beta",
        "kernel",
        "seeds",
        "cells_per_bin",
        "leap_fraction",
        "extent",
        "origin",
        "compare_pde",
    },
}


def _tokenize(text: str):
    """Split config text into {section: {key: (raw_value, line_no)}}."""
    sections: dict[str, dict] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError("line %d: unknown section [%s]" % (line_no, name))
            if name in sections:
                raise ConfigError("line %d: duplicate section [%s]" % (line_no, name))
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (line_no, raw.strip()))
        if current is None:
            raise ConfigError("line %d: entry before any section header" % line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        known = _KEYS.get(current)
        if known is not None and key not in known:
            raise ConfigError("line %d: unknown key %r in section [%s]" % (line_no, key, current))
        if key in sections[current]:
            raise ConfigError("line %d: duplicate key %r in section [%s]" % (line_no, key, current))
        sections[current][key] = (value, line_no)
    return sections


def _want_float(sections, section, key, default=None):
    item = sections.get(section, {}).get(key)
    if item is None:
        if default is None:
            raise ConfigError("missing required key %r in section [%s]" % (key, section))
        return default
    value, line_no = item
    try:
        return float(value)
    except ValueError:
        raise ConfigError("line %d: %s.%s must be a number, got %r" % (line_no, section, key, value)) from None


def _want_int(sections, section, key, default=None):
    item = sections.get(section, {}).get(key)
    if item is None:
        if default is None:
            raise ConfigError("missing required key %r in section [%s]" % (key, section))
        return default
    value, line_no = item
    try:
        return int(value)
    except ValueError:
        raise ConfigError("line %d: %s.%s must be an integer, got %r" % (line_no, section, key, value)) from None


def _want_bool(sections, section, key, default):
    item = sections.get(section, {}).get(key)
    if item is None:
        return default
    value, line_no = item
    word = value.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError("line %d: %s.%s must be on/off, got %r" % (line_no, section, key, value))
    return _BOOL_WORDS[word]


def _want_str(sections, section, key, default=None):
    item = sections.get(section, {}).get(key)
    if item is None:
        if default is None:
            raise ConfigError("missing required key %r in section [%s]" % (key, section))
        return default
    return item[0]


def _float_list(sections, section, key, count, default=None):
    item = sections.get(section, {}).get(key)
    if item is None:
        if default is None:
            raise ConfigError("missing required key %r in section [%s]" % (key, section))
        return default
    value, line_no = item
    parts = [p for p in (s.strip() for s in value.split(",")) if p]
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(
            "line %d: %s.%s must be comma-separated numbers (e.g. '64, 64'), got %r"
            % (line_no, section, key, value)
        ) from None
    if len(nums) == 1:
        nums = nums * count
    if len(nums) != count:
        raise ConfigError(
            "line %d: %s.%s needs %d comma-separated values, got %d"
            % (line_no, section, key, count, len(nums))
        )
    return nums


def _parse_phi(value: str, line_no: int):
    parts = value.split()
    try:
        if parts[0] == "constant":
            return ConstantSensitivity(float(parts[1]))
        if parts[0] == "linear_switch":
            return LinearSwitchSensitivity(float(parts[1]))
        if parts[0] == "table":
            pairs = "".join(parts[1:]).split(",")
            us, ps = [], []
            for pair in pairs:
                a, b = pair.split(":")
                us.append(float(a))
                ps.append(float(b))
            return TabulatedSensitivity(tuple(us), tuple(ps))
    except ConfigError:
        raise
    except (IndexError, ValueError) as exc:
        raise ConfigError("line %d: bad phi rule %r (%s)" % (line_no, value, exc)) from None
    raise ConfigError("line %d: phi must be constant/linear_switch/table, got %r" % (line_no, value))


def _parse_initial(value: str, line_no: int, dim: int, base_dir: str):
    parts = value.split()
    try:
        if parts[0] == "constant":
            return ConstantInit(float(parts[1]))
        if parts[0] == "bump":
            nums = [float(p) for p in parts[1:]]
            if len(nums) != dim + 2:
                raise ConfigError(
                    "line %d: bump needs %d numbers (center, radius, height), got %d"
                    % (line_no, dim + 2, len(nums))
                )
            center, radius, height = tuple(nums[:dim]), nums[dim], nums[dim + 1]
            if radius <= 0:
                raise ConfigError("line %d: bump radius must be positive" % line_no)
            if height < 0:
                raise ConfigError("line %d: bump height must be >= 0" % line_no)
            return BumpInit(center, radius, height)
        if parts[0] == "snapshot":
            if len(parts) != 3 or parts[2] not in FIELD_ORDER:
                raise ConfigError(
                    "line %d: snapshot initial takes a path and a field name (u/v/w/z)" % line_no
                )
            path = parts[1]
            full = os.path.join(base_dir, path)
            if not os.path.exists(full):
                raise ConfigError("line %d: snapshot path %r does not exist" % (line_no, full))
            return SnapshotInit(path, parts[2])
    except ConfigError:
        raise
    except (IndexError, ValueError) as exc:
        raise ConfigError("line %d: bad initial condition %r (%s)" % (line_no, value, exc)) from None
    raise ConfigError("line %d: initial must be constant/bump/snapshot, got %r" % (line_no, value))


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    sections = _tokenize(text)
    for required in ("model", "grid", "solver", "initial"):
        if required not in sections:
            raise ConfigError("missing required section [%s]" % required)

    dim = _want_int(sections, "grid", "dim")
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2, got %d" % dim)
    cells_f = _float_list(sections, "grid", "cells", dim)
    cells = tuple(int(c) for c in cells_f)
    if any(abs(c - cf) > 0 for c, cf in zip(cells, cells_f)):
        raise ConfigError("grid.cells must be integers")
    extent = tuple(_float_list(sections, "grid", "extent", dim))
    origin = tuple(_float_list(sections, "grid", "origin", dim, default=[0.0] * dim))

    phi_item = sections.get("model", {}).get("phi")
    if phi_item is None:
        phi = ConstantSensitivity(1.0)
    else:
        phi = _parse_phi(phi_item[0], phi_item[1])

    try:
        grid = Grid(cells=cells, extent=extent, origin=origin)
        model = ModelParams(
            m=_want_float(sections, "model", "m"),
            delta=_want_float(sections, "model", "delta", 1.0),
            mu=_want_float(sections, "model", "mu", 0.0),
            r=_want_float(sections, "model", "r", 1.0),
            phi=phi,
            eps_reg=_want_float(sections, "model", "eps_reg", 0.0),
        )
        dt_max_item = sections.get("solver", {}).get("dt_max")
        solver = SolverConfig(
            t_end=_want_float(sections, "solver", "t_end"),
            cfl_safety=_want_float(sections, "solver", "cfl_safety", 0.25),
            output_stride=_want_int(sections, "solver", "output_stride", 100),
            clip_negative=_want_bool(sections, "solver", "clip_negative", True),
            chemo_upwind=_want_bool(sections, "solver", "chemo_upwind", True),
            v_z_stepper=_want_str(sections, "solver", "v_z_stepper", "semi-implicit"),
            dt_max=None if dt_max_item is None else _want_float(sections, "solver", "dt_max"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    initial = {}
    for name in FIELD_ORDER:
        item = sections.get("initial", {}).get(name)
        if item is None:
            if name == "u":
                raise ConfigError("missing required key 'u' in section [initial]")
            initial[name] = ConstantInit(0.0)
        else:
            initial[name] = _parse_initial(item[0], item[1], dim, base_dir)

    oracles = OracleToggles(
        check_lower=_want_bool(sections, "oracles", "check_lower", True),
        check_upper=_want_bool(sections, "oracles", "check_upper", True),
    )

    sweep = {}
    for key, (value, line_no) in sections.get("sweep", {}).items():
        if key not in _SWEEPABLE:
            raise ConfigError(
                "line %d: sweep target %r is not a numeric model/solver parameter "
                "(allowed: %s)" % (line_no, key, ", ".join(sorted(_SWEEPABLE)))
            )
        try:
            values = tuple(float(p) for p in value.split(",") if p.strip())
        except ValueError:
            raise ConfigError("line %d: sweep values must be numbers, got %r" % (line_no, value)) from None
        if not values:
            raise ConfigError("line %d: sweep needs at least one value" % line_no)
        sweep[key] = values

    lattice = None
    if "lattice" in sections:
        try:
            lattice = LatticeConfig(
                sites=_want_int(sections, "lattice", "sites"),
                u_max=_want_int(sections, "lattice", "u_max"),
                particles=_want_int(sections, "lattice", "particles"),
                t_end=_want_float(sections, "lattice", "t_end"),
                alpha=_want_float(sections, "lattice", "alpha", 1.0),
                beta=_want_float(sections, "lattice", "beta", 0.0),
                kernel=_want_str(sections, "lattice", "kernel", "pushing"),
                seeds=_want_int(sections, "lattice", "seeds", 1),
                cells_per_bin=_want_int(sections, "lattice", "cells_per_bin", 1),
                leap_fraction=_want_float(sections, "lattice", "leap_fraction", 0.5),
                extent=_want_float(sections, "lattice", "extent", 1.0),
                origin=_want_float(sections, "lattice", "origin", 0.0),
                compare_pde=_want_bool(sections, "lattice", "compare_pde", False),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if lattice.kernel not in ("volume_filling", "pushing", "quorum_pushing"):
            raise ConfigError("lattice.kernel must be a known kernel, got %r" % lattice.kernel)

    return RunConfig(
        model=model,
        grid=grid,
        solver=solver,
        initial=initial,
        oracles=oracles,
        out_dir=_want_str(sections, "output", "dir", "out"),
        seed=_want_int(sections, "output", "seed", 0),
        sweep=sweep,
        lattice=lattice,
    )


def parse_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


# --- serialization ----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(xs) -> str:
    return ", ".join(_fmt(x) for x in xs)


def _phi_text(phi) -> str:
    if isinstance(phi, ConstantSensitivity):
        return "constant %s" % _fmt(phi.value)
    if isinstance(phi, LinearSwitchSensitivity):
        return "linear_switch %s" % _fmt(phi.u_star)
    if isinstance(phi, TabulatedSensitivity):
        return "table " + ",".join(
            "%s:%s" % (_fmt(u), _fmt(p)) for u, p in zip(phi.nodes_u, phi.nodes_phi)
        )
    raise ConfigError("cannot serialize phi rule %r" % (phi,))


def _initial_text(init) -> str:
    if isinstance(init, ConstantInit):
        return "constant %s" % _fmt(init.value)
    if isinstance(init, BumpInit):
        nums = list(init.center) + [init.radius, init.height]
        return "bump " + " ".join(_fmt(x) for x in nums)
    if isinstance(init, SnapshotInit):
        return "snapshot %s %s" % (init.path, init.field_name)
    raise ConfigError("cannot serialize initial condition %r" % (init,))


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    w = out.write
    w("[model]\n")
    w("m = %s\n" % _fmt(cfg.model.m))
    w("delta = %s\n" % _fmt(cfg.model.delta))
    w("mu = %s\n" % _fmt(cfg.model.mu))
    w("r = %s\n" % _fmt(cfg.model.r))
    w("eps_reg = %s\n" % _fmt(cfg.model.eps_reg))
    w("phi = %s\n" % _phi_text(cfg.model.phi))
    w("\n[grid]\n")
    w("dim = %d\n" % cfg.grid.dim)
    w("cells = %s\n" % ", ".join(str(c) for c in cfg.grid.cells))
    w("extent = %s\n" % _fmt_list(cfg.grid.extent))
    w("origin = %s\n" % _fmt_list(cfg.grid.origin))
    w("\n[solver]\n")
    w("t_end = %s\n" % _fmt(cfg.solver.t_end))
    w("cfl_safety = %s\n" % _fmt(cfg.solver.cfl_safety))
    w("output_stride = %d\n" % cfg.solver.output_stride)
    w("clip_negative = %s\n" % ("on" if cfg.solver.clip_negative else "off"))
    w("chemo_upwind = %s\n" % ("on" if cfg.solver.chemo_upwind else "off"))
    w("v_z_stepper = %s\n" % cfg.solver.v_z_stepper)
    if cfg.solver.dt_max is not None:
        w("dt_max = %s\n" % _fmt(cfg.solver.dt_max))
    w("\n[initial]\n")
    for name in FIELD_ORDER:
        w("%s = %s\n" % (name, _initial_text(cfg.initial[name])))
    w("\n[output]\n")
    w("dir = %s\n" % cfg.out_dir)
    w("seed = %d\n" % cfg.seed)
    w("\n[oracles]\n")
    w("check_lower = %s\n" % ("on" if cfg.oracles.check_lower else "off"))
    w("check_upper = %s\n" % ("on" if cfg.oracles.check_upper else "off"))
    if cfg.sweep:
        w("\n[sweep]\n")
        for key, values in cfg.sweep.items():
            w("%s = %s\n" % (key, _fmt_list(values)))
    if cfg.lattice is not None:
        lat = cfg.lattice
        w("\n[lattice]\n")
        w("sites = %d\n" % lat.sites)
        w("u_max = %d\n" % lat.u_max)
        w("particles = %d\n" % lat.particles)
        w("t_end = %s\n" % _fmt(lat.t_end))
        w("alpha = %s\n" % _fmt(lat.alpha))
        w("beta = %s\n" % _fmt(lat.beta))
        w("kernel = %s\n" % lat.kernel)
        w("seeds = %d\n" % lat.seeds)
        w("cells_per_bin = %d\n" % lat.cells_per_bin)
        w("leap_fraction = %s\n" % _fmt(lat.leap_fraction))
        w("extent = %s\n" % _fmt(lat.extent))
        w("origin = %s\n" % _fmt(lat.origin))
        w("compare_pde = %s\n" % ("on" if lat.compare_pde else "off"))
    return out.getvalue()


def build_initial_state(cfg: RunConfig, base_dir: str = ".") -> StateQuad:
    fields = {}
    for name in FIELD_ORDER:
        values = cfg.initial[name].build(cfg.grid, base_dir)
        if np.any(values < 0.0):
            raise ConfigError("initial %s must be nonnegative" % name)
        fields[name] = Field(cfg.grid, values)
    return StateQuad(fields["u"], fields["v"], fields["w"], fields["z"], t=0.0)


# --- snapshots --------------------------------------------------------------


def write_snapshot(path: str, state: StateQuad) -> None:
    grid = state.grid
    header = "%s\n%d\n%s\n%s\n%s\n%s\n" % (
        SNAPSHOT_MAGIC,
        grid.dim,
        " ".join(str(c) for c in grid.cells),
        " ".join("%.17g" % e for e in grid.extent),
        "%.17g" % state.t,
        " ".join(FIELD_ORDER),
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name in FIELD_ORDER:
            fh.write(np.ascontiguousarray(getattr(state, name).values, dtype="<f8").tobytes())


def read_snapshot(path: str, origin=None) -> StateQuad:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 6)
    if len(parts) < 7:
        raise SnapshotError("truncated snapshot header in %r" % path)
    try:
        magic = parts[0].decode("ascii")
    except UnicodeDecodeError:
        raise SnapshotError("%r is not a snapshot file" % path) from None
    if magic != SNAPSHOT_MAGIC:
        if magic.startswith("DCSIM"):
            raise SnapshotVersionError(
                "snapshot version %r is not supported (expected %s)" % (magic, SNAPSHOT_MAGIC)
            )
        raise SnapshotError("%r is not a snapshot file (bad magic %r)" % (path, magic))
    try:
        dim = int(parts[1])
        cells = tuple(int(c) for c in parts[2].split())
        extent = tuple(float(e) for e in parts[3].split())
        t = float(parts[4])
        order = tuple(parts[5].decode("ascii").split())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError("bad snapshot header in %r (%s)" % (path, exc)) from None
    if len(cells) != dim or len(extent) != dim:
        raise SnapshotError("snapshot header in %r has %d axes but dim %d" % (path, len(cells), dim))
    if order != FIELD_ORDER:
        raise SnapshotError("snapshot field order %r is not %r" % (order, FIELD_ORDER))
    if origin is None:
        origin = (0.0,) * dim
    grid = Grid(cells=cells, extent=extent, origin=tuple(origin))
    payload = parts[6]
    n = grid.n_cells
    expected = 4 * n * 8
    if len(payload) != expected:
        raise SnapshotError(
            "snapshot payload in %r has %d bytes, expected %d" % (path, len(payload), expected)
        )
    fields = []
    for i in range(4):
        arr = np.frombuffer(payload[i * n * 8 : (i + 1) * n * 8], dtype="<f8").astype(
            np.float64
        ).reshape(grid.cells)
        fields.append(Field(grid, arr))
    return StateQuad(*fields, t=t)


# --- CSV --------------------------------------------------------------------


def write_history_csv(path: str, history: FrontHistory) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history.rows:
            fh.write(",".join("%.17g" % x for x in row) + "\n")


class HistoryCsvWriter:
    """Streaming writer used by the run command; same format as write_history_csv."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="ascii", newline="\n")
        self._fh.write(",".join(HISTORY_COLUMNS) + "\n")

    def __call__(self, row) -> None:
        self._fh.write(",".join("%.17g" % x for x in row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_csv_columns(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError("CSV %r is empty" % path)
    names = [c.strip() for c in lines[0].split(",")]
    data = {name: [] for name in names}
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ConfigError("CSV %r line %d has %d fields, expected %d" % (path, i, len(parts), len(names)))
        for name, part in zip(names, parts):
            try:
                data[name].append(float(part))
            except ValueError:
                raise ConfigError("CSV %r line %d: %r is not a number" % (path, i, part)) from None
    return {name: np.asarray(vals) for name, vals in data.items()}


def read_history_csv(path: str) -> FrontHistory:
    cols = read_csv_columns(path)
    if tuple(cols.keys()) != HISTORY_COLUMNS:
        raise ConfigError(
            "history CSV %r columns %r do not match %r" % (path, tuple(cols.keys()), HISTORY_COLUMNS)
        )
    history = FrontHistory()
    arrays = [cols[name] for name in HISTORY_COLUMNS]
    for row in zip(*arrays):
        history.append(row)
    return history

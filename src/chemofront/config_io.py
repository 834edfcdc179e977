"""Run configuration files, binary snapshots and CSV tables.

Config files are line oriented, `key = value` entries under bracketed
section headers, with `#` comments.  Unknown sections or keys are errors,
as are malformed values; error messages carry the line number.  Every
number must be finite.

The keys of [model], [solver] and [lattice] are the fields of
ModelParams, SolverConfig and LatticeConfig, with those records' defaults;
a field's type (float, int, bool, str) says how its value is read and
written.  [grid], [initial], [output], [sweep] and the phi rule of [model]
are parsed and written by hand.

Options that only ever held one value were removed (_RETIRED): the solver's
clip_negative, chemo_upwind and v_z_stepper, the lattice's kernel, the
model's eps_reg, and check_lower and check_upper, the only keys [oracles]
had.  Config files written before, every run directory's config.cfg among
them, still carry them at the kept values (on, on, semi-implicit, pushing,
0.0, on, on); such a line is read and ignored, any other value is an error.

Snapshots are a 6-line ASCII header (magic, dim, cells per axis, extent per
axis, time, field order) followed by the four fields as raw little-endian
float64 in row-major order.  The header does not carry the domain origin;
every reader passes it, and the verify command takes it from the run's
config file.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .diagnostics import HISTORY_COLUMNS, FrontHistory
from .lattice import LatticeConfig
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
    """Malformed snapshot file (bad header, truncated or non-finite payload)."""


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


@dataclass
class RunConfig:
    model: ModelParams
    grid: Grid
    solver: SolverConfig
    initial: dict
    out_dir: str = "out"
    seed: int = 0
    sweep: dict = dc_field(default_factory=dict)
    lattice: LatticeConfig | None = None


# --- parsing ----------------------------------------------------------------

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}

# the sections whose keys are the fields of a record
_RECORDS = {
    "model": ModelParams,
    "solver": SolverConfig,
    "lattice": LatticeConfig,
}

# field types a config value converts to; a field of any other type (phi) is parsed by hand
_SCALAR_TYPES = ("float", "float | None", "int", "bool", "str")


def _scalar_fields(record_type) -> list:
    return [f for f in dataclasses.fields(record_type) if f.type in _SCALAR_TYPES]


# sweeps vary numeric knobs only; rules like phi need a separate config file
_SWEEPABLE = {
    "%s.%s" % (name, f.name)
    for name in ("model", "solver")
    for f in _scalar_fields(_RECORDS[name])
    if f.type.startswith("float")
}

# retired keys, each with the field type its value was read as and the one value still accepted
_RETIRED = {
    ("solver", "clip_negative"): ("bool", True),
    ("solver", "chemo_upwind"): ("bool", True),
    ("solver", "v_z_stepper"): ("str", "semi-implicit"),
    ("lattice", "kernel"): ("str", "pushing"),
    ("model", "eps_reg"): ("float", 0.0),
    ("oracles", "check_lower"): ("bool", True),
    ("oracles", "check_upper"): ("bool", True),
}

_SECTIONS = ("model", "grid", "solver", "initial", "output", "oracles", "sweep", "lattice")

_KEYS = {
    "grid": {"dim", "cells", "extent", "origin"},
    "initial": {"u", "v", "w", "z"},
    "output": {"dir", "seed"},
    "oracles": set(),
    **{name: {f.name for f in dataclasses.fields(record)} for name, record in _RECORDS.items()},
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
        retired = _RETIRED.get((current, key))
        if known is not None and key not in known and retired is None:
            raise ConfigError("line %d: unknown key %r in section [%s]" % (line_no, key, current))
        if key in sections[current]:
            raise ConfigError("line %d: duplicate key %r in section [%s]" % (line_no, key, current))
        if retired is not None:
            _check_retired(current, key, value, line_no, *retired)
        sections[current][key] = (value, line_no)
    return sections


def _convert(kind: str, text: str, line_no: int, where: str, expected: str | None = None):
    """Read `text` as a value of field type `kind`; every number read must be finite.

    `where` names the value in error messages, and `expected` overrides the
    wording of what a number that does not parse should have been.
    """
    if kind == "str":
        return text
    if kind == "bool":
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError("line %d: %s must be on/off, got %r" % (line_no, where, text))
        return _BOOL_WORDS[word]
    try:
        value = int(text) if kind == "int" else float(text)
    except ValueError:
        expected = expected or ("an integer" if kind == "int" else "a number")
        raise ConfigError("line %d: %s must be %s, got %r" % (line_no, where, expected, text)) from None
    if not math.isfinite(value):
        raise ConfigError("line %d: %s must be a finite number, got %r" % (line_no, where, text))
    return value


def _check_retired(section: str, key: str, text: str, line_no: int, kind: str, kept) -> None:
    """Accept a retired key only at the value chemofront always uses now."""
    where = "%s.%s" % (section, key)
    try:
        ok = _convert(kind, text, line_no, where) == kept
    except ConfigError:
        ok = False
    if not ok:
        raise ConfigError(
            "line %d: option %s was removed; chemofront always runs %s = %s, got %r"
            % (line_no, where, key, _value_text(kind, kept), text)
        )


def _entry(sections, section, key):
    """The (raw_value, line_no) of a key that must be present."""
    item = sections.get(section, {}).get(key)
    if item is None:
        raise ConfigError("missing required key %r in section [%s]" % (key, section))
    return item


def _get(sections, section, key, kind, default=dataclasses.MISSING):
    """section.key read as field type `kind`, or `default` when the key is absent."""
    if default is not dataclasses.MISSING and key not in sections.get(section, {}):
        return default
    value, line_no = _entry(sections, section, key)
    return _convert(kind, value, line_no, "%s.%s" % (section, key))


def _record(sections, name, **given):
    """The record of section [name]: its scalar fields read or defaulted, plus `given`."""
    record_type = _RECORDS[name]
    for f in _scalar_fields(record_type):
        given[f.name] = _get(sections, name, f.name, f.type, f.default)
    try:
        return record_type(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _numbers(value: str, line_no: int, where: str, expected: str) -> list:
    """The comma-separated numbers of a config value; empty items are skipped."""
    return [_convert("float", p, line_no, where, expected) for p in (s.strip() for s in value.split(",")) if p]


def _float_list(sections, key, count):
    value, line_no = _entry(sections, "grid", key)
    nums = _numbers(value, line_no, "grid." + key, "comma-separated numbers (e.g. '64, 64')")
    if len(nums) == 1:
        nums = nums * count
    if len(nums) != count:
        raise ConfigError(
            "line %d: grid.%s needs %d comma-separated values, got %d"
            % (line_no, key, count, len(nums))
        )
    return nums


def _parse_phi(value: str, line_no: int):
    parts = value.split()
    try:
        if parts[0] == "constant":
            return ConstantSensitivity(_convert("float", parts[1], line_no, "model.phi"))
        if parts[0] == "linear_switch":
            return LinearSwitchSensitivity(_convert("float", parts[1], line_no, "model.phi"))
        if parts[0] == "table":
            pairs = "".join(parts[1:]).split(",")
            us, ps = [], []
            for pair in pairs:
                a, b = pair.split(":")
                us.append(_convert("float", a, line_no, "model.phi"))
                ps.append(_convert("float", b, line_no, "model.phi"))
            return TabulatedSensitivity(tuple(us), tuple(ps))
    except ConfigError:
        raise
    except (IndexError, ValueError) as exc:
        raise ConfigError("line %d: bad phi rule %r (%s)" % (line_no, value, exc)) from None
    raise ConfigError("line %d: phi must be constant/linear_switch/table, got %r" % (line_no, value))


def _parse_initial(value: str, line_no: int, where: str, dim: int, base_dir: str):
    parts = value.split()
    try:
        if parts[0] == "constant":
            return ConstantInit(_convert("float", parts[1], line_no, where))
        if parts[0] == "bump":
            nums = [_convert("float", p, line_no, where) for p in parts[1:]]
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

    dim = _get(sections, "grid", "dim", "int")
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2, got %d" % dim)
    cells_f = _float_list(sections, "cells", dim)
    cells = tuple(int(c) for c in cells_f)
    if any(abs(c - cf) > 0 for c, cf in zip(cells, cells_f)):
        raise ConfigError("grid.cells must be integers")
    extent = tuple(_float_list(sections, "extent", dim))
    origin = tuple(_float_list(sections, "origin", dim)) if "origin" in sections["grid"] else (0.0,) * dim
    try:
        grid = Grid(cells=cells, extent=extent, origin=origin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    given = {"phi": _parse_phi(*sections["model"]["phi"])} if "phi" in sections["model"] else {}
    model = _record(sections, "model", **given)
    solver = _record(sections, "solver")

    initial = {}
    for name in FIELD_ORDER:
        item = sections.get("initial", {}).get(name)
        if item is None:
            if name == "u":
                raise ConfigError("missing required key 'u' in section [initial]")
            initial[name] = ConstantInit(0.0)
        else:
            initial[name] = _parse_initial(item[0], item[1], "initial." + name, dim, base_dir)

    # each sweep value must make a valid record, so that no case fails on it later
    swept = {"model": model, "solver": solver}
    sweep = {}
    for key, (value, line_no) in sections.get("sweep", {}).items():
        if key not in _SWEEPABLE:
            raise ConfigError(
                "line %d: sweep target %r is not a numeric model/solver parameter "
                "(allowed: %s)" % (line_no, key, ", ".join(sorted(_SWEEPABLE)))
            )
        values = tuple(_numbers(value, line_no, "sweep." + key, "comma-separated numbers"))
        if not values:
            raise ConfigError("line %d: sweep needs at least one value" % line_no)
        section, param = key.split(".")
        for v in values:
            try:
                dataclasses.replace(swept[section], **{param: v})
            except ValueError as exc:
                raise ConfigError("line %d: sweep.%s value %r: %s" % (line_no, key, v, exc)) from None
        sweep[key] = values

    return RunConfig(
        model=model,
        grid=grid,
        solver=solver,
        initial=initial,
        out_dir=_get(sections, "output", "dir", "str", "out"),
        seed=_get(sections, "output", "seed", "int", 0),
        sweep=sweep,
        lattice=_record(sections, "lattice") if "lattice" in sections else None,
    )


def parse_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


# --- serialization ----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(xs) -> str:
    return ", ".join(_fmt(x) for x in xs)


def _value_text(kind: str, value) -> str:
    if kind == "bool":
        return "on" if value else "off"
    if kind == "int":
        return "%d" % value
    if kind == "str":
        return value
    return _fmt(value)


def _record_text(name: str, record) -> str:
    """Section [name] of a record, one line per scalar field; a None field is left out."""
    lines = ["[%s]\n" % name]
    for f in _scalar_fields(type(record)):
        value = getattr(record, f.name)
        if value is not None:
            lines.append("%s = %s\n" % (f.name, _value_text(f.type, value)))
    return "".join(lines)


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
    w(_record_text("model", cfg.model))
    w("phi = %s\n" % _phi_text(cfg.model.phi))
    w("\n[grid]\n")
    w("dim = %d\n" % cfg.grid.dim)
    w("cells = %s\n" % ", ".join(str(c) for c in cfg.grid.cells))
    w("extent = %s\n" % _fmt_list(cfg.grid.extent))
    w("origin = %s\n" % _fmt_list(cfg.grid.origin))
    w("\n" + _record_text("solver", cfg.solver))
    w("\n[initial]\n")
    for name in FIELD_ORDER:
        w("%s = %s\n" % (name, _initial_text(cfg.initial[name])))
    w("\n[output]\n")
    w("dir = %s\n" % cfg.out_dir)
    w("seed = %d\n" % cfg.seed)
    if cfg.sweep:
        w("\n[sweep]\n")
        for key, values in cfg.sweep.items():
            w("%s = %s\n" % (key, _fmt_list(values)))
    if cfg.lattice is not None:
        w("\n" + _record_text("lattice", cfg.lattice))
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


def read_snapshot(path: str, origin) -> StateQuad:
    """The state in a snapshot file, on the grid with the given origin (the header has none)."""
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
    if not math.isfinite(t):
        raise SnapshotError("bad snapshot header in %r (time %r is not finite)" % (path, t))
    try:
        grid = Grid(cells=cells, extent=extent, origin=tuple(origin))
    except ValueError as exc:
        raise SnapshotError("bad snapshot header in %r (%s)" % (path, exc)) from None
    payload = parts[6]
    n = grid.n_cells
    expected = 4 * n * 8
    if len(payload) != expected:
        raise SnapshotError(
            "snapshot payload in %r has %d bytes, expected %d" % (path, len(payload), expected)
        )
    fields = []
    for i, name in enumerate(FIELD_ORDER):
        arr = np.frombuffer(payload[i * n * 8 : (i + 1) * n * 8], dtype="<f8").astype(
            np.float64
        ).reshape(grid.cells)
        try:
            fields.append(Field(grid, arr))
        except ValueError as exc:
            raise SnapshotError("bad snapshot payload in %r: %s %s" % (path, name, exc)) from None
    return StateQuad(*fields, t=t)


# --- CSV --------------------------------------------------------------------


class HistoryCsvWriter:
    """Streaming history CSV writer: the header, then one %.17g row per call."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="ascii", newline="\n")
        self._fh.write(",".join(HISTORY_COLUMNS) + "\n")

    def __call__(self, row) -> None:
        self._fh.write(",".join("%.17g" % x for x in row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def write_history_csv(path: str, history: FrontHistory) -> None:
    writer = HistoryCsvWriter(path)
    try:
        for row in history.rows:
            writer(row)
    finally:
        writer.close()


def read_csv_columns(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError("CSV %r is empty" % path)
    names = [c.strip() for c in lines[0].split(",")]
    data = {name: [] for name in names}
    if len(data) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ConfigError("CSV %r repeats column %r" % (path, repeated))
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

"""Run configuration files, binary snapshots and CSV tables.

Config files are line oriented, `key = value` entries under bracketed
section headers, with `#` comments.  Unknown sections or keys are errors,
as are malformed values; error messages carry the line number.  Every
number must be finite.

The keys of [model], [solver] and [lattice] are the fields of
ModelParams, SolverConfig and LatticeConfig, with those records' defaults;
a field's type (float, int, bool, str) says how its value is read and
written.  The phi of [model] and each field of [initial] is a rule, a
keyword and its arguments, read and written through its slot's table
(_RULES).  [grid], [output] and [sweep] are parsed and written by hand.

Options that only ever held one value were removed (_RETIRED): the solver's
clip_negative, chemo_upwind, v_z_stepper and cfl_safety, the lattice's
kernel, leap_fraction, beta (every lattice run has a flat signal, so its
drift coefficient acted on nothing) and alpha (it scaled every rate, and so
every leap dt, which made it a second name for t_end), the model's eps_reg,
and check_lower and check_upper, the only keys [oracles] had.  Config files
written before, every run directory's config.cfg among them, still carry
them at the kept values that _RETIRED lists; such a line is read and
ignored, any other value is an error.  The solver's dt_max, never written to a config.cfg, is an unknown
key.

config.cfg records a run's inputs, not its location: [output] dir is read,
never written.  An [initial] snapshot path is resolved against the config's
directory at parse time and written resolved into config.cfg; SnapshotInit
refuses one that holds `#` or a byte outside ASCII, because config.cfg
could not hold it.  The file is read when the state is built.

Snapshots are a 6-line ASCII header (magic, dim, cells per axis, extent per
axis, time, field order) followed by the four fields as raw little-endian
float64 in row-major order.  The header does not carry the domain origin:
every reader passes the grid the file must be on, whose origin completes
the header's grid.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

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
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "build_initial_state",
    "write_snapshot",
    "read_snapshot",
    "read_csv_columns",
    "table_text",
]

SNAPSHOT_MAGIC = "DCSIM1"
FIELD_ORDER = ("u", "v", "w", "z")


class ConfigError(Exception):
    """Bad configuration text: syntax, unknown key, or constraint violation."""


class SnapshotError(Exception):
    """Malformed snapshot file (bad header, truncated or non-finite payload), or one on another grid."""


class SnapshotVersionError(SnapshotError):
    """Snapshot written by an incompatible format version."""


# --- initial conditions -----------------------------------------------------


@dataclass(frozen=True)
class BumpInit:
    """Quadratic bump height * (1 - |x - center|^2 / radius^2)_+ ."""

    center: tuple[float, ...]
    radius: float
    height: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("bump radius must be positive, got %r" % self.radius)
        if not (self.height >= 0):
            raise ValueError("bump height must be >= 0, got %r" % self.height)

    def build(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.dim:
            raise ConfigError("bump center needs %d coordinates" % grid.dim)
        d2 = grid.center_distance2(self.center)
        return self.height * np.clip(1.0 - d2 / (self.radius * self.radius), 0.0, None)


@dataclass(frozen=True)
class ConstantInit:
    value: float

    def build(self, grid: Grid) -> np.ndarray:
        return np.full(grid.cells, self.value)


@dataclass(frozen=True)
class SnapshotInit:
    path: str  # resolved at parse time, so a run's config.cfg names the file the run read
    field_name: str

    def __post_init__(self):
        if self.field_name not in FIELD_ORDER:
            raise ValueError("snapshot field must be %s, got %r" % ("/".join(FIELD_ORDER), self.field_name))
        # config.cfg stores the path: _tokenize would cut it at a '#', and the file is written and read as ASCII
        if "#" in self.path:
            raise ValueError("snapshot path %r holds '#', which starts a comment in config.cfg" % self.path)
        if not self.path.isascii():
            raise ValueError("snapshot path %r is not ASCII, as config.cfg must be" % self.path)

    def build(self, grid: Grid) -> np.ndarray:
        return getattr(read_snapshot(self.path, grid), self.field_name).values


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

    def with_value(self, key: str, value) -> RunConfig:
        """This config with sweep key 'section.field' set to value; the section's record may refuse it (ValueError)."""
        section, name = key.split(".", 1)
        return dataclasses.replace(self, **{section: dataclasses.replace(getattr(self, section), **{name: value})})


# --- parsing ----------------------------------------------------------------

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}

# the sections whose keys are the fields of a record
_RECORDS = {
    "model": ModelParams,
    "solver": SolverConfig,
    "lattice": LatticeConfig,
}

# field types a config value converts to; a field of any other type (phi) is a rule
_SCALAR_TYPES = ("float", "int", "bool", "str")


def _scalar_fields(record_type) -> list:
    return [f for f in dataclasses.fields(record_type) if f.type in _SCALAR_TYPES]


# sweeps vary numeric knobs only; rules like phi need a separate config file
_SWEEPABLE = {
    "%s.%s" % (name, f.name)
    for name in ("model", "solver")
    for f in _scalar_fields(_RECORDS[name])
    if f.type == "float"
}

# retired keys, each with the field type its value was read as and the one value still accepted
_RETIRED = {
    ("solver", "clip_negative"): ("bool", True),
    ("solver", "chemo_upwind"): ("bool", True),
    ("solver", "v_z_stepper"): ("str", "semi-implicit"),
    ("solver", "cfl_safety"): ("float", 0.25),
    ("lattice", "kernel"): ("str", "pushing"),
    ("lattice", "leap_fraction"): ("float", 0.5),
    ("lattice", "beta"): ("float", 0.0),
    ("lattice", "alpha"): ("float", 1.0),
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


def _number(kind: str, text: str):
    """int() or float() of `text`, which also refuses (ValueError) a '_' and a nonzero literal that reads as 0.0."""
    value = int(text) if kind == "int" else float(text)
    if "_" in text or (value == 0 and any(d in text.lower().partition("e")[0] for d in "123456789")):
        raise ValueError(text)
    return value


def _convert(kind: str, text: str, line_no: int, where: str, expected: str | None = None):
    """Read `text` as a value of field type `kind`, under _number's rules; every number read must be finite.

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
        value = _number(kind, text)
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


# --- rules: phi and the fields of [initial] ----------------------------------
#
# A rule is a keyword and its arguments (`bump 0.0 0.25 0.5`).  _RULES has one table per slot, {keyword: (record,
# form)}: the reader dispatches on it and lists its keywords, and the writer takes a record's keyword from it.  A
# form is (what the arguments must be, for the arity error, {n} standing for the grid's dim + 2; a reader of (args,
# number, dim, base_dir) to the record's fields, or None when args do not fit; a writer of the record's arguments).
# The record checks the values (ValueError).


def _one_number(args, number, dim, base_dir):
    return (number(args),) if args else None  # all the rest is the number, so a trailing token is refused


def _bump(args, number, dim, base_dir):
    nums = [number(p) for p in args.split()]
    return (tuple(nums[:dim]), nums[dim], nums[dim + 1]) if len(nums) == dim + 2 else None


def _pairs(args, number, dim, base_dir):
    pairs = [pair.split(":") for pair in "".join(args.split()).split(",")]
    return None if any(len(pair) != 2 for pair in pairs) else tuple(tuple(map(number, axis)) for axis in zip(*pairs))


def _path_and_field(args, number, dim, base_dir):
    words = args.rsplit(None, 1)  # the path runs from the keyword to the field name, spaces included
    return (os.path.abspath(os.path.join(base_dir, words[0])), words[1]) if len(words) == 2 else None


_ONE_NUMBER = ("one number", _one_number, lambda rule: _fmt(*vars(rule).values()))
_RULES = {
    "phi": {
        "constant": (ConstantSensitivity, _ONE_NUMBER),
        "linear_switch": (LinearSwitchSensitivity, _ONE_NUMBER),
        "table": (TabulatedSensitivity, ("u:phi pairs, e.g. 0:1,1:0", _pairs, lambda rule: ",".join(
            "%s:%s" % (_fmt(u), _fmt(p)) for u, p in zip(rule.nodes_u, rule.nodes_phi)))),
    },
    "initial": {
        "constant": (ConstantInit, _ONE_NUMBER),
        "bump": (BumpInit, ("{n} numbers: center, radius, height", _bump, lambda rule: " ".join(
            _fmt(x) for x in (*rule.center, rule.radius, rule.height)))),
        "snapshot": (SnapshotInit, ("a path and a field name", _path_and_field,
                                   lambda rule: "%s %s" % (rule.path, rule.field_name))),
    },
}


def _parse_rule(slot: str, value: str, line_no: int, where: str, dim: int = 1, base_dir: str = "."):
    """The record of rule text `value`, the value `where` on line line_no, under _RULES[slot]; every error it
    raises is a ConfigError that names the line."""
    rules = _RULES[slot]
    keyword, args = (value.split(None, 1) + ["", ""])[:2]
    if keyword not in rules:
        raise ConfigError("line %d: %s must be %s, got %r" % (line_no, where, "/".join(rules), value))
    record, (needs, read, _) = rules[keyword]
    fields = read(args, lambda text: _convert("float", text, line_no, where), dim, base_dir)
    if fields is None:
        raise ConfigError(
            "line %d: bad %s rule %r (%s needs %s)" % (line_no, slot, value, keyword, needs.format(n=dim + 2))
        )
    try:
        return record(*fields)
    except ValueError as exc:
        raise ConfigError("line %d: %s" % (line_no, exc)) from None


def _rule_text(slot: str, rule) -> str:
    """The `keyword arguments` text of a rule record, under _RULES[slot]."""
    for keyword, (record, (_, _, write)) in _RULES[slot].items():
        if isinstance(rule, record):
            return "%s %s" % (keyword, write(rule))
    raise ConfigError("cannot serialize %s rule %r" % (slot, rule))


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    sections = _tokenize(text)
    for required in ("model", "grid", "solver", "initial"):
        if required not in sections:
            raise ConfigError("missing required section [%s]" % required)

    dim = _get(sections, "grid", "dim", "int")
    if dim not in (1, 2):
        raise ConfigError("line %d: grid.dim must be 1 or 2, got %d" % (_entry(sections, "grid", "dim")[1], dim))
    cells_f = _float_list(sections, "cells", dim)
    cells = tuple(int(c) for c in cells_f)
    if any(abs(c - cf) > 0 for c, cf in zip(cells, cells_f)):
        raise ConfigError("line %d: grid.cells must be integers" % _entry(sections, "grid", "cells")[1])
    extent = tuple(_float_list(sections, "extent", dim))
    origin = tuple(_float_list(sections, "origin", dim)) if "origin" in sections["grid"] else (0.0,) * dim
    try:
        grid = Grid(cells=cells, extent=extent, origin=origin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    given = {"phi": _parse_rule("phi", *sections["model"]["phi"], "model.phi")} if "phi" in sections["model"] else {}
    model = _record(sections, "model", **given)
    solver = _record(sections, "solver")

    _entry(sections, "initial", "u")  # v, w and z start at 0 when left out
    initial = {name: ConstantInit(0.0) for name in FIELD_ORDER}
    for name, item in sections["initial"].items():
        initial[name] = _parse_rule("initial", *item, "initial." + name, dim, base_dir)

    cfg = RunConfig(model=model, grid=grid, solver=solver, initial=initial)
    # each sweep value must make a valid record, so that no case fails on it later
    for key, (value, line_no) in sections.get("sweep", {}).items():
        if key not in _SWEEPABLE:
            raise ConfigError(
                "line %d: sweep target %r is not a numeric model/solver parameter "
                "(allowed: %s)" % (line_no, key, ", ".join(sorted(_SWEEPABLE)))
            )
        values = tuple(_numbers(value, line_no, "sweep." + key, "comma-separated numbers"))
        if not values:
            raise ConfigError("line %d: sweep needs at least one value" % line_no)
        for v in values:
            try:
                cfg.with_value(key, v)
            except ValueError as exc:
                raise ConfigError("line %d: sweep.%s value %r: %s" % (line_no, key, v, exc)) from None
        cfg.sweep[key] = values

    cfg.out_dir = _get(sections, "output", "dir", "str", "out")
    cfg.seed = _get(sections, "output", "seed", "int", 0)
    if "lattice" in sections:
        cfg.lattice = _record(sections, "lattice")
    return cfg


def _read_ascii(path: str, what: str) -> str:
    """The text of the file at path, its line ends read as \n; a byte outside ASCII is a ConfigError that names
    the file and the byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("ascii"), newline=None).read()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError("%s %r line %d: byte 0x%02x is not ASCII" % (what, path, line_no, data[exc.start])) from None


def parse_config_file(path: str) -> RunConfig:
    return parse_config(_read_ascii(path, "config"), base_dir=os.path.dirname(os.path.abspath(path)))


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
    """Section [name] of a record, one line per scalar field."""
    lines = ["[%s]\n" % name]
    for f in _scalar_fields(type(record)):
        lines.append("%s = %s\n" % (f.name, _value_text(f.type, getattr(record, f.name))))
    return "".join(lines)


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    w = out.write
    w(_record_text("model", cfg.model))
    w("phi = %s\n" % _rule_text("phi", cfg.model.phi))
    w("\n[grid]\n")
    w("dim = %d\n" % cfg.grid.dim)
    w("cells = %s\n" % ", ".join(str(c) for c in cfg.grid.cells))
    w("extent = %s\n" % _fmt_list(cfg.grid.extent))
    w("origin = %s\n" % _fmt_list(cfg.grid.origin))
    w("\n" + _record_text("solver", cfg.solver))
    w("\n[initial]\n")
    for name in FIELD_ORDER:
        w("%s = %s\n" % (name, _rule_text("initial", cfg.initial[name])))
    w("\n[output]\n")
    w("seed = %d\n" % cfg.seed)
    if cfg.sweep:
        w("\n[sweep]\n")
        for key, values in cfg.sweep.items():
            w("%s = %s\n" % (key, _fmt_list(values)))
    if cfg.lattice is not None:
        w("\n" + _record_text("lattice", cfg.lattice))
    return out.getvalue()


def build_initial_state(cfg: RunConfig) -> StateQuad:
    fields = {}
    for name in FIELD_ORDER:
        values = cfg.initial[name].build(cfg.grid)
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


def read_snapshot(path: str, grid: Grid) -> StateQuad:
    """The state in a snapshot file, which must be on grid (the header has no origin; grid's completes it)."""
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
                "snapshot version %r of %r is not supported (expected %s)" % (magic, path, SNAPSHOT_MAGIC)
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
        raise SnapshotError("snapshot field order %r in %r is not %r" % (order, path, FIELD_ORDER))
    if not math.isfinite(t):
        raise SnapshotError("bad snapshot header in %r (time %r is not finite)" % (path, t))
    try:  # grid.origin completes a header grid of as many axes; one of another dim cannot match
        on = Grid(cells=cells, extent=extent, origin=grid.origin) if dim == grid.dim else None
    except ValueError as exc:
        raise SnapshotError("bad snapshot header in %r (%s)" % (path, exc)) from None
    if on != grid:
        raise SnapshotError(
            "snapshot %r is on a grid of cells %r, extent %r; the configured grid has cells %r, extent %r"
            % (path, cells, extent, grid.cells, grid.extent)
        )
    payload = parts[6]
    n = grid.n_cells
    expected = 4 * n * 8
    if len(payload) != expected:
        raise SnapshotError(
            "snapshot payload in %r has %d bytes, expected %d" % (path, len(payload), expected)
        )
    fields = []
    for i, name in enumerate(FIELD_ORDER):
        arr = np.frombuffer(payload, "<f8", count=n, offset=i * n * 8).astype(np.float64).reshape(grid.cells)
        try:
            fields.append(Field(grid, arr))
        except ValueError as exc:
            raise SnapshotError("bad snapshot payload in %r: %s %s" % (path, name, exc)) from None
    return StateQuad(*fields, t=t)


# --- CSV --------------------------------------------------------------------


def table_text(rows) -> str:
    """The CSV lines of rows, under the one cell rule of every table the CLI writes: a float cell is written %.17g,
    an int %d, None empty, and text as it is, quoted by csv.writer when it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        ["%.17g" % c if isinstance(c, float) else "%d" % c if isinstance(c, int) else c for c in row] for row in rows
    )
    return buf.getvalue()


def read_csv_columns(path: str) -> dict:
    """The columns of a numeric CSV by header name; every value must be a finite number, under _number's rules."""
    lines = [(i, ln.strip()) for i, ln in enumerate(_read_ascii(path, "CSV").split("\n"), start=1) if ln.strip()]
    if not lines:
        raise ConfigError("CSV %r is empty" % path)
    names = [c.strip() for c in lines[0][1].split(",")]
    data = {name: [] for name in names}
    if len(data) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ConfigError("CSV %r repeats column %r" % (path, repeated))
    for i, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ConfigError("CSV %r line %d has %d fields, expected %d" % (path, i, len(parts), len(names)))
        for name, part in zip(names, parts):
            try:
                value = _number("float", part)
            except ValueError:
                raise ConfigError("CSV %r line %d: %r is not a number" % (path, i, part)) from None
            if not math.isfinite(value):
                raise ConfigError("CSV %r line %d: %s must be a finite number, got %r" % (path, i, name, part))
            data[name].append(value)
    return {name: np.asarray(vals) for name, vals in data.items()}

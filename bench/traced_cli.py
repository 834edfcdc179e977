"""Run one chemofront CLI command with the benchmark's hooks installed.

    python3 bench/traced_cli.py --spans FILE -- <chemofront arguments>
    python3 bench/traced_cli.py --ready-at solver.run -- <chemofront arguments>

--spans wraps the module attributes the program calls through (TRACED
below), records one span per call (name, start, end, parent) in memory, and
writes them with the call counters to FILE when the command ends.  A name
that no longer exists is skipped and listed as missing, so a later change
that removes it does not break the traced run.

--ready-at prints "ready <monotonic seconds>" and exits as soon as the
named function is first called: the time from launching the interpreter to
the first step or leap.  chemofront must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

# spans: (module, attribute) pairs timed on every call
TRACED = [
    ("solver", "run"),
    ("solver", "step"),
    ("solver", "cfl_dt"),
    ("solver", "diffusive_flux"),
    ("solver", "chemotactic_flux"),
    ("solver", "_helmholtz_solve"),
    ("diagnostics", "history_row"),
    ("diagnostics", "sandwich_check"),
    ("config_io", "parse_config_file"),
    ("config_io", "build_initial_state"),
    ("config_io", "write_snapshot"),
    ("config_io", "read_snapshot"),
    ("profiles", "select_lower_profile"),
    ("profiles", "select_upper_profile"),
    ("lattice", "step_tau_leap"),
    ("lattice", "rate_arrays"),
]
# counters: constructors whose validation runs on every instance; write_snapshot
# also counts the bytes it writes
COUNTED = [("model", "Field"), ("lattice", "LatticeState")]


def _lookup(module: str, attr: str):
    mod = importlib.import_module("chemofront." + module)
    return mod, getattr(mod, attr, None)


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def count_instances(self, name: str, cls) -> None:
        """Count constructions of a dataclass by wrapping its __post_init__."""
        post_init = cls.__post_init__
        self.counts[name] = 0
        counts = self.counts

        def counted(obj):
            counts[name] += 1
            return post_init(obj)

        cls.__post_init__ = counted

    def install(self) -> None:
        for module, attr in TRACED:
            mod, fn = _lookup(module, attr)
            name = "%s.%s" % (module, attr)
            if fn is None:
                self.missing.append(name)
                continue
            if name == "config_io.write_snapshot":
                fn = self._counting_snapshot_bytes(fn)
            setattr(mod, attr, self.wrap(name, fn))
        for module, attr in COUNTED:
            _, cls = _lookup(module, attr)
            name = "%s.%s" % (module, attr)
            if cls is None or not hasattr(cls, "__post_init__"):
                self.missing.append(name)
                continue
            self.count_instances(name, cls)

    def _counting_snapshot_bytes(self, fn):
        """Count, under the function's own name, the field bytes each snapshot writes."""
        self.counts["config_io.write_snapshot"] = 0
        counts = self.counts

        def write_snapshot(path, state, *args, **kwargs):
            counts["config_io.write_snapshot"] += sum(
                getattr(state, f).values.nbytes for f in ("u", "v", "w", "z"))
            return fn(path, state, *args, **kwargs)

        return write_snapshot

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "import_s": import_s,
                "names": self.names,
                "missing": self.missing,
                "counts": self.counts,
                "span_name": self.span_name,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
            }, fh)


def _exit_when_called(module: str, attr: str) -> None:
    mod, fn = _lookup(module, attr)
    if fn is None:
        return  # the command runs to its end; the caller times its exit instead

    def ready(*args, **kwargs):
        os.write(1, b"ready %r\n" % time.clock_gettime(time.CLOCK_MONOTONIC))
        os._exit(0)

    setattr(mod, attr, ready)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans", help="write spans and counters to this JSON file")
    mode.add_argument("--ready-at", help="module.function whose first call ends the command")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    cli = importlib.import_module("chemofront.cli")
    import_s = time.perf_counter() - t0

    if args.ready_at:
        _exit_when_called(*args.ready_at.split(".", 1))
        return cli.main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(args.spans, import_s)


if __name__ == "__main__":
    sys.exit(main())

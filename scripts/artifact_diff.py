"""Byte comparison of what two source trees' CLIs write on a fixed list of commands.

    python3 scripts/artifact_diff.py --parent DIR --change DIR

Each DIR is a checkout that holds src/chemofront.  Both trees run the same
commands (cases() below, on the configs under this checkout's bench/configs,
with --seed 101), each command in a fresh interpreter with PYTHONPATH set to
that tree's src/, each case in its own temporary directory.  The comparison
covers every command's stdout, stderr and exit code, and every file the
commands leave behind.  It masks the two timings of run_stats.json (wall_s
and steps_per_s) and the temporary directory's path, the only things that
differ between two runs of one tree.  Each differing stream or file is
printed on one line; the exit code is 1 when anything differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "bench", "configs")
SEED = ["--seed", "101"]
MASKED_STATS = ("wall_s", "steps_per_s")


def _bench_config(name: str, *swaps) -> str:
    """The text of bench/configs/<name>.cfg with each (old, new) swap made once."""
    with open(os.path.join(CONFIGS, name + ".cfg"), encoding="ascii") as fh:
        text = fh.read()
    for old, new in swaps:
        if old not in text:
            raise ValueError("%s.cfg holds no %r" % (name, old))
        text = text.replace(old, new, 1)
    return text


RUN = ["run", "--config", "case.cfg", "--out", "out"] + SEED
VERIFY = ["verify", "--out", "out"]
STRIDE_20 = ("output_stride = 200", "output_stride = 20")


def cases() -> list[tuple[str, str, list[list[str]]]]:
    """(name, config text, commands) of each case; every command runs in the case's directory, beside case.cfg."""
    return [
        ("ref_1d_stride_20", _bench_config("ref_1d", STRIDE_20),
         [RUN, VERIFY, ["fit", os.path.join("out", "history.csv"), "--out", "out"]]),
        # the other two phi rules: run parses each from case.cfg and writes it to config.cfg, which verify parses
        ("ref_1d_linear_switch", _bench_config("ref_1d", STRIDE_20, ("phi = constant 1.0", "phi = linear_switch 0.5")),
         [RUN, VERIFY]),
        ("ref_1d_table", _bench_config("ref_1d", STRIDE_20, ("phi = constant 1.0", "phi = table 0:1,0.5:0.5,1:0")),
         [RUN, VERIFY]),
        # the snapshot rule: the bench run's last snapshot, at a path with a space, is u's start for run and verify
        ("ref_1d_snapshot",
         _bench_config("ref_1d", ("u = bump 0.0 0.25 0.5", "u = snapshot seed run/snap_00000005.bin u")),
         [["run", "--config", os.path.join(CONFIGS, "ref_1d.cfg"), "--out", "seed run"] + SEED, RUN, VERIFY]),
        ("front_2d", _bench_config("front_2d"), [RUN, VERIFY]),
        # the lower envelope's spread underflows: verify exits 2
        ("ref_1d_m_600", _bench_config("ref_1d", ("m = 2.0", "m = 600")), [RUN, VERIFY]),
        # a 2 x 2 sweep: manifest.csv, each case's fits.csv and the skip lines on stderr
        ("ref_1d_sweep", _bench_config("ref_1d", STRIDE_20)
         + "\n[sweep]\nmodel.m = 2.0, 3.0\nmodel.mu = 0.5, 1.0\n",
         [["sweep", "--config", "case.cfg", "--out", "out"] + SEED]),
        ("lattice_ensemble", _bench_config("lattice_ensemble"),
         [["lattice", "--config", "case.cfg", "--out", "out", "--tol-l1", "0.05"] + SEED]),
    ]


def _masked_stats(data: bytes) -> bytes:
    """run_stats.json with its two timings masked."""
    record = json.loads(data)
    record.update({key: "<masked>" for key in MASKED_STATS if key in record})
    return json.dumps(record, indent=1).encode("ascii")


def run_tree(tree: str, case_list, work: str) -> dict[str, bytes]:
    """Run every case on tree's src/ under work; returns each stream and file, masked, by a name that says which."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    seen = {}
    for name, config, commands in case_list:
        case_dir = os.path.join(work, name)
        os.makedirs(case_dir)

        def masked(data: bytes) -> bytes:
            return data.replace(os.fsencode(case_dir), b"<case dir>")

        with open(os.path.join(case_dir, "case.cfg"), "w", encoding="ascii") as fh:
            fh.write(config)
        for i, argv in enumerate(commands):
            done = subprocess.run([sys.executable, "-m", "chemofront"] + argv, cwd=case_dir, env=env,
                                  capture_output=True, check=False)
            label = "%s: command %d (%s)" % (name, i, argv[0])
            seen[label + " stdout"] = masked(done.stdout)
            seen[label + " stderr"] = masked(done.stderr)
            seen[label + " exit code"] = b"%d" % done.returncode
        for parent, _, files in os.walk(case_dir):
            for file in files:
                path = os.path.join(parent, file)
                with open(path, "rb") as fh:
                    data = fh.read()
                if file == "run_stats.json":
                    data = _masked_stats(data)
                seen["%s: %s" % (name, os.path.relpath(path, case_dir))] = masked(data)
    return seen


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line per stream or file that differs between two run_tree results, or that only one of them has."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append("%s: only in the parent" % key)
        elif key not in parent:
            lines.append("%s: only in the change" % key)
        elif parent[key] != change[key]:
            lines.append("%s: differs" % key)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "chemofront")):
            ap.error("%s holds no src/chemofront" % tree)
    case_list = cases()
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as work:
        parent = run_tree(args.parent, case_list, os.path.join(work, "parent"))
        change = run_tree(args.change, case_list, os.path.join(work, "change"))
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print("artifact_diff: %d of %d streams and files differ" % (len(lines), len(parent.keys() | change.keys())))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

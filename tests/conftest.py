"""Shared fixtures: one standard bump run and one CLI run directory per session."""

import math
import time

import numpy as np
import pytest

from chemofront.cli import main as cli_main
from chemofront.model import (
    ConstantSensitivity,
    Field,
    Grid,
    ModelParams,
    StateQuad,
)
from chemofront import solver
from chemofront.solver import SolverConfig, run


def bump_field(grid, center, radius, height):
    d2 = grid.center_distance2(center)
    return Field(grid, height * np.clip(1.0 - d2 / radius**2, 0.0, None))


def time_after_steps(initial, params, n, t_end=1.0):
    """The duration of n solver.step calls toward initial.t + t_end, stepped as run() steps, plus one ulp.

    A run from initial for that duration takes exactly these n steps.  The
    ulp keeps its last step's cap, the time left, above that step's dt,
    which rounding could otherwise cut, so the run is the one that n steps
    toward t_end make, bit for bit.
    """
    g, t = initial.grid, initial.t
    u, v, w, z = (getattr(initial, name).values for name in ("u", "v", "w", "z"))
    tiny = solver._time_tolerance(initial.t + t_end)
    for _ in range(n):
        u, v, w, z, dt, *_ = solver.step(g, u, v, w, z, t, params, initial.t + t_end - t, tiny)
        t += dt
    return np.nextafter(t, math.inf) - initial.t


STANDARD_MODEL = ModelParams(m=2.0, delta=1.0, mu=1.0, r=1.0, phi=ConstantSensitivity(1.0))


def make_standard_initial(cells=128):
    grid = Grid((cells,), (2.0,), (-1.0,))
    u0 = bump_field(grid, (0.0,), 0.25, 0.5)
    v0 = Field.full(grid, 0.0)
    w0 = Field.full(grid, 1.0)
    z0 = Field.full(grid, 0.0)
    return StateQuad(u0, v0, w0, z0, t=0.0)


@pytest.fixture(scope="session")
def standard_run():
    """Full-model bump run, 128 cells, ten thousand steps; shared read-only."""
    initial = make_standard_initial()
    config = SolverConfig(t_end=2.4173701991927756, output_stride=100)  # one ulp past step 10 000, as time_after_steps
    minima = {name: np.inf for name in ("u", "v", "w", "z")}

    def track_minima(state, row):
        for name in minima:
            minima[name] = min(minima[name], float(getattr(state, name).values.min()))

    t0 = time.perf_counter()
    result = run(initial, STANDARD_MODEL, config, emit=track_minima)
    seconds = time.perf_counter() - t0
    return {
        "initial": initial,
        "params": STANDARD_MODEL,
        "config": config,
        "result": result,
        "field_minima": minima,
        "seconds": seconds,
    }


RUN_CFG = """\
[model]
m = 2.0
delta = 1.0
mu = 1.0
r = 1.0
phi = constant 1.0

[grid]
dim = 1
cells = 128
extent = 2.0
origin = -1.0

[solver]
t_end = 1.0
output_stride = 200

[initial]
u = bump 0.0 0.25 0.5
v = constant 0.0
w = constant 1.0
z = constant 0.0

[output]
dir = out
seed = 7
"""


@pytest.fixture(scope="session")
def cli_run_dir(tmp_path_factory):
    """One finished `run` invocation of the reference bump config."""
    base = tmp_path_factory.mktemp("cli_run")
    cfg = base / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = base / "run_out"
    t0 = time.perf_counter()
    code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
    seconds = time.perf_counter() - t0
    assert code == 0
    return {"cfg": cfg, "out": out, "base": base, "seconds": seconds}

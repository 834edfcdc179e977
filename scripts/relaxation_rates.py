"""Late-stage relaxation rates of all four fields toward the flat state.

Integrates a bump until the density is essentially flat, then fits an
exponential to the tail of each deviation norm.  Useful for checking how the
measured rates move with the growth strength mu.
"""

import argparse
import sys

from chemofront.config_io import BumpInit
from chemofront.diagnostics import fit_exponential
from chemofront.model import ConstantSensitivity, Field, Grid, ModelParams, StateQuad
from chemofront.solver import SolverConfig, run

NORMS = ("norm_u_minus_1", "norm_w", "norm_v_minus_target", "norm_z_minus_1")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=64)
    ap.add_argument("--t-end", type=float, default=14.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--m", type=float, default=2.0)
    ap.add_argument("--stride", type=int, default=1000)
    ap.add_argument(
        "--tail", type=float, default=0.6, help="fraction of samples (from the end) to fit"
    )
    args = ap.parse_args(argv)

    grid = Grid((args.cells,), (2.0,), (-1.0,))
    initial = StateQuad(
        Field(grid, BumpInit((0.0,), 0.25, 0.5).build(grid)),
        Field.full(grid, 0.0),
        Field.full(grid, 1.0),
        Field.full(grid, 0.0),
        t=0.0,
    )
    params = ModelParams(m=args.m, delta=1.0, mu=args.mu, r=1.0, phi=ConstantSensitivity(1.0))
    result = run(initial, params, SolverConfig(t_end=args.t_end, output_stride=args.stride))

    history = result.history
    t = history["t"]
    cut = t[int((1.0 - args.tail) * len(t))]
    final_dev = history["norm_u_minus_1"][-1]
    print("final |u-1| = %.3e after %d steps; fitting t >= %.3g" % (final_dev, result.steps, cut))
    print("norm                 rate      r^2")
    for name in NORMS:
        fit = fit_exponential(t, history[name], t_min=cut)
        print("%-20s %-9.4f %.5f" % (name, fit.rate, fit.r_squared))
    return 0


if __name__ == "__main__":
    sys.exit(main())

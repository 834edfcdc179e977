"""Front expansion rate as the diffusion exponent varies.

For each m, integrates a compact bump on a wide domain and fits a power law
in (1+t) to the support radius, dropping any samples taken after the front
gets within reach of the boundary.  A case that cannot be fitted says why:
too few history rows (lower --stride) or a support that reached the wall
(enlarge --extent).  With growth switched on the measured
exponents sit well above the pure-diffusion values; pass --mu 0 --chemo 0
to watch the slow self-similar spreading instead.

    python3 scripts/front_speed_study.py --m-values 2.0,2.5,3.0
"""

import argparse
import sys

from chemofront.config_io import BumpInit
from chemofront.diagnostics import fit_power_law
from chemofront.model import ConstantSensitivity, Field, Grid, ModelParams, StateQuad
from chemofront.solver import SolverConfig, run


def bump_state(grid, radius, height):
    u0 = Field(grid, BumpInit((0.0,), radius, height).build(grid))
    return StateQuad(
        u0, Field.full(grid, 0.0), Field.full(grid, 1.0), Field.full(grid, 0.0), t=0.0
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-values", default="2.0,2.5,3.0", help="comma-separated exponents")
    ap.add_argument("--cells", type=int, default=128)
    ap.add_argument("--extent", type=float, default=8.0)
    ap.add_argument("--t-end", type=float, default=3.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--chemo", type=float, default=1.0, help="constant sensitivity value")
    ap.add_argument("--stride", type=int, default=20, help="history cadence in steps")
    ap.add_argument("--csv", help="append rows to this CSV instead of just printing")
    args = ap.parse_args(argv)

    grid = Grid((args.cells,), (args.extent,), (-args.extent / 2.0,))
    # samples taken once the front nears the wall would flatten the fit
    wall_cap = 0.95 * (args.extent / 2.0 - grid.h)
    print("m      exponent  stderr    r^2      rows    r_final")
    rows_out = []
    for m in (float(s) for s in args.m_values.split(",")):
        params = ModelParams(
            m=m, delta=1.0, mu=args.mu, r=1.0, phi=ConstantSensitivity(args.chemo)
        )
        result = run(
            bump_state(grid, 0.25, 0.5),
            params,
            SolverConfig(t_end=args.t_end, output_stride=args.stride),
        )
        t, radius = result.history["t"], result.history["support_radius"]
        mask = radius < wall_cap
        try:
            fit = fit_power_law(t[mask], radius[mask])
        except ValueError as exc:
            # the wall is to blame only if the rows it masked would have made the fit
            try:
                fit_power_law(t, radius)
                cause = "support saturated the domain; enlarge --extent"
            except ValueError:
                cause = "too few history rows; lower --stride"
            print("%-6.3g no fit from %d rows, %d inside the wall cap (%s): %s" % (m, len(t), mask.sum(), exc, cause))
            continue
        print(
            "%-6.3g %-9.4f %-9.4f %-8.4f %-3d/%-3d %.3f"
            % (m, fit.exponent, fit.stderr, fit.r_squared, mask.sum(), len(t), radius[-1])
        )
        rows_out.append((m, fit.exponent, fit.stderr, fit.r_squared, radius[-1]))

    if args.csv:
        with open(args.csv, "a", encoding="ascii") as fh:
            if fh.tell() == 0:
                fh.write("m,exponent,stderr,r_squared,final_radius\n")
            for row in rows_out:
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

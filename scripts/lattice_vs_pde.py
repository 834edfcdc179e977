"""Particle-count convergence of the lattice walk toward the continuum limit.

Loads all particles on the center site, lets the walk (jump probability
charged at the departure site) spread them, and measures the L1 gap between
the seed-averaged coarse density and the matching nonlinear-diffusion run.
The gap should shrink as the particle count grows; capacity is scaled with
the load so the relative density starts at the same height every time.
The ensemble and the continuum run are the library's lattice.run_ensemble
and lattice.continuum_twin, as in the CLI's lattice command.
"""

import argparse
import sys

import numpy as np

from chemofront import lattice as lat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--particles", default="1000,10000,100000", help="comma-separated loads")
    ap.add_argument("--sites", type=int, default=200)
    ap.add_argument("--cells-per-bin", type=int, default=5)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--m", type=float, default=2.0)
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--extent", type=float, default=2.0)
    args = ap.parse_args(argv)

    print("particles  u_max    L1_gap")
    for particles in (int(s) for s in args.particles.split(",")):
        # capacity tracks the load so the initial relative density is 4 everywhere
        u_max = max(1, particles // 4)
        config = lat.LatticeConfig(
            sites=args.sites,
            u_max=u_max,
            particles=particles,
            t_end=args.t_end,
            seeds=args.seeds,
            cells_per_bin=args.cells_per_bin,
            extent=args.extent,
            origin=-args.extent / 2.0,
        )
        density = lat.run_ensemble(config, args.m, args.seed).density
        # the continuum run starts with the particles' mass and centre of mass, not the ideal delta
        twin = lat.continuum_twin(config, args.m)
        l1 = float(np.abs(density.mean(axis=0) - twin.values).sum()) * twin.grid.cell_volume
        print("%-10d %-8d %.5f" % (particles, u_max, l1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

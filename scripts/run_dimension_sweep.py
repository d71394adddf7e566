"""Projection-dimension sweep for the diversity clustering optimizer.

Schedules are projected to d dimensions before swap search; the oracle
then scores the optimized layouts.  Sweeping d shows how much schedule
detail the optimizer needs.  Writes one CSV row per (d, seed) and
prints mean oracle energy per d.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from zoneplan import optimize as op
from zoneplan import reduce as rd
from zoneplan import synth


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[3, 5, 10, 30])
    ap.add_argument("--seeds", type=int, default=20, help="random starts per d")
    ap.add_argument("--counts", type=int, nargs="+", default=[11, 11, 11, 11])
    ap.add_argument("--days", type=int, default=60)
    ap.add_argument("--pop-seed", type=int, default=17)
    ap.add_argument("--jitter-minutes", type=float, default=45.0)
    ap.add_argument("--out", type=Path, default=Path("results/dimension_sweep.csv"))
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")

    pop = synth.generate_population(
        tuple(args.counts), args.days, seed=args.pop_seed,
        jitter_minutes=args.jitter_minutes,
    )
    cfg = synth.LightingOracleConfig()
    pure = op.Layout.from_groups(synth.archetype_pure_layout(pop, len(args.counts)))
    m, occupants = rd.state_matrix(pop)
    factors = rd.svd_decompose(m)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    print(f"numerical rank {factors.rank}, pure-layout oracle "
          f"{synth.oracle_total(pure.by_zone(), pop, cfg):.0f} wh")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("d,seed,oracle_energy_wh\n")
        for d in args.dims:
            if d > factors.rank:
                print(f"d={d} skipped (exceeds rank {factors.rank})")
                continue
            t0 = time.time()
            vectors = rd.project(m, factors, d, occupants).vectors()
            seeds = list(range(args.seeds))
            starts = [
                op.random_layout(pure, np.random.default_rng(np.random.SeedSequence([44, s])))
                for s in seeds
            ]
            energies = []
            for s, (layout, _) in enumerate(op.swap_search(vectors, starts, None, seeds)):
                e = synth.oracle_total(layout.by_zone(), pop, cfg)
                energies.append(e)
                fh.write(f"{d},{s},{e!r}\n")
            print(f"d={d:3d}  mean {np.mean(energies):.0f} wh  "
                  f"min {min(energies):.0f}  max {max(energies):.0f}  "
                  f"({time.time() - t0:.1f}s)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

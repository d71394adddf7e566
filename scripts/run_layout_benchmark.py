"""Oracle-scored comparison of layout strategies on a synthetic population.

Strategies: the mean of random layouts, one fixed random layout standing
in for an as-is workplace, archetype-pure zones, diversity clustering,
and a surrogate-driven genetic search seeded with clustering layouts.
Writes one CSV row per strategy and prints savings versus the random mean.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from zoneplan import ingest
from zoneplan import optimize as op
from zoneplan import surrogate as su
from zoneplan import synth


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--counts", type=int, nargs="+", default=[9, 9, 9, 9])
    ap.add_argument("--days", type=int, default=1)
    ap.add_argument("--pop-seed", type=int, default=11)
    ap.add_argument("--random-baseline", type=int, default=100)
    ap.add_argument("--train-layouts", type=int, default=16,
                    help="random layouts in the surrogate training set")
    ap.add_argument("--cluster-seeds", type=int, default=50,
                    help="clustering layouts feeding the GA seed pool")
    ap.add_argument("--generations", type=int, default=60)
    ap.add_argument("--ga-seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("results/layout_benchmark.csv"))
    args = ap.parse_args()

    t0 = time.time()
    pop = synth.generate_population(tuple(args.counts), args.days, seed=args.pop_seed)
    cal = ingest.StepCalendar(pop.start, pop.n_steps)
    ocfg = synth.LightingOracleConfig()
    pure = op.Layout.from_groups(synth.archetype_pure_layout(pop, len(args.counts)))
    vectors = pop.vectors()

    def oracle_total(layout: op.Layout) -> float:
        return synth.oracle_total(layout.by_zone(), pop, ocfg, cal)

    def start(tag: int, i: int) -> op.Layout:
        return op.random_layout(pure, np.random.default_rng(np.random.SeedSequence([tag, i])))

    randoms = [oracle_total(start(909, i)) for i in range(args.random_baseline)]
    random_mean = float(np.mean(randoms))
    existing = start(3, 0)

    # surrogate training set: random layouts plus a swap-search trajectory,
    # so near-optimal compositions are in-distribution for the forest
    train_layouts = [start(2024, j) for j in range(args.train_layouts)]
    for s in range(4):
        lay = start(7070, s)
        for stage in range(6):
            lay, _ = op.swap_optimize(vectors, lay, iter_limit=300, seed=1000 + 100 * s + stage)
            train_layouts.append(lay)
    table, y = synth.oracle_training_set(
        pop, [lay.by_zone() for lay in train_layouts], ocfg, cal
    )
    model = su.fit_random_forest(table, y, su.RfConfig(), seed=7)

    pool = []
    for i in range(args.cluster_seeds):
        lay, _ = op.swap_optimize(vectors, start(3030, i), seed=3000 + i)
        pool.append(lay)
    cluster = pool[0]

    ga_best, _ = op.ga_optimize(
        su.LayoutScorer(model, pop, cal).totals, pure, op.GaConfig(generations=args.generations),
        seed=args.ga_seed, seeds_in=pool,
    )

    rows = [
        ("random_mean", random_mean),
        ("existing", oracle_total(existing)),
        ("archetype_pure", oracle_total(pure)),
        ("cluster", oracle_total(cluster)),
        ("ga", oracle_total(ga_best)),
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("label,oracle_energy_wh,pct_vs_random_mean\n")
        for label, energy in rows:
            pct = 100.0 * (energy - random_mean) / random_mean
            fh.write(f"{label},{energy!r},{pct!r}\n")
            print(f"{label:15s} {energy:10.0f} wh  {pct:+6.1f}% vs random mean")
    print(f"wrote {args.out} ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

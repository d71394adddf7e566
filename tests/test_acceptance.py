"""End-to-end acceptance criteria on closed-loop synthetic data.

Each numbered test checks one acceptance property at its stated
tolerance and records a PASS/FAIL line that the terminal summary
reprints.  Shared heavy assets (populations, the trained fitness
model, the clustering seed pool) are module fixtures so criteria
reuse one build.
"""

import math
import time

import numpy as np
import pytest

from conftest import diversity_fitness
from zoneplan import diversity as dv
from zoneplan import ingest, synth
from zoneplan import optimize as op
from zoneplan import reduce as rd
from zoneplan import surrogate as su
from zoneplan.cli import main
from zoneplan.states import StateGrid

# ---------------------------------------------------------------- helpers


def weekend_absent(grid: StateGrid) -> StateGrid:
    # weekend steps forced to state 1: weekday/weekend contrast gives the
    # day-to-day swing a 7-day-alike template population otherwise lacks
    states = grid.states.copy()
    states[:, grid.calendar.weekend] = 1
    return StateGrid(grid.occupants, grid.start, states)


def random_start(template: op.Layout, tag: int, i: int) -> op.Layout:
    return op.random_layout(
        template, np.random.default_rng(np.random.SeedSequence([tag, i]))
    )


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def pop60_masked():
    raw = synth.generate_population((11, 11, 11, 11), 60, seed=17, jitter_minutes=45)
    return weekend_absent(raw)


@pytest.fixture(scope="module")
def pure60(pop60_masked):
    return op.Layout.from_groups(synth.archetype_pure_layout(pop60_masked, 4))


@pytest.fixture(scope="module")
def ga_protocol(pop36, pop36_pure):
    """Trained count-composition fitness plus the clustering seed pool.

    synth.protocol_layouts gives the forest's training layouts (random
    layouts and swap-search trajectories, so near-optimal compositions are
    in-distribution) and 50 clustering layouts that seed every GA run.
    Layouts are scored by the library's memoized LayoutScorer, one
    population per call, so each distinct feature row is predicted once.
    """
    t0 = time.time()
    train_layouts, pool = synth.protocol_layouts(
        pop36.vectors(), pop36_pure, 24, op.GaConfig().population
    )
    train, y = synth.oracle_training_set(pop36, [lay.by_zone() for lay in train_layouts])
    rf = su.fit_random_forest(train, y, su.RfConfig(), seed=7)
    return su.LayoutScorer(rf, pop36).totals, pool, time.time() - t0


# ---------------------------------------------------------------- criteria


def test_c1_swap_recovers_known_optimum(pop36, pop36_pure, record):
    # random starts must reach the archetype-pure total diversity within
    # 1e-9 in <= 2000 iterations for >= 95 of 100 seeds, under 60 s
    t0 = time.time()
    vecs = pop36.vectors()
    target = op.layout_objective(pop36_pure, vecs)
    starts = [random_start(pop36_pure, 101, s) for s in range(100)]
    hits = sum(
        abs(op.layout_objective(lay, vecs) - target) <= 1e-9
        for lay, _ in op.swap_search(vecs, starts, 2000, list(range(100)))
    )
    elapsed = time.time() - t0
    ok = hits >= 95 and elapsed < 60.0
    record(1, "swap search recovers the known optimum", ok,
           f"{hits}/100 seeds within 1e-9, {elapsed:.1f}s")
    assert ok


def test_c2_seeded_ga_reaches_near_optimal_energy(pop36, pop36_pure, ga_protocol, record):
    # surrogate-driven GA (seeded with clustering layouts, padded with
    # random ones) must land within 5% of the archetype-pure oracle
    # energy for >= 90 of 100 seeds, G <= 200, under 10 min in total
    predicted_total, pool, setup_s = ga_protocol
    pure_energy = synth.oracle_total(pop36_pure.by_zone(), pop36)
    cfg = op.GaConfig(generations=60)
    t0 = time.time()
    wins = 0
    for k in range(100):
        best, _ = op.ga_optimize(predicted_total, pop36_pure, cfg, seed=k, seeds_in=pool)
        wins += synth.oracle_total(best.by_zone(), pop36) <= 1.05 * pure_energy
    elapsed = setup_s + (time.time() - t0)
    ok = wins >= 90 and elapsed < 600.0
    record(2, "seeded GA reaches near-optimal oracle energy", ok,
           f"{wins}/100 seeds within 5%, G=60, {elapsed:.0f}s incl. training")
    assert ok


def test_c3_pure_layout_beats_random_mean(pop36, pop36_pure, record):
    # archetype-pure oracle energy must sit >= 10% below the mean of
    # 100 random layouts; the measured percentage is reported
    pure_energy = synth.oracle_total(pop36_pure.by_zone(), pop36)
    randoms = [
        synth.oracle_total(random_start(pop36_pure, 909, i).by_zone(), pop36) for i in range(100)
    ]
    mean_random = float(np.mean(randoms))
    saving = 100.0 * (mean_random - pure_energy) / mean_random
    ok = pure_energy <= 0.90 * mean_random
    record(3, "archetype-pure layout beats the random mean", ok,
           f"pure {saving:.1f}% below random mean")
    assert ok


def test_c4_diversity_energy_regression_significant(pop60_masked, pure60, record):
    # on the 60-day jittered population every zone's OLS slope of daily
    # energy on daily diversity must be positive with p < 0.001
    zones = op.random_layout(pure60, np.random.default_rng(3)).by_zone()
    n_days = pop60_masked.n_steps // ingest.STEPS_PER_DAY
    zone_order, step_energy = synth.oracle_lighting(zones, pop60_masked)
    daily_energy = step_energy.reshape(len(zone_order), n_days, ingest.STEPS_PER_DAY).sum(axis=2)
    _, daily_diversity = dv.daily_zone_diversity(pop60_masked, zones)
    details = []
    ok = True
    for zone_id, divs, energy in zip(zone_order, daily_diversity, daily_energy):
        res = dv.ols_regress(divs, energy)
        details.append(f"{zone_id} p={res.p_value:.1e}")
        ok = ok and res.slope > 0 and res.p_value < 1e-3
    record(4, "daily energy rises with daily zone diversity", ok, ", ".join(details))
    assert ok


def test_c5_forest_beats_linear_and_daily_beats_hourly(record):
    # on held-out oracle data (80/20 whole-day split) the forest must
    # match or beat the linear model on MAE, reach hourly R^2 >= 0.70,
    # and score at least as high after daily aggregation
    pop = synth.generate_population(
        (11, 11, 11, 11), 20, seed=17, p_high=0.7, jitter_minutes=45
    )
    pop = weekend_absent(pop)
    pure = op.Layout.from_groups(synth.archetype_pure_layout(pop, 4))
    layouts = [pure, random_start(pure, 21, 0), random_start(pure, 21, 1)]

    table, y = synth.oracle_training_set(pop, [lay.by_zone() for lay in layouts])
    train, test = su.time_split(table, y, fraction=0.8)
    mlr = su.fit_mlr(table.take(train), y[train])
    rf = su.fit_random_forest(table.take(train), y[train], su.RfConfig(), seed=0)

    test_table = table.take(test)
    m_mlr = su.evaluate(test_table, y[test], mlr.predict_rows(test_table))
    m_rf = su.evaluate(test_table, y[test], rf.predict_rows(test_table))

    ok = (
        m_rf.mae <= m_mlr.mae
        and m_rf.r_squared >= 0.70
        and m_rf.r_squared_daily >= m_rf.r_squared
    )
    record(5, "forest beats linear; daily R^2 beats hourly", ok,
           f"mae rf {m_rf.mae:.2f} vs mlr {m_mlr.mae:.2f}, "
           f"hourly {m_rf.r_squared:.3f}, daily {m_rf.r_squared_daily:.3f}")
    assert ok


def test_c6_layout_count_matches_bigint_oracle(record):
    # closed form must match an independent factorial construction
    # digit for digit, and the interchangeable-zone identity must hold
    val = op.count_layouts(50, 5)
    oracle = math.factorial(50) // (math.factorial(10) ** 5) // math.factorial(5)
    ok = val == oracle and len(str(val)) == 30 and op.count_layouts(4, 2) == 3
    for occupants, zones in [(4, 2), (6, 2), (6, 3), (12, 3), (12, 4), (36, 4), (50, 5)]:
        per_zone = occupants // zones
        total = (
            op.count_layouts(occupants, zones)
            * math.factorial(per_zone) ** zones
            * math.factorial(zones)
        )
        ok = ok and total == math.factorial(occupants)
    record(6, "layout count matches the big-integer oracle", ok,
           f"count(50,5) has {len(str(val))} digits")
    assert ok


def test_c7_projection_preserves_distances(pop36, record):
    # full-rank projection must preserve pairwise occupant distances to
    # 1e-6 relative; truncation error must equal the singular-value tail
    m, occupants = rd.state_matrix(pop36)
    factors = rd.svd_decompose(m)
    reduced = rd.project(m, factors, factors.rank, occupants)
    d_orig = dv.distance_matrix(m.T)
    d_red = dv.distance_matrix(reduced.matrix.T)
    mask = ~np.eye(d_orig.shape[0], dtype=bool)
    rel = np.abs(d_orig - d_red)[mask] / np.maximum(d_orig[mask], 1e-12)
    distance_ok = bool(np.max(rel) <= 1e-6)

    tail_ok = True
    for d in range(factors.sigma.size + 1):
        recon = (factors.u[:, :d] * factors.sigma[:d]) @ factors.v[:, :d].T
        actual = float(np.linalg.norm(m - recon))
        tail_ok = tail_ok and abs(factors.truncation_error(d) - actual) <= 1e-8

    ok = distance_ok and tail_ok
    record(7, "projection preserves distances; tail error exact", ok,
           f"max relative distance error {np.max(rel):.2e}")
    assert ok


def _random_instance(
    rng: np.random.Generator, zones: tuple[int, int] = (2, 5), sizes: tuple[int, int] = (2, 6)
) -> tuple[dict, op.Layout]:
    n_zones = int(rng.integers(*zones))
    sizes = rng.integers(*sizes, size=n_zones)
    dim = int(rng.integers(2, 6))
    occs = [f"o{i}" for i in range(int(sizes.sum()))]
    vectors = {o: rng.normal(size=dim) for o in occs}
    groups, at = {}, 0
    for z, size in enumerate(sizes):
        groups[f"Z{z}"] = occs[at : at + int(size)]
        at += int(size)
    return vectors, op.Layout.from_groups(groups)


def _swap_occupants(layout: op.Layout, a: str, b: str) -> None:
    desk_of = {occ: desk for desk, occ in layout.assignment.items()}
    layout.assignment[desk_of[a]], layout.assignment[desk_of[b]] = b, a


def test_c8_search_monotonicity_and_exact_deltas(record):
    # swap objective series must never rise; GA best-so-far must never
    # rise; replaying the accepted swaps must reproduce every iteration's
    # incrementally updated objective within 1e-9 (>= 1000 moves, runs
    # past the 1024-iteration resync)
    swap_ok = True
    for i in range(100):
        vectors, layout = _random_instance(np.random.default_rng(np.random.SeedSequence([88, i])))
        _, trace = op.swap_optimize(vectors, layout, iter_limit=150, seed=i)
        swap_ok = swap_ok and bool(np.all(np.diff(trace.objectives) <= 1e-9))

    ga_ok = True
    cfg = op.GaConfig(population=6, elites=2, random_survivors=2, generations=8)
    for i in range(100):
        vectors, layout = _random_instance(np.random.default_rng(np.random.SeedSequence([89, i])))
        _, trace = op.ga_optimize(diversity_fitness(vectors), layout, cfg, seed=i)
        ga_ok = ga_ok and bool(np.all(np.diff(trace.best_so_far) <= 0))

    replay_ok, moves, runs = True, 0, 0
    while moves < 1000:
        rng = np.random.default_rng(np.random.SeedSequence([90, runs]))
        vectors, template = _random_instance(rng, zones=(3, 7), sizes=(3, 10))
        layout = random_start(template, 90, runs)
        _, trace = op.swap_optimize(vectors, layout, iter_limit=1100, seed=runs)
        accepted = iter(trace.accepted)
        move = next(accepted, None)
        exact = op.layout_objective(layout, vectors)
        for it, objective in enumerate(trace.objectives):
            while move is not None and move[0] == it:
                _swap_occupants(layout, move[1], move[2])
                exact = op.layout_objective(layout, vectors)
                moves += 1
                move = next(accepted, None)
            replay_ok = replay_ok and abs(objective - exact) <= 1e-9
        runs += 1

    ok = swap_ok and ga_ok and replay_ok
    record(8, "search monotone; incremental objectives exact", ok,
           f"swap {swap_ok}, ga {ga_ok}, {moves} replayed moves over {runs} runs {replay_ok}")
    assert ok


def _write_plug_csv(path) -> None:
    # piecewise-constant plug events: two occupants, two days
    rows = ["occupant_id,timestamp,power_w"]
    for occ, offset in [("O1", 0), ("O2", 4)]:
        for day in (1, 2):
            rows.append(f"{occ},2018-01-0{day}T00:00:00Z,2.0")
            rows.append(f"{occ},2018-01-0{day}T0{8 + offset // 4}:00:00Z,6{offset}.0")
            rows.append(f"{occ},2018-01-0{day}T17:00:00Z,2.5")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_c9_commands_rerun_byte_identical(tmp_path, record):
    # three spot-checked commands rerun with identical config and seed
    # must reproduce every output file byte for byte
    plug = tmp_path / "plug.csv"
    _write_plug_csv(plug)
    out = tmp_path / "out"
    demo = tmp_path / "demo"
    commands = {
        "ingest": (
            ["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(out)],
            ["grid.csv"],
        ),
        "infer-states": (
            ["infer-states", "--set", f"paths.grid={out / 'grid.csv'}", "--out-dir", str(out)],
            ["states.csv", "state_models.json"],
        ),
        "synth-demo": (
            [
                "synth-demo",
                "--set", "synth.counts=[3,3,3,3]",
                "--set", "synth.n_days=1",
                "--set", "synth.train_layouts=6",
                "--set", "synth.holdout_layouts=2",
                "--set", "synth.random_baseline=5",
                "--set", "optimize.ga.population=12",
                "--set", "optimize.ga.elites=3",
                "--set", "optimize.ga.random_survivors=2",
                "--set", "optimize.ga.generations=6",
                "--set", "surrogate.rf.n_trees=20",
                "--out-dir", str(demo),
            ],
            ["states.csv", "zone_map.csv", "lighting.csv", "model.json",
             "cluster_layout.csv", "ga_layout.csv", "savings.csv"],
        ),
    }
    ok = True
    details = []
    for name, (argv, files) in commands.items():
        assert main(argv) == 0
        base = demo if name == "synth-demo" else out
        first = {f: (base / f).read_bytes() for f in files}
        assert main(argv) == 0
        same = all((base / f).read_bytes() == first[f] for f in files)
        details.append(f"{name} {'ok' if same else 'DIFFERS'}")
        ok = ok and same
    record(9, "commands rerun byte-identical", ok, ", ".join(details))
    assert ok


def test_c10_more_dimensions_never_hurt(pop60_masked, pure60, record):
    # mean oracle energy of clustering-optimized layouts at d=30 must not
    # exceed that at d=3 or d=1 (20 random starts each, the same starts
    # for every d), and d=1 must give a different mean than d=30
    m, occupants = rd.state_matrix(pop60_masked)
    factors = rd.svd_decompose(m)
    means = {}
    for d in (1, 3, 30):
        vectors = rd.project(m, factors, d, occupants).vectors()
        starts = [random_start(pure60, 44, s) for s in range(20)]
        energies = [
            synth.oracle_total(lay.by_zone(), pop60_masked)
            for lay, _ in op.swap_search(vectors, starts, None, list(range(20)))
        ]
        means[d] = float(np.mean(energies))
    ok = means[30] <= means[3] and means[30] <= means[1] and means[1] != means[30]
    record(10, "higher projection dimension never hurts", ok,
           f"mean oracle d=30 {means[30]:.0f} vs d=3 {means[3]:.0f} vs d=1 {means[1]:.0f}")
    assert ok

"""Layout optimizers: swap clustering, genetic algorithm, counting formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diversity_fitness
from zoneplan.diversity import distance_matrix, layout_diversity, stack_vectors
from zoneplan.optimize import (
    GaConfig,
    Layout,
    OptTrace,
    count_layouts,
    crossover,
    ga_optimize,
    layout_objective,
    load_layout,
    mutate,
    random_layout,
    swap_optimize,
    swap_search,
    write_layout,
    write_trace,
)


def groups_of(layout: Layout) -> dict[str, set]:
    return {z: set(v) for z, v in layout.by_zone().items()}


def random_instance(seed, n_zones=3, per_zone=4, dim=5):
    rng = np.random.default_rng(seed)
    n = n_zones * per_zone
    names = [f"o{i}" for i in range(n)]
    vectors = {o: rng.normal(size=dim) for o in names}
    groups = {
        f"Z{z+1}": names[z * per_zone : (z + 1) * per_zone] for z in range(n_zones)
    }
    return vectors, Layout.from_groups(groups)


# ---------------------------------------------------------------- counting


def test_count_four_into_two():
    assert count_layouts(4, 2) == 3


def test_count_singleton_zones():
    assert count_layouts(7, 7) == 1


def test_count_fifty_into_five_thirty_digits():
    value = count_layouts(50, 5)
    # independent oracle: multinomial of zone blocks over interchangeable zones
    oracle = (
        math.comb(50, 10)
        * math.comb(40, 10)
        * math.comb(30, 10)
        * math.comb(20, 10)
        * math.comb(10, 10)
    ) // math.factorial(5)
    assert value == oracle
    assert len(str(value)) == 30


def test_count_identity_over_cases():
    for occupants, zones in [(4, 2), (6, 3), (12, 4), (10, 10), (50, 5)]:
        m = occupants // zones
        value = count_layouts(occupants, zones)
        assert value * math.factorial(m) ** zones * math.factorial(zones) == math.factorial(occupants)


def test_count_indivisible_rejected():
    with pytest.raises(ValueError):
        count_layouts(7, 2)


# ---------------------------------------------------------------- layout type


def test_layout_rejects_duplicate_occupant():
    with pytest.raises(ValueError):
        Layout.from_groups({"Z1": ["a", "a"], "Z2": ["b", "c"]})


def test_random_layout_permutes_within_structure(paired_adversarial):
    rng = np.random.default_rng(0)
    lay = random_layout(paired_adversarial, rng)
    assert lay.same_structure(paired_adversarial)
    assert sorted(lay.occupants()) == sorted(paired_adversarial.occupants())


def test_random_layout_draws_one_permutation_over_the_desks():
    # desk j of desk_order() seats sorted occupant perm[j]; values from the
    # occupant count up leave it vacant
    template = Layout({"Z2": ["D4", "D5"], "Z1": ["D1", "D2", "D3"]},
                      {"D1": "b", "D2": "a", "D4": "c"})
    perm = np.random.default_rng(9).permutation(5)
    expected = {d: "abc"[p] for d, p in zip(template.desk_order(), perm) if p < 3}
    assert random_layout(template, np.random.default_rng(9)).assignment == expected


def test_zone_bounds_mark_each_zones_desks_in_a_seat_row():
    # zones in insertion order Z2, Z1 of sizes 3 and 2: Z1's desks come first
    lay = Layout({"Z2": ["D3", "D4", "D5"], "Z1": ["D1", "D2"]}, {"D1": "a"})
    bounds = lay.zone_bounds()
    assert bounds.tolist() == [0, 2, 5]
    desks = lay.desk_order()
    for k, zone in enumerate(sorted(lay.zones)):
        assert desks[bounds[k] : bounds[k + 1]] == lay.zones[zone]


def test_seat_rows_round_trip_with_vacant_desks():
    lay = Layout({"Z2": ["D3", "D4"], "Z1": ["D1", "D2"]}, {"D1": "b", "D3": "a", "D4": "c"})
    rows = lay.seat_rows([lay])
    # desks in desk_order() (zones by sorted id), occupants by sorted id
    assert rows.tolist() == [[1, -1, 0, 2]]
    assert lay.with_seat_row(rows[0]).assignment == lay.assignment
    assert lay.seat_rows([]).shape == (0, 4)
    other = Layout.from_groups({"Z1": ["a", "b"], "Z2": ["c", "d"]})
    with pytest.raises(ValueError, match="differs from the template"):
        lay.seat_rows([other])


def test_layout_csv_round_trip(tmp_path, paired_adversarial):
    write_layout(paired_adversarial, tmp_path / "l.csv")
    back = load_layout(tmp_path / "l.csv")
    assert back.zones == paired_adversarial.zones
    assert back.assignment == paired_adversarial.assignment


@pytest.mark.parametrize("zones, assignment, bad", [
    ({"Z1": [" D1"]}, {" D1": "O1"}, "desk id ' D1'"),
    ({"Z1 ": ["D1"]}, {"D1": "O1"}, "zone id 'Z1 '"),
    ({"Z1": ["D1", "D2"]}, {"D1": "O1 "}, "occupant id 'O1 '"),
    ({"Z1": ["D1", "D2"]}, {"D1": ""}, "occupant id ''"),
])
def test_layout_writer_rejects_ids_that_would_not_read_back(tmp_path, zones, assignment, bad):
    # the reader strips each field, and an empty occupant reads as a vacant desk
    path = tmp_path / "l.csv"
    with pytest.raises(ValueError, match=bad):
        write_layout(Layout(zones, assignment), path)
    assert not path.exists()


def test_layout_csv_keeps_vacancies(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("desk_id,zone_id,occupant_id\nD1,Z1,O1\nD2,Z1,\nD3,Z2,O2\nD4,Z2,O3\n")
    lay = load_layout(path)
    assert lay.assignment == {"D1": "O1", "D3": "O2", "D4": "O3"}
    assert lay.zones["Z1"] == ["D1", "D2"]


# ---------------------------------------------------------------- swap optimizer


def test_swap_recovers_paired_optimum(paired_vectors, paired_adversarial):
    final, trace = swap_optimize(paired_vectors, paired_adversarial, seed=0)
    assert trace.objectives[-1] == pytest.approx(0.0, abs=1e-12)
    assert groups_of(final) in (
        [{"Z1": {"a1", "a2"}, "Z2": {"b1", "b2"}}, {"Z1": {"b1", "b2"}, "Z2": {"a1", "a2"}}]
    )


def test_swap_already_optimal_stays_put(paired_vectors):
    lay = Layout.from_groups({"Z1": ["a1", "a2"], "Z2": ["b1", "b2"]})
    final, trace = swap_optimize(paired_vectors, lay, iter_limit=50, seed=1)
    assert groups_of(final) == groups_of(lay)
    assert np.all(np.asarray(trace.objectives) == trace.objectives[0])
    assert not any(trace.accepted)


def test_swap_objective_non_increasing_random_instances():
    for seed in range(30):
        vectors, template = random_instance(seed)
        lay = random_layout(template, np.random.default_rng(seed))
        _, trace = swap_optimize(vectors, lay, iter_limit=150, seed=seed)
        objs = np.asarray(trace.objectives)
        assert np.all(np.diff(objs) <= 1e-9)


def test_swap_final_objective_is_exact_recompute():
    vectors, template = random_instance(3)
    lay = random_layout(template, np.random.default_rng(3))
    final, trace = swap_optimize(vectors, lay, iter_limit=200, seed=3)
    exact = layout_objective(final, vectors)
    assert trace.objectives[-1] == exact


def test_swap_empty_layout_rejected():
    with pytest.raises(ValueError):
        swap_optimize({}, Layout(zones={"Z1": ["D1"]}, assignment={}), seed=0)


def test_swap_deterministic(paired_vectors, paired_adversarial):
    a = swap_optimize(paired_vectors, paired_adversarial, iter_limit=40, seed=7)
    b = swap_optimize(paired_vectors, paired_adversarial, iter_limit=40, seed=7)
    assert a[0].assignment == b[0].assignment
    assert a[1].objectives == b[1].objectives


def test_swap_pinned_instance_past_the_resync():
    # pinned values: a change to the search shows here even while batched and
    # single runs still agree with each other; iteration 1023 is the first
    # exact recompute, which moves the incremental objective by one ulp
    vectors, template = random_instance(21, n_zones=4, per_zone=5)
    lay = random_layout(template, np.random.default_rng(21))
    final, trace = swap_optimize(vectors, lay, iter_limit=1100, seed=21)
    assert trace.accepted == [
        (0, "o6", "o15"), (1, "o7", "o2"), (2, "o17", "o8"), (3, "o16", "o11"),
        (4, "o7", "o13"), (5, "o4", "o14"), (6, "o15", "o2"), (7, "o19", "o7"),
        (8, "o0", "o4"), (9, "o11", "o6"), (11, "o17", "o5"), (13, "o17", "o0"),
        (15, "o17", "o2"), (21, "o11", "o1"), (34, "o4", "o7"),
    ]
    assert trace.objectives[0] == 10.514880819913822
    assert trace.objectives[1022] == 8.359837429796455
    assert trace.objectives[1023] == 8.359837429796457
    assert trace.objectives[-1] == trace.best_so_far[-1] == 8.359837429796457
    assert groups_of(final) == {
        "Z1": {"o12", "o4", "o2", "o1", "o18"}, "Z2": {"o7", "o17", "o8", "o0", "o13"},
        "Z3": {"o19", "o11", "o6", "o9", "o14"}, "Z4": {"o15", "o3", "o16", "o10", "o5"},
    }


def reference_swap_optimize(vectors, initial, iter_limit, seed):
    """The per-run loop swap_search replaced: one scalar desk draw and one
    full delta vector per iteration."""
    occs = initial.occupants()
    occ_idx = {o: i for i, o in enumerate(occs)}
    n = len(occs)
    d = distance_matrix(stack_vectors(vectors, occs))
    zone_ids = sorted(initial.zones)
    nz = len(zone_ids)
    zone_of_desk = initial.zone_of_desk()
    desk_of_occ = {}
    occ_zone = np.zeros(n, dtype=np.intp)
    for desk, occ in initial.assignment.items():
        desk_of_occ[occ_idx[occ]] = desk
        occ_zone[occ_idx[occ]] = zone_ids.index(zone_of_desk[desk])
    counts = np.bincount(occ_zone, minlength=nz)
    denom = np.where(counts > 1, counts * (counts - 1), 1).astype(float)
    live = counts > 1

    def indicator():
        ind = np.zeros((n, nz))
        ind[np.arange(n), occ_zone] = 1.0
        return ind

    def total():
        zone_sum = np.array([d[np.ix_(occ_zone == z, occ_zone == z)].sum() for z in range(nz)])
        return float(np.sum(np.where(live, zone_sum / denom, 0.0)))

    m = d @ indicator()
    rng = np.random.default_rng(seed)
    occupied = sorted(initial.assignment)
    occ_at = dict(initial.assignment)
    objectives, best, accepted = [], [], []
    current = total()
    for it in range(iter_limit):
        a = occ_idx[occ_at[occupied[int(rng.integers(len(occupied)))]]]
        za = occ_zone[a]
        own = np.where(live[occ_zone], 1.0 / denom[occ_zone], 0.0)
        wa = (1.0 / denom[za]) if live[za] else 0.0
        delta = 2.0 * (
            (m[:, za] - m[a, za] - d[a]) * wa
            + (m[a, occ_zone] - m[np.arange(n), occ_zone] - d[a]) * own
        )
        delta = np.where(occ_zone == za, np.inf, delta)
        delta[a] = 0.0
        b = int(np.flatnonzero(delta == delta.min())[0])
        if b != a:
            zb = occ_zone[b]
            current += float(delta[b])
            m[:, za] += d[:, b] - d[:, a]
            m[:, zb] += d[:, a] - d[:, b]
            occ_zone[a], occ_zone[b] = zb, za
            desk_a, desk_b = desk_of_occ[a], desk_of_occ[b]
            desk_of_occ[a], desk_of_occ[b] = desk_b, desk_a
            occ_at[desk_a], occ_at[desk_b] = occs[b], occs[a]
            accepted.append((it, occs[a], occs[b]))
        if (it + 1) % 1024 == 0:
            m = d @ indicator()
            current = total()
        objectives.append(current)
        best.append(current if not best else min(best[-1], current))
    final = Layout({z: list(dk) for z, dk in initial.zones.items()}, dict(occ_at))
    objectives[-1] = best[-1] = layout_objective(final, vectors)
    return final, objectives, best, accepted


def test_swap_search_runs_as_each_run_alone():
    # vacant desks give the runs different zone counts; 1100 iterations pass
    # the exact recompute at 1024; each run equals that run alone and the
    # per-run loop the kernel replaced
    rng = np.random.default_rng(8)
    names = [f"o{i}" for i in range(13)]
    vectors = {o: rng.normal(size=4) for o in names}
    zones = {f"Z{z}": [f"Z{z}-d{k}" for k in range(6)] for z in range(3)}
    template = Layout(zones, dict(zip([d for z in sorted(zones) for d in zones[z]], names)))
    starts = [random_layout(template, np.random.default_rng(40 + r)) for r in range(7)]
    counts = {tuple(len(v) for v in lay.by_zone().values()) for lay in starts}
    assert len(counts) > 1
    seeds = [3, 1, 4, 1, 5, 9, 2]
    together = swap_search(vectors, starts, 1100, seeds)
    for start, seed, (layout, trace) in zip(starts, seeds, together):
        alone_layout, alone = swap_optimize(vectors, start, 1100, seed=seed)
        reference = reference_swap_optimize(vectors, start, 1100, seed)
        for other in ((alone_layout, alone.objectives, alone.best_so_far, alone.accepted),
                      reference):
            assert layout.zones == other[0].zones
            assert layout.assignment == other[0].assignment
            assert (trace.objectives, trace.best_so_far, trace.accepted) == other[1:]
    assert any(trace.accepted for _, trace in together)


def test_swap_search_with_zones_interleaved_in_desk_order_matches_the_reference():
    # each iteration's zone comes from its drawn slot, the run's j-th occupied
    # desk in sorted id order; here that order alternates zones, unlike
    # desk_order(), and 4 of 18 desks are vacant; 2100 iterations pass two
    # exact recomputes
    rng = np.random.default_rng(16)
    names = [f"o{i:02d}" for i in range(14)]
    vectors = {o: rng.normal(size=3) for o in names}
    zones = {f"Z{z}": [f"d{k:02d}" for k in range(z, 18, 3)] for z in range(3)}
    desks = sorted(d for zone in zones.values() for d in zone)
    template = Layout(zones, dict(zip(desks, names)))
    occupied = [d for d in template.desk_order() if d in template.assignment]
    assert sorted(occupied) != occupied
    starts = [random_layout(template, np.random.default_rng(60 + r)) for r in range(5)]
    seeds = [11, 12, 13, 14, 15]
    results = swap_search(vectors, starts, 2100, seeds)
    for start, seed, (layout, trace) in zip(starts, seeds, results):
        ref_layout, *ref_trace = reference_swap_optimize(vectors, start, 2100, seed)
        assert layout.assignment == ref_layout.assignment
        assert [trace.objectives, trace.best_so_far, trace.accepted] == ref_trace
        assert trace.accepted


def search_against_the_reference(vectors, starts, iter_limit, seeds):
    """swap_search with each run checked against the per-run reference loop."""
    results = swap_search(vectors, starts, iter_limit, seeds)
    for start, seed, (layout, trace) in zip(starts, seeds, results):
        ref_layout, *ref_trace = reference_swap_optimize(vectors, start, iter_limit, seed)
        assert layout.assignment == ref_layout.assignment
        assert [trace.objectives, trace.best_so_far, trace.accepted] == ref_trace
    return [trace for _, trace in results]


def test_swap_search_from_a_fixed_point_skips_to_each_recompute():
    # no run ever moves, so each run jumps from the start to both recomputes
    # and then to the limit
    vectors, template = random_instance(5, n_zones=4, per_zone=6)
    start = random_layout(template, np.random.default_rng(70))
    fixed = swap_optimize(vectors, start, 2000, seed=1)[0]
    traces = search_against_the_reference(vectors, [fixed, fixed], 3000, [2, 3])
    assert not any(trace.accepted for trace in traces)


def test_swap_search_runs_that_freeze_far_apart_match_the_reference():
    # a fixed point that never moves beside random starts whose last moves
    # lie a hundred and more iterations apart
    vectors, template = random_instance(5, n_zones=4, per_zone=12)
    starts = [random_layout(template, np.random.default_rng(70 + r)) for r in range(5)]
    fixed = swap_optimize(vectors, starts[0], 1500, seed=1)[0]
    traces = search_against_the_reference(
        vectors, [fixed, *starts[1:]], 1100, [7, 2, 3, 4, 5]
    )
    last = [trace.accepted[-1][0] for trace in traces[1:]]
    assert not traces[0].accepted and max(last) - min(last) > 100


def test_swap_search_zero_delta_moves_to_a_lower_index_match_the_reference():
    # occupants i and i + 4 share a schedule vector, so swapping them across
    # zones changes nothing, and the tie breaks to the lower index, not the
    # null swap: such runs move all along
    rng = np.random.default_rng(3)
    names = [f"o{i}" for i in range(12)]
    base = rng.normal(size=(4, 3))
    vectors = {o: base[i % 4].copy() for i, o in enumerate(names)}
    template = Layout.from_groups({f"Z{z}": names[4 * z : 4 * z + 4] for z in range(3)})
    starts = [random_layout(template, np.random.default_rng(80 + r)) for r in range(4)]
    traces = search_against_the_reference(vectors, starts, 1100, [1, 2, 3, 4])
    rank = {o: i for i, o in enumerate(template.occupants())}
    assert any(
        trace.objectives[it] == trace.objectives[it - 1] and rank[b] < rank[a]
        for trace in traces for it, a, b in trace.accepted if 0 < it < 1023
    )


@pytest.mark.parametrize("iter_limit", [1, 2, 7, 1027])
def test_swap_search_limits_that_end_a_block_early_match_the_reference(iter_limit):
    # limits that stop the runs among their first moves or just past the
    # first recompute
    vectors, template = random_instance(9, n_zones=3, per_zone=5)
    starts = [random_layout(template, np.random.default_rng(90 + r)) for r in range(3)]
    search_against_the_reference(vectors, starts, iter_limit, [4, 5, 6])


@st.composite
def swap_instances(draw):
    # zones of 1-8 desks with up to 3 of them vacant, so runs may differ in
    # zone counts; occupants share n_vectors schedule vectors, so swaps that
    # change nothing, and with them zero-delta moves to a lower index, occur;
    # limits past 1023 cross the exact recompute
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    n_desks = sum(sizes)
    n_occ = n_desks - draw(st.integers(0, min(3, n_desks - 1)))
    return (sizes, n_occ, draw(st.integers(1, n_occ)), draw(st.integers(1, 1100)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(swap_instances())
def test_swap_search_matches_the_reference_on_random_instances(case):
    sizes, n_occ, n_vectors, iter_limit, n_runs, seed = case
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_vectors, 3))
    names = [f"o{i:02d}" for i in range(n_occ)]
    vectors = {o: base[i % n_vectors] for i, o in enumerate(names)}
    zones = {f"Z{z}": [f"Z{z}-d{k}" for k in range(size)] for z, size in enumerate(sizes)}
    template = Layout(zones, dict(zip([d for z in sorted(zones) for d in zones[z]], names)))
    starts = [random_layout(template, rng) for _ in range(n_runs)]
    seeds = rng.integers(0, 2**32, size=n_runs).tolist()
    search_against_the_reference(vectors, starts, iter_limit, seeds)


def test_swap_search_rejects_starts_it_cannot_batch(paired_vectors, paired_adversarial):
    other_zones = Layout({"Z1": ["D1", "D2"], "Z2": ["D3", "D4"]},
                         {"D1": "a1", "D2": "b1", "D3": "a2", "D4": "b2"})
    other_occupants = Layout.from_groups({"Z1": ["a1", "b1"], "Z2": ["a2", "c2"]})
    for bad in (other_zones, other_occupants):
        with pytest.raises(ValueError, match="differ in zones or occupants"):
            swap_search(paired_vectors, [paired_adversarial, bad], 10, [0, 1])
    with pytest.raises(ValueError, match="no starting layouts"):
        swap_search(paired_vectors, [], 10, [])
    with pytest.raises(ValueError, match="2 seeds for 1 starting layouts"):
        swap_search(paired_vectors, [paired_adversarial], 10, [0, 1])


# ---------------------------------------------------------------- population arrays


def random_population(template: Layout, seed: int, n: int) -> np.ndarray:
    return template.seat_rows(
        [random_layout(template, np.random.default_rng(seed + k)) for k in range(n)]
    )


def is_valid_row(row, n_occ, n_desks) -> bool:
    # every occupant exactly once, every other desk vacant
    return sorted(row[row >= 0].tolist()) == list(range(n_occ)) and row.size == n_desks


def reference_crossover(parent_a, parent_b, picks, fill_keys) -> dict:
    """Per-desk reference for the array crossover: one child, dict in, dict out.

    Desks in canonical order take the picked parent's occupant, else the
    other parent's, else are deferred; a vacancy is taken only while the
    parents' vacancy count lasts.  Deferred desks are filled with the
    unplaced occupants in rising fill_keys order (keys per occupant index
    in sorted-id order).
    """
    desks = parent_a.desk_order()
    occupants = parent_a.occupants()
    none_budget = len(desks) - len(parent_a.assignment)
    used: set[str] = set()
    child: dict[str, str] = {}
    deferred: list[str] = []
    for desk, pick in zip(desks, picks):
        first = parent_a if pick == 0 else parent_b
        second = parent_b if pick == 0 else parent_a
        placed = False
        for parent in (first, second):
            occ = parent.assignment.get(desk)
            if occ is None:
                if none_budget > 0:
                    none_budget -= 1
                    placed = True
                    break
            elif occ not in used:
                child[desk] = occ
                used.add(occ)
                placed = True
                break
        if not placed:
            deferred.append(desk)
    unplaced = [i for i in np.argsort(fill_keys, kind="stable") if occupants[i] not in used]
    fill = [occupants[i] for i in unplaced]
    for desk in deferred:
        if fill:
            child[desk] = fill.pop(0)
    return child


@st.composite
def vacant_structures(draw):
    # zones of 1-4 desks, 0-3 of the desks vacant, 1-6 parent pairs
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n_desks = sum(sizes)
    n_occ = n_desks - draw(st.integers(0, min(3, n_desks - 1)))
    return sizes, n_occ, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(vacant_structures())
def test_array_crossover_matches_the_per_desk_reference(case):
    sizes, n_occ, n_pairs, seed = case
    zones = {f"Z{z}": [f"Z{z}-d{k}" for k in range(size)] for z, size in enumerate(sizes)}
    template = Layout(zones, dict(zip([d for z in sorted(zones) for d in zones[z]],
                                      [f"o{i:02d}" for i in range(n_occ)])))
    rng = np.random.default_rng(seed)
    parents = [random_layout(template, rng) for _ in range(2 * n_pairs)]
    pa, pb = parents[:n_pairs], parents[n_pairs:]
    children = crossover(template.seat_rows(pa), template.seat_rows(pb),
                         np.random.default_rng(seed + 1))
    # replay the crossover's draws: picks, then one fill key per occupant
    replay = np.random.default_rng(seed + 1)
    picks = replay.integers(0, 2, size=children.shape)
    fill_keys = replay.random((n_pairs, n_occ))
    for k in range(n_pairs):
        expected = reference_crossover(pa[k], pb[k], picks[k], fill_keys[k])
        assert template.with_seat_row(children[k]).assignment == expected
        assert is_valid_row(children[k], n_occ, sum(sizes))


def test_crossover_identical_parents_identity(paired_adversarial):
    parents = paired_adversarial.seat_rows([paired_adversarial] * 3)
    child = crossover(parents, parents, np.random.default_rng(0))
    assert np.array_equal(child, parents)


def test_crossover_deterministic():
    _, template = random_instance(4)
    pa = template.seat_rows([random_layout(template, np.random.default_rng(10))] * 4)
    pb = template.seat_rows([random_layout(template, np.random.default_rng(11))] * 4)
    c1 = crossover(pa, pb, np.random.default_rng(3))
    c2 = crossover(pa, pb, np.random.default_rng(3))
    assert np.array_equal(c1, c2)


def test_crossover_mismatched_structures_rejected():
    a = np.array([[0, 1]])
    b = np.array([[0, 1, -1]])  # the same two occupants over three desks
    with pytest.raises(ValueError):
        crossover(a, b, np.random.default_rng(0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_crossover_child_is_valid_permutation(sa, sb, sc):
    _, template = random_instance(5, n_zones=3, per_zone=3)
    children = crossover(
        random_population(template, sa, 4), random_population(template, sb, 4),
        np.random.default_rng(sc),
    )
    for row in children:
        assert is_valid_row(row, 9, 9)


# ---------------------------------------------------------------- mutation


def test_mutate_zero_probability_is_identity():
    _, template = random_instance(6)
    pop = template.seat_rows([template] * 5)
    out = mutate(pop, 0.0, np.random.default_rng(0), template.zone_bounds())
    assert np.array_equal(out, pop)


def test_mutate_fires_with_probability_one():
    _, template = random_instance(7, n_zones=2, per_zone=3)
    pop = template.seat_rows([template] * 5)
    out = mutate(pop, 1.0, np.random.default_rng(1), template.zone_bounds())
    # two cross-zone swaps per layout; the second undoes the first 1 time in 9
    assert not np.array_equal(out, pop)
    for row, before in zip(out, pop):
        assert is_valid_row(row, 6, 6)
        assert len(set(row[:3]) - set(before[:3])) <= 2


def test_mutate_deterministic():
    _, template = random_instance(8)
    pop = template.seat_rows([template] * 5)
    a = mutate(pop, 0.5, np.random.default_rng(9), template.zone_bounds())
    b = mutate(pop, 0.5, np.random.default_rng(9), template.zone_bounds())
    assert np.array_equal(a, b)


def reference_mutate(layout: Layout, m_mut: float, rng) -> dict:
    """Per-layout reference for the array mutate: one layout, dict in, dict out.

    Draws, in order: the fire test, then per zone in sorted order a desk,
    another zone (by rank among the other zones) and a desk there.
    """
    out = dict(layout.assignment)
    zone_ids = sorted(layout.zones)
    if rng.random() >= m_mut or len(zone_ids) < 2:
        return out
    for z in zone_ids:
        da = layout.zones[z][int(rng.integers(0, len(layout.zones[z])))]
        others = [w for w in zone_ids if w != z]
        zb = others[int(rng.integers(0, len(others)))]
        db = layout.zones[zb][int(rng.integers(0, len(layout.zones[zb])))]
        oa, ob = out.pop(da, None), out.pop(db, None)
        if oa is not None:
            out[db] = oa
        if ob is not None:
            out[da] = ob
    return out


@settings(max_examples=100, deadline=None)
@given(vacant_structures())
def test_array_mutate_matches_the_per_layout_reference(case):
    sizes, n_occ, _, seed = case
    zones = {f"Z{z}": [f"Z{z}-d{k}" for k in range(size)] for z, size in enumerate(sizes)}
    desks = [d for z in sorted(zones) for d in zones[z]]
    template = Layout(zones, dict(zip(desks, [f"o{i:02d}" for i in range(n_occ)])))
    layout = random_layout(template, np.random.default_rng(seed))
    # one layout per call, so the array draws are the reference's scalars
    out = mutate(template.seat_rows([layout]), 0.7, np.random.default_rng(seed + 1),
                 template.zone_bounds())
    expected = reference_mutate(layout, 0.7, np.random.default_rng(seed + 1))
    occupants = template.occupants()
    assert {d: occupants[i] for d, i in zip(desks, out[0]) if i >= 0} == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_mutate_preserves_permutation(seed):
    _, template = random_instance(9, n_zones=3, per_zone=3)
    vacant = Layout(template.zones, dict(list(template.assignment.items())[:7]))
    pop = random_population(vacant, seed, 6)
    for row in mutate(pop, 1.0, np.random.default_rng(seed), vacant.zone_bounds()):
        assert is_valid_row(row, 7, 9)


# ---------------------------------------------------------------- genetic algorithm


def test_ga_solves_paired_fixture(paired_vectors, paired_adversarial):
    cfg = GaConfig(population=20, elites=4, random_survivors=2, generations=30)
    best, trace = ga_optimize(
        diversity_fitness(paired_vectors), paired_adversarial, cfg, seed=0
    )
    assert layout_diversity(best.by_zone(), paired_vectors).total == pytest.approx(0.0, abs=1e-12)


def test_ga_best_so_far_non_increasing():
    for seed in range(20):
        vectors, template = random_instance(seed + 100)
        cfg = GaConfig(population=12, elites=3, random_survivors=2, generations=8)
        _, trace = ga_optimize(diversity_fitness(vectors), template, cfg, seed=seed)
        best = np.asarray(trace.best_so_far)
        assert np.all(np.diff(best) <= 1e-12)


def test_ga_fixed_point_with_identical_elite_parents(paired_vectors):
    lay = Layout.from_groups({"Z1": ["a1", "a2"], "Z2": ["b1", "b2"]})
    cfg = GaConfig(population=2, elites=2, random_survivors=0, mutation_prob=0.0, generations=5)
    best, trace = ga_optimize(
        diversity_fitness(paired_vectors), lay, cfg, seed=0, seeds_in=[lay, lay]
    )
    assert best.assignment == lay.assignment
    assert np.all(np.asarray(trace.objectives) == trace.objectives[0])


def test_ga_seeds_in_respected(paired_vectors, paired_adversarial):
    good = Layout.from_groups({"Z1": ["a1", "a2"], "Z2": ["b1", "b2"]})
    cfg = GaConfig(population=6, elites=2, random_survivors=1, generations=3)
    best, _ = ga_optimize(
        diversity_fitness(paired_vectors), paired_adversarial, cfg, seed=0, seeds_in=[good]
    )
    # best-ever tracking can never lose the seeded optimum
    assert layout_diversity(best.by_zone(), paired_vectors).total == pytest.approx(0.0, abs=1e-12)


def test_ga_deterministic(paired_vectors, paired_adversarial):
    cfg = GaConfig(population=10, elites=3, random_survivors=1, generations=6)
    a = ga_optimize(diversity_fitness(paired_vectors), paired_adversarial, cfg, seed=4)
    b = ga_optimize(diversity_fitness(paired_vectors), paired_adversarial, cfg, seed=4)
    assert a[0].assignment == b[0].assignment
    assert a[1].best_so_far == b[1].best_so_far


def test_ga_generation_zero_is_the_seeds_then_random_padding():
    # generation 0 is drawn as before the population became an array, so
    # the trace's first row equals that of the per-layout GA
    vectors, template = random_instance(12)
    seeds = [random_layout(template, np.random.default_rng(50))]
    cfg = GaConfig(population=10, elites=3, random_survivors=2, generations=3)
    _, trace = ga_optimize(diversity_fitness(vectors), template, cfg, seed=5, seeds_in=seeds)
    rng = np.random.default_rng(5)
    first = seeds + [random_layout(template, rng) for _ in range(9)]
    assert trace.objectives[0] == min(layout_objective(lay, vectors) for lay in first)


def test_ga_rejects_a_seed_of_another_structure(paired_vectors, paired_adversarial):
    other = Layout.from_groups({"Z1": ["a1", "a2", "b1", "b2"]})
    with pytest.raises(ValueError, match="differs from the template"):
        ga_optimize(diversity_fitness(paired_vectors), paired_adversarial, seeds_in=[other])


def test_ga_infeasible_config_rejected(paired_vectors, paired_adversarial):
    with pytest.raises(ValueError):
        GaConfig(population=1, elites=1, random_survivors=0).validate()
    with pytest.raises(ValueError):
        GaConfig(population=10, elites=0, random_survivors=1).validate()
    with pytest.raises(ValueError):
        GaConfig(population=10, elites=2, random_survivors=1, mutation_prob=1.5).validate()


# ---------------------------------------------------------------- persistence


def test_trace_csv_written(tmp_path, paired_vectors, paired_adversarial):
    _, trace = swap_optimize(paired_vectors, paired_adversarial, iter_limit=10, seed=0)
    write_trace(trace, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,best_so_far"
    assert len(lines) == len(trace.objectives) + 1


def test_trace_csv_formats_each_value_as_repr_keeping_zero_signs_apart(tmp_path):
    # values are formatted once per distinct bit pattern; 0.0 == -0.0 but
    # they print differently
    objectives = [0.1, -0.0, 0.0, 1 / 3, 0.1, 2.5e-300]
    best = [0.1, -0.0, -0.0, 0.0, 0.1, 2.5e-300]
    write_trace(OptTrace(objectives, best), tmp_path / "t.csv", "note")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == ["# note", "iteration,objective,best_so_far"]
    assert lines[2:] == [f"{i},{o!r},{b!r}" for i, (o, b) in enumerate(zip(objectives, best))]
    assert lines[3:5] == ["1,-0.0,-0.0", "2,0.0,-0.0"]

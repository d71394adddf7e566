"""Layout optimizers: greedy swap clustering and a genetic algorithm.

A layout assigns occupants to desks grouped into fixed-size zones.  The
swap optimizer minimizes total zone diversity with incremental deltas;
the GA breeds a population held as one desk-slot array and minimizes any
caller-supplied population fitness (typically surrogate energy).  Both
are fully seeded and deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .diversity import distance_matrix, layout_diversity, stack_vectors
from .ingest import ZoneMap, _check_ids, _read_desk_table, _write_rows


@dataclass
class Layout:
    """Occupant-to-desk assignment over a fixed zone/desk structure.

    zones maps zone_id to its ordered desk list; assignment maps desk to
    occupant for occupied desks only (missing desk = vacant).
    """

    zones: dict[str, list[str]]
    assignment: dict[str, str]

    def __post_init__(self):
        all_desks: list[str] = [d for desks in self.zones.values() for d in desks]
        if len(set(all_desks)) != len(all_desks):
            raise ValueError("desk ids must be unique across zones")
        desk_set = set(all_desks)
        unknown = [d for d in self.assignment if d not in desk_set]
        if unknown:
            raise ValueError(f"assignment references unknown desks: {unknown}")
        occs = list(self.assignment.values())
        if len(set(occs)) != len(occs):
            raise ValueError("an occupant is assigned to more than one desk")

    @classmethod
    def from_zone_map(cls, zone_map: ZoneMap) -> "Layout":
        zones: dict[str, list[str]] = {}
        assignment: dict[str, str] = {}
        for occ, desk, zone in zone_map.entries:
            zones.setdefault(zone, []).append(desk)
            if occ:
                assignment[desk] = occ
        return cls(zones, assignment)

    @classmethod
    def from_groups(cls, groups: Mapping[str, Sequence[str]]) -> "Layout":
        """Build a fully occupied layout from zone -> occupant lists."""
        zones = {
            z: [f"{z}-d{k}" for k in range(len(occs))] for z, occs in groups.items()
        }
        assignment = {
            f"{z}-d{k}": occ
            for z, occs in groups.items()
            for k, occ in enumerate(occs)
        }
        return cls(zones, assignment)

    def occupants(self) -> list[str]:
        return sorted(self.assignment.values())

    def desk_order(self) -> list[str]:
        """Canonical desk traversal: zones sorted by id, desks in zone order."""
        return [d for z in sorted(self.zones) for d in self.zones[z]]

    def zone_of_desk(self) -> dict[str, str]:
        return {d: z for z, desks in self.zones.items() for d in desks}

    def by_zone(self) -> dict[str, list[str]]:
        """zone_id -> occupants seated there, in desk order."""
        return {
            z: [self.assignment[d] for d in desks if d in self.assignment]
            for z, desks in self.zones.items()
        }

    def same_structure(self, other: "Layout") -> bool:
        return self.zones == other.zones and set(self.assignment.values()) == set(
            other.assignment.values()
        )


def random_layout(template: Layout, rng: np.random.Generator) -> Layout:
    """Uniformly random assignment of the template's occupants to its desks."""
    desks = template.desk_order()
    tokens: list[str | None] = sorted(template.assignment.values())
    tokens += [None] * (len(desks) - len(tokens))
    perm = rng.permutation(len(tokens))
    assignment = {
        desk: tokens[perm[i]] for i, desk in enumerate(desks) if tokens[perm[i]] is not None
    }
    return Layout({z: list(d) for z, d in template.zones.items()}, assignment)


def count_layouts(n_occupants: int, n_zones: int) -> int:
    """Assignments into n interchangeable equal-size zones: I!/((m!)^n n!)."""
    if n_zones < 1 or n_occupants < 1:
        raise ValueError("occupants and zones must be positive")
    if n_occupants % n_zones != 0:
        raise ValueError(f"{n_zones} zones do not evenly divide {n_occupants} occupants")
    m = n_occupants // n_zones
    return math.factorial(n_occupants) // (
        math.factorial(m) ** n_zones * math.factorial(n_zones)
    )


def count_layouts_distinct(zone_sizes: Sequence[int]) -> int:
    """Assignments when zones are distinguishable: I! / prod(m_z!)."""
    if not zone_sizes or any(s < 1 for s in zone_sizes):
        raise ValueError("zone sizes must be positive")
    total = math.factorial(sum(zone_sizes))
    for s in zone_sizes:
        total //= math.factorial(s)
    return total


@dataclass
class OptTrace:
    """Objective per iteration/generation plus the running best."""

    objectives: list[float]
    best_so_far: list[float]
    accepted: list[tuple[int, str, str]] = field(default_factory=list)


def write_trace(trace: OptTrace, path, header_comment: str | None = None) -> None:
    rows = [(i, *pair) for i, pair in enumerate(zip(trace.objectives, trace.best_so_far))]
    _write_rows(path, ["iteration", "objective", "best_so_far"], rows, [header_comment])


def write_layout(layout: Layout, path, header_comment: str | None = None) -> None:
    zone_of = layout.zone_of_desk()
    rows = [(d, zone_of[d], layout.assignment.get(d, "")) for d in layout.desk_order()]
    _check_ids("desk id", zone_of)
    _check_ids("zone id", layout.zones)
    _check_ids("occupant id", layout.assignment.values())
    _write_rows(path, ["desk_id", "zone_id", "occupant_id"], rows, [header_comment])


def load_layout(path) -> Layout:
    return Layout.from_zone_map(_read_desk_table(path, ["desk_id", "zone_id", "occupant_id"]))


def layout_objective(layout: Layout, vectors: Mapping[str, np.ndarray]) -> float:
    """Total zone diversity of a layout (the swap optimizer's objective)."""
    return layout_diversity(layout.by_zone(), vectors).total


def swap_optimize(
    vectors: Mapping[str, np.ndarray],
    initial: Layout,
    iter_limit: int | None = None,
    seed: int = 0,
) -> tuple[Layout, OptTrace]:
    """Greedy diversity clustering via randomized best-swap moves.

    Each iteration picks a uniformly random occupied desk and executes
    the lowest-delta swap of its occupant against every occupant in
    every other zone, the null swap included (ties break to the lowest
    occupant index, the null swap counting as its own occupant's index).
    """
    if not initial.assignment:
        raise ValueError("empty layout")
    occs = initial.occupants()
    occ_idx = {o: i for i, o in enumerate(occs)}
    n = len(occs)
    limit = 50 * n if iter_limit is None else iter_limit
    if limit < 1:
        raise ValueError("iter_limit must be >= 1")

    d = distance_matrix(stack_vectors(vectors, occs))
    zone_ids = sorted(initial.zones)
    zid_idx = {z: j for j, z in enumerate(zone_ids)}
    nz = len(zone_ids)
    zone_of_desk = initial.zone_of_desk()

    desk_of_occ: dict[int, str] = {}
    occ_zone = np.zeros(n, dtype=np.intp)
    for desk, occ in initial.assignment.items():
        i = occ_idx[occ]
        desk_of_occ[i] = desk
        occ_zone[i] = zid_idx[zone_of_desk[desk]]

    counts = np.bincount(occ_zone, minlength=nz)
    denom = np.where(counts > 1, counts * (counts - 1), 1).astype(float)
    live = counts > 1  # single-occupant zones contribute 0 regardless

    def indicator() -> np.ndarray:
        ind = np.zeros((n, nz))
        ind[np.arange(n), occ_zone] = 1.0
        return ind

    m = d @ indicator()  # m[i, z] = total distance from occupant i to zone z

    def total() -> float:
        zone_sum = np.array(
            [d[np.ix_(occ_zone == z, occ_zone == z)].sum() for z in range(nz)]
        )
        return float(np.sum(np.where(live, zone_sum / denom, 0.0)))

    rng = np.random.default_rng(seed)
    occupied = sorted(initial.assignment)  # fixed: swaps never change occupancy
    occ_at = dict(initial.assignment)
    idx_all = np.arange(n)
    objectives: list[float] = []
    best: list[float] = []
    accepted: list[tuple[int, str, str]] = []
    current = total()

    for it in range(limit):
        desk = occupied[int(rng.integers(len(occupied)))]
        a = occ_idx[occ_at[desk]]
        za = occ_zone[a]
        own = np.where(live[occ_zone], 1.0 / denom[occ_zone], 0.0)
        wa = (1.0 / denom[za]) if live[za] else 0.0
        # a zone's distance sum counts each pair twice, so a swap changes it
        # by twice the bracketed sums
        delta = 2.0 * (
            (m[:, za] - m[a, za] - d[a]) * wa
            + (m[a, occ_zone] - m[idx_all, occ_zone] - d[a]) * own
        )
        delta = np.where(occ_zone == za, np.inf, delta)
        delta[a] = 0.0  # the null swap
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
    exact = layout_objective(final, vectors)
    if objectives:
        # no move raises the objective, so the final layout is the best one;
        # its exact objective replaces the incrementally updated value
        objectives[-1] = best[-1] = exact
    return final, OptTrace(objectives, best, accepted)


def crossover(
    parents_a: np.ndarray, parents_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One child per row pair: desk-wise random parent pick with feasibility repair.

    Rows map desk slots to occupant indices (-1 vacant).  In slot order, a
    pick that would repeat a placed occupant, or exceed the parents'
    vacancy count, falls back to the other parent, then to deferral.
    Deferred desks take the unplaced occupants in rising order of one
    random key per occupant, drawn after the (P, D) picks.
    """
    if parents_a.shape != parents_b.shape:
        raise ValueError("parents differ in shape")
    n, n_desks = parents_a.shape
    budget = np.count_nonzero(parents_a < 0, axis=1)
    n_occ = n_desks - int(budget[0])
    picks = rng.integers(0, 2, size=(n, n_desks))
    fill_keys = rng.random((n, n_occ))
    first = np.where(picks == 0, parents_a, parents_b)
    second = np.where(picks == 0, parents_b, parents_a)
    child = np.full((n, n_desks), -1, dtype=parents_a.dtype)
    used = np.zeros((n, n_occ), dtype=bool)
    deferred = np.zeros((n, n_desks), dtype=bool)
    rows = np.arange(n)
    for j in range(n_desks):
        placed = np.zeros(n, dtype=bool)
        for parent in (first[:, j], second[:, j]):
            vacancy = ~placed & (parent < 0) & (budget > 0)
            budget -= vacancy
            occupant = ~placed & (parent >= 0) & ~used[rows, parent]
            child[occupant, j] = parent[occupant]
            used[rows[occupant], parent[occupant]] = True
            placed |= vacancy | occupant
        deferred[:, j] = ~placed
    fill = np.argsort(np.where(used, np.inf, fill_keys), axis=1, kind="stable")
    rank = np.cumsum(deferred, axis=1) - 1
    r, c = np.nonzero(deferred & (rank < (n_occ - used.sum(axis=1))[:, None]))
    child[r, c] = fill[r, rank[r, c]]
    return child


def mutate(
    population: np.ndarray, m_mut: float, rng: np.random.Generator, bounds: np.ndarray
) -> np.ndarray:
    """With probability m_mut per layout, swap one random desk per zone across zones.

    Zone z holds desk slots bounds[z]:bounds[z + 1]; zones are visited in
    that order, each swapping with a random desk of a random other zone.
    """
    if not 0.0 <= m_mut <= 1.0:
        raise ValueError("m_mut must be in [0, 1]")
    out = population.copy()
    rows = np.flatnonzero(rng.random(len(out)) < m_mut)
    starts, sizes = bounds[:-1], np.diff(bounds)
    n_zones = sizes.size
    if n_zones < 2:
        return out
    for z in range(n_zones):
        da = starts[z] + rng.integers(0, sizes[z], size=rows.size)
        zb = rng.integers(0, n_zones - 1, size=rows.size)
        zb += zb >= z  # a random zone other than z
        db = starts[zb] + rng.integers(0, sizes[zb])
        out[rows, da], out[rows, db] = out[rows, db], out[rows, da]
    return out


@dataclass(frozen=True)
class GaConfig:
    """Genetic algorithm knobs (survivors = elites + random non-elites)."""

    population: int = 100
    elites: int = 20
    random_survivors: int = 5
    children_per_pair: int = 1
    mutation_prob: float = 0.2
    generations: int = 200

    def validate(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.elites < 1 or self.random_survivors < 0:
            raise ValueError("need at least one elite and non-negative randoms")
        if self.elites + self.random_survivors < 2:
            raise ValueError("need at least two survivors to pair")
        if self.elites + self.random_survivors > self.population:
            raise ValueError("survivors exceed the population")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.children_per_pair < 1 or self.generations < 1:
            raise ValueError("children_per_pair and generations must be >= 1")


def ga_optimize(
    fitness: Callable[[Mapping[str, np.ndarray], Sequence[str]], np.ndarray],
    template: Layout,
    config: GaConfig | None = None,
    seed: int = 0,
    seeds_in: Sequence[Layout] | None = None,
) -> tuple[Layout, OptTrace]:
    """Generational GA: B best + R random survivors breed a fully new population.

    The population is one (P, D) int array mapping desk slots
    (template.desk_order()) to indices into template.occupants(), -1 when
    vacant.  Each generation is scored by one call, fitness(zones,
    occupants) -> P values (lower is better), with zones mapping zone_id to
    its slots' columns.  No elitism carries layouts over; the best-ever
    layout is returned, and the trace records each generation's best
    fitness and the running best.
    """
    cfg = config or GaConfig()
    cfg.validate()
    rng = np.random.default_rng(seed)
    desks = template.desk_order()
    occupants = template.occupants()
    zone_ids = sorted(template.zones)
    bounds = np.cumsum([0] + [len(template.zones[z]) for z in zone_ids])

    layouts = list(seeds_in or [])
    if not all(template.same_structure(layout) for layout in layouts):
        raise ValueError("seed layout differs from the template in zones or occupants")
    layouts = layouts[: cfg.population]
    while len(layouts) < cfg.population:
        layouts.append(random_layout(template, rng))
    occ_index = {o: i for i, o in enumerate(occupants)}
    population = np.array(
        [[occ_index.get(lay.assignment.get(d), -1) for d in desks] for lay in layouts],
        dtype=np.intp,
    )

    best_row: np.ndarray | None = None
    best_fit = np.inf
    objectives: list[float] = []
    best_series: list[float] = []

    for gen in range(cfg.generations):
        zones = {z: population[:, bounds[j] : bounds[j + 1]] for j, z in enumerate(zone_ids)}
        fits = np.asarray(fitness(zones, occupants), dtype=float)
        if fits.shape != (cfg.population,) or not np.all(np.isfinite(fits)):
            raise ValueError("fitness must give one finite value per layout")
        order = np.lexsort((np.arange(fits.size), fits))
        gen_best = int(order[0])
        if fits[gen_best] < best_fit:
            best_fit = float(fits[gen_best])
            best_row = population[gen_best].copy()
        objectives.append(float(fits[gen_best]))
        best_series.append(best_fit)
        if gen == cfg.generations - 1:
            break

        elite_idx = list(order[: cfg.elites])
        pool = [i for i in range(cfg.population) if i not in set(elite_idx)]
        n_rand = min(cfg.random_survivors, len(pool))
        rand_idx = (
            list(rng.choice(pool, size=n_rand, replace=False)) if n_rand else []
        )
        survivors = np.array(elite_idx + rand_idx)
        first, second = np.triu_indices(len(survivors), 1)  # pairs (0, 1), (0, 2), ...
        pair_order = rng.permutation(len(first))
        # child c comes from the (c // children_per_pair)-th pair drawn, cycling
        drawn = pair_order[np.arange(cfg.population) // cfg.children_per_pair % len(first)]
        children = crossover(
            population[survivors[first[drawn]]], population[survivors[second[drawn]]], rng
        )
        population = mutate(children, cfg.mutation_prob, rng, bounds)

    assert best_row is not None
    best = {desk: occupants[i] for desk, i in zip(desks, best_row) if i >= 0}
    layout = Layout({z: list(d) for z, d in template.zones.items()}, best)
    return layout, OptTrace(objectives, best_series)

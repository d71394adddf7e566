"""Layout optimizers: greedy swap clustering and a genetic algorithm.

A layout (ingest.Layout) assigns occupants to desks grouped into fixed-size
zones.  The swap optimizer minimizes total zone diversity with incremental
deltas, each run jumping from one move to the next; the GA breeds
a population held as one desk-slot array and minimizes any caller-supplied
population fitness (typically surrogate energy).  Both are fully seeded and
deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .diversity import distance_matrix, layout_diversity, mean_pairwise_distance, stack_vectors
from .ingest import _LAYOUT_HEADER, Layout, _read_desk_table, _write_desk_table, _write_lines

def random_seat_row(template: Layout, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random seat row (Layout.seat_rows) of the template: one
    rng.permutation over its desks, values from the occupant count up vacant."""
    perm = rng.permutation(len(template.desk_order()))
    return np.where(perm < len(template.assignment), perm, -1)


def random_layout(template: Layout, rng: np.random.Generator) -> Layout:
    """Uniformly random assignment of the template's occupants to its desks."""
    return template.with_seat_row(random_seat_row(template, rng))


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


@dataclass
class OptTrace:
    """Objective per iteration/generation plus the running best."""

    objectives: list[float]
    best_so_far: list[float]
    accepted: list[tuple[int, str, str]] = field(default_factory=list)


def write_trace(trace: OptTrace, path, header_comment: str | None = None) -> None:
    # a trace repeats few distinct values, so each is formatted once, as
    # csv.writer formats a float (repr); values are told apart by their bits,
    # as 0.0 == -0.0
    values = np.array([trace.objectives, trace.best_so_far], dtype=float)
    distinct, at = np.unique(values.view(np.int64), return_inverse=True)
    text = [repr(v) for v in distinct.view(float).tolist()]
    objective, best = at.reshape(values.shape).tolist()
    lines = [f"{k},{text[a]},{text[b]}\n" for k, (a, b) in enumerate(zip(objective, best))]
    header = ["iteration", "objective", "best_so_far"]
    _write_lines(path, header, ["".join(lines)], [header_comment])


def write_layout(layout: Layout, path, header_comment: str | None = None) -> None:
    _write_desk_table(layout, path, _LAYOUT_HEADER, header_comment)


def load_layout(path) -> Layout:
    return _read_desk_table(path, _LAYOUT_HEADER)


def layout_objective(layout: Layout, vectors: Mapping[str, np.ndarray]) -> float:
    """Total zone diversity of a layout (the swap optimizer's objective)."""
    return layout_diversity(layout.by_zone(), vectors).total


def swap_optimize(
    vectors: Mapping[str, np.ndarray],
    initial: Layout,
    iter_limit: int | None = None,
    seed: int = 0,
) -> tuple[Layout, OptTrace]:
    """Greedy diversity clustering from one start: swap_search with one run."""
    return swap_search(vectors, [initial], iter_limit, [seed])[0]


def swap_search(
    vectors: Mapping[str, np.ndarray],
    initials: Sequence[Layout],
    iter_limit: int | None,
    seeds: Sequence[int],
) -> list[tuple[Layout, OptTrace]]:
    """Greedy diversity clustering via randomized best-swap moves, one
    independent search per start and seed.

    Each iteration picks a uniformly random occupied desk and executes
    the lowest-delta swap of its occupant against every occupant in
    every other zone, the null swap included (ties break to the lowest
    occupant index, the null swap counting as its own occupant's index).
    The objective is updated incrementally and recomputed exactly every
    1024 iterations.

    Runs share only the distance matrix; each keeps its own zone counts
    (vacant desks may leave runs with different counts) and its own desk
    stream, drawn up front from its seed.  A run's state changes only at
    its moves and its recomputes, so it jumps from one to the next.  It
    keeps an (n, n) delta table, row a holding, bit for bit, the deltas an
    iteration computes when it draws occupant a; a move rescores only the
    rows and columns of the two zones it touches.  The next move is the
    first drawn desk, before the next recompute or the limit, whose
    occupant's best partner is another occupant; the iterations before it
    repeat the current objective.
    """
    if not initials:
        raise ValueError("no starting layouts")
    if len(seeds) != len(initials):
        raise ValueError(f"{len(seeds)} seeds for {len(initials)} starting layouts")
    first = initials[0]
    if not first.assignment:
        raise ValueError("empty layout")
    if not all(first.same_structure(layout) for layout in initials[1:]):
        raise ValueError("starting layouts differ in zones or occupants")
    occs = first.occupants()
    n = len(occs)
    limit = 50 * n if iter_limit is None else iter_limit
    if limit < 1:
        raise ValueError("iter_limit must be >= 1")

    d = distance_matrix(stack_vectors(vectors, occs))
    bounds = first.zone_bounds()
    desk_zone = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    by_id = np.argsort(np.array(first.desk_order(), dtype=object))  # Python str order
    results = []
    for row, seed in zip(first.seat_rows(initials), seeds):
        # slot j is the j-th occupied desk in sorted id order; swaps never
        # change which desks are occupied
        slot_desk = by_id[row[by_id] >= 0]
        seat = row[slot_desk]
        zone = np.empty(n, dtype=np.intp)  # occupant -> zone index
        zone[seat] = desk_zone[slot_desk]
        # one integers(n, size=limit) call draws what limit scalar
        # integers(n) calls would
        draws = np.random.default_rng(seed).integers(n, size=limit)
        objectives, accepted = _swap_run(d, zone, seat, draws, bounds.size - 1)
        row[slot_desk] = seat
        best_so_far = np.minimum.accumulate(objectives)
        trace = OptTrace(
            objectives.tolist(), best_so_far.tolist(),
            [(it, occs[a], occs[b]) for it, a, b in accepted],
        )
        # no move raises the objective, so the final layout is the best one; its
        # exact objective (layout_objective's, read off d) replaces the running one
        zone_rows = dict(zip(sorted(first.zones), np.split(row, bounds[1:-1])))
        members = (r[r >= 0] for r in map(zone_rows.get, first.zones))
        exact = sum(mean_pairwise_distance(d[np.ix_(m, m)]) for m in members)
        trace.objectives[-1] = trace.best_so_far[-1] = exact
        results.append((first.with_seat_row(row), trace))
    return results


def _swap_run(
    d: np.ndarray, zone: np.ndarray, seat: np.ndarray, draws: np.ndarray, nz: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """One swap search (see swap_search) over distance matrix d, which must
    be symmetric bit for bit.  zone (occupant -> zone index) and seat (slot
    -> occupant) are updated in place; draws holds each iteration's slot.
    Gives the objective after each iteration and the accepted moves as
    (iteration, occupant, partner) indices."""
    n, limit = d.shape[0], draws.size
    idx = np.arange(n)
    counts = np.bincount(zone, minlength=nz)
    denom = np.where(counts > 1, counts * (counts - 1), 1).astype(float)
    live = counts > 1  # single-occupant zones contribute 0 regardless
    weight = np.where(live, 1.0 / denom, 0.0)
    m = np.empty((nz, n))  # m[z, i]: total distance from occupant i to zone z

    def resync() -> float:
        ind = np.zeros((n, nz))
        ind[idx, zone] = 1.0
        m[:] = (d @ ind).T
        zone_sum = np.array([d[np.ix_(zone == z, zone == z)].sum() for z in range(nz)])
        return float(np.sum(np.where(live, zone_sum / denom, 0.0)))

    g = np.empty((n, n))  # g[a, i]: zone(a)'s term of swapping a with i
    table = np.empty((n, n))  # table[a]: the deltas of an iteration that draws a

    def rescore(rows: np.ndarray) -> None:
        # a zone's distance sum counts each pair twice, so swapping a with i
        # changes the objective by twice g[a, i] + g[i, a], where
        # g[a, i] = (m[zone(a), i] - m[zone(a), a] - d[a, i]) * w(zone(a))
        # and g[i, a] is zone(i)'s term, d[i, a] being d[a, i].  Row a of g
        # changes only with zone(a)'s members, and the table is symmetric
        row_zone = zone.take(rows)
        pos = np.arange(rows.size)
        t = m.take(row_zone, axis=0)
        t -= t[pos, rows][:, None]
        t -= d.take(rows, axis=0)
        t *= weight.take(row_zone)[:, None]
        g[rows] = t
        t += g[:, rows].T
        t *= 2.0
        # same-zone swaps are not moves; the null swap is 0
        np.putmask(t, (zone == np.arange(nz)[:, None]).take(row_zone, axis=0), np.inf)
        t[pos, rows] = 0.0
        table[rows] = t
        table[:, rows] = t.T

    objectives = np.empty(limit)
    accepted = []
    slot = np.argsort(seat)  # occupant -> slot
    cur = resync()
    rescore(idx)
    it = 0
    while it < limit:
        best = table.argmin(axis=1)  # ties go to the lowest occupant index
        stop = min(limit, (it // 1024 + 1) * 1024)
        # the first iteration before stop whose drawn occupant would move;
        # until then no state changes
        hits = np.flatnonzero((best != idx).take(seat).take(draws[it:stop]))
        at = it + int(hits[0]) if hits.size else stop - 1
        objectives[it:at] = cur
        if hits.size:
            a = int(seat[draws[at]])
            b = int(best[a])
            za, zb = zone[a], zone[b]
            cur += table[a, b]
            m[za] += d[b] - d[a]
            m[zb] += d[a] - d[b]
            zone[a], zone[b] = zb, za
            sa, sb = slot[a], slot[b]
            seat[sa], seat[sb] = b, a
            slot[a], slot[b] = sb, sa
            accepted.append((at, a, b))
            rescore(np.flatnonzero((zone == za) | (zone == zb)))
        if (at + 1) % 1024 == 0:
            cur = resync()
            rescore(idx)
        objectives[at] = cur
        it = at + 1
    return objectives, accepted


def crossover(
    parents_a: np.ndarray, parents_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One child per row pair: desk-wise random parent pick with feasibility repair.

    Rows are seat rows (Layout.seat_rows), -1 at a vacant desk.  In slot order, a
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

    def validate(self, prefix: str = "") -> None:
        """Reject settings the GA cannot run; messages name each field as
        prefix + field (a caller's config path, say)."""
        p = prefix
        if self.population < 2:
            raise ValueError(f"{p}population must be >= 2, got {self.population}")
        if self.elites < 1:
            raise ValueError(f"{p}elites must be >= 1, got {self.elites}")
        if self.random_survivors < 0:
            raise ValueError(f"{p}random_survivors must be >= 0, got {self.random_survivors}")
        survivors = self.elites + self.random_survivors
        if survivors < 2:
            raise ValueError(
                f"{p}elites + {p}random_survivors must be >= 2 to pair, got {survivors}"
            )
        if survivors > self.population:
            raise ValueError(
                f"{p}elites + {p}random_survivors ({survivors}) exceed "
                f"{p}population ({self.population})"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"{p}mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if self.children_per_pair < 1:
            raise ValueError(f"{p}children_per_pair must be >= 1, got {self.children_per_pair}")
        if self.generations < 1:
            raise ValueError(f"{p}generations must be >= 1, got {self.generations}")


def ga_optimize(
    fitness: Callable[[np.ndarray, Layout], np.ndarray],
    template: Layout,
    config: GaConfig | None = None,
    seed: int = 0,
    seeds_in: Sequence[Layout] | None = None,
) -> tuple[Layout, OptTrace]:
    """Generational GA: B best + R random survivors breed a fully new population.

    The population is one (P, D) array of seat rows (template.seat_rows).
    Generation 0 is the seeds, then random_seat_row draws from the run's
    generator.  Each generation is scored by one call,
    fitness(population, template) -> P values (lower is better).  No
    elitism carries layouts over; the best-ever layout is returned, and the
    trace records each generation's best fitness and the running best.
    """
    cfg = config or GaConfig()
    cfg.validate()
    rng = np.random.default_rng(seed)
    bounds = template.zone_bounds()

    seeded = template.seat_rows(seeds_in or [])[: cfg.population]
    padding = [random_seat_row(template, rng) for _ in range(cfg.population - len(seeded))]
    population = np.vstack([seeded, *padding])

    best_row: np.ndarray | None = None
    best_fit = np.inf
    objectives: list[float] = []
    best_series: list[float] = []

    for gen in range(cfg.generations):
        fits = np.asarray(fitness(population, template), dtype=float)
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
        elite_set = set(elite_idx)
        pool = [i for i in range(cfg.population) if i not in elite_set]
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
    return template.with_seat_row(best_row), OptTrace(objectives, best_series)

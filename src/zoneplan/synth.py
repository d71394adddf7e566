"""Synthetic archetype schedules and a rule-based lighting oracle.

Archetypes describe a daily routine (arrival, lunch, meetings,
departure); generated schedules are state 1 outside working windows and
randomly state 3 (with probability p_high) or state 2 inside them.  The
oracle lights a zone while any assigned occupant showed motion (state 3)
within a trailing hold window, giving closed-loop ground truth that
flows through the same CSV schemas as measured data; oracle runs over
a list of layouts also give the surrogate its training data, and
protocol_layouts picks those layouts and the GA's seed pool.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .ingest import STEPS_PER_DAY, LightingTable
from .optimize import Layout, random_layout, swap_search
from .states import StateGrid
from .surrogate import FeatureTable, build_features, concat_tables, targets_from_lighting

DEFAULT_START = datetime(2018, 1, 1, tzinfo=timezone.utc)  # a Monday


@dataclass(frozen=True)
class Archetype:
    """Daily routine template; times are minutes from midnight."""

    name: str
    arrival_min: int
    departure_min: int
    lunch: tuple[int, int] | None = None  # (start, duration)
    meetings: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not 0 <= self.arrival_min <= self.departure_min <= 24 * 60:
            raise ValueError(f"{self.name}: arrival must not be after departure")
        for start, dur in ((self.lunch,) if self.lunch else ()) + self.meetings:
            if dur <= 0:
                raise ValueError(f"{self.name}: window durations must be positive")
            if start < self.arrival_min or start + dur > self.departure_min:
                raise ValueError(f"{self.name}: away windows must lie inside the workday")

    def away_windows(self) -> list[tuple[int, int]]:
        wins = [self.lunch] if self.lunch else []
        return wins + list(self.meetings)


# Four-archetype synthetic population. The fourth archetype's lunch is
# taken as 11:00 (the source table's "11pm" cannot lie inside a 7am-5pm
# workday and is read as a typo for 11am).
DEFAULT_ARCHETYPES: tuple[Archetype, ...] = (
    Archetype("A1", 9 * 60, 17 * 60, lunch=(12 * 60, 60), meetings=((15 * 60, 60),)),
    Archetype("A2", 9 * 60, 16 * 60),
    Archetype("A3", 11 * 60, 19 * 60, lunch=(15 * 60, 60), meetings=((15 * 60, 60),)),
    Archetype("A4", 7 * 60, 17 * 60, lunch=(11 * 60, 60), meetings=((13 * 60, 120),)),
)


def generate_schedule(
    archetype: Archetype,
    n_days: int,
    p_high: float = 0.8,
    seed: int = 0,
    jitter_minutes: float = 0.0,
) -> np.ndarray:
    """Seeded daily state sequence, 96 entries per day.

    A step is working time when its start minute falls in [arrival,
    departure) and outside lunch/meeting windows; working steps draw
    state 3 with probability p_high, else state 2.  jitter_minutes > 0
    shifts every boundary by an independent uniform offset each day.
    """
    if not 0.0 <= p_high <= 1.0:
        raise ValueError("p_high must be in [0, 1]")
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    step_minutes = np.arange(STEPS_PER_DAY) * 15.0
    out = np.ones(n_days * STEPS_PER_DAY, dtype=np.int8)
    windows = archetype.away_windows()
    for day in range(n_days):
        def shift() -> float:
            return float(rng.uniform(-jitter_minutes, jitter_minutes)) if jitter_minutes > 0 else 0.0

        arrival = archetype.arrival_min + shift()
        departure = archetype.departure_min + shift()
        working = (step_minutes >= arrival) & (step_minutes < departure)
        for start, dur in windows:
            s = start + shift()
            working &= ~((step_minutes >= s) & (step_minutes < s + dur))
        draws = rng.random(STEPS_PER_DAY)
        states = np.where(working, np.where(draws < p_high, 3, 2), 1).astype(np.int8)
        out[day * STEPS_PER_DAY : (day + 1) * STEPS_PER_DAY] = states
    return out


def generate_population(
    counts: tuple[int, ...] | list[int],
    n_days: int,
    seed: int = 0,
    p_high: float = 0.8,
    start: datetime = DEFAULT_START,
    jitter_minutes: float = 0.0,
) -> StateGrid:
    """Population of seeded schedules; occupant ids carry the archetype name."""
    if len(counts) != len(DEFAULT_ARCHETYPES):
        raise ValueError("one count per archetype is required")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    occupants: list[str] = []
    rows: list[np.ndarray] = []
    index = 0
    for archetype, count in zip(DEFAULT_ARCHETYPES, counts):
        for j in range(count):
            child_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
            occupants.append(f"{archetype.name}-{j:02d}")
            rows.append(
                generate_schedule(archetype, n_days, p_high, child_seed, jitter_minutes)
            )
            index += 1
    if not occupants:
        raise ValueError("population is empty")
    return StateGrid(occupants, start, np.vstack(rows))


@dataclass(frozen=True)
class LightingOracleConfig:
    """Occupancy-triggered zone lighting rules."""

    lit_power_w: float = 500.0
    standby_power_w: float = 20.0
    hold_weekday_min: int = 20
    hold_weekend_min: int = 10
    motion_state: int = 3
    daylight_factor: bool = False  # optional sinusoidal midday reduction

    def __post_init__(self):
        if not self.lit_power_w > self.standby_power_w >= 0:
            raise ValueError("need lit_power > standby_power >= 0")
        if self.hold_weekday_min <= 0 or self.hold_weekend_min <= 0:
            raise ValueError("hold times must be positive")

    def hold_steps(self, weekend: bool) -> int:
        mins = self.hold_weekend_min if weekend else self.hold_weekday_min
        return math.ceil(mins / 15)


def oracle_lighting(
    zones: dict[str, list[str]],
    states: StateGrid,
    config: LightingOracleConfig | None = None,
) -> tuple[list[str], np.ndarray]:
    """Per-zone per-step oracle energy (wh).

    A zone is lit at step t when any assigned occupant reached
    motion_state at any step in [t - h, t], h being the hold window in
    steps for t's day type (from the state grid's calendar).  Returns
    (zone_order, energy matrix).
    """
    cfg = config or LightingOracleConfig()
    cal = states.calendar
    occ_index = {occ: i for i, occ in enumerate(states.occupants)}
    zone_order = sorted(zones)
    n_steps = states.n_steps
    t = np.arange(n_steps)
    hold = np.where(cal.weekend, cfg.hold_steps(True), cfg.hold_steps(False))
    never = -int(hold.max(initial=0)) - 1  # a "last motion" step no hold reaches
    lit_power = cfg.lit_power_w
    if cfg.daylight_factor:
        # midday daylight displaces up to half the lit power
        reduction = 0.5 * np.maximum(0.0, np.sin(np.pi * (cal.hours - 6) / 12.0))
        lit_power = lit_power * (1.0 - reduction)
    energy = np.empty((len(zone_order), n_steps))
    for j, zone_id in enumerate(zone_order):
        members = zones[zone_id]
        missing = [o for o in members if o not in occ_index]
        if missing:
            raise ValueError(f"zone {zone_id}: occupants without states: {missing}")
        rows = states.states[[occ_index[o] for o in members]]
        motion = np.any(rows >= cfg.motion_state, axis=0)
        last_motion = np.maximum.accumulate(np.where(motion, t, never))
        lit = t - last_motion <= hold
        energy[j] = np.where(lit, lit_power, cfg.standby_power_w) * 0.25
    return zone_order, energy


def oracle_total(
    zones: dict[str, list[str]],
    states: StateGrid,
    config: LightingOracleConfig | None = None,
) -> float:
    """Oracle energy (wh) of a layout over the whole horizon."""
    _, energy = oracle_lighting(zones, states, config)
    return float(energy.sum())


def oracle_lighting_table(
    zones: dict[str, list[str]],
    states: StateGrid,
    config: LightingOracleConfig | None = None,
) -> LightingTable:
    """Oracle output folded to the hourly lighting CSV schema."""
    zone_order, energy = oracle_lighting(zones, states, config)
    hour_starts, hour_column = states.calendar.hour_columns()
    records: dict[tuple[str, int], float] = {}
    for j, zone_id in enumerate(zone_order):
        sums = np.bincount(hour_column, weights=energy[j], minlength=hour_starts.size)
        for h, wh in zip(hour_starts.tolist(), sums.tolist()):
            records[(zone_id, h)] = wh
    return LightingTable(records)


def oracle_training_set(
    states: StateGrid,
    layouts: Sequence[Mapping[str, Sequence[str]]],
    config: LightingOracleConfig | None = None,
) -> tuple[FeatureTable, np.ndarray]:
    """Surrogate training data: feature rows and oracle targets of layouts.

    Each layout is a zone_id -> occupant ids mapping over the same zones;
    the layouts' tables are stacked in the given order, each with
    n_steps * n_zones rows.
    """
    tables, targets = [], []
    for zones in layouts:
        table = build_features(states, zones)
        lighting = oracle_lighting_table(zones, states, config)
        tables.append(table)
        targets.append(targets_from_lighting(table, lighting))
    return concat_tables(tables), np.concatenate(targets)


def protocol_layouts(
    vectors: Mapping[str, np.ndarray],
    template: Layout,
    n_random: int,
    population: int,
    seed: int = 0,
) -> tuple[list[Layout], list[Layout]]:
    """Surrogate training layouts and GA seed pool of the closed-loop protocol.

    Training: n_random random layouts, each stage of six swap-search runs
    of six 300-iteration stages, and four 2000-iteration swap runs, so
    near-optimal compositions are in-distribution.  Pool: population // 2
    converged swap runs from random starts.  Every random start and swap
    run draws from a stream fixed by seed; runs of one kind are searched
    together (swap_search), each with the result it gives alone.
    """

    def start(tag: int, i: int) -> Layout:
        rng = np.random.default_rng(np.random.SeedSequence([tag + seed, i]))
        return random_layout(template, rng)

    def swap(layouts: list[Layout], runs: list[int], iter_limit: int | None = None) -> list[Layout]:
        results = swap_search(vectors, layouts, iter_limit, [seed + run for run in runs])
        return [layout for layout, _ in results]

    train = [start(2024, j) for j in range(n_random)]
    layouts, stages = [start(7070, s) for s in range(6)], []
    for stage in range(6):  # the six trajectories advance one stage at a time
        layouts = swap(layouts, [1000 + 100 * s + stage for s in range(6)], 300)
        stages.append(layouts)
    train += [stages[stage][s] for s in range(6) for stage in range(6)]
    train += swap([start(8080, s) for s in range(4)], [2000 + s for s in range(4)], 2000)
    n_pool = population // 2
    pool = []
    if n_pool:
        pool = swap([start(3030, i) for i in range(n_pool)], [3000 + i for i in range(n_pool)])
    return train, pool


def archetype_pure_layout(states: StateGrid, n_zones: int) -> dict[str, list[str]]:
    """Group occupants by archetype prefix into n_zones equal zones.

    Occupant ids follow the generate_population naming; equal zone sizes
    are required.  Returns a zone -> occupants mapping.
    """
    n = len(states.occupants)
    if n % n_zones != 0:
        raise ValueError("zones must divide the population evenly")
    size = n // n_zones
    by_prefix = sorted(states.occupants, key=lambda o: (o.split("-")[0], o))
    return {
        f"Z{z + 1}": by_prefix[z * size : (z + 1) * size] for z in range(n_zones)
    }


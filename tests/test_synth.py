"""Synthetic archetype schedules and the rule-based lighting oracle."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneplan.optimize import layout_objective
from zoneplan.states import StateGrid
from zoneplan.synth import (
    DEFAULT_ARCHETYPES,
    DEFAULT_START,
    Archetype,
    LightingOracleConfig,
    archetype_pure_layout,
    generate_population,
    generate_schedule,
    oracle_lighting,
    oracle_lighting_table,
    protocol_layouts,
)

UTC = timezone.utc


def steps(hour: float) -> int:
    return int(hour * 4)


# ---------------------------------------------------------------- archetypes


def test_default_archetype_bounds():
    # second archetype works 09:00-16:00 with no lunch and no meetings
    a2 = DEFAULT_ARCHETYPES[1]
    assert a2.arrival_min == 9 * 60
    assert a2.departure_min == 16 * 60
    assert a2.lunch is None
    assert not a2.meetings


def test_schedule_respects_work_bounds():
    a2 = DEFAULT_ARCHETYPES[1]
    sched = generate_schedule(a2, 1, seed=0)
    assert sched.shape == (96,)
    assert np.all(sched[: steps(9)] == 1)
    assert np.all(sched[steps(16) :] == 1)
    working = sched[steps(9) : steps(16)]
    assert np.all(working >= 2)


def test_lunch_and_meetings_marked_away():
    # first archetype: 09:00-17:00, lunch 12:00+60min, meeting 15:00+60min
    a1 = DEFAULT_ARCHETYPES[0]
    sched = generate_schedule(a1, 1, seed=1)
    assert np.all(sched[steps(12) : steps(13)] == 1)
    assert np.all(sched[steps(15) : steps(16)] == 1)
    assert np.all(sched[steps(9) : steps(12)] >= 2)


def test_p_high_one_removes_low_activity():
    a2 = DEFAULT_ARCHETYPES[1]
    sched = generate_schedule(a2, 2, p_high=1.0, seed=2)
    working = sched[(sched != 1)]
    assert np.all(working == 3)


def test_p_high_zero_removes_high_activity():
    a2 = DEFAULT_ARCHETYPES[1]
    sched = generate_schedule(a2, 1, p_high=0.0, seed=3)
    assert set(np.unique(sched)) == {1, 2}


def test_schedule_deterministic():
    a1 = DEFAULT_ARCHETYPES[0]
    np.testing.assert_array_equal(
        generate_schedule(a1, 3, seed=9), generate_schedule(a1, 3, seed=9)
    )


def test_jitter_moves_boundaries_within_bounds():
    a2 = DEFAULT_ARCHETYPES[1]
    base = generate_schedule(a2, 1, seed=4, jitter_minutes=0.0)
    jit = generate_schedule(a2, 1, seed=4, jitter_minutes=45.0)
    # jitter keeps the same states but may shift arrival/departure steps
    present_base = np.flatnonzero(base != 1)
    present_jit = np.flatnonzero(jit != 1)
    assert abs(int(present_jit[0]) - int(present_base[0])) <= 3
    assert abs(int(present_jit[-1]) - int(present_base[-1])) <= 3


def test_invalid_archetype_rejected():
    with pytest.raises(ValueError):
        Archetype("bad", arrival_min=17 * 60, departure_min=9 * 60, lunch=None, meetings=())
    with pytest.raises(ValueError):
        Archetype(
            "bad", arrival_min=9 * 60, departure_min=17 * 60, lunch=(8 * 60, 60), meetings=()
        )


# ---------------------------------------------------------------- population


def test_population_counts_and_ids(pop36):
    assert len(pop36.occupants) == 36
    assert pop36.states.shape == (36, 96)
    # ids carry the archetype name prefix
    assert sum(o.startswith("A1-") for o in pop36.occupants) == 9


def test_population_single_archetype_one_day():
    pop = generate_population((1, 0, 0, 0), 1, seed=0)
    assert len(pop.occupants) == 1
    assert pop.states.shape == (1, 96)
    assert pop.start == DEFAULT_START


def test_population_deterministic():
    a = generate_population((2, 2, 0, 0), 2, seed=3)
    b = generate_population((2, 2, 0, 0), 2, seed=3)
    assert a.occupants == b.occupants
    np.testing.assert_array_equal(a.states, b.states)


def test_population_count_mismatch_rejected():
    with pytest.raises(ValueError):
        generate_population((1, 1, 1, 1, 1), 1, seed=0)  # five counts, four archetypes


def test_archetype_pure_layout_groups_by_prefix(pop36):
    groups = archetype_pure_layout(pop36, 4)
    assert sorted(groups) == ["Z1", "Z2", "Z3", "Z4"]
    for occupants in groups.values():
        prefixes = {o.split("-")[0] for o in occupants}
        assert len(prefixes) == 1


# ---------------------------------------------------------------- oracle


def one_occupant_states(row: np.ndarray):
    return StateGrid(["O1"], DEFAULT_START, row[None, :].astype(np.int64))


def test_protocol_layouts(pop36, pop36_pure):
    # 2 random layouts, 6 trajectories of 6 stages, 4 long swap runs; a pool
    # of half the GA population; every layout a function of the seed
    vectors = pop36.vectors()
    train, pool = protocol_layouts(vectors, pop36_pure, 2, 7, seed=5)
    assert len(train) == 2 + 6 * 6 + 4
    assert len(pool) == 7 // 2
    assert all(pop36_pure.same_structure(layout) for layout in train + pool)
    again = protocol_layouts(vectors, pop36_pure, 2, 7, seed=5)
    assert [lay.assignment for lay in train + pool] == [lay.assignment for lay in again[0] + again[1]]
    other, _ = protocol_layouts(vectors, pop36_pure, 2, 0, seed=6)
    assert [lay.assignment for lay in other] != [lay.assignment for lay in train]
    for s in range(6):
        stages = train[2 + 6 * s : 2 + 6 * (s + 1)]
        objectives = [layout_objective(layout, vectors) for layout in stages]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_no_motion_all_standby():
    sg = one_occupant_states(np.full(96, 1))
    cfg = LightingOracleConfig()
    zone_order, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    assert zone_order == ["Z1"]
    np.testing.assert_allclose(energy, cfg.standby_power_w * 0.25)


def test_single_weekday_motion_holds_two_steps():
    row = np.full(96, 1)
    row[40] = 3
    sg = one_occupant_states(row)
    cfg = LightingOracleConfig()
    _, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    lit = energy[0] == cfg.lit_power_w * 0.25
    # 20-minute weekday hold covers the motion step and the two after it
    assert list(np.flatnonzero(lit)) == [40, 41, 42]


def test_single_weekend_motion_holds_one_step():
    row = np.full(96, 1)
    row[40] = 3
    sg = one_occupant_states(row)
    saturday = datetime(2018, 1, 6, tzinfo=UTC)
    sg = StateGrid(["O1"], saturday, row[None, :].astype(np.int64))
    cfg = LightingOracleConfig()
    _, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    lit = energy[0] == cfg.lit_power_w * 0.25
    assert list(np.flatnonzero(lit)) == [40, 41]


def test_state_two_does_not_trip_motion():
    row = np.full(96, 2)
    sg = one_occupant_states(row)
    cfg = LightingOracleConfig()
    _, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    np.testing.assert_allclose(energy, cfg.standby_power_w * 0.25)


def test_zone_energy_depends_only_on_member_multiset(pop36):
    cfg = LightingOracleConfig()
    members = pop36.occupants[:6]
    _, e1 = oracle_lighting({"Z1": list(members)}, pop36, cfg)
    _, e2 = oracle_lighting({"Z1": list(reversed(members))}, pop36, cfg)
    np.testing.assert_array_equal(e1, e2)


def test_upgrading_a_step_never_decreases_energy(pop36):
    cfg = LightingOracleConfig()
    zones = {"Z1": pop36.occupants[:9]}
    _, before = oracle_lighting(zones, pop36, cfg)
    bumped = pop36.states.copy()
    idle = np.argwhere(bumped[:9] != 3)
    i, t = idle[len(idle) // 2]
    bumped[i, t] = 3
    sg = StateGrid(list(pop36.occupants), pop36.start, bumped)
    _, after = oracle_lighting(zones, sg, cfg)
    assert after.sum() >= before.sum() - 1e-9


def test_hold_carries_across_day_boundary():
    row = np.full(192, 1)
    row[95] = 3  # last step of day one
    sg = StateGrid(["O1"], DEFAULT_START, row[None, :].astype(np.int64))
    cfg = LightingOracleConfig()
    _, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    lit = np.flatnonzero(energy[0] == cfg.lit_power_w * 0.25)
    assert list(lit) == [95, 96, 97]


def test_oracle_table_matches_stepwise_sums(pop8):
    cfg = LightingOracleConfig()
    zones = {"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]}
    zone_order, energy = oracle_lighting(zones, pop8, cfg)
    table = oracle_lighting_table(zones, pop8, cfg)
    hours = pop8.calendar.hour_epochs()
    for j, z in enumerate(zone_order):
        for h in np.unique(hours):
            expected = energy[j, hours == h].sum()
            assert table.records[(z, int(h))] == pytest.approx(expected, rel=1e-12)


def test_daylight_factor_off_by_default():
    cfg = LightingOracleConfig()
    assert cfg.daylight_factor is False


def test_daylight_factor_dims_only_lit_daytime_steps():
    # O1 is in motion all day (always lit), O2 never (always standby)
    states = np.vstack([np.full(96, 3), np.ones(96)]).astype(np.int8)
    sg = StateGrid(["O1", "O2"], DEFAULT_START, states)
    zones = {"Z1": ["O1"], "Z2": ["O2"]}
    _, plain = oracle_lighting(zones, sg, LightingOracleConfig())
    _, daylit = oracle_lighting(zones, sg, LightingOracleConfig(daylight_factor=True))
    hours = np.arange(96) // 4
    midday = (hours >= 8) & (hours <= 16)
    night = (hours <= 6) | (hours >= 19)
    assert np.all(daylit[0, midday] < plain[0, midday])
    assert daylit[0, steps(12)] == 0.5 * plain[0, steps(12)]  # noon: half the lit power
    np.testing.assert_array_equal(daylit[0, night], plain[0, night])
    np.testing.assert_array_equal(daylit[1], plain[1])  # standby is never dimmed


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_energy_bounded(seed):
    rng = np.random.default_rng(seed)
    row = rng.choice([1, 2, 3], size=96)
    sg = StateGrid(["O1"], DEFAULT_START, row[None, :].astype(np.int64))
    cfg = LightingOracleConfig()
    _, energy = oracle_lighting({"Z1": ["O1"]}, sg, cfg)
    lo = cfg.standby_power_w * 0.25 * 96
    hi = cfg.lit_power_w * 0.25 * 96
    assert lo - 1e-9 <= energy.sum() <= hi + 1e-9

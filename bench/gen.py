"""Seeded synthetic inputs for the benchmark, in the README's CSV schemas.

Uses numpy only: nothing here imports zoneplan, so a change to the
program cannot change a workload's inputs.

* Archetype state schedules: state 1 outside the working day and on
  weekends (absent), state 3 (active) or 2 (power-save) inside it.
* Plug-load events from those states: each occupant has its own power
  level per state, multiplied by a noise factor that is redrawn at random
  minutes; an event is written whenever the reported value changes.
* A zone map (the existing layout) and hourly lighting from a hold-window
  oracle on that layout: a zone is lit at a step when any member was
  active within the trailing hold window.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

STEP_S = 900
STEPS_PER_DAY = 96
DAY_S = 86_400
START_S = 1_514_764_800  # 2018-01-01T00:00:00Z, a Monday

# (name, arrival, departure, away windows as (start, duration)); minutes
ARCHETYPES = (
    ("A1", 540, 1020, ((720, 60), (900, 60))),
    ("A2", 540, 960, ()),
    ("A3", 660, 1140, ((900, 60),)),
    ("A4", 420, 1020, ((660, 60), (780, 120))),
)
P_ACTIVE = 0.8  # share of working steps in state 3
JITTER_STEPS = 1  # daily arrival/departure shift, in whole steps
POWER_W = ((0.5, 2.5), (12.0, 25.0), (55.0, 110.0))  # per-state ranges
NOISE_SIGMA = 0.05  # multiplicative, log-normal
REDRAW_PER_MIN = 0.2  # chance per minute that the noise factor changes
N_ZONES = 4  # equal zones in the existing layout
HOLD_STEPS = (2, 1)  # oracle hold window: weekday 20 min, weekend 10 min
LIT_W, STANDBY_W = 500.0, 20.0


def iso(epochs: np.ndarray) -> np.ndarray:
    """Epoch seconds -> 'YYYY-MM-DDTHH:MM:SSZ' strings."""
    text = np.datetime_as_string(np.asarray(epochs, dtype="datetime64[s]"), unit="s")
    return np.char.add(text, "Z")


def occupant_ids(n: int) -> list[str]:
    """Occupant i follows archetype i mod 4."""
    return [f"{ARCHETYPES[i % 4][0]}-{i:03d}" for i in range(n)]


def schedules(n_occ: int, n_days: int, rng: np.random.Generator) -> np.ndarray:
    """(n_occ, n_days * 96) int8 states; weekends are all state 1."""
    step_min = np.arange(STEPS_PER_DAY) * 15
    out = np.ones((n_occ, n_days * STEPS_PER_DAY), dtype=np.int8)
    for i in range(n_occ):
        _, arrive, depart, away = ARCHETYPES[i % 4]
        for day in range(n_days):
            if day % 7 >= 5:
                continue
            shift = rng.integers(-JITTER_STEPS, JITTER_STEPS + 1, size=2) * 15
            working = (step_min >= arrive + shift[0]) & (step_min < depart + shift[1])
            for start, dur in away:
                working &= ~((step_min >= start) & (step_min < start + dur))
            active = rng.random(STEPS_PER_DAY) < P_ACTIVE
            out[i, day * STEPS_PER_DAY : (day + 1) * STEPS_PER_DAY] = np.where(
                working, np.where(active, 3, 2), 1
            )
    return out


def plug_events(states: np.ndarray, rng: np.random.Generator):
    """Change-triggered (occupant index, epoch, watts) arrays, time-sorted per occupant."""
    n_occ, n_steps = states.shape
    n_min = n_steps * 15
    occ_col, time_col, power_col = [], [], []
    for i in range(n_occ):
        levels = np.array([rng.uniform(lo, hi) for lo, hi in POWER_W])
        per_min = np.repeat(states[i], 15) - 1
        redraw = rng.random(n_min) < REDRAW_PER_MIN
        redraw[0] = True
        noise = np.exp(rng.normal(0.0, NOISE_SIGMA, size=int(redraw.sum())))
        power = np.round(levels[per_min] * noise[np.cumsum(redraw) - 1], 2)
        change = np.empty(n_min, dtype=bool)
        change[0] = True
        change[1:] = power[1:] != power[:-1]
        minutes = np.flatnonzero(change)
        # a change is reported some seconds into its minute; minute 0 on the dot
        offsets = rng.integers(0, 60, size=minutes.size)
        offsets[minutes == 0] = 0
        occ_col.append(np.full(minutes.size, i))
        time_col.append(START_S + minutes * 60 + offsets)
        power_col.append(power[minutes])
    return np.concatenate(occ_col), np.concatenate(time_col), np.concatenate(power_col)


def zone_map(n_occ: int, n_zones: int, rng: np.random.Generator) -> np.ndarray:
    """Zone index per occupant for the existing layout: equal zones, random seats.

    Occupants are shuffled within their archetype and dealt to the zones
    in turn, so every zone gets the same archetype mix (to within one) and
    the seed changes who sits where, not how mixed the zones are.
    """
    order = np.concatenate([rng.permutation(np.arange(a, n_occ, 4)) for a in range(4)])
    zone_of = np.empty(n_occ, dtype=np.int64)
    zone_of[order] = np.arange(n_occ) % n_zones
    return zone_of


def oracle_hourly(states: np.ndarray, zone_of: np.ndarray, n_zones: int) -> np.ndarray:
    """(n_zones, n_hours) lighting energy in Wh from the hold-window oracle."""
    n_steps = states.shape[1]
    weekend = (np.arange(n_steps) // STEPS_PER_DAY) % 7 >= 5
    hold = np.where(weekend, HOLD_STEPS[1], HOLD_STEPS[0])
    step = np.arange(n_steps)
    energy = np.empty((n_zones, n_steps))
    for z in range(n_zones):
        motion = np.any(states[zone_of == z] == 3, axis=0)
        last = np.maximum.accumulate(np.where(motion, step, -(10**9)))
        lit = step - last <= hold
        energy[z] = np.where(lit, LIT_W, STANDBY_W) * 0.25
    return energy.reshape(n_zones, -1, 4).sum(axis=2)


def _write(path: Path, header: str, columns: list[np.ndarray]) -> None:
    rows = columns[0].astype(str)
    for col in columns[1:]:
        rows = np.char.add(np.char.add(rows, ","), col.astype(str))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows.tolist()))
        fh.write("\n")


def generate(out_dir, seed: int, n_occ: int, n_days: int, plug_load: bool = False) -> dict:
    """Write one workload's inputs under out_dir; returns their description.

    Always writes truth_states.csv (the generated schedules, in the states
    CSV schema), zone_map.csv and lighting.csv; plug_load.csv only when
    asked.  The result holds the explicit ingest window and the sha256 of
    every file written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_occ, n_days, N_ZONES]))
    ids = np.array(occupant_ids(n_occ))
    states = schedules(n_occ, n_days, rng)
    zone_of = zone_map(n_occ, N_ZONES, rng)
    n_steps = n_days * STEPS_PER_DAY
    step_epochs = START_S + STEP_S * np.arange(n_steps)

    _write(out / "truth_states.csv", "occupant_id,timestamp,state",
           [np.repeat(ids, n_steps), np.tile(iso(step_epochs), n_occ), states.ravel()])
    zone_names = np.array([f"Z{z + 1}" for z in range(N_ZONES)])
    _write(out / "zone_map.csv", "occupant_id,desk_id,zone_id",
           [ids, np.array([f"D{i:03d}" for i in range(n_occ)]), zone_names[zone_of]])
    hourly = oracle_hourly(states, zone_of, N_ZONES)
    hours = iso(START_S + 3600 * np.arange(hourly.shape[1]))
    _write(out / "lighting.csv", "zone_id,hour_start,energy_wh",
           [np.repeat(zone_names, hours.size), np.tile(hours, N_ZONES),
            hourly.ravel().astype(str)])
    files = ["truth_states.csv", "zone_map.csv", "lighting.csv"]
    n_events = 0
    if plug_load:
        occ, times, watts = plug_events(states, rng)
        n_events = int(times.size)
        _write(out / "plug_load.csv", "occupant_id,timestamp,power_w",
               [ids[occ], iso(times), watts.astype(str)])
        files.append("plug_load.csv")
    return {
        "occupants": n_occ,
        "days": n_days,
        "zones": N_ZONES,
        "events": n_events,
        "window": [str(iso(START_S)), str(iso(START_S + n_days * DAY_S))],
        "sha256": {f: sha256(out / f) for f in files},
    }


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

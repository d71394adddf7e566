"""Raw data loading, 15-minute resampling, and the writer of every output file."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

STEP_MINUTES = 15
STEP_SECONDS = STEP_MINUTES * 60
STEPS_PER_DAY = 96
DAY_SECONDS = STEPS_PER_DAY * STEP_SECONDS


class InputError(ValueError):
    """Malformed or inconsistent input data."""


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"bad timestamp {text!r}: {exc}") from None


def format_timestamp(epoch_s: int | float) -> str:
    dt = datetime.fromtimestamp(int(epoch_s), tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _epoch(dt: datetime) -> int:
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_epoch(text: str) -> int:
    """Epoch second of a CSV timestamp column (see parse_timestamp)."""
    return int(parse_timestamp(text).timestamp())


def _key(text: str, column: str) -> str:
    """A key column's value, which must not be empty."""
    if not text:
        raise InputError(f"empty {column}")
    return text


def _read_rows(path, expected_header: list[str], parse_row) -> None:
    """Call parse_row(a, b, c) on each data row of a three-column CSV, fields stripped.

    All six input schemas have three columns.  Empty lines are skipped, and
    so are '#' lines before the header (after it, '#' is data).  CSV syntax
    errors, non-UTF-8 bytes and parse_row's InputErrors are raised as
    InputErrors that start with path:line, counting physical lines (a row
    with a quoted line break is numbered by its last line).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = None
        try:
            for row in reader:
                if not row or (header is None and row[0].startswith("#")):
                    continue
                if header is None:
                    header = [c.strip() for c in row]
                    if header != expected_header:
                        raise InputError(
                            f"expected header {','.join(expected_header)}, got {','.join(header)}"
                        )
                    continue
                if len(row) != 3:
                    raise InputError(f"expected 3 fields, got {len(row)}")
                first, second, third = row
                parse_row(first.strip(), second.strip(), third.strip())
        except (csv.Error, InputError) as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise InputError(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from None
        if header is None:
            raise InputError(f"{path}: missing header row")


def _undecodable_line(path) -> int:
    """Number of the first line that is not valid UTF-8.

    The text reader decodes in blocks, so its position does not say where
    the bad byte is; no UTF-8 sequence spans a newline, so lines decode
    independently.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


@dataclass
class PlugLoadEvents:
    """Change-triggered power readings for one occupant, time-sorted."""

    occupant_id: str
    times: np.ndarray  # epoch seconds, int64, strictly increasing
    powers: np.ndarray  # watts, float64, >= 0


def load_plug_load(path) -> dict[str, PlugLoadEvents]:
    """Load a plug-load event CSV (occupant_id,timestamp,power_w).

    Rows must be time-sorted within each occupant; duplicate or backward
    timestamps raise an error naming the offending line.
    """
    return {
        occ: PlugLoadEvents(
            occ,
            np.asarray(times, dtype=np.int64),
            np.asarray(powers, dtype=np.float64),
        )
        for occ, (times, powers) in _read_series(path, "power_w", _parse_power).items()
    }


@dataclass
class TimeSeriesGrid:
    """Mean power per occupant on a regular 15-minute grid spanning whole days."""

    occupants: list[str]
    start: datetime  # UTC, aligned to a 15-minute boundary
    values: np.ndarray  # (n_occupants, n_steps) watts

    def __post_init__(self):
        self.start = self.start.astimezone(timezone.utc)
        if self.values.ndim != 2 or self.values.shape[0] != len(self.occupants):
            raise InputError("grid shape does not match occupant list")
        if self.values.shape[1] % STEPS_PER_DAY != 0:
            raise InputError("grid column count must cover whole days")

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_days(self) -> int:
        return self.n_steps // STEPS_PER_DAY

    def step_epochs(self) -> np.ndarray:
        return _epoch(self.start) + STEP_SECONDS * np.arange(self.n_steps, dtype=np.int64)


def _locf_cell_means(times: np.ndarray, powers: np.ndarray, start_s: int, n_steps: int) -> np.ndarray:
    """Time-weighted mean per 15-minute cell of the carried-forward signal.

    Intervals before the first event take the first observed value.  An
    event landing exactly on a cell boundary belongs to the cell it opens.
    """
    end_s = start_s + n_steps * STEP_SECONDS
    bounds = start_s + STEP_SECONDS * np.arange(n_steps + 1, dtype=np.int64)
    inside = times[(times > start_s) & (times < end_s)]
    cuts = np.unique(np.concatenate([bounds, inside]))
    seg_starts = cuts[:-1]
    seg_lengths = np.diff(cuts).astype(np.float64)
    idx = np.searchsorted(times, seg_starts, side="right") - 1
    seg_values = powers[np.maximum(idx, 0)]
    cell = (seg_starts - start_s) // STEP_SECONDS
    integral = np.zeros(n_steps, dtype=np.float64)
    np.add.at(integral, cell, seg_values * seg_lengths)
    return integral / STEP_SECONDS


def resample_15min(
    events: dict[str, PlugLoadEvents], window: tuple[datetime, datetime]
) -> TimeSeriesGrid:
    """Resample change-triggered events to the 15-minute grid over a window.

    The reconstructed signal is piecewise constant between events
    (last observation carried forward); each grid cell holds its
    time-weighted mean.
    """
    start, end = window
    start_s, end_s = _epoch(start), _epoch(end)
    if start_s % STEP_SECONDS or end_s % STEP_SECONDS:
        raise InputError("window boundaries must align to 15-minute marks")
    if end_s <= start_s or (end_s - start_s) % DAY_SECONDS:
        raise InputError("window must span a positive whole number of days")
    missing = [
        occ
        for occ, ev in events.items()
        if ev.times.size == 0 or ev.times[0] >= end_s
    ]
    if missing:
        raise InputError(
            "occupants with no events before window end: " + ", ".join(sorted(missing))
        )
    n_steps = (end_s - start_s) // STEP_SECONDS
    occupants = list(events)
    values = np.empty((len(occupants), n_steps), dtype=np.float64)
    for i, occ in enumerate(occupants):
        ev = events[occ]
        values[i] = _locf_cell_means(ev.times, ev.powers, start_s, n_steps)
    return TimeSeriesGrid(occupants, start.astimezone(timezone.utc), values)


def exclude_days(
    grid: TimeSeriesGrid, day_ranges: list[tuple[datetime, datetime]]
) -> TimeSeriesGrid:
    """Drop whole-day column blocks covered by [start, end) datetime ranges."""
    if not day_ranges:
        return TimeSeriesGrid(list(grid.occupants), grid.start, grid.values.copy())
    start_s = _epoch(grid.start)
    drop = np.zeros(grid.n_days, dtype=bool)
    for a, b in day_ranges:
        a_s, b_s = _epoch(a), _epoch(b)
        if (a_s - start_s) % DAY_SECONDS or (b_s - start_s) % DAY_SECONDS:
            raise InputError("exclusion range must align to grid day boundaries")
        first = (a_s - start_s) // DAY_SECONDS
        last = (b_s - start_s) // DAY_SECONDS
        if first < 0 or last > grid.n_days or first >= last:
            raise InputError("exclusion range outside grid window")
        drop[first:last] = True
    if drop.all():
        raise InputError("empty grid: all days excluded")
    keep_cols = np.repeat(~drop, STEPS_PER_DAY)
    return TimeSeriesGrid(list(grid.occupants), grid.start, grid.values[:, keep_cols])


def write_grid(grid: TimeSeriesGrid, path, header_comment: str | None = None) -> None:
    """Write the grid in the plug-load schema, one row per occupant per step."""
    _write_series(path, "power_w", grid.occupants, grid.step_epochs(), grid.values, header_comment)


def _write_series(
    path,
    value_name: str,
    occupants: Sequence[str],
    epochs: np.ndarray,
    values: np.ndarray,
    header_comment: str | None = None,
) -> None:
    """Write occupant_id,timestamp,<value_name> rows on one shared timeline.

    The counterpart of _read_series: occupant i's row of values, one per
    epoch, in occupant order, each value written as str() of its Python
    scalar.  The timeline is formatted once for all occupants.  Rows read
    as _write_rows writes them: timestamps and numbers never need quoting,
    so only the occupant id is quoted, when it must be.
    """
    stamps = [format_timestamp(t) for t in epochs.tolist()]
    with _create_csv(path, ["occupant_id", "timestamp", value_name], [header_comment]) as (fh, _):
        for occ, row in zip(occupants, values):
            prefix = _csv_field(occ) + ","
            rows = [f"{prefix}{t},{v}\n" for t, v in zip(stamps, row.tolist())]
            fh.write("".join(rows))


def _csv_field(text: str) -> str:
    """text as _write_rows writes it as one field of a longer row."""
    buf = io.StringIO()
    _csv_writer(buf).writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_writer(fh):
    """The one CSV row format: csv.writer quoting, rows ending in '\\n'.

    csv.writer quotes only the characters of its own line terminator, so it
    ends rows in '\\r\\n' to quote a bare '\\r'; each is written with '\\n'.
    """
    lf_rows = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
    return csv.writer(lf_rows, lineterminator="\r\n")


def _read_series(path, value_name: str, parse_value) -> dict[str, tuple[list[int], list]]:
    """Read occupant_id,timestamp,<value_name> rows, grouped by occupant.

    parse_value converts one value cell or raises InputError.  Each
    occupant's timestamps must increase strictly.  Returns the occupants
    in first-seen order, each with its epochs and values in file order.
    """
    series: dict[str, tuple[list[int], list]] = {}

    def parse_row(occ, stamp, text):
        group = series.get(occ)
        if group is None:
            group = series[_key(occ, "occupant_id")] = ([], [])
        times, values = group
        epoch = _parse_epoch(stamp)
        value = parse_value(text)
        if times and epoch <= times[-1]:
            raise InputError(f"non-monotone timestamp for occupant {occ}")
        times.append(epoch)
        values.append(value)

    _read_rows(path, ["occupant_id", "timestamp", value_name], parse_row)
    return series


def _read_timeline(
    path, value_name: str, kind: str, parse_value
) -> tuple[list[str], datetime, list[list]]:
    """_read_series for rows on one shared, contiguous 15-minute timeline."""
    series = _read_series(path, value_name, parse_value)
    if not series:
        raise InputError(f"{path}: no {kind} rows")
    occupants = list(series)
    timeline = series[occupants[0]][0]
    if np.any(np.diff(timeline) != STEP_SECONDS):
        raise InputError(f"{path}: {kind} timestamps must be contiguous 15-minute steps")
    for occ in occupants:
        if series[occ][0] != timeline:
            raise InputError(f"{path}: occupant {occ} does not share the {kind} timeline")
    start = datetime.fromtimestamp(timeline[0], tz=timezone.utc)
    return occupants, start, [series[occ][1] for occ in occupants]


def _parse_number(text: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{column} must be a number, got {text!r}") from None


def _parse_power(text: str) -> float:
    p = _parse_number(text, "power_w")
    if not 0.0 <= p < np.inf:
        raise InputError(f"power must be finite and >= 0, got {text!r}")
    return p


def load_grid(path) -> TimeSeriesGrid:
    occupants, start, values = _read_timeline(path, "power_w", "grid", _parse_power)
    try:
        return TimeSeriesGrid(occupants, start, np.array(values, dtype=np.float64))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


@dataclass
class ZoneMap:
    """Desk inventory: rows of (occupant_id, desk_id, zone_id).

    An empty occupant_id marks a vacant desk.
    """

    entries: list[tuple[str, str, str]]

    def __post_init__(self):
        desks = [d for _, d, _ in self.entries]
        if len(set(desks)) != len(desks):
            raise InputError("desk_ids must be unique")
        occs = [o for o, _, _ in self.entries if o]
        if len(set(occs)) != len(occs):
            raise InputError("an occupant may hold at most one desk")
        if not self.entries:
            raise InputError("no desk rows")


def load_zone_map(path) -> ZoneMap:
    return _read_desk_table(path, ["occupant_id", "desk_id", "zone_id"])


def _read_desk_table(path, header: list[str]) -> ZoneMap:
    """Read a zone map or layout CSV, whose three columns may come in any order."""
    entries = []

    def parse_row(*fields):
        row = dict(zip(header, fields))
        desk, zone = _key(row["desk_id"], "desk_id"), _key(row["zone_id"], "zone_id")
        entries.append((row["occupant_id"], desk, zone))

    _read_rows(path, header, parse_row)
    try:
        return ZoneMap(entries)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_zone_map(zone_map: ZoneMap, path, header_comment: str | None = None) -> None:
    _write_rows(path, ["occupant_id", "desk_id", "zone_id"], zone_map.entries, [header_comment])


def _write_rows(path, header: Sequence[str], rows, comments: Sequence[str | None] = ()) -> None:
    """Write a CSV: a '# ' line per line of each comment, the header, then rows."""
    with _create_csv(path, header, comments) as (_, writer):
        writer.writerows(rows)


@contextmanager
def _create_csv(path, header: Sequence[str], comments: Sequence[str | None]):
    """Open path for writing, write the comment lines and header; yield (file, csv.writer)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for c in comments if c for line in c.splitlines()))
        writer = _csv_writer(fh)
        writer.writerow(header)
        yield fh, writer


def _write_json(path, doc: dict) -> None:
    """Write doc as JSON: 2-space indent, sorted keys, a final newline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class LightingTable:
    """Per-zone hourly lighting energy, keyed by (zone_id, hour epoch)."""

    records: dict[tuple[str, int], float]

    def __post_init__(self):
        for (zone, hour), wh in self.records.items():
            _check_lighting_record(zone, hour, wh)

    def hourly(self, zone_order: Sequence[str], hour_starts: np.ndarray) -> np.ndarray:
        """(n_zones, n_hours) energy; a missing record raises InputError naming
        the earliest hour without one, and the first such zone in zone_order."""
        hours = [int(h) for h in hour_starts]
        rows = [[self.records.get((zone, h), np.nan) for h in hours] for zone in zone_order]
        energy = np.array(rows, dtype=float).reshape(len(zone_order), len(hours))
        missing = np.argwhere(np.isnan(energy.T))
        if missing.size:
            h, j = missing[0]
            raise InputError(
                f"missing lighting record for zone {zone_order[j]} at {format_timestamp(hours[h])}"
            )
        return energy


def _check_lighting_record(zone: str, hour: int, wh: float) -> None:
    if hour % 3600:
        raise InputError(f"lighting record for {zone} not on the hour")
    if not 0.0 <= wh < np.inf:
        raise InputError(f"lighting energy must be finite and >= 0 ({zone})")


def load_lighting(path) -> LightingTable:
    records: dict[tuple[str, int], float] = {}

    def parse_row(zone, stamp, energy):
        key = (_key(zone, "zone_id"), _parse_epoch(stamp))
        wh = _parse_number(energy, "energy_wh")
        _check_lighting_record(*key, wh)
        if key in records:
            raise InputError(f"duplicate record for {key}")
        records[key] = wh

    _read_rows(path, ["zone_id", "hour_start", "energy_wh"], parse_row)
    return LightingTable(records)


def write_lighting(table: LightingTable, path, header_comment: str | None = None) -> None:
    rows = [
        (zone, format_timestamp(hour), float(table.records[(zone, hour)]))
        for zone, hour in sorted(table.records)
    ]
    _write_rows(path, ["zone_id", "hour_start", "energy_wh"], rows, [header_comment])


@dataclass
class StepCalendar:
    """UTC calendar features (hour, weekday, weekend) for each 15-minute step.

    Weekday convention: Monday = 0; weekend = Saturday or Sunday.
    """

    start: datetime
    n_steps: int
    hours: np.ndarray = field(init=False)
    dows: np.ndarray = field(init=False)
    weekend: np.ndarray = field(init=False)

    def __post_init__(self):
        hours_since_epoch = self.hour_epochs() // 3600
        self.hours = (hours_since_epoch % 24).astype(np.int16)
        # epoch day 0, 1970-01-01, was a Thursday (weekday 3)
        self.dows = ((hours_since_epoch // 24 + 3) % 7).astype(np.int16)
        self.weekend = self.dows >= 5

    def hour_epochs(self) -> np.ndarray:
        """Epoch second of the hour each step falls in."""
        start_s = _epoch(self.start)
        steps = start_s + STEP_SECONDS * np.arange(self.n_steps, dtype=np.int64)
        return (steps // 3600) * 3600

    def hour_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Start epochs of the (contiguous) hours the steps touch and each step's column."""
        hour_epochs = self.hour_epochs()
        columns = (hour_epochs - hour_epochs[:1]) // 3600
        n_hours = int(columns[-1]) + 1 if columns.size else 0
        return hour_epochs[:1] + 3600 * np.arange(n_hours, dtype=np.int64), columns

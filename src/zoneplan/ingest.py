"""Raw data loading, 15-minute resampling, desk tables, and the writer of every output file."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

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
    series = _read_series(path, _POWER)
    return {occ: PlugLoadEvents(occ, *series.rows(i)) for i, occ in enumerate(series.occupants)}


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
    grid: TimeSeriesGrid,
    day_ranges: list[tuple[datetime, datetime]],
    key: str = "day_ranges",
) -> TimeSeriesGrid:
    """Drop whole-day column blocks covered by [start, end) datetime ranges.

    An error names the bad range as key[i], key being where the ranges came from.
    """
    if not day_ranges:
        return TimeSeriesGrid(list(grid.occupants), grid.start, grid.values.copy())
    start_s = _epoch(grid.start)
    drop = np.zeros(grid.n_days, dtype=bool)
    for i, (a, b) in enumerate(day_ranges):
        a_s, b_s = _epoch(a), _epoch(b)
        if (a_s - start_s) % DAY_SECONDS or (b_s - start_s) % DAY_SECONDS:
            raise InputError(f"{key}[{i}]: exclusion range must align to grid day boundaries")
        first = (a_s - start_s) // DAY_SECONDS
        last = (b_s - start_s) // DAY_SECONDS
        if first < 0 or last > grid.n_days or first >= last:
            raise InputError(f"{key}[{i}]: exclusion range outside grid window")
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
    so only the occupant id is quoted, when it must be.  An id the reader
    would strip or reject raises ValueError.
    """
    _check_ids("occupant id", occupants)
    stamps = [format_timestamp(t) for t in epochs.tolist()]
    with _create_csv(path, ["occupant_id", "timestamp", value_name], [header_comment]) as (fh, _):
        for occ, row in zip(occupants, values):
            prefix = _csv_field(occ) + ","
            rows = [f"{prefix}{t},{v}\n" for t, v in zip(stamps, row.tolist())]
            fh.write("".join(rows))


def _check_ids(column: str, ids) -> None:
    """Raise ValueError for an id that _read_rows would strip or reject."""
    for text in ids:
        if not text or text != text.strip():
            raise ValueError(
                f"{column} {text!r} would not read back: ids must be non-empty "
                "and have no surrounding whitespace"
            )


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


class _Values(NamedTuple):
    """A series file's value column: its name, its dtype, and its parsers.

    cell converts one cell for the row path; column converts a whole
    column of unstripped cells for the column path and must give cell's
    results, or raise.
    """

    name: str
    dtype: type
    cell: Callable[[str], object]
    column: Callable[[Sequence[str]], np.ndarray]


class _Series(NamedTuple):
    """A series file's rows grouped by occupant, in first-seen order.

    Occupant i's rows are [bounds[i], bounds[i + 1]) of epochs and values,
    in file order.
    """

    occupants: list[str]
    bounds: np.ndarray
    epochs: np.ndarray
    values: np.ndarray

    def rows(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.bounds[i], self.bounds[i + 1]
        return self.epochs[a:b], self.values[a:b]


class _Reject(Exception):
    """The column path does not take this file; the row path reads it."""


_BLOCK_CHARS = 1 << 15  # column path block, about 2^10 rows


def _read_series(path, values: _Values) -> _Series:
    """Read occupant_id,timestamp,<values.name> rows, grouped by occupant.

    Each occupant's timestamps must increase strictly.  The column path
    reads the file a block of rows at a time; any file it does not take is
    re-read by the row path, which defines what is accepted and names the
    file and line of the first bad row.  Both give the same result.
    """
    try:
        return _read_series_columns(path, values)
    except (_Reject, InputError, UnicodeDecodeError):
        return _read_series_rows(path, values)


def _read_series_rows(path, values: _Values) -> _Series:
    """The row path: each row parsed and checked on its own, in file order."""
    series: dict[str, tuple[list[int], list]] = {}

    def parse_row(occ, stamp, text):
        group = series.get(occ)
        if group is None:
            group = series[_key(occ, "occupant_id")] = ([], [])
        times, cells = group
        epoch = _parse_epoch(stamp)
        value = values.cell(text)
        if times and epoch <= times[-1]:
            raise InputError(f"non-monotone timestamp for occupant {occ}")
        times.append(epoch)
        cells.append(value)

    _read_rows(path, ["occupant_id", "timestamp", values.name], parse_row)
    groups = list(series.values())
    bounds = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum([len(times) for times, _ in groups], out=bounds[1:])
    return _Series(
        list(series),
        bounds,
        np.array([t for times, _ in groups for t in times], dtype=np.int64),
        np.array([v for _, cells in groups for v in cells], dtype=values.dtype),
    )


def _read_series_columns(path, values: _Values) -> _Series:
    """The column path: ids, timestamps and values converted a column at a time.

    Raises _Reject, or an InputError without a line, for a file it does
    not take as it is.
    """
    header = ["occupant_id", "timestamp", values.name]
    return _series_from_blocks(_plain_blocks(path, header), values)


class _OccupantIndex(dict):
    """Id cell as written -> occupant index, numbering stripped ids in first-seen order."""

    def __init__(self):
        super().__init__()
        self.occupants: dict[str, int] = {}

    def __missing__(self, cell: str) -> int:
        occ = _key(cell.strip(), "occupant_id")
        index = self[cell] = self.occupants.setdefault(occ, len(self.occupants))
        return index


def _series_from_blocks(blocks, values: _Values) -> _Series:
    """Convert and group (ids, timestamps, values) cell blocks; raises where the row path must decide."""
    index = _OccupantIndex()
    parts = []
    for ids, stamps, cells in blocks:
        occ_index = np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
        parts.append((occ_index, _epoch_column(stamps), values.column(cells)))
    if not parts:
        parts.append((np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, values.dtype)))
    occ_index, epochs, column = (np.concatenate(col) for col in zip(*parts))
    if np.any(occ_index[1:] < occ_index[:-1]):
        order = np.argsort(occ_index, kind="stable")
        occ_index, epochs, column = occ_index[order], epochs[order], column[order]
    same_occupant = occ_index[1:] == occ_index[:-1]
    if np.any(epochs[1:][same_occupant] <= epochs[:-1][same_occupant]):
        raise _Reject("non-monotone timestamp")
    bounds = np.searchsorted(occ_index, np.arange(len(index.occupants) + 1))
    return _Series(list(index.occupants), bounds, epochs, column)


def _plain_blocks(path, header: list[str]):
    """Yield (ids, timestamps, values) cell lists of a file, a block of rows at a time.

    Rows are split with str.split, which is what csv.reader does to a line
    without a '"', CR or NUL; a file holding one raises _Reject.
    """
    limit = csv.field_size_limit()
    in_body = False
    carry = ""
    with open(path, newline="", encoding="utf-8") as fh:
        while True:
            chunk = fh.read(_BLOCK_CHARS)
            text = carry + chunk
            if not chunk:
                if not text:
                    break
                text += "\n"  # a last line without a line break
            cut = text.rfind("\n") + 1
            text, carry = text[:cut], text[cut:]
            if '"' in text or "\r" in text or "\0" in text:
                raise _Reject("quoted field, CR or NUL")
            if not in_body:
                text, in_body = _after_header(text, header, limit)
            if text:
                yield _split_rows(text, limit)
    if not in_body:
        raise _Reject("missing header row")


def _after_header(text: str, header: list[str], limit: int) -> tuple[str, bool]:
    """The rows of text after the header line, and whether text held the header.

    Blank lines and '#' lines before the header are skipped, as in _read_rows.
    """
    pos = 0
    while pos < len(text):
        end = text.index("\n", pos)
        line, pos = text[pos:end], end + 1
        if len(line) > limit:
            raise _Reject("line longer than the CSV field limit")
        if line and not line.startswith("#"):
            if [c.strip() for c in line.split(",")] != header:
                raise _Reject("wrong header")
            return text[pos:], True
    return "", False


def _split_rows(text: str, limit: int) -> tuple[list[str], list[str], list[str]]:
    """The three columns of plain text rows, each ending in '\\n'.

    Raises _Reject unless every non-blank line has exactly three fields and
    no line is longer than csv.reader's field limit.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)  # ',' and '\n' are one byte in UTF-8
    ends = (raw == ord("\n")).nonzero()[0]
    if ends[0] == 0 or (ends[1:] - ends[:-1] == 1).any():  # csv.reader skips blank lines
        text = "".join(line + "\n" for line in text.split("\n") if line)
        return _split_rows(text, limit) if text else ([], [], [])
    commas = (raw == ord(",")).nonzero()[0]
    n = ends.size
    if (
        commas.size != 2 * n
        or (commas[1::2] > ends).any()  # a line with fewer than three fields
        or (commas[2::2] < ends[:-1]).any()  # a line with more
        or (raw.size > limit and (np.diff(ends, prepend=-1) > limit + 1).any())
    ):
        raise _Reject("not three fields per line")
    cells = text.replace("\n", ",").split(",")
    return cells[0 : 3 * n : 3], cells[1::3], cells[2::3]


# YYYY-MM-DDTHH:MM:SSZ as each character's lowest code and its range of codes
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_YEAR_1_EPOCH = -62135596800  # 0001-01-01T00:00:00Z


def _epoch_column(stamps: Sequence[str]) -> np.ndarray:
    """_parse_epoch of each unstripped timestamp cell.

    YYYY-MM-DDTHH:MM:SSZ cells are converted with one datetime64 call;
    otherwise each distinct cell goes through _parse_epoch once.
    """
    epochs = _canonical_epochs(stamps)
    if epochs is None:
        table = {cell: _parse_epoch(cell.strip()) for cell in dict.fromkeys(stamps)}
        epochs = np.fromiter(map(table.__getitem__, stamps), np.int64, len(stamps))
    return epochs


def _canonical_epochs(stamps: Sequence[str]) -> np.ndarray | None:
    """Epochs of YYYY-MM-DDTHH:MM:SSZ cells, or None unless every cell has that form.

    numpy checks the field ranges as datetime does, but also parses year
    0000, which parse_timestamp rejects; that year is left to _parse_epoch.
    """
    if set(map(len, stamps)) != {_STAMP_LOW.size}:
        return None
    try:
        text = "".join(stamps).encode("ascii")
    except UnicodeEncodeError:
        return None
    chars = np.frombuffer(text, dtype=np.uint8).reshape(len(stamps), -1)
    if (chars - _STAMP_LOW > _STAMP_SPAN).any():
        return None
    naive = np.ascontiguousarray(chars[:, :-1]).view(f"S{chars.shape[1] - 1}").ravel()
    try:
        epochs = naive.astype("datetime64[s]").astype(np.int64)
    except ValueError:
        return None
    return None if (epochs < _YEAR_1_EPOCH).any() else epochs


def _read_timeline(path, kind: str, values: _Values) -> tuple[list[str], datetime, np.ndarray]:
    """_read_series for rows on one shared, contiguous 15-minute timeline.

    Returns the occupants, the first step and the (n_occupants, n_steps) values.
    """
    series = _read_series(path, values)
    if not series.occupants:
        raise InputError(f"{path}: no {kind} rows")
    timeline = series.rows(0)[0]
    if np.any(np.diff(timeline) != STEP_SECONDS):
        raise InputError(f"{path}: {kind} timestamps must be contiguous 15-minute steps")
    for i, occ in enumerate(series.occupants):
        if not np.array_equal(series.rows(i)[0], timeline):
            raise InputError(f"{path}: occupant {occ} does not share the {kind} timeline")
    start = datetime.fromtimestamp(int(timeline[0]), tz=timezone.utc)
    return series.occupants, start, series.values.reshape(len(series.occupants), -1)


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


def _power_column(cells: Sequence[str]) -> np.ndarray:
    """_parse_power of each cell: numpy converts a str as float() does."""
    try:
        powers = np.array(cells, dtype=np.float64)
    except ValueError:
        raise _Reject("power_w must be a number") from None
    if not ((powers >= 0.0) & (powers < np.inf)).all():
        raise _Reject("power must be finite and >= 0")
    return powers


_POWER = _Values("power_w", np.float64, _parse_power, _power_column)


def load_grid(path) -> TimeSeriesGrid:
    occupants, start, values = _read_timeline(path, "grid", _POWER)
    try:
        return TimeSeriesGrid(occupants, start, values)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


@dataclass
class Layout:
    """A desk table: occupants assigned to desks grouped into lighting zones.

    zones maps zone_id to its ordered desk list; assignment maps desk to
    occupant for occupied desks only (missing desk = vacant).  A zone map
    and a layout file hold the same table and load to this type.
    """

    zones: dict[str, list[str]]
    assignment: dict[str, str]

    def __post_init__(self):
        all_desks: list[str] = [d for desks in self.zones.values() for d in desks]
        if len(set(all_desks)) != len(all_desks):
            raise InputError("desk_ids must be unique")
        desk_set = set(all_desks)
        unknown = [d for d in self.assignment if d not in desk_set]
        if unknown:
            raise InputError(f"assignment references unknown desks: {unknown}")
        occs = list(self.assignment.values())
        if len(set(occs)) != len(occs):
            raise InputError("an occupant may hold at most one desk")
        if not all_desks:
            raise InputError("no desk rows")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, str]]) -> "Layout":
        """Build a layout from (occupant, desk, zone) rows; an empty occupant
        marks a vacant desk.  Zones keep the order of their first rows."""
        zones: dict[str, list[str]] = {}
        assignment: dict[str, str] = {}
        for occ, desk, zone in rows:
            zones.setdefault(zone, []).append(desk)
            if occ:
                assignment[desk] = occ
        return cls(zones, assignment)

    @classmethod
    def from_groups(cls, groups: Mapping[str, Sequence[str]]) -> "Layout":
        """Build a fully occupied layout from zone -> occupant lists."""
        return cls.from_rows(
            (occ, f"{z}-d{k}", z) for z, occs in groups.items() for k, occ in enumerate(occs)
        )

    def with_assignment(self, assignment: dict[str, str]) -> "Layout":
        """A layout of the same zones and desks, seated by assignment."""
        return Layout({z: list(desks) for z, desks in self.zones.items()}, assignment)

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
        return self.zones == other.zones and self.occupants() == other.occupants()

    def seat_rows(self, layouts: Sequence["Layout"]) -> np.ndarray:
        """Layouts of this structure as seat rows, one (n_layouts, n_desks) int array:
        per desk in desk_order(), the seated occupant's index in occupants(), or -1."""
        if not all(self.same_structure(layout) for layout in layouts):
            raise ValueError("layout differs from the template in zones or occupants")
        index = {o: i for i, o in enumerate(self.occupants())}
        desks = self.desk_order()
        rows = [[index.get(layout.assignment.get(d), -1) for d in desks] for layout in layouts]
        return np.array(rows, dtype=np.intp).reshape(len(layouts), len(desks))

    def with_seat_row(self, row: Sequence[int]) -> "Layout":
        """The layout of this structure that a seat row (see seat_rows) describes."""
        occupants = self.occupants()
        return self.with_assignment(
            {d: occupants[i] for d, i in zip(self.desk_order(), row) if i >= 0}
        )


_ZONE_MAP_HEADER = ["occupant_id", "desk_id", "zone_id"]
_LAYOUT_HEADER = ["desk_id", "zone_id", "occupant_id"]


def load_zone_map(path) -> Layout:
    return _read_desk_table(path, _ZONE_MAP_HEADER)


def _read_desk_table(path, header: list[str]) -> Layout:
    """Read a zone map or layout CSV, whose three columns may come in any order."""
    rows = []

    def parse_row(*fields):
        row = dict(zip(header, fields))
        desk, zone = _key(row["desk_id"], "desk_id"), _key(row["zone_id"], "zone_id")
        rows.append((row["occupant_id"], desk, zone))

    _read_rows(path, header, parse_row)
    try:
        return Layout.from_rows(rows)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_zone_map(layout: Layout, path, header_comment: str | None = None) -> None:
    _write_desk_table(layout, path, _ZONE_MAP_HEADER, header_comment)


def _write_desk_table(layout: Layout, path, header: list[str], comment: str | None) -> None:
    """Write a zone map or layout CSV: one row per desk, in desk_order()."""
    zone_of = layout.zone_of_desk()
    _check_ids("desk id", zone_of)
    _check_ids("zone id", layout.zones)
    _check_ids("occupant id", layout.assignment.values())  # an empty one would read as vacant
    rows = ((layout.assignment.get(d, ""), d, zone_of[d]) for d in layout.desk_order())
    at = [_ZONE_MAP_HEADER.index(column) for column in header]  # header's order of a row
    _write_rows(path, header, ([row[i] for i in at] for row in rows), [comment])


def _write_rows(path, header: Sequence[str], rows, comments: Sequence[str | None] = ()) -> None:
    """Write a CSV: a '# ' line per line of each comment, the header, then rows."""
    with _create_csv(path, header, comments) as (_, writer):
        writer.writerows(rows)


def _make_parent(path) -> None:
    """Make path's missing directories; a file standing in their place is an InputError."""
    parent = Path(path).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise InputError(
            f"{parent}: cannot make this output directory, a file is in the way"
        ) from None


@contextmanager
def _create_csv(path, header: Sequence[str], comments: Sequence[str | None]):
    """Open path for writing, write the comment lines and header; yield (file, csv.writer).

    Like _write_json, it makes a missing directory first, so a command's
    output directory exists only once it holds a file.
    """
    _make_parent(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for c in comments if c for line in c.splitlines()))
        writer = _csv_writer(fh)
        writer.writerow(header)
        yield fh, writer


def _read_json(path):
    """Parse a JSON file; bytes that are not UTF-8 JSON are an InputError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def _write_json(path, doc: dict) -> None:
    """Write doc as JSON: 2-space indent, sorted keys, a final newline; a
    missing directory is made first, as _create_csv does."""
    _make_parent(path)
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
    _check_ids("zone id", (zone for zone, _ in table.records))
    rows = [
        (zone, format_timestamp(hour), float(table.records[(zone, hour)]))
        for zone, hour in sorted(table.records)
    ]
    _write_rows(path, ["zone_id", "hour_start", "energy_wh"], rows, [header_comment])


@dataclass
class StepCalendar:
    """UTC calendar features (hour, weekday, weekend) for each 15-minute step.

    Weekday convention: Monday = 0; weekend = Saturday or Sunday.  The
    program builds one only as StateGrid.calendar, from the grid's start
    and length.
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

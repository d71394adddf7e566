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
from numpy.lib.stride_tricks import as_strided

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
    """Drop the whole days covered by [start, end) datetime ranges.

    A grid is one contiguous timeline, so the kept days must be one run:
    ranges may trim days from either end, and a leading range moves the
    start to the first kept day.  An error names the bad range as key[i],
    key being where the ranges came from; a range with kept days on both
    sides is one.
    """
    if not day_ranges:
        return TimeSeriesGrid(list(grid.occupants), grid.start, grid.values.copy())
    start_s = _epoch(grid.start)
    drop = np.zeros(grid.n_days, dtype=bool)
    days = []
    for i, (a, b) in enumerate(day_ranges):
        a_s, b_s = _epoch(a), _epoch(b)
        if (a_s - start_s) % DAY_SECONDS or (b_s - start_s) % DAY_SECONDS:
            raise InputError(f"{key}[{i}]: exclusion range must align to grid day boundaries")
        first = (a_s - start_s) // DAY_SECONDS
        last = (b_s - start_s) // DAY_SECONDS
        if first < 0 or last > grid.n_days or first >= last:
            raise InputError(f"{key}[{i}]: exclusion range outside grid window")
        drop[first:last] = True
        days.append((first, last))
    if drop.all():
        raise InputError("empty grid: all days excluded")
    for i, (first, last) in enumerate(days):
        if not drop[:first].all() and not drop[last:].all():
            raise InputError(
                f"{key}[{i}]: exclusion range leaves kept days on both sides, "
                "but a grid is one contiguous timeline"
            )
    kept = np.flatnonzero(~drop)
    lo, hi = int(kept[0]) * STEPS_PER_DAY, (int(kept[-1]) + 1) * STEPS_PER_DAY
    start = datetime.fromtimestamp(start_s + int(kept[0]) * DAY_SECONDS, tz=timezone.utc)
    return TimeSeriesGrid(list(grid.occupants), start, grid.values[:, lo:hi].copy())


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
    epoch, in occupant order (see _series_lines).  An id the reader would
    strip or reject raises ValueError.
    """
    _check_ids("occupant id", occupants)
    header = ["occupant_id", "timestamp", value_name]
    _write_lines(path, header, _series_lines(occupants, epochs, values), [header_comment])


def _series_lines(ids: Sequence[str], epochs: np.ndarray, values: np.ndarray):
    """Yield the id,timestamp,value lines of each id's row of values, one string per id.

    Each value is written as str() of its Python scalar, which for a float
    is the repr that csv.writer writes.  The timeline is formatted once for
    all ids.  Rows read as _write_rows writes them: timestamps and numbers
    never need quoting, so only the id is quoted, when it must be.
    """
    stamps = [format_timestamp(t) for t in epochs.tolist()]
    for text, row in zip(ids, values):
        prefix = _csv_field(text) + ","
        yield "".join([f"{prefix}{t},{v}\n" for t, v in zip(stamps, row.tolist())])


def _write_lines(
    path, header: Sequence[str], chunks: Iterable[str], comments: Sequence[str | None]
) -> None:
    """Write a CSV as _write_rows does, its rows given as preformatted chunks of whole lines."""
    with _create_csv(path, header, comments) as (fh, _):
        fh.writelines(chunks)


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

    cell converts one stripped cell for the row path; column converts a
    block's column of cells (see _Cells) for the column path and must give
    cell's results, or raise.
    """

    name: str
    dtype: type
    cell: Callable[[str], object]
    column: Callable[["_Cells"], np.ndarray]


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


_BLOCK_BYTES = 1 << 17  # column path block, about 2^12 rows
_PAD_BYTES = 32  # zero bytes after a block: the widest window read from a cell's start


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

    Raises _Reject, an InputError without a line or a UnicodeDecodeError
    for a file it does not take as it is.
    """
    limit = csv.field_size_limit()
    index = _OccupantIndex()
    parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, values.dtype))]
    for block in _row_blocks(path, ["occupant_id", "timestamp", values.name], limit):
        columns = _block_cells(block, limit)
        if columns is not None:
            ids, stamps, cells = columns
            occ_index = _occupant_column(ids, index)
            parts.append((occ_index, _epoch_column(stamps), values.column(cells)))
    occ_index, epochs, column = (np.concatenate(col) for col in zip(*parts))
    if np.any(occ_index[1:] < occ_index[:-1]):
        order = np.argsort(occ_index, kind="stable")
        occ_index, epochs, column = occ_index[order], epochs[order], column[order]
    same_occupant = occ_index[1:] == occ_index[:-1]
    if np.any(epochs[1:][same_occupant] <= epochs[:-1][same_occupant]):
        raise _Reject("non-monotone timestamp")
    bounds = np.searchsorted(occ_index, np.arange(len(index.occupants) + 1))
    return _Series(list(index.occupants), bounds, epochs, column)


def _row_blocks(path, header: list[str], limit: int):
    """Yield a file's data rows as bytes, a block of whole lines at a time.

    Each block ends in '\\n' and then _PAD_BYTES zero bytes.  A block is
    cut into fields at its commas, which is what csv.reader does to a line
    without a '"', CR or NUL; a file holding one raises _Reject.
    """
    in_body = False
    carry = b""
    with open(path, "rb") as fh:
        while True:
            data = carry + fh.read(_BLOCK_BYTES)
            if len(data) == len(carry):
                if not data:
                    break
                data += b"\n"  # a last line without a line break
            cut = data.rfind(b"\n") + 1
            if any(data.find(c, 0, cut) >= 0 for c in (b'"', b"\r", b"\0")):
                raise _Reject("quoted field, CR or NUL")
            start = 0
            if not in_body:
                start, in_body = _after_header(data[:cut], header, limit)
            carry = data[cut:]
            if start < cut:
                block = data[start:cut] + bytes(_PAD_BYTES)
                del data  # one copy of the block while it is converted
                yield block
    if not in_body:
        raise _Reject("missing header row")


def _after_header(block: bytes, header: list[str], limit: int) -> tuple[int, bool]:
    """Where the rows of block after the header line start, and whether block held the header.

    Blank lines and '#' lines before the header are skipped, as in
    _read_rows, but must be UTF-8 as there.
    """
    pos = 0
    while pos < len(block):
        end = block.index(b"\n", pos)
        line, pos = block[pos:end], end + 1
        if len(line) > limit:
            raise _Reject("line longer than the CSV field limit")
        text = line.decode("utf-8")
        if text and not text.startswith("#"):
            if [c.strip() for c in text.split(",")] != header:
                raise _Reject("wrong header")
            return pos, True
    return pos, False


class _Cells(NamedTuple):
    """One column of a block of rows: cell k is data[starts[k]:stops[k]], unstripped.

    data is the block and _PAD_BYTES zero bytes, and raw is data as
    uint8, so a window that wide can be read from any cell's start.  No
    cell holds a NUL, a '"', a ',' or a line break.  starts and stops are
    int32, as small as a block allows.
    """

    data: bytes
    raw: np.ndarray
    starts: np.ndarray
    stops: np.ndarray

    def widths(self) -> np.ndarray:
        return self.stops - self.starts

    def window(self, width: int, rows: np.ndarray) -> np.ndarray:
        """(rows.size, width) uint8: the width bytes from the start of each of these cells."""
        view = as_strided(self.raw, (self.raw.size - width + 1, width), (1, 1), writeable=False)
        return view[self.starts[rows]]

    def words(self, offset: int) -> np.ndarray:
        """The 8 bytes from offset bytes into each cell, as one little-endian uint64 per cell."""
        view = np.ndarray((self.raw.size - 7,), dtype="<u8", buffer=self.data, strides=(1,))
        return view[self.starts + offset]

    def as_bytes(self, rows: np.ndarray) -> list[bytes]:
        return [
            self.data[a:b] for a, b in zip(self.starts[rows].tolist(), self.stops[rows].tolist())
        ]

    def each(self, convert: Callable[[str], object], rows: np.ndarray) -> list:
        """convert of each of these cells, stripped as _read_rows strips a
        field, called once per distinct cell."""
        cells = self.as_bytes(rows)
        table = {cell: convert(cell.decode("utf-8").strip()) for cell in dict.fromkeys(cells)}
        return list(map(table.__getitem__, cells))


def _block_cells(data: bytes, limit: int) -> tuple[_Cells, _Cells, _Cells] | None:
    """The three columns of a block of rows (see _row_blocks); None if all lines are blank.

    Blank lines are skipped, as csv.reader skips them.  Raises _Reject
    unless every other line has exactly three fields and no line is longer
    than csv.reader's field limit.
    """
    if len(data) > np.iinfo(np.int32).max:
        raise _Reject("block too long for int32 offsets")
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = (raw == ord("\n")).nonzero()[0].astype(np.int32)
    starts = np.concatenate((np.zeros(1, np.int32), ends[:-1] + 1))
    if (starts == ends).any():
        text = starts != ends
        starts, ends = starts[text], ends[text]
    if not ends.size:
        return None
    commas = (raw == ord(",")).nonzero()[0].astype(np.int32)
    if (
        commas.size != 2 * ends.size
        or (commas[1::2] > ends).any()  # a line with fewer than three fields
        or (commas[2::2] < ends[:-1]).any()  # a line with more
        or (len(data) > limit and (ends - starts > limit).any())
    ):
        raise _Reject("not three fields per line")
    first, second = commas[0::2], commas[1::2]
    return (
        _Cells(data, raw, starts, first),
        _Cells(data, raw, first + 1, second),
        _Cells(data, raw, second + 1, ends),
    )


class _OccupantIndex(dict):
    """Id cell as written -> occupant index, numbering stripped ids in first-seen order."""

    def __init__(self):
        super().__init__()
        self.occupants: dict[str, int] = {}

    def __missing__(self, cell: str) -> int:
        occ = _key(cell.strip(), "occupant_id")
        index = self[cell] = self.occupants.setdefault(occ, len(self.occupants))
        return index


def _occupant_column(cells: _Cells, index: _OccupantIndex) -> np.ndarray:
    """Each id cell's occupant index: one cell per run of equal cells is decoded and looked up.

    A run ends where a cell's first bytes, as many as the widest cell has,
    differ from the previous cell's.  These bytes hold the cell and, for a
    shorter cell, the ',' after it, so equal bytes are equal cells.  With
    a cell wider than _PAD_BYTES, each cell is its own run.
    """
    n = cells.starts.size
    width = int(cells.widths().max())
    new_run = np.ones(n, dtype=bool)
    if width <= _PAD_BYTES:
        new_run[1:] = False
        for offset in range(0, width, 8):
            word = cells.words(offset) & np.uint64((1 << 8 * min(width - offset, 8)) - 1)
            new_run[1:] |= word[1:] != word[:-1]
    runs = new_run.nonzero()[0]
    occ = [index[cell.decode("utf-8")] for cell in cells.as_bytes(runs)]
    return np.repeat(np.array(occ, dtype=np.intp), np.diff(runs, append=n))


# YYYY-MM-DDTHH:MM:SS as each character's lowest code and its range of codes
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_YEAR_1_EPOCH = -62135596800  # 0001-01-01T00:00:00Z


def _epoch_column(cells: _Cells) -> np.ndarray:
    """_parse_epoch of each timestamp cell.

    YYYY-MM-DDTHH:MM:SSZ cells are converted with one datetime64 call.
    numpy checks the field ranges as datetime does, but also parses year
    0000, which parse_timestamp rejects; those cells, any other form, and
    every cell of a column numpy rejects go through _parse_epoch once per
    distinct cell.
    """
    epochs = np.empty(cells.starts.size, dtype=np.int64)
    width = _STAMP_LOW.size
    zulu = cells.raw[cells.starts + width] == ord("Z")
    rows = ((cells.widths() == width + 1) & zulu).nonzero()[0]
    chars = cells.window(width, rows)
    wrong = (chars - _STAMP_LOW) > _STAMP_SPAN
    if wrong.any():
        right = ~wrong.any(axis=1)
        rows, chars = rows[right], chars[right]
    try:
        converted = chars.view(f"S{width}").ravel().astype("datetime64[s]").view(np.int64)
    except ValueError:
        rows, converted = rows[:0], np.empty(0, dtype=np.int64)
    if (converted < _YEAR_1_EPOCH).any():
        parsed = converted >= _YEAR_1_EPOCH
        rows, converted = rows[parsed], converted[parsed]
    epochs[rows] = converted
    if rows.size < epochs.size:
        rest = np.ones(epochs.size, dtype=bool)
        rest[rows] = False
        rest = rest.nonzero()[0]
        epochs[rest] = cells.each(_parse_epoch, rest)
    return epochs


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


_DECIMAL_WIDTH = 24  # '0.' and 22 decimals
_EXACT_MANTISSA = 2.0**53  # the first integer from which doubles are 2 apart
_EXACT_POWERS_OF_10 = 10.0 ** np.arange(23)  # 10**22 is the last one a double holds


def _plain_decimals(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the form [0-9]+(.[0-9]+)? that convert exactly in bulk, and their values.

    Returns (values, fast): fast marks each cell whose digits, without
    the dot, make an integer m < 2**53 and that has k <= 22 decimals, and
    values holds m / 10**k there.  m and 10**k are exact doubles, so their
    quotient is one correctly rounded division: float() of the cell
    (Clinger, PLDI 1990).
    """
    n = cells.starts.size
    values, fast = np.zeros(n), np.zeros(n, dtype=bool)
    widths = cells.widths()
    rows = ((widths > 0) & (widths <= _DECIMAL_WIDTH)).nonzero()[0]
    if not rows.size:
        return values, fast
    widths = widths[rows]
    digits = cells.window(int(widths.max()), rows).T.copy()  # a row per position in the cells
    inside = np.arange(digits.shape[0], dtype=np.int32)[:, None] < widths
    dots = digits == ord(".")
    dots &= inside
    digits -= np.uint8(ord("0"))  # a byte below '0' wraps past 9
    is_digit = digits <= 9
    is_digit &= inside
    del inside
    n_dots = dots.sum(axis=0, dtype=np.uint8)
    last = digits[widths - 1, np.arange(rows.size)]
    plain = (is_digit.sum(axis=0, dtype=np.uint8) + n_dots == widths) & (n_dots <= 1)
    plain &= (digits[0] <= 9) & (last <= 9)
    # Horner's rule in doubles, exact while below 2**53 and never falling
    # back below once there: a digit's position scales by 10 and adds it,
    # any other position leaves the mantissa as it is
    digits *= is_digit
    scale = is_digit * np.uint8(9) + np.uint8(1)
    mantissa = np.zeros(rows.size)
    for position_scale, position in zip(scale, digits):
        mantissa *= position_scale
        mantissa += position
    decimals = np.where(plain & (n_dots == 1), widths - 1 - dots.argmax(axis=0), 0)
    fast[rows] = plain & (mantissa < _EXACT_MANTISSA)
    values[rows] = mantissa / _EXACT_POWERS_OF_10[decimals]
    return values, fast


def _power_column(cells: _Cells) -> np.ndarray:
    """_parse_power of each cell.

    Plain decimals convert in bulk (see _plain_decimals); the rest go
    through float() on their bytes, which reads what float() of the
    stripped text reads, or fails where the text may still parse.
    """
    powers, fast = _plain_decimals(cells)
    rest = (~fast).nonzero()[0]
    if rest.size:
        try:
            powers[rest] = [float(cell) for cell in cells.as_bytes(rest)]
        except ValueError:
            powers[rest] = cells.each(_parse_power, rest)
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

    def occupants(self) -> list[str]:
        return sorted(self.assignment.values())

    def desk_order(self) -> list[str]:
        """Canonical desk traversal: zones sorted by id, desks in zone order."""
        return [d for z in sorted(self.zones) for d in self.zones[z]]

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

    def zone_bounds(self) -> np.ndarray:
        """Where each zone's desks sit in a seat row: zone k of the sorted zone
        ids holds slots bounds[k]:bounds[k + 1], so bounds starts at 0 and
        ends at the desk count."""
        return np.cumsum([0] + [len(self.zones[z]) for z in sorted(self.zones)])

    def with_seat_row(self, row: Sequence[int]) -> "Layout":
        """The layout of this structure that a seat row (see seat_rows) describes."""
        occupants = self.occupants()
        assignment = {d: occupants[i] for d, i in zip(self.desk_order(), row) if i >= 0}
        return Layout({z: list(desks) for z, desks in self.zones.items()}, assignment)


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
    _check_ids("desk id", (d for desks in layout.zones.values() for d in desks))
    _check_ids("zone id", layout.zones)
    _check_ids("occupant id", layout.assignment.values())  # an empty one would read as vacant
    desks = ((z, d) for z in sorted(layout.zones) for d in layout.zones[z])  # desk_order()
    rows = ((layout.assignment.get(d, ""), d, z) for z, d in desks)
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

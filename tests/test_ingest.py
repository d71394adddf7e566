"""Ingest: event parsing, LOCF resampling, grids, zone maps, calendars."""

import csv
import io
import random
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_plug_load
from zoneplan import ingest
from zoneplan.ingest import (
    InputError,
    Layout,
    PlugLoadEvents,
    StepCalendar,
    TimeSeriesGrid,
    exclude_days,
    load_grid,
    load_plug_load,
    load_zone_map,
    parse_timestamp,
    resample_15min,
    write_grid,
    write_zone_map,
)
from zoneplan.optimize import OptTrace, load_layout, write_layout, write_trace
from zoneplan.states import _STATE, StateGrid, load_states, write_states
from zoneplan.surrogate import EnergyReport, write_energy_report

UTC = timezone.utc
T0 = datetime(2018, 1, 1, tzinfo=UTC)  # Monday


def day(offset: int, hour: int = 0, minute: int = 0) -> datetime:
    return datetime(2018, 1, 1 + offset, hour, minute, tzinfo=UTC)


def events(pairs, occ="O1"):
    times = np.array([ingest._epoch(t) for t, _ in pairs], dtype=np.int64)
    powers = np.array([p for _, p in pairs], dtype=np.float64)
    return {occ: PlugLoadEvents(occ, times, powers)}


def write_csv(path, rows, header="occupant_id,timestamp,power_w"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows))
    return path


# ---------------------------------------------------------------- parsing


def test_empty_file_with_header_gives_zero_occupants(tmp_path):
    path = write_csv(tmp_path / "p.csv", [])
    assert load_plug_load(path) == {}


def test_single_event_round_trips(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["O1,2018-01-01T00:00:00Z,10.0"])
    loaded = load_plug_load(path)
    assert list(loaded) == ["O1"]
    assert loaded["O1"].times[0] == ingest._epoch(T0)
    assert loaded["O1"].powers[0] == 10.0


def test_duplicate_timestamp_rejected_with_line_number(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["O1,2018-01-01T00:00:00Z,10.0", "O1,2018-01-01T00:00:00Z,12.0"],
    )
    with pytest.raises(InputError, match=r":3:"):
        load_plug_load(path)


def test_backward_timestamp_rejected(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["O1,2018-01-01T01:00:00Z,10.0", "O1,2018-01-01T00:00:00Z,12.0"],
    )
    with pytest.raises(InputError, match="non-monotone"):
        load_plug_load(path)


def test_malformed_row_names_line(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["O1,not-a-date,10.0"])
    with pytest.raises(InputError, match=r":2:"):
        load_plug_load(path)


def test_negative_power_rejected(tmp_path):
    path = write_csv(tmp_path / "p.csv", ["O1,2018-01-01T00:00:00Z,-1.0"])
    with pytest.raises(InputError):
        load_plug_load(path)


@pytest.mark.parametrize(
    "bad_row, message",
    [("O1,2018-01-01T00:15:00Z,abc", "power_w must be a number, got 'abc'"),
     ("O1,2018-01-01T00:15:00Z,-1.0", "power must be finite and >= 0, got '-1.0'"),
     ("O1,yesterday,1.0", "bad timestamp 'yesterday'"),
     (",2018-01-01T00:15:00Z,1.0", "empty occupant_id")],
)
def test_plug_load_row_errors_name_the_column(tmp_path, bad_row, message):
    path = write_csv(tmp_path / "p.csv", ["O1,2018-01-01T00:00:00Z,1.0", bad_row])
    with pytest.raises(InputError) as info:
        load_plug_load(path)
    assert str(info.value).startswith(f"{path}:3: {message}")


def test_wrong_header_rejected(tmp_path):
    path = write_csv(tmp_path / "p.csv", [], header="a,b,c")
    with pytest.raises(InputError, match="header"):
        load_plug_load(path)


def test_wrong_header_names_file_and_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("# provenance line\na,b,c\n")
    with pytest.raises(InputError) as info:
        load_plug_load(path)
    assert str(info.value) == (
        f"{path}:2: expected header occupant_id,timestamp,power_w, got a,b,c"
    )


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "# provenance line\noccupant_id,timestamp,power_w\nO1,2018-01-01T00:00:00Z,3.0\n"
    )
    assert list(load_plug_load(path)) == ["O1"]


def test_parse_timestamp_normalizes_to_utc():
    assert parse_timestamp("2018-01-01T00:00:00Z") == T0
    # naive timestamps are taken as UTC; offsets are converted
    assert parse_timestamp("2018-01-01T00:00:00") == T0
    assert parse_timestamp("2018-01-01T01:00:00+01:00") == T0
    with pytest.raises(InputError):
        parse_timestamp("not-a-time")


# ---------------------------------------------------------------- resampling


def test_single_event_at_window_start_fills_every_cell():
    grid = resample_15min(events([(T0, 10.0)]), (T0, day(1)))
    assert grid.values.shape == (1, 96)
    assert np.all(grid.values == 10.0)


def test_mid_interval_change_gives_time_weighted_mean():
    # 0 W for 7.5 min then 40 W: first cell mean is 20, rest 40.
    grid = resample_15min(
        events([(T0, 0.0), (datetime(2018, 1, 1, 0, 7, 30, tzinfo=UTC), 40.0)]),
        (T0, day(1)),
    )
    assert grid.values[0, 0] == pytest.approx(20.0, abs=1e-12)
    assert np.all(grid.values[0, 1:] == 40.0)


def test_boundary_event_opens_its_interval():
    # A change exactly on a grid boundary belongs to the interval it opens.
    grid = resample_15min(
        events([(T0, 10.0), (datetime(2018, 1, 1, 0, 15, tzinfo=UTC), 50.0)]),
        (T0, day(1)),
    )
    assert grid.values[0, 0] == 10.0
    assert grid.values[0, 1] == 50.0


def test_event_before_window_carries_forward():
    grid = resample_15min(events([(day(0, 0) , 7.0)]), (day(1), day(2)))
    assert np.all(grid.values == 7.0)


def test_no_event_before_window_end_rejected():
    with pytest.raises(InputError, match="O1"):
        resample_15min(events([(day(2), 5.0)]), (T0, day(1)))


def test_misaligned_window_rejected():
    with pytest.raises(InputError):
        resample_15min(
            events([(T0, 1.0)]),
            (datetime(2018, 1, 1, 0, 1, tzinfo=UTC), day(1)),
        )
    with pytest.raises(InputError):
        resample_15min(events([(T0, 1.0)]), (T0, day(0, 12)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=ingest.DAY_SECONDS - 1),
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda tp: tp[0],
    )
)
def test_resampling_conserves_time_weighted_mean(raw):
    # Cell means average back to the exact LOCF mean over the window.
    raw = sorted(raw)
    times = np.array([ingest._epoch(T0) + t for t, _ in raw], dtype=np.int64)
    powers = np.array([p for _, p in raw], dtype=np.float64)
    grid = resample_15min(
        {"O1": PlugLoadEvents("O1", times, powers)}, (T0, day(1))
    )
    # independent integral of the piecewise-constant signal
    bounds = np.append(times, ingest._epoch(day(1)))
    held = np.concatenate([[powers[0]], powers])  # first value back-fills
    spans = np.diff(np.concatenate([[ingest._epoch(T0)], bounds]))
    spans = np.clip(spans, 0, None)
    expected = float(np.dot(held, spans)) / ingest.DAY_SECONDS
    assert np.mean(grid.values) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_resampling_idempotent_on_gridded_signal():
    # A signal that only changes on grid boundaries is reproduced exactly.
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 100, 96)
    pairs = [
        (datetime(2018, 1, 1, tzinfo=UTC) + timedelta(minutes=15 * i), v)
        for i, v in enumerate(vals)
    ]
    grid = resample_15min(events(pairs), (T0, day(1)))
    np.testing.assert_allclose(grid.values[0], vals, rtol=1e-12)


def test_grid_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(1)
    grid = TimeSeriesGrid(["O1", "O2"], T0, rng.uniform(0, 80, (2, 96)))
    write_grid(grid, tmp_path / "g.csv")
    back = load_grid(tmp_path / "g.csv")
    assert back.occupants == grid.occupants
    assert back.start == grid.start
    np.testing.assert_array_equal(back.values, grid.values)


@pytest.mark.parametrize(
    "start, crossed",
    [(datetime(2019, 12, 31, 22, tzinfo=UTC), "2020-01-01T00:00:00Z"),
     (datetime(2020, 2, 28, tzinfo=UTC), "2020-02-29T23:45:00Z")],
)
def test_write_grid_bytes_match_per_row_formatting(tmp_path, start, crossed):
    # write_grid formats the shared timeline once; write_plug_load formats
    # every row on its own, across a year end and a leap day
    rng = np.random.default_rng(2)
    grid = TimeSeriesGrid(["O1", "desk 2, left"], start, rng.uniform(0, 80, (2, 2 * 96)))
    write_grid(grid, tmp_path / "g.csv", header_comment="h")
    epochs = grid.step_epochs()
    per_row = {
        occ: PlugLoadEvents(occ, epochs, grid.values[i]) for i, occ in enumerate(grid.occupants)
    }
    write_plug_load(per_row, tmp_path / "p.csv", header_comment="h")
    expected = (tmp_path / "p.csv").read_bytes()
    assert f",{crossed},".encode() in expected
    assert (tmp_path / "g.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "bad_row, message",
    [("O1,2018-01-01T00:15:00Z,abc", "power_w must be a number"),
     ("O1,2018-01-01T00:15:00Z,nan", "power must be finite and >= 0"),
     ("O1,2018-01-01T00:15:00Z,inf", "power must be finite and >= 0"),
     ("O1,2018-01-01T00:15:00Z,-5", "power must be finite and >= 0"),
     ("O1,yesterday,1.0", "bad timestamp"),
     ("O1,2018-01-01T00:15:00Z", "expected 3 fields"),
     ("# a comment after the header", "expected 3 fields")],
)
def test_grid_bad_row_names_file_and_line(tmp_path, bad_row, message):
    path = write_csv(tmp_path / "g.csv", ["O1,2018-01-01T00:00:00Z,1.0", bad_row])
    with pytest.raises(InputError, match=message) as info:
        load_grid(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_grid_timelines_must_be_shared_and_contiguous(tmp_path):
    gap = write_csv(
        tmp_path / "gap.csv", ["O1,2018-01-01T00:00:00Z,1.0", "O1,2018-01-01T00:30:00Z,1.0"]
    )
    with pytest.raises(InputError, match="contiguous"):
        load_grid(gap)
    short = write_csv(
        tmp_path / "short.csv",
        ["O1,2018-01-01T00:00:00Z,1.0", "O1,2018-01-01T00:15:00Z,1.0",
         "O2,2018-01-01T00:00:00Z,1.0"],
    )
    with pytest.raises(InputError, match="occupant O2 does not share"):
        load_grid(short)


@pytest.mark.parametrize(
    "loader, header, rows, location, message",
    [(load_grid, "occupant_id,timestamp,power_w",
      ["O1,2018-01-01T00:00:00Z,1.0", ",2018-01-01T00:00:00Z,1.0"], 3, "empty occupant_id"),
     (load_states, "occupant_id,timestamp,state",
      ["O1,2018-01-01T00:00:00Z,1", " ,2018-01-01T00:00:00Z,1"], 3, "empty occupant_id"),
     (ingest.load_lighting, "zone_id,hour_start,energy_wh",
      ["Z1,2018-01-01T00:00:00Z,1.0", ",2018-01-01T00:00:00Z,1.0"], 3, "empty zone_id"),
     (load_grid, "occupant_id,timestamp,power_w",
      ["O1,2018-01-01T00:15:00Z,1.0", "O1,2018-01-01T00:00:00Z,1.0"], 3,
      "non-monotone timestamp for occupant O1"),
     (load_states, "occupant_id,timestamp,state",
      ["O1,2018-01-01T00:00:00Z,1", "O2,2018-01-01T00:00:00Z,1",
       "O2,2018-01-01T00:00:00Z,1"], 4, "non-monotone timestamp for occupant O2")],
)
def test_empty_key_or_backward_step_names_file_and_line(
    tmp_path, loader, header, rows, location, message
):
    path = write_csv(tmp_path / "in.csv", rows, header)
    with pytest.raises(InputError) as info:
        loader(path)
    assert str(info.value) == f"{path}:{location}: {message}"


@pytest.mark.parametrize(
    "loader, header, row, n_rows",
    [(load_grid, "occupant_id,timestamp,power_w", "O1 , {} , 2.5", 96),
     (load_states, "occupant_id,timestamp,state", "O1 , {} , 2", 1),
     (ingest.load_lighting, "zone_id,hour_start,energy_wh", "Z1 , {} , 2.5", 1)],
)
def test_fields_with_spaces_around_them_are_accepted(tmp_path, loader, header, row, n_rows):
    rows = [row.format(ingest.format_timestamp(ingest._epoch(T0) + 900 * k)) for k in range(n_rows)]
    spaced = write_csv(tmp_path / "spaced.csv", rows, header)
    plain = write_csv(tmp_path / "plain.csv", [r.replace(" ", "") for r in rows], header)
    assert repr(loader(spaced)) == repr(loader(plain))


def test_grid_of_a_partial_day_names_the_file(tmp_path):
    path = write_csv(tmp_path / "g.csv", ["O1,2018-01-01T00:00:00Z,1.0"])
    with pytest.raises(InputError) as info:
        load_grid(path)
    assert str(info.value) == f"{path}: grid column count must cover whole days"


# ---------------------------------------------------------------- exclusions


def three_day_grid():
    rng = np.random.default_rng(2)
    return TimeSeriesGrid(["O1"], T0, rng.uniform(0, 10, (1, 3 * 96)))


def test_empty_exclusion_list_is_identity():
    grid = three_day_grid()
    out = exclude_days(grid, [])
    np.testing.assert_array_equal(out.values, grid.values)


def test_excluding_an_interior_day_names_its_range():
    # the kept days would not be one timeline: 01-03 cannot follow 01-01
    with pytest.raises(InputError) as info:
        exclude_days(three_day_grid(), [(day(1), day(2))], "window.exclude_days")
    assert str(info.value) == (
        "window.exclude_days[0]: exclusion range leaves kept days on both sides, "
        "but a grid is one contiguous timeline"
    )
    # of four days, dropping the first and the third keeps two apart
    four_days = TimeSeriesGrid(["O1"], T0, np.zeros((1, 4 * 96)))
    with pytest.raises(InputError, match=r"^window\.exclude_days\[1\]: exclusion range leaves"):
        exclude_days(four_days, [(day(0), day(1)), (day(2), day(3))], "window.exclude_days")
    # with a neighbouring day excluded as well, the kept days are one run
    assert exclude_days(three_day_grid(), [(day(1), day(2)), (day(2), day(3))]).n_days == 1


@pytest.mark.parametrize("first, last", [(0, 1), (0, 2), (1, 3), (2, 3)])
def test_excluding_days_at_either_end_keeps_each_kept_days_date(first, last):
    grid = three_day_grid()
    out = exclude_days(grid, [(day(first), day(last))])
    kept = 0 if first > 0 else last  # the first kept day
    steps = slice(96 * kept, 96 * (kept + 3 - (last - first)))
    assert out.start == day(kept)
    np.testing.assert_array_equal(out.values, grid.values[:, steps])
    np.testing.assert_array_equal(out.step_epochs(), grid.step_epochs()[steps])


def test_excluding_all_days_rejected():
    with pytest.raises(InputError, match="empty grid"):
        exclude_days(three_day_grid(), [(day(0), day(3))])


def test_misaligned_exclusion_rejected():
    with pytest.raises(InputError):
        exclude_days(three_day_grid(), [(day(0, 12), day(1, 12))])


def test_out_of_window_exclusion_rejected():
    with pytest.raises(InputError):
        exclude_days(three_day_grid(), [(day(3), day(4))])


# ---------------------------------------------------------------- desk tables


def same_table(a: Layout, b: Layout) -> bool:
    """Equal layouts with their zones in the same order."""
    return a == b and list(a.zones.items()) == list(b.zones.items())


def test_zone_map_loads_sizes_and_vacancies(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text(
        "occupant_id,desk_id,zone_id\nO1,D1,Z1\n,D2,Z1\nO2,D3,Z2\nO3,D4,Z2\n"
    )
    zm = load_zone_map(path)
    assert list(zm.zones.items()) == [("Z1", ["D1", "D2"]), ("Z2", ["D3", "D4"])]
    assert zm.assignment == {"D1": "O1", "D3": "O2", "D4": "O3"}


def test_zone_map_round_trips_a_hash_leading_occupant_id(tmp_path):
    # comments come only before the header, so a '#' id after it is data
    zone_map = Layout.from_rows([("#1", "D1", "Z1"), ("O2", "D2", "Z1")])
    write_zone_map(zone_map, tmp_path / "z.csv", header_comment="h")
    assert same_table(load_zone_map(tmp_path / "z.csv"), zone_map)


def test_ids_with_a_carriage_return_round_trip(tmp_path):
    # a bare '\r' reads as a line end unless the writers quote it
    zone_map = Layout.from_rows([("a\rb", "D1", "Z\r1"), ("O2", "D2", "Z\r1")])
    write_zone_map(zone_map, tmp_path / "z.csv")
    assert same_table(load_zone_map(tmp_path / "z.csv"), zone_map)
    grid = TimeSeriesGrid(["a\rb", "O2"], T0, np.ones((2, 96)))
    write_grid(grid, tmp_path / "g.csv")
    assert load_grid(tmp_path / "g.csv").occupants == grid.occupants


@pytest.mark.parametrize("entry, bad", [
    ((" O1", "D1", "Z1"), "occupant id ' O1'"),
    (("O1", " D2", "Z1"), "desk id ' D2'"),
    (("O1", "D1", "Z1 "), "zone id 'Z1 '"),
    (("O1", "D1", ""), "zone id ''"),
])
def test_zone_map_writer_rejects_ids_that_would_not_read_back(tmp_path, entry, bad):
    # the reader strips each field, so these would load as other ids
    path = tmp_path / "z.csv"
    with pytest.raises(ValueError, match=bad):
        write_zone_map(Layout.from_rows([entry, ("", "D9", "Z9")]), path)
    assert not path.exists()
    # an empty occupant is a vacant desk
    vacant = Layout.from_rows([("", "D1", "Z1"), ("O1", "D2", "Z1")])
    write_zone_map(vacant, path)
    assert same_table(load_zone_map(path), vacant)


# zones whose rows interleave, and a vacant desk
_INTERLEAVED = [("O1", "D1", "Z2"), ("", "D2", "Z1"), ("O2", "D3", "Z2"), ("O3", "D4", "Z1")]


def test_zone_map_and_layout_file_of_the_same_desks_load_equal(tmp_path):
    zone_map = write_csv(tmp_path / "z.csv", [",".join(r) for r in _INTERLEAVED],
                         "occupant_id,desk_id,zone_id")
    layout = write_csv(tmp_path / "l.csv", [f"{d},{z},{o}" for o, d, z in _INTERLEAVED],
                       "desk_id,zone_id,occupant_id")
    expected = Layout({"Z2": ["D1", "D3"], "Z1": ["D2", "D4"]},
                      {"D1": "O1", "D3": "O2", "D4": "O3"})
    assert same_table(load_zone_map(zone_map), expected)
    assert same_table(load_layout(layout), expected)


@pytest.mark.parametrize("write, load", [(write_zone_map, load_zone_map),
                                         (write_layout, load_layout)],
                         ids=["zone_map", "layout"])
def test_desk_table_write_then_load_gives_an_equal_layout(tmp_path, write, load):
    layout = Layout.from_rows(_INTERLEAVED)
    write(layout, tmp_path / "desks.csv", "h")
    back = load(tmp_path / "desks.csv")
    assert back == layout
    assert list(back.zones) == sorted(layout.zones)  # rows are written in desk_order()


@pytest.mark.parametrize("rows, message", [
    ([("O1", "D1", "Z1"), ("O2", "D1", "Z2")], "desk_ids must be unique"),
    ([("O1", "D1", "Z1"), ("O1", "D2", "Z2")], "an occupant may hold at most one desk"),
])
def test_layout_built_in_code_raises_the_loaders_message(rows, message):
    # one validator: the loaders prefix this message with the file
    # (test_desk_table_structure_errors_name_the_file)
    zones, assignment = {}, {}
    for occ, desk, zone in rows:
        zones.setdefault(zone, []).append(desk)
        assignment.setdefault(desk, occ)
    for build in (lambda: Layout.from_rows(rows), lambda: Layout(zones, assignment)):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message


def test_lighting_writer_rejects_zone_ids_that_would_not_read_back(tmp_path):
    # ' Z1' and 'Z1' would load as two records for ('Z1', hour)
    hour = ingest._epoch(T0)
    path = tmp_path / "l.csv"
    with pytest.raises(ValueError, match="zone id ' Z1'"):
        ingest.write_lighting(ingest.LightingTable({(" Z1", hour): 1.0, ("Z1", hour): 2.0}), path)
    assert not path.exists()


def test_zone_map_duplicate_desk_rejected(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("occupant_id,desk_id,zone_id\nO1,D1,Z1\nO2,D1,Z2\n")
    with pytest.raises(InputError, match="desk"):
        load_zone_map(path)


def test_zone_map_duplicate_occupant_rejected(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("occupant_id,desk_id,zone_id\nO1,D1,Z1\nO1,D2,Z2\n")
    with pytest.raises(InputError, match="occupant"):
        load_zone_map(path)


@pytest.mark.parametrize("loader", [load_zone_map, load_layout], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "rows, message",
    [([("O1", "D1", "Z1"), ("O2", "D1", "Z2")], "desk_ids must be unique"),
     ([("O1", "D1", "Z1"), ("O1", "D2", "Z2")], "an occupant may hold at most one desk"),
     ([], "no desk rows")],
)
def test_desk_table_structure_errors_name_the_file(tmp_path, loader, rows, message):
    header = _LOADER_HEADERS[loader].split(",")
    path = tmp_path / "desks.csv"
    lines = [",".join(dict(zip(["occupant_id", "desk_id", "zone_id"], r))[c] for c in header)
             for r in rows]
    write_csv(path, lines, ",".join(header))
    with pytest.raises(InputError) as info:
        loader(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("loader", [load_zone_map, load_layout], ids=lambda f: f.__name__)
@pytest.mark.parametrize("column", ["desk_id", "zone_id"])
def test_desk_table_empty_key_names_file_and_line(tmp_path, loader, column):
    header = _LOADER_HEADERS[loader].split(",")
    row = {"occupant_id": "O1", "desk_id": "D1", "zone_id": "Z1", column: " "}
    path = write_csv(tmp_path / "desks.csv", [",".join(row[c] for c in header)], ",".join(header))
    with pytest.raises(InputError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: empty {column}"


# ---------------------------------------------------------------- calendar


def test_calendar_monday_start():
    cal = StepCalendar(T0, 96)
    assert cal.dows[0] == 0
    assert not cal.weekend[0]
    assert cal.hours[0] == 0.0
    assert cal.hours[4] == 1.0


def test_calendar_saturday_is_weekend():
    cal = StepCalendar(day(5), 96)  # 2018-01-06 is a Saturday
    assert cal.dows[0] == 5
    assert bool(cal.weekend[0])


def test_calendar_groups_partition_steps():
    cal = StepCalendar(T0, 2 * 96)
    hours, counts = np.unique(cal.hour_epochs(), return_counts=True)
    assert hours.size == 48
    assert np.all(np.diff(hours) == 3600)
    # four quarter-hour steps per hour
    assert np.all(counts == 4)


def test_hour_columns_fold_steps_into_touched_hours():
    cal = StepCalendar(T0 + timedelta(minutes=15), 96)
    hour_starts, column = cal.hour_columns()
    # a day that starts at 00:15 touches 25 hours: 3 steps in the first, 1 in the last
    assert hour_starts.size == 25
    np.testing.assert_array_equal(hour_starts, ingest._epoch(T0) + 3600 * np.arange(25))
    np.testing.assert_array_equal(hour_starts[column], cal.hour_epochs())
    assert np.bincount(column).tolist() == [3] + [4] * 23 + [1]


@pytest.mark.parametrize(
    "start, n_days",
    [
        (datetime(2019, 12, 30, tzinfo=UTC), 70),  # a year boundary and 2020-02-29
        (datetime(2020, 2, 28, 23, 45, tzinfo=UTC), 3),
    ],
)
def test_calendar_matches_datetime_reference(start, n_days):
    n_steps = n_days * 96
    cal = StepCalendar(start, n_steps)
    moments = [start + timedelta(minutes=15 * k) for k in range(n_steps)]
    np.testing.assert_array_equal(cal.hours, [m.hour for m in moments])
    np.testing.assert_array_equal(cal.dows, [m.weekday() for m in moments])
    np.testing.assert_array_equal(cal.weekend, [m.weekday() >= 5 for m in moments])


# ---------------------------------------------------------------- boundaries


def test_overlong_csv_field_names_file_and_line(tmp_path):
    long_id = "x" * 200_000  # over csv's default field limit of 131,072
    rows = ["O1,2018-01-01T00:00:00Z,1.0", f"{long_id},2018-01-01T00:15:00Z,1.0"]
    path = write_csv(tmp_path / "p.csv", rows)
    with pytest.raises(InputError, match="field larger than field limit") as info:
        load_plug_load(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_non_utf8_byte_names_file_and_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"occupant_id,timestamp,power_w\nO1,2018-01-01T00:00:00Z,1.0\nO\xff,x,1\n")
    with pytest.raises(InputError, match="not UTF-8") as info:
        load_plug_load(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_row_errors_count_physical_lines(tmp_path):
    # the first record's quoted zone id spans lines 2 and 3
    rows = ['"Z\n1",2018-01-01T00:00:00Z,1.0', "Z2,2018-01-01T00:00:00Z,abc"]
    path = write_csv(tmp_path / "l.csv", rows, "zone_id,hour_start,energy_wh")
    with pytest.raises(InputError, match="energy_wh must be a number") as info:
        ingest.load_lighting(path)
    assert str(info.value).startswith(f"{path}:4: ")


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00+23:59", "9999-12-31T23:59:59-23:59"])
def test_out_of_range_timestamp_is_an_input_error(text):
    with pytest.raises(InputError, match="bad timestamp"):
        parse_timestamp(text)


@pytest.mark.parametrize(
    "bad_row, message",
    [("Z1,2018-01-01T01:00:00Z,abc", "energy_wh must be a number"),
     ("Z1,2018-01-01T01:00:00Z,nan", "lighting energy must be finite and >= 0"),
     ("Z1,2018-01-01T01:00:00Z,inf", "lighting energy must be finite and >= 0"),
     ("Z1,2018-01-01T01:00:00Z,-3", "lighting energy must be finite and >= 0"),
     ("Z1,2018-01-01T01:30:00Z,1.0", "not on the hour"),
     ("Z1,noon,1.0", "bad timestamp"),
     ("Z1,2018-01-01T00:00:00Z,2.0", "duplicate record")],
)
def test_lighting_bad_row_names_file_and_line(tmp_path, bad_row, message):
    path = write_csv(
        tmp_path / "l.csv", ["Z1,2018-01-01T00:00:00Z,1.0", bad_row], "zone_id,hour_start,energy_wh"
    )
    with pytest.raises(InputError, match=message) as info:
        ingest.load_lighting(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_lighting_array_follows_zone_and_hour_order():
    hours = ingest._epoch(T0) + 3600 * np.arange(3)
    table = ingest.LightingTable(
        {(z, int(h)): 10.0 * j + k for j, z in enumerate(["Z1", "Z2"]) for k, h in enumerate(hours)}
    )
    np.testing.assert_array_equal(table.hourly(["Z2", "Z1"], hours[1:]), [[11, 12], [1, 2]])
    del table.records[("Z2", int(hours[2]))]
    del table.records[("Z1", int(hours[1]))]
    # the earliest hour that lacks a record is named, not the first zone
    with pytest.raises(InputError, match="zone Z1 at 2018-01-01T01:00:00Z"):
        table.hourly(["Z2", "Z1"], hours)


_FUZZ_FIELDS = st.one_of(
    st.text(max_size=8),
    st.sampled_from([
        "2018-01-01T00:00:00Z", "2018-01-01T00:15:00Z", "2018-01-01T01:00:00",
        "0001-01-01T00:00:00+23:59", "9999-12-31T23:59:59-23:59",
        "1", "2", "3", "0", "-3", "1e400", "nan", "abc", "Z1", "D1", "O1", '"', "",
    ]),
)
_FUZZ_BODIES = st.one_of(
    st.lists(st.lists(_FUZZ_FIELDS, max_size=4).map(",".join), max_size=6).map(
        lambda rows: "\n".join(rows).encode("utf-8")
    ),
    st.binary(max_size=40),
)


_LOADER_HEADERS = {
    load_plug_load: "occupant_id,timestamp,power_w",
    load_grid: "occupant_id,timestamp,power_w",
    load_states: "occupant_id,timestamp,state",
    load_zone_map: "occupant_id,desk_id,zone_id",
    ingest.load_lighting: "zone_id,hour_start,energy_wh",
    load_layout: "desk_id,zone_id,occupant_id",
}


@pytest.mark.parametrize("loader", list(_LOADER_HEADERS), ids=lambda f: f.__name__)
def test_loaders_return_or_raise_input_error(tmp_path_factory, loader):
    # whatever follows a valid header, a loader returns or raises InputError
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    header = _LOADER_HEADERS[loader]

    @settings(max_examples=80, deadline=None)
    @given(_FUZZ_BODIES)
    def check(body):
        path.write_bytes(header.encode() + b"\n" + body)
        try:
            loader(path)
        except InputError:
            pass

    check()


_LOADER_ROWS = {
    load_plug_load: ["O1,{},2.5"],
    load_grid: ["O1,{},2.5"] * 96,
    load_states: ["O1,{},2"] * 96,
    load_zone_map: ["O1,D1,Z1", ",D2,Z1"],
    ingest.load_lighting: ["Z1,2018-01-01T00:00:00Z,2.5", "Z2,2018-01-01T01:00:00Z,0"],
    load_layout: ["D1,Z1,O1", "D2,Z1,"],
}


@pytest.mark.parametrize("loader", list(_LOADER_ROWS), ids=lambda f: f.__name__)
def test_crlf_input_loads_like_lf_input(tmp_path, loader):
    # every writer ends lines with LF; CRLF files from elsewhere still load
    stamps = [ingest.format_timestamp(ingest._epoch(T0) + 900 * k) for k in range(96)]
    rows = [row.format(stamp) for row, stamp in zip(_LOADER_ROWS[loader], stamps)]
    lines = ["# a comment", _LOADER_HEADERS[loader], *rows]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes("".join(f"{line}\n" for line in lines).encode())
    crlf.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
    assert repr(loader(crlf)) == repr(loader(lf))


# ---------------------------------------------------------------- column path vs row path


_SERIES_STARTS = [
    datetime(2018, 1, 1, tzinfo=UTC),
    datetime(1, 1, 1, tzinfo=UTC),
    datetime(1969, 12, 31, 23, 30, tzinfo=UTC),
    datetime(2019, 12, 31, 23, 30, tzinfo=UTC),
    datetime(2020, 2, 28, 23, 30, tzinfo=UTC),
    datetime(9999, 12, 31, 23, 0, tzinfo=UTC),
]
_STAMP_FORMS = [
    "Z", "+00:00", "-05:00", "naive", "fraction", "space", "lowercase", "leap second", "year 0",
    "expanded year",
]
_SERIES_IDS = ["O1", "O10", "O2", "desk 2, left", "#3", 'say "hi"', "٣", ""]
_SERIES_CELLS = {
    "power_w": [
        "1.5", "0", "22.75", "1_0", "٣", "+2", " 7", "1e400", "nan", "-1", "abc", "",
        # the edges of the bulk decimal conversion: 15-, 16- and 17-digit
        # reprs, 2**53 and 2**53 + 1, and 22 and 23 decimals
        "123.456789012345", "0.6666666666666666", "0.30000000000000004",
        "9007199254740992", "9007199254740993", "007.50", ".5", "5.",
        "0." + "0" * 21 + "7", "0." + "0" * 22 + "7",
    ],
    "state": ["1", "2", "3", "+1", "01", "٢", " 2", "4", "0", "1.0", ""],
}
_SERIES_VALUES = {"power_w": ingest._POWER, "state": _STATE}


def _stamp(dt: datetime, form: str) -> str:
    text = f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}"
    if form == "-05:00":
        try:
            dt = dt.astimezone(timezone(timedelta(hours=-5)))
        except OverflowError:  # before year 1 in that zone
            return text + "Z"
        return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}-05:00"
    return {
        "Z": text + "Z",
        "+00:00": text + "+00:00",
        "naive": text,
        "fraction": text + ".5Z",
        "space": text.replace("T", " ") + "Z",
        "lowercase": text.replace("T", "t") + "z",
        "leap second": text[:-2] + "60Z",
        "year 0": "0000" + text[4:] + "Z",
        "expanded year": "+1" + text + "Z",
    }[form]


@st.composite
def _series_files(draw, value_name):
    """A series CSV as bytes: mostly well formed, with the forms a user's file may take."""
    forms = draw(st.lists(st.sampled_from(_STAMP_FORMS), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.sampled_from(_SERIES_CELLS[value_name]), min_size=1, max_size=3))
    start = draw(st.sampled_from(_SERIES_STARTS))
    per_occupant = [
        [
            [occ, _stamp(start + timedelta(minutes=15 * j), draw(st.sampled_from(forms))),
             draw(st.sampled_from(cells))]
            for j in range(draw(st.integers(0, 4)))
        ]
        for occ in draw(st.lists(st.sampled_from(_SERIES_IDS), min_size=1, max_size=3))
    ]
    order = [k for k, rows in enumerate(per_occupant) for _ in rows]
    if draw(st.booleans()):
        order = draw(st.permutations(order))  # interleaved occupants
    rows = [per_occupant[k].pop(0) for k in order]
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
        # a field moved across a line break: every row still has three
        # fields in the flat cell sequence, but two lines do not
        k = draw(st.integers(0, len(rows) - 2))
        if draw(st.booleans()):
            rows[k].append(rows[k + 1].pop(0))
        else:
            rows[k + 1].insert(0, rows[k].pop())
    buf = io.StringIO()
    quoting = csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL
    writer = csv.writer(buf, quoting=quoting, lineterminator="\n")
    for row in rows:
        if draw(st.booleans()):
            row = [f" {cell} " for cell in row]
        width = draw(st.integers(0, 9))  # now and then a field short or one too many
        writer.writerow(row[:2] if width == 0 else row + ["1"] if width == 1 else row)
        if draw(st.integers(0, 9)) == 0:
            buf.write("\n")
    preamble = draw(st.lists(st.sampled_from(["# made by hand", '#a,"b', ""]), max_size=2))
    text = "".join(f"{line}\n" for line in preamble)
    text += f"occupant_id,timestamp,{value_name}\n" + buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text.encode("utf-8")


def _series_outcome(read, *args):
    """A series reader's result as plain values, or its InputError message."""
    try:
        s = read(*args)
    except InputError as exc:
        return str(exc)
    return s.occupants, s.bounds.tolist(), s.epochs.tolist(), s.values.tolist(), s.values.dtype


def _column_outcome(*args):
    """The column path's result, or None where it leaves the file to the row path."""
    try:
        s = ingest._read_series_columns(*args)
    except (ingest._Reject, InputError, UnicodeDecodeError):
        return None
    return _series_outcome(lambda: s)


@pytest.mark.parametrize("value_name", list(_SERIES_CELLS))
def test_column_path_equals_row_path(tmp_path_factory, value_name):
    # whatever the file, _read_series returns the row path's exact result or
    # raises its InputError, and the column path alone never accepts a file
    # the row path rejects; small blocks split rows, headers and ids across reads
    path = tmp_path_factory.mktemp("series") / "in.csv"
    values = _SERIES_VALUES[value_name]

    @settings(deadline=None)
    @given(_series_files(value_name), st.sampled_from([ingest._BLOCK_BYTES, 8, 50]))
    def check(content, block_bytes):
        path.write_bytes(content)
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            want = _series_outcome(ingest._read_series_rows, path, values)
            assert _series_outcome(ingest._read_series, path, values) == want
            columns = _column_outcome(path, values)
        if columns is not None:
            assert columns == want

    check()


@pytest.mark.parametrize(
    "rows, line",
    [(["O1,2018-01-01T00:00:00Z,1,O1", "2018-01-01T00:15:00Z,2"], 2),
     (["O1,2018-01-01T00:00:00Z", "1,O1,2018-01-01T00:15:00Z,2"], 2),
     (["O1,2018-01-01T00:00:00Z,1,O1", "2018-01-01T00:15:00Z", "2,O1,2018-01-01T00:30:00Z,3"], 2)],
)
def test_a_field_moved_across_a_line_break_is_a_bad_row(tmp_path, rows, line):
    # split into one flat cell list, these read as valid rows; each line must have three fields
    path = write_csv(tmp_path / "p.csv", rows)
    with pytest.raises(InputError) as info:
        load_plug_load(path)
    assert str(info.value).startswith(f"{path}:{line}: expected 3 fields")
    assert _column_outcome(path, ingest._POWER) is None


@pytest.mark.parametrize(
    "text, message",
    [("#" + "x" * 200_000 + "\noccupant_id,timestamp,power_w\n",
      ":1: field larger than field limit"),  # csv.reader splits comment lines too
     ("", ": missing header row"),
     ("# only a comment\n\n#\n", ": missing header row")],
)
def test_bad_preamble_names_the_file(tmp_path, text, message):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        load_plug_load(path)
    assert str(info.value).startswith(f"{path}{message}")
    assert _column_outcome(path, ingest._POWER) is None


@pytest.mark.parametrize(
    "variant",
    ["written", "offsets", "naive", "interleaved", "padded", "blank lines", "small blocks"],
)
def test_column_path_takes_common_files(tmp_path, monkeypatch, variant):
    # the row path is the fallback, not the rule: these all take the column path
    rng = np.random.default_rng(3)
    grid = TimeSeriesGrid(["O1", "O2", "O3"], datetime(2019, 12, 31, tzinfo=UTC),
                          rng.uniform(0, 80, (3, 2 * 96)))
    path = tmp_path / "g.csv"
    write_grid(grid, path, header_comment="h")
    lines = path.read_text(encoding="utf-8").splitlines()
    head, rows = lines[:2], lines[2:]
    if variant == "offsets":
        rows = [r.replace("Z,", "+00:00,") for r in rows]
    elif variant == "naive":
        rows = [r.replace("Z,", ",") for r in rows]
    elif variant == "interleaved":
        rows = [r for step in zip(rows[:192], rows[192:384], rows[384:]) for r in step]
    elif variant == "padded":
        rows = [" " + r.replace(",", " , ") + " " for r in rows]
    elif variant == "blank lines":
        rows = [r + "\n" if k % 7 == 0 else r for k, r in enumerate(rows)]
    elif variant == "small blocks":
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 100)
    path.write_bytes("".join(line + "\n" for line in head + rows).encode())
    want = _series_outcome(ingest._read_series_rows, path, ingest._POWER)
    assert not isinstance(want, str)
    assert _column_outcome(path, ingest._POWER) == want
    back = load_grid(path)
    np.testing.assert_array_equal(back.values, grid.values)
    assert back.occupants == grid.occupants and back.start == grid.start


@pytest.mark.parametrize(
    "stamp",
    ["0000-01-01T00:00:00Z", "2018-01-01T00:00:00z", "2018-01-01T00:00:00+", "2018-01-01 00:00:00Z",
     "2018-01-01T00:00:60Z", "2018-02-29T00:00:00Z", "2020-02-29T00:00:00Z"],
)
def test_stamps_of_the_canonical_width_read_as_the_row_path_reads_them(tmp_path, stamp):
    path = write_csv(tmp_path / "p.csv", [f"O1,{stamp},1.5", "O1,2021-01-01T00:00:00Z,2"])
    want = _series_outcome(ingest._read_series_rows, path, ingest._POWER)
    assert _series_outcome(ingest._read_series, path, ingest._POWER) == want


_WIDE_ID = "O" + "x" * ingest._PAD_BYTES  # wider than the zero bytes after a block
_S0, _S1 = "2018-01-01T00:00:00", "2018-01-01T00:15:00"


@pytest.mark.parametrize(
    "value_name, text",
    [
        # two wide ids that differ only past _PAD_BYTES, next to each other
        ("power_w", f"{_WIDE_ID}a,{_S0}Z,1.5\n{_WIDE_ID}b,{_S0}Z,2\n{_WIDE_ID}a,{_S1}Z,3\n"
                    f"O1,{_S0}Z,4\n"),
        ("power_w", f"Zoë,{_S0}Z,1.5\nΔ٣,{_S0}Z,2\nZoë,{_S1}Z,3\n"),
        ("power_w", f"O1,{_S0}Z,1.5\nO1,{_S1}Z,2"),  # no line break after the last line
        ("power_w", f"O1,{_S0}+00:00,1.5\nO1,{_S1}+00:00,2\n"),
        ("power_w", f"O1,{_S0}.5Z,1.5\nO1,{_S1}.25Z,2\n"),
        ("power_w", f"O1,{_S0.replace('T', ' ')}Z,1.5\nO1,{_S1.replace('T', ' ')}Z,2\n"),
        *[("power_w", f"O1,{_S0}Z,1.5\nO1,{_S1}Z,{cell}\n")
          for cell in ["1e3", "1_0", "inf", "nan", "-1"]],
        *[("state", f"O1,{_S0}Z,2\nO1,{_S1}Z,{cell}\n") for cell in [" 1", "01", "4", "12"]],
    ],
    ids=["wide id", "non-ASCII ids", "last line open", "+00:00", "fractional seconds",
         "space for T", "1e3", "1_0", "inf", "nan", "-1", "state ' 1'", "state 01", "state 4",
         "state 12"],
)
@pytest.mark.parametrize("preamble", ["", "# made by hand\n\n#\n"])
def test_rare_forms_read_on_the_column_path_as_on_the_row_path(tmp_path, value_name, text,
                                                                preamble):
    path = tmp_path / "f.csv"
    path.write_bytes(f"{preamble}occupant_id,timestamp,{value_name}\n{text}".encode())
    values = _SERIES_VALUES[value_name]
    want = _series_outcome(ingest._read_series_rows, path, values)
    assert _series_outcome(ingest._read_series, path, values) == want
    # the column path takes every file the row path reads, and leaves a bad
    # cell's file to the row path, which names its line
    assert _column_outcome(path, values) == (None if isinstance(want, str) else want)


@pytest.mark.parametrize("rows_per_block", [None, 3])
def test_files_zoneplan_writes_take_the_column_path(tmp_path, monkeypatch, rows_per_block):
    # grid values are mostly 17-digit reprs, which the bulk decimal
    # conversion leaves to float(); ids of two widths share blocks
    rng = np.random.default_rng(11)
    occupants = ["O1", "O10", "O2"]
    grid = TimeSeriesGrid(occupants, T0, rng.uniform(0, 80, (3, 96)))
    state_grid = StateGrid(occupants, T0, rng.integers(1, 4, (3, 96)).astype(np.int8))
    events = {
        occ: PlugLoadEvents(
            occ,
            ingest._epoch(T0) + np.sort(rng.choice(86_400, 40, replace=False)),
            rng.uniform(0, 120, 40).round(2),
        )
        for occ in occupants
    }
    write_grid(grid, tmp_path / "grid.csv", header_comment="h")
    write_states(state_grid, tmp_path / "states.csv", header_comment="h")
    write_plug_load(events, tmp_path / "plug.csv", header_comment="h")
    monkeypatch.setattr(ingest, "_read_series_rows", mock.Mock(side_effect=AssertionError))

    def read(load, name):
        if rows_per_block:
            widest = max(map(len, (tmp_path / name).read_bytes().splitlines(keepends=True)))
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", rows_per_block * widest)
        return load(tmp_path / name)

    back = read(load_grid, "grid.csv")
    np.testing.assert_array_equal(back.values, grid.values)
    assert back.occupants == occupants and back.start == T0
    assert np.array_equal(read(load_states, "states.csv").states, state_grid.states)
    plug = read(load_plug_load, "plug.csv")
    assert list(plug) == occupants
    for occ, ev in events.items():
        np.testing.assert_array_equal(plug[occ].times, ev.times)
        np.testing.assert_array_equal(plug[occ].powers, ev.powers)


def _value_cells(cells: list[bytes]) -> ingest._Cells:
    """cells as the value column of one block of rows."""
    block = b"".join(b"O1,2018-01-01T00:00:00Z," + cell + b"\n" for cell in cells)
    return ingest._block_cells(block + bytes(ingest._PAD_BYTES), csv.field_size_limit())[2]


def _plain_decimal(cell: bytes) -> bool:
    """Whether a cell is the bulk conversion's form: [0-9]+(.[0-9]+)?, at most
    24 bytes, whose digits make an integer below 2**53."""
    return (
        re.fullmatch(rb"[0-9]+(\.[0-9]+)?", cell) is not None
        and len(cell) <= 24
        and int(cell.replace(b".", b"")) < 2**53
    )


def _random_reprs(seed: int, n: int) -> list[bytes]:
    """reprs of doubles spread from 1e-30 to 1e30 on a log scale, a tenth of them subnormal."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-30, 30, n)
    values[: n // 10] = rng.integers(1, 2**52, n // 10).view(np.float64)
    return [repr(v).encode() for v in values.tolist()]


def _random_digit_strings(seed: int, n: int) -> list[bytes]:
    """Up to 16 digits after up to 11 zeros, with no dot, one or two dots anywhere."""
    rng = random.Random(seed)
    cells = []
    for _ in range(n):
        cell = "0" * rng.randint(0, 11) + "".join(rng.choices("0123456789", k=rng.randint(1, 16)))
        for _ in range(rng.choice([0, 1, 1, 1, 2])):
            cut = rng.randint(0, len(cell))
            cell = f"{cell[:cut]}.{cell[cut:]}"
        cells.append(cell.encode())
    return cells


@pytest.mark.parametrize(
    "make_cells, fast_share",
    [(_random_reprs, 0.14), (_random_digit_strings, 0.66)],
    ids=["reprs", "digit strings"],
)
def test_bulk_decimal_conversion_is_float_bit_for_bit(make_cells, fast_share):
    # the bulk conversion takes exactly the cells of its form, so a narrowed
    # path fails here, and gives float()'s bits on each; the whole column,
    # bulk and per cell, is float()'s too.  About a third of the reprs are
    # plain decimals, and about half of those have digits below 2**53.
    cells = make_cells(24, 100_000)
    values, fast = ingest._plain_decimals(_value_cells(cells))
    np.testing.assert_array_equal(fast, [_plain_decimal(cell) for cell in cells])
    assert fast.mean() > fast_share
    want = np.array([float(cell) for cell in np.array(cells)[fast]])
    np.testing.assert_array_equal(values[fast].view(np.int64), want.view(np.int64))
    numbers = [cell for cell in cells if cell.count(b".") < 2]  # two dots: not a number
    want = np.array([float(cell) for cell in numbers])
    column = ingest._power_column(_value_cells(numbers))
    np.testing.assert_array_equal(column.view(np.int64), want.view(np.int64))


def test_trace_and_energy_writers_match_csv_writer(tmp_path):
    # both writers format their lines themselves; _write_rows (csv.writer) is the reference
    trace_header = ["iteration", "objective", "best_so_far"]
    objectives = [3.5, -0.0, np.inf, 1 / 3, 0.0]
    best = [3.5, -0.0, -0.0, -0.0, 0.0]
    for trace in [OptTrace(objectives, best), OptTrace([2.5], [2.5])]:
        write_trace(trace, tmp_path / "t.csv", "note")
        rows = [(k, *row) for k, row in enumerate(zip(trace.objectives, trace.best_so_far))]
        ingest._write_rows(tmp_path / "t_ref.csv", trace_header, rows, ["note"])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_ref.csv").read_bytes()

    zones = ["z,1", 'say "hi"', "Z3"]
    hours = ingest._epoch(T0) + 3600 * np.arange(3)
    hourly = np.array([[1.5, -0.0, np.inf], [0.0, 1 / 3, 2.0], [1e-300, 7.0, 0.1]])
    report = EnergyReport(zones, hours, hourly, float(hourly.sum()), 10.0, -5.0)
    write_energy_report(report, tmp_path / "e.csv", "note")
    rows = [
        (zone, ingest.format_timestamp(int(hour)), float(hourly[j, k]))
        for j, zone in enumerate(zones)
        for k, hour in enumerate(hours)
    ]
    comments = ["note", "grand_total_wh: inf", "baseline_total_wh: 10.0", "percent_change: -5.0"]
    header = ["zone_id", "period_start", "energy_pred_wh"]
    ingest._write_rows(tmp_path / "e_ref.csv", header, rows, comments)
    assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e_ref.csv").read_bytes()

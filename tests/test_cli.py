"""Command-line pipeline: exit codes, file outputs, deterministic reruns."""

import argparse
import copy
import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO, load_module, write_plug_load
from zoneplan import ingest
from zoneplan import states as states_mod
from zoneplan import surrogate, synth
from zoneplan.cli import DEFAULT_CONFIG, _make_parser, build_config, config_hash, main
from zoneplan.ingest import (
    STEP_SECONDS,
    InputError,
    Layout,
    PlugLoadEvents,
    load_grid,
    load_zone_map,
    write_lighting,
    write_zone_map,
)
from zoneplan.optimize import load_layout, write_layout

UTC = timezone.utc


def make_plug_csv(path, n_occupants=4, n_days=2, seed=0):
    # piecewise-constant power: low overnight, high spans during the day
    rng = np.random.default_rng(seed)
    events = {}
    base = int(datetime(2018, 1, 1, tzinfo=UTC).timestamp())
    for i in range(n_occupants):
        times, powers = [], []
        for d in range(n_days):
            day = base + d * 96 * STEP_SECONDS
            times += [day, day + 36 * STEP_SECONDS, day + 68 * STEP_SECONDS]
            powers += [
                2.0 + rng.uniform(0, 0.3),
                60.0 + rng.uniform(0, 8),
                2.0 + rng.uniform(0, 0.3),
            ]
        events[f"O{i+1}"] = PlugLoadEvents(
            f"O{i+1}",
            np.asarray(times, dtype=np.int64),
            np.asarray(powers, dtype=np.float64),
        )
    write_plug_load(events, path)
    return path


def read_text(path):
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------- basics


def test_ingest_writes_grid(tmp_path):
    plug = make_plug_csv(tmp_path / "plug.csv")
    out = tmp_path / "out"
    code = main(
        ["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(out)]
    )
    assert code == 0
    grid = out / "grid.csv"
    assert grid.exists()
    head = read_text(grid).splitlines()[0]
    assert head.startswith("# zoneplan ingest config=")


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(
        ["ingest", "--set", "paths.plug_load=/nonexistent/x.csv", "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "x.csv" in capsys.readouterr().err


def test_bad_flag_exits_one(tmp_path, capsys):
    assert main(["ingest", "--no-such-flag"]) == 1


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_internal_error_exits_two(monkeypatch, capsys):
    import zoneplan.cli as cli

    def boom(cfg, occupants, zones, distinct):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_count_layouts", boom)
    assert main(["count-layouts", "4", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "wires crossed" in err


def test_count_layouts_stdout(capsys):
    assert main(["count-layouts", "4", "2"]) == 0
    out = capsys.readouterr().out
    assert "3" in out
    assert main(["count-layouts", "50", "5"]) == 0
    out = capsys.readouterr().out
    assert "402789797982510165934296910320" in out


def test_count_layouts_distinct_zones(capsys):
    assert main(["count-layouts", "4", "2", "--distinct-zones"]) == 0
    assert "6" in capsys.readouterr().out


def test_count_layouts_indivisible_exits_one(capsys):
    assert main(["count-layouts", "7", "2"]) == 1


@pytest.mark.parametrize("operands", [["12", "5"], ["4", "0"], ["4", "-2"], ["-4", "2"]])
def test_count_layouts_rejects_operands_alike_with_and_without_distinct_zones(capsys, operands):
    errors = []
    for extra in ([], ["--distinct-zones"]):
        assert main(["count-layouts", *operands, *extra]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[0] == errors[1]


# ---------------------------------------------------------------- config


def test_config_hash_ignores_out_dir():
    a = {"seed": 0, "out_dir": "r1", "paths": {}}
    b = {"seed": 0, "out_dir": "r2", "paths": {}}
    assert config_hash(a) == config_hash(b)
    c = {"seed": 1, "out_dir": "r1", "paths": {}}
    assert config_hash(a) != config_hash(c)


def test_set_override_parses_json(tmp_path):
    plug = make_plug_csv(tmp_path / "plug.csv")
    out = tmp_path / "out"
    code = main(
        [
            "ingest",
            "--set", f"paths.plug_load={plug}",
            "--set", 'window.exclude_days=[["2018-01-02T00:00:00Z","2018-01-03T00:00:00Z"]]',
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = [
        line for line in read_text(out / "grid.csv").splitlines()
        if line and not line.startswith("#")
    ]
    # 2-day window minus one excluded day leaves 96 data rows per occupant
    assert len(rows) - 1 == 4 * 96


def test_excluding_the_first_day_keeps_each_kept_days_date(tmp_path):
    plug = make_plug_csv(tmp_path / "plug.csv", n_days=3)
    assert main(["ingest", "--plug-load", str(plug), "--out-dir", str(tmp_path / "all")]) == 0
    first = 'window.exclude_days=[["2018-01-01T00:00:00Z","2018-01-02T00:00:00Z"]]'
    argv = ["ingest", "--plug-load", str(plug), "--set", first, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    whole = load_grid(tmp_path / "all" / "grid.csv")
    trimmed = load_grid(tmp_path / "out" / "grid.csv")
    assert trimmed.start == datetime(2018, 1, 2, tzinfo=UTC)
    np.testing.assert_array_equal(trimmed.values, whole.values[:, 96:])


@pytest.mark.parametrize("bad, message", [
    ('["2018-01-01T12:00:00Z", "2018-01-02T00:00:00Z"]',
     "exclusion range must align to grid day boundaries"),
    ('["2018-01-02T00:00:00Z", "2018-01-04T00:00:00Z"]', "exclusion range outside grid window"),
])
def test_exclude_days_errors_name_their_entry(tmp_path, capsys, bad, message):
    # the 2-day grid starts 2018-01-01; the first range is fine, the second is not
    plug = make_plug_csv(tmp_path / "plug.csv")
    ranges = f'[["2018-01-01T00:00:00Z", "2018-01-02T00:00:00Z"], {bad}]'
    argv = ["ingest", "--plug-load", str(plug), "--set", f"window.exclude_days={ranges}",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: window.exclude_days[1]: {message}\n"


def test_config_file_plus_set_override(tmp_path):
    plug = make_plug_csv(tmp_path / "plug.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"paths": {"plug_load": str(plug)}, "seed": 3}))
    out = tmp_path / "out"
    code = main(["ingest", "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 0
    assert "seed=3" in read_text(out / "grid.csv").splitlines()[0]


def test_config_files_merge_in_order(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 3, "states": {"k_max": 5, "tol": 1e-3}}))
    b.write_text(json.dumps({"states": {"tol": 1e-4}, "surrogate": {"kind": "mlr"}}))
    args = _make_parser().parse_args(
        ["count-layouts", "4", "2", "--config", str(a), "--config", str(b),
         "--set", "surrogate.kind=rf"]
    )
    cfg = build_config(args)
    assert cfg["seed"] == 3  # from a.json, not dropped by b.json
    assert cfg["states"]["k_max"] == 5
    assert cfg["states"]["tol"] == 1e-4  # the later file wins
    assert cfg["states"]["max_iter"] == 5000  # defaults survive the deep merge
    assert cfg["surrogate"]["kind"] == "rf"  # --set applies after every file


@pytest.mark.parametrize(
    "assignment, message",
    [("optimize.ga.populaton=5", "unknown config key optimize.ga.populaton"),
     ("surogate.kind=zzz", "unknown config key surogate.kind"),
     ("paths.states.x=1", "unknown config key paths.states.x"),
     ('states.priors={"shpe": 1}', "unknown config key states.priors.shpe"),
     ("optimize.ga=5", "config key optimize.ga must be a JSON object"),
     ('optimize.ga.population="abc"', "config key optimize.ga.population must be int, got str"),
     ('states.k_max="5"', "config key states.k_max must be int, got str"),
     ("optimize.ga.population=5.0", "config key optimize.ga.population must be int, got float"),
     ("surrogate.ridge=true", "config key surrogate.ridge must be float, got bool"),
     ("oracle.daylight_factor=1", "config key oracle.daylight_factor must be bool, got int"),
     ("synth.start=5", "config key synth.start must be str, got int"),
     # a null default's key declares its type; null itself stays allowed
     ('optimize.iter_limit="abc"', "config key optimize.iter_limit must be int or null, got str"),
     ("optimize.iter_limit=2.5", "config key optimize.iter_limit must be int or null, got float"),
     ("optimize.iter_limit=true", "config key optimize.iter_limit must be int or null, got bool"),
     ("paths.model=5", "config key paths.model must be str or null, got int"),
     ("paths.states=[1]", "config key paths.states must be str or null, got list"),
     ("optimize.seed_layouts=5", "config key optimize.seed_layouts must be str or null, got int"),
     ('states.priors.mean="x"', "config key states.priors.mean must be float or null, got str"),
     ("states.priors.rate=[1]", "config key states.priors.rate must be float or null, got list")],
)
def test_bad_set_key_exits_one_and_names_it(tmp_path, capsys, assignment, message):
    argv = ["optimize", "--method", "ga", "--set", assignment, "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_unknown_config_file_key_exits_one_and_names_it(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimize": {"ga": {"populaton": 5}}}))
    assert main(["count-layouts", "4", "2", "--config", str(cfg_path)]) == 1
    assert f"{cfg_path}: unknown config key optimize.ga.populaton" in capsys.readouterr().err


def test_mistyped_config_file_value_exits_one_and_names_it(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"states": {"k_max": "5"}}))
    assert main(["count-layouts", "4", "2", "--config", str(cfg_path)]) == 1
    assert f"{cfg_path}: config key states.k_max must be int, got str" in capsys.readouterr().err


def test_leaf_values_of_a_compatible_type_are_accepted():
    args = _make_parser().parse_args(
        ["count-layouts", "4", "2", "--set", "surrogate.ridge=0",
         "--set", "optimize.iter_limit=50", "--set", "window.start=2018-01-01T00:00:00Z"]
    )
    cfg = build_config(args)
    assert cfg["surrogate"]["ridge"] == 0
    assert cfg["optimize"]["iter_limit"] == 50
    assert cfg["window"]["start"] == "2018-01-01T00:00:00Z"


def test_a_set_object_sets_only_the_keys_it_names():
    # as in a config file; replacing the group would drop its other keys
    cfg = build_config(argparse.Namespace(set=["optimize={}", 'states.priors={"mean": 1.5}']))
    expected = copy.deepcopy(DEFAULT_CONFIG)
    expected["states"]["priors"]["mean"] = 1.5
    assert cfg == expected


def test_flags_set_their_keys_after_every_set_and_an_empty_one_sets_nothing():
    args = _make_parser().parse_args(
        ["optimize", "--set", "optimize.batch=5", "--batch", "0", "--dims", "0",
         "--set", "out_dir=elsewhere", "--out-dir", "", "--states", "s.csv"]
    )
    cfg = build_config(args)
    assert cfg["optimize"]["batch"] == 0  # the flag wins over --set, and 0 is a value
    assert cfg["optimize"]["dims"] == 0
    assert cfg["out_dir"] == "elsewhere"  # "" leaves the key as it was
    assert cfg["paths"]["states"] == "s.csv"


def _config_leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _config_leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


_DEFAULT_LEAVES = dict(_config_leaves(DEFAULT_CONFIG))
# what a leaf may hold after build_config, by the type of its default
_LEAF_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
# the types of the leaves whose default is null (which may stay null)
_NULL_LEAF_TYPES = {"window.start": str, "window.end": str, "states.priors.mean": float,
                    "states.priors.rate": float, "optimize.iter_limit": int,
                    "optimize.seed_layouts": str,
                    **{f"paths.{key}": str for key in DEFAULT_CONFIG["paths"]}}


@settings(max_examples=300, deadline=None)
@given(
    key=st.one_of(st.sampled_from(sorted(_DEFAULT_LEAVES)), st.text(max_size=20)),
    value=st.one_of(
        st.text(max_size=12),
        st.sampled_from(['"abc"', "5", "5.0", "-1", "1e400", "true", "null", "[1]", "{}",
                         '{"a": 1}', "[" * 5000]),
    ),
)
def test_any_set_assignment_builds_a_typed_config_or_is_an_input_error(key, value):
    try:
        cfg = build_config(argparse.Namespace(set=[f"{key}={value}"]))
    except InputError:
        return
    for name, default in _DEFAULT_LEAVES.items():
        node = cfg
        for part in name.split("."):
            node = node[part]
        if default is None and node is None:
            continue
        kind = _NULL_LEAF_TYPES[name] if default is None else type(default)
        accepted = _LEAF_TYPES.get(kind)
        if accepted:
            assert isinstance(node, accepted), name
            assert isinstance(node, bool) == (kind is bool), name


def write_partial_day_inputs(base):
    """diversity-report flags for states of 3 days and 8 steps, with a zone map and lighting."""
    full = synth.generate_population((1, 1, 1, 1), 4, seed=0)
    grid = states_mod.StateGrid(full.occupants, full.start, full.states[:, : 3 * 96 + 8])
    states_mod.write_states(grid, base / "states.csv")
    zones = {"Z1": grid.occupants[:2], "Z2": grid.occupants[2:]}
    write_zone_map(
        Layout.from_rows([(o, f"D{o}", z) for z, occs in zones.items() for o in occs]),
        base / "zone_map.csv",
    )
    write_lighting(synth.oracle_lighting_table(zones, grid), base / "lighting.csv")
    return ["--states", str(base / "states.csv"), "--zone-map", str(base / "zone_map.csv"),
            "--lighting", str(base / "lighting.csv")]


def test_diversity_report_rejects_a_partial_trailing_day(tmp_path, capsys):
    # 3 days and 8 steps: the 8 steps must not be dropped silently
    out = tmp_path / "out"
    inputs = write_partial_day_inputs(tmp_path)
    assert main(["diversity-report", *inputs, "--out-dir", str(out)]) == 1
    message = f"{tmp_path / 'states.csv'}: 296 steps do not cover whole days"
    assert message in capsys.readouterr().err
    assert not (out / "diversity.csv").exists()


def test_inferred_window_ends_with_the_last_events_day(tmp_path):
    # an event in a day's last 15 minutes must not add a carried-forward day
    base = int(datetime(2018, 1, 1, tzinfo=UTC).timestamp())
    times = np.array([base + 8 * 3600, base + 23 * 3600 + 50 * 60], dtype=np.int64)
    events = {"O1": PlugLoadEvents("O1", times, np.array([2.0, 60.0]))}
    write_plug_load(events, tmp_path / "plug.csv")
    out = tmp_path / "out"
    assert main(["ingest", "--set", f"paths.plug_load={tmp_path / 'plug.csv'}",
                 "--out-dir", str(out)]) == 0
    grid = load_grid(out / "grid.csv")
    assert grid.n_steps == 96
    assert int(grid.start.timestamp()) == base


@pytest.mark.parametrize("settings, message", [
    (["window.start=2018-01-02T00:00:00Z"], "window.start is set, so window.end is required"),
    (["window.end=2018-01-02T00:00:00Z"], "window.end is set, so window.start is required"),
    (["window.start=bad", "window.end=bad2"], "window.start: bad timestamp 'bad': "),
    (["window.start=2018-01-01T00:00:00Z", "window.end=5"],
     "config key window.end must be str or null, got int"),
    (['window.exclude_days=[["2018-01-02T00:00:00Z"]]'],
     "window.exclude_days[0] must be [start, end], got ['2018-01-02T00:00:00Z']"),
    (['window.exclude_days=[["2018-01-02T00:00:00Z", "2018-01-03T00:00:00Z"], ["x", "y"]]'],
     "window.exclude_days[1]: bad timestamp 'x': "),
    (["window.exclude_days=5"], "config key window.exclude_days must be list, got int"),
    (["window.start=2018-01-01T00:07:00Z", "window.end=2018-01-02T00:07:00Z"],
     "window.start must be on a 15-minute mark, got '2018-01-01T00:07:00Z'"),
    (["window.start=2018-01-01T00:00:00Z", "window.end=2018-01-02T00:15:00Z"],
     "window.end must be a positive whole number of days after window.start, "
     "got '2018-01-02T00:15:00Z'"),
    (["window.start=2018-01-02T00:00:00Z", "window.end=2018-01-01T00:00:00Z"],
     "window.end must be a positive whole number of days after window.start, "
     "got '2018-01-01T00:00:00Z'"),
])
def test_window_settings_are_checked_before_the_plug_load_file(tmp_path, capsys, settings,
                                                               message):
    # the plug-load file does not exist, so a later check would name it instead
    out = tmp_path / "out"
    sets = [arg for kv in settings for arg in ("--set", kv)]
    argv = ["ingest", "--plug-load", str(tmp_path / "missing.csv"), *sets, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_event_past_year_9999_is_an_input_error_naming_the_file(tmp_path, capsys):
    # the inferred window would end on 10000-01-01, which datetime cannot hold
    plug = tmp_path / "plug.csv"
    plug.write_text(
        "occupant_id,timestamp,power_w\nO1,2018-01-01T00:00:00Z,5.0\n"
        "O1,9999-12-31T12:00:00Z,3.0\n",
        encoding="utf-8",
    )
    code = main(["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plug}: ")
    assert "window.end" in err


def test_oversized_inferred_window_is_an_input_error(tmp_path, capsys, monkeypatch):
    # a mistyped year 9000 would give a 2,550,124-day grid; resample_15min is
    # replaced, so a missing check fails without allocating anything
    def no_resample(events, window):
        raise AssertionError(f"resample_15min called for {window}")

    plug = tmp_path / "plug.csv"
    plug.write_text(
        "occupant_id,timestamp,power_w\nO1,2018-01-01T00:00:00Z,5.0\n"
        "O1,9000-01-01T12:00:00Z,3.0\n",
        encoding="utf-8",
    )
    argv = ["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(tmp_path / "out")]
    monkeypatch.setattr(ingest, "resample_15min", no_resample)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plug}: ")
    assert "2550124 days" in err and "set window.start and window.end" in err
    monkeypatch.undo()
    # an explicit window is taken as given
    window = ["window.start=2018-01-01T00:00:00Z", "window.end=2018-01-02T00:00:00Z"]
    assert main(argv + ["--set", window[0], "--set", window[1]]) == 0
    assert load_grid(tmp_path / "out" / "grid.csv").n_steps == 96


def test_bad_state_csv_exits_one_with_location(tmp_path, capsys):
    states = tmp_path / "states.csv"
    states.write_text(
        "occupant_id,timestamp,state\nO1,2018-01-01T00:00:00Z,active\n", encoding="utf-8"
    )
    code = main(["optimize", "--set", f"paths.states={states}", "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"{states}:2: state must be 1, 2, or 3" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline


def full_pipeline(tmp_path, seed="0"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    plug = make_plug_csv(tmp_path / "plug.csv", n_occupants=6, n_days=3)
    out = tmp_path / "out"
    assert main(["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(out), "--seed", seed]) == 0
    assert (
        main(
            [
                "infer-states",
                "--set", f"paths.grid={out / 'grid.csv'}",
                "--out-dir", str(out),
                "--seed", seed,
            ]
        )
        == 0
    )
    return out


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ingest_then_infer_states_recovers_generated_states(tmp_path, seed):
    # the benchmark's generator writes plug-load events from known states;
    # ingest infers the window from the events
    load_module(REPO / "bench" / "gen.py").generate(tmp_path / "in", seed, 8, 7, plug_load=True)
    out = tmp_path / "out"
    assert main(["ingest", "--plug-load", str(tmp_path / "in" / "plug_load.csv"),
                 "--out-dir", str(out)]) == 0
    assert main(["infer-states", "--grid", str(out / "grid.csv"), "--out-dir", str(out)]) == 0
    truth = csv_rows(tmp_path / "in" / "truth_states.csv")
    got = csv_rows(out / "states.csv")
    assert [r[:2] for r in got] == [r[:2] for r in truth]
    agreement = np.mean([a[2] == b[2] for a, b in zip(got, truth)])
    assert agreement >= 0.97  # the benchmark's state-agreement floor


def test_infer_states_outputs(tmp_path):
    out = full_pipeline(tmp_path)
    states_csv = read_text(out / "states.csv")
    assert states_csv.splitlines()[1] == "occupant_id,timestamp,state"
    models = json.loads(
        "\n".join(
            line for line in read_text(out / "state_models.json").splitlines()
            if not line.startswith("#")
        )
    )
    assert "occupants" in models and len(models["occupants"]) == 6


def test_unconverged_fits_are_reported_on_stderr(tmp_path, capsys):
    full_pipeline(tmp_path / "converged")
    assert "warning" not in capsys.readouterr().err
    plug = tmp_path / "converged" / "plug.csv"
    out = tmp_path / "capped"
    assert main(["ingest", "--set", f"paths.plug_load={plug}", "--out-dir", str(out)]) == 0
    assert main(["infer-states", "--set", "states.max_iter=3", "--out-dir", str(out)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning")]
    models = json.loads(read_text(out / "state_models.json"))
    expected = [
        f"warning: occupant {occ['occupant_id']}: {name}-pass fit stopped at max_iter "
        "after 3 iterations without converging"
        for occ in models["occupants"]
        for name in ("first", "second")
        if occ[name] is not None and not occ[name]["degenerate"]
    ]
    assert expected and lines == expected
    assert "warning" not in read_text(out / "states.csv")


def test_rerun_byte_identical(tmp_path):
    # identical config + seed (same input paths, same out dir) must
    # reproduce every output byte for byte
    out = full_pipeline(tmp_path)
    first = {
        name: read_text(out / name)
        for name in ("grid.csv", "states.csv", "state_models.json")
    }
    out2 = full_pipeline(tmp_path)
    for name, text in first.items():
        assert read_text(out2 / name) == text, name


def test_different_seed_changes_header(tmp_path):
    out1 = full_pipeline(tmp_path / "a", seed="0")
    out2 = full_pipeline(tmp_path / "b", seed="1")
    h1 = read_text(out1 / "states.csv").splitlines()[0]
    h2 = read_text(out2 / "states.csv").splitlines()[0]
    assert h1 != h2


# ---------------------------------------------------------------- synth demo


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    code = main(
        [
            "synth-demo",
            "--set", "synth.counts=[3,3,3,3]",
            "--set", "synth.n_days=1",
            "--set", "synth.train_layouts=8",
            "--set", "synth.holdout_layouts=2",
            "--set", "synth.random_baseline=5",
            "--set", "optimize.ga.population=16",
            "--set", "optimize.ga.elites=4",
            "--set", "optimize.ga.random_survivors=2",
            "--set", "optimize.ga.generations=10",
            "--set", "surrogate.rf.n_trees=30",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def test_synth_demo_outputs_exist(demo_dir):
    for name in [
        "states.csv",
        "heatmap.csv",
        "zone_map.csv",
        "lighting.csv",
        "model.json",
        "cluster_layout.csv",
        "cluster_trace.csv",
        "ga_layout.csv",
        "ga_trace.csv",
        "savings.csv",
    ]:
        assert (demo_dir / name).exists(), name


def test_synth_demo_savings_rows(demo_dir):
    text = read_text(demo_dir / "savings.csv")
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert body[0] == "label,oracle_energy_wh,pct_vs_random_mean"
    names = [line.split(",")[0] for line in body[1:]]
    assert names == ["random_mean", "existing", "archetype_pure", "cluster", "ga"]


def test_synth_demo_traces_monotone(demo_dir):
    for name in ["cluster_trace.csv", "ga_trace.csv"]:
        body = [
            line for line in read_text(demo_dir / name).splitlines()
            if line and not line.startswith("#") and not line.startswith("iteration")
        ]
        best = [float(line.split(",")[2]) for line in body]
        assert all(a >= b - 1e-9 for a, b in zip(best, best[1:]))


@pytest.mark.parametrize("key, value", [
    ("synth.random_baseline", 0),
    ("synth.holdout_layouts", 0),
    ("synth.train_layouts", -1),
    ("surrogate.rf.n_trees", 0),
])
def test_synth_demo_rejects_sizes_it_cannot_use(tmp_path, capsys, key, value):
    # no random mean to compare with, no holdout to score, no negative count
    out = tmp_path / "demo"
    assert main(["synth-demo", "--set", f"{key}={value}", "--out-dir", str(out)]) == 1
    assert f"error: {key} must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def office_inputs(tmp_path_factory):
    """States and a zone map of 12 occupants on 14 desks (two vacant)."""
    base = tmp_path_factory.mktemp("office")
    grid = synth.generate_population((3, 3, 3, 3), 1, seed=4)
    states_mod.write_states(grid, base / "states.csv")
    zones = synth.archetype_pure_layout(grid, 2)
    entries = [(o, f"D{o}", z) for z, occs in zones.items() for o in occs]
    entries += [("", "Z1-spare", "Z1"), ("", "Z2-spare", "Z2")]
    write_zone_map(Layout.from_rows(entries), base / "zone_map.csv")
    return ["--states", str(base / "states.csv"), "--zone-map", str(base / "zone_map.csv")]


GA_CONFIG_ERRORS = [
    (["population=1"], "optimize.ga.population must be >= 2, got 1"),
    (["elites=0"], "optimize.ga.elites must be >= 1, got 0"),
    (["random_survivors=-1"], "optimize.ga.random_survivors must be >= 0, got -1"),
    (["elites=1", "random_survivors=0"],
     "optimize.ga.elites + optimize.ga.random_survivors must be >= 2 to pair, got 1"),
    (["elites=100"], "optimize.ga.elites + optimize.ga.random_survivors (105) exceed "
                     "optimize.ga.population (100)"),
    (["mutation_prob=1.5"], "optimize.ga.mutation_prob must be in [0, 1], got 1.5"),
    (["children_per_pair=0"], "optimize.ga.children_per_pair must be >= 1, got 0"),
    (["generations=0"], "optimize.ga.generations must be >= 1, got 0"),
]


@pytest.mark.parametrize("command", [["synth-demo"], ["optimize", "--method", "ga"]])
@pytest.mark.parametrize("settings, message", GA_CONFIG_ERRORS)
def test_ga_config_errors_name_their_key(tmp_path, capsys, office_inputs, command, settings,
                                         message):
    out = tmp_path / "out"
    sets = [arg for kv in settings for arg in ("--set", f"optimize.ga.{kv}")]
    inputs = office_inputs if command[0] == "optimize" else []
    assert main([*command, *inputs, *sets, "--out-dir", str(out)]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth-demo", "optimize"])
def test_negative_seed_exits_one_and_names_it(tmp_path, capsys, office_inputs, command):
    out = tmp_path / "out"
    inputs = [*office_inputs, "--dims", "3"] if command == "optimize" else []
    assert main([command, *inputs, "--seed", "-1", "--out-dir", str(out)]) == 1
    assert "error: seed must be >= 0, got -1\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("optimize.iter_limit=0", "optimize.iter_limit must be null or >= 1, got 0"),
    ("optimize.random_baseline=-1", "optimize.random_baseline must be >= 0, got -1"),
])
def test_optimize_checks_its_config_before_reading_input(tmp_path, capsys, setting, message):
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out"
    argv = ["optimize", "--states", missing, "--zone-map", missing, "--model", missing,
            "--set", setting, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("inputs", ["missing", "real"])
def test_cluster_with_seed_layouts_exits_one_before_reading_input(tmp_path, capsys, demo_dir,
                                                                   inputs):
    # the swap search starts from random layouts only, so seed layouts would
    # be loaded, checked and then ignored
    missing = str(tmp_path / "missing.csv")
    states, zone_map, seeds = (
        (missing, missing, missing) if inputs == "missing"
        else (demo_dir / "states.csv", demo_dir / "zone_map.csv", demo_dir / "cluster_layout.csv")
    )
    out = tmp_path / "out"
    argv = ["optimize", "--method", "cluster", "--states", str(states), "--zone-map",
            str(zone_map), "--seed-layouts", str(seeds), "--out-dir", str(out)]
    assert main(argv) == 1
    message = "the cluster method takes no optimize.seed_layouts (ga only)"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cluster_batch_runs_as_each_seed_alone(tmp_path, office_inputs):
    # a batch is searched together; each run's files hold the rows its seed
    # gives alone (only the header comment, which records the seed, differs)
    argv = ["optimize", "--method", "cluster", "--dims", "3", *office_inputs]
    assert main([*argv, "--batch", "3", "--out-dir", str(tmp_path / "batch")]) == 0
    for k in range(3):
        alone = tmp_path / f"seed{k}"
        assert main([*argv, "--seed", str(k), "--out-dir", str(alone)]) == 0
        for name in ("layout", "trace"):
            together = csv_rows(tmp_path / "batch" / f"{name}_{k:03d}.csv")
            assert together == csv_rows(alone / f"{name}_000.csv")
            assert len(together) > 1
    summary = csv_rows(tmp_path / "batch" / "optimize_summary.csv")
    assert [row[0] for row in summary] == ["0", "1", "2"]


def test_synth_demo_trains_on_trajectories_alone(tmp_path):
    # with no random training layouts the swap-search trajectories still train the forest
    out = tmp_path / "demo"
    argv = ["synth-demo", "--set", "synth.counts=[2,2,2,2]", "--set", "synth.train_layouts=0",
            "--set", "synth.holdout_layouts=1", "--set", "synth.random_baseline=1",
            "--set", "optimize.ga.population=4", "--set", "optimize.ga.elites=2",
            "--set", "optimize.ga.random_survivors=0", "--set", "optimize.ga.generations=2",
            "--set", "surrogate.rf.n_trees=2", "--out-dir", str(out)]
    assert main(argv) == 0
    assert "rf_holdout_mae: " in read_text(out / "savings.csv")


@pytest.mark.parametrize("kind", ["mlr", "rf"])
def test_model_files_record_command_and_config_hash(tmp_path, demo_dir, kind):
    # like every other output; load_model ignores both keys
    demo_model = json.loads(read_text(demo_dir / "model.json"))
    demo_header = read_text(demo_dir / "states.csv").splitlines()[0]
    assert demo_model["command"] == "synth-demo"
    assert f"config={demo_model['config_hash']} " in demo_header
    grid = synth.generate_population((2, 2, 2, 2), 3, seed=4)
    zones = synth.archetype_pure_layout(grid, 4)
    states_mod.write_states(grid, tmp_path / "states.csv")
    write_zone_map(Layout.from_rows([(o, o, z) for z, occs in zones.items() for o in occs]),
                   tmp_path / "zone_map.csv")
    write_lighting(synth.oracle_lighting_table(zones, grid), tmp_path / "lighting.csv")
    out = tmp_path / "out"
    code = main(
        [
            "train-surrogate", "--kind", kind,
            "--states", str(tmp_path / "states.csv"),
            "--zone-map", str(tmp_path / "zone_map.csv"),
            "--lighting", str(tmp_path / "lighting.csv"),
            "--set", "surrogate.rf.n_trees=3",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read_text(out / "model.json"))
    metrics = json.loads(read_text(out / "metrics.json"))
    assert doc["command"] == "train-surrogate"
    assert doc["config_hash"] == metrics["config_hash"]
    model = surrogate.load_model(out / "model.json")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in doc.items() if k not in ("command", "config_hash")}))
    table = surrogate.build_features(grid, zones)
    np.testing.assert_array_equal(
        model.predict_rows(table), surrogate.load_model(bare).predict_rows(table)
    )


@pytest.mark.parametrize(
    "content, message",
    [(b'{"kind": "rf", "trees": [', "invalid JSON: Expecting value"),
     (b'{"kind": "mlr", ', "invalid JSON: Expecting property name"),
     (b'{"kind": "rf"}', "rf model lacks key 'trees'"),
     (b'{"kind": "mlr", "intercept": 1.0}', "mlr model lacks key 'coefficients'"),
     (b'{"kind": "rf", "trees": 5, "config": {}, "seed": 0, "zone_order": [],'
      b' "importance_raw": []}', "malformed rf model"),
     (b'{"kind": "rf", "trees": [{"feature": [1099511627776]}]}', "malformed rf model"),
     pytest.param(b'{"kind": "mlr", "intercept": 1' + b"0" * 400 + b"}", "malformed mlr model",
                  id="mlr intercept past the float range"),
     (b'{"kind": "svm"}', "unknown model kind 'svm'"),
     (b"[1, 2]", "a model file must hold a JSON object"),
     (b'{"kind": "\xff"}', "not UTF-8 text")],
)
def test_bad_model_file_exits_one_and_names_it(tmp_path, demo_dir, capsys, content, message):
    model = tmp_path / "model.json"
    model.write_bytes(content)
    code = main(
        [
            "simulate",
            "--set", f"paths.states={demo_dir / 'states.csv'}",
            "--set", f"paths.layout={demo_dir / 'cluster_layout.csv'}",
            "--set", f"paths.model={model}",
            "--out-dir", str(tmp_path / "sim"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"error: {model}: {message}" in err


def malformed_model(demo_dir, case: str) -> dict:
    """The demo's forest, or a linear model on its zones, broken as case says."""
    doc = json.loads(read_text(demo_dir / "model.json"))
    tree = doc["trees"][0]
    inner = next(i for i, f in enumerate(tree["feature"]) if f >= 0 and i > 0)
    leaf = tree["feature"].index(-1)
    n = 13 + len(doc["zone_order"])
    mlr = surrogate.MlrModel(0.0, np.zeros(n), np.zeros(n), np.ones(n), doc["zone_order"]).to_dict()
    if case == "no trees":
        doc["trees"] = []
    elif case == "truncated array":
        tree["threshold"].pop()
    elif case == "feature past the last column":
        tree["feature"][inner] = 7
    elif case == "feature below -1":
        tree["feature"][leaf] = -2
    elif case == "child back to the root":
        tree["left"][inner] = 0  # a cycle
    elif case == "child past the tree":
        tree["right"][inner] = 10**6
    elif case == "nan threshold":
        tree["threshold"][inner] = float("nan")
    elif case == "infinite leaf value":
        tree["value"][leaf] = float("inf")
    elif case == "short mlr coefficients":
        mlr["coefficients"].pop()
        return mlr
    elif case == "long mlr scaler":
        mlr["scaler_range"].append(1.0)
        return mlr
    return doc


def model_commands(demo_dir, model, out) -> list[list[str]]:
    """simulate and a GA optimize, each reading model."""
    inputs = ["--set", f"paths.states={demo_dir / 'states.csv'}", "--set", f"paths.model={model}"]
    return [["simulate", *inputs, "--set", f"paths.layout={demo_dir / 'cluster_layout.csv'}",
             "--out-dir", str(out / "sim")],
            ["optimize", "--method", "ga", *inputs,
             "--set", f"paths.zone_map={demo_dir / 'zone_map.csv'}", "--out-dir", str(out / "ga")]]


TREE_CHILD = "malformed rf model: tree 0: an interior node's child is not after it and inside the tree"


@pytest.mark.parametrize(
    "case, message",
    [("no trees", "malformed rf model: a forest needs at least one tree"),
     ("truncated array", "malformed rf model: tree 0: its arrays are empty or of unequal lengths"),
     ("feature past the last column", "malformed rf model: tree 0: a feature lies outside [-1, 7)"),
     ("feature below -1", "malformed rf model: tree 0: a feature lies outside [-1, 7)"),
     ("child past the tree", TREE_CHILD),
     ("nan threshold", "malformed rf model: tree 0: a threshold or leaf value is not finite"),
     ("infinite leaf value", "malformed rf model: tree 0: a threshold or leaf value is not finite"),
     ("short mlr coefficients",
      "malformed mlr model: coefficients and scaler arrays must hold 13 + n_zones = 17 values"),
     ("long mlr scaler",
      "malformed mlr model: coefficients and scaler arrays must hold 13 + n_zones = 17 values")],
)
def test_malformed_model_exits_one_and_names_it(tmp_path, demo_dir, capsys, case, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(malformed_model(demo_dir, case)))
    for argv in model_commands(demo_dir, model, tmp_path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"error: {model}: {message}" in err


def test_a_cyclic_model_exits_one_in_its_own_process_within_a_time_limit(tmp_path, demo_dir):
    # a walk that followed the cycle would never return, so the commands run
    # in processes of their own, where a timeout fails the test instead
    model = tmp_path / "model.json"
    model.write_text(json.dumps(malformed_model(demo_dir, "child back to the root")))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for argv in model_commands(demo_dir, model, tmp_path):
        done = subprocess.run([sys.executable, "-m", "zoneplan.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert f"error: {model}: {TREE_CHILD}" in done.stderr


def test_bad_config_file_exits_one_and_names_it(tmp_path, capsys):
    config = tmp_path / "c.json"
    for content, message in [(b'{"seed": ', "invalid JSON"), (b'{"seed": "\xff"}', "not UTF-8")]:
        config.write_bytes(content)
        assert main(["count-layouts", "--config", str(config), "4", "2"]) == 1
        assert f"error: {config}: {message}" in capsys.readouterr().err


def body_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


@pytest.mark.parametrize("kind", ["mlr", "rf"])
def test_train_surrogate_cv_folds_writes_cv_metrics(tmp_path, kind):
    # three days, so the whole-day time split has both sides
    grid = synth.generate_population((2, 2, 2, 2), 3, seed=4)
    zones = synth.archetype_pure_layout(grid, 4)
    states_mod.write_states(grid, tmp_path / "states.csv")
    write_zone_map(Layout.from_rows([(o, o, z) for z, occs in zones.items() for o in occs]),
                   tmp_path / "zone_map.csv")
    write_lighting(synth.oracle_lighting_table(zones, grid), tmp_path / "lighting.csv")
    out = tmp_path / "out"
    code = main(
        [
            "train-surrogate", "--kind", kind,
            "--states", str(tmp_path / "states.csv"),
            "--zone-map", str(tmp_path / "zone_map.csv"),
            "--lighting", str(tmp_path / "lighting.csv"),
            "--set", "surrogate.cv_folds=3",
            "--set", "surrogate.rf.n_trees=3",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read_text(out / "metrics.json"))
    assert set(doc["cv_metrics"]) == set(doc["test_metrics"])
    assert all(np.isfinite(v) for v in doc["cv_metrics"].values())


def test_ids_with_a_comma_and_a_quote_survive_optimize_then_simulate(tmp_path):
    grid = synth.generate_population((2, 2, 2, 2), 3, seed=4)
    grid.occupants[:2] = ["A,1", 'B"2']
    zones = {f"{z}, east": occs for z, occs in synth.archetype_pure_layout(grid, 4).items()}
    entries = [(o, f'desk "{o}"', z) for z, occs in zones.items() for o in occs]
    states_mod.write_states(grid, tmp_path / "states.csv")
    write_zone_map(Layout.from_rows(entries), tmp_path / "zone_map.csv")
    write_lighting(synth.oracle_lighting_table(zones, grid), tmp_path / "lighting.csv")
    inputs = ["--states", str(tmp_path / "states.csv"),
              "--zone-map", str(tmp_path / "zone_map.csv")]
    assert main(["train-surrogate", "--kind", "mlr", *inputs,
                 "--lighting", str(tmp_path / "lighting.csv"),
                 "--out-dir", str(tmp_path / "train")]) == 0
    assert main(["optimize", "--method", "cluster", "--dims", "3", *inputs,
                 "--out-dir", str(tmp_path / "cluster")]) == 0
    layout = tmp_path / "cluster" / "layout_000.csv"
    assert sorted(load_layout(layout).occupants()) == sorted(grid.occupants)
    assert main(["simulate", *inputs, "--model", str(tmp_path / "train" / "model.json"),
                 "--layout", str(layout), "--out-dir", str(tmp_path / "sim")]) == 0
    assert main(["diversity-report", *inputs, "--lighting", str(tmp_path / "lighting.csv"),
                 "--out-dir", str(tmp_path / "div")]) == 0
    # every CSV written reads back as rows as wide as its header
    ragged = []
    for path in sorted(tmp_path.rglob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
        if any(len(row) != len(header) for row in rows):
            ragged.append(path.name)
    assert ragged == []


def test_simulate_round_trip(tmp_path, demo_dir):
    # simulate the demo's cluster layout with the demo's trained model,
    # with the existing zone map as the percent-change baseline
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--set", f"paths.states={demo_dir / 'states.csv'}",
            "--set", f"paths.layout={demo_dir / 'cluster_layout.csv'}",
            "--set", f"paths.zone_map={demo_dir / 'zone_map.csv'}",
            "--set", f"paths.model={demo_dir / 'model.json'}",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    report = read_text(out / "energy.csv")
    assert body_lines(report)[0] == "zone_id,period_start,energy_pred_wh"
    assert "# baseline_total_wh:" in report


def test_diversity_report_regression_schema(tmp_path, demo_dir):
    out = tmp_path / "div"
    code = main(
        [
            "diversity-report",
            "--set", f"paths.states={demo_dir / 'states.csv'}",
            "--set", f"paths.zone_map={demo_dir / 'zone_map.csv'}",
            "--set", f"paths.lighting={demo_dir / 'lighting.csv'}",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    reg = body_lines(read_text(out / "regression.csv"))
    assert reg[0] == "zone_id,slope,std_err,t,p,r2,n"
    div = body_lines(read_text(out / "diversity.csv"))
    assert div[0] == "zone_id,diversity"
    assert div[-1].startswith("total,")


def _with_ghost(layout):
    """layout with its first occupant renamed to one the states lack."""
    first = layout.occupants()[0]
    return Layout(
        layout.zones, {d: "GHOST" if o == first else o for d, o in layout.assignment.items()}
    )


@pytest.mark.parametrize("command", ["diversity-report", "train-surrogate", "optimize",
                                     "simulate --layout", "simulate --zone-map"])
def test_a_seated_occupant_without_states_names_both_files(tmp_path, demo_dir, capsys, command):
    states = demo_dir / "states.csv"
    ghost_map, ghost_layout = tmp_path / "zone_map.csv", tmp_path / "layout.csv"
    write_zone_map(_with_ghost(load_zone_map(demo_dir / "zone_map.csv")), ghost_map)
    write_layout(_with_ghost(load_layout(demo_dir / "cluster_layout.csv")), ghost_layout)
    lighting = ["--lighting", str(demo_dir / "lighting.csv")]
    model = ["--model", str(demo_dir / "model.json")]
    argv, desk_table = {
        "diversity-report": (["diversity-report", "--zone-map", str(ghost_map), *lighting],
                             ghost_map),
        "train-surrogate": (["train-surrogate", "--zone-map", str(ghost_map), *lighting],
                            ghost_map),
        "optimize": (["optimize", "--method", "cluster", "--zone-map", str(ghost_map)],
                     ghost_map),
        "simulate --layout": (["simulate", *model, "--layout", str(ghost_layout)], ghost_layout),
        "simulate --zone-map": (["simulate", *model,
                                 "--layout", str(demo_dir / "cluster_layout.csv"),
                                 "--zone-map", str(ghost_map)], ghost_map),
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--states", str(states), "--out-dir", str(out)]) == 1
    message = f"error: {desk_table}: occupants without states in {states}: ['GHOST']\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def _with_z9(layout):
    """layout with zone Z4 renamed to Z9, a zone the demo's model lacks."""
    return ingest.Layout({"Z9" if z == "Z4" else z: d for z, d in layout.zones.items()},
                         layout.assignment)


@pytest.mark.parametrize("command", ["optimize --method ga", "optimize --method cluster",
                                     "simulate --layout", "simulate --zone-map"])
def test_a_zone_the_model_lacks_names_the_desk_table_and_the_model(tmp_path, demo_dir, capsys,
                                                                    command):
    model = demo_dir / "model.json"
    z9_map, z9_layout = tmp_path / "zone_map.csv", tmp_path / "layout.csv"
    write_zone_map(_with_z9(load_zone_map(demo_dir / "zone_map.csv")), z9_map)
    write_layout(_with_z9(load_layout(demo_dir / "cluster_layout.csv")), z9_layout)
    argv, desk_table = {
        "optimize --method ga": (["optimize", "--method", "ga", "--zone-map", str(z9_map)],
                                 z9_map),
        "optimize --method cluster": (["optimize", "--method", "cluster", "--dims", "3",
                                       "--zone-map", str(z9_map)], z9_map),
        "simulate --layout": (["simulate", "--layout", str(z9_layout)], z9_layout),
        "simulate --zone-map": (["simulate", "--layout", str(demo_dir / "cluster_layout.csv"),
                                 "--zone-map", str(z9_map)], z9_map),
    }[command]
    out = tmp_path / "out"
    states = ["--states", str(demo_dir / "states.csv")]
    assert main([*argv, *states, "--model", str(model), "--out-dir", str(out)]) == 1
    zones = "['Z1', 'Z2', 'Z3', 'Z4']"
    message = f"{desk_table}: zone ids ['Z9'] are not zones of the model {model}, whose zones are"
    assert capsys.readouterr().err == f"error: {message} {zones}\n"
    assert not out.exists()


@pytest.mark.parametrize("change", ["occupants", "zones"])
def test_a_seed_layout_of_another_structure_names_it_and_the_zone_map(tmp_path, demo_dir,
                                                                      capsys, change):
    zone_map = demo_dir / "zone_map.csv"
    seeds = tmp_path / "seeds"
    layout = load_layout(demo_dir / "cluster_layout.csv")
    write_layout(layout, seeds / "layout_000.csv")
    changed = _with_ghost(layout) if change == "occupants" else _with_z9(layout)
    write_layout(changed, seeds / "layout_001.csv")
    out = tmp_path / "out"
    argv = ["optimize", "--method", "ga", "--states", str(demo_dir / "states.csv"),
            "--zone-map", str(zone_map), "--model", str(demo_dir / "model.json"),
            "--seed-layouts", str(seeds), "--out-dir", str(out)]
    assert main(argv) == 1
    message = f"seed layout differs from the zone map {zone_map} in zones or occupants"
    assert capsys.readouterr().err == f"error: {seeds / 'layout_001.csv'}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("surrogate.kind=svm", "surrogate.kind must be mlr or rf, got 'svm'"),
    ("surrogate.split_fraction=1", "surrogate.split_fraction must be in (0, 1), got 1"),
    ("surrogate.rf.n_trees=0", "surrogate.rf.n_trees must be >= 1, got 0"),
    # a depth below 1 grows every tree as a single leaf
    ("surrogate.rf.max_depth=-1", "surrogate.rf.max_depth must be >= 1, got -1"),
    ("surrogate.cv_folds=1", "surrogate.cv_folds must be 0 (off) or >= 2, got 1"),
    ("surrogate.cv_folds=-1", "surrogate.cv_folds must be 0 (off) or >= 2, got -1"),
])
def test_train_surrogate_checks_its_config_before_reading_input(tmp_path, capsys, setting,
                                                                message):
    missing = str(tmp_path / "missing.csv")
    argv = ["train-surrogate", "--states", missing, "--zone-map", missing, "--lighting", missing,
            "--set", setting, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_surrogate_folds_above_the_training_rows_fail_before_any_write(tmp_path, capsys):
    grid = synth.generate_population((2, 2, 2, 2), 3, seed=4)
    zones = synth.archetype_pure_layout(grid, 4)
    states_mod.write_states(grid, tmp_path / "states.csv")
    write_zone_map(Layout.from_groups(zones), tmp_path / "zone_map.csv")
    write_lighting(synth.oracle_lighting_table(zones, grid), tmp_path / "lighting.csv")
    out = tmp_path / "out"
    argv = ["train-surrogate", "--states", str(tmp_path / "states.csv"),
            "--zone-map", str(tmp_path / "zone_map.csv"),
            "--lighting", str(tmp_path / "lighting.csv"),
            "--set", "surrogate.cv_folds=5000", "--out-dir", str(out)]
    assert main(argv) == 1
    # two of the three days train: 2 x 96 steps x 4 zones
    message = "surrogate.cv_folds=5000 is more than the 768 training rows of "
    message += str(tmp_path / "states.csv")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_surrogate_split_of_one_day_names_the_fraction_and_the_days(tmp_path, demo_dir,
                                                                          capsys):
    states = demo_dir / "states.csv"
    argv = ["train-surrogate", "--states", str(states),
            "--zone-map", str(demo_dir / "zone_map.csv"),
            "--lighting", str(demo_dir / "lighting.csv"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    message = f"leaves a side empty: {states} has 1 day(s) of states"
    assert capsys.readouterr().err == f"error: surrogate.split_fraction=0.8 {message}\n"


@pytest.mark.parametrize("command, out_dir", [("synth-demo", "afile"), ("ingest", "afile"),
                                              ("optimize", "afile/sub")])
def test_out_dir_blocked_by_a_file_is_an_input_error(tmp_path, office_inputs, capsys, command,
                                                     out_dir):
    # the output directory, or a directory above it, is a file
    (tmp_path / "afile").write_text("", encoding="utf-8")
    argv = {
        "synth-demo": ["synth-demo", "--set", "synth.counts=[3,3,3,3]", "--set", "synth.n_days=1"],
        "ingest": ["ingest", "--plug-load", str(make_plug_csv(tmp_path / "plug.csv"))],
        "optimize": ["optimize", *office_inputs, "--dims", "3"],
    }[command]
    assert main([*argv, "--out-dir", str(tmp_path / out_dir)]) == 1
    message = f"{tmp_path / out_dir}: cannot make this output directory, a file is in the way"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["ingest", "infer-states", "diversity-report",
                                     "train-surrogate", "optimize", "simulate"])
def test_a_failing_command_leaves_no_output_directory(tmp_path, demo_dir, office_inputs,
                                                      capsys, command):
    # the output directory is made at the first write, which none of these reaches
    demo = {name: str(demo_dir / f"{name}.csv") for name in ("states", "zone_map", "lighting")}

    def simulate_with_a_bad_model():
        (tmp_path / "model.json").write_text("{}", encoding="utf-8")
        return ["simulate", "--states", demo["states"], "--model", str(tmp_path / "model.json"),
                "--layout", str(demo_dir / "cluster_layout.csv")]

    argv = {
        "ingest": lambda: ["ingest", "--plug-load", str(make_plug_csv(tmp_path / "plug.csv")),
                           "--set", 'window.exclude_days=[["2030-01-01T00:00:00Z", '
                                    '"2030-01-02T00:00:00Z"]]'],
        "infer-states": lambda: ["infer-states"],  # no grid, and none in the output directory
        "diversity-report": lambda: ["diversity-report", *write_partial_day_inputs(tmp_path)],
        "train-surrogate": lambda: ["train-surrogate", "--states", demo["states"],
                                    "--zone-map", demo["zone_map"], "--lighting", demo["lighting"]],
        "optimize": lambda: ["optimize", *office_inputs, "--set", "optimize.method=anneal"],
        "simulate": simulate_with_a_bad_model,
    }[command]()
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------- config rules


@pytest.mark.parametrize("setting, message", [
    ("states.k_max=1", "states.k_max must be >= 2, got 1"),
    ("states.max_iter=0", "states.max_iter must be >= 1, got 0"),
    ("states.weight_floor=0", "states.weight_floor must be in (0, 1], got 0"),
    ("states.priors.concentration=0", "states.priors.concentration must be > 0, got 0"),
    ("states.priors.mean_scale=0", "states.priors.mean_scale must be > 0, got 0"),
    ("states.priors.shape=-1", "states.priors.shape must be > 0, got -1"),
    ("states.priors.rate=0", "states.priors.rate must be null or > 0, got 0"),
    ("optimize.dims=-1", "optimize.dims must be >= 0, got -1"),
    ("oracle.standby_power_w=-1", "oracle.standby_power_w must be >= 0, got -1"),
    ("oracle.hold_weekday_min=0", "oracle.hold_weekday_min must be >= 1, got 0"),
    ("oracle.hold_weekend_min=0", "oracle.hold_weekend_min must be >= 1, got 0"),
    ("oracle.motion_state=7", "oracle.motion_state must be 1, 2 or 3, got 7"),
    ("oracle.lit_power_w=20", "oracle.lit_power_w must be > oracle.standby_power_w (20.0), "
                              "got 20"),
    ("synth.counts=[3,3,3]", "synth.counts must be 4 counts >= 0 whose sum is a positive "
                             "multiple of 4, got [3, 3, 3]"),
    ("synth.n_days=0", "synth.n_days must be >= 1, got 0"),
    ("synth.p_high=1.5", "synth.p_high must be in [0, 1], got 1.5"),
    ("synth.jitter_minutes=-1", "synth.jitter_minutes must be >= 0, got -1"),
    ("synth.start=2018-01-01T00:00:00+01:00",
     "synth.start must be a timestamp at 00:00 UTC, got '2018-01-01T00:00:00+01:00'"),
    ("optimize.batch=0", "optimize.batch must be >= 1, got 0"),
    # JSON's NaN and Infinity parse as floats, which every float key's type takes
    ("surrogate.ridge=NaN", "config key surrogate.ridge must be a finite number, got nan"),
    ("oracle.lit_power_w=Infinity",
     "config key oracle.lit_power_w must be a finite number, got inf"),
    ("states.idle_threshold_w=-Infinity",
     "config key states.idle_threshold_w must be a finite number, got -inf"),
])
def test_every_command_checks_every_config_rule_before_reading_input(tmp_path, capsys, setting,
                                                                     message):
    # simulate reads none of these keys, and its input files do not exist
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out"
    argv = ["simulate", "--states", missing, "--model", missing, "--layout", missing,
            "--set", setting, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_config_file_with_nan_names_the_file_and_the_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"surrogate": {"ridge": NaN}}', encoding="utf-8")
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out"
    argv = ["simulate", "--states", missing, "--model", missing, "--layout", missing,
            "--config", str(config), "--out-dir", str(out)]
    assert main(argv) == 1
    message = f"{config}: config key surrogate.ridge must be a finite number, got nan"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("synth.counts=[3,3,3,2]", "synth.counts must be 4 counts >= 0 whose sum is a positive "
                               "multiple of 4, got [3, 3, 3, 2]"),
    # a 05:00 start would shift every archetype routine off its clock hours
    ("synth.start=2018-01-01T05:00:00Z",
     "synth.start must be a timestamp at 00:00 UTC, got '2018-01-01T05:00:00Z'"),
])
def test_synth_demo_rejects_a_population_before_writing_it(tmp_path, capsys, setting, message):
    # 15 occupants cannot fill 4 equal zones, but states.csv and heatmap.csv
    # were written before that showed
    out = tmp_path / "out"
    assert main(["synth-demo", "--set", setting, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_weight_floor_no_component_reaches_names_the_key_and_the_occupant(tmp_path, capsys):
    # two power levels, so no first-pass component holds 90% of the weight
    grid = tmp_path / "in"
    assert main(["ingest", "--plug-load", str(make_plug_csv(tmp_path / "plug.csv")),
                 "--out-dir", str(grid)]) == 0
    out = tmp_path / "out"
    assert main(["infer-states", "--grid", str(grid / "grid.csv"),
                 "--set", "states.weight_floor=0.9", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: states.weight_floor: no component of occupant O1's "
                          "first-pass fit has weight >= 0.9, the largest is 0.")
    assert not out.exists()

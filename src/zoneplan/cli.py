"""Command-line pipeline: ingest, state inference, reports, surrogates,
layout optimization, simulation, and the self-contained synthetic demo.

One JSON config file (all fields optional, defaults below) plus flag
overrides drives every command.  Each output file starts with a comment
embedding the command, the effective-config hash, and the seed, and no
output contains timestamps of the run itself, so identical config+seed
reruns are byte-identical.

Exit codes: 0 success, 1 input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import traceback
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import diversity as div
from . import ingest, optimize, reduce, states as states_mod, surrogate, synth

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "out",
    "paths": {
        "plug_load": None,
        "grid": None,
        "zone_map": None,
        "lighting": None,
        "states": None,
        "model": None,
        "layout": None,
    },
    "window": {"start": None, "end": None, "exclude_days": []},
    # the states seed is the top-level seed
    "states": {k: v for k, v in asdict(states_mod.StateConfig()).items() if k != "seed"},
    "surrogate": {
        "kind": "rf",
        "split_fraction": 0.8,
        "cv_folds": 0,
        "ridge": 1e-8,
        "rf": asdict(surrogate.RfConfig()),
    },
    "optimize": {
        "method": "cluster",
        "dims": 30,
        "iter_limit": None,
        "batch": 1,
        "seed_layouts": None,
        "random_baseline": 20,
        "ga": asdict(optimize.GaConfig()),
    },
    "oracle": asdict(synth.LightingOracleConfig()),
    "synth": {
        "counts": [9, 9, 9, 9],
        "n_days": 1,
        "p_high": 0.8,
        "jitter_minutes": 0.0,
        "start": "2018-01-01T00:00:00Z",
        "train_layouts": 24,
        "holdout_layouts": 6,
        "random_baseline": 20,
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        raise ingest.InputError(message)


def _deep_update(base: dict, override: dict) -> dict:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


# a leaf's type is its default's or, where the default is null, the type
# declared here by its dotted key (the leaf then also takes null); then the
# values each type accepts, a bool never being taken for a number
_LEAF_TYPES = {
    **{f"paths.{key}": str for key in DEFAULT_CONFIG["paths"]},
    "window.start": str,
    "window.end": str,
    "states.priors.mean": float,
    "states.priors.rate": float,
    "optimize.iter_limit": int,
    "optimize.seed_layouts": str,
    bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,),
}


def _check_keys(user: dict, default: dict, prefix: str = "") -> None:
    """Reject keys the default config lacks and leaves of the wrong type,
    descending where the default is a dict."""
    for key, value in user.items():
        name = prefix + key
        if key not in default:
            raise ingest.InputError(f"unknown config key {name}")
        if isinstance(default[key], dict):
            if not isinstance(value, dict):
                raise ingest.InputError(f"config key {name} must be a JSON object")
            _check_keys(value, default[key], name + ".")
            continue
        null = default[key] is None
        if null and value is None:
            continue
        kind = _LEAF_TYPES[name] if null else type(default[key])
        if not isinstance(value, _LEAF_TYPES[kind]) or isinstance(value, bool) != (kind is bool):
            raise ingest.InputError(
                f"config key {name} must be {kind.__name__}{' or null' if null else ''}, "
                f"got {type(value).__name__}"
            )


def _set_leaf(cfg: dict, key: str, value) -> None:
    """Set the config leaf at a dotted key; an unknown key or a value of the
    wrong type is an input error naming the key.  An object at a group's key
    sets the keys it names, as a config file does."""
    *groups, leaf = key.split(".")
    node, default = cfg, DEFAULT_CONFIG
    for part in groups:
        if not isinstance(default.get(part), dict):
            raise ingest.InputError(f"unknown config key {key}")
        node, default = node[part], default[part]
    _check_keys({leaf: value}, default, key[: len(key) - len(leaf)])
    _deep_update(node, {leaf: value})


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ingest.InputError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ingest.InputError(f"--set {key}: value nested too deeply") from None
    _set_leaf(cfg, key, value)


# each flag is shorthand for the config key named by its dest
_FLAGS = {
    "--seed": dict(dest="seed", type=int, help="master seed"),
    "--out-dir": dict(dest="out_dir", help="output directory"),
    "--plug-load": dict(dest="paths.plug_load", help="plug-load events CSV"),
    "--grid": dict(dest="paths.grid", help="resampled grid CSV"),
    "--states": dict(dest="paths.states", help="states CSV"),
    "--zone-map": dict(dest="paths.zone_map", help="zone map CSV"),
    "--lighting": dict(dest="paths.lighting", help="hourly lighting CSV"),
    "--model": dict(dest="paths.model", help="trained surrogate JSON (required for optimize's ga)"),
    "--layout": dict(dest="paths.layout", help="layout CSV to score"),
    "--kind": dict(dest="surrogate.kind", choices=["mlr", "rf"], help="surrogate model type"),
    "--method": dict(dest="optimize.method", choices=["cluster", "ga"]),
    "--dims": dict(dest="optimize.dims", type=int, help="SVD dimensions for the cluster method"),
    "--seed-layouts": dict(dest="optimize.seed_layouts",
                           help="layout CSV or directory used to seed the GA population"),
    "--batch": dict(dest="optimize.batch", type=int, help="number of seeded runs"),
}


def build_config(args: argparse.Namespace) -> dict:
    """Defaults, then each --config file, then each --set, then the flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for value in getattr(args, "config", None) or []:
        path = Path(value)
        if not path.exists():
            raise ingest.InputError(f"config file not found: {path}")
        user = ingest._read_json(path)
        if not isinstance(user, dict):
            raise ingest.InputError(f"{path}: config must be a JSON object")
        try:
            _check_keys(user, DEFAULT_CONFIG)
        except ingest.InputError as exc:
            raise ingest.InputError(f"{path}: {exc}") from None
        _deep_update(cfg, user)
    for assignment in getattr(args, "set", None) or []:
        _apply_set(cfg, assignment)
    for flag in _FLAGS.values():
        value = getattr(args, flag["dest"], None)
        if value is not None and value != "":  # an empty string leaves the key alone
            _set_leaf(cfg, flag["dest"], value)
    return cfg


def _at_least(least) -> tuple:
    return f">= {least}", lambda value: value >= least


def _above(bound) -> tuple:
    return f"> {bound}", lambda value: value > bound


_N_ZONES = len(synth.DEFAULT_ARCHETYPES)  # synth-demo seats one archetype per zone


def _archetype_counts(counts: list) -> bool:
    whole = all(type(c) is int and c >= 0 for c in counts)
    return len(counts) == _N_ZONES and whole and sum(counts) > 0 and sum(counts) % _N_ZONES == 0


def _midnight_utc(value: str) -> bool:
    return _timestamp(value, "synth.start").timestamp() % ingest.DAY_SECONDS == 0


# every config value rule that needs no input file: dotted key -> (the values
# allowed, as an error names them, and a test of the value); run() applies
# them before any command, whatever the command
_RULES = {
    "seed": _at_least(0),  # numpy's generators take no negative seed
    "states.k_max": _at_least(2),
    "states.weight_floor": ("in (0, 1]", lambda v: 0 < v <= 1),
    "states.max_iter": _at_least(1),
    "states.priors.concentration": _above(0),
    "states.priors.mean_scale": _above(0),
    "states.priors.shape": _above(0),
    "states.priors.rate": ("null or > 0", lambda v: v is None or v > 0),
    "surrogate.kind": ("mlr or rf", lambda v: v in ("mlr", "rf")),
    "surrogate.split_fraction": ("in (0, 1)", lambda v: 0 < v < 1),
    "surrogate.cv_folds": ("0 (off) or >= 2", lambda v: v == 0 or v >= 2),
    "surrogate.rf.n_trees": _at_least(1),
    "optimize.method": ("cluster or ga", lambda v: v in ("cluster", "ga")),
    "optimize.dims": _at_least(0),
    "optimize.iter_limit": ("null or >= 1", lambda v: v is None or v >= 1),
    "optimize.batch": _at_least(1),
    "optimize.random_baseline": _at_least(0),
    "oracle.standby_power_w": _at_least(0),
    "oracle.hold_weekday_min": _at_least(1),
    "oracle.hold_weekend_min": _at_least(1),
    "oracle.motion_state": ("1, 2 or 3", lambda v: v in (1, 2, 3)),
    "synth.counts": (f"{_N_ZONES} counts >= 0 whose sum is a positive multiple of {_N_ZONES}",
                     _archetype_counts),
    "synth.n_days": _at_least(1),
    "synth.p_high": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "synth.jitter_minutes": _at_least(0),
    "synth.start": ("a timestamp at 00:00 UTC", _midnight_utc),
    "synth.train_layouts": _at_least(0),
    "synth.holdout_layouts": _at_least(1),
    "synth.random_baseline": _at_least(1),
}


def _check_config(cfg: dict) -> None:
    """Apply _RULES, then the rules that span keys: the GA's, the oracle's
    power order and the window's."""
    for key, (allowed, ok) in _RULES.items():
        value = cfg
        for part in key.split("."):
            value = value[part]
        if not ok(value):
            raise ingest.InputError(f"{key} must be {allowed}, got {value!r}")
    optimize.GaConfig(**cfg["optimize"]["ga"]).validate(prefix="optimize.ga.")
    lit, standby = cfg["oracle"]["lit_power_w"], cfg["oracle"]["standby_power_w"]
    if not lit > standby:
        raise ingest.InputError(
            f"oracle.lit_power_w must be > oracle.standby_power_w ({standby!r}), got {lit!r}"
        )
    _window_config(cfg)


def config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out_dir"}  # destination is not semantics
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _header(cfg: dict, command: str) -> str:
    return f"zoneplan {command} config={config_hash(cfg)} seed={cfg['seed']}"


def _provenance(cfg: dict, command: str) -> dict:
    """The command and config hash that every JSON output records."""
    return {"command": command, "config_hash": config_hash(cfg)}


def _require_path(cfg: dict, key: str, fallback: Path | None = None) -> Path:
    value = cfg["paths"].get(key)
    if value is None and fallback is not None and fallback.exists():
        return fallback
    if value is None:
        raise ingest.InputError(f"config paths.{key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ingest.InputError(f"paths.{key}: file not found: {path}")
    return path


def _state_config(cfg: dict) -> states_mod.StateConfig:
    group = dict(cfg["states"])
    priors = states_mod.VbGmmPriors(**group.pop("priors"))
    return states_mod.StateConfig(**group, priors=priors, seed=cfg["seed"])


# about ten years; a longer inferred window comes from a mistyped timestamp
MAX_INFERRED_DAYS = 3660


def _timestamp(value, key: str) -> datetime:
    """The timestamp a config value holds; a bad one is an input error naming key."""
    if not isinstance(value, str):
        raise ingest.InputError(f"{key} must be a timestamp string, got {value!r}")
    try:
        return ingest.parse_timestamp(value)
    except ingest.InputError as exc:
        raise ingest.InputError(f"{key}: {exc}") from None


def _window_config(cfg: dict):
    """The window.* settings, checked before any input is read: the configured
    (start, end) or None, and the excluded day ranges."""
    w = cfg["window"]
    if bool(w["start"]) != bool(w["end"]):
        given, missing = ("start", "end") if w["start"] else ("end", "start")
        raise ingest.InputError(f"window.{given} is set, so window.{missing} is required")
    window = None
    if w["start"]:
        window = (_timestamp(w["start"], "window.start"), _timestamp(w["end"], "window.end"))
        for key, t in zip(("start", "end"), window):
            if t.timestamp() % ingest.STEP_SECONDS:
                raise ingest.InputError(f"window.{key} must be on a 15-minute mark, got {w[key]!r}")
        span = (window[1] - window[0]).total_seconds()
        if span <= 0 or span % ingest.DAY_SECONDS:
            raise ingest.InputError(
                f"window.end must be a positive whole number of days after window.start, "
                f"got {w['end']!r}"
            )
    ranges = []
    for i, pair in enumerate(w["exclude_days"]):
        key = f"window.exclude_days[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ingest.InputError(f"{key} must be [start, end], got {pair!r}")
        ranges.append((_timestamp(pair[0], key), _timestamp(pair[1], key)))
    return window, ranges


def _inferred_window(events, path: Path) -> tuple[datetime, datetime]:
    """The whole days spanned by the events in path."""
    lo = min(int(ev.times[0]) for ev in events.values())
    hi = max(int(ev.times[-1]) for ev in events.values())
    day = ingest.DAY_SECONDS
    step = ingest.STEP_SECONDS
    step_end = (hi // step + 1) * step  # end of the step holding the last event
    start = (lo // day) * day
    end = ((step_end + day - 1) // day) * day
    if end - start > MAX_INFERRED_DAYS * day:
        raise ingest.InputError(
            f"{path}: the events span {(end - start) // day} days, up to "
            f"{ingest.format_timestamp(hi)}; over {MAX_INFERRED_DAYS} days, set window.start "
            "and window.end"
        )
    try:
        return (
            datetime.fromtimestamp(start, tz=timezone.utc),
            datetime.fromtimestamp(end, tz=timezone.utc),
        )
    except (ValueError, OverflowError, OSError):
        raise ingest.InputError(
            f"{path}: the events end on {ingest.format_timestamp(hi)}, so the window "
            "would end after 9999-12-31; set window.end"
        ) from None


def cmd_ingest(cfg: dict) -> int:
    window, ranges = _window_config(cfg)
    plug_load = _require_path(cfg, "plug_load")
    events = ingest.load_plug_load(plug_load)
    grid = ingest.resample_15min(events, window or _inferred_window(events, plug_load))
    if ranges:
        grid = ingest.exclude_days(grid, ranges, "window.exclude_days")
    out = Path(cfg["out_dir"])
    ingest.write_grid(grid, out / "grid.csv", _header(cfg, "ingest"))
    print(f"wrote {out / 'grid.csv'} ({len(grid.occupants)} occupants, {grid.n_days} days)")
    return 0


def cmd_infer_states(cfg: dict) -> int:
    grid_path = _require_path(cfg, "grid", fallback=Path(cfg["out_dir"]) / "grid.csv")
    grid = ingest.load_grid(grid_path)
    state_cfg = _state_config(cfg)
    try:
        state_grid, fits = states_mod.infer_states_detailed(grid, state_cfg)
    except states_mod.WeightFloorError as exc:
        raise ingest.InputError(f"states.weight_floor: {exc}") from None
    for fit in fits:
        for pass_name, model in (("first", fit.first), ("second", fit.second)):
            if model is not None and not states_mod.converged(model, state_cfg.tol):
                print(
                    f"warning: occupant {fit.occupant_id}: {pass_name}-pass fit stopped at "
                    f"max_iter after {len(model.elbo_trace)} iterations without converging",
                    file=sys.stderr,
                )
    out = Path(cfg["out_dir"])
    states_mod.write_states(state_grid, out / "states.csv", _header(cfg, "infer-states"))
    states_mod.write_models(
        fits,
        state_cfg,
        out / "state_models.json",
        extra=_provenance(cfg, "infer-states"),
    )
    print(f"wrote {out / 'states.csv'} and {out / 'state_models.json'}")
    return 0


def _load_states(cfg: dict) -> tuple[Path, states_mod.StateGrid]:
    path = _require_path(cfg, "states", fallback=Path(cfg["out_dir"]) / "states.csv")
    return path, states_mod.load_states(path)


def _load_desk_table(
    cfg: dict, key: str, states_path: Path, state_grid: states_mod.StateGrid
) -> ingest.Layout:
    """The zone map or layout file at paths.<key>; each seated occupant needs states."""
    path = _require_path(cfg, key)
    layout = optimize.load_layout(path) if key == "layout" else ingest.load_zone_map(path)
    missing = sorted(set(layout.assignment.values()).difference(state_grid.occupants))
    if missing:
        raise ingest.InputError(f"{path}: occupants without states in {states_path}: {missing}")
    return layout


def cmd_diversity_report(cfg: dict) -> int:
    states_path, state_grid = _load_states(cfg)
    layout = _load_desk_table(cfg, "zone_map", states_path, state_grid)
    lighting = ingest.load_lighting(_require_path(cfg, "lighting"))
    header = _header(cfg, "diversity-report")
    out = Path(cfg["out_dir"])
    zones = layout.by_zone()

    report = div.layout_diversity(zones, state_grid.vectors())
    try:
        zone_order, daily_diversity = div.daily_zone_diversity(state_grid, zones)
    except ValueError as exc:
        raise ingest.InputError(f"{states_path}: {exc}") from None
    div.write_diversity_csv(report, out / "diversity.csv", header)

    hour_starts, hour_column = state_grid.calendar.hour_columns()
    energy = lighting.hourly(zone_order, hour_starts)
    # each day's mean over the hours its steps touch
    days = hour_column.reshape(-1, ingest.STEPS_PER_DAY)
    daily_energy = np.array([[row[d[0] : d[-1] + 1].mean() for d in days] for row in energy])
    day_starts = state_grid.step_epochs()[:: ingest.STEPS_PER_DAY]

    daily_rows = [
        (zone_id, ingest.format_timestamp(day_start), float(d_val), float(e_val))
        for zone_id, divs, energies in zip(zone_order, daily_diversity, daily_energy)
        for day_start, d_val, e_val in zip(day_starts, divs, energies)
    ]
    columns = ["zone_id", "day_start", "diversity", "mean_energy_wh"]
    ingest._write_rows(out / "diversity_daily.csv", columns, daily_rows, [header])

    results: list[tuple[str, div.RegressionResult | None]] = []
    for zone_id, divs, energies in zip(zone_order, daily_diversity, daily_energy):
        try:
            results.append((zone_id, div.ols_regress(divs, energies)))
        except (div.DegenerateRegressor, ValueError):
            results.append((zone_id, None))
    div.write_regression_csv(results, out / "regression.csv", header)
    print(f"wrote {out / 'diversity.csv'}, {out / 'diversity_daily.csv'}, {out / 'regression.csv'}")
    return 0


def _metrics_doc(metrics: surrogate.Metrics) -> dict:
    return {
        "mae": metrics.mae,
        "mse": metrics.mse,
        "r_squared_hourly": metrics.r_squared,
        "r_squared_daily": metrics.r_squared_daily,
        "r_squared_step": metrics.r_squared_step,
    }


def cmd_train_surrogate(cfg: dict) -> int:
    kind = cfg["surrogate"]["kind"]
    fraction = cfg["surrogate"]["split_fraction"]
    folds = cfg["surrogate"]["cv_folds"]
    states_path, state_grid = _load_states(cfg)
    layout = _load_desk_table(cfg, "zone_map", states_path, state_grid)
    lighting = ingest.load_lighting(_require_path(cfg, "lighting"))
    table = surrogate.build_features(state_grid, layout.by_zone())
    y = surrogate.targets_from_lighting(table, lighting)
    try:
        train_idx, test_idx = surrogate.time_split(table, y, fraction)
    except ValueError:  # the fraction is in range, so one side is empty
        days = int(table.day_index.max()) + 1
        message = f"leaves a side empty: {states_path} has {days} day(s) of states"
        raise ingest.InputError(f"surrogate.split_fraction={fraction} {message}") from None

    def fit(tbl: surrogate.FeatureTable, ty: np.ndarray):
        if kind == "mlr":
            return surrogate.fit_mlr(tbl, ty, cfg["surrogate"]["ridge"])
        rf_config = surrogate.RfConfig(**cfg["surrogate"]["rf"])
        return surrogate.fit_random_forest(tbl, ty, rf_config, seed=cfg["seed"])

    model = fit(table.take(train_idx), y[train_idx])
    test_table = table.take(test_idx)
    pred = model.predict_rows(test_table)
    metrics = surrogate.evaluate(
        y[test_idx], pred, test_table.hour_epoch, test_table.day_index
    )
    out = Path(cfg["out_dir"])
    surrogate.save_model(model, out / "model.json", _provenance(cfg, "train-surrogate"))
    doc = {
        **_provenance(cfg, "train-surrogate"),
        "seed": cfg["seed"],
        "kind": kind,
        "n_train_rows": int(train_idx.size),
        "n_test_rows": int(test_idx.size),
        "test_metrics": _metrics_doc(metrics),
    }
    if folds:
        cv = surrogate.cross_validate(
            table.take(train_idx), y[train_idx], folds, lambda tbl, ty: fit(tbl, ty).predict_rows
        )
        doc["cv_metrics"] = _metrics_doc(cv)
    ingest._write_json(out / "metrics.json", doc)
    if kind == "rf":
        importance = surrogate.feature_importance(model).items()  # in FEATURE_NAMES order
        comment = _header(cfg, "train-surrogate")
        ingest._write_rows(out / "importance.csv", ["feature", "importance"], importance, [comment])
    print(f"wrote {out / 'model.json'} and {out / 'metrics.json'}")
    return 0


def _load_seed_layouts(path_value) -> list[ingest.Layout]:
    path = Path(path_value)
    if path.is_dir():
        files = sorted(path.glob("layout_*.csv")) or sorted(path.glob("*.csv"))
        if not files:
            raise ingest.InputError(f"{path}: no layout CSVs found")
        return [optimize.load_layout(f) for f in files]
    if not path.exists():
        raise ingest.InputError(f"seed layouts not found: {path}")
    return [optimize.load_layout(path)]


def cmd_optimize(cfg: dict) -> int:
    method = cfg["optimize"]["method"]
    batch, iter_limit = cfg["optimize"]["batch"], cfg["optimize"]["iter_limit"]
    n_rand = cfg["optimize"]["random_baseline"]
    if method == "ga" and not cfg["paths"]["model"]:
        raise ingest.InputError("the ga method needs paths.model (a trained surrogate)")
    states_path, state_grid = _load_states(cfg)
    template = _load_desk_table(cfg, "zone_map", states_path, state_grid)
    out = Path(cfg["out_dir"])
    header = _header(cfg, "optimize")
    master = int(cfg["seed"])

    model = None
    if cfg["paths"]["model"]:
        model = surrogate.load_model(_require_path(cfg, "model"))

    vectors = state_grid.vectors()
    dims = cfg["optimize"]["dims"]
    representation = "raw"
    if method == "cluster" and dims:
        matrix, occupants = reduce.state_matrix(state_grid)
        factors = reduce.svd_decompose(matrix)
        if dims > factors.rank:
            raise ingest.InputError(
                f"optimize.dims={dims} out of range (numerical rank {factors.rank})"
            )
        vectors = reduce.project(matrix, factors, dims, occupants).vectors()
        representation = f"reduced-{dims}"

    seeds_in = None
    if cfg["optimize"]["seed_layouts"]:
        seeds_in = _load_seed_layouts(cfg["optimize"]["seed_layouts"])

    scorer = None
    if model is not None:
        scorer = surrogate.LayoutScorer(model, state_grid)
    seeds = [master + k for k in range(batch)]
    if method == "cluster":
        # the batch's runs are searched together, each as it would run alone
        starts = [optimize.random_layout(template, np.random.default_rng(s)) for s in seeds]
        results = optimize.swap_search(vectors, starts, iter_limit, seeds)
    else:
        ga_config = optimize.GaConfig(**cfg["optimize"]["ga"])
        results = [
            optimize.ga_optimize(scorer.totals, template, ga_config, seed=s, seeds_in=seeds_in)
            for s in seeds
        ]
    runs = []
    for k, (layout, trace) in enumerate(results):
        optimize.write_layout(layout, out / f"layout_{k:03d}.csv", header)
        optimize.write_trace(trace, out / f"trace_{k:03d}.csv", header)
        runs.append((k, layout, trace.best_so_far[-1]))

    comments = [header, f"method: {method} representation: {representation}"]
    if model is None:
        columns = ["run", "objective"]
        rows = [(k, objective) for k, _, objective in runs]
    else:
        existing = scorer.total(template.by_zone())
        rand_energies = []
        for j in range(n_rand):
            rng = np.random.default_rng(master + 100_000 + j)
            rand_layout = optimize.random_layout(template, rng)
            rand_energies.append(scorer.total(rand_layout.by_zone()))
        rand_mean = float(np.mean(rand_energies)) if rand_energies else float("nan")
        comments.append(f"existing_energy_wh: {existing!r}")
        comments.append(f"random_mean_energy_wh: {rand_mean!r} (n={n_rand})")
        columns = ["run", "objective", "energy_wh", "pct_vs_existing", "pct_vs_random_mean"]
        pct = surrogate.percent_change
        rows = [("existing", "", existing, 0.0, pct(existing, rand_mean))]
        for k, layout, objective in runs:
            energy = scorer.total(layout.by_zone())
            rows.append((k, objective, energy, pct(energy, existing), pct(energy, rand_mean)))
    ingest._write_rows(out / "optimize_summary.csv", columns, rows, comments)
    print(f"wrote {batch} layout/trace pairs and {out / 'optimize_summary.csv'}")
    return 0


def cmd_simulate(cfg: dict) -> int:
    states_path, state_grid = _load_states(cfg)
    model = surrogate.load_model(_require_path(cfg, "model"))
    layout = _load_desk_table(cfg, "layout", states_path, state_grid)
    baseline = None
    if cfg["paths"].get("zone_map"):
        baseline = _load_desk_table(cfg, "zone_map", states_path, state_grid).by_zone()
    report = surrogate.predict_energy(model, layout.by_zone(), state_grid, baseline_zones=baseline)
    out = Path(cfg["out_dir"])
    surrogate.write_energy_report(report, out / "energy.csv", _header(cfg, "simulate"))
    print(f"wrote {out / 'energy.csv'} (total {report.grand_total:.1f} wh)")
    return 0


def cmd_count_layouts(cfg: dict, occupants: int, zones: int, distinct: bool) -> int:
    if distinct:
        if occupants % zones != 0:
            raise ingest.InputError(f"{zones} zones do not evenly divide {occupants}")
        value = optimize.count_layouts_distinct([occupants // zones] * zones)
    else:
        value = optimize.count_layouts(occupants, zones)
    print(value)
    return 0


def cmd_synth_demo(cfg: dict) -> int:
    s = cfg["synth"]
    ga_config = optimize.GaConfig(**cfg["optimize"]["ga"])
    rf_config = surrogate.RfConfig(**cfg["surrogate"]["rf"])
    start = ingest.parse_timestamp(s["start"])
    out = Path(cfg["out_dir"])
    header = _header(cfg, "synth-demo")
    seed = int(cfg["seed"])
    oracle_cfg = synth.LightingOracleConfig(**cfg["oracle"])
    counts = tuple(s["counts"])
    n_zones = len(counts)

    state_grid = synth.generate_population(
        counts,
        int(s["n_days"]),
        seed=seed,
        p_high=float(s["p_high"]),
        start=start,
        jitter_minutes=float(s["jitter_minutes"]),
    )
    states_mod.write_states(state_grid, out / "states.csv", header)
    heatmap = (
        (occ, t, state)
        for occ, row in zip(state_grid.occupants, state_grid.states.tolist())
        for t, state in enumerate(row)
    )
    columns = ["occupant_id", "step_index", "state"]
    ingest._write_rows(out / "heatmap.csv", columns, heatmap, [header])

    pure_zones = synth.archetype_pure_layout(state_grid, n_zones)
    pure = ingest.Layout.from_groups(pure_zones)
    rng = np.random.default_rng(seed)
    existing = optimize.random_layout(pure, rng)
    ingest.write_zone_map(existing, out / "zone_map.csv", header)

    lighting = synth.oracle_lighting_table(existing.by_zone(), state_grid, oracle_cfg)
    ingest.write_lighting(lighting, out / "lighting.csv", header)

    def oracle_total(layout: ingest.Layout) -> float:
        return synth.oracle_total(layout.by_zone(), state_grid, oracle_cfg)

    def random_layouts(offset: int, n: int) -> list[ingest.Layout]:
        rngs = (np.random.default_rng(seed + offset + j) for j in range(n))
        return [optimize.random_layout(pure, rng) for rng in rngs]

    # the surrogate trains on random layouts and swap-search trajectories,
    # is scored on held-out random layouts, and the GA starts from the pool
    vectors = state_grid.vectors()
    train_layouts, pool = synth.protocol_layouts(
        vectors, pure, s["train_layouts"], ga_config.population, seed
    )
    train_table, train_y = synth.oracle_training_set(
        state_grid, [layout.by_zone() for layout in train_layouts], oracle_cfg
    )
    model = surrogate.fit_random_forest(train_table, train_y, rf_config, seed=seed)
    surrogate.save_model(model, out / "model.json", _provenance(cfg, "synth-demo"))
    holdout = [layout.by_zone() for layout in random_layouts(10_000, s["holdout_layouts"])]
    hold_table, hold_y = synth.oracle_training_set(state_grid, holdout, oracle_cfg)
    hold_pred = model.predict_rows(hold_table)
    metrics = surrogate.evaluate(hold_y, hold_pred, hold_table.hour_epoch, hold_table.day_index)

    cluster_layout, cluster_trace = optimize.swap_optimize(
        vectors, existing, None, seed=seed
    )
    optimize.write_layout(cluster_layout, out / "cluster_layout.csv", header)
    optimize.write_trace(cluster_trace, out / "cluster_trace.csv", header)

    scorer = surrogate.LayoutScorer(model, state_grid)
    ga_layout, ga_trace = optimize.ga_optimize(
        scorer.totals, pure, ga_config, seed=seed, seeds_in=pool
    )
    optimize.write_layout(ga_layout, out / "ga_layout.csv", header)
    optimize.write_trace(ga_trace, out / "ga_trace.csv", header)

    baseline = random_layouts(20_000, s["random_baseline"])
    rand_mean = float(np.mean([oracle_total(layout) for layout in baseline]))
    entries_rows = [
        ("random_mean", rand_mean),
        ("existing", oracle_total(existing)),
        ("archetype_pure", oracle_total(pure)),
        ("cluster", oracle_total(cluster_layout)),
        ("ga", oracle_total(ga_layout)),
    ]
    columns = ["label", "oracle_energy_wh", "pct_vs_random_mean"]
    rows = [(k, v, surrogate.percent_change(v, rand_mean)) for k, v in entries_rows]
    comments = [header, f"rf_holdout_mae: {metrics.mae!r} r2_hourly: {metrics.r_squared!r}"]
    ingest._write_rows(out / "savings.csv", columns, rows, comments)
    print(f"wrote synthetic demo outputs to {out}")
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="zoneplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> (function, help, flags besides --seed and --out-dir); the table is
    # built per parser, so a cmd_* function replaced at run time is the one called
    commands = {
        "ingest": (cmd_ingest, "resample plug-load events to a 15-minute grid",
                   ["--plug-load"]),
        "infer-states": (cmd_infer_states, "cluster power values into states 1-3", ["--grid"]),
        "diversity-report": (cmd_diversity_report, "daily zone diversity and OLS vs energy",
                             ["--states", "--zone-map", "--lighting"]),
        "train-surrogate": (cmd_train_surrogate, "fit the lighting-energy model",
                            ["--states", "--zone-map", "--lighting", "--kind"]),
        "optimize": (cmd_optimize, "optimize the occupant layout",
                     ["--method", "--dims", "--seed-layouts", "--batch", "--states",
                      "--zone-map", "--model"]),
        "simulate": (cmd_simulate, "score a layout with a trained surrogate",
                     ["--states", "--model", "--layout", "--zone-map"]),
        "count-layouts": (cmd_count_layouts, "count feasible assignments", []),
        "synth-demo": (cmd_synth_demo, "closed-loop synthetic pipeline demo", []),
    }
    for name, (function, help_text, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", action="append",
                       help="JSON config file (repeatable, merged in order)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")
        for flag in ["--seed", "--out-dir", *flags]:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=function, operands=[])
    count = sub.choices["count-layouts"]
    count.add_argument("occupants", type=int)
    count.add_argument("zones", type=int)
    count.add_argument("--distinct-zones", action="store_true",
                       help="treat zones as distinguishable (drop the n! factor)")
    count.set_defaults(operands=["occupants", "zones", "distinct_zones"])
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    cfg = build_config(args)
    _check_config(cfg)
    return args.run(cfg, *(getattr(args, name) for name in args.operands))


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

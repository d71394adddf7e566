"""Surrogate models: features, MLR, random forest, metrics, energy reports."""

import copy
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneplan import surrogate, synth
from zoneplan.ingest import LightingTable, StepCalendar
from zoneplan.optimize import GaConfig, Layout, ga_optimize, random_layout
from zoneplan.states import StateGrid
from zoneplan.surrogate import (
    BATCH_CELLS,
    FEATURE_NAMES,
    FeatureTable,
    LayoutScorer,
    MlrModel,
    RfConfig,
    RfModel,
    build_features,
    concat_tables,
    cross_validate,
    encode,
    evaluate,
    feature_importance,
    fit_mlr,
    fit_random_forest,
    load_model,
    predict_energy,
    save_model,
    sigmoid_count,
    targets_from_lighting,
    time_split,
)
from zoneplan.surrogate import _KeyTable, _r2, _RowEncoder, _Tree

UTC = timezone.utc
T0 = datetime(2018, 1, 1, tzinfo=UTC)  # Monday


def random_table(n_days=10, seed=0, n_zones=3):
    # synthetic feature table with plausible ranges, step-major rows
    rng = np.random.default_rng(seed)
    steps = n_days * 96
    cal = StepCalendar(T0, steps)
    zone_order = [f"Z{i+1}" for i in range(n_zones)]
    rows = []
    step_index = []
    for t in range(steps):
        for j in range(n_zones):
            s1 = rng.integers(0, 5)
            s2 = rng.integers(0, 5)
            s3 = rng.integers(0, 5)
            rows.append([s1, s2, s3, cal.hours[t], cal.dows[t], cal.weekend[t], j])
            step_index.append(t)
    features = np.asarray(rows, dtype=np.float64)
    step_index = np.asarray(step_index)
    hour_epoch = cal.hour_epochs()[step_index]
    day_index = step_index // 96
    layout = np.zeros(features.shape[0], dtype=int)
    return FeatureTable(zone_order, features, hour_epoch, day_index, layout)


# ---------------------------------------------------------------- features


def test_build_features_counts_states(pop8):
    cal = pop8.calendar
    zones = {"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]}
    table = build_features(pop8, zones)
    assert table.zone_order == ["Z1", "Z2"]
    assert table.n_rows == pop8.n_steps * 2
    # row for (step t, zone j) sits at t * n_zones + j
    t, j = 37, 1
    row = table.features[t * 2 + j]
    members = pop8.states[[pop8.occupants.index(o) for o in zones["Z2"]], t]
    assert row[0] == np.sum(members == 1)
    assert row[1] == np.sum(members == 2)
    assert row[2] == np.sum(members == 3)
    assert row[6] == j
    # every row against per-zone state counts and the calendar
    for j, zone_id in enumerate(table.zone_order):
        rows = pop8.states[[pop8.occupants.index(o) for o in zones[zone_id]]]
        for s in (1, 2, 3):
            np.testing.assert_array_equal(table.features[j::2, s - 1], (rows == s).sum(axis=0))
        calendar = np.column_stack([cal.hours, cal.dows, cal.weekend])
        np.testing.assert_array_equal(table.features[j::2, 3:6], calendar)
        assert np.all(table.features[j::2, 6] == j)
    assert table.features.dtype == np.float64


def test_build_features_empty_zone_all_zero_counts(pop8):
    table = build_features(pop8, {"Z1": pop8.occupants, "Z2": []})
    empty_rows = table.features[table.features[:, 6] == 1]
    assert np.all(empty_rows[:, :3] == 0)


def test_saturday_row_flags_weekend():
    # 2018-01-06 is a Saturday
    saturday = datetime(2018, 1, 6, tzinfo=UTC)
    grid = synth.generate_population((1, 1, 1, 1), 1, seed=0, start=saturday)
    table = build_features(grid, {"Z1": grid.occupants})
    assert np.all(table.features[:, 4] == 5)
    assert np.all(table.features[:, 5] == 1)


# ---------------------------------------------------------------- encoding


def test_sigmoid_count_values():
    assert sigmoid_count(np.array([0.0]))[0] == 0.0
    assert sigmoid_count(np.array([1.0]))[0] == pytest.approx(0.4621171572600098, rel=1e-12)
    # saturates toward 1 for crowded zones
    assert sigmoid_count(np.array([50.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_encode_shapes_and_hour_harmonics():
    table = random_table(n_days=1, seed=1, n_zones=3)
    x = encode(table.features, 3)
    # 3 counts + sin + cos + 7 dow + weekend + 3 zones
    assert x.shape == (table.n_rows, 13 + 3)
    hour0 = table.features[:, 3] == 0.0
    np.testing.assert_allclose(x[hour0, 3], 0.5, atol=1e-12)  # sin rescaled
    np.testing.assert_allclose(x[hour0, 4], 1.0, atol=1e-12)  # cos rescaled
    hour6 = table.features[:, 3] == 6.0
    np.testing.assert_allclose(x[hour6, 3], 1.0, atol=1e-12)
    np.testing.assert_allclose(x[hour6, 4], 0.5, atol=1e-12)


def test_encode_one_hot_rows_sum_to_one():
    table = random_table(n_days=1, seed=2)
    x = encode(table.features, 3)
    assert np.all(x[:, 5:12].sum(axis=1) == 1.0)  # day-of-week block
    assert np.all(x[:, 13:].sum(axis=1) == 1.0)  # zone block


# ---------------------------------------------------------------- mlr


def test_mlr_recovers_linear_map():
    table = random_table(n_days=5, seed=3)
    x = encode(table.features, table.n_zones)
    rng = np.random.default_rng(4)
    beta = rng.normal(size=x.shape[1])
    y = x @ beta + 1.5
    model = fit_mlr(table, y)
    pred = model.predict_rows(table)
    assert np.max(np.abs(pred - y)) < 1e-6


def test_mlr_constant_target():
    table = random_table(n_days=3, seed=5)
    y = np.full(table.n_rows, 42.0)
    model = fit_mlr(table, y)
    np.testing.assert_allclose(model.predict_rows(table), 42.0, atol=1e-8)


def test_mlr_matches_lstsq_oracle():
    table = random_table(n_days=4, seed=6)
    rng = np.random.default_rng(7)
    y = rng.normal(size=table.n_rows) * 50 + 200
    model = fit_mlr(table, y)
    pred = model.predict_rows(table)
    # independent least-squares on the same scaled design
    x = encode(table.features, table.n_zones)
    lo = x.min(axis=0)
    rangev = np.where(x.max(axis=0) - lo == 0, 1.0, x.max(axis=0) - lo)
    xs = np.column_stack([np.ones(len(x)), (x - lo) / rangev])
    beta, *_ = np.linalg.lstsq(xs, y, rcond=None)
    np.testing.assert_allclose(pred, xs @ beta, atol=1e-6)


def test_mlr_residuals_orthogonal_to_design():
    table = random_table(n_days=4, seed=8)
    rng = np.random.default_rng(9)
    y = rng.normal(size=table.n_rows)
    model = fit_mlr(table, y)
    resid = y - model.predict_rows(table)
    x = encode(table.features, table.n_zones)
    assert np.max(np.abs(x.T @ resid)) / len(y) < 1e-6


def test_mlr_scaler_learned_on_training_only():
    table = random_table(n_days=3, seed=10)
    y = np.arange(table.n_rows, dtype=float)
    model = fit_mlr(table, y)
    # prediction on a table with wider feature ranges reuses stored scaling
    other = random_table(n_days=3, seed=11)
    other.features[:, 0] *= 3
    a = model.predict_rows(other)
    b = model.predict_rows(other)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- random forest


def test_rf_without_split_predicts_global_mean():
    table = random_table(n_days=1, seed=12)
    rng = np.random.default_rng(13)
    y = rng.normal(size=table.n_rows)
    cfg = RfConfig(n_trees=3, min_split=10**6, bootstrap=False)
    model = fit_random_forest(table, y, cfg, seed=0)
    np.testing.assert_allclose(model.predict_rows(table), np.mean(y), atol=1e-12)


def test_single_tree_fits_step_function_exactly():
    table = random_table(n_days=2, seed=14)
    y = np.where(table.features[:, 2] >= 2, 10.0, -10.0)
    cfg = RfConfig(n_trees=1, min_split=2, min_leaf=1, bootstrap=False)
    model = fit_random_forest(table, y, cfg, seed=0)
    np.testing.assert_allclose(model.predict_rows(table), y, atol=1e-12)


def test_rf_deterministic_given_seed():
    table = random_table(n_days=2, seed=15)
    rng = np.random.default_rng(16)
    y = rng.normal(size=table.n_rows)
    a = fit_random_forest(table, y, RfConfig(n_trees=8), seed=5)
    b = fit_random_forest(table, y, RfConfig(n_trees=8), seed=5)
    np.testing.assert_array_equal(a.predict_rows(table), b.predict_rows(table))


def test_forest_is_mean_of_trees():
    table = random_table(n_days=1, seed=17)
    rng = np.random.default_rng(18)
    y = rng.normal(size=table.n_rows)
    fitted = fit_random_forest(table, y, RfConfig(n_trees=5), seed=2)
    # a one-leaf tree between trees of other node counts: a wrong node offset shows
    leaf = _Tree(np.array([-1], np.int32), np.zeros(1), np.zeros(1, np.int32),
                 np.zeros(1, np.int32), np.array([0.3]))
    trees = fitted.trees[:2] + [leaf] + fitted.trees[2:]
    assert len({t.feature.size for t in trees}) >= 4
    model = RfModel(trees, fitted.config, 2, fitted.zone_order, fitted.importance_raw)
    single = np.zeros(table.n_rows)
    for tree in trees:
        leaves = np.empty(table.n_rows)
        for i, row in enumerate(table.features):
            node = 0
            while tree.feature[node] >= 0:
                goes_left = row[tree.feature[node]] < tree.threshold[node]
                node = tree.left[node] if goes_left else tree.right[node]
            leaves[i] = tree.value[node]
        single += leaves  # tree after tree
    assert np.array_equal(model.predict_rows(table), single / len(trees))


def test_node_of_equal_targets_is_a_leaf(pop8):
    # daylight dimming makes the oracle's targets non-integer; the rounded
    # mean of a node's equal targets leaves sse_parent a little above 0, and
    # such a node must not split on the rounding noise of the split sums
    template = Layout.from_groups({"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]})
    layouts = [template.by_zone()]
    layouts += [random_layout(template, np.random.default_rng(j)).by_zone() for j in range(3)]
    daylight = synth.LightingOracleConfig(daylight_factor=True)
    table, y = synth.oracle_training_set(pop8, layouts * 3, daylight)  # every row thrice
    assert np.any(y != np.round(y))
    tree = fit_random_forest(table, y, RfConfig(n_trees=1, bootstrap=False), seed=0).trees[0]
    split_equal = []
    stack = [(0, np.arange(y.size))]
    while stack:
        node, rows = stack.pop()
        f = tree.feature[node]
        if f < 0:
            continue
        if np.all(y[rows] == y[rows[0]]):
            split_equal.append(node)
        go_left = table.features[rows, f] < tree.threshold[node]
        stack += [(tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left])]
    assert tree.feature.max() >= 0  # the tree splits
    assert split_equal == []


def test_rf_invariant_to_monotone_feature_rescaling():
    # trees split on order statistics; scaling one feature consistently at
    # fit and predict time must not change predictions
    table = random_table(n_days=2, seed=19)
    rng = np.random.default_rng(20)
    y = rng.normal(size=table.n_rows)
    cfg = RfConfig(n_trees=4, bootstrap=False)
    base = fit_random_forest(table, y, cfg, seed=3).predict_rows(table)

    scaled = FeatureTable(
        table.zone_order,
        table.features.copy(),
        table.hour_epoch,
        table.day_index,
        table.layout,
    )
    scaled.features[:, 3] *= 3.7
    again = fit_random_forest(scaled, y, cfg, seed=3).predict_rows(scaled)
    np.testing.assert_allclose(again, base, atol=1e-9)


def test_importance_concentrates_on_informative_feature():
    table = random_table(n_days=3, seed=21)
    y = np.where(table.features[:, 1] >= 2, 5.0, 0.0)
    model = fit_random_forest(
        table, y, RfConfig(n_trees=10, bootstrap=False), seed=4
    )
    imp = feature_importance(model)
    assert set(imp) == set(FEATURE_NAMES)
    assert imp["s2"] == pytest.approx(1.0, abs=1e-9)
    assert sum(imp.values()) == pytest.approx(1.0, abs=1e-9)


def test_importance_sums_to_one_generally():
    table = random_table(n_days=2, seed=22)
    rng = np.random.default_rng(23)
    y = rng.normal(size=table.n_rows)
    model = fit_random_forest(table, y, RfConfig(n_trees=6), seed=5)
    assert sum(feature_importance(model).values()) == pytest.approx(1.0, abs=1e-9)


def test_concat_tables_numbers_layouts_and_take_keeps_them(pop8):
    zones = {"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]}
    single = build_features(pop8, zones)
    np.testing.assert_array_equal(single.layout, np.zeros(single.n_rows))
    table = concat_tables([single, single, single])
    np.testing.assert_array_equal(table.layout, np.repeat([0, 1, 2], single.n_rows))
    idx = np.random.default_rng(42).permutation(table.n_rows)[:50]
    np.testing.assert_array_equal(table.take(idx).layout, idx // single.n_rows)


# ---------------------------------------------------------------- split / cv


def test_time_split_whole_days():
    table = random_table(n_days=10, seed=24)
    y = np.zeros(table.n_rows)
    train_idx, test_idx = time_split(table, y, fraction=0.8)
    assert np.max(table.day_index[train_idx]) == 7
    assert np.min(table.day_index[test_idx]) == 8
    assert len(train_idx) + len(test_idx) == table.n_rows


def test_time_split_boundary_day_goes_to_test():
    table = random_table(n_days=3, seed=25)
    y = np.zeros(table.n_rows)
    train_idx, test_idx = time_split(table, y, fraction=0.5)
    # floor(1.5) = 1 training day; the boundary day lands in test
    assert set(np.unique(table.day_index[train_idx])) == {0}
    assert set(np.unique(table.day_index[test_idx])) == {1, 2}


def test_time_split_degenerate_fraction_rejected():
    table = random_table(n_days=2, seed=26)
    y = np.zeros(table.n_rows)
    with pytest.raises(ValueError):
        time_split(table, y, fraction=1.0)
    with pytest.raises(ValueError):
        time_split(table, y, fraction=0.0)


def test_cross_validate_perfect_fitter_scores_zero_error():
    table = random_table(n_days=2, seed=27)
    x = encode(table.features, table.n_zones)
    rng = np.random.default_rng(28)
    beta = rng.normal(size=x.shape[1])
    y = x @ beta

    metrics = cross_validate(table, y, 4, fit_mlr)
    assert metrics.mae < 1e-6


def test_cross_validate_averages_evaluate_over_held_out_folds():
    table = random_table(n_days=2, seed=32)
    y = np.random.default_rng(33).normal(size=table.n_rows)
    folds = np.array_split(np.arange(table.n_rows), 3)
    expected = []
    for held in folds:
        rest = np.setdiff1d(np.arange(table.n_rows), held)
        model = fit_mlr(table.take(rest), y[rest])
        held_table = table.take(held)
        expected.append(evaluate(held_table, y[held], model.predict_rows(held_table)))
    metrics = cross_validate(table, y, 3, fit_mlr)
    assert metrics.r_squared == np.mean([m.r_squared for m in expected])
    assert metrics.r_squared_daily == np.mean([m.r_squared_daily for m in expected])


def test_cross_validate_too_many_folds_rejected():
    table = random_table(n_days=1, seed=29)
    with pytest.raises(ValueError):
        cross_validate(table, np.zeros(table.n_rows), table.n_rows + 1, fit_mlr)


# ---------------------------------------------------------------- metrics


def test_perfect_prediction_metrics():
    table = random_table(n_days=1, seed=30)
    y = np.random.default_rng(30).normal(size=table.n_rows)
    m = evaluate(table, y, y.copy())
    assert m.mae == 0.0
    assert m.mse == 0.0
    assert m.r_squared == 1.0
    assert m.r_squared_daily == 1.0
    assert m.r_squared_step == 1.0


def test_mean_prediction_r2_zero():
    table = random_table(n_days=1, seed=31)
    y = np.random.default_rng(31).normal(size=table.n_rows)
    yhat = np.full(table.n_rows, np.mean(y))
    m = evaluate(table, y, yhat)
    assert m.r_squared_step == pytest.approx(0.0, abs=1e-9)


def test_r2_unclamped_below_zero():
    table = random_table(n_days=1, seed=34)
    y = np.arange(table.n_rows, dtype=float)
    m = evaluate(table, y, y[::-1])
    assert m.r_squared_step < 0
    assert m.r_squared < 0


def test_hourly_aggregation_cancels_within_hour_errors():
    # alternating +e/-e errors over each zone's four steps of an hour cancel
    # when that zone's hour is summed
    table = random_table(n_days=1, seed=35)
    # whole-number targets, so the sums that should cancel do so exactly
    y = np.random.default_rng(35).integers(0, 20, table.n_rows).astype(float)
    step = np.arange(table.n_rows) // table.n_zones  # rows are step-major
    yhat = y + np.where(step % 2 == 0, 0.5, -0.5)
    m = evaluate(table, y, yhat)
    assert m.mae == pytest.approx(0.5)
    assert m.r_squared_step < 1.0
    assert m.r_squared == 1.0  # hourly sums are exact
    assert m.r_squared_daily == 1.0


def hour_sums(v: np.ndarray, table) -> np.ndarray:
    """v summed per hour over every row of the table, whatever its layout and zone."""
    return np.bincount(np.unique(table.hour_epoch, return_inverse=True)[1], weights=v)


def test_errors_that_cancel_across_zones_do_not_cancel_in_a_zones_hour():
    # zone Z1 over-predicts by what Z2 under-predicts at every step, so the
    # hours summed over both zones are exact but each zone's hours are not
    table = random_table(n_days=1, seed=36, n_zones=2)
    y = np.random.default_rng(36).integers(0, 20, table.n_rows).astype(float)
    yhat = y + np.where(table.features[:, 6] == 0, 0.5, -0.5)
    assert _r2(hour_sums(y, table), hour_sums(yhat, table)) == 1.0
    m = evaluate(table, y, yhat)
    assert m.r_squared < 1.0
    assert m.r_squared_daily < 1.0


def test_errors_that_cancel_across_layouts_do_not_cancel_in_a_layouts_hour():
    # two stacked layouts err in opposite directions in every (zone, hour), so
    # the hours summed over both layouts are exact but each layout's are not
    table = concat_tables([random_table(n_days=1, seed=37), random_table(n_days=1, seed=38)])
    y = np.random.default_rng(37).integers(0, 20, table.n_rows).astype(float)
    yhat = y + np.where(table.layout == 0, 0.5, -0.5)
    assert _r2(hour_sums(y, table), hour_sums(yhat, table)) == 1.0
    m = evaluate(table, y, yhat)
    assert m.r_squared < 1.0
    assert m.r_squared_daily < 1.0


def test_hourly_and_daily_r2_sum_each_layout_zone_series_in_key_order():
    table = concat_tables([random_table(n_days=2, seed=39), random_table(n_days=2, seed=40)])
    rng = np.random.default_rng(41)
    y = rng.uniform(0.0, 5.0, table.n_rows)
    yhat = y + rng.normal(size=table.n_rows)
    # a random third of the rows, as a held-out set might hold
    idx = np.sort(rng.permutation(table.n_rows)[: table.n_rows // 3])
    table, y, yhat = table.take(idx), y[idx], yhat[idx]
    m = evaluate(table, y, yhat)
    for period, r2 in ((table.hour_epoch, m.r_squared), (table.day_index, m.r_squared_daily)):
        sums: dict = {}
        for key, a, b in zip(zip(table.layout, table.features[:, 6], period), y, yhat):
            sums[key] = sums.get(key, np.zeros(2)) + (a, b)
        ordered = np.array([sums[key] for key in sorted(sums)])
        assert r2 == _r2(ordered[:, 0], ordered[:, 1])


# ---------------------------------------------------------------- energy


def seated(zones: dict, n_desks: int = 8) -> Layout:
    """zone_id -> occupants seated at that zone's first desks of n_desks."""
    desks = {z: [f"{z}-d{k}" for k in range(n_desks)] for z in zones}
    return Layout(desks, {desks[z][k]: o for z, occs in zones.items() for k, o in enumerate(occs)})


def test_predict_energy_constant_model(pop8):
    layout = Layout.from_groups({"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]})
    table = build_features(pop8, layout.by_zone())
    y = np.full(table.n_rows, 30.0)
    model = fit_mlr(table, y)
    report = predict_energy(model, layout, pop8, baseline=layout)
    # constant 30 Wh per zone-step, 2 zones, clamped at zero unnecessary
    expected = 30.0 * table.n_rows
    assert report.grand_total == pytest.approx(expected, rel=1e-9)
    assert report.percent_change == pytest.approx(0.0, abs=1e-12)


def test_predict_energy_unknown_zone_rejected(pop8):
    layout = Layout.from_groups({"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]})
    table = build_features(pop8, layout.by_zone())
    model = fit_mlr(table, np.zeros(table.n_rows))
    with pytest.raises(ValueError, match="unknown zone"):
        predict_energy(model, Layout.from_groups({"Z9": pop8.occupants}), pop8, baseline=layout)


# ---------------------------------------------------------------- layout scorer


@pytest.fixture(scope="module", params=["rf", "mlr"])
def scorer_case(request, pop8):
    # a model trained on oracle targets over two random 4+4 layouts
    template = Layout.from_groups({"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]})
    tables, targets = [], []
    for j in range(2):
        zones = random_layout(template, np.random.default_rng(j)).by_zone()
        table = build_features(pop8, zones)
        lighting = synth.oracle_lighting_table(zones, pop8, synth.LightingOracleConfig())
        tables.append(table)
        targets.append(targets_from_lighting(table, lighting))
    table, y = concat_tables(tables), np.concatenate(targets)
    if request.param == "rf":
        model = fit_random_forest(table, y, RfConfig(n_trees=12, min_split=10), seed=3)
    else:
        model = fit_mlr(table, y)
    return model, template


def whole_table_total(model, layout: Layout, states):
    # reference: predict every row of the layout's feature table at once
    table = build_features(states, layout.by_zone())
    return float(np.maximum(model.predict_rows(table), 0.0).sum())


def total(scorer: LayoutScorer, layout: Layout) -> float:
    """The scorer's energy of one layout: a one-row population of its own seat row."""
    return float(scorer.totals(layout.seat_rows([layout]), layout)[0])


def test_row_prediction_independent_of_batch(scorer_case, monkeypatch):
    model, _ = scorer_case
    x = random_table(n_days=2, seed=40, n_zones=2).features
    full = model.predict_raw(x)
    alone = np.array([model.predict_raw(x[i : i + 1])[0] for i in range(0, len(x), 7)])
    assert np.array_equal(alone, full[::7])
    rng = np.random.default_rng(41)
    for _ in range(50):
        idx = np.sort(rng.choice(len(x), size=int(rng.integers(2, 40)), replace=False))
        assert np.array_equal(model.predict_raw(x[idx]), full[idx])
    # 12 trees x 50 rows (the linear model: 15 encoded columns x 40 rows) a
    # pass: the 384 rows span several cell-bounded passes, the last one short;
    # then one row a pass
    assert len(x) > 7 * 50 and len(x) % 50 and len(x) % 40
    for cells in (12 * 50, 1):
        monkeypatch.setattr(surrogate, "BATCH_CELLS", cells)
        assert np.array_equal(model.predict_raw(x), full)


def test_scorer_total_equals_whole_table_prediction(scorer_case, pop8):
    model, template = scorer_case
    scorer = LayoutScorer(model, pop8)
    layouts = [random_layout(template, np.random.default_rng(100 + k)) for k in range(20)]
    # vacant desks: one zone short of occupants, and an empty zone
    layouts.append(seated({"Z1": pop8.occupants[:3], "Z2": pop8.occupants[4:]}))
    layouts.append(seated({"Z1": pop8.occupants, "Z2": []}))
    for layout in layouts:
        expected = whole_table_total(model, layout, pop8)
        assert total(scorer, layout) == expected
        assert predict_energy(model, layout, pop8).grand_total == expected


def test_report_sums_the_rows_per_zone_and_hour(scorer_case, pop8):
    model, template = scorer_case
    layout = random_layout(template, np.random.default_rng(150))
    baseline = seated({"Z1": pop8.occupants, "Z2": []})
    report = predict_energy(model, layout, pop8, baseline=baseline)
    table = build_features(pop8, layout.by_zone())
    pred = np.maximum(model.predict_rows(table), 0.0)
    assert report.zone_order == ["Z1", "Z2"]
    for j, zone_id in enumerate(report.zone_order):
        for h, epoch in enumerate(report.hour_epochs):
            rows = (table.features[:, 6] == j) & (table.hour_epoch == epoch)
            assert report.hourly[j, h] == pytest.approx(pred[rows].sum(), rel=1e-12)
    assert report.grand_total == whole_table_total(model, layout, pop8)
    assert report.baseline_total == whole_table_total(model, baseline, pop8)
    grand, base = report.grand_total, report.baseline_total
    assert report.percent_change == 100.0 * (grand - base) / base


def test_scorer_handles_zone_order_unlike_the_model(scorer_case, pop8):
    model, template = scorer_case
    model = copy.copy(model)
    model.zone_order = ["Z2", "Z1"]  # model index 0 is the table's second zone
    scorer = LayoutScorer(model, pop8)
    for k in range(5):
        layout = random_layout(template, np.random.default_rng(200 + k))
        assert total(scorer, layout) == whole_table_total(model, layout, pop8)
    only_z2 = Layout.from_groups({"Z2": pop8.occupants[:4]})
    assert total(scorer, only_z2) == whole_table_total(model, only_z2, pop8)


def test_scorer_predicts_each_distinct_row_once(scorer_case, pop8):
    model, template = scorer_case
    model = copy.copy(model)
    seen = []
    predict_raw = model.predict_raw

    def counting(x):
        seen.extend(map(tuple, np.asarray(x)))
        return predict_raw(x)

    model.predict_raw = counting
    scorer = LayoutScorer(model, pop8)
    layouts = [random_layout(template, np.random.default_rng(300 + k)) for k in range(15)]
    totals = [total(scorer, layout) for layout in layouts]
    assert seen and len(seen) == len(set(seen))
    n_seen = len(seen)
    assert [total(scorer, layout) for layout in layouts] == totals
    assert len(seen) == n_seen  # repeated layouts reach the model no more


def test_scorer_rejects_unknown_zone_and_stateless_occupant(scorer_case, pop8):
    model, _ = scorer_case
    scorer = LayoutScorer(model, pop8)
    with pytest.raises(ValueError, match="unknown zone"):
        total(scorer, Layout.from_groups({"Z9": pop8.occupants}))
    with pytest.raises(ValueError, match="without states"):
        total(scorer, Layout.from_groups({"Z1": pop8.occupants[:7] + ["nobody"]}))


def vacant_template(pop8) -> Layout:
    # 8 occupants over two zones of 5 desks: two vacant desks
    zones = {"Z1": [f"Z1-d{k}" for k in range(5)], "Z2": [f"Z2-d{k}" for k in range(5)]}
    desks = zones["Z1"] + zones["Z2"]
    return Layout(zones, dict(zip(desks[1:9], pop8.occupants)))


def test_batched_totals_equal_one_layout_at_a_time_bit_for_bit(scorer_case, pop8):
    model, _ = scorer_case
    template = vacant_template(pop8)
    rng = np.random.default_rng(500)
    tokens = np.r_[np.arange(8), -1, -1]
    population = np.array([tokens[rng.permutation(10)] for _ in range(100)])
    population[:3] = [[-1, -1, 0, 1, 2, 3, 4, 5, 6, 7],  # a zone short of occupants
                      [0, 1, 2, 3, 4, 5, 6, 7, -1, -1],
                      [0, 1, 2, 3, -1, 4, 5, 6, 7, -1]]
    # 2 zones x 192 steps per layout: the population spans two scoring batches
    assert 100 > BATCH_CELLS // (2 * pop8.n_steps)
    scorer = LayoutScorer(model, pop8)
    batched = scorer.totals(population, template)
    one_at_a_time = LayoutScorer(model, pop8)
    for row, got in zip(population, batched):
        layout = template.with_seat_row(row)
        assert got == total(one_at_a_time, layout) == whole_table_total(model, layout, pop8)


def test_ga_generation_zero_scores_as_layouts_do(scorer_case, pop8):
    # the trace's first row is the best total of the seeds and the
    # random_layout padding drawn from the run's generator
    model, _ = scorer_case
    template = vacant_template(pop8)
    seeds = [random_layout(template, np.random.default_rng(600))]
    cfg = GaConfig(population=12, elites=3, random_survivors=2, generations=2)
    fitness = LayoutScorer(model, pop8).totals
    _, trace = ga_optimize(fitness, template, cfg, seed=8, seeds_in=seeds)
    rng = np.random.default_rng(8)
    first = seeds + [random_layout(template, rng) for _ in range(11)]
    scorer = LayoutScorer(model, pop8)
    assert trace.objectives[0] == min(total(scorer, lay) for lay in first)


def test_batched_totals_reject_a_stateless_occupant(scorer_case, pop8):
    model, _ = scorer_case
    occupants = pop8.occupants[:7] + ["nobody"]
    template = Layout.from_groups({"Z1": occupants[:4], "Z2": occupants[4:]})
    with pytest.raises(ValueError, match="without states"):
        LayoutScorer(model, pop8).totals(template.seat_rows([template]), template)


def per_step_keys(states, zone_index, rows) -> np.ndarray:
    # reference: the scorer's keys built on every step, before distinct steps
    # were keyed once; (n_layouts, n_zones, n_steps), zones in sorted id order
    cal = states.calendar
    m = len(states.occupants) + 1
    padded = np.vstack([states.states, np.zeros((1, states.n_steps), states.states.dtype)])
    step_key = ((cal.hours.astype(np.int64) * 7 + cal.dows) * 2 + cal.weekend) * m**3
    weight = np.zeros(256, dtype=np.int64)
    weight[[1, 2, 3]] = (m * m, m, 1)
    zone_order = sorted(rows)
    keys = np.empty((len(rows[zone_order[0]]), len(zone_order), states.n_steps), dtype=np.int64)
    for j, zone_id in enumerate(zone_order):
        keys[:, j] = step_key + zone_index[zone_id] * 336 * m**3
        keys[:, j] += weight.take(padded[rows[zone_id]]).sum(axis=1)
    return keys


def per_step_totals(model, states, rows) -> np.ndarray:
    # reference: every step's row predicted, summed step-major per layout
    zone_index = {z: j for j, z in enumerate(model.zone_order)}
    keys = per_step_keys(states, zone_index, rows)
    decode = _RowEncoder(states, zone_index).decode
    pred = np.maximum(model.predict_raw(decode(keys.ravel())), 0.0).reshape(keys.shape)
    return pred.transpose(0, 2, 1).reshape(len(keys), -1).sum(axis=1)


def grid_like(pop8, states: np.ndarray) -> StateGrid:
    return StateGrid(list(pop8.occupants), pop8.start, states.astype(np.int8))


def step_grids(pop8) -> dict:
    n_occ, n_steps = pop8.states.shape
    t = np.arange(n_steps)
    # occupant i's state is digit i of the step index in base 3: no two columns equal
    distinct = 1 + (t[None, :] // 3 ** np.arange(n_occ)[:, None]) % 3
    # each occupant keeps one state through each day: one distinct step per hour
    daily = np.repeat(pop8.states[:, ::96], 96, axis=1)
    return {"pop8": pop8, "all distinct": grid_like(pop8, distinct),
            "constant days": grid_like(pop8, daily)}


@pytest.mark.parametrize("grid", ["pop8", "all distinct", "constant days"])
def test_distinct_step_keys_equal_per_step_keys(scorer_case, pop8, grid):
    model, _ = scorer_case
    states = step_grids(pop8)[grid]
    encoder = _RowEncoder(states, {})
    n_distinct = int(encoder.step_of.max()) + 1
    assert n_distinct == {"pop8": 93, "all distinct": 192, "constant days": 48}[grid]
    template = vacant_template(pop8)
    rng = np.random.default_rng(700)
    tokens = np.r_[np.arange(8), -1, -1]
    population = np.array([tokens[rng.permutation(10)] for _ in range(30)])
    population[0] = [-1, -1, -1, -1, -1, 0, 1, 2, 3, 4]  # an empty zone
    # state-grid rows, -1 vacant, of each zone's five desks
    rows = np.append(encoder.occupant_rows(template.occupants()), -1)[population]
    zone_rows = {"Z1": rows[:, :5], "Z2": rows[:, 5:]}
    expected = per_step_totals(model, states, zone_rows)
    assert np.array_equal(LayoutScorer(model, states).totals(population, template), expected)
    scorer = LayoutScorer(model, states)
    for k, want in enumerate(expected[:6]):
        layout = template.with_seat_row(population[k])
        assert total(scorer, layout) == want
        assert predict_energy(model, layout, states).grand_total == want
        # the features are the per-step keys' rows, step-major
        one_row = {z: r[k : k + 1] for z, r in zone_rows.items()}
        keys = per_step_keys(states, {"Z1": 0, "Z2": 1}, one_row)
        features = build_features(states, layout.by_zone()).features
        assert np.array_equal(features, encoder.decode(keys[0].T.ravel()))


def test_row_encoder_rejects_zone_counts_that_float64_cannot_hold_exactly():
    # a zone's counts part is a float64 product whose partial sums stay below
    # m**3, m = n_occupants + 1: at 208,063 occupants m**3 passes 2**53,
    # while one zone's 64-bit keys, 336 * m**3, still fit below 2**63
    def one_step(n_occ):
        states = (1 + np.arange(n_occ) % 3).astype(np.int8)[:, None]
        return StateGrid([f"o{i}" for i in range(n_occ)], T0, states)

    assert 208_063**3 <= 2**53 < 208_064**3 and 336 * 208_064**3 < 2**63
    why = r"exact zone counts: .* exceeds 2\*\*53, past which float64 skips integers"
    with pytest.raises(ValueError, match=why):
        _RowEncoder(one_step(208_063), {"Z1": 0})
    # at the largest office allowed, every occupant seated in one zone, the
    # counts part (about 2**53) still decodes to the exact state counts
    encoder = _RowEncoder(one_step(208_062), {"Z1": 0})
    rows = np.r_[np.arange(208_062), -1][None, :]
    keys = encoder.keys(rows, np.zeros(rows.shape[1], dtype=np.intp), ["Z1"])
    assert encoder.decode(keys.ravel())[0, :3].tolist() == [69_354.0] * 3


def reaches_the_model_once_per_distinct_row(scorer_case, pop8, growing: bool):
    base, _ = scorer_case
    model = copy.copy(base)
    seen = []
    predict_raw = model.predict_raw

    def counting(x):
        seen.extend(map(tuple, np.asarray(x)))
        return predict_raw(x)

    model.predict_raw = counting
    template = vacant_template(pop8)
    rng = np.random.default_rng(800)
    tokens = np.r_[np.arange(8), -1, -1]
    population = np.array([tokens[rng.permutation(10)] for _ in range(100)])
    scorer = LayoutScorer(model, pop8)
    if growing:
        scorer._memo = _KeyTable(slots=2)
        sizes = [2]
        store = scorer._memo.store

        def recording(keys, values, slot):
            store(keys, values, slot)
            sizes.append(scorer._memo.slots)

        scorer._memo.store = recording
    totals = scorer.totals(population, template)
    all_rows = {tuple(r) for row in population
                for r in build_features(pop8, template.with_seat_row(row).by_zone()).features}
    assert len(seen) == len(set(seen)) == len(all_rows) == scorer._memo.count
    assert set(seen) == all_rows
    if growing:  # the table doubled in at least two of the lookups
        assert sum(b > a for a, b in zip(sizes, sizes[1:])) >= 2
    for row, got in zip(population, totals):
        assert got == whole_table_total(base, template.with_seat_row(row), pop8)
    assert np.array_equal(scorer.totals(population, template), totals)
    assert len(seen) == len(all_rows)  # a scored population reaches the model no more


def test_population_reaches_the_model_once_per_distinct_row(scorer_case, pop8):
    reaches_the_model_once_per_distinct_row(scorer_case, pop8, growing=False)


def test_a_memo_growing_across_lookups_reaches_the_model_once_per_distinct_row(
    scorer_case, pop8, monkeypatch
):
    # 2 zones x 192 steps: three layouts a batch, then one, into a table of two slots
    for cells in (3 * 2 * pop8.n_steps, 1):
        monkeypatch.setattr(surrogate, "BATCH_CELLS", cells)
        reaches_the_model_once_per_distinct_row(scorer_case, pop8, growing=True)


def test_keys_on_one_slot_of_a_tiny_table_score_as_whole_tables(scorer_case, pop8, monkeypatch):
    model, _ = scorer_case
    template = vacant_template(pop8)
    rng = np.random.default_rng(820)
    tokens = np.r_[np.arange(8), -1, -1]
    population = np.array([tokens[rng.permutation(10)] for _ in range(6)])
    scorer = LayoutScorer(model, pop8)
    scorer._memo = _KeyTable(slots=4)
    # every key's home slot is slot 0: each probe walks the one cluster
    monkeypatch.setattr(scorer._memo, "_hash", lambda keys: np.zeros(keys.size, dtype=np.intp))
    for k in (1, 3, len(population)):
        totals = scorer.totals(population[:k], template)
        for row, got in zip(population[:k], totals):
            assert got == whole_table_total(model, template.with_seat_row(row), pop8)
    assert scorer._memo.slots > 4


def test_key_table_walks_a_shared_home_slot_past_the_end():
    table = _KeyTable(slots=8)
    candidates = np.arange(1, 2000, dtype=np.int64)
    # keys whose home is the last slot: their probes wrap round to slot 0
    last = candidates[table._hash(candidates) == 7][:5]
    assert last.size == 5
    slot, hit = table.probe(last)
    assert not hit.any() and np.all(slot == 7)
    table.store(last[:3], np.array([1.0, 2.0, 3.0]), slot[:3])
    assert table.slots == 8 and table.count == 3
    slot, hit = table.probe(last)
    assert hit.tolist() == [True, True, True, False, False]
    assert sorted(slot[:3].tolist()) == [0, 1, 7] and slot[3:].tolist() == [2, 2]
    assert table.values(slot[:3]).tolist() == [1.0, 2.0, 3.0]
    # two keys whose probes end on one slot; five keys pass half full, so
    # the table doubles and rehashes first
    table.store(last[3:], np.array([4.0, 5.0]), slot[3:])
    assert table.slots == 16 and table.count == 5
    slot, hit = table.probe(np.r_[last, 0])
    assert hit.tolist() == [True] * 5 + [False]
    assert table.values(slot[:5]).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    # without growth, keys whose probes end on one slot each find a free one
    more = candidates[table._hash(candidates) == 3][:3]
    slot, hit = table.probe(more)
    assert not hit.any() and len(set(slot.tolist())) == 1
    table.store(more, np.array([6.0, 7.0, 8.0]), slot)
    assert table.slots == 16 and table.count == 8
    slot, hit = table.probe(more)
    assert hit.all() and table.values(slot).tolist() == [6.0, 7.0, 8.0]


# ---------------------------------------------------------------- persistence


def test_mlr_json_round_trip(tmp_path):
    table = random_table(n_days=2, seed=32)
    rng = np.random.default_rng(33)
    y = rng.normal(size=table.n_rows)
    model = fit_mlr(table, y)
    save_model(model, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert isinstance(back, MlrModel)
    np.testing.assert_array_equal(back.predict_rows(table), model.predict_rows(table))


def test_rf_json_round_trip(tmp_path):
    table = random_table(n_days=1, seed=34)
    rng = np.random.default_rng(35)
    y = rng.normal(size=table.n_rows)
    model = fit_random_forest(table, y, RfConfig(n_trees=4), seed=6)
    save_model(model, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert isinstance(back, RfModel)
    np.testing.assert_array_equal(back.predict_rows(table), model.predict_rows(table))


def test_targets_align_with_lighting_table(pop8):
    zones = {"Z1": pop8.occupants[:4], "Z2": pop8.occupants[4:]}
    table = build_features(pop8, zones)
    lt = synth.oracle_lighting_table(zones, pop8, synth.LightingOracleConfig())
    y = targets_from_lighting(table, lt)
    # four quarter-hour rows share each hourly value equally
    first_hour_rows = y[table.hour_epoch == table.hour_epoch[0]]
    z1 = first_hour_rows[::2]
    assert np.all(z1 == z1[0])
    assert z1[0] * 4 == pytest.approx(lt.records[("Z1", int(table.hour_epoch[0]))])
    # every row against a per-row lookup
    names = [table.zone_order[int(z)] for z in table.features[:, 6]]
    expected = [lt.records[(z, int(h))] / 4.0 for z, h in zip(names, table.hour_epoch)]
    np.testing.assert_array_equal(y, expected)

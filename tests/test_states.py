"""State inference: variational GMM fitting and two-step labeling."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneplan.ingest import InputError, TimeSeriesGrid
from zoneplan.states import (
    StateConfig,
    VbGmmModel,
    VbGmmPriors,
    effective_components,
    fit_vbgmm,
    infer_states_detailed,
    load_states,
    write_states,
)

UTC = timezone.utc
T0 = datetime(2018, 1, 1, tzinfo=UTC)


def grid_of(rows: dict[str, np.ndarray]) -> TimeSeriesGrid:
    occupants = list(rows)
    values = np.vstack([rows[o] for o in occupants])
    return TimeSeriesGrid(occupants, T0, values.astype(np.float64))


# ---------------------------------------------------------------- vb-gmm


def test_recovers_two_well_separated_clusters():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0, 0.5, 500), rng.normal(10, 0.5, 500)])
    model = fit_vbgmm(x, seed=0)
    assert effective_components(model) == 2
    live = model.weights >= 1e-2
    means = np.sort(model.means[live])
    assert abs(means[0] - 0.0) < 0.3
    assert abs(means[1] - 10.0) < 0.3


def test_constant_series_degenerates_to_single_component():
    model = fit_vbgmm(np.full(200, 5.0), seed=0)
    assert model.degenerate
    assert effective_components(model) == 1
    live = int(np.argmax(model.weights))
    assert model.means[live] == pytest.approx(5.0)


def test_single_gaussian_keeps_one_component():
    rng = np.random.default_rng(3)
    x = rng.normal(3.0, 1.0, 800)
    model = fit_vbgmm(x, seed=0)
    assert effective_components(model) == 1


def test_extreme_weight_floor_prunes_everything():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(0, 0.5, 300), rng.normal(10, 0.5, 300)])
    model = fit_vbgmm(x, seed=0)
    # no component can hold all the mass, so a floor of 1.0 removes all
    assert effective_components(model, weight_floor=1.0) == 0


def test_elbo_non_decreasing():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(2, 1, 400), rng.normal(40, 3, 300), rng.normal(90, 4, 300)])
    model = fit_vbgmm(x, seed=0)
    trace = np.asarray(model.elbo_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) >= -1e-6)


def test_weights_form_distribution():
    rng = np.random.default_rng(6)
    model = fit_vbgmm(rng.uniform(0, 50, 500), seed=0)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.weights >= 0)


def test_non_finite_samples_rejected():
    with pytest.raises(ValueError):
        fit_vbgmm(np.array([1.0, np.nan, 3.0]))


def test_determinism_same_seed_same_model():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 80, 400)
    a = fit_vbgmm(x, seed=9)
    b = fit_vbgmm(x, seed=9)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.elbo_trace == b.elbo_trace


def test_model_json_round_trip():
    rng = np.random.default_rng(8)
    model = fit_vbgmm(rng.uniform(0, 30, 300), seed=1)
    back = VbGmmModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.degenerate == model.degenerate


# ---------------------------------------------------------------- labeling


def test_three_tight_clusters_label_one_two_three():
    rng = np.random.default_rng(10)
    t = 960
    row = np.empty(t)
    third = t // 3
    row[:third] = rng.normal(2, 0.1, third)
    row[third : 2 * third] = rng.normal(40, 0.5, third)
    row[2 * third :] = rng.normal(90, 0.5, t - 2 * third)
    sg = infer_states_detailed(grid_of({"O1": row}))[0]
    states = sg.states[0]
    assert set(np.unique(states)) == {1, 2, 3}
    assert np.all(states[:third] == 1)
    assert np.all(states[third : 2 * third] == 2)
    assert np.all(states[2 * third :] == 3)


def test_constant_low_power_is_all_absent():
    sg = infer_states_detailed(grid_of({"O1": np.full(96, 2.0)}))[0]
    assert np.all(sg.states[0] == 1)


def test_constant_high_power_is_all_active():
    sg = infer_states_detailed(grid_of({"O1": np.full(96, 80.0)}))[0]
    assert np.all(sg.states[0] == 3)


def test_two_level_series_skips_middle_state():
    rng = np.random.default_rng(11)
    row = np.concatenate([rng.normal(2, 0.1, 288), rng.normal(80, 0.5, 288)])
    sg = infer_states_detailed(grid_of({"O1": row}))[0]
    states = sg.states[0]
    assert set(np.unique(states)) == {1, 3}


def test_labels_monotone_in_power():
    rng = np.random.default_rng(12)
    row = np.concatenate(
        [rng.normal(2, 0.2, 192), rng.normal(35, 1, 192), rng.normal(95, 1, 192)]
    )
    sg = infer_states_detailed(grid_of({"O1": row}))[0]
    states = sg.states[0]
    # sorting by power must never decrease the state label
    order = np.argsort(row)
    assert np.all(np.diff(states[order]) >= 0)


def test_scaling_invariance_with_derived_priors():
    rng = np.random.default_rng(13)
    row = np.concatenate([rng.normal(3, 0.3, 288), rng.normal(60, 2, 288)])
    sg1 = infer_states_detailed(grid_of({"O1": row}))[0]
    sg10 = infer_states_detailed(grid_of({"O1": row * 10.0}))[0]
    np.testing.assert_array_equal(sg1.states, sg10.states)


def test_detailed_fit_reports_rules():
    sg, fits = infer_states_detailed(
        TimeSeriesGrid(
            ["lo", "hi"],
            T0,
            np.vstack([np.full(96, 1.0), np.full(96, 70.0)]),
        ),
        StateConfig(),
    )
    rules = {f.occupant_id: f.rule for f in fits}
    assert rules["lo"] == "single-low"
    assert rules["hi"] == "single-high"


def test_infer_states_deterministic_per_occupant_order():
    # per-occupant seeds derive from the occupant's position, so the same
    # rows in the same order produce identical labels
    rng = np.random.default_rng(14)
    rows = {f"O{i}": rng.uniform(0, 60, 192) for i in range(3)}
    a = infer_states_detailed(grid_of(rows))[0]
    b = infer_states_detailed(grid_of(rows))[0]
    np.testing.assert_array_equal(a.states, b.states)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fit_never_crashes_on_uniform_noise(seed):
    rng = np.random.default_rng(seed)
    model = fit_vbgmm(rng.uniform(0, 100, 200), seed=0)
    assert np.isfinite(model.weights).all()


# ---------------------------------------------------------------- round trip


def test_states_csv_round_trip(tmp_path, pop8):
    write_states(pop8, tmp_path / "s.csv")
    back = load_states(tmp_path / "s.csv")
    assert back.occupants == pop8.occupants
    assert back.start == pop8.start
    np.testing.assert_array_equal(back.states, pop8.states)


@pytest.mark.parametrize(
    "bad_row, message",
    [("O1,2018-01-01T00:15:00Z,x", "state must be 1, 2, or 3"),
     ("O1,2018-01-01T00:15:00Z,4", "state must be 1, 2, or 3"),
     ("O1,2018-13-01T00:15:00Z,1", "bad timestamp")],
)
def test_load_states_errors_name_file_and_line(tmp_path, bad_row, message):
    path = tmp_path / "s.csv"
    path.write_text(
        "# comment\noccupant_id,timestamp,state\nO1,2018-01-01T00:00:00Z,1\n"
        f"{bad_row}\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=message) as info:
        load_states(path)
    assert str(info.value).startswith(f"{path}:4: ")

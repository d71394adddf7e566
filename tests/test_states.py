"""State inference: variational GMM fitting and two-step labeling."""

import concurrent.futures
import multiprocessing
import os
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, logsumexp

from zoneplan import states as states_mod
from zoneplan.ingest import STEP_SECONDS, InputError, TimeSeriesGrid, format_timestamp
from zoneplan.states import (
    _LN_2PI,
    StateConfig,
    StateGrid,
    VbGmmModel,
    WeightFloorError,
    VbGmmPriors,
    _degenerate_model,
    _exp,
    converged,
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
    assert np.count_nonzero(model.weights >= 1e-2) == 2
    live = model.weights >= 1e-2
    means = np.sort(model.means[live])
    assert abs(means[0] - 0.0) < 0.3
    assert abs(means[1] - 10.0) < 0.3


def test_constant_series_degenerates_to_single_component():
    model = fit_vbgmm(np.full(200, 5.0), seed=0)
    assert model.degenerate
    assert np.count_nonzero(model.weights >= 1e-2) == 1
    live = int(np.argmax(model.weights))
    assert model.means[live] == pytest.approx(5.0)


def test_single_gaussian_keeps_one_component():
    rng = np.random.default_rng(3)
    x = rng.normal(3.0, 1.0, 800)
    model = fit_vbgmm(x, seed=0)
    assert np.count_nonzero(model.weights >= 1e-2) == 1


def test_extreme_weight_floor_prunes_everything():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(0, 0.5, 300), rng.normal(10, 0.5, 300)])
    model = fit_vbgmm(x, seed=0)
    # no component can hold all the mass, so a floor of 1.0 removes all
    assert np.count_nonzero(model.weights >= 1.0) == 0


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


# ---------------------------------------------------------------- kernel vs reference


def reference_kl_dirichlet(alpha: np.ndarray, alpha0: float) -> float:
    k = alpha.size
    a0 = np.full(k, alpha0)
    total = alpha.sum()
    return float(
        gammaln(total)
        - gammaln(k * alpha0)
        + np.sum(gammaln(a0) - gammaln(alpha))
        + np.sum((alpha - a0) * (digamma(alpha) - digamma(total)))
    )


def reference_kl_normal_gamma(
    m: np.ndarray, beta: np.ndarray, a: np.ndarray, b: np.ndarray, priors: VbGmmPriors
) -> float:
    m0, beta0, a0, b0 = priors.mean, priors.mean_scale, priors.shape, priors.rate
    kl_mean = 0.5 * (
        np.log(beta / beta0) - 1.0 + beta0 / beta + beta0 * (a / b) * (m - m0) ** 2
    )
    kl_gamma = (
        (a - a0) * digamma(a) - gammaln(a) + gammaln(a0) + a0 * (np.log(b) - np.log(b0)) + a * (b0 - b) / b
    )
    return float(np.sum(kl_mean + kl_gamma))


def reference_log_rho(x, alpha, beta, m, a, b) -> np.ndarray:
    """Sample-major (n, k) unnormalized log responsibilities (Bishop, PRML 10.46)."""
    e_log_weight = digamma(alpha) - digamma(alpha.sum())
    e_log_prec = digamma(a) - np.log(b)
    e_prec = a / b
    diff = x[:, None] - m[None, :]
    return (e_log_weight + 0.5 * e_log_prec - 0.5 * _LN_2PI)[None, :] - 0.5 * (
        e_prec[None, :] * diff**2 + 1.0 / beta[None, :]
    )


def reference_fit_vbgmm(
    samples: np.ndarray,
    k_max: int = 10,
    priors: VbGmmPriors | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
    seed: int = 0,
) -> VbGmmModel:
    """Sample-major (n, k_max) VB-GMM iteration with scipy's logsumexp.

    The reference the component-major fit_vbgmm is checked against; its KL
    terms recompute digamma and log from the parameters on their own.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    base_priors = priors if priors is not None else VbGmmPriors()
    resolved = base_priors.resolve(x)
    if np.all(x == x[0]):
        return _degenerate_model(float(x[0]), x.size, resolved, k_max, seed)

    n = x.size
    alpha0, m0, beta0, a0, b0 = (
        resolved.concentration,
        resolved.mean,
        resolved.mean_scale,
        resolved.shape,
        resolved.rate,
    )

    rng = np.random.default_rng(seed)
    std = float(np.std(x))
    init_means = np.quantile(x, (np.arange(k_max) + 0.5) / k_max)
    init_means = init_means + rng.normal(0.0, 0.01 * std, size=k_max)
    var = max(std**2, np.finfo(float).tiny)
    log_r = -0.5 * (x[:, None] - init_means[None, :]) ** 2 / var
    log_r -= logsumexp(log_r, axis=1, keepdims=True)
    resp = np.exp(log_r)

    tiny = np.finfo(float).tiny
    alpha = beta = m = a = b = None
    elbo_trace: list[float] = []

    def m_step(r):
        nk = r.sum(axis=0)
        nk_safe = np.maximum(nk, tiny)
        xbar = (r * x[:, None]).sum(axis=0) / nk_safe
        sk = (r * (x[:, None] - xbar[None, :]) ** 2).sum(axis=0) / nk_safe
        alpha = alpha0 + nk
        beta = beta0 + nk
        m = (beta0 * m0 + nk * xbar) / beta
        a = a0 + nk / 2.0
        b = b0 + 0.5 * (nk * sk + beta0 * nk * (xbar - m0) ** 2 / (beta0 + nk))
        return alpha, beta, m, a, b

    alpha, beta, m, a, b = m_step(resp)
    for _ in range(max_iter):
        log_rho = reference_log_rho(x, alpha, beta, m, a, b)
        lse = logsumexp(log_rho, axis=1)
        resp = np.exp(log_rho - lse[:, None])
        elbo = float(lse.sum()) - reference_kl_dirichlet(alpha, alpha0) - reference_kl_normal_gamma(
            m, beta, a, b, resolved
        )
        elbo_trace.append(elbo)
        if len(elbo_trace) >= 2 and elbo - elbo_trace[-2] < tol:
            break
        alpha, beta, m, a, b = m_step(resp)

    return VbGmmModel(
        k_max=k_max,
        weights=alpha / alpha.sum(),
        means=m.copy(),
        precisions=a / b,
        dirichlet_concentration=alpha,
        mean_location=m,
        mean_scale=beta,
        gamma_shape=a,
        gamma_rate=b,
        elbo_trace=elbo_trace,
        priors=resolved,
        seed=seed,
        n_samples=n,
        degenerate=False,
    )


MODEL_ARRAYS = (
    "weights", "means", "precisions", "dirichlet_concentration", "mean_location",
    "mean_scale", "gamma_shape", "gamma_rate",
)


def _three_levels(rng, n):
    sizes = (n // 2, n // 4, n - n // 2 - n // 4)
    return np.concatenate(
        [rng.normal(2, 0.3, sizes[0]), rng.normal(40, 2, sizes[1]), rng.normal(90, 4, sizes[2])]
    )


def _two_far_clusters(rng, n):
    return np.concatenate([rng.normal(0, 1, n // 2), rng.normal(50, 1, n - n // 2)])


KERNEL_CASES = {
    "k_max=2": (lambda rng: _three_levels(rng, 700), dict(k_max=2)),
    "k_max=10": (lambda rng: _three_levels(rng, 2016), dict(k_max=10)),
    "k_max=12": (lambda rng: _three_levels(rng, 700), dict(k_max=12)),
    "n<k_max": (lambda rng: rng.uniform(0, 50, 5), dict(k_max=10)),
    "near-constant": (lambda rng: 5.0 + 1e-9 * rng.standard_normal(300), dict(k_max=10)),
    # components die (log densities far below every sample's maximum)
    "far prior mean": (
        lambda rng: _two_far_clusters(rng, 400),
        dict(k_max=12, priors=VbGmmPriors(concentration=1.0, mean=1e6, rate=1e-10)),
    ),
    # components reset to the prior share one row, tied for the maximum
    "tied maxima": (
        lambda rng: np.concatenate([rng.normal(0, 1, 50), rng.normal(100, 1, 50)]),
        dict(
            k_max=10,
            priors=VbGmmPriors(concentration=30.0, mean=0.0, mean_scale=1e-3, rate=1e-7),
        ),
    ),
    # more than 128 components
    "k_max=200": (lambda rng: rng.uniform(0, 50, 300), dict(k_max=200, max_iter=10)),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_fit_matches_the_sample_major_reference(case):
    make, kwargs = KERNEL_CASES[case]
    seed = list(KERNEL_CASES).index(case)
    x = make(np.random.default_rng(100 + seed))
    kwargs = {"max_iter": 400, **kwargs}
    got = fit_vbgmm(x, seed=seed, **kwargs)
    want = reference_fit_vbgmm(x, seed=seed, **kwargs)
    assert len(got.elbo_trace) == len(want.elbo_trace)
    np.testing.assert_allclose(got.elbo_trace, want.elbo_trace, rtol=1e-12, atol=0)
    for name in MODEL_ARRAYS:
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=0, err_msg=name
        )


def test_exp_equals_np_exp_bit_for_bit():
    # underflowing, subnormal and zero results included
    a = np.concatenate([np.linspace(-800.0, 5.0, 20001), [-745.1332, -745.1333, -708.4, -np.inf]])
    a = np.stack([a, a[::-1]])
    got = a.copy()
    _exp(got, np.empty(a.shape, dtype=bool), np.empty(a.shape, dtype=bool))
    assert np.array_equal(got, np.exp(a))
    assert np.count_nonzero((got > 0) & (got < np.finfo(float).tiny)) > 0


def test_converged_tells_the_tol_stop_from_max_iter():
    x = _three_levels(np.random.default_rng(20), 600)
    assert converged(fit_vbgmm(x, seed=0), tol=1e-6)
    stopped = fit_vbgmm(x, seed=0, max_iter=3)
    assert len(stopped.elbo_trace) == 3
    assert not converged(stopped, tol=1e-6)
    assert converged(fit_vbgmm(np.full(50, 4.0)), tol=1e-6)


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


# ---------------------------------------------------------------- worker pool


def _rule_grid() -> TimeSeriesGrid:
    """Five occupants whose fits take the single-low, single-high, two-step,
    two-step/high-only and two-step-merged rules."""
    rng = np.random.default_rng(10)
    low = rng.normal(2, 0.1, 480)
    return grid_of({
        "lo": np.full(960, 1.0),
        "hi": np.full(960, 70.0),
        "spread": np.concatenate([low, rng.uniform(40, 90, 480)]),
        "one-high": np.concatenate([low, rng.normal(80, 0.5, 480)]),
        "three": np.concatenate([low[:320], rng.normal(40, 0.5, 320), rng.normal(90, 0.5, 320)]),
    })


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on; record the worker pools opened."""
    pools = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)

    def use(n: int) -> list[int]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        pools.clear()
        return pools

    return use


def test_the_worker_count_does_not_change_states_or_fits(cpus):
    grid = _rule_grid()
    runs = {}
    for n in (1, 2, 8):
        pools = cpus(n)
        runs[n] = infer_states_detailed(grid)
        # one worker fits in this process; more open one pool of at most one per occupant
        assert pools == ([] if n == 1 else [min(n, len(grid.occupants))])
        assert multiprocessing.active_children() == []
    serial_states, serial_fits = runs[1]
    assert [f.rule for f in serial_fits] == [
        "single-low", "single-high", "two-step", "two-step/high-only", "two-step-merged"]
    for sg, fits in (runs[2], runs[8]):
        assert sg.occupants == serial_states.occupants
        np.testing.assert_array_equal(sg.states, serial_states.states)
        for a, b in zip(fits, serial_fits, strict=True):
            assert (a.occupant_id, a.rule) == (b.occupant_id, b.rule)
            assert a.first.to_dict() == b.first.to_dict()
            assert (a.second is None) == (b.second is None)
            assert a.second is None or a.second.to_dict() == b.second.to_dict()


def test_a_later_occupants_weight_floor_error_is_the_serial_one(cpus):
    # a constant series keeps its one component's full weight; a two-level
    # series gives no first-pass component 90 % of it, and two of them fail
    rng = np.random.default_rng(3)
    two_levels = np.concatenate([rng.normal(2, 0.1, 48), rng.normal(80, 0.5, 48)])
    grid = grid_of({"a": np.full(96, 1.0), "b": np.full(96, 70.0), "c": two_levels,
                    "d": two_levels[::-1].copy()})
    cfg = StateConfig(weight_floor=0.9)
    messages = {}
    for n in (1, 2):
        pools = cpus(n)
        with pytest.raises(WeightFloorError) as caught:
            infer_states_detailed(grid, cfg)
        messages[n] = str(caught.value)
        assert pools == ([] if n == 1 else [2])
        assert multiprocessing.active_children() == []
    assert messages[1].startswith("no component of occupant c's first-pass fit has weight >= 0.9")
    assert messages[2] == messages[1]


def reference_high_group(model, x, weight_floor, idle_threshold_w, name):
    """states._high_group from the sample-major E-step and a search over every cut."""
    keep = [k for k in range(model.weights.size) if model.weights[k] >= weight_floor]
    if not keep:
        raise WeightFloorError(name)
    if len(keep) == 1:
        return 1, None
    log_rho = reference_log_rho(
        x, model.dirichlet_concentration, model.mean_scale, model.mean_location,
        model.gamma_shape, model.gamma_rate,
    )
    comp = [keep[int(np.argmax(row[keep]))] for row in log_rho]
    order = sorted(keep, key=lambda k: model.means[k])  # stable: equal means keep index order
    means = [model.means[k] for k in order]
    cuts = [c for c in range(1, len(order)) if means[c - 1] < idle_threshold_w]
    # the widest gap, the lowest cut among equal gaps
    cut = max(cuts or range(1, len(order)), key=lambda c: (means[c] - means[c - 1], -c))
    return len(keep), np.array([k in order[cut:] for k in comp])


@pytest.mark.parametrize("max_iter", [5000, 3])
def test_labels_match_a_sample_major_reference(monkeypatch, cpus, max_iter):
    # max_iter=3 stops every non-constant fit early: labels then come from
    # the returned parameters, an M-step that was never E-stepped
    grid = _rule_grid()
    cfg = StateConfig(max_iter=max_iter)
    cpus(1)
    got_states, got_fits = infer_states_detailed(grid, cfg)
    monkeypatch.setattr(states_mod, "_high_group", reference_high_group)
    want_states, want_fits = infer_states_detailed(grid, cfg)
    np.testing.assert_array_equal(got_states.states, want_states.states)
    for got, want in zip(got_fits, want_fits, strict=True):
        assert (got.occupant_id, got.rule) == (want.occupant_id, want.rule)
        assert got.first.to_dict() == want.first.to_dict()
        assert (got.second is None) == (want.second is None)
        assert got.second is None or got.second.to_dict() == want.second.to_dict()
    if max_iter == 3:
        assert not any(converged(f.first, cfg.tol) for f in got_fits[2:])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fit_never_crashes_on_uniform_noise(seed):
    rng = np.random.default_rng(seed)
    model = fit_vbgmm(rng.uniform(0, 100, 200), seed=0)
    assert np.isfinite(model.weights).all()


# ---------------------------------------------------------------- round trip


@pytest.mark.parametrize(
    "start, crossed",
    [("2019-12-31T22:00:00Z", "2020-01-01T00:00:00Z"),
     ("2020-02-28T00:00:00Z", "2020-02-29T23:45:00Z")],
)
def test_write_states_bytes_match_per_row_formatting(tmp_path, start, crossed):
    # the shared timeline is formatted once; each row must read as if it
    # were formatted on its own, across a year end and a leap day
    t0 = datetime.fromisoformat(start.replace("Z", "+00:00"))
    rng = np.random.default_rng(0)
    grid = StateGrid(["O1", "O2"], t0, rng.integers(1, 4, (2, 2 * 96)).astype(np.int8))
    write_states(grid, tmp_path / "s.csv", header_comment="h")
    epochs = int(t0.timestamp()) + STEP_SECONDS * np.arange(grid.n_steps)
    rows = [
        f"{occ},{format_timestamp(t)},{int(s)}\n"
        for i, occ in enumerate(grid.occupants)
        for t, s in zip(epochs, grid.states[i])
    ]
    expected = "# h\noccupant_id,timestamp,state\n" + "".join(rows)
    assert f",{crossed}," in expected
    assert (tmp_path / "s.csv").read_bytes() == expected.encode("utf-8")


def test_states_csv_round_trips_an_occupant_id_with_a_comma(tmp_path):
    grid = StateGrid(["desk 1, left", "O2"], T0, np.ones((2, 96), dtype=np.int8))
    write_states(grid, tmp_path / "s.csv")
    assert load_states(tmp_path / "s.csv").occupants == grid.occupants


@pytest.mark.parametrize("bad_id", [" O1", "O1 ", "O\t1\n", ""])
def test_write_states_refuses_an_id_that_would_not_read_back(tmp_path, bad_id):
    # the reader strips every field and rejects empty ids, so ' O1' would
    # come back as 'O1', or merge with an 'O1' and fail as non-monotone
    grid = StateGrid(["O1", bad_id], T0, np.ones((2, 96), dtype=np.int8))
    with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
        write_states(grid, tmp_path / "s.csv")
    spaced = StateGrid(["O1", "desk 2, left", "a b"], T0, np.ones((3, 96), dtype=np.int8))
    write_states(spaced, tmp_path / "s.csv")  # inner spaces read back as written
    assert load_states(tmp_path / "s.csv").occupants == spaced.occupants


def test_states_csv_round_trips_a_hash_leading_occupant_id(tmp_path):
    # comments come only before the header, so a '#' id after it is data
    grid = StateGrid(["#1", "O2"], T0, np.array([[1, 2, 3] * 32, [3, 2, 1] * 32], dtype=np.int8))
    write_states(grid, tmp_path / "s.csv", header_comment="h")
    back = load_states(tmp_path / "s.csv")
    assert back.occupants == grid.occupants
    np.testing.assert_array_equal(back.states, grid.states)


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

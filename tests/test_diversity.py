"""Diversity metrics and the diversity-energy regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zoneplan import synth
from zoneplan.diversity import (
    DegenerateRegressor,
    daily_zone_diversity,
    distance_matrix,
    layout_diversity,
    ols_regress,
    student_t_two_tailed_p,
    write_regression_csv,
    zone_diversity,
)
from zoneplan.states import StateGrid

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=64)


# ---------------------------------------------------------------- distances


def distance(a: np.ndarray, b: np.ndarray) -> float:
    return distance_matrix(np.vstack([a, b]))[0, 1]


def test_identical_vectors_distance_zero():
    v = np.array([1.0, 2.0, 3.0])
    assert distance(v, v) == 0.0


def test_unit_square_diagonal():
    assert distance(np.array([1.0, 1.0]), np.array([3.0, 3.0])) == pytest.approx(
        np.sqrt(8.0), abs=1e-12
    )


def test_reversed_vector_distance():
    a = np.array([1.0, 2.0, 3.0])
    assert distance(a, a[::-1]) == pytest.approx(np.sqrt(8.0), abs=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        zone_diversity([np.zeros(3), np.zeros(4)])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, 4, elements=finite), arrays(np.float64, 4, elements=finite))
def test_distance_symmetric(a, b):
    assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, 3, elements=finite),
    arrays(np.float64, 3, elements=finite),
    arrays(np.float64, 3, elements=finite),
)
def test_triangle_inequality(a, b, c):
    ab = distance(a, b)
    bc = distance(b, c)
    ac = distance(a, c)
    assert ac <= ab + bc + 1e-9


def test_distance_matrix_zero_diagonal_symmetric():
    # bit for bit: the swap search reads d[i, a] for d[a, i]
    rng = np.random.default_rng(0)
    for rows in (rng.normal(size=(6, 4)), rng.normal(scale=50.0, size=(164, 30)),
                 rng.integers(0, 3, (40, 96)).astype(float)):
        d = distance_matrix(rows)
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d.view(np.int64), d.T.view(np.int64))


@pytest.mark.parametrize("n, t", [(1, 5), (5, 1), (12, 96), (164, 3), (9, 2688), (4, 0)])
def test_distance_matrix_equals_scipy_cdist(n, t):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(n * 10_000 + t)
    for rows in (rng.normal(scale=50.0, size=(n, t)), rng.integers(1, 4, (n, t)).astype(float)):
        expected = cdist(rows, rows)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(distance_matrix(rows), expected)


# ---------------------------------------------------------------- zone diversity


def test_two_occupants_diversity_is_their_distance():
    a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    assert zone_diversity([a, b]) == pytest.approx(5.0, abs=1e-12)


def test_identical_occupants_zero():
    v = np.array([2.0, 2.0])
    assert zone_diversity([v, v, v, v]) == 0.0


def test_three_scalar_occupants():
    # distances 1, 3, 2 summed twice over 3*2 ordered pairs
    vals = [np.array([0.0]), np.array([1.0]), np.array([3.0])]
    assert zone_diversity(vals) == pytest.approx(2.0, abs=1e-12)


def test_single_occupant_zone_is_zero():
    assert zone_diversity([np.array([5.0, 5.0])]) == 0.0


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (4, 3), elements=finite), st.permutations(range(4)))
def test_zone_diversity_permutation_invariant(rows, perm):
    assert zone_diversity(rows) == pytest.approx(zone_diversity(rows[list(perm)]), rel=1e-9, abs=1e-9)


def test_layout_diversity_sums_zones():
    vectors = {
        "a": np.array([0.0]),
        "b": np.array([1.0]),
        "c": np.array([10.0]),
        "d": np.array([14.0]),
    }
    report = layout_diversity({"Z1": ["a", "b"], "Z2": ["c", "d"]}, vectors)
    assert report.per_zone["Z1"] == pytest.approx(1.0)
    assert report.per_zone["Z2"] == pytest.approx(4.0)
    assert report.total == pytest.approx(5.0)


def test_layout_diversity_missing_vector_rejected():
    with pytest.raises(ValueError, match="c"):
        layout_diversity({"Z1": ["a", "c"]}, {"a": np.array([0.0])})


def test_swap_only_touches_two_zones():
    rng = np.random.default_rng(1)
    vectors = {f"o{i}": rng.normal(size=5) for i in range(9)}
    zones_a = {"Z1": ["o0", "o1", "o2"], "Z2": ["o3", "o4", "o5"], "Z3": ["o6", "o7", "o8"]}
    # swap o0 and o3; Z3's term must be bit-identical
    zones_b = {"Z1": ["o3", "o1", "o2"], "Z2": ["o0", "o4", "o5"], "Z3": ["o6", "o7", "o8"]}
    ra = layout_diversity(zones_a, vectors)
    rb = layout_diversity(zones_b, vectors)
    assert ra.per_zone["Z3"] == rb.per_zone["Z3"]


# ---------------------------------------------------------------- regression


def test_exact_linear_fit():
    r = ols_regress(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
    assert r.slope == pytest.approx(2.0)
    assert r.intercept == pytest.approx(0.0)
    assert r.r_squared == pytest.approx(1.0)
    assert r.exact_fit
    assert r.p_value == 0.0
    assert r.slope_std_err == 0.0


def test_constant_response():
    r = ols_regress(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 7.0))
    assert r.slope == pytest.approx(0.0)
    assert r.r_squared == pytest.approx(0.0)


def test_constant_predictor_raises_degenerate():
    with pytest.raises(DegenerateRegressor):
        ols_regress(np.full(5, 3.0), np.arange(5.0))


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        ols_regress(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_known_inexact_fit():
    # frozen from the closed-form normal equations and the t CDF identity
    r = ols_regress(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0, 6.0]))
    assert r.slope == pytest.approx(1.4, abs=1e-12)
    assert r.intercept == pytest.approx(0.9, abs=1e-12)
    assert r.slope_std_err == pytest.approx(0.6480740698407861, rel=1e-12)
    assert r.t_statistic == pytest.approx(2.1602468994692869, rel=1e-12)
    assert r.p_value == pytest.approx(0.16333997346592444, rel=1e-10)
    assert r.r_squared == pytest.approx(0.7, abs=1e-12)
    assert r.n == 4
    assert not r.exact_fit


def test_p_value_matches_independent_formula():
    # dof=1: two-tailed p has the closed form 1 - (2/pi) * arctan(|t|)
    t = 2.5
    expected = 1.0 - 2.0 / np.pi * np.arctan(t)
    assert student_t_two_tailed_p(t, 1) == pytest.approx(expected, rel=1e-12)


def test_p_value_symmetric_and_bounded():
    assert student_t_two_tailed_p(0.0, 5) == pytest.approx(1.0)
    assert student_t_two_tailed_p(3.0, 5) == pytest.approx(student_t_two_tailed_p(-3.0, 5))
    assert 0.0 < student_t_two_tailed_p(10.0, 5) < 1e-3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=30),
    st.randoms(use_true_random=False),
)
def test_r_squared_is_squared_pearson(xs, rnd):
    x = np.asarray(xs)
    # sub-normal spread underflows the variance, which is a legitimate
    # DegenerateRegressor case rather than an r-squared identity case
    if np.ptp(x) < 1e-6:
        return
    y = np.array([v * 2.0 + rnd.uniform(-5, 5) for v in x])
    if np.ptp(y) < 1e-6:
        return
    r = ols_regress(x, y)
    pearson = np.corrcoef(x, y)[0, 1]
    assert r.r_squared == pytest.approx(pearson**2, rel=1e-9, abs=1e-9)


def test_daily_zone_diversity_is_zone_diversity_of_each_day():
    pop = synth.generate_population((2, 2, 2, 2), 3, seed=4, jitter_minutes=30)
    zones = {"Z2": pop.occupants[:5], "Z1": pop.occupants[5:], "Z3": []}
    zone_order, daily = daily_zone_diversity(pop, zones)
    assert zone_order == ["Z1", "Z2", "Z3"]
    assert daily.shape == (3, 3)
    for j, zone_id in enumerate(zone_order[:2]):
        rows = pop.states[[pop.occupants.index(o) for o in zones[zone_id]]].astype(float)
        for d in range(3):
            assert daily[j, d] == zone_diversity(rows[:, d * 96 : (d + 1) * 96])
    assert np.all(daily[2] == 0.0)


def test_daily_zone_diversity_rejects_a_partial_day():
    full = synth.generate_population((1, 1, 1, 1), 2, seed=0)
    pop = StateGrid(full.occupants, full.start, full.states[:, :100])
    with pytest.raises(ValueError, match="100 steps do not cover whole days"):
        daily_zone_diversity(pop, {"Z1": pop.occupants})


def test_regression_csv_notes_a_degenerate_zone_before_the_header(tmp_path):
    fit = ols_regress(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 4.0]))
    results = [("Z1", fit), ("Z2", None), ("Z\n3", None)]
    write_regression_csv(results, tmp_path / "r.csv", header_comment="h")
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    # a line break in a note's zone id starts another comment line
    assert lines[:5] == [
        "# h",
        "# Z2: degenerate regressor (constant diversity)",
        "# Z",
        "# 3: degenerate regressor (constant diversity)",
        "zone_id,slope,std_err,t,p,r2,n",
    ]
    assert [line.split(",")[0] for line in lines[5:]] == ["Z1"]

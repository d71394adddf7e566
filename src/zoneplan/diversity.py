"""Schedule diversity metrics and the diversity-vs-energy regression.

Zone diversity is the mean pairwise Euclidean distance between the
schedule vectors of a zone's occupants.  The regression is plain OLS of
energy on diversity with slope t-statistics and two-tailed p-values.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .ingest import STEPS_PER_DAY, _write_rows
from .states import StateGrid


class DegenerateRegressor(ValueError):
    """Raised when the regressor is constant and OLS has no unique slope."""


def distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix for stacked schedule rows (N x T)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of stacked schedules")
    d = np.zeros((rows.shape[0], rows.shape[0]))
    if rows.shape[1] == 0:
        return d
    for i, row in enumerate(rows):
        # squares added in schedule order, as scipy's cdist does, one row
        # against all at a time so memory stays O(n * T)
        diff = rows - row
        d[i] = np.sqrt(np.add.accumulate(diff * diff, axis=-1)[:, -1])
    np.fill_diagonal(d, 0.0)
    return d


def stack_vectors(vectors: Mapping[str, np.ndarray], order: Sequence[str]) -> np.ndarray:
    """Stack per-occupant vectors into rows following the given order."""
    missing = [occ for occ in order if occ not in vectors]
    if missing:
        raise ValueError(f"occupants missing a schedule vector: {missing}")
    return np.vstack([np.asarray(vectors[occ], dtype=float).ravel() for occ in order])


def zone_diversity(schedules: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean pairwise distance among a zone's schedules; 0 for a lone schedule."""
    rows = np.asarray(schedules, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    n = rows.shape[0]
    if n == 0:
        raise ValueError("zone_diversity needs at least one schedule")
    if n == 1:
        return 0.0
    d = distance_matrix(rows)
    return float(d.sum() / (n * (n - 1)))


@dataclass
class DiversityReport:
    """Per-zone diversity values plus their unweighted total."""

    per_zone: dict[str, float]
    total: float


def layout_diversity(
    zones: Mapping[str, Sequence[str]], vectors: Mapping[str, np.ndarray]
) -> DiversityReport:
    """Diversity of each zone's assigned occupants, zones equally weighted.

    zones maps zone_id to the occupant ids seated there (vacant desks
    excluded).  Zones with no occupants contribute 0.
    """
    per_zone: dict[str, float] = {}
    for zone_id, occupants in zones.items():
        if len(occupants) == 0:
            per_zone[zone_id] = 0.0
            continue
        rows = stack_vectors(vectors, list(occupants))
        per_zone[zone_id] = zone_diversity(rows)
    return DiversityReport(per_zone, float(sum(per_zone.values())))


def daily_zone_diversity(
    states: StateGrid, zones: Mapping[str, Sequence[str]]
) -> tuple[list[str], np.ndarray]:
    """zone_diversity of each zone's members on each whole day of a state grid.

    Returns the sorted zone ids and an (n_zones, n_days) array; a zone
    without occupants gets 0.0.
    """
    if states.n_steps % STEPS_PER_DAY:
        raise ValueError(
            f"{states.n_steps} steps do not cover whole days of {STEPS_PER_DAY} steps"
        )
    schedules = dict(zip(states.occupants, states.states))  # int8 row views, no copy
    zone_order = sorted(zones)
    daily = np.zeros((len(zone_order), states.n_steps // STEPS_PER_DAY))
    for j, zone_id in enumerate(zone_order):
        members = list(zones[zone_id])
        if members:
            days = stack_vectors(schedules, members).reshape(len(members), -1, STEPS_PER_DAY)
            daily[j] = [zone_diversity(days[:, d]) for d in range(daily.shape[1])]
    return zone_order, daily


@dataclass
class RegressionResult:
    """OLS fit of y = slope*x + intercept with slope significance."""

    slope: float
    intercept: float
    slope_std_err: float
    t_statistic: float
    p_value: float
    r_squared: float
    n: int
    exact_fit: bool = False


def student_t_two_tailed_p(t: float, dof: int) -> float:
    """Two-tailed p-value for Student's t via the regularized incomplete beta."""
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    if not np.isfinite(t):
        return 0.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


def ols_regress(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Simple linear regression with t-statistic for the slope.

    Zero residual variance is reported as an exact fit (std err 0,
    p-value 0) rather than an error; a constant regressor raises
    DegenerateRegressor.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    n = x.size
    if n < 3:
        raise ValueError("regression needs at least 3 points")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateRegressor("degenerate regressor: x is constant")
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    sse = float(np.sum(resid**2))
    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if sst == 0.0 else 1.0 - sse / sst
    r_squared = min(max(r_squared, 0.0), 1.0)
    if sse <= 1e-14 * max(sst, 1.0):
        t = 0.0 if slope == 0.0 else np.inf * np.sign(slope)
        return RegressionResult(slope, intercept, 0.0, float(t), 0.0, r_squared, n, True)
    dof = n - 2
    std_err = float(np.sqrt(sse / dof / sxx))
    t = slope / std_err
    p = student_t_two_tailed_p(t, dof)
    return RegressionResult(slope, intercept, std_err, float(t), p, r_squared, n, False)


def write_diversity_csv(report: DiversityReport, path, header_comment: str | None = None) -> None:
    rows = [(zone_id, report.per_zone[zone_id]) for zone_id in sorted(report.per_zone)]
    rows.append(("total", report.total))
    _write_rows(path, ["zone_id", "diversity"], rows, [header_comment, "representation: raw"])


def write_regression_csv(
    results: Sequence[tuple[str, RegressionResult | None]],
    path,
    header_comment: str | None = None,
) -> None:
    """Emit per-zone regression rows; a comment names each degenerate (None) zone."""
    comments, rows = [header_comment], []
    for zone_id, res in results:
        if res is None:
            comments.append(f"{zone_id}: degenerate regressor (constant diversity)")
            continue
        row = (res.slope, res.slope_std_err, res.t_statistic, res.p_value, res.r_squared, res.n)
        rows.append((zone_id, *row))
    _write_rows(path, ["zone_id", "slope", "std_err", "t", "p", "r2", "n"], rows, comments)

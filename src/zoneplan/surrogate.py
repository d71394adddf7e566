"""Surrogate lighting-energy models over zone/state features.

Features are one row per zone per 15-minute step: state counts (s1, s2,
s3), hour, day of week, weekend flag, and zone index.  Two predictors
are provided: multiple linear regression on an encoded feature set
(sigmoid counts, sin/cos hour, one-hots) and a from-scratch random
forest on the raw features.  Hourly lighting targets are split evenly
across the hour's four steps for training and re-summed for reporting.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .ingest import (
    STEPS_PER_DAY,
    InputError,
    LightingTable,
    _read_json,
    _write_json,
    _write_rows,
    format_timestamp,
)
from .states import StateGrid

FEATURE_NAMES = ("s1", "s2", "s3", "hour", "day_of_week", "is_weekend", "zone")
# row keys a population is scored in at once; bounds the scoring's memory
SCORE_KEYS = 2**14
# rows one forest descent takes at once; bounds its (n_trees, rows) arrays
PREDICT_BATCH = 8192


@dataclass
class FeatureTable:
    """Raw feature rows, time-ordered (step-major, zones inner)."""

    zone_order: list[str]
    features: np.ndarray  # (n_rows, 7) float, columns per FEATURE_NAMES
    hour_epoch: np.ndarray  # (n_rows,) int64, epoch second of the row's hour
    day_index: np.ndarray  # (n_rows,) int, whole days since the grid start

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_zones(self) -> int:
        return len(self.zone_order)

    def take(self, idx: np.ndarray) -> "FeatureTable":
        return FeatureTable(
            list(self.zone_order),
            self.features[idx],
            self.hour_epoch[idx],
            self.day_index[idx],
        )


def build_features(states: StateGrid, zones: Mapping[str, Sequence[str]]) -> FeatureTable:
    """One FeatureRow per zone per step, zones in sorted-id order.

    zones maps zone_id to occupant ids (vacant desks excluded).  Every
    listed occupant must have a state row; occupants absent from the
    layout simply contribute to no zone.  The rows come from the same
    integer keys that LayoutScorer scores, so n_zones * 336 *
    (n_occupants + 1)**3 must stay below 2**63.
    """
    zone_order = sorted(zones)
    encoder = _RowEncoder(states, {z: j for j, z in enumerate(zone_order)})
    keys = encoder.keys(encoder.rows(zones))[0].T[encoder.step_of]
    features = encoder.decode(keys.ravel())
    n_zones = len(zone_order)
    hour_epoch = np.repeat(states.calendar.hour_epochs(), n_zones)
    day_index = np.repeat(np.arange(states.n_steps) // STEPS_PER_DAY, n_zones)
    return FeatureTable(zone_order, features, hour_epoch, day_index)


def concat_tables(tables: Sequence[FeatureTable]) -> FeatureTable:
    """Stack feature tables that share a zone order (e.g. several layouts)."""
    if not tables:
        raise ValueError("nothing to concatenate")
    zone_order = tables[0].zone_order
    if any(t.zone_order != zone_order for t in tables):
        raise ValueError("tables have different zone orders")
    return FeatureTable(
        list(zone_order),
        np.vstack([t.features for t in tables]),
        np.concatenate([t.hour_epoch for t in tables]),
        np.concatenate([t.day_index for t in tables]),
    )


def targets_from_lighting(table: FeatureTable, lighting: LightingTable) -> np.ndarray:
    """Per-row training targets: the row's hourly energy split over 4 steps.

    Every hour from the table's first to its last needs a record for every
    zone, as the rows of a build_features table do.
    """
    first = table.hour_epoch.min() if table.n_rows else 0
    column = (table.hour_epoch - first) // 3600
    hour_starts = first + 3600 * np.arange(column.max(initial=-1) + 1)
    energy = lighting.hourly(table.zone_order, hour_starts)
    return energy[table.features[:, 6].astype(int), column] / 4.0


def sigmoid_count(s: np.ndarray) -> np.ndarray:
    """Saturating occupancy transform: g(0) = 0, g(s) -> 1 as s grows."""
    return 2.0 / (1.0 + np.exp(-np.asarray(s, dtype=float))) - 1.0


def encode(features: np.ndarray, n_zones: int) -> np.ndarray:
    """Encode raw rows: sigmoid counts, sin/cos hour, one-hot dow/zone.

    Output columns: g(s1), g(s2), g(s3), sin_h, cos_h (both rescaled to
    [0,1]), dow one-hot (7), weekend, zone one-hot (n_zones).
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    n = x.shape[0]
    out = np.zeros((n, 13 + n_zones))
    out[:, 0:3] = sigmoid_count(x[:, 0:3])
    angle = 2.0 * np.pi * x[:, 3] / 24.0
    out[:, 3] = (np.sin(angle) + 1.0) / 2.0
    out[:, 4] = (np.cos(angle) + 1.0) / 2.0
    dow = x[:, 4].astype(int)
    out[np.arange(n), 5 + dow] = 1.0
    out[:, 12] = x[:, 5]
    out[np.arange(n), 13 + x[:, 6].astype(int)] = 1.0
    return out


def _require_model_zones(zone_ids: Sequence[str], index: Mapping[str, int]) -> None:
    unknown = [z for z in zone_ids if z not in index]
    if unknown:
        raise ValueError(f"unknown zone ids for this model: {unknown}")


def _model_zone_rows(table: FeatureTable, model_order: Sequence[str]) -> np.ndarray:
    """The table's raw rows with the zone column turned into model zone indices."""
    index = {z: i for i, z in enumerate(model_order)}
    _require_model_zones(table.zone_order, index)
    remap = np.array([index[z] for z in table.zone_order], dtype=int)
    x = table.features.copy()
    x[:, 6] = remap[x[:, 6].astype(int)]
    return x


def solve_ridge(x: np.ndarray, y: np.ndarray, ridge: float = 1e-8) -> tuple[float, np.ndarray]:
    """Normal-equation least squares; ridge applies to slopes only."""
    n, p = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    gram = design.T @ design
    gram[1:, 1:] += ridge * np.eye(p)
    beta = np.linalg.solve(gram, design.T @ y)
    return float(beta[0]), beta[1:]


@dataclass
class MlrModel:
    """Linear surrogate on encoded features with a train-fitted scaler."""

    intercept: float
    coefficients: np.ndarray
    scaler_min: np.ndarray
    scaler_range: np.ndarray  # zero where the training column was constant
    zone_order: list[str]
    rank_deficient: bool = False

    def _scale(self, x: np.ndarray) -> np.ndarray:
        rng = np.where(self.scaler_range > 0, self.scaler_range, 1.0)
        scaled = (x - self.scaler_min[None, :]) / rng[None, :]
        return np.where(self.scaler_range[None, :] > 0, scaled, 0.0)

    def predict_encoded(self, x: np.ndarray) -> np.ndarray:
        # a row-wise reduction, unlike a BLAS gemv, gives each row the same
        # result whichever other rows share the batch
        scaled = self._scale(np.atleast_2d(x))
        return self.intercept + (scaled * self.coefficients).sum(axis=1)

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Raw feature rows whose zone column is already a model zone index."""
        return self.predict_encoded(encode(x, len(self.zone_order)))

    def predict_rows(self, table: FeatureTable) -> np.ndarray:
        return self.predict_raw(_model_zone_rows(table, self.zone_order))

    def to_dict(self) -> dict:
        return {
            "kind": "mlr",
            "intercept": self.intercept,
            "coefficients": [float(v) for v in self.coefficients],
            "scaler_min": [float(v) for v in self.scaler_min],
            "scaler_range": [float(v) for v in self.scaler_range],
            "zone_order": list(self.zone_order),
            "rank_deficient": self.rank_deficient,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlrModel":
        return cls(
            intercept=float(d["intercept"]),
            coefficients=np.array(d["coefficients"], dtype=float),
            scaler_min=np.array(d["scaler_min"], dtype=float),
            scaler_range=np.array(d["scaler_range"], dtype=float),
            zone_order=list(d["zone_order"]),
            rank_deficient=bool(d["rank_deficient"]),
        )


def fit_mlr(table: FeatureTable, targets: np.ndarray, ridge: float = 1e-8) -> MlrModel:
    """Least-squares fit on encoded features, scaler fitted on this data only."""
    y = np.asarray(targets, dtype=float).ravel()
    if table.n_rows != y.size:
        raise ValueError("row/target length mismatch")
    if table.n_rows < 2:
        raise ValueError("need at least 2 rows")
    x = encode(table.features, table.n_zones)
    lo = x.min(axis=0)
    rng = x.max(axis=0) - lo
    scaled = np.where(rng[None, :] > 0, (x - lo[None, :]) / np.where(rng > 0, rng, 1.0), 0.0)
    intercept, coefs = solve_ridge(scaled, y, ridge)
    return MlrModel(
        intercept=intercept,
        coefficients=coefs,
        scaler_min=lo,
        scaler_range=rng,
        zone_order=list(table.zone_order),
        rank_deficient=x.shape[0] < x.shape[1] + 1,
    )


@dataclass(frozen=True)
class RfConfig:
    """Forest hyperparameters (defaults follow the tuned values)."""

    n_trees: int = 200
    min_split: int = 50
    min_leaf: int = 2
    max_depth: int = 300
    bootstrap: bool = True


@dataclass
class _Tree:
    """Flat array form: leaves point to themselves so descent is a fixed map."""

    feature: np.ndarray  # int, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    cfg: RfConfig,
    importance: np.ndarray,
) -> _Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(len(feature) - 1)
        right.append(len(feature) - 1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(y.size), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ty = y[rows]
        value[node] = float(ty.mean())
        n = rows.size
        # all-equal targets are a leaf even when their rounded mean leaves
        # sse_parent a little above 0 and the split sums show noise
        if n < cfg.min_split or depth >= cfg.max_depth or np.all(ty == ty[0]):
            continue
        sse_parent = float(np.sum((ty - ty.mean()) ** 2))
        best = (0.0, -1, 0.0)  # (reduction, feature, threshold)
        for f in range(x.shape[1]):
            vals = x[rows, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            st = ty[order]
            c1 = np.cumsum(st)
            c2 = np.cumsum(st**2)
            total1 = c1[-1]
            total2 = c2[-1]
            i = np.arange(1, n)
            valid = (sv[1:] > sv[:-1]) & (i >= cfg.min_leaf) & (n - i >= cfg.min_leaf)
            if not np.any(valid):
                continue
            li = i[valid]
            sse_l = c2[li - 1] - c1[li - 1] ** 2 / li
            sse_r = (total2 - c2[li - 1]) - (total1 - c1[li - 1]) ** 2 / (n - li)
            red = sse_parent - (sse_l + sse_r)
            k = int(np.argmax(red))
            if red[k] > best[0] + 1e-12:
                pos = li[k]
                thr = 0.5 * (sv[pos - 1] + sv[pos])
                # guard: midpoint must actually separate the two sides
                if sv[pos - 1] < thr <= sv[pos]:
                    best = (float(red[k]), f, float(thr))
        if best[1] < 0:
            continue
        _, f, thr = best
        mask = x[rows, f] < thr
        importance[f] += best[0]
        lnode = new_node()
        rnode = new_node()
        feature[node] = f
        threshold[node] = thr
        left[node] = lnode
        right[node] = rnode
        # the threshold sits between sorted positions li - 1 and li, so the
        # sides hold li and n - li rows, both at least min_leaf
        stack.append((lnode, rows[mask], depth + 1))
        stack.append((rnode, rows[~mask], depth + 1))

    return _Tree(
        np.array(feature, dtype=np.int32),
        np.array(threshold),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(value),
    )


@dataclass
class RfModel:
    """Bootstrap-aggregated regression trees on the raw features."""

    trees: list[_Tree]
    config: RfConfig
    seed: int
    zone_order: list[str]
    importance_raw: np.ndarray  # unnormalized SSE reduction per feature
    _stack: tuple | None = field(default=None, repr=False, compare=False)

    def _stacked(self) -> tuple:
        if self._stack is None:
            n_nodes = max(t.feature.size for t in self.trees)
            nt = len(self.trees)
            feat = np.zeros((nt, n_nodes), dtype=np.int32) - 1
            thr = np.zeros((nt, n_nodes))
            left = np.tile(np.arange(n_nodes, dtype=np.int32), (nt, 1))
            right = left.copy()
            val = np.zeros((nt, n_nodes))
            for i, t in enumerate(self.trees):
                k = t.feature.size
                feat[i, :k] = t.feature
                thr[i, :k] = t.threshold
                left[i, :k] = t.left
                right[i, :k] = t.right
                val[i, :k] = t.value
            self._stack = (feat, thr, left, right, val)
        return self._stack

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Mean over trees; descent is vectorized across trees and rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        feat, thr, left, right, val = self._stacked()
        nt = feat.shape[0]
        rows_idx = np.arange(nt)[:, None]
        out = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], PREDICT_BATCH):
            xb = x[lo : lo + PREDICT_BATCH]
            nb = xb.shape[0]
            cols_idx = np.arange(nb)[None, :]
            cur = np.zeros((nt, nb), dtype=np.int32)
            while True:
                f = feat[rows_idx, cur]
                interior = f >= 0
                if not np.any(interior):
                    break
                fv = xb[cols_idx, np.maximum(f, 0)]
                go_left = fv < thr[rows_idx, cur]
                nxt = np.where(go_left, left[rows_idx, cur], right[rows_idx, cur])
                cur = np.where(interior, nxt, cur).astype(np.int32)
            # trees summed one after another: numpy's mean over axis 0 does
            # this for two or more rows but sums a lone row pairwise
            leaves = val[rows_idx, cur]
            total = leaves[0].copy()
            for tree_values in leaves[1:]:
                total += tree_values
            out[lo : lo + nb] = total / nt
        return out

    def predict_rows(self, table: FeatureTable) -> np.ndarray:
        return self.predict_raw(_model_zone_rows(table, self.zone_order))

    def to_dict(self) -> dict:
        return {
            "kind": "rf",
            "config": asdict(self.config),
            "seed": self.seed,
            "zone_order": list(self.zone_order),
            "importance_raw": [float(v) for v in self.importance_raw],
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RfModel":
        trees = [
            _Tree(
                np.array(t["feature"], dtype=np.int32),
                np.array(t["threshold"]),
                np.array(t["left"], dtype=np.int32),
                np.array(t["right"], dtype=np.int32),
                np.array(t["value"]),
            )
            for t in d["trees"]
        ]
        return cls(
            trees=trees,
            config=RfConfig(**d["config"]),
            seed=d["seed"],
            zone_order=list(d["zone_order"]),
            importance_raw=np.array(d["importance_raw"], dtype=float),
        )


def fit_random_forest(
    table: FeatureTable,
    targets: np.ndarray,
    config: RfConfig | None = None,
    seed: int = 0,
) -> RfModel:
    """Greedy variance-reduction trees on raw features, seeded per tree."""
    cfg = config or RfConfig()
    x = table.features
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if x.shape[0] != y.size:
        raise ValueError("row/target length mismatch")
    importance = np.zeros(x.shape[1])
    trees = []
    for t in range(cfg.n_trees):
        if cfg.bootstrap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
            rows = rng.integers(0, y.size, y.size)
            trees.append(_fit_tree(x[rows], y[rows], cfg, importance))
        else:
            trees.append(_fit_tree(x, y, cfg, importance))
    return RfModel(trees, cfg, seed, list(table.zone_order), importance)


def feature_importance(model: RfModel) -> dict[str, float]:
    """Share of total split variance reduction attributed to each raw feature."""
    total = float(model.importance_raw.sum())
    if total <= 0.0:
        return {name: 0.0 for name in FEATURE_NAMES}
    return {
        name: float(v / total) for name, v in zip(FEATURE_NAMES, model.importance_raw)
    }


@dataclass
class Metrics:
    """Per-step errors plus R-squared at step/hour/day aggregation."""

    mae: float
    mse: float
    r_squared: float  # hourly
    r_squared_daily: float
    r_squared_step: float


def _r2(y: np.ndarray, yhat: np.ndarray) -> float:
    sse = float(np.sum((y - yhat) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sse <= 1e-30:
        return 1.0
    if sst == 0.0:
        return 0.0
    return 1.0 - sse / sst


def _group_sum(v: np.ndarray, groups: np.ndarray) -> np.ndarray:
    _, inverse = np.unique(groups, return_inverse=True)
    return np.bincount(inverse, weights=v)


def evaluate(
    y: np.ndarray,
    yhat: np.ndarray,
    hourly_groups: np.ndarray,
    daily_groups: np.ndarray,
) -> Metrics:
    """Errors on raw per-step values; R-squared also after hour/day summation."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size:
        raise ValueError("length mismatch")
    mae = float(np.mean(np.abs(y - yhat)))
    mse = float(np.mean((y - yhat) ** 2))
    r2_step = _r2(y, yhat)
    r2_hour = _r2(_group_sum(y, hourly_groups), _group_sum(yhat, hourly_groups))
    r2_day = _r2(_group_sum(y, daily_groups), _group_sum(yhat, daily_groups))
    return Metrics(mae, mse, r2_hour, r2_day, r2_step)


def time_split(
    table: FeatureTable, targets: np.ndarray, fraction: float = 0.8
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays for a whole-day train/test split; boundary day tests.

    Returns (train_rows, test_rows) into the time-ordered table.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    y = np.asarray(targets).ravel()
    if y.size != table.n_rows:
        raise ValueError("row/target length mismatch")
    n_days = int(table.day_index.max()) + 1
    train_days = int(np.floor(fraction * n_days + 1e-9))
    if train_days == 0 or train_days >= n_days:
        raise ValueError("split leaves an empty side")
    train = np.flatnonzero(table.day_index < train_days)
    test = np.flatnonzero(table.day_index >= train_days)
    return train, test


def cross_validate(
    table: FeatureTable,
    targets: np.ndarray,
    k: int,
    fitter: Callable[[FeatureTable, np.ndarray], Callable[[FeatureTable], np.ndarray]],
) -> Metrics:
    """k contiguous time-ordered folds; metrics averaged over held-out folds.

    fitter(table, y) must return a predict function over a FeatureTable.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    y = np.asarray(targets, dtype=float).ravel()
    n = table.n_rows
    if k > n:
        raise ValueError("more folds than rows")
    folds = np.array_split(np.arange(n), k)
    metrics = []
    for held in folds:
        rest = np.setdiff1d(np.arange(n), held, assume_unique=False)
        predict = fitter(table.take(rest), y[rest])
        yhat = predict(table.take(held))
        metrics.append(
            evaluate(y[held], yhat, table.hour_epoch[held], table.day_index[held])
        )
    return Metrics(
        mae=float(np.mean([m.mae for m in metrics])),
        mse=float(np.mean([m.mse for m in metrics])),
        r_squared=float(np.mean([m.r_squared for m in metrics])),
        r_squared_daily=float(np.mean([m.r_squared_daily for m in metrics])),
        r_squared_step=float(np.mean([m.r_squared_step for m in metrics])),
    )


@dataclass
class EnergyReport:
    """Predicted lighting energy for one layout (clamped at zero)."""

    zone_order: list[str]
    hour_epochs: np.ndarray  # (n_hours,)
    hourly: np.ndarray  # (n_zones, n_hours) predicted wh
    grand_total: float
    baseline_total: float | None = None
    percent_change: float | None = None


def percent_change(value: float, base: float) -> float:
    """Percent change of value from base; 0 when base is 0."""
    return 0.0 if base == 0 else 100.0 * (value - base) / base


class _RowEncoder:
    """Feature rows of layouts as int64 keys, one per zone per distinct step.

    A feature row (s1, s2, s3, hour, day_of_week, is_weekend, zone) takes
    few distinct values, so it packs into one integer:
    key = (((zone * 336 + calendar) * m + s1) * m + s2) * m + s3, where
    calendar = (hour * 7 + day_of_week) * 2 + is_weekend, m is
    n_occupants + 1 (a zone count lies in [0, n_occupants]) and zone is
    the zone's index in zone_index.

    Two steps with the same calendar key and the same state for every
    occupant give the same key in every layout and zone, so keys are built
    only for the distinct steps, in np.unique's order, which sorts them by
    calendar key first; step_of maps each step to its distinct step.
    """

    _CALENDAR_KEYS = 24 * 7 * 2

    def __init__(self, states: StateGrid, zone_index: dict):
        cal = states.calendar
        self.zone_index = zone_index
        self._occ_index = {occ: i for i, occ in enumerate(states.occupants)}
        m = self._base = len(states.occupants) + 1
        if len(zone_index) * self._CALENDAR_KEYS * m**3 >= 2**63:
            raise ValueError("too many occupants and zones for 64-bit row keys")
        calendar_key = (cal.hours.astype(np.int64) * 7 + cal.dows) * 2 + cal.weekend
        columns = np.vstack([calendar_key, states.states]).astype(np.int16)
        _, distinct, step_of = np.unique(columns, axis=1, return_index=True, return_inverse=True)
        self.step_of = step_of.reshape(-1)
        self._step_key = calendar_key[distinct] * m**3
        self._zone_key = self._CALENDAR_KEYS * m**3
        # an occupant in state 1, 2 or 3 adds m^2, m or 1 to its zone's key;
        # the zero row after the occupants' rows is row -1, a vacant desk
        state_weight = np.zeros(256, dtype=np.int32 if m * m < 2**31 else np.int64)
        state_weight[[1, 2, 3]] = (m * m, m, 1)
        self._weights = np.zeros((m, distinct.size), state_weight.dtype)
        self._weights[:-1] = state_weight.take(states.states[:, distinct])

    def occupant_rows(self, occupants: Sequence[str]) -> np.ndarray:
        """The state-grid row of each occupant id."""
        try:
            return np.array([self._occ_index[o] for o in occupants], dtype=np.intp)
        except KeyError:
            missing = [o for o in occupants if o not in self._occ_index]
            raise ValueError(f"occupants without states: {missing}") from None

    def rows(self, zones: Mapping[str, Sequence[str]]) -> dict[str, np.ndarray]:
        """One layout given as zone_id -> occupant ids, as keys() takes it."""
        return {z: self.occupant_rows(members)[None, :] for z, members in zones.items()}

    def keys(self, rows: Mapping[str, np.ndarray]) -> np.ndarray:
        """Row keys (n_layouts, n_zones, n_distinct_steps), zones in sorted id order.

        rows maps zone_id to (n_layouts, desks) state-grid rows, -1 vacant.
        Index the last axis with step_of for every step's keys.
        """
        zone_order = sorted(rows)
        _require_model_zones(zone_order, self.zone_index)
        n_layouts = len(rows[zone_order[0]]) if zone_order else 1
        keys = np.empty((n_layouts, len(zone_order), self._step_key.size), dtype=np.int64)
        for j, zone_id in enumerate(zone_order):
            keys[:, j] = self._step_key + self.zone_index[zone_id] * self._zone_key
            keys[:, j] += self._weights[rows[zone_id]].sum(axis=1)
        return keys

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """Raw float feature rows, columns per FEATURE_NAMES, of 1-D keys."""
        m = self._base
        rows = np.empty((keys.size, 7))
        rest, counts = np.divmod(keys, m**3)
        rows[:, 6], calendar_key = np.divmod(rest, self._CALENDAR_KEYS)
        rows[:, 0], s2_s3 = np.divmod(counts, m * m)
        rows[:, 1], rows[:, 2] = np.divmod(s2_s3, m)
        rows[:, 3], day_key = np.divmod(calendar_key, 14)
        rows[:, 4], rows[:, 5] = np.divmod(day_key, 2)
        return rows


class LayoutScorer:
    """Predicted lighting energy of layouts, each distinct feature row predicted once.

    Rows are _RowEncoder keys over the model's zone indices; the model's
    clamped prediction of each key is kept in a sorted memo.  Scoring a
    layout looks up its keys on the distinct steps, gathers the predictions
    of every step (step_of) in build_features' step-major order and sums
    them, and totals() does so for a whole GA population at once; the
    model only sees keys it has not seen before.
    Predictions do not depend on their batch, so totals equal scoring the
    whole feature table at once.
    """

    def __init__(self, model, states: StateGrid):
        self.model = model
        self._encoder = _RowEncoder(states, {z: j for j, z in enumerate(model.zone_order)})
        self.calendar = states.calendar
        # sorted memo; the sentinel above every real key keeps lookups in range
        self._keys = np.array([np.iinfo(np.int64).max])
        self._values = np.array([np.nan])

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._keys, keys)
        values = self._values[pos]
        miss = self._keys[pos] != keys
        if miss.any():
            new, new_of = np.unique(keys[miss], return_inverse=True)
            pred = np.maximum(self.model.predict_raw(self._encoder.decode(new)), 0.0)
            at = np.searchsorted(self._keys, new)
            self._keys = np.insert(self._keys, at, new)
            self._values = np.insert(self._values, at, pred)
            values[miss] = pred[new_of]
        return values

    def predict(self, zones: Mapping[str, Sequence[str]]) -> tuple[list[str], np.ndarray]:
        """Zone order and clamped per-row predictions, step-major, zones inner."""
        zone_order = sorted(zones)
        keys = self._encoder.keys(self._encoder.rows(zones))[0]
        # zone-major keys rise with the distinct steps' calendar keys, which
        # keeps the memo search local
        pred = self._lookup(keys.ravel()).reshape(keys.shape)
        return zone_order, pred.T[self._encoder.step_of].ravel()

    def total(self, zones: Mapping[str, Sequence[str]]) -> float:
        """Predicted energy of a layout given as zone_id -> occupant ids."""
        return float(self.predict(zones)[1].sum())

    def totals(self, zones: Mapping[str, np.ndarray], occupants: Sequence[str]) -> np.ndarray:
        """Predicted energy of each layout of a population, as the GA scores it.

        zones maps zone_id to an (n_layouts, desks) int array of indices
        into occupants, -1 at a vacant desk.  Each layout's rows are summed
        step-major like total(), so both give the same bits.
        """
        # index -1 picks the appended -1, the encoder's empty row
        row_of = np.append(self._encoder.occupant_rows(occupants), -1)
        rows = {z: row_of[members] for z, members in zones.items()}
        n_layouts = len(next(iter(rows.values())))
        chunk = max(1, SCORE_KEYS // (len(rows) * self.calendar.n_steps))
        out = np.empty(n_layouts)
        for lo in range(0, n_layouts, chunk):
            keys = self._encoder.keys({z: r[lo : lo + chunk] for z, r in rows.items()})
            pred = self._lookup(keys.ravel()).reshape(keys.shape)
            steps = pred.transpose(0, 2, 1)[:, self._encoder.step_of]
            out[lo : lo + len(keys)] = steps.reshape(len(keys), -1).sum(axis=1)
        return out

    def report(
        self,
        zones: Mapping[str, Sequence[str]],
        baseline_zones: Mapping[str, Sequence[str]] | None = None,
    ) -> EnergyReport:
        """Hourly energy per zone; optional baseline comparison."""
        zone_order, pred = self.predict(zones)
        n_zones = len(zone_order)
        hour_starts, hour_column = self.calendar.hour_columns()
        hourly = np.zeros((n_zones, hour_starts.size))
        zcol = np.tile(np.arange(n_zones), self.calendar.n_steps)
        np.add.at(hourly, (zcol, np.repeat(hour_column, n_zones)), pred)
        grand = float(pred.sum())
        baseline_total = None
        pct = None
        if baseline_zones is not None:
            baseline_total = self.total(baseline_zones)
            pct = percent_change(grand, baseline_total)
        return EnergyReport(zone_order, hour_starts, hourly, grand, baseline_total, pct)


def predict_energy(
    model,
    zones: Mapping[str, Sequence[str]],
    states: StateGrid,
    baseline_zones: Mapping[str, Sequence[str]] | None = None,
) -> EnergyReport:
    """Score a layout with a trained surrogate; optional baseline comparison."""
    return LayoutScorer(model, states).report(zones, baseline_zones)


def write_energy_report(report: EnergyReport, path, header_comment: str | None = None) -> None:
    comments = [header_comment, f"grand_total_wh: {report.grand_total!r}"]
    if report.baseline_total is not None:
        comments.append(f"baseline_total_wh: {report.baseline_total!r}")
        comments.append(f"percent_change: {report.percent_change!r}")
    rows = [
        (zone_id, format_timestamp(int(epoch)), float(report.hourly[j, h]))
        for j, zone_id in enumerate(report.zone_order)
        for h, epoch in enumerate(report.hour_epochs)
    ]
    _write_rows(path, ["zone_id", "period_start", "energy_pred_wh"], rows, comments)


def save_model(model, path, extra: dict | None = None) -> None:
    """Write model.to_dict() as JSON, plus extra keys (such as provenance)."""
    _write_json(path, {**model.to_dict(), **(extra or {})})


def load_model(path):
    """Read a save_model file; keys its model kind does not use are ignored."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: a model file must hold a JSON object")
    kind = doc.get("kind")
    if kind == "mlr":
        from_dict = MlrModel.from_dict
    elif kind == "rf":
        from_dict = RfModel.from_dict
    else:
        raise InputError(f"{path}: unknown model kind {kind!r}")
    try:
        return from_dict(doc)
    except KeyError as exc:
        raise InputError(f"{path}: {kind} model lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed {kind} model: {exc}") from None

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
    Layout,
    LightingTable,
    _read_json,
    _series_lines,
    _write_json,
    _write_lines,
)
from .states import StateGrid

FEATURE_NAMES = ("s1", "s2", "s3", "hour", "day_of_week", "is_weekend", "zone")
# cells one batch takes at once, bounding its arrays: layout x zone x step rows
# of a scoring batch, tree x row cells of a forest pass, row x encoded-column
# cells of a linear pass
BATCH_CELLS = 2**15


@dataclass
class FeatureTable:
    """Raw feature rows, time-ordered (step-major, zones inner) within each layout."""

    zone_order: list[str]
    features: np.ndarray  # (n_rows, 7) float, columns per FEATURE_NAMES
    hour_epoch: np.ndarray  # (n_rows,) int64, epoch second of the row's hour
    day_index: np.ndarray  # (n_rows,) int, whole days since the grid start
    layout: np.ndarray  # (n_rows,) int, index of the stacked table the row came from

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
            self.layout[idx],
        )


def build_features(states: StateGrid, zones: Mapping[str, Sequence[str]]) -> FeatureTable:
    """One FeatureRow per zone per step, zones in sorted-id order.

    zones maps zone_id to occupant ids (vacant desks excluded).  Every
    listed occupant must have a state row; occupants absent from the
    layout simply contribute to no zone.  The rows come from the keys that
    LayoutScorer scores, of the members as one seat row, so _RowEncoder's
    bounds hold: n_zones * 336 * m**3 < 2**63 and m**3 <= 2**53, m = n_occupants + 1.
    """
    zone_order = sorted(zones)
    encoder = _RowEncoder(states, {z: j for j, z in enumerate(zone_order)})
    rows = encoder.occupant_rows([o for z in zone_order for o in zones[z]])[None, :]
    desk_zone = np.repeat(np.arange(len(zone_order)), [len(zones[z]) for z in zone_order])
    keys = encoder.keys(rows, desk_zone, zone_order)
    features = encoder.decode(keys[0].T[encoder.step_of].ravel())
    n_zones = len(zone_order)
    hour_epoch = np.repeat(states.calendar.hour_epochs(), n_zones)
    day_index = np.repeat(np.arange(states.n_steps) // STEPS_PER_DAY, n_zones)
    layout = np.zeros(features.shape[0], dtype=int)
    return FeatureTable(zone_order, features, hour_epoch, day_index, layout)


def concat_tables(tables: Sequence[FeatureTable]) -> FeatureTable:
    """Stack feature tables that share a zone order (e.g. several layouts).

    Each row's layout is the index of the input table it came from.
    """
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
        np.concatenate([np.full(t.n_rows, i) for i, t in enumerate(tables)]),
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


def _model_zone_indices(zone_ids: Sequence[str], index: Mapping[str, int]) -> np.ndarray:
    unknown = [z for z in zone_ids if z not in index]
    if unknown:
        raise ValueError(f"unknown zone ids for this model: {unknown}")
    return np.array([index[z] for z in zone_ids], dtype=np.int64)


def _model_zone_rows(table: FeatureTable, model_order: Sequence[str]) -> np.ndarray:
    """The table's raw rows with the zone column turned into model zone indices."""
    remap = _model_zone_indices(table.zone_order, {z: i for i, z in enumerate(model_order)})
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


def _min_max_scale(x: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Columns of x scaled by (x - lo) / span; a column of span 0 scales to 0."""
    scaled = (x - lo[None, :]) / np.where(span > 0, span, 1.0)[None, :]
    return np.where(span[None, :] > 0, scaled, 0.0)


@dataclass
class MlrModel:
    """Linear surrogate on encoded features with a train-fitted scaler."""

    intercept: float
    coefficients: np.ndarray
    scaler_min: np.ndarray
    scaler_range: np.ndarray  # zero where the training column was constant
    zone_order: list[str]
    rank_deficient: bool = False

    def predict_encoded(self, x: np.ndarray) -> np.ndarray:
        # a row-wise reduction, unlike a BLAS gemv, gives each row the same
        # result whichever other rows share the batch
        scaled = _min_max_scale(np.atleast_2d(x), self.scaler_min, self.scaler_range)
        return self.intercept + (scaled * self.coefficients).sum(axis=1)

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Raw feature rows whose zone column is already a model zone index,
        encoded and predicted in batches of at most BATCH_CELLS cells."""
        x = np.atleast_2d(x)
        n_zones = len(self.zone_order)
        batch = max(1, BATCH_CELLS // (13 + n_zones))
        out = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], batch):
            out[lo : lo + batch] = self.predict_encoded(encode(x[lo : lo + batch], n_zones))
        return out

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
        model = cls(
            intercept=float(d["intercept"]),
            coefficients=np.array(d["coefficients"], dtype=float),
            scaler_min=np.array(d["scaler_min"], dtype=float),
            scaler_range=np.array(d["scaler_range"], dtype=float),
            zone_order=list(d["zone_order"]),
            rank_deficient=bool(d["rank_deficient"]),
        )
        n = 13 + len(model.zone_order)
        if any(a.shape != (n,) for a in (model.coefficients, model.scaler_min, model.scaler_range)):
            raise ValueError(f"coefficients and scaler arrays must hold 13 + n_zones = {n} values")
        return model


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
    intercept, coefs = solve_ridge(_min_max_scale(x, lo, rng), y, ridge)
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


_TREE_DTYPES = dict(feature=np.int32, threshold=float, left=np.int32, right=np.int32, value=float)


@dataclass
class _Tree:
    """Flat array form: node 0 is the root, an interior node's children come
    after it, and a walk ends at a leaf, the node whose feature is -1."""

    feature: np.ndarray  # int, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def fault(self) -> str | None:
        """What could make the tree's walk leave its arrays or never end, if anything."""
        n = self.feature.size
        if n == 0 or any(a.shape != (n,) for a in vars(self).values()):
            return "its arrays are empty or of unequal lengths"
        if np.any((self.feature < -1) | (self.feature >= len(FEATURE_NAMES))):
            return f"a feature lies outside [-1, {len(FEATURE_NAMES)})"
        interior = np.flatnonzero(self.feature >= 0)
        children = np.concatenate([self.left[interior], self.right[interior]])
        if np.any((children <= np.tile(interior, 2)) | (children >= n)):
            return "an interior node's child is not after it and inside the tree"
        if not np.isfinite(np.r_[self.threshold[interior], self.value[self.feature < 0]]).all():
            return "a threshold or leaf value is not finite"


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
    _table: tuple | None = field(default=None, repr=False, compare=False)

    def _nodes(self) -> tuple:
        """All trees' nodes in one table, child numbers shifted by each
        tree's offset, and each tree's root."""
        if self._table is None:
            sizes = [t.feature.size for t in self.trees]
            roots = np.cumsum([0, *sizes[:-1]])
            shift = np.repeat(roots, sizes)
            feature, threshold, left, right, value = (
                np.concatenate([getattr(t, name) for t in self.trees]) for name in _TREE_DTYPES
            )
            self._table = (feature, threshold, left + shift, right + shift, value, roots)
        return self._table

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Mean over trees, in passes of at most BATCH_CELLS tree x row cells.

        A pass walks a flat list of unfinished (tree, row) cells down one
        level at a time; a cell that reaches a leaf leaves the list."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        feature, threshold, left, right, value, roots = self._nodes()
        nt, n_cols = roots.size, x.shape[1]
        out = np.empty(x.shape[0])
        batch = max(1, BATCH_CELLS // nt)
        for lo in range(0, x.shape[0], batch):
            xb = x[lo : lo + batch].ravel()
            nb = xb.size // n_cols
            leaves = np.empty((nt, nb))
            cell = np.arange(nt * nb)  # tree * nb + row
            node = np.repeat(roots, nb)
            offset = np.tile(np.arange(0, xb.size, n_cols), nt)  # row * n_cols
            while cell.size:
                f = feature[node]
                done = f < 0
                if done.any():
                    leaves.flat[cell[done]] = value[node[done]]
                    walk = ~done
                    cell, node, offset, f = cell[walk], node[walk], offset[walk], f[walk]
                go_left = xb[offset + f] < threshold[node]
                node = np.where(go_left, left[node], right[node])
            # trees summed one after another: numpy's mean over axis 0 does
            # this for two or more rows but sums a lone row pairwise
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
            "trees": [{name: a.tolist() for name, a in vars(t).items()} for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RfModel":
        trees = [
            _Tree(**{name: np.array(t[name], dtype=dtype) for name, dtype in _TREE_DTYPES.items()})
            for t in d["trees"]
        ]
        if not trees:
            raise ValueError("a forest needs at least one tree")
        for i, tree in enumerate(trees):
            if fault := tree.fault():
                raise ValueError(f"tree {i}: {fault}")
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
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rows = rng.integers(0, y.size, y.size) if cfg.bootstrap else np.arange(y.size)
        trees.append(_fit_tree(x[rows], y[rows], cfg, importance))
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


def _series_groups(table: FeatureTable, period: np.ndarray) -> np.ndarray:
    """Each row's (layout, zone, period) group, numbered in lexicographic order."""
    zone = table.features[:, 6].astype(np.int64)
    columns = np.column_stack([table.layout, zone, period])
    return np.unique(columns, axis=0, return_inverse=True)[1].reshape(-1)


def evaluate(table: FeatureTable, y: np.ndarray, yhat: np.ndarray) -> Metrics:
    """Errors on the table's raw per-step values; R-squared also over each
    (layout, zone) series summed to hours and to days."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size or y.size != table.n_rows:
        raise ValueError("length mismatch")
    mae = float(np.mean(np.abs(y - yhat)))
    mse = float(np.mean((y - yhat) ** 2))
    r2_step = _r2(y, yhat)
    hourly = _series_groups(table, table.hour_epoch)
    daily = _series_groups(table, table.day_index)
    r2_hour = _r2(np.bincount(hourly, weights=y), np.bincount(hourly, weights=yhat))
    r2_day = _r2(np.bincount(daily, weights=y), np.bincount(daily, weights=yhat))
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
    fit: Callable[[FeatureTable, np.ndarray], MlrModel | RfModel],
) -> Metrics:
    """k contiguous time-ordered folds; evaluate's metrics averaged over held-out folds.

    fit(table, y) must return a model with predict_rows.
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
        model = fit(table.take(rest), y[rest])
        held_table = table.take(held)
        metrics.append(evaluate(held_table, y[held], model.predict_rows(held_table)))
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
    the zone's index in zone_index; keys need n_zones * 336 * m**3 < 2**63.
    Counts come from one float64 product, 0/1 zone membership times state
    weights m**2, m or 1, exact in any summation order and at any BLAS
    thread count while m**3 <= 2**53: its partial sums are integers below m**3.

    Two steps with the same calendar key and the same state for every
    occupant give the same key in every layout and zone, so keys are built
    only for the distinct steps, in np.unique's order, which sorts them by
    calendar key first; step_of maps each step to its distinct step.
    """

    _CALENDAR_KEYS = 24 * 7 * 2

    def __init__(self, states: StateGrid, zone_index: dict):
        m = self._base = len(states.occupants) + 1
        if len(zone_index) * self._CALENDAR_KEYS * m**3 >= 2**63:
            raise ValueError("too many occupants and zones for 64-bit row keys")
        if m**3 > 2**53:
            raise ValueError("too many occupants for exact zone counts: (n_occupants + 1)**3 "
                             "exceeds 2**53, past which float64 skips integers")
        cal = states.calendar
        self.zone_index = zone_index
        self._occ_index = {occ: i for i, occ in enumerate(states.occupants)}
        calendar_key = (cal.hours.astype(np.int64) * 7 + cal.dows) * 2 + cal.weekend
        columns = np.vstack([calendar_key, states.states]).astype(np.int16)
        _, distinct, step_of = np.unique(columns, axis=1, return_index=True, return_inverse=True)
        self.step_of = step_of.reshape(-1)
        self._step_key = calendar_key[distinct] * m**3
        self._zone_key = self._CALENDAR_KEYS * m**3
        # an occupant in state 1, 2 or 3 adds m^2, m or 1 to its zone's key;
        # the zero row after the occupants' rows is row -1, a vacant desk
        state_weight = np.zeros(256)
        state_weight[[1, 2, 3]] = (m * m, m, 1)
        self._weights = np.zeros((m, distinct.size))
        self._weights[:-1] = state_weight.take(states.states[:, distinct])

    def occupant_rows(self, occupants: Sequence[str]) -> np.ndarray:
        """The state-grid row of each occupant id."""
        try:
            return np.array([self._occ_index[o] for o in occupants], dtype=np.intp)
        except KeyError:
            missing = [o for o in occupants if o not in self._occ_index]
            raise ValueError(f"occupants without states: {missing}") from None

    def keys(self, rows: np.ndarray, desk_zone: np.ndarray, zone_order: list[str]) -> np.ndarray:
        """Row keys (n_layouts, n_zones, n_distinct_steps), zones in zone_order.

        rows: (n_layouts, desks) state-grid rows, -1 vacant, desk j in zone_order[desk_zone[j]].
        Index the last axis with step_of for every step's keys.
        """
        zone = _model_zone_indices(zone_order, self.zone_index)
        member = np.zeros((len(rows), len(zone_order), self._base))
        member[np.arange(len(rows))[:, None], desk_zone, rows] = 1.0
        counts = member.reshape(-1, self._base) @ self._weights
        keys = counts.astype(np.int64).reshape(*member.shape[:2], -1) + self._step_key
        return keys + (zone * self._zone_key)[:, None]

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


class _KeyTable:
    """Open-addressing map from row keys (int64, >= 0) to float predictions.

    Fibonacci hashing picks a key's home slot and linear probing walks on
    from it (Knuth, TAOCP vol. 3, 6.4); empty slots hold -1.  The table
    stays at most half full and doubles, rehashing every key, when a store
    would pass that.
    """

    _EMPTY = -1
    _FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd

    def __init__(self, slots: int = 2**12):
        # slots: a power of two, at least 2
        self._resize(slots)
        self.count = 0

    @property
    def slots(self) -> int:
        return self._keys.size

    def _resize(self, slots: int) -> None:
        self._keys = np.full(slots, self._EMPTY, dtype=np.int64)
        self._values = np.empty(slots)
        self._shift = np.uint64(64 - (slots.bit_length() - 1))
        self._mask = slots - 1

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        # uint64 arrays wrap on overflow, as the multiplicative hash needs;
        # every home slot is below 2**63, so it reads back as an intp
        home = keys.view(np.uint64) * self._FIBONACCI
        home >>= self._shift
        return home.view(np.intp)

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's slot and whether the table holds it there; a missing
        key's slot is the empty one that ended its probe."""
        slot = self._hash(keys)
        stored = self._keys[slot]
        hit = stored == keys
        # only keys whose slot holds another key walk on
        walk = np.flatnonzero(~hit)
        walk = walk[stored[walk] != self._EMPTY]
        while walk.size:
            slot[walk] = (slot[walk] + 1) & self._mask
            stored = self._keys[slot[walk]]
            found = stored == keys[walk]
            hit[walk[found]] = True
            walk = walk[~found & (stored != self._EMPTY)]
        return slot, hit

    def values(self, slot: np.ndarray) -> np.ndarray:
        return self._values[slot]

    def store(self, keys: np.ndarray, values: np.ndarray, slot: np.ndarray) -> None:
        """Add distinct keys that the table does not hold; slot is where each
        key's probe ended, and holds only while the table does not grow."""
        slots = self.slots
        while 2 * (self.count + keys.size) > slots:
            slots *= 2
        if slots > self.slots:
            held = self._keys != self._EMPTY
            old_keys, old_values = self._keys[held], self._values[held]
            self._resize(slots)
            self._place(old_keys, old_values, self._hash(old_keys))
            slot = self._hash(keys)
        self._place(keys, values, slot)
        self.count += keys.size

    def _place(self, keys: np.ndarray, values: np.ndarray, slot: np.ndarray) -> None:
        while keys.size:
            free = self._keys[slot] == self._EMPTY
            # keys that reach one free slot all write it; one of them stays
            self._keys[slot[free]] = keys[free]
            placed = self._keys[slot] == keys
            self._values[slot[placed]] = values[placed]
            rest = ~placed
            keys, values, slot = keys[rest], values[rest], (slot[rest] + 1) & self._mask


class LayoutScorer:
    """Predicted lighting energy of layouts, each distinct feature row predicted once.

    Layouts come as a population of seat rows (ingest.Layout.seat_rows) of
    one template.  Rows are _RowEncoder keys over the model's zone indices;
    the model's clamped prediction of each key is kept in a hashed memo
    (_KeyTable).  Scoring takes as many layouts at once as fit BATCH_CELLS
    zone-step rows: it looks up their keys on the distinct steps, then
    gathers the predictions of every step (step_of) in build_features'
    step-major order and sums them; the model only sees keys it has not
    seen before.  Predictions do not depend on their batch, so a layout's
    total equals scoring its whole feature table at once.
    """

    def __init__(self, model, states: StateGrid):
        self.model = model
        self._encoder = _RowEncoder(states, {z: j for j, z in enumerate(model.zone_order)})
        self.calendar = states.calendar
        self._memo = _KeyTable()

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        slot, hit = self._memo.probe(keys)
        values = self._memo.values(slot)
        if not hit.all():
            miss = ~hit
            new, first, new_of = np.unique(keys[miss], return_index=True, return_inverse=True)
            pred = np.maximum(self.model.predict_raw(self._encoder.decode(new)), 0.0)
            values[miss] = pred[new_of]
            self._memo.store(new, pred, slot[miss][first])
        return values

    def _chunks(self, population: np.ndarray, template: Layout):
        """Yield (first layout, per-step predictions) per batch of the population; the
        predictions, (n_layouts, n_steps, n_zones), hold rows as build_features does."""
        # index -1 picks the appended -1, the encoder's empty row
        row_of = np.append(self._encoder.occupant_rows(template.occupants()), -1)
        zone_order = sorted(template.zones)
        desk_zone = np.repeat(np.arange(len(zone_order)), np.diff(template.zone_bounds()))
        # a batch's keys, zones x distinct steps per layout, are no more than its rows
        batch = max(1, BATCH_CELLS // (len(zone_order) * self.calendar.n_steps))
        for lo in range(0, len(population), batch):
            keys = self._encoder.keys(row_of[population[lo : lo + batch]], desk_zone, zone_order)
            pred = self._lookup(keys.ravel()).reshape(keys.shape).transpose(0, 2, 1)
            yield lo, pred[:, self._encoder.step_of]

    def totals(self, population: np.ndarray, template: Layout) -> np.ndarray:
        """Predicted energy of each layout of a population of the template's seat rows."""
        out = np.empty(len(population))
        for lo, steps in self._chunks(population, template):
            out[lo : lo + len(steps)] = steps.reshape(len(steps), -1).sum(axis=1)
        return out

    def report(self, layout: Layout, baseline: Layout | None = None) -> EnergyReport:
        """Hourly energy per zone; optional baseline comparison."""
        pred = next(self._chunks(layout.seat_rows([layout]), layout))[1].reshape(-1)
        zone_order = sorted(layout.zones)
        n_zones = len(zone_order)
        hour_starts, hour_column = self.calendar.hour_columns()
        hourly = np.zeros((n_zones, hour_starts.size))
        zcol = np.tile(np.arange(n_zones), self.calendar.n_steps)
        np.add.at(hourly, (zcol, np.repeat(hour_column, n_zones)), pred)
        grand = float(pred.sum())
        baseline_total = None
        pct = None
        if baseline is not None:
            baseline_total = float(self.totals(baseline.seat_rows([baseline]), baseline)[0])
            pct = percent_change(grand, baseline_total)
        return EnergyReport(zone_order, hour_starts, hourly, grand, baseline_total, pct)


def predict_energy(
    model, layout: Layout, states: StateGrid, baseline: Layout | None = None
) -> EnergyReport:
    """Score a layout with a trained surrogate; optional baseline comparison."""
    return LayoutScorer(model, states).report(layout, baseline)


def write_energy_report(report: EnergyReport, path, header_comment: str | None = None) -> None:
    comments = [header_comment, f"grand_total_wh: {report.grand_total!r}"]
    if report.baseline_total is not None:
        comments.append(f"baseline_total_wh: {report.baseline_total!r}")
        comments.append(f"percent_change: {report.percent_change!r}")
    lines = _series_lines(report.zone_order, report.hour_epochs, report.hourly)
    _write_lines(path, ["zone_id", "period_start", "energy_pred_wh"], lines, comments)


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

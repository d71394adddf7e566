"""Activity-state inference: variational Bayesian GMM over desk power values.

Each occupant's 15-minute power series is clustered twice: a first fit
separates absence (low power) from presence, and a second fit on the
higher-power samples splits presence into medium and high activity.
Final labels are {1, 2, 3}, ordered by mean power.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property

import numpy as np
from scipy.special import digamma, gammaln

from .ingest import (
    STEP_SECONDS,
    InputError,
    StepCalendar,
    TimeSeriesGrid,
    _read_timeline,
    _Values,
    _write_json,
    _write_series,
)

_LN_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class VbGmmPriors:
    """Prior hyperparameters; None fields are derived from the sample.

    concentration: Dirichlet weight per component (small values prune
    unused components).  mean/mean_scale parameterize the Gaussian prior
    on component means given precision; shape/rate the Gamma prior on
    precisions.  Derived defaults: mean = sample mean, rate = shape *
    sample variance (prior expected precision = 1 / variance), which
    keeps inference invariant to rescaling the power series.
    """

    concentration: float = 1e-3
    mean: float | None = None
    mean_scale: float = 1.0
    shape: float = 0.5
    rate: float | None = None

    def resolve(self, samples: np.ndarray) -> "VbGmmPriors":
        mean = float(np.mean(samples)) if self.mean is None else self.mean
        if self.rate is None:
            var = float(np.var(samples))
            rate = self.shape * max(var, np.finfo(float).tiny)
        else:
            rate = self.rate
        return replace(self, mean=mean, rate=rate)


@dataclass
class VbGmmModel:
    """Fitted univariate variational Gaussian mixture.

    weights/means/precisions are posterior expectations; the dirichlet_*,
    mean_*, gamma_* arrays are the full variational hyperparameters.
    """

    k_max: int
    weights: np.ndarray
    means: np.ndarray
    precisions: np.ndarray
    dirichlet_concentration: np.ndarray
    mean_location: np.ndarray
    mean_scale: np.ndarray
    gamma_shape: np.ndarray
    gamma_rate: np.ndarray
    elbo_trace: list[float]
    priors: VbGmmPriors
    seed: int
    n_samples: int
    degenerate: bool = False

    def log_responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized log responsibilities under the variational posterior."""
        if self.degenerate:
            return np.zeros((x.size, 1))
        alpha = self.dirichlet_concentration
        e_log_weight = digamma(alpha) - digamma(alpha.sum())
        e_log_prec = digamma(self.gamma_shape) - np.log(self.gamma_rate)
        e_prec = self.gamma_shape / self.gamma_rate
        diff = x[:, None] - self.mean_location[None, :]
        quad = e_prec[None, :] * diff**2 + 1.0 / self.mean_scale[None, :]
        return (e_log_weight + 0.5 * e_log_prec - 0.5 * _LN_2PI)[None, :] - 0.5 * quad

    def assign(self, x: np.ndarray, weight_floor: float) -> np.ndarray:
        """Map samples to the index of their most responsible effective component."""
        keep = np.flatnonzero(self.weights >= weight_floor)
        if keep.size == 0:
            raise ValueError("no component reaches the weight floor")
        log_r = self.log_responsibilities(x)
        if self.degenerate:
            return keep[np.zeros(x.size, dtype=np.intp)]
        return keep[np.argmax(log_r[:, keep], axis=1)]

    def to_dict(self) -> dict:
        def listify(a):
            return [None if not np.isfinite(v) else float(v) for v in np.asarray(a, dtype=float)]

        return {
            "k_max": self.k_max,
            "weights": listify(self.weights),
            "means": listify(self.means),
            "precisions": listify(self.precisions),
            "dirichlet_concentration": listify(self.dirichlet_concentration),
            "mean_location": listify(self.mean_location),
            "mean_scale": listify(self.mean_scale),
            "gamma_shape": listify(self.gamma_shape),
            "gamma_rate": listify(self.gamma_rate),
            "elbo_trace": [float(v) for v in self.elbo_trace],
            "priors": asdict(self.priors),
            "seed": self.seed,
            "n_samples": self.n_samples,
            "degenerate": self.degenerate,
        }


def _degenerate_model(value: float, n: int, priors: VbGmmPriors, k_max: int, seed: int) -> VbGmmModel:
    one = np.ones(1)
    return VbGmmModel(
        k_max=k_max,
        weights=one.copy(),
        means=np.array([value]),
        precisions=np.array([np.inf]),
        dirichlet_concentration=one * (priors.concentration + n),
        mean_location=np.array([value]),
        mean_scale=one * (priors.mean_scale + n),
        gamma_shape=one * (priors.shape + n / 2.0),
        gamma_rate=one * (priors.rate if priors.rate is not None else np.finfo(float).tiny),
        elbo_trace=[],
        priors=priors,
        seed=seed,
        n_samples=n,
        degenerate=True,
    )


def _kl_dirichlet(alpha: np.ndarray, alpha0: float, e_log_weight: np.ndarray) -> float:
    """KL(q(weights) || prior); e_log_weight = digamma(alpha) - digamma(alpha.sum())."""
    k = alpha.size
    a0 = np.full(k, alpha0)
    return float(
        gammaln(alpha.sum())
        - gammaln(k * alpha0)
        + np.sum(gammaln(a0) - gammaln(alpha))
        + np.sum((alpha - a0) * e_log_weight)
    )


def _kl_normal_gamma(
    m: np.ndarray,
    beta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    priors: VbGmmPriors,
    digamma_a: np.ndarray,
    log_b: np.ndarray,
    e_prec: np.ndarray,
) -> float:
    """KL(q(means, precisions) || prior), given the E-step's digamma(a), log(b) and a / b."""
    m0, beta0, a0, b0 = priors.mean, priors.mean_scale, priors.shape, priors.rate
    kl_mean = 0.5 * (
        np.log(beta / beta0) - 1.0 + beta0 / beta + beta0 * e_prec * (m - m0) ** 2
    )
    kl_gamma = (
        (a - a0) * digamma_a - gammaln(a) + gammaln(a0) + a0 * (log_b - np.log(b0)) + a * (b0 - b) / b
    )
    return float(np.sum(kl_mean + kl_gamma))


_EXP_ZERO_BELOW = -746.0  # np.exp(a) is 0.0 for every a below -745.14


def _exp(a: np.ndarray, zero: np.ndarray, keep: np.ndarray) -> None:
    """a = np.exp(a) in place, bit for bit.

    np.exp leaves its vector path for underflowing arguments and costs
    15-130x more per element there, and a dead mixture component puts a
    whole row of the iteration arrays below _EXP_ZERO_BELOW; such entries
    are set to 0.0 without np.exp.  zero and keep are boolean scratch
    arrays shaped like a.
    """
    np.less(a, _EXP_ZERO_BELOW, out=zero)
    np.logical_not(zero, out=keep)
    np.exp(a, out=a, where=keep)
    np.copyto(a, 0.0, where=zero)


def fit_vbgmm(
    samples: np.ndarray,
    k_max: int = 10,
    priors: VbGmmPriors | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
    seed: int = 0,
) -> VbGmmModel:
    """Mean-field variational fit of a univariate Bayesian Gaussian mixture.

    Components are initialized on sample quantiles with seeded jitter, then
    updated until the variational bound improves by less than tol.  Constant
    input yields a degenerate single-component model (flagged); non-finite
    input raises.

    The per-iteration arrays are component-major, one row of n samples per
    component, allocated once and written in place.  The M-step sums over
    samples add in sample order, as the sample-major ``(n, k_max)`` form's
    ``sum(axis=0)`` did.
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

    log_rho = np.empty((k_max, n))
    resp = np.empty((k_max, n))
    work = np.empty((k_max, n))
    work_t = np.empty((n, k_max))
    is_max = np.empty((k_max, n), dtype=bool)
    zero = np.empty((k_max, n), dtype=bool)
    keep = np.empty((k_max, n), dtype=bool)
    lse = np.empty(n)
    col_max = np.empty(n)
    n_max = np.empty(n)

    def normalize() -> None:
        """lse = log-sum-exp of log_rho over components; resp = exp(log_rho - lse).

        scipy.special.logsumexp's steps (Blanchard, Higham & Higham 2021):
        the maximum entries are counted and left out of the shifted sum s,
        and lse = log1p(s / count) + log(count) + max.  s is summed over a
        sample-major copy so that each sample's terms add in scipy's order;
        a row-by-row sum moves elbo_trace by up to 4e-5 relative on a
        near-constant series.
        """
        np.max(log_rho, axis=0, out=col_max)
        np.subtract(log_rho, col_max, out=work)
        np.equal(work, 0.0, out=is_max)
        _exp(work, zero, keep)
        np.copyto(work, 0.0, where=is_max)
        np.copyto(work_t, work.T)
        np.sum(work_t, axis=1, out=lse)
        if np.count_nonzero(is_max) > n:  # ties for the maximum
            np.sum(is_max, axis=0, out=n_max)
            np.divide(lse, n_max, out=lse)
            np.log1p(lse, out=lse)
            np.add(lse, np.log(n_max, out=n_max), out=lse)
        else:  # a count of 1 changes nothing: s / 1 == s and log(1) == 0
            np.log1p(lse, out=lse)
        np.add(lse, col_max, out=lse)
        np.subtract(log_rho, lse, out=resp)
        _exp(resp, zero, keep)

    rng = np.random.default_rng(seed)
    std = float(np.std(x))
    init_means = np.quantile(x, (np.arange(k_max) + 0.5) / k_max)
    init_means = init_means + rng.normal(0.0, 0.01 * std, size=k_max)
    var = max(std**2, np.finfo(float).tiny)
    np.subtract(x, init_means[:, None], out=log_rho)
    np.square(log_rho, out=log_rho)
    np.multiply(log_rho, -0.5, out=log_rho)
    np.divide(log_rho, var, out=log_rho)
    normalize()

    tiny = np.finfo(float).tiny
    elbo_trace: list[float] = []

    def m_step():
        # sums over samples in sample order: the last column of a cumsum
        nk = np.cumsum(resp, axis=1, out=work)[:, -1].copy()
        nk_safe = np.maximum(nk, tiny)
        np.multiply(resp, x, out=work)
        xbar = np.cumsum(work, axis=1, out=work)[:, -1] / nk_safe
        np.subtract(x, xbar[:, None], out=work)
        np.square(work, out=work)
        np.multiply(work, resp, out=work)
        sk = np.cumsum(work, axis=1, out=work)[:, -1] / nk_safe
        alpha = alpha0 + nk
        beta = beta0 + nk
        m = (beta0 * m0 + nk * xbar) / beta
        a = a0 + nk / 2.0
        b = b0 + 0.5 * (nk * sk + beta0 * nk * (xbar - m0) ** 2 / (beta0 + nk))
        return alpha, beta, m, a, b

    alpha, beta, m, a, b = m_step()
    for _ in range(max_iter):
        e_log_weight = digamma(alpha) - digamma(alpha.sum())
        digamma_a, log_b = digamma(a), np.log(b)
        e_log_prec = digamma_a - log_b
        e_prec = a / b
        offset = e_log_weight + 0.5 * e_log_prec - 0.5 * _LN_2PI
        np.subtract(x, m[:, None], out=log_rho)
        np.square(log_rho, out=log_rho)
        np.multiply(log_rho, e_prec[:, None], out=log_rho)
        np.add(log_rho, 1.0 / beta[:, None], out=log_rho)
        np.multiply(log_rho, 0.5, out=log_rho)
        np.subtract(offset[:, None], log_rho, out=log_rho)
        normalize()
        elbo = (
            float(lse.sum())
            - _kl_dirichlet(alpha, alpha0, e_log_weight)
            - _kl_normal_gamma(m, beta, a, b, resolved, digamma_a, log_b, e_prec)
        )
        elbo_trace.append(elbo)
        if len(elbo_trace) >= 2 and elbo - elbo_trace[-2] < tol:
            break
        alpha, beta, m, a, b = m_step()

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


def converged(model: VbGmmModel, tol: float) -> bool:
    """Whether the fit stopped on the tol rule rather than at max_iter.

    A degenerate model runs no iteration and counts as converged.
    """
    trace = model.elbo_trace
    return model.degenerate or (len(trace) >= 2 and trace[-1] - trace[-2] < tol)


def effective_components(model: VbGmmModel, weight_floor: float = 1e-2) -> int:
    """Number of components whose expected weight clears the floor."""
    return int(np.sum(model.weights >= weight_floor))


@dataclass(frozen=True)
class StateConfig:
    """Knobs for the two-step state inference."""

    k_max: int = 10
    priors: VbGmmPriors = field(default_factory=VbGmmPriors)
    weight_floor: float = 1e-2
    tol: float = 1e-6
    # pruning duplicate components is slow: a single-level series needs a
    # few thousand iterations before mass consolidates onto one component
    max_iter: int = 5000
    idle_threshold_w: float = 5.0
    seed: int = 0


@dataclass
class OccupantFit:
    """Fit record for one occupant: first-pass model, optional second pass."""

    occupant_id: str
    first: VbGmmModel
    second: VbGmmModel | None
    rule: str  # which labeling path applied


@dataclass(frozen=True)
class StateGrid:
    """Per-occupant, per-step activity states in {1, 2, 3}.

    Frozen, so the cached calendar always matches the start and the length.
    """

    occupants: list[str]
    start: datetime
    states: np.ndarray  # (n_occupants, n_steps) int8

    def __post_init__(self):
        object.__setattr__(self, "start", self.start.astimezone(timezone.utc))
        if self.states.ndim != 2 or self.states.shape[0] != len(self.occupants):
            raise InputError("state matrix shape does not match occupant list")

    @property
    def n_steps(self) -> int:
        return self.states.shape[1]

    @cached_property
    def calendar(self) -> StepCalendar:
        """Hour, weekday and weekend of each step, from the grid's start and length."""
        return StepCalendar(self.start, self.n_steps)

    def step_epochs(self) -> np.ndarray:
        start_s = int(self.start.timestamp())
        return start_s + STEP_SECONDS * np.arange(self.n_steps, dtype=np.int64)

    def vectors(self) -> dict[str, np.ndarray]:
        """Occupant schedules as float vectors (for distances and SVD)."""
        return {
            occ: self.states[i].astype(float) for i, occ in enumerate(self.occupants)
        }


def _split_low_group(
    order: np.ndarray, means: np.ndarray, idle_threshold_w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Merge ≥ 2 components, sorted by mean, into a low and a high group.

    Cut at the largest gap among cuts whose low side stays under the idle
    threshold, so a mid-power level can never be absorbed into the absence
    group merely because the upper gap is wider; when every component sits
    above the threshold, fall back to the unconstrained largest gap.  With
    an infinite threshold (the second pass) every cut is allowed.
    """
    sorted_means = means[order]
    gaps = np.diff(sorted_means)
    allowed = np.flatnonzero(sorted_means[:-1] < idle_threshold_w)
    if allowed.size:
        cut = int(allowed[np.argmax(gaps[allowed])]) + 1
    else:
        cut = int(np.argmax(gaps)) + 1
    return order[:cut], order[cut:]


def _derived_seed(master: int, *path: int) -> int:
    return int(np.random.SeedSequence([master, *path]).generate_state(1)[0])


class WeightFloorError(ValueError):
    """No component of a mixture fit reaches the weight floor."""


def _high_group(
    model: VbGmmModel, x: np.ndarray, weight_floor: float, idle_threshold_w: float, name: str
) -> tuple[int, np.ndarray | None]:
    """The fit's effective components and which samples fall in their high group.

    The effective components, sorted by mean, are merged into a low and a
    high group (_split_low_group); the mask is None when a single component
    is effective.  A WeightFloorError names the fit by name.
    """
    keep = np.flatnonzero(model.weights >= weight_floor)
    if keep.size == 0:
        raise WeightFloorError(
            f"no component of {name} has weight >= {weight_floor!r}, "
            f"the largest is {float(model.weights.max())!r}"
        )
    if model.degenerate or keep.size == 1:
        return keep.size, None
    comp = model.assign(x, weight_floor)
    order = keep[np.argsort(model.means[keep], kind="stable")]
    low, _ = _split_low_group(np.arange(order.size), model.means[order], idle_threshold_w)
    return keep.size, ~np.isin(comp, order[low])


def infer_states_detailed(
    grid: TimeSeriesGrid, config: StateConfig | None = None
) -> tuple[StateGrid, list[OccupantFit]]:
    """Two-step clustering of each occupant's power values into states 1..3.

    First fit separates the low-power cluster (state 1) from the rest;
    the higher-power samples are refit and split into states 2 and 3 by
    component mean.  Degenerate outcomes fall back to monotone rules:
    a single first-pass component maps everything to state 1 (mean below
    the idle threshold) or state 3; three or more first-pass components
    are merged to two groups at the largest mean gap whose low side stays
    under the idle threshold (unconstrained largest gap when none does);
    a single second-pass component sends all high samples to state 3.
    A fit with no component at or above the weight floor raises
    WeightFloorError.
    """
    cfg = config or StateConfig()
    n_occ = len(grid.occupants)
    states = np.empty((n_occ, grid.n_steps), dtype=np.int8)
    fits: list[OccupantFit] = []

    def fit(samples: np.ndarray, *path: int) -> VbGmmModel:
        return fit_vbgmm(
            samples,
            k_max=cfg.k_max,
            priors=cfg.priors,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            seed=_derived_seed(cfg.seed, *path),
        )

    for i, occ in enumerate(grid.occupants):
        x = grid.values[i]
        first = fit(x, i)
        labels = np.ones(x.size, dtype=np.int8)
        second = None
        n_eff, is_high = _high_group(
            first, x, cfg.weight_floor, cfg.idle_threshold_w, f"occupant {occ}'s first-pass fit"
        )
        if is_high is None:
            mean = float(first.means[np.argmax(first.weights)])
            if mean < cfg.idle_threshold_w:
                rule = "single-low"
            else:
                labels[:] = 3
                rule = "single-high"
        else:
            rule = "two-step" if n_eff == 2 else "two-step-merged"
            high_x = x[is_high]
            second = fit(high_x, i, 1)
            _, is_top = _high_group(
                second, high_x, cfg.weight_floor, np.inf, f"occupant {occ}'s second-pass fit"
            )
            if is_top is None:
                labels[is_high] = 3
                rule += "/high-only"
            else:
                labels[is_high] = np.where(is_top, 3, 2)
        states[i] = labels
        fits.append(OccupantFit(occ, first, second, rule))

    return StateGrid(list(grid.occupants), grid.start, states), fits


def write_states(grid: StateGrid, path, header_comment: str | None = None) -> None:
    """Persist a StateGrid as occupant_id,timestamp,state rows."""
    _write_series(path, "state", grid.occupants, grid.step_epochs(), grid.states, header_comment)


def _parse_state(text: str) -> int:
    try:
        s = int(text)
    except ValueError:
        s = None
    if s not in (1, 2, 3):
        raise InputError(f"state must be 1, 2, or 3, got {text!r}")
    return s


def _state_column(cells) -> np.ndarray:
    """_parse_state of each cell, parsed once per distinct cell ("1", "2", "3")."""
    table = {cell: _parse_state(cell.strip()) for cell in set(cells)}
    return np.fromiter(map(table.__getitem__, cells), np.int8, len(cells))


_STATE = _Values("state", np.int8, _parse_state, _state_column)


def load_states(path) -> StateGrid:
    occupants, start, states = _read_timeline(path, "state", _STATE)
    return StateGrid(occupants, start, states)


def write_models(fits: list[OccupantFit], config: StateConfig, path, extra: dict | None = None) -> None:
    """Persist per-occupant mixture models (and the config used) as JSON."""
    doc = {
        "config": asdict(config),
        "occupants": [
            {
                "occupant_id": f.occupant_id,
                "rule": f.rule,
                "first": f.first.to_dict(),
                "second": None if f.second is None else f.second.to_dict(),
            }
            for f in fits
        ],
    }
    if extra:
        doc.update(extra)
    _write_json(path, doc)

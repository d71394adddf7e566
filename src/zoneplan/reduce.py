"""Dimension reduction of the stacked state matrix via truncated SVD.

The state matrix M has one row per time step and one column per
occupant.  Occupants are projected into a d-dimensional concept space
with the top-d left singular vectors: R' = U_d^T M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import StateGrid

RANK_RTOL = 1e-10  # singular values above RANK_RTOL * sigma_max count toward rank


@dataclass
class SvdFactors:
    """Thin SVD of the state matrix with a deterministic sign convention.

    All min(rows, cols) singular values are kept (including zeros); rank
    is the numerical rank at the RANK_RTOL threshold and bounds how many
    dimensions a projection may retain.
    """

    u: np.ndarray  # rows x k, orthonormal columns
    sigma: np.ndarray  # k, non-increasing, >= 0
    v: np.ndarray  # cols x k, orthonormal columns
    rank: int

    def truncation_error(self, d: int) -> float:
        """Frobenius error of the top-d reconstruction: sqrt(sum of sigma_k^2, k > d)."""
        if not 0 <= d <= self.sigma.size:
            raise ValueError(f"d out of range: {d}")
        return float(np.sqrt(np.sum(self.sigma[d:] ** 2)))


def state_matrix(grid: StateGrid) -> tuple[np.ndarray, list[str]]:
    """Stack a StateGrid into the (steps x occupants) matrix the SVD expects."""
    return grid.states.T.astype(float), list(grid.occupants)


def svd_decompose(m: np.ndarray) -> SvdFactors:
    """Thin SVD with signs fixed so each U column's largest entry is positive."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError("expected a 2-D matrix with at least one column")
    if m.shape[0] < m.shape[1]:
        raise ValueError("matrix must have at least as many rows as columns")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    v = vt.T
    flips = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flips[flips == 0] = 1.0
    u = u * flips[None, :]
    v = v * flips[None, :]
    sigma_max = sigma[0] if sigma.size else 0.0
    rank = int(np.sum(sigma > RANK_RTOL * sigma_max)) if sigma_max > 0 else 0
    return SvdFactors(u, sigma, v, rank)


@dataclass
class ReducedOccupants:
    """Concept-space coordinates: column i holds occupant i's d-vector."""

    d: int
    matrix: np.ndarray  # d x n_occupants
    occupants: list[str]

    def vectors(self) -> dict[str, np.ndarray]:
        return {occ: self.matrix[:, i] for i, occ in enumerate(self.occupants)}


def project(
    m: np.ndarray,
    factors: SvdFactors,
    d: int,
    occupants: list[str],
) -> ReducedOccupants:
    """Project matrix columns onto the top-d left singular directions."""
    m = np.asarray(m, dtype=float)
    if not 1 <= d <= factors.rank:
        raise ValueError(f"d out of range: {d} (rank {factors.rank})")
    if m.shape[0] != factors.u.shape[0]:
        raise ValueError("matrix row count does not match the factorization")
    reduced = factors.u[:, :d].T @ m
    return ReducedOccupants(d, reduced, occupants)

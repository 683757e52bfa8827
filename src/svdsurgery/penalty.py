"""Rotation-preservation penalty anchored to a reference checkpoint.

The penalty measures how much a matrix couples the reference top-r right
subspace to directions outside the reference top-r left subspace (and vice
versa). Pure rescaling along the reference directions costs nothing; rotating
them does. Both blocks are plain projections, so value and gradient need no
SVD of the current matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import DEGENERATE_GAP_RATIO, boundary_gap, ensure_matrix, svd


@dataclass
class PenaltyRef:
    """Frozen top-r singular subspaces of a reference matrix, with their `boundary_gap`."""

    u: np.ndarray  # (m, r) orthonormal columns
    v: np.ndarray  # (n, r) orthonormal columns
    rank: int
    boundary_gap: float  # sigma_r - sigma_{r+1}; sigma_{r+1} taken as 0 at full rank
    degenerate: bool  # boundary gap below DEGENERATE_GAP_RATIO * sigma_1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])


def fit_reference(w_ref: np.ndarray, rank: int) -> PenaltyRef:
    """Extract the top-`rank` singular subspaces of `w_ref`.

    The subspaces are the leading columns `svd(w_ref, rank)` keeps, frozen
    here and never re-fit; a warning flags a degenerate `boundary_gap`
    (sigma_{r+1} = 0 at full rank), where the chosen basis is arbitrary.
    `w_ref` is never written. Passed as the only reference, as in
    `fit_reference(load(), rank)`, it is handed over to `svd` and freed
    before the decomposition allocates (see `svd`).
    """
    held = [ensure_matrix(w_ref, "reference matrix")]
    del w_ref
    thin = min(held[0].shape)
    if not 1 <= rank <= thin:
        raise ValidationError(f"rank {rank} out of range [1, {thin}]")
    t = svd(held.pop(), rank)
    gap, degenerate = boundary_gap(np.append(t.sigma, 0.0), np.arange(rank))
    if degenerate:
        warnings.warn(f"boundary gap {gap:.3e} below {DEGENERATE_GAP_RATIO:g} * sigma_1; "
                      "the top-rank subspace is ill-defined", stacklevel=2)
    return PenaltyRef(u=t.u, v=t.v, rank=rank, boundary_gap=gap, degenerate=degenerate)


def _cross_blocks(w: np.ndarray, ref: PenaltyRef) -> tuple[np.ndarray, np.ndarray]:
    """The cross blocks (I - P_U) W V_r and U_r^T W (I - P_V) of a checked `w`."""
    w = ensure_matrix(w)
    if w.shape != ref.shape:
        raise ValidationError(f"shape mismatch: {w.shape} vs reference {ref.shape}")
    wv = w @ ref.v
    uw = ref.u.T @ w
    return wv - ref.u @ (ref.u.T @ wv), uw - (uw @ ref.v) @ ref.v.T


def penalty_value(w: np.ndarray, ref: PenaltyRef) -> float:
    """Cross-block energy of `w` relative to the reference subspaces.

    Returns ||(I - P_U) W P_V||_F^2 + ||P_U W (I - P_V)||_F^2 with
    P_U = U_r U_r^T and P_V = V_r V_r^T. Zero exactly when `w` is
    block-diagonal with respect to the reference split.
    """
    cross_left, cross_right = _cross_blocks(w, ref)
    return float(np.sum(cross_left * cross_left) + np.sum(cross_right * cross_right))


def penalty_grad(w: np.ndarray, ref: PenaltyRef) -> np.ndarray:
    """Gradient of `penalty_value` with respect to `w`.

    2 (I - P_U) W P_V + 2 P_U W (I - P_V); matches central finite
    differences of the value.
    """
    cross_left, cross_right = _cross_blocks(w, ref)
    return 2.0 * (cross_left @ ref.v.T) + 2.0 * (ref.u @ cross_right)

"""SVD with canonical signs, singular-value drift, subspace angles, alignment.

Tolerance constants used across the toolkit live here:

==============================  =======  ==========================================
constant                        value    meaning
==============================  =======  ==========================================
ORTHONORMALITY_INPUT_TOL        1e-8     accepted on caller-supplied bases
DEGENERATE_GAP_RATIO            1e-6     gap below this fraction of sigma_1 flags an
                                         ill-conditioned subspace boundary
==============================  =======  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

ORTHONORMALITY_INPUT_TOL = 1e-8
DEGENERATE_GAP_RATIO = 1e-6


def ensure_matrix(w: np.ndarray, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{what} contains non-finite entries")
    return arr


@dataclass
class SvdTriple:
    """Thin SVD with descending singular values and canonical column signs.

    In each column of `u` the entry of largest magnitude is positive (ties
    broken by lowest row index); the matching column of `v` is flipped
    jointly so the reconstruction is unchanged. A triple may hold only the
    leading columns of `u` and `v` (k <= r of them) while `sigma` stays
    whole; `rank` and `shape` read the same either way.
    """

    u: np.ndarray  # (m, r), or (m, k) when truncated
    sigma: np.ndarray  # (r,) descending, non-negative
    v: np.ndarray  # (n, r), or (n, k) when truncated

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])


def sign_canonicalize(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip column pairs so each u-column's largest-magnitude entry is positive."""
    pivot = np.argmax(np.abs(u), axis=0)  # argmax returns lowest index on ties
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def _lapack_svd(arr: np.ndarray, compute_uv: bool):
    """`np.linalg.svd` of a checked matrix (thin when `compute_uv`).

    Non-convergence is raised as NumericalError.
    """
    try:
        return np.linalg.svd(arr, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def svd(w: np.ndarray) -> SvdTriple:
    """Thin SVD of `w`, canonicalized; deterministic for identical input."""
    u, s, vt = _lapack_svd(ensure_matrix(w), compute_uv=True)
    u, v = sign_canonicalize(u, vt.T)
    return SvdTriple(u=u, sigma=s, v=v)


# ---------------------------------------------------------------------------
# singular-value drift


@dataclass
class DeltaSpectrum:
    """Per-rank singular-value differences sigma(B) - sigma(A).

    `sigma_a` and `sigma_b` come from a values-only decomposition (LAPACK
    gesdd without vectors), so they may differ from `svd(w).sigma` in the
    last bits.
    """

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    delta: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.delta)))

    @property
    def mean(self) -> float:
        return float(np.mean(self.delta))

    @property
    def rel_drift(self) -> float | None:
        """max |delta| relative to the leading singular value of A.

        None (undefined) when A is zero and B is not; 0.0 when both are zero.
        """
        top = float(self.sigma_a[0])
        if top == 0.0:
            return 0.0 if self.max_abs == 0.0 else None
        return self.max_abs / top


def delta_sigma(a: np.ndarray, b: np.ndarray) -> DeltaSpectrum:
    """Singular values of same-shape `a` and `b` and their per-rank difference.

    The values come from a values-only decomposition, which skips the
    singular vectors; they may differ from `svd(w).sigma` in the last bits.
    """
    a = ensure_matrix(a, "A")
    b = ensure_matrix(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    sa = _lapack_svd(a, compute_uv=False)
    sb = _lapack_svd(b, compute_uv=False)
    return DeltaSpectrum(sigma_a=sa, sigma_b=sb, delta=sb - sa)


# ---------------------------------------------------------------------------
# principal angles between subspaces


@dataclass
class AngleSpectrum:
    """Canonical angles between two subspaces spanned by orthonormal columns.

    `cosines` descend, `angles_rad` ascend; angles near zero are evaluated
    through the orthogonal-complement residual, which stays accurate where
    arccos of a near-unit cosine loses half the working digits. A side of
    `matrix_angles` whose basis spans the whole space holds exact ones and
    zeros, taken without a decomposition.
    """

    cosines: np.ndarray  # descending, in [0, 1]
    angles_rad: np.ndarray  # ascending, in [0, pi/2]
    side: str  # "left" or "right"
    rank: int

    @property
    def angles_deg(self) -> np.ndarray:
        return np.degrees(self.angles_rad)

    @property
    def max_rad(self) -> float:
        return float(self.angles_rad[-1])

    @property
    def min_rad(self) -> float:
        return float(self.angles_rad[0])


def _check_orthonormal(q: np.ndarray, what: str) -> np.ndarray:
    q = ensure_matrix(q, what)
    gram = q.T @ q
    err = np.linalg.norm(gram - np.eye(q.shape[1]))
    if err > ORTHONORMALITY_INPUT_TOL:
        raise ValidationError(
            f"{what} columns are not orthonormal (||Q^T Q - I||_F = {err:.3e})"
        )
    return q


def principal_angles(ua: np.ndarray, ub: np.ndarray, side: str = "left") -> AngleSpectrum:
    """Canonical angles from the SVD of the cross-Gram ua^T ub.

    Cosines are clamped to [-1, 1] and folded to [0, 1] before arccos.
    Angles with cosine^2 >= 1/2 are recomputed as arcsin of the singular
    values of (I - ua ua^T) ub, paired in ascending order.
    """
    ua = _check_orthonormal(ua, "first basis")
    ub = _check_orthonormal(ub, "second basis")
    if ua.shape != ub.shape:
        raise ValidationError(f"basis shape mismatch: {ua.shape} vs {ub.shape}")

    gram = ua.T @ ub
    cosines = np.abs(np.clip(_lapack_svd(gram, compute_uv=False), -1.0, 1.0))
    angles = np.arccos(cosines)

    small = cosines**2 >= 0.5
    if np.any(small):
        resid = ub - ua @ gram
        sines = np.clip(_lapack_svd(resid, compute_uv=False), -1.0, 1.0)[::-1]
        angles[small] = np.arcsin(sines[small])

    return AngleSpectrum(cosines=cosines, angles_rad=angles, side=side, rank=ua.shape[1])


def _whole_space(side: str, dim: int) -> AngleSpectrum:
    return AngleSpectrum(cosines=np.ones(dim), angles_rad=np.zeros(dim), side=side, rank=dim)


def matrix_angles(a: np.ndarray, b: np.ndarray) -> tuple[AngleSpectrum, AngleSpectrum]:
    """Left and right singular-subspace angles between two same-shape (m, n) matrices.

    The thin left basis spans all of R^m when m <= n, and the right basis
    all of R^n when n <= m; such a side's angles are exactly zero
    (cosines one), so it is filled in without a decomposition. Only a
    rectangular pair is decomposed, for the angles of its other side.
    """
    a = ensure_matrix(a, "A")
    b = ensure_matrix(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    m, n = a.shape
    if m == n:
        return _whole_space("left", m), _whole_space("right", n)
    ta, tb = svd(a), svd(b)
    if m < n:
        return _whole_space("left", m), principal_angles(ta.v, tb.v, side="right")
    return principal_angles(ta.u, tb.u, side="left"), _whole_space("right", n)


# ---------------------------------------------------------------------------
# orthogonal alignment


def procrustes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||A R - B||_F, from the SVD of A^T B."""
    a = ensure_matrix(a, "A")
    b = ensure_matrix(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    u, _, vt = _lapack_svd(a.T @ b, compute_uv=True)
    return u @ vt

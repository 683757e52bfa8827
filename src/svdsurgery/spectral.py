"""SVD with canonical signs, singular-value drift, subspace angles, alignment.

Decompositions run in NumPy's own LAPACK. Every SVD (`svd`, whose `keep`
0 is the values-only one) calls `dgesdd` through one LAPACKE binding; where
NumPy bundles no OpenBLAS with 64-bit integers, `np.linalg.svd` runs the
same routine: the same bytes. The QR factorizations that give a
rectangular pair's angles in place (`matrix_angles`) call `dgeqrf` and
`dorgqr` through `numpy.linalg.lapack_lite`, which every NumPy ships.

Tolerance constants used across the toolkit live here:

==============================  =======  ==========================================
constant                        value    meaning
==============================  =======  ==========================================
ORTHONORMALITY_INPUT_TOL        1e-8     accepted on caller-supplied bases
DEGENERATE_GAP_RATIO            1e-6     gap below this fraction of sigma_1 flags an
                                         ill-conditioned subspace boundary; compared
                                         only in `boundary_gap`
==============================  =======  ==========================================
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

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
    jointly so the reconstruction is unchanged. A triple from `svd(w, keep)`
    holds only the leading `keep` columns of `u` and `v` while `sigma`
    stays whole; `rank` and `shape` read the same either way. With
    `keep` 0 it holds no columns, and `sigma` is the values-only one.
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


def _canonical_signs(u: np.ndarray) -> np.ndarray:
    """Per column of `u`, the sign (+1 or -1) that makes its largest-magnitude entry positive."""
    pivot = np.argmax(np.abs(u), axis=0)  # argmax returns lowest index on ties
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def sign_canonicalize(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip column pairs so each u-column's largest-magnitude entry is positive."""
    signs = _canonical_signs(u)
    return u * signs, v * signs


@functools.cache
def _bundled_openblas() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries NumPy's wheel bundles in `numpy.libs`, loaded on first use.

    Empty for a NumPy built against another BLAS or an OpenBLAS outside
    `numpy.libs`. Loading one that NumPy has already loaded maps nothing new.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*"))
    return tuple(ctypes.CDLL(str(path)) for path in paths)


def _openblas_function(name: str, restype, argtypes: list):
    """The function `name` of NumPy's bundled OpenBLAS, typed, or None if none exports it."""
    for lib in _bundled_openblas():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, or None.

    The getter and setter carry the build's symbol prefix and suffix.
    """
    for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        get = _openblas_function(getter, ctypes.c_int, [])
        put = _openblas_function(getter.replace("_get_", "_set_"), None, [ctypes.c_int])
        if get is not None and put is not None:
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the caller's count.

    The thread count is left alone where NumPy bundles no OpenBLAS
    (`_openblas_thread_calls` is None).
    """
    get, put = _openblas_thread_calls() or (lambda: None, lambda count: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _lapacke(routine: str, argtypes: list):
    """NumPy's own LAPACKE wrapper of `routine`, with 64-bit integers, or None.

    The symbol is `scipy_LAPACKE_<routine>64_` in NumPy 2.x wheels and
    `LAPACKE_<routine>64_` in 1.x wheels. It takes scalars by value, returns
    `info`, and owns the workspace: it queries, allocates and frees it.
    """
    for name in (f"scipy_LAPACKE_{routine}64_", f"LAPACKE_{routine}64_"):
        fn = _openblas_function(name, ctypes.c_int64, argtypes)
        if fn is not None:
            return fn
    return None


@functools.cache
def _gesdd():
    """NumPy's own LAPACKE `dgesdd` wrapper (see `_lapacke`), or None."""
    i64, f64 = ctypes.c_int64, np.ctypeslib.ndpointer(np.float64, flags="F")
    return _lapacke("dgesdd", [ctypes.c_int, ctypes.c_char, i64, i64, f64, i64, f64, f64, i64,
                               f64, i64])


def _lapack_lite(routine: str, *args) -> None:
    """Run `numpy.linalg.lapack_lite`'s `routine` in place on `args` with its workspace.

    `args` are the routine's arguments before `work`, its arrays C-ordered
    float64. lapack_lite ships with every NumPy and calls NumPy's own LAPACK.
    The workspace takes the optimal size that LAPACK's query (lwork -1)
    gives. A non-zero `info`, of the query or of the run, is raised as
    NumericalError.
    """
    call = getattr(lapack_lite, routine)
    size = np.empty(1)
    info = call(*args, size, -1, 0)["info"]  # the query writes the optimal size to size[0]
    if info == 0:
        work = np.empty(int(size[0]))
        info = call(*args, work, work.shape[0], 0)["info"]
    if info != 0:
        raise NumericalError(f"QR factorization failed ({routine} info={info})")


def _lapack_svd(arr: np.ndarray, keep: int | None = None):
    """(U, sigma, V^T) of `np.linalg.svd(arr, full_matrices=False)` of a checked matrix.

    `keep` None returns the whole factors, and `keep` k only U's leading k
    columns and V^T's leading k rows. `keep` 0 is the values-only
    decomposition, `np.linalg.svd(arr, compute_uv=False)`'s sigma, with a U
    and V^T of no columns and rows.

    It calls NumPy's own `dgesdd` column-major through LAPACKE (`_gesdd`),
    which sizes the workspace by the query NumPy runs, so every byte is the
    same, but LAPACK writes sigma, U and V^T into arrays allocated here,
    which are returned; NumPy copies its LAPACK buffers into second arrays.
    `arr` is never written: dgesdd overwrites a Fortran-ordered copy of it.
    Once the copy is made, this call drops its reference to `arr`, before
    sigma, U, V^T and the workspace are allocated, so an `arr` handed over
    as the only reference (see `svd`) is freed there. The workspace and the
    copy are freed before U and V^T are copied to the C order NumPy returns
    them in; with `keep`, only the kept part. Where `_gesdd` is None it
    calls `np.linalg.svd` on `arr` itself, and copies the same part: the
    same bytes. Both routes allocate the kept arrays before the
    decomposition's own, so that those are not freed around them; the
    fallback's larger peak comes only from NumPy's own buffers and the
    `arr` it still holds.

    A `keep` outside [0, min(m, n)] is a ValidationError, and a non-zero
    `info` (non-convergence) is raised as NumericalError.
    """
    m, n = arr.shape
    k = min(m, n)
    if keep is not None and not 0 <= keep <= k:
        raise ValidationError(f"keep must be between 0 and {k} for a {m}x{n} matrix, got {keep}")
    gesdd = _gesdd()
    if gesdd is None:
        if keep is not None:
            u_keep, vt_keep = np.empty((m, keep)), np.empty((keep, n))
        try:
            out = np.linalg.svd(arr, full_matrices=False, compute_uv=keep != 0)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
        if keep is None:
            return out
        u, s, vt = out if keep else (u_keep, out, vt_keep)
    else:
        a = np.array(arr, dtype=np.float64, order="F")  # dgesdd overwrites it
        del arr
        s = np.empty(k)
        if keep is not None:
            u_keep, vt_keep = np.empty((m, keep)), np.empty((keep, n))
        if keep == 0:  # u and vt are not referenced; the empty kept ones stand in
            jobz, u, vt, ldvt = b"N", u_keep, vt_keep, 1
        else:
            jobz, u, vt, ldvt = b"S", np.empty((m, k), order="F"), np.empty((k, n), order="F"), k
        info = gesdd(102, jobz, m, n, a, m, s, u, m, vt, ldvt)  # 102: column-major
        if info != 0:
            raise NumericalError(f"SVD did not converge (dgesdd info={info})")
        del a
        if keep is None:
            return u.copy(), s, vt.copy()
    u_keep[...], vt_keep[...] = u[:, :keep], vt[:keep]
    return u_keep, s, vt_keep


def svd(w: np.ndarray, keep: int | None = None) -> SvdTriple:
    """Thin SVD of `w`, canonicalized; deterministic for identical input.

    The factors are `np.linalg.svd`'s, byte for byte, from one call of
    NumPy's own LAPACKE dgesdd wrapper (`_lapack_svd`). The column signs are
    flipped in place on its C-ordered `u` and on the transpose of its
    C-ordered `vt`, so no further copy of either factor is made: `u` is
    C-ordered and `v` F-ordered, and every entry equals `sign_canonicalize`
    of the same factors, since a flip by -1 is exact. With `keep`, `u` and
    `v` hold only their leading `keep` columns; `sigma` stays whole. A
    `keep` outside [0, min(m, n)] is a ValidationError on either route.

    `keep` 0 is the values-only decomposition (dgesdd without vectors,
    `np.linalg.svd(w, compute_uv=False)`'s bytes): no vectors are computed,
    `u` and `v` hold no columns, and `sigma` may differ from the full
    decomposition's in the last bits.

    `w` is never written. A caller that passes `w` as its only reference,
    as in `svd(load())`, hands it over: a call from Python code to a Python
    function moves its argument references into the callee, and `svd`
    keeps no reference of its own, so `w` is freed once `_lapack_svd` has
    copied it for LAPACK, and does not live through the decomposition. A
    caller that holds `w` keeps it, and the decomposition then rises about
    one matrix higher.
    """
    held = [ensure_matrix(w)]
    del w
    u, s, vt = _lapack_svd(held.pop(), keep)
    v = vt.T
    signs = _canonical_signs(u)
    u *= signs
    v *= signs
    return SvdTriple(u=u, sigma=s, v=v)


def boundary_gap(sigma: np.ndarray, ranks: np.ndarray) -> tuple[float | None, bool]:
    """(gap, degenerate) of the selection `ranks` of descending `sigma`.

    `gap` is the smallest sigma_i - sigma_{i+1} where the selection starts or
    stops, and `degenerate` whether it is below DEGENERATE_GAP_RATIO * sigma_1,
    where the selected basis is arbitrary; (None, False) without a boundary.
    """
    selected = np.zeros(sigma.shape[0], dtype=bool)
    selected[ranks] = True
    boundary = selected[:-1] != selected[1:]
    if not boundary.any():
        return None, False
    gap = float(np.min(sigma[:-1][boundary] - sigma[1:][boundary]))
    return gap, gap < DEGENERATE_GAP_RATIO * float(sigma[0])


# ---------------------------------------------------------------------------
# singular-value drift


@dataclass
class DeltaSpectrum:
    """Per-rank singular-value differences sigma(B) - sigma(A).

    `sigma_a` and `sigma_b` come from the values-only decomposition
    `svd(w, 0)` (LAPACK gesdd without vectors), so they may differ from
    `svd(w).sigma` in the last bits.
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


def delta_sigma(
    load_a: Callable[[], np.ndarray], load_b: Callable[[], np.ndarray]
) -> DeltaSpectrum:
    """Singular values of two same-shape matrices A and B and their per-rank difference.

    `load_a` and `load_b` take no arguments and return the matrices. Each
    is called only once the other's decomposition is done, and its matrix
    is handed over to `svd(w, 0)` as the only reference, so it is freed
    before LAPACK runs and A is gone before B is decoded. For that, a
    loader should return an array that no one else holds, as
    `tensorstore.load_matrix` does; a held matrix is never written.

    `svd(w, 0)` is the values-only decomposition, which skips the singular
    vectors; its values may differ from `svd(w).sigma` in the last bits.
    """
    ta = svd(load_a(), 0)
    tb = svd(load_b(), 0)
    if ta.shape != tb.shape:
        raise ValidationError(f"shape mismatch: {ta.shape} vs {tb.shape}")
    return DeltaSpectrum(sigma_a=ta.sigma, sigma_b=tb.sigma, delta=tb.sigma - ta.sigma)


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
    gram.flat[:: q.shape[1] + 1] -= 1.0  # Q^T Q - I in place
    err = np.linalg.norm(gram)
    if err > ORTHONORMALITY_INPUT_TOL:
        raise ValidationError(
            f"{what} columns are not orthonormal (||Q^T Q - I||_F = {err:.3e})"
        )
    return q


def principal_angles(ua: np.ndarray | int, ub: np.ndarray, side: str = "left") -> AngleSpectrum:
    """Canonical angles from the SVD of the cross-Gram ua^T ub.

    Cosines are clamped to [-1, 1] and folded to [0, 1] before arccos.
    Angles with cosine^2 >= 1/2 are recomputed as arcsin of the singular
    values of (I - ua ua^T) ub, paired in ascending order.

    An int `ua`, n, stands for the first n coordinate axes, np.eye(k, n)
    for a (k, n) `ub`, which is not built: the cross-Gram is then ub[:n],
    and (I - ua ua^T) ub is ub with those rows zeroed, so the cosines are
    the singular values of ub[:n] and the sines those of ub[n:], padded
    with zeros to n. The axes need no orthonormality check.
    """
    axes = isinstance(ua, int)
    if not axes:
        ua = _check_orthonormal(ua, "first basis")
    ub = _check_orthonormal(ub, "second basis")
    shape_a = (ub.shape[0], ua) if axes else ua.shape
    if shape_a != ub.shape:
        raise ValidationError(f"basis shape mismatch: {shape_a} vs {ub.shape}")
    n = shape_a[1]

    gram = ub[:n] if axes else ua.T @ ub
    cosines = np.abs(np.clip(svd(gram, 0).sigma, -1.0, 1.0))
    angles = np.arccos(cosines)

    small = cosines**2 >= 0.5
    if np.any(small):
        if axes:
            resid_sigma = np.zeros(n)
            if ub.shape[0] > n:
                tail = svd(ub[n:], 0).sigma
                resid_sigma[: tail.shape[0]] = tail
        else:
            resid = ua @ gram
            np.subtract(ub, resid, out=resid)  # (I - ua ua^T) ub without a second m x k temporary
            resid_sigma = svd(resid, 0).sigma
        sines = np.clip(resid_sigma, -1.0, 1.0)[::-1]
        angles[small] = np.arcsin(sines[small])

    return AngleSpectrum(cosines=cosines, angles_rad=angles, side=side, rank=n)


def _whole_space(side: str, dim: int) -> AngleSpectrum:
    return AngleSpectrum(cosines=np.ones(dim), angles_rad=np.zeros(dim), side=side, rank=dim)


def _second_block_basis(stack: np.ndarray, cols: int) -> np.ndarray:
    """An orthonormal basis, (k, cols), of the last `cols` columns of R, where `stack` = Q R.

    `stack` is Fortran-ordered, (rows, 2 cols), and k = min(rows, 2 cols).
    Everything happens in `stack`, through `numpy.linalg.lapack_lite`'s
    `dgeqrf` and `dorgqr` (`_lapack_lite`): it is factored, which leaves R
    on and above the diagonal of its leading k rows and Householder vectors
    below it; the vectors below R's last `cols` columns are zeroed; and
    those k x cols columns, read with leading dimension rows, are factored
    again and overwritten by the Q of that factorization, which is returned
    as a view of `stack`. These are the `dgeqrf` and `dorgqr` calls that
    `np.linalg.qr(np.triu(np.linalg.qr(stack, mode="r")[:, cols:], -cols))[0]`
    makes on copies: the same bytes. lapack_lite takes C-ordered arrays, so
    the stack and its block go in as their transposes. A non-zero `info` is
    raised as NumericalError.
    """
    rows = stack.shape[0]
    k = min(rows, 2 * cols)
    _lapack_lite("dgeqrf", rows, 2 * cols, stack.T, rows, np.empty(k))
    block = stack[:, cols:]  # Fortran-ordered, so LAPACK can take it with leading dimension rows
    for j in range(cols):  # column j of R's block ends at row cols + j
        block[cols + j + 1 : k, j] = 0.0
    tau = np.empty(cols)
    _lapack_lite("dgeqrf", k, cols, block.T, rows, tau)
    _lapack_lite("dorgqr", k, cols, cols, block.T, rows, tau)
    return block[:k]


def matrix_angles(
    load_a: Callable[..., np.ndarray], load_b: Callable[..., np.ndarray], shape: tuple[int, int]
) -> tuple[AngleSpectrum, AngleSpectrum]:
    """Left and right singular-subspace angles between two matrices A and B of `shape`, (m, n).

    `load_a(out=...)` and `load_b(out=...)` decode their matrix into `out`,
    a float64 array or view of `shape`, and check it, as
    `tensorstore.load_matrix(ckpt, name, out=...)` does; they are called one
    after the other. The thin left basis spans all of R^m when m <= n, and
    the right basis all of R^n when n <= m; such a side's angles are
    exactly zero (cosines one), so it is filled in without a decomposition.
    A square pair is decoded into one buffer, A and then B, and checked but
    not decomposed.

    A rectangular pair's other side is the angles between the column
    spaces of A and B, a wide pair's transposed, with rows > cols. Neither
    matrix is decomposed (Bjorck & Golub 1973), and the pair holds one
    working buffer: A, then B, is decoded straight into its half of one
    Fortran-ordered (rows, 2 cols) stack, a wide one as the transpose of
    its half. The stack is factored in place, [A B] = Q R, and an
    orthonormal basis Q_B of B's coordinates R[:k, cols:], k = min(rows,
    2 cols), is formed in place too (`_second_block_basis`). In Q's
    coordinates A spans the first cols axes, so the angles are
    `principal_angles(cols, Q_B)`: the cosines are the singular values of
    Q_B's first cols rows and the sines those of the rest.
    """
    m, n = shape
    if m == 0 or n == 0:
        raise ValidationError(f"matrices must be non-empty, got shape {shape}")
    if m == n:
        buffer = np.empty(shape)
        load_a(out=buffer)
        load_b(out=buffer)
        return _whole_space("left", m), _whole_space("right", n)
    tall = m > n
    rows, cols = max(m, n), min(m, n)
    stack = np.empty((rows, 2 * cols), order="F")
    for load, half in ((load_a, stack[:, :cols]), (load_b, stack[:, cols:])):
        load(out=half if tall else half.T)
    partial = principal_angles(cols, _second_block_basis(stack, cols),
                               side="left" if tall else "right")
    return (partial, _whole_space("right", n)) if tall else (_whole_space("left", m), partial)


# ---------------------------------------------------------------------------
# orthogonal alignment


def procrustes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||A R - B||_F, from the SVD of A^T B."""
    a = ensure_matrix(a, "A")
    b = ensure_matrix(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    t = svd(a.T @ b)
    return t.u @ t.v.T  # the joint sign flips cancel in the product, bit for bit

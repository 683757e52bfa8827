"""SVD canonicalization, drift, principal angles, Procrustes."""

import functools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles as scipy_subspace_angles

from svdsurgery import spectral
from svdsurgery.errors import NumericalError, ValidationError
from svdsurgery.penalty import fit_reference
from svdsurgery.spectral import (
    AngleSpectrum,
    delta_sigma,
    matrix_angles,
    principal_angles,
    sign_canonicalize,
    svd,
)
from svdsurgery.tensorstore import load_matrix, open_checkpoint

from conftest import TALL_NAME, angles_of, drift_of, reconstruct, spectral_matrix, traced_peak


def plane_rotation(m: int, i: int, j: int, theta: float) -> np.ndarray:
    """Rotation by theta in the (e_i, e_j) plane of R^m."""
    rot = np.eye(m)
    c, s = np.cos(theta), np.sin(theta)
    rot[i, i] = c
    rot[j, j] = c
    rot[i, j] = -s
    rot[j, i] = s
    return rot


# ---------------------------------------------------------------------------
# svd and reconstruction


def test_svd_identity():
    t = svd(np.eye(3))
    np.testing.assert_allclose(t.sigma, [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_diagonal():
    t = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(t.sigma, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(t.u, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(t.v, np.eye(2), atol=1e-14)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(42)
    w = rng.standard_normal((8, 5))
    t = svd(w)
    rel = np.linalg.norm(reconstruct(t) - w) / np.linalg.norm(w)
    assert rel <= 1e-12
    assert np.linalg.norm(t.u.T @ t.u - np.eye(5)) <= 1e-10
    assert np.linalg.norm(t.v.T @ t.v - np.eye(5)) <= 1e-10
    assert np.all(np.diff(t.sigma) <= 0)
    assert np.all(t.sigma >= 0)


def test_svd_deterministic():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((6, 6))
    t1, t2 = svd(w), svd(w.copy())
    np.testing.assert_array_equal(t1.u, t2.u)
    np.testing.assert_array_equal(t1.sigma, t2.sigma)
    np.testing.assert_array_equal(t1.v, t2.v)


def test_svd_rejects_bad_input():
    with pytest.raises(ValidationError):
        svd(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        svd(np.zeros(3))
    from svdsurgery.errors import NumericalError

    with pytest.raises(NumericalError):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_reconstruct_cases():
    # `reconstruct` is the tests' oracle for truncated and full reconstructions
    rng = np.random.default_rng(2)
    w = rng.standard_normal((5, 7))
    t = svd(w)
    np.testing.assert_allclose(reconstruct(t), w, atol=1e-10 * np.linalg.norm(w))
    np.testing.assert_array_equal(reconstruct(t, []), np.zeros((5, 7)))

    td = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(reconstruct(td, [0]), np.diag([3.0, 0.0]), atol=1e-14)


def test_sign_canonicalization_idempotent_and_neutral():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((7, 4))
    t = svd(w)
    u2, v2 = sign_canonicalize(t.u, t.v)
    np.testing.assert_array_equal(u2, t.u)
    np.testing.assert_array_equal(v2, t.v)
    # flipping arbitrary column pairs and re-canonicalizing lands back
    flips = np.array([1.0, -1.0, -1.0, 1.0])
    u3, v3 = sign_canonicalize(t.u * flips, t.v * flips)
    np.testing.assert_allclose(u3, t.u, atol=1e-15)
    np.testing.assert_allclose(v3, t.v, atol=1e-15)
    np.testing.assert_allclose((u3 * t.sigma) @ v3.T, reconstruct(t), atol=1e-12)


@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
def test_svd_matches_sign_canonicalize_bit_for_bit_in_the_same_memory_order(shape):
    w = np.random.default_rng(4).standard_normal(shape)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    want_u, want_v = sign_canonicalize(u, vt.T)
    t = svd(w)
    for got, expected in zip((t.u, t.v, t.sigma), (want_u, want_v, s)):
        assert got.strides == expected.strides
        assert got.tobytes() == expected.tobytes()


def _lapack_inputs():
    rng = np.random.default_rng(12)
    return {
        "tall": rng.standard_normal((40, 17)),
        "wide": rng.standard_normal((17, 40)),
        "square": rng.standard_normal((23, 23)),
        "1xn": rng.standard_normal((1, 9)),
        "nx1": rng.standard_normal((9, 1)),
        "zero": np.zeros((6, 4)),
        "strided": rng.standard_normal((30, 50))[::3, ::-2],
    }


def test_dgesdd_is_bound_wherever_numpy_bundles_an_ilp64_openblas():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    bundled = [*libs.glob("libscipy_openblas64_*"), *libs.glob("libopenblas64_*")]
    if not bundled:
        pytest.skip("NumPy bundles no OpenBLAS with 64-bit integers here")
    assert spectral._gesdd() is not None, f"no dgesdd found in {bundled}"


def _qr_stacks():
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((2, 12, 30))  # a wide pair, stacked as its transposes
    return {
        "tall": rng.standard_normal((40, 16)),
        "rows-under-2n": rng.standard_normal((20, 32)),
        "transposed-wide": np.hstack([a.T, b.T]),
    }


@pytest.mark.parametrize("name", list(_qr_stacks()))
def test_householder_r_is_numpy_qr_r_bit_for_bit(name):
    # the stack's R, and the Q of R's last cols columns formed in place from
    # it, are the ones np.linalg.qr gives on copies
    stack = _qr_stacks()[name]
    cols = stack.shape[1] // 2
    want = np.linalg.qr(np.triu(np.linalg.qr(stack, mode="r")[:, cols:], -cols))[0]
    got = spectral._second_block_basis(np.array(stack, order="F"), cols)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _lapack_lite_with_lda_zero(monkeypatch, routine):
    """Make `spectral._lapack_lite` hand `routine` an invalid leading dimension, 0."""
    real = spectral._lapack_lite
    lda = {"dgeqrf": 3, "dorgqr": 4}[routine]  # its position among the arguments

    def call(name, *args):
        if name == routine:
            args = (*args[:lda], 0, *args[lda + 1:])
        return real(name, *args)

    monkeypatch.setattr(spectral, "_lapack_lite", call)


def test_dgeqrf_failure_is_a_numerical_error(monkeypatch):
    _lapack_lite_with_lda_zero(monkeypatch, "dgeqrf")  # LAPACK's info -4: lda is invalid
    a = np.random.default_rng(3).standard_normal((9, 5))
    with pytest.raises(NumericalError, match="dgeqrf info=-4"):
        angles_of(a, a)


def test_dorgqr_failure_is_a_numerical_error(monkeypatch):
    _lapack_lite_with_lda_zero(monkeypatch, "dorgqr")  # LAPACK's info -5: lda is invalid
    a = np.random.default_rng(3).standard_normal((9, 5))
    with pytest.raises(NumericalError, match="dorgqr info=-5"):
        angles_of(a, a)


@pytest.fixture(params=["binding", "fallback"])
def lapack_path(request, monkeypatch):
    """Run the test through NumPy's own dgesdd, or with the `np.linalg.svd` fallback forced."""
    if request.param == "fallback":
        monkeypatch.setattr(spectral, "_gesdd", lambda: None)
    elif spectral._gesdd() is None:
        pytest.skip("no dgesdd binding here")
    return request.param


@pytest.mark.parametrize("name", list(_lapack_inputs()))
def test_lapack_svd_is_numpy_svd_bit_for_bit_in_the_same_layout(name, lapack_path):
    w = _lapack_inputs()[name]
    before = w.copy()
    got = spectral._lapack_svd(w)
    want = np.linalg.svd(w, full_matrices=False)
    got_values = spectral._lapack_svd(w, 0)[1]
    want_values = np.linalg.svd(w, compute_uv=False)
    for g, e in [*zip(got, want), (got_values, want_values)]:
        assert (g.dtype, g.shape, g.strides) == (e.dtype, e.shape, e.strides)
        assert g.tobytes() == e.tobytes()
    assert w.tobytes() == before.tobytes()  # the input is copied, never overwritten


@pytest.mark.parametrize("name", ["tall", "wide", "square", "strided"])
def test_svd_keep_is_the_full_svd_truncated_bit_for_bit(name, lapack_path):
    w = _lapack_inputs()[name]
    full = svd(w)
    values = svd(w, 0)  # the values-only decomposition
    assert values.sigma.tobytes() == np.linalg.svd(w, compute_uv=False).tobytes()
    assert values.u.shape == (w.shape[0], 0) and values.v.shape == (w.shape[1], 0)
    for keep in (1, full.rank // 2, full.rank):
        t = svd(w, keep)
        assert t.sigma.tobytes() == full.sigma.tobytes()
        assert t.u.shape == (w.shape[0], keep) and t.v.shape == (w.shape[1], keep)
        assert t.u.flags.c_contiguous and t.v.flags.f_contiguous
        assert t.u.tobytes() == full.u[:, :keep].tobytes()
        assert t.v.tobytes() == full.v[:, :keep].tobytes()


@pytest.mark.parametrize("keep", [-1, 3, 5])
def test_svd_keep_outside_the_thin_rank_is_a_validation_error(keep, lapack_path):
    w = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValidationError, match=f"keep must be between 0 and 2.*got {keep}") as exc:
        svd(w, keep)
    assert exc.value.exit_code == 2


def test_boundary_gap_is_none_without_a_boundary():
    sigma = np.array([3.0, 2.0, 1.0])
    assert spectral.boundary_gap(sigma, np.arange(0)) == (None, False)
    assert spectral.boundary_gap(sigma, np.arange(3)) == (None, False)


def test_boundary_gap_is_the_smaller_of_an_interior_ranges_two_boundaries():
    sigma = np.array([10.0, 8.0, 7.5, 4.0, 1.0])
    assert spectral.boundary_gap(sigma, np.arange(1, 3)) == (2.0, False)  # 10-8 < 7.5-4
    assert spectral.boundary_gap(sigma, np.arange(2, 4)) == (0.5, False)  # 8-7.5 < 4-1


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_boundary_gap_with_an_appended_zero_is_the_penalty_gap(rank):
    sigma = np.array([5.0, 3.0, 2.0])
    next_sigma = sigma[rank] if rank < 3 else 0.0  # sigma_{r+1} counts as 0 at full rank
    gap, degenerate = spectral.boundary_gap(np.append(sigma, 0.0), np.arange(rank))
    assert gap == sigma[rank - 1] - next_sigma == fit_reference(np.diag(sigma), rank).boundary_gap
    assert degenerate is False


def test_boundary_gap_flags_a_planted_near_degenerate_gap():
    ratio = spectral.DEGENERATE_GAP_RATIO
    for gap, degenerate in [(0.5 * ratio * 10.0, True), (1.5 * ratio * 10.0, False)]:
        sigma = np.array([10.0, 5.0, 5.0 - gap, 1.0])
        got = spectral.boundary_gap(sigma, np.arange(2))
        assert got == (pytest.approx(gap), degenerate)
        assert type(got[1]) is bool  # a report prints a bool as true/false


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_one_svd_peak_is_at_most_five_times_its_matrix():
    # np.linalg.svd holds U and V^T twice (its LAPACK buffers and the arrays
    # it returns): about 5.5x at this shape on one OpenBLAS thread; the
    # binding holds them once, about 4.2x
    script = """
import numpy as np
from svdsurgery import spectral

def hwm_bytes():
    with open("/proc/self/status") as status:
        return 1024 * next(int(l.split()[1]) for l in status if l.startswith("VmHWM"))

spectral.svd(np.eye(3, 2))  # loads the library outside the measurement
w = np.random.default_rng(0).standard_normal((1376, 512))
before = hwm_bytes()
spectral.svd(w)
print((hwm_bytes() - before) / w.nbytes)
"""
    src = str(Path(spectral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert float(done.stdout) <= 5.0


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_a_handed_over_svd_peak_is_at_most_3_6_times_its_matrix():
    # the matrix is freed once LAPACK's copy of it is made, so one svd rises
    # about one matrix less than over a held matrix: about 3.1x against 4.2x
    script = """
import numpy as np
from svdsurgery import spectral

def hwm_bytes():
    with open("/proc/self/status") as status:
        return 1024 * next(int(l.split()[1]) for l in status if l.startswith("VmHWM"))

spectral.svd(np.eye(3, 2))  # loads the library outside the measurement
held = [np.random.default_rng(0).standard_normal((1376, 512))]
nbytes = held[0].nbytes
before = hwm_bytes()
spectral.svd(held.pop())
print((hwm_bytes() - before) / nbytes)
"""
    src = str(Path(spectral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert float(done.stdout) <= 3.6


def test_svd_frees_a_handed_over_matrix_before_dgesdd(handover_watch):
    w = np.random.default_rng(3).standard_normal((30, 12))
    t = svd(handover_watch.fresh(w))
    assert handover_watch.calls == 1  # LAPACKE runs the workspace query itself
    assert np.allclose(reconstruct(t), w)


def test_svd_leaves_a_held_matrix_alive_and_unchanged(lapack_path):
    w = np.random.default_rng(3).standard_normal((30, 12))
    before, ref = w.copy(), weakref.ref(w)
    svd(w)
    assert ref() is w
    assert w.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# delta sigma


def test_delta_sigma_identical():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 4))
    spec = drift_of(a, a)
    np.testing.assert_array_equal(spec.delta, np.zeros(4))
    assert spec.max_abs == 0.0


def test_delta_sigma_scaling():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4))
    spec = drift_of(a, 2.0 * a)
    np.testing.assert_allclose(spec.delta, spec.sigma_a, rtol=1e-12)


def test_delta_sigma_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        drift_of(np.zeros((2, 3)), np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(1376, 512), (512, 512), (128, 512)])
def test_delta_sigma_uses_the_values_only_decomposition(shape):
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    spec = drift_of(a, b)
    np.testing.assert_array_equal(spec.sigma_a, np.linalg.svd(a, compute_uv=False))
    np.testing.assert_array_equal(spec.sigma_b, np.linalg.svd(b, compute_uv=False))
    full = svd(a).sigma
    assert np.max(np.abs(spec.sigma_a - full)) <= 1e-13 * full[0]


def test_rel_drift_is_undefined_only_when_a_alone_is_zero():
    zero, b = np.zeros((4, 3)), np.arange(12.0).reshape(4, 3)
    assert drift_of(zero, b).rel_drift is None
    assert drift_of(zero, zero).rel_drift == 0.0
    assert drift_of(b, zero).rel_drift == 1.0


def test_svd_non_convergence_is_a_numerical_error(monkeypatch):
    def not_converging(*args):
        return 1  # info > 0: the bidiagonal iteration did not converge

    monkeypatch.setattr(spectral, "_gesdd", lambda: not_converging)
    w, tall = np.eye(3), np.eye(3, 2)  # a square pair's angles need no decomposition
    for call in (lambda: svd(w), lambda: drift_of(w, w),
                 lambda: angles_of(tall, tall),
                 lambda: principal_angles(w, w)):
        with pytest.raises(NumericalError, match="did not converge"):
            call()


def test_fallback_non_convergence_is_a_numerical_error(monkeypatch):
    def not_converging(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(spectral, "_gesdd", lambda: None)
    monkeypatch.setattr(np.linalg, "svd", not_converging)
    for keep in (None, 0):
        with pytest.raises(NumericalError, match="did not converge"):
            spectral._lapack_svd(np.eye(3), keep)


def test_square_pair_angles_are_exact_without_a_decomposition(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a square pair needs no decomposition")

    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 6, 6))
    monkeypatch.setattr(spectral, "_gesdd", lambda: not_called)
    monkeypatch.setattr(np.linalg, "svd", not_called)
    left, right = angles_of(a, b)
    for spec, side in ((left, "left"), (right, "right")):
        assert (spec.side, spec.rank) == (side, 6)
        assert np.array_equal(spec.cosines, np.ones(6))
        assert np.array_equal(spec.angles_rad, np.zeros(6))


def test_tall_pair_drops_a_before_b_is_decomposed():
    # A is decoded straight into its half of the QR stack, before B is loaded
    # into the other half, so no separate copy of A is alive while B loads
    rng = np.random.default_rng(10)
    a = rng.standard_normal((9, 5))
    b = a + 0.1 * rng.standard_normal((9, 5))
    outs = []

    def load_a(out):
        outs.append(out)
        out[...] = a

    def load_b(out):
        assert len(outs) == 1 and np.array_equal(outs[0], a)  # A is already in place
        outs.append(out)
        out[...] = b

    left, _ = matrix_angles(load_a, load_b, a.shape)
    assert len(outs) == 2
    assert left.max_rad > 1e-3


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
def test_matrix_angles_decodes_both_matrices_into_its_qr_stack(shape, monkeypatch):
    # the loaders write into the two halves of the one buffer that dgeqrf
    # factors, and Q_B is formed in that buffer too: no decoded matrix exists
    outs, lapack = [], []
    real = spectral._lapack_lite

    def watched(routine, *args):
        # lapack_lite takes the transposes: read the Fortran-ordered arrays back
        lapack.append((routine, (args[3] if routine == "dorgqr" else args[2]).T))
        return real(routine, *args)

    monkeypatch.setattr(spectral, "_lapack_lite", watched)
    rng = np.random.default_rng(10)
    a = rng.standard_normal(shape)
    b = a + 0.1 * rng.standard_normal(shape)

    def into(w):
        def load(out):
            outs.append(out)
            out[...] = w

        return load

    left, right = matrix_angles(into(a), into(b), shape)
    assert [name for name, _ in lapack] == ["dgeqrf", "dgeqrf", "dorgqr"]
    stack = lapack[0][1]
    assert stack.shape == (max(shape), 2 * min(shape)) and stack.flags.f_contiguous
    assert all(np.shares_memory(out, stack) for out in outs)
    assert not np.shares_memory(*outs)
    assert all(np.shares_memory(array, stack) for _, array in lapack[1:])
    assert max(left.max_rad, right.max_rad) > 1e-3


def test_matrix_angles_peak_is_at_most_2_6_matrices(tall_pair):
    # the 2n-column stack that both matrices decode into, plus one F32
    # payload while it is decoded, about 2.5; with a decoded matrix beside
    # the stack, about 3.5
    host_path, donor_path, matrix_bytes = tall_pair
    host, donor = open_checkpoint(host_path), open_checkpoint(donor_path)
    loads = [functools.partial(load_matrix, ckpt, TALL_NAME) for ckpt in (host, donor)]
    peak = traced_peak(lambda: matrix_angles(*loads, (600, 200)))
    assert peak <= 2.6 * matrix_bytes, peak / matrix_bytes


def test_delta_sigma_peak_is_at_most_2_1_matrices(tall_pair):
    # each matrix is handed over to its values-only svd, so A is freed
    # before B is decoded: one matrix and LAPACK's copy of it, about 2.0;
    # with both decoded first, about 3.0
    host_path, donor_path, matrix_bytes = tall_pair
    host, donor = open_checkpoint(host_path), open_checkpoint(donor_path)
    loads = [functools.partial(load_matrix, ckpt, TALL_NAME) for ckpt in (host, donor)]
    peak = traced_peak(lambda: delta_sigma(*loads))
    assert peak <= 2.1 * matrix_bytes, peak / matrix_bytes


def test_pair_of_different_shapes_is_a_validation_error(write_container):
    path = write_container({"w": ("F64", np.eye(3, 2)), "v": ("F64", np.eye(2, 3))})
    ckpt = open_checkpoint(path)
    loads = [functools.partial(load_matrix, ckpt, name) for name in ("w", "v")]
    with pytest.raises(ValidationError, match="shape mismatch"):
        matrix_angles(*loads, (3, 2))
    with pytest.raises(ValidationError, match="shape mismatch"):
        delta_sigma(*loads)


# (9, 5) and (5, 9) have rows < 2 cols, so Q_B's bottom block has 4 rows and one sine
# is zero-padded; (24, 10) and (10, 24) pad none
@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (24, 10), (10, 24)])
def test_rectangular_pair_decomposes_for_its_partial_side_only(shape):
    rng = np.random.default_rng(6)
    a = rng.standard_normal(shape)
    b = a + 0.1 * rng.standard_normal(shape)
    left, right = angles_of(a, b)
    m, n = shape
    tall = m > n
    full, partial = (right, left) if tall else (left, right)
    want = (principal_angles(svd(a).u, svd(b).u, side="left") if tall
            else principal_angles(svd(a).v, svd(b).v, side="right"))
    assert (full.side, full.rank) == ("right" if tall else "left", min(m, n))
    assert np.array_equal(full.cosines, np.ones(min(m, n)))
    assert np.array_equal(full.angles_rad, np.zeros(min(m, n)))
    assert (partial.side, partial.rank) == (want.side, want.rank)
    np.testing.assert_allclose(partial.cosines, want.cosines, rtol=0, atol=1e-12)
    np.testing.assert_allclose(partial.angles_rad, want.angles_rad, rtol=0, atol=1e-12)
    assert partial.max_rad > 1e-3


@pytest.mark.parametrize("shape", [(12, 8), (8, 12)])
def test_pair_with_fewer_than_2n_rows_shares_2n_minus_m_directions(shape):
    # two n-dimensional column spaces in R^m, m < 2n, meet in at least 2n - m dimensions
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, *shape))
    left, right = angles_of(a, b)
    partial = left if shape[0] > shape[1] else right
    shared = 2 * min(shape) - max(shape)
    assert np.all(partial.angles_rad[:shared] <= 1e-15), partial.angles_rad[:shared]
    assert partial.angles_rad[shared] > 1e-3


def test_value_shift_recovered_and_subspaces_fixed():
    rng = np.random.default_rng(6)
    sigmas = np.linspace(9.0, 1.0, 5)
    w = spectral_matrix(rng, 8, 5, sigmas)
    t = svd(w)
    shift = np.linspace(0.04, 0.01, 5)  # keeps the spectrum descending and distinct
    w2 = (t.u * (t.sigma + shift)) @ t.v.T
    spec = drift_of(w, w2)
    np.testing.assert_allclose(spec.delta, shift, atol=1e-10)
    left, right = angles_of(w, w2)
    assert left.max_rad <= 1e-8
    assert right.max_rad <= 1e-8


def test_rotation_vs_scaling_rates():
    # first-order rotation of the right factor: sigma drift is quadratic in
    # the step while the right-subspace angle is linear; the matrix is wide
    # so its row space is a proper subspace that the rotation can move
    rng = np.random.default_rng(7)
    w = spectral_matrix(rng, 6, 10, np.linspace(8.0, 1.0, 6))
    askew = rng.standard_normal((10, 10))
    askew = askew - askew.T
    etas = np.array([1e-3, 1e-2, 1e-1])
    drifts, angles = [], []
    for eta in etas:
        w2 = w @ (np.eye(10) + eta * askew)
        spec = drift_of(w, w2)
        _, right = angles_of(w, w2)
        drifts.append(spec.max_abs / np.linalg.norm(svd(w).sigma))
        angles.append(right.max_rad)
    drift_slope = np.polyfit(np.log(etas), np.log(drifts), 1)[0]
    angle_slope = np.polyfit(np.log(etas), np.log(angles), 1)[0]
    assert abs(drift_slope - 2.0) <= 0.1
    assert abs(angle_slope - 1.0) <= 0.1


def test_orthogonal_invariance():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((7, 5))
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    spec = drift_of(w, q @ w)
    assert spec.max_abs <= 1e-10
    left, _ = angles_of(w, q @ w)
    assert left.max_rad > 0.1  # a generic rotation moves the left subspace


# ---------------------------------------------------------------------------
# principal angles


def test_angles_identical_basis():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
    spec = principal_angles(q, q)
    assert spec.max_rad <= 1e-12
    assert isinstance(spec, AngleSpectrum)
    assert spec.rank == 5


def test_angles_orthogonal_subspaces():
    e = np.eye(2)
    spec = principal_angles(e[:, :1], e[:, 1:])
    np.testing.assert_allclose(spec.angles_rad, [np.pi / 2], atol=1e-14)


@pytest.mark.parametrize("deg", [1.0, 10.0, 45.0, 89.0])
def test_angles_analytic_rotation(deg):
    theta = np.radians(deg)
    base = np.eye(6)[:, :1]
    rotated = plane_rotation(6, 0, 1, theta) @ base
    spec = principal_angles(base, rotated)
    assert abs(spec.angles_rad[0] - theta) <= 1e-8


def test_angles_two_plane_rotation():
    t1, t2 = np.radians(12.0), np.radians(33.0)
    base = np.eye(8)[:, [0, 2]]
    rot = plane_rotation(8, 0, 1, t1) @ plane_rotation(8, 2, 3, t2)
    spec = principal_angles(base, rot @ base)
    np.testing.assert_allclose(spec.angles_rad, sorted([t1, t2]), atol=1e-10)


def test_angles_match_scipy():
    rng = np.random.default_rng(10)
    qa, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    qb, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    spec = principal_angles(qa, qb)
    np.testing.assert_allclose(
        spec.angles_rad, scipy_subspace_angles(qa, qb)[::-1], atol=1e-10
    )


def test_angles_symmetry():
    rng = np.random.default_rng(11)
    qa, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    qb, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    ab = principal_angles(qa, qb)
    ba = principal_angles(qb, qa)
    np.testing.assert_allclose(ab.angles_rad, ba.angles_rad, atol=1e-10)


def test_angles_basis_change_invariance():
    rng = np.random.default_rng(12)
    qa, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    qb, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    r1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    r2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = principal_angles(qa, qb)
    rebased = principal_angles(qa @ r1, qb @ r2)
    np.testing.assert_allclose(base.angles_rad, rebased.angles_rad, atol=1e-10)


def test_angles_cosine_consistency():
    # the stored cosines come from the cross-Gram; angles agree through cos
    rng = np.random.default_rng(13)
    qa, _ = np.linalg.qr(rng.standard_normal((20, 7)))
    qb, _ = np.linalg.qr(rng.standard_normal((20, 7)))
    spec = principal_angles(qa, qb)
    np.testing.assert_allclose(np.cos(spec.angles_rad), spec.cosines, atol=1e-12)
    assert np.all(np.diff(spec.cosines) <= 1e-15)
    assert np.all(np.diff(spec.angles_rad) >= -1e-15)


@pytest.mark.parametrize("k", [30, 12, 8])
def test_first_axes_given_by_their_count_are_the_identity_block(k):
    n = 8
    rng = np.random.default_rng(k)
    q = np.linalg.qr(np.eye(k, n) + 0.1 * rng.standard_normal((k, n)))[0]
    got = principal_angles(n, q, side="right")
    want = principal_angles(np.eye(k, n), q, side="right")
    assert (got.side, got.rank) == (want.side, want.rank) == ("right", n)
    assert got.cosines.tobytes() == want.cosines.tobytes()
    np.testing.assert_allclose(got.angles_rad, want.angles_rad, rtol=0, atol=1e-15)
    with pytest.raises(ValidationError, match="basis shape mismatch"):
        principal_angles(n + 1, q)


def test_angles_reject_non_orthonormal():
    rng = np.random.default_rng(14)
    bad = rng.standard_normal((10, 3))
    good, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    with pytest.raises(ValidationError, match="orthonormal"):
        principal_angles(bad, good)


@given(theta=st.floats(min_value=0.01, max_value=1.55))
@settings(max_examples=40, deadline=None)
def test_angles_recover_any_rotation(theta):
    base = np.eye(4)[:, :1]
    spec = principal_angles(base, plane_rotation(4, 0, 1, theta) @ base)
    assert abs(spec.angles_rad[0] - theta) <= 1e-8

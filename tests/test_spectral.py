"""SVD canonicalization, drift, principal angles, Procrustes."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles as scipy_subspace_angles

from svdsurgery import spectral
from svdsurgery.errors import NumericalError, ValidationError
from svdsurgery.spectral import (
    AngleSpectrum,
    delta_sigma,
    matrix_angles,
    principal_angles,
    procrustes,
    sign_canonicalize,
    svd,
)

from conftest import reconstruct, spectral_matrix


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


# ---------------------------------------------------------------------------
# delta sigma


def test_delta_sigma_identical():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 4))
    spec = delta_sigma(a, a)
    np.testing.assert_array_equal(spec.delta, np.zeros(4))
    assert spec.max_abs == 0.0


def test_delta_sigma_scaling():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4))
    spec = delta_sigma(a, 2.0 * a)
    np.testing.assert_allclose(spec.delta, spec.sigma_a, rtol=1e-12)


def test_delta_sigma_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        delta_sigma(np.zeros((2, 3)), np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(1376, 512), (512, 512), (128, 512)])
def test_delta_sigma_uses_the_values_only_decomposition(shape):
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    spec = delta_sigma(a, b)
    np.testing.assert_array_equal(spec.sigma_a, np.linalg.svd(a, compute_uv=False))
    np.testing.assert_array_equal(spec.sigma_b, np.linalg.svd(b, compute_uv=False))
    full = svd(a).sigma
    assert np.max(np.abs(spec.sigma_a - full)) <= 1e-13 * full[0]


def test_rel_drift_is_undefined_only_when_a_alone_is_zero():
    zero, b = np.zeros((4, 3)), np.arange(12.0).reshape(4, 3)
    assert delta_sigma(zero, b).rel_drift is None
    assert delta_sigma(zero, zero).rel_drift == 0.0
    assert delta_sigma(b, zero).rel_drift == 1.0


def test_svd_non_convergence_is_a_numerical_error(monkeypatch):
    def not_converging(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", not_converging)
    w, tall = np.eye(3), np.eye(3, 2)  # a square pair's angles need no decomposition
    for call in (lambda: svd(w), lambda: delta_sigma(w, w),
                 lambda: matrix_angles(lambda: tall, lambda: tall),
                 lambda: principal_angles(w, w), lambda: procrustes(w, w)):
        with pytest.raises(NumericalError, match="did not converge"):
            call()


def test_square_pair_angles_are_exact_without_a_decomposition(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a square pair needs no decomposition")

    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 6, 6))
    monkeypatch.setattr(np.linalg, "svd", not_called)
    left, right = matrix_angles(lambda: a, lambda: b)
    for spec, side in ((left, "left"), (right, "right")):
        assert (spec.side, spec.rank) == (side, 6)
        assert np.array_equal(spec.cosines, np.ones(6))
        assert np.array_equal(spec.angles_rad, np.zeros(6))


def test_tall_pair_drops_a_before_b_is_decomposed(monkeypatch):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((9, 5))
    b = a + 0.1 * rng.standard_normal((9, 5))
    decoded = []

    def load_a():
        w = a.copy()  # a fresh matrix that only matrix_angles holds, as load_matrix returns
        decoded.append(weakref.ref(w))
        return w

    a_alive = []  # per svd call: whether A's decoded matrix is still alive
    original = spectral.svd

    def watched(w):
        a_alive.append(decoded[0]() is not None)
        return original(w)

    monkeypatch.setattr(spectral, "svd", watched)
    left, _ = matrix_angles(load_a, lambda: b.copy())
    assert a_alive == [True, False]
    assert left.max_rad > 1e-3


def test_pair_of_different_shapes_is_a_validation_error():
    with pytest.raises(ValidationError, match="shape mismatch"):
        matrix_angles(lambda: np.eye(3, 2), lambda: np.eye(2, 3))


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
def test_rectangular_pair_decomposes_for_its_partial_side_only(shape):
    rng = np.random.default_rng(6)
    a = rng.standard_normal(shape)
    b = a + 0.1 * rng.standard_normal(shape)
    left, right = matrix_angles(lambda: a, lambda: b)
    m, n = shape
    tall = m > n
    full, partial = (right, left) if tall else (left, right)
    want = (principal_angles(svd(a).u, svd(b).u, side="left") if tall
            else principal_angles(svd(a).v, svd(b).v, side="right"))
    assert (full.side, full.rank) == ("right" if tall else "left", min(m, n))
    assert np.array_equal(full.cosines, np.ones(min(m, n)))
    assert np.array_equal(full.angles_rad, np.zeros(min(m, n)))
    assert (partial.side, partial.rank) == (want.side, want.rank)
    assert np.array_equal(partial.cosines, want.cosines)
    assert np.array_equal(partial.angles_rad, want.angles_rad)
    assert partial.max_rad > 1e-3


def test_value_shift_recovered_and_subspaces_fixed():
    rng = np.random.default_rng(6)
    sigmas = np.linspace(9.0, 1.0, 5)
    w = spectral_matrix(rng, 8, 5, sigmas)
    t = svd(w)
    shift = np.linspace(0.04, 0.01, 5)  # keeps the spectrum descending and distinct
    w2 = (t.u * (t.sigma + shift)) @ t.v.T
    spec = delta_sigma(w, w2)
    np.testing.assert_allclose(spec.delta, shift, atol=1e-10)
    left, right = matrix_angles(lambda: w, lambda: w2)
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
        spec = delta_sigma(w, w2)
        _, right = matrix_angles(lambda: w, lambda: w2)
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
    spec = delta_sigma(w, q @ w)
    assert spec.max_abs <= 1e-10
    left, _ = matrix_angles(lambda: w, lambda: q @ w)
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


# ---------------------------------------------------------------------------
# procrustes


def test_procrustes_identity():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((9, 4))
    r = procrustes(a, a)
    np.testing.assert_allclose(r, np.eye(4), atol=1e-10)


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(16)
    a, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    r_true = plane_rotation(4, 0, 1, np.radians(10.0))
    r_hat = procrustes(a, a @ r_true)
    assert np.linalg.norm(r_hat - r_true) <= 1e-8
    assert np.linalg.norm(r_hat.T @ r_hat - np.eye(4)) <= 1e-10


def test_procrustes_noisy_residual():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((12, 5))
    r_true = plane_rotation(5, 1, 3, np.radians(25.0))
    b = a @ r_true + 1e-9 * rng.standard_normal((12, 5))
    r_hat = procrustes(a, b)
    assert np.linalg.norm(a @ r_hat - b) <= 1e-6


def test_procrustes_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        procrustes(np.zeros((3, 2)), np.zeros((2, 3)))

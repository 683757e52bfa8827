"""Rotation-preservation penalty: value, gradient, invariances."""

import warnings

import numpy as np
import pytest

from svdsurgery.errors import ValidationError
from svdsurgery.penalty import fit_reference, penalty_grad, penalty_value
from svdsurgery.tensorstore import load_matrix, open_checkpoint

from conftest import TALL_NAME, spectral_matrix, traced_peak


def fd_gradient(w, ref, h=1e-6):
    """Central finite differences of penalty_value, entry by entry."""
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            bump = np.zeros_like(w)
            bump[i, j] = h
            grad[i, j] = (penalty_value(w + bump, ref) - penalty_value(w - bump, ref)) / (2 * h)
    return grad


def rotation2(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# ---------------------------------------------------------------------------
# reference fitting


def test_fit_reference_hands_its_matrix_over_to_svd(handover_watch):
    w = spectral_matrix(np.random.default_rng(2), 12, 7, np.linspace(5.0, 1.0, 7))
    ref = fit_reference(handover_watch.fresh(w), 3)
    assert handover_watch.calls == 1  # LAPACKE runs the workspace query itself
    assert ref.shape == (12, 7)


def test_fit_reference_leaves_a_held_matrix_unchanged():
    w = spectral_matrix(np.random.default_rng(2), 12, 7, np.linspace(5.0, 1.0, 7))
    before = w.copy()
    fit_reference(w, 3)
    assert w.tobytes() == before.tobytes()


def test_fit_reference_peak_is_at_most_4_2_matrices(tall_pair):
    # with the matrix held through its decomposition, about 4.7
    host_path, _, matrix_bytes = tall_pair
    host = open_checkpoint(host_path)
    peak = traced_peak(lambda: fit_reference(load_matrix(host, TALL_NAME), 16))
    assert peak <= 4.2 * matrix_bytes, peak / matrix_bytes


def test_fit_reference_diagonal():
    ref = fit_reference(np.diag([3.0, 2.0, 1.0]), rank=2)
    np.testing.assert_array_equal(ref.u, np.eye(3)[:, :2])
    np.testing.assert_array_equal(ref.v, np.eye(3)[:, :2])
    assert ref.boundary_gap == pytest.approx(1.0)
    assert not ref.degenerate


def test_fit_reference_full_rank_square_makes_penalty_vanish():
    # with a square reference at full rank both projectors are the identity
    rng = np.random.default_rng(0)
    w_ref = rng.standard_normal((6, 6))
    ref = fit_reference(w_ref, rank=6)
    for _ in range(3):
        w = rng.standard_normal((6, 6))
        assert penalty_value(w, ref) <= 1e-20 * np.linalg.norm(w) ** 2


def test_full_thin_rank_wide_matrix_still_sees_row_space_drift():
    # a wide matrix's row space is a proper subspace even at full thin rank,
    # so rotating it out of the reference row space is penalized
    rng = np.random.default_rng(0)
    w_ref = spectral_matrix(rng, 4, 8, np.linspace(5.0, 1.0, 4))
    ref = fit_reference(w_ref, rank=4)
    assert penalty_value(w_ref, ref) <= 1e-24
    rotated = w_ref @ np.linalg.qr(rng.standard_normal((8, 8)))[0]
    assert penalty_value(rotated, ref) > 1.0


def test_fit_reference_matches_independent_svd():
    # eigen-decomposition of W^T W as the independent route to the top vectors
    rng = np.random.default_rng(1)
    w = rng.standard_normal((10, 6))
    ref = fit_reference(w, rank=3)
    evals, evecs = np.linalg.eigh(w.T @ w)
    order = np.argsort(evals)[::-1]
    v_top = evecs[:, order[:3]]
    u_top = w @ v_top / np.sqrt(evals[order[:3]])
    for i in range(3):
        assert abs(np.dot(ref.v[:, i], v_top[:, i])) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.dot(ref.u[:, i], u_top[:, i])) == pytest.approx(1.0, abs=1e-10)


def test_fit_reference_rank_bounds():
    w = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(ValidationError, match="rank"):
        fit_reference(w, rank=0)
    with pytest.raises(ValidationError, match="rank"):
        fit_reference(w, rank=4)


def test_fit_reference_flags_a_degenerate_boundary_without_a_warning():
    w = np.diag([2.0, 1.0, 1.0 - 1e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = fit_reference(w, rank=2)
    assert ref.degenerate
    assert ref.boundary_gap == pytest.approx(1e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# penalty value


def test_penalty_zero_at_reference_and_along_the_ray():
    ref = fit_reference(np.diag([3.0, 2.0, 1.0]), rank=2)
    assert penalty_value(np.diag([3.0, 2.0, 1.0]), ref) == 0.0
    for c in (0.5, 2.0, -4.0):
        assert penalty_value(c * np.diag([3.0, 2.0, 1.0]), ref) == 0.0


def test_penalty_scaling_blind_on_generic_reference():
    rng = np.random.default_rng(2)
    w_ref = spectral_matrix(rng, 8, 5, np.linspace(6.0, 1.0, 5))
    ref = fit_reference(w_ref, rank=2)
    for c in (0.5, 3.0):
        assert penalty_value(c * w_ref, ref) <= 1e-24 * np.linalg.norm(w_ref) ** 2


@pytest.mark.parametrize("deg", [5.0, 15.0, 30.0])
def test_penalty_analytic_rotation_value(deg):
    theta = np.radians(deg)
    w_ref = np.diag([2.0, 1.0])
    ref = fit_reference(w_ref, rank=1)
    value = penalty_value(rotation2(theta) @ w_ref, ref)
    assert value == pytest.approx(5.0 * np.sin(theta) ** 2, abs=1e-10)


def test_penalty_only_sees_cross_blocks():
    rng = np.random.default_rng(3)
    w_ref = spectral_matrix(rng, 7, 5, np.linspace(5.0, 1.0, 5))
    ref = fit_reference(w_ref, rank=2)
    w = rng.standard_normal((7, 5))
    base = penalty_value(w, ref)
    # perturb inside the kept block and inside the complement block
    c_block = ref.u @ rng.standard_normal((2, 2)) @ ref.v.T
    pu_c = np.eye(7) - ref.u @ ref.u.T
    pv_c = np.eye(5) - ref.v @ ref.v.T
    d_block = pu_c @ rng.standard_normal((7, 5)) @ pv_c
    perturbed = penalty_value(w + 3.0 * c_block + 2.0 * d_block, ref)
    assert perturbed == pytest.approx(base, rel=1e-9)


def test_penalty_shape_mismatch():
    ref = fit_reference(np.diag([2.0, 1.0]), rank=1)
    with pytest.raises(ValidationError, match="shape"):
        penalty_value(np.zeros((3, 3)), ref)
    with pytest.raises(ValidationError, match="shape"):
        penalty_grad(np.zeros((3, 3)), ref)


# ---------------------------------------------------------------------------
# gradient


def test_grad_zero_at_reference_and_along_the_ray():
    ref = fit_reference(np.diag([3.0, 2.0, 1.0]), rank=2)
    np.testing.assert_array_equal(penalty_grad(np.diag([3.0, 2.0, 1.0]), ref), np.zeros((3, 3)))
    np.testing.assert_array_equal(
        penalty_grad(2.5 * np.diag([3.0, 2.0, 1.0]), ref), np.zeros((3, 3))
    )


def test_grad_matches_finite_differences_seeded():
    rng = np.random.default_rng(4)
    w_ref = spectral_matrix(rng, 16, 12, np.linspace(8.0, 1.0, 12))
    ref = fit_reference(w_ref, rank=4)
    w = rng.standard_normal((16, 12))
    analytic = penalty_grad(w, ref)
    numeric = fd_gradient(w, ref)
    scale = max(1e-12, np.max(np.abs(analytic)))
    assert np.max(np.abs(numeric - analytic)) / scale <= 1e-6


def test_grad_descent_step_decreases_penalty():
    rng = np.random.default_rng(5)
    w_ref = spectral_matrix(rng, 9, 6, np.linspace(7.0, 1.0, 6))
    ref = fit_reference(w_ref, rank=3)
    w = rng.standard_normal((9, 6))
    value = penalty_value(w, ref)
    assert value > 0.0
    grad = penalty_grad(w, ref)
    eta = 1e-3 * np.linalg.norm(w) / np.linalg.norm(grad)
    assert penalty_value(w - eta * grad, ref) < value

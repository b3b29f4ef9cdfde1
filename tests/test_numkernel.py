import numpy as np
import pytest

from pfmattack.errors import (
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)
from pfmattack.numkernel import (
    hermitian_eig,
    pinv_sqrt,
)
from pfmattack.statespace import build_ensemble


def random_hermitian(rng, dim):
    """Random Hermitian matrix with entries of order 1."""
    a = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return (a + a.conj().T) / 2


def test_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    # columns orthonormal regardless of which basis was returned
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_diagonal_passthrough():
    d = np.diag([0.1464, 0.5, 0.8536])
    w, v = hermitian_eig(d)
    assert np.allclose(w, [0.1464, 0.5, 0.8536], atol=1e-15)
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_eig_sorted_ascending_and_phase_convention():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_hermitian(rng, 4)
        w, _ = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)


def test_eig_reconstruction_and_invariants():
    """A = sum lambda_i v_i v_i^dag to 1e-9 Frobenius; residuals and orthonormality to 1e-10."""
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4, 8):
        for _ in range(25):
            a = random_hermitian(rng, dim)
            w, v = hermitian_eig(a)
            rebuilt = (v * w) @ v.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-9
            norm_a = np.linalg.norm(a)
            for i in range(dim):
                assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * max(norm_a, 1.0)
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_no_convergence_is_translated(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NoConvergenceError):
        hermitian_eig(np.eye(2))


def test_require_hermitian_tolerance():
    a = np.array([[1.0, 1e-13], [0.0, 1.0]])
    hermitian_eig(a)  # within 1e-12
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[1.0, 1e-10], [0.0, 1.0]]))


def test_pinv_sqrt_identity_and_diagonal():
    assert np.allclose(pinv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    b = pinv_sqrt(np.diag([4.0, 0.0, 1.0]), rank_tol=1e-10)
    assert np.allclose(b, np.diag([0.5, 0.0, 1.0]), atol=1e-14)


def test_pinv_sqrt_support_projector():
    """B A B is the orthogonal projector onto the support of A."""
    rng = np.random.default_rng(7)
    for dim, rank in ((3, 2), (4, 3), (5, 5)):
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            w = np.zeros(dim)
            w[:rank] = rng.uniform(0.1, 4.0, rank)
            a = (u * w) @ u.conj().T
            a = (a + a.conj().T) / 2
            b = pinv_sqrt(a)
            p = b @ a @ b
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert np.linalg.norm(p - p.conj().T) <= 1e-9
            assert abs(np.trace(p).real - rank) <= 1e-9


def test_pinv_sqrt_rejects_negative_and_bad_tol():
    with pytest.raises(NegativeEigenvalueError):
        pinv_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        pinv_sqrt(np.eye(2), rank_tol=0.0)


def test_pinv_sqrt_zero_matrix():
    assert np.allclose(pinv_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_sqrt_of_rank_deficient_rho():
    """At epsilon = 0 the density operator has rank 2 and its pseudo-inverse
    square root reproduces a trace-2 orthogonal projector."""
    states = build_ensemble(0.0, np.pi / 2).states
    rho = states.T @ states.conj()
    b = pinv_sqrt(rho, rank_tol=1e-10)
    p = b @ rho @ b
    assert np.linalg.norm(p @ p - p) <= 1e-9
    assert np.linalg.norm(p - p.conj().T) <= 1e-9
    assert abs(np.trace(p).real - 2.0) <= 1e-9


def test_eig_stack_matches_per_matrix_calls():
    """A (5, 4, 4) stack is decomposed in one call, matching each matrix decomposed alone."""
    rng = np.random.default_rng(11)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    ws, vs = hermitian_eig(stack)
    assert ws.shape == (5, 4) and vs.shape == (5, 4, 4)
    for a, w, v in zip(stack, ws, vs):
        w_single, v_single = hermitian_eig(a)
        assert np.abs(w - w_single).max() <= 1e-13
        # eigenvectors are defined up to phase: compare the projectors
        for i in range(4):
            p_stack = np.outer(v[:, i], v[:, i].conj())
            p_single = np.outer(v_single[:, i], v_single[:, i].conj())
            assert np.abs(p_stack - p_single).max() <= 1e-10
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12


def test_eig_stack_guards():
    """One non-Hermitian member fails the whole stack; the square check applies to the last two axes."""
    rng = np.random.default_rng(12)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-9
    with pytest.raises(NonHermitianError):
        hermitian_eig(stack)
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3, 4)))

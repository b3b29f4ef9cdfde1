"""Dense complex linear-algebra kernel for small (dim <= 8) Hermitian operators.

Everything downstream (Jones matrices, density operators, POVM elements) is a
2x2 or 3x3 complex matrix, so this module wraps the few eigen-based primitives
the package needs behind one convention: eigenvalues sorted ascending. The
checks and the decomposition also take a stack (..., n, n) of such matrices
and treat it in one LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)

HERMITIAN_ATOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
MAX_DIM = 8


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is a square Hermitian matrix, or a stack (..., n, n) of them, within HERMITIAN_ATOL.

    Returns the input as a complex128 array. Raises NonHermitianError if
    max |a[..., i, j] - conj(a[..., j, i])| over the stack exceeds HERMITIAN_ATOL.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    dev = np.abs(a - a.swapaxes(-1, -2).conj()).max(initial=0.0)
    if dev > HERMITIAN_ATOL:
        raise NonHermitianError(f"matrix deviates from Hermitian symmetry by {dev:.3e} > {HERMITIAN_ATOL:.1e}")
    return a


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dagger) / 2."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Full eigensystem of a Hermitian matrix, or of each matrix of a stack.

    eigenvalues: real, shape (..., n), ascending along the last axis.
    eigenvectors: shape (..., n, n), orthonormal columns, column i paired
    with eigenvalues[..., i], with the arbitrary phase LAPACK returns (every
    consumer forms |v><v| or V diag(w) V^H, which do not depend on it).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigen-decompose a Hermitian matrix of dimension <= 8, or a stack (..., n, n) of them.

    Backed by LAPACK via numpy.linalg.eigh, one call for the whole stack;
    eigenvalues come back ascending.
    """
    a = require_hermitian(a)
    if a.shape[-1] > MAX_DIM:
        raise DimensionMismatchError(f"kernel is limited to dim <= {MAX_DIM}, got {a.shape[-1]}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return EigenDecomposition(np.asarray(w, dtype=float), np.asarray(v, dtype=complex))


def pinv_sqrt(a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix.

    Eigenvalues above rank_tol * lambda_max form the support and are mapped to
    1/sqrt(lambda); the rest are annihilated, so B @ a @ B is the orthogonal
    projector onto the support of ``a``.

    Raises NegativeEigenvalueError when the minimal eigenvalue is below
    -1e-10 * lambda_max (the matrix is not PSD within tolerance).
    """
    if rank_tol <= 0:
        raise DomainError(f"rank_tol must be positive, got {rank_tol}")
    dec = hermitian_eig(a)
    w = dec.eigenvalues
    lam_max = max(w[-1], 0.0)
    neg_floor = -1e-10 * (lam_max if lam_max > 0 else 1.0)
    if w[0] < neg_floor:
        raise NegativeEigenvalueError(f"minimal eigenvalue {w[0]:.3e} below PSD tolerance {neg_floor:.3e}")
    support = w > rank_tol * lam_max
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[support] = 1.0 / np.sqrt(w[support])
    v = dec.eigenvectors
    return hermitianize((v * inv_sqrt) @ v.conj().T)

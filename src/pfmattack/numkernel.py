"""Dense complex linear-algebra kernel for the small Hermitian operators of the attack.

Everything downstream (whitened error operators, POVM elements) is a
2x2 or 3x3 complex matrix, so this module wraps the few eigen-based primitives
the package needs behind two conventions: eigenvalues sorted ascending, and a
LAPACK failure raised as NoConvergenceError. It calls LAPACK only through
numpy.linalg's public eigh and eigvalsh.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)

HERMITIAN_ATOL = 1e-12
#: A sum of squared deviations at most this puts each one below HERMITIAN_ATOL / 2: it passes without their max.
_ASYM_SQUARES_PASS = (HERMITIAN_ATOL / 2) ** 2


def require_hermitian(asym: np.ndarray, squares: float, offset: int = 0) -> None:
    """NonHermitianError unless each |asym| is within HERMITIAN_ATOL, asym = conj(a) - a^T of a matrix or a stack;
    squares is sum |asym|^2, or a bound above it: at most _ASYM_SQUARES_PASS, the max is not formed. NaN fails.
    asym may also be a float array whose entries from offset on are those deviations' real and imaginary parts."""
    if not squares <= _ASYM_SQUARES_PASS:
        dev = np.maximum.reduce(np.abs(asym[offset:].view(complex)), axis=None, initial=0.0)
        if not dev <= HERMITIAN_ATOL:  # NaN fails
            raise NonHermitianError(f"matrix deviates from Hermitian symmetry by {dev:.3e} > {HERMITIAN_ATOL:.1e}")


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a Hermitian matrix, or a stack (..., n, n) of them, in one LAPACK call.

    Returns numpy.linalg.eigh's pair (w, v), byte for byte: real eigenvalues
    w of shape (..., n), ascending along the last axis, and orthonormal
    eigenvector columns v of shape (..., n, n), column i paired with
    w[..., i], with the arbitrary phase LAPACK returns (every consumer forms
    |v><v| or V diag(w) V^H, which do not depend on it).

    Raises DimensionMismatchError unless the last two axes are square,
    DomainError on a NaN or infinite entry in either triangle,
    NonHermitianError by require_hermitian, and NoConvergenceError with
    numpy's message when LAPACK does not converge. The finiteness check comes
    first, so no numpy warning precedes it.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has a NaN or infinite entry")
    # conj(a) - a^T has the modulus of a - a^H entry by entry, and takes one copy
    asym = a.conj()
    asym -= a.swapaxes(-1, -2)
    require_hermitian(asym, np.vdot(asym, asym).real)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from None
    return w, v


def hermitian_eigvalsh(a: np.ndarray) -> np.ndarray:
    """hermitian_eig's w alone, without its checks: its callers check the entries (LAPACK reads the lower triangle)."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from None


def pinv_sqrt(a: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix.

    Eigenvalues above rank_tol * lambda_max form the support and are mapped to
    1/sqrt(lambda); the rest are annihilated, so B @ a @ B is the orthogonal
    projector onto the support of ``a``.

    Raises NegativeEigenvalueError when the minimal eigenvalue is below
    -1e-10 * lambda_max (the matrix is not PSD within tolerance).
    """
    if rank_tol <= 0:
        raise DomainError(f"rank_tol must be positive, got {rank_tol}")
    w, v = hermitian_eig(a)
    lam_max = max(w[-1], 0.0)
    neg_floor = -1e-10 * (lam_max if lam_max > 0 else 1.0)
    if w[0] < neg_floor:
        raise NegativeEigenvalueError(f"minimal eigenvalue {w[0]:.3e} below PSD tolerance {neg_floor:.3e}")
    support = w > rank_tol * lam_max
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[support] = 1.0 / np.sqrt(w[support])
    b = (v * inv_sqrt) @ v.conj().T
    return (b + b.conj().T) / 2

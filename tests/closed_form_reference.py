"""Closed forms of the attack's delta spectrum, in double precision.

Only tests use them. They share no code with the package: the phase steps,
the Newton rows and the error weights are written out here again.

The pfm pencil (dim 3) has a one-dimensional null space of the four states.
Its generalized eigenvector's overlaps with the states are
c_bk = u_k / (W_bk - lambda), with the null vector u_k = 1 / prod_{j != k} (z_k - z_j)
and W_bk the weight of state k in the error operator L_b. lambda solves the
secular equation sum_k |u_k|^2 / (W_bk - lambda) = 0, which at dim 3 is the
quadratic lambda^2 - B lambda + C = 0 with B = 5/4 - beta, C = 1/4 - beta/2 and
beta = sin^2(3 delta/2) / (2 (sin^2(delta/2) + sin^2(3 delta/2))).

The remap pencil (dim 2) is the quadratic det(A - lambda G) = 0 of 2x2
matrices, formed in the scaled Newton rows [1, (z_k - 1)/(i delta)]. Formed
instead in the monomial rows [1, z_k], its coefficients cancel as delta -> 0.
Both quadratics take their smaller root in the stable form 2C / (B + sqrt(B^2 - 4C)).

map_back is the attack's map from the pencil's eigenvectors y_w (rows b = 0, 3, in
the scaled Newton basis) back to the POVM, as the package computed it before it
cached per-delta forms: y_delta = y_w T^*, y_hat = y_delta E, the Gram matrix of
y_hat by matmul, and the elements as outer products of its rows.
"""

from __future__ import annotations

import math

import numpy as np

_K = np.arange(4)
#: Weight of prepared state k in L_b, rows b = 0 and b = 3.
_WEIGHTS = np.array([[0.0, 0.5, 1.0, 0.5], [0.5, 1.0, 0.5, 0.0]])


def _smaller_root(b: float, c: float) -> float:
    """Smaller root of lambda^2 - b lambda + c with 0 < c, b^2 >= 4c, without cancellation."""
    return 2 * c / (b + np.sqrt(b * b - 4 * c))


def pfm_e_b(delta: float) -> float:
    """e_B = lambda_0 = lambda_3 of the passive Faraday-mirror attack at phase step delta."""
    s1, s3 = np.sin(delta / 2) ** 2, np.sin(3 * delta / 2) ** 2
    beta = s3 / (2 * (s1 + s3))
    return _smaller_root(5 / 4 - beta, 1 / 4 - beta / 2)


def _steps(delta: float) -> np.ndarray:
    """(z_k - 1) / (i delta) = e^{ik delta/2} sin(k delta/2) / (delta/2) for k = 0..3."""
    return np.exp(0.5j * _K * delta) * np.sin(_K * delta / 2) / (delta / 2)


def remap_e_b(delta: float) -> float:
    """e_B of the phase-remapping baseline, from det(A - lambda G) = 0 in the Newton rows [1, step_k]."""
    rows = np.array([np.ones(4), _steps(delta)])
    g = rows @ rows.conj().T
    a = (rows * _WEIGHTS[0]) @ rows.conj().T
    det_g = (g[0, 0] * g[1, 1]).real - abs(g[0, 1]) ** 2
    det_a = (a[0, 0] * a[1, 1]).real - abs(a[0, 1]) ** 2
    cross = (a[0, 0] * g[1, 1] + a[1, 1] * g[0, 0]).real - 2 * (a[0, 1] * g[0, 1].conj()).real
    return _smaller_root(cross / det_g, det_a / det_g)


def pfm_overlaps(delta: float) -> np.ndarray:
    """Rows b = 0, 3: the overlaps c_bk = u_k / (W_bk - e_B), up to one factor per row.

    z_k - z_j = 2i sin((k - j) delta/2) e^{i(k + j) delta/2} keeps every
    difference to full relative precision as delta -> 0.
    """
    k, j = np.meshgrid(_K, _K, indexing="ij")
    diff = 2j * np.sin((k - j) * delta / 2) * np.exp(0.5j * (k + j) * delta)
    u = 1 / np.prod(np.where(k == j, 1, diff), axis=1)
    return u / (_WEIGHTS - pfm_e_b(delta))


def newton_table(delta: float) -> np.ndarray:
    """Columns w_k = [1, step_k, z_1 step_k step_{k-1}]: the scaled Newton basis at z_k = e^{ik delta}."""
    step = _steps(delta)
    # (z_k - z_1) / (i delta) = z_1 step_{k-1}; at k = 0 the factor step_0 = 0 already zeroes the entry
    return np.array([np.ones(4), step, np.exp(1j * delta) * step * np.r_[0, step[:-1]]])


def map_back(y_w: np.ndarray, dim: int, epsilon: float, delta: float) -> tuple[np.ndarray, float]:
    """(elements [M_0, M_3, M_vac], x) of the point (epsilon, delta, dim) from the pencil's eigenvector rows y_w.

    T is the delta factor, delta^2 N^-1 (dim 3) or (delta N^-1) A^-1 (dim 2), and E = A1^-1 diag(1, sc, sc) the
    epsilon factor (E = I at dim 2), with s, c = sin 2e, cos 2e; t = sc delta^2 (dim 3) or delta (dim 2).
    M_b = |y_hat_b><y_hat_b| / lmax with lmax the largest eigenvalue of the 2x2 Gram matrix, and x = t^2 / (2 lmax).
    """
    z_1 = np.exp(1j * delta)
    if dim == 3:
        delta_factor = np.array([[delta**2, 0, 0], [1j * delta, -1j * delta, 0], [-z_1, 1 + z_1, -1]])
        s, c = math.sin(2 * epsilon), math.cos(2 * epsilon)
        sc = s * c
        factor = np.array([[0.0, 0.0, sc], [-s * s, sc, 0.0], [c * c, sc, 0.0]])
        t = sc * delta**2
    else:
        delta_factor = np.array([[0, delta], [-1j, 1j]])
        factor, t = np.eye(2), delta
    y = y_w @ delta_factor.conj() @ factor
    gram = y.conj() @ y.T
    g00, g33 = gram.real.diagonal()
    lmax = (g00 + g33) / 2 + np.hypot((g00 - g33) / 2, abs(gram[0, 1]))
    m_0, m_3 = y[:, :, None] * y[:, None, :].conj() / lmax
    return np.array([m_0, m_3, np.eye(dim) - m_0 - m_3]), t * t / (2 * lmax)

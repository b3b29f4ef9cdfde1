"""Eavesdropper strategies: suboptimal discrimination POVM and its figures of merit.

The strategy distinguishes state 0 from {1,2,3} and state 3 from {0,1,2} with
two rank-1 POVM elements M_b = x |y_b><y_b|. y_b is the generalized
eigenvector of the error operator L_b against the density operator rho for
the minimal generalized eigenvalue lambda_b, and x the largest factor that
keeps the vacuum element I - M_0 - M_3 positive. This is the square-root
measurement rho^(-1/2)|c_b><c_b|rho^(-1/2), written without the square root.
Conclusive outcomes are resent as standard BB84 states; everything else is
blocked and hides in channel loss. One builder, build_suboptimal_povm, serves
both attacks: the ensemble's dim is the kind (3: the passive Faraday-mirror
attack, 2: the phase-remapping baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSpanError, DimensionMismatchError, DomainError, SingularEpsilonError
from .numkernel import hermitian_eig
from .statespace import AttackEnsemble, bb84_ensemble, newton_step

#: Attenuation of standard telecom fiber used for the distance mapping.
FIBER_LOSS_DB_PER_KM = 0.21

#: QBER of the basis-resolved intercept-and-resend attack on ideal BB84.
INTERCEPT_RESEND_QBER = 0.25
#: Maximal tolerable QBER under collective attacks with one-way post-processing.
COLLECTIVE_ATTACK_QBER_LIMIT = 0.11
#: Maximal tolerable QBER with two-way post-processing.
TWO_WAY_POSTPROCESSING_QBER_LIMIT = 0.20

_PSD_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10
_VAC_BOUNDARY_MAX = 1e-6

#: Relative error weight of Eve's resend i when the station prepared k:
#: full error for the opposite state (k = i + 2), half for a basis-mismatched
#: neighbor (k = i +/- 1), none for a correct guess.
ERROR_WEIGHTS = (0.0, 0.5, 1.0, 0.5)
#: Rows b = 0, 3: weight of each prepared state k in the error operator L_b, ERROR_WEIGHTS[(k - b) % 4].
_RESEND_WEIGHTS = np.array([np.roll(ERROR_WEIGHTS, b) for b in (0, 3)])
#: (dim, delta) pencils the builder keeps: each entry holds ~0.5 kB, so the cache stays near 0.5 MB.
_PENCIL_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PovmStrategy:
    """Three-outcome measurement {M_0, M_3, M_vac} built for one point.

    elements is the read-only stack [M_0, M_3, M_vac] of shape (3, dim, dim);
    any other shape raises DimensionMismatchError. M_0 and M_3 are the
    conclusive elements (the implicit M_1 = M_2 = 0 never fire),
    M_vac = I - M_0 - M_3 is the blocking element. lambda_0/lambda_3
    are the minimal generalized eigenvalues of (L_0, rho) and (L_3, rho) the
    elements were built from, and x the positivity-boundary scale factor.
    ensemble is the point the strategy was built for; its dim fixes the kind.
    """

    ensemble: AttackEnsemble
    elements: np.ndarray
    x: float
    lambda_0: float
    lambda_3: float

    def __post_init__(self):
        if self.elements.shape != (3, self.dim, self.dim):
            raise DimensionMismatchError(f"elements shape {self.elements.shape} is not (3, {self.dim}, {self.dim})")
        self.elements.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    def validate(self) -> None:
        """Check completeness, positivity and the vacuum boundary; raise on violation (NaN fails them all)."""
        if not np.linalg.norm(self.elements.sum(axis=0) - np.eye(self.dim)) <= _COMPLETENESS_TOL:
            raise DomainError("POVM elements do not sum to the identity")
        eigs, _ = hermitian_eig(self.elements)
        min_eigs = eigs[:, 0]
        for label, min_eig in zip(("M_0", "M_3", "M_vac"), min_eigs):
            if not min_eig >= -_PSD_TOL:
                raise DomainError(f"{label} has negative eigenvalue {min_eig:.3e}")
        if not -_PSD_TOL <= min_eigs[2] <= _VAC_BOUNDARY_MAX:
            raise DomainError(f"M_vac minimal eigenvalue {min_eigs[2]:.3e} is off the positivity boundary")
        if not self.x > 0:
            raise DomainError(f"scale factor x must be positive, got {self.x!r}")


@dataclass(frozen=True)
class AttackReport:
    """Figures of merit of one strategy against one ensemble."""

    epsilon: float
    delta: float
    qber: float
    p_succ: float
    lambda_0: float
    lambda_3: float
    x: float
    max_fiber_km: float


def max_fiber_length_km(p_succ: float) -> float:
    """Fiber length at which the channel transmittance 10^(-0.21 L / 10) equals p_succ."""
    if p_succ <= 0.0:
        return float("inf")
    return -10.0 * np.log10(p_succ) / FIBER_LOSS_DB_PER_KM


@lru_cache(maxsize=_PENCIL_CACHE_SIZE)
def _pencil(dim: int, delta: float) -> tuple[np.ndarray, tuple[float, float]]:
    """The epsilon-free half of build_suboptimal_povm: (y_w, (lambda_0, lambda_3)) for (dim, delta).

    The columns w_k of the scaled Newton basis (dim 2: their first two
    entries) give C C^H = sum_k w_k w_k^H. lambda_b is the minimal eigenvalue
    of the whitened error operator C^-1 (sum_k weight_bk w_k w_k^H) C^-H, and
    row b = 0, 3 of y_w is C^-H times its eigenvector: the generalized
    eigenvector of the pencil in the w basis, with y^H C C^H y = 1. y_w is
    read-only: every caller shares it.
    """
    step = newton_step(delta, np.arange(-1, 4))  # (z_m - 1)/(i delta) for m = -1..3
    newton = np.array([np.ones(4), step[1:], np.exp(1j * delta) * step[1:] * step[:-1]])[:dim]
    chol_inv = np.linalg.inv(np.linalg.cholesky(newton @ newton.conj().T))
    whitened = chol_inv @ newton
    eigs, vecs = hermitian_eig((whitened * _RESEND_WEIGHTS[:, None, :]) @ whitened.conj().T)
    y_w = vecs[:, :, 0] @ chol_inv.conj()
    y_w.setflags(write=False)
    return y_w, (float(eigs[0, 0]), float(eigs[1, 0]))


def build_suboptimal_povm(ens: AttackEnsemble) -> PovmStrategy:
    """The square-root strategy for the point ens: the 3-D attack at dim 3, the 2-D remap baseline at dim 2.

    lambda_b is the minimal generalized eigenvalue of (L_b, rho) and y_b its
    eigenvector with y_b^H rho y_b = 1. The states are v_k = A N w_k / sqrt(2),
    where w_k = [1, (z_k - 1)/(i delta), (z_k - 1)(z_k - z_1)/(i delta)^2] is
    the scaled Newton basis at z_k = e^{ik delta} (dim 2: its first two
    entries), N maps it to the monomials [1, z_k, z_k^2] and A maps those to
    the state components (dim 3: A = diag(sc, 1, 1) A1 with s, c = sin 2e,
    cos 2e and det A1 = -1; dim 2: A swaps the two). Generalized eigenvalues
    do not change under a change of basis, so the pencil is solved in the
    w basis, where it depends on delta alone and stays well conditioned as
    delta -> 0: there (lambda_b, y_w,b) is the minimal generalized eigenpair,
    with y_w,b^H (sum_k w_k w_k^H) y_w,b = 1, and y_b = sqrt(2) (A N)^-H y_w,b.
    Epsilon enters only in that map back. With t = sc delta^2 (dim 3) or
    delta (dim 2), every factor of t (A N)^-1 is O(1), and so is
    y_hat_b = t y_b / sqrt(2): M_b = |y_hat_b><y_hat_b| / lmax and
    x = t^2 / (2 lmax), with lmax the largest eigenvalue of the y_hat Gram matrix.

    _pencil solves the pencil once per (dim, delta) and keeps the last
    _PENCIL_CACHE_SIZE of them, so a point makes one eigensolve, in
    validate(), plus one when its (dim, delta) is not in that cache.

    e_B (absolutely) and p_succ (relatively) are within 1e-12 of exact
    arithmetic for every 0 < delta <= pi/2. Three points are refused, in
    this order: epsilon = 0 at dim 3, where the span collapses to two
    dimensions (SingularEpsilonError); delta = 0, where the states coincide
    (DegenerateSpanError); and an x below the smallest normal double, where
    |sc| delta^2 (dim 3) or delta (dim 2) is below ~1e-154 (DegenerateSpanError).
    """
    epsilon, delta = ens.epsilon, ens.delta
    if ens.dim == 3 and epsilon == 0.0:
        raise SingularEpsilonError(
            "epsilon = 0 is a singular point: the attack states span only two dimensions"
        )
    if delta == 0.0:
        raise DegenerateSpanError("delta = 0: the four states coincide and span one dimension")
    y_w, (lambda_0, lambda_3) = _pencil(ens.dim, float(delta))
    if ens.dim == 3:
        z_1 = np.exp(1j * delta)
        s, c = np.sin(2 * epsilon), np.cos(2 * epsilon)
        sc = s * c
        t = sc * delta**2
        # the product (delta^2 N^-1) A1^-1 diag(1, sc, sc), with rows [delta^2, 0, 0], [i delta, -i delta, 0],
        # [-z_1, 1 + z_1, -1] in delta^2 N^-1 and A1^-1 = [[0, 0, 1], [-s^2, 1, 0], [c^2, 1, 0]]
        back = np.array([
            [0, 0, delta**2 * sc],
            [1j * delta * s * s, -1j * delta * sc, 1j * delta * sc],
            [-1 - z_1 * s * s, z_1 * sc, -z_1 * sc],
        ])
    else:
        t = delta
        back = np.array([[0, delta], [-1j, 1j]])  # (delta N^-1) A^-1
    y = y_w @ back.conj()  # rows y_hat_0, y_hat_3
    gram = y.conj() @ y.T
    g00, g33 = gram.diagonal().real
    lmax = (g00 + g33) / 2 + np.hypot((g00 - g33) / 2, abs(gram[0, 1]))
    # C C^H = sum_k w_k w_k^H is 2 rho in the w basis, hence the 2 in x
    x = t * t / (2 * lmax)
    if not x >= np.finfo(float).tiny:
        raise DegenerateSpanError(
            f"p_succ = x/2 underflows (x = {x:.3e}): |sin 2e cos 2e| delta^2 (pfm) or delta (remap) "
            "is below ~1e-154, beyond double precision"
        )
    m_0, m_3 = (y[:, :, None] * y[:, None, :].conj()) / lmax
    strat = PovmStrategy(
        ensemble=ens, elements=np.array((m_0, m_3, np.eye(ens.dim) - m_0 - m_3)), x=x,
        lambda_0=lambda_0, lambda_3=lambda_3,
    )
    strat.validate()
    return strat


def build_phase_remapping_povm(delta: float) -> PovmStrategy:
    """The 2-D baseline: build_suboptimal_povm on the perfect-mirror ensemble at delta."""
    return build_suboptimal_povm(bb84_ensemble(delta))


def require_built_for(ens: AttackEnsemble, strat: PovmStrategy) -> None:
    """Refuse a strategy built for another point: DimensionMismatchError on dim, DomainError on (epsilon, delta)."""
    if strat.dim != ens.dim:
        raise DimensionMismatchError(
            f"strategy dimension {strat.dim} does not match ensemble dimension {ens.dim}"
        )
    if strat.ensemble != ens:
        raise DomainError(
            f"strategy built for (epsilon, delta) = {strat.ensemble.epsilon, strat.ensemble.delta}, "
            f"ensemble is {ens.epsilon, ens.delta}"
        )


def evaluate(ens: AttackEnsemble, strat: PovmStrategy) -> AttackReport:
    """QBER and success probability of a strategy against the ensemble it was built for.

    With y_b^H rho y_b = 1, Tr(M_b L_b) = x lambda_b and Tr(M_b rho) = x, so

    qber   = sum_b Tr(M_b L_b) / sum_b Tr(M_b rho) = (lambda_0 + lambda_3) / 2
    p_succ = (1/4) sum_b Tr(M_b rho)               = x / 2

    (only M_0 and M_3 contribute because M_1 = M_2 = 0). A strategy built for
    another point is refused (see require_built_for).
    """
    require_built_for(ens, strat)
    p_succ = strat.x / 2
    return AttackReport(
        epsilon=ens.epsilon,
        delta=ens.delta,
        qber=(strat.lambda_0 + strat.lambda_3) / 2,
        p_succ=p_succ,
        lambda_0=strat.lambda_0,
        lambda_3=strat.lambda_3,
        x=strat.x,
        max_fiber_km=max_fiber_length_km(p_succ),
    )

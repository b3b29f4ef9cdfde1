"""Eavesdropper strategies: suboptimal discrimination POVM and its figures of merit.

The strategy distinguishes state 0 from {1,2,3} and state 3 from {0,1,2} with
two rank-1 POVM elements built from the inverse square root of the ensemble
density operator, scaled by the largest factor x that keeps the vacuum element
I - M_0 - M_3 positive. Conclusive outcomes are resent as standard BB84 states;
everything else is blocked and hides in channel loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, DimensionMismatchError, DomainError, SingularEpsilonError
from .numkernel import (
    DEFAULT_RANK_TOL,
    hermitian_eig,
    hermitianize,
    outer,
    pinv_sqrt,
    real_trace,
)
from .statespace import AttackEnsemble, bb84_ensemble, span_dimension

KIND_PFM = "pfm_suboptimal_3d"
KIND_REMAP = "phase_remapping_2d"

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


@dataclass(frozen=True)
class PovmStrategy:
    """Three-outcome measurement {M_0, M_3, M_vac} plus its resend rule.

    m_0 and m_3 are the conclusive elements (the implicit M_1 = M_2 = 0 never
    fire); m_vac = I - m_0 - m_3 is the blocking element. lambda_0/lambda_3
    are the minimal nonzero eigenvalues of the conjugated error operators the
    elements were built from, and x the positivity-boundary scale factor.
    """

    kind: str
    m_0: np.ndarray
    m_3: np.ndarray
    m_vac: np.ndarray
    x: float
    lambda_0: float
    lambda_3: float

    def __post_init__(self):
        for arr in (self.m_0, self.m_3, self.m_vac):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.m_0.shape[0]

    @property
    def operators(self) -> dict[str, np.ndarray]:
        return {"M_0": self.m_0, "M_3": self.m_3, "M_vac": self.m_vac}

    @property
    def resend(self) -> dict[str, int | None]:
        """Outcome label -> BB84 index resent to the receiver (None = block)."""
        return {"M_0": 0, "M_3": 3, "M_vac": None}

    def validate(self) -> None:
        """Check positivity, completeness and the vacuum boundary; raise on violation."""
        eye = np.eye(self.dim)
        total = self.m_0 + self.m_3 + self.m_vac
        if np.linalg.norm(total - eye) > _COMPLETENESS_TOL:
            raise DomainError("POVM elements do not sum to the identity")
        for label, op in self.operators.items():
            min_eig = hermitian_eig(op).eigenvalues[0]
            if min_eig < -_PSD_TOL:
                raise DomainError(f"{label} has negative eigenvalue {min_eig:.3e}")
        vac_min = hermitian_eig(self.m_vac).eigenvalues[0]
        if not -_PSD_TOL <= vac_min <= _VAC_BOUNDARY_MAX:
            raise DomainError(f"M_vac minimal eigenvalue {vac_min:.3e} is off the positivity boundary")
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


def _minimal_nonzero_eigenpair(matrix: np.ndarray, rank_tol: float) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue above rank_tol * lambda_max and its eigenvector."""
    dec = hermitian_eig(matrix)
    cut = rank_tol * dec.eigenvalues[-1]
    above = np.flatnonzero(dec.eigenvalues > cut)
    if above.size == 0:
        raise DegenerateSpanError("conjugated error operator has no nonzero eigenvalue")
    idx = above[0]
    return float(dec.eigenvalues[idx]), dec.eigenvectors[:, idx]


def _build_povm(ens: AttackEnsemble, rank_tol: float, kind: str) -> PovmStrategy:
    rho_inv_sqrt = pinv_sqrt(ens.rho, rank_tol)
    lambdas: dict[int, float] = {}
    scaled: dict[int, np.ndarray] = {}
    for b in (0, 3):
        conjugated = hermitianize(rho_inv_sqrt @ ens.error_ops[b] @ rho_inv_sqrt)
        lam, c_vec = _minimal_nonzero_eigenpair(conjugated, rank_tol)
        lambdas[b] = lam
        scaled[b] = hermitianize(rho_inv_sqrt @ outer(c_vec, c_vec) @ rho_inv_sqrt)
    lam_max = hermitian_eig(scaled[0] + scaled[3]).eigenvalues[-1]
    x = 1.0 / lam_max
    m_0 = x * scaled[0]
    m_3 = x * scaled[3]
    m_vac = np.eye(ens.dim, dtype=complex) - m_0 - m_3
    strat = PovmStrategy(
        kind=kind, m_0=m_0, m_3=m_3, m_vac=m_vac, x=x,
        lambda_0=lambdas[0], lambda_3=lambdas[3],
    )
    strat.validate()
    return strat


def build_suboptimal_povm(ens: AttackEnsemble, rank_tol: float = DEFAULT_RANK_TOL) -> PovmStrategy:
    """Suboptimal three-dimensional strategy against an imperfect-mirror ensemble.

    For b in {0, 3} the element is x * rho^{-1/2} |C_b><C_b| rho^{-1/2} where
    |C_b> is the eigenvector of rho^{-1/2} L_b rho^{-1/2} for the minimal
    nonzero eigenvalue, and x = 1 / lambda_max of the unscaled element sum is
    the largest scale keeping M_vac positive.

    Rejects epsilon = 0, where the span collapses to two dimensions and this
    construction is undefined.
    """
    if ens.epsilon == 0.0:
        raise SingularEpsilonError(
            "epsilon = 0 is a singular point: the attack states span only two dimensions"
        )
    if span_dimension(ens, rank_tol) < 3:
        raise DegenerateSpanError(
            f"attack states span {span_dimension(ens, rank_tol)} dimensions, need 3"
        )
    return _build_povm(ens, rank_tol, KIND_PFM)


def build_phase_remapping_povm(delta: float, rank_tol: float = DEFAULT_RANK_TOL) -> PovmStrategy:
    """Two-dimensional baseline strategy against the bare phase-encoded states.

    Identical construction on the perfect-mirror ensemble, where the density
    operator is full rank for delta in (0, pi/2] and rho^{-1/2} is its genuine
    inverse square root.
    """
    if not 0.0 < delta <= np.pi / 2:
        raise DomainError(f"delta must lie in (0, pi/2], got {delta!r}")
    return _build_povm(bb84_ensemble(delta), rank_tol, KIND_REMAP)


def evaluate(ens: AttackEnsemble, strat: PovmStrategy) -> AttackReport:
    """QBER and success probability of a strategy against an ensemble.

    qber  = sum_i Tr(M_i L_i) / sum_i Tr(M_i rho)   (sifted error fraction)
    p_succ = (1/4) sum_i Tr(M_i rho)                (conclusive-outcome rate)

    Only M_0 and M_3 contribute because M_1 = M_2 = 0.
    """
    if strat.dim != ens.dim:
        raise DimensionMismatchError(
            f"strategy dimension {strat.dim} does not match ensemble dimension {ens.dim}"
        )
    err_weight = real_trace(strat.m_0 @ ens.error_ops[0]) + real_trace(strat.m_3 @ ens.error_ops[3])
    conclusive = real_trace(strat.m_0 @ ens.rho) + real_trace(strat.m_3 @ ens.rho)
    qber = err_weight / conclusive
    p_succ = conclusive / 4.0
    for name, value in (("qber", qber), ("p_succ", p_succ)):
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise DomainError(f"{name} = {value!r} escaped [0, 1]")
    qber = min(max(qber, 0.0), 1.0)
    p_succ = min(max(p_succ, 0.0), 1.0)
    return AttackReport(
        epsilon=ens.epsilon,
        delta=ens.delta,
        qber=qber,
        p_succ=p_succ,
        lambda_0=strat.lambda_0,
        lambda_3=strat.lambda_3,
        x=strat.x,
        max_fiber_km=max_fiber_length_km(p_succ),
    )

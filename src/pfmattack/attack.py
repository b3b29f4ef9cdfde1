"""Eavesdropper strategies: suboptimal discrimination POVM and its figures of merit.

The strategy distinguishes state 0 from {1,2,3} and state 3 from {0,1,2} with
two rank-1 POVM elements M_b = x |y_b><y_b|. y_b is the generalized
eigenvector of the error operator L_b against the density operator rho for
the minimal generalized eigenvalue lambda_b, and x the largest factor that
keeps the vacuum element I - M_0 - M_3 positive. This is the square-root
measurement rho^(-1/2)|c_b><c_b|rho^(-1/2), written without the square root.
Conclusive outcomes are resent as standard BB84 states; everything else is
blocked and hides in channel loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, DimensionMismatchError, DomainError, NonHermitianError, SingularEpsilonError
from .numkernel import HERMITIAN_ATOL, hermitian_eig
from .statespace import ERROR_WEIGHTS, AttackEnsemble, bb84_states

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
#: Largest accepted Tr(rho_eq^-1) of the equilibrated density operator (see _build_povm).
CONDITION_MAX = 1e9
#: Rows b = 0, 3: weight of each prepared state k in the error operator L_b, ERROR_WEIGHTS[(k - b) % 4].
_RESEND_WEIGHTS = np.array([np.roll(ERROR_WEIGHTS, b) for b in (0, 3)])


@dataclass(frozen=True)
class PovmStrategy:
    """Three-outcome measurement {M_0, M_3, M_vac} plus its resend rule.

    m_0 and m_3 are the conclusive elements (the implicit M_1 = M_2 = 0 never
    fire); m_vac = I - m_0 - m_3 is the blocking element. lambda_0/lambda_3
    are the minimal generalized eigenvalues of (L_0, rho) and (L_3, rho) the
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
        """Check completeness, positivity and the vacuum boundary; raise on violation (NaN fails them all)."""
        if not np.linalg.norm(self.m_0 + self.m_3 + self.m_vac - np.eye(self.dim)) <= _COMPLETENESS_TOL:
            raise DomainError("POVM elements do not sum to the identity")
        min_eigs = hermitian_eig(np.array((self.m_0, self.m_3, self.m_vac))).eigenvalues[:, 0]
        for label, min_eig in zip(self.operators, min_eigs):
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


def _build_povm(states: np.ndarray, kind: str) -> PovmStrategy:
    """Generalized-eigenvector construction shared by both attack kinds, from the (4, d) state rows.

    lambda_b is the minimal generalized eigenvalue of (L_b, rho), and y_b its
    eigenvector normalised to y_b^H rho y_b = 1. Both are invariant under a
    change of basis, so the state components are first equilibrated by their
    norms (the e_0 component is O(sin 2e cos 2e)). With C C^H the Cholesky
    factorisation of the equilibrated rho, the pencil becomes the ordinary
    eigenproblem of G W_b G^H, where the columns of G = C^-1 S^T are the
    whitened states and W_b their error weights, and y_b = C^-H z_b. Then
    M_b = x |y_b><y_b| with x = 1 / lambda_max of the Gram matrix of
    (y_0, y_3). No square root of rho is taken.

    Accuracy: rounding moves e_B (absolutely) and p_succ (relatively) by less
    than ~1e-15 times kappa = Tr(rho_eq^-1) = ||C^-1||_F^2, which is within a
    factor dim of the condition number of the equilibrated rho. kappa grows
    as delta -> 0, and kappa > CONDITION_MAX (pfm below delta ~ 6.7e-3, remap
    below ~ 4e-5) raises DegenerateSpanError, so every strategy returned
    gives e_B and p_succ within 1e-6 of exact arithmetic; nothing is ever
    approximated. A component that is zero in every state (delta = 0)
    raises too, and so does |epsilon| below ~1e-154 rad, where |y_b|^2
    overflows.
    """
    dim = states.shape[1]
    scale = np.hypot.reduce(np.abs(states), axis=0)  # component norms, safe from underflow
    if not scale.all():
        raise DegenerateSpanError(
            f"a component of every attack state is zero: they span fewer than {dim} dimensions"
        )
    states = states / scale
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(states.T @ states.conj()))
        kappa = np.linalg.norm(chol_inv) ** 2
    except np.linalg.LinAlgError:
        kappa = np.inf
    if not kappa <= CONDITION_MAX:
        raise DegenerateSpanError(
            f"equilibrated density operator has condition ~{kappa:.2e} > {CONDITION_MAX:.0e}: "
            f"the attack states are too close to spanning fewer than {dim} dimensions"
        )
    whitened = chol_inv @ states.T
    dec = hermitian_eig((whitened * _RESEND_WEIGHTS[:, None, :]) @ whitened.conj().T)
    with np.errstate(over="ignore", invalid="ignore"):
        y = dec.eigenvectors[:, :, 0] @ chol_inv.conj() / scale  # rows y_0, y_3
        gram = y.conj() @ y.T
    if not np.isfinite(gram).all():
        raise DegenerateSpanError("|y_b|^2 overflows: |epsilon| is below ~1e-154 rad, beyond double precision")
    g00, g33 = gram.diagonal().real
    x = 1.0 / ((g00 + g33) / 2 + np.hypot((g00 - g33) / 2, abs(gram[0, 1])))
    m_0, m_3 = x * (y[:, :, None] * y[:, None, :].conj())
    strat = PovmStrategy(
        kind=kind, m_0=m_0, m_3=m_3, m_vac=np.eye(dim) - m_0 - m_3, x=x,
        lambda_0=float(dec.eigenvalues[0, 0]), lambda_3=float(dec.eigenvalues[1, 0]),
    )
    strat.validate()
    return strat


def build_suboptimal_povm(ens: AttackEnsemble) -> PovmStrategy:
    """Suboptimal three-dimensional strategy against an imperfect-mirror ensemble.

    e_B and p_succ of the result are within 1e-6 of exact arithmetic (e_B
    absolutely, p_succ relatively); where they would not be, as delta -> 0,
    DegenerateSpanError is raised instead (see _build_povm). Rejects
    epsilon = 0, where the span collapses to two dimensions and this
    construction is undefined.
    """
    if ens.epsilon == 0.0:
        raise SingularEpsilonError(
            "epsilon = 0 is a singular point: the attack states span only two dimensions"
        )
    return _build_povm(ens.states, KIND_PFM)


def build_phase_remapping_povm(delta: float) -> PovmStrategy:
    """Two-dimensional baseline strategy against the bare phase-encoded states.

    The same construction on the perfect-mirror ensemble, with the same 1e-6
    accuracy; small delta raises DegenerateSpanError instead.
    """
    if not 0.0 < delta <= np.pi / 2:
        raise DomainError(f"delta must lie in (0, pi/2], got {delta!r}")
    return _build_povm(bb84_states(delta), KIND_REMAP)


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
    # p[b, k] = <v_k|M_b|v_k>; Tr(M_b L_b) = sum_k W[b, k] p[b, k] and Tr(M_b rho) = sum_k p[b, k]
    p = np.einsum("ki,bij,kj->bk", ens.states.conj(), np.array((strat.m_0, strat.m_3)), ens.states)
    traces = np.array([(_RESEND_WEIGHTS * p).sum(axis=1), p.sum(axis=1)])  # rows: Tr(M_b L_b), Tr(M_b rho)
    residue = np.abs(traces.imag).max()
    if residue > HERMITIAN_ATOL:
        raise NonHermitianError(f"trace has imaginary residue {residue:.3e} > {HERMITIAN_ATOL:.1e}")
    err_weight, conclusive = traces.real.sum(axis=1)
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

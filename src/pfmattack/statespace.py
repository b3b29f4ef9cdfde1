"""Attack-state family sent back by the station and the operators derived from it.

With an imperfect mirror the four returning states live in a 3-dimensional
space spanned by e_0 = |cH'>, e_1 = |cV'>, e_2 = |dV'> (a basis the
eavesdropper can reach with one unitary, because the |dH'> component vanishes
identically). This module builds those states (one array formula per
family), the standard two-mode BB84 states they degenerate to at epsilon = 0,
and their density/error operators, computed on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numkernel import DEFAULT_RANK_TOL
from .optics import EPSILON_MAX

_SQRT2 = np.sqrt(2.0)
_K = np.arange(4)

#: Relative error weight of Eve's resend i when the station prepared k:
#: full error for the opposite state (k = i + 2), half for a basis-mismatched
#: neighbor (k = i +/- 1), none for a correct guess.
ERROR_WEIGHTS = (0.0, 0.5, 1.0, 0.5)


@dataclass(frozen=True)
class AttackEnsemble:
    """Four pure states; their density and error operators are computed on first access.

    states[k] is the unit vector prepared for phase index k; rho_k[k] its
    projector, rho the (trace-4) sum, and error_ops[i] the weighted mixture
    w_1 rho_{i+1} + w_2 rho_{i+2} + w_3 rho_{i+3} with weights ERROR_WEIGHTS
    that scores the sifted error caused by resending state i. All four are
    read-only arrays.
    """

    epsilon: float
    delta: float
    states: np.ndarray

    def __post_init__(self):
        self.states.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def rho_k(self) -> np.ndarray:
        return _read_only(self.states[:, :, None] * self.states[:, None, :].conj())

    @cached_property
    def rho(self) -> np.ndarray:
        return _read_only(self.rho_k.sum(axis=0))

    @cached_property
    def error_ops(self) -> np.ndarray:
        return _read_only(sum(ERROR_WEIGHTS[j] * np.roll(self.rho_k, -j, axis=0) for j in range(1, 4)))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Bb84State:
    """Standard two-mode phase-encoded state (e^{ik delta}|c> + |d>)/sqrt(2)."""

    k: int
    delta: float
    vector: np.ndarray

    def __post_init__(self):
        self.vector.setflags(write=False)


def bb84_states(delta: float) -> np.ndarray:
    """The four phase-encoded states as rows: (e^{ik delta}, 1) / sqrt(2) for k = 0..3."""
    return np.array([np.exp(1j * delta * _K), np.ones(4)]).T / _SQRT2


def newton_step(delta: float, k) -> np.ndarray:
    """(e^{ik delta} - 1) / (i delta) = sin(k delta/2) / (delta/2) e^{ik delta/2}: no cancellation, k at delta = 0."""
    half = np.multiply(k, delta / 2)
    return k * np.sinc(half / np.pi) * np.exp(1j * half)


def pfm_states(epsilon: float, delta: float) -> np.ndarray:
    """The four attack states as rows, in the (e_0, e_1, e_2) basis.

    (1/sqrt(2)) [ sin(2e)cos(2e) z (z - 1),  sin^2(2e) z^2 + cos^2(2e) z,  1 ]
    with z = e^{ik delta} for row k; unit norm for every (epsilon, delta, k).
    """
    s, c = np.sin(2 * epsilon), np.cos(2 * epsilon)
    z = np.exp(1j * delta * _K)
    z_minus_1 = 1j * delta * newton_step(delta, _K)
    return np.array([s * c * z * z_minus_1, s * s * z * z + c * c * z, np.ones(4)]).T / _SQRT2


def bb84_state(k: int, delta: float = np.pi / 2) -> Bb84State:
    """Phase-encoded state with index k; delta = pi/2 gives the standard BB84 set."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"k must be in 0..3, got {k!r}")
    return Bb84State(k=k, delta=delta, vector=bb84_states(delta)[k])


def attack_state_vector(epsilon: float, delta: float, k: int) -> np.ndarray:
    """Unit vector of attack state k in the (e_0, e_1, e_2) basis (row k of pfm_states)."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"k must be in 0..3, got {k!r}")
    return pfm_states(epsilon, delta)[k]


def build_ensemble(epsilon: float, delta: float) -> AttackEnsemble:
    """Build the 3-dimensional attack ensemble for mirror deviation epsilon and phase step delta.

    Accepts epsilon = 0 and delta = 0 (the states are well defined there even
    though the span collapses); the attack construction itself rejects the
    collapsed cases.
    """
    if not abs(epsilon) <= EPSILON_MAX:
        raise DomainError(f"|epsilon| must be <= {EPSILON_MAX:.6f} rad, got {epsilon!r}")
    if not 0.0 <= delta <= np.pi / 2:
        raise DomainError(f"delta must lie in [0, pi/2], got {delta!r}")
    return AttackEnsemble(epsilon=epsilon, delta=delta, states=pfm_states(epsilon, delta))


def bb84_ensemble(delta: float) -> AttackEnsemble:
    """Two-dimensional ensemble of the bare phase-encoded states (epsilon = 0 limit).

    This is the ensemble an eavesdropper faces with a perfect mirror, used as
    the baseline for the phase-remapping strategy.
    """
    if not 0.0 <= delta <= np.pi / 2:
        raise DomainError(f"delta must lie in [0, pi/2], got {delta!r}")
    return AttackEnsemble(epsilon=0.0, delta=delta, states=bb84_states(delta))


def span_dimension(ens: AttackEnsemble, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the state family: singular values above tol * sigma_max."""
    sigma = np.linalg.svd(ens.states.T, compute_uv=False)
    return int(np.count_nonzero(sigma > tol * sigma[0]))

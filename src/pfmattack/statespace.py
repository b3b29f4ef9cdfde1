"""Attack-state family sent back by the station.

With an imperfect mirror the four returning states live in a 3-dimensional
space spanned by e_0 = |cH'>, e_1 = |cV'>, e_2 = |dV'> (a basis the
eavesdropper can reach with one unitary, because the |dH'> component vanishes
identically). This module builds those states (one array formula per
family) and the standard two-mode BB84 states they degenerate to at
epsilon = 0, computed on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numkernel import DEFAULT_RANK_TOL
from .optics import EPSILON_MAX, _set_reals

_SQRT2 = np.sqrt(2.0)
_K = np.arange(4)


@dataclass(frozen=True)
class AttackEnsemble:
    """One attack point: the key (epsilon, delta, dim) every strategy and report is checked against.

    dim 3 is the imperfect-mirror family (`pfm_states`), dim 2 the bare
    phase-encoded states (`bb84_states`, epsilon = 0 only). The domain,
    real epsilon and delta (stored as floats; not a bool) with
    |epsilon| <= EPSILON_MAX and 0 <= delta <= pi/2 and an integer dim (not
    a float or a bool), is checked on construction; epsilon = 0 and
    delta = 0 are accepted (the states are well defined there even though
    the span collapses), and the attack construction rejects the collapsed
    cases.

    states[k], the unit vector prepared for phase index k, is computed on
    first access and read-only. The closed-form path never reads it; the
    oracle and the span check do.
    """

    epsilon: float
    delta: float
    dim: int

    def __post_init__(self):
        _set_reals(self, "epsilon", "delta")
        if not abs(self.epsilon) <= EPSILON_MAX:
            raise DomainError(f"|epsilon| must be <= {EPSILON_MAX:.6f} rad, got {self.epsilon}")
        if not 0.0 <= self.delta <= np.pi / 2:
            raise DomainError(f"delta must lie in [0, pi/2], got {self.delta}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise DomainError(f"dim must be an integer, got {self.dim!r}")
        if self.dim != 3 and (self.dim, self.epsilon) != (2, 0.0):
            raise DomainError(f"dim must be 3, or 2 at epsilon = 0; got dim {self.dim}, epsilon {self.epsilon}")

    @cached_property
    def states(self) -> np.ndarray:
        states = pfm_states(self.epsilon, self.delta) if self.dim == 3 else bb84_states(self.delta)
        states.setflags(write=False)
        return states


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
    s, c = math.sin(2 * epsilon), math.cos(2 * epsilon)
    z = np.exp(1j * delta * _K)
    states = np.empty((4, 3), dtype=complex)
    states[:, 0] = s * c * z * (1j * delta * newton_step(delta, _K))
    states[:, 1] = s * s * z * z + c * c * z
    states[:, 2] = 1
    states /= _SQRT2
    return states


def build_ensemble(epsilon: float, delta: float) -> AttackEnsemble:
    """The 3-dimensional attack ensemble for mirror deviation epsilon and phase step delta."""
    return AttackEnsemble(epsilon, delta, 3)


def bb84_ensemble(delta: float) -> AttackEnsemble:
    """The 2-dimensional ensemble of the bare phase-encoded states (the epsilon = 0 limit).

    This is the ensemble an eavesdropper faces with a perfect mirror, used as
    the baseline for the phase-remapping strategy.
    """
    return AttackEnsemble(0.0, delta, 2)


def span_dimension(ens: AttackEnsemble) -> int:
    """Numerical rank of the state family: singular values above DEFAULT_RANK_TOL (1e-10) * sigma_max."""
    sigma = np.linalg.svd(ens.states.T, compute_uv=False)
    return int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))

"""Jones-calculus model of the two-way plug-and-play round trip.

The sender's station is reduced to the elements that matter for the
loophole: a Faraday mirror whose rotator sits at 45 degrees + epsilon and
(for the compensation check only) a birefringent fiber section. The phase
modulator and the round trip of the probe enter the attack states in closed
form (`statespace.pfm_states`); their raw matrix products live in the test
suite (tests/jones_reference.py). Polarization states are 2-component
complex Jones vectors in the {H, V} basis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Largest admissible rotator deviation (5 degrees; practical mirrors are <= 1 degree).
EPSILON_MAX = np.pi / 36
#: float first: a float (numpy's float64 included) passes without the slower abstract-class check
_REAL = (float, numbers.Real)


def _set_reals(obj, *names: str, finite: bool = False) -> None:
    """Store each named field of the frozen dataclass obj as a float, in order.

    A value that is not a real number (a complex, or a bool) raises
    DomainError, and with finite so does an infinite or nan one. A real
    beyond double range (an int or a Fraction) becomes an infinity.
    """
    what = "a finite real number" if finite else "a real number"
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, _REAL):
            raise DomainError(f"{name} must be {what}, got {value}")
        try:
            real = float(value)
        except OverflowError:
            real = math.inf if value > 0 else -math.inf
        if finite and not math.isfinite(real):
            raise DomainError(f"{name} must be {what}, got {value}")
        object.__setattr__(obj, name, real)


@dataclass(frozen=True)
class FaradayMirror:
    """Faraday rotator at angle pi/4 + epsilon followed by an ordinary mirror; epsilon is real."""

    epsilon: float

    def __post_init__(self):
        _set_reals(self, "epsilon")
        if not abs(self.epsilon) <= EPSILON_MAX:
            raise DomainError(
                f"|epsilon| must be <= {EPSILON_MAX:.6f} rad (5 deg), got {self.epsilon}"
            )


@dataclass(frozen=True)
class BirefringentChannel:
    """Fiber section with eigenmode rotation theta_prime and propagation phases phi_o, phi_e (finite, real)."""

    theta_prime: float
    phi_o: float
    phi_e: float

    def __post_init__(self):
        _set_reals(self, "theta_prime", "phi_o", "phi_e", finite=True)


def fm_matrix(fm: FaradayMirror) -> np.ndarray:
    """Jones matrix -[[sin 2e, cos 2e], [cos 2e, -sin 2e]] of the practical mirror."""
    s, c = np.sin(2 * fm.epsilon), np.cos(2 * fm.epsilon)
    return -np.array([[s, c], [c, -s]], dtype=complex)


def channel_matrix(ch: BirefringentChannel) -> np.ndarray:
    """Jones matrix of one pass through the birefringent fiber.

    Rotates into the eigenmode basis by theta_prime, applies
    diag(e^{i phi_o}, e^{i phi_e}) and rotates back. The return pass is the
    same section seen with -theta_prime. The result is unitary for any
    parameters.
    """
    c, s = np.cos(ch.theta_prime), np.sin(ch.theta_prime)
    rot_in = np.array([[c, -s], [s, c]], dtype=complex)
    phases = np.diag([np.exp(1j * ch.phi_o), np.exp(1j * ch.phi_e)])
    return rot_in @ phases @ rot_in.T


def verify_compensation(ch: BirefringentChannel, fm: FaradayMirror) -> float:
    """Frobenius residual of the round-trip compensation identity.

    || T(-theta') . M . T(theta') - e^{i(phi_o + phi_e)} . M ||_F for mirror
    matrix M. With the ideal mirror FaradayMirror(0.0) the identity holds
    exactly, so the residual is numerical noise (<= 1e-10). With an imperfect
    mirror the identity breaks and the residual is strictly positive.
    """
    m = fm_matrix(fm)
    back = BirefringentChannel(-ch.theta_prime, ch.phi_o, ch.phi_e)
    lhs = channel_matrix(back) @ m @ channel_matrix(ch)
    rhs = np.exp(1j * (ch.phi_o + ch.phi_e)) * m
    return float(np.linalg.norm(lhs - rhs))

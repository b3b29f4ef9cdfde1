"""The practical Faraday mirror and the birefringent fiber of the two-way round trip.

The sender's station is reduced to the elements that matter for the
loophole: a Faraday mirror whose rotator sits at 45 degrees + epsilon and
(for the compensation check only) a birefringent fiber section. The mirror
enters the attack states in closed form (`statespace.pfm_states`), and the
compensation residual is a closed form too (`verify_compensation`). The
Jones matrices of the mirror, the fiber, the phase modulator and the round
trip of the probe, as raw matrix products, live in the test suite
(tests/jones_reference.py) as the reference both closed forms are held to.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .errors import DomainError

#: Largest admissible rotator deviation (5 degrees; practical mirrors are <= 1 degree).
EPSILON_MAX = math.pi / 36
#: float first: a float (numpy's float64 included) passes without the slower abstract-class check
_REAL = (float, numbers.Real)


def _check_epsilon(epsilon: float) -> None:
    """Refuse a mirror deviation beyond EPSILON_MAX, or a nan one, with DomainError."""
    if not abs(epsilon) <= EPSILON_MAX:
        raise DomainError(f"|epsilon| must be <= {EPSILON_MAX:.6f} rad, got {epsilon}")


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
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class BirefringentChannel:
    """Fiber section with eigenmode rotation theta_prime and propagation phases phi_o, phi_e (finite, real)."""

    theta_prime: float
    phi_o: float
    phi_e: float

    def __post_init__(self):
        _set_reals(self, "theta_prime", "phi_o", "phi_e", finite=True)


def verify_compensation(ch: BirefringentChannel, fm: FaradayMirror) -> float:
    """Frobenius residual || T(-theta') M T(theta') - e^{i(phi_o + phi_e)} M ||_F of the compensation identity.

    T(theta') = R D R^T is one fiber pass (R the rotation by theta', D = diag(e^{i phi_o}, e^{i phi_e})) and
    M = -(sin 2e Z + cos 2e X) the mirror. M is a reflection, so R M R = M and the difference is
    R^T (D M D - e^{i(phi_o + phi_e)} M) R^T = -sin 2e (e^{i phi_o} - e^{i phi_e}) R^T D R^T,
    of norm sqrt(2) |sin 2e| |e^{i phi_o} - e^{i phi_e}|.

    So the residual does not depend on theta', is exactly 0 for the ideal mirror FaradayMirror(0.0), and is
    positive for an imperfect one unless phi_o = phi_e mod 2 pi. Each phase enters through its own
    exponential, never through a rounded sum, so the value is exact to rounding for every finite phase.
    """
    return math.sqrt(2) * abs(math.sin(2 * fm.epsilon)) * abs(cmath.exp(1j * ch.phi_o) - cmath.exp(1j * ch.phi_e))

"""Jones-calculus model of the two-way plug-and-play round trip.

The sender's station is reduced to the three elements that matter for the
loophole: a Faraday mirror whose rotator sits at 45 degrees + epsilon, the
phase modulator that encodes one of four phases k*delta on time mode c, and
(for diagnostics only) a birefringent fiber section. Polarization states are
2-component complex Jones vectors in the {H, V} basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Largest admissible rotator deviation (5 degrees; practical mirrors are <= 1 degree).
EPSILON_MAX = np.pi / 36


@dataclass(frozen=True)
class FaradayMirror:
    """Faraday rotator at angle pi/4 + epsilon followed by an ordinary mirror."""

    epsilon: float

    def __post_init__(self):
        if not abs(self.epsilon) <= EPSILON_MAX:
            raise DomainError(
                f"|epsilon| must be <= {EPSILON_MAX:.6f} rad (5 deg), got {self.epsilon!r}"
            )


@dataclass(frozen=True)
class BirefringentChannel:
    """Fiber section with eigenmode rotation theta_prime and propagation phases phi_o, phi_e."""

    theta_prime: float
    phi_o: float
    phi_e: float


def rotator_mirror_product(theta: float) -> np.ndarray:
    """Raw three-factor mirror matrix R(theta) . diag(1, -1) . R(-theta).

    Valid for any rotator angle; `fm_matrix` is the closed form of this
    product at theta = pi/4 + epsilon.
    """
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, s], [-s, c]], dtype=complex)
    mirror = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
    return rot @ mirror @ rot.conj().T


def fm_matrix(fm: FaradayMirror) -> np.ndarray:
    """Jones matrix -[[sin 2e, cos 2e], [cos 2e, -sin 2e]] of the practical mirror."""
    s, c = np.sin(2 * fm.epsilon), np.cos(2 * fm.epsilon)
    return -np.array([[s, c], [c, -s]], dtype=complex)


def ideal_fm_matrix() -> np.ndarray:
    """Jones matrix of the perfect 45-degree mirror, -[[0, 1], [1, 0]]."""
    return -np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def phase_modulator(phase: float) -> np.ndarray:
    """Modulator Jones matrix diag(e^{i phase}, 1); the H component picks up the phase."""
    return np.diag([np.exp(1j * phase), 1.0 + 0.0j])


def channel_matrix(ch: BirefringentChannel, direction: str = "forward") -> np.ndarray:
    """Jones matrix of the birefringent fiber for one pass.

    Forward propagation rotates into the eigenmode basis by +theta_prime,
    applies diag(e^{i phi_o}, e^{i phi_e}) and rotates back; the backward pass
    uses -theta_prime. The result is unitary for any parameters.
    """
    if direction == "forward":
        sign = 1.0
    elif direction == "backward":
        sign = -1.0
    else:
        raise DomainError(f"direction must be 'forward' or 'backward', got {direction!r}")
    c, s = np.cos(ch.theta_prime), np.sin(ch.theta_prime)
    rot_in = np.array([[c, -sign * s], [sign * s, c]], dtype=complex)
    phases = np.diag([np.exp(1j * ch.phi_o), np.exp(1j * ch.phi_e)])
    rot_out = np.array([[c, sign * s], [-sign * s, c]], dtype=complex)
    return rot_in @ phases @ rot_out


def verify_compensation(ch: BirefringentChannel, fm: FaradayMirror | None = None) -> float:
    """Frobenius residual of the round-trip compensation identity.

    || T(-theta') . M . T(theta') - e^{i(phi_o + phi_e)} . M ||_F for mirror
    matrix M. With the ideal mirror (fm=None) the identity holds exactly, so
    the residual is numerical noise (<= 1e-10). With an imperfect mirror the
    identity breaks and the residual is strictly positive.
    """
    m = ideal_fm_matrix() if fm is None else fm_matrix(fm)
    lhs = channel_matrix(ch, "backward") @ m @ channel_matrix(ch, "forward")
    rhs = np.exp(1j * (ch.phi_o + ch.phi_e)) * m
    return float(np.linalg.norm(lhs - rhs))


def round_trip(fm: FaradayMirror, k: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Output Jones vectors (out_c, out_d) of the two time modes after the station, for the probe (1, 0).

    Mode c passes the modulator twice (once per direction) around the mirror
    reflection, mode d is reflected unmodulated:

        out_c = -e^{ik delta} [sin(2e) e^{ik delta}, cos(2e)]^T
        out_d = -[sin(2e), cos(2e)]^T
    """
    if k not in (0, 1, 2, 3):
        raise DomainError(f"k must be in 0..3, got {k!r}")
    if not 0.0 <= delta <= np.pi / 2:
        raise DomainError(f"delta must lie in [0, pi/2], got {delta!r}")
    s, c = np.sin(2 * fm.epsilon), np.cos(2 * fm.epsilon)
    phase = np.exp(1j * k * delta)
    out_c = -phase * np.array([s * phase, c], dtype=complex)
    out_d = -np.array([s, c], dtype=complex)
    return out_c, out_d

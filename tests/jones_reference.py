"""The Jones derivation of the attack states and of the compensation residual, as raw matrix products.

Only tests use it. It is the independent reference that test_statespace
holds `pfm_states` to, and test_optics holds `verify_compensation` and
`fm_matrix` to: the mirror as the three-factor product
R(theta) . diag(1, -1) . R(-theta) and in closed form, one pass through the
birefringent fiber, the modulator, and the round trip of the probe (1, 0)
through the station.
"""

from __future__ import annotations

import numpy as np

from pfmattack.errors import DomainError
from pfmattack.statespace import BirefringentChannel, FaradayMirror


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


def compensation_residual(ch: BirefringentChannel, fm: FaradayMirror) -> float:
    """|| T(-theta') . M . T(theta') - e^{i phi_o} e^{i phi_e} . M ||_F, formed from the matrices.

    The phase of the right-hand side is the product of the two exponentials,
    not the exponential of a rounded sum, so the reference stays accurate for
    large finite phases.
    """
    m = fm_matrix(fm)
    back = BirefringentChannel(-ch.theta_prime, ch.phi_o, ch.phi_e)
    lhs = channel_matrix(back) @ m @ channel_matrix(ch)
    rhs = np.exp(1j * ch.phi_o) * np.exp(1j * ch.phi_e) * m
    return float(np.linalg.norm(lhs - rhs))


def rotator_mirror_product(theta: float) -> np.ndarray:
    """Raw three-factor mirror matrix R(theta) . diag(1, -1) . R(-theta).

    Valid for any rotator angle; `fm_matrix` is the closed form of this
    product at theta = pi/4 + epsilon.
    """
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, s], [-s, c]], dtype=complex)
    mirror = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
    return rot @ mirror @ rot.conj().T


def phase_modulator(phase: float) -> np.ndarray:
    """Modulator Jones matrix diag(e^{i phase}, 1); the H component picks up the phase."""
    return np.diag([np.exp(1j * phase), 1.0 + 0.0j])


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
        raise DomainError(f"delta must lie in [0, pi/2], got {delta}")
    s, c = np.sin(2 * fm.epsilon), np.cos(2 * fm.epsilon)
    phase = np.exp(1j * k * delta)
    out_c = -phase * np.array([s * phase, c], dtype=complex)
    out_d = -np.array([s, c], dtype=complex)
    return out_c, out_d

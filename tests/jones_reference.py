"""The Jones derivation of the attack states, as raw matrix products.

Only tests use it. It is the independent reference that test_statespace
holds `pfm_states` to, and test_optics holds `fm_matrix` to: the mirror as
the three-factor product R(theta) . diag(1, -1) . R(-theta), the modulator,
and the round trip of the probe (1, 0) through the station.
"""

from __future__ import annotations

import numpy as np

from pfmattack.errors import DomainError
from pfmattack.optics import FaradayMirror


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

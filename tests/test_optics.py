from fractions import Fraction

import numpy as np
import pytest

from pfmattack.errors import DomainError
from pfmattack.optics import (
    EPSILON_MAX,
    BirefringentChannel,
    FaradayMirror,
    channel_matrix,
    fm_matrix,
    verify_compensation,
)

from jones_reference import phase_modulator, rotator_mirror_product, round_trip

DEG = np.pi / 180

# sin(2 deg), cos(2 deg) for the one-degree mirror examples
SIN2E = 0.03489949670250097
COS2E = 0.9993908270190958


def test_ideal_mirror_matrix():
    expected = -np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(fm_matrix(FaradayMirror(0.0)), expected)


def test_mirror_at_90_degrees_via_raw_product():
    # theta = 90 deg sits outside the FaradayMirror construction bound, so use
    # the raw three-factor formula directly.
    m = rotator_mirror_product(np.pi / 2)
    assert np.allclose(m, -np.array([[1.0, 0.0], [0.0, -1.0]]), atol=1e-15)


def test_mirror_one_degree_matches_closed_form_and_product():
    fm = FaradayMirror(1 * DEG)
    m = fm_matrix(fm)
    expected = -np.array([[SIN2E, COS2E], [COS2E, -SIN2E]])
    assert np.allclose(m, expected, atol=1e-12)
    assert np.allclose(m, rotator_mirror_product(np.pi / 4 + 1 * DEG), atol=1e-12)


def test_mirror_unitary_for_all_epsilon():
    rng = np.random.default_rng(0)
    for eps in rng.uniform(-EPSILON_MAX, EPSILON_MAX, 200):
        f = fm_matrix(FaradayMirror(eps))
        assert np.linalg.norm(f.conj().T @ f - np.eye(2)) <= 1e-12


def test_mirror_construction_bound():
    FaradayMirror(EPSILON_MAX)
    with pytest.raises(DomainError):
        FaradayMirror(EPSILON_MAX * 1.0001)
    with pytest.raises(DomainError):
        FaradayMirror(np.pi / 4)
    # a numpy scalar is printed as a plain float, not as its repr
    with pytest.raises(DomainError, match=r"got 0\.17453292519943295$"):
        FaradayMirror(np.deg2rad(np.float64(10.0)))


def test_mirror_refuses_non_real_epsilon():
    """A complex epsilon inside the bound used to give a plausible, silently wrong residual."""
    for bad in (0.01j, np.complex128(0.01), 0.01 + 0j):
        with pytest.raises(DomainError, match="epsilon must be a real number"):
            FaradayMirror(bad)
    assert FaradayMirror(np.float32(0.01)).epsilon == np.float32(0.01)


def test_channel_refuses_non_finite_or_non_real_angles():
    """A nan angle used to give a nan residual; each angle is checked by name."""
    for field in range(3):
        for bad, shown in ((np.nan, "nan"), (np.float64(np.inf), "inf"), (-np.inf, "-inf"), (0.1j, "0.1j")):
            angles = [0.1, 0.2, 0.3]
            angles[field] = bad
            name = ("theta_prime", "phi_o", "phi_e")[field]
            with pytest.raises(DomainError, match=rf"^{name} must be a finite real number, got {shown}$"):
                BirefringentChannel(*angles)
    BirefringentChannel(1, np.float64(2.0), -3.5)


def test_fraction_angles_are_read_as_floats():
    """A Fraction is a real number: stored as a float, it answers as the float does (it raised TypeError in numpy)."""
    channel = BirefringentChannel(Fraction(1, 2), 0, 0)
    assert channel == BirefringentChannel(0.5, 0.0, 0.0) and all(type(v) is float for v in vars(channel).values())
    mirror = FaradayMirror(Fraction(1, 100))
    assert type(mirror.epsilon) is float
    probe = BirefringentChannel(0.7, 1.1, 2.3)
    assert verify_compensation(probe, mirror) == verify_compensation(probe, FaradayMirror(0.01))


def test_bool_epsilon_or_angle_is_refused():
    with pytest.raises(DomainError, match="^epsilon must be a real number, got False$"):
        FaradayMirror(False)
    for field, name in enumerate(("theta_prime", "phi_o", "phi_e")):
        angles = [0.1, 0.2, 0.3]
        angles[field] = True
        with pytest.raises(DomainError, match=f"^{name} must be a finite real number, got True$"):
            BirefringentChannel(*angles)


def test_channel_trivial_is_identity():
    t = channel_matrix(BirefringentChannel(0.0, 0.0, 0.0))
    assert np.allclose(t, np.eye(2), atol=1e-15)


def test_channel_forward_example():
    """theta' = pi/4 with a pi ordinary-ray phase swaps and negates the components."""
    ch = BirefringentChannel(np.pi / 4, np.pi, 0.0)
    got = channel_matrix(ch)
    c = s = np.sqrt(0.5)
    rot_in = np.array([[c, -s], [s, c]])
    rot_out = np.array([[c, s], [-s, c]])
    expected = rot_in @ np.diag([np.exp(1j * np.pi), 1.0]) @ rot_out
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(got, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-15)


def test_channel_unitary_and_direction():
    """Both passes are unitary; the return pass, the section seen with -theta', is R(theta')^T D R(theta')."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        theta, phi_o, phi_e = rng.uniform(-np.pi, np.pi, 3)
        back = channel_matrix(BirefringentChannel(-theta, phi_o, phi_e))
        for t in (channel_matrix(BirefringentChannel(theta, phi_o, phi_e)), back):
            assert np.linalg.norm(t.conj().T @ t - np.eye(2)) <= 1e-12
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        expected = rot.T @ np.diag([np.exp(1j * phi_o), np.exp(1j * phi_e)]) @ rot
        assert np.abs(back - expected).max() <= 1e-15


def test_compensation_trivial_channel():
    assert verify_compensation(BirefringentChannel(0.0, 0.0, 0.0), FaradayMirror(0.0)) == 0.0


def test_compensation_holds_for_random_channels():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        ch = BirefringentChannel(*rng.uniform(-np.pi, np.pi, 3))
        assert verify_compensation(ch, FaradayMirror(0.0)) <= 1e-10


def test_compensation_breaks_with_imperfect_mirror():
    ch = BirefringentChannel(0.7, 1.1, 2.3)
    assert verify_compensation(ch, FaradayMirror(0.0)) <= 1e-10
    residual = verify_compensation(ch, FaradayMirror(1 * DEG))
    assert residual > 1e-3
    assert abs(residual - 0.05573624426363207) <= 1e-9


def test_round_trip_k0_modes_coincide():
    for eps in (0.0, 0.3 * DEG, 1 * DEG):
        out_c, out_d = round_trip(FaradayMirror(eps), 0, np.pi / 2)
        assert np.allclose(out_c, out_d, atol=1e-15)
        s, c = np.sin(2 * eps), np.cos(2 * eps)
        assert np.allclose(out_d, [-s, -c], atol=1e-15)


def test_round_trip_pure_phase_encoding_at_ideal_mirror():
    out_c, out_d = round_trip(FaradayMirror(0.0), 2, np.pi / 2)
    assert np.allclose(out_c, [0.0, 1.0], atol=1e-12)
    assert np.allclose(out_d, [0.0, -1.0], atol=1e-15)


def test_round_trip_one_degree_k1():
    out_c, out_d = round_trip(FaradayMirror(1 * DEG), 1, np.pi / 2)
    assert np.allclose(out_c, [SIN2E, -1j * COS2E], atol=1e-12)
    assert np.allclose(out_d, [-SIN2E, -COS2E], atol=1e-12)


def test_round_trip_matches_matrix_product():
    """Closed form equals PM(k delta) . FM . PM(k delta) applied to the probe (1, 0)."""
    probe = np.array([1.0, 0.0])
    for eps in (-1 * DEG, 0.0, 0.4 * DEG, 1 * DEG):
        fm = FaradayMirror(eps)
        f = fm_matrix(fm)
        for k in range(4):
            for delta in np.linspace(0.0, np.pi / 2, 7):
                pm = phase_modulator(k * delta)
                out_c, out_d = round_trip(fm, k, delta)
                assert np.abs(out_c - pm @ f @ pm @ probe).max() <= 1e-12
                assert np.abs(out_d - f @ probe).max() <= 1e-12
                assert abs(np.linalg.norm(out_c) - 1.0) <= 1e-12
                assert abs(np.linalg.norm(out_d) - 1.0) <= 1e-12


def test_round_trip_rejects_bad_inputs():
    fm = FaradayMirror(1 * DEG)
    with pytest.raises(DomainError):
        round_trip(fm, 4, np.pi / 2)
    with pytest.raises(DomainError, match=r"got -0\.1$"):
        round_trip(fm, 1, np.float64(-0.1))
    with pytest.raises(DomainError):
        round_trip(fm, 1, np.pi / 2 + 0.1)

import numpy as np
import pytest

from pfmattack.errors import DomainError
from pfmattack.optics import (
    EPSILON_MAX,
    BirefringentChannel,
    FaradayMirror,
    channel_matrix,
    fm_matrix,
    ideal_fm_matrix,
    phase_modulator,
    round_trip,
    rotator_mirror_product,
    verify_compensation,
)

DEG = np.pi / 180

# sin(2 deg), cos(2 deg) for the one-degree mirror examples
SIN2E = 0.03489949670250097
COS2E = 0.9993908270190958


def test_ideal_mirror_matrix():
    expected = -np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(fm_matrix(FaradayMirror(0.0)), expected)
    assert np.array_equal(ideal_fm_matrix(), expected)


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


def test_channel_trivial_is_identity():
    t = channel_matrix(BirefringentChannel(0.0, 0.0, 0.0), "forward")
    assert np.allclose(t, np.eye(2), atol=1e-15)


def test_channel_forward_example():
    """theta' = pi/4 with a pi ordinary-ray phase swaps and negates the components."""
    ch = BirefringentChannel(np.pi / 4, np.pi, 0.0)
    got = channel_matrix(ch, "forward")
    c = s = np.sqrt(0.5)
    rot_in = np.array([[c, -s], [s, c]])
    rot_out = np.array([[c, s], [-s, c]])
    expected = rot_in @ np.diag([np.exp(1j * np.pi), 1.0]) @ rot_out
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(got, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-15)


def test_channel_unitary_and_direction():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ch = BirefringentChannel(*rng.uniform(-np.pi, np.pi, 3))
        for direction in ("forward", "backward"):
            t = channel_matrix(ch, direction)
            assert np.linalg.norm(t.conj().T @ t - np.eye(2)) <= 1e-12
    with pytest.raises(DomainError):
        channel_matrix(BirefringentChannel(0.1, 0.2, 0.3), "sideways")


def test_compensation_trivial_channel():
    assert verify_compensation(BirefringentChannel(0.0, 0.0, 0.0)) == 0.0


def test_compensation_holds_for_random_channels():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        ch = BirefringentChannel(*rng.uniform(-np.pi, np.pi, 3))
        assert verify_compensation(ch) <= 1e-10


def test_compensation_breaks_with_imperfect_mirror():
    ch = BirefringentChannel(0.7, 1.1, 2.3)
    assert verify_compensation(ch) <= 1e-10
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
    with pytest.raises(DomainError):
        round_trip(fm, 1, -0.1)
    with pytest.raises(DomainError):
        round_trip(fm, 1, np.pi / 2 + 0.1)

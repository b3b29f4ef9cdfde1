import mpmath
import numpy as np
import pytest

from pfmattack.errors import DomainError
from pfmattack.optics import FaradayMirror, round_trip
from pfmattack.statespace import (
    AttackEnsemble,
    bb84_ensemble,
    build_ensemble,
    pfm_states,
    span_dimension,
)

DEG = np.pi / 180
SQRT2 = np.sqrt(2.0)


def test_states_at_zero_epsilon_are_bare_phase_states():
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        ens = build_ensemble(0.0, delta)
        for k in range(4):
            expected = np.array([0.0, np.exp(1j * k * delta), 1.0]) / SQRT2
            assert np.abs(ens.states[k] - expected).max() <= 1e-15
        assert span_dimension(ens) == 2


def test_state_k0_is_epsilon_independent():
    for eps in (-1 * DEG, 0.37 * DEG, 1 * DEG):
        v = build_ensemble(eps, np.pi / 2).states[0]
        assert np.abs(v - np.array([0.0, 1.0, 1.0]) / SQRT2).max() <= 1e-15


def test_state_one_degree_k1():
    """Direct evaluation of the closed form at (1 deg, pi/2, k=1)."""
    s, c = np.sin(2 * DEG), np.cos(2 * DEG)
    expected = np.array([s * c * (-1 - 1j), -s * s + 1j * c * c, 1.0]) / SQRT2
    got = build_ensemble(1 * DEG, np.pi / 2).states[1]
    assert np.abs(got - expected).max() <= 1e-15
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
    assert abs(got[0] - (-0.024662637808066178 - 0.024662637808066178j)) <= 1e-12


def test_e0_component_free_of_cancellation():
    """sin(2e)cos(2e) z (z - 1) / sqrt(2) keeps full relative accuracy at delta = 1e-8 (50-digit reference)."""
    epsilon, delta = np.deg2rad(1.0), 1e-8
    states = pfm_states(epsilon, delta)
    with mpmath.workdps(50):
        e, d = mpmath.mpf(epsilon), mpmath.mpf(delta)
        for k in (1, 2, 3):
            z = mpmath.expj(k * d)
            ref = complex(mpmath.sin(2 * e) * mpmath.cos(2 * e) * (z * z - z) / mpmath.sqrt(2))
            assert abs(states[k, 0] - ref) <= 1e-14 * abs(ref), k


def test_unit_norm_on_dense_grid():
    for eps in np.linspace(-1 * DEG, 1 * DEG, 9):
        for delta in np.linspace(0.0, np.pi / 2, 9):
            ens = build_ensemble(eps, delta)
            norms = np.linalg.norm(ens.states, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12


def _rotate_to_primed(v, eps):
    """Apply |H> = c|H'> + s|V'>, |V> = -s|H'> + c|V'> on both time modes."""
    s, c = np.sin(2 * eps), np.cos(2 * eps)
    return np.array(
        [c * v[0] - s * v[1], s * v[0] + c * v[1], c * v[2] - s * v[3], s * v[2] + c * v[3]]
    )


def test_basis_change_consistency():
    """The station's round trip (PM . FM . PM on mode c, FM on mode d), rotated
    by 2 epsilon, has no |dH'> component and reproduces the 3-dimensional
    closed form."""
    for eps in (-1 * DEG, 0.2 * DEG, 1 * DEG):
        for delta in (np.pi / 8, np.pi / 2):
            for k in range(4):
                raw = -np.concatenate(round_trip(FaradayMirror(eps), k, delta)) / SQRT2
                rotated = _rotate_to_primed(raw, eps)
                assert abs(rotated[2]) <= 1e-12
                embedded = np.array([rotated[0], rotated[1], rotated[3]])
                assert np.abs(embedded - build_ensemble(eps, delta).states[k]).max() <= 1e-12


def test_span_dimension_cases():
    assert span_dimension(build_ensemble(1 * DEG, np.pi / 2)) == 3
    assert span_dimension(build_ensemble(0.0, np.pi / 2)) == 2
    assert span_dimension(build_ensemble(1 * DEG, 0.0)) == 1


def test_rank_drop_pattern():
    """Full rank exactly when the mirror is imperfect and the phase step is nonzero."""
    for eps_deg in (-1, -0.5, -0.1, 0.1, 0.5, 1):
        for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
            assert span_dimension(build_ensemble(eps_deg * DEG, delta)) == 3
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        assert span_dimension(build_ensemble(0.0, delta)) == 2


def test_bb84_state_values():
    states = bb84_ensemble(np.pi / 2).states
    assert np.allclose(states[0], np.array([1.0, 1.0]) / SQRT2, atol=1e-15)
    assert np.allclose(states[2], np.array([-1.0, 1.0]) / SQRT2, atol=1e-12)


def test_bb84_overlap_table():
    """|<phi_j|phi_i>|^2 at delta = pi/2: 1 on the diagonal, 1/2 between bases,
    0 for opposite states (brute force over all 16 pairs)."""
    vecs = bb84_ensemble(np.pi / 2).states
    for i in range(4):
        for j in range(4):
            overlap = abs(np.vdot(vecs[j], vecs[i])) ** 2
            if i == j:
                expected = 1.0
            elif (i - j) % 2 == 1:
                expected = 0.5
            else:
                expected = 0.0
            assert abs(overlap - expected) <= 1e-12


def test_bb84_ensemble_structure():
    ens = bb84_ensemble(np.pi / 4)
    assert ens.dim == 2
    assert ens.epsilon == 0.0
    assert span_dimension(ens) == 2
    assert span_dimension(bb84_ensemble(0.0)) == 1


def test_domain_validation():
    with pytest.raises(DomainError):
        build_ensemble(6 * DEG, np.pi / 2)
    with pytest.raises(DomainError):
        build_ensemble(1 * DEG, -0.1)
    with pytest.raises(DomainError):
        build_ensemble(1 * DEG, np.pi / 2 + 0.1)
    # the check lives in the ensemble itself, so a hand-built point is held to it too
    for epsilon, delta, dim in ((6 * DEG, np.pi / 2, 3), (np.nan, np.pi / 2, 3), (1 * DEG, np.nan, 3),
                                (0.0, -0.1, 2), (0.0, np.pi / 2 + 0.1, 2), (1 * DEG, np.pi / 2, 2),
                                (0.0, np.pi / 2, 4)):
        with pytest.raises(DomainError):
            AttackEnsemble(epsilon, delta, dim)
    # numpy scalars read as plain floats in the message
    for args, message in (
        ((np.float64(np.nan), np.float64(1.0), 3), "|epsilon| must be <= 0.087266 rad, got nan"),
        ((np.float64(0.0), np.float64(2.0), 3), "delta must lie in [0, pi/2], got 2.0"),
        ((np.float64(0.01), np.float64(1.0), np.int64(2)), "dim must be 3, or 2 at epsilon = 0; got dim 2, epsilon 0.01"),
    ):
        with pytest.raises(DomainError) as info:
            AttackEnsemble(*args)
        assert str(info.value) == message


def test_dim_must_be_an_integer():
    """A float or bool dim equal to 3 or 2 is refused on construction; a numpy integer is a dim."""
    for epsilon, dim in ((0.01, 3.0), (0.0, 2.0), (0.01, np.float64(3.0)), (0.0, True), (0.0, np.bool_(True))):
        with pytest.raises(DomainError, match="dim must be an integer"):
            AttackEnsemble(epsilon, 0.5, dim)
    ens = AttackEnsemble(0.01, 0.5, np.int64(3))
    assert ens == build_ensemble(0.01, 0.5) and ens.states.shape == (4, 3)


def test_complex_epsilon_is_refused():
    """abs() of a complex epsilon lies in range, so the type is checked first."""
    for epsilon in (0.01j, 0.01 + 0j, np.complex128(0.01)):
        with pytest.raises(DomainError, match="epsilon must be a real number"):
            build_ensemble(epsilon, np.pi / 2)


def test_complex_delta_is_refused():
    for delta in (1j, np.pi / 4 + 0j, np.complex128(0.5)):
        with pytest.raises(DomainError, match="delta must be a real number"):
            build_ensemble(1 * DEG, delta)
        with pytest.raises(DomainError, match="delta must be a real number"):
            bb84_ensemble(delta)


def test_ensembles_are_immutable():
    ens = build_ensemble(1 * DEG, np.pi / 2)
    with pytest.raises(ValueError):
        ens.states[0, 0] = 1.0

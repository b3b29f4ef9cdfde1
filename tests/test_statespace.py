from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pfmattack.attack import PovmStrategy, build_suboptimal_povm, evaluate
from pfmattack.errors import DimensionMismatchError, DomainError
from pfmattack.statespace import (
    EPSILON_MAX,
    AttackEnsemble,
    BirefringentChannel,
    FaradayMirror,
    bb84_ensemble,
    EnsembleBlock,
    build_ensemble,
    newton_step,
    pfm_states,
    span_dimension,
    verify_compensation,
)

from jones_reference import round_trip
from mp_reference import _pfm_states

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


def test_newton_step_is_bitwise_the_sinc_form():
    """newton_step is byte-equal to k sinc(k delta / (2 pi)) e^{ik delta/2} written with np.sinc, at 0 and subnormal delta too."""
    deltas = [0.0, 5e-324, 1e-300, *np.geomspace(1e-300, np.pi / 2, 200), np.pi / 2]
    k = np.arange(-1, 4)
    for delta in deltas:
        half = np.multiply(k, delta / 2)
        expected = k * np.sinc(half / np.pi) * np.exp(1j * half)
        assert newton_step(delta, k).tobytes() == expected.tobytes()
        for k_one in range(-1, 4):
            assert newton_step(delta, k_one).tobytes() == expected[k_one + 1].tobytes()


def test_stacked_states_are_the_point_states_bit_for_bit():
    """pfm_states over (n,) epsilon and delta gives each point's own states, bit for bit, at any stack length.

    A seeded draw of 12000 points, a quarter of them at delta 0, 1e-8 or
    pi/2, with both signs of epsilon and epsilon = 0, whose last two columns
    are the dim 2 states.
    """
    rng = np.random.default_rng(25)
    n = 12_000
    epsilon = rng.uniform(-EPSILON_MAX, EPSILON_MAX, n)
    epsilon[::7] = 0.0
    delta = rng.uniform(0.0, np.pi / 2, n)
    delta[: n // 4] = rng.choice([0.0, 1e-8, np.pi / 2], n // 4)
    assert (epsilon < 0).any() and (epsilon > 0).any()
    stacked = pfm_states(epsilon, delta)
    assert stacked.shape == (n, 4, 3)
    for e, d, states in zip(epsilon.tolist(), delta.tolist(), stacked):
        assert np.array_equal(states, pfm_states(e, d)), (e, d)
        if e == 0.0:
            assert np.array_equal(states[:, 1:], bb84_ensemble(d).states), d
    for length in range(1, 10):
        assert np.array_equal(pfm_states(epsilon[:length], delta[:length]), stacked[:length]), length


def test_block_states_are_each_ensembles_states():
    """An EnsembleBlock's states stack the states of its cells, row for row bit for bit, in the order asked for."""
    rng = np.random.default_rng(7)
    epsilon, delta = rng.uniform(-EPSILON_MAX, EPSILON_MAX, 40), rng.uniform(0, np.pi / 2, 40)
    remap = [0.0, 1e-8, *rng.uniform(0, np.pi / 2, 20), np.pi / 2]
    for block, ensembles in ((EnsembleBlock(epsilon, delta, 3), [build_ensemble(e, d) for e, d in zip(epsilon, delta)]),
                             (EnsembleBlock(np.zeros(len(remap)), remap, 2), [bb84_ensemble(d) for d in remap])):
        for rows in (list(range(len(block))), [0], [5, 2, 5]):
            stacked = block.states(rows)
            assert stacked.shape == (len(rows), 4, block.dim)
            for r, states in zip(rows, stacked):
                assert np.array_equal(states, ensembles[r].states)


def test_a_blocks_refusals_are_each_ensembles_own():
    """An EnsembleBlock checks AttackEnsemble's domain over its arrays: each cell's refusal is the DomainError, type and
    message, that its own AttackEnsemble raises, or None where that accepts it; the block's fields are read-only
    float64 copies. An argument that is not a 1-d array of reals (None, a 0-d array, a bool or complex array, a
    string), a dim that is not an integer or unequal lengths refuse the whole block, by name."""
    rng = np.random.default_rng(38)
    epsilon = [0.0, -0.0, EPSILON_MAX, -EPSILON_MAX, np.nextafter(EPSILON_MAX, 1), np.nan, np.inf]
    delta = [0.0, 1e-300, np.pi / 2, -1e-300, np.nextafter(np.pi / 2, 2), np.nan, -np.inf]
    epsilon, delta = epsilon + rng.uniform(-0.1, 0.1, 30).tolist(), delta + rng.uniform(-0.1, 1.7, 30).tolist()
    for dim in (3, 2, 4, np.int64(3)):
        block = EnsembleBlock(epsilon, delta, dim)
        assert block.epsilon.dtype == block.delta.dtype == float and not block.epsilon.flags.writeable
        for e, d, refusal in zip(epsilon, delta, block.refusals):
            try:
                AttackEnsemble(e, d, dim)
            except DomainError as exc:
                assert (type(refusal), str(refusal)) == (DomainError, str(exc)), (e, d, dim)
            else:
                assert refusal is None, (e, d, dim)
        assert 0 < block.refusals.count(None) < len(block) or dim == 4
    for bad in (None, np.array(0.3), 0.3):
        with pytest.raises(DomainError,
                           match=f"^epsilon must be a 1-d array of real numbers, got {type(bad).__name__}$"):
            EnsembleBlock(bad, [0.3], 3)
    for bad in ([True], [1j], ["0.3"], [[0.3]], [0.3, [0.3]]):
        with pytest.raises(DomainError, match="^delta must be a 1-d array of real numbers"):
            EnsembleBlock([0.1], bad, 3)
    for bad in (3.0, True, None):
        with pytest.raises(DomainError, match=f"^dim must be an integer, got {bad!r}$"):
            EnsembleBlock([0.1], [0.3], bad)
    with pytest.raises(DimensionMismatchError, match="^2 epsilon values but 1 delta values$"):
        EnsembleBlock([0.1, 0.2], [0.3], 3)
    assert len(EnsembleBlock([], [], 3)) == 0


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


#: Accepted points where the four states span three dimensions with sigma_3/sigma_1 of ~1.414e-12, 2.0e-11 and
#: ~1.414e-11, each below the relative singular-value floor of 1e-10 that once decided the span there as 2.
SMALL_SPAN_POINTS = ((1e-6, 1e-3), (1e-11, np.pi / 2), (1e-3, 1e-4))


def _span_draw(n=2000, seed=36):
    """A seeded draw of the accepted domain: n pfm points, |epsilon| log-uniform from 1e-6 rad to EPSILON_MAX with
    both signs and delta log-uniform from 1e-8 to pi/2, with epsilon = 0 and delta = 0 cells (both, at every 99th
    point) mixed in, then a remap point at every 4th of those deltas."""
    rng = np.random.default_rng(seed)
    epsilon = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(np.log(1e-6), np.log(EPSILON_MAX), n))
    delta = np.exp(rng.uniform(np.log(1e-8), np.log(np.pi / 2), n))
    epsilon[::9] = 0.0
    delta[::11] = 0.0
    pfm = [build_ensemble(e, d) for e, d in zip(epsilon.tolist(), delta.tolist())]
    return pfm + [bb84_ensemble(d) for d in delta[::4].tolist()]


def test_span_is_three_where_the_build_answers_a_small_span():
    for epsilon, delta in SMALL_SPAN_POINTS:
        ens = build_ensemble(epsilon, delta)
        assert isinstance(build_suboptimal_povm(ens), PovmStrategy)
        assert span_dimension(ens) == 3, (epsilon, delta)


def test_span_is_the_builds_dimension_over_the_domain():
    """3 wherever the build answers a dim 3 point (and at dim 3 only there, in this draw), 2 at epsilon = 0 with
    delta != 0 at either dim, 1 at delta = 0."""
    draw, kinds = _span_draw(), set()
    for dim in (3, 2):
        ensembles = [ens for ens in draw if ens.dim == dim]
        block = EnsembleBlock([ens.epsilon for ens in ensembles], [ens.delta for ens in ensembles], dim)
        for ens, refusal in zip(ensembles, build_suboptimal_povm(block).refusals):
            span = span_dimension(ens)
            expected = 1 if ens.delta == 0.0 else 2 if ens.epsilon == 0.0 else 3
            assert span == expected, (ens, span)
            if dim == 3:
                assert (refusal is None) == (span == 3), (ens, refusal)
            kinds.add((dim, span))
    assert kinds == {(3, 3), (3, 2), (3, 1), (2, 2), (2, 1)}


def test_span_agrees_with_the_svd_where_it_resolves():
    """The SVD of the states is the independent reference: where numpy resolves the smallest singular value
    (sigma_min > 1e-13 sigma_1), the count above that floor is the span, and where the span is short of dim the
    trailing singular values are rounding (at most 1e-15 sigma_1)."""
    resolved = 0
    for ens in _span_draw():
        sigma = np.linalg.svd(ens.states, compute_uv=False)
        span = span_dimension(ens)
        if sigma[-1] > 1e-13 * sigma[0]:
            resolved += 1
            assert np.count_nonzero(sigma > 1e-13 * sigma[0]) == span, ens
        assert (sigma[span:] <= 1e-15 * sigma[0]).all(), (ens, sigma)
    assert resolved >= 1000


def test_the_small_spans_are_resolved_at_60_digits():
    """A 60-digit SVD of the mpmath states, which share no code with pfm_states, gives sigma_3/sigma_1 of 1.414e-12,
    2.0e-11 and 1.414e-11 at SMALL_SPAN_POINTS, and numpy's SVD of ens.states agrees within 1e-6 relative."""
    for (epsilon, delta), expected in zip(SMALL_SPAN_POINTS, (1.414e-12, 2.0e-11, 1.414e-11)):
        with mpmath.workdps(60):
            states = mpmath.matrix(_pfm_states(mpmath.mpf(epsilon), mpmath.mpf(delta)))
            sigma = sorted(mpmath.svd_c(states, compute_uv=False), reverse=True)
            reference = float(sigma[2] / sigma[0])
        assert abs(reference / expected - 1) <= 1e-3, (epsilon, delta, reference)
        sigma = np.linalg.svd(build_ensemble(epsilon, delta).states, compute_uv=False)
        assert abs(sigma[2] / sigma[0] / reference - 1) <= 1e-6, (epsilon, delta)


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


def test_a_fraction_is_read_as_a_float():
    """A Fraction is a real number: stored as a float, it answers as the float does (it raised TypeError in numpy)."""
    ens = AttackEnsemble(Fraction(1, 100), 0.5, 3)
    assert type(ens.epsilon) is float and ens == build_ensemble(0.01, 0.5)
    assert evaluate(ens, build_suboptimal_povm(ens)) == evaluate(ens, build_suboptimal_povm(build_ensemble(0.01, 0.5)))
    remap = bb84_ensemble(Fraction(1, 2))
    assert type(remap.delta) is float and build_suboptimal_povm(remap).x == build_suboptimal_povm(bb84_ensemble(0.5)).x
    # a real beyond double range reads as an infinity, which the range checks refuse
    with pytest.raises(DomainError, match="delta must lie in"):
        build_ensemble(0.01, 10**400)


def test_bool_epsilon_or_delta_is_refused():
    """True is a number 1 to Python; as a delta it used to be answered as delta 1 rad."""
    for epsilon, delta, name in ((0.01, True, "delta"), (0.01, np.bool_(True), "delta"), (False, 0.5, "epsilon")):
        with pytest.raises(DomainError, match=f"{name} must be a real number"):
            build_ensemble(epsilon, delta)


def test_ensembles_are_immutable():
    ens = build_ensemble(1 * DEG, np.pi / 2)
    with pytest.raises(ValueError):
        ens.states[0, 0] = 1.0


def test_span_and_compensation_refuse_what_is_not_their_type():
    """span_dimension and verify_compensation name the type of an argument that is not theirs, not a bare
    AttributeError."""
    with pytest.raises(DomainError, match="^ensemble must be an AttackEnsemble, got NoneType$"):
        span_dimension(None)
    channel, mirror = BirefringentChannel(0.7, 1.1, 2.3), FaradayMirror(1 * DEG)
    for ch, fm, got in ((None, mirror, "NoneType, FaradayMirror"), (channel, None, "BirefringentChannel, NoneType")):
        with pytest.raises(DomainError, match=f"^need a BirefringentChannel, a FaradayMirror: got {got}$"):
            verify_compensation(ch, fm)

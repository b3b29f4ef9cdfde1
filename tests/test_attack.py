import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from pfmattack.attack import (
    COLLECTIVE_ATTACK_QBER_LIMIT,
    ERROR_WEIGHTS,
    INTERCEPT_RESEND_QBER,
    TWO_WAY_POSTPROCESSING_QBER_LIMIT,
    PovmStrategy,
    build_phase_remapping_povm,
    build_suboptimal_povm,
    evaluate,
    max_fiber_length_km,
)
from pfmattack.errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    PfmAttackError,
    SingularEpsilonError,
)
from pfmattack import attack
from pfmattack.mcoracle import outcome_probabilities, run_oracle
from pfmattack.numkernel import hermitian_eig
from pfmattack.optics import EPSILON_MAX
from pfmattack.statespace import bb84_ensemble, build_ensemble

from closed_form_reference import newton_table, pfm_e_b, pfm_overlaps, remap_e_b
from mp_reference import pfm_reference, remap_reference

DEG = np.pi / 180

# minimal eigenvalue of the conjugated error operator at delta = pi/2,
# identical for every nonzero epsilon
LAMBDA_HALF_PI = (1 - np.sqrt(2) / 2) / 2  # 0.14644660940672624


def _report(eps_deg, delta):
    ens = build_ensemble(eps_deg * DEG, delta)
    strat = build_suboptimal_povm(ens)
    return evaluate(ens, strat), ens, strat


def test_anchor_one_degree_half_pi():
    report, ens, strat = _report(1.0, np.pi / 2)
    assert abs(report.qber - 0.14644660940672613) <= 1e-12
    assert abs(report.p_succ - 0.002432979196570719) <= 1e-15
    assert abs(report.p_succ - 2.43e-3) / 2.43e-3 <= 0.05
    assert abs(report.lambda_0 - LAMBDA_HALF_PI) <= 1e-12
    assert abs(report.max_fiber_km - 124.4696002157729) <= 1e-9
    assert abs(report.max_fiber_km - 124.0) <= 2.0
    assert strat.dim == 3
    # spectrum of the conjugated error operator: {(1 - sqrt2/2)/2, 1/2, (1 + sqrt2/2)/2}
    rho_k = ens.states[:, :, None] * ens.states[:, None, :].conj()
    error_op_0 = sum(ERROR_WEIGHTS[k] * rho_k[k] for k in range(4))
    w, v = np.linalg.eigh(rho_k.sum(axis=0))  # rho has full rank at 1 deg
    ris = (v / np.sqrt(w)) @ v.conj().T
    conjugated = ris @ error_op_0 @ ris
    spectrum, _ = hermitian_eig((conjugated + conjugated.conj().T) / 2)
    assert np.allclose(spectrum, [LAMBDA_HALF_PI, 0.5, (1 + np.sqrt(2) / 2) / 2], atol=1e-10)


def test_anchor_065_degree_half_pi():
    report, _, _ = _report(0.65, np.pi / 2)
    assert abs(report.p_succ - 0.0010289000731384724) <= 1e-15
    assert abs(report.p_succ - 1.029e-3) / 1.029e-3 <= 0.05
    assert abs(report.max_fiber_km - 142.5) <= 2.0


def test_anchor_qber_vs_delta():
    for delta, expected in ((np.pi / 8, 0.03567713222572252), (np.pi / 4, 0.047177158923850195)):
        report, _, _ = _report(1.0, delta)
        assert abs(report.qber - expected) <= 1e-12
    assert abs(_report(1.0, np.pi / 8)[0].qber - 0.0357) <= 0.002
    assert abs(_report(1.0, np.pi / 4)[0].qber - 0.0471) <= 0.002


def test_povm_completeness_and_positivity():
    rng = np.random.default_rng(21)
    for _ in range(40):
        eps = rng.uniform(0.05, 1.0) * DEG * rng.choice([-1, 1])
        delta = rng.uniform(0.1, np.pi / 2)
        _, _, strat = _report(eps / DEG, delta)
        strat.validate()
        assert strat.elements.shape == (3, 3, 3) and not strat.elements.flags.writeable
        assert np.linalg.norm(strat.elements.sum(axis=0) - np.eye(3)) <= 1e-10
        for op in strat.elements:
            assert hermitian_eig(op)[0][0] >= -1e-9
        assert strat.x > 0


def test_vacuum_element_sits_on_positivity_boundary():
    _, _, strat = _report(1.0, np.pi / 2)
    vac_min = hermitian_eig(strat.elements[2])[0][0]
    assert np.linalg.eigvalsh(strat.elements[2]).min() >= -1e-9
    assert -1e-9 <= vac_min <= 1e-6
    assert abs(vac_min) <= 1e-9


def test_lambda_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(30):
        eps_deg = rng.uniform(0.05, 1.0) * rng.choice([-1, 1])
        delta = rng.uniform(0.1, np.pi / 2)
        _, _, strat = _report(eps_deg, delta)
        assert abs(strat.lambda_0 - strat.lambda_3) <= 1e-9


def test_closed_form_identities():
    """QBER equals the eigenvalue mean and the success probability equals x/2."""
    for eps_deg in (0.25, 0.6, 1.0):
        for delta in (np.pi / 8, np.pi / 3, np.pi / 2):
            report, _, strat = _report(eps_deg, delta)
            assert abs(report.qber - (strat.lambda_0 + strat.lambda_3) / 2) <= 1e-9
            assert abs(report.p_succ - strat.x / 2) <= 1e-9


def test_global_phase_invariance():
    """Multiplying each state by its own unit phase leaves its outcome probabilities unchanged."""
    rng = np.random.default_rng(17)
    ens = build_ensemble(1 * DEG, np.pi / 3)
    strat = build_suboptimal_povm(ens)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    base = outcome_probabilities(ens.states, strat)
    rotated = outcome_probabilities(ens.states * phases[:, None], strat)
    assert np.abs(rotated - base).max() <= 1e-12


def test_p_succ_monotone_in_epsilon():
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        values = [_report(e, delta)[0].p_succ for e in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_p_succ_even_in_epsilon():
    for eps_deg in (0.3, 1.0):
        plus = _report(eps_deg, np.pi / 2)[0]
        minus = _report(-eps_deg, np.pi / 2)[0]
        assert abs(plus.p_succ - minus.p_succ) <= 1e-15
        assert abs(plus.qber - minus.qber) <= 1e-12


def test_qber_monotone_in_delta():
    values = [_report(1.0, d)[0].qber for d in np.linspace(0.15, np.pi / 2, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_qber_flat_in_epsilon():
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        values = [_report(e, delta)[0].qber for e in np.linspace(0.1, 1.0, 7)]
        assert max(values) - min(values) <= 1e-3


def test_singular_and_degenerate_rejections():
    with pytest.raises(SingularEpsilonError):
        build_suboptimal_povm(build_ensemble(0.0, np.pi / 2))
    # epsilon = 0 is named first, even at delta = 0
    with pytest.raises(SingularEpsilonError):
        build_suboptimal_povm(build_ensemble(0.0, 0.0))
    # both dims refuse delta = 0 with one message
    messages = set()
    for ens in (build_ensemble(1 * DEG, 0.0), bb84_ensemble(0.0)):
        with pytest.raises(DegenerateSpanError) as info:
            build_suboptimal_povm(ens)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_e_b_is_exactly_epsilon_independent():
    """A = diag(sc, 1, 1) A1 is a change of basis, so lambda_b and e_B depend on delta alone, bit for bit."""
    for delta in (np.pi / 2, np.pi / 5, 0.1, 1e-4):
        reports = [_report(e, delta)[0] for e in (1e-6, 0.05, 1.0, -2.0, 4.0)]
        for r in reports[1:]:
            assert (r.lambda_0, r.lambda_3, r.qber) == (reports[0].lambda_0, reports[0].lambda_3, reports[0].qber)


def test_small_epsilon_scaling():
    """As epsilon -> 0, e_B stays put and p_succ / epsilon^2 tends to a constant (8 at pi/2)."""
    eps_deg = np.geomspace(1e-6, 0.01, 9)
    for delta in (np.pi / 2, np.pi / 4, np.pi / 8):
        reports = [_report(e, delta)[0] for e in eps_deg]
        qber = np.array([r.qber for r in reports])
        ratio = np.array([r.p_succ for r in reports]) / np.deg2rad(eps_deg) ** 2
        assert np.ptp(qber) <= 1e-12
        assert np.ptp(ratio) <= 1e-6 * ratio[0]
        if delta == np.pi / 2:
            assert abs(ratio[0] - 8.0) <= 1e-6 * 8.0


# (epsilon_deg, delta): points where a rank-cut rho^(-1/2) construction
# returns wrong figures, plus ordinary ones.
MP_POINTS = ((1e-4, np.pi / 2), (0.05, 0.03), (1.0, 0.01), (1.0, np.pi / 2), (0.3, np.pi / 5), (-2.0, 0.1))
#: The accuracy build_suboptimal_povm promises: e_B absolute, p_succ and x relative.
BUILD_TOL = 1e-12


def _agrees(report, ref):
    return (
        abs(report.qber - ref["qber"]) <= BUILD_TOL
        and abs(report.p_succ / ref["p_succ"] - 1) <= BUILD_TOL
        and abs(report.x / ref["x"] - 1) <= BUILD_TOL
    )


def test_matches_extended_precision_reference():
    for eps_deg, delta in MP_POINTS:
        report = _report(eps_deg, delta)[0]
        ref = pfm_reference(eps_deg, delta)
        assert _agrees(report, ref), (eps_deg, delta, report, ref)
        assert abs(report.lambda_0 - ref["lambda_0"]) <= BUILD_TOL
    for delta in (np.pi / 4, 1e-4):
        report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
        assert _agrees(report, remap_reference(delta)), delta


def test_every_accepted_point_is_accurate_or_refused():
    """Down a log grid of delta, every point matches the 50-digit reference
    within BUILD_TOL; none is refused."""
    refused = 0
    for delta in np.geomspace(1e-5, np.pi / 2, 16):
        for eps_deg in (1e-5, 0.7):
            ens = build_ensemble(eps_deg * DEG, delta)
            try:
                report = evaluate(ens, build_suboptimal_povm(ens))
            except DegenerateSpanError:
                refused += 1
                continue
            assert _agrees(report, pfm_reference(eps_deg, delta)), (eps_deg, delta)
    for delta in np.geomspace(1e-8, np.pi / 2, 16):
        try:
            report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
        except DegenerateSpanError:
            refused += 1
            continue
        assert _agrees(report, remap_reference(delta)), delta
    assert refused == 0


#: The input types a caller may pass for epsilon or delta; bool is refused.
DOMAIN_TYPES = (int, float, np.float32, np.float16, Fraction, bool)


def _reals(rng, n: int, eps_low: float, delta_low: float) -> tuple[list[float], list[float]]:
    """n seeded (epsilon, delta) float pairs: epsilon of either sign, |epsilon| uniform up to EPSILON_MAX for
    half of them and log-uniform in [eps_low, EPSILON_MAX] for the other half; delta log-uniform in [delta_low, pi/2]."""
    magnitude = np.where(
        np.arange(n) % 2, rng.uniform(0, EPSILON_MAX, n), np.exp(rng.uniform(math.log(eps_low), math.log(EPSILON_MAX), n))
    )
    eps = rng.choice([-1.0, 1.0], n) * magnitude
    delta = np.exp(rng.uniform(math.log(delta_low), math.log(np.pi / 2), n))
    return eps.tolist(), delta.tolist()


def _answer_or_refusal(build, *args):
    """(ensemble, report) of the point, or (ensemble or None, the PfmAttackError that refused it)."""
    ens = None
    try:
        ens = build(*args)
        return ens, evaluate(ens, build_suboptimal_povm(ens))
    except PfmAttackError as exc:
        return ens, exc


def test_whole_domain_is_answered_exactly_or_refused():
    """Every seeded case over the whole accepted domain, and past its edges, raises a PfmAttackError or gives e_B
    within 1e-15 of the closed form, for pfm (epsilon, delta) and for remap (delta).

    300 draws reach epsilon and delta down to 5e-324, with epsilon exactly 0 and +-EPSILON_MAX and delta pi/2;
    each is asked once as floats and once cast to a drawn type of DOMAIN_TYPES per argument. An underflow refusal
    (DegenerateSpanError at delta > 0) must come where |sin 2e cos 2e| delta^2 (pfm) or delta (remap) is below
    1e-150. p_succ is held to the 50-digit reference on 10 further draws, with |epsilon| >= 1e-5 and
    delta >= 1e-6, where the reference resolves rho's smallest eigenvalue (~p_succ)."""
    rng = np.random.default_rng(2024)
    eps, delta = _reals(rng, 300, 5e-324, 5e-324)
    eps[:3] = 0.0, EPSILON_MAX, -EPSILON_MAX
    delta[3] = np.pi / 2
    kinds = rng.integers(len(DOMAIN_TYPES), size=(300, 2)).tolist()
    cases = list(zip(eps, delta)) + [(DOMAIN_TYPES[i](e), DOMAIN_TYPES[j](d)) for e, d, (i, j) in zip(eps, delta, kinds)]
    answered = {3: 0, 2: 0}
    for e, d in cases:
        for build, args, e_b in ((build_ensemble, (e, d), pfm_e_b), (bb84_ensemble, (d,), remap_e_b)):
            ens, result = _answer_or_refusal(build, *args)
            if isinstance(result, DegenerateSpanError) and ens.delta > 0:
                sc = math.sin(2 * ens.epsilon) * math.cos(2 * ens.epsilon)
                assert (abs(sc) * ens.delta**2 if ens.dim == 3 else ens.delta) < 1e-150, (e, d, result)
            if not isinstance(result, PfmAttackError):
                answered[ens.dim] += 1
                assert abs(result.qber - e_b(ens.delta)) <= 1e-15, (e, d)
    assert answered[3] >= 50 and answered[2] >= 200, answered
    for e, d in zip(*_reals(rng, 10, 1e-5, 1e-6)):
        ens, report = _answer_or_refusal(build_ensemble, e, d)
        ref = pfm_reference(math.degrees(e), d)
        assert abs(report.p_succ / ref["p_succ"] - 1) <= BUILD_TOL, (e, d, report, ref)
        assert abs(report.qber - pfm_e_b(d)) <= 1e-15, (e, d)


def test_small_delta_is_accurate():
    """Small delta is answered to BUILD_TOL, down to the delta -> 0 limit of e_B."""
    for eps_deg, delta in ((1.0, 1e-2), (1.0, 3e-3), (1.0, 1e-4), (1.0, 1e-6), (0.3, 1e-8)):
        assert _agrees(_report(eps_deg, delta)[0], pfm_reference(eps_deg, delta)), (eps_deg, delta)
    for delta in (1e-6, 1e-8):
        report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
        assert _agrees(report, remap_reference(delta)), delta
    assert abs(_report(1.0, 1e-8)[0].qber - 0.0325765385825) <= 1e-12
    assert abs(report.qber - 0.1550510257217) <= 1e-12


def _projector(c):
    return np.outer(c, c.conj()) / np.vdot(c, c).real


def test_delta_spectrum_matches_its_closed_form():
    """e_B and lambda_b of both kinds match the tests-only quadratics to 1e-15 at every epsilon, and the
    pencil's pfm eigenvectors, as overlaps W^H y_w with the states, match c_bk = u_k / (W_bk - e_B)."""
    for delta in np.geomspace(1e-8, np.pi / 2, 201):
        for eps_deg in (1e-5, 0.05, 1.0, -4.9):
            report = _report(eps_deg, delta)[0]
            assert max(abs(v - pfm_e_b(delta)) for v in (report.qber, report.lambda_0, report.lambda_3)) <= 1e-15
        report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
        assert max(abs(v - remap_e_b(delta)) for v in (report.qber, report.lambda_0, report.lambda_3)) <= 1e-15
        y_w, _ = attack._pencil(3, float(delta))
        for c, c_ref in zip(y_w @ newton_table(delta).conj(), pfm_overlaps(delta)):
            assert np.abs(_projector(c) - _projector(c_ref)).max() <= 1e-14, delta
    assert abs(pfm_e_b(np.pi / 2) - LAMBDA_HALF_PI) <= 1e-16
    assert abs(pfm_e_b(1e-100) - (0.4 - 0.15 * np.sqrt(6))) <= 1e-16


def test_validate_decomposes_each_element_once(monkeypatch):
    """validate() decomposes M_0, M_3 and M_vac in one stacked call of shape (3, d, d)."""
    for strat in (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4)):
        calls = []

        def counting_eig(a):
            calls.append(np.shape(a))
            return hermitian_eig(a)

        monkeypatch.setattr(attack, "hermitian_eig", counting_eig)
        strat.validate()
        assert calls == [(3, strat.dim, strat.dim)]


def _with(strat, **changes):
    """A hand-built copy of strat with some fields replaced (no validation)."""
    fields = dict(ensemble=strat.ensemble, elements=strat.elements, x=strat.x,
                  lambda_0=strat.lambda_0, lambda_3=strat.lambda_3)
    fields.update(changes)
    return PovmStrategy(**fields)


def test_validate_rejects_nan_before_any_eigensolve(monkeypatch):
    _, _, strat = _report(1.0, np.pi / 2)

    def no_eig(a):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(attack, "hermitian_eig", no_eig)
    for index in (0, 2):  # M_0 and M_vac
        bad = strat.elements.copy()
        bad[index, 1, 1] = np.nan
        with pytest.raises(DomainError, match="sum to the identity"):
            _with(strat, elements=bad).validate()


def test_strategy_refuses_elements_of_another_shape():
    """Two elements, or elements of another dim, never reach validate() or the oracle."""
    _, _, strat = _report(1.0, np.pi / 2)
    m_0, m_3, m_vac = strat.elements
    for elements in (np.array((m_0, m_3 + m_vac)), np.array((m_0, m_3, m_vac, 0 * m_0)), strat.elements[:, :2, :2]):
        with pytest.raises(DimensionMismatchError, match=r"elements shape .* is not \(3, 3, 3\)"):
            _with(strat, elements=elements)


def test_strategy_keeps_a_copy_of_the_callers_elements():
    """The strategy's read-only stack is its own: the caller's array stays writable, and writing to it changes nothing."""
    _, _, strat = _report(1.0, np.pi / 2)
    mine = strat.elements.copy()
    copy = dataclasses.replace(strat, elements=mine)
    assert mine.flags.writeable and not copy.elements.flags.writeable
    mine[0] = 0.0
    assert np.array_equal(copy.elements, strat.elements)
    copy.validate()


def test_validate_refuses_each_broken_element():
    """Each refusal after completeness, on a complete POVM: the boundary, a negative M_vac, and x."""
    for strat in (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4)):
        eye = np.eye(strat.dim)
        for scale, message in ((0.5, "M_vac minimal eigenvalue .* is off the positivity boundary"),
                               (2.0, "M_vac has negative eigenvalue")):
            m_0, m_3 = scale * strat.elements[:2]
            with pytest.raises(DomainError, match=message):
                _with(strat, elements=np.array((m_0, m_3, eye - m_0 - m_3))).validate()
        with pytest.raises(DomainError, match="scale factor x must be positive, got 0.0"):
            _with(strat, x=0.0).validate()


def test_validate_refuses_a_non_hermitian_stack_that_sums_to_the_identity():
    """An asymmetry of 1e-11 added to M_0 and taken back out of M_vac: completeness holds, the Hermitian check refuses."""
    d = 1e-11
    for strat in (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4)):
        bad = strat.elements.copy()
        bad[0, 0, 1] += d
        bad[2, 0, 1] -= d
        assert np.linalg.norm(bad.sum(axis=0) - np.eye(strat.dim)) <= 1e-15
        with pytest.raises(NonHermitianError, match="deviates from Hermitian symmetry by 1.0..e-11"):
            _with(strat, elements=bad).validate()


def test_evaluate_refuses_a_strategy_built_for_another_point():
    strat = build_suboptimal_povm(build_ensemble(1 * DEG, np.pi / 2))
    with pytest.raises(DomainError, match="built for"):
        evaluate(build_ensemble(0.5 * DEG, np.pi / 2), strat)
    with pytest.raises(DomainError, match="built for"):
        evaluate(build_ensemble(1 * DEG, np.pi / 3), strat)


def test_closed_form_path_computes_no_states():
    """The build and the report read the point (epsilon, delta, dim) alone; the states stay uncomputed."""
    for ens in (build_ensemble(1 * DEG, np.pi / 2), bb84_ensemble(np.pi / 4)):
        strat = build_suboptimal_povm(ens) if ens.dim == 3 else build_phase_remapping_povm(ens.delta)
        evaluate(ens, strat)
        assert strat.ensemble == ens
        assert "states" not in vars(ens) and "states" not in vars(strat.ensemble)


def test_tiny_epsilon_underflow_is_refused():
    """Below ~1e-154 rad p_succ is not a normal double: a named refusal, down to subnormal epsilon.

    The first refusal solves the pi/2 pencil; the others find it cached.
    """
    attack._pencil.cache_clear()
    for eps in (1e-160, 1e-165, 1e-310, 1e-320):
        with pytest.raises(DegenerateSpanError, match="underflow"):
            build_suboptimal_povm(build_ensemble(eps, np.pi / 2))
    assert attack._pencil.cache_info().hits == 3
    report = _report(np.rad2deg(1e-150), np.pi / 2)[0]
    assert abs(report.p_succ / report.epsilon**2 - 8.0) <= 1e-12 * 8.0
    assert abs(report.qber - LAMBDA_HALF_PI) <= 1e-12


def test_tiny_delta_underflow_is_refused():
    """The same named refusal down to the smallest subnormal delta, for both kinds, cold and cached."""
    attack._pencil.cache_clear()
    for _ in range(2):
        for delta in (1e-160, 1e-310, 5e-324):
            with pytest.raises(DegenerateSpanError, match="underflow"):
                build_suboptimal_povm(build_ensemble(1 * DEG, delta))
            with pytest.raises(DegenerateSpanError, match="underflow"):
                build_phase_remapping_povm(delta)
    assert attack._pencil.cache_info()[:2] == (6, 6)  # (hits, misses)


def _grid_sweep_points():
    """The benchmark's grid: 40 x 50 pfm points and the 50 remap points on its delta line."""
    deltas = np.linspace(0.1, np.pi / 2, 50)
    return [build_ensemble(e, d) for e in np.deg2rad(np.linspace(0.05, 1.0, 40)) for d in deltas] + [
        bb84_ensemble(d) for d in deltas
    ]


def test_cached_pencil_gives_bit_identical_points():
    """Each grid point built on a warm cache equals the same point built on a cleared one, bit for bit."""
    points = _grid_sweep_points()
    attack._pencil.cache_clear()
    for ens in points:
        build_suboptimal_povm(ens)
    warm = [build_suboptimal_povm(ens) for ens in points]
    assert attack._pencil.cache_info().currsize == 100
    for ens, w in zip(points, warm):
        attack._pencil.cache_clear()
        cold = build_suboptimal_povm(ens)
        assert evaluate(ens, cold) == evaluate(ens, w)
        assert np.array_equal(cold.elements, w.elements)


def test_cached_pencil_is_read_only():
    for dim in (2, 3):
        y_w, lambdas = attack._pencil(dim, np.pi / 4)
        assert isinstance(lambdas, tuple)
        with pytest.raises(ValueError):
            y_w[0, 0] = 0.0


def test_refused_points_do_not_reach_the_cache():
    """epsilon = 0 and delta = 0 are refused, with their own types and messages, before any cache lookup."""
    attack._pencil.cache_clear()
    singular = "epsilon = 0 is a singular point: the attack states span only two dimensions"
    coincide = "delta = 0: the four states coincide and span one dimension"
    for ens, error, message in (
        (build_ensemble(0.0, np.pi / 2), SingularEpsilonError, singular),
        (build_ensemble(1 * DEG, 0.0), DegenerateSpanError, coincide),
        (bb84_ensemble(0.0), DegenerateSpanError, coincide),
    ):
        with pytest.raises(error) as info:
            build_suboptimal_povm(ens)
        assert str(info.value) == message
    info = attack._pencil.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_pencil_cache_is_bounded():
    maxsize = attack._pencil.cache_info().maxsize
    assert maxsize == attack._PENCIL_CACHE_SIZE
    for delta in np.linspace(0.01, np.pi / 2, maxsize + 10):
        build_phase_remapping_povm(delta)
    assert attack._pencil.cache_info().currsize == maxsize


# (kind, epsilon_deg, delta, e_B, p_succ, x, lambda_0, lambda_3) from an earlier, independent
# construction (an equilibrated-rho pencil), held to 1e-12.
PINS = (
    ('pfm', 1.0, 1.5707963267948966, 0.1464466094067261, 0.0024329791965707216, 0.004865958393141442, 0.14644660940672619, 0.14644660940672638),
    ('pfm', 0.65, 1.5707963267948966, 0.1464466094067263, 0.001028900073138472, 0.0020578001462769444, 0.14644660940672627, 0.14644660940672638),
    ('pfm', 1.0, 0.7853981633974483, 0.047177158923850375, 0.0006341567055998005, 0.0012683134111996016, 0.047177158923850326, 0.04717715892385032),
    ('pfm', 1.0, 0.39269908169872414, 0.035677132225719846, 5.813466957147484e-05, 0.00011626933914294991, 0.03567713222572178, 0.03567713222572169),
    ('pfm', 0.3, 0.6283185307179586, 0.041206984796170104, 2.823690508128263e-05, 5.647381016256522e-05, 0.041206984796170285, 0.04120698479617043),
    ('pfm', -2.0, 0.5, 0.03777172978017311, 0.0005563106525384616, 0.0011126213050769282, 0.03777172978017295, 0.03777172978017313),
    ('pfm', 0.05, 1.2, 0.07893274985704997, 4.3667045122652e-06, 8.733409024530396e-06, 0.07893274985704994, 0.07893274985704994),
    ('pfm', 0.0001, 1.5707963267948966, 0.14644660940672616, 2.436939358254075e-11, 4.873878716508152e-11, 0.14644660940672619, 0.1464466094067262),
    ('pfm', 4.0, 1.0, 0.05984004854258942, 0.01857332721507083, 0.03714665443014167, 0.059840048542589265, 0.059840048542589376),
    ('remap', 0.0, 1.5707963267948966, 0.25, 0.5857864376269049, 1.17157287525381, 0.25, 0.25),
    ('remap', 0.0, 0.7853981633974483, 0.1770155295787886, 0.2342755042197024, 0.46855100843940484, 0.17701552957878852, 0.17701552957878863),
    ('remap', 0.0, 0.1, 0.1553910995963605, 0.004427082545421161, 0.008854165090842286, 0.15539109959636432, 0.15539109959636432),
)


def test_pinned_values():
    for kind, eps_deg, delta, qber, p_succ, x, lambda_0, lambda_3 in PINS:
        if kind == "pfm":
            report = _report(eps_deg, delta)[0]
        else:
            report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
        assert abs(report.qber - qber) <= 1e-12, (kind, eps_deg, delta)
        assert abs(report.p_succ / p_succ - 1) <= 1e-12, (kind, eps_deg, delta)
        assert abs(report.x / x - 1) <= 1e-12, (kind, eps_deg, delta)
        assert abs(report.lambda_0 - lambda_0) <= 1e-12, (kind, eps_deg, delta)
        assert abs(report.lambda_3 - lambda_3) <= 1e-12, (kind, eps_deg, delta)


def test_remapping_anchor_quarter_pi():
    strat = build_phase_remapping_povm(np.pi / 4)
    assert strat.dim == 2
    report = evaluate(bb84_ensemble(np.pi / 4), strat)
    assert abs(report.qber - 0.1770155295787885) <= 1e-12
    assert abs(report.qber - 0.177) <= 0.003
    assert abs(report.p_succ - 0.23427550421970234) <= 1e-12


def test_remapping_endpoint_half_pi():
    """At delta = pi/2 the two-dimensional construction lands exactly on the
    plain intercept-resend QBER, with success probability 2 - sqrt(2)."""
    strat = build_phase_remapping_povm(np.pi / 2)
    report = evaluate(bb84_ensemble(np.pi / 2), strat)
    assert abs(report.qber - 0.25) <= 1e-12
    assert abs(report.p_succ - (2 - np.sqrt(2))) <= 1e-12
    strat.validate()


def test_remapping_rejects_zero_delta():
    with pytest.raises(DegenerateSpanError, match="delta = 0"):
        build_phase_remapping_povm(0.0)


def test_remapping_dominates_pfm():
    """The baseline succeeds more often but causes more errors at every delta."""
    for eps_deg in (0.5, 1.0):
        for delta in np.linspace(0.1, np.pi / 2, 12):
            pfm_report = _report(eps_deg, delta)[0]
            remap_report = evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))
            assert remap_report.p_succ > pfm_report.p_succ
            assert pfm_report.qber < remap_report.qber


def test_dimension_mismatch_between_ensemble_and_strategy():
    strat = build_phase_remapping_povm(np.pi / 2)
    with pytest.raises(DimensionMismatchError):
        evaluate(build_ensemble(1 * DEG, np.pi / 2), strat)


def test_resend_map():
    """M_0 resends state 0 and M_3 state 3: with M_b = I every sifted round of state b is right and every
    sifted round of the opposite state b + 2 is an error."""
    _, ens, strat = _report(1.0, np.pi / 2)
    eye, zero = np.eye(3), np.zeros((3, 3))
    for b, elements in ((0, (eye, zero, zero)), (3, (zero, eye, zero))):
        estimate = run_oracle(ens, _with(strat, elements=np.array(elements)), 10**4, seed=b)
        opposite = (b + 2) % 4
        assert estimate.errors_by_state[b] == 0
        assert estimate.errors_by_state[opposite] == estimate.sifted_by_state[opposite] > 0


def test_fiber_length_mapping():
    assert abs(max_fiber_length_km(2.43e-3) - 124.0) <= 2.0
    assert abs(max_fiber_length_km(1.017e-3) - 142.5) <= 2.0
    assert max_fiber_length_km(0.0) == float("inf")


def test_reference_constants():
    assert INTERCEPT_RESEND_QBER == 0.25
    assert COLLECTIVE_ATTACK_QBER_LIMIT == 0.11
    assert TWO_WAY_POSTPROCESSING_QBER_LIMIT == 0.20

import dataclasses
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pfmattack.attack import (
    COLLECTIVE_ATTACK_QBER_LIMIT,
    AttackReport,
    ERROR_WEIGHTS,
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
    NegativeProbabilityError,
    NoConvergenceError,
    NonHermitianError,
    PfmAttackError,
    SingularEpsilonError,
)
from pfmattack import attack, cli, mcoracle
from pfmattack.mcoracle import outcome_probabilities, run_oracle
from pfmattack.numkernel import HERMITIAN_ATOL, hermitian_eig, hermitian_eigvalsh
from pfmattack.statespace import EPSILON_MAX, AttackEnsemble, EnsembleBlock, bb84_ensemble, build_ensemble

from closed_form_reference import map_back, newton_table, pfm_e_b, pfm_overlaps, remap_e_b
from eigenvalue_path import certify_nothing
from hermitian_reference import hermitian_refusal
from mp_reference import pfm_reference, remap_reference

DEG = np.pi / 180
#: The pivot certificate itself, kept before any test monkeypatches it.
_CERTIFIED = attack._certified

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


def test_half_pi_transmittance_law():
    """At delta = pi/2, p_succ = sin^2(4e)/2 (1 - 16 e^4 + O(e^6)) with |O(e^6)| <= 90 e^6 up to |e| = 5 deg, in the
    50-digit reference alone: its relative deviation from sin^2(4e)/2, over e^4, reads -16.0003 at 0.1 deg, -16.026
    at 1 deg and -16.63 at 5 deg, for either sign of e. The 1e-15 allows for p_succ's rounding to a double."""
    reading = {}
    for eps_deg in (0.1, 0.3, 1.0, 2.0, 5.0):
        for sign in (1.0, -1.0):
            e = math.radians(sign * eps_deg)
            dev = pfm_reference(sign * eps_deg, np.pi / 2)["p_succ"] / (math.sin(4 * e) ** 2 / 2) - 1
            assert abs(dev + 16 * e**4) <= 90 * e**6 + 1e-15, (eps_deg, sign, dev / e**4)
            reading[sign * eps_deg] = dev / e**4
    assert abs(reading[-0.1] + 16.0003) <= 1e-4 and abs(reading[1.0] + 16.026) <= 1e-3
    assert abs(reading[5.0] + 16.63) <= 0.01


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
        y_w = attack._pencil(3, float(delta))[0]
        for c, c_ref in zip(y_w @ newton_table(delta).conj(), pfm_overlaps(delta)):
            assert np.abs(_projector(c) - _projector(c_ref)).max() <= 1e-14, delta
    assert abs(pfm_e_b(np.pi / 2) - LAMBDA_HALF_PI) <= 1e-16
    assert abs(pfm_e_b(1e-100) - (0.4 - 0.15 * np.sqrt(6))) <= 1e-16


def test_validate_decomposes_each_element_once(monkeypatch):
    """validate() takes the eigenvalues of M_0, M_3 and M_vac in one stacked call of shape (3, d, d) on the path of a
    POVM the pivot certificate does not pass; with the certificate on, the same built POVMs take none."""
    strats = (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4))
    calls = []

    def counting_eigvalsh(a, **options):
        calls.append(np.shape(a))
        return hermitian_eigvalsh(a, **options)

    monkeypatch.setattr(attack, "hermitian_eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(attack, "_certified", certify_nothing)
    for strat in strats:
        calls.clear()
        strat.validate()
        assert calls == [(3, strat.dim, strat.dim)]
    monkeypatch.setattr(attack, "_certified", _CERTIFIED)
    calls.clear()
    for strat in strats:
        strat.validate()
    assert calls == []


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
    monkeypatch.setattr(attack, "hermitian_eigvalsh", no_eig)
    for index in (0, 2):  # M_0 and M_vac
        bad = strat.elements.copy()
        bad[index, 1, 1] = np.nan
        with pytest.raises(DomainError, match="sum to the identity"):
            _with(strat, elements=bad).validate()


def test_strategy_refuses_an_infinite_element_on_construction():
    """An infinite entry is refused by name when the strategy is made, without a numpy warning, so validate(), the
    oracle and the eigenvalue call that skips its own finiteness check never see one: not even inf in M_0 against
    -inf in M_vac, whose sum inf - inf is NaN. So is a finite real or imaginary part above attack._ELEMENT_MAX, which
    would overflow validate()'s sum of squares (a built strategy's elements times 1e154 stopped it on numpy's overflow
    warning). Up to that bound validate() names its own refusal, at either dim, even with every part at the bound."""
    _, _, strat = _report(1.0, np.pi / 2)
    for cells in ({(2, 0, 1): np.inf}, {(2, 0, 1): -np.inf}, {(2, 0, 1): complex(0.0, np.inf)},
                  {(0, 0, 0): np.inf, (2, 0, 0): -np.inf}, {(2, 0, 1): np.nextafter(attack._ELEMENT_MAX, np.inf)},
                  {(1, 2, 2): complex(0.0, -1e154)}):
        bad = strat.elements.copy()
        for cell, value in cells.items():
            bad[cell] = value
        with pytest.raises(DomainError, match="elements must not be infinite"):
            _with(strat, elements=bad)
    for strat in (strat, build_phase_remapping_povm(np.pi / 4)):
        with pytest.raises(DomainError, match="elements must not be infinite"):
            _with(strat, elements=strat.elements * 1e154)
        for inside in (strat.elements * 1e152, np.full_like(strat.elements, 1 + 1j) * attack._ELEMENT_MAX):
            with pytest.raises(DomainError, match="sum to the identity"):
                _with(strat, elements=inside).validate()


@pytest.mark.parametrize("field", ["x", "lambda_0", "lambda_3"])
def test_strategy_stores_its_scalars_as_finite_floats(field):
    """x, lambda_0 and lambda_3 are refused by name unless they are finite reals (a bool is not); a real of any type
    is stored as a float of the same value."""
    _, _, strat = _report(1.0, np.pi / 2)
    for value in ("0.1", None, 1 + 0j, True, np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match=f"{field} must be a finite real number"):
            _with(strat, **{field: value})
    for value in (1, Fraction(getattr(strat, field)), np.float64(getattr(strat, field)), np.float32(0.25)):
        stored = getattr(_with(strat, **{field: value}), field)
        assert type(stored) is float and stored == value


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


def test_strategy_stores_numbers_of_any_dtype_as_complex128():
    """Elements given as objects, nested lists or reals are stored as a complex128 copy, so validate() and the oracle
    take them as they take the built strategy's."""
    _, ens, strat = _report(1.0, np.pi / 2)
    built = run_oracle(ens, strat, 10**5, seed=3)
    for elements in (strat.elements.astype(object), strat.elements.tolist()):
        copy = _with(strat, elements=elements)
        assert copy.elements.dtype == np.complex128 and np.array_equal(copy.elements, strat.elements)
        copy.validate()
        assert run_oracle(ens, copy, 10**5, seed=3) == built
    real = _with(strat, elements=np.array((np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))))
    assert real.elements.dtype == np.complex128


def test_strategy_refuses_elements_that_are_not_numbers():
    """Strings, other objects that do not convert and an int beyond double range are refused on construction by name;
    a None converts to NaN, which validate() and the oracle refuse by name."""
    _, ens, strat = _report(1.0, np.pi / 2)
    for elements in (np.full((3, 3, 3), "M"), [[["1", "x", "0"]] * 3] * 3, np.full((3, 3, 3), {}, dtype=object),
                     [[[2**2000] * 3] * 3] * 3):  # an int beyond double range
        with pytest.raises(DomainError, match="elements must be numbers"):
            _with(strat, elements=elements)
    nones = strat.elements.astype(object)
    nones[0, 1, 1] = None
    with_none = _with(strat, elements=nones)
    with pytest.raises(DomainError, match="do not sum to the identity"):
        with_none.validate()
    with pytest.raises(NegativeProbabilityError, match="negative or NaN"):
        run_oracle(ens, with_none, 10**5, seed=3)


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


def test_evaluate_and_the_oracle_refuse_what_is_not_a_strategy():
    """A strategy that is not a PovmStrategy is refused by name, not met with a bare AttributeError."""
    _, ens, strat = _report(1.0, np.pi / 2)
    for bad in (None, [strat], (ens, strat.elements)):
        with pytest.raises(DomainError, match=f"strategy must be a PovmStrategy, got {type(bad).__name__}"):
            evaluate(ens, bad)
        with pytest.raises(DomainError, match="strategy must be a PovmStrategy"):
            run_oracle(ens, bad, 10000, 1)


def test_evaluate_and_the_oracle_refuse_what_is_not_an_ensemble():
    """An ensemble that is not an AttackEnsemble is refused by name, not met with a bare AttributeError."""
    _, ens, strat = _report(1.0, np.pi / 2)
    for bad in (None, (ens.epsilon, ens.delta, ens.dim)):
        with pytest.raises(DomainError, match=f"ensemble must be an AttackEnsemble, got {type(bad).__name__}"):
            evaluate(bad, strat)
        with pytest.raises(DomainError, match=f"^ens must be an AttackEnsemble or an EnsembleBlock, got "
                                              f"{type(bad).__name__}$"):
            run_oracle(bad, strat, 10000, 1)


def _no_draw(*args):
    raise AssertionError("a round was drawn")


def test_build_refuses_what_is_neither_an_ensemble_nor_iterable(monkeypatch):
    """The two entries' contract on ens: build_suboptimal_povm and run_oracle take an AttackEnsemble or an
    EnsembleBlock. A sequence or an iterator of ensembles, None, a number, a string, an array of any shape (a 0-d one
    is Iterable by type, but cannot be iterated) and a PovmBlock are each a DomainError that names the type, not a
    bare TypeError or a numpy warning (an error here), and no round is drawn."""
    _, ens, strat = _report(1.0, np.pi / 2)
    povms = build_suboptimal_povm(EnsembleBlock([ens.epsilon], [ens.delta], 3))
    monkeypatch.setattr(mcoracle, "_draw", _no_draw)
    bads = ([ens, ens], (ens,), (e for e in [ens, ens]), None, 5, "ens", np.array(0.3), np.array([0.3, 1.0]), povms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in bads:
            message = f"^ens must be an AttackEnsemble or an EnsembleBlock, got {type(bad).__name__}$"
            with pytest.raises(DomainError, match=message):
                build_suboptimal_povm(bad)
            with pytest.raises(DomainError, match=message):
                run_oracle(bad, strat, 10000, 1)


def test_strategy_equality_is_identity():
    """A strategy equals itself alone and hashes: its arrays would make a field-wise == raise, and hash fail."""
    for ens in (build_ensemble(1 * DEG, np.pi / 2), bb84_ensemble(np.pi / 4)):
        strat = build_suboptimal_povm(ens)
        assert strat == strat and strat != build_suboptimal_povm(ens) and strat != dataclasses.replace(strat)
        assert {strat} == {strat} and strat in {strat} and hash(strat) == hash(strat)


def test_strategy_refuses_an_ensemble_that_is_not_one():
    """dataclasses.replace(strat, ensemble=...) with anything but an AttackEnsemble raises DomainError, before the
    ensemble's dim is read."""
    _, ens, strat = _report(1.0, np.pi / 2)
    for bad in (None, (ens.epsilon, ens.delta, ens.dim)):
        with pytest.raises(DomainError, match=f"ensemble must be an AttackEnsemble, got {type(bad).__name__}"):
            dataclasses.replace(strat, ensemble=bad)
    copy = dataclasses.replace(strat, ensemble=build_ensemble(1 * DEG, np.pi / 2))
    assert copy.ensemble == ens and np.array_equal(copy.elements, strat.elements)


def test_built_objects_are_the_dataclasses_own():
    """A built strategy and a report are made without their __init__, and are what it makes: equal to the
    constructor's object of the same fields, with its hash and repr, and frozen."""
    for ens in (build_ensemble(1 * DEG, np.pi / 2), bb84_ensemble(np.pi / 4)):
        strat = build_suboptimal_povm(ens)
        report = evaluate(ens, strat)
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(AttackReport)}
        made = AttackReport(**fields)
        assert report == made and hash(report) == hash(made) and repr(report) == repr(made)
        assert vars(report) == vars(made) and list(vars(report)) == list(vars(made))
        assert dataclasses.replace(report) == report
        copy = dataclasses.replace(strat)
        assert vars(copy).keys() == vars(strat).keys() and np.array_equal(copy.elements, strat.elements)
        for obj, name in ((report, "qber"), (strat, "x"), (ens, "delta")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0.5)


def test_ensemble_fields_are_converted_and_checked_once():
    """AttackEnsemble stores an int, a Fraction or a numpy float as a float and keeps refusing a bool, a complex and
    a NaN, also through dataclasses.replace; it is equal to, and hashes as, the ensemble of the plain floats."""
    ens = build_ensemble(0.01, 0.5)
    for epsilon, delta in ((Fraction(1, 100), 0.5), (np.float64(0.01), np.float64(0.5)), (0.01, Fraction(1, 2))):
        made = AttackEnsemble(epsilon, delta, 3)
        assert type(made.epsilon) is float and type(made.delta) is float
        assert made == ens and hash(made) == hash(ens) and repr(made) == repr(ens)
    zero = AttackEnsemble(0, 1, 2)
    assert type(zero.epsilon) is float and type(zero.delta) is float and zero == bb84_ensemble(1.0)
    assert list(vars(ens)) == ["epsilon", "delta", "dim"]
    for name, value, message in (("delta", True, "delta must be a real number"),
                                 ("epsilon", 0.01j, "epsilon must be a real number"),
                                 ("delta", complex(0.5), "delta must be a real number"),
                                 ("epsilon", np.nan, "|epsilon| must be <="), ("delta", np.nan, "delta must lie in")):
        with pytest.raises(DomainError, match=message.replace("|", r"\|")):
            dataclasses.replace(ens, **{name: value})
        with pytest.raises(DomainError, match=message.replace("|", r"\|")):
            AttackEnsemble(**{**vars(ens), name: value})
    assert dataclasses.replace(ens, delta=np.float64(0.25)) == build_ensemble(0.01, 0.25)


def _boundary_povm(dim):
    """An exactly Hermitian POVM that validate() passes: M_0 = diag(1/2, 0, ..), M_3 = diag(0, 1, 0, ..) and
    M_vac = I - M_0 - M_3, whose smallest eigenvalue is 0."""
    m_0, m_3 = np.zeros((dim, dim), complex), np.zeros((dim, dim), complex)
    m_0[0, 0], m_3[1, 1] = 0.5, 1.0
    return np.stack([m_0, m_3, np.eye(dim) - m_0 - m_3])


def _verdict(refusal):
    return None if refusal is None else (type(refusal), str(refusal))


def test_validate_gives_the_direct_forms_hermitian_verdict():
    """validate() forms each element's conj(M) - M^T through a constant map, with the completeness residual: on
    seeded built POVMs of dim 2 and 3, each with one entry moved by up to ~3e-11 and moved back in another element
    (completeness holds), it refuses with the direct form's message exactly where that form refuses, and so does the
    stacked check."""
    rng = np.random.default_rng(37)
    seen = set()
    for dim in (2, 3):
        for _ in range(400):
            delta = rng.uniform(0.05, np.pi / 2)
            strat = build_suboptimal_povm(build_ensemble(rng.uniform(0.1, 5) * DEG, delta) if dim == 3
                                          else bb84_ensemble(delta))
            elements = strat.elements.copy()
            e, other = rng.permutation(3)[:2]
            i, j = rng.integers(dim, size=2)
            step = 10.0 ** rng.uniform(-16, -10.5) * rng.choice([0.0, 1.0, 1.0, 1.0])
            step *= 1j if i == j else np.exp(1j * rng.uniform(0, 2 * np.pi))
            elements[e, i, j] += step
            elements[other, i, j] -= step
            message = hermitian_refusal(elements)
            expected = None if message is None else (NonHermitianError, message)
            seen.add(expected is None)
            assert _verdict(attack._check(elements, strat.x)) == expected
            assert _verdict(attack._refusals(elements[None], np.array([strat.x]))[0]) == expected
            if expected is None:
                _with(strat, elements=elements).validate()
    assert seen == {True, False}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dev, passes", [
    (0.0, True), (4e-13, True), (np.nextafter(HERMITIAN_ATOL, 0), True), (HERMITIAN_ATOL, True),
    (np.nextafter(HERMITIAN_ATOL, 1), False), (2e-12, False),
])
def test_validate_hermitian_edges(dim, dev, passes):
    """An exactly complete, Hermitian POVM with M_0[i, j] moved by dev and M_vac[i, j] moved back: it passes within
    HERMITIAN_ATOL and is refused one ulp beyond, as the direct form says, above or below the diagonal or on it."""
    for i, j, step in ((0, 1, dev), (1, 0, dev), (0, 0, 1j * dev / 2), (1, 0, 1j * dev)):
        elements = _boundary_povm(dim)
        elements[0, i, j] += step
        elements[2, i, j] -= step
        assert (hermitian_refusal(elements) is None) is passes
        expected = None if passes else (NonHermitianError, hermitian_refusal(elements))
        assert _verdict(attack._check(elements, 1.0)) == expected
        assert _verdict(attack._refusals(elements[None], np.array([1.0]))[0]) == expected


@pytest.mark.parametrize("dim", [2, 3])
def test_a_nan_in_one_triangle_is_refused_by_validate(dim):
    """validate() passes its elements to the eigenvalue call with the kernel's own checks skipped, which would let a
    NaN above the diagonal through to LAPACK unseen; its completeness check refuses the NaN first, as before."""
    for e, i, j in ((0, 0, 1), (1, 1, 0), (2, 0, 1)):
        elements = _boundary_povm(dim)
        elements[e, i, j] = np.nan
        for refusal in (attack._check(elements, 1.0), attack._refusals(elements[None], np.array([1.0]))[0]):
            assert _verdict(refusal) == (DomainError, "POVM elements do not sum to the identity")
    assert attack._check(_boundary_povm(dim), 1.0) is None


@pytest.mark.parametrize("dim", [2, 3])
def test_a_completeness_residual_is_no_asymmetry(dim):
    """validate()'s one BLAS output holds the completeness residual before the Hermitian deviations: an exactly
    Hermitian POVM whose residual is within _COMPLETENESS_TOL but far above HERMITIAN_ATOL passes, as the direct
    form says, though the sum of squares misses its pass bound and the deviations' max is formed."""
    for residual in (5e-11, -9e-11):
        elements = _boundary_povm(dim)
        elements[2, 0, 0] += residual
        assert hermitian_refusal(elements) is None
        assert attack._check(elements, 1.0) is None
        assert attack._refusals(elements[None], np.array([1.0]))[0] is None


@pytest.mark.parametrize("dim", [2, 3])
def test_validate_completeness_edges(dim):
    """An exactly Hermitian POVM with M_vac[0, 0] nudged: the residual 0.5 + M_vac[0, 0] - 1 that validate()'s map
    computes is exact, on a grid of 2^-52 above 1 and 2^-53 below it. On each side the largest residual within
    _COMPLETENESS_TOL passes and the next one, one step beyond, is refused, by _check and by the stacked check."""
    check_map, offset = attack._CHECK_MAPS[dim]
    tol = attack._COMPLETENESS_TOL
    for step in (2.0**-52, -(2.0**-53)):
        at_bound = math.floor(tol / abs(step)) * step
        for residual, passes in ((at_bound, True), (at_bound + step, False)):
            elements = _boundary_povm(dim)
            elements[2, 0, 0] += residual
            assert (np.dot(elements.reshape(-1).view(float), check_map) - offset)[0] == residual
            assert (abs(residual) <= tol) is passes
            expected = None if passes else (DomainError, "POVM elements do not sum to the identity")
            assert _verdict(attack._check(elements, 1.0)) == expected
            assert _verdict(attack._refusals(elements[None], np.array([1.0]))[0]) == expected


def test_the_stacked_eigenvalue_call_sees_only_checked_povms(monkeypatch):
    """The eigenvalue call that makes no entry checks gets only finite, Hermitian stacks from _refusals. Built POVMs
    of dim 3 and 2 mixed with one raw POVM each time: a NaN above the diagonal (LAPACK would not read it), +inf in
    M_0 and -inf in M_vac at one lower entry (their sum is NaN), or an asymmetry of 1e-11 that keeps completeness.
    Each is judged as _check judges it, the built ones pass, and numpy gives no warning. (_check alone meets the
    infinite entry's inf * 0 in its map, which numpy flags; validate() never does, since a PovmStrategy refuses an
    infinite entry.)"""
    def guarded_eigvalsh(a):
        assert np.isfinite(a).all() and hermitian_refusal(a) is None
        return hermitian_eigvalsh(a)

    monkeypatch.setattr(attack, "hermitian_eigvalsh", guarded_eigvalsh)
    for built in ([build_suboptimal_povm(build_ensemble(e * DEG, d)) for e, d in ((1.0, np.pi / 2), (0.3, 0.5),
                                                                                  (-2.0, 1.1))],
                  [build_phase_remapping_povm(d) for d in (np.pi / 4, 0.2, np.pi / 2)]):
        clean = built[0].elements
        nan, inf, asymmetric = clean.copy(), clean.copy(), clean.copy()
        nan[0, 0, 1] = np.nan
        inf[0, 1, 0], inf[2, 1, 0] = np.inf, -np.inf
        asymmetric[0, 0, 1] += 1e-11
        asymmetric[2, 0, 1] -= 1e-11
        for raw, refusal in ((nan, DomainError), (inf, DomainError), (asymmetric, NonHermitianError)):
            elements = np.array([built[0].elements, raw, built[1].elements, built[2].elements])
            x = np.array([built[0].x, built[0].x, built[1].x, built[2].x])
            with np.errstate(invalid="ignore"):
                expected = [_verdict(attack._check(el, x_k)) for el, x_k in zip(elements, x)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdicts = [_verdict(r) for r in attack._refusals(elements, x)]
            assert verdicts == expected
            assert verdicts[0] is verdicts[2] is verdicts[3] is None and verdicts[1][0] is refusal


def _verdicts_on_both_paths(monkeypatch, elements, x):
    """Each POVM's verdict from _check one by one and from _refusals stacked, with the pivot certificate on, then
    with it certifying nothing (the eigenvalue path): four lists, in that order."""
    def verdicts():
        return ([_verdict(attack._check(el, x_k)) for el, x_k in zip(elements, x.tolist())],
                [_verdict(refusal) for refusal in attack._refusals(elements, x)])

    on = verdicts()
    with monkeypatch.context() as patched:
        patched.setattr(attack, "_certified", certify_nothing)
        return (*on, *verdicts())


def _certified_cells(elements, x):
    """The pivot certificate over a stack, as _refusals runs it: a bool per POVM."""
    with np.errstate(all="ignore"):
        return attack._certified(elements.reshape(len(elements), -1).view(float).T, x)


def _domain_block(rng, n, dim):
    """n seeded built POVMs of one dim: |epsilon| <= 5 deg, delta log-uniform in [1e-12, pi/2]."""
    epsilon = rng.uniform(-5, 5, n) * DEG if dim == 3 else np.zeros(n)
    povms = build_suboptimal_povm(EnsembleBlock(epsilon, np.exp(rng.uniform(np.log(1e-12), np.log(np.pi / 2), n)), dim))
    assert povms.refusals == [None] * n
    return povms.elements, povms.x


def test_certified_verdicts_equal_the_eigenvalue_verdicts_on_built_povms(monkeypatch):
    """The 40x50 grid, its remap line and a seeded domain draw of both dims, delta down to 1e-12: every POVM passes,
    point by point and stacked, with the pivot certificate and on the eigenvalue path alike, and the certificate
    passes every one of them (so none takes an eigenvalue call)."""
    deltas = np.linspace(0.1, np.pi / 2, 50)
    grid = EnsembleBlock(*[a.ravel() for a in np.meshgrid(np.linspace(0.05, 1.0, 40) * DEG, deltas)], 3)
    built = [build_suboptimal_povm(block) for block in (grid, EnsembleBlock(np.zeros(50), deltas, 2))]
    rng = np.random.default_rng(41)
    for elements, x in [(p.elements, p.x) for p in built] + [_domain_block(rng, 1000, dim) for dim in (3, 2)]:
        verdicts = _verdicts_on_both_paths(monkeypatch, elements, x)
        assert all(v == [None] * len(x) for v in verdicts)
        assert _certified_cells(elements, x).all()


def _moved_eigenvalue(elements, k, target):
    """A built POVM with one least eigenvalue moved to target, complete again: M_0 or M_3 (k = 0, 1) through its
    eigen-decomposition, then M_vac = I - M_0 - M_3; M_vac (k = 2, least eigenvalue 0 as built) by scaling M_0 and M_3
    by 1 - target."""
    m_0, m_3, _ = elements
    if k == 2:
        m_0, m_3 = (1 - target) * m_0, (1 - target) * m_3
    else:
        w, v = hermitian_eig(elements[k])
        w[0] = target
        moved = (v * w) @ v.conj().T
        m_0, m_3 = (moved, m_3) if k == 0 else (m_0, moved)
    return np.array([m_0, m_3, np.eye(len(m_0)) - m_0 - m_3])


def test_certified_verdicts_equal_the_eigenvalue_verdicts_at_each_threshold(monkeypatch):
    """Seeded built POVMs of both dims with one least eigenvalue moved to a few ulps and up to 1e-11 on either side of
    -_PSD_TOL (M_0, M_3 or M_vac) or of _VAC_BOUNDARY_MAX (M_vac): each verdict, type and message, point by point and
    stacked, equals the eigenvalue path's. Some of them the certificate passes, some that pass it leaves to the
    eigenvalues (within its margin), and some are refused."""
    tol, vac_max = attack._PSD_TOL, attack._VAC_BOUNDARY_MAX
    offsets = [0.0, 1e-17, 1e-16, 4e-16, 1e-15, 1e-14, 1e-13, 5e-13, 9e-13, 1e-12, 1.1e-12, 2e-12, 1e-11]
    offsets = sorted({sign * o for o in offsets for sign in (1, -1)})
    rng = np.random.default_rng(43)
    kinds = set()
    for dim in (3, 2):
        base, _ = _domain_block(rng, 6, dim)
        for built in base:
            near_tol = [-tol + o for o in offsets] + [np.nextafter(-tol, s) for s in (-1, 1)]
            cases = [(k, t) for k in (0, 1, 2) for t in near_tol]
            cases += [(2, vac_max + o) for o in offsets] + [(2, np.nextafter(vac_max, s)) for s in (-1, 1)]
            cases += [(k, t + rng.uniform(-3e-12, 3e-12)) for k, t in cases[::5]]
            elements = np.array([_moved_eigenvalue(built, k, t) for k, t in cases])
            x = np.ones(len(cases))
            point_on, stacked_on, point_off, stacked_off = _verdicts_on_both_paths(monkeypatch, elements, x)
            assert point_on == stacked_on == point_off == stacked_off
            for certified, verdict in zip(_certified_cells(elements, x).tolist(), point_off):
                assert not (certified and verdict is not None)
                kinds.add("certified" if certified else "eigenvalues: " + ("pass" if verdict is None else "refused"))
    assert kinds == {"certified", "eigenvalues: pass", "eigenvalues: refused"}


@pytest.mark.parametrize("dim", [2, 3])
def test_certified_verdicts_equal_the_eigenvalue_verdicts_at_the_edges(monkeypatch, dim):
    """Entries near _ELEMENT_MAX (pivots that overflow), a zero pivot (a ZeroDivisionError among floats, inf or NaN
    in a stack) in each factorization, x of NaN, 0 and -0.0, and NaN entries: each verdict, type and message, point
    by point and stacked, equals the eigenvalue path's, with built POVMs in the same stacks. None of them is
    certified but the built ones."""
    built = build_suboptimal_povm(build_ensemble(1 * DEG, np.pi / 2) if dim == 3 else bb84_ensemble(np.pi / 4))
    edges = []
    for big in (0.9 * attack._ELEMENT_MAX, 1e150, 1e100):  # +big in M_0[1, 0] and M_0[0, 1], -big in M_vac's
        elements = _boundary_povm(dim)
        elements[0, 1, 0] = elements[0, 0, 1] = big
        elements[2, 1, 0] = elements[2, 0, 1] = -big
        edges.append((elements, 1.0))
    # a zero pivot: the first of M_0's and of M_vac's, the second of M_3's, and the first of M_vac's witness
    for m_0, m_3, m_vac in ((-attack._PASS_SHIFT, 0.0, 0.0), (0.0, -attack._PASS_SHIFT, 0.0),
                            (0.0, 0.0, -attack._PASS_SHIFT), (0.0, 0.0, -attack._WITNESS_SHIFT)):
        edges.append((_diagonal_povm(dim, m_0, m_3, m_vac), 1.0))
    edges += [(built.elements, x) for x in (np.nan, 0.0, -0.0)]
    nan = built.elements.copy()
    nan[1, 1, 0] = np.nan
    for stack in (edges, edges + [(nan, built.x)]):
        elements = np.array([built.elements] + [el for el, _ in stack] + [built.elements])
        x = np.array([built.x] + [x for _, x in stack] + [built.x])
        verdicts = _verdicts_on_both_paths(monkeypatch, elements, x)
        assert verdicts[0] == verdicts[1] == verdicts[2] == verdicts[3]
        assert verdicts[0][0] is verdicts[0][-1] is None
        pointwise = [attack._certified(el.ravel().view(float).tolist(), x_k) for el, x_k in zip(elements, x.tolist())]
        assert _certified_cells(elements, x).tolist() == pointwise == [True] + [False] * len(stack) + [True]


def test_the_grid_and_the_readme_sweep_take_no_eigenvalues(monkeypatch, tmp_path):
    """The 40x50 grid, point by point and as a block, its remap line, and the README QBER sweep through cli.main make
    no eigenvalue call: the pivot certificate passes each of their POVMs. A margin set too tight would send them to
    LAPACK again without failing any verdict."""
    calls = []

    def counting_eigvalsh(a):
        calls.append(np.shape(a))
        return hermitian_eigvalsh(a)

    monkeypatch.setattr(attack, "hermitian_eigvalsh", counting_eigvalsh)
    epsilon, deltas = np.linspace(0.05, 1.0, 40) * DEG, np.linspace(0.1, np.pi / 2, 50)
    for e in epsilon:
        for d in deltas:
            build_suboptimal_povm(build_ensemble(e, d))
    for d in deltas:
        build_phase_remapping_povm(d)
    grid = build_suboptimal_povm(EnsembleBlock(*[a.ravel() for a in np.meshgrid(epsilon, deltas)], 3))
    line = build_suboptimal_povm(EnsembleBlock(np.zeros(50), deltas, 2))
    assert grid.refusals == [None] * 2000 and line.refusals == [None] * 50
    argv = ["sweep", "--epsilon-deg", "0.1:1:19", "--delta", "pi/2,pi/4,pi/8", "--out", str(tmp_path / "qber.csv")]
    assert cli.main(argv) == 0
    assert calls == []


def _ordered_refusal(complete, min_eigs, x):
    """validate()'s verdict on one POVM as its checks are ordered, each in turn: the reference for _refusal."""
    if not complete:
        return DomainError("POVM elements do not sum to the identity")
    for label, min_eig in zip(("M_0", "M_3", "M_vac"), min_eigs):
        if not min_eig >= -attack._PSD_TOL:
            return DomainError(f"{label} has negative eigenvalue {min_eig:.3e}")
    if not -attack._PSD_TOL <= min_eigs[2] <= attack._VAC_BOUNDARY_MAX:
        return DomainError(f"M_vac minimal eigenvalue {min_eigs[2]:.3e} is off the positivity boundary")
    if not x > 0:
        return DomainError(f"scale factor x must be positive, got {x!r}")
    return None


def _diagonal_povm(dim, m_0, m_3, m_vac):
    """A complete, diagonal POVM whose elements' minimal eigenvalues are m_0, m_3 and m_vac (each small)."""
    diagonals = np.array([[m_0, 0.5, 0.5], [1.0 - m_0 - m_vac, m_3, 0.25], [m_vac, 0.5 - m_3, 0.25]])[:, :dim]
    return np.stack([np.diag(d).astype(complex) for d in diagonals])


@pytest.mark.parametrize("dim", [2, 3])
def test_refusal_edges_match_the_ordered_checks(dim):
    """The pass path of _refusal gives the ordered checks' verdict, type and message, at each edge: M_0 or M_3 at
    -_PSD_TOL and one ulp below it, M_vac at -_PSD_TOL and _VAC_BOUNDARY_MAX and one ulp beyond each, and x of 0.0,
    -0.0 and NaN; so do validate()'s check and the stacked one, on POVMs with those minimal eigenvalues."""
    tol, vac_max = attack._PSD_TOL, attack._VAC_BOUNDARY_MAX
    below, above = np.nextafter(-tol, -1.0), np.nextafter(vac_max, 1.0)
    cases = [(m, 0.0, 0.0, 1.0) for m in (-tol, below)] + [(0.0, m, 0.0, 1.0) for m in (-tol, below)]
    cases += [(0.0, 0.0, m, 1.0) for m in (-tol, below, vac_max, above)]
    cases += [(0.0, 0.0, 0.0, x) for x in (0.0, -0.0, np.nan, 1e-300)]
    cases += [(below, below, above, np.nan), (0.0, 0.0, 0.0, 1.0)]
    passed = 0
    for m_0, m_3, m_vac, x in cases:
        min_eigs = [float(m_0), float(m_3), float(m_vac)]
        expected = _verdict(_ordered_refusal(True, min_eigs, x))
        passed += expected is None
        assert _verdict(attack._refusal(min_eigs, x)) == expected
        elements = _diagonal_povm(dim, m_0, m_3, m_vac)
        assert hermitian_eigvalsh(elements)[:, 0].tolist() == min_eigs  # the edge itself reaches _refusal
        assert _verdict(attack._check(elements, x)) == expected
        assert _verdict(attack._refusals(elements[None], np.array([x]))[0]) == expected
    assert passed == 6


def test_a_nan_minimum_is_refused_as_no_convergence():
    """A NaN among the minimal eigenvalues fails the ordered checks, whatever x is: _refusal gives their verdict, the
    first NaN element's negative eigenvalue. A failed LAPACK call raises NoConvergenceError in the eigenvalue call
    itself, so no NaN minimum is named apart from the ordered checks."""
    nan = float("nan")
    for min_eigs in ([nan, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, nan], [nan] * 3):
        label = ("M_0", "M_3", "M_vac")[[math.isnan(m) for m in min_eigs].index(True)]
        for x in (1.0, nan):
            expected = _verdict(_ordered_refusal(True, min_eigs, x))
            assert expected == (DomainError, f"{label} has negative eigenvalue nan")
            assert _verdict(attack._refusal(min_eigs, x)) == expected


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


def _reference_map_back(ens):
    """map_back, the reference, from the cached pencil's y_w of ens."""
    return map_back(attack._pencil(ens.dim, ens.delta)[0], ens.dim, ens.epsilon, ens.delta)


def test_map_back_forms_match_the_reference_map_back():
    """The cached per-delta forms give each point's elements within 1e-15 absolutely, and x within 1e-15 relatively,
    of the reference map back (y_delta E, its Gram matrix by matmul and the outer products of its rows). The draw has
    both kinds, epsilon of either sign from 1e-6 rad to 5 deg and delta down to 1e-8. At the underflow edge of x,
    where |sc| delta^2 (pfm) or delta (remap) is near 1e-154, a point is refused exactly when the reference's x is
    below the smallest normal double, with the type and message the reference's x gives."""
    rng = np.random.default_rng(27)
    eps, delta = _reals(rng, 1500, 1e-6, 1e-8)
    points = [build_ensemble(e, d) if k % 3 else bb84_ensemble(d) for k, (e, d) in enumerate(zip(eps, delta))]
    for ens in points:
        strat = build_suboptimal_povm(ens)
        elements, x = _reference_map_back(ens)
        assert np.abs(strat.elements - elements).max() <= 1e-15, ens
        assert abs(strat.x / x - 1) <= 1e-15, ens
    edge = np.exp(rng.uniform(math.log(1e-154), math.log(3e-154), 400)).tolist()
    points = [bb84_ensemble(t) for t in edge[:200]]
    points += [build_ensemble(e, math.sqrt(t / abs(math.sin(4 * e) / 2))) for e, t in zip(eps, edge[200:])]
    refused = 0
    for ens in points:
        _, x = _reference_map_back(ens)
        if x >= np.finfo(float).tiny:
            assert abs(build_suboptimal_povm(ens).x / x - 1) <= 1e-15, ens
            continue
        refused += 1
        with pytest.raises(DegenerateSpanError) as info:
            build_suboptimal_povm(ens)
        assert type(info.value) is DegenerateSpanError and str(info.value) == str(attack._underflow(x))
    assert 50 <= refused <= 350  # both sides of the edge


def test_tiny_delta_elements_annihilate_the_common_direction():
    """As delta -> 0 the states meet in the direction (0, 1, 1). Below delta ~1e-10 the cached forms give M_0 and M_3
    whose (1, 2) block sends (1, 1) to exactly 0, as |y_hat><y_hat| does when y_hat_1 = -y_hat_2: each entry of the
    block is one product of two coordinates of v, so no rounding noise (~1e-19 in an outcome table) is left for
    the oracle to draw at 2**63 - 1 trials."""
    rng = np.random.default_rng(28)
    eps, _ = _reals(rng, 300, 1e-6, 1.0)
    delta = np.exp(rng.uniform(math.log(1e-150), math.log(1e-10), 300)).tolist()
    answered = 0
    for e, d in zip(eps, delta):
        try:
            strat = build_suboptimal_povm(build_ensemble(e, d))
        except DegenerateSpanError:
            continue
        answered += 1
        assert not np.any(strat.elements[:2, 1:, 1:].sum(axis=2)), (e, d)
    assert answered >= 100


def test_tiny_delta_underflow_is_refused(monkeypatch):
    """The same named refusal down to the smallest subnormal delta, for both kinds, cold and cached. In the block
    form, a block of those deltas alone and one that mixes them with normal cells, each cell's refusal is its
    point's, and an underflowed cell is refused before validate()'s checks: it takes no _check and no eigenvalue
    call, with the pivot certificate on or off, where each normal cell takes one of each with it off."""
    deltas = (1e-160, 1e-310, 5e-324)
    attack._pencil.cache_clear()
    for _ in range(2):
        for delta in deltas:
            with pytest.raises(DegenerateSpanError, match="underflow"):
                build_suboptimal_povm(build_ensemble(1 * DEG, delta))
            with pytest.raises(DegenerateSpanError, match="underflow"):
                build_phase_remapping_povm(delta)
    assert attack._pencil.cache_info()[:2] == (6, 6)  # (hits, misses)

    tiny = [build_ensemble(1 * DEG, d) for d in deltas] + [bb84_ensemble(d) for d in deltas]
    mixed = [build_ensemble(1 * DEG, d) for d in (1e-160, 0.5, 5e-324, np.pi / 2)] + [
        bb84_ensemble(d) for d in (np.pi / 4, 1e-310, 0.2)]
    blocks = [(points, [_point_outcome(ens) for ens in points]) for points in (tiny, mixed)]
    assert all(cell[0] is DegenerateSpanError for cell in blocks[0][1])
    normal = [cell[3] for cell in blocks[1][1] if not isinstance(cell[0], type)]  # each answered cell's elements
    assert len(normal) == 4
    check, calls, checked = attack._check, [], []

    def counting_eigvalsh(a):
        calls.append(np.shape(a))
        return hermitian_eigvalsh(a)

    def counting_check(el, x):
        checked.append(el.tobytes())
        return check(el, x)

    monkeypatch.setattr(attack, "hermitian_eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(attack, "_check", counting_check)
    for certified in (_CERTIFIED, certify_nothing):
        monkeypatch.setattr(attack, "_certified", certified)
        for points, singles in blocks:
            calls.clear()
            checked.clear()
            assert _block_outcomes(points) == singles
            if points is tiny or certified is _CERTIFIED:
                assert calls == [] and checked == []
            else:  # the normal cells alone, in order: two of dim 3, then two of dim 2
                assert checked == normal and calls == [(3, 3, 3)] * 2 + [(3, 2, 2)] * 2


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
    """Every array of an entry is read-only and owns its data; the entry's objects take at most 4 kB."""
    for dim in (2, 3):
        y_w, basis, forms, lambdas = attack._pencil(dim, np.pi / 4)
        assert isinstance(lambdas, tuple)
        assert basis.shape == (len(forms) + 1, 2 * 3 * dim * dim) and forms.shape == (len(forms), 4)
        for cached in (y_w, basis, forms):
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0
            assert cached.base is None  # so sys.getsizeof counts its data
        entry = (y_w, basis, forms, lambdas)
        assert sum(sys.getsizeof(a) for a in (*entry, *lambdas, entry)) <= 4096


def test_refused_points_do_not_reach_the_cache():
    """epsilon = 0 and delta = 0 are refused, with their own types and messages, before any cache lookup."""
    attack._pencil.cache_clear()
    singular = "epsilon = 0 is a singular point: the attack states span at most two dimensions"
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
    """The pencil cache holds its last _PENCIL_CACHE_SIZE deltas; the epsilon cache takes the same bound."""
    maxsize = attack._pencil.cache_info().maxsize
    assert maxsize == attack._PENCIL_CACHE_SIZE == attack._monomials.cache_info().maxsize
    for delta in np.linspace(0.01, np.pi / 2, maxsize + 10):
        build_phase_remapping_povm(delta)
    assert attack._pencil.cache_info().currsize == maxsize


def _monomial_bits(entry):
    """The bytes of a _monomials entry (mu, row, sc): equal exactly when every value has the same bits."""
    mu, row, sc = entry
    return np.array(mu).tobytes(), row.tobytes(), np.float64(sc).tobytes()


def test_cached_monomials_are_immutable():
    """An epsilon's cache entry is a tuple of floats, a read-only array that owns its data, and a float."""
    mu, row, sc = attack._monomials(1 * DEG)
    assert isinstance(mu, tuple) and all(type(m) is float for m in mu) and type(sc) is float
    assert row.dtype == np.float64 and row.shape == (6,) and row.base is None
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_cached_monomials_equal_a_fresh_computation():
    """Over both signs and |epsilon| from 1e-300 rad to EPSILON_MAX, each entry read back from a filled cache equals
    the uncached computation at the same epsilon, bit for bit: no key stands for a value of other bits."""
    rng = np.random.default_rng(44)
    magnitude = np.exp(rng.uniform(math.log(1e-300), math.log(EPSILON_MAX), 500))
    eps = (rng.choice([-1.0, 1.0], 500) * magnitude).tolist() + [EPSILON_MAX, -EPSILON_MAX, 1e-300, -1e-300]
    attack._monomials.cache_clear()
    for e in eps:
        attack._monomials(e)
    for e in eps:
        assert _monomial_bits(attack._monomials(e)) == _monomial_bits(attack._monomials.__wrapped__(e)), e
    assert attack._monomials.cache_info().hits == len(eps)


def test_point_rebuilt_after_its_monomials_were_evicted_is_bit_identical():
    """A point built again once more than _PENCIL_CACHE_SIZE other epsilons have evicted its entry equals its
    first build, bit for bit."""
    ens = build_ensemble(0.37 * DEG, 0.8)
    first = _point_outcome(ens)
    for e in np.linspace(0.5, 1.0, attack._PENCIL_CACHE_SIZE + 1) * DEG:
        build_suboptimal_povm(build_ensemble(e, 0.8))
    misses = attack._monomials.cache_info().misses
    assert _point_outcome(ens) == first
    assert attack._monomials.cache_info().misses == misses + 1  # its entry was gone


def test_signed_zero_epsilon_is_refused_before_the_monomial_cache():
    """epsilon = 0.0 and -0.0, which a value-keyed cache would merge, are refused at dim 3 before any lookup, by the
    point body and the block body alike: the cache's currsize, hits and misses do not change."""
    before = attack._monomials.cache_info()
    for eps in (0.0, -0.0):
        with pytest.raises(SingularEpsilonError):
            build_suboptimal_povm(AttackEnsemble(eps, np.pi / 2, 3))
    povms = build_suboptimal_povm(EnsembleBlock([0.0, -0.0], [np.pi / 2, 0.5], 3))
    assert [type(refusal) for refusal in povms.refusals] == [SingularEpsilonError] * 2
    assert attack._monomials.cache_info() == before  # no lookup: hits, misses and currsize unchanged


def _point_outcome(ens):
    """What a point's own build came to: (type, message) of its refusal, or (x, lambda_0, lambda_3, elements bytes)."""
    try:
        strat = build_suboptimal_povm(ens)
    except PfmAttackError as exc:
        return type(exc), str(exc)
    return strat.x, strat.lambda_0, strat.lambda_3, strat.elements.tobytes()


def _block_outcomes(points):
    """What each point came to in one block-form build per dim, in input order, in _point_outcome's terms."""
    outcomes = [None] * len(points)
    for dim in (3, 2):
        index = [k for k, ens in enumerate(points) if ens.dim == dim]
        povms = build_suboptimal_povm(EnsembleBlock([points[k].epsilon for k in index],
                                                    [points[k].delta for k in index], dim))
        rows = zip(povms.x.tolist(), povms.lambda_0.tolist(), povms.lambda_3.tolist(), povms.elements)
        for k, refusal in zip(index, povms.refusals):
            if refusal is None:
                x, lambda_0, lambda_3, elements = next(rows)
                outcomes[k] = x, lambda_0, lambda_3, elements.tobytes()
            else:
                outcomes[k] = type(refusal), str(refusal)
        assert next(rows, None) is None
    return outcomes


def test_sequence_form_equals_the_point_form_cell_by_cell():
    """A seeded grid of both kinds, the pfm block longer than a sweep block, with refused cells mixed in: the
    block form gives each cell exactly its own call's strategy, bit for bit (x, the lambdas and every element), or its
    refusal, with the same type and message, in the same position. An empty block gives an empty PovmBlock."""
    rng = np.random.default_rng(22)
    n = cli.SWEEP_BLOCK + 150
    eps, delta = _reals(rng, n, 1e-6, 1e-8)
    refused = {0: (0.0, 1.0), 1: (0.01, 0.0), 2: (0.01, 1e-200), 3: (1e-310, np.pi / 2)}  # position: (epsilon, delta)
    for k, (e, d) in refused.items():
        for offset in (0, cli.SWEEP_BLOCK - 3, n - 5):  # at both ends and across the block boundary, on both kinds
            eps[k + offset], delta[k + offset] = e, d
    points = [build_ensemble(e, d) if k % 3 else bb84_ensemble(d) for k, (e, d) in enumerate(zip(eps, delta))]
    assert sum(ens.dim == 3 for ens in points) > cli.SWEEP_BLOCK
    outcomes = _block_outcomes(points)
    kinds = set()
    for k, (ens, outcome) in enumerate(zip(points, outcomes)):
        alone = _point_outcome(ens)
        assert outcome == alone, (k, ens)
        kinds.add((ens.dim, alone[0].__name__ if isinstance(alone[0], type) else "PovmStrategy"))
    assert {(3, "PovmStrategy"), (2, "PovmStrategy"), (3, "SingularEpsilonError"), (3, "DegenerateSpanError"),
            (2, "DegenerateSpanError")} <= kinds
    empty = build_suboptimal_povm(EnsembleBlock([], [], 3))
    assert empty.refusals == [] and len(empty.ensembles) == 0
    assert empty.elements.shape == (0, 3, 3, 3) and empty.x.shape == empty.lambda_0.shape == empty.lambda_3.shape == (0,)


def test_a_block_build_is_each_cells_own_call():
    """The block form over a seeded grid of either dim, with cells outside the domain, at epsilon = 0, delta = 0 and
    the underflow edge mixed in: the PovmBlock's rows are the answered cells' own strategies, bit for bit, in order,
    and every other cell holds the refusal its own AttackEnsemble or build raises, with its type and message."""
    rng = np.random.default_rng(38)
    eps, delta = _reals(rng, 300, 1e-6, 1e-8)
    eps += [0.0, 0.2, -0.2, np.nan, 1 * DEG, 1 * DEG, 1 * DEG, 1e-300]
    delta += [0.5, 0.5, 0.5, 0.5, 0.0, 2.0, 1e-200, 0.5]
    for dim, epsilon in ((3, eps), (2, [0.0 if k % 4 else e for k, e in enumerate(eps)])):
        povms = build_suboptimal_povm(EnsembleBlock(epsilon, delta, dim))
        assert len(povms.refusals) == len(delta) and len(povms.ensembles) == len(povms.x)
        rows = iter(range(len(povms.x)))
        for e, d, refusal in zip(epsilon, delta, povms.refusals):
            try:
                own = build_suboptimal_povm(AttackEnsemble(e, d, dim))
            except PfmAttackError as exc:
                assert (type(refusal), str(refusal)) == (type(exc), str(exc)), (e, d)
                continue
            assert refusal is None, (e, d)
            j = next(rows)
            assert (povms.ensembles.epsilon[j], povms.ensembles.delta[j]) == (e, d)
            assert povms.elements[j].tobytes() == own.elements.tobytes()
            assert [povms.x[j], povms.lambda_0[j], povms.lambda_3[j]] == [own.x, own.lambda_0, own.lambda_3]
        assert next(rows, None) is None and 4 <= povms.refusals.count(None) < len(delta) - 4
        for array in (povms.elements, povms.x, povms.lambda_0, povms.lambda_3):
            assert not array.flags.writeable


def test_a_block_of_repeated_epsilons_is_each_cells_own_call():
    """A dim-3 block whose epsilons repeat, bit for bit, over many deltas, interleaved, with refused cells between
    them (epsilon +-0, beyond EPSILON_MAX, delta 0, the underflow of x): the PovmBlock's arrays and the block's states
    are each cell's own build and AttackEnsemble.states, bit for bit, though the block forms each distinct epsilon's
    scalars once. At +-0.0 the block's states keep each zero's own sign, which a lookup keyed on the value would
    merge."""
    rng = np.random.default_rng(42)
    repeated = rng.uniform(-EPSILON_MAX, EPSILON_MAX, 5).tolist()
    deltas = np.exp(rng.uniform(math.log(1e-6), math.log(np.pi / 2), 12)).tolist()
    epsilon = [repeated[(3 * k) % 5] for k in range(60)]  # each epsilon comes back every fifth cell
    delta = [deltas[k % 12] for k in range(60)]
    for k, (e, d) in zip((3, 11, 12, 30, 47, 59), ((0.0, 0.5), (-0.0, 0.5), (1.0, 0.5), (repeated[0], 0.0),
                                                  (repeated[1], 1e-200), (2 * EPSILON_MAX, 0.5))):
        epsilon[k], delta[k] = e, d
    block = EnsembleBlock(epsilon, delta, 3)
    povms = build_suboptimal_povm(block)
    answered = [r for r, refusal in enumerate(povms.refusals) if refusal is None]
    assert len(answered) == 54
    for j, r in enumerate(answered):
        own = build_suboptimal_povm(build_ensemble(epsilon[r], delta[r]))
        assert povms.elements[j].tobytes() == own.elements.tobytes(), r
        assert [povms.x[j], povms.lambda_0[j], povms.lambda_3[j]] == [own.x, own.lambda_0, own.lambda_3], r
    for r, refusal in enumerate(povms.refusals):
        if refusal is not None:
            with pytest.raises(type(refusal), match=f"^{re.escape(str(refusal))}$"):
                build_suboptimal_povm(AttackEnsemble(epsilon[r], delta[r], 3))
    in_domain = [r for r, refusal in enumerate(block.refusals) if refusal is None]
    for r, states in zip(in_domain, block.states(in_domain)):
        assert states.tobytes() == AttackEnsemble(epsilon[r], delta[r], 3).states.tobytes(), r
    signed = EnsembleBlock([0.0, -0.0], [1, 1], 3).states([0, 1])
    assert [states.tobytes() for states in signed] == [AttackEnsemble(e, 1, 3).states.tobytes() for e in (0.0, -0.0)]
    assert signed[0].tobytes() != signed[1].tobytes()


def test_sweep_block_figures_equal_evaluate_bit_for_bit():
    """The sweep forms a block's figures as arrays (cli._block_values) from the PovmBlock's columns: each row equals
    its cell's own build and evaluate, bit for bit (a ulp bound of 0). The grid is a seeded draw of both kinds with delta down to 1e-8, plus points at the
    underflow edge of x, where p_succ = x/2 is subnormal and the array log10 of the fiber length must not drift."""
    rng = np.random.default_rng(26)
    eps, delta = _reals(rng, 600, 1e-6, 1e-8)
    points = [build_ensemble(e, d) if k % 3 else bb84_ensemble(d) for k, (e, d) in enumerate(zip(eps, delta))]
    # |sc| delta^2 (pfm) or delta (remap) log-uniform from just below the refused edge to ~3x above it
    edge = np.exp(rng.uniform(math.log(1.4e-154), math.log(4e-154), 400)).tolist()
    points += [bb84_ensemble(t) for t in edge[:200]]
    points += [build_ensemble(e, math.sqrt(t / abs(math.sin(4 * e) / 2))) for e, t in zip(eps, edge[200:])]
    blocks, answered = [], []
    for dim in (3, 2):
        cells = [ens for ens in points if ens.dim == dim]
        povms = build_suboptimal_povm(EnsembleBlock([ens.epsilon for ens in cells], [ens.delta for ens in cells], dim))
        blocks.append(povms)
        answered += [ens for ens, refusal in zip(cells, povms.refusals) if refusal is None]
    epsilon_deg = rng.uniform(-5, 5, len(answered)).tolist()
    columns = [np.concatenate(arrays) for arrays in zip(*[(b.ensembles.delta, b.lambda_0, b.lambda_3, b.x)
                                                            for b in blocks])]
    values = cli._block_values(epsilon_deg, *columns)
    expected = []
    for e, ens in zip(epsilon_deg, answered):
        r = evaluate(ens, build_suboptimal_povm(ens))
        expected.append((e, r.delta, r.qber, r.p_succ, r.lambda_0, r.lambda_3, r.x, r.max_fiber_km))
    assert values.tobytes() == np.array(expected).tobytes()
    p_succ = values[:, 3]
    assert len(answered) > 900 and (p_succ < np.finfo(float).tiny).sum() >= 50 and p_succ.min() > 0


def test_fiber_length_of_an_array_is_each_elements_own():
    """max_fiber_length_km over an array gives each element's scalar value, bit for bit, including inf at p = 0.

    The scalar refuses an element outside [0, 1]; the array maps it unchecked, as it always has: inf at p < 0, nan
    for nan, -inf at inf and a negative length above 1.
    """
    tiny = np.finfo(float).tiny
    p_succ = np.concatenate([
        [0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, tiny / 3, tiny, 0.5, 1.0, 2.0],
        np.exp(np.random.default_rng(5).uniform(math.log(tiny / 4), 0.0, 2000)),
    ])
    with np.errstate(all="raise"):
        array = max_fiber_length_km(p_succ)
    checked = (p_succ >= 0.0) & (p_succ <= 1.0)
    scalar = [max_fiber_length_km(p) for p in p_succ[checked].tolist()]
    assert array[checked].tobytes() == np.array(scalar).tobytes()
    unchecked = [np.inf, np.nan, -np.inf, -10.0 * float(np.log10(2.0)) / attack.FIBER_LOSS_DB_PER_KM]
    assert array[~checked].tobytes() == np.array(unchecked).tobytes()
    for p in p_succ[~checked].tolist():
        with pytest.raises(DomainError, match="p_succ"):
            max_fiber_length_km(p)


@pytest.mark.parametrize("bad", [
    None, "0.5", 0.5 + 0j, True, np.bool_(False), math.nan, np.float32("nan"), -0.1, -5e-324, 1.0000000000000002,
    2.0, math.inf, -math.inf, 2**70, 10**400, Fraction(3, 2),
], ids=lambda bad: repr(bad)[:24])
def test_scalar_fiber_length_refuses_what_is_not_a_probability(bad):
    """A scalar p_succ that is not a real number in [0, 1] is refused by name, not answered with nan, inf or a
    negative length, and not with a bare TypeError from the comparison or from np.log10."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"p_succ must be a real number in \[0, 1\]"):
            max_fiber_length_km(bad)


def test_scalar_fiber_length_takes_any_real_probability():
    """An int, a Fraction or a numpy scalar in [0, 1] is answered as the float of the same value; 0 gives inf."""
    for p_succ, same in ((Fraction(1, 2), 0.5), (np.float32(0.5), 0.5), (np.float64(2.43e-3), 2.43e-3), (1, 1.0),
                         (np.int64(0), 0.0), (-0.0, 0.0)):
        length = max_fiber_length_km(p_succ)
        assert type(length) is float and length == max_fiber_length_km(same), p_succ
    assert max_fiber_length_km(0) == max_fiber_length_km(-0.0) == math.inf


def test_one_bad_povm_never_stops_the_others(monkeypatch):
    """An eigensolver that refuses one POVM of a block refuses only that POVM: each POVM takes its own call.

    The last point's x underflows: it keeps its own refusal, and its elements take no eigenvalue call. That is the
    path of POVMs the pivot certificate does not pass; with it on, no POVM of the block reaches an eigenvalue call,
    and every cell equals its own call's result.
    """
    points = [build_ensemble(e * DEG, d) for e in (0.3, 1.0, 2.0) for d in (0.5, np.pi / 2)]
    points.append(build_ensemble(1 * DEG, 1e-200))
    with pytest.raises(DegenerateSpanError, match="underflows") as underflow:
        build_suboptimal_povm(points[6])
    bad = build_suboptimal_povm(points[3]).elements
    singles = [_point_outcome(ens) for ens in points]
    calls = []

    def refusing_eigvalsh(a, **options):
        calls.append(np.shape(a))
        if any(np.array_equal(m, bad) for m in np.reshape(a, (-1, 3, 3, 3))):
            raise NoConvergenceError("Eigenvalues did not converge")
        return hermitian_eigvalsh(a, **options)

    monkeypatch.setattr(attack, "hermitian_eigvalsh", refusing_eigvalsh)
    monkeypatch.setattr(attack, "_certified", certify_nothing)
    cells = _block_outcomes(points)
    assert calls == [(3, 3, 3)] * 6  # one per built POVM, the refused one's too; none for the underflow point
    assert cells[3] == (NoConvergenceError, "Eigenvalues did not converge")
    assert cells[6] == (DegenerateSpanError, str(underflow.value))
    assert [cells[k] for k in (0, 1, 2, 4, 5)] == [singles[k] for k in (0, 1, 2, 4, 5)]
    monkeypatch.setattr(attack, "_certified", _CERTIFIED)
    calls.clear()
    assert _block_outcomes(points) == singles
    assert calls == []


def test_a_nan_row_refuses_only_its_own_povm(monkeypatch):
    """An eigenvalue call that returns one POVM's eigenvalues all NaN without raising: a block build refuses that POVM
    alone, in its cell, with the refusal its own validate() gives (the ordered checks' negative eigenvalue), and each
    built POVM takes its own (3, d, d) call. Every other cell, of either dim, refused or not, equals its own call's
    result bit for bit. That is the path of POVMs the pivot certificate does not pass; with it on, no POVM reaches
    an eigenvalue call, and every cell, that POVM's too, equals its own call's result."""
    points = [build_ensemble(e * DEG, d) for e in (0.3, 1.0, 2.0) for d in (0.5, np.pi / 2)]
    points += [bb84_ensemble(np.pi / 4), build_ensemble(1 * DEG, 1e-200), bb84_ensemble(0.2), build_ensemble(0.0, 1.0)]
    singles = [_point_outcome(ens) for ens in points]
    bad = build_suboptimal_povm(points[3]).elements
    calls = []

    def nan_eigvalsh(a):
        calls.append(np.shape(a))
        w = hermitian_eigvalsh(a)
        if np.shape(a)[-1] == bad.shape[-1]:
            for k, m in enumerate(np.reshape(a, (-1, *bad.shape))):
                if np.array_equal(m, bad):
                    w.reshape(-1, *w.shape[-2:])[k] = np.nan
        return w

    monkeypatch.setattr(attack, "hermitian_eigvalsh", nan_eigvalsh)
    monkeypatch.setattr(attack, "_certified", certify_nothing)
    with pytest.raises(DomainError, match="^M_0 has negative eigenvalue nan$") as own:
        build_suboptimal_povm(points[3])
    calls.clear()
    cells = _block_outcomes(points)
    assert calls == [(3, 3, 3)] * 6 + [(3, 2, 2)] * 2  # one per built POVM; none for the underflow point
    assert cells[3] == (DomainError, str(own.value))
    assert cells[:3] + cells[4:] == singles[:3] + singles[4:]
    monkeypatch.setattr(attack, "_certified", _CERTIFIED)
    assert _point_outcome(points[3]) == singles[3]
    calls.clear()
    assert _block_outcomes(points) == singles
    assert calls == []


def _validated(strat):
    """What strat.validate() does: None, or the (type, message) of its refusal."""
    try:
        strat.validate()
    except PfmAttackError as exc:
        return type(exc), str(exc)
    return None


def test_stacked_checks_refuse_each_broken_povm_as_validate_does():
    """The real stack, no patched solver: the intact POVM and the broken ones of the validate() tests, each judged
    as its own validate() judges it, in order; with the non-Hermitian one, the stacked Hermitian check refuses
    and the stack is checked POVM by POVM."""
    for strat in (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4)):
        eye = np.eye(strat.dim)
        nan = strat.elements.copy()
        nan[0, 1, 1] = np.nan
        asymmetric = strat.elements.copy()
        asymmetric[0, 0, 1] += 1e-11
        asymmetric[2, 0, 1] -= 1e-11
        stack = [strat, _with(strat, x=0.0), _with(strat, elements=nan)]
        for scale in (0.5, 2.0):
            m_0, m_3 = scale * strat.elements[:2]
            stack.append(_with(strat, elements=np.array((m_0, m_3, eye - m_0 - m_3))))
        for povms in (stack, stack[:2] + [_with(strat, elements=asymmetric)] + stack[2:]):
            refusals = attack._refusals(np.array([p.elements for p in povms]), np.array([p.x for p in povms]))
            verdicts = [None if r is None else (type(r), str(r)) for r in refusals]
            assert verdicts == [_validated(p) for p in povms]
            assert verdicts[0] is None and None not in verdicts[1:]
        assert verdicts[2][0] is NonHermitianError  # a refusal only the POVM-by-POVM fallback gives


def test_stacked_checks_make_one_eigenvalue_call_over_the_whole_stack(monkeypatch):
    """The stacked check makes no eigenvalue call of its own: in a stack of complete POVMs, the x = 0 one among them,
    each POVM the pivot certificate does not pass goes to _check, validate()'s own check, and takes its one (3, d, d)
    call there; an incomplete POVM added to it sends every POVM to _check. Each POVM is judged as its own validate()
    judges it. With the certificate off, every POVM takes one _check and, if complete, one call; with it on, the
    built POVM takes no call, and in the complete stack no _check: the x = 0 one alone takes both."""
    check = attack._check
    for strat in (_report(1.0, np.pi / 2)[2], build_phase_remapping_povm(np.pi / 4)):
        m_0, m_3, m_vac = strat.elements
        complete = [strat, _with(strat, x=0.0)]
        with_incomplete = [strat, _with(strat, elements=np.array((m_0 / 2, m_3 / 2, m_vac))), complete[1]]
        for povms in (complete, with_incomplete):
            expected = [_validated(p) for p in povms]
            elements = np.array([p.elements for p in povms])
            for certified in (certify_nothing, _CERTIFIED):
                calls, checked = [], []

                def counting_eigvalsh(a):
                    calls.append(np.shape(a))
                    return hermitian_eigvalsh(a)

                def counting_check(el, x):
                    checked.append(el.tobytes())
                    return check(el, x)

                monkeypatch.setattr(attack, "hermitian_eigvalsh", counting_eigvalsh)
                monkeypatch.setattr(attack, "_check", counting_check)
                monkeypatch.setattr(attack, "_certified", certified)
                refusals = attack._refusals(elements, np.array([p.x for p in povms]))
                monkeypatch.undo()
                verdicts = [None if r is None else (type(r), str(r)) for r in refusals]
                assert verdicts == expected
                if certified is _CERTIFIED and povms is complete:  # the x = 0 POVM alone, in its own _check
                    assert calls == [(3, strat.dim, strat.dim)] and checked == [complete[1].elements.tobytes()]
                else:  # each POVM in turn; the incomplete one is refused before any eigenvalue call
                    assert checked == [p.elements.tobytes() for p in povms]
                    assert calls == [(3, strat.dim, strat.dim)] * (1 if certified is _CERTIFIED else 2)
                if povms is with_incomplete:
                    assert verdicts[1] == (DomainError, "POVM elements do not sum to the identity")


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


def test_report_fields_are_plain_floats():
    """Every numeric field of a report, and the strategy's x, is exactly a float, not a numpy scalar."""
    _, _, pfm = _report(1.0, np.pi / 2)
    for strat in (pfm, build_phase_remapping_povm(np.pi / 4)):
        report = evaluate(strat.ensemble, strat)
        for field in dataclasses.fields(report):
            assert type(getattr(report, field.name)) is float, field.name
        assert type(strat.x) is float
        assert "np." not in repr(report)
    for p_succ in (0.0, 2.43e-3, 5e-324):
        assert type(max_fiber_length_km(p_succ)) is float


def test_reference_constants():
    assert COLLECTIVE_ATTACK_QBER_LIMIT == 0.11
    assert TWO_WAY_POSTPROCESSING_QBER_LIMIT == 0.20

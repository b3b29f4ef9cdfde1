import numpy as np
import pytest

from pfmattack.attack import (
    COLLECTIVE_ATTACK_QBER_LIMIT,
    INTERCEPT_RESEND_QBER,
    KIND_PFM,
    KIND_REMAP,
    TWO_WAY_POSTPROCESSING_QBER_LIMIT,
    build_phase_remapping_povm,
    build_suboptimal_povm,
    evaluate,
    max_fiber_length_km,
)
from pfmattack.errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DomainError,
    SingularEpsilonError,
)
from pfmattack.numkernel import hermitian_eig
from pfmattack.statespace import bb84_ensemble, build_ensemble, ensemble_from_states

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
    assert strat.kind == KIND_PFM
    # spectrum of the conjugated error operator: {(1 - sqrt2/2)/2, 1/2, (1 + sqrt2/2)/2}
    from pfmattack.numkernel import hermitianize, pinv_sqrt

    ris = pinv_sqrt(ens.rho)
    spectrum = hermitian_eig(hermitianize(ris @ ens.error_ops[0] @ ris)).eigenvalues
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
        total = strat.m_0 + strat.m_3 + strat.m_vac
        assert np.linalg.norm(total - np.eye(3)) <= 1e-10
        for op in strat.operators.values():
            assert hermitian_eig(op).eigenvalues[0] >= -1e-9
        assert strat.x > 0


def test_vacuum_element_sits_on_positivity_boundary():
    from pfmattack.numkernel import is_psd

    _, _, strat = _report(1.0, np.pi / 2)
    vac_min = hermitian_eig(strat.m_vac).eigenvalues[0]
    assert is_psd(strat.m_vac, tol=1e-9)
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
    """Multiplying each state by its own unit phase leaves the report unchanged."""
    rng = np.random.default_rng(17)
    ens = build_ensemble(1 * DEG, np.pi / 3)
    base = evaluate(ens, build_suboptimal_povm(ens))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    rotated = ensemble_from_states(ens.states * phases[:, None], ens.epsilon, ens.delta)
    report = evaluate(rotated, build_suboptimal_povm(rotated))
    assert abs(report.qber - base.qber) <= 1e-12
    assert abs(report.p_succ - base.p_succ) <= 1e-12


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
    with pytest.raises(DegenerateSpanError):
        build_suboptimal_povm(build_ensemble(1 * DEG, 0.0))


def test_remapping_anchor_quarter_pi():
    strat = build_phase_remapping_povm(np.pi / 4)
    assert strat.kind == KIND_REMAP
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
    with pytest.raises(DomainError):
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
    _, _, strat = _report(1.0, np.pi / 2)
    assert strat.resend == {"M_0": 0, "M_3": 3, "M_vac": None}
    assert set(strat.operators) == {"M_0", "M_3", "M_vac"}


def test_fiber_length_mapping():
    assert abs(max_fiber_length_km(2.43e-3) - 124.0) <= 2.0
    assert abs(max_fiber_length_km(1.017e-3) - 142.5) <= 2.0
    assert max_fiber_length_km(0.0) == float("inf")


def test_reference_constants():
    assert INTERCEPT_RESEND_QBER == 0.25
    assert COLLECTIVE_ATTACK_QBER_LIMIT == 0.11
    assert TWO_WAY_POSTPROCESSING_QBER_LIMIT == 0.20

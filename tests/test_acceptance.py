"""Acceptance suite. One test per criterion; each prints one PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they execute.

Criterion 5a pins the reference first-order expansion of the minimal
eigenvalue, lambda_0 ~ (1 - sqrt(2)/2)(1 - 2 eps)/2 with eps in radians. Exact
computation shows the minimal eigenvalue at delta = pi/2 equals
(1 - sqrt(2)/2)/2 for every nonzero eps (no linear term; confirmed to 50
digits with extended precision), so that check fails by 1.3e-3 .. 5.1e-3. It
is kept as stated on purpose: the printed residuals document the discrepancy,
and criterion 4 (QBER flat in eps to 1e-3, which the exact spectrum does
satisfy) covers the physically meaningful content.
"""

import time

import numpy as np

from pfmattack.attack import (
    build_phase_remapping_povm,
    build_suboptimal_povm,
    evaluate,
    max_fiber_length_km,
)
from pfmattack.mcoracle import run_oracle, simulate_intercept_resend
from pfmattack.numkernel import hermitian_eig
from pfmattack.optics import BirefringentChannel, FaradayMirror, verify_compensation
from pfmattack.statespace import bb84_ensemble, build_ensemble, span_dimension

DEG = np.pi / 180


def check(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def pfm_report(eps_deg, delta):
    ens = build_ensemble(eps_deg * DEG, delta)
    strat = build_suboptimal_povm(ens)
    return evaluate(ens, strat), ens, strat


def remap_report(delta):
    return evaluate(bb84_ensemble(delta), build_phase_remapping_povm(delta))


def test_criterion_1_compensation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        channel = BirefringentChannel(*rng.uniform(-np.pi, np.pi, 3))
        worst = max(worst, verify_compensation(channel, FaradayMirror(0.0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert check("1", ok, f"worst residual {worst:.2e} over 1000 channels in {elapsed:.2f}s")


def test_criterion_2_span_dimension():
    ok = True
    for eps_deg in (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0):
        for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
            ok &= span_dimension(build_ensemble(eps_deg * DEG, delta)) == 3
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        ok &= span_dimension(build_ensemble(0.0, delta)) == 2
    assert check("2", ok, "span = 3 off the singular point, 2 at epsilon = 0")


def test_criterion_3_success_probability_anchors():
    report_1, _, _ = pfm_report(1.0, np.pi / 2)
    report_065, _, _ = pfm_report(0.65, np.pi / 2)
    ok = abs(report_1.p_succ - 2.43e-3) / 2.43e-3 <= 0.05
    ok &= abs(report_065.p_succ - 1.029e-3) / 1.029e-3 <= 0.05
    ok &= abs(report_1.max_fiber_km - 124.0) <= 2.0
    ok &= abs(max_fiber_length_km(1.017e-3) - 142.5) <= 2.0
    ok &= abs(report_065.max_fiber_km - 142.5) <= 2.0
    assert check(
        "3",
        ok,
        f"p_succ(1deg)={report_1.p_succ:.3e} -> {report_1.max_fiber_km:.1f} km, "
        f"p_succ(0.65deg)={report_065.p_succ:.3e} -> {report_065.max_fiber_km:.1f} km",
    )


def test_criterion_4_qber_anchors_and_flatness():
    qber_half_pi = pfm_report(1.0, np.pi / 2)[0].qber
    qber_eighth = pfm_report(1.0, np.pi / 8)[0].qber
    qber_quarter = pfm_report(1.0, np.pi / 4)[0].qber
    ok = 0.143 <= qber_half_pi <= 0.150
    ok &= abs(qber_eighth - 0.0357) <= 0.002
    ok &= abs(qber_quarter - 0.0471) <= 0.002
    spreads = []
    for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
        values = [pfm_report(e, delta)[0].qber for e in np.linspace(0.1, 1.0, 7)]
        spreads.append(max(values) - min(values))
    ok &= max(spreads) <= 1e-3
    assert check(
        "4",
        ok,
        f"e_B(pi/2)={qber_half_pi:.4f}, e_B(pi/8)={qber_eighth:.4f}, "
        f"e_B(pi/4)={qber_quarter:.4f}, max spread over eps {max(spreads):.1e}",
    )


def test_criterion_5a_eigenvalue_expansion():
    """Expansion check kept as stated; see the module docstring for why it fails."""
    base = (1 - np.sqrt(2) / 2) / 2
    residuals = {}
    ok = True
    for eps_deg in (0.25, 0.5, 1.0):
        eps = eps_deg * DEG
        expansion = base * (1 - 2 * eps)
        lam = pfm_report(eps_deg, np.pi / 2)[0].lambda_0
        residuals[eps_deg] = lam - expansion
        ok &= abs(lam - expansion) <= 1e-3
    detail = ", ".join(f"eps={e}deg residual {r:+.2e}" for e, r in residuals.items())
    assert check("5a", ok, detail)


def test_criterion_5b_closed_form_identities():
    ok = True
    worst_e = worst_p = 0.0
    for eps_deg in (0.25, 0.5, 1.0):
        for delta in (np.pi / 8, np.pi / 4, np.pi / 2):
            report, _, strat = pfm_report(eps_deg, delta)
            dev_e = abs(report.qber - (strat.lambda_0 + strat.lambda_3) / 2)
            dev_p = abs(report.p_succ - strat.x / 2)
            worst_e, worst_p = max(worst_e, dev_e), max(worst_p, dev_p)
            ok &= dev_e <= 1e-9 and dev_p <= 1e-9
    assert check("5b", ok, f"max |e_B - mean(lambda)| = {worst_e:.1e}, max |p - x/2| = {worst_p:.1e}")


def test_criterion_6_phase_remapping_baseline():
    quarter = remap_report(np.pi / 4)
    ok = abs(quarter.qber - 0.177) <= 0.003
    grid = np.linspace(0.1, np.pi / 2, 12)
    for delta in grid:
        remap = remap_report(delta)
        for eps_deg in (0.5, 1.0):
            pfm = pfm_report(eps_deg, delta)[0]
            ok &= remap.p_succ > pfm.p_succ
            ok &= pfm.qber < remap.qber
    assert check("6", ok, f"e_B_remap(pi/4)={quarter.qber:.4f}; orderings hold on {len(grid)}-point grid")


def test_criterion_7_monte_carlo_oracle():
    start = time.perf_counter()
    ok = True
    details = []
    for delta, seed in ((np.pi / 2, 20260810), (np.pi / 8, 20260811)):
        report, ens, strat = pfm_report(1.0, delta)
        estimate = run_oracle(ens, strat, 10**7, seed)
        dev_e = abs(estimate.qber_hat - report.qber)
        dev_p = abs(estimate.p_succ_hat - report.p_succ)
        ok &= dev_e <= 3 * estimate.stderr_qber and dev_p <= 3 * estimate.stderr_p_succ
        details.append(
            f"delta={delta:.3f}: |dev_e|={dev_e / estimate.stderr_qber:.2f}s, "
            f"|dev_p|={dev_p / estimate.stderr_p_succ:.2f}s"
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert check("7", ok, "; ".join(details) + f"; total {elapsed:.1f}s")


def test_criterion_8_povm_validity():
    rng = np.random.default_rng(808)
    worst_eig = 0.0
    worst_completeness = 0.0
    worst_vac = -np.inf
    ok = True
    for _ in range(200):
        eps = rng.uniform(0.1, 1.0) * DEG * rng.choice([-1.0, 1.0])
        delta = rng.uniform(0.1, np.pi / 2)
        strat = build_suboptimal_povm(build_ensemble(eps, delta))
        completeness = np.linalg.norm(strat.m_0 + strat.m_3 + strat.m_vac - np.eye(3))
        vac_min = hermitian_eig(strat.m_vac)[0][0]
        min_eig = min(hermitian_eig(op)[0][0] for op in strat.operators.values())
        ok &= min_eig >= -1e-9 and completeness <= 1e-10 and vac_min <= 1e-6
        worst_eig = min(worst_eig, min_eig)
        worst_completeness = max(worst_completeness, completeness)
        worst_vac = max(worst_vac, vac_min)
    assert check(
        "8",
        ok,
        f"200 random points: min eig >= {worst_eig:.1e}, completeness <= {worst_completeness:.1e}, "
        f"vac boundary <= {worst_vac:.1e}",
    )


def test_criterion_9_general_intercept_resend():
    estimate = simulate_intercept_resend(10**6, seed=99)
    dev = abs(estimate.qber_hat - 0.25)
    ok = dev <= 3 * estimate.stderr_qber
    assert check("9", ok, f"qber_hat={estimate.qber_hat:.4f}, |dev|={dev / estimate.stderr_qber:.2f} sigma")

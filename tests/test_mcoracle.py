import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle_reference import run_trial, sample_povm_outcome, simulate_bob
from pfmattack.attack import ERROR_WEIGHTS, PovmStrategy, build_suboptimal_povm, evaluate
from pfmattack import mcoracle
from pfmattack.errors import DimensionMismatchError, DomainError, NegativeProbabilityError
from pfmattack.mcoracle import (
    CHUNK_TRIALS,
    MIN_TRIALS,
    outcome_probabilities,
    run_oracle,
    simulate_intercept_resend,
)
from pfmattack.statespace import AttackEnsemble, bb84_ensemble, build_ensemble

DEG = np.pi / 180


@pytest.fixture(scope="module")
def anchor():
    ens = build_ensemble(1 * DEG, np.pi / 2)
    strat = build_suboptimal_povm(ens)
    return ens, strat, evaluate(ens, strat)


def _fake_strategy(m_0, m_3, m_vac):
    return PovmStrategy(
        ensemble=AttackEnsemble(0.0, 0.0, len(m_0)), m_0=np.asarray(m_0, complex), m_3=np.asarray(m_3, complex),
        m_vac=np.asarray(m_vac, complex), x=1.0, lambda_0=0.0, lambda_3=0.0,
    )


def test_all_vacuum_strategy_always_blocks():
    strat = _fake_strategy(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    rng = np.random.default_rng(0)
    assert all(sample_povm_outcome(state, strat, rng) is None for _ in range(100))


def test_outcome_probabilities_validation():
    bad = _fake_strategy(-0.5 * np.eye(2), np.zeros((2, 2)), 1.5 * np.eye(2))
    state = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NegativeProbabilityError):
        outcome_probabilities(state, bad)
    short = _fake_strategy(0.2 * np.eye(2), np.zeros((2, 2)), 0.2 * np.eye(2))
    with pytest.raises(DomainError):
        outcome_probabilities(state, short)


def test_sample_frequencies_match_closed_form(anchor):
    """Empirical outcome frequencies per sender state agree with <k|M_i|k>."""
    ens, strat, _ = anchor
    rng = np.random.default_rng(31)
    n = 20_000
    for k in range(4):
        probs = outcome_probabilities(ens.states[k], strat)
        counts = {0: 0, 3: 0, None: 0}
        for _ in range(n):
            counts[sample_povm_outcome(ens.states[k], strat, rng)] += 1
        for label, expected in zip((0, 3, None), probs):
            observed = counts[label] / n
            sigma = max(np.sqrt(expected * (1 - expected) / n), 1e-12)
            assert abs(observed - expected) <= max(3 * sigma, 5e-4)


def test_bulk_sample_frequencies_per_state(anchor):
    """Same frequency check at N = 1e6 per state, sampled by inverse CDF
    directly from the probability vector (independent of run_oracle)."""
    ens, strat, _ = anchor
    rng = np.random.default_rng(61)
    n = 10**6
    for k in range(4):
        probs = outcome_probabilities(ens.states[k], strat)
        edges = np.cumsum(probs)
        draws = np.searchsorted(edges, rng.random(n))
        for idx, expected in enumerate(probs):
            observed = np.count_nonzero(draws == idx) / n
            sigma = max(np.sqrt(expected * (1 - expected) / n), 1e-12)
            assert abs(observed - expected) <= max(3 * sigma, 1e-5)


def test_simulate_bob_deterministic_branch():
    rng = np.random.default_rng(2)
    assert simulate_bob(0, 0, rng) == (0, True)
    assert simulate_bob(2, 0, rng) == (1, True)
    assert simulate_bob(1, 1, rng) == (0, True)
    assert simulate_bob(3, 1, rng) == (1, True)
    assert simulate_bob(None, 0, rng) == (None, False)


def test_simulate_bob_mismatched_basis_is_uniform():
    rng = np.random.default_rng(3)
    bits = []
    for _ in range(4000):
        bit, match = simulate_bob(0, 1, rng)
        assert not match
        bits.append(bit)
    assert abs(np.mean(bits) - 0.5) <= 3 * np.sqrt(0.25 / 4000)


def test_simulate_bob_rejects_bad_inputs():
    rng = np.random.default_rng(4)
    with pytest.raises(DomainError):
        simulate_bob(0, 2, rng)
    with pytest.raises(DomainError):
        simulate_bob(7, 0, rng)


def test_run_trial_invariants(anchor):
    ens, strat, _ = anchor
    rng = np.random.default_rng(5)
    seen_conclusive = False
    for _ in range(5000):
        record = run_trial(ens, strat, rng)
        assert record.alice_k in (0, 1, 2, 3)
        assert record.eve_outcome in (0, 3, None)
        if record.error:
            assert record.sifted
        if record.sifted:
            assert record.eve_outcome is not None
            assert record.bob_basis == record.alice_k % 2
        if record.eve_outcome is None:
            assert record.bob_bit is None and not record.sifted
        else:
            seen_conclusive = True
            assert record.bob_bit in (0, 1)
    assert seen_conclusive


def test_run_oracle_is_deterministic(anchor):
    ens, strat, _ = anchor
    a = run_oracle(ens, strat, 50_000, seed=123)
    b = run_oracle(ens, strat, 50_000, seed=123)
    assert a == b
    c = run_oracle(ens, strat, 50_000, seed=124)
    assert c != a


def test_run_oracle_minimum_trials(anchor):
    ens, strat, _ = anchor
    with pytest.raises(DomainError):
        run_oracle(ens, strat, MIN_TRIALS - 1, seed=1)


def test_run_oracle_refuses_a_strategy_built_for_another_point(anchor, monkeypatch):
    """A strategy built at (1 deg, pi/2) is refused at another point, before any round is drawn."""
    _, strat, _ = anchor

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_stream", no_draw)
    with pytest.raises(DomainError, match="built for"):
        run_oracle(build_ensemble(0.5 * DEG, np.pi / 3), strat, 10**5, 1)
    with pytest.raises(DimensionMismatchError):
        run_oracle(bb84_ensemble(np.pi / 2), strat, 10**5, 1)


def test_run_oracle_matches_closed_form(anchor):
    ens, strat, report = anchor
    estimate = run_oracle(ens, strat, 10**6, seed=2024)
    assert abs(estimate.qber_hat - report.qber) <= 3 * estimate.stderr_qber
    assert abs(estimate.p_succ_hat - report.p_succ) <= 3 * estimate.stderr_p_succ
    assert estimate.n_errors <= estimate.n_sifted <= estimate.n_conclusive
    assert estimate.rng_seed == 2024


def test_remapping_oracle_matches_closed_form():
    from pfmattack.attack import build_phase_remapping_povm

    ens = bb84_ensemble(np.pi / 4)
    strat = build_phase_remapping_povm(np.pi / 4)
    report = evaluate(ens, strat)
    estimate = run_oracle(ens, strat, 10**6, seed=4242)
    assert abs(estimate.qber_hat - report.qber) <= 3 * estimate.stderr_qber
    assert abs(estimate.qber_hat - 0.177) <= 0.01
    assert abs(estimate.p_succ_hat - report.p_succ) <= 3 * estimate.stderr_p_succ


def test_sift_rate_is_half_among_conclusive(anchor):
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 10**6, seed=9)
    rate = estimate.n_sifted / estimate.n_conclusive
    assert abs(rate - 0.5) <= 3 * np.sqrt(0.25 / estimate.n_conclusive)


def test_scalar_and_batch_paths_agree_statistically(anchor):
    """The per-round reference in oracle_reference.py and the streamed oracle sample the same law."""
    ens, strat, _ = anchor
    rng = np.random.default_rng(77)
    n = 40_000
    conclusive = sifted = errors = 0
    for _ in range(n):
        record = run_trial(ens, strat, rng)
        conclusive += record.eve_outcome is not None
        sifted += record.sifted
        errors += record.error
    batch = run_oracle(ens, strat, 10**6, seed=78)
    p_scalar = conclusive / n
    sigma = np.sqrt(batch.p_succ_hat * (1 - batch.p_succ_hat) / n)
    assert abs(p_scalar - batch.p_succ_hat) <= 4 * sigma


def test_intercept_resend_oracle():
    estimate = simulate_intercept_resend(10**6, seed=99)
    assert estimate.p_succ_hat == 1.0
    assert abs(estimate.qber_hat - 0.25) <= 3 * estimate.stderr_qber
    with pytest.raises(DomainError):
        simulate_intercept_resend(100, seed=1)


def test_estimates_are_frozen_records(anchor):
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 50_000, seed=55)
    with pytest.raises(dataclasses.FrozenInstanceError):
        estimate.qber_hat = 0.0


def test_rejects_non_integral_trial_counts(anchor):
    """Floats and bools are refused before any round is drawn, not on the last chunk."""
    ens, strat, _ = anchor
    for bad in (1e7, 1e5, np.float64(1e5), True, "100000", None):
        with pytest.raises(DomainError, match="integer"):
            run_oracle(ens, strat, bad, seed=1)
        with pytest.raises(DomainError, match="integer"):
            simulate_intercept_resend(bad, seed=1)
    assert run_oracle(ens, strat, np.int64(MIN_TRIALS), seed=1).n_trials == MIN_TRIALS


def _assert_consistent_counts(estimate, n_trials):
    assert estimate.n_trials == n_trials
    assert sum(estimate.trials_by_state) == n_trials
    assert sum(estimate.conclusive_by_state) == estimate.n_conclusive
    assert sum(estimate.sifted_by_state) == estimate.n_sifted
    assert sum(estimate.errors_by_state) == estimate.n_errors
    for k in range(4):
        assert (
            0 <= estimate.errors_by_state[k] <= estimate.sifted_by_state[k]
            <= estimate.conclusive_by_state[k] <= estimate.trials_by_state[k]
        )
    for counts in (estimate.trials_by_state, estimate.conclusive_by_state,
                   estimate.sifted_by_state, estimate.errors_by_state):
        assert isinstance(counts, tuple) and len(counts) == 4
        assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("n_trials", [MIN_TRIALS, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1])
def test_chunk_boundaries_record_every_trial(anchor, n_trials):
    ens, strat, _ = anchor
    _assert_consistent_counts(run_oracle(ens, strat, n_trials, seed=n_trials), n_trials)
    plain = simulate_intercept_resend(n_trials, seed=n_trials)
    _assert_consistent_counts(plain, n_trials)
    assert plain.conclusive_by_state == plain.trials_by_state


def test_per_state_conclusive_counts_follow_the_povm(anchor):
    """State k is conclusive with probability <k|M_0 + M_3|k>, state by state."""
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 10**6, seed=314)
    for k in range(4):
        p_0, p_3, _ = outcome_probabilities(ens.states[k], strat)
        n_k = estimate.trials_by_state[k]
        expected = n_k * (p_0 + p_3)
        sigma = np.sqrt(n_k * (p_0 + p_3) * (1 - p_0 - p_3))
        assert abs(estimate.conclusive_by_state[k] - expected) <= 4 * sigma


def test_oracle_memory_does_not_grow_with_trials(anchor):
    ens, strat, _ = anchor

    def peak(n_trials):
        tracemalloc.start()
        try:
            run_oracle(ens, strat, n_trials, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * 10**6) - peak(2 * 10**5) < 2 * 2**20


def test_outcome_table_is_absolutely_exact():
    """The oracle's table <v_k|M_b|v_k> reproduces the closed form to 1e-15 absolute over epsilon and delta.

    Near delta -> 0 the table cancels down to O((sc delta^2)^2), so the conclusive
    rate it implies is off in relative terms (4% at 1 deg, delta 1e-4), but p_succ
    is then ~1e-19: in absolute terms the table is exact to double precision, and
    no trial count can resolve the difference.
    """
    weights = np.array([[ERROR_WEIGHTS[(k - b) % 4] for k in range(4)] for b in (0, 3)])
    deltas = np.geomspace(1e-5, np.pi / 2, 25)
    points = [build_ensemble(e * DEG, d) for e in (1e-3, 0.05, 1.0, 5.0) for d in deltas]
    points += [bb84_ensemble(d) for d in deltas]
    for ens in points:
        strat = build_suboptimal_povm(ens)
        report = evaluate(ens, strat)
        table = np.array([outcome_probabilities(v, strat)[:2] for v in ens.states]).T  # rows b = 0, 3
        assert abs(table.sum() / 4 - report.p_succ) <= 1e-15, (ens.epsilon, ens.delta)
        assert abs((weights * table).sum() / 4 - report.qber * report.p_succ) <= 1e-15, (ens.epsilon, ens.delta)

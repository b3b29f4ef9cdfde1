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


def test_trial_counts_beyond_int64_are_refused_before_any_draw(anchor, monkeypatch):
    """The candidates' binomial takes at most 2**63 - 1 trials: more is a DomainError, not an OverflowError."""
    ens, strat, _ = anchor

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_stream", no_draw)
    for bad in (2**63, 10**20):
        with pytest.raises(DomainError, match="exceeds 2\\*\\*63 - 1"):
            run_oracle(ens, strat, bad, seed=1)
        with pytest.raises(DomainError, match="exceeds 2\\*\\*63 - 1"):
            simulate_intercept_resend(bad, seed=1)
    assert mcoracle.check_run(2**63 - 1, 0) == (2**63 - 1, 0)


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

    assert max(peak(4 * 10**6), peak(10**9)) - peak(2 * 10**5) < 2 * 2**20


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


#: OracleEstimate fields, in order, of seeded runs at GOLDEN_TRIALS trials (not a multiple of CHUNK_TRIALS).
GOLDEN_TRIALS = 10**6 + 17
GOLDEN = {
    ("pfm", 1.0, np.pi / 2, 11): (
        1000017, 0.14331983805668017, 0.0024179588946987903, 0.00997077762962056, 4.911284317028637e-05, 11,
        2418, 1235, 177, (250296, 249740, 249762, 250219), (1037, 183, 156, 1042), (520, 83, 82, 550),
        (41, 49, 48, 39),
    ),
    ("pfm", 0.1, np.pi / 8, 12): (
        1000017, float("nan"), 0.0, float("nan"), 0.0, 12,
        0, 0, 0, (250849, 249623, 249491, 250054), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("pfm", 5.0, np.pi / 2, 13): (
        1000017, 0.1458597634150523, 0.058157011330807376, 0.0020668137993154778, 0.00023403812127206577, 13,
        58158, 29165, 4254, (249827, 250221, 249448, 250521), (24805, 4284, 4269, 24800),
        (12463, 2148, 2188, 12366), (893, 1232, 1253, 876),
    ),
    ("remap", 0.0, np.pi / 4, 14): (
        1000017, 0.18007278955255834, 0.2338660242775873, 0.0011244412205014633, 0.00042328437377482273, 14,
        233870, 116775, 21028, (249783, 250363, 249888, 249983), (89718, 27291, 27294, 89567),
        (44731, 13654, 13661, 44729), (3464, 7074, 7020, 3470),
    ),
}
GOLDEN_INTERCEPT_RESEND = (
    1000017, 0.24957983529543581, 1.0, 0.0006121489810149661, 0.0, 15,
    1000017, 499804, 124741, (249763, 249882, 250382, 249990), (249763, 249882, 250382, 249990),
    (124669, 124862, 124781, 125492), (31358, 30939, 31369, 31075),
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: f"{case[0]}-{case[1]}deg-{case[2]:.4f}")
def test_golden_counts(case):
    """This version's seeded stream, pinned field by field: a faster round law may not move a single count.

    The stream draws the number of candidate rounds first, so its numbers
    differ from those of versions that drew every round. A run with no
    sifted round has nan e_B and stderr, which only a nan-aware comparison
    can pin; every other field is compared exactly.
    """
    kind, epsilon_deg, delta, seed = case
    ens = bb84_ensemble(delta) if kind == "remap" else build_ensemble(epsilon_deg * DEG, delta)
    estimate = run_oracle(ens, build_suboptimal_povm(ens), GOLDEN_TRIALS, seed)
    np.testing.assert_equal(dataclasses.astuple(estimate), GOLDEN[case])


def test_golden_counts_intercept_resend():
    assert dataclasses.astuple(simulate_intercept_resend(GOLDEN_TRIALS, 15)) == GOLDEN_INTERCEPT_RESEND


@pytest.mark.parametrize("bad", [-1, True, np.bool_(False), 1.5, np.float64(2.0), "3", None])
def test_rejects_bad_seeds_before_any_draw(anchor, monkeypatch, bad):
    ens, strat, _ = anchor

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_stream", no_draw)
    with pytest.raises(DomainError, match="seed"):
        run_oracle(ens, strat, MIN_TRIALS, seed=bad)
    with pytest.raises(DomainError, match="seed"):
        simulate_intercept_resend(MIN_TRIALS, seed=bad)


def test_numpy_integer_seed_is_recorded_as_int(anchor):
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, MIN_TRIALS, seed=np.int64(7))
    assert type(estimate.rng_seed) is int
    assert estimate == run_oracle(ens, strat, MIN_TRIALS, seed=7)


def _reference_counts(ens, strat, n, seed):
    """Per-state (trials, conclusive, sifted, errors) of n rounds of the scalar reference."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((4, 4), dtype=np.int64)
    for _ in range(n):
        record = run_trial(ens, strat, rng)
        counts[:, record.alice_k] += (1, record.eve_outcome is not None, record.sifted, record.error)
    return counts


def _tied_strategy(scale):
    """(ensemble, strategy) whose M_0 + M_3 is scale times the projector onto the span of states 0 and 1.

    The ensemble is 3-dimensional, so states 0 and 1 are conclusive with
    probability scale and states 2 and 3 less often.
    """
    ens = build_ensemble(5 * DEG, np.pi / 2)
    v = ens.states
    q, _ = np.linalg.qr(v[:2].T)
    span = q @ q.conj().T
    first = np.outer(v[0], v[0].conj())
    return ens, dataclasses.replace(
        _fake_strategy(scale * first, scale * (span - first), np.eye(3) - scale * span), ensemble=ens
    )


@pytest.mark.parametrize("scale", [0.3, 1.0])
def test_tied_and_certain_conclusive_rates_match_the_reference(scale):
    """The candidate filter at its edges: max_k p_conclusive attained by two states, at 0.3 and at 1."""
    ens, strat = _tied_strategy(scale)
    v = ens.states
    p_conclusive = np.array([outcome_probabilities(s, strat)[:2].sum() for s in v])
    assert np.allclose(p_conclusive[:2], scale, rtol=0, atol=1e-15) and p_conclusive[2:].max() < 0.95 * scale

    n = 20_000
    reference = _reference_counts(ens, strat, n, seed=8)
    e = run_oracle(ens, strat, 10**6, seed=9)
    oracle = np.array([e.trials_by_state, e.conclusive_by_state, e.sifted_by_state, e.errors_by_state])
    # each level's rate given the one before it, state by state, as two independent binomial samples
    for level in (1, 2, 3):
        for k in range(4):
            n_ref, n_orc = reference[level - 1, k], oracle[level - 1, k]
            r_ref, r_orc = reference[level, k] / n_ref, oracle[level, k] / n_orc
            pooled = (reference[level, k] + oracle[level, k]) / (n_ref + n_orc)
            sigma = np.sqrt(pooled * (1 - pooled) * (1 / n_ref + 1 / n_orc))
            assert abs(r_ref - r_orc) <= 4.5 * sigma, (level, k, r_ref, r_orc)
    # states conclusive with certainty are conclusive on every round
    if scale == 1.0:
        assert tuple(oracle[1, :2]) == tuple(oracle[0, :2])


@pytest.mark.parametrize("case", ["pfm-1deg", "pfm-5deg", "remap-pi/4", "tied-1.0"])
def test_pooled_counts_follow_the_exact_outcome_table(case):
    """Per-state counts pooled over many seeds follow the exact law, level by level.

    For sender state k with outcome probabilities p_b = <v_k|M_b|v_k>: a round
    is state k with probability 1/4, conclusive given k with p_0 + p_3,
    sifted given conclusive with 1/2, and an error given sifted with
    sum_b p_b ERROR_WEIGHTS[(k - b) % 4] / (p_0 + p_3). Each count is checked
    as a binomial draw on the count of the level before it.
    """
    if case == "tied-1.0":
        ens, strat = _tied_strategy(1.0)
    else:
        epsilon_deg = {"pfm-1deg": 1.0, "pfm-5deg": 5.0}.get(case)
        ens = bb84_ensemble(np.pi / 4) if epsilon_deg is None else build_ensemble(epsilon_deg * DEG, np.pi / 2)
        strat = build_suboptimal_povm(ens)
    n_seeds, n_trials = (40, 10**5) if case == "tied-1.0" else (100, 10**6)
    pooled = np.zeros((4, 4), dtype=np.int64)  # [level, state]
    for seed in range(n_seeds):
        e = run_oracle(ens, strat, n_trials, seed)
        pooled += [e.trials_by_state, e.conclusive_by_state, e.sifted_by_state, e.errors_by_state]
    assert pooled[0].sum() == n_seeds * n_trials

    table = np.array([outcome_probabilities(v, strat) for v in ens.states])  # [k, (p_0, p_3, p_vac)]
    p_conclusive = table[:, 0] + table[:, 1]
    weights = np.array([[ERROR_WEIGHTS[(k - b) % 4] for b in (0, 3)] for k in range(4)])
    p_error = (table[:, :2] * weights).sum(axis=1) / p_conclusive
    # each level's probability given the level before it, by state
    rates = np.array([np.full(4, 0.25), p_conclusive, np.full(4, 0.5), p_error]).clip(0, 1)
    totals = np.vstack([np.full(4, pooled[0].sum()), pooled[:3]])
    expected = totals * rates
    sigma = np.sqrt(totals * rates * (1 - rates))
    deviation = np.abs(pooled - expected)
    assert np.all((deviation <= 4.5 * sigma) | (deviation == 0)), (deviation / sigma).round(2)

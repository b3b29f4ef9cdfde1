import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracle_reference import (
    INTERCEPT_RESEND, hierarchical_draw, reference_draw, run_trial, sample_povm_outcome, simulate_bob,
    simulate_intercept_resend,
)
from pfmattack.attack import ERROR_WEIGHTS, PovmStrategy, build_suboptimal_povm, evaluate
from pfmattack import mcoracle
from pfmattack.errors import DimensionMismatchError, DomainError, NegativeProbabilityError, PfmAttackError
from pfmattack.mcoracle import MAX_TRIALS, MIN_TRIALS, OracleEstimate, outcome_probabilities, run_oracle
from pfmattack.statespace import EPSILON_MAX, AttackEnsemble, EnsembleBlock, bb84_ensemble, build_ensemble

DEG = np.pi / 180
#: Trial count of the pinned seeded runs below.
GOLDEN_TRIALS = 10**6 + 17


@pytest.fixture(scope="module")
def anchor():
    ens = build_ensemble(1 * DEG, np.pi / 2)
    strat = build_suboptimal_povm(ens)
    return ens, strat, evaluate(ens, strat)


def _fake_strategy(m_0, m_3, m_vac):
    return PovmStrategy(
        ensemble=AttackEnsemble(0.0, 0.0, len(m_0)), elements=np.array((m_0, m_3, m_vac), complex),
        x=1.0, lambda_0=0.0, lambda_3=0.0,
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


def test_outcome_probabilities_of_a_stack_are_its_rows(anchor):
    """A single state is a batch of one: (d,) gives (3,), a stack (..., d) gives (..., 3), row for row."""
    ens, strat, _ = anchor
    table = outcome_probabilities(ens.states, strat)
    assert table.shape == (4, 3)
    for k in range(4):
        assert np.array_equal(outcome_probabilities(ens.states[k], strat), table[k])
    stacked = outcome_probabilities(np.array([ens.states, ens.states[::-1]]), strat)
    assert stacked.shape == (2, 4, 3)
    assert np.array_equal(stacked[0], table) and np.array_equal(stacked[1], table[::-1])
    # the contraction sums in another order than one quadratic form per state and element: a few ulps apart
    for point in (ens, build_ensemble(5 * DEG, 0.3), bb84_ensemble(np.pi / 4)):
        povm = build_suboptimal_povm(point)
        loop = [[(v.conj() @ m @ v).real for m in povm.elements] for v in point.states]
        assert np.abs(outcome_probabilities(point.states, povm) - loop).max() <= 4 * np.finfo(float).eps


def test_nan_elements_are_refused_before_any_draw(anchor, monkeypatch):
    """NaN fails the table's checks (as it would fail validate()), so the oracle stops before its first draw."""
    ens, strat, _ = anchor
    elements = strat.elements.copy()
    elements[0, 1, 1] = np.nan
    bad = dataclasses.replace(strat, elements=elements)

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_draw", no_draw)
    for states in (ens.states[1], ens.states):
        with pytest.raises(NegativeProbabilityError, match="nan is negative or NaN"):
            outcome_probabilities(states, bad)
    with pytest.raises(NegativeProbabilityError, match="nan is negative or NaN"):
        run_oracle(ens, bad, MIN_TRIALS, seed=0)


def test_sample_frequencies_match_closed_form(anchor):
    """Empirical outcome frequencies per sender state agree with <k|M_i|k>."""
    ens, strat, _ = anchor
    rng = np.random.default_rng(31)
    n = 20_000
    for k, probs in enumerate(outcome_probabilities(ens.states, strat)):
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
    for probs in outcome_probabilities(ens.states, strat):
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


class _FixedCoin:
    """A generator stand-in for simulate_bob whose every coin comes up coin."""

    def __init__(self, coin):
        self.coin = coin

    def integers(self, low, high):
        return self.coin


def test_receiver_error_table_matches_the_per_round_reference():
    """The oracle's error rate given sifted, [k, r], is simulate_bob's, enumerated over the receiver's basis and coin."""
    table = np.zeros((4, 4))
    for k in range(4):
        for r in range(4):
            errors = [
                bob_basis + 2 * simulate_bob(r, bob_basis, _FixedCoin(coin))[0] != k
                for bob_basis in (0, 1) for coin in (0, 1)
                if bob_basis == k % 2  # sifted: the receiver measured in the sender's basis
            ]
            table[k, r] = sum(errors) / len(errors)
    assert np.array_equal(mcoracle._ERROR_GIVEN_SIFTED, table)


def test_receiver_error_table_is_the_closed_form_weight():
    """The receiver's law derived from the bases and the closed form's error weights state one law twice."""
    weights = [[ERROR_WEIGHTS[(k - r) % 4] for r in range(4)] for k in range(4)]
    assert np.array_equal(mcoracle._ERROR_GIVEN_SIFTED, weights)


@pytest.mark.parametrize("delta", [1e-3, 1.5e-3])
def test_remainder_cell_is_the_blocked_one(delta):
    """At 2**63 - 1 trials the per-state sifted and error counts follow the outcome table within 4.5 sigma.

    numpy fills a multinomial's last cell with the remainder of the trials,
    which carries the rounding of the cells before it: hundreds of rounds at
    this count. The last of a run's 16 cells, state 3's, must be a blocked
    one. With the error cell last in each state instead, state 3's error
    count reads 472 sigma high at 1e-3 and 0, 8.6 sigma low, at 1.5e-3
    (seed 5).
    """
    ens = build_ensemble(1 * DEG, delta)
    strat = build_suboptimal_povm(ens)
    estimate = run_oracle(ens, strat, 2**63 - 1, seed=5)
    table = outcome_probabilities(ens.states, strat)
    weights = np.array([[ERROR_WEIGHTS[(k - b) % 4] for b in (0, 3)] for k in range(4)])
    n_k = np.array(estimate.trials_by_state, dtype=float)
    for counts, rates in (
        (estimate.sifted_by_state, table[:, :2].sum(axis=1) / 2),
        (estimate.errors_by_state, (table[:, :2] * weights).sum(axis=1) / 2),
    ):
        sigma = np.sqrt(n_k * rates * (1 - rates))
        assert np.all(np.abs(np.array(counts) - n_k * rates) <= 4.5 * sigma), (np.array(counts) - n_k * rates) / sigma


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
    """The state counts' multinomial takes at most 2**63 - 1 trials: more is a DomainError, not an OverflowError."""
    ens, strat, _ = anchor

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_draw", no_draw)
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

    monkeypatch.setattr(mcoracle, "_draw", no_draw)
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
    """An estimate, made without OracleEstimate's __init__, is what the constructor makes of its fields, frozen."""
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 50_000, seed=55)
    with pytest.raises(dataclasses.FrozenInstanceError):
        estimate.qber_hat = 0.0
    made = OracleEstimate(**vars(estimate))
    assert made == estimate and hash(made) == hash(estimate) and repr(made) == repr(estimate)
    assert vars(made) == vars(estimate) and list(vars(made)) == list(vars(estimate))


def test_rejects_non_integral_trial_counts(anchor):
    """Floats and bools are refused before any round is drawn."""
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


@pytest.mark.parametrize("n_trials", [MIN_TRIALS, GOLDEN_TRIALS, 2**63 - 1])
def test_chunk_boundaries_record_every_trial(anchor, n_trials):
    """Every trial is counted once, from the smallest accepted count to the int64 edge."""
    ens, strat, _ = anchor
    _assert_consistent_counts(run_oracle(ens, strat, n_trials, seed=n_trials), n_trials)
    plain = simulate_intercept_resend(n_trials, seed=n_trials)
    _assert_consistent_counts(plain, n_trials)
    assert plain.conclusive_by_state == plain.trials_by_state


def test_per_state_conclusive_counts_follow_the_povm(anchor):
    """State k is conclusive with probability <k|M_0 + M_3|k>, state by state."""
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 10**6, seed=314)
    for k, (p_0, p_3, _) in enumerate(outcome_probabilities(ens.states, strat)):
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
        table = outcome_probabilities(ens.states, strat)[:, :2].T  # rows b = 0, 3
        assert abs(table.sum() / 4 - report.p_succ) <= 1e-15, (ens.epsilon, ens.delta)
        assert abs((weights * table).sum() / 4 - report.qber * report.p_succ) <= 1e-15, (ens.epsilon, ens.delta)


#: OracleEstimate fields, in order, of seeded runs at GOLDEN_TRIALS trials.
GOLDEN = {
    ("pfm", 1.0, np.pi / 2, 11): (
        1000017, 0.1298917568692756, 0.002424958775700813, 0.009700763867992821, 4.9183708959411604e-05, 11,
        2425, 1201, 156, (249981, 250358, 249914, 249764), (1055, 195, 163, 1012), (550, 87, 88, 476),
        (33, 45, 48, 30),
    ),
    ("pfm", 0.1, np.pi / 8, 12): (
        1000017, 0.0, 1.99996600057799e-06, 0.0, 1.414188106985048e-06, 12,
        2, 1, 0, (249898, 249559, 250383, 250177), (1, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("pfm", 5.0, np.pi / 2, 13): (
        1000017, 0.14642979159549027, 0.058439006536888875, 0.0020664408823760296, 0.00023456972025744945, 13,
        58440, 29270, 4286, (249423, 249827, 250181, 250586), (24696, 4284, 4272, 25188),
        (12328, 2175, 2173, 12594), (965, 1270, 1188, 863),
    ),
    ("remap", 0.0, np.pi / 4, 14): (
        1000017, 0.17859399818955063, 0.23445101433275634, 0.001119277122620971, 0.0004236516080926076, 14,
        234455, 117098, 20913, (250011, 249878, 249636, 250492), (89866, 27489, 27381, 89719),
        (45025, 13639, 13829, 44605), (3439, 6969, 7122, 3383),
    ),
}
GOLDEN_INTERCEPT_RESEND = (
    1000017, 0.24974973874923323, 1.0, 0.0006118761664725399, 0.0, 15,
    1000017, 500477, 124994, (250544, 249875, 249474, 250124), (250544, 249875, 249474, 250124),
    (125469, 124536, 125153, 125319), (31467, 31144, 31169, 31214),
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: f"{case[0]}-{case[1]}deg-{case[2]:.4f}")
def test_golden_counts(case):
    """This version's seeded stream, pinned field by field: no count moves unless the stream is changed on purpose.

    The stream draws a run's counts over the 16 (state, cell) pairs from one
    multinomial. That is the law of the state counts and then each state's
    cell counts, which earlier versions drew in five calls, but the one call
    draws other numbers from it, so these pins were re-taken when it came
    in; versions that drew round by round gave others again. A run with no
    sifted round has nan e_B and stderr, which only a nan-aware comparison
    can pin; every other field is compared exactly.
    """
    kind, epsilon_deg, delta, seed = case
    ens = bb84_ensemble(delta) if kind == "remap" else build_ensemble(epsilon_deg * DEG, delta)
    estimate = run_oracle(ens, build_suboptimal_povm(ens), GOLDEN_TRIALS, seed)
    np.testing.assert_equal(dataclasses.astuple(estimate), GOLDEN[case])


def _cell_tables(anchor):
    """The cell tables (4, 4) [state, cell] of the pfm and remap anchors, whose states differ row by row."""
    ens, strat, _ = anchor
    remap = bb84_ensemble(np.pi / 4)
    return [mcoracle._cells(mcoracle._resend(outcome_probabilities(e.states, s)))
            for e, s in ((ens, strat), (remap, build_suboptimal_povm(remap)))]


def _cell_counts(estimate):
    """The counts (4, 4) [state, cell] that an estimate's per-state tuples hold: cells conclusive but not sifted,
    sifted and correct, error, blocked."""
    trials, conclusive, sifted, errors = (np.array(counts, dtype=np.int64) for counts in (
        estimate.trials_by_state, estimate.conclusive_by_state, estimate.sifted_by_state, estimate.errors_by_state))
    return np.stack([conclusive - sifted, sifted - errors, errors, trials - conclusive], axis=1)


def _block_counts(n_trials, seeds, cells):
    """The counts (n, 4, 4) of one block of runs, run r seeded seeds[r], all on the cell table cells."""
    counts = mcoracle._counts(n_trials, seeds, np.broadcast_to(cells, (len(seeds), 4, 4)))
    return np.array([_cell_counts(mcoracle._estimate(n_trials, seed, run)) for seed, run in zip(seeds, counts)])


@pytest.mark.parametrize("n_trials", [MIN_TRIALS, MAX_TRIALS, 3])
def test_draw_equals_numpys_16_cell_multinomial(anchor, n_trials):
    """A run's counts are default_rng(seed).multinomial(n, 0.25 * cells.ravel()), bit for bit, over 1000 seeds.

    The tables are the pfm and remap anchors' and the intercept-resend one,
    whose blocked cell is 0 in every state. At 3 trials most runs leave a
    state with 0 rounds. The 1000 runs are one block through `_counts`, each
    run then through `_estimate`; the rows take their generators from
    `_generators`, so the reference's default_rng(seed) checks each row's
    state too.
    """
    seeds = list(range(1000))
    runs_with_an_empty_state = 0
    for cells in [*_cell_tables(anchor), mcoracle._cells(INTERCEPT_RESEND)]:
        for seed, counts in zip(seeds, _block_counts(n_trials, seeds, cells)):
            assert np.array_equal(counts, reference_draw(n_trials, seed, cells)), (n_trials, seed, cells)
            runs_with_an_empty_state += bool((counts.sum(axis=1) == 0).any())
    assert (mcoracle._cells(INTERCEPT_RESEND)[:, 3] == 0).all()
    assert (runs_with_an_empty_state > 1000) == (n_trials == 3)


def _bernstein(n, p, alpha=1e-9):
    """The half-width t with P(|K - n p| >= t) <= alpha for K ~ Binomial(n, p), by Bernstein's inequality:
    2 exp(-t**2 / (2 (n p (1 - p) + t / 3))) = alpha."""
    log = math.log(2 / alpha)
    return log / 3 + math.sqrt((log / 3) ** 2 + 2 * log * n * p * (1 - p))


@pytest.mark.parametrize("draw", ["oracle", "hierarchical"])
def test_draw_follows_the_state_by_state_law(anchor, draw):
    """The counts have the law of the state counts and then each state's cell counts, numpy's 2-D form.

    Over 2000 runs of 10**6 rounds, each (state, cell) total is within
    Bernstein's bound (alpha 1e-9) of its expectation: under that law it is
    Binomial(2000 * 10**6, cells[k, c] / 4). Over 20000 runs of 12 rounds,
    the number of runs with j rounds of state k is within the same bound of
    20000 Binomial(12, 1/4).pmf(j), for every k and j. numpy's 2-D form
    (`hierarchical_draw`) is held to the same bounds, so they are the law's.
    """
    def counts(n_trials, seeds, cells):
        if draw == "oracle":
            return _block_counts(n_trials, seeds, cells)
        return np.array([hierarchical_draw(n_trials, seed, cells) for seed in seeds])

    pmf = [math.comb(12, j) * 0.25**j * 0.75 ** (12 - j) for j in range(13)]
    n_rounds = 2000 * 10**6
    for cells in _cell_tables(anchor):
        totals = counts(10**6, range(2000), cells).sum(axis=0)
        for (k, c), total in np.ndenumerate(totals):
            p = cells[k, c] / 4
            assert abs(total - n_rounds * p) <= _bernstein(n_rounds, p), (k, c, total, n_rounds * p)
        by_state = counts(12, range(20000), cells).sum(axis=2)
        for k in range(4):
            runs = np.bincount(by_state[:, k], minlength=13)
            for j, p in enumerate(pmf):
                assert abs(runs[j] - 20000 * p) <= _bernstein(20000, p), (k, j, runs[j], 20000 * p)


def test_a_block_draws_one_multinomial_per_row(anchor, monkeypatch):
    """A block of n rows makes exactly n Generator.multinomial calls, one per drawn row, and a refused row none."""
    ens, strat, _ = anchor
    blocks = [EnsembleBlock([e * DEG for e in (0.5, 1.0, 2.0) for _ in range(2)], [np.pi / 2, np.pi / 5] * 3, 3),
              EnsembleBlock([0.0, 0.0], [np.pi / 4, 0.3], 2)]
    runs = [(block, build_suboptimal_povm(block).elements.copy()) for block in blocks]
    runs[0][1][3, 0, 1, 1] = np.nan  # a NaN table: refused before any draw
    expected = [run_oracle(block, elements, MIN_TRIALS, seed=21) for block, elements in runs]
    generators, calls = mcoracle._generators, []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def multinomial(self, *args):
            calls.append(args)
            return self.rng.multinomial(*args)

    monkeypatch.setattr(mcoracle, "_generators", lambda seeds: map(CountingGenerator, generators(seeds)))
    for (block, elements), (counts, refusals), drawn in zip(runs, expected, (5, 2)):
        calls.clear()
        results, row_refusals = run_oracle(block, elements, MIN_TRIALS, seed=21)
        assert len(calls) == drawn
        assert np.array_equal(results, counts) and [str(r) for r in row_refusals] == [str(r) for r in refusals]
    assert isinstance(expected[0][1][3], NegativeProbabilityError) and not expected[0][0][3].any()
    calls.clear()
    run_oracle(ens, strat, MIN_TRIALS, seed=21)
    assert len(calls) == 1


def test_golden_counts_intercept_resend():
    assert dataclasses.astuple(simulate_intercept_resend(GOLDEN_TRIALS, 15)) == GOLDEN_INTERCEPT_RESEND


@pytest.mark.parametrize("bad", [-1, True, np.bool_(False), 1.5, np.float64(2.0), "3", None])
def test_rejects_bad_seeds_before_any_draw(anchor, monkeypatch, bad):
    ens, strat, _ = anchor

    def no_draw(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(mcoracle, "_draw", no_draw)
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
    p_conclusive = outcome_probabilities(v, strat)[:, :2].sum(axis=1)
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

    table = outcome_probabilities(ens.states, strat)  # [k, (p_0, p_3, p_vac)]
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


def _no_draw(*args):
    raise AssertionError("a round was drawn")


def _own_rows(block, elements, n_trials, seed):
    """Per row r of a block, what its own run_oracle call seeded seed + r gives: ((4, 4) counts, (qber_hat,
    p_succ_hat)) of its estimate, or (type, message) of its refusal, the domain's included."""
    rows = []
    for r, (epsilon, delta) in enumerate(zip(block.epsilon.tolist(), block.delta.tolist())):
        try:
            ens = AttackEnsemble(epsilon, delta, block.dim)
            own = run_oracle(ens, PovmStrategy(ens, elements[r], 1.0, 0.0, 0.0), n_trials, seed + r)
        except PfmAttackError as exc:
            rows.append((type(exc), str(exc)))
        else:
            rows.append((_cell_counts(own), (own.qber_hat, own.p_succ_hat)))
    return rows


def _block_rows(block, elements, n_trials, seed):
    """The block form's rows in _own_rows' terms; a refused row must hold zero counts."""
    counts, refusals = run_oracle(block, elements, n_trials, seed)
    assert counts.shape == (len(block), 4, 4) and len(refusals) == len(block)
    assert not counts[[r for r, refusal in enumerate(refusals) if refusal is not None]].any()
    ratios = mcoracle.estimate_ratios(counts, n_trials)
    return [(counts[r], ratios[r]) if refusal is None else (type(refusal), str(refusal))
            for r, refusal in enumerate(refusals)]


def test_sequence_form_equals_each_rows_own_call():
    """Row r of a block is run_oracle(ens[r], strat[r], n, seed + r): its counts and ratios (nan-aware).

    A seeded draw of pfm points and one of remap points, one block each; the
    faint ones have no sifted round at this trial count, so their e_B is nan.
    """
    rng = np.random.default_rng(2025)
    blocks = [EnsembleBlock(rng.uniform(-EPSILON_MAX, EPSILON_MAX, 150),
                            np.geomspace(1e-3, np.pi / 2, 150)[rng.permutation(150)], 3),
              EnsembleBlock(np.zeros(50), rng.uniform(1e-3, np.pi / 2, 50), 2)]
    sifted = []
    for block in blocks:
        povms = build_suboptimal_povm(block)
        assert povms.refusals == [None] * len(block)
        rows = _block_rows(block, povms.elements, 20_000, 40)
        np.testing.assert_equal(rows, _own_rows(block, povms.elements, 20_000, 40))
        sifted += [counts[:, 1:3].sum() for counts, _ in rows]
    assert 0 in sifted and max(sifted) > 0


def test_a_refused_row_refuses_only_itself(anchor):
    """A row outside the domain, NaN elements or a table that does not sum to 1: the row's own refusal, type and
    message, zero counts, and every other row its own call's counts.

    Row 1 of the remap block, p_0 = -1e-12, is within tolerance and reads 0,
    although a refused row comes before it.
    """
    ens, strat, _ = anchor
    nan = strat.elements.copy()
    nan[0, 1, 1] = np.nan
    off = np.array((0.2 * np.eye(3), np.zeros((3, 3)), 0.2 * np.eye(3)))  # sums to 0.4 I
    other = build_ensemble(0.5 * DEG, np.pi / 3)
    pfm = EnsembleBlock([ens.epsilon, ens.epsilon, 0.3, ens.epsilon, other.epsilon],
                        [ens.delta, ens.delta, 0.5, ens.delta, other.delta], 3)
    pfm_elements = np.array([strat.elements, nan, strat.elements, off, build_suboptimal_povm(other).elements])
    remap = bb84_ensemble(np.pi / 4)
    remap_block = EnsembleBlock([0.0, 0.0, 0.0], [0.0, 0.0, remap.delta], 2)
    remap_elements = np.array([(np.full((2, 2), np.nan), np.zeros((2, 2)), np.eye(2)),
                               (-1e-12 * np.eye(2), np.zeros((2, 2)), (1 + 1e-12) * np.eye(2)),
                               build_suboptimal_povm(remap).elements])
    kinds = ([None, NegativeProbabilityError, DomainError, DomainError, None], [NegativeProbabilityError, None, None])
    for block, elements, row_kinds in ((pfm, pfm_elements, kinds[0]), (remap_block, remap_elements, kinds[1])):
        rows = _block_rows(block, elements, MIN_TRIALS, 3)
        assert [row[0] if isinstance(row[0], type) else None for row in rows] == row_kinds
        np.testing.assert_equal(rows, _own_rows(block, elements, MIN_TRIALS, 3))
        if block is pfm:
            assert rows[2][1] == str(pfm.refusals[2]) and "sum to" in rows[3][1]


@pytest.mark.parametrize("n_trials, seed", [
    (MIN_TRIALS - 1, 0), (2**63, 0), (1e5, 0), (MIN_TRIALS, -1), (MIN_TRIALS, True), (MIN_TRIALS, 1.0),
])
def test_sequence_form_checks_trials_and_seed_before_any_draw(anchor, monkeypatch, n_trials, seed):
    """The block form checks n_trials and seed (check_run) before any draw, on a block and on an empty block."""
    ens, strat, _ = anchor
    monkeypatch.setattr(mcoracle, "_draw", _no_draw)
    for block, elements in ((EnsembleBlock([ens.epsilon] * 2, [ens.delta] * 2, 3), np.array([strat.elements] * 2)),
                            (EnsembleBlock([], [], 3), np.zeros((0, 3, 3, 3)))):
        with pytest.raises(DomainError, match="trial|seed"):
            run_oracle(block, elements, n_trials, seed)


def test_sequence_form_edges(anchor, monkeypatch):
    """An empty block gives no counts and no refusals, and a block whose rows are all refused draws nothing."""
    ens, strat, _ = anchor
    counts, refusals = run_oracle(EnsembleBlock([], [], 3), np.zeros((0, 3, 3, 3)), MIN_TRIALS, 0)
    assert counts.shape == (0, 4, 4) and counts.dtype == np.int64 and refusals == []
    monkeypatch.setattr(mcoracle, "_draw", _no_draw)
    elements = strat.elements.copy()
    elements[2, 0, 0] = np.nan
    block = EnsembleBlock([ens.epsilon, 1.0], [ens.delta, ens.delta], 3)
    counts, refusals = run_oracle(block, np.array([elements, strat.elements]), MIN_TRIALS, 0)
    assert [type(refusal) for refusal in refusals] == [NegativeProbabilityError, DomainError] and not counts.any()


def test_generators_start_in_each_seeds_default_rng_state():
    """Each generator holds np.random.default_rng(seed).bit_generator.state, the whole dict, for seeds of any size.

    Seeds at the edges of SeedSequence's 32-bit entropy words and past 128 bits, then 1000 seeded ones of 0 to 320
    bits. A leading seed comes first, so every listed seed gets the state that _generators sets, not a default_rng
    of its own.
    """
    rng = np.random.default_rng(32)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**300 + 7]
    seeds += [int.from_bytes(rng.bytes(40), "little") >> int(rng.integers(0, 321)) for _ in range(1000)]
    for seed, generator in zip([5, *seeds], mcoracle._generators([5, *seeds])):
        assert generator.bit_generator.state == np.random.default_rng(seed).bit_generator.state, seed


@pytest.mark.parametrize("edge", [2**32, 2**64, 2**128, 2**160], ids=["2**32", "2**64", "2**128", "2**160"])
def test_sequence_rows_across_a_seed_word_edge_equal_their_own_calls(edge):
    """A pfm and a remap block of 8 rows each, seeded edge - 4 to edge + 3: each row is its own run_oracle call.

    A block's rows share one generator (_generators), and each block's seeds cross the edge. At 2**160 its rows' seeds
    have five and six 32-bit words, so only the last four run SeedSequence's round for a sixth word (_pools).
    """
    deltas = [np.pi / 2, np.pi / 4, np.pi / 8, np.pi / 3]
    for block in (EnsembleBlock(np.array([0.5, 1, 2, 3, -0.5, -1, -2, -3]) * DEG, deltas * 2, 3),
                  EnsembleBlock(np.zeros(8), deltas + [0.2, 0.4, 0.6, 0.8], 2)):
        elements = build_suboptimal_povm(block).elements
        np.testing.assert_equal(_block_rows(block, elements, 100_000, edge - 4),
                                _own_rows(block, elements, 100_000, edge - 4))


def test_sequence_form_refuses_an_argument_that_is_not_iterable(anchor, monkeypatch):
    """A strat that is not iterable beside an EnsembleBlock is a DomainError that names its type, and elements that
    do not convert to complex numbers (a string, an int beyond double range) are one that says so, before any
    draw."""
    ens, strat, _ = anchor
    monkeypatch.setattr(mcoracle, "_draw", _no_draw)
    block = EnsembleBlock([ens.epsilon], [ens.delta], 3)
    for bad in (None, strat, np.array(0.3)):  # a 0-d array is Iterable by type, but cannot be iterated
        with pytest.raises(DomainError, match=f"^strat must be iterable, got {type(bad).__name__}$"):
            run_oracle(block, bad, MIN_TRIALS, 1)
    for bad in (np.full((1, 3, 3, 3), "a"), [[[[2**2000] * 3] * 3] * 3]):  # a string, an int beyond double range
        with pytest.raises(DomainError, match="^elements must be numbers: "):
            run_oracle(block, bad, MIN_TRIALS, 1)


def test_the_block_form_draws_each_rows_own_counts(anchor, monkeypatch):
    """run_oracle over an EnsembleBlock and its PovmBlock's elements: row r's counts are those of its own call seeded
    seed + r, a row the block refuses keeps its refusal, draws nothing and keeps zero counts, and one whose outcome
    table fails its checks is refused alone. A POVM stack of another shape is refused before any draw."""
    ens, strat, _ = anchor
    epsilon = [e * DEG for e in (0.5, 1.0, 9.0, 2.0, -1.0)]
    block = EnsembleBlock(epsilon, [np.pi / 2, 0.3, 0.3, np.pi / 5, 1.0], 3)
    elements = np.array([strat.elements] * len(block))  # each row measured with the anchor's POVM
    elements[3] = 0.0  # a table that does not sum to 1
    counts, refusals = run_oracle(block, elements, MIN_TRIALS, 40)
    assert counts.dtype == np.int64 and counts.shape == (5, 4, 4)
    assert refusals[2] is block.refusals[2] and type(refusals[3]) is DomainError and "sum to" in str(refusals[3])
    assert not counts[[2, 3]].any() and (counts[[0, 1, 4]].sum(axis=(1, 2)) == MIN_TRIALS).all()
    for r in (0, 1, 4):
        point = AttackEnsemble(epsilon[r], block.delta[r], 3)
        own = run_oracle(point, dataclasses.replace(strat, ensemble=point), MIN_TRIALS, 40 + r)
        assert np.array_equal(counts[r], _cell_counts(own))
        assert mcoracle.estimate_ratios(counts[r:r + 1], MIN_TRIALS) == [(own.qber_hat, own.p_succ_hat)]
    monkeypatch.setattr(mcoracle, "_draw", _no_draw)
    with pytest.raises(DimensionMismatchError, match=r"^elements shape \(5, 3, 2, 2\) is not \(5, 3, 3, 3\)$"):
        run_oracle(block, np.zeros((5, 3, 2, 2)), MIN_TRIALS, 40)
    with pytest.raises(DomainError, match="below minimum trial count"):
        run_oracle(block, elements, 10, 40)

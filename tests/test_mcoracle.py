import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle_reference import run_trial, sample_povm_outcome, simulate_bob
from pfmattack.attack import ERROR_WEIGHTS, PovmStrategy, build_suboptimal_povm, evaluate
from pfmattack import mcoracle
from pfmattack.errors import DimensionMismatchError, DomainError, NegativeProbabilityError
from pfmattack.mcoracle import MIN_TRIALS, outcome_probabilities, run_oracle, simulate_intercept_resend
from pfmattack.statespace import AttackEnsemble, bb84_ensemble, build_ensemble

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
    this count. The blocked cell must be that one. With the error cell last
    instead, the error counts of states 0 and 3 read 0 at both points, 3.8
    sigma low at 1e-3 and 8.6 sigma low at 1.5e-3 (seed 5).
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
    ens, strat, _ = anchor
    estimate = run_oracle(ens, strat, 50_000, seed=55)
    with pytest.raises(dataclasses.FrozenInstanceError):
        estimate.qber_hat = 0.0


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
        1000017, 0.1443210930828352, 0.0023459601186779826, 0.010269324337658056, 4.837785446579777e-05, 11,
        2346, 1171, 169, (249692, 250794, 249200, 250331), (989, 165, 164, 1028), (472, 80, 75, 544),
        (41, 46, 40, 42),
    ),
    ("pfm", 0.1, np.pi / 8, 12): (
        1000017, float("nan"), 0.0, float("nan"), 0.0, 12,
        0, 0, 0, (249422, 250262, 250347, 249986), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("pfm", 5.0, np.pi / 2, 13): (
        1000017, 0.14315644856603127, 0.05846700606089696, 0.002052569290864547, 0.0002346224189045482, 13,
        58468, 29115, 4168, (249579, 249392, 251150, 249896), (24715, 4281, 4354, 25118),
        (12370, 2091, 2095, 12559), (903, 1192, 1213, 860),
    ),
    ("remap", 0.0, np.pi / 4, 14): (
        1000017, 0.17577841059715915, 0.23419501868468237, 0.0011130861674684247, 0.00042349104246570767, 14,
        234199, 116937, 20555, (249766, 250147, 250285, 249819), (90206, 27151, 27364, 89478),
        (45278, 13519, 13655, 44485), (3405, 6925, 6851, 3374),
    ),
}
GOLDEN_INTERCEPT_RESEND = (
    1000017, 0.25051633167587367, 1.0, 0.0006126935777565174, 0.0, 15,
    1000017, 500163, 125299, (250100, 250339, 250261, 249317), (250100, 250339, 250261, 249317),
    (124718, 125236, 124975, 125234), (31056, 31592, 31166, 31485),
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: f"{case[0]}-{case[1]}deg-{case[2]:.4f}")
def test_golden_counts(case):
    """This version's seeded stream, pinned field by field: a faster draw may not move a single count.

    The stream draws the state counts and then each state's outcome counts
    from their multinomial laws, so its numbers differ from those of
    versions that drew round by round. A run with no sifted round has nan
    e_B and stderr, which only a nan-aware comparison can pin; every other
    field is compared exactly.
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

"""Monte Carlo check of the closed-form QBER and success probability.

Simulates the sifted protocol end to end: the sender draws one of the four
states, the eavesdropper samples her POVM, resends a standard BB84 state on a
conclusive outcome (blocks otherwise), the receiver measures in a uniformly
random basis, and rounds are sifted on the sender/receiver basis match. The
estimates converge on the closed forms reported by `attack.evaluate`, which
is the point: the two paths share no code beyond the POVM elements themselves.

Rounds are independent, so the counts of n_trials rounds over the 16
(state, outcome) pairs follow a multinomial law exactly, and a run draws
them from it in one call instead of drawing round by round. The outcomes
are conclusive but not sifted, sifted and correct, error, blocked; the pair
(k, c) has probability cells[k, c] / 4, since each state is 1/4 likely.
That is the law of splitting the rounds over the states and then each
state's rounds over its outcomes, which earlier versions drew in five
calls: a multinomial's counts summed over groups of cells are multinomial,
and given those sums each group's counts are multinomial over the group's
probabilities renormalized. The one call takes ~3.3-4.0 us a run against
~13-15 us for the five (timing loops at 1e5 and 2**63 - 1 trials, (1 deg,
pi/2), 2 vCPUs, Python 3.11.7, numpy 2.4.6). The eavesdropper's and the
receiver's laws enter only through those probabilities, so a run makes the
same generator call and holds the same few arrays at any trial count.
Seeded `run_oracle` numbers differ from versions that drew round by round
or state by state. The per-round scalar reference that this law is checked
against, and numpy's state-by-state form of it, live in the test suite
(tests/oracle_reference.py).

`run_oracle` also takes a block, an `EnsembleBlock` and its elements as one
array, row r seeded seed + r, as a sweep block needs, and returns the counts
as one array. Each step before the draw (the states, the outcome tables and
their checks, the resend and cell tables) is written once over leading axes:
a single call runs it on one point, a block on all of its rows at once. Only the multinomial runs row by row, on one generator set to
each row's default_rng(seed + r) state, so each row's counts equal its own
call's. That state re-derives numpy's seeding: SeedSequence's entropy mixing
(mix_entropy) for all of a block's later rows at once as uint32 array
operations, then generate_state's output hash and PCG64's seeding (see
_generators); test_mcoracle's
test_generators_start_in_each_seeds_default_rng_state holds it to numpy's
own for seeds up to 320 bits.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NegativeProbabilityError, PfmAttackError
from .attack import PovmStrategy, require_built_for
from .statespace import AttackEnsemble, EnsembleBlock, frozen, iterable

#: Below this many trials the binomial error bars are too wide to be useful.
MIN_TRIALS = 10_000
#: The most trials a run takes: the multinomial draw of the (state, outcome) counts takes an int64.
MAX_TRIALS = 2**63 - 1

_PROB_ATOL = 1e-9

_K = np.arange(4)
#: [k, r]: states k and r lie in one basis; basis 0 holds states {0, 2}, basis 1 holds {1, 3}.
_SAME_BASIS = _K[:, None] % 2 == _K % 2
#: [k, r]: the error rate of a sifted round in which state r was resent for state k. The receiver
#: measures in the sender's basis: a resent state in that basis gives its own bit, one in the other
#: basis a fair coin.
_ERROR_GIVEN_SIFTED = np.where(_SAME_BASIS, _K[:, None] != _K, 0.5)


def _hash_chain(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants (xor, mul), each (count,) uint32, of SeedSequence's hashmix calls start to start + count - 1:
    call m maps a word v to (v ^ h_m) * h_(m+1) mod 2**32, then xors in its top 16 bits, h_m = init * mult**m."""
    h = np.array([init * pow(mult, m, 2**32) % 2**32 for m in range(start, start + count + 1)], dtype=np.uint32)
    return h[:-1], h[1:]


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix over uint32 arrays: (words ^ xor) * mul, then its top 16 bits xored into its low."""
    words = words ^ xor
    words *= mul
    words ^= words >> 16
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix over uint32 arrays: 0xca01f9dd x - 0x4973f715 y mod 2**32, its top 16 bits xored in."""
    words = x * _MIX_MULT_L
    words -= y * _MIX_MULT_R
    words ^= words >> 16
    return words


#: numpy's SeedSequence(seed).pool from the seed's 32-bit entropy words (mix_entropy): hashmix call m (hash constants
#: 0x43b0d7e5 * 0x931e8875**m) takes the first four words, zero-padded, into the pool; then each pool word's hashmix
#: is mixed into each other word, source-major (calls 4-15); then each further word w_i, i >= 4, is mixed into every
#: pool word (calls 4i to 4i + 3). No constant depends on the seed.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MIX_A = (0x43B0D7E5, 0x931E8875)
_MIX_FIRST = tuple(array[:, None] for array in _hash_chain(*_MIX_A, 0, 4))
_MIX_POOL = tuple(array.reshape(4, 3, 1) for array in _hash_chain(*_MIX_A, 4, 12))
_OTHERS = [np.array([dst for dst in range(4) if dst != src]) for src in range(4)]
#: numpy's seeding of a default_rng from its SeedSequence pool: generate_state's output hash makes word m = 4j + i
#: the hashmix of pool[i] with h_m = 0x8B51F9DD * 0x58F38DED**m; then PCG64's LCG multiplier and mask
_HASH_XOR, _HASH_MUL = (array.reshape(2, 4) for array in _hash_chain(0x8B51F9DD, 0x58F38DED, 0, 8))
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1


@dataclass(frozen=True)
class OracleEstimate:
    """Aggregated estimates with binomial standard errors.

    The *_by_state tuples split the counts by sender state k = 0..3 and sum to
    the aggregates; errors <= sifted <= conclusive <= trials holds per state.
    """

    n_trials: int
    qber_hat: float
    p_succ_hat: float
    stderr_qber: float
    stderr_p_succ: float
    rng_seed: int
    n_conclusive: int
    n_sifted: int
    n_errors: int
    trials_by_state: tuple[int, ...]
    conclusive_by_state: tuple[int, ...]
    sifted_by_state: tuple[int, ...]
    errors_by_state: tuple[int, ...]


def _tables(states: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, list[PfmAttackError | None]]:
    """The outcome tables of n POVMs, each on its own states: (probs (n, ..., 3), per POVM its refusal or None).

    states (n, ..., d) and elements (n, 3, d, d) give probs[r] = <v|M_b|v> over
    states[r] and elements[r], in one contraction. A table with a negative
    or NaN probability is refused with NegativeProbabilityError, then one with
    a row that does not sum to 1 with DomainError; NaN fails both. The
    tables are clipped at 0, so a probability within _PROB_ATOL below it
    reads 0.
    """
    probs = np.einsum("n...i,nbij,n...j->n...b", states.conj(), elements, states).real
    n = len(probs)
    sums = probs.sum(axis=-1)
    lowest = probs.reshape(n, -1).min(axis=1).tolist()
    deviation = np.abs(sums - 1.0).reshape(n, -1).max(axis=1).tolist()
    refusals: list[PfmAttackError | None] = []
    for low, off, row_sums in zip(lowest, deviation, sums):
        if not low >= -_PROB_ATOL:
            refusals.append(NegativeProbabilityError(f"outcome probability {low:.3e} is negative or NaN"))
        elif not off <= _PROB_ATOL:
            refusals.append(DomainError(f"outcome probabilities sum to {row_sums}, expected 1"))
        else:
            refusals.append(None)
    return np.maximum(probs, 0.0), refusals


def outcome_probabilities(states: np.ndarray, strat: PovmStrategy) -> np.ndarray:
    """Probabilities (..., 3) of the outcomes M_0, M_3, M_vac on a pure state (d,) or a stack of them (..., d).

    A negative probability raises NegativeProbabilityError, a sum off 1 DomainError; NaN fails both.
    """
    probs, (refusal,) = _tables(np.asarray(states, dtype=complex)[None], strat.elements[None])
    if refusal is not None:
        raise refusal
    return probs[0]


def _as_int(name: str, value) -> int:
    """value as an int, or DomainError for a bool or a non-integer."""
    if isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def check_run(n_trials, seed) -> tuple[int, int]:
    """(n_trials, seed) as ints, refused with DomainError before any draw unless in range.

    Both must be integers, with MIN_TRIALS <= n_trials <= MAX_TRIALS and seed >= 0.
    """
    n_trials, seed = _as_int("n_trials", n_trials), _as_int("seed", seed)
    if n_trials < MIN_TRIALS:
        raise DomainError(f"below minimum trial count: {n_trials} < {MIN_TRIALS}")
    if n_trials > MAX_TRIALS:
        raise DomainError(f"trial count {n_trials} exceeds 2**63 - 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return n_trials, seed


def _resend(probs: np.ndarray) -> np.ndarray:
    """The resend tables (..., 4, 4) of outcome tables probs (..., 4, 3).

    resend[k, r] is the probability that state r is resent for sender state
    k: M_0 resends state 0 and M_3 state 3; the rest of row k is blocked. A
    round resends state 0 when its uniform u is below p_0, state 3 when
    below p_0 + p_3, as one draw would.
    """
    resend = np.zeros(probs.shape[:-1] + (4,))
    np.minimum(probs[..., 0], 1.0, out=resend[..., 0])
    np.minimum(probs[..., 0] + probs[..., 1], 1.0, out=resend[..., 3])
    resend[..., 3] -= resend[..., 0]
    return resend


def _cells(resend: np.ndarray) -> np.ndarray:
    """The per-state cell probabilities (..., 4, 4) [state, cell] of resend tables (..., 4, 4).

    The cells are: conclusive but not sifted, sifted and correct, error,
    blocked. The receiver's basis is a fair coin, so half of the resent
    rounds are sifted, and a sifted round is an error with
    _ERROR_GIVEN_SIFTED[k, r].
    """
    p_conclusive = resend.sum(axis=-1)
    p_error = (resend * _ERROR_GIVEN_SIFTED).sum(axis=-1) / 2
    # numpy fills a multinomial's last cell with the remainder, which carries the others' rounding, so the last of a
    # run's 16 (state 3's) must be a blocked one; its probability is only range-checked, and p_conclusive may pass 1
    # by an ulp
    cells = np.empty(resend.shape)
    np.divide(p_conclusive, 2, out=cells[..., 0])
    np.subtract(cells[..., 0], p_error, out=cells[..., 1])
    cells[..., 2] = p_error
    np.maximum(1 - p_conclusive, 0, out=cells[..., 3])
    return cells


def _draw(n_trials: int, rng: np.random.Generator, probs: np.ndarray, out: np.ndarray) -> None:
    """The counts of one run's 16 (state, cell) pairs, state-major, into out (16,): one multinomial over probs (16,),
    the run's cell table flattened and scaled by 1/4, since each state is 1/4 likely. The last pair, state 3
    blocked, takes numpy's remainder."""
    out[...] = rng.multinomial(n_trials, probs)


def _pools(seeds: list[int]) -> np.ndarray:
    """numpy's SeedSequence(seed).pool (n, 4) uint32 for n seeds >= 0 of any size, as uint32 array operations.

    A seed's entropy is its little-endian 32-bit words, read from int.to_bytes; one below 2**128 is its four
    words zero-padded. The rounds of a word past the fourth run only on the rows whose seed has that word.
    """
    n_words = max(4, -(-max(seeds, default=0).bit_length() // 32))
    entropy = np.frombuffer(b"".join(seed.to_bytes(4 * n_words, "little") for seed in seeds), "<u4")
    entropy = entropy.reshape(len(seeds), n_words).T  # [word, seed]: each word's row is contiguous
    pool = _hashmix(entropy[:4], *_MIX_FIRST)
    for src, others, xor, mul in zip(range(4), _OTHERS, *_MIX_POOL):
        # the three calls of source word src read it before any of them changes another word
        pool[others] = _mix(pool[others], _hashmix(pool[src], xor, mul))
    for i in range(4, n_words):
        rows = entropy[i:].any(axis=0)  # the seeds with word i: a seed's top word is not 0
        xor, mul = _hash_chain(*_MIX_A, 4 * i, 4)
        pool[:, rows] = _mix(pool[:, rows], _hashmix(entropy[i, rows], xor[:, None], mul[:, None]))
    return pool.T


def _generators(seeds: list[int]) -> Iterator[np.random.Generator]:
    """Per seed, one Generator in np.random.default_rng(seed)'s state: made for seeds[0], then set to each later
    seed's, from its SeedSequence pool (_pools, all of the later seeds at once) by generate_state(4, np.uint64)'s
    hash and PCG64's seeding. This re-derives numpy's seeding, which
    test_mcoracle.test_generators_start_in_each_seeds_default_rng_state holds to numpy's own for seeds up to 320
    bits; a single run makes only its default_rng."""
    rng = np.random.default_rng(seeds[0])
    yield rng
    words = _hashmix(_pools(seeds[1:])[:, None, :], _HASH_XOR, _HASH_MUL)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for w0, w1, w2, w3 in words.reshape(-1, 8).astype("<u4").view("<u8").tolist():  # pairs, low word first
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128  # (initseq << 1) | 1, initseq = w2 << 64 | w3
        state["state"] = {"state": ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        rng.bit_generator.state = state
        yield rng


def _counts(n_trials: int, seeds: list[int], cells: np.ndarray) -> np.ndarray:
    """The counts (n, 4, 4) [run, state, cell] of one run of n_trials rounds per seed: run r is drawn from the cell
    table cells[r] (n, 4, 4) with seeds[r]."""
    counts = np.empty((len(seeds), 4, 4), dtype=np.int64)
    probs = cells.reshape(-1, 16) * 0.25
    # zip pulls its iterables left to right, so the generators run only for rows that exist: a single call makes one
    for probs_r, out, rng in zip(probs, counts.reshape(-1, 16), _generators(seeds)):
        _draw(n_trials, rng, probs_r, out)
    return counts


def _ratios(n_errors: int, n_sifted: int, n_conclusive: int, n_trials: int) -> tuple[float, float]:
    """(qber_hat, p_succ_hat) of a run's counts, each one Python int division, correctly rounded: a count up to
    2**63 - 1 made a float first would be rounded twice. qber_hat is nan with no round sifted."""
    return n_errors / n_sifted if n_sifted else math.nan, n_conclusive / n_trials


def estimate_ratios(counts: np.ndarray, n_trials: int) -> list[tuple[float, float]]:
    """Per run of counts (n, 4, 4) [run, state, cell] of n_trials rounds: (qber_hat, p_succ_hat), as its
    OracleEstimate holds them."""
    return [_ratios(errors, correct + errors, not_sifted + correct + errors, n_trials)
            for not_sifted, correct, errors, _ in counts.sum(axis=1).tolist()]


def _estimate(n_trials: int, seed: int, counts: np.ndarray) -> OracleEstimate:
    """The estimate of one run's counts (4, 4) [state, cell], seeded seed."""
    # by state, the rounds that reached at least: an error, sifted, conclusive, any cell
    errors, sifted, conclusive, trials = map(tuple, counts.take([2, 1, 0, 3], axis=1).cumsum(axis=1).T.tolist())
    n_sifted, n_errors, n_conclusive = sum(sifted), sum(errors), sum(conclusive)
    e_hat, p_hat = _ratios(n_errors, n_sifted, n_conclusive, n_trials)
    return frozen(
        OracleEstimate, n_trials=n_trials, qber_hat=e_hat, p_succ_hat=p_hat,
        stderr_qber=math.sqrt(e_hat * (1 - e_hat) / n_sifted) if n_sifted else math.nan,
        stderr_p_succ=math.sqrt(p_hat * (1 - p_hat) / n_trials), rng_seed=seed,
        n_conclusive=n_conclusive, n_sifted=n_sifted, n_errors=n_errors, trials_by_state=trials,
        conclusive_by_state=conclusive, sifted_by_state=sifted, errors_by_state=errors,
    )


def run_oracle(
    ens: AttackEnsemble | EnsembleBlock,
    strat: PovmStrategy | np.ndarray,
    n_trials: int,
    seed: int,
) -> OracleEstimate | tuple[np.ndarray, list[PfmAttackError | None]]:
    """Estimate QBER and success probability from n_trials simulated rounds.

    Reproducible for a fixed seed; time and memory do not grow with n_trials.
    QBER counts errors among sifted conclusive rounds, the success
    probability counts conclusive rounds over all trials. A strategy built for
    another point is refused before any round is drawn (see
    `attack.require_built_for`).

    ens may also be an EnsembleBlock of n rows and strat their POVM elements
    (n, 3, dim, dim), as a PovmBlock holds them: the block form, row r seeded
    seed + r. It returns (counts, refusals) and makes no per-row object:
    counts (n, 4, 4) int64 [row, state, cell], the cells being conclusive
    but not sifted, sifted and correct, error, blocked; refusals[r] None or
    the row's PfmAttackError (the block's own, or its outcome table's), a
    refused row keeping zero counts. `estimate_ratios` turns counts into
    each row's (qber_hat, p_succ_hat). n_trials and seed are checked once,
    before any draw, in either form. A block's states, outcome tables,
    checks and cell tables are formed stacked on one leading axis; only the
    multinomial is per row, on one generator (_generators). A single call
    forms its one row's tables by the same functions, from ens.states. Any
    other ens is a DomainError that names its type.
    """
    if isinstance(ens, AttackEnsemble):
        # not a batch of one, which took ~130 us against ~100 us here (fresh (1 deg, pi/2) point, 1e7 trials, 2 vCPUs):
        # pfm_states over arrays of one and the row bookkeeping; ens.states is bit-identical to a stacked row
        require_built_for(ens, strat)
        n_trials, seed = check_run(n_trials, seed)
        cells = _cells(_resend(outcome_probabilities(ens.states, strat)))
        return _estimate(n_trials, seed, _counts(n_trials, [seed], cells[None])[0])
    if not isinstance(ens, EnsembleBlock):
        raise DomainError(f"ens must be an AttackEnsemble or an EnsembleBlock, got {type(ens).__name__}")
    if not iterable(strat):
        raise DomainError(f"strat must be iterable, got {type(strat).__name__}")
    try:
        elements = np.asarray(strat, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond double range
        raise DomainError(f"elements must be numbers: {exc}") from None
    if elements.shape != (len(ens), 3, ens.dim, ens.dim):
        raise DimensionMismatchError(f"elements shape {elements.shape} is not ({len(ens)}, 3, {ens.dim}, {ens.dim})")
    n_trials, seed = check_run(n_trials, seed)
    # a row the block or its outcome table's checks refuse draws nothing and keeps zero counts
    refusals = list(ens.refusals)
    counts = np.zeros((len(ens), 4, 4), dtype=np.int64)
    rows = [r for r, refusal in enumerate(refusals) if refusal is None]
    if rows:
        probs, table_refusals = _tables(ens.states(rows), elements[rows])
        for r, refusal in zip(rows, table_refusals):
            refusals[r] = refusal
        drawn = [k for k, refusal in enumerate(table_refusals) if refusal is None]
        drawn_rows = [rows[k] for k in drawn]
        counts[drawn_rows] = _counts(n_trials, [seed + r for r in drawn_rows], _cells(_resend(probs[drawn])))
    return counts, refusals

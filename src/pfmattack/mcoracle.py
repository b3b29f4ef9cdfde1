"""Monte Carlo check of the closed-form QBER and success probability.

Simulates the sifted protocol end to end: the sender draws one of the four
states, the eavesdropper samples her POVM, resends a standard BB84 state on a
conclusive outcome (blocks otherwise), the receiver measures in a uniformly
random basis, and rounds are sifted on the sender/receiver basis match. The
estimates converge on the closed forms reported by `attack.evaluate`, which
is the point: the two paths share no code beyond the POVM elements themselves.

A round is a candidate when its uniform draw u is below p_max = max_k
p_conclusive[k]; every other round is blocked whatever its state. A round's
state and its u are independent, so a run draws the number of candidates
from one binomial, simulates only those (each with a state drawn uniformly
and u uniform on [0, p_max)), and splits the blocked rest over the four
states with one multinomial. The per-state counts have exactly the law of a
per-round draw. A run thus costs about n_trials * p_max simulated rounds plus
the two draws; seeded `run_oracle` numbers differ from versions that drew
every round. Candidates are drawn CHUNK_TRIALS at a time and only their
counts are kept, so an oracle run holds the same fraction of a megabyte at
any trial count. The per-round scalar reference that this vectorized law is
checked against lives in the test suite (tests/oracle_reference.py).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeProbabilityError
from .attack import PovmStrategy, require_built_for
from .statespace import AttackEnsemble

#: Below this many trials the binomial error bars are too wide to be useful.
MIN_TRIALS = 10_000

#: Candidate rounds drawn per chunk; an oracle run's memory is proportional to this, not to n_trials.
CHUNK_TRIALS = 1 << 14

_PROB_ATOL = 1e-9


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


def outcome_probabilities(states: np.ndarray, strat: PovmStrategy) -> np.ndarray:
    """Probabilities (..., 3) of the outcomes M_0, M_3, M_vac on a pure state (d,) or a stack of them (..., d).

    A negative probability raises NegativeProbabilityError, a sum off 1 DomainError; NaN fails both.
    """
    states = np.asarray(states, dtype=complex)
    probs = np.einsum("...i,bij,...j->...b", states.conj(), strat.elements, states).real
    if not probs.min() >= -_PROB_ATOL:
        raise NegativeProbabilityError(f"outcome probability {probs.min():.3e} is negative or NaN")
    sums = probs.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= _PROB_ATOL):
        raise DomainError(f"outcome probabilities sum to {sums}, expected 1")
    return np.clip(probs, 0.0, None)


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

    Both must be integers, with MIN_TRIALS <= n_trials < 2**63 (the binomial
    draw of the candidate rounds takes an int64) and seed >= 0.
    """
    n_trials, seed = _as_int("n_trials", n_trials), _as_int("seed", seed)
    if n_trials < MIN_TRIALS:
        raise DomainError(f"below minimum trial count: {n_trials} < {MIN_TRIALS}")
    if n_trials > np.iinfo(np.int64).max:
        raise DomainError(f"trial count {n_trials} exceeds 2**63 - 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return n_trials, seed


def _receive(fair: np.ndarray, resend: np.ndarray, conclusive: np.ndarray) -> np.ndarray:
    """The receiver's side of a chunk of rounds, as one code k + 4 * level per round.

    level is 0 for a blocked round, 1 conclusive, 2 also sifted, 3 also an
    error. fair holds one random byte per round: bits 0-1 are the sender's
    state k, bit 2 the receiver's basis, and bit 3 the receiver's outcome when
    the resent state lies outside the measured basis. resend is the resent
    state (0..3) and counts only where conclusive. Basis 0 holds states
    {0, 2}, basis 1 holds {1, 3}. All arithmetic is on uint8 bit masks.
    """
    alice = fair & 3
    bob_basis = (fair >> 2) & 1
    coin = (fair >> 3) & 1
    on_basis = (resend & 1) == bob_basis
    # the resent bit where on_basis, else the coin (np.where is an order of magnitude slower here)
    bit = coin ^ (((resend >> 1) ^ coin) & on_basis)
    sifted = conclusive & ((alice & 1) == bob_basis)
    errors = sifted & (bit ^ (alice >> 1))
    return alice + 4 * (conclusive.view(np.uint8) + sifted + errors)


def _stream(
    n_trials: int,
    seed: int,
    p_candidate: float,
    rounds: Callable[[np.random.Generator, np.ndarray], np.ndarray],
) -> OracleEstimate:
    """Count n_trials rounds per state and level, simulating only the candidates, CHUNK_TRIALS at a time.

    A round is a candidate with probability p_candidate, whatever its state;
    the others are blocked (level 0). The number of candidates is one
    binomial draw, skipped when p_candidate >= 1. Each chunk of candidates
    draws one byte per round (fair, see `_receive`), and rounds(rng, fair)
    draws whatever else the round law needs and returns the round codes (see
    `_receive`). One multinomial spreads the blocked rounds over the states.
    """
    rng = np.random.default_rng(seed)
    n_cand = n_trials if p_candidate >= 1 else int(rng.binomial(n_trials, p_candidate))
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, n_cand, CHUNK_TRIALS):
        fair = rng.integers(0, 256, min(CHUNK_TRIALS, n_cand - start), dtype=np.uint8)
        counts += np.bincount(rounds(rng, fair), minlength=16)
    counts[:4] += rng.multinomial(n_trials - n_cand, [0.25] * 4)
    by_level = counts.reshape(4, 4)  # [level, state]
    trials = tuple(int(c) for c in by_level.sum(axis=0))
    # rows of at_least, by state: rounds that reached at least level 1, 2, 3; level 0 (every round) is trials
    at_least = np.cumsum(by_level[:0:-1], axis=0)[::-1]
    conclusive, sifted, errors = (tuple(int(c) for c in row) for row in at_least)
    n_conclusive, n_sifted, n_errors = sum(conclusive), sum(sifted), sum(errors)

    p_hat = n_conclusive / n_trials
    if n_sifted > 0:
        e_hat = n_errors / n_sifted
        stderr_e = float(np.sqrt(e_hat * (1.0 - e_hat) / n_sifted))
    else:
        e_hat = float("nan")
        stderr_e = float("nan")
    stderr_p = float(np.sqrt(p_hat * (1.0 - p_hat) / n_trials))
    return OracleEstimate(
        n_trials=n_trials,
        qber_hat=e_hat,
        p_succ_hat=p_hat,
        stderr_qber=stderr_e,
        stderr_p_succ=stderr_p,
        rng_seed=seed,
        n_conclusive=n_conclusive,
        n_sifted=n_sifted,
        n_errors=n_errors,
        trials_by_state=trials,
        conclusive_by_state=conclusive,
        sifted_by_state=sifted,
        errors_by_state=errors,
    )


def run_oracle(ens: AttackEnsemble, strat: PovmStrategy, n_trials: int, seed: int) -> OracleEstimate:
    """Estimate QBER and success probability from n_trials simulated rounds.

    Reproducible for a fixed seed; memory does not grow with n_trials. QBER
    counts errors among sifted conclusive rounds, the success probability
    counts conclusive rounds over all trials. A strategy built for another
    point is refused before any round is drawn (see `attack.require_built_for`).
    """
    require_built_for(ens, strat)
    n_trials, seed = check_run(n_trials, seed)
    prob_table = outcome_probabilities(ens.states, strat)
    p_0 = prob_table[:, 0]
    p_conclusive = p_0 + prob_table[:, 1]
    # a round with u >= p_max is blocked whatever its state; the binomial takes no p above 1
    p_max = min(float(p_conclusive.max()), 1.0)

    def rounds(rng: np.random.Generator, fair: np.ndarray) -> np.ndarray:
        u = rng.random(fair.size)  # float64, so that p_succ far below 1/n_trials stays resolved
        u *= p_max  # a candidate's u is uniform on [0, p_max)
        k = (fair & 3).astype(np.intp)  # gathers index faster with intp than with uint8
        # M_0 resends state 0, M_3 resends state 3
        resend = (u >= p_0[k]).view(np.uint8) * np.uint8(3)
        return _receive(fair, resend, u < p_conclusive[k])

    return _stream(n_trials, seed, p_max, rounds)


def simulate_intercept_resend(n_trials: int, seed: int) -> OracleEstimate:
    """Oracle for the plain intercept-and-resend attack on ideal BB84.

    The eavesdropper measures every round in a uniformly random basis and
    resends her outcome state, so every round is conclusive and the sifted
    QBER converges on 1/4.
    """
    n_trials, seed = check_run(n_trials, seed)

    def rounds(rng: np.random.Generator, fair: np.ndarray) -> np.ndarray:
        alice = fair & 3
        # bits 4-5: the eavesdropper's basis, and her outcome when that basis is not the sender's
        guess = (fair >> 4) & 3
        resend = np.where((alice ^ guess) & 1, guess, alice)
        return _receive(fair, resend, np.ones(fair.size, dtype=bool))

    return _stream(n_trials, seed, 1.0, rounds)

"""Monte Carlo check of the closed-form QBER and success probability.

Simulates the sifted protocol end to end: the sender draws one of the four
states, the eavesdropper samples her POVM, resends a standard BB84 state on a
conclusive outcome (blocks otherwise), the receiver measures in a uniformly
random basis, and rounds are sifted on the sender/receiver basis match. The
estimates converge on the closed forms reported by `attack.evaluate`, which
is the point: the two paths share no code beyond the POVM elements themselves.

Rounds are independent, so the per-state counts of n_trials rounds follow a
multinomial law exactly, and a run draws them from it instead of drawing
round by round: one multinomial splits the rounds over the four states, and
one per state splits its rounds over four outcomes (conclusive but not
sifted, sifted and correct, error, blocked). The eavesdropper's and the
receiver's laws enter only through those outcome probabilities, so a run
makes the same two generator calls and holds the same few arrays at any
trial count. Seeded `run_oracle` numbers differ from versions that drew
round by round. The per-round scalar reference that this law is checked
against lives in the test suite (tests/oracle_reference.py).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeProbabilityError
from .attack import PovmStrategy, require_built_for
from .statespace import AttackEnsemble

#: Below this many trials the binomial error bars are too wide to be useful.
MIN_TRIALS = 10_000

_PROB_ATOL = 1e-9

_K = np.arange(4)
#: [k, r]: states k and r lie in one basis; basis 0 holds states {0, 2}, basis 1 holds {1, 3}.
_SAME_BASIS = _K[:, None] % 2 == _K % 2
#: [k, r]: the error rate of a sifted round in which state r was resent for state k. The receiver
#: measures in the sender's basis: a resent state in that basis gives its own bit, one in the other
#: basis a fair coin.
_ERROR_GIVEN_SIFTED = np.where(_SAME_BASIS, _K[:, None] != _K, 0.5)


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
    lowest = probs.min()
    if not lowest >= -_PROB_ATOL:
        raise NegativeProbabilityError(f"outcome probability {lowest:.3e} is negative or NaN")
    sums = probs.sum(axis=-1)
    if not np.abs(sums - 1.0).max() <= _PROB_ATOL:
        raise DomainError(f"outcome probabilities sum to {sums}, expected 1")
    return np.clip(probs, 0.0, None) if lowest < 0 else probs


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

    Both must be integers, with MIN_TRIALS <= n_trials < 2**63 (the multinomial
    draw of the state counts takes an int64) and seed >= 0.
    """
    n_trials, seed = _as_int("n_trials", n_trials), _as_int("seed", seed)
    if n_trials < MIN_TRIALS:
        raise DomainError(f"below minimum trial count: {n_trials} < {MIN_TRIALS}")
    if n_trials > np.iinfo(np.int64).max:
        raise DomainError(f"trial count {n_trials} exceeds 2**63 - 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return n_trials, seed


def _draw(n_trials: int, seed: int, resend: np.ndarray) -> OracleEstimate:
    """Count n_trials rounds by sender state and outcome: one multinomial for the states, then one per state.

    resend[k, r] is the probability that the eavesdropper resends state r
    when the sender prepared state k; the rest of row k is blocked. The
    receiver's basis is a fair coin, so half of the resent rounds are sifted,
    and a sifted round is an error with _ERROR_GIVEN_SIFTED[k, r].
    """
    rng = np.random.default_rng(seed)
    p_conclusive = resend.sum(axis=1)
    p_error = (resend * _ERROR_GIVEN_SIFTED).sum(axis=1) / 2
    # cells per state: conclusive but not sifted, sifted and correct, error, blocked. numpy fills the last
    # cell with the remainder, which carries the others' rounding, so it must be the blocked one; its
    # probability is only range-checked, and p_conclusive may pass 1 by an ulp
    cells = np.empty((4, 4))
    np.divide(p_conclusive, 2, out=cells[:, 0])
    np.subtract(cells[:, 0], p_error, out=cells[:, 1])
    cells[:, 2] = p_error
    np.maximum(1 - p_conclusive, 0, out=cells[:, 3])
    counts = rng.multinomial(rng.multinomial(n_trials, [0.25] * 4), cells)  # [state, cell]
    # by state, the rounds that reached at least: an error, sifted, conclusive, any cell
    errors, sifted, conclusive, trials = map(tuple, counts[:, [2, 1, 0, 3]].cumsum(axis=1).T.tolist())
    n_sifted, n_errors = sum(sifted), sum(errors)
    p_hat = sum(conclusive) / n_trials
    e_hat = n_errors / n_sifted if n_sifted else math.nan
    return OracleEstimate(
        n_trials=n_trials, qber_hat=e_hat, p_succ_hat=p_hat,
        stderr_qber=math.sqrt(e_hat * (1 - e_hat) / n_sifted) if n_sifted else math.nan,
        stderr_p_succ=math.sqrt(p_hat * (1 - p_hat) / n_trials), rng_seed=seed,
        n_conclusive=sum(conclusive), n_sifted=n_sifted, n_errors=n_errors, trials_by_state=trials,
        conclusive_by_state=conclusive, sifted_by_state=sifted, errors_by_state=errors,
    )


def run_oracle(ens: AttackEnsemble, strat: PovmStrategy, n_trials: int, seed: int) -> OracleEstimate:
    """Estimate QBER and success probability from n_trials simulated rounds.

    Reproducible for a fixed seed; time and memory do not grow with n_trials.
    QBER counts errors among sifted conclusive rounds, the success
    probability counts conclusive rounds over all trials. A strategy built for
    another point is refused before any round is drawn (see
    `attack.require_built_for`).
    """
    require_built_for(ens, strat)
    n_trials, seed = check_run(n_trials, seed)
    # a round resends state 0 when its uniform u is below p_0, state 3 when below p_0 + p_3, as one draw would
    probs = outcome_probabilities(ens.states, strat)
    resend = np.zeros((4, 4))
    np.minimum(probs[:, 0], 1.0, out=resend[:, 0])
    np.minimum(probs[:, 0] + probs[:, 1], 1.0, out=resend[:, 3])
    resend[:, 3] -= resend[:, 0]
    return _draw(n_trials, seed, resend)


def simulate_intercept_resend(n_trials: int, seed: int) -> OracleEstimate:
    """Oracle for the plain intercept-and-resend attack on ideal BB84.

    The eavesdropper measures every round in a uniformly random basis and
    resends her outcome state, so every round is conclusive and the sifted
    QBER converges on 1/4.
    """
    n_trials, seed = check_run(n_trials, seed)
    # the eavesdropper's basis is a fair coin: in the sender's basis she resends state k, in the other either state
    return _draw(n_trials, seed, np.where(_SAME_BASIS, np.eye(4) / 2, 0.25))

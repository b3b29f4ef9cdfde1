"""Per-round scalar reference for the Monte Carlo oracle, and the plain intercept-resend oracle.

One protocol round at a time, in plain Python. `pfmattack.mcoracle.run_oracle`
draws the per-state counts of many such rounds at once, from their
multinomial law. Only tests use this module, to check the oracle against an
implementation that shares nothing with it beyond `outcome_probabilities`.

`reference_draw` is the oracle's count draw written from numpy alone, one
multinomial over the 16 (state, cell) pairs, which `mcoracle._counts` is
checked against bit for bit. `hierarchical_draw` is numpy's state-by-state
2-D form: the state counts, then each state's cell counts. It draws other
numbers from the same law, and is the law the one-call draw is checked
against.

`simulate_intercept_resend` is the 25 % sanity check of the acceptance
suite: the oracle's cell table, count draw and estimate (`mcoracle._cells`,
`mcoracle._counts` and `mcoracle._estimates`) run on the resend table of the plain
intercept-and-resend attack on ideal BB84.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pfmattack import mcoracle
from pfmattack.attack import PovmStrategy
from pfmattack.errors import DomainError
from pfmattack.mcoracle import OracleEstimate, outcome_probabilities
from pfmattack.statespace import AttackEnsemble

#: [k, r]: the probability that the plain intercept-resend attack resends state r for sender state k. The
#: eavesdropper's basis is a fair coin: in the sender's basis she resends state k, in the other either state.
INTERCEPT_RESEND = np.array([
    [0.5, 0.25, 0.0, 0.25],
    [0.25, 0.5, 0.25, 0.0],
    [0.0, 0.25, 0.5, 0.25],
    [0.25, 0.0, 0.25, 0.5],
])


@dataclass(frozen=True)
class TrialRecord:
    """One simulated round. error can only be set on a sifted round, and a
    sifted round requires a conclusive (non-vacuum) outcome."""

    alice_k: int
    eve_outcome: int | None
    bob_basis: int
    bob_bit: int | None
    sifted: bool
    error: bool


def sample_povm_outcome(state: np.ndarray, strat: PovmStrategy, rng: np.random.Generator) -> int | None:
    """Draw one outcome: 0, 3, or None for the vacuum (blocking) element."""
    p_0, p_3, _ = outcome_probabilities(state, strat)
    u = rng.random()
    if u < p_0:
        return 0
    if u < p_0 + p_3:
        return 3
    return None


def simulate_bob(
    resend_k: int | None, bob_basis: int, rng: np.random.Generator
) -> tuple[int | None, bool]:
    """Receiver measurement of a resent standard BB84 state.

    bob_basis 0 holds states {0, 2}, basis 1 holds {1, 3}. When the resent
    state lies in the measured basis the bit is deterministic; otherwise it is
    uniform (and survives sifting only if the eavesdropper guessed the
    sender's basis wrongly but the receiver matched the sender). Returns
    (bit, basis_match); a blocked round (resend_k None) yields (None, False).
    """
    if bob_basis not in (0, 1):
        raise DomainError(f"bob_basis must be 0 or 1, got {bob_basis!r}")
    if resend_k is None:
        return None, False
    if resend_k not in (0, 1, 2, 3):
        raise DomainError(f"resend_k must be in 0..3 or None, got {resend_k!r}")
    if resend_k % 2 == bob_basis:
        return resend_k // 2, True
    return int(rng.integers(0, 2)), False


def run_trial(ens: AttackEnsemble, strat: PovmStrategy, rng: np.random.Generator) -> TrialRecord:
    """Simulate a single protocol round."""
    alice_k = int(rng.integers(0, 4))
    eve_outcome = sample_povm_outcome(ens.states[alice_k], strat, rng)
    bob_basis = int(rng.integers(0, 2))
    if eve_outcome is None:
        return TrialRecord(alice_k, None, bob_basis, None, sifted=False, error=False)
    bit, _ = simulate_bob(eve_outcome, bob_basis, rng)
    bob_index = bob_basis + 2 * bit
    sifted = bob_basis == alice_k % 2
    error = sifted and bob_index != alice_k
    return TrialRecord(alice_k, eve_outcome, bob_basis, bit, sifted=sifted, error=error)


def reference_draw(n_trials: int, seed: int, cells: np.ndarray) -> np.ndarray:
    """The counts [state, cell] (4, 4) of one run: one multinomial over the 16 pairs, pair (k, c) cells[k, c] / 4."""
    return np.random.default_rng(seed).multinomial(n_trials, 0.25 * cells.ravel()).reshape(4, 4)


def hierarchical_draw(n_trials: int, seed: int, cells: np.ndarray) -> np.ndarray:
    """The counts [state, cell] (4, 4) of one run in numpy's 2-D form: the state counts, then one call over all states.

    Each state is 1/4 likely, and given its count its rounds split over its
    cells by cells[k]: the law of `reference_draw`, from other draws.
    """
    rng = np.random.default_rng(seed)
    return rng.multinomial(rng.multinomial(n_trials, np.full(4, 0.25)), cells)


def simulate_intercept_resend(n_trials: int, seed: int) -> OracleEstimate:
    """Oracle for the plain intercept-and-resend attack on ideal BB84.

    The eavesdropper measures every round in a uniformly random basis and
    resends her outcome state, so every round is conclusive and the sifted
    QBER converges on 1/4. The arguments are checked as `run_oracle` checks
    them (`mcoracle.check_run`), before any draw.
    """
    n_trials, seed = mcoracle.check_run(n_trials, seed)
    counts = mcoracle._counts(n_trials, [seed], mcoracle._cells(INTERCEPT_RESEND)[None])
    return mcoracle._estimates(n_trials, [seed], counts)[0]

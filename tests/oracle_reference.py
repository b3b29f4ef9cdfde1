"""Per-round scalar reference for the Monte Carlo oracle.

One protocol round at a time, in plain Python. `pfmattack.mcoracle.run_oracle`
draws the per-state counts of many such rounds at once, from their
multinomial law. Only tests use this module, to check the oracle against an
implementation that shares nothing with it beyond `outcome_probabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pfmattack.attack import PovmStrategy
from pfmattack.errors import DomainError
from pfmattack.mcoracle import outcome_probabilities
from pfmattack.statespace import AttackEnsemble


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

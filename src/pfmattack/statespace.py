"""The station's physics: the practical Faraday mirror, the fiber, and the states sent back.

The sender's station is reduced to what matters for the loophole: a
Faraday mirror whose rotator sits at 45 degrees + epsilon and (for the
compensation check only) a birefringent fiber section. With an imperfect
mirror the four returning states live in a 3-dimensional space spanned by
e_0 = |cH'>, e_1 = |cV'>, e_2 = |dV'> (a basis the eavesdropper can reach
with one unitary, because the |dH'> component vanishes identically). The
states (`pfm_states`) and the compensation residual (`verify_compensation`)
are closed forms; at epsilon = 0 the e_0 component is zero and the other two
are the bare BB84 states. The raw Jones matrix products that both closed
forms are held to live in the test suite (tests/jones_reference.py).
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError

#: Largest admissible rotator deviation (5 degrees; practical mirrors are <= 1 degree).
EPSILON_MAX = math.pi / 36
#: float first: a float (numpy's float64 included) passes without the slower abstract-class check
_REAL = (float, numbers.Real)
_SQRT2 = np.sqrt(2.0)
_K = np.arange(4)


def _domain_refusal(epsilon: float, delta: float, dim=3) -> DomainError | None:
    """The DomainError of the point (epsilon, delta, dim), real epsilon and delta, or None: in this order an epsilon
    beyond EPSILON_MAX (or nan), a delta outside [0, pi/2], a dim that is not an integer, then any dim but 3, or 2 at
    epsilon = 0."""
    if not abs(epsilon) <= EPSILON_MAX:
        return DomainError(f"|epsilon| must be <= {EPSILON_MAX:.6f} rad, got {epsilon}")
    if not 0.0 <= delta <= math.pi / 2:
        return DomainError(f"delta must lie in [0, pi/2], got {delta}")
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        return DomainError(f"dim must be an integer, got {dim!r}")
    if dim != 3 and (dim, epsilon) != (2, 0.0):
        return DomainError(f"dim must be 3, or 2 at epsilon = 0; got dim {dim}, epsilon {epsilon}")
    return None


def iterable(value) -> bool:
    """value can be iterated: an Iterable other than a 0-d ndarray, which is one by type but raises on iteration."""
    return isinstance(value, Iterable) and not (isinstance(value, np.ndarray) and value.ndim == 0)


def _real(name: str, value, finite: bool = False) -> float:
    """value as a float: DomainError unless it is a real number (not a complex or a bool), and with finite unless
    it is finite (not infinite or nan). A real beyond double range (an int or a Fraction) becomes an infinity. A
    refused non-number is named by its repr, so a string reads as one; a non-finite real by its str ("inf")."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise DomainError(f"{name} must be a {'finite ' * finite}real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(real):
        raise DomainError(f"{name} must be a finite real number, got {value}")
    return real


def set_reals(fields: dict, *names: str, finite: bool = False) -> None:
    """Replace each named entry of fields, a frozen dataclass's __dict__, with its _real float, in order."""
    for name in names:
        fields[name] = _real(name, fields[name], finite)


def frozen(cls, **fields):
    """An instance of cls (a frozen dataclass, or a block class) holding fields, each set once and unchecked: what
    cls(**fields) makes of fields that its checks would pass, without the cost of its __init__."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


@dataclass(frozen=True)
class FaradayMirror:
    """Faraday rotator at angle pi/4 + epsilon followed by an ordinary mirror; epsilon is real."""

    epsilon: float

    def __post_init__(self):
        set_reals(self.__dict__, "epsilon")
        refusal = _domain_refusal(self.epsilon, 0.0)
        if refusal is not None:
            raise refusal


@dataclass(frozen=True)
class BirefringentChannel:
    """Fiber section with eigenmode rotation theta_prime and propagation phases phi_o, phi_e (finite, real)."""

    theta_prime: float
    phi_o: float
    phi_e: float

    def __post_init__(self):
        set_reals(self.__dict__, "theta_prime", "phi_o", "phi_e", finite=True)


def verify_compensation(ch: BirefringentChannel, fm: FaradayMirror) -> float:
    """Frobenius residual || T(-theta') M T(theta') - e^{i(phi_o + phi_e)} M ||_F of the compensation identity.

    T(theta') = R D R^T is one fiber pass (R the rotation by theta', D = diag(e^{i phi_o}, e^{i phi_e})) and
    M = -(sin 2e Z + cos 2e X) the mirror. M is a reflection, so R M R = M and the difference is
    R^T (D M D - e^{i(phi_o + phi_e)} M) R^T = -sin 2e (e^{i phi_o} - e^{i phi_e}) R^T D R^T,
    of norm sqrt(2) |sin 2e| |e^{i phi_o} - e^{i phi_e}|.

    So the residual does not depend on theta', is exactly 0 for the ideal mirror FaradayMirror(0.0), and is
    positive for an imperfect one unless phi_o = phi_e mod 2 pi. Each phase enters through its own
    exponential, never through a rounded sum, so the value is exact to rounding for every finite phase.
    """
    if not (isinstance(ch, BirefringentChannel) and isinstance(fm, FaradayMirror)):
        raise DomainError(f"need a BirefringentChannel, a FaradayMirror: got {type(ch).__name__}, {type(fm).__name__}")
    return math.sqrt(2) * abs(math.sin(2 * fm.epsilon)) * abs(cmath.exp(1j * ch.phi_o) - cmath.exp(1j * ch.phi_e))


@dataclass(frozen=True, init=False)
class AttackEnsemble:
    """One attack point: the key (epsilon, delta, dim) every strategy and report is checked against.

    dim 3 is the imperfect-mirror family, dim 2 the bare phase-encoded
    states (epsilon = 0 only). The domain, real epsilon and delta (stored
    as floats; not a bool) with |epsilon| <= EPSILON_MAX and
    0 <= delta <= pi/2 and an integer dim (not a float or a bool), is
    checked on construction; epsilon = 0 and
    delta = 0 are accepted (the states are well defined there even though
    the span collapses), and the attack construction rejects the collapsed
    cases.

    states[k], the unit vector prepared for phase index k, is computed on
    first access and read-only: the last dim components of `pfm_states`
    (at dim 2 the dropped e_0 component is zero), as `EnsembleBlock.states`
    forms them. The closed-form path and the span check never read it;
    a single oracle call does.
    """

    epsilon: float
    delta: float
    dim: int

    def __init__(self, epsilon: float, delta: float, dim: int):
        epsilon, delta = _real("epsilon", epsilon), _real("delta", delta)
        refusal = _domain_refusal(epsilon, delta, dim)
        if refusal is not None:
            raise refusal
        # the checked fields set at once: a dataclass __init__ would set each through object.__setattr__
        object.__setattr__(self, "__dict__", {"epsilon": epsilon, "delta": delta, "dim": dim})

    @cached_property
    def states(self) -> np.ndarray:
        states = pfm_states(self.epsilon, self.delta)[..., 3 - self.dim :]
        states.setflags(write=False)
        return states


def newton_step(delta: float, k) -> np.ndarray:
    """(e^{ik delta} - 1) / (i delta) = sin(k delta/2) / (delta/2) e^{ik delta/2}: no cancellation, k at delta = 0."""
    half = np.multiply(k, delta / 2)
    return k * np.sinc(half / np.pi) * np.exp(1j * half)


def distinct_floats(values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """(distinct, slots) of a 1-d float64 array: its distinct values as floats, in order of first appearance, and
    the index (n,) of each value among them, so that distinct[slots[r]] is values[r]. Values are told apart by
    their bits, so 0.0 and -0.0, which == and a float's hash merge, are two values."""
    first: dict[int, int] = {}  # a value's bits -> its slot
    slots = [first.setdefault(bits, len(first)) for bits in values.view(np.int64).tolist()]
    return np.array(list(first), np.int64).view(float).tolist(), np.array(slots, np.intp)


def pfm_states(epsilon, delta) -> np.ndarray:
    """The four attack states as rows, in the (e_0, e_1, e_2) basis: (4, 3), or (n, 4, 3) for (n,) epsilon and delta.

    (1/sqrt(2)) [ sin(2e)cos(2e) z (z - 1),  sin^2(2e) z^2 + cos^2(2e) z,  1 ]
    with z = e^{ik delta} for row k; unit norm for every (epsilon, delta, k).
    Point r of a stack is bit-identical to pfm_states(epsilon[r], delta[r]):
    s and c come from math, since numpy's sin and cos may differ from libm's
    in the last bit, once per distinct epsilon of a stack (distinct_floats),
    and every product is formed in the same order.
    """
    if isinstance(epsilon, _REAL):
        s, c = math.sin(2 * epsilon), math.cos(2 * epsilon)
    else:
        values, slots = distinct_floats(np.asarray(epsilon, float))
        sin_cos = [(math.sin(2 * e), math.cos(2 * e)) for e in values]
        s, c = np.array(sin_cos, float).reshape(-1, 2)[slots].T[:, :, None]
        delta = np.asarray(delta, float)[:, None]
    z = np.exp(1j * delta * _K)
    states = np.empty(z.shape + (3,), dtype=complex)
    states[..., 0] = s * c * z * (1j * delta * newton_step(delta, _K))
    states[..., 1] = s * s * z * z + c * c * z
    states[..., 2] = 1
    states /= _SQRT2
    return states


def _reals(name: str, values) -> np.ndarray:
    """values as a read-only float64 copy: DomainError unless a 1-d real-dtype ndarray or an iterable _real reads."""
    if not iterable(values):
        raise DomainError(f"{name} must be a 1-d array of real numbers, got {type(values).__name__}")
    if not isinstance(values, np.ndarray):
        try:
            values = np.array([_real(f"{name}[{k}]", value) for k, value in enumerate(values)])
        except DomainError as exc:
            raise DomainError(f"{name} must be a 1-d array of real numbers: {exc}") from None
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a 1-d array of real numbers, got shape {values.shape} of {values.dtype}")
    array = values.astype(float)
    array.setflags(write=False)
    return array


class EnsembleBlock:
    """n attack points of one dim as arrays: the block form of AttackEnsemble, which a sweep block is made of.

    epsilon and delta are 1-d arrays of reals of one length, kept as
    read-only float64 copies: an ndarray of a real numeric dtype, or an
    iterable read element by element as AttackEnsemble reads its own (a
    Fraction or an int beyond int64 is read; a bool, complex or nested
    element refuses). Anything else, None or a 0-d array included, is a
    DomainError naming it, unequal lengths a DimensionMismatchError, and
    dim is an integer shared by every cell. The domain is checked once over
    the arrays: refusals[r] is None, or the DomainError, with its message,
    that AttackEnsemble(epsilon[r], delta[r], dim) raises. A refused cell
    keeps its place, and each block form passes its refusal on. A plain
    class, not a dataclass, which would cost import time.
    """

    def __init__(self, epsilon, delta, dim: int):
        epsilon, delta = _reals("epsilon", epsilon), _reals("delta", delta)
        if len(epsilon) != len(delta):
            raise DimensionMismatchError(f"{len(epsilon)} epsilon values but {len(delta)} delta values")
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise DomainError(f"dim must be an integer, got {dim!r}")
        refused = ~((np.abs(epsilon) <= EPSILON_MAX) & (0.0 <= delta) & (delta <= math.pi / 2))
        if dim != 3:
            refused |= (epsilon != 0.0) | (dim != 2)
        self.epsilon, self.delta, self.dim = epsilon, delta, dim
        self.refusals: list[DomainError | None] = [None] * len(epsilon)
        for r in np.flatnonzero(refused).tolist():
            self.refusals[r] = _domain_refusal(epsilon[r].item(), delta[r].item(), dim)

    def __len__(self) -> int:
        return len(self.refusals)

    def take(self, rows: list[int]) -> EnsembleBlock:
        """The block of the cells rows, in that order, each with its refusal, not checked again."""
        epsilon, delta = self.epsilon[rows], self.delta[rows]
        epsilon.setflags(write=False)
        delta.setflags(write=False)
        return frozen(EnsembleBlock, epsilon=epsilon, delta=delta, dim=self.dim,
                      refusals=[self.refusals[r] for r in rows])

    def states(self, rows: list[int]) -> np.ndarray:
        """The states (len(rows), 4, dim) of the cells rows, in one `pfm_states` call: each row is its point's
        AttackEnsemble.states, bit for bit. rows name cells that no refusal holds."""
        return pfm_states(self.epsilon[rows], self.delta[rows])[..., 3 - self.dim :]


def build_ensemble(epsilon: float, delta: float) -> AttackEnsemble:
    """The 3-dimensional attack ensemble for mirror deviation epsilon and phase step delta."""
    return AttackEnsemble(epsilon, delta, 3)


def bb84_ensemble(delta: float) -> AttackEnsemble:
    """The 2-dimensional ensemble of the bare phase-encoded states (the epsilon = 0 limit).

    This is the ensemble an eavesdropper faces with a perfect mirror, used as
    the baseline for the phase-remapping strategy.
    """
    return AttackEnsemble(0.0, delta, 2)


def span_dimension(ens: AttackEnsemble) -> int:
    """The span of the four states, fixed by the build's factorization v_k = A N w_k / sqrt(2): 1 at delta = 0, else 2
    at epsilon = 0 (either dim), else 3. N w_k = [1, z_k, z_k^2][:dim] at z_k = e^{ik delta}, four distinct points
    unless delta = 0; A swaps the two components at dim 2, and is diag(sc, 1, 1) A1 with det A1 = -1 at dim 3, so on
    the domain it is singular only where sc = sin 2e cos 2e vanishes, at epsilon = 0. The states are not read."""
    if not isinstance(ens, AttackEnsemble):
        raise DomainError(f"ensemble must be an AttackEnsemble, got {type(ens).__name__}")
    return 1 if ens.delta == 0.0 else 2 if ens.epsilon == 0.0 else 3

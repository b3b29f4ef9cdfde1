"""Eavesdropper strategies: suboptimal discrimination POVM and its figures of merit.

The strategy distinguishes state 0 from {1,2,3} and state 3 from {0,1,2} with
two rank-1 POVM elements M_b = x |y_b><y_b|. y_b is the generalized
eigenvector of the error operator L_b against the density operator rho for
the minimal generalized eigenvalue lambda_b, and x the largest factor that
keeps the vacuum element I - M_0 - M_3 positive. This is the square-root
measurement rho^(-1/2)|c_b><c_b|rho^(-1/2), written without the square root.
Conclusive outcomes are resent as standard BB84 states; everything else is
blocked and hides in channel loss. One builder, build_suboptimal_povm, serves
both attacks: the ensemble's dim is the kind (3: the passive Faraday-mirror
attack, 2: the phase-remapping baseline).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateSpanError, DimensionMismatchError, DomainError, NoConvergenceError, PfmAttackError,
                     SingularEpsilonError)
from .numkernel import hermitian_eig, hermitian_eigvalsh, require_hermitian
from .statespace import AttackEnsemble, EnsembleBlock, bb84_ensemble, frozen, newton_step, set_reals

#: Attenuation of standard telecom fiber used for the distance mapping.
FIBER_LOSS_DB_PER_KM = 0.21

#: Maximal tolerable QBER under collective attacks with one-way post-processing.
COLLECTIVE_ATTACK_QBER_LIMIT = 0.11
#: Maximal tolerable QBER with two-way post-processing.
TWO_WAY_POSTPROCESSING_QBER_LIMIT = 0.20

_PSD_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10
_COMPLETE_SQUARES = (_COMPLETENESS_TOL / 2) ** 2  # a sum of squares that puts the residual within half the tolerance
_VAC_BOUNDARY_MAX = 1e-6

#: Relative error weight of Eve's resend i when the station prepared k:
#: full error for the opposite state (k = i + 2), half for a basis-mismatched
#: neighbor (k = i +/- 1), none for a correct guess.
ERROR_WEIGHTS = (0.0, 0.5, 1.0, 0.5)
#: Rows b = 0, 3: weight of each prepared state k in the error operator L_b, ERROR_WEIGHTS[(k - b) % 4].
_RESEND_WEIGHTS = np.array([np.roll(ERROR_WEIGHTS, b) for b in (0, 3)])
#: The smallest normal double: an x below it has lost precision to underflow.
_X_MIN = np.finfo(float).tiny
#: The identity of each dimension in real coordinates (the real and imaginary part of each entry).
_EYE_REAL = {dim: np.eye(dim, dtype=complex).view(float).ravel() for dim in (2, 3)}
#: (dim, delta) pencils that build_suboptimal_povm keeps; an entry (y_w, basis, forms, lambdas) takes ~3.9 kB (at
#: most 4 kB) at dim 3, ~1 kB at dim 2.
_PENCIL_CACHE_SIZE = 1024
#: The real epsilon factor E = ss E_ss + cc E_cc + sc E_sc (dim 3) on the coordinates v = [y_0, y_1, y_2, y_1 + y_2]
#: of y_delta. A pattern's column has one entry, so each term of lmax M_b is one product of two entries of v_b, as in
#: |y_hat_b><y_hat_b| itself. At dim 2, E = I and v = y_delta.
_E_PATTERNS = {3: np.zeros((3, 4, 3)), 2: np.eye(2)[None]}
_E_PATTERNS[3][[0, 1, 2, 2], [1, 2, 3, 0], [0, 0, 1, 2]] = -1.0, 1.0, 1.0, 1.0  # E_ss, E_cc, E_sc


def _form_map(patterns: np.ndarray) -> np.ndarray:
    """The real map from [Q_00, Q_03, Q_30, Q_33], Q_ab = v_a^T conj(v_b), to each monomial's terms (_map_scalars'
    order) in E^T Q_00 E, E^T Q_33 E, -(both), and their traces g00, g33 and g03 = tr(E^T Q_30 E)."""
    n, dim = patterns.shape[1:]
    pairs = [(p, p) for p in range(len(patterns))] + list(itertools.combinations(range(len(patterns)), 2))
    kron = [[np.kron(e_p, e_q) for e_q in patterns] for e_p in patterns]  # [(k, l), (i, j)] = E_p[k, i] E_q[l, j]
    k = np.array([kron[p][q] + kron[q][p] * (p != q) for p, q in pairs])  # (m, n^2, dim^2): vec(Q) to vec(E^T Q E)
    tr = k[:, :, :: dim + 1].sum(axis=2, keepdims=True)
    o, z = np.zeros_like(k), np.zeros_like(tr)
    blocks = np.block([[k, o, -k, tr, z, z], [o, o, o, z, z, z], [o, o, o, z, z, tr], [o, k, -k, z, tr, z]])
    # rows in np.multiply.outer's order (a, k, b, l) of Q_ab[k, l]; columns monomial by monomial
    return blocks.reshape(len(k), 2, 2, n, n, -1).transpose(1, 3, 2, 4, 0, 5).reshape(4 * n * n, -1).T.copy()


_FORM_MAPS = {dim: _form_map(patterns) for dim, patterns in _E_PATTERNS.items()}


def _check_map(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """validate()'s real map from [M_0, M_3, M_vac] to their sum and each conj(M) - M^T, and I's offset."""
    n = 2 * dim * dim
    i, j, part = np.indices((dim, dim, 2)).reshape(3, n)
    check = np.zeros((3, n, 4, n))
    check[:, :, 0] = np.eye(n)
    check[[0, 1, 2], :, [1, 2, 3]] = np.diag(1.0 - 2 * part) - np.eye(n)[(j * dim + i) * 2 + part]
    return check.reshape(3 * n, 4 * n), np.concatenate((_EYE_REAL[dim], np.zeros(3 * n)))


_CHECK_MAPS = {dim: _check_map(dim) for dim in (2, 3)}  # (54, 72) at dim 3, (24, 32) at dim 2
#: Row 0 of each basis, the real view of [0, 0, I]; the columns of g00, g33, Re g03 and Im g03 in _pencil's terms.
_BASIS_ROW_0 = {dim: np.concatenate((np.zeros(4 * dim * dim), eye))[None] for dim, eye in _EYE_REAL.items()}
_GRAM_COLUMNS = np.array([-6, -4, -2, -1])
#: The orders -1..3 of _pencil's Newton steps, and its first Newton row: built once, not per pencil.
_NEWTON_ORDERS, _ONES = np.arange(-1, 4), np.ones(4)


@dataclass(frozen=True, eq=False)
class PovmStrategy:
    """Three-outcome measurement {M_0, M_3, M_vac} built for one point.

    elements is a read-only complex128 copy of the stack [M_0, M_3, M_vac],
    of shape (3, dim, dim): entries that do not convert to numbers or are
    infinite raise DomainError (a NaN is left to validate()), any other shape
    DimensionMismatchError. x, lambda_0 and lambda_3 are stored as floats: a
    bool, non-real or non-finite value raises DomainError. A built
    strategy holds the builder's array instead, uncopied. M_0 and
    M_3 are the conclusive elements (the implicit M_1 = M_2 = 0 never fire),
    M_vac = I - M_0 - M_3 is the blocking element. lambda_0/lambda_3 are the
    minimal generalized eigenvalues of (L_0, rho) and (L_3, rho) the
    elements were built from, and x the positivity-boundary scale factor.
    ensemble is the point the strategy was built for (anything but an
    AttackEnsemble raises DomainError); its dim fixes the kind. Equality is
    identity and the hash is the object's (eq=False): its arrays have no truth value.
    """

    ensemble: AttackEnsemble
    elements: np.ndarray
    x: float
    lambda_0: float
    lambda_3: float

    def __post_init__(self):
        if not isinstance(self.ensemble, AttackEnsemble):
            raise DomainError(f"ensemble must be an AttackEnsemble, got {type(self.ensemble).__name__}")
        try:  # a complex128 copy: the caller's own array stays writable
            elements = np.array(self.elements, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"elements must be numbers: {exc}") from None
        if elements.shape != (3, self.dim, self.dim):
            raise DimensionMismatchError(f"elements shape {elements.shape} is not (3, {self.dim}, {self.dim})")
        if np.isinf(elements).any():  # inf - inf in the completeness sum would be a bare numpy warning
            raise DomainError("elements must not be infinite")
        elements.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        set_reals(self.__dict__, "x", "lambda_0", "lambda_3", finite=True)

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    def validate(self) -> None:
        """Check completeness, positivity and the vacuum boundary; raise on violation (NaN fails them all)."""
        refusal = _check(self.elements, self.x)
        if refusal is not None:
            raise refusal


class PovmBlock:
    """The block form of PovmStrategy: build_suboptimal_povm's answer to an EnsembleBlock, as arrays.

    refusals[r] is None for each cell r the build answered, else the
    PfmAttackError its own call would raise. ensembles is the block of the
    answered cells, in order; row j of the read-only arrays elements
    (m, 3, dim, dim), x, lambda_0 and lambda_3 (m,) holds the j-th one's
    PovmStrategy fields, bit for bit. A plain class, not a dataclass, which
    would cost import time.
    """

    ensembles: EnsembleBlock
    elements: np.ndarray
    x: np.ndarray
    lambda_0: np.ndarray
    lambda_3: np.ndarray
    refusals: list[PfmAttackError | None]


@dataclass(frozen=True)
class AttackReport:
    """Figures of merit of one strategy against one ensemble."""

    epsilon: float
    delta: float
    qber: float
    p_succ: float
    lambda_0: float
    lambda_3: float
    x: float
    max_fiber_km: float


def max_fiber_length_km(p_succ: float | np.ndarray) -> float | np.ndarray:
    """Fiber length at which the channel transmittance 10^(-0.21 L / 10) equals p_succ, inf at p_succ = 0.

    A scalar p_succ must be a real number (not a bool) in [0, 1]; anything else, NaN included, raises DomainError.
    An array maps elementwise and unchecked: inf where p <= 0, NaN for NaN, and a negative length above 1.
    """
    if isinstance(p_succ, np.ndarray):  # each element in [0, 1] as the scalar body gives it, bit for bit
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p_succ <= 0.0, np.inf, -10.0 * np.log10(p_succ) / FIBER_LOSS_DB_PER_KM)
    if not (type(p_succ) is float and 0.0 < p_succ <= 1.0):  # evaluate's p_succ, a float in (0, 1], skips the checks
        if isinstance(p_succ, bool) or not isinstance(p_succ, numbers.Real) or not 0 <= p_succ <= 1:
            raise DomainError(f"p_succ must be a real number in [0, 1], got {p_succ!r}")
        if p_succ == 0:
            return math.inf
        p_succ = float(p_succ)
    # np.log10, not math.log10: the two differ in the last ulp for some p_succ
    return -10.0 * float(np.log10(p_succ)) / FIBER_LOSS_DB_PER_KM


@lru_cache(maxsize=_PENCIL_CACHE_SIZE)
def _pencil(dim: int, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
    """The epsilon-free half of build_suboptimal_povm: (y_w, basis, forms, (lambda_0, lambda_3)) for (dim, delta).

    The columns w_k of the scaled Newton basis (dim 2: their first two
    entries) give C C^H = sum_k w_k w_k^H. lambda_b is the minimal eigenvalue
    of the whitened error operator C^-1 (sum_k weight_bk w_k w_k^H) C^-H, and
    row b = 0, 3 of y_w is C^-H times its eigenvector: the generalized
    eigenvector of the pencil in the w basis, with y^H C C^H y = 1.
    y_delta = y_w T^* carries it through the map back's delta factor T:
    delta^2 N^-1 (dim 3) or (delta N^-1) A^-1 (dim 2). lmax M_b = E^T Q_b E
    (Q_b = v_b^T conj(v_b), v as in _E_PATTERNS) is sum_m mu_m C_bm: basis
    holds the real views of [0, 0, I] and [C_0m, C_3m, -(C_0m + C_3m)], so
    [1, mu / lmax] @ basis is [M_0, M_3, M_vac], and (g00, g33, Re g03,
    Im g03) = mu @ forms. All three arrays are read-only: callers share them.
    """
    z_1 = np.exp(1j * delta)
    step = newton_step(delta, _NEWTON_ORDERS)  # (z_m - 1)/(i delta) for m = -1..3
    newton = np.array([_ONES, step[1:], z_1 * step[1:] * step[:-1]])[:dim]
    chol_inv = np.linalg.inv(np.linalg.cholesky(newton @ newton.conj().T))
    whitened = chol_inv @ newton
    eigs, vecs = hermitian_eig((whitened * _RESEND_WEIGHTS[:, None, :]) @ whitened.conj().T)
    y_w = vecs[:, :, 0] @ chol_inv.conj()
    if dim == 3:  # T, then for v_3 its last two columns summed exactly: as delta -> 0, v_3 = -v_0 to the last bit
        delta_factor = np.array([[delta**2, 0, 0, 0], [1j * delta, -1j * delta, 0, -1j * delta],
                                 [-z_1, 1 + z_1, -1, z_1]])
    else:
        delta_factor = np.array([[0, delta], [-1j, 1j]])
    v = y_w @ delta_factor.conj()
    q = np.multiply.outer(v, v.conj()).reshape(-1, 1).view(float)  # Q_ab[k, l] at (a, k, b, l)
    # per monomial: the real views of a basis row [C_0m, C_3m, -(C_0m + C_3m)], then of g00, g33 and g03
    terms = (_FORM_MAPS[dim] @ q).reshape(-1, 6 * dim * dim + 6)
    basis = np.concatenate((_BASIS_ROW_0[dim], terms[:, :-6]))
    forms = np.take(terms, _GRAM_COLUMNS, axis=1)  # g00 and g33 are real: Q_00 and Q_33 are Hermitian
    for cached in (y_w, basis, forms):
        cached.setflags(write=False)
    return y_w, basis, forms, (float(eigs[0, 0]), float(eigs[1, 0]))


def _refusal_before_arithmetic(epsilon: float, delta: float, dim: int) -> PfmAttackError | None:
    """The refusal of a point that is decided by (epsilon, delta, dim) alone, or None: epsilon = 0 at dim 3, then delta = 0."""
    if dim == 3 and epsilon == 0.0:
        return SingularEpsilonError("epsilon = 0 is a singular point: the attack states span at most two dimensions")
    if delta == 0.0:
        return DegenerateSpanError("delta = 0: the four states coincide and span one dimension")
    return None


def _underflow(x: float) -> DegenerateSpanError:
    return DegenerateSpanError(
        f"p_succ = x/2 underflows (x = {x:.3e}): |sin 2e cos 2e| delta^2 (pfm) or delta (remap) "
        "is below ~1e-154, beyond double precision"
    )


def _map_scalars(epsilon: float, delta: float, dim: int) -> tuple[list[float], float]:
    """(mu, t) of a point's map back: mu = [ss^2, cc^2, sc^2, ss cc, ss sc, cc sc] with s, c = sin 2e, cos 2e and
    t = sc delta^2 (dim 3), or [1] and delta (dim 2)."""
    if dim == 2:
        return [1.0], delta
    s, c = math.sin(2 * epsilon), math.cos(2 * epsilon)
    sc, ss, cc = s * c, s * s, c * c
    return [ss * ss, cc * cc, sc * sc, ss * cc, ss * sc, cc * sc], sc * delta**2


def _refusal(min_eigs: list[float], x: float) -> PfmAttackError | None:
    """The first of validate()'s checks after completeness that one POVM fails, or None.

    min_eigs holds the minimal eigenvalues of M_0, M_3 and M_vac and x is the scale factor. NaN fails every check.
    """
    m_0, m_3, m_vac = min_eigs
    if m_0 >= -_PSD_TOL <= m_3 >= -_PSD_TOL <= m_vac <= _VAC_BOUNDARY_MAX and x > 0:  # passes every check below
        return None
    if any(math.isnan(min_eig) for min_eig in min_eigs):  # a failed LAPACK call's all-NaN row, named ahead of the rest
        return NoConvergenceError("eigvalsh_lo: eigenvalues did not converge")
    for label, min_eig in zip(("M_0", "M_3", "M_vac"), min_eigs):
        if not min_eig >= -_PSD_TOL:
            return DomainError(f"{label} has negative eigenvalue {min_eig:.3e}")
    if not -_PSD_TOL <= min_eigs[2] <= _VAC_BOUNDARY_MAX:
        return DomainError(f"M_vac minimal eigenvalue {min_eigs[2]:.3e} is off the positivity boundary")
    if not x > 0:
        return DomainError(f"scale factor x must be positive, got {x!r}")
    return None


def _check(elements: np.ndarray, x: float) -> PfmAttackError | None:
    """validate()'s checks on one POVM, elements (3, dim, dim) and x: its refusal, or None."""
    check_map, offset = _CHECK_MAPS[elements.shape[-1]]
    n = len(offset) // 4
    # the completeness residual, then each element's conj(M) - M^T, in real coordinates from one BLAS call
    y = elements.ravel().view(float).dot(check_map)
    y -= offset
    squares = y.dot(y)  # bounds the sum of squares of each part; NaN fails
    if not (squares <= _COMPLETE_SQUARES or math.sqrt(y[:n].dot(y[:n])) <= _COMPLETENESS_TOL):
        return DomainError("POVM elements do not sum to the identity")
    try:  # the checks the eigenvalue call leaves to its caller: complete elements are finite, y holds the deviations
        require_hermitian(y, squares, n)
        min_eigs = hermitian_eigvalsh(elements)[:, 0].tolist()  # a LAPACK failure's NaN row: _refusal names it
    except PfmAttackError as exc:  # an asymmetry above HERMITIAN_ATOL, or a refusal the eigenvalue call raises
        return exc
    return _refusal(min_eigs, x)


def build_suboptimal_povm(ens: AttackEnsemble | EnsembleBlock) -> PovmStrategy | PovmBlock:
    """The square-root strategy for the point ens: the 3-D attack at dim 3, the 2-D remap baseline at dim 2.

    lambda_b is the minimal generalized eigenvalue of (L_b, rho) and y_b its
    eigenvector with y_b^H rho y_b = 1. The states are v_k = A N w_k / sqrt(2),
    where w_k = [1, (z_k - 1)/(i delta), (z_k - 1)(z_k - z_1)/(i delta)^2] is
    the scaled Newton basis at z_k = e^{ik delta} (dim 2: its first two
    entries), N maps it to the monomials [1, z_k, z_k^2] and A maps those to
    the state components (dim 3: A = diag(sc, 1, 1) A1 with s, c = sin 2e,
    cos 2e and det A1 = -1; dim 2: A swaps the two). Generalized eigenvalues
    do not change under a change of basis, so the pencil is solved in the
    w basis, where it depends on delta alone and stays well conditioned as
    delta -> 0: there (lambda_b, y_w,b) is the minimal generalized eigenpair,
    with y_w,b^H (sum_k w_k w_k^H) y_w,b = 1, and y_b = sqrt(2) (A N)^-H y_w,b.
    Epsilon enters only in that map back. With t = sc delta^2 (dim 3) or
    delta (dim 2), t (A N)^-1 = T E: an O(1) delta factor T (see _pencil) and
    the real epsilon factor E = A1^-1 diag(1, sc, sc) (dim 3; E = I at dim 2).
    So y_hat_b = t y_b / sqrt(2) = y_delta,b E, with y_delta = y_w T^*, is
    O(1) too: M_b = |y_hat_b><y_hat_b| / lmax and x = t^2 / (2 lmax), with
    lmax the largest eigenvalue of the y_hat Gram matrix.

    E's entries are ss, cc and sc, so M_b and the Gram entries are sums over
    six monomials mu (1 at dim 2) of forms that depend on (dim, delta) alone.
    _pencil builds them once per (dim, delta) and keeps the last
    _PENCIL_CACHE_SIZE, so a point makes two small matmuls and one
    eigenvalue call, in validate(), plus one eigen-decomposition on a miss.

    e_B (absolutely) and p_succ (relatively) are within 1e-12 of exact
    arithmetic for every 0 < delta <= pi/2. Three points are refused, in
    this order: epsilon = 0 at dim 3, where the span collapses to at most
    two dimensions (SingularEpsilonError); delta = 0, where the states coincide
    (DegenerateSpanError); and an x below the smallest normal double, where
    |sc| delta^2 (dim 3) or delta (dim 2) is below ~1e-154 (DegenerateSpanError).

    ens may also be an EnsembleBlock, the block form: the return is then a
    PovmBlock, and no per-cell object is made. Its cells go through the same
    closed form and validate()'s checks stacked on one leading axis, with one
    eigenvalue call for all of their POVMs; each cell's results equal its
    own call's, bit for bit, and its refusal is the one its own call raises.
    Memory grows with the block's length, so a caller with a large grid
    passes it in blocks (the CLI sweep: cli.SWEEP_BLOCK cells a call).
    Anything else is a DomainError that names its type.
    """
    if isinstance(ens, EnsembleBlock):
        return _build_block(ens)
    if not isinstance(ens, AttackEnsemble):
        raise DomainError(f"ens must be an AttackEnsemble or an EnsembleBlock, got {type(ens).__name__}")
    refusal = _refusal_before_arithmetic(ens.epsilon, ens.delta, ens.dim)
    if refusal is not None:
        raise refusal
    _, basis, forms, (lambda_0, lambda_3) = _pencil(ens.dim, ens.delta)
    mu, t = _map_scalars(ens.epsilon, ens.delta, ens.dim)
    # a 1-D row's dot: the bits of a (1, m) row's matmul, which the stacked body makes, without the row
    g00, g33, g03_re, g03_im = np.array(mu).dot(forms).tolist()
    # each hypot as abs() of a complex scalar: libm's hypot, as np.hypot is in the stacked body
    lmax = (g00 + g33) / 2 + abs(complex((g00 - g33) / 2, abs(complex(g03_re, g03_im))))
    # C C^H = sum_k w_k w_k^H is 2 rho in the w basis, hence the 2 in x
    x = t * t / (2 * lmax)
    if not x >= _X_MIN:
        raise _underflow(x)
    elements = np.array([1.0, *[m / lmax for m in mu]]).dot(basis)
    elements.setflags(write=False)  # the owner: no view of it can be made writable again
    strat = frozen(PovmStrategy, ensemble=ens, elements=elements.view(complex).reshape(3, ens.dim, ens.dim), x=x,
                   lambda_0=lambda_0, lambda_3=lambda_3)
    strat.validate()
    return strat


def _build_block(block: EnsembleBlock) -> PovmBlock:
    """build_suboptimal_povm's block form: the point body's arithmetic and checks, the cells stacked on axis 0.

    A single point keeps a scalar body of its own, since numpy's per-call cost
    on 2x3 arrays makes a stacked body slower for one point; the two bodies
    must give the same bits, which test_attack checks point by point.
    """
    dim, refusals = block.dim, list(block.refusals)
    epsilon, delta = block.epsilon.tolist(), block.delta.tolist()
    decided = block.delta == 0.0
    if dim == 3:
        decided |= block.epsilon == 0.0
    for r in np.flatnonzero(decided).tolist():
        refusals[r] = refusals[r] or _refusal_before_arithmetic(epsilon[r], delta[r], dim)
    index = [r for r, refusal in enumerate(refusals) if refusal is None]
    pencils = [_pencil(dim, delta[r]) for r in index]
    x, elements = np.empty(0), np.empty((0, 3, dim, dim), complex)
    if index:
        # in Python floats, as the single body: s and c from math, since numpy's sin and cos may differ in the last bit
        mu, t = zip(*(_map_scalars(epsilon[r], delta[r], dim) for r in index))
        # one (1, m) row per cell, as the single body's: a (k, m) row block per delta gives other bits
        mu = np.array(mu)[:, None, :]
        g00, g33, g03_re, g03_im = (mu @ np.array([pencil[2] for pencil in pencils]))[:, 0].T
        lmax = (g00 + g33) / 2 + np.hypot((g00 - g33) / 2, np.hypot(g03_re, g03_im))
        t = np.array(t)
        x = t * t / (2 * lmax)
        scale = np.concatenate((np.ones((len(index), 1, 1)), mu / lmax[:, None, None]), axis=2)  # [1, mu / lmax]
        elements = (scale @ np.array([pencil[1] for pencil in pencils])).view(complex).reshape(len(index), 3, dim, dim)
        for r, x_r, refusal in zip(index, x.tolist(), _refusals(elements, x)):
            # in the single body's order: the underflow of x, then validate()'s checks
            refusals[r] = _underflow(x_r) if not x_r >= _X_MIN else refusal
    answered = [k for k, r in enumerate(index) if refusals[r] is None]
    lambdas = np.array([pencils[k][3] for k in answered]).reshape(-1, 2).T
    arrays = elements[answered], x[answered], lambdas[0], lambdas[1]
    for array in arrays:
        array.setflags(write=False)  # each an owner: no view of it can be made writable again
    return frozen(PovmBlock, ensembles=block.take([index[k] for k in answered]), elements=arrays[0], x=arrays[1],
                  lambda_0=arrays[2], lambda_3=arrays[3], refusals=refusals)


def _refusals(elements: np.ndarray, x: np.ndarray) -> list[PfmAttackError | None]:
    """validate() over POVMs stacked on axis 0: elements (n, 3, dim, dim), x (n,); per POVM None or its refusal.

    _check's arithmetic, a row of y per POVM: a stack of POVMs complete within half the tolerance and Hermitian takes
    one eigenvalue call, in which a POVM whose LAPACK call fails gets a NaN row and its own refusal from _refusal; any
    other stack, or one whose call raises, is judged POVM by POVM by _check, so a bad POVM refuses only itself. numpy's
    invalid flag is ignored (an infinite entry meets the map's zeros, or LAPACK fails): under -W error its warning
    would stop the whole stack, where the POVM gets its own refusal.
    """
    check_map, offset = _CHECK_MAPS[elements.shape[-1]]
    with np.errstate(invalid="ignore"):
        y = np.dot(elements.reshape(len(elements), -1).view(float), check_map) - offset
        squares = np.einsum("ij,ij->i", y, y)
        try:
            if (squares <= _COMPLETE_SQUARES).all():
                require_hermitian(y[:, len(offset) // 4:], squares.sum())
                return [_refusal(m, x_k) for m, x_k in zip(hermitian_eigvalsh(elements)[:, :, 0].tolist(), x.tolist())]
        except PfmAttackError:  # an asymmetry above HERMITIAN_ATOL, or the eigenvalue call raised: _check names it
            pass
        return [_check(el, x_k) for el, x_k in zip(elements, x.tolist())]


def build_phase_remapping_povm(delta: float) -> PovmStrategy:
    """The 2-D baseline: build_suboptimal_povm on the perfect-mirror ensemble at delta."""
    return build_suboptimal_povm(bb84_ensemble(delta))


def require_built_for(ens: AttackEnsemble, strat: PovmStrategy) -> None:
    """Refuse a strategy built for another point (DimensionMismatchError on dim, DomainError on (epsilon, delta)),
    an ens that is not an AttackEnsemble and a strat that is not a PovmStrategy (DomainError)."""
    if isinstance(strat, PovmStrategy) and strat.ensemble is ens:
        return
    if not isinstance(ens, AttackEnsemble):
        raise DomainError(f"ensemble must be an AttackEnsemble, got {type(ens).__name__}")
    if not isinstance(strat, PovmStrategy):
        raise DomainError(f"strategy must be a PovmStrategy, got {type(strat).__name__}")
    if strat.dim != ens.dim:
        raise DimensionMismatchError(f"strategy dimension {strat.dim} does not match ensemble dimension {ens.dim}")
    if strat.ensemble != ens:
        raise DomainError(f"strategy built for (epsilon, delta) = {strat.ensemble.epsilon, strat.ensemble.delta}, "
                          f"ensemble is {ens.epsilon, ens.delta}")


def evaluate(ens: AttackEnsemble, strat: PovmStrategy) -> AttackReport:
    """QBER and success probability of a strategy against the ensemble it was built for.

    With y_b^H rho y_b = 1, Tr(M_b L_b) = x lambda_b and Tr(M_b rho) = x, so

    qber   = sum_b Tr(M_b L_b) / sum_b Tr(M_b rho) = (lambda_0 + lambda_3) / 2
    p_succ = (1/4) sum_b Tr(M_b rho)               = x / 2

    (only M_0 and M_3 contribute because M_1 = M_2 = 0). A strategy built for
    another point is refused (see require_built_for).
    """
    require_built_for(ens, strat)
    p_succ = strat.x / 2
    return frozen(AttackReport, epsilon=ens.epsilon, delta=ens.delta, qber=(strat.lambda_0 + strat.lambda_3) / 2,
                  p_succ=p_succ, lambda_0=strat.lambda_0, lambda_3=strat.lambda_3, x=strat.x,
                  max_fiber_km=max_fiber_length_km(p_succ))

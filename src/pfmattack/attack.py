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

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSpanError, DimensionMismatchError, DomainError, PfmAttackError, SingularEpsilonError
from .numkernel import hermitian_eig, hermitian_eigvalsh
from .statespace import AttackEnsemble, bb84_ensemble, newton_step

#: Attenuation of standard telecom fiber used for the distance mapping.
FIBER_LOSS_DB_PER_KM = 0.21

#: Maximal tolerable QBER under collective attacks with one-way post-processing.
COLLECTIVE_ATTACK_QBER_LIMIT = 0.11
#: Maximal tolerable QBER with two-way post-processing.
TWO_WAY_POSTPROCESSING_QBER_LIMIT = 0.20

_PSD_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10
_VAC_BOUNDARY_MAX = 1e-6

#: Relative error weight of Eve's resend i when the station prepared k:
#: full error for the opposite state (k = i + 2), half for a basis-mismatched
#: neighbor (k = i +/- 1), none for a correct guess.
ERROR_WEIGHTS = (0.0, 0.5, 1.0, 0.5)
#: Rows b = 0, 3: weight of each prepared state k in the error operator L_b, ERROR_WEIGHTS[(k - b) % 4].
_RESEND_WEIGHTS = np.array([np.roll(ERROR_WEIGHTS, b) for b in (0, 3)])
#: The smallest normal double: an x below it has lost precision to underflow.
_X_MIN = np.finfo(float).tiny
#: The identity of each dimension, shared read-only: M_vac = I - M_0 - M_3 and validate()'s residual.
_EYE = {dim: np.eye(dim) for dim in (2, 3)}
for _identity in _EYE.values():
    _identity.setflags(write=False)
#: (dim, delta) pencils that build_suboptimal_povm keeps; an entry (y_w, y_delta, lambdas) takes ~0.76 kB.
_PENCIL_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PovmStrategy:
    """Three-outcome measurement {M_0, M_3, M_vac} built for one point.

    elements is a read-only copy of the stack [M_0, M_3, M_vac], of shape
    (3, dim, dim); any other shape raises DimensionMismatchError. M_0 and
    M_3 are the conclusive elements (the implicit M_1 = M_2 = 0 never fire),
    M_vac = I - M_0 - M_3 is the blocking element. lambda_0/lambda_3 are the
    minimal generalized eigenvalues of (L_0, rho) and (L_3, rho) the
    elements were built from, and x the positivity-boundary scale factor.
    ensemble is the point the strategy was built for; its dim fixes the kind.
    """

    ensemble: AttackEnsemble
    elements: np.ndarray
    x: float
    lambda_0: float
    lambda_3: float

    def __post_init__(self):
        elements = np.array(self.elements)  # a copy: the caller's own array stays writable
        if elements.shape != (3, self.dim, self.dim):
            raise DimensionMismatchError(f"elements shape {elements.shape} is not (3, {self.dim}, {self.dim})")
        elements.setflags(write=False)
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    def validate(self) -> None:
        """Check completeness, positivity and the vacuum boundary; raise on violation (NaN fails them all)."""
        residual = self.elements.sum(axis=0) - _EYE[self.dim]
        complete = math.sqrt(np.vdot(residual, residual).real) <= _COMPLETENESS_TOL  # the Frobenius norm
        min_eigs = hermitian_eigvalsh(self.elements)[:, 0].tolist() if complete else None
        refusal = _refusal(complete, min_eigs, self.x)
        if refusal is not None:
            raise refusal


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


def max_fiber_length_km(p_succ: float) -> float:
    """Fiber length at which the channel transmittance 10^(-0.21 L / 10) equals p_succ."""
    if p_succ <= 0.0:
        return float("inf")
    # np.log10, not math.log10: the two differ in the last ulp for some p_succ
    return float(-10.0 * np.log10(p_succ) / FIBER_LOSS_DB_PER_KM)


@lru_cache(maxsize=_PENCIL_CACHE_SIZE)
def _pencil(dim: int, delta: float) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """The epsilon-free half of build_suboptimal_povm: (y_w, y_delta, (lambda_0, lambda_3)) for (dim, delta).

    The columns w_k of the scaled Newton basis (dim 2: their first two
    entries) give C C^H = sum_k w_k w_k^H. lambda_b is the minimal eigenvalue
    of the whitened error operator C^-1 (sum_k weight_bk w_k w_k^H) C^-H, and
    row b = 0, 3 of y_w is C^-H times its eigenvector: the generalized
    eigenvector of the pencil in the w basis, with y^H C C^H y = 1.
    y_delta = y_w T^* carries it through the map back's delta factor T:
    delta^2 N^-1 (dim 3) or (delta N^-1) A^-1 (dim 2). Both are read-only:
    every caller shares them.
    """
    z_1 = np.exp(1j * delta)
    step = newton_step(delta, np.arange(-1, 4))  # (z_m - 1)/(i delta) for m = -1..3
    newton = np.array([np.ones(4), step[1:], z_1 * step[1:] * step[:-1]])[:dim]
    chol_inv = np.linalg.inv(np.linalg.cholesky(newton @ newton.conj().T))
    whitened = chol_inv @ newton
    eigs, vecs = hermitian_eig((whitened * _RESEND_WEIGHTS[:, None, :]) @ whitened.conj().T)
    y_w = vecs[:, :, 0] @ chol_inv.conj()
    if dim == 3:
        delta_factor = np.array([[delta**2, 0, 0], [1j * delta, -1j * delta, 0], [-z_1, 1 + z_1, -1]])
    else:
        delta_factor = np.array([[0, delta], [-1j, 1j]])
    y_delta = y_w @ delta_factor.conj()
    y_w.setflags(write=False)
    y_delta.setflags(write=False)
    return y_w, y_delta, (float(eigs[0, 0]), float(eigs[1, 0]))


def _refusal_before_arithmetic(ens: AttackEnsemble) -> PfmAttackError | None:
    """The refusal of a point that is decided by (epsilon, delta, dim) alone, or None: epsilon = 0 at dim 3, then delta = 0."""
    if ens.dim == 3 and ens.epsilon == 0.0:
        return SingularEpsilonError("epsilon = 0 is a singular point: the attack states span only two dimensions")
    if ens.delta == 0.0:
        return DegenerateSpanError("delta = 0: the four states coincide and span one dimension")
    return None


def _underflow(x: float) -> DegenerateSpanError:
    return DegenerateSpanError(
        f"p_succ = x/2 underflows (x = {x:.3e}): |sin 2e cos 2e| delta^2 (pfm) or delta (remap) "
        "is below ~1e-154, beyond double precision"
    )


def _map_scalars(ens: AttackEnsemble) -> tuple[float, float, float]:
    """(s, c, t) of a dim-3 point, as build_suboptimal_povm forms them: sin 2e, cos 2e and t = sc delta^2."""
    s, c = math.sin(2 * ens.epsilon), math.cos(2 * ens.epsilon)
    sc = s * c
    return s, c, sc * ens.delta**2


def _refusal(complete: bool, min_eigs: list[float] | None, x: float) -> DomainError | None:
    """The first of validate()'s checks that one POVM fails, or None.

    complete says whether the elements sum to the identity; min_eigs holds the
    minimal eigenvalues of M_0, M_3 and M_vac (None when incomplete: such a
    POVM reaches no eigensolve) and x is the scale factor. NaN fails every check.
    """
    if not complete:
        return DomainError("POVM elements do not sum to the identity")
    for label, min_eig in zip(("M_0", "M_3", "M_vac"), min_eigs):
        if not min_eig >= -_PSD_TOL:
            return DomainError(f"{label} has negative eigenvalue {min_eig:.3e}")
    if not -_PSD_TOL <= min_eigs[2] <= _VAC_BOUNDARY_MAX:
        return DomainError(f"M_vac minimal eigenvalue {min_eigs[2]:.3e} is off the positivity boundary")
    if not x > 0:
        return DomainError(f"scale factor x must be positive, got {x!r}")
    return None


def build_suboptimal_povm(
    ens: AttackEnsemble | Iterable[AttackEnsemble],
) -> PovmStrategy | list[PovmStrategy | PfmAttackError]:
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

    _pencil solves the pencil and applies T once per (dim, delta) and keeps
    the last _PENCIL_CACHE_SIZE of them, so a point applies E alone and makes
    one eigenvalue call, in validate(), plus one eigen-decomposition when its
    (dim, delta) is not in that cache.

    e_B (absolutely) and p_succ (relatively) are within 1e-12 of exact
    arithmetic for every 0 < delta <= pi/2. Three points are refused, in
    this order: epsilon = 0 at dim 3, where the span collapses to two
    dimensions (SingularEpsilonError); delta = 0, where the states coincide
    (DegenerateSpanError); and an x below the smallest normal double, where
    |sc| delta^2 (dim 3) or delta (dim 2) is below ~1e-154 (DegenerateSpanError).

    ens may also be a sequence (any iterable) of ensembles, of either dim. The return is
    then a list, in input order, of each one's validated PovmStrategy or the
    PfmAttackError its own call would raise, and no refusal stops the others.
    The points of each dim go through the same closed form and validate()'s
    checks stacked on one leading axis, with one eigenvalue call for all of
    their POVMs; each point's results equal its own call's, bit for bit.
    Memory grows with the length of the sequence, so a caller with a large
    grid passes it in blocks (the CLI sweep: cli.SWEEP_BLOCK points a call).
    """
    if not isinstance(ens, AttackEnsemble):
        return _build_stacked(list(ens))
    refusal = _refusal_before_arithmetic(ens)
    if refusal is not None:
        raise refusal
    delta, dim = ens.delta, ens.dim
    _, y, (lambda_0, lambda_3) = _pencil(dim, delta)  # rows y_delta,0 and y_delta,3
    if dim == 3:
        s, c, t = _map_scalars(ens)
        sc = s * c
        factor = np.zeros((3, 3))  # A1^-1 diag(1, sc, sc); faster to fill than np.array of nested lists
        factor[0, 2] = factor[1, 1] = factor[2, 1] = sc
        factor[1, 0] = -s * s
        factor[2, 0] = c * c
        y = y @ factor
    else:
        t = delta
    gram = y.conj() @ y.T
    g00, g33 = gram.real.diagonal().tolist()
    lmax = float((g00 + g33) / 2 + np.hypot((g00 - g33) / 2, abs(gram[0, 1])))
    # C C^H = sum_k w_k w_k^H is 2 rho in the w basis, hence the 2 in x
    x = t * t / (2 * lmax)
    if not x >= _X_MIN:
        raise _underflow(x)
    elements = np.empty((3, dim, dim), dtype=complex)  # [M_0, M_3, M_vac]
    np.multiply(y[:, :, None], y[:, None, :].conj(), out=elements[:2])
    elements[:2] /= lmax
    np.subtract(_EYE[dim], elements[0], out=elements[2])
    elements[2] -= elements[1]
    strat = PovmStrategy(ensemble=ens, elements=elements, x=x, lambda_0=lambda_0, lambda_3=lambda_3)
    strat.validate()
    return strat


def _build_stacked(ensembles: list[AttackEnsemble]) -> list[PovmStrategy | PfmAttackError]:
    """build_suboptimal_povm over a sequence: the same arithmetic and checks, the points of each dim stacked on axis 0.

    A single point keeps a scalar body of its own, since numpy's per-call cost
    on 2x3 arrays makes a stacked body slower for one point; the two bodies
    must give the same bits, which test_attack checks point by point.
    """
    results: list[PovmStrategy | PfmAttackError | None] = [_refusal_before_arithmetic(ens) for ens in ensembles]
    for dim in (3, 2):
        index = [k for k, ens in enumerate(ensembles) if results[k] is None and ens.dim == dim]
        if not index:
            continue
        pencils = [_pencil(dim, ensembles[k].delta) for k in index]
        y = np.array([pencil[1] for pencil in pencils])  # (n, 2, dim): rows y_delta,0 and y_delta,3
        if dim == 3:
            # per point in Python floats, as the single body: delta**2 is libm's pow, not numpy's delta * delta
            s, c, t = np.array([_map_scalars(ensembles[k]) for k in index]).T
            sc = s * c
            factor = np.zeros((len(index), 3, 3))  # A1^-1 diag(1, sc, sc) per point
            factor[:, 0, 2] = factor[:, 1, 1] = factor[:, 2, 1] = sc
            factor[:, 1, 0] = -s * s
            factor[:, 2, 0] = c * c
            y = y @ factor
        else:
            t = np.array([ensembles[k].delta for k in index])
        gram = y.conj() @ y.transpose(0, 2, 1)
        g00, g33, g03 = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
        # |g03| as hypot, which the single body's complex-scalar abs() is; numpy's array abs differs in the last bit
        lmax = (g00 + g33) / 2 + np.hypot((g00 - g33) / 2, np.hypot(g03.real, g03.imag))
        x = t * t / (2 * lmax)
        elements = np.empty((len(index), 3, dim, dim), dtype=complex)  # [M_0, M_3, M_vac] per point
        np.multiply(y[:, :, :, None], y[:, :, None, :].conj(), out=elements[:, :2])
        elements[:, :2] /= lmax[:, None, None, None]
        np.subtract(_EYE[dim], elements[:, 0], out=elements[:, 2])
        elements[:, 2] -= elements[:, 1]
        for k, pencil, el, x_k, refusal in zip(index, pencils, elements, x.tolist(), _refusals(elements, x)):
            # in the single body's order: the underflow of x, then validate()'s checks
            results[k] = (_underflow(x_k) if not x_k >= _X_MIN else refusal) or PovmStrategy(
                ensemble=ensembles[k], elements=el, x=x_k, lambda_0=pencil[2][0], lambda_3=pencil[2][1]
            )
    return results


def _refusals(elements: np.ndarray, x: np.ndarray) -> list[PfmAttackError | None]:
    """validate() over POVMs stacked on axis 0: elements (n, 3, dim, dim), x (n,); per POVM None or its refusal.

    Completeness comes first, so an incomplete or NaN POVM reaches no
    eigensolve; the complete ones take one stacked eigenvalue call. If that
    call refuses (an asymmetry above HERMITIAN_ATOL, or no convergence), each
    complete POVM is solved alone, so that a bad POVM refuses only itself.
    """
    residual = elements.sum(axis=1) - _EYE[elements.shape[-1]]
    # the Frobenius norm of each residual; NaN fails
    complete = np.sqrt(np.square(residual.view(float)).sum(axis=(1, 2))) <= _COMPLETENESS_TOL
    checked: list = [None] * len(x)  # per POVM: its minimal eigenvalues, or the refusal its lone solve raised
    index = np.flatnonzero(complete).tolist()
    if index:
        try:
            for k, eigs in zip(index, hermitian_eigvalsh(elements[index])[:, :, 0].tolist()):
                checked[k] = eigs
        except PfmAttackError:
            for k in index:
                try:
                    checked[k] = hermitian_eigvalsh(elements[k])[:, 0].tolist()
                except PfmAttackError as exc:
                    checked[k] = exc
    return [
        eigs if isinstance(eigs, PfmAttackError) else _refusal(ok, eigs, x_k)
        for ok, eigs, x_k in zip(complete.tolist(), checked, x.tolist())
    ]


def build_phase_remapping_povm(delta: float) -> PovmStrategy:
    """The 2-D baseline: build_suboptimal_povm on the perfect-mirror ensemble at delta."""
    return build_suboptimal_povm(bb84_ensemble(delta))


def require_built_for(ens: AttackEnsemble, strat: PovmStrategy) -> None:
    """Refuse a strategy built for another point: DimensionMismatchError on dim, DomainError on (epsilon, delta)."""
    if strat.ensemble is ens:
        return
    if strat.dim != ens.dim:
        raise DimensionMismatchError(
            f"strategy dimension {strat.dim} does not match ensemble dimension {ens.dim}"
        )
    if strat.ensemble != ens:
        raise DomainError(
            f"strategy built for (epsilon, delta) = {strat.ensemble.epsilon, strat.ensemble.delta}, "
            f"ensemble is {ens.epsilon, ens.delta}"
        )


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
    return AttackReport(
        epsilon=ens.epsilon,
        delta=ens.delta,
        qber=(strat.lambda_0 + strat.lambda_3) / 2,
        p_succ=p_succ,
        lambda_0=strat.lambda_0,
        lambda_3=strat.lambda_3,
        x=strat.x,
        max_fiber_km=max_fiber_length_km(p_succ),
    )

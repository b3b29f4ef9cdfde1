import warnings

import numpy as np
import pytest

from pfmattack import attack, numkernel
from pfmattack.attack import build_phase_remapping_povm, build_suboptimal_povm

from pfmattack.errors import (
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonHermitianError,
)
from pfmattack.numkernel import (
    HERMITIAN_ATOL,
    hermitian_eig,
    hermitian_eigvalsh,
    pinv_sqrt,
)
from pfmattack.statespace import EnsembleBlock, build_ensemble

from eigenvalue_path import certify_nothing
from hermitian_reference import hermitian_refusal

DEG = np.pi / 180
#: The pivot certificate itself, kept before any test monkeypatches it.
_CERTIFIED = attack._certified


def random_hermitian(rng, dim):
    """Random Hermitian matrix with entries of order 1."""
    a = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return (a + a.conj().T) / 2


def test_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    # columns orthonormal regardless of which basis was returned
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_diagonal_passthrough():
    d = np.diag([0.1464, 0.5, 0.8536])
    w, v = hermitian_eig(d)
    assert np.allclose(w, [0.1464, 0.5, 0.8536], atol=1e-15)
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_eig_sorted_ascending_and_phase_convention():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_hermitian(rng, 4)
        w, _ = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)


def test_eig_reconstruction_and_invariants():
    """A = sum lambda_i v_i v_i^dag to 1e-9 Frobenius; residuals and orthonormality to 1e-10."""
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4, 8):
        for _ in range(25):
            a = random_hermitian(rng, dim)
            w, v = hermitian_eig(a)
            rebuilt = (v * w) @ v.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-9
            norm_a = np.linalg.norm(a)
            for i in range(dim):
                assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * max(norm_a, 1.0)
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3)))


#: numpy.linalg's message when LAPACK does not converge, which both kernels pass on.
_NO_CONVERGENCE = "Eigenvalues did not converge"
#: The (type, message) of that refusal, as either kernel, validate() and a block build give it.
_NO_CONVERGENCE_REFUSAL = NoConvergenceError, _NO_CONVERGENCE


def _not_converging(monkeypatch, *names):
    """Stand in for the named numpy.linalg calls with one that fails as they do when LAPACK does not converge."""
    def stub(a):
        raise np.linalg.LinAlgError(_NO_CONVERGENCE)

    for name in names:
        monkeypatch.setattr(np.linalg, name, stub)


def test_eig_no_convergence_is_translated(monkeypatch):
    """numpy.linalg's LinAlgError becomes NoConvergenceError with numpy's message, from either kernel; hermitian_eig's
    input checks still come first."""
    _not_converging(monkeypatch, "eigh", "eigvalsh")
    for kernel in (hermitian_eig, hermitian_eigvalsh):
        with pytest.raises(NoConvergenceError, match=f"^{_NO_CONVERGENCE}$"):
            kernel(np.eye(2))
    with pytest.raises(DomainError, match="NaN or infinite entry"):
        hermitian_eig(np.full((2, 2), np.nan))


def test_require_hermitian_tolerance():
    a = np.array([[1.0, 1e-13], [0.0, 1.0]])
    hermitian_eig(a)  # within 1e-12
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[1.0, 1e-10], [0.0, 1.0]]))


def test_pinv_sqrt_identity_and_diagonal():
    assert np.allclose(pinv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    b = pinv_sqrt(np.diag([4.0, 0.0, 1.0]), rank_tol=1e-10)
    assert np.allclose(b, np.diag([0.5, 0.0, 1.0]), atol=1e-14)


def test_pinv_sqrt_support_projector():
    """B A B is the orthogonal projector onto the support of A."""
    rng = np.random.default_rng(7)
    for dim, rank in ((3, 2), (4, 3), (5, 5)):
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            w = np.zeros(dim)
            w[:rank] = rng.uniform(0.1, 4.0, rank)
            a = (u * w) @ u.conj().T
            a = (a + a.conj().T) / 2
            b = pinv_sqrt(a)
            p = b @ a @ b
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert np.linalg.norm(p - p.conj().T) <= 1e-9
            assert abs(np.trace(p).real - rank) <= 1e-9


def test_pinv_sqrt_rejects_negative_and_bad_tol():
    with pytest.raises(NegativeEigenvalueError):
        pinv_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        pinv_sqrt(np.eye(2), rank_tol=0.0)


def test_pinv_sqrt_zero_matrix():
    assert np.allclose(pinv_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_sqrt_of_rank_deficient_rho():
    """At epsilon = 0 the density operator has rank 2 and its pseudo-inverse
    square root reproduces a trace-2 orthogonal projector."""
    states = build_ensemble(0.0, np.pi / 2).states
    rho = states.T @ states.conj()
    b = pinv_sqrt(rho, rank_tol=1e-10)
    p = b @ rho @ b
    assert np.linalg.norm(p @ p - p) <= 1e-9
    assert np.linalg.norm(p - p.conj().T) <= 1e-9
    assert abs(np.trace(p).real - 2.0) <= 1e-9


def test_eig_stack_matches_per_matrix_calls():
    """A (5, 4, 4) stack is decomposed in one call, matching each matrix decomposed alone."""
    rng = np.random.default_rng(11)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    ws, vs = hermitian_eig(stack)
    assert ws.shape == (5, 4) and vs.shape == (5, 4, 4)
    for a, w, v in zip(stack, ws, vs):
        w_single, v_single = hermitian_eig(a)
        assert np.abs(w - w_single).max() <= 1e-13
        # eigenvectors are defined up to phase: compare the projectors
        for i in range(4):
            p_stack = np.outer(v[:, i], v[:, i].conj())
            p_single = np.outer(v_single[:, i], v_single[:, i].conj())
            assert np.abs(p_stack - p_single).max() <= 1e-10
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12


def test_eig_stack_guards():
    """One non-Hermitian member fails the whole stack; the square check applies to the last two axes."""
    rng = np.random.default_rng(12)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-9
    with pytest.raises(NonHermitianError):
        hermitian_eig(stack)
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3, 4)))


def _block_of(ens):
    """The block of the one point ens."""
    return EnsembleBlock([ens.epsilon], [ens.delta], ens.dim)


def test_eigvalsh_refuses_what_eig_refuses(monkeypatch):
    """hermitian_eig checks its input: a shape that is not square over the last two axes and an asymmetry above
    HERMITIAN_ATOL are refused, and so is a LAPACK failure, as NoConvergenceError with numpy's message. The
    eigenvalue-only call, whose callers check the entries, refuses a LAPACK failure the same way, and its callers
    pass that refusal on: validate() and a block build, in each failed POVM's own cell, on the path of a POVM the
    pivot certificate does not pass. With the certificate on, the same built POVMs never reach the failing call and
    pass."""
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros(3))
    hermitian_eig(np.array([[1.0, 1e-13], [0.0, 1.0]]))  # within 1e-12
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[1.0, 1e-10], [0.0, 1.0]]))

    strats = [build_suboptimal_povm(build_ensemble(1 * DEG, np.pi / 2)), build_phase_remapping_povm(np.pi / 4)]
    _not_converging(monkeypatch, "eigvalsh")
    monkeypatch.setattr(attack, "_certified", certify_nothing)
    for strat in strats:
        with pytest.raises(NoConvergenceError, match=f"^{_NO_CONVERGENCE}$"):
            strat.validate()
    for strat in strats:  # both pencils are cached: no eigh call
        (cell,) = build_suboptimal_povm(_block_of(strat.ensemble)).refusals
        assert (type(cell), str(cell)) == _NO_CONVERGENCE_REFUSAL
    monkeypatch.setattr(attack, "_certified", _CERTIFIED)
    for strat in strats:
        strat.validate()
        assert build_suboptimal_povm(_block_of(strat.ensemble)).refusals == [None]
    _not_converging(monkeypatch, "eigh")
    with pytest.raises(NoConvergenceError, match=f"^{_NO_CONVERGENCE}$"):
        hermitian_eig(np.eye(2))


def test_the_unchecked_call_keeps_the_convergence_refusal(monkeypatch):
    """The eigenvalue-only call makes no checks, but on a built POVM's elements it still refuses a LAPACK failure as
    NoConvergenceError, which its callers pass on, on the path of a POVM the pivot certificate does not pass:
    validate(), and a block build in that POVM's own cell. So does the checked hermitian_eig, each with numpy's
    message. With the certificate on, the POVM never reaches the failing call and passes."""
    strat = build_suboptimal_povm(build_ensemble(1 * DEG, np.pi / 2))
    _not_converging(monkeypatch, "eigh", "eigvalsh")
    monkeypatch.setattr(attack, "_certified", certify_nothing)
    with pytest.raises(NoConvergenceError) as checked:
        hermitian_eig(strat.elements)
    with pytest.raises(NoConvergenceError) as lean:
        strat.validate()
    (cell,) = build_suboptimal_povm(_block_of(strat.ensemble)).refusals  # the pencil is cached: no eigh call
    assert [(type(r), str(r)) for r in (checked.value, lean.value, cell)] == [_NO_CONVERGENCE_REFUSAL] * 3
    monkeypatch.setattr(attack, "_certified", _CERTIFIED)
    strat.validate()
    assert build_suboptimal_povm(_block_of(strat.ensemble)).refusals == [None]


def test_eigvalsh_matches_eig_eigenvalues():
    """On random stacks of dim 2, 3 and 8, the eigenvalues agree with hermitian_eig's within 1e-15 ||a||."""
    rng = np.random.default_rng(13)
    for dim in (2, 3, 8):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(40)])
        w = hermitian_eigvalsh(stack)
        assert w.shape == (40, dim)
        gap = np.abs(w - hermitian_eig(stack)[0]).max(axis=-1)
        assert np.all(gap <= 1e-15 * np.linalg.norm(stack, axis=(-2, -1)))


def _assert_bytes_equal(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def _assert_matches_numpy_linalg(stack):
    """Both kernels give numpy.linalg's eigvalsh and eigh outputs byte for byte, on the stack and on each matrix."""
    for a in (stack, *stack):
        _assert_bytes_equal(hermitian_eigvalsh(a), np.linalg.eigvalsh(a))
        for ours, theirs in zip(hermitian_eig(a), np.linalg.eigh(a)):
            _assert_bytes_equal(ours, theirs)


def test_kernels_match_numpy_linalg_on_random_stacks():
    """The kernels give numpy.linalg's bytes at dim 2, 3 and 8."""
    rng = np.random.default_rng(14)
    for dim in (2, 3, 8):
        for _ in range(20):
            _assert_matches_numpy_linalg(np.stack([random_hermitian(rng, dim) for _ in range(4)]))


def test_kernels_match_numpy_linalg_on_the_grid_elements():
    """The elements [M_0, M_3, M_vac] of the 40 x 50 sweep grid and of its 50-point remap line, as validate() passes
    them: each POVM's (3, d, d) stack gives numpy.linalg's bytes, and so does the grid's whole stack."""
    deltas = np.linspace(0.1, np.pi / 2, 50)
    grid = np.stack([build_suboptimal_povm(build_ensemble(e, d)).elements
                     for e in np.linspace(0.05, 1.0, 40) * DEG for d in deltas])
    remap = np.stack([build_phase_remapping_povm(d).elements for d in deltas])
    for stack in (grid, remap):
        for elements in stack:
            _assert_bytes_equal(hermitian_eigvalsh(elements), np.linalg.eigvalsh(elements))
            for ours, theirs in zip(hermitian_eig(elements), np.linalg.eigh(elements)):
                _assert_bytes_equal(ours, theirs)
        _assert_bytes_equal(hermitian_eigvalsh(stack), np.linalg.eigvalsh(stack))


def test_non_finite_input_is_refused_without_a_warning():
    """A NaN or infinite entry in either triangle is refused by name, before numpy can warn; finite input keeps its
    refusals. LAPACK reads only the lower triangle, so a NaN above it alone used to pass."""
    nan, inf = np.nan, np.inf
    cases = (np.full((2, 2), nan), np.array([[inf, 0.0], [0.0, 1.0]]), np.array([[1.0, nan], [0.0, 1.0]]),
             np.array([[1.0, 0.0], [nan, 1.0]]), np.array([[1.0, inf], [0.0, 1.0]]), np.diag([1.0, inf, 2.0]),
             np.diag([1.0, -inf, 2.0]), np.stack([np.eye(3), np.full((3, 3), complex(0.0, inf))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in cases:
            with pytest.raises(DomainError, match="NaN or infinite entry"):
                hermitian_eig(a)
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_a_caller_that_makes_the_entry_checks_itself_is_trusted():
    """The eigenvalue-only call makes no finiteness or Hermitian check: LAPACK reads the lower triangle alone, so a NaN
    above the diagonal goes unseen there. hermitian_eig refuses it, and validate(), the caller of the unchecked call,
    refuses that NaN by its own checks."""
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    assert np.array_equal(hermitian_eigvalsh(a), [1.0, 1.0])
    with pytest.raises(DomainError, match="NaN or infinite entry"):
        hermitian_eig(a)
    with pytest.raises(NonHermitianError, match="by nan"):
        numkernel.require_hermitian(a.conj() - a.T, np.nan)
    assert np.array_equal(hermitian_eigvalsh(np.diag([2.0, 1.0])), [1.0, 2.0])


def test_require_hermitian_reads_real_parts_from_the_offset():
    """A float array holds the deviations as real and imaginary parts from offset on, as validate()'s one BLAS output
    holds them after its completeness residual: the entries before the offset are not deviations and go unread."""
    parts = np.array([1.0, -1.0, 3e-13, 4e-13, 0.0, 0.0])
    numkernel.require_hermitian(parts, np.vdot(parts, parts), 2)
    parts[4:] = 3e-12, -4e-12
    with pytest.raises(NonHermitianError, match=r"by 5\.000e-12 > 1\.0e-12$"):
        numkernel.require_hermitian(parts, np.vdot(parts, parts), 2)
    with pytest.raises(NonHermitianError, match=r"by 1\.414e\+00 > "):
        numkernel.require_hermitian(parts, np.vdot(parts, parts))


def _deviated(rng, dim, n):
    """n random Hermitian matrices (n, dim, dim), each with one entry moved by a modulus between 1e-16 and 1e-9 (or
    exactly 0, or a diagonal entry's imaginary part), so that the stacks straddle the check's two thresholds."""
    stack = np.stack([random_hermitian(rng, dim) for _ in range(n)])
    for a in stack:
        i, j = rng.integers(dim, size=2)
        size = 10.0 ** rng.uniform(-16, -9) * rng.choice([0.0, 1.0, 1.0, 1.0])
        a[i, j] += size * (1j if i == j else np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return stack


def test_hermitian_check_gives_the_direct_forms_verdict_and_message():
    """On seeded stacks of dim 2, 3 and 8 (one to four matrices each), hermitian_eig passes exactly the stacks that the
    direct conj(a) - a^T form passes, and refuses the others with its message."""
    rng = np.random.default_rng(31)
    seen = set()
    for dim in (2, 3, 8):
        for _ in range(300):
            stack = _deviated(rng, dim, rng.integers(1, 5))
            expected = hermitian_refusal(stack)
            seen.add(expected is None)
            if expected is None:
                hermitian_eig(stack)
            else:
                with pytest.raises(NonHermitianError) as info:
                    hermitian_eig(stack)
                assert str(info.value) == expected
    assert seen == {True, False}


@pytest.mark.parametrize("dev, passes", [
    (0.0, True), (4e-13, True), (np.nextafter(HERMITIAN_ATOL, 0), True), (HERMITIAN_ATOL, True),
    (np.nextafter(HERMITIAN_ATOL, 1), False), (2e-12, False),
])
def test_hermitian_check_edges(dev, passes):
    """An exactly Hermitian matrix with one entry moved by dev, above or below the diagonal or as a diagonal entry's
    imaginary part: within HERMITIAN_ATOL it passes, one ulp beyond it is refused, as the direct form says."""
    for i, j, step in ((0, 1, dev), (2, 0, dev), (1, 1, 1j * dev / 2), (0, 2, 1j * dev)):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a[i, j] += step
        assert (hermitian_refusal(a) is None) is passes
        if passes:
            hermitian_eig(a)
        else:
            with pytest.raises(NonHermitianError) as info:
                hermitian_eig(a)
            assert str(info.value) == hermitian_refusal(a)

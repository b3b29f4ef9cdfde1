"""Extended-precision reference for the attack's figures of merit.

A 50-digit mpmath evaluation by the textbook square-root-measurement route:
rho^(-1/2) from a full eigendecomposition of rho, the minimal eigenpair of
rho^(-1/2) L_b rho^(-1/2), M_b = x rho^(-1/2) |c_b><c_b| rho^(-1/2) with
x = 1 / lambda_max(M_0 + M_3 unscaled), then e_B and p_succ from the trace
formulas. Only tests use it. It shares no code with the package: the states,
the error operators and every matrix step are written out here again.

50 digits resolve rho's smallest eigenvalue (~epsilon^2 times a delta factor)
only while it is far above 1e-50, so the reference holds for |epsilon| well
above 1e-23 rad.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
#: Relative error weight of resending i when state k = i + j was prepared.
_WEIGHTS = (0, mpmath.mpf(1) / 2, 1, mpmath.mpf(1) / 2)


def _pfm_states(epsilon, delta):
    s, c = mpmath.sin(2 * epsilon), mpmath.cos(2 * epsilon)
    rows = []
    for k in range(4):
        z = mpmath.expj(k * delta)
        rows.append([s * c * (z * z - z), s * s * z * z + c * c * z, mpmath.mpf(1)])
    return [[v / mpmath.sqrt(2) for v in row] for row in rows]


def _remap_states(delta):
    return [[mpmath.expj(k * delta) / mpmath.sqrt(2), 1 / mpmath.sqrt(2)] for k in range(4)]


def _projector(v):
    return mpmath.matrix([[a * mpmath.conj(b) for b in v] for a in v])


def _trace(a):
    return sum(a[i, i] for i in range(a.rows))


def _figures(states) -> dict[str, float]:
    proj = [_projector(v) for v in states]
    dim = len(states[0])
    rho = sum(proj[1:], proj[0])
    errs = [sum((_WEIGHTS[j] * proj[(i + j) % 4] for j in range(1, 4)), mpmath.zeros(dim)) for i in range(4)]
    w, v = mpmath.eigh(rho)
    r = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.H
    lam, unscaled = {}, {}
    for b in (0, 3):
        wb, vb = mpmath.eigh(r * errs[b] * r)
        i = min(range(dim), key=lambda n: wb[n])
        lam[b] = wb[i]
        c = vb[:, i]
        unscaled[b] = r * c * c.H * r
    x = 1 / max(mpmath.eigh(unscaled[0] + unscaled[3], eigvals_only=True))
    err = x * (_trace(unscaled[0] * errs[0]) + _trace(unscaled[3] * errs[3]))
    conclusive = x * (_trace(unscaled[0] * rho) + _trace(unscaled[3] * rho))
    return {
        "qber": float(mpmath.re(err / conclusive)),
        "p_succ": float(mpmath.re(conclusive / 4)),
        "lambda_0": float(lam[0]),
        "lambda_3": float(lam[3]),
        "x": float(x),
    }


def pfm_reference(epsilon_deg: float, delta: float) -> dict[str, float]:
    """e_B, p_succ, lambda_0, lambda_3 and x of the three-dimensional attack, to 50 digits, as floats."""
    with mpmath.workdps(DIGITS):
        epsilon = mpmath.radians(mpmath.mpf(epsilon_deg))
        return _figures(_pfm_states(epsilon, mpmath.mpf(delta)))


def remap_reference(delta: float) -> dict[str, float]:
    """The same figures for the two-dimensional phase-remapping attack."""
    with mpmath.workdps(DIGITS):
        return _figures(_remap_states(mpmath.mpf(delta)))

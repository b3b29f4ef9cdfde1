"""The Hermitian check in its direct form: conj(a) - a^T, formed by numpy's own conj and subtraction.

Only tests use it. validate() forms each element's deviation through a
constant real map, in one matmul with the completeness residual, and hands
it to numkernel.require_hermitian; numkernel forms a solver input's directly.
Both must give this form's verdict and message: a sum of squares within
(HERMITIAN_ATOL / 2)^2 passes, else the largest modulus is held to
HERMITIAN_ATOL, and NaN fails.
"""

from __future__ import annotations

import numpy as np

from pfmattack.numkernel import HERMITIAN_ATOL


def hermitian_refusal(a: np.ndarray) -> str | None:
    """The NonHermitianError message of a matrix or stack a (..., n, n), or None where it passes."""
    asym = a.conj() - a.swapaxes(-1, -2)
    if not np.vdot(asym, asym).real <= (HERMITIAN_ATOL / 2) ** 2:
        dev = np.maximum.reduce(np.abs(asym), axis=None, initial=0.0)
        if not dev <= HERMITIAN_ATOL:
            return f"matrix deviates from Hermitian symmetry by {dev:.3e} > {HERMITIAN_ATOL:.1e}"
    return None

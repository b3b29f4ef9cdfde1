"""validate()'s positivity checks with the pivot certificate off: the path a POVM it does not pass takes.

Only tests use it. attack._certified answers a POVM that surely passes
without eigenvalues; with certify_nothing monkeypatched in its place,
_check and _refusals send every complete, Hermitian POVM to the eigenvalue
call, as they send every POVM the certificate cannot pass.
"""

from __future__ import annotations

import numpy as np


def certify_nothing(c, x):
    """attack._certified's stand-in that passes no POVM: False for one, an all-False array for a stack."""
    return np.zeros(np.shape(x), dtype=bool)

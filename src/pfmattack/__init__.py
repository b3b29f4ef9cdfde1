"""Simulator for the imperfect-Faraday-mirror loophole in two-way plug-and-play QKD.

Builds the three-dimensional family of states leaked by a practical Faraday
mirror, constructs the eavesdropper's suboptimal discrimination POVM (and the
two-dimensional phase-remapping baseline), evaluates the induced QBER and
attack success probability, and cross-checks everything with a Monte Carlo
protocol oracle.
"""

__version__ = "0.1.0"

from .attack import (
    AttackReport,
    PovmStrategy,
    build_phase_remapping_povm,
    build_suboptimal_povm,
    evaluate,
    max_fiber_length_km,
)
from .errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    NegativeProbabilityError,
    NoConvergenceError,
    NonHermitianError,
    PfmAttackError,
    SingularEpsilonError,
)
from .mcoracle import (
    OracleEstimate,
    run_oracle,
    simulate_intercept_resend,
)
from .optics import (
    BirefringentChannel,
    FaradayMirror,
    channel_matrix,
    fm_matrix,
    verify_compensation,
)
from .statespace import (
    AttackEnsemble,
    bb84_ensemble,
    build_ensemble,
    span_dimension,
)

__all__ = [
    "__version__",
    "AttackEnsemble",
    "AttackReport",
    "BirefringentChannel",
    "DegenerateSpanError",
    "DimensionMismatchError",
    "DomainError",
    "FaradayMirror",
    "NegativeEigenvalueError",
    "NegativeProbabilityError",
    "NoConvergenceError",
    "NonHermitianError",
    "OracleEstimate",
    "PfmAttackError",
    "PovmStrategy",
    "SingularEpsilonError",
    "bb84_ensemble",
    "build_ensemble",
    "build_phase_remapping_povm",
    "build_suboptimal_povm",
    "channel_matrix",
    "evaluate",
    "fm_matrix",
    "max_fiber_length_km",
    "run_oracle",
    "simulate_intercept_resend",
    "span_dimension",
    "verify_compensation",
]

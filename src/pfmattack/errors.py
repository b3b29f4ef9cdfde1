"""Exception hierarchy shared by all pfmattack modules."""


class PfmAttackError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(PfmAttackError):
    """Operands have incompatible shapes."""


class NonHermitianError(PfmAttackError):
    """A matrix tagged Hermitian violates the symmetry tolerance."""


class NoConvergenceError(PfmAttackError):
    """The eigenvalue iteration did not converge."""


class NegativeEigenvalueError(PfmAttackError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""


class DomainError(PfmAttackError):
    """A parameter lies outside its admissible range."""


class SingularEpsilonError(DomainError):
    """The mirror is ideal (epsilon = 0); the three-dimensional attack is undefined there."""


class DegenerateSpanError(PfmAttackError):
    """The attack states span fewer dimensions than the strategy requires (delta = 0), or p_succ underflows."""


class NegativeProbabilityError(PfmAttackError):
    """A computed outcome probability is significantly negative."""

"""Exception types shared by all chebnets modules."""


class ChebnetsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ChebnetsError):
    """Operands live in different ambient dimensions."""


class DomainError(ChebnetsError):
    """An argument is outside the operation's domain (e.g. r <= 0)."""


class DegenerateInputError(ChebnetsError):
    """Input is geometrically degenerate (affinely dependent, coincident points)."""


class ModelError(ChebnetsError):
    """A hyperbolic point violates the hyperboloid-sheet invariant."""


class OracleBudgetError(ChebnetsError):
    """A brute-force oracle was asked to exceed its cost guard."""


class SamplingBudgetError(ChebnetsError):
    """A rejection sampler or the Lemma 3 chord ladder exhausted its budget."""


class InconsistencyError(ChebnetsError):
    """Two internally computed quantities disagree; indicates a solver bug."""

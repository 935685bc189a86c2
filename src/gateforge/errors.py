"""Exception hierarchy for gateforge.

Every failure mode raised by the library derives from :class:`GateforgeError`
so callers can catch broadly; the CLI maps subclasses to exit codes.
"""


class GateforgeError(Exception):
    """Base class for all gateforge errors."""


class ValidationError(GateforgeError):
    """Input fails a structural precondition (wrong shape, not unitary, ...)."""


class NonUnitaryError(ValidationError):
    """Matrix is not unitary within the structural tolerance."""


class NotSymmetricError(ValidationError):
    """Matrix is not (complex) symmetric within tolerance."""


class NotTracelessError(ValidationError):
    """4-vector of drift eigenvalues does not sum to zero."""


class NegativeDurationError(ValidationError):
    """A drift duration was negative."""


class ImproperRotationError(ValidationError):
    """A rotation with determinant -1 was passed where SO(4) is required."""


class NotMajorizedError(ValidationError):
    """Certificate requested for vectors that are not in majorization order."""


class UnknownGateError(ValidationError):
    """Named gate identifier is not in the registry."""


class BetaOutOfRangeError(ValidationError):
    """Controlled-U phase parameter outside [0, pi/4], or a content outside
    the canonical chamber where a canonical one is required."""


class NotAProductError(GateforgeError):
    """Operator is not a tensor product of single-qubit unitaries.

    Carries the offending (finite) value in ``residual``: the rank-one
    residual of the rearranged matrix, or the reassembly residual.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DiagonalizationFailedError(GateforgeError):
    """Joint diagonalization residual too large; input numerically pathological."""


class BranchResolutionError(GateforgeError):
    """No eigenvalue branch renders the left orthogonal factor real."""


class InfeasibleError(GateforgeError):
    """Target cannot be reached: local-only Hamiltonian, non-local gate."""


class SynthesisResidualError(GateforgeError):
    """Synthesized protocol failed its own verification; internal inconsistency."""

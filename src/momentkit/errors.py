"""Exception taxonomy shared by all momentkit modules."""


class MomentKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(MomentKitError):
    pass


class ModeMismatch(MomentKitError):
    """Two values or sequences with different arithmetic modes were combined."""


class DimensionMismatch(MomentKitError):
    pass


class DegreeInsufficient(MomentKitError):
    """The truncated sequence does not reach the degree an operation needs."""


class UnrepresentableInMode(MomentKitError):
    """A measure's moments cannot be expressed in the requested mode
    (e.g. log-normal moments in exact rationals)."""


class InvalidDirection(MomentKitError):
    pass


class PrecisionExhausted(MomentKitError):
    """A float-mode pivot lost all significant bits; its sign is undecidable."""


class NotPositiveDefinite(MomentKitError):
    pass


class NotAdmissible(MomentKitError):
    """No measure has these moments: the functional is not positive on
    squares (indefinite Hankel), or a singular Hankel form has no flat
    extension."""


class NonpositiveEvenMoment(MomentKitError):
    pass


class NotStieltjesAdmissible(MomentKitError):
    """Hankel or shifted Hankel fails positivity; no measure on [0, inf)."""


class NonRealPointRequired(MomentKitError):
    pass


class WrongSupport(MomentKitError):
    pass


class NotCompletelyMonotonicCoefficients(MomentKitError):
    pass


class LpUnbounded(MomentKitError):
    """The grid is too sparse for the requested degree; refine the grid."""


class LpInfeasible(MomentKitError):
    """Cannot occur with consistent data; signals malformed input."""


class NotInteriorDirection(MomentKitError):
    pass


class UnknownCurve(MomentKitError):
    pass


class AtomsOnRamificationWarning(UserWarning):
    """A lifted measure has atoms at ramification parameters; the lift is not unique."""

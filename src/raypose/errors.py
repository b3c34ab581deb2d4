"""Exception types shared across the package."""


class RayposeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RayposeError):
    """Input violates a precondition (wrong size, non-finite, out of range)."""


class RankDeficiencyError(RayposeError):
    """The linear system is rank deficient for the given geometry.

    When ``fix_scale_hint`` is True the deficiency comes from the scale
    column (e.g. all ray origins coincide) and the caller may re-pose the
    problem with the scale frozen at 1.
    """

    def __init__(self, message, fix_scale_hint=False):
        super().__init__(message)
        self.fix_scale_hint = fix_scale_hint


class EmptySolutionError(RayposeError):
    """No solver candidate survived; callers treat this as a robust-loop failure.

    Raised when every candidate has a non-positive scale, when no local
    minimum meets the stationarity tolerance, and when the cost's
    stationary points are not isolated (the zero cost, or a curve of
    minima), so that no finite candidate set describes them.
    """


class ParseError(RayposeError):
    """A document could not be parsed; carries a location when known."""

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location


class IntegrityError(RayposeError):
    """A document parsed but references a missing id or breaks an invariant."""

    def __init__(self, message, offending_id=None):
        super().__init__(message)
        self.offending_id = offending_id

"""Exception types shared across the package.

Meaningful limits (an infinite trace or lifetime, a vanishing lifetime,
the inner radius 0 of a closed hole) are returned as values, not raised.
The exceptions below mark genuine contract violations or numerical failures.
"""


class BrownscopeError(Exception):
    """Base class for package-specific errors."""


class EvaluationOnSupport(BrownscopeError):
    """A transform was evaluated at (or too close to) the measure's support."""


class WrongSupportKind(BrownscopeError):
    """The measure's support kind does not match what the operation needs."""


class NegativeEpsilon(BrownscopeError):
    """Negative regularization requested where the integrand turns singular."""


class InversionFailed(BrownscopeError):
    """Newton inversion of the time-t regularization map did not converge."""


class OutsideOmega(BrownscopeError):
    """Evaluation point lies below the subordination graph, where the
    half-plane map is not defined."""


class BadGamma(BrownscopeError):
    """Covariance parameter violates |gamma| <= t."""


def _check_gamma(t: float, gamma: complex) -> None:
    """Raise BadGamma unless |gamma| <= t, up to a relative 1e-12."""
    if abs(gamma) > t * (1 + 1e-12):
        raise BadGamma(f"|gamma| = {abs(gamma):.6g} exceeds t = {t:.6g}")


class ContinuationFailed(BrownscopeError):
    """Path-following or shooting stalled before its target, or a flow's
    state left the float range."""


class MapEvaluationError(BrownscopeError):
    """A boundary map failed at a specific polyline point."""

    def __init__(self, index, point, cause):
        self.index = index
        self.point = point
        self.cause = cause
        super().__init__(
            f"boundary map failed at point {index} {complex(point)}: {cause}"
        )


class BlowUp(BrownscopeError):
    """The Hamiltonian flow's dual variable diverged before the requested time.

    Attributes
    ----------
    t_detected : float
        The blow-up time, read off the flow's closed form (0 where the
        dual variable is already infinite at the start).
    """

    def __init__(self, t_detected, message=None):
        self.t_detected = float(t_detected)
        super().__init__(message or f"flow blew up at t = {self.t_detected:.12g}")

"""Exception types shared across the toolkit."""


class PolyrotError(Exception):
    """Base class for all toolkit errors."""


class ZeroProximity(PolyrotError):
    """The evaluation point is too close to a zero; rotation quantities are undefined there."""


class NonConvergence(PolyrotError):
    """The root solve failed: the eigenvalue iteration, a non-finite zero or a residual; the message names which."""


class HypothesisViolated(PolyrotError):
    """The input does not satisfy the hypothesis of the requested inequality."""


class ArcContainsRoot(HypothesisViolated):
    """A zero lies on the open arc that was required to be zero free."""


class InvalidWitnessParams(PolyrotError):
    """Witness parameters violate the constraints of the equality family."""

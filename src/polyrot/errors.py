"""Exception types shared across the toolkit."""


class PolyrotError(Exception):
    """Base class for all toolkit errors."""


class ZeroProximity(PolyrotError):
    """The evaluation point is too close to a zero; rotation quantities are undefined there."""


class NonConvergence(PolyrotError):
    """The root iteration failed to settle within the allowed iterations."""

    def __init__(self, iterations_used: int):
        self.iterations_used = iterations_used
        super().__init__(f"root iteration did not converge after {iterations_used} iterations")


class HypothesisViolated(PolyrotError):
    """The input does not satisfy the hypothesis of the requested inequality."""


class ArcContainsRoot(HypothesisViolated):
    """A zero lies on the open arc that was required to be zero free."""


class UnwrapAmbiguity(PolyrotError):
    """Successive phase samples jump by >= pi/2 even after refinement; tracking is ambiguous."""


class RootAtOne(PolyrotError):
    """A zero sits at z = 1, where the normalized self-map construction is undefined."""


class DegenerateDerivative(PolyrotError):
    """|f'(0)| = 1, where the interior derivative bound degenerates."""


class InvalidWitnessParams(PolyrotError):
    """Witness parameters violate the constraints of the equality family."""

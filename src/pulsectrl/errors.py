"""Exception types shared across the toolkit."""


class PulseControlError(Exception):
    """Base class for all toolkit errors."""


class DegenerateControl(PulseControlError):
    """f'(u*) = 0: the (alpha, beta) reduction is invalid."""


class PoleAtInput(PulseControlError):
    """Spectral function evaluated exactly at one of its poles."""

    def __init__(self, pole):
        self.pole = pole
        super().__init__(f"input coincides with pole at {pole}")


class EssentialRay(PulseControlError):
    """Continuum integral evaluated on its branch cut (-inf, -1]."""


class UnstableEssential(PulseControlError):
    """Control slope >= 1: the essential spectrum is unstable."""


class RootIsolationFailure(PulseControlError):
    """The argument-principle search could not account for the roots in a
    rectangle: a root lies on the search boundary; a phase step stayed a
    quarter turn or more after 48 bisections, or once its edge fell under
    1e-13; the secant failed in a cell under 1e-6 across that winds around
    a root; subdivision reached its depth limit; or the roots found do not
    match the rectangle's winding number (the count certificate)."""


class NearEigenvalue(PulseControlError):
    """Resolvent system nearly singular: shift too close to an eigenvalue."""


class OutOfContinuum(PulseControlError):
    """Continuous-spectrum parameter outside (-inf, -1)."""


class NotControllable(PulseControlError):
    """Gain search requested for a parameter point that no gain stabilizes."""


class FloorInsufficient(PulseControlError):
    """No stabilizing gain found in the gain search's range.  The message
    says whether that range held every imaginary-axis crossing."""


class NumericalBlowup(PulseControlError):
    """Non-finite values encountered during time integration."""

    def __init__(self, time=None):
        self.time = time
        super().__init__(f"non-finite state at t={time}")


class RelaxationFailure(NumericalBlowup):
    """Newton relaxation of the pulse profile stalled above its tolerance.

    The state is finite; the residual stays at the rounding floor of the
    discrete operator, which a fine enough grid pushes above the tolerance.
    """

    def __init__(self, residual, tol, steps):
        self.time = 0.0
        self.residual = residual
        self.tol = tol
        self.steps = steps
        PulseControlError.__init__(
            self, f"pulse relaxation stalled: residual {residual:.3g} above "
                  f"its tolerance {tol:.3g} after {steps} Newton steps")

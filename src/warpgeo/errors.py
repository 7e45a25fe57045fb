"""Exception hierarchy.

Every error raised by this package derives from WarpgeoError, so callers can
catch one type at the boundary. Subclasses are grouped by the stage that
raises them; none carry extra state beyond the message.
"""


class WarpgeoError(Exception):
    """Base class for all package errors."""


# -- parameter and configuration validation ---------------------------------

class BadDimension(WarpgeoError):
    """Ambient or intrinsic dimension outside the supported range."""


class BadRange(WarpgeoError):
    """A parameter is outside its admissible range."""


class InconsistentParams(WarpgeoError):
    """Supplied constants contradict each other (e.g. c vs initial state)."""


class ConfigError(WarpgeoError):
    """Malformed run configuration file or unknown keys."""


# -- ODE integration ---------------------------------------------------------

class NonPositiveWarp(WarpgeoError):
    """Warp function must stay strictly positive."""


class StepTooLarge(WarpgeoError):
    """Integrator drift check failed; reduce the step."""


class DomainExhausted(WarpgeoError):
    """Initial state is already outside the admissible domain."""


class WrongFamily(WarpgeoError):
    """Operation requires parameters from a specific solution family."""


class WrongRegime(WarpgeoError):
    """Operation requires a specific (eps, rho) regime."""


# -- charts and sampling -----------------------------------------------------

class SingularChartPoint(WarpgeoError):
    """Point too close to a coordinate singularity of the chart."""


class OutOfDomain(WarpgeoError):
    """Requested evaluation point lies outside the solution's t-interval."""


class OutsideDomain(WarpgeoError):
    """Sample point (with stencil margin) leaves the chart's domain box."""


# -- extrinsic analysis ------------------------------------------------------

class RankDeficient(WarpgeoError):
    """Differential does not have full rank at the evaluation point."""


class FrameMismatch(WarpgeoError):
    """Supplied frame does not match the expected dimensions."""


class NotFlatNormal(WarpgeoError):
    """Normal bundle fails the flatness test beyond tolerance."""


class DegenerateDelta(WarpgeoError):
    """Distinguished profile normal degenerates (1 - phi'^2 ~ 0)."""


class NotNormalForm(WarpgeoError):
    """Shape operators admit no gauge matching a known normal form."""

"""Exception hierarchy for grassflow.

Every failure mode raised by the numerical core derives from GrassflowError,
so callers (in particular the CLI) can map them onto exit codes.
"""


class GrassflowError(Exception):
    """Base class for all grassflow errors."""


class RankDeficient(GrassflowError):
    """Input matrix does not have full column rank."""


class GapTooSmall(GrassflowError):
    """Spectral gap between retained and discarded eigenvalues is too small."""


class NotUnitary(GrassflowError):
    """Matrix expected to be unitary is not."""


class NotAntiHermitian(GrassflowError):
    """Matrix expected to satisfy A* = -A does not."""


class NotAFrame(GrassflowError):
    """Matrix expected to satisfy phi* phi = I does not."""


class NotTangent(GrassflowError):
    """Vector does not satisfy the tangency constraint at the given point."""


class NotHorizontal(GrassflowError):
    """Frame tangent has a nonzero vertical component."""


class BaseMismatch(GrassflowError):
    """Frame or tangent does not sit over the expected base point."""


class OutsideChart(GrassflowError):
    """Projector lies outside the chart domain of the given base point."""


class SectionNotInFiber(GrassflowError):
    """Sampled section leaves the fiber it is declared to live in."""


class NotClosed(GrassflowError):
    """Projector path expected to be a closed loop is not."""


class DegenerateStep(GrassflowError):
    """Consecutive fibers are (numerically) orthogonal; projection collapses rank."""


class DimensionTooSmall(GrassflowError):
    """Ambient dimension leaves no room for the requested construction."""


class PathTooRough(GrassflowError):
    """Sampled path violates the continuity bound; derivatives are unreliable."""


class NonFinite(GrassflowError, ValueError):
    """Array holds NaN or inf entries (an input, or a state that overflowed)."""


class InvalidArgument(GrassflowError, ValueError):
    """Argument out of its domain: a bad grid, shape, rank, order or scale."""

"""Exception types shared across the package.

Two failure families matter to callers: bad input data (graphs that are not
strongly connected, malformed files, invalid indices) and numerical failures
(iterations that do not converge, singular systems). The CLI maps them to
distinct exit codes.
"""


class DpinvError(Exception):
    """Base class for all package-specific errors."""


class InputError(DpinvError):
    """Invalid input data: bad graph, bad file, bad index set."""


class NumericalError(DpinvError):
    """A numerical procedure failed: no convergence, singularity, NaN."""


class GmresNonConvergenceError(NumericalError):
    """Restarted GMRES did not converge: it hit its outer-iteration cap, met
    its reachable floor, or stagnated. Carries the partial report."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class GmresStagnationError(GmresNonConvergenceError):
    """Restarted GMRES stopped cutting a column's residual, cycle after cycle."""


class MissingColumnsError(DpinvError):
    """A metric needed pseudo-inverse entries outside the computed column set."""

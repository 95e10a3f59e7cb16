"""Exception types shared across the toolkit.

Every failure mode a caller is expected to handle gets its own class so that
the CLI can map errors to exit codes without string matching.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidModel(ToolkitError, ValueError):
    """A model's second-order parameters violate positive definiteness."""


class SingularObservation(ToolkitError, ValueError):
    """The observation covariance block is numerically singular."""


class DegenerateDenominator(ToolkitError, ArithmeticError):
    """A closed form was evaluated where its denominator vanishes."""


class ZeroRate(ToolkitError, ValueError):
    """A strictly positive rate was required."""


class InvalidDistribution(ToolkitError, ValueError):
    """A discrete instance's tables are not valid probabilities."""


class NoRoot(ToolkitError, ArithmeticError):
    """A closed-form root leaves the model invalid.

    Raised by ``side_info.find_matched_rho_xw`` when the matched rho_x_w
    falls outside the interval that keeps the covariance positive definite.
    """


class InfeasibleInterval(ToolkitError, ArithmeticError):
    """No value of a free parameter keeps the model positive definite.

    Raised by ``side_info.feasible_rho_xw_interval`` when the determinant,
    a downward parabola in rho_x_w, has no positive part.
    """


class NonCanonicalizable(ToolkitError, ValueError):
    """An objective pair does not reduce to the supported canonical form."""


class CrossTermPresent(NonCanonicalizable):
    """An objective couples the control and the reconstruction directly.

    No linearity claim is made for such games, so solving is refused
    outright rather than silently returning a linear scheme.
    """


class Unbounded(ToolkitError, ArithmeticError):
    """The control objective has no finite minimum: the U^2 penalty k1 <= 0."""

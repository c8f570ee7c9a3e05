"""Exception hierarchy shared by all wtree modules.

Two top-level families matter for the CLI exit-code contract:
``ValidationError`` (bad configuration or bad input, exit code 1) and
``NumericalDegeneracyError`` (a computation hit a state the theory
excludes or the floating-point evaluation cannot resolve, exit code 2).
"""

from __future__ import annotations


class WtreeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WtreeError, ValueError):
    """Invalid configuration value, argument, or input domain."""


class AddressRangeError(ValidationError):
    """Edge address lies outside the truncated tree."""


class BoundaryPointError(ValidationError):
    """Boundary-mode spectral point with E <= 0 is not supported."""


class BudgetExceededError(ValidationError):
    """A tree traversal would visit more edges than the configured budget."""


class InsufficientSamplesError(ValidationError):
    """An estimator was asked to run with too few samples."""


class NumericalDegeneracyError(WtreeError, ArithmeticError):
    """A numerically degenerate state that the half-plane theory excludes."""


class SingularMergeError(NumericalDegeneracyError):
    """A vertex merge received a disk value at the singular point m = 1."""


class SingularTransformError(NumericalDegeneracyError):
    """A disk/half-plane transform was evaluated at its pole."""


class MoebiusPoleError(NumericalDegeneracyError):
    """An edge propagation in the R-representation hit a vanishing denominator."""


class RowDegeneracyError(NumericalDegeneracyError):
    """Some rows of a batch tree solve degenerated; the others are valid.

    ``values`` is the batch result with NaN in the failed rows;
    ``reasons`` has one entry per row, None or the row's failure text.
    """

    def __init__(self, message, values, reasons):
        super().__init__(message)
        self.values, self.reasons = values, reasons

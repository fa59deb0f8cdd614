"""Exception types shared across the package.

Every error raised on a documented failure path derives from CwkitError so
callers (and the CLI) can separate contract violations from Python bugs.
"""


class CwkitError(Exception):
    """Base class for all documented failure modes."""


class DimensionMismatch(CwkitError):
    """Operands live in different ambient dimensions."""


class BudgetExhausted(CwkitError):
    """Rejection sampling ran out of draws before collecting enough accepts."""

    def __init__(self, message, accepted=0, budget=0):
        super().__init__(message)
        self.accepted = accepted
        self.budget = budget


class InsufficientRank(CwkitError):
    """Candidate directions are numerically confined near a proper subspace."""


class RankDeficient(CwkitError):
    """Design matrix rank is below the homogeneous coefficient count."""


class OrderExceeded(CwkitError):
    """A moment of higher order than the stored/available table was requested."""


class ParseError(CwkitError):
    """Malformed cell in an input file."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class RaggedRows(CwkitError):
    """Input rows do not all have the same width."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row

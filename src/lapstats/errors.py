"""Exception types shared across the package.

The CLI exits 2 for bad input and 3 for a resource guard, a solver failure
or a failed exactness check (ArithmeticError). Anything else escaping is a bug.
"""


class InputError(ValueError):
    """Invalid user-supplied data: malformed graphs, bad family parameters,
    unparseable files, preconditions violated by the caller."""


class GuardExceeded(RuntimeError):
    """A size or cost budget was exceeded, checked before the work starts; never truncated."""


class ConvergenceError(RuntimeError):
    """The eigensolver failed, or its eigenvalues did not sum to the matrix
    trace within the certificate tolerance."""

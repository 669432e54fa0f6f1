"""Exception types shared across the package.

ValidationError covers malformed inputs (bad shapes, out-of-range configs,
missing pipeline stages); NumericalError covers runs that start from valid
inputs but fail numerically (a failed gradient check).  Optimization is a
linear solve and cannot diverge; its residual is recorded, not raised.  The
CLI maps them to exit codes 2 and 3.
"""


class ValidationError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass

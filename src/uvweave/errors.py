"""Exception types shared across the package.

ValidationError covers malformed inputs (bad shapes, out-of-range configs,
missing pipeline stages); NumericalError covers runs that start from valid
inputs but fail numerically (a failed gradient check).  Optimization is a
linear solve and cannot diverge; its residual is recorded, not raised.  The
CLI maps them to exit codes 2 and 3.
"""

import math


class ValidationError(ValueError):
    pass


def require_finite(cfg, *names):
    """Raise ValidationError unless each float field ``names`` of ``cfg`` is
    finite: a NaN passes every range check and JSON cannot hold it."""
    for name in names:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


class NumericalError(RuntimeError):
    pass

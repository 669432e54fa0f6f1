"""Refinement of a UV map by one sparse smoothing solve per frame.

The appearance loss cannot tell a right chart from a wrong one: any
smooth, injective map reproduces its frame up to resampling blur.  What
refinement supplies is smoothness, so it minimizes

    mu * |uv - uv_init|^2 + l_reg(uv)

over the silhouette pixels.  ``l_reg`` is the weighted difference operator
of ``gradcore.reg_operator``, built once per frame.  The minimizer solves
``(H + mu I) uv = mu uv_init`` with its quadratic form ``H`` (a Whittaker
smoother, Eilers 2003); one sparse LU factorization serves both UV
channels, and the trace's ``l_reg`` is read off the same operator.
``mu`` follows the image size, because the second differences of
``l_reg`` grow as its fourth power.  Frames are independent, so callers
can optimize them in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import identity

from .errors import NumericalError, ValidationError, require_finite
from .fields import Field2
from .gradcore import loss_app, reg_operator
from .warpmap import UVMap

MU_64 = 1.2e7   # data weight at a 64x64 image


@dataclass
class OptConfig:
    alpha1: float = 100.0
    alpha2: float = 10.0

    def __post_init__(self):
        require_finite(self, "alpha1", "alpha2")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValidationError("regularizer weights must be non-negative")


@dataclass
class OptTrace:
    l_app: list = field(default_factory=list)   # [before, after]
    l_reg: list = field(default_factory=list)
    residual: float = 0.0     # max |A uv - b| / max |b| of the solve

    @property
    def steps(self) -> int:
        return len(self.l_app)

    @property
    def total(self) -> list:
        return [a + r for a, r in zip(self.l_app, self.l_reg)]


def data_weight(width: int, height: int) -> float:
    """``mu`` for a ``width x height`` image."""
    return MU_64 * (width * height / 64.0 ** 2) ** 2


def optimize_uv(P_init: UVMap, I: Field2, cfg: OptConfig, tex_w: int, tex_h: int):
    """Refine a UV map on one frame; returns (UVMap, OptTrace).  The trace's
    appearance losses sample a ``tex_w`` x ``tex_h`` texture."""
    if (P_init.height, P_init.width) != (I.height, I.width):
        raise ValidationError("uv map and image resolutions differ")
    if I.valid is not None and (I.valid & ~P_init.silhouette).any():
        raise ValidationError("uv map does not cover the frame's foreground")

    # Imported here: scipy.sparse.linalg loads scipy.linalg, about 8 MB of
    # resident memory that a process which never optimizes need not pay.
    from scipy.sparse.linalg import splu

    sil = P_init.silhouette
    mu = data_weight(I.width, I.height)
    reg = reg_operator(sil, cfg.alpha1, cfg.alpha2)
    H = reg.matrix()
    A = H + mu * identity(H.shape[0], format="csc")
    # Weights near float64's range overflow or break the system; fail with
    # a typed error before the caller writes anything.
    weights = f"alpha1={cfg.alpha1:g}, alpha2={cfg.alpha2:g}"
    if not np.isfinite(A.data).all():
        raise NumericalError(f"regularizer weights {weights} overflow the smoothing system")
    v = P_init.uv.data[sil]                           # (n, 2), one column per channel
    b = mu * v
    try:
        x = splu(A).solve(b)
    except RuntimeError as e:     # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"smoothing system at {weights} is singular: {e}") from None
    if not np.isfinite(x).all():
        raise NumericalError(f"smoothing solve at {weights} gave non-finite UVs")
    uv = np.zeros_like(P_init.uv.data)
    uv[sil] = x
    P = UVMap(uv, sil)

    trace = OptTrace()
    for Q, q in ((P_init, v), (P, x)):
        trace.l_app.append(loss_app(Q, I, tex_w, tex_h))
        trace.l_reg.append(reg.loss(q))
    trace.residual = float(np.abs(A @ x - b).max(initial=0.0)
                           / max(np.abs(b).max(initial=0.0), 1e-300))
    if not np.isfinite(trace.l_app + trace.l_reg + [trace.residual]).all():
        raise NumericalError(f"optimization trace at {weights} holds a non-finite value")
    return P, trace

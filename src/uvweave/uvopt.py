"""Gradient-descent refinement of a UV map against its frame.

Plain descent on the appearance loss plus the smoothness regularizer.
The default learning rate is deliberately aggressive and scene-tuned; a
backtracking guard halves it whenever a step would increase the loss, so
the recorded trace is non-increasing on every accepted step.  Each
candidate costs one forward pass of the appearance loss and one
evaluation of the regularizer with its gradient; an accepted candidate
reuses both.  Frames are independent, so
callers can optimize them in parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .fields import Field2
from .gradcore import forward_app, grad_app, grad_reg
from .warpmap import UVMap

UV_CLAMP = (-1.0, 2.0)


@dataclass
class OptConfig:
    alpha1: float = 100.0
    alpha2: float = 10.0
    lr: float = 10.0
    max_steps: int = 16500
    rel_tol: float = 1e-6
    window: int = 100          # steps between the two points of the rel_tol test
    tex_w: int | None = None   # texture resolution; image size when None
    tex_h: int | None = None
    lr_floor: float = 1e-14
    divergence_factor: float = 10.0
    divergence_patience: int = 50

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValidationError("regularizer weights must be non-negative")
        if self.lr <= 0 or self.max_steps < 1 or self.rel_tol < 0 or self.window < 1:
            raise ValidationError("bad optimizer configuration")


@dataclass
class OptTrace:
    l_app: list = field(default_factory=list)
    l_reg: list = field(default_factory=list)
    steps: int = 0
    lr_final: float = 0.0
    stop_reason: str = ""
    clamped: int = 0          # UV components the accepted steps clipped
    rejected: int = 0         # line-search candidates that raised the loss
    wall_time: float = 0.0     # informational only; never serialized

    @property
    def total(self) -> list:
        return [a + r for a, r in zip(self.l_app, self.l_reg)]


def _check_divergence(totals, initial, factor, patience) -> bool:
    """True when the loss has exceeded factor * initial for `patience` steps."""
    if len(totals) < patience:
        return False
    bound = factor * max(initial, 1e-300)
    return all(t > bound for t in totals[-patience:])


def optimize_uv(P_init: UVMap, I: Field2, cfg: OptConfig | None = None):
    """Refine a UV map on one frame; returns (UVMap, OptTrace)."""
    cfg = cfg or OptConfig()
    if (P_init.height, P_init.width) != (I.height, I.width):
        raise ValidationError("uv map and image resolutions differ")
    if I.valid is not None and (I.valid & ~P_init.silhouette).any():
        raise ValidationError("uv map does not cover the frame's foreground")
    tw = cfg.tex_w or I.width
    th = cfg.tex_h or I.height

    t0 = time.perf_counter()
    sil = P_init.silhouette
    uv = P_init.uv.data.copy()
    trace = OptTrace()
    lr = cfg.lr
    clamped = rejected = 0

    P = UVMap(uv, sil)
    rep_a = grad_app(P, I, tw, th)
    rep_r = grad_reg(P, cfg.alpha1, cfg.alpha2)
    la, lr_loss = rep_a.l_app, rep_r.l_reg
    initial = la + lr_loss
    totals = []
    stop = "max_steps"
    for step in range(cfg.max_steps):
        trace.l_app.append(la)
        trace.l_reg.append(lr_loss)
        totals.append(la + lr_loss)
        if _check_divergence(totals, initial, cfg.divergence_factor,
                             cfg.divergence_patience):
            raise NumericalError("divergence; reduce lr")
        if step >= cfg.window:
            ref = totals[step - cfg.window]
            if ref - totals[step] < cfg.rel_tol * max(ref, 1e-300):
                stop = "converged"
                break

        g = rep_a.grad.data + rep_r.grad.data
        cur = la + lr_loss
        accepted = False
        while lr >= cfg.lr_floor:
            raw = uv - lr * g
            cand = np.clip(raw, UV_CLAMP[0], UV_CLAMP[1])
            cand[~sil] = 0.0
            Q = UVMap(cand, sil)
            fwd = forward_app(Q, I, tw, th)
            reg_c = grad_reg(Q, cfg.alpha1, cfg.alpha2)
            ca, cr = fwd.l_app, reg_c.l_reg
            if ca + cr <= cur:
                accepted = True
                break
            rejected += 1
            lr *= 0.5
        if not accepted:
            # Even the smallest step increases the loss: hold position.
            continue
        clamped += int(np.count_nonzero((raw < UV_CLAMP[0]) | (raw > UV_CLAMP[1])))
        uv = cand
        la, lr_loss = ca, cr
        # The accepted candidate's forward pass feeds its gradient, and its
        # regularizer report is already whole.
        rep_a = grad_app(Q, I, tw, th, fwd=fwd)
        rep_r = reg_c
    else:
        trace.l_app.append(la)
        trace.l_reg.append(lr_loss)

    trace.steps = len(trace.l_app)
    trace.lr_final = lr
    trace.stop_reason = stop
    trace.clamped = clamped
    trace.rejected = rejected
    trace.wall_time = time.perf_counter() - t0
    return UVMap(uv, sil), trace

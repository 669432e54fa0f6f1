"""Appearance loss of the UV round trip and its exact analytic gradient.

The forward chain unwraps a frame into texture space through the splatted
inverse grid, then renders it back through the per-pixel grid:

    T  = warp(I, texture_grid(P))        # unwrap
    I' = warp(T, image_grid(P))          # re-render
    l_app = sum over foreground of |I' - I|^2

``forward_app`` runs this chain once and returns an ``AppForward`` record
holding the loss and every intermediate the adjoint needs; ``loss_app`` is
its ``l_app``.  ``grad_app`` backpropagates the residual through both
dependencies on P: the direct path (the re-render samples T at a
P-dependent location) and the texture path (the splat weights that built T
are themselves functions of P).  Given the record of a forward pass it
already ran (``fwd=``), it runs the adjoint alone, so a line search that
evaluated a candidate pays no second forward pass for its gradient.  The
adjoint reuses the recorded splat weights, so it is the exact derivative
of the discrete forward computation; the only dropped term is the
nearest-neighbor fill of uncovered texels, whose values are extrapolations
rather than data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .fields import Field2, _bilinear_gather, scatter_add
from .warpmap import (SplatRecord, UVMap, fill_from_nearest, splat_average,
                      splat_record)


@dataclass
class LossReport:
    l_app: float
    l_reg: float
    grad: Field2


def _check_pair(P: UVMap, I: Field2):
    if (P.height, P.width) != (I.height, I.width):
        raise ValidationError(
            f"resolution mismatch: uv map {P.width}x{P.height} vs image {I.width}x{I.height}"
        )


class AppForward(NamedTuple):
    """One forward pass of the appearance loss: the loss and what the
    adjoint needs."""

    rec: SplatRecord
    tgt: np.ndarray         # (n_tex, 2) splat-averaged image positions
    cov: np.ndarray         # (n_tex,) covered texels
    T: np.ndarray           # (n_tex, C) unwrapped texture
    dT_dqx: np.ndarray
    dT_dqy: np.ndarray
    T_at: np.ndarray        # (n, 4, C) texture at each pixel's splat corners
    res: np.ndarray         # (n, C) re-render residual
    l_app: float


def forward_app(P: UVMap, I: Field2, tex_w: int | None = None,
                tex_h: int | None = None) -> AppForward:
    """Run the unwrap and re-render once; the record feeds ``grad_app``."""
    _check_pair(P, I)
    tex_w = tex_w or I.width
    tex_h = tex_h or I.height
    rec = splat_record(P, tex_w, tex_h)
    tgt, cov = splat_average(rec, rec.values)          # (n_tex, 2) normalized
    tgt_filled = fill_from_nearest(tgt.reshape(tex_h, tex_w, 2),
                                   cov.reshape(tex_h, tex_w)).reshape(-1, 2)

    # Unwrap: one bilinear fetch of I per texel, at the splat-averaged position.
    qx = tgt_filled[:, 0] * I.width - 0.5
    qy = tgt_filled[:, 1] * I.height - 0.5
    T, dT_dqx, dT_dqy = _bilinear_gather(I.data, qx, qy, with_grad=True)

    # Re-render: each foreground pixel samples T at its own splat position,
    # which shares corner indices and weights with the splat record.
    T_at = T[rec.corners]                              # (n, 4, C)
    I_prime = np.einsum("nk,nkc->nc", rec.weights, T_at)
    I_fg = I.data[rec.pix_y, rec.pix_x]
    res = I_prime - I_fg
    l_app = float(np.sum(res * res))
    return AppForward(rec, tgt, cov, T, dT_dqx, dT_dqy, T_at, res, l_app)


def loss_app(P: UVMap, I: Field2, tex_w: int | None = None,
             tex_h: int | None = None) -> float:
    """Summed squared round-trip error over foreground pixels."""
    return forward_app(P, I, tex_w, tex_h).l_app


def grad_app(P: UVMap, I: Field2, tex_w: int | None = None,
             tex_h: int | None = None, fwd: AppForward | None = None) -> LossReport:
    """Appearance loss and its exact gradient with respect to the UV field.

    ``fwd`` is the record of ``forward_app(P, I, tex_w, tex_h)`` when the
    caller already has it; the forward pass is then not repeated.
    """
    _check_pair(P, I)
    tex_w = tex_w or I.width
    tex_h = tex_h or I.height
    if fwd is None:
        fwd = forward_app(P, I, tex_w, tex_h)
    elif (fwd.rec.tex_w, fwd.rec.tex_h) != (tex_w, tex_h):
        raise ValidationError("forward record was made for another texture size")
    rec, tgt, cov, T, dT_dqx, dT_dqy, T_at, res, l_app = fwd

    r = 2.0 * res                                      # dl/dI' per pixel, (n, C)
    fx, fy, w = rec.fx, rec.fy, rec.weights
    dw_dgx = np.stack([-(1.0 - fy), (1.0 - fy), -fy, fy], axis=1)
    dw_dgy = np.stack([-(1.0 - fx), -fx, (1.0 - fx), fx], axis=1)

    # Direct path: the re-render moves with the sampling position.
    rT = np.einsum("nc,nkc->nk", r, T_at)              # (n, 4)
    dgx = np.einsum("nk,nk->n", dw_dgx, rT)
    dgy = np.einsum("nk,nk->n", dw_dgy, rT)

    # Texture path, step 1: residual -> texel values of T.
    Tbar = scatter_add(rec.corners.ravel(),
                       (r[:, None, :] * w[:, :, None]).reshape(-1, T.shape[1]), T.shape[0])

    # Step 2: texel values -> splat-averaged positions.  Uncovered texels
    # hold extrapolated fills and contribute no gradient.
    dq = np.zeros((T.shape[0], 2), dtype=np.float64)
    dq[:, 0] = np.einsum("tc,tc->t", Tbar, dT_dqx)
    dq[:, 1] = np.einsum("tc,tc->t", Tbar, dT_dqy)
    dq[~cov] = 0.0
    dtgt = dq * np.array([I.width, I.height])          # q = tgt * size - 0.5

    # Step 3: positions -> splat weights -> pixel splat coordinates.
    # d tgt_d(u) / d w_ik = (value_id - tgt_d(u)) / wsum(u).
    d_at = dtgt[rec.corners]                           # (n, 4, 2)
    t_at = tgt[rec.corners]
    wsum_at = rec.wsum[rec.corners]
    diff = rec.values[:, None, :] - t_at
    dldw = np.einsum("nkd,nkd->nk", d_at, diff)
    np.divide(dldw, wsum_at, out=dldw, where=wsum_at > 0)
    dgx += np.einsum("nk,nk->n", dw_dgx, dldw)
    dgy += np.einsum("nk,nk->n", dw_dgy, dldw)

    # Chain to the stored displacement: g = (c - uv) * tex - 0.5.
    guv = np.zeros((P.height, P.width, 2), dtype=np.float64)
    guv[rec.pix_y, rec.pix_x, 0] = -dgx * tex_w
    guv[rec.pix_y, rec.pix_x, 1] = -dgy * tex_h
    return LossReport(l_app=l_app, l_reg=0.0, grad=Field2(guv))


def _reg_terms(P: UVMap, alpha1: float, alpha2: float, want_grad: bool):
    uv = P.uv.data
    m = P.silhouette
    w, h = P.width, P.height
    if w < 5 or h < 5:
        raise ValidationError(f"regularizer needs at least a 5x5 grid, got {w}x{h}")
    g = np.zeros_like(uv) if want_grad else None
    l = 0.0

    # First differences, normalized-coordinate units, over pairs inside the
    # silhouette.  The adjoint of the pair stencil is the discrete Laplacian.
    dx = (uv[:, 1:] - uv[:, :-1]) * w
    dx *= (m[:, 1:] & m[:, :-1])[..., None]
    dy = (uv[1:] - uv[:-1]) * h
    dy *= (m[1:] & m[:-1])[..., None]
    l += alpha1 * (np.sum(dx * dx) + np.sum(dy * dy))
    if want_grad:
        t = 2.0 * alpha1 * dx * w
        g[:, 1:] += t
        g[:, :-1] -= t
        t = 2.0 * alpha1 * dy * h
        g[1:] += t
        g[:-1] -= t

    # Second differences; the mixed term appears twice in the Hessian.
    hxx = (uv[:, 2:] - 2.0 * uv[:, 1:-1] + uv[:, :-2]) * (w * w)
    hxx *= (m[:, 2:] & m[:, 1:-1] & m[:, :-2])[..., None]
    hyy = (uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) * (h * h)
    hyy *= (m[2:] & m[1:-1] & m[:-2])[..., None]
    hxy = (uv[1:, 1:] - uv[1:, :-1] - uv[:-1, 1:] + uv[:-1, :-1]) * (w * h)
    hxy *= (m[1:, 1:] & m[1:, :-1] & m[:-1, 1:] & m[:-1, :-1])[..., None]
    l += alpha2 * (np.sum(hxx * hxx) + np.sum(hyy * hyy) + 2.0 * np.sum(hxy * hxy))
    if want_grad:
        t = 2.0 * alpha2 * hxx * (w * w)
        g[:, 2:] += t
        g[:, 1:-1] -= 2.0 * t
        g[:, :-2] += t
        t = 2.0 * alpha2 * hyy * (h * h)
        g[2:] += t
        g[1:-1] -= 2.0 * t
        g[:-2] += t
        t = 4.0 * alpha2 * hxy * (w * h)
        g[1:, 1:] += t
        g[1:, :-1] -= t
        g[:-1, 1:] -= t
        g[:-1, :-1] += t
    return float(l), g


def loss_reg(P: UVMap, alpha1: float, alpha2: float) -> float:
    return _reg_terms(P, alpha1, alpha2, want_grad=False)[0]


def grad_reg(P: UVMap, alpha1: float, alpha2: float) -> LossReport:
    """Smoothness energy (gradient plus Hessian penalty) and exact gradient."""
    l, g = _reg_terms(P, alpha1, alpha2, want_grad=True)
    return LossReport(l_app=0.0, l_reg=l, grad=Field2(g))


def fd_probe_check(P: UVMap, I: Field2, alpha1: float, alpha2: float,
                   probes: np.ndarray, eps: float = 1e-3,
                   tex_w: int | None = None, tex_h: int | None = None) -> float:
    """Max relative error of the analytic gradient against central differences.

    ``probes`` is an (n, 3) array of (y, x, channel) indices into the UV
    field.  The oracle side uses only forward loss evaluations.
    """
    tex_w = tex_w or I.width
    tex_h = tex_h or I.height
    rep_a = grad_app(P, I, tex_w, tex_h)
    rep_r = grad_reg(P, alpha1, alpha2)
    grad = rep_a.grad.data + rep_r.grad.data

    def total(uv):
        Q = UVMap(uv, P.silhouette)
        return loss_app(Q, I, tex_w, tex_h) + loss_reg(Q, alpha1, alpha2)

    worst = 0.0
    for y, x, c in np.asarray(probes, dtype=np.int64):
        up = P.uv.data.copy()
        up[y, x, c] += eps
        dn = P.uv.data.copy()
        dn[y, x, c] -= eps
        fd = (total(up) - total(dn)) / (2.0 * eps)
        err = abs(grad[y, x, c] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, err)
    return worst

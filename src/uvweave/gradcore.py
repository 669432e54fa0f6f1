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
are themselves functions of P).  The adjoint reuses the recorded splat
weights, so it is the exact derivative of the discrete forward
computation; the only dropped term is the nearest-neighbor fill of
uncovered texels, whose values are extrapolations rather than data.

The smoothness regularizer ``l_reg`` has one definition, the weighted
difference operator of ``reg_operator``: ``loss_reg``, ``grad_reg`` and the
sparse quadratic form ``H`` that ``uvopt`` solves with all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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


def forward_app(P: UVMap, I: Field2, tex_w: int, tex_h: int) -> AppForward:
    """Run the unwrap and re-render once, into a ``tex_w`` x ``tex_h``
    texture; the record feeds ``grad_app``."""
    _check_pair(P, I)
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


def loss_app(P: UVMap, I: Field2, tex_w: int, tex_h: int) -> float:
    """Summed squared round-trip error over foreground pixels."""
    return forward_app(P, I, tex_w, tex_h).l_app


def grad_app(P: UVMap, I: Field2, tex_w: int, tex_h: int) -> LossReport:
    """Appearance loss and its exact gradient with respect to the UV field."""
    rec, tgt, cov, T, dT_dqx, dT_dqy, T_at, res, l_app = forward_app(P, I, tex_w, tex_h)

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


class RegOperator(NamedTuple):
    """The smoothness regularizer as weighted differences over the
    silhouette pixels: ``l_reg = sum over channels of sum(w * (D v)^2)``,
    where ``v`` holds one UV channel at the silhouette pixels in row-major
    order.  Loss and gradient are evaluated from the differences ``D v``,
    so a constant ``v`` scores exactly 0 and scaling both weights by a
    power of two scales both exactly."""

    D: sp.csr_matrix        # (m, n), one row per stencil placement
    w: np.ndarray           # (m,) weight of each row

    def loss(self, v: np.ndarray) -> float:
        r = self.D @ v
        return float(np.sum(self.w[:, None] * r * r))

    def grad(self, v: np.ndarray) -> np.ndarray:
        """``2 D' diag(w) D v``, the gradient of ``loss`` at ``v``."""
        return 2.0 * (self.D.T @ (self.w[:, None] * (self.D @ v)))

    def matrix(self) -> sp.csc_matrix:
        """``H = D' diag(w) D``, so that ``l_reg = sum over channels of v' H v``."""
        return (self.D.T @ sp.diags(self.w) @ self.D).tocsc()


def reg_operator(sil: np.ndarray, alpha1: float, alpha2: float) -> RegOperator:
    """The regularizer over the silhouette ``sil``: ``alpha1`` weighs the
    squared first differences in x and y, ``alpha2`` the squared second
    differences xx, yy and (twice) xy, all in normalized-coordinate units.
    Each stencil is kept where all its taps lie in the silhouette.
    """
    h, w = sil.shape
    if w < 5 or h < 5:
        raise ValidationError(f"regularizer needs at least a 5x5 grid, got {w}x{h}")
    n = int(sil.sum())
    index = np.full((h, w), -1, dtype=np.int64)
    index[sil] = np.arange(n)
    # (weight, scale, taps as (dy, dx, coefficient))
    stencils = [
        (alpha1, w, [(0, 0, -1.0), (0, 1, 1.0)]),
        (alpha1, h, [(0, 0, -1.0), (1, 0, 1.0)]),
        (alpha2, w * w, [(0, 0, 1.0), (0, 1, -2.0), (0, 2, 1.0)]),
        (alpha2, h * h, [(0, 0, 1.0), (1, 0, -2.0), (2, 0, 1.0)]),
        (2.0 * alpha2, w * h, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)]),
    ]
    blocks, weights = [], []
    for weight, scale, taps in stencils:
        sy = h - max(t[0] for t in taps)
        sx = w - max(t[1] for t in taps)
        ok = np.ones((sy, sx), dtype=bool)
        for dy, dx, _ in taps:
            ok &= sil[dy:dy + sy, dx:dx + sx]
        ys, xs = np.nonzero(ok)
        cols = np.stack([index[ys + dy, xs + dx] for dy, dx, _ in taps], axis=1)
        vals = np.tile([c * scale for _, _, c in taps], len(ys))
        rows = np.repeat(np.arange(len(ys)), len(taps))
        blocks.append(sp.csr_matrix((vals, (rows, cols.ravel())), shape=(len(ys), n)))
        weights.append(np.full(len(ys), weight))
    return RegOperator(sp.vstack(blocks, format="csr"), np.concatenate(weights))


def loss_reg(P: UVMap, alpha1: float, alpha2: float) -> float:
    sil = P.silhouette
    return reg_operator(sil, alpha1, alpha2).loss(P.uv.data[sil])


def grad_reg(P: UVMap, alpha1: float, alpha2: float) -> LossReport:
    """Smoothness energy (gradient plus Hessian penalty) and exact gradient,
    zero outside the silhouette."""
    sil = P.silhouette
    reg = reg_operator(sil, alpha1, alpha2)
    v = P.uv.data[sil]
    g = np.zeros_like(P.uv.data)
    g[sil] = reg.grad(v)
    return LossReport(l_app=0.0, l_reg=reg.loss(v), grad=Field2(g))


def fd_probe_check(P: UVMap, I: Field2, tex_w: int, tex_h: int, alpha1: float,
                   alpha2: float, probes: np.ndarray, eps: float = 1e-3) -> float:
    """Max relative error of the analytic gradient against central differences.

    ``probes`` is an (n, 3) array of (y, x, channel) indices into the UV
    field.  The oracle side uses only forward loss evaluations.
    """
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

"""Loss evaluators and temporal-coherence metrics.

The losses mirror the quantities the optimizer and the relocation stage
work with; the metrics quantify how temporally coherent a rendered
sequence is.  A learned perceptual metric is deliberately out of scope
(it would require a pretrained network); reports carry a note instead.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import Field2, pixel_center_grid, sample_bilinear
from .relocate import flow_texels
from .render import render_lookup
from .warpmap import UVMap, image_grid, texture_grid, warp

PSNR_CAP = 99.0
# The notes every sequence report in ``metrics.json`` carries.
METRIC_NOTES = {
    "t_lp": "unavailable: requires a pretrained perceptual network",
    "t_diff": "frame t warped by its motion field, compared against frame t+1",
}


def loss_l2(Pa: UVMap, Pb: UVMap) -> float:
    """Squared Frobenius distance between UV maps over the union silhouette."""
    if (Pa.height, Pa.width) != (Pb.height, Pb.width):
        raise ValidationError("uv map resolutions differ")
    m = Pa.silhouette | Pb.silhouette
    d = Pa.uv.data - Pb.uv.data
    return float(np.sum(d[m] * d[m]))


def loss_smo(Pm: UVMap, P: UVMap, Pp: UVMap) -> float:
    """Temporal smoothness: velocity plus acceleration energy of a UV triple."""
    shapes = {(Q.height, Q.width) for Q in (Pm, P, Pp)}
    if len(shapes) != 1:
        raise ValidationError("uv map resolutions differ")
    m = Pm.silhouette | P.silhouette | Pp.silhouette
    a, b, c = Pm.uv.data, P.uv.data, Pp.uv.data
    v1 = a - b
    v2 = b - c
    acc = a - 2.0 * b + c
    return float(np.sum(v1[m] * v1[m]) + np.sum(v2[m] * v2[m]) + np.sum(acc[m] * acc[m]))


def loss_img_s(P: UVMap, T_o: Field2, I: Field2) -> float:
    """Squared error of the texture-lookup render against the frame."""
    if (P.height, P.width) != (I.height, I.width):
        raise ValidationError("uv map and image resolutions differ")
    rendered, _ = render_lookup(T_o, P)
    d = (rendered.data - I.data)[P.silhouette]
    return float(np.sum(d * d))


def loss_ce(scores: Field2, ref: np.ndarray) -> float:
    """Mean cross-entropy of per-pixel class scores against reference labels."""
    ref = np.asarray(ref)
    if ref.shape != (scores.height, scores.width):
        raise ValidationError("reference label shape does not match scores")
    ref = ref.astype(np.int64)
    if ref.min() < 0 or ref.max() >= scores.channels:
        raise ValidationError("reference labels out of range")
    s = scores.data
    smax = s.max(axis=2, keepdims=True)
    logits = s - smax
    logz = np.log(np.sum(np.exp(logits), axis=2))
    picked = np.take_along_axis(logits, ref[..., None], axis=2)[..., 0]
    return float(np.mean(logz - picked))


def metric_psnr(a: Field2, b: Field2) -> float:
    """PSNR in dB over jointly valid cells, capped at 99."""
    if (a.height, a.width, a.channels) != (b.height, b.width, b.channels):
        raise ValidationError("psnr inputs must share a shape")
    m = a.mask() & b.mask()
    if not m.any():
        raise ValidationError("psnr mask is empty")
    d = a.data[m] - b.data[m]
    mse = float(np.mean(d * d))
    if mse <= 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


def uv_motion_fields(P_list, tex_w: int | None = None, tex_h: int | None = None):
    """Per-pair image-space motion derived purely from the UV maps.

    For each consecutive pair, texels carry the image position they map to
    in both frames; the difference, pulled back through the later frame's
    UVs, is the per-pixel motion from frame t to t+1.  Returns a list of
    (motion (H, W, 2), valid mask) tuples.
    """
    if len(P_list) < 2:
        raise ValidationError("needs >=2 frames")
    tw = tex_w or P_list[0].width
    th = tex_h or P_list[0].height
    c_img = Field2(pixel_center_grid(P_list[0].width, P_list[0].height))
    placed = []
    for P in P_list:
        g = texture_grid(P, tw, th)
        placed.append((warp(c_img, g), g.valid))
    out = []
    for t in range(len(P_list) - 1):
        (a, cov_a), (b, cov_b) = placed[t], placed[t + 1]
        v_tex = Field2(b.data - a.data, valid=cov_a & cov_b)
        vals, validity = sample_bilinear(v_tex, image_grid(P_list[t + 1]).data)
        valid = P_list[t + 1].silhouette & (validity > 0.5)
        out.append((vals, valid))
    return out


def metric_tdiff(frames, P_list, tex_w: int | None = None, tex_h: int | None = None):
    """Temporal difference under UV-derived motion; returns (mean, per-pair).

    Each frame t is warped forward by the motion the UV maps imply and
    compared against frame t+1 with mean absolute error over the
    foreground.  Incoherent UVs imply wrong motion and score high even
    when every frame looks fine on its own.
    """
    if len(frames) < 2 or len(frames) != len(P_list):
        raise ValidationError("needs >=2 frames and one uv map per frame")
    motions = uv_motion_fields(P_list, tex_w, tex_h)
    per_pair = []
    for t, (v, valid) in enumerate(motions):
        c = pixel_center_grid(frames[t].width, frames[t].height)
        prev_at = c - v                     # where this content sat in frame t
        vals, _ = sample_bilinear(frames[t], prev_at)
        d = np.abs(frames[t + 1].data - vals)
        if not valid.any():
            raise ValidationError("empty foreground in tdiff")
        per_pair.append(float(np.mean(d[valid])))
    return float(np.mean(per_pair)), per_pair


def metric_tof(real_flows, gen_flows):
    """Mean L1 gap between the block flows of real and generated frame
    pairs, in texels; returns (mean, per-pair).

    Each list holds ``block_flow(a, b)`` of every consecutive pair of its
    sequence.  With no config the flows use ``RelocateConfig()``'s block
    and search radius, so the score does not move with the ``--block`` or
    ``--search-radius`` a relocation was run with."""
    if not gen_flows:
        raise ValidationError("needs >=2 frames")
    if len(real_flows) != len(gen_flows):
        raise ValidationError("length mismatch between sequences")
    per_pair = [float(np.mean(np.abs(flow_texels(fr) - flow_texels(fg))))
                for fr, fg in zip(real_flows, gen_flows)]
    return float(np.mean(per_pair)), per_pair

"""Synthetic ground-truth scenes for exercising and scoring the pipeline.

A scene is built from closed forms so every pipeline quantity has an exact
oracle:

* a fixed texture pattern T*;
* a smooth, invertible image-to-chart map per frame, composed of a base
  affine fit of the silhouette into the chart, a sinusoidal content motion,
  and a rigid per-frame chart drift (identity at frame 0) that emulates the
  temporal inconsistency of per-frame unwrapping;
* frames rendered by sampling T* directly.

The drift is rigid precisely so its inverse is closed-form: the recorded
ground-truth correspondence of frame t's texture into frame 0's is the
drift itself.  ``corrupt`` then degrades the ground-truth UVs the way raw
per-frame estimates are degraded: eroded silhouettes, duplicated UV
blocks, coordinate noise, and per-frame jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from .errors import ValidationError, require_finite
from .fields import Field2, pixel_center_grid, sample_bilinear
from .frameset import FrameRecord, FrameSet
from .warpmap import UVMap, splat_record

MIN_SIZE = 32
CHART_MARGIN = 0.1
SILHOUETTES = ("ellipse", "blobs")          # blobs: a union of lobes
PATTERNS = ("blobs", "checker", "grid")


@dataclass
class SceneConfig:
    image_w: int = 128
    image_h: int = 128
    tex_w: int = 128
    tex_h: int = 128
    frames: int = 8
    seed: int = 0
    amplitude: float = 0.02    # content motion, normalized units; 0 = static
    frequency: float = 2.0     # spatial cycles of the content motion
    silhouette: str = "ellipse"   # one of SILHOUETTES
    pattern: str = "blobs"        # one of PATTERNS

    def __post_init__(self):
        if min(self.image_w, self.image_h, self.tex_w, self.tex_h) < MIN_SIZE:
            raise ValidationError(f"scene sizes must be at least {MIN_SIZE}")
        if self.frames < 1:
            raise ValidationError("scene needs at least one frame")
        if self.silhouette not in SILHOUETTES:
            raise ValidationError(f"unknown silhouette {self.silhouette!r}")
        if self.pattern not in PATTERNS:
            raise ValidationError(f"unknown pattern {self.pattern!r}")
        require_finite(self, "amplitude", "frequency")
        if self.amplitude < 0 or self.frequency <= 0:
            raise ValidationError("amplitude must be >=0 and frequency positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        # The content warp must stay invertible: bound its Jacobian
        # perturbation well below 1.
        if self.amplitude * 2.0 * np.pi * self.frequency >= 0.5:
            raise ValidationError(
                "degenerate deformation: amplitude * 2*pi*frequency must stay below 0.5"
            )


def _texture(cfg: SceneConfig) -> Field2:
    rng = np.random.default_rng(cfg.seed + 1)
    th, tw = cfg.tex_h, cfg.tex_w
    if cfg.pattern == "blobs":
        noise = rng.normal(size=(th, tw, 3))
        smooth = ndi.gaussian_filter(noise, sigma=(3.0, 3.0, 0.0), mode="wrap")
        lo, hi = smooth.min(), smooth.max()
        data = 0.15 + 0.7 * (smooth - lo) / max(hi - lo, 1e-12)
    elif cfg.pattern == "checker":
        ys, xs = np.mgrid[0:th, 0:tw]
        cell = ((xs // 8) + (ys // 8)) % 2
        data = np.where(cell[..., None] == 0,
                        np.array([0.2, 0.25, 0.3]), np.array([0.8, 0.75, 0.7]))
    else:  # grid of distinct flat quadrants
        ys, xs = np.mgrid[0:th, 0:tw]
        qx, qy = xs // 16, ys // 16
        data = np.stack([
            0.15 + 0.7 * ((qx * 7 + qy * 3) % 9) / 8.0,
            0.15 + 0.7 * ((qx * 2 + qy * 5) % 7) / 6.0,
            0.15 + 0.7 * ((qx * 4 + qy * 1) % 5) / 4.0,
        ], axis=2)
    return Field2(data)


def _silhouette(cfg: SceneConfig) -> np.ndarray:
    c = pixel_center_grid(cfg.image_w, cfg.image_h)
    x, y = c[..., 0], c[..., 1]
    if cfg.silhouette == "ellipse":
        return ((x - 0.5) / 0.36) ** 2 + ((y - 0.5) / 0.40) ** 2 <= 1.0
    lobes = [(0.38, 0.40, 0.22, 0.26), (0.62, 0.42, 0.20, 0.22),
             (0.50, 0.64, 0.26, 0.20)]
    m = np.zeros(x.shape, dtype=bool)
    for cx, cy, rx, ry in lobes:
        m |= ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1.0
    return m


def _drift_params(cfg: SceneConfig, t: int):
    """Rigid chart drift at frame t: rotation angle and translation.

    Identity at t = 0, smooth in t, magnitude tied to the scene amplitude.
    """
    if cfg.frames == 1 or cfg.amplitude == 0.0:
        return 0.0, np.zeros(2)
    tau = t / (cfg.frames - 1)
    angle = 2.0 * cfg.amplitude * np.sin(2.0 * np.pi * 0.9 * tau)
    shift = 0.6 * cfg.amplitude * np.array([
        np.sin(2.0 * np.pi * 0.8 * tau),
        np.sin(2.0 * np.pi * 0.6 * tau + 0.5) - np.sin(0.5),
    ])
    return float(angle), shift


def _drift_apply(q: np.ndarray, angle: float, shift: np.ndarray) -> np.ndarray:
    ca, sa = np.cos(angle), np.sin(angle)
    x = q[..., 0] - 0.5
    y = q[..., 1] - 0.5
    out = np.empty_like(q)
    out[..., 0] = ca * x - sa * y + 0.5 + shift[0]
    out[..., 1] = sa * x + ca * y + 0.5 + shift[1]
    return out


def _drift_inverse(q: np.ndarray, angle: float, shift: np.ndarray) -> np.ndarray:
    ca, sa = np.cos(angle), np.sin(angle)
    x = q[..., 0] - 0.5 - shift[0]
    y = q[..., 1] - 0.5 - shift[1]
    out = np.empty_like(q)
    out[..., 0] = ca * x + sa * y + 0.5
    out[..., 1] = -sa * x + ca * y + 0.5
    return out


def gen_sequence(cfg: SceneConfig) -> FrameSet:
    """Deterministic scene with exact UV and correspondence ground truth."""
    texture = _texture(cfg)
    sil = _silhouette(cfg)
    if not sil.any():
        raise ValidationError("empty silhouette")
    c = pixel_center_grid(cfg.image_w, cfg.image_h)

    # Base affine chart map: silhouette bounding box -> chart box with margin.
    ys, xs = np.nonzero(sil)
    lo = np.array([c[0, xs.min(), 0], c[ys.min(), 0, 1]])
    hi = np.array([c[0, xs.max(), 0], c[ys.max(), 0, 1]])
    span = np.maximum(hi - lo, 1e-9)
    # Pad so the content motion cannot push coordinates out of the chart.
    pad = 2.0 * cfg.amplitude
    scale = (1.0 - 2.0 * CHART_MARGIN) / (span + 2.0 * pad)
    offset = CHART_MARGIN - (lo - pad) * scale

    fs = FrameSet(config=cfg, texture=texture)
    tex_centers = pixel_center_grid(cfg.tex_w, cfg.tex_h)
    denom = max(cfg.frames - 1, 1)
    for t in range(cfg.frames):
        tau = t / denom if cfg.frames > 1 else 0.0
        amp = cfg.amplitude
        wx = c[..., 0] + amp * np.sin(
            2.0 * np.pi * (cfg.frequency * c[..., 1] + 0.2) + 2.0 * np.pi * 1.3 * tau)
        wy = c[..., 1] + amp * np.sin(
            2.0 * np.pi * (cfg.frequency * c[..., 0] + 0.6) + 2.0 * np.pi * 0.9 * tau + 0.8)
        u_intr = np.stack([offset[0] + scale[0] * wx, offset[1] + scale[1] * wy], axis=2)

        angle, shift = _drift_params(cfg, t)
        u_chart = _drift_inverse(u_intr, angle, shift)
        uv = np.where(sil[..., None], c - u_chart, 0.0)
        uv_gt = UVMap(uv, sil)

        img = np.zeros((cfg.image_h, cfg.image_w, 3))
        vals, _ = sample_bilinear(texture, u_intr[sil])
        img[sil] = vals
        image = Field2(img, valid=sil.copy())

        rec = splat_record(uv_gt, cfg.tex_w, cfg.tex_h)
        corr = Field2(_drift_apply(tex_centers, angle, shift),
                      valid=rec.covered.reshape(cfg.tex_h, cfg.tex_w))

        fs.frames.append(FrameRecord(index=t, image=image, mask=sil.copy(),
                                     uv_gt=uv_gt, corr_gt=corr))
    return fs


@dataclass
class CorruptConfig:
    margin: int = 0            # silhouette erosion iterations
    dup_blocks: int = 0        # per frame, blocks collapsed onto one texel
    dup_size: int = 8
    uv_noise: float = 0.0      # stddev of UV coordinate noise, normalized
    jitter: float = 0.0        # per-frame rigid UV shift bound, normalized
    seed: int = 0

    def __post_init__(self):
        if self.margin < 0 or self.dup_blocks < 0 or self.dup_size < 1:
            raise ValidationError("bad corruption configuration")
        require_finite(self, "uv_noise", "jitter")
        if self.uv_noise < 0 or self.jitter < 0:
            raise ValidationError("bad corruption configuration")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def corrupt_uv(uv_gt: UVMap, cfg: CorruptConfig, rng: np.random.Generator) -> UVMap:
    """Degrade one frame's ground-truth UVs into a raw-estimate analogue,
    drawing from ``rng``; the zero configuration changes nothing."""
    sil = uv_gt.silhouette
    if cfg.margin > 0:
        eroded = ndi.binary_erosion(sil, iterations=cfg.margin)
        if not eroded.any():
            raise ValidationError("silhouette vanishes under the erosion margin")
    else:
        eroded = sil.copy()
    uv = uv_gt.uv.data.copy()
    h, w = sil.shape
    if cfg.dup_blocks > 0:
        c = pixel_center_grid(w, h)
        ey, ex = np.nonzero(eroded)
        picks = rng.integers(0, len(ey), size=cfg.dup_blocks)
        for k in picks:
            cy, cx = int(ey[k]), int(ex[k])
            u0 = c[cy, cx] - uv[cy, cx]
            half = cfg.dup_size // 2
            y0, y1 = max(cy - half, 0), min(cy - half + cfg.dup_size, h)
            x0, x1 = max(cx - half, 0), min(cx - half + cfg.dup_size, w)
            blk = eroded[y0:y1, x0:x1]
            uv[y0:y1, x0:x1][blk] = (c[y0:y1, x0:x1] - u0)[blk]
    if cfg.uv_noise > 0:
        uv += rng.normal(0.0, cfg.uv_noise, size=uv.shape) * eroded[..., None]
    if cfg.jitter > 0:
        uv += rng.uniform(-cfg.jitter, cfg.jitter, size=2) * eroded[..., None]

    uv[~eroded] = 0.0
    return UVMap(uv, eroded)


def corrupt(fs: FrameSet, cfg: CorruptConfig) -> FrameSet:
    """``corrupt_uv`` of every frame, in order, from one generator seeded
    with ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    out = FrameSet(config=fs.config, texture=fs.texture.copy())
    for fr in fs.frames:
        if fr.uv_gt is None:
            raise ValidationError("corrupt needs ground-truth UVs")
        out.frames.append(FrameRecord(
            index=fr.index, image=fr.image.copy(), mask=fr.mask.copy(),
            uv_gt=fr.uv_gt.copy(), corr_gt=fr.corr_gt.copy() if fr.corr_gt else None,
            uv_raw=corrupt_uv(fr.uv_gt, cfg, rng)))
    return out

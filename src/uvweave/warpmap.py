"""Per-pixel UV maps and the warping grids between image and texture space.

A UV map assigns every foreground pixel a texture coordinate through the
displacement convention ``u = x - uv(x)``: the stored value is the offset
from the pixel's own normalized position to its texture position.  The
texture is one chart over the whole silhouette, so ``u`` is the texture
coordinate itself.

Two grids are derived from a UV map:

* ``image_grid`` targets texture space from each pixel (used to pull
  texture values back into the image);
* ``texture_grid`` is its forward-splatted inverse, targeting image space
  from each texel (used to unwrap a frame into the texture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from .errors import ValidationError
from .fields import Field2, _axis_split, pixel_center_grid, sample_bilinear, scatter_add

COVER_EPS = 1e-12


class UVMap:
    """Dense UV assignment over an image grid.

    ``uv`` is a 2-channel displacement field (zero outside the silhouette)
    and ``silhouette`` marks foreground pixels.
    """

    __slots__ = ("uv", "silhouette")

    def __init__(self, uv, silhouette):
        if not isinstance(uv, Field2):
            uv = Field2(uv)
        if uv.channels != 2:
            raise ValidationError(f"uv field must have 2 channels, got {uv.channels}")
        sil = np.asarray(silhouette, dtype=bool)
        if sil.shape != (uv.height, uv.width):
            raise ValidationError(
                f"silhouette shape {sil.shape} does not match uv {(uv.height, uv.width)}"
            )
        # fresh array, zero off-silhouette; a same-shape mask runs as one
        # flat loop and gives the broadcast product's bits, signed zeros too
        data = uv.data * np.stack((sil, sil), axis=2)
        # the product of validated-finite data with a 0/1 mask needs no
        # second validation pass
        self.uv = Field2._wrap(data)
        self.silhouette = sil

    @property
    def width(self) -> int:
        return self.uv.width

    @property
    def height(self) -> int:
        return self.uv.height

    def copy(self) -> "UVMap":
        return UVMap(self.uv.copy(), self.silhouette.copy())


@dataclass
class WarpGrid:
    """Per-cell sampling targets in the other domain plus a coverage weight.

    ``coverage == 0`` marks cells whose target is not backed by data (it is
    hole-filled for sampling but should be masked downstream).
    """

    target: Field2
    coverage: np.ndarray

    def __post_init__(self):
        if self.target.channels != 2:
            raise ValidationError("warp grid target must have 2 channels")
        self.coverage = np.asarray(self.coverage, dtype=np.float64)
        if self.coverage.shape != (self.target.height, self.target.width):
            raise ValidationError("coverage shape does not match target grid")
        if self.coverage.min() < 0.0 or self.coverage.max() > 1.0 + 1e-12:
            raise ValidationError("coverage must lie in [0, 1]")

    @property
    def width(self) -> int:
        return self.target.width

    @property
    def height(self) -> int:
        return self.target.height


def texture_positions(P: UVMap, index: np.ndarray | None = None) -> np.ndarray:
    """Texture coordinates ``c - uv`` of every pixel, (H, W, 2).

    With ``index`` (flat row-major pixel indices) only those pixels are
    evaluated and the result is (n, 2), row for row equal to the
    full-frame result at those pixels.
    """
    c = pixel_center_grid(P.width, P.height)
    uv = P.uv.data
    if index is not None:
        c = c.reshape(-1, 2).take(index, axis=0)
        uv = uv.reshape(-1, 2).take(index, axis=0)
    return c - uv


def image_grid(P: UVMap) -> WarpGrid:
    """Grid over the image whose targets are texture-space positions."""
    return WarpGrid(Field2(texture_positions(P)), P.silhouette.astype(np.float64))


@dataclass
class SplatRecord:
    """Bookkeeping of one forward splat of foreground pixels into texels.

    Kept so gradient code can run the exact adjoint of the splat without
    re-deriving the inverse map.  ``corners`` are flat texel indices, one
    row of four per splatted pixel, with matching bilinear ``weights``.
    """

    tex_w: int
    tex_h: int
    pix_y: np.ndarray
    pix_x: np.ndarray
    values: np.ndarray      # (n, 2) deposited pixel-center coordinates
    corners: np.ndarray     # (n, 4) flat texel indices
    weights: np.ndarray     # (n, 4)
    fx: np.ndarray
    fy: np.ndarray
    wsum: np.ndarray        # (tex_h * tex_w,)
    covered: np.ndarray     # (tex_h * tex_w,) bool


def splat_record(P: UVMap, tex_w: int, tex_h: int) -> SplatRecord:
    if tex_w < 2 or tex_h < 2:
        raise ValidationError("texture grid must be at least 2x2")
    sil = P.silhouette
    if not sil.any():
        raise ValidationError("empty silhouette")
    pix_y, pix_x = np.nonzero(sil)
    u = texture_positions(P)[pix_y, pix_x]
    c = pixel_center_grid(P.width, P.height)[pix_y, pix_x]
    gx = u[:, 0] * tex_w - 0.5
    gy = u[:, 1] * tex_h - 0.5
    x0, x1, fx = _axis_split(gx, tex_w)
    y0, y1, fy = _axis_split(gy, tex_h)
    corners = np.stack([y0 * tex_w + x0, y0 * tex_w + x1,
                        y1 * tex_w + x0, y1 * tex_w + x1], axis=1)
    weights = np.stack([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                        (1.0 - fx) * fy, fx * fy], axis=1)
    wsum = scatter_add(corners.ravel(), weights.reshape(-1, 1), tex_w * tex_h)[:, 0]
    return SplatRecord(tex_w=tex_w, tex_h=tex_h, pix_y=pix_y, pix_x=pix_x,
                       values=c, corners=corners, weights=weights, fx=fx, fy=fy,
                       wsum=wsum, covered=wsum > COVER_EPS)


def splat_average(rec: SplatRecord, values: np.ndarray):
    """Weight-normalized splat of per-pixel values; returns (flat avg, covered)."""
    ch = values.shape[1]
    acc = scatter_add(rec.corners.ravel(),
                      (rec.weights[:, :, None] * values[:, None, :]).reshape(-1, ch),
                      rec.tex_w * rec.tex_h)
    out = np.zeros_like(acc)
    cov = rec.covered
    out[cov] = acc[cov] / rec.wsum[cov, None]
    return out, cov


def fill_from_nearest(data: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Fill uncovered cells of an (H, W, C) array from the nearest covered cell."""
    if covered.all():
        return data
    inds = ndi.distance_transform_edt(~covered, return_distances=False,
                                      return_indices=True)
    return data[inds[0], inds[1]]


def texture_grid(P: UVMap, tex_w: int, tex_h: int) -> WarpGrid:
    """Forward-splatted inverse grid: per-texel image-space positions.

    Each foreground pixel deposits its own center coordinate at its texture
    position with bilinear weights; deposits are weight-normalized, so
    texels hit by several pixels average them.  Texels no pixel touched are
    filled from the nearest covered texel and keep coverage 0.
    """
    rec = splat_record(P, tex_w, tex_h)
    avg, cov = splat_average(rec, rec.values)
    tgt = avg.reshape(tex_h, tex_w, 2)
    cov2 = cov.reshape(tex_h, tex_w)
    tgt = fill_from_nearest(tgt, cov2)
    coverage = np.minimum(rec.wsum.reshape(tex_h, tex_w), 1.0)
    coverage[~cov2] = 0.0
    return WarpGrid(Field2(tgt), coverage)


def warp(src: Field2, g: WarpGrid) -> Field2:
    """Backward warp: sample ``src`` at every grid target.

    Output cells are valid where the grid is covered and the majority of
    the bilinear support in ``src`` is valid.
    """
    vals, validity = sample_bilinear(src, g.target.data)
    valid = (g.coverage > 0.0) & (validity > 0.5)
    return Field2(vals, valid=valid)

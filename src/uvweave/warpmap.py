"""Per-pixel UV maps and the warping grids between image and texture space.

A UV map assigns every foreground pixel a texture coordinate through the
displacement convention ``u = x - uv(x)``: the stored value is the offset
from the pixel's own normalized position to its texture position.  The
texture is one chart over the whole silhouette, so ``u`` is the texture
coordinate itself.

Two grids are derived from a UV map, each a 2-channel ``Field2`` of
target positions whose ``valid`` marks the cells backed by data:

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
from .fields import Field2, _bilinear_corners, pixel_center_grid, sample_bilinear, scatter_add

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


def texture_positions(P: UVMap) -> np.ndarray:
    """Texture coordinates ``c - uv`` of every pixel, (H, W, 2)."""
    return pixel_center_grid(P.width, P.height) - P.uv.data


def image_grid(P: UVMap) -> Field2:
    """Grid over the image whose targets are texture-space positions,
    valid on the silhouette."""
    return Field2._wrap(texture_positions(P), P.silhouette.copy())


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
    # corners in (y0x0, y0x1, y1x0, y1x1) order, which grad_app relies on
    g = u.T * np.array([[tex_w], [tex_h]], dtype=np.float64) - 0.5
    corners, fx, fy = _bilinear_corners(g, tex_w, tex_h)
    corners = np.stack(corners, axis=1)
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


def texture_grid(P: UVMap, tex_w: int, tex_h: int) -> Field2:
    """Forward-splatted inverse grid: per-texel image-space positions.

    Each foreground pixel deposits its own center coordinate at its texture
    position with bilinear weights; deposits are weight-normalized, so
    texels hit by several pixels average them.  The grid is valid on the
    covered texels; the others are filled from the nearest covered texel.
    """
    rec = splat_record(P, tex_w, tex_h)
    avg, cov = splat_average(rec, rec.values)
    cov = cov.reshape(tex_h, tex_w)
    return Field2._wrap(fill_from_nearest(avg.reshape(tex_h, tex_w, 2), cov), cov)


def warp(src: Field2, g: Field2) -> Field2:
    """Backward warp: sample ``src`` at every target of the grid ``g``.

    Output cells are valid where ``g`` is valid and the majority of the
    bilinear support in ``src`` is valid.
    """
    vals, validity = sample_bilinear(src, g.data)
    valid = g.mask() & (validity > 0.5)
    return Field2(vals, valid=valid)

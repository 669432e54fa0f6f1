"""Dense 2-D grids and bilinear sampling on normalized [0, 1]^2 coordinates.

Conventions used throughout the package:

* Coordinates are (x, y) pairs in normalized units, x to the right and
  y down.  The center of cell (ix, iy) of a W x H grid sits at
  ((ix + 0.5) / W, (iy + 0.5) / H).
* Arrays are row-major, H x W x C, so ``data[iy, ix, c]``.
* Sampling outside the grid clamps to the edge (no wrap, no error).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Fractional offsets closer than this to a cell edge collapse onto it, so a
# sample at an exact pixel center reproduces the stored value bit-for-bit
# even when the coordinate went through a divide/multiply round trip.
SNAP_EPS = 1e-9

MAX_CHANNELS = 32   # leaves room for 25-way part-score fields


class Field2:
    """H x W x C float64 grid with an optional per-cell validity mask."""

    __slots__ = ("data", "valid")

    def __init__(self, data, valid=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValidationError(f"field data must be HxW or HxWxC, got shape {arr.shape}")
        h, w, c = arr.shape
        if h < 1 or w < 1:
            raise ValidationError(f"field must be at least 1x1, got {w}x{h}")
        if not 1 <= c <= MAX_CHANNELS:
            raise ValidationError(f"field channel count must be in 1..{MAX_CHANNELS}, got {c}")
        if not np.isfinite(arr).all():
            raise ValidationError("field data contains non-finite values")
        if valid is not None:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != (h, w):
                raise ValidationError(
                    f"validity mask shape {valid.shape} does not match field {(h, w)}"
                )
        self.data = arr
        self.valid = valid

    @classmethod
    def _wrap(cls, data: np.ndarray, valid=None) -> "Field2":
        """Wrap an internally produced (H, W, C) float64 array, skipping
        validation.  The caller guarantees the class invariants hold."""
        f = cls.__new__(cls)
        f.data = data
        f.valid = valid
        return f

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def copy(self) -> "Field2":
        out = Field2.__new__(Field2)
        out.data = self.data.copy()
        out.valid = None if self.valid is None else self.valid.copy()
        return out

    @classmethod
    def constant(cls, width: int, height: int, values) -> "Field2":
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        data = np.broadcast_to(values, (height, width, values.size))
        return cls(data.copy())


_center_grids: dict = {}


def pixel_center_grid(width: int, height: int) -> np.ndarray:
    """(H, W, 2) array of normalized pixel-center coordinates.

    The returned array is cached and read-only; copy before mutating.
    """
    key = (width, height)
    cached = _center_grids.get(key)
    if cached is None:
        xs = (np.arange(width, dtype=np.float64) + 0.5) / width
        ys = (np.arange(height, dtype=np.float64) + 0.5) / height
        cached = np.empty((height, width, 2), dtype=np.float64)
        cached[..., 0] = xs[None, :]
        cached[..., 1] = ys[:, None]
        cached.setflags(write=False)
        if len(_center_grids) > 32:
            _center_grids.clear()
        _center_grids[key] = cached
    return cached


def scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of ``values`` (m, C) into ``n`` zero rows at ``index``.

    One ``np.bincount`` per channel.  bincount adds in input order, as
    ``np.add.at`` does, so every sum is bitwise the scatter-add's.
    """
    out = np.empty((n, values.shape[1]), dtype=np.float64)
    for ch in range(values.shape[1]):
        out[:, ch] = np.bincount(index, weights=values[:, ch], minlength=n)
    return out


def _axis_split(g: np.ndarray, n: int):
    """Split grid coordinates into clamped low/high indices and a fraction.

    Fractions within SNAP_EPS of 0 or 1 are snapped so that exact-center
    samples do not smear across cells.
    """
    i0 = np.floor(g)
    f = g - i0
    i0 = i0.astype(np.int64)
    hi = f > 1.0 - SNAP_EPS
    if np.any(hi):
        i0 = np.where(hi, i0 + 1, i0)
        f = np.where(hi, 0.0, f)
    f = np.where(f < SNAP_EPS, 0.0, f)
    lo = np.clip(i0, 0, n - 1)
    hi_idx = np.clip(i0 + 1, 0, n - 1)
    return lo, hi_idx, f


def _bilinear_corners(gx: np.ndarray, gy: np.ndarray, w: int, h: int):
    """Flat corner indices and fractions of bilinear lookups into a w x h grid.

    Returns ``((i00, i10, i01, i11), fx, fy)``: indices into the row-major
    flattened grid of the low/high x and y neighbours, and the weights of
    the high neighbours along each axis.
    """
    x0, x1, fx = _axis_split(gx, w)
    y0, y1, fy = _axis_split(gy, h)
    row0 = y0 * w
    row1 = y1 * w
    return (row0 + x0, row0 + x1, row1 + x0, row1 + x1), fx, fy


def _lerp_corners(v00, v10, v01, v11, wx, wy):
    """Blend four owned corner-value arrays in place; returns the result.

    The operation order (and therefore rounding) matches
    ``top + (bot - top) * wy`` with ``top = v00 + (v10 - v00) * wx`` and
    ``bot = v01 + (v11 - v01) * wx``.
    """
    v10 -= v00
    v10 *= wx
    v10 += v00          # top
    v11 -= v01
    v11 *= wx
    v11 += v01          # bot
    v11 -= v10
    v11 *= wy
    v11 += v10          # vals
    return v11


def _bilinear_gather(data: np.ndarray, gx: np.ndarray, gy: np.ndarray, with_grad: bool = False):
    """Bilinear lookup of an (H, W, C) array at grid coordinates.

    Grid coordinates are in cell units where integer values are cell
    centers.  Returns values with shape gx.shape + (C,); with ``with_grad``
    also the derivatives with respect to gx and gy (clamped regions get
    zero derivative in the clamped direction).
    """
    h, w, _ = data.shape
    corners, fx, fy = _bilinear_corners(gx, gy, w, h)
    # gather through a flat view: one-axis take is markedly faster than
    # two-array advanced indexing at render sizes
    flat = np.ascontiguousarray(data).reshape(h * w, -1)
    v00, v10, v01, v11 = (flat.take(i, axis=0) for i in corners)
    wx = fx[..., None]
    wy = fy[..., None]
    if not with_grad:
        return _lerp_corners(v00, v10, v01, v11, wx, wy)
    top = v00 + (v10 - v00) * wx
    bot = v01 + (v11 - v01) * wx
    vals = top + (bot - top) * wy
    dgx = (v10 - v00) * (1.0 - wy) + (v11 - v01) * wy
    dgy = bot - top
    return vals, dgx, dgy


def sample_bilinear(f: Field2, p):
    """Sample a field at normalized coordinates with clamp-to-edge.

    ``p`` is an (..., 2) array of (x, y) coordinates.  Returns
    ``(values, validity)`` where values has shape (..., C) and validity is
    the bilinear-weighted fraction of valid support in [0, 1] (all ones
    when the field carries no mask).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 2:
        raise ValidationError(f"coordinates must have a trailing dimension of 2, got {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("invalid coordinate: non-finite values")
    gx = p[..., 0] * f.width - 0.5
    gy = p[..., 1] * f.height - 0.5
    vals = _bilinear_gather(f.data, gx, gy)
    if f.valid is None:
        validity = np.ones(p.shape[:-1], dtype=np.float64)
    else:
        vmask = f.valid.astype(np.float64)[:, :, None]
        validity = _bilinear_gather(vmask, gx, gy)[..., 0]
    return vals, validity


def sobel_gradient(f: Field2) -> Field2:
    """Per-channel spatial gradient field, 2*C channels.

    Central differences in the interior, one-sided on the boundary, in
    normalized-coordinate units.  Output channel 2c is d(channel c)/dx and
    channel 2c + 1 is d(channel c)/dy.
    """
    if f.width < 3 or f.height < 3:
        raise ValidationError(f"gradient needs at least a 3x3 field, got {f.width}x{f.height}")
    if 2 * f.channels > MAX_CHANNELS:
        raise ValidationError(f"gradient output would exceed {MAX_CHANNELS} channels")
    d = f.data
    h, w, c = d.shape
    dx = np.empty_like(d)
    dx[:, 1:-1] = (d[:, 2:] - d[:, :-2]) * (w / 2.0)
    dx[:, 0] = (d[:, 1] - d[:, 0]) * w
    dx[:, -1] = (d[:, -1] - d[:, -2]) * w
    dy = np.empty_like(d)
    dy[1:-1] = (d[2:] - d[:-2]) * (h / 2.0)
    dy[0] = (d[1] - d[0]) * h
    dy[-1] = (d[-1] - d[-2]) * h
    out = np.empty((h, w, 2 * c), dtype=np.float64)
    out[..., 0::2] = dx
    out[..., 1::2] = dy
    return Field2(out, valid=None if f.valid is None else f.valid.copy())

"""Constant-time texture lookup rendering.

Rendering a frame from a texture plus a UV map costs exactly one bilinear
fetch per foreground pixel: four texel reads and a handful of multiply-adds
per channel, independent of how the UV map was produced.  The operation
counter makes that budget testable.

The renderer works on a frame's foreground alone: it takes the flat indices
of the foreground pixels and their UV offsets and returns their values.
Background pixels cost nothing; ``LookupRenderer.frame`` scatters the
values into a full-frame field for callers that want one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field2, _bilinear_corners, _lerp_corners, pixel_center_grid
from .warpmap import UVMap

# One bilinear fetch: 4 corner reads; per channel 4 multiplies + 3 adds,
# plus the 4 shared weight products amortized over the channels.
TEXEL_READS_PER_PIXEL = 4
MADDS_PER_CHANNEL = 11

# Foreground pixels rendered per block.  Blocks keep every per-pixel
# temporary cache-resident and small enough for the allocator to recycle
# from block to block and frame to frame; full-frame temporaries would
# fault in fresh pages on every frame.
RENDER_BLOCK = 8192


@dataclass
class LookupStats:
    foreground_pixels: int
    fetches: int
    texel_reads_per_pixel: int = TEXEL_READS_PER_PIXEL
    madds_per_channel_per_pixel: int = MADDS_PER_CHANNEL


class LookupRenderer:
    """Lookup renderer bound to one texture; call it once per frame.

    The texture is (H, W, C) samples, float64 or native-order float32 (a
    PFM look as stored), with finite values.  It is held as (H·W, C)
    rows, a view with no copy: each corner read is one row gather
    (``take`` along axis 0) of all channels, and the blends run over
    (n, C) float64 blocks.  float32 rows are gathered into a scratch
    block and widened, which is exact.  Build one renderer per texture
    and reuse it across frames.  It keeps no per-frame state, so several
    threads may share it.
    """

    def __init__(self, samples: np.ndarray):
        self.height, self.width, self.channels = samples.shape
        self._rows = samples.reshape(-1, self.channels)

    def __call__(self, index: np.ndarray, uv: np.ndarray, width: int, height: int):
        """Render the foreground of one ``width`` x ``height`` frame.

        ``index`` holds the foreground's flat row-major pixel indices and
        ``uv`` (n, 2) their UV offsets.  Returns the (n, C) pixel values
        and the frame's LookupStats.
        """
        n = index.size
        c = self.channels
        out = np.empty((n, c), dtype=np.float64)
        v00, v10, v01 = (np.empty((min(n, RENDER_BLOCK), c)) for _ in range(3))
        rows = self._rows
        narrow = None if rows.dtype == np.float64 else np.empty_like(v00, dtype=rows.dtype)
        centers = pixel_center_grid(width, height).reshape(-1, 2)
        size = np.array([[self.width], [self.height]], dtype=np.float64)
        grid = np.empty((2, min(n, RENDER_BLOCK)), dtype=np.float64)
        for start in range(0, n, RENDER_BLOCK):
            stop = min(start + RENDER_BLOCK, n)
            b = stop - start
            u = centers.take(index[start:stop], axis=0)
            u -= uv[start:stop]
            g = np.multiply(u.T, size, out=grid[:, :b])   # x then y, each contiguous
            g -= 0.5
            corners, fx, fy = _bilinear_corners(g, self.width, self.height)
            vals = out[start:stop]
            # The corner indices are clamped already; mode="clip" only lets
            # take write straight into ``out`` without a buffer.
            for v, i in zip((v00[:b], v10[:b], v01[:b], vals), corners):
                if narrow is None:
                    rows.take(i, axis=0, out=v, mode="clip")
                else:
                    np.copyto(v, rows.take(i, axis=0, out=narrow[:b], mode="clip"))
            _lerp_corners(v00[:b], v10[:b], v01[:b], vals, fx, fy)
        return out, LookupStats(foreground_pixels=n, fetches=n)

    def frame(self, P: UVMap):
        """Render a whole frame; returns (Field2, LookupStats).

        Background pixels are zero.  ``loss_img_s`` renders through it, and
        it is the tests' reference for the stages' foreground-only renders.
        """
        index = np.flatnonzero(P.silhouette)
        vals, stats = self(index, P.uv.data.reshape(-1, 2).take(index, axis=0),
                           P.width, P.height)
        out = np.zeros((P.height * P.width, self.channels), dtype=np.float64)
        out[index] = vals
        img = Field2(out.reshape(P.height, P.width, self.channels),
                     valid=P.silhouette.copy())
        return img, stats

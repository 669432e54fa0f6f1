"""Constant-time texture lookup rendering.

Rendering a frame from a texture plus a UV map costs exactly one bilinear
fetch per foreground pixel: four texel reads and a handful of multiply-adds
per channel, independent of how the UV map was produced.  The operation
counter makes that budget testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field2, _bilinear_corners, _lerp_corners
from .warpmap import UVMap, texture_positions

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

    The texture is held channel-planar, so each corner read gathers all
    channels in one take and the blends run over contiguous (C, n) arrays.
    Build one renderer per texture and reuse it across frames.  It keeps
    no per-frame state, so several threads may share it.
    """

    def __init__(self, T: Field2):
        self.width = T.width
        self.height = T.height
        self.channels = T.channels
        self._planes = np.ascontiguousarray(T.data.reshape(-1, T.channels).T)

    def __call__(self, P: UVMap):
        """Render one frame; returns (Field2, LookupStats).

        Background pixels are zero and cost nothing.
        """
        idx = np.flatnonzero(P.silhouette)
        out = np.zeros((P.height * P.width, self.channels), dtype=np.float64)
        columns = [out[:, c] for c in range(self.channels)]
        for start in range(0, idx.size, RENDER_BLOCK):
            block = idx[start:start + RENDER_BLOCK]
            u = texture_positions(P, block)
            corners, fx, fy = _bilinear_corners(u[:, 0] * self.width - 0.5,
                                                u[:, 1] * self.height - 0.5,
                                                self.width, self.height)
            vals = _lerp_corners(*(self._planes.take(i, axis=1) for i in corners),
                                 fx, fy)
            for column, v in zip(columns, vals):
                column[block] = v
        n = idx.size
        img = Field2(out.reshape(P.height, P.width, self.channels),
                     valid=P.silhouette.copy())
        return img, LookupStats(foreground_pixels=n, fetches=n)


def render_lookup(T: Field2, P: UVMap):
    """Render a frame from a texture; returns (Field2, LookupStats).

    One-off form of ``LookupRenderer(T)(P)``; to render many frames from
    one texture, build the renderer once.
    """
    return LookupRenderer(T)(P)


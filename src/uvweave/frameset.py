"""In-memory sequence container shared by the generator and the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Field2
from .warpmap import UVMap


@dataclass
class FrameRecord:
    index: int
    image: Field2
    mask: np.ndarray                      # full (uncorrupted) silhouette
    uv_gt: UVMap | None = None
    corr_gt: Field2 | None = None         # positions in frame 0's texture
    uv_raw: UVMap | None = None           # corrupted input to the pipeline


@dataclass
class FrameSet:
    config: object
    texture: Field2                       # the constant ground-truth texture
    frames: list = field(default_factory=list)

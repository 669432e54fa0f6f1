"""uvweave: temporally consistent UV-map processing for video retexturing.

The package turns per-frame UV maps (displacement convention: texture
coordinate = pixel position minus stored offset) into a consistent
sequence: extend UVs past the silhouette with a mass-spring relaxation,
smooth them with one sparse regularized solve per frame, re-anchor every
frame to the frame-0 texture with block matching, and finally render with
a constant-cost per-pixel lookup.

Warp grids, flows and texel correspondences are all ``Field2``s of two
channels, with ``valid`` marking the cells backed by data; only ``UVMap``
has a type of its own, since it keeps UVs zero off the silhouette.
"""

from .errors import NumericalError, ValidationError
from .fields import Field2, pixel_center_grid, sample_bilinear
from .warpmap import UVMap, image_grid, texture_grid, texture_positions, warp
from .gradcore import (AppForward, LossReport, fd_probe_check, forward_app, grad_app,
                       grad_reg, loss_app, loss_reg)
from .extend import RelaxResult, SpringSystem, extrapolate_uv, label_fill, relax_springs
from .uvopt import OptConfig, OptTrace, optimize_uv
from .relocate import (RelocateConfig, block_flow, flow_texels, frame_zero_products,
                       init_correspondence, patch_fill, prune_mismatch, read_flo,
                       relocate_frame, to_image_uv, write_flo)
from .render import LookupRenderer, LookupStats
from .metrics import (loss_ce, loss_img_s, loss_l2, loss_smo, metric_psnr, metric_tdiff,
                      metric_tof, uv_motion_fields)
from .scenegen import CorruptConfig, FrameRecord, FrameSet, SceneConfig, corrupt, gen_sequence
from .formats import read_pfm, read_ppm, write_pfm, write_ppm
from .manifest import Manifest

__version__ = "0.1.0"

__all__ = [
    "AppForward", "CorruptConfig", "Field2",
    "FrameRecord", "FrameSet", "LookupRenderer", "LookupStats",
    "LossReport", "Manifest", "NumericalError",
    "OptConfig", "OptTrace", "RelaxResult", "RelocateConfig",
    "SceneConfig", "SpringSystem", "UVMap",
    "ValidationError", "block_flow", "corrupt",
    "extrapolate_uv", "fd_probe_check", "flow_texels", "forward_app", "frame_zero_products",
    "gen_sequence", "grad_app", "grad_reg",
    "image_grid", "init_correspondence", "label_fill", "loss_app",
    "loss_ce", "loss_img_s", "loss_l2", "loss_reg", "loss_smo",
    "metric_psnr", "metric_tdiff", "metric_tof", "optimize_uv",
    "patch_fill", "pixel_center_grid", "prune_mismatch",
    "read_flo", "read_pfm", "read_ppm", "relax_springs", "relocate_frame",
    "sample_bilinear", "texture_grid",
    "texture_positions", "to_image_uv", "warp", "write_flo", "write_pfm",
    "write_ppm", "uv_motion_fields",
]

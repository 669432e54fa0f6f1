"""uvweave: temporally consistent UV-map processing for video retexturing.

The package turns per-frame UV maps (displacement convention: texture
coordinate = pixel position minus stored offset) into a consistent
sequence: extend UVs past the silhouette with a mass-spring relaxation,
refine them against the frames by gradient descent on a differentiable
warp chain, re-anchor every frame to the frame-0 texture with block
matching, and finally render with a constant-cost per-pixel lookup.
"""

from .errors import NumericalError, ValidationError
from .fields import Field2, pixel_center_grid, sample_bilinear, sobel_gradient
from .warpmap import UVMap, WarpGrid, image_grid, texture_grid, texture_positions, warp
from .gradcore import (AppForward, LossReport, fd_probe_check, forward_app, grad_app,
                       grad_reg, loss_app, loss_reg)
from .extend import (RelaxResult, SpringConfig, SpringSystem, extrapolate_uv,
                     label_fill, relax_springs)
from .uvopt import OptConfig, OptTrace, optimize_uv
from .relocate import (Correspondence, FlowConfig, FlowField, RelocateConfig,
                       block_flow, frame_zero_products, identity_correspondence,
                       init_correspondence, patch_fill, prune_mismatch, read_flo,
                       relocate_frame, to_image_uv, write_flo)
from .render import LookupRenderer, LookupStats, render_lookup
from .metrics import (MetricReport, loss_ce, loss_img_s, loss_l2, loss_smo,
                      metric_psnr, metric_tdiff, metric_tof, pair_flows, uv_motion_fields)
from .frameset import FrameRecord, FrameSet
from .scenegen import CorruptConfig, SceneConfig, corrupt, gen_sequence
from .formats import read_pfm, read_ppm, write_pfm, write_ppm
from .manifest import Manifest

__version__ = "0.1.0"

__all__ = [
    "AppForward", "Correspondence", "CorruptConfig", "Field2", "FlowConfig", "FlowField",
    "FrameRecord", "FrameSet", "LookupRenderer", "LookupStats",
    "LossReport", "Manifest", "MetricReport", "NumericalError",
    "OptConfig", "OptTrace", "RelaxResult", "RelocateConfig",
    "SceneConfig", "SpringConfig", "SpringSystem", "UVMap",
    "ValidationError", "WarpGrid", "block_flow", "corrupt",
    "extrapolate_uv", "fd_probe_check", "forward_app", "frame_zero_products",
    "gen_sequence", "grad_app", "grad_reg", "identity_correspondence",
    "image_grid", "init_correspondence", "label_fill", "loss_app",
    "loss_ce", "loss_img_s", "loss_l2", "loss_reg", "loss_smo",
    "metric_psnr", "metric_tdiff", "metric_tof", "optimize_uv",
    "pair_flows", "patch_fill", "pixel_center_grid", "prune_mismatch",
    "read_flo", "read_pfm", "read_ppm", "relax_springs", "relocate_frame",
    "render_lookup", "sample_bilinear", "sobel_gradient", "texture_grid",
    "texture_positions", "to_image_uv", "warp", "write_flo", "write_pfm",
    "write_ppm", "uv_motion_fields",
]

"""Relocation of per-frame texture content onto the constant texture.

Per-frame unwrapped textures drift over time even when every frame looks
right individually.  This module estimates where each texel of a frame's
texture sits inside the reference texture (frame 0), prunes texels whose
appearance does not actually match there, and fills the pruned holes by
patch matching, yielding per-texel correspondences that rewrite the image
UVs to address the single constant texture.

``block_flow(a, b)`` returns forward flow anchored on ``a``:
``a(p) ~ b(p + flow(p))``.  The pipeline therefore matches the frame
texture against the reference via ``block_flow(T_t, T_o)``, so sampling
the identity correspondence at ``u + flow(u)`` lands on the matching
reference position.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.ndimage as ndi
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .fields import Field2, pixel_center_grid, sample_bilinear
from .warpmap import UVMap, texture_grid, texture_positions, warp


@dataclass
class FlowConfig:
    pyramid_levels: int = 3
    block: int = 8
    search_radius: int = 4     # per level, in that level's texels
    subpixel: bool = True

    def __post_init__(self):
        if self.pyramid_levels < 1 or self.block < 2 or self.search_radius < 1:
            raise ValidationError("bad flow configuration")


@dataclass
class FlowField:
    """Dense displacement field in normalized units, anchored on the source."""

    displacement: Field2

    def __post_init__(self):
        if self.displacement.channels != 2:
            raise ValidationError("flow must have 2 channels")

    @property
    def width(self) -> int:
        return self.displacement.width

    @property
    def height(self) -> int:
        return self.displacement.height

    def texels(self) -> np.ndarray:
        """Displacements in texel units, (H, W, 2)."""
        return self.displacement.data * np.array([self.width, self.height])


@dataclass
class Correspondence:
    """Per-texel positions inside the reference texture."""

    target: Field2
    valid: np.ndarray

    def __post_init__(self):
        if self.target.channels != 2:
            raise ValidationError("correspondence target must have 2 channels")
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != (self.target.height, self.target.width):
            raise ValidationError("validity shape does not match correspondence grid")

    @property
    def width(self) -> int:
        return self.target.width

    @property
    def height(self) -> int:
        return self.target.height

    def copy(self) -> "Correspondence":
        return Correspondence(self.target.copy(), self.valid.copy())


def identity_correspondence(tex_w: int, tex_h: int,
                            valid: np.ndarray | None = None) -> Correspondence:
    if valid is None:
        valid = np.ones((tex_h, tex_w), dtype=bool)
    return Correspondence(Field2(pixel_center_grid(tex_w, tex_h)), valid)


def _downsample(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[:2]
    h2, w2 = h // 2, w // 2
    return img[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2, -1).mean(axis=(1, 3))


def _edge_pad(img: np.ndarray, pad: int) -> np.ndarray:
    """``img`` with its border rows and columns repeated ``pad`` times."""
    return np.pad(img, ((pad, pad), (pad, pad)) + ((0, 0),) * (img.ndim - 2), mode="edge")


# Texels per batch of cost volumes.  A batch's temporaries take 24 bytes
# a texel (1.5 MB), and numpy releases the GIL for the length of each pass,
# which lets frame threads overlap; single-volume passes barely do.
_BATCH_TEXELS = 1 << 16


def _candidates(radius: int):
    offs = [(dy, dx) for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)]
    offs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    return offs


def block_flow(T_a: Field2, T_b: Field2, cfg: FlowConfig | None = None,
               record: dict | None = None) -> FlowField:
    """Coarse-to-fine block-matching flow from T_a to T_b.

    Per-texel SSD over a block window, searched within the per-level
    radius; ties go to the smaller displacement, then scanline order.
    Parabolic refinement on the finest level yields subpixel output.

    A ``record`` dict, when given, receives the work the search took,
    summed over levels: ``flow_volumes``, the displacements scored, and
    ``flow_volume_texels``, the texels their SSD and box filter covered.
    """
    cfg = cfg or FlowConfig()
    if (T_a.width, T_a.height) != (T_b.width, T_b.height):
        raise ValidationError("flow inputs must share a resolution")
    if T_a.channels != 3 or T_b.channels != 3:
        raise ValidationError("flow inputs must have 3 channels")
    pyr_a, pyr_b = [T_a.data], [T_b.data]
    for _ in range(cfg.pyramid_levels - 1):
        if min(pyr_a[-1].shape[:2]) < 2 * cfg.block:
            break
        pyr_a.append(_downsample(pyr_a[-1]))
        pyr_b.append(_downsample(pyr_b[-1]))

    r, blk = cfg.search_radius, cfg.block
    offs = _candidates(r)
    off_y, off_x = np.array(offs, dtype=np.int64).T
    # A box-filtered cost at row y reads input rows below y + reach, and
    # uniform_filter1d's running sum starts at row 0 (likewise columns), so
    # a crop anchored at the top-left corner that reaches that far is bit
    # for bit exact; a crop that starts later rounds differently.
    reach = blk - blk // 2
    n_volumes = n_texels = 0
    base = np.zeros(pyr_a[-1].shape[:2] + (2,), dtype=np.float64)  # (dy, dx)
    for level in range(len(pyr_a) - 1, -1, -1):
        a, b = pyr_a[level], pyr_b[level]
        h, w = a.shape[:2]
        if base.shape[:2] != (h, w):
            rep = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1) * 2.0
            base = np.zeros((h, w, 2))
            hh, ww = min(h, rep.shape[0]), min(w, rep.shape[1])
            base[:hh, :ww] = rep[:hh, :ww]
            if hh < h:
                base[hh:] = base[hh - 1]
            if ww < w:
                base[:, ww:] = base[:, ww - 1:ww]
        # Smooth the carried-over estimate so neighboring blocks search
        # around consistent centers.
        base = ndi.uniform_filter(base, size=(blk, blk, 1), mode="nearest")
        ibase = np.rint(base)

        # Each texel scores candidates around its own rounded base.  Costs
        # are memoized per absolute displacement (key) so the hypothesis a
        # texel tests is exactly the flow it records, even where the rounded
        # base steps between neighboring texels.  A displacement packs into
        # the code (dy - lo_y) * span + (dx - lo_x), which sorts as (dy, dx).
        ib = ibase.astype(np.int64)
        lo_y, lo_x = int(ib[..., 0].min()) - r, int(ib[..., 1].min()) - r
        span = int(ib[..., 1].max()) + r + 1 - lo_x
        bases, inv = np.unique((ib[..., 0] - lo_y) * span + ib[..., 1] - lo_x,
                               return_inverse=True)
        inv = inv.reshape(h, w)
        codes, lut = np.unique(bases[:, None] + (off_y * span + off_x),
                               return_inverse=True)
        lut = lut.reshape(len(bases), len(offs))
        key_y, key_x = codes // span + lo_y, codes % span + lo_x

        # Each key's crop reaches past the last row and column of any
        # texel that tests it.
        gy, gx = np.mgrid[0:h, 0:w]
        ymax, xmax = np.zeros((2, len(bases)), dtype=np.int64)
        np.maximum.at(ymax, inv, gy)
        np.maximum.at(xmax, inv, gx)
        crop_h, crop_w = np.zeros((2, len(codes)), dtype=np.int64)
        np.maximum.at(crop_h, lut, np.minimum(ymax + reach, h)[:, None])
        np.maximum.at(crop_w, lut, np.minimum(xmax + reach, w)[:, None])

        # Keys sorted by crop, so that keys of equal crop are scored a batch
        # of volumes at a time.
        crop = crop_h * (w + 1) + crop_w
        order = np.argsort(crop, kind="stable")
        key_y, key_x, crop = key_y[order], key_x[order], crop[order]
        lut = np.argsort(order)[lut]
        runs = np.flatnonzero(np.diff(crop, prepend=-1, append=-1))

        pad = int(max(np.abs(key_y).max(), np.abs(key_x).max()))
        a_c = np.ascontiguousarray(np.moveaxis(a, 2, 0))
        b_c = np.ascontiguousarray(np.moveaxis(_edge_pad(b, pad), 2, 0))
        # Entries outside a key's crop stay unset; no texel reads them.
        vols = np.empty((len(codes), h, w), dtype=np.float64)
        for r0, r1 in zip(runs[:-1], runs[1:]):
            ch, cw = divmod(int(crop[r0]), w + 1)
            # wins[:, pad + dy, pad + dx] is b shifted by (dy, dx), over the crop
            wins = sliding_window_view(b_c, (ch, cw), axis=(1, 2))
            step = max(1, _BATCH_TEXELS // (ch * cw))
            for i0 in range(r0, r1, step):
                i1 = min(i0 + step, r1)
                d = wins[:, pad + key_y[i0:i1], pad + key_x[i0:i1]]
                np.subtract(a_c[:, None, :ch, :cw], d, out=d)
                d *= d
                out = vols[i0:i1, :ch, :cw]
                # (d0² + d1²) + d2², the order np.sum(d * d, axis=2) adds in
                np.add(d[0], d[1], out=out)
                out += d[2]
                ndi.uniform_filter1d(out, blk, axis=1, mode="nearest", output=out)
                ndi.uniform_filter1d(out, blk, axis=2, mode="nearest", output=out)
        n_volumes += len(codes)
        n_texels += int((crop_h * crop_w).sum())
        vol = vols.reshape(-1).take(lut.T[:, inv] * (h * w) + gy * w + gx)
        # The box filter's running sums leave ~1e-18 residue where the true
        # cost is zero; snap it so exact matches tie-break in candidate
        # order and skip subpixel refinement.
        vol[vol < 1e-12] = 0.0
        best = np.argmin(vol, axis=0)      # first minimum wins: our tie order
        delta = np.array(offs, dtype=np.float64)[best]
        flow = ibase + delta

        if level == 0 and cfg.subpixel:
            idx_of = {d: i for i, d in enumerate(offs)}
            c0 = vol[best, gy, gx]
            sub = np.zeros((h, w, 2))
            for axis, unit in ((0, (1, 0)), (1, (0, 1))):
                lo = np.array([idx_of.get((int(d[0]) - unit[0], int(d[1]) - unit[1]), -1)
                               for d in np.array(offs)])[best]
                hi = np.array([idx_of.get((int(d[0]) + unit[0], int(d[1]) + unit[1]), -1)
                               for d in np.array(offs)])[best]
                ok = (lo >= 0) & (hi >= 0)
                cm = vol[np.where(ok, lo, 0), gy, gx]
                cp = vol[np.where(ok, hi, 0), gy, gx]
                denom = cm - 2.0 * c0 + cp
                # Refine only at genuine local minima with curvature above
                # the float-noise floor; an exact match (SSD 0) stays put.
                ok &= (denom > 1e-9) & (c0 <= cm) & (c0 <= cp) & (c0 > 0.0)
                off = np.where(ok, 0.5 * (cm - cp) / np.where(ok, denom, 1.0), 0.0)
                sub[..., axis] = np.clip(off, -0.5, 0.5)
            flow = flow + sub
        base = flow

    if record is not None:
        record.update(flow_volumes=n_volumes, flow_volume_texels=n_texels)
    h, w = T_a.height, T_a.width
    disp = np.empty((h, w, 2))
    disp[..., 0] = base[..., 1] / w     # store as (dx, dy) normalized
    disp[..., 1] = base[..., 0] / h
    return FlowField(Field2(disp))


def read_flo(path) -> FlowField:
    """Middlebury .flo file; values are texel displacements."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"PIEH":
            raise ValidationError(f"not a .flo file: bad magic {magic!r}")
        dims = np.frombuffer(fh.read(8), dtype="<i4")
        if dims.size != 2 or dims[0] < 1 or dims[1] < 1:
            raise ValidationError("truncated .flo header")
        w, h = int(dims[0]), int(dims[1])
        data = np.frombuffer(fh.read(w * h * 8), dtype="<f4")
        if data.size != w * h * 2:
            raise ValidationError("truncated .flo data")
    tex = data.reshape(h, w, 2).astype(np.float64)
    return FlowField(Field2(tex / np.array([w, h])))


def write_flo(path, flow: FlowField):
    tex = flow.texels().astype("<f4")
    with open(path, "wb") as fh:
        fh.write(b"PIEH")
        fh.write(np.array([flow.width, flow.height], dtype="<i4").tobytes())
        fh.write(tex.tobytes())


def init_correspondence(Q0: Correspondence, flow: FlowField) -> Correspondence:
    """Relocate a correspondence through a flow: sample Q0 at u + flow(u)."""
    if (Q0.width, Q0.height) != (flow.width, flow.height):
        raise ValidationError("correspondence and flow resolutions differ")
    pos = pixel_center_grid(Q0.width, Q0.height) + flow.displacement.data
    src = Field2(Q0.target.data, valid=Q0.valid)
    vals, validity = sample_bilinear(src, pos)
    return Correspondence(Field2(vals), validity > 0.5)


def prune_mismatch(Q: Correspondence, T_o: Field2, T_t: Field2,
                   tau: float = 0.05) -> Correspondence:
    """Clear validity where the reference content does not match the frame."""
    if tau < 0:
        raise ValidationError("tau must be non-negative")
    if (T_t.height, T_t.width) != (Q.height, Q.width):
        raise ValidationError("frame texture resolution does not match correspondence")
    recon, _ = sample_bilinear(T_o, Q.target.data)
    resid = np.sqrt(np.sum((recon - T_t.data) ** 2, axis=2))
    return Correspondence(Q.target.copy(), Q.valid & (resid <= tau))


def patch_fill(Q: Correspondence, T_o: Field2, T_t: Field2, Q0: Correspondence,
               patch: int = 8, window: int = 21,
               domain: np.ndarray | None = None) -> Correspondence:
    """Fill invalid correspondences by appearance patch matching.

    Invalid texels inside the domain of definition are covered by patch
    tiles; each tile searches the reference within a centered window for
    the offset minimizing SSD against the frame texture, then donates the
    reference correspondences at that offset.  Overlapping donations are
    averaged; valid texels are never modified.
    """
    if patch < 1 or window < 1:
        raise ValidationError("bad patch configuration")
    h, w = Q.height, Q.width
    if domain is None:
        domain = T_t.valid if T_t.valid is not None else np.ones((h, w), dtype=bool)
    fill = domain & ~Q.valid
    if not fill.any():
        return Q.copy()

    reach = window // 2
    offs = [(dy, dx) for dy in range(-reach, reach + 1)
            for dx in range(-reach, reach + 1)]
    offs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    off_y, off_x = np.array(offs, dtype=np.int64).T

    acc = np.zeros((h, w, 2))
    cnt = np.zeros((h, w))
    stride = max(patch // 2, 1)
    ctx = domain
    ref = T_o.data
    for ty in range(0, h, stride):
        for tx in range(0, w, stride):
            y1, x1 = min(ty + patch, h), min(tx + patch, w)
            tile_fill = fill[ty:y1, tx:x1]
            if not tile_fill.any():
                continue
            ph, pw = y1 - ty, x1 - tx
            a = T_t.data[ty:y1, tx:x1]
            a_mask = ctx[ty:y1, tx:x1]
            # Every in-bounds offset at once, in the sorted order, so argmin's
            # first minimum is the nearest offset among equal costs.  The
            # (ph, pw, C) window is summed as one row, as a single patch is.
            by, bx = ty + off_y, tx + off_x
            keep = (by >= 0) & (bx >= 0) & (by + ph <= h) & (bx + pw <= w)
            wins = sliding_window_view(ref, (ph, pw, ref.shape[2]))
            d = (a - wins[by[keep], bx[keep], 0]) * a_mask[..., None]
            cost = (d * d).reshape(len(d), -1).sum(axis=1)
            k = int(np.argmin(cost))
            dy, dx = int(off_y[keep][k]), int(off_x[keep][k])
            donated = Q0.target.data[ty + dy:y1 + dy, tx + dx:x1 + dx]
            acc[ty:y1, tx:x1][tile_fill] += donated[tile_fill]
            cnt[ty:y1, tx:x1][tile_fill] += 1.0

    target = Q.target.data.copy()
    filled = fill & (cnt > 0)
    target[filled] = acc[filled] / cnt[filled][:, None]
    return Correspondence(Field2(target), Q.valid | filled)


def to_image_uv(Qt: Correspondence, P_o: UVMap) -> UVMap:
    """Rewrite image UVs so they address the reference texture directly.

    Each foreground pixel looks up its texture position, reads the
    correspondence there, and stores the displacement to the corresponded
    reference position instead.
    """
    q, _ = sample_bilinear(Qt.target, texture_positions(P_o))
    uv = pixel_center_grid(P_o.width, P_o.height) - q
    uv[~P_o.silhouette] = 0.0
    return UVMap(uv, P_o.silhouette)


@dataclass
class RelocateConfig:
    flow: FlowConfig = dc_field(default_factory=FlowConfig)
    tau: float = 0.05
    patch: int = 8
    window: int = 21

    def __post_init__(self):
        if self.tau < 0:
            raise ValidationError("tau must be non-negative")
        if self.patch < 1 or self.window < 1:
            raise ValidationError("bad patch configuration")


def frame_zero_products(P_o0: UVMap, I0: Field2, tex_w: int, tex_h: int):
    """Reference texture and identity correspondence from frame 0."""
    g = texture_grid(P_o0, tex_w, tex_h)
    T_o = warp(I0, g)
    Q0 = identity_correspondence(tex_w, tex_h, valid=g.coverage > 0)
    return T_o, Q0


def relocate_frame(P_o: UVMap, I: Field2, T_o: Field2, Q0: Correspondence,
                   cfg: RelocateConfig | None = None,
                   external_flow: FlowField | None = None,
                   record: dict | None = None):
    """Full relocation of one frame; returns (P_f, Q_t, flow, T_t).

    A ``record`` dict, when given, receives the flow magnitude over the
    texels the frame covers (``flow_mean_texels``, ``flow_max_texels``),
    the work of the flow search (``flow_volumes``, ``flow_volume_texels``;
    both 0 for an external flow) and how the covered texels ended:
    ``matched`` (valid after flow and prune), ``pruned``, ``filled`` by
    patch matching, or still ``unfilled``.
    """
    cfg = cfg or RelocateConfig()
    tex_w, tex_h = Q0.width, Q0.height
    g = texture_grid(P_o, tex_w, tex_h)
    covered = g.coverage > 0
    T_t = warp(I, g)
    work = {"flow_volumes": 0, "flow_volume_texels": 0}
    flow = (external_flow if external_flow is not None
            else block_flow(T_t, T_o, cfg.flow, record=work))
    Qr = init_correspondence(Q0, flow)
    Qr.valid &= covered
    Qc = prune_mismatch(Qr, T_o, T_t, cfg.tau)
    Qt = patch_fill(Qc, T_o, T_t, Q0, cfg.patch, cfg.window, domain=covered)
    P_f = to_image_uv(Qt, P_o)
    if record is not None:
        d = flow.texels()[covered]
        mag = np.sqrt(np.sum(d * d, axis=1))
        record.update({
            "flow_mean_texels": float(mag.mean()) if len(mag) else 0.0,
            "flow_max_texels": float(mag.max()) if len(mag) else 0.0,
            "covered": int(covered.sum()), "matched": int(Qc.valid.sum()),
            "pruned": int((Qr.valid & ~Qc.valid).sum()),
            "filled": int((Qt.valid & ~Qc.valid).sum()),
            "unfilled": int((covered & ~Qt.valid).sum()), **work})
    return P_f, Qt, flow, T_t

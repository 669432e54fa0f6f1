"""Relocation of per-frame texture content onto the constant texture.

Per-frame unwrapped textures drift over time even when every frame looks
right individually.  This module estimates where each texel of a frame's
texture sits inside the reference texture (frame 0), prunes texels whose
appearance does not actually match there, and fills the pruned holes by
patch matching, yielding per-texel correspondences that rewrite the image
UVs to address the single constant texture.  A flow is a 2-channel
``Field2`` of normalized displacements; a correspondence is a 2-channel
``Field2`` of positions in the reference texture whose ``valid`` marks the
texels that hold one.

``block_flow(a, b)`` returns forward flow anchored on ``a``:
``a(p) ~ b(p + flow(p))``.  The pipeline therefore matches the frame
texture against the reference via ``block_flow(T_t, T_o)``, so sampling
the identity correspondence at ``u + flow(u)`` lands on the matching
reference position.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.ndimage as ndi
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError, require_finite
from .fields import Field2, pixel_center_grid, sample_bilinear, scatter_add
from .formats import overwrite, read_body
from .warpmap import UVMap, texture_grid, texture_positions, warp


# Flow search settings; ``block_flow`` reads them when it is called.
PYRAMID_LEVELS = 3   # fewer where a level would be narrower than two blocks
SUBPIXEL = True      # parabolic refinement on the finest level


@dataclass
class RelocateConfig:
    block: int = 8
    search_radius: int = 4     # coarsest level, in its texels; finer levels refine ±2
    tau: float = 0.05
    patch: int = 8
    window: int = 21

    def __post_init__(self):
        if self.block < 2 or self.search_radius < 1:
            raise ValidationError("bad flow configuration")
        require_finite(self, "tau")
        if self.tau < 0:
            raise ValidationError("tau must be non-negative")
        if self.patch < 1 or self.window < 1:
            raise ValidationError("bad patch configuration")


def flow_texels(flow: Field2) -> np.ndarray:
    """A flow's displacements in texel units, (H, W, 2)."""
    return flow.data * np.array([flow.width, flow.height])


def identity_correspondence(tex_w: int, tex_h: int,
                            valid: np.ndarray | None = None) -> Field2:
    if valid is None:
        valid = np.ones((tex_h, tex_w), dtype=bool)
    return Field2(pixel_center_grid(tex_w, tex_h), valid=valid)


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

# Search radius at every level below the coarsest, around the estimate
# carried over from the level above (hierarchical block matching: search
# widely at the top, refine below).
_REFINE_RADIUS = 2


def _chunks(crop: np.ndarray, w: int, cap: int) -> list:
    """Batches ``(i0, i1, ch, cw)`` of the keys ``i0:i1``, which share the
    crop ``ch * (w + 1) + cw`` (``crop`` is sorted), grouped into chunks of
    at most ``cap`` texels.  A run of equal crops is split into batches of
    ``_BATCH_TEXELS`` texels, or one key if its crop is larger; a chunk
    takes whole batches in order, so a run may span chunks."""
    runs = np.flatnonzero(np.diff(crop, prepend=-1, append=-1))
    chunks, chunk, used = [], [], 0
    for r0, r1 in zip(runs[:-1], runs[1:]):
        ch, cw = divmod(int(crop[r0]), w + 1)
        step = max(1, _BATCH_TEXELS // (ch * cw))
        for i0 in range(r0, r1, step):
            i1 = min(i0 + step, r1)
            size = (i1 - i0) * ch * cw
            if used + size > cap:
                chunks.append(chunk)
                chunk, used = [], 0
            chunk.append((i0, i1, ch, cw))
            used += size
    chunks.append(chunk)
    return chunks


def _starts(labels: np.ndarray, n: int) -> np.ndarray:
    """Where each label's entries start in ``labels`` sorted stably, and the
    total at the end."""
    return np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n))))


def _candidates(radius: int):
    offs = [(dy, dx) for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)]
    offs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    return offs


def _needed(domain: np.ndarray, shapes: list, blk: int) -> list:
    """Per pyramid level, the texels whose flow reaches ``domain``: the
    domain at level 0, and at each coarser level every texel that the
    upsample and the ``blk``-wide base smoothing carry into a needed texel
    of the level below.  ``uniform_filter`` reads rows y - blk // 2 to
    y + (blk - 1) // 2 into row y, so row y' is read by rows y' - (blk - 1) // 2
    to y' + blk // 2 (likewise columns): a mirrored window, which
    ``maximum_filter`` takes with origin -1 for an even ``blk``.  The
    smoothing's clamped reads past the border land on rows that window
    already holds."""
    need = [domain]
    for h2, w2 in shapes[1:]:
        read = ndi.maximum_filter(need[-1], size=blk, origin=blk % 2 - 1,
                                  mode="constant")
        yy, xx = np.nonzero(read)
        coarse = np.zeros((h2, w2), dtype=bool)
        coarse[np.minimum(yy // 2, h2 - 1), np.minimum(xx // 2, w2 - 1)] = True
        need.append(coarse)
    return need


def block_flow(T_a: Field2, T_b: Field2, cfg: RelocateConfig | None = None,
               domain: np.ndarray | None = None,
               record: dict | None = None) -> Field2:
    """Coarse-to-fine block-matching flow from T_a to T_b.

    Per-texel SSD over a ``cfg.block`` window, searched within
    ``cfg.search_radius`` at the coarsest of ``PYRAMID_LEVELS`` levels and
    ``_REFINE_RADIUS`` (or less) around the carried-over estimate at each
    finer level; ties go to the smaller displacement, then scanline order.
    ``SUBPIXEL`` refines the finest level parabolically.  Memory is one
    candidate cost per searched texel and offset of the level with the
    most, plus a buffer of ``_BATCH_TEXELS`` (or one level-0 image) and its
    index arrays, however many displacements a level scores.

    A ``domain`` mask (H, W), when given, limits the search to the texels
    whose flow reaches it (see ``_needed``); the flow on the domain is bit
    for bit the flow of the whole texture.  Every other texel scores
    nothing, and its flow is the carried-over base: the smoothed estimate
    from the level above.

    A ``record`` dict, when given, receives the work the search took,
    summed over levels: ``flow_volumes``, the displacements scored, and
    ``flow_volume_texels``, the texels their SSD and box filter covered.
    """
    cfg = cfg or RelocateConfig()
    if (T_a.width, T_a.height) != (T_b.width, T_b.height):
        raise ValidationError("flow inputs must share a resolution")
    if T_a.channels != 3 or T_b.channels != 3:
        raise ValidationError("flow inputs must have 3 channels")
    if domain is None:
        domain = np.ones((T_a.height, T_a.width), dtype=bool)
    elif np.shape(domain) != (T_a.height, T_a.width):
        raise ValidationError("flow domain must match the flow inputs' resolution")
    pyr_a, pyr_b = [T_a.data], [T_b.data]
    for _ in range(PYRAMID_LEVELS - 1):
        if min(pyr_a[-1].shape[:2]) < 2 * cfg.block:
            break
        pyr_a.append(_downsample(pyr_a[-1]))
        pyr_b.append(_downsample(pyr_b[-1]))

    blk = cfg.block
    need = _needed(np.asarray(domain, dtype=bool), [a.shape[:2] for a in pyr_a], blk)
    radius = [min(cfg.search_radius, _REFINE_RADIUS)] * (len(pyr_a) - 1)
    radius.append(cfg.search_radius)
    # A box-filtered cost at row y reads input rows below y + reach, and
    # uniform_filter1d's running sum starts at row 0 (likewise columns), so
    # a crop anchored at the top-left corner that reaches that far is bit
    # for bit exact; a crop that starts later rounds differently.
    reach = blk - blk // 2
    n_volumes = n_texels = 0
    # Keys are scored a chunk at a time into one buffer, which holds any
    # batch, and copied out to their texels' candidates.  A key serves
    # distinct texels of its crop, so a chunk's entries fit index arrays of
    # the buffer's length.  One block holds these and the candidate volume:
    # glibc raises its mmap threshold to the largest block freed and trims
    # the heap when twice that is free, so with the rest of a call's arrays
    # in smaller blocks the heap keeps its pages from call to call.
    n_buf = max(_BATCH_TEXELS, T_a.height * T_a.width)
    n_vol = max((2 * r + 1) ** 2 * int(m.sum()) for r, m in zip(radius, need))
    work = np.empty(n_vol + 5 * n_buf)
    buf, vals = work[n_vol:n_vol + 2 * n_buf].reshape(2, n_buf)
    index = work[n_vol + 2 * n_buf:].view(np.int64).reshape(3, n_buf)
    entry = np.arange(n_buf)
    base = np.zeros(pyr_a[-1].shape[:2] + (2,), dtype=np.float64)  # (dy, dx)
    for level in range(len(pyr_a) - 1, -1, -1):
        a, b = pyr_a[level], pyr_b[level]
        h, w = a.shape[:2]
        if base.shape[:2] != (h, w):
            # an odd row or column past the doubled grid repeats its edge
            rep = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1) * 2.0
            base = np.pad(rep, ((0, h - len(rep)), (0, w - rep.shape[1]), (0, 0)),
                          mode="edge")
        # Smooth the carried-over estimate so neighboring blocks search
        # around consistent centers.
        base = ndi.uniform_filter(base, size=(blk, blk, 1), mode="nearest")
        ibase = np.rint(base)
        # the searched texels, in raster order; the rest keep the base
        sel = np.flatnonzero(need[level])
        if len(sel) == 0:
            continue
        r = radius[level]
        offs = _candidates(r)
        off_y, off_x = np.array(offs, dtype=np.int64).T
        n = len(sel)

        # Each texel scores candidates around its own rounded base.  Costs
        # are memoized per absolute displacement (key) so the hypothesis a
        # texel tests is exactly the flow it records, even where the rounded
        # base steps between neighboring texels.  A displacement packs into
        # the code (dy - lo_y) * span + (dx - lo_x), which sorts as (dy, dx).
        fb = ibase.reshape(-1, 2)[sel]
        ib = fb.astype(np.int64)
        lo_y, lo_x = int(ib[:, 0].min()) - r, int(ib[:, 1].min()) - r
        span = int(ib[:, 1].max()) + r + 1 - lo_x
        bases, inv = np.unique((ib[:, 0] - lo_y) * span + ib[:, 1] - lo_x,
                               return_inverse=True)
        codes, lut = np.unique(bases[:, None] + (off_y * span + off_x),
                               return_inverse=True)
        lut = lut.reshape(len(bases), len(offs))
        key_y, key_x = codes // span + lo_y, codes % span + lo_x

        # Each key's crop reaches past the last row and column of any
        # texel that tests it.
        gy, gx = np.divmod(sel, w)
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
        lut = np.argsort(order)[lut].reshape(-1)

        # A chunk's costs go to the (base, candidate) pairs of its keys, in
        # key order, and from each pair to the texels of its base.  The
        # volume lists searched texels by base, so each pair fills one run
        # of it; col[i] is the place (rank) of texel sel[i] in that order.
        pairs = np.argsort(lut, kind="stable")
        pair_at = _starts(lut, len(codes))
        by_base = np.argsort(inv, kind="stable")
        texels = sel[by_base]
        tex_y = texels // w
        tex_at = _starts(inv, len(bases))
        col = np.argsort(by_base)
        key_at = np.empty(len(codes), dtype=np.int64)     # offset in buf
        key_w = crop % (w + 1)

        pad = int(max(np.abs(key_y).max(), np.abs(key_x).max()))
        a_c = np.ascontiguousarray(np.moveaxis(a, 2, 0))
        b_c = np.ascontiguousarray(np.moveaxis(_edge_pad(b, pad), 2, 0))
        vol = work[:len(offs) * n]     # costs by candidate, then rank
        wins = None
        for chunk in _chunks(crop, w, len(buf)):
            used = 0
            for i0, i1, ch, cw in chunk:
                if wins is None or wins.shape[-2:] != (ch, cw):
                    # wins[:, pad + dy, pad + dx] is b shifted by (dy, dx),
                    # over the crop
                    wins = sliding_window_view(b_c, (ch, cw), axis=(1, 2))
                d = wins[:, pad + key_y[i0:i1], pad + key_x[i0:i1]]
                np.subtract(a_c[:, None, :ch, :cw], d, out=d)
                d *= d
                out = buf[used:used + (i1 - i0) * ch * cw].reshape(i1 - i0, ch, cw)
                key_at[i0:i1] = used + np.arange(i1 - i0) * (ch * cw)
                used += out.size
                # (d0² + d1²) + d2², the order np.sum(d * d, axis=2) adds in
                np.add(d[0], d[1], out=out)
                out += d[2]
                ndi.uniform_filter1d(out, blk, axis=1, mode="nearest", output=out)
                ndi.uniform_filter1d(out, blk, axis=2, mode="nearest", output=out)
            # Copy the chunk's costs out; the rest of each crop is read by no
            # texel.  Entry e of pair j is the texel t = texels[rank[e]] of
            # the pair's base, which sits at row t // w of the key's crop
            # and column t % w = t - w * (t // w), and goes to rank[e] of
            # the candidate's row of the volume.
            p = pairs[pair_at[chunk[0][0]]:pair_at[chunk[-1][1]]]
            pb, pc = np.divmod(p, len(offs))
            k = lut[p]
            start = tex_at[pb]
            cnt = tex_at[pb + 1] - start
            ends = np.cumsum(cnt)
            rank, src, dst = index[:, :ends[-1]]
            np.add(np.repeat(start - ends + cnt, cnt), entry[:len(rank)], out=rank)
            np.take(texels, rank, out=dst, mode="clip")
            np.take(tex_y, rank, out=src, mode="clip")
            np.multiply(src, np.repeat(w - key_w[k], cnt), out=src)
            np.subtract(dst, src, out=src)
            np.add(src, np.repeat(key_at[k], cnt), out=src)
            np.add(rank, np.repeat(pc * n, cnt), out=dst)
            vol[dst] = np.take(buf, src, out=vals[:len(src)], mode="clip")
        n_volumes += len(codes)
        n_texels += int((crop_h * crop_w).sum())
        vol = vol.reshape(len(offs), n)
        # The box filter's running sums leave ~1e-18 residue where the true
        # cost is zero; snap it so exact matches tie-break in candidate
        # order and skip subpixel refinement.
        vol[vol < 1e-12] = 0.0
        best = np.argmin(vol, axis=0)[col]  # first minimum wins: our tie order
        found = fb + np.array(offs, dtype=np.float64)[best]

        if level == 0 and SUBPIXEL:
            # Candidate index of each offset, -1 one step outside the window.
            index_of = np.full((2 * r + 3, 2 * r + 3), -1, dtype=np.int64)
            index_of[off_y + r + 1, off_x + r + 1] = np.arange(len(offs))
            by, bx = off_y[best] + r + 1, off_x[best] + r + 1
            c0 = vol[best, col]
            sub = np.zeros((n, 2))
            for axis, (uy, ux) in ((0, (1, 0)), (1, (0, 1))):
                lo = index_of[by - uy, bx - ux]
                hi = index_of[by + uy, bx + ux]
                ok = (lo >= 0) & (hi >= 0)
                cm = vol[np.where(ok, lo, 0), col]
                cp = vol[np.where(ok, hi, 0), col]
                denom = cm - 2.0 * c0 + cp
                # Refine only at genuine local minima with curvature above
                # the float-noise floor; an exact match (SSD 0) stays put.
                ok &= (denom > 1e-9) & (c0 <= cm) & (c0 <= cp) & (c0 > 0.0)
                off = np.where(ok, 0.5 * (cm - cp) / np.where(ok, denom, 1.0), 0.0)
                sub[:, axis] = np.clip(off, -0.5, 0.5)
            found = found + sub
        base.reshape(-1, 2)[sel] = found

    if record is not None:
        record.update(flow_volumes=n_volumes, flow_volume_texels=n_texels)
    h, w = T_a.height, T_a.width
    disp = np.empty((h, w, 2))
    disp[..., 0] = base[..., 1] / w     # store as (dx, dy) normalized
    disp[..., 1] = base[..., 0] / h
    return Field2._wrap(disp)


def read_flo(path) -> Field2:
    """Middlebury .flo file; values are texel displacements.  Every error
    names the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"PIEH":
            raise ValidationError(f"{path.name}: not a .flo file: bad magic {magic!r}")
        dims = fh.read(8)
        if len(dims) != 8:
            raise ValidationError(f"{path.name}: truncated .flo header")
        w, h = (int(v) for v in np.frombuffer(dims, dtype="<i4"))
        if w < 1 or h < 1:
            raise ValidationError(f"{path.name}: truncated .flo header")
        raw = read_body(fh, w * h * 8)
        if len(raw) != w * h * 8:
            raise ValidationError(f"{path.name}: truncated .flo data")
    tex = np.frombuffer(raw, dtype="<f4").reshape(h, w, 2).astype(np.float64)
    if not np.isfinite(tex).all():
        raise ValidationError(f"{path.name}: flow holds non-finite samples")
    return Field2._wrap(tex / np.array([w, h]))


def write_flo(path, flow: Field2):
    tex = flow_texels(flow).astype("<f4")
    overwrite(path, b"PIEH", np.array([flow.width, flow.height], dtype="<i4").tobytes(),
              tex.tobytes())


def init_correspondence(Q0: Field2, flow: Field2) -> Field2:
    """Relocate a correspondence through a flow: sample Q0 at u + flow(u)."""
    if (Q0.width, Q0.height) != (flow.width, flow.height):
        raise ValidationError("correspondence and flow resolutions differ")
    pos = pixel_center_grid(Q0.width, Q0.height) + flow.data
    vals, validity = sample_bilinear(Q0, pos)
    return Field2._wrap(vals, validity > 0.5)


def prune_mismatch(Q: Field2, T_o: Field2, T_t: Field2, tau: float) -> Field2:
    """Clear validity where the reference at ``Q`` lies more than ``tau``
    (RGB distance) from the frame texture."""
    if tau < 0:
        raise ValidationError("tau must be non-negative")
    if (T_t.height, T_t.width) != (Q.height, Q.width):
        raise ValidationError("frame texture resolution does not match correspondence")
    recon, _ = sample_bilinear(T_o, Q.data)
    resid = np.sqrt(np.sum((recon - T_t.data) ** 2, axis=2))
    return Field2._wrap(Q.data.copy(), Q.mask() & (resid <= tau))


# Float64 values per chunk of gathered tile windows in the patch search
# (512 KB), however many tiles need filling.
_FILL_CHUNK = 1 << 16


def _fill_offsets(ref: np.ndarray, tex: np.ndarray, mask: np.ndarray,
                  tiles: np.ndarray, window: int):
    """Coarse-to-fine search of each tile ``(ty, tx, y1, x1)`` of ``tex``
    for the offset into ``ref`` that minimizes the masked SSD
    ``sum(((tex - ref) * mask)²)`` over the tile (``mask`` is (H, W, 1)),
    within the centered window of radius ``window // 2`` and inside the
    texture.

    The coarse level scores radius ``(window // 2) // 2`` on ``_downsample``d
    textures and mask, over the coarse texels wholly inside each tile, and
    moves the tile by twice the offset; the fine level scores ±1 around
    twice the coarse winner at full resolution.  Costs are summed as one
    patch of the exhaustive loop is, and among equal costs the offset first
    in ``_candidates(window // 2)`` order wins.  A tile with no coarse texel
    (or a window of at most 3) refines around offset 0, which is always in
    bounds, as is twice every coarse offset scored.

    Returns the coarse winners, the chosen offsets (both (n, 2) as
    (dy, dx)), their costs and the number of in-bounds offsets scored.
    """
    h, w = ref.shape[:2]
    # No offset of max(h, w) or more keeps a tile in bounds, so a larger
    # window scores the same offsets.  Clamping there, not one less, keeps
    # the coarse level of a 2x2 texture.
    reach = min(window // 2, max(h, w))
    cands = np.array(_candidates(reach), dtype=np.int64)
    rank = np.empty((2 * reach + 1, 2 * reach + 1), dtype=np.int64)
    rank[cands[:, 0] + reach, cands[:, 1] + reach] = np.arange(len(cands))
    lo, hi = tiles[:, :2], tiles[:, 2:]

    def search(tex, ref, mask, at, size, base, radius, scale):
        """Best of ``base + _candidates(radius)`` per tile with texels
        ``at``, ``size`` on this level; an offset ``o`` moves the tile
        ``scale * o`` texels.  Returns (offsets, costs, offsets scored)."""
        offs = np.array(_candidates(radius), dtype=np.int64)
        best, cost, scored = base.copy(), np.zeros(len(base)), 0
        c = ref.shape[2]
        for ph, pw in np.unique(size, axis=0):
            if ph == 0 or pw == 0:
                continue
            wins = sliding_window_view(ref, (ph, pw, c))[:, :, 0]
            a_wins = sliding_window_view(tex, (ph, pw, c))[:, :, 0]
            # one mask value per channel, so each product runs contiguously
            m_wins = sliding_window_view(np.broadcast_to(mask, tex.shape),
                                         (ph, pw, c))[:, :, 0]
            group = np.flatnonzero((size == (ph, pw)).all(axis=1))
            step = max(1, _FILL_CHUNK // (len(offs) * ph * pw * c))
            for i in range(0, len(group), step):
                t = group[i:i + step]
                off = base[t, None] + offs                       # (n, k, 2)
                full = scale * off
                ok = ((np.abs(full) <= reach).all(axis=2)
                      & (lo[t, None] + full >= 0).all(axis=2)
                      & (hi[t, None] + full <= (h, w)).all(axis=2))
                # an offset out of bounds reads a clipped window, costed inf
                ly = np.clip(at[t, None, 0] + off[..., 0], 0, len(wins) - 1)
                lx = np.clip(at[t, None, 1] + off[..., 1], 0, wins.shape[1] - 1)
                d = wins[ly, lx]                                 # (n, k, ph, pw, c)
                np.subtract(a_wins[at[t, 0], at[t, 1]][:, None], d, out=d)
                d *= m_wins[at[t, 0], at[t, 1]][:, None]
                d *= d
                k_cost = d.reshape(len(t), len(offs), -1).sum(axis=2)
                k_cost[~ok] = np.inf
                r = rank[np.clip(full[..., 0], -reach, reach) + reach,
                         np.clip(full[..., 1], -reach, reach) + reach]
                low = k_cost.min(axis=1)
                k = np.where(k_cost == low[:, None], r, len(rank) ** 2).argmin(axis=1)
                best[t] = off[np.arange(len(t)), k]
                cost[t] = low
                scored += int(ok.sum())
        return best, cost, scored

    coarse = np.zeros((len(tiles), 2), dtype=np.int64)
    n_coarse = 0
    if reach // 2 > 0 and min(h, w) > 1:
        # coarse texels wholly inside each tile
        at = (lo + 1) // 2
        coarse, _, n_coarse = search(_downsample(tex), _downsample(ref),
                                     _downsample(mask.astype(np.float64)),
                                     at, hi // 2 - at, coarse, reach // 2, 2)
    best, cost, n_fine = search(tex, ref, mask, lo, hi - lo, 2 * coarse, 1, 1)
    return coarse, best, cost, n_coarse + n_fine


def patch_fill(Q: Field2, T_o: Field2, T_t: Field2, Q0: Field2,
               patch: int, window: int,
               domain: np.ndarray | None = None,
               record: dict | None = None) -> Field2:
    """Fill invalid correspondences by appearance patch matching.

    Invalid texels inside the domain of definition are covered by tiles of
    ``patch``², a half patch apart; each tile searches the reference within
    a centered ``window``² for the offset minimizing SSD against the frame
    texture (``_fill_offsets``: coarse-to-fine, about 130 offsets of a
    21×21 window; the exhaustive loop over every offset stays in the tests
    as the reference cost), then donates the reference correspondences at
    that offset.  Overlapping donations are averaged, summed in tile raster
    order by one ordered scatter; valid texels are never modified.

    A ``record`` dict, when given, receives ``fill_tiles``, the tiles that
    searched, and ``fill_candidates``, the in-bounds offsets they scored
    over both levels.
    """
    if patch < 1 or window < 1:
        raise ValidationError("bad patch configuration")
    h, w = Q.height, Q.width
    if domain is None:
        domain = T_t.mask()
    fill = domain & ~Q.mask()

    # Tile (i, j) covers rows i * stride to y1[i] and columns j * stride to
    # x1[j]; it searches if it holds a texel to fill.
    stride = max(patch // 2, 1)
    ty, tx = np.arange(0, h, stride), np.arange(0, w, stride)
    y1, x1 = np.minimum(ty + patch, h), np.minimum(tx + patch, w)
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    sat[1:, 1:] = fill.cumsum(axis=0).cumsum(axis=1)
    holes = sat[y1][:, x1] - sat[ty][:, x1] - sat[y1][:, tx] + sat[ty][:, tx]
    ti, tj = np.nonzero(holes)
    tiles = np.stack([ty[ti], tx[tj], y1[ti], x1[tj]], axis=1)
    _, best, _, scored = _fill_offsets(T_o.data, T_t.data, domain[..., None],
                                       tiles, window)
    if record is not None:
        record.update(fill_tiles=len(tiles), fill_candidates=scored)

    # Every (tile, fill texel) pair donates the reference correspondence at
    # the tile's offset.  Tiles come in raster order and texels row-major
    # within each, and bincount adds in input order, so each texel's
    # donations add in tile raster order.
    dy, dx = np.divmod(np.arange(patch * patch), patch)
    yy, xx = tiles[:, :1] + dy, tiles[:, 1:2] + dx          # (tiles, patch²)
    pair = (yy < tiles[:, 2:3]) & (xx < tiles[:, 3:4])
    pair[pair] = fill[yy[pair], xx[pair]]
    t = np.nonzero(pair)[0]
    yy, xx = yy[pair], xx[pair]
    at = yy * w + xx
    acc = scatter_add(at, Q0.data[yy + best[t, 0], xx + best[t, 1]], h * w).reshape(h, w, 2)
    cnt = np.bincount(at, minlength=h * w).reshape(h, w)

    target = Q.data.copy()
    filled = fill & (cnt > 0)
    target[filled] = acc[filled] / cnt[filled][:, None]
    return Field2._wrap(target, Q.mask() | filled)


def to_image_uv(Qt: Field2, P_o: UVMap) -> UVMap:
    """Rewrite image UVs so they address the reference texture directly.

    Each foreground pixel looks up its texture position, reads the
    correspondence there, and stores the displacement to the corresponded
    reference position instead.
    """
    # only the positions are read, so the mask is not sampled
    q, _ = sample_bilinear(Field2._wrap(Qt.data), texture_positions(P_o))
    uv = pixel_center_grid(P_o.width, P_o.height) - q
    uv[~P_o.silhouette] = 0.0
    return UVMap(uv, P_o.silhouette)


def frame_zero_products(P_o0: UVMap, I0: Field2, tex_w: int, tex_h: int):
    """Reference texture and identity correspondence from frame 0."""
    g = texture_grid(P_o0, tex_w, tex_h)
    T_o = warp(I0, g)
    Q0 = identity_correspondence(tex_w, tex_h, valid=g.valid)
    return T_o, Q0


def relocate_frame(P_o: UVMap, I: Field2, T_o: Field2, Q0: Field2,
                   cfg: RelocateConfig | None = None,
                   external_flow: Field2 | None = None,
                   record: dict | None = None):
    """Full relocation of one frame; returns (P_f, Q_t, flow, T_t).

    A ``record`` dict, when given, receives the flow magnitude over the
    texels the frame covers (``flow_mean_texels``, ``flow_max_texels``),
    the work of the flow search (``flow_volumes``, ``flow_volume_texels``;
    both 0 for an external flow) and of the patch search (``fill_tiles``,
    ``fill_candidates``; see ``patch_fill``), and how the covered texels ended:
    ``matched`` (valid after flow and prune), ``pruned``, ``filled`` by
    patch matching, or still ``unfilled``.
    """
    cfg = cfg or RelocateConfig()
    tex_w, tex_h = Q0.width, Q0.height
    g = texture_grid(P_o, tex_w, tex_h)
    covered = g.valid
    T_t = warp(I, g)
    work = {"flow_volumes": 0, "flow_volume_texels": 0}
    flow = (external_flow if external_flow is not None
            else block_flow(T_t, T_o, cfg, domain=covered, record=work))
    Qr = init_correspondence(Q0, flow)
    Qr.valid &= covered
    Qc = prune_mismatch(Qr, T_o, T_t, cfg.tau)
    Qt = patch_fill(Qc, T_o, T_t, Q0, cfg.patch, cfg.window, domain=covered, record=work)
    P_f = to_image_uv(Qt, P_o)
    if record is not None:
        d = flow_texels(flow)[covered]
        mag = np.sqrt(np.sum(d * d, axis=1))
        record.update({
            "flow_mean_texels": float(mag.mean()) if len(mag) else 0.0,
            "flow_max_texels": float(mag.max()) if len(mag) else 0.0,
            "covered": int(covered.sum()), "matched": int(Qc.valid.sum()),
            "pruned": int((Qr.valid & ~Qc.valid).sum()),
            "filled": int((Qt.valid & ~Qc.valid).sum()),
            "unfilled": int((covered & ~Qt.valid).sum()), **work})
    return P_f, Qt, flow, T_t

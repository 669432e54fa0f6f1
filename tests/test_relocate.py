import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.ndimage as ndi

from uvweave import (CorruptConfig, Field2, SceneConfig, ValidationError,
                     block_flow, corrupt, flow_texels, gen_sequence,
                     identity_correspondence, init_correspondence, patch_fill,
                     prune_mismatch, read_flo, to_image_uv, write_flo)
from uvweave import relocate
from uvweave.fields import pixel_center_grid
from uvweave.relocate import (_candidates, _downsample, _edge_pad, RelocateConfig,
                              frame_zero_products, relocate_frame)
from uvweave.warpmap import UVMap, texture_grid, warp


def noise_texture(h=96, w=96, seed=11):
    rng = np.random.default_rng(seed)
    tex = ndi.gaussian_filter(rng.uniform(0, 1, (h, w, 3)), (1.5, 1.5, 0))
    return (tex - tex.min()) / (tex.max() - tex.min())


def scene_pair(size=96):
    fs = gen_sequence(SceneConfig(image_w=size, image_h=size, tex_w=size,
                                  tex_h=size, frames=2, seed=5,
                                  amplitude=0.02, frequency=1.5))
    f0, f1 = fs.frames
    T_o, Q0 = frame_zero_products(f0.uv_gt, f0.image, size, size)
    g = texture_grid(f1.uv_gt, size, size)
    T_t = warp(f1.image, g)
    return fs, T_o, Q0, T_t, g, f1


def brute_single_level(a, b, radius, block):
    """Exhaustive single-level block search, first minimum wins."""
    offs = _candidates(radius)
    h, w = a.shape[:2]
    best_cost = np.full((h, w), np.inf)
    best = np.zeros((h, w, 2))
    for dy, dx in offs:
        ys = np.clip(np.arange(h) + dy, 0, h - 1)
        xs = np.clip(np.arange(w) + dx, 0, w - 1)
        d = a - b[ys[:, None], xs[None, :]]
        cost = ndi.uniform_filter(np.sum(d * d, axis=2), size=block, mode="nearest")
        upd = cost < best_cost - 1e-12
        best_cost = np.where(upd, cost, best_cost)
        best[upd] = (dy, dx)
    return best[..., ::-1]               # (dx, dy) texels


def test_flow_config_validation():
    with pytest.raises(ValidationError):
        RelocateConfig(block=1)
    with pytest.raises(ValidationError):
        RelocateConfig(search_radius=0)


def test_candidates_prefer_small_displacements():
    offs = _candidates(1)
    assert offs == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0),
                    (-1, -1), (-1, 1), (1, -1), (1, 1)]


def _shifted(padded, pad, h, w, dy, dx):
    """View with out[q] = img[q + (dy, dx)], edges clamped, for
    ``padded = _edge_pad(img, pad)`` and |dy|, |dx| <= pad."""
    return padded[pad + dy:pad + dy + h, pad + dx:pad + dx + w]


def loop_shift(img, dy, dx):
    """Reference: out[q] = img[q + (dy, dx)] with edge clamping, by index."""
    h, w = img.shape[:2]
    ys = np.clip(np.arange(h) + dy, 0, h - 1)
    xs = np.clip(np.arange(w) + dx, 0, w - 1)
    return img[ys[:, None], xs[None, :]]


def test_padded_slice_matches_clamped_shift():
    rng = np.random.default_rng(4)
    for shape in ((5, 7, 3), (6, 4), (1, 3, 2)):
        img = rng.uniform(0, 1, shape)
        h, w = shape[:2]
        reach = 2 * max(h, w)
        padded = _edge_pad(img, reach)
        for dy in range(-reach, reach + 1):
            for dx in range(-reach, reach + 1):
                out = _shifted(padded, reach, h, w, dy, dx)
                assert out.tobytes() == loop_shift(img, dy, dx).tobytes()
        # the pad a level uses is its largest displacement, not more
        pad = max(abs(-3), abs(2))
        assert (_shifted(_edge_pad(img, pad), pad, h, w, -3, 2)
                == loop_shift(img, -3, 2)).all()


def test_block_flow_identical_is_zero():
    # sizes that are not multiples of the pyramid's factor pad their last
    # rows and columns when the flow is carried up a level
    for h, w in ((96, 96), (37, 37), (40, 50), (64, 66)):
        a = Field2(noise_texture(h, w))
        assert np.abs(flow_texels(block_flow(a, a))).max() == 0.0


def test_block_flow_integer_shifts_exact():
    tex = noise_texture()
    a = Field2(tex)
    m = 16
    for s in ((0, 3), (3, -2), (6, -5)):     # last one needs the pyramid
        b = Field2(np.roll(tex, s, axis=(0, 1)))
        f = flow_texels(block_flow(a, b))[m:-m, m:-m]
        assert np.abs(f - np.array([s[1], s[0]])).max() == 0.0


def test_block_flow_matches_single_level_oracle(monkeypatch):
    tex = noise_texture()
    a = Field2(tex)
    b = Field2(0.7 * np.roll(tex, (3, -2), axis=(0, 1))
               + 0.3 * np.roll(tex, (4, -2), axis=(0, 1)))
    monkeypatch.setattr(relocate, "PYRAMID_LEVELS", 1)
    monkeypatch.setattr(relocate, "SUBPIXEL", False)
    got = flow_texels(block_flow(a, b))
    want = brute_single_level(a.data, b.data, 4, 8)
    m = 12
    assert (got[m:-m, m:-m] == want[m:-m, m:-m]).all()


def union_block_flow(T_a, T_b, cfg, record=None):
    """Reference: the union-volume loop.  Every level scores the full-size
    box-filtered SSD of each displacement any texel tests, then gathers
    each texel's candidates by fancy indexing.  The coarsest level searches
    ``cfg.search_radius``, the finer ones at most ``_REFINE_RADIUS``; the
    pyramid depth and subpixel step are ``relocate``'s constants.
    Returns the flow and, per
    level, (distinct rounded bases, displacements scored, h, w).  A
    ``record`` dict receives the counts ``block_flow`` records, with each
    displacement's crop found by a loop over the bases that test it."""
    pyr_a, pyr_b = [T_a.data], [T_b.data]
    for _ in range(relocate.PYRAMID_LEVELS - 1):
        if min(pyr_a[-1].shape[:2]) < 2 * cfg.block:
            break
        pyr_a.append(_downsample(pyr_a[-1]))
        pyr_b.append(_downsample(pyr_b[-1]))
    reach = cfg.block - cfg.block // 2
    levels, crop_texels = [], 0
    base = np.zeros(pyr_a[-1].shape[:2] + (2,), dtype=np.float64)
    for level in range(len(pyr_a) - 1, -1, -1):
        radius = cfg.search_radius
        if level < len(pyr_a) - 1:
            radius = min(radius, relocate._REFINE_RADIUS)
        offs = _candidates(radius)
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
        base = ndi.uniform_filter(base, size=(cfg.block, cfg.block, 1), mode="nearest")
        ibase = np.rint(base)
        uniq, inv = np.unique(ibase.astype(np.int64).reshape(-1, 2), axis=0,
                              return_inverse=True)
        inv = inv.reshape(h, w)
        keys = sorted({(int(g[0]) + dy, int(g[1]) + dx)
                       for g in uniq for dy, dx in offs})
        kidx = {d: i for i, d in enumerate(keys)}
        pad = max(max(abs(dy), abs(dx)) for dy, dx in keys)
        b_pad = _edge_pad(b, pad)
        vols = np.empty((len(keys), h, w), dtype=np.float64)
        for i, (dy, dx) in enumerate(keys):
            diff = a - _shifted(b_pad, pad, h, w, dy, dx)
            ssd = np.sum(diff * diff, axis=2)
            vols[i] = ndi.uniform_filter(ssd, size=cfg.block, mode="nearest")
        levels.append((len(uniq), len(keys), h, w))
        crops = {}
        for gi, g in enumerate(uniq):
            ys, xs = np.nonzero(inv == gi)
            ch, cw = min(int(ys.max()) + reach, h), min(int(xs.max()) + reach, w)
            for dy, dx in offs:
                d = (int(g[0]) + dy, int(g[1]) + dx)
                oh, ow = crops.get(d, (0, 0))
                crops[d] = (max(oh, ch), max(ow, cw))
        crop_texels += sum(ch * cw for ch, cw in crops.values())
        lut = np.empty((len(uniq), len(offs)), dtype=np.int64)
        for gi, g in enumerate(uniq):
            for di, (dy, dx) in enumerate(offs):
                lut[gi, di] = kidx[(int(g[0]) + dy, int(g[1]) + dx)]
        gy, gx = np.mgrid[0:h, 0:w]
        vol = np.moveaxis(vols[lut[inv], gy[..., None], gx[..., None]], -1, 0)
        vol[vol < 1e-12] = 0.0
        best = np.argmin(vol, axis=0)
        flow = ibase + np.array(offs, dtype=np.float64)[best]
        if level == 0 and relocate.SUBPIXEL:
            idx_of = {d: i for i, d in enumerate(offs)}
            c0 = vol[best, gy, gx]
            sub = np.zeros((h, w, 2))
            for axis, unit in ((0, (1, 0)), (1, (0, 1))):
                lo = np.array([idx_of.get((d[0] - unit[0], d[1] - unit[1]), -1)
                               for d in offs])[best]
                hi = np.array([idx_of.get((d[0] + unit[0], d[1] + unit[1]), -1)
                               for d in offs])[best]
                ok = (lo >= 0) & (hi >= 0)
                cm = vol[np.where(ok, lo, 0), gy, gx]
                cp = vol[np.where(ok, hi, 0), gy, gx]
                denom = cm - 2.0 * c0 + cp
                ok &= (denom > 1e-9) & (c0 <= cm) & (c0 <= cp) & (c0 > 0.0)
                off = np.where(ok, 0.5 * (cm - cp) / np.where(ok, denom, 1.0), 0.0)
                sub[..., axis] = np.clip(off, -0.5, 0.5)
            flow = flow + sub
        base = flow
    if record is not None:
        record.update(flow_volumes=sum(k for _, k, _, _ in levels),
                      flow_volume_texels=crop_texels)
    h, w = T_a.height, T_a.width
    disp = np.empty((h, w, 2))
    disp[..., 0] = base[..., 1] / w
    disp[..., 1] = base[..., 0] / h
    return Field2(disp), levels


def varying_shift_pair(h, w, seed=2):
    """A noise texture and its copy under a smooth, spatially varying
    subpixel shift of up to about 5 texels."""
    tex = noise_texture(h, w, seed=seed)
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    sy = 3.0 * np.sin(2 * np.pi * x / w) + 1.5 * np.cos(3 * np.pi * y / h)
    sx = 2.5 * np.cos(2 * np.pi * y / h) - 2.0 * np.sin(np.pi * (x + y) / (h + w))
    warped = np.stack([ndi.map_coordinates(tex[..., c], [y + sy, x + sx], order=1,
                                           mode="nearest") for c in range(3)], axis=-1)
    return Field2(tex), Field2(warped)


@pytest.fixture(scope="module")
def corrupted_frames():
    """The frames of a corrupted 64² scene."""
    fs = gen_sequence(SceneConfig(image_w=64, image_h=64, tex_w=64, tex_h=64,
                                  frames=8, seed=1, amplitude=0.02, frequency=1.5))
    return corrupt(fs, CorruptConfig(margin=4, dup_blocks=8, dup_size=8,
                                     uv_noise=0.01, seed=1)).frames


@pytest.fixture(scope="module")
def corrupted_pairs(corrupted_frames):
    """Relocate pairs (frame texture, reference texture) of a corrupted 64²
    scene, unwrapped through its raw UV maps."""
    f0 = corrupted_frames[0]
    T_o, _ = frame_zero_products(f0.uv_raw, f0.image, 64, 64)
    return [(warp(f.image, texture_grid(f.uv_raw, 64, 64)), T_o)
            for f in corrupted_frames[1:]]


@pytest.fixture(scope="module")
def corrupted_coverage(corrupted_frames):
    """The texels each frame of ``corrupted_pairs`` covers."""
    return [texture_grid(f.uv_raw, 64, 64).valid for f in corrupted_frames[1:]]


def test_ssd_channel_order_matches_axis_sum():
    rng = np.random.default_rng(8)
    for shape in ((64, 64, 3), (37, 5, 3), (1, 1, 3)):
        d = rng.normal(size=shape) * np.exp(rng.uniform(-20, 20, size=shape))
        want = np.sum(d * d, axis=2)
        d0, d1, d2 = (d[..., c] for c in range(3))
        assert ((d0 * d0 + d1 * d1) + d2 * d2).tobytes() == want.tobytes()
        if shape == (64, 64, 3):
            # the other association rounds differently somewhere
            assert (d0 * d0 + (d1 * d1 + d2 * d2)).tobytes() != want.tobytes()


def test_block_flow_matches_union_reference_on_relocate_pairs(corrupted_pairs):
    most_bases = 0
    for T_t, T_o in corrupted_pairs:
        want, levels = union_block_flow(T_t, T_o, RelocateConfig())
        got = block_flow(T_t, T_o)
        assert got.data.tobytes() == want.data.tobytes()
        most_bases = max(most_bases, levels[-1][0])
    assert most_bases >= 50


def test_block_flow_matches_union_reference_on_odd_sizes():
    for h, w in ((37, 37), (40, 50), (64, 66), (96, 80)):
        a, b = varying_shift_pair(h, w)
        want, _ = union_block_flow(a, b, RelocateConfig())
        assert block_flow(a, b).data.tobytes() == want.data.tobytes()


def test_block_flow_matches_union_reference_across_configs(monkeypatch):
    a, b = varying_shift_pair(48, 56, seed=6)
    cases = [(3, 1, 1, False), (5, 2, 2, True), (6, 3, 3, False), (7, 4, 4, True),
             (8, 4, 2, False), (3, 4, 4, False), (6, 1, 4, True), (7, 2, 1, True),
             (5, 3, 4, False), (8, 1, 3, True)]
    for blk, radius, levels, subpixel in cases:
        monkeypatch.setattr(relocate, "PYRAMID_LEVELS", levels)
        monkeypatch.setattr(relocate, "SUBPIXEL", subpixel)
        cfg = RelocateConfig(block=blk, search_radius=radius)
        want, _ = union_block_flow(a, b, cfg)
        got = block_flow(a, b, cfg)
        assert got.data.tobytes() == want.data.tobytes(), (cfg, levels, subpixel)


def test_block_flow_chunk_seams_match_union_reference(monkeypatch):
    # level 0 is scored in many chunks, and a run of keys with equal crops
    # is split between two of them
    plans = []

    def spy(crop, w, cap):
        chunks = chunk_plan(crop, w, cap)
        plans.append((crop, chunks))
        return chunks

    chunk_plan = relocate._chunks
    monkeypatch.setattr(relocate, "_chunks", spy)
    a, b = varying_shift_pair(96, 96, seed=3)
    got, want = {}, {}
    flow = block_flow(a, b, record=got)
    ref, _ = union_block_flow(a, b, RelocateConfig(), record=want)
    assert flow.data.tobytes() == ref.data.tobytes()
    assert got == want
    crop, chunks = plans[-1]                 # the finest level comes last
    batches = [batch for chunk in chunks for batch in chunk]
    assert [i0 for i0, *_ in batches] == [0] + [i1 for _, i1, *_ in batches[:-1]]
    assert batches[-1][1] == len(crop)
    assert len(chunks) >= 3
    seams = [chunk[0][0] for chunk in chunks[1:]]
    assert any(crop[s - 1] == crop[s] for s in seams)


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_flow_memory_does_not_grow_with_keys(corrupted_pairs):
    # a relocate pair tests hundreds of displacements at level 0, twelve
    # times the 25 of one rounded base there; a pair of identical textures
    # has one rounded base, so 81 at the coarsest level and 25 below
    T_t, T_o = corrupted_pairs[0]
    _, levels = union_block_flow(T_t, T_o, RelocateConfig())
    _, keys, h, w = levels[-1]
    assert keys >= 12 * 25
    same = Field2(noise_texture(64, 64))
    _, same_levels = union_block_flow(same, same, RelocateConfig())
    assert [k for _, k, _, _ in same_levels] == [81, 25, 25]
    many = traced_peak(lambda: block_flow(T_t, T_o))
    few = traced_peak(lambda: block_flow(same, same))
    assert many < 1.5 * few and few < 1.5 * many
    # well below one full volume per displacement
    assert many < keys * h * w * 8


def test_block_flow_records_cropped_volumes(corrupted_pairs):
    T_t, T_o = corrupted_pairs[2]
    rec = {}
    block_flow(T_t, T_o, record=rec)
    _, levels = union_block_flow(T_t, T_o, RelocateConfig())
    assert sorted(rec) == ["flow_volume_texels", "flow_volumes"]
    assert rec["flow_volumes"] == sum(k for _, k, _, _ in levels)
    # the crops cover well under the union loop's full-size volumes
    assert rec["flow_volume_texels"] < 0.8 * sum(k * h * w for _, k, h, w in levels)
    # the counts repeat across reruns and when frames run on threads
    again = {}
    block_flow(T_t, T_o, record=again)
    assert again == rec

    def run(pair):
        r = {}
        block_flow(*pair, record=r)
        return r

    serial = [run(p) for p in corrupted_pairs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(run, corrupted_pairs)) == serial


def test_block_flow_domain_matches_whole_texture(corrupted_pairs, corrupted_coverage):
    # relocate keeps the flow only where the frame covers the texture
    for (T_t, T_o), covered in zip(corrupted_pairs, corrupted_coverage):
        assert 0.2 < covered.mean() < 0.8
        whole, part = {}, {}
        want = block_flow(T_t, T_o, record=whole)
        got = block_flow(T_t, T_o, domain=covered, record=part)
        assert got.data[covered].tobytes() == want.data[covered].tobytes()
        assert part["flow_volume_texels"] < whole["flow_volume_texels"]
    # an empty domain scores nothing and keeps the zero base everywhere
    rec = {}
    none = block_flow(T_t, T_o, domain=np.zeros_like(covered), record=rec)
    assert rec == {"flow_volumes": 0, "flow_volume_texels": 0}
    assert not none.data.any()
    with pytest.raises(ValidationError, match="domain"):
        block_flow(T_t, T_o, domain=covered[:-1])


def test_block_flow_subpixel_refinement():
    tex = noise_texture()
    a = Field2(tex)
    b = Field2(0.7 * np.roll(tex, (3, -2), axis=(0, 1))
               + 0.3 * np.roll(tex, (4, -2), axis=(0, 1)))
    e = np.abs(flow_texels(block_flow(a, b))[16:-16, 16:-16] - np.array([-2, 3.3]))
    assert e.max() < 0.3
    assert e.mean() < 0.08


def test_block_flow_pyramid_extends_range(monkeypatch):
    tex = noise_texture()
    a = Field2(tex)
    b = Field2(np.roll(tex, (6, -5), axis=(0, 1)))
    monkeypatch.setattr(relocate, "PYRAMID_LEVELS", 1)
    single = flow_texels(block_flow(a, b))[16:-16, 16:-16]
    assert np.linalg.norm(single - np.array([-5, 6]), axis=-1).min() > 0.5


def test_block_flow_noise_pair_bounded():
    rng = np.random.default_rng(3)
    a = Field2(rng.uniform(0, 1, (64, 64, 3)))
    b = Field2(rng.uniform(0, 1, (64, 64, 3)))
    f = flow_texels(block_flow(a, b))
    # radius 4 at the coarsest of 3 levels, 2 at the finer two:
    # 4*4 + 2*2 + 2*1, plus 0.5 subpixel
    assert np.abs(f).max() <= 22.5


def test_block_flow_errors():
    a = Field2(np.zeros((32, 32, 3)))
    with pytest.raises(ValidationError, match="resolution"):
        block_flow(a, Field2(np.zeros((32, 40, 3))))
    with pytest.raises(ValidationError, match="3 channels"):
        block_flow(Field2(np.zeros((32, 32, 2))), Field2(np.zeros((32, 32, 2))))


def test_flo_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    tex = np.round(rng.uniform(-6, 6, (12, 20, 2)) * 8) / 8   # f32-exact values
    flow = Field2(tex / np.array([20.0, 12.0]))
    p = tmp_path / "f.flo"
    write_flo(p, flow)
    back = read_flo(p)
    assert back.width == 20 and back.height == 12
    assert (flow_texels(back) == flow_texels(flow)).all()


def test_read_flo_errors(tmp_path):
    p = tmp_path / "bad.flo"
    p.write_bytes(b"XXXX")
    with pytest.raises(ValidationError, match="magic"):
        read_flo(p)
    p.write_bytes(b"PIEH" + b"\x01\x00\x00\x00")
    with pytest.raises(ValidationError, match="header"):
        read_flo(p)
    p.write_bytes(b"PIEH" + np.array([0, 5], dtype="<i4").tobytes())
    with pytest.raises(ValidationError, match="header"):
        read_flo(p)
    good = b"PIEH" + np.array([4, 3], dtype="<i4").tobytes()
    p.write_bytes(good + b"\x00" * (4 * 3 * 8 - 8))
    with pytest.raises(ValidationError, match="data"):
        read_flo(p)


def test_init_correspondence_zero_flow_noop():
    Q0 = identity_correspondence(16, 12)
    Q0.valid[3:5, 3:5] = False
    out = init_correspondence(Q0, Field2(np.zeros((12, 16, 2))))
    assert (out.data == Q0.data).all()
    assert (out.valid == Q0.valid).all()


def test_init_correspondence_constant_shift():
    Q0 = identity_correspondence(16, 16)
    d = np.array([2.0 / 16, -1.0 / 16])
    out = init_correspondence(Q0, Field2(np.full((16, 16, 2), d)))
    want = pixel_center_grid(16, 16) + d
    inner = out.data[2:-2, 2:-2]
    assert np.allclose(inner, want[2:-2, 2:-2], atol=1e-12)


def test_init_correspondence_resolution_error():
    Q0 = identity_correspondence(16, 16)
    with pytest.raises(ValidationError, match="resolution"):
        init_correspondence(Q0, Field2(np.zeros((8, 8, 2))))


def test_flow_derived_correspondence_accuracy():
    _, T_o, Q0, T_t, g, f1 = scene_pair()
    flow = block_flow(T_t, T_o)
    Qr = init_correspondence(Q0, flow)
    Qr.valid &= g.valid
    gt = f1.corr_gt
    both = Qr.valid & gt.valid
    er = np.linalg.norm((Qr.data - gt.data) * 96, axis=-1)[both]
    assert er.mean() < 1.0
    Qc = prune_mismatch(Qr, T_o, T_t, 0.05)
    bothc = Qc.valid & gt.valid
    ec = np.linalg.norm((Qc.data - gt.data) * 96, axis=-1)[bothc]
    assert (ec <= 1.0).mean() >= 0.95


def test_prune_mismatch_rules():
    tex = noise_texture(32, 32)
    T = Field2(tex)
    Q = identity_correspondence(32, 32)
    kept = prune_mismatch(Q, T, T, 0.05)
    assert (kept.valid == Q.valid).all()         # exact match: nothing pruned
    bad = tex.copy()
    bad[8:16, 8:16] += 0.5
    pruned = prune_mismatch(Q, T, Field2(np.clip(bad, 0, 1)), 0.05)
    assert not pruned.valid[10:14, 10:14].any()
    assert pruned.valid[0:4, 0:4].all()
    with pytest.raises(ValidationError, match="tau"):
        prune_mismatch(Q, T, T, -0.1)
    with pytest.raises(ValidationError, match="resolution"):
        prune_mismatch(Q, T, Field2(np.zeros((8, 8, 3))), 0.05)


def test_prune_monotone_in_tau():
    _, T_o, Q0, T_t, g, _ = scene_pair()
    flow = block_flow(T_t, T_o)
    Qr = init_correspondence(Q0, flow)
    Qr.valid &= g.valid
    small = prune_mismatch(Qr, T_o, T_t, 0.01)
    large = prune_mismatch(Qr, T_o, T_t, 0.10)
    assert not (small.valid & ~large.valid).any()
    zero = prune_mismatch(Qr, T_o, T_t, 0.0)
    assert zero.valid.sum() < 0.05 * Qr.valid.sum()


def test_patch_fill_noop_and_self_match():
    tex = noise_texture(48, 48)
    T = Field2(tex)
    Q0 = identity_correspondence(48, 48)
    out = patch_fill(Q0.copy(), T, T, Q0, 8, 21)
    assert (out.data == Q0.data).all()
    assert out.valid.all()
    holed = Q0.copy()
    holed.valid[20:28, 20:28] = False
    filled = patch_fill(holed, T, T, Q0, 8, 21)
    assert filled.valid.all()
    # identical textures: the best tile is the tile itself, fill == Q0
    assert np.allclose(filled.data, Q0.data, atol=1e-12)


def test_patch_fill_never_modifies_valid():
    _, T_o, Q0, T_t, g, _ = scene_pair()
    Qr = init_correspondence(Q0, block_flow(T_t, T_o))
    Qr.valid &= g.valid
    rng = np.random.default_rng(0)
    Qp = Qr.copy()
    Qp.valid &= rng.uniform(size=Qp.valid.shape) >= 0.2
    out = patch_fill(Qp, T_o, T_t, Q0, 8, 21, domain=g.valid)
    assert (out.data[Qp.valid] == Qp.data[Qp.valid]).all()
    assert (out.valid & Qp.valid).sum() == Qp.valid.sum()
    assert (out.valid | ~g.valid.reshape(out.valid.shape)).all()


def test_patch_fill_pruned_scene_accuracy():
    _, T_o, Q0, T_t, g, f1 = scene_pair()
    Qr = init_correspondence(Q0, block_flow(T_t, T_o))
    Qr.valid &= g.valid
    rng = np.random.default_rng(0)
    drop = rng.uniform(size=Qr.valid.shape) < 0.2
    Qp = Qr.copy()
    Qp.valid &= ~drop
    out = patch_fill(Qp, T_o, T_t, Q0, 8, 21, domain=g.valid)
    gt = f1.corr_gt
    filled = out.valid & drop & g.valid.reshape(out.valid.shape) & gt.valid
    e = np.linalg.norm((out.data - gt.data) * 96, axis=-1)[filled]
    assert (e <= 1.5).mean() >= 0.90


def test_patch_fill_config_errors():
    Q = identity_correspondence(16, 16)
    T = Field2(np.zeros((16, 16, 3)))
    with pytest.raises(ValidationError, match="patch"):
        patch_fill(Q, T, T, Q, patch=0, window=21)
    with pytest.raises(ValidationError, match="patch"):
        patch_fill(Q, T, T, Q, patch=8, window=0)
    # the stage's configuration rejects the same values before any work
    for bad in ({"patch": 0}, {"window": 0}, {"patch": -1, "window": 5}):
        with pytest.raises(ValidationError, match="patch"):
            RelocateConfig(**bad)
    with pytest.raises(ValidationError, match="tau"):
        RelocateConfig(tau=-0.1)


def test_to_image_uv_identity_and_shift():
    fs, T_o, Q0, _, _, f1 = scene_pair()
    P = f1.uv_gt
    ident = identity_correspondence(96, 96)
    back = to_image_uv(ident, P)
    sil = P.silhouette
    assert np.allclose(back.uv.data[sil], P.uv.data[sil], atol=1e-9)
    assert (back.uv.data[~sil] == 0.0).all()
    d = np.array([3.0 / 96, -2.0 / 96])
    shifted = Field2(ident.data + d, valid=ident.valid)
    out = to_image_uv(shifted, P)
    assert np.allclose(out.uv.data[sil], P.uv.data[sil] - d, atol=1e-9)


def test_frame_zero_products_and_self_relocation():
    fs, T_o, Q0, _, _, _ = scene_pair()
    f0 = fs.frames[0]
    assert (Q0.data == pixel_center_grid(96, 96)).all()
    g0 = texture_grid(f0.uv_gt, 96, 96)
    assert (Q0.valid == g0.valid.reshape(96, 96)).all()
    P_f, Qt, flow, T_t = relocate_frame(f0.uv_gt, f0.image, T_o, Q0)
    assert (T_t.data == T_o.data).all()
    assert np.abs(flow_texels(flow)[Q0.valid]).max() == 0.0
    assert np.allclose(Qt.data[Qt.valid & Q0.valid],
                       Q0.data[Qt.valid & Q0.valid], atol=1e-12)
    sil = f0.uv_gt.silhouette
    assert np.allclose(P_f.uv.data[sil], f0.uv_gt.uv.data[sil], atol=1e-9)


def loop_tile_cost(T_o, T_t, domain, tile, offset):
    """One tile's masked SSD against the reference moved by ``offset``."""
    ty, tx, y1, x1 = tile
    dy, dx = offset
    d = (T_t[ty:y1, tx:x1] - T_o[ty + dy:y1 + dy, tx + dx:x1 + dx]) \
        * domain[ty:y1, tx:x1][..., None]
    return float(np.sum(d * d))


def loop_patch_fill(Q, T_o, T_t, Q0, patch=8, window=21, domain=None, offsets=None):
    """Reference: one masked SSD per tile and in-bounds offset, nearest
    offset first, keeping the first strictly smaller cost.  ``offsets``,
    when given, maps each tile ``(ty, tx)`` to the offset it donates from
    instead."""
    h, w = Q.height, Q.width
    if domain is None:
        domain = T_t.valid if T_t.valid is not None else np.ones((h, w), dtype=bool)
    fill = domain & ~Q.valid
    reach = window // 2
    offs = [(dy, dx) for dy in range(-reach, reach + 1)
            for dx in range(-reach, reach + 1)]
    offs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    acc = np.zeros((h, w, 2))
    cnt = np.zeros((h, w))
    stride = max(patch // 2, 1)
    for ty in range(0, h, stride):
        for tx in range(0, w, stride):
            y1, x1 = min(ty + patch, h), min(tx + patch, w)
            tile_fill = fill[ty:y1, tx:x1]
            if not tile_fill.any():
                continue
            best, best_cost = (0, 0), np.inf
            for dy, dx in offs:
                by, bx = ty + dy, tx + dx
                if by < 0 or bx < 0 or by + (y1 - ty) > h or bx + (x1 - tx) > w:
                    continue
                cost = loop_tile_cost(T_o.data, T_t.data, domain, (ty, tx, y1, x1),
                                      (dy, dx))
                if cost < best_cost:
                    best_cost = cost
                    best = (dy, dx)
            dy, dx = best if offsets is None else offsets[ty, tx]
            donated = Q0.data[ty + dy:y1 + dy, tx + dx:x1 + dx]
            acc[ty:y1, tx:x1][tile_fill] += donated[tile_fill]
            cnt[ty:y1, tx:x1][tile_fill] += 1.0
    target = Q.data.copy()
    filled = fill & (cnt > 0)
    target[filled] = acc[filled] / cnt[filled][:, None]
    return target, Q.valid | filled


def fill_tiles(fill, patch):
    """The tiles ``(ty, tx, y1, x1)`` that hold a texel to fill, in raster
    order."""
    h, w = fill.shape
    stride = max(patch // 2, 1)
    return np.array([(ty, tx, min(ty + patch, h), min(tx + patch, w))
                     for ty in range(0, h, stride) for tx in range(0, w, stride)
                     if fill[ty:ty + patch, tx:tx + patch].any()],
                    dtype=np.int64).reshape(-1, 4)


def in_search(tile, offset, reach, h, w):
    ty, tx, y1, x1 = tile
    dy, dx = offset
    return (max(abs(dy), abs(dx)) <= reach and ty + dy >= 0 and tx + dx >= 0
            and y1 + dy <= h and x1 + dx <= w)


def check_search(T_o, T_t, domain, Q, patch, window):
    """Each tile's chosen offset costs what the loop's tile cost says, and
    no more than any offset the search scored on either level (the coarse
    one on downsampled textures and mask, over the coarse texels wholly
    inside the tile); among equal costs the nearest wins.  Returns the
    chosen offsets by tile."""
    h, w = Q.height, Q.width
    domain = np.ones((h, w), dtype=bool) if domain is None else domain
    tiles = fill_tiles(domain & ~Q.valid, patch)
    coarse, best, cost, scored = relocate._fill_offsets(
        T_o.data, T_t.data, domain[..., None], tiles, window)
    reach = window // 2
    rank = {o: i for i, o in enumerate(_candidates(reach))}
    if min(h, w) > 1:
        c_o, c_t = _downsample(T_o.data), _downsample(T_t.data)
        c_m = _downsample(domain[..., None].astype(float))[..., 0]
    n_scored = 0
    for tile, c, b, got in zip(tiles, coarse, best, cost):
        ty, tx, y1, x1 = tile
        c, b = tuple(int(v) for v in c), tuple(int(v) for v in b)
        assert in_search(tile, b, reach, h, w)
        assert got == loop_tile_cost(T_o.data, T_t.data, domain, tile, b)
        cy, cx = (ty + 1) // 2, (tx + 1) // 2
        ctile = (cy, cx, y1 // 2, x1 // 2)
        scored_c = [o for o in _candidates(reach // 2)
                    if in_search(tile, (2 * o[0], 2 * o[1]), reach, h, w)]
        if reach // 2 and ctile[2] > cy and ctile[3] > cx:
            costs = {o: loop_tile_cost(c_o, c_t, c_m, ctile, o) for o in scored_c}
            assert c == min(scored_c, key=lambda o: (costs[o], rank[2 * o[0], 2 * o[1]]))
            n_scored += len(scored_c)
        else:
            assert c == (0, 0)
        fine = [(2 * c[0] + ey, 2 * c[1] + ex) for ey, ex in _candidates(1)]
        fine = [o for o in fine if in_search(tile, o, reach, h, w)]
        assert b in fine
        for o in fine:
            other = loop_tile_cost(T_o.data, T_t.data, domain, tile, o)
            assert other > got or (other == got and rank[o] >= rank[b])
        n_scored += len(fine)
    assert scored == n_scored
    return {(int(t[0]), int(t[1])): tuple(int(v) for v in b) for t, b in zip(tiles, best)}


@pytest.mark.parametrize("shift", [(-2, 3), (5, -7), (-9, 9)])
def test_patch_fill_exact_shift_matches_offset_loop(shift):
    # T_t(p) = T_o(p + shift) exactly, cropped from one larger texture; holes
    # keep 18 texels from the border, so every tile that fills has its true
    # offset in bounds
    dy, dx = shift
    h, w = 64, 56
    big = noise_texture(h + 20, w + 20, seed=5)
    T_o = Field2(big[10:10 + h, 10:10 + w])
    T_t = Field2(big[10 + dy:10 + dy + h, 10 + dx:10 + dx + w])
    rng = np.random.default_rng(7)
    ident = identity_correspondence(w, h)
    Q0 = Field2(ident.data + rng.normal(0, 1e-3, size=(h, w, 2)), valid=ident.valid)
    Q = Q0.copy()
    Q.valid[18:h - 18, 18:w - 18] &= rng.uniform(size=(h - 36, w - 36)) >= 0.3
    out = patch_fill(Q, T_o, T_t, Q0, 8, 21)
    target, valid = loop_patch_fill(Q, T_o, T_t, Q0)
    assert (out.valid == valid).all() and (valid & ~Q.valid).sum() > 150
    assert out.data.tobytes() == target.tobytes()
    assert set(check_search(T_o, T_t, None, Q, 8, 21).values()) == {shift}


def test_patch_fill_matches_offset_loop():
    rng = np.random.default_rng(4)
    # 37x29: neither side is a multiple of the stride, so edge tiles are
    # partial, and windows around border tiles run off the texture.
    h, w = 37, 29
    noisy = noise_texture(h, w, seed=3)
    # Piecewise-constant texture: many offsets tie exactly, so the choice
    # among equal costs (the nearest offset first) decides the result.
    flat = np.zeros((h, w, 2))
    flat[:, w // 2:, 0] = 0.5
    flat[h // 3:, :, 1] = 0.25
    ident = identity_correspondence(w, h)
    Q0 = Field2(ident.data + rng.normal(0, 1e-3, size=(h, w, 2)), valid=ident.valid)
    cases = [
        (Field2(noisy), Field2(np.roll(noisy, (2, -3), axis=(0, 1))), None, 8, 21),
        (Field2(flat), Field2(flat), None, 8, 21),
        (Field2(flat), Field2(np.roll(flat, 1, axis=1)), rng.uniform(size=(h, w)) < 0.8, 5, 9),
        (Field2(noisy[..., :1]), Field2(noisy[..., 1:2]), None, 3, 6),
    ]
    # Two more, from their own generator: a masked noisy pair, and stripes
    # along the diagonal, where every offset with dy - dx = 2 matches
    # exactly; most tiles' coarse winner (0, -1) refines around (0, -2), yet
    # (1, -1) is nearer.
    more = np.random.default_rng(5)
    stripes = noise_texture(h + w + 2, 1, seed=8)[:, 0]
    diag = np.arange(h)[:, None] - np.arange(w) + w
    cases += [
        (Field2(noisy), Field2(np.roll(noisy, (3, 1), axis=(0, 1))),
         more.uniform(size=(h, w)) < 0.7, 8, 21),
        (Field2(stripes[diag]), Field2(stripes[diag + 2]), None, 8, 21),
    ]
    for T_o, T_t, domain, patch, window in cases:
        Q = Q0.copy()
        Q.valid &= rng.uniform(size=(h, w)) >= 0.3
        Q.valid[:, -3:] = False                    # holes along two borders
        Q.valid[-2:] = False
        rec = {}
        out = patch_fill(Q, T_o, T_t, Q0, patch=patch, window=window, domain=domain,
                         record=rec)
        _, valid = loop_patch_fill(Q, T_o, T_t, Q0, patch, window, domain)
        assert (out.valid == valid).all()
        chosen = check_search(T_o, T_t, domain, Q, patch, window)
        # donations from the chosen offsets add up as the loop's do
        target, _ = loop_patch_fill(Q, T_o, T_t, Q0, patch, window, domain, offsets=chosen)
        assert out.data.tobytes() == target.tobytes()
        assert rec["fill_tiles"] == len(chosen)


@pytest.mark.parametrize("size", [(37, 29), (29, 37), (1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("patch,window", [(8, 21), (8, 3), (8, 2), (1, 21), (1, 1),
                                          (3, 3), (2, 5), (5, 9), (7, 21)])
def test_patch_fill_edge_tiles_fill_like_loop(size, patch, window):
    # odd sizes leave partial last tiles, some with no coarse texel; windows
    # of at most 3 have no coarse level, and a patch of 1 is one texel
    h, w = size
    tex = noise_texture(h + 4, w + 4, seed=9)
    T_o, T_t = Field2(tex[:h, :w]), Field2(tex[1:h + 1, 2:w + 2])
    rng = np.random.default_rng(h * w + patch + window)
    Q0 = identity_correspondence(w, h)
    Q = Q0.copy()
    Q.valid &= rng.uniform(size=(h, w)) >= 0.5
    Q.valid[-1] = Q.valid[:, -1] = False
    out = patch_fill(Q, T_o, T_t, Q0, patch=patch, window=window)
    _, valid = loop_patch_fill(Q, T_o, T_t, Q0, patch, window)
    assert (out.valid == valid).all() and valid.all()
    check_search(T_o, T_t, None, Q, patch, window)


@pytest.mark.parametrize("size", [(37, 29), (29, 37), (3, 5)])
def test_patch_fill_huge_window_equals_texture_wide_window(size, monkeypatch):
    # no offset of max(h, w) or more keeps a tile in bounds, so a huge
    # window fills as the window of radius max(h, w) - 1 does, and the
    # search builds no candidates beyond radius max(h, w)
    h, w = size
    tex = noise_texture(h + 4, w + 4, seed=13)
    T_o, T_t = Field2(tex[:h, :w]), Field2(tex[2:h + 2, 1:w + 1])
    rng = np.random.default_rng(14)
    Q0 = identity_correspondence(w, h)
    Q = Q0.copy()
    Q.valid &= rng.uniform(size=(h, w)) >= 0.5

    def candidates(radius, _f=_candidates):
        assert radius <= max(h, w)
        return _f(radius)

    monkeypatch.setattr(relocate, "_candidates", candidates)
    runs = []
    for window in (2 * max(h, w) - 1, 10 ** 9):
        rec = {}
        out = patch_fill(Q, T_o, T_t, Q0, 8, window, record=rec)
        runs.append((out.data.tobytes(), out.valid.tobytes(), rec))
    assert runs[0] == runs[1]
    _, valid = loop_patch_fill(Q, T_o, T_t, Q0, window=2 * max(h, w) - 1)
    assert runs[0][1] == valid.tobytes()


def test_patch_fill_memory_does_not_grow_with_fill_tiles():
    h = w = 64
    tex = noise_texture(h + 4, w + 4, seed=12)
    T_o, T_t = Field2(tex[:h, :w]), Field2(tex[2:h + 2, 3:w + 3])
    Q0 = identity_correspondence(w, h)
    every, quarter = Q0.copy(), Q0.copy()
    every.valid[:] = False
    quarter.valid[:h // 2, :w // 2] = False
    counts = [{}, {}]
    many = traced_peak(lambda: patch_fill(every, T_o, T_t, Q0, 8, 21, record=counts[0]))
    few = traced_peak(lambda: patch_fill(quarter, T_o, T_t, Q0, 8, 21, record=counts[1]))
    assert counts[0]["fill_tiles"] == 256 and counts[1]["fill_tiles"] == 64
    assert many <= 1.5 * few

import numpy as np
import pytest

from uvweave import (Field2, LookupRenderer, LookupStats, SceneConfig, UVMap,
                     gen_sequence, render_lookup)
from uvweave.fields import SNAP_EPS, pixel_center_grid
from uvweave.formats import read_pfm, read_ppm, write_pfm, write_ppm
from uvweave.manifest import Manifest
from uvweave.render import MADDS_PER_CHANNEL, RENDER_BLOCK, TEXEL_READS_PER_PIXEL
from uvweave.stages import stage_retexture
from uvweave.warpmap import texture_positions


def brute_bilinear(data, x, y):
    h, w = data.shape[:2]
    gx = min(max(x * w - 0.5, 0.0), w - 1.0)
    gy = min(max(y * h - 0.5, 0.0), h - 1.0)
    x0, y0 = int(gx), int(gy)
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = gx - x0, gy - y0
    return ((1 - fy) * ((1 - fx) * data[y0, x0] + fx * data[y0, x1])
            + fy * ((1 - fx) * data[y1, x0] + fx * data[y1, x1]))


def test_render_matches_per_pixel_oracle():
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=64, tex_h=64,
                                  frames=1, seed=4))
    fr = fs.frames[0]
    out, stats = render_lookup(fs.texture, fr.uv_gt)
    c = pixel_center_grid(48, 48)
    u = c - fr.uv_gt.uv.data
    ys, xs = np.nonzero(fr.uv_gt.silhouette)
    for y, x in zip(ys[::17], xs[::17]):
        want = brute_bilinear(fs.texture.data, u[y, x, 0], u[y, x, 1])
        assert np.allclose(out.data[y, x], want, atol=1e-12)
    assert (out.data[~fr.uv_gt.silhouette] == 0.0).all()



def test_renderer_reused_across_multi_block_frames():
    # frames larger than one render block, with different silhouettes,
    # through one renderer
    fs = gen_sequence(SceneConfig(image_w=160, image_h=120, tex_w=64, tex_h=48,
                                  frames=3, seed=9, amplitude=0.03))
    render = LookupRenderer(fs.texture.data)
    c = pixel_center_grid(160, 120)
    for fr in fs.frames:
        P = fr.uv_gt
        assert P.silhouette.sum() > RENDER_BLOCK
        out, stats = render.frame(P)
        assert stats.fetches == int(P.silhouette.sum())
        u = c - P.uv.data
        ys, xs = np.nonzero(P.silhouette)
        for y, x in zip(ys[::53], xs[::53]):
            want = brute_bilinear(fs.texture.data, u[y, x, 0], u[y, x, 1])
            assert np.allclose(out.data[y, x], want, atol=1e-12)
        assert (out.data[~P.silhouette] == 0.0).all()

def test_float32_texture_renders_as_its_float64_widening():
    # a PFM look is rendered from its stored float32 samples; widening them
    # is exact, so every pixel must equal the float64 texture's bit for bit
    fs = gen_sequence(SceneConfig(image_w=160, image_h=120, tex_w=64, tex_h=48,
                                  frames=2, seed=9, amplitude=0.03))
    narrow = np.random.default_rng(5).uniform(-0.5, 1.5, size=(48, 64, 3)).astype(np.float32)
    wide = LookupRenderer(narrow.astype(np.float64))
    render = LookupRenderer(narrow)
    for fr in fs.frames:
        assert fr.uv_gt.silhouette.sum() > RENDER_BLOCK
        got, stats = render.frame(fr.uv_gt)
        want, _ = wide.frame(fr.uv_gt)
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()
        assert stats.fetches == int(fr.uv_gt.silhouette.sum())


def test_render_operation_budget():
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48,
                                  frames=1, seed=4))
    fr = fs.frames[0]
    out, stats = render_lookup(fs.texture, fr.uv_gt)
    n = int(fr.uv_gt.silhouette.sum())
    assert isinstance(stats, LookupStats)
    assert stats.foreground_pixels == n
    assert stats.fetches == n                       # exactly one fetch per pixel
    assert stats.texel_reads_per_pixel <= 4
    assert stats.madds_per_channel_per_pixel <= 11
    assert stats.texel_reads_per_pixel == TEXEL_READS_PER_PIXEL
    assert stats.madds_per_channel_per_pixel == MADDS_PER_CHANNEL
    assert (out.valid.astype(bool) == fr.uv_gt.silhouette).all()


def test_render_constant_texture():
    sil = np.zeros((16, 16), dtype=bool)
    sil[4:12, 4:12] = True
    P = UVMap(np.full((16, 16, 2), 0.01) * sil[..., None], sil)
    T = Field2(np.full((8, 8, 3), 0.7))
    out, stats = render_lookup(T, P)
    assert np.allclose(out.data[sil], 0.7, atol=1e-12)
    assert (out.data[~sil] == 0.0).all()
    assert stats.fetches == int(sil.sum())


# -- full-frame reference ----------------------------------------------------
#
# The renderer and PPM writer as they were before retexture rendered and
# quantized only the foreground: every frame as a full-frame float64 field
# from a channel-planar texture, then quantized whole.  Retexture must
# write the same bytes.

def reference_axis_split(g, n):
    i0 = np.floor(g)
    f = g - i0
    i0 = i0.astype(np.int64)
    hi = f > 1.0 - SNAP_EPS
    if np.any(hi):
        i0 = np.where(hi, i0 + 1, i0)
        f = np.where(hi, 0.0, f)
    f = np.where(f < SNAP_EPS, 0.0, f)
    return np.clip(i0, 0, n - 1), np.clip(i0 + 1, 0, n - 1), f


def reference_render(T, P):
    """(H, W, C) frame rendered from channel planes, block by block."""
    planes = np.ascontiguousarray(T.data.reshape(-1, T.channels).T)
    idx = np.flatnonzero(P.silhouette)
    out = np.zeros((P.height * P.width, T.channels))
    for start in range(0, idx.size, RENDER_BLOCK):
        block = idx[start:start + RENDER_BLOCK]
        u = texture_positions(P).reshape(-1, 2)[block]
        x0, x1, fx = reference_axis_split(u[:, 0] * T.width - 0.5, T.width)
        y0, y1, fy = reference_axis_split(u[:, 1] * T.height - 0.5, T.height)
        v00, v10, v01, v11 = (planes.take(y * T.width + x, axis=1)
                              for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
        top = v00 + (v10 - v00) * fx
        bot = v01 + (v11 - v01) * fx
        out[block] = (top + (bot - top) * fy).T
    return out.reshape(P.height, P.width, T.channels)


def reference_ppm_bytes(frame):
    quant = np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w, _ = frame.shape
    return f"P6\n{w} {h}\n255\n".encode() + quant.tobytes()


def parity_uv_maps(w, h):
    """UV maps of a w x h frame that exercise the renderer's cases, by name."""
    c = pixel_center_grid(w, h)
    x, y = c[..., 0], c[..., 1]
    ellipse = ((x - 0.5) / 0.45) ** 2 + ((y - 0.5) / 0.47) ** 2 <= 1.0
    wavy = np.stack([0.03 * np.sin(7 * y), 0.03 * np.cos(5 * x)], axis=2)
    # texture positions from -0.4 to 1.4 on both axes: clamps at all edges
    clamped = c - (1.8 * c - 0.4)
    # On a texture of the frame's size, offsets of 0 and +-2^-37 (exact in
    # float32) put every position on a texel centre or within SNAP_EPS of
    # one, on either side; 2^-29 is just outside.
    step = np.array([0.0, 2.0 ** -37, -(2.0 ** -37), 2.0 ** -29])
    ix, iy = np.meshgrid(np.arange(w), np.arange(h))
    centres = np.stack([step[ix % 4], step[iy % 4]], axis=2)
    stripes = np.zeros((h, w), dtype=bool)
    stripes[::3] = True
    full = np.ones((h, w), dtype=bool)
    return {"multi-block": (wavy, ellipse), "clamped": (clamped, full),
            "texel-centres": (centres, full), "striped": (wavy, stripes),
            "empty": (wavy, np.zeros((h, w), dtype=bool))}


@pytest.fixture(scope="module")
def parity_looks(tmp_path_factory):
    """A PFM look with values beyond [0, 1], so quantization clips, and a
    PPM look, both 64x48."""
    d = tmp_path_factory.mktemp("looks")
    rng = np.random.default_rng(3)
    write_pfm(d / "look.pfm", rng.uniform(-0.5, 1.5, size=(48, 64, 3)))
    write_ppm(d / "look.ppm", rng.uniform(size=(48, 64, 3)))
    return d


def parity_sequence(root, w, h):
    """A w x h sequence over a 64x48 texture, one frame per UV case."""
    cases = parity_uv_maps(w, h)
    m = Manifest.create(root, (w, h), (64, 48), len(cases))
    for i, (uv, sil) in enumerate(cases.values()):
        m.write_uv(i, "uv_final", UVMap(np.where(sil[..., None], uv, 0.0), sil))
    for stage in ("gen", "corrupt", "extend", "optimize", "relocate"):
        m.mark_stage(stage)
    m.save()
    return list(cases)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("look", ["look.pfm", "look.ppm"])
@pytest.mark.parametrize("size", [(160, 120), (64, 48)], ids=["160x120", "64x48"])
def test_retexture_matches_full_frame_reference(tmp_path, parity_looks, size, look, threads):
    root = tmp_path / "seq"
    names = parity_sequence(root, *size)
    tex = parity_looks / look
    T = Field2(read_pfm(tex) if tex.suffix == ".pfm" else read_ppm(tex))
    m = stage_retexture(root, tex, tag="retex", threads=threads)
    render = LookupRenderer(T.data)
    for i, name in enumerate(names):
        packed = read_pfm(m.frame_item(i, "uv_final"))
        P = UVMap(packed[..., :2], np.rint(packed[..., 2]) > 0)
        want = reference_render(T, P)
        assert m.frame_item(i, "retex").read_bytes() == reference_ppm_bytes(want), name
        # the full-frame field that synth and metrics use, bit for bit
        img, stats = render.frame(P)
        assert img.data.tobytes() == want.tobytes(), name
        assert stats.fetches == stats.foreground_pixels == int(P.silhouette.sum())


def test_parity_sequences_cover_their_cases(tmp_path):
    # the frames reach past one render block and every texture edge, and
    # land on texel centres and within SNAP_EPS of them on both sides
    big = parity_sequence(tmp_path / "big", 160, 120)
    m = Manifest.load(tmp_path / "big")
    P = m.read_uv(big.index("multi-block"), "uv_final")
    assert P.silhouette.sum() > RENDER_BLOCK
    u = texture_positions(m.read_uv(big.index("clamped"), "uv_final"))
    assert u.min() < 0.0 and u[..., 0].max() > 1.0 and u[..., 1].max() > 1.0
    small = parity_sequence(tmp_path / "small", 64, 48)
    P = Manifest.load(tmp_path / "small").read_uv(small.index("texel-centres"), "uv_final")
    g = texture_positions(P) * (64, 48) - 0.5
    frac = g - np.floor(g)
    assert (frac == 0.0).any()
    assert ((frac > 0.0) & (frac < SNAP_EPS)).any()
    assert (frac > 1.0 - SNAP_EPS).any()
    assert ((frac > 1.0 - 1e-6) & (frac <= 1.0 - SNAP_EPS)).any()

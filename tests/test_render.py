import numpy as np

from uvweave import (Field2, LookupRenderer, LookupStats, SceneConfig, UVMap,
                     gen_sequence, render_lookup)
from uvweave.fields import pixel_center_grid
from uvweave.render import MADDS_PER_CHANNEL, RENDER_BLOCK, TEXEL_READS_PER_PIXEL


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
    render = LookupRenderer(fs.texture)
    c = pixel_center_grid(160, 120)
    for fr in fs.frames:
        P = fr.uv_gt
        assert P.silhouette.sum() > RENDER_BLOCK
        out, stats = render(P)
        assert stats.fetches == int(P.silhouette.sum())
        u = c - P.uv.data
        ys, xs = np.nonzero(P.silhouette)
        for y, x in zip(ys[::53], xs[::53]):
            want = brute_bilinear(fs.texture.data, u[y, x, 0], u[y, x, 1])
            assert np.allclose(out.data[y, x], want, atol=1e-12)
        assert (out.data[~P.silhouette] == 0.0).all()

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

import numpy as np
import pytest

from uvweave import (Field2, UVMap, ValidationError, image_grid,
                     pixel_center_grid, texture_grid, texture_positions, warp)
from uvweave.warpmap import fill_from_nearest, splat_average, splat_record


def rand_uvmap(rng, h, w, lo=0.1, hi=0.8):
    sil = np.ones((h, w), dtype=bool)
    uv = pixel_center_grid(w, h) - rng.uniform(lo, hi, size=(h, w, 2))
    return UVMap(uv, sil)


def test_uvmap_validation():
    sil = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValidationError):
        UVMap(np.zeros((4, 4, 1)), sil)
    with pytest.raises(ValidationError, match="silhouette shape"):
        UVMap(np.zeros((4, 4, 2)), sil[:3])
    # uv zeroed outside silhouette
    sil2 = sil.copy()
    sil2[0, 0] = False
    q = UVMap(np.ones((4, 4, 2)), sil2)
    assert (q.uv.data[0, 0] == 0).all()


def test_image_grid_algebraic_identity():
    rng = np.random.default_rng(0)
    P = rand_uvmap(rng, 6, 5)
    g = image_grid(P)
    centers = pixel_center_grid(5, 6)
    assert np.allclose(g.data + P.uv.data, centers, atol=1e-15)


def test_identity_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    I = Field2(rng.uniform(size=(8, 8, 3)))
    P = UVMap(np.zeros((8, 8, 2)), np.ones((8, 8), dtype=bool))
    T = warp(I, texture_grid(P, 8, 8))
    assert (T.data == I.data).all()
    I2 = warp(T, image_grid(P))
    assert (I2.data == I.data).all()


def test_one_texel_translation():
    data = np.zeros((6, 6, 1))
    data[2, 3] = 1.0
    I = Field2(data)
    uv = np.zeros((6, 6, 2))
    uv[..., 0] = 1.0 / 6.0   # u = x - uv: content shifts right by one texel
    P = UVMap(uv, np.ones((6, 6), dtype=bool))
    out = warp(I, image_grid(P))
    assert out.data[2, 4, 0] == pytest.approx(1.0)
    assert out.data[2, 3, 0] == pytest.approx(0.0)


def test_warp_linearity():
    rng = np.random.default_rng(2)
    f = rng.uniform(size=(6, 6, 2))
    g = rng.uniform(size=(6, 6, 2))
    P = rand_uvmap(rng, 6, 6)
    grid = image_grid(P)
    lhs = warp(Field2(2.0 * f + 3.0 * g), grid).data
    rhs = 2.0 * warp(Field2(f), grid).data + 3.0 * warp(Field2(g), grid).data
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_texture_positions_are_centres_minus_uv():
    rng = np.random.default_rng(5)
    sil = rng.uniform(size=(9, 11)) < 0.7
    uv = np.where(sil[..., None], rng.normal(0, 0.6, size=(9, 11, 2)), 0.0)
    P = UVMap(uv, sil)
    assert np.array_equal(texture_positions(P), pixel_center_grid(11, 9) - P.uv.data)


def brute_splat(P, I, tw, th):
    """Reference forward splat: average I values per texel, bilinear weights."""
    h, w = I.data.shape[:2]
    acc = np.zeros((th, tw, I.data.shape[2] + 2))
    wsum = np.zeros((th, tw))
    u = pixel_center_grid(w, h) - P.uv.data
    for y in range(h):
        for x in range(w):
            if not P.silhouette[y, x]:
                continue
            gx = min(max(u[y, x, 0] * tw - 0.5, 0.0), tw - 1.0)
            gy = min(max(u[y, x, 1] * th - 0.5, 0.0), th - 1.0)
            x0, y0 = int(np.floor(gx)), int(np.floor(gy))
            x1, y1 = min(x0 + 1, tw - 1), min(y0 + 1, th - 1)
            fx, fy = gx - x0, gy - y0
            val = np.concatenate([I.data[y, x], [(x + 0.5) / w, (y + 0.5) / h]])
            for cx, cy, wgt in ((x0, y0, (1 - fx) * (1 - fy)), (x1, y0, fx * (1 - fy)),
                                (x0, y1, (1 - fx) * fy), (x1, y1, fx * fy)):
                acc[cy, cx] += wgt * val
                wsum[cy, cx] += wgt
    cov = wsum > 0
    out = np.zeros_like(acc)
    out[cov] = acc[cov] / wsum[cov][:, None]
    return out[..., -2:], cov


def test_texture_grid_matches_bruteforce_splat():
    rng = np.random.default_rng(3)
    P = rand_uvmap(rng, 7, 6)
    I = Field2(rng.uniform(size=(7, 6, 3)))
    tw, th = 6, 7
    g = texture_grid(P, tw, th)
    ref_tgt, ref_cov = brute_splat(P, I, tw, th)
    cov = g.valid
    assert (cov == ref_cov).all()
    assert np.allclose(g.data[cov], ref_tgt[cov], atol=1e-12)


def test_coverage_monotone_in_silhouette():
    rng = np.random.default_rng(4)
    P_small = rand_uvmap(rng, 8, 8)
    sil = P_small.silhouette.copy()
    sil[:, :3] = False
    P_sub = UVMap(P_small.uv.data.copy(), sil)
    g_sub = texture_grid(P_sub, 8, 8)
    g_all = texture_grid(P_small, 8, 8)
    # every texel the smaller silhouette covers, the full one covers too
    assert (g_all.valid | ~g_sub.valid).all()


def test_splat_average_and_empty_silhouette():
    with pytest.raises(ValidationError, match="empty silhouette"):
        splat_record(UVMap(np.zeros((4, 4, 2)), np.zeros((4, 4), dtype=bool)), 4, 4)
    rng = np.random.default_rng(5)
    P = rand_uvmap(rng, 5, 5)
    rec = splat_record(P, 5, 5)
    vals = rng.uniform(size=(rec.pix_y.size, 3))
    avg, cov = splat_average(rec, vals)
    assert avg.shape == (25, 3)
    assert cov.sum() > 0


def test_fill_from_nearest():
    vals = np.zeros((4, 4, 2))
    cov = np.zeros((4, 4), dtype=bool)
    vals[1, 1] = (5.0, 7.0)
    cov[1, 1] = True
    filled = fill_from_nearest(vals, cov)
    assert (filled == [5.0, 7.0]).all()
    # two donors: each empty cell copies its nearest, ties deterministic
    vals2 = np.zeros((1, 5, 1))
    cov2 = np.zeros((1, 5), dtype=bool)
    vals2[0, 0, 0], vals2[0, 4, 0] = 1.0, 9.0
    cov2[0, 0] = cov2[0, 4] = True
    f1 = fill_from_nearest(vals2, cov2)
    f2 = fill_from_nearest(vals2, cov2)
    assert (f1 == f2).all()
    assert f1[0, 1, 0] == 1.0 and f1[0, 3, 0] == 9.0


def test_warp_validity_propagation():
    rng = np.random.default_rng(6)
    valid = np.ones((6, 6), dtype=bool)
    valid[:, :3] = False
    src = Field2(rng.uniform(size=(6, 6, 1)), valid=valid)
    P = UVMap(np.zeros((6, 6, 2)), np.ones((6, 6), dtype=bool))
    out = warp(src, image_grid(P))
    assert not out.valid[:, :3].any()
    assert out.valid[:, 4:].all()


def test_splat_scatters_match_add_at_reference():
    # 64 pixels land on a 3x3 texture, so every texel collects many
    # deposits; the sums must keep the scatter-add's order bit for bit.
    rng = np.random.default_rng(12)
    P = rand_uvmap(rng, 8, 8, lo=-0.3, hi=0.3)
    for tw, th in ((3, 3), (2, 5), (16, 16)):
        rec = splat_record(P, tw, th)
        wsum = np.zeros(tw * th)
        np.add.at(wsum, rec.corners.ravel(), rec.weights.ravel())
        assert wsum.tobytes() == rec.wsum.tobytes()
        for ch in (1, 2, 4):
            vals = rng.normal(size=(rec.pix_y.size, ch))
            acc = np.zeros((tw * th, ch))
            np.add.at(acc, rec.corners, rec.weights[:, :, None] * vals[:, None, :])
            ref = np.zeros_like(acc)
            cov = rec.covered
            ref[cov] = acc[cov] / rec.wsum[cov, None]
            avg, cov_out = splat_average(rec, vals)
            assert (cov_out == cov).all()
            assert avg.tobytes() == ref.tobytes()

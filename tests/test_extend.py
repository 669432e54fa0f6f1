import warnings

import numpy as np
import pytest

from uvweave import (CorruptConfig, SceneConfig, SpringConfig, SpringSystem, UVMap,
                     ValidationError, corrupt, extrapolate_uv, gen_sequence, label_fill,
                     relax_springs)
from uvweave.extend import _known_neighbors
from uvweave.fields import pixel_center_grid


def test_label_fill_identity_when_mask_equals_sil():
    sil = np.zeros((6, 6), dtype=bool)
    sil[2:4, 2:4] = True
    P = UVMap(np.full((6, 6, 2), 0.1) * sil[..., None], sil)
    out = label_fill(P, sil)
    assert (out.uv.data == P.uv.data).all()
    assert (out.silhouette == sil).all()


def test_label_fill_mask_must_contain_sil():
    sil = np.ones((4, 4), dtype=bool)
    P = UVMap(np.zeros((4, 4, 2)), sil)
    with pytest.raises(ValidationError, match="must contain the raw silhouette"):
        label_fill(P, np.zeros((4, 4), dtype=bool))


def test_label_fill_idempotent():
    sil = np.zeros((6, 6), dtype=bool)
    sil[1:3, 1:3] = True
    P = UVMap(np.full((6, 6, 2), 0.1) * sil[..., None], sil)
    full = np.ones((6, 6), dtype=bool)
    once = label_fill(P, full)
    assert once.silhouette.all()
    assert (once.uv.data[~sil] == 0.0).all()      # new pixels carry zero UVs
    assert (once.uv.data[sil] == 0.1).all()
    twice = label_fill(once, full)
    assert (once.silhouette == twice.silhouette).all()
    assert (once.uv.data == twice.uv.data).all()


def ramp_uvmap(h, w, sil):
    c = pixel_center_grid(w, h)
    uv = np.zeros((h, w, 2))
    uv[..., 0] = 0.5 * c[..., 0]        # texture u = x - uv0 = 0.5*x
    uv[..., 1] = 0.125                  # texture v = y - 0.125: image-scale rows
    return UVMap(np.where(sil[..., None], uv, 0.0), sil)


def test_extrapolate_strip_ramp_exact():
    # u-channel ramp 0.5*x on a three-row strip, one row added on each side:
    # the new rows continue the ramp exactly (linear fit of linear data)
    h, w = 8, 10
    known = np.zeros((h, w), dtype=bool)
    known[3:6, :] = True
    full = known.copy()
    full[2, :] = full[6, :] = True
    P = ramp_uvmap(h, w, full)
    ext, new_pts = extrapolate_uv(UVMap(np.where(known[..., None], P.uv.data, 0.0), full),
                                  known=known)
    assert len(new_pts) == 2 * w
    c = pixel_center_grid(w, h)
    u = c - ext.uv.data
    assert np.allclose(u[full][:, 0], 0.5 * c[full][:, 0], atol=1e-12)
    assert np.allclose(u[full][:, 1], c[full][:, 1] - 0.125, atol=1e-12)


def test_extrapolate_2d_window_exact():
    # a pixel whose known neighbors span both axes reproduces a map that is
    # affine in both directions exactly
    h = w = 6
    full = np.zeros((h, w), dtype=bool)
    full[1:5, 1:5] = True
    known = full.copy()
    known[1, 1] = False
    c = pixel_center_grid(w, h)
    uv = c - (0.5 * c[..., :1] + 0.25 * c[..., 1:])
    P = UVMap(np.where(known[..., None], uv, 0.0), full)
    ext, new_pts = extrapolate_uv(P, known=known)
    assert new_pts.tolist() == [[1, 1]]
    assert np.allclose(ext.uv.data[1, 1], uv[1, 1], atol=1e-12)


def test_extrapolate_fully_known_noop():
    sil = np.ones((6, 6), dtype=bool)
    P = ramp_uvmap(6, 6, sil)
    ext, new_pts = extrapolate_uv(P, known=sil)
    assert len(new_pts) == 0
    assert (ext.uv.data == P.uv.data).all()


def test_extrapolate_missing_part_error():
    sil = np.ones((6, 6), dtype=bool)
    P = UVMap(np.full((6, 6, 2), 0.1), sil)
    known = np.zeros((6, 6), dtype=bool)  # nothing to extrapolate from
    with pytest.raises(ValidationError, match="no known UVs on the silhouette"):
        extrapolate_uv(P, known=known)


def test_known_neighbors_matches_shift_reference():
    # reference: sum of the known mask shifted by each 3x3 offset, with
    # nothing shifted in from outside the image
    rng = np.random.default_rng(7)
    for h, w in ((1, 1), (1, 5), (4, 1), (6, 7), (9, 4)):
        known = rng.uniform(size=(h, w)) < 0.5
        ref = np.zeros((h, w), dtype=np.int64)
        for oy in (-1, 0, 1):
            for ox in (-1, 0, 1):
                if (oy, ox) == (0, 0):
                    continue
                pad = np.zeros((h + 2, w + 2), dtype=np.int64)
                pad[1:-1, 1:-1] = known
                ref += pad[1 + oy:1 + oy + h, 1 + ox:1 + ox + w]
        assert np.array_equal(_known_neighbors(known), ref)


def test_extrapolate_new_points_sorted():
    h, w = 8, 8
    known = np.zeros((h, w), dtype=bool)
    known[3:5, 3:5] = True
    full = np.zeros((h, w), dtype=bool)
    full[2:6, 2:6] = True
    P = ramp_uvmap(h, w, known)
    _, new_pts = extrapolate_uv(UVMap(P.uv.data, full), known=known)
    order = np.lexsort((new_pts[:, 1], new_pts[:, 0]))
    assert (new_pts == new_pts[order]).all()


def cropped_scene(margin=4, **extra):
    cfg = SceneConfig(image_w=96, image_h=96, tex_w=96, tex_h=96, frames=2,
                      seed=5, amplitude=0.02, frequency=1.5)
    fs = gen_sequence(cfg)
    fs_c = corrupt(fs, CorruptConfig(margin=margin, seed=1, **extra))
    return fs, fs_c


def test_extrapolate_cropped_scene_accuracy():
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    P_star = fs.frames[1].uv_gt
    ys, xs = new_pts[:, 0], new_pts[:, 1]
    err = np.linalg.norm((ext.uv.data[ys, xs] - P_star.uv.data[ys, xs]) * 96, axis=-1)
    assert (err <= 2.0).mean() >= 0.9


def test_spring_two_anchor_symmetry():
    sys = SpringSystem(points=np.array([[5.0, 5.0]]),
                       anchors=np.array([[3.0, 5.0], [7.0, 5.0]]),
                       spring_point=np.array([0, 0]),
                       rest=np.array([2.0, 2.0]))
    f_push = sys.net_forces("push")
    f_pull = sys.net_forces("pull")
    assert np.allclose(f_push, 0.0) and np.allclose(f_pull, 0.0)
    sys.relax_phase("push", 0.1, 1e-3, 500)
    assert np.allclose(sys.points, [[5.0, 5.0]])


def test_spring_compressed_push_to_rest():
    sys = SpringSystem(points=np.array([[5.0, 4.5]]),
                       anchors=np.array([[5.0, 4.0]]),
                       spring_point=np.array([0]),
                       rest=np.array([2.0]))
    sys.relax_phase("push", 0.1, 1e-3, 2000)
    sep = np.linalg.norm(sys.points[0] - [5.0, 4.0])
    assert sep == pytest.approx(2.0, abs=2e-3)


def test_springs_never_move_originals():
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, _ = relax_springs(ext, new_pts, SpringConfig(tex_w=96, tex_h=96))
    orig = fr.uv_raw.silhouette
    assert (relaxed.uv.data[orig] == ext.uv.data[orig]).all()


def test_springs_distortion_decreases_and_converges():
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, res = relax_springs(ext, new_pts, SpringConfig(tex_w=96, tex_h=96))
    assert res.converged
    assert res.max_force < 1e-3
    assert res.distortion_after < res.distortion_before
    assert (relaxed.silhouette == fr.mask).all()


def test_springs_help_under_noise():
    fs, fs_c = cropped_scene(uv_noise=0.01)
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, res = relax_springs(ext, new_pts, SpringConfig(tex_w=96, tex_h=96))
    P_star = fs.frames[1].uv_gt
    ys, xs = new_pts[:, 0], new_pts[:, 1]
    e_ext = np.linalg.norm((ext.uv.data[ys, xs] - P_star.uv.data[ys, xs]) * 96, axis=-1)
    e_rel = np.linalg.norm((relaxed.uv.data[ys, xs] - P_star.uv.data[ys, xs]) * 96, axis=-1)
    # relaxation regularizes the tail: more points land near ground truth
    assert (e_rel <= 2.0).mean() > (e_ext <= 2.0).mean()
    assert np.percentile(e_rel, 90) < np.percentile(e_ext, 90)


def test_springs_record_nonconvergence():
    # a budget too small for the pull phase is reported in the result, not
    # as a warning
    fs, fs_c = cropped_scene(uv_noise=0.01)
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = relax_springs(ext, new_pts, SpringConfig(max_iters=50, tex_w=96, tex_h=96))
    assert res.converged is False
    assert res.max_force >= 1e-3
    assert res.pull_iters == 50


def test_springs_empty_new_points_noop():
    sil = np.ones((8, 8), dtype=bool)
    P = ramp_uvmap(8, 8, sil)
    out, res = relax_springs(P, np.zeros((0, 2), dtype=np.int64), SpringConfig(tex_w=8, tex_h=8))
    assert (out.uv.data == P.uv.data).all()
    assert len(res.moved) == 0


def test_springs_skip_anchorless_points():
    # two far-apart islands in texture space: the lone movable point has no
    # anchor within the region box and must stay where extrapolation put it
    sil = np.ones((2, 2), dtype=bool)
    c = pixel_center_grid(2, 2)
    uv = np.zeros((2, 2, 2))
    uv[0, 0] = c[0, 0] - 0.05            # texture position ~ (6, 6) texels
    uv[1, 1] = c[1, 1] - 0.9             # far island
    P = UVMap(uv, sil)
    new_pts = np.array([[1, 1]])
    out, res = relax_springs(P, new_pts, SpringConfig(region=10, tex_w=128, tex_h=128))
    assert (out.uv.data[1, 1] == P.uv.data[1, 1]).all()
    assert len(res.skipped) == 1


def test_net_forces_match_add_at_reference():
    # 3 points share 400 springs, so each point's sum has over a hundred
    # terms; the sums must keep the scatter-add's order bit for bit.
    rng = np.random.default_rng(21)
    s = 400
    sys = SpringSystem(points=rng.uniform(0, 10, size=(3, 2)),
                       anchors=rng.uniform(0, 10, size=(s, 2)),
                       spring_point=rng.integers(0, 3, size=s),
                       rest=rng.uniform(0.5, 6.0, size=s))
    for mode in ("push", "pull"):
        d = sys.points[sys.spring_point] - sys.anchors
        length = np.sqrt(np.sum(d * d, axis=1))
        mag = sys.rest - length
        mag = np.maximum(mag, 0.0) if mode == "push" else np.minimum(mag, 0.0)
        ref = np.zeros_like(sys.points)
        np.add.at(ref, sys.spring_point, (mag / np.maximum(length, 1e-12))[:, None] * d)
        out = sys.net_forces(mode)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
    empty = SpringSystem(points=np.zeros((2, 2)), anchors=np.zeros((0, 2)),
                         spring_point=np.zeros(0, dtype=np.int64), rest=np.zeros(0))
    assert (empty.net_forces("pull") == 0.0).all() and empty.net_forces("pull").shape == (2, 2)

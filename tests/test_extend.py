import warnings

import numpy as np
import pytest
import scipy.ndimage as ndi

from uvweave import (CorruptConfig, SceneConfig, SpringSystem, UVMap,
                     ValidationError, corrupt, extrapolate_uv, gen_sequence, label_fill,
                     relax_springs)
from uvweave import extend
from uvweave.extend import (_BUILD_CHUNK, FORCE_TOL, MAX_ITERS, _known_neighbors, _known_scale,
                            build_springs)
from uvweave.fields import pixel_center_grid, scatter_add
from uvweave.warpmap import texture_positions


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


_OFFSETS = [(oy, ox) for oy in (-1, 0, 1) for ox in (-1, 0, 1) if (oy, ox) != (0, 0)]


def _fit_window(dx, dy, vals, ranks):
    mx, my = dx.mean(), dy.mean()
    mv = vals.mean(axis=0)
    A = np.stack([dx - mx, dy - my], axis=1)
    slopes, _, rank, _ = np.linalg.lstsq(A, vals - mv, rcond=None)
    ranks.append(int(rank))
    return mv - mx * slopes[0] - my * slopes[1]


def loop_extrapolate_uv(P_labeled, known, ranks=None):
    """Reference: the per-pixel extrapolation, one ``lstsq`` call per pixel.

    Appends each fit's rank to ``ranks`` when given."""
    ranks = [] if ranks is None else ranks
    sil = P_labeled.silhouette
    uv = P_labeled.uv.data.copy()
    h, w = sil.shape
    cur = np.asarray(known, dtype=bool).copy()
    new_rows, new_cols = [], []
    while True:
        fillable = sil & ~cur & (_known_neighbors(cur) >= 2)
        if not fillable.any():
            break
        ys, xs = np.nonzero(fillable)
        fits = np.empty((len(ys), 2))
        for i, (y, x) in enumerate(zip(ys, xs)):
            ddx, ddy, vals = [], [], []
            for oy, ox in _OFFSETS:
                ny, nx = y + oy, x + ox
                if 0 <= ny < h and 0 <= nx < w and cur[ny, nx]:
                    ddx.append(ox)
                    ddy.append(oy)
                    vals.append(uv[ny, nx])
            fits[i] = _fit_window(np.array(ddx, float), np.array(ddy, float),
                                  np.array(vals), ranks)
        uv[ys, xs] = fits
        cur[ys, xs] = True
        new_rows.append(ys)
        new_cols.append(xs)

    rest = sil & ~cur
    if rest.any():
        inds = ndi.distance_transform_edt(~cur, return_distances=False,
                                          return_indices=True)
        uv[rest] = uv[inds[0][rest], inds[1][rest]]
        ys, xs = np.nonzero(rest)
        new_rows.append(ys)
        new_cols.append(xs)

    if new_rows:
        new_points = np.stack([np.concatenate(new_rows), np.concatenate(new_cols)], axis=1)
        order = np.lexsort((new_points[:, 1], new_points[:, 0]))
        new_points = new_points[order]
    else:
        new_points = np.zeros((0, 2), dtype=np.int64)
    return UVMap(uv, sil), new_points


def assert_extrapolation_matches_loop(P_labeled, known):
    """Equal new points and UVs within 1e-12 of the ``lstsq`` loop; returns
    the ranks of the reference's fits."""
    ext, new_pts = extrapolate_uv(P_labeled, known=known)
    ranks = []
    ref, ref_pts = loop_extrapolate_uv(P_labeled, known, ranks)
    assert new_pts.dtype == ref_pts.dtype and np.array_equal(new_pts, ref_pts)
    assert np.abs(ext.uv.data - ref.uv.data).max() <= 1e-12
    assert np.array_equal(ext.silhouette, ref.silhouette)
    return ranks


def recover_frames(seed):
    """The frames of one scene of the benchmark's ``recover`` workload."""
    fs = gen_sequence(SceneConfig(image_w=64, image_h=64, tex_w=64, tex_h=64, frames=8,
                                  seed=seed, amplitude=0.02, frequency=1.5))
    return corrupt(fs, CorruptConfig(margin=4, dup_blocks=8, dup_size=8,
                                     uv_noise=0.01, seed=seed)).frames


def test_extrapolate_matches_lstsq_loop_on_recover_frames():
    ranks = []
    for seed in (2, 3):
        for fr in recover_frames(seed):
            ranks += assert_extrapolation_matches_loop(label_fill(fr.uv_raw, fr.mask),
                                                       fr.uv_raw.silhouette)
    # fits whose known neighbors lie on one line are common, not an edge case
    counts = np.bincount(ranks, minlength=3)
    assert counts[0] == 0 and counts[1] > 0 and counts[2] > 0


def test_extrapolate_matches_lstsq_loop_on_cropped_scene():
    for extra in ({}, {"uv_noise": 0.01}):
        fs, fs_c = cropped_scene(**extra)
        for fr in fs_c.frames:
            assert_extrapolation_matches_loop(label_fill(fr.uv_raw, fr.mask),
                                              fr.uv_raw.silhouette)


@pytest.mark.parametrize("window", [
    [(0, 0), (0, 1)],                      # 2 neighbors in a row
    [(0, 0), (1, 0), (2, 0)],              # 3 in a column
    [(0, 1), (0, 0), (1, 0)],              # an L of 3
    [(0, 0), (2, 2)],                      # a diagonal pair
    [(0, 1), (1, 0)],                      # a pair on a short diagonal
    [(1, 2), (2, 1), (2, 2)],              # the L a corner pixel sees
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)],   # all 8
])
def test_extrapolate_matches_lstsq_loop_on_windows(window):
    # the centre pixel (1, 1) of a 3x3 image, on random UVs, so no fit is
    # exact; then the same window in the top-left corner of the image
    rng = np.random.default_rng(len(window))
    for h, w, oy, ox in ((3, 3, 0, 0), (5, 6, -1, -1)):
        known = np.zeros((h, w), dtype=bool)
        for y, x in window:
            if 0 <= y + oy < h and 0 <= x + ox < w:
                known[y + oy, x + ox] = True
        if known.sum() < 2:
            continue
        sil = np.zeros((h, w), dtype=bool)
        sil[1 + oy, 1 + ox] = True
        sil |= known
        P = UVMap(rng.uniform(-0.2, 0.2, size=(h, w, 2)) * known[..., None], sil)
        ranks = assert_extrapolation_matches_loop(P, known)
        assert len(ranks) == 1


def test_extrapolate_matches_lstsq_loop_in_a_corner():
    # a corner pixel sees 3 neighbors, 2 of them known; the whole image
    # fills in from a diagonal of known pixels, then an island falls back
    rng = np.random.default_rng(3)
    h, w = 7, 9
    known = np.zeros((h, w), dtype=bool)
    known[0, 1] = known[1, 0] = True
    known[np.arange(2, 7), np.arange(3, 8)] = True
    sil = np.ones((h, w), dtype=bool)
    P = UVMap(rng.uniform(-0.2, 0.2, size=(h, w, 2)) * known[..., None], sil)
    ranks = assert_extrapolation_matches_loop(P, known)
    assert 1 in ranks and 2 in ranks
    island = known.copy()
    island[4:, :2] = True
    sil2 = island.copy()
    sil2[0, 0] = True
    sil2[:3, 5:] = True          # two pixels away from any known pixel
    sil2[0, 8] = sil2[1, 8] = True
    P2 = UVMap(rng.uniform(-0.2, 0.2, size=(h, w, 2)) * island[..., None], sil2)
    assert_extrapolation_matches_loop(P2, island)


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
                       anchors=np.array([[[3.0, 5.0]], [[7.0, 5.0]]]),
                       rest=np.array([[2.0], [2.0]]))
    f_push = sys.forces("push")[0]
    f_pull = sys.forces("pull")[0]
    assert np.allclose(f_push, 0.0) and np.allclose(f_pull, 0.0)
    sys.relax_phase("push", 1e-3, 500)
    assert np.allclose(sys.points, [[5.0, 5.0]])


def test_spring_compressed_push_to_rest():
    sys = SpringSystem(points=np.array([[5.0, 4.5]]),
                       anchors=np.array([[[5.0, 4.0]]]),
                       rest=np.array([[2.0]]))
    sys.relax_phase("push", 1e-3, 2000)
    sep = np.linalg.norm(sys.points[0] - [5.0, 4.0])
    assert sep == pytest.approx(2.0, abs=2e-3)


def test_springs_never_move_originals():
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, _ = relax_springs(ext, new_pts, 96, 96)
    orig = fr.uv_raw.silhouette
    assert (relaxed.uv.data[orig] == ext.uv.data[orig]).all()


def test_springs_distortion_decreases_and_converges():
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, res = relax_springs(ext, new_pts, 96, 96)
    assert res.converged
    assert res.max_force < 1e-3
    assert res.distortion_after < res.distortion_before
    assert (relaxed.silhouette == fr.mask).all()


def test_springs_help_under_noise():
    fs, fs_c = cropped_scene(uv_noise=0.01)
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    relaxed, res = relax_springs(ext, new_pts, 96, 96)
    P_star = fs.frames[1].uv_gt
    ys, xs = new_pts[:, 0], new_pts[:, 1]
    e_ext = np.linalg.norm((ext.uv.data[ys, xs] - P_star.uv.data[ys, xs]) * 96, axis=-1)
    e_rel = np.linalg.norm((relaxed.uv.data[ys, xs] - P_star.uv.data[ys, xs]) * 96, axis=-1)
    # relaxation regularizes the tail: more points land near ground truth
    assert (e_rel <= 2.0).mean() > (e_ext <= 2.0).mean()
    assert np.percentile(e_rel, 90) < np.percentile(e_ext, 90)


def test_springs_record_nonconvergence(monkeypatch):
    # a budget too small for the pull phase is reported in the result, not
    # as a warning
    monkeypatch.setattr(extend, "MAX_ITERS", 50)
    fs, fs_c = cropped_scene(uv_noise=0.01)
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = relax_springs(ext, new_pts, 96, 96)
    assert res.converged is False
    assert res.max_force >= 1e-3
    assert res.pull_iters == 50


def test_springs_empty_new_points_noop():
    sil = np.ones((8, 8), dtype=bool)
    P = ramp_uvmap(8, 8, sil)
    out, res = relax_springs(P, np.zeros((0, 2), dtype=np.int64), 8, 8)
    assert (out.uv.data == P.uv.data).all()
    assert len(res.moved) == 0


def test_springs_skip_anchorless_points(monkeypatch):
    # two far-apart islands in texture space: the lone movable point has no
    # anchor within the region box and must stay where extrapolation put it
    monkeypatch.setattr(extend, "REGION", 10)
    sil = np.ones((2, 2), dtype=bool)
    c = pixel_center_grid(2, 2)
    uv = np.zeros((2, 2, 2))
    uv[0, 0] = c[0, 0] - 0.05            # texture position ~ (6, 6) texels
    uv[1, 1] = c[1, 1] - 0.9             # far island
    P = UVMap(uv, sil)
    new_pts = np.array([[1, 1]])
    out, res = relax_springs(P, new_pts, 128, 128)
    assert (out.uv.data[1, 1] == P.uv.data[1, 1]).all()
    assert len(res.skipped) == 1


class FlatSprings:
    """Reference: one row per spring, with the index of its point.  Forces
    are scatter-added per point, in spring order."""

    def __init__(self, points, anchors, spring_point, rest):
        self.points, self.anchors = points, anchors
        self.spring_point, self.rest = spring_point, rest

    def forces(self, mode):
        d = self.points[self.spring_point] - self.anchors
        length = np.sqrt(np.sum(d * d, axis=1))
        mag = self.rest - length
        if mode == "push":
            active = mag > 0.0
            mag = np.maximum(mag, 0.0)
        else:
            active = mag < 0.0
            mag = np.minimum(mag, 0.0)
        f = (mag / np.maximum(length, 1e-12))[:, None] * d
        n = len(self.points)
        return scatter_add(self.spring_point, f, n), \
            np.bincount(self.spring_point[active], minlength=n)

    def distortion(self):
        d = self.points[self.spring_point] - self.anchors
        length = np.sqrt(np.sum(d * d, axis=1))
        return float(np.mean(np.abs(length - self.rest) / np.maximum(self.rest, 1e-12)))


def flat_springs(sys):
    """The table's springs as a flat list, point by point, nearest first."""
    point, rank = np.nonzero(sys.rest.T > 0.0)
    return FlatSprings(sys.points.copy(), sys.anchors[rank, point], point,
                       sys.rest[rank, point])


def global_phase(forces, points, mode, force_tol, max_iters):
    """Reference: move every point until the max force over all points is
    below ``force_tol``; returns (iterations, max net force, converged)."""
    it = 0
    while True:
        f, n = forces(mode)
        fmax = float(np.abs(f).max()) if len(f) else 0.0
        if fmax < force_tol or it == max_iters:
            return it, fmax, fmax < force_tol
        points += f / np.maximum(n, 1)[:, None]
        it += 1


def ragged_table(rng, counts, k):
    """Random springs, ``counts[i]`` of them on point i; the padding holds
    random anchors, which must not count."""
    m = len(counts)
    real = np.arange(k)[:, None] < counts
    return SpringSystem(points=rng.uniform(0, 10, size=(m, 2)),
                        anchors=rng.uniform(0, 10, size=(k, m, 2)),
                        rest=np.where(real, rng.uniform(0.5, 6.0, size=(k, m)), 0.0))


def test_net_forces_match_add_at_reference():
    # 3 points share 400 springs, so each point's sum has over a hundred
    # terms; then ragged tables with spring-free points.  The sums must
    # keep the scatter-add's order bit for bit.
    rng = np.random.default_rng(21)
    tables = [ragged_table(rng, rng.multinomial(400, [0.3, 0.3, 0.4]), 170)]
    for _ in range(20):
        k = int(rng.integers(1, 16))
        counts = rng.integers(0, k + 1, size=int(rng.integers(1, 40)))
        tables.append(ragged_table(rng, counts, k))
    assert (tables[0].rest > 0).sum() == 400
    for sys in tables:
        flat = flat_springs(sys)
        for mode in ("push", "pull"):
            d = flat.points[flat.spring_point] - flat.anchors
            length = np.sqrt(np.sum(d * d, axis=1))
            mag = flat.rest - length
            mag = np.maximum(mag, 0.0) if mode == "push" else np.minimum(mag, 0.0)
            ref = np.zeros_like(flat.points)
            np.add.at(ref, flat.spring_point,
                      (mag / np.maximum(length, 1e-12))[:, None] * d)
            out, n = sys.forces(mode)
            ref_f, ref_n = flat.forces(mode)
            assert out.shape == ref.shape
            assert out.tobytes() == ref.tobytes() == ref_f.tobytes()
            assert n.dtype == ref_n.dtype and np.array_equal(n, ref_n)
            # a subset of the columns gives those columns' sums
            live = np.flatnonzero(rng.uniform(size=len(n)) < 0.5)
            f_live, n_live = sys.forces(mode, live)
            assert f_live.tobytes() == out[live].tobytes()
            assert np.array_equal(n_live, n[live])
        assert sys.distortion() == flat.distortion()
    empty = SpringSystem(points=np.zeros((2, 2)), anchors=np.zeros((0, 2, 2)),
                         rest=np.zeros((0, 2)))
    f, n = empty.forces("pull")
    assert (f == 0.0).all() and f.shape == (2, 2) and (n == 0).all()


def recover_systems():
    """The spring tables of both ``recover`` scenes' frames."""
    for seed in (2, 3):
        for fr in recover_frames(seed):
            yield build_springs(*scene_build_inputs(fr, tex=64), 40, 12)[0]


def test_table_relaxes_like_flat_springs_on_recover_frames():
    # under the global loop, positions, iterations, forces and distortions
    # are bit for bit the flat list's
    for sys in recover_systems():
        flat = flat_springs(sys)
        got, ref = [sys.distortion()], [flat.distortion()]
        for mode in ("push", "pull"):
            got.append(global_phase(sys.forces, sys.points, mode, FORCE_TOL, MAX_ITERS))
            ref.append(global_phase(flat.forces, flat.points, mode, FORCE_TOL, MAX_ITERS))
        got.append(sys.distortion())
        ref.append(flat.distortion())
        assert got == ref and got[1][2] and got[2][2]
        assert sys.points.tobytes() == flat.points.tobytes()


def test_settled_points_stop_on_recover_frames():
    # each point stops once its own force is below the tolerance: the same
    # iteration counts as the global loop, positions within 0.1 texel, and
    # a point settled when a phase starts stays exactly where it was
    n_settled = 0
    for sys in recover_systems():
        ref = SpringSystem(sys.points.copy(), sys.anchors, sys.rest)
        for mode in ("push", "pull"):
            before = sys.points.copy()
            settled = np.abs(sys.forces(mode)[0]).max(axis=1) < FORCE_TOL
            it, fmax, ok = sys.relax_phase(mode, FORCE_TOL, MAX_ITERS)
            ref_it, _, ref_ok = global_phase(ref.forces, ref.points, mode, FORCE_TOL, MAX_ITERS)
            assert (it, ok) == (ref_it, ref_ok) == (ref_it, True)
            assert fmax == np.abs(sys.forces(mode)[0]).max() and fmax < FORCE_TOL
            assert sys.points[settled].tobytes() == before[settled].tobytes()
            n_settled += settled.sum()
        assert np.abs(sys.points - ref.points).max() <= 0.1
    assert n_settled > 0


def test_settled_point_keeps_its_position():
    # point 0 starts with a net force of 1e-4 along x and stays put; point 1
    # has no force along x, yet must move along y to reach its rest length
    sys = SpringSystem(points=np.array([[5.0, 5.0], [5.0, 4.5]]),
                       anchors=np.array([[[3.0, 5.0], [5.0, 4.0]],
                                         [[7.0, 5.0], [0.0, 0.0]]]),
                       rest=np.array([[2.0, 2.0], [2.0001, 0.0]]))
    start = sys.points.copy()
    assert np.abs(sys.forces("push")[0][0]).max() < 1e-3
    for mode in ("push", "pull"):
        it, fmax, ok = sys.relax_phase(mode, 1e-3, 100)
        assert ok and fmax < 1e-3
    assert sys.points[0].tobytes() == start[0].tobytes()
    assert np.linalg.norm(sys.points[1] - [5.0, 4.0]) == pytest.approx(2.0, abs=1e-3)


def test_spring_compressed_reaches_rest_in_one_push_iteration():
    sys = SpringSystem(points=np.array([[5.0, 4.5]]),
                       anchors=np.array([[[5.0, 4.0]]]),
                       rest=np.array([[2.0]]))
    iters, fmax, converged = sys.relax_phase("push", 1e-3, 2000)
    assert (iters, converged) == (1, True) and fmax == 0.0
    assert (sys.points == [[5.0, 6.0]]).all()


def _local_scale(apos, ay, ax, fallback, min_baseline=4.0):
    """Median pairwise texture/image distance ratio among one point's anchors."""
    n = len(apos)
    if n < 2:
        return fallback
    ii, jj = np.triu_indices(n, k=1)
    img = np.hypot(ay[ii] - ay[jj], ax[ii] - ax[jj]).astype(np.float64)
    keep = img >= min_baseline
    if not keep.any():
        return fallback
    tex = np.linalg.norm(apos[ii[keep]] - apos[jj[keep]], axis=1)
    return float(np.median(tex / img[keep]))


def loop_build_springs(tex_pos, original, new_points, region, max_anchors):
    """Reference: the per-point spring build, one box test and sort per point."""
    oy, ox = np.nonzero(original)
    anchor_pos = tex_pos[oy, ox]
    known_scale = _known_scale(tex_pos, original)
    half = region / 2.0
    pts, springs_a, springs_p, rests, skipped = [], [], [], [], []
    for y, x in new_points:
        pos0 = tex_pos[y, x]
        box = (np.abs(anchor_pos[:, 0] - pos0[0]) <= half) \
            & (np.abs(anchor_pos[:, 1] - pos0[1]) <= half)
        cand = np.nonzero(box)[0]
        if len(cand) == 0:
            skipped.append((y, x))
            continue
        d = anchor_pos[cand] - pos0
        d2 = np.sum(d * d, axis=1)
        order = np.lexsort((ox[cand], oy[cand], d2))
        sel = cand[order[:max_anchors]]
        k = len(pts)
        pts.append((y, x))
        ssel = cand[order[:: max(1, len(order) // 48)][:48]]
        scale = _local_scale(anchor_pos[ssel], oy[ssel], ox[ssel],
                             known_scale, min_baseline=8.0)
        img_d = np.sqrt((oy[sel] - y) ** 2.0 + (ox[sel] - x) ** 2.0)
        springs_a.extend(anchor_pos[sel])
        springs_p.extend([k] * len(sel))
        rests.extend(img_d * scale)
    moved = np.array(pts, dtype=np.int64).reshape(-1, 2)
    return (np.array(springs_a).reshape(-1, 2), np.array(springs_p, dtype=np.int64),
            np.maximum(np.array(rests), 1e-6), moved,
            np.array(skipped, dtype=np.int64).reshape(-1, 2))


def assert_build_matches_loop(tex_pos, original, new_points, region=40, max_anchors=12):
    sys, moved, skipped = build_springs(tex_pos, original, new_points, region, max_anchors)
    anchors, spring_point, rest, ref_moved, ref_skipped = loop_build_springs(
        tex_pos, original, new_points, region, max_anchors)
    flat = flat_springs(sys)
    for got, ref in ((flat.anchors, anchors), (flat.spring_point, spring_point),
                     (flat.rest, rest), (moved, ref_moved), (skipped, ref_skipped),
                     (sys.points, tex_pos[ref_moved[:, 0], ref_moved[:, 1]])):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # one row per anchor rank, zero padding after each point's last anchor
    k = min(max_anchors, int(original.sum()))
    assert sys.anchors.shape == (k, len(moved), 2) and sys.rest.shape == (k, len(moved))
    assert sys.anchors.flags.c_contiguous and sys.rest.flags.c_contiguous
    real = sys.rest > 0.0
    assert (real[:-1] >= real[1:]).all()
    assert (sys.anchors[~real] == 0.0).all()
    return sys, moved, skipped


def scene_build_inputs(fr, tex=96):
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    tex_pos = texture_positions(ext) * np.array([tex, tex])
    original = ext.silhouette.copy()
    original[new_pts[:, 0], new_pts[:, 1]] = False
    return tex_pos, original, new_pts


def test_spring_build_matches_per_point_loop(monkeypatch):
    # the cropped scene, with the noise that makes distance ties rare and
    # then a piecewise-constant chart that makes them common
    fs, fs_c = cropped_scene(uv_noise=0.01)
    tex_pos, original, new_pts = scene_build_inputs(fs_c.frames[1])
    assert len(new_pts) > 4 * _BUILD_CHUNK     # several passes
    sys, _, _ = assert_build_matches_loop(tex_pos, original, new_pts)
    counts = (sys.rest > 0.0).sum(axis=0)
    assert counts.max() == 12
    assert_build_matches_loop(np.round(tex_pos / 4.0) * 4.0, original, new_pts)
    # small passes: chunk boundaries fall inside the point list
    monkeypatch.setattr("uvweave.extend._BUILD_CHUNK", 7)
    assert_build_matches_loop(tex_pos, original, new_pts)

    # a ramp chart: from 1 candidate per point (stride 1, fewer than 48) to
    # hundreds (stride > 1, more than 96), next to anchorless points
    h, w = 40, 40
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    tex_pos = np.stack([1.5 * xx + 0.1 * yy, 0.5 * yy], axis=-1)
    original = np.zeros((h, w), dtype=bool)
    original[:, :20] = True
    new_pts = np.argwhere(~original)
    for region, max_anchors in ((4, 12), (30, 2000)):
        sys, moved, skipped = assert_build_matches_loop(tex_pos, original, new_pts,
                                                        region, max_anchors)
        assert len(skipped) > 0 and len(moved) > 0
    counts = (sys.rest > 0.0).sum(axis=0)     # every candidate is a spring
    assert counts.min() == 1 and counts.max() > 96 and len(moved) > _BUILD_CHUNK


def test_spring_build_skipped_point_and_scale_fallback():
    # a 3x3 anchor block, 2 texels per pixel: no two anchors lie 8 pixels
    # apart, so the local scale falls back to the known region's ratio, 2
    h, w = 12, 12
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    tex_pos = np.stack([2.0 * xx, 2.0 * yy], axis=-1)
    tex_pos[11, 11] = [500.0, 500.0]          # no anchor within the region
    original = np.zeros((h, w), dtype=bool)
    original[0:3, 0:3] = True
    new_pts = np.array([[3, 3], [11, 11]])
    sys, moved, skipped = assert_build_matches_loop(tex_pos, original, new_pts,
                                                    region=40, max_anchors=4)
    assert moved.tolist() == [[3, 3]] and skipped.tolist() == [[11, 11]]
    # nearest first, the tie between (1, 2) and (2, 1) in row-major order
    assert sys.anchors[:, 0].tolist() == [[4.0, 4.0], [4.0, 2.0], [2.0, 4.0], [2.0, 2.0]]
    assert np.allclose(sys.rest[:, 0], 2.0 * np.sqrt([2.0, 5.0, 5.0, 8.0]),
                       rtol=0, atol=1e-12)
    # fewer candidates than max_anchors: all 9 become springs
    sys, _, _ = assert_build_matches_loop(tex_pos, original, new_pts[:1],
                                          region=40, max_anchors=20)
    assert sys.rest.shape == (9, 1) and (sys.rest > 0.0).all()


def test_spring_iterations_cut_to_a_third():
    # explicit Euler with the step capped by the largest anchor count took
    # 330 push + 873 pull iterations on this frame
    fs, fs_c = cropped_scene()
    fr = fs_c.frames[1]
    labeled = label_fill(fr.uv_raw, fr.mask)
    ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
    _, res = relax_springs(ext, new_pts, 96, 96)
    assert res.converged
    assert 3 * (res.push_iters + res.pull_iters) < 330 + 873

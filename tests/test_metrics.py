import json
import math
import threading

import numpy as np
import pytest

import uvweave.stages as stages
from uvweave import (CorruptConfig, Field2, LookupRenderer, Manifest, SceneConfig,
                     UVMap, ValidationError, block_flow, gen_sequence, loss_ce,
                     loss_img_s, loss_l2, loss_smo, metric_psnr, metric_tdiff, metric_tof)
from uvweave.gradcore import loss_app


def rand_uvmap(rng, h, w, fill=0.7):
    sil = rng.uniform(size=(h, w)) < fill
    sil[h // 2, w // 2] = True
    uv = np.where(sil[..., None], rng.normal(0, 0.05, (h, w, 2)), 0.0)
    return UVMap(uv, sil)


def test_loss_l2_matches_brute():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rand_uvmap(rng, 12, 14)
        b = rand_uvmap(rng, 12, 14)
        want = 0.0
        m = a.silhouette | b.silhouette
        for y in range(12):
            for x in range(14):
                if m[y, x]:
                    d = a.uv.data[y, x] - b.uv.data[y, x]
                    want += float(d @ d)
        got = loss_l2(a, b)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)
    with pytest.raises(ValidationError, match="resolutions"):
        loss_l2(rand_uvmap(rng, 8, 8), rand_uvmap(rng, 8, 10))


def test_loss_smo_matches_brute_and_constant_zero():
    rng = np.random.default_rng(1)
    maps = [rand_uvmap(rng, 10, 11) for _ in range(3)]
    m = maps[0].silhouette | maps[1].silhouette | maps[2].silhouette
    want = 0.0
    for y in range(10):
        for x in range(11):
            if m[y, x]:
                a, b, c = (q.uv.data[y, x] for q in maps)
                v1, v2, acc = a - b, b - c, a - 2 * b + c
                want += float(v1 @ v1 + v2 @ v2 + acc @ acc)
    got = loss_smo(*maps)
    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    same = rand_uvmap(rng, 10, 11)
    assert loss_smo(same, same, same) == 0.0
    with pytest.raises(ValidationError, match="resolutions"):
        loss_smo(maps[0], maps[1], rand_uvmap(rng, 9, 11))


def brute_bilinear(data, x, y):
    h, w = data.shape[:2]
    gx = min(max(x * w - 0.5, 0.0), w - 1.0)
    gy = min(max(y * h - 0.5, 0.0), h - 1.0)
    x0, y0 = int(gx), int(gy)
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = gx - x0, gy - y0
    return ((1 - fy) * ((1 - fx) * data[y0, x0] + fx * data[y0, x1])
            + fy * ((1 - fx) * data[y1, x0] + fx * data[y1, x1]))


def test_loss_img_s_matches_brute():
    fs = gen_sequence(SceneConfig(image_w=32, image_h=32, tex_w=32, tex_h=32,
                                  frames=1, seed=6))
    fr = fs.frames[0]
    got = loss_img_s(fr.uv_gt, fs.texture, fr.image)
    want = 0.0
    from uvweave.fields import pixel_center_grid
    u = pixel_center_grid(32, 32) - fr.uv_gt.uv.data
    for y in range(32):
        for x in range(32):
            if fr.uv_gt.silhouette[y, x]:
                d = brute_bilinear(fs.texture.data, u[y, x, 0], u[y, x, 1]) \
                    - fr.image.data[y, x]
                want += float(d @ d)
    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_loss_img_s_consistency_and_cases():
    fs = gen_sequence(SceneConfig(image_w=32, image_h=32, tex_w=48, tex_h=48,
                                  frames=1, seed=6))
    fr = fs.frames[0]
    from uvweave.warpmap import texture_grid, warp
    T = warp(fr.image, texture_grid(fr.uv_gt, 48, 48))
    a = loss_img_s(fr.uv_gt, T, fr.image)
    b = loss_app(fr.uv_gt, fr.image, 48, 48)
    assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)

    sil = np.ones((8, 8), dtype=bool)
    P = UVMap(np.zeros((8, 8, 2)), sil)
    c = Field2(np.full((8, 8, 3), 0.3))
    assert loss_img_s(P, Field2(np.full((4, 4, 3), 0.3)), c) == 0.0
    with pytest.raises(ValidationError, match="resolutions"):
        loss_img_s(P, c, Field2(np.zeros((8, 9, 3))))


def test_loss_ce_uniform_is_log25():
    scores = Field2(np.zeros((6, 7, 25)))
    ref = np.zeros((6, 7), dtype=np.int64)
    assert abs(loss_ce(scores, ref) - math.log(25.0)) < 1e-12


def test_loss_ce_one_hot_and_brute():
    rng = np.random.default_rng(2)
    ref = rng.integers(0, 25, size=(5, 6))
    hot = np.full((5, 6, 25), -20.0)
    np.put_along_axis(hot, ref[..., None], 20.0, axis=2)
    assert loss_ce(Field2(hot), ref) < 1e-6

    s = rng.normal(0, 2, (5, 6, 25))
    want = 0.0
    for y in range(5):
        for x in range(6):
            z = s[y, x] - s[y, x].max()
            p = np.exp(z) / np.exp(z).sum()
            want -= math.log(p[ref[y, x]])
    want /= 30.0
    got = loss_ce(Field2(s), ref)
    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    with pytest.raises(ValidationError, match="shape"):
        loss_ce(Field2(s), ref[:4])
    with pytest.raises(ValidationError, match="range"):
        loss_ce(Field2(s), np.full((5, 6), 25))


def test_metric_psnr_cases():
    rng = np.random.default_rng(3)
    a = Field2(rng.uniform(0, 1, (9, 9, 3)))
    assert metric_psnr(a, a) == 99.0
    b = Field2(np.clip(a.data - 0.1, None, None))
    assert abs(metric_psnr(a, b) - 20.0) < 1e-9
    c = Field2(rng.uniform(0, 1, (9, 9, 3)))
    mse = float(np.mean((a.data - c.data) ** 2))
    assert abs(metric_psnr(a, c) - 10.0 * math.log10(1.0 / mse)) < 1e-6
    with pytest.raises(ValidationError, match="shape"):
        metric_psnr(a, Field2(np.zeros((9, 8, 3))))
    v = np.zeros((9, 9))
    with pytest.raises(ValidationError, match="empty"):
        metric_psnr(Field2(a.data, valid=v), a)


def test_metric_psnr_respects_masks():
    rng = np.random.default_rng(4)
    base = rng.uniform(0, 1, (8, 8, 3))
    noisy = base.copy()
    noisy[0, 0] = 0.0                    # huge error outside the valid mask
    valid = np.ones((8, 8))
    valid[0, 0] = 0.0
    assert metric_psnr(Field2(base, valid=valid), Field2(noisy, valid=valid)) == 99.0


def scene_render(frames=4):
    fs = gen_sequence(SceneConfig(image_w=96, image_h=96, tex_w=96, tex_h=96,
                                  frames=frames, seed=5, amplitude=0.02,
                                  frequency=1.5))
    P_list = [f.uv_gt for f in fs.frames]
    rendered = [LookupRenderer(fs.texture.data).frame(P)[0] for P in P_list]
    return fs, P_list, rendered


def test_tdiff_static_sequence_zero():
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48,
                                  frames=1, seed=5))
    fr = fs.frames[0]
    img, _ = LookupRenderer(fs.texture.data).frame(fr.uv_gt)
    m, per = metric_tdiff([img, img, img], [fr.uv_gt] * 3, 48, 48)
    assert m <= 1e-9
    assert all(p <= 1e-9 for p in per)


def test_tdiff_ground_truth_below_floor():
    _, P_list, rendered = scene_render()
    m, _ = metric_tdiff(rendered, P_list, 96, 96)
    assert m < 0.01


def test_tdiff_texture_permutation_invariant():
    fs, P_list, rendered = scene_render()
    perm = Field2(fs.texture.data[..., [2, 0, 1]])
    rendered_p = [LookupRenderer(perm.data).frame(P)[0] for P in P_list]
    a, _ = metric_tdiff(rendered, P_list, 96, 96)
    b, _ = metric_tdiff(rendered_p, P_list, 96, 96)
    assert abs(a - b) < 1e-12


def test_tdiff_errors():
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48,
                                  frames=1, seed=5))
    fr = fs.frames[0]
    with pytest.raises(ValidationError, match="frames"):
        metric_tdiff([fr.image], [fr.uv_gt], 48, 48)
    with pytest.raises(ValidationError, match="frames"):
        metric_tdiff([fr.image, fr.image], [fr.uv_gt], 48, 48)


def test_tof_cases():
    _, _, rendered = scene_render(frames=3)

    def pair_flows(frames):
        return [block_flow(a, b) for a, b in zip(frames, frames[1:])]

    flows = pair_flows(rendered)
    assert len(flows) == 2
    self_val, per = metric_tof(flows, pair_flows(rendered))
    assert self_val == 0.0 and all(p == 0.0 for p in per)
    rev, _ = metric_tof(flows, pair_flows(rendered[::-1]))
    assert rev > 0.0
    with pytest.raises(ValidationError, match="length"):
        metric_tof(flows, pair_flows(rendered[:2]))
    with pytest.raises(ValidationError, match="frames"):
        metric_tof(flows[:0], pair_flows(rendered[:1]))


def test_stage_metrics_computes_real_flows_once(tmp_path, monkeypatch):
    # one real-frame flow per pair, shared by the recovered and the
    # corrupted-baseline reports, plus one per pair for each report
    frames = 4
    root = tmp_path / "seq"
    stages.stage_gen(root, SceneConfig(image_w=32, image_h=32, tex_w=32, tex_h=32,
                                       frames=frames, seed=3))
    stages.stage_corrupt(root, CorruptConfig(margin=2, uv_noise=0.01, seed=1))
    m = Manifest.load(root)
    for i in range(frames):
        m.write_uv(i, "uv_final", m.read_uv(i, "uv_gt"))
        m.write_image(i, "synth", m.read_image(i, "image"))
    for s in ("extend", "optimize", "relocate", "synth"):
        m.mark_stage(s)
    m.save()
    calls = []

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return block_flow(*args, **kwargs)

    monkeypatch.setattr(stages, "block_flow", counted)
    stages.stage_metrics(root)
    text = (root / "metrics.json").read_text()
    assert set(json.loads(text)) == {"recovered", "corrupted_baseline"}
    assert calls == [threading.get_ident()] * (3 * (frames - 1))
    # with a frame pool every flow runs on it, and the report keeps its bytes
    calls.clear()
    stages.stage_metrics(root, threads=2)
    assert (root / "metrics.json").read_text() == text
    assert len(calls) == 3 * (frames - 1) and threading.get_ident() not in calls
    # the one pass keeps its bytes and its flow count at any thread count
    calls.clear()
    stages.stage_metrics(root, threads=3)
    assert (root / "metrics.json").read_text() == text
    assert len(calls) == 3 * (frames - 1)


"""Acceptance checks for the whole toolkit.

Each test covers one contract and emits a single PASS/FAIL line with the
measured numbers (visible with ``pytest -s`` and in failure output).  The
heavyweight recovery run is shared by the tests that score it.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import uvweave.stages as stages
from uvweave.errors import NumericalError
from uvweave.fields import Field2, pixel_center_grid
from uvweave.formats import read_ppm, write_pfm
from uvweave.manifest import Manifest
from uvweave.metrics import loss_ce, loss_img_s, loss_l2, loss_smo, metric_psnr, metric_tdiff
from uvweave.relocate import (RelocateConfig, block_flow,
                              frame_zero_products, init_correspondence, patch_fill)
from uvweave.render import LookupRenderer, MADDS_PER_CHANNEL, TEXEL_READS_PER_PIXEL
from uvweave.extend import extrapolate_uv, label_fill, relax_springs
from uvweave.scenegen import CorruptConfig, SceneConfig, corrupt, gen_sequence
from uvweave.uvopt import OptConfig
from uvweave.warpmap import UVMap, texture_grid, warp

SCENE = dict(image_w=128, image_h=128, tex_w=128, tex_h=128,
             frames=16, seed=5, amplitude=0.02, frequency=1.5)


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def brute_sample(data, x, y):
    """Per-pixel bilinear oracle: clamp-to-edge, pixel centers at (i + 0.5) / n."""
    h, w = data.shape[:2]
    gx = min(max(x * w - 0.5, 0.0), w - 1.0)
    gy = min(max(y * h - 0.5, 0.0), h - 1.0)
    x0, y0 = int(gx), int(gy)
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = gx - x0, gy - y0
    return ((1 - fy) * ((1 - fx) * data[y0, x0] + fx * data[y0, x1])
            + fy * ((1 - fx) * data[y1, x0] + fx * data[y1, x1]))


@pytest.fixture(scope="module")
def recovery(tmp_path_factory):
    """128x128x16 corrupted sequence pushed through the full pipeline."""
    root = tmp_path_factory.mktemp("accept") / "seq"
    stages.stage_gen(root, SceneConfig(**SCENE))
    stages.stage_corrupt(root, CorruptConfig(margin=4, dup_blocks=8, dup_size=8,
                                             uv_noise=0.01, seed=1))
    t0 = time.perf_counter()
    stages.stage_pipeline(root, OptConfig(), threads=4)
    elapsed = time.perf_counter() - t0
    return Manifest.load(root), elapsed


def test_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    worst = stages.run_grad_check(seeds=(0, 1, 2), size=8, probes=20, tol=1e-3)
    elapsed = time.perf_counter() - t0
    report("gradient-check",
           worst < 1e-3 and elapsed < 10.0,
           f"max relative error {worst:.3e} (< 1e-3) in {elapsed:.1f}s (< 10s)")


def test_identity_render_and_static_sequence():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(64, 64, 3))
    ident = UVMap(np.zeros((64, 64, 2)), np.ones((64, 64), dtype=bool))
    out, _ = LookupRenderer(img).frame(ident)
    exact = np.array_equal(out.data, img)

    fs = gen_sequence(SceneConfig(image_w=64, image_h=64, tex_w=64, tex_h=64,
                                  frames=1, seed=2))
    fr = fs.frames[0]
    frames = [fr.image] * 4
    Ps = [fr.uv_gt] * 4
    tdiff, _ = metric_tdiff(frames, Ps, 64, 64)
    report("identity-roundtrip",
           exact and tdiff <= 1e-9,
           f"identity bit-exact={exact}, static-sequence tdiff {tdiff:.2e} (<= 1e-9)")


def test_corrupted_sequence_recovery(recovery):
    m, elapsed = recovery
    rep = __import__("json").load(open(m.root / "metrics.json"))
    rec = rep["recovered"]["psnr"]["per_frame"]
    cor = rep["corrupted_baseline"]["psnr"]["per_frame"]
    min_psnr = min(rec)
    min_gain = min(r - c for r, c in zip(rec, cor))
    ratios = []
    for i in range(m.n_frames):
        tr = __import__("json").load(open(m.frame_item(i, "opt_trace")))
        ratios.append(tr["l_app"][-1] / tr["l_app"][0])
    ok = (min_psnr >= 28.0 and min_gain >= 6.0 and max(ratios) <= 0.1
          and elapsed < 300.0)
    report("corruption-recovery", ok,
           f"min psnr {min_psnr:.2f} (>= 28), min gain {min_gain:.2f} dB (>= 6), "
           f"max appearance-loss ratio {max(ratios):.3f} (<= 0.1), "
           f"pipeline {elapsed:.0f}s on 4 threads (< 300s)")


def test_temporal_recovery_from_constant_texture(recovery):
    m, _ = recovery
    rep = __import__("json").load(open(m.root / "metrics.json"))
    rec, cor = rep["recovered"], rep["corrupted_baseline"]
    tof_ok = rec["t_of"]["mean"] <= cor["t_of"]["mean"]
    tdiff_ratio = rec["t_diff"]["mean"] / cor["t_diff"]["mean"]

    # every frame re-rendered here from the one constant texture
    T_o = m.read_texture("texture_o")
    psnrs = []
    for i in range(m.n_frames):
        P = m.read_uv(i, "uv_final")
        img, _ = LookupRenderer(T_o.data).frame(P)
        real = m.read_image(i, "image", valid=m.read_mask(i, "mask"))
        img.valid = real.valid
        psnrs.append(metric_psnr(img, real))
    ok = tof_ok and tdiff_ratio <= 0.5 and min(psnrs) >= 28.0
    report("temporal-recovery", ok,
           f"tof {rec['t_of']['mean']:.3f} <= {cor['t_of']['mean']:.3f}, "
           f"tdiff ratio {tdiff_ratio:.3f} (<= 0.5), "
           f"constant-texture min psnr {min(psnrs):.2f} (>= 28)")


def test_spring_extension_accuracy():
    fs = corrupt(gen_sequence(SceneConfig(**SCENE)), CorruptConfig(margin=4))
    worst_within = 1.0
    all_dec, all_conv, worst_force = True, True, 0.0
    for t in (0, 7, 15):
        fr = fs.frames[t]
        labeled = label_fill(fr.uv_raw, fr.mask)
        ext, new_pts = extrapolate_uv(labeled, known=fr.uv_raw.silhouette)
        relaxed, rel = relax_springs(ext, new_pts, 128, 128)
        err = np.linalg.norm(
            (relaxed.uv.data - fr.uv_gt.uv.data)[new_pts[:, 0], new_pts[:, 1]],
            axis=1) * 128
        worst_within = min(worst_within, float((err <= 2.0).mean()))
        all_dec &= rel.distortion_after < rel.distortion_before
        all_conv &= rel.converged
        worst_force = max(worst_force, rel.max_force)
    ok = worst_within >= 0.90 and all_dec and all_conv and worst_force < 1e-3
    report("spring-extension", ok,
           f"worst within-2-texel fraction {worst_within:.3f} (>= 0.90), "
           f"distortion decreased={all_dec}, converged={all_conv}, "
           f"max net force {worst_force:.2e} (< 1e-3)")


def test_relocation_fidelity():
    fs = gen_sequence(SceneConfig(**SCENE))
    f0 = fs.frames[0]
    T_o, covered0 = frame_zero_products(f0.uv_gt, f0.image, 128, 128)
    cfg = RelocateConfig()
    worst_flow, worst_fill = 1.0, 1.0
    for t in (1, 8, 15):
        fr = fs.frames[t]
        g = texture_grid(fr.uv_gt, 128, 128)
        T_t = warp(fr.image, g)
        flow = block_flow(T_t, T_o, cfg)
        Qr = init_correspondence(covered0, flow)
        Qr.valid &= g.valid
        oracle = fr.corr_gt
        both = Qr.valid & oracle.valid
        err = np.linalg.norm(Qr.data - oracle.data, axis=2) * 128
        worst_flow = min(worst_flow, float((err[both] <= 1.0).mean()))

        rng = np.random.default_rng(100 + t)
        keep = rng.uniform(size=Qr.valid.shape) >= 0.2
        pruned = Qr.valid & ~keep
        Qp = Field2(Qr.data.copy(), valid=Qr.valid & keep)
        Qt = patch_fill(Qp, T_o, T_t, cfg.patch, cfg.window, domain=g.valid)
        filled = pruned & Qt.valid & oracle.valid
        errf = np.linalg.norm(Qt.data - oracle.data, axis=2) * 128
        worst_fill = min(worst_fill, float((errf[filled] <= 1.5).mean()))
    ok = worst_flow >= 0.95 and worst_fill >= 0.90
    report("relocation-fidelity", ok,
           f"worst flow within-1-texel {worst_flow:.4f} (>= 0.95), "
           f"worst fill within-1.5-texel {worst_fill:.4f} (>= 0.90)")


def test_loss_evaluators_against_brute_force():
    rng = np.random.default_rng(3)

    def rand_map(h, w):
        sil = rng.uniform(size=(h, w)) < 0.7
        sil[h // 2, w // 2] = True
        return UVMap(np.where(sil[..., None], rng.normal(0, 0.05, (h, w, 2)), 0.0),
                     sil)

    rel_errs = []

    a, b = rand_map(12, 14), rand_map(12, 14)
    want = sum(float(d @ d) for y in range(12) for x in range(14)
               if (a.silhouette | b.silhouette)[y, x]
               for d in [a.uv.data[y, x] - b.uv.data[y, x]])
    rel_errs.append(abs(loss_l2(a, b) - want) / max(abs(want), 1.0))

    trip = [rand_map(10, 11) for _ in range(3)]
    m = trip[0].silhouette | trip[1].silhouette | trip[2].silhouette
    want = 0.0
    for y in range(10):
        for x in range(11):
            if m[y, x]:
                p, q, r = (t.uv.data[y, x] for t in trip)
                v1, v2, acc = p - q, q - r, p - 2 * q + r
                want += float(v1 @ v1 + v2 @ v2 + acc @ acc)
    rel_errs.append(abs(loss_smo(*trip) - want) / max(abs(want), 1.0))
    const = rand_map(10, 11)
    smo_const = loss_smo(const, const, const)

    fs = gen_sequence(SceneConfig(image_w=32, image_h=32, tex_w=32, tex_h=32,
                                  frames=1, seed=6))
    fr = fs.frames[0]
    got = loss_img_s(fr.uv_gt, fs.texture, fr.image)
    u = pixel_center_grid(32, 32) - fr.uv_gt.uv.data
    want = sum(float(d @ d) for y in range(32) for x in range(32)
               if fr.uv_gt.silhouette[y, x]
               for d in [brute_sample(fs.texture.data, u[y, x, 0], u[y, x, 1])
                         - fr.image.data[y, x]])
    rel_errs.append(abs(got - want) / max(abs(want), 1.0))

    scores = rng.normal(size=(9, 8, 25))
    ref = rng.integers(0, 25, size=(9, 8))
    want = 0.0
    for y in range(9):
        for x in range(8):
            z = scores[y, x]
            want += math.log(np.sum(np.exp(z - z.max()))) - (z[ref[y, x]] - z.max())
    want /= 72.0
    rel_errs.append(abs(loss_ce(Field2(scores), ref) - want) / max(abs(want), 1.0))

    uniform = loss_ce(Field2(np.zeros((6, 6, 25))), np.zeros((6, 6), dtype=int))
    ce_gap = abs(uniform - math.log(25.0))

    ok = max(rel_errs) <= 1e-9 and smo_const == 0.0 and ce_gap <= 1e-12
    report("loss-evaluators", ok,
           f"max brute-force relative error {max(rel_errs):.2e} (<= 1e-9), "
           f"constant-triplet smoothness {smo_const}, "
           f"uniform 25-way cross-entropy off ln(25) by {ce_gap:.2e}")


def test_render_budget_and_retexture_speed(tmp_path):
    fs = gen_sequence(SceneConfig(image_w=64, image_h=64, tex_w=64, tex_h=64,
                                  frames=1, seed=4))
    fr = fs.frames[0]
    _, st = LookupRenderer(fs.texture.data).frame(fr.uv_gt)
    budget_ok = (st.texel_reads_per_pixel <= 4 and
                 st.madds_per_channel_per_pixel <= 11 and
                 TEXEL_READS_PER_PIXEL <= 4 and MADDS_PER_CHANNEL <= 11 and
                 st.fetches == st.foreground_pixels)

    root = tmp_path / "big"
    w = h = 512
    m = Manifest.create(root, (w, h), (w, h), 16)
    c = pixel_center_grid(w, h)
    x, y = c[..., 0], c[..., 1]
    sil = ((x - 0.5) / 0.36) ** 2 + ((y - 0.5) / 0.40) ** 2 <= 1.0
    uvs = []
    for i in range(16):
        ph = 0.3 * i / 16.0
        uv = np.stack([0.02 * np.sin(6 * y + ph), 0.02 * np.cos(5 * x - ph)],
                      axis=2)
        uvs.append(np.where(sil[..., None], uv, 0.0))
        m.write_uv(i, "uv_final", UVMap(uvs[-1], sil))
    for s in ("gen", "corrupt", "extend", "optimize", "relocate"):
        m.mark_stage(s)
    m.save()
    tex = tmp_path / "tex.pfm"
    tex_data = np.random.default_rng(0).uniform(size=(h, w, 3))
    write_pfm(tex, tex_data)

    uv_hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(root.rglob("*.pfm"))}
    t0 = time.perf_counter()
    stages.stage_retexture(root, tex, tag="retex", threads=1)
    elapsed = time.perf_counter() - t0
    uv_after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*.pfm"))}
    rendered = all((root / "frames" / f"f{i:04d}_retex.ppm").is_file()
                   for i in range(16))

    # Decoded frames against the per-pixel oracle on what the files hold
    # (PFM stores float32), up to the PPM's half-step quantization.
    tex_stored = tex_data.astype(np.float32).astype(np.float64)
    worst_err, background_zero = 0.0, True
    ys, xs = np.nonzero(sil)
    checked = (0, 7, 15) if rendered else ()
    for i in checked:
        got = read_ppm(root / "frames" / f"f{i:04d}_retex.ppm")
        uv = uvs[i].astype(np.float32).astype(np.float64)
        for py, px in zip(ys[::97], xs[::97]):
            want = brute_sample(tex_stored, x[py, px] - uv[py, px, 0],
                                y[py, px] - uv[py, px, 1])
            worst_err = max(worst_err, float(np.abs(got[py, px] - want).max()))
        background_zero &= bool((got[~sil] == 0.0).all())
    pixels_ok = rendered and worst_err <= 0.5 / 255 + 1e-12 and background_zero
    ok = budget_ok and elapsed < 0.5 and uv_hashes == uv_after and pixels_ok
    report("render-budget", ok,
           f"{st.texel_reads_per_pixel} texel reads (<= 4), "
           f"{st.madds_per_channel_per_pixel} madds/channel (<= 11), "
           f"512x512x16 retexture {1e3 * elapsed:.0f}ms single-threaded (< 500ms), "
           f"uv files untouched={uv_hashes == uv_after}, "
           f"max oracle error {255 * worst_err:.3f}/255 (<= 0.5/255), "
           f"background zero={background_zero}")


def test_bitwise_determinism(tmp_path):
    small = SceneConfig(image_w=64, image_h=64, tex_w=64, tex_h=64,
                        frames=4, seed=7, amplitude=0.02, frequency=1.5)

    def run(root, threads):
        stages.stage_gen(root, small)
        stages.stage_corrupt(root, CorruptConfig(margin=2, dup_blocks=2,
                                                 dup_size=6, uv_noise=0.01,
                                                 seed=1))
        stages.stage_pipeline(root, OptConfig(), threads=threads)
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for pat in ("*.pfm", "*.ppm", "*.flo", "*.json")
                for p in sorted(root.rglob(pat))}

    h1 = run(tmp_path / "a", threads=1)
    h2 = run(tmp_path / "b", threads=1)   # repeated run
    h3 = run(tmp_path / "c", threads=3)   # different thread count
    same_rerun = h1 == h2
    same_threads = h1 == h3
    ok = same_rerun and same_threads and len(h1) > 20
    report("determinism", ok,
           f"{len(h1)} artifacts, rerun identical={same_rerun}, "
           f"thread-count identical={same_threads}")

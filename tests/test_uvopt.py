import numpy as np
import pytest

from uvweave import (CorruptConfig, Field2, OptConfig, SceneConfig, UVMap,
                     ValidationError, corrupt, gen_sequence, optimize_uv)
from uvweave import gradcore, uvopt
from uvweave.gradcore import grad_app, grad_reg, loss_app, loss_reg
from uvweave.uvopt import UV_CLAMP, _check_divergence


def noisy_frame(seed=3, noise=0.02):
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48,
                                  frames=1, seed=seed))
    fs_c = corrupt(fs, CorruptConfig(uv_noise=noise, seed=1))
    return fs.frames[0], fs_c.frames[0]


def test_config_validation():
    with pytest.raises(ValidationError):
        OptConfig(alpha1=-1.0)
    with pytest.raises(ValidationError):
        OptConfig(lr=0.0)
    with pytest.raises(ValidationError):
        OptConfig(max_steps=0)
    with pytest.raises(ValidationError):
        OptConfig(window=0)


def test_resolution_mismatch_error():
    sil = np.ones((8, 8), dtype=bool)
    P = UVMap(np.zeros((8, 8, 2)), sil)
    I = Field2(np.zeros((8, 10, 1)))
    with pytest.raises(ValidationError, match="resolutions differ"):
        optimize_uv(P, I)


def test_foreground_coverage_error():
    sil = np.zeros((8, 8), dtype=bool)
    sil[2:6, 2:6] = True
    valid = sil.copy()
    valid[0, 0] = True                   # foreground pixel with no UV entry
    P = UVMap(np.zeros((8, 8, 2)), sil)
    I = Field2(np.full((8, 8, 1), 0.5), valid=valid.astype(np.float64))
    with pytest.raises(ValidationError, match="cover"):
        optimize_uv(P, I)


def test_trace_non_increasing_and_improves():
    _, fr = noisy_frame()
    out, tr = optimize_uv(fr.uv_raw, fr.image, OptConfig(max_steps=40))
    t = tr.total
    assert all(b <= a for a, b in zip(t, t[1:]))
    assert t[-1] < 0.01 * t[0]
    assert tr.steps == len(tr.l_app) == len(tr.l_reg)
    assert (out.silhouette == fr.uv_raw.silhouette).all()
    assert out.uv.data.min() >= UV_CLAMP[0] and out.uv.data.max() <= UV_CLAMP[1]
    assert tr.wall_time > 0.0


def test_ground_truth_nearly_stationary():
    gt, _ = noisy_frame()
    out, tr = optimize_uv(gt.uv_gt, gt.image, OptConfig(max_steps=40))
    t = tr.total
    assert all(b <= a for a, b in zip(t, t[1:]))
    # only the smoothness/appearance trade-off moves points, and barely
    assert np.abs(out.uv.data - gt.uv_gt.uv.data).max() < 5e-3


def test_stop_reason_max_steps():
    _, fr = noisy_frame()
    out, tr = optimize_uv(fr.uv_raw, fr.image, OptConfig(max_steps=3))
    assert tr.stop_reason == "max_steps"
    assert tr.steps == 4                 # 3 optimization steps + final loss


def test_converged_on_constant_image():
    sil = np.zeros((12, 12), dtype=bool)
    sil[3:9, 3:9] = True
    P = UVMap(np.zeros((12, 12, 2)), sil)
    I = Field2(np.full((12, 12, 1), 0.5), valid=sil.astype(np.float64))
    out, tr = optimize_uv(P, I, OptConfig(max_steps=200, window=10))
    assert tr.stop_reason == "converged"
    assert tr.steps < 200
    assert (out.uv.data == P.uv.data).all()


def test_learning_rate_backtracks():
    _, fr = noisy_frame()
    _, tr = optimize_uv(fr.uv_raw, fr.image, OptConfig(max_steps=10, lr=1e6))
    assert tr.lr_final < 1e6
    t = tr.total
    assert all(b <= a for a, b in zip(t, t[1:]))


def test_check_divergence_unit():
    assert not _check_divergence([11.0, 12.0], 1.0, 10.0, 3)
    assert _check_divergence([1.0, 11.0, 12.0, 13.0], 1.0, 10.0, 3)
    assert not _check_divergence([11.0, 9.0, 13.0], 1.0, 10.0, 3)
    assert not _check_divergence([], 1.0, 10.0, 1)


def test_texture_size_defaults_to_image():
    _, fr = noisy_frame()
    out_a, _ = optimize_uv(fr.uv_raw, fr.image, OptConfig(max_steps=3))
    out_b, _ = optimize_uv(fr.uv_raw, fr.image,
                           OptConfig(max_steps=3, tex_w=48, tex_h=48))
    assert (out_a.uv.data == out_b.uv.data).all()


def reference_optimize(P_init, I, cfg):
    """The descent loop with separate loss and gradient passes: every
    candidate runs ``loss_app``, and an accepted one runs ``grad_app``'s own
    forward pass again.  Returns (uv, l_app, l_reg, lr, clamped,
    candidates, rejected, stop reason)."""
    tw, th = cfg.tex_w or I.width, cfg.tex_h or I.height
    sil = P_init.silhouette
    uv = P_init.uv.data.copy()
    lr = cfg.lr
    clamped = candidates = rejected = 0
    P = UVMap(uv, sil)
    rep_a = grad_app(P, I, tw, th)
    rep_r = grad_reg(P, cfg.alpha1, cfg.alpha2)
    la, lr_loss = rep_a.l_app, rep_r.l_reg
    l_app, l_reg = [], []
    stop = "max_steps"
    for step in range(cfg.max_steps):
        l_app.append(la)
        l_reg.append(lr_loss)
        totals = [a + r for a, r in zip(l_app, l_reg)]
        if step >= cfg.window:
            ref = totals[step - cfg.window]
            if ref - totals[step] < cfg.rel_tol * max(ref, 1e-300):
                stop = "converged"
                break
        g = rep_a.grad.data + rep_r.grad.data
        cur = la + lr_loss
        accepted = False
        while lr >= cfg.lr_floor:
            cand = uv - lr * g
            np.clip(cand, UV_CLAMP[0], UV_CLAMP[1], out=cand)
            cand[~sil] = 0.0
            Q = UVMap(cand, sil)
            ca, cr = loss_app(Q, I, tw, th), loss_reg(Q, cfg.alpha1, cfg.alpha2)
            candidates += 1
            if ca + cr <= cur:
                accepted = True
                break
            rejected += 1
            lr *= 0.5
        if not accepted:
            continue
        clamped += int(np.sum((uv - lr * g < UV_CLAMP[0]) | (uv - lr * g > UV_CLAMP[1])))
        uv = cand
        la, lr_loss = ca, cr
        P = UVMap(uv, sil)
        rep_a = grad_app(P, I, tw, th)
        rep_r = grad_reg(P, cfg.alpha1, cfg.alpha2)
    else:
        l_app.append(la)
        l_reg.append(lr_loss)
    return uv, l_app, l_reg, lr, clamped, candidates, rejected, stop


def clamp_scene():
    # UVs piled against the upper clamp; the Hessian term pushes some of
    # them outward, so accepted steps clip.
    rng = np.random.default_rng(0)
    sil = np.zeros((12, 12), dtype=bool)
    sil[2:10, 2:10] = True
    uv = np.where(sil[..., None], np.minimum(rng.uniform(1.8, 2.1, (12, 12, 2)), 2.0), 0.0)
    I = Field2(rng.uniform(0.2, 0.8, (12, 12, 1)), valid=sil.astype(np.float64))
    return UVMap(uv, sil), I


def test_one_forward_pass_per_candidate_and_reference_loop_bitwise(monkeypatch):
    _, fr = noisy_frame()
    const_sil = np.zeros((12, 12), dtype=bool)
    const_sil[3:9, 3:9] = True
    cases = [
        (fr.uv_raw, fr.image, OptConfig(max_steps=12, lr=1e6)),
        (fr.uv_raw, fr.image, OptConfig(max_steps=6, lr=1e6, lr_floor=1e4)),
        (*clamp_scene(), OptConfig(alpha1=0.0, alpha2=0.01, lr=1e-3, max_steps=30)),
        (UVMap(np.zeros((12, 12, 2)), const_sil),
         Field2(np.full((12, 12, 1), 0.5), valid=const_sil.astype(np.float64)),
         OptConfig(max_steps=200, window=10)),
    ]
    seen = set()
    for P, I, cfg in cases:
        uv, l_app, l_reg, lr, clamped, candidates, rejected, stop = \
            reference_optimize(P, I, cfg)
        calls = []

        def counting(*args, _f=gradcore.forward_app, **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(uvopt, "forward_app", counting)
            mp.setattr(gradcore, "forward_app", counting)   # grad_app's own pass
            out, tr = optimize_uv(P, I, cfg)
        assert len(calls) == 1 + candidates
        assert out.uv.data.tobytes() == UVMap(uv, P.silhouette).uv.data.tobytes()
        assert np.array(tr.l_app).tobytes() == np.array(l_app).tobytes()
        assert np.array(tr.l_reg).tobytes() == np.array(l_reg).tobytes()
        assert (tr.steps, tr.lr_final, tr.clamped, tr.rejected, tr.stop_reason) == \
            (len(l_app), lr, clamped, rejected, stop)
        seen.add((stop, clamped > 0, rejected > 0, lr < cfg.lr_floor))
    # the cases reach convergence, clipping, rejection and a held position
    assert {s[0] for s in seen} == {"max_steps", "converged"}
    assert any(s[1] for s in seen) and any(s[2] for s in seen) and any(s[3] for s in seen)

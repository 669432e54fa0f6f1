import numpy as np
import pytest
import scipy.sparse.linalg

from uvweave import (CorruptConfig, Field2, OptConfig, SceneConfig, UVMap,
                     ValidationError, corrupt, gen_sequence, optimize_uv)
from uvweave import gradcore, uvopt
from uvweave.gradcore import grad_reg
from uvweave.uvopt import data_weight


def noisy_frame(seed=3, noise=0.02):
    fs = gen_sequence(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48,
                                  frames=1, seed=seed))
    fs_c = corrupt(fs, CorruptConfig(uv_noise=noise, seed=1))
    return fs.frames[0], fs_c.frames[0]


def test_config_validation():
    with pytest.raises(ValidationError):
        OptConfig(alpha1=-1.0)
    with pytest.raises(ValidationError):
        OptConfig(alpha2=-1.0)


def test_data_weight_grows_as_fourth_power_of_size():
    # l_reg's second differences grow as w^4, so mu keeps pace with them
    assert data_weight(64, 64) == 1.2e7
    assert data_weight(128, 128) == 16 * 1.2e7
    assert data_weight(128, 64) == 4 * 1.2e7


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
    out, tr = optimize_uv(fr.uv_raw, fr.image)
    t = tr.total
    assert all(b <= a for a, b in zip(t, t[1:]))
    assert t[-1] < 0.01 * t[0]
    assert tr.steps == len(tr.l_app) == len(tr.l_reg) == 2
    assert (out.silhouette == fr.uv_raw.silhouette).all()
    assert tr.residual < 1e-10


def test_ground_truth_nearly_stationary():
    gt, _ = noisy_frame()
    out, tr = optimize_uv(gt.uv_gt, gt.image, OptConfig())
    t = tr.total
    assert all(b <= a for a, b in zip(t, t[1:]))
    # only the smoothness/appearance trade-off moves points, and barely
    assert np.abs(out.uv.data - gt.uv_gt.uv.data).max() < 5e-3


def test_converged_on_constant_image():
    sil = np.zeros((12, 12), dtype=bool)
    sil[3:9, 3:9] = True
    P = UVMap(np.zeros((12, 12, 2)), sil)
    I = Field2(np.full((12, 12, 1), 0.5), valid=sil.astype(np.float64))
    out, tr = optimize_uv(P, I)
    assert tr.residual == 0.0
    assert (out.uv.data == P.uv.data).all()


def test_texture_size_defaults_to_image():
    _, fr = noisy_frame()
    out_a, tr_a = optimize_uv(fr.uv_raw, fr.image)
    out_b, tr_b = optimize_uv(fr.uv_raw, fr.image, OptConfig(), 48, 48)
    assert (out_a.uv.data == out_b.uv.data).all()
    assert tr_a.l_app == tr_b.l_app


def test_solve_is_stationary():
    # the output minimizes mu |x - x_ext|^2 + l_reg(x): its gradient,
    # 2 mu (x - x_ext) + grad_reg(x), vanishes on the silhouette
    _, fr = noisy_frame()
    sil = np.zeros((48, 48), dtype=bool)
    sil[4:44, 6:40] = True
    sil[18:30, 14:26] = False                        # a hole makes it non-convex
    holed = UVMap(fr.uv_raw.uv.data, fr.uv_raw.silhouette & sil)
    cfg = OptConfig()
    for P, I in ((fr.uv_raw, fr.image), (holed, Field2(fr.image.data))):
        out, _ = optimize_uv(P, I, cfg)
        g_reg = grad_reg(out, cfg.alpha1, cfg.alpha2).grad.data
        g = 2.0 * data_weight(48, 48) * (out.uv.data - P.uv.data) + g_reg
        assert np.abs(g).max() <= 1e-8 * np.abs(g_reg).max()
        assert np.abs(g_reg).max() > 0.0


def test_one_factorization_per_frame(monkeypatch):
    # one LU factorization serves both UV channels, and one regularizer
    # operator serves the solve and both l_reg entries of the trace
    _, fr = noisy_frame()
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        counting("splu", scipy.sparse.linalg.splu))
    reg = counting("reg", gradcore.reg_operator)
    monkeypatch.setattr(uvopt, "reg_operator", reg)
    monkeypatch.setattr(gradcore, "reg_operator", reg)       # loss_reg would build another
    _, tr = optimize_uv(fr.uv_raw, fr.image)
    assert sorted(calls) == ["reg", "splu"]
    assert len(tr.l_reg) == 2

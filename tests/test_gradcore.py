import numpy as np
import pytest

from uvweave import (Field2, SceneConfig, UVMap, ValidationError, fd_probe_check,
                     gen_sequence, grad_app, grad_reg, loss_app, loss_reg)
from uvweave.gradcore import reg_operator


def rand_scene(seed, size=8):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0.1, 0.9, size=(size, size, 3))
    sil = np.ones((size, size), dtype=bool)
    uv = rng.uniform(0.25, 0.65, size=(size, size, 2)) / size
    return UVMap(uv, sil), Field2(img), rng


def interior_probes(rng, size, n):
    ys = rng.integers(1, size - 1, size=n)
    xs = rng.integers(1, size - 1, size=n)
    cs = rng.integers(0, 2, size=n)
    return np.stack([ys, xs, cs], axis=1)


def test_grad_app_matches_finite_differences():
    for seed in (0, 1, 2):
        P, I, rng = rand_scene(seed)
        probes = interior_probes(rng, 8, 12)
        err = fd_probe_check(P, I, alpha1=0.0, alpha2=0.0, probes=probes, eps=1e-3)
        assert err < 1e-3, f"seed {seed}: rel err {err}"


def test_grad_reg_matches_finite_differences():
    rng = np.random.default_rng(3)
    P, _, _ = rand_scene(3)
    base = loss_reg(P, 100.0, 10.0)
    rep = grad_reg(P, 100.0, 10.0)
    eps = 1e-6
    for y, x, c in interior_probes(rng, 8, 10):
        d = np.zeros((8, 8, 2))
        d[y, x, c] = eps
        Pp = UVMap(P.uv.data + d, P.silhouette)
        Pm = UVMap(P.uv.data - d, P.silhouette)
        fd = (loss_reg(Pp, 100.0, 10.0) - loss_reg(Pm, 100.0, 10.0)) / (2 * eps)
        assert abs(rep.grad.data[y, x, c] - fd) / max(abs(fd), 1e-8) < 1e-5
    assert rep.l_reg == pytest.approx(base)


def test_constant_image_zero_loss_and_grad():
    P, _, _ = rand_scene(4)
    I = Field2.constant(8, 8, (0.3, 0.5, 0.2))
    assert loss_app(P, I) == pytest.approx(0.0, abs=1e-18)
    rep = grad_app(P, I)
    assert np.allclose(rep.grad.data, 0.0, atol=1e-12)


def test_constant_uv_zero_reg():
    sil = np.ones((8, 8), dtype=bool)
    P = UVMap(np.full((8, 8, 2), 0.03), sil)
    assert loss_reg(P, 100.0, 10.0) == 0.0
    assert (grad_reg(P, 100.0, 10.0).grad.data == 0.0).all()


def test_affine_uv_zero_hessian_term():
    from uvweave.fields import pixel_center_grid
    sil = np.ones((8, 8), dtype=bool)
    c = pixel_center_grid(8, 8)
    uv = 0.02 * c[..., :1] + 0.01 * c[..., 1:] + np.zeros((8, 8, 2))
    P = UVMap(uv, sil)
    assert loss_reg(P, 0.0, 10.0) == pytest.approx(0.0, abs=1e-18)
    g = grad_reg(P, 100.0, 10.0).grad.data
    assert np.allclose(g[2:-2, 2:-2], 0.0, atol=1e-9)


def test_grad_reg_scaling_exact():
    P, _, _ = rand_scene(5)
    g1 = grad_reg(P, 100.0, 10.0)
    g2 = grad_reg(P, 200.0, 20.0)   # power-of-two scale: exact in IEEE
    assert (g2.grad.data == 2.0 * g1.grad.data).all()
    assert g2.l_reg == 2.0 * g1.l_reg


def test_grad_zero_outside_silhouette():
    rng = np.random.default_rng(6)
    sil = np.ones((8, 8), dtype=bool)
    sil[:2] = False
    uv = np.where(sil[..., None], rng.uniform(0.02, 0.08, size=(8, 8, 2)), 0.0)
    P = UVMap(uv, sil)
    I = Field2(rng.uniform(size=(8, 8, 3)))
    rep = grad_app(P, I)
    assert (rep.grad.data[:2] == 0.0).all()
    rep2 = grad_reg(P, 100.0, 10.0)
    assert (rep2.grad.data[:2] == 0.0).all()


def test_resolution_mismatch_error():
    P, _, _ = rand_scene(7)
    I = Field2(np.zeros((6, 6, 3)))
    with pytest.raises(ValidationError, match="resolution"):
        loss_app(P, I)


def test_reg_min_size_error():
    sil = np.ones((4, 4), dtype=bool)
    P = UVMap(np.zeros((4, 4, 2)), sil)
    with pytest.raises(ValidationError):
        loss_reg(P, 1.0, 1.0)
    with pytest.raises(ValidationError):
        reg_operator(sil, 1.0, 1.0)


def test_texture_size_defaults_to_image():
    P, I, _ = rand_scene(8)
    assert loss_app(P, I) == pytest.approx(loss_app(P, I, tex_w=8, tex_h=8))


def scene_fixture():
    cfg = SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48, frames=2,
                      seed=3, amplitude=0.015, frequency=1.5)
    fs = gen_sequence(cfg)
    fr = fs.frames[1]
    I = Field2(fr.image.data, valid=fr.mask.astype(np.float64))
    return fr.uv_gt, I, fr.mask


def test_ground_truth_loss_below_interpolation_floor():
    P, I, mask = scene_fixture()
    assert loss_app(P, I) / mask.sum() < 1e-3


def test_duplicated_block_raises_loss():
    P, I, _ = scene_fixture()
    uv = P.uv.data.copy()
    c0 = uv[24, 24].copy()
    from uvweave.fields import pixel_center_grid
    centers = pixel_center_grid(48, 48)
    uv[20:30, 20:30] = centers[20:30, 20:30] - (centers[24, 24] - c0)
    P_dup = UVMap(uv, P.silhouette)
    assert loss_app(P_dup, I) > loss_app(P, I)


def test_near_stationary_at_ground_truth():
    # A texture finer than the image gives every pixel its own texel, so
    # the resampling floor (and its gradient) vanishes at the optimum.
    P, I, _ = scene_fixture()
    g_star = np.abs(grad_app(P, I, tex_w=192, tex_h=192).grad.data).max()
    rng = np.random.default_rng(9)
    noise = rng.normal(0.0, 0.01, size=P.uv.data.shape) * P.silhouette[..., None]
    P_bad = UVMap(P.uv.data + noise, P.silhouette)
    g_bad = np.abs(grad_app(P_bad, I, tex_w=192, tex_h=192).grad.data).max()
    assert g_star <= 1e-3 * g_bad


def test_loss_report_fields():
    P, I, _ = rand_scene(10)
    rep = grad_app(P, I)
    assert rep.grad.data.shape == (8, 8, 2)
    assert rep.l_app >= 0.0
    assert rep.l_app == pytest.approx(loss_app(P, I))


def _reg_terms(P: UVMap, alpha1: float, alpha2: float):
    """Reference regularizer: its five stencils written out on the grid,
    each kept where all its taps lie in the silhouette, and their adjoint
    by hand.  Returns (loss, gradient)."""
    uv = P.uv.data
    m = P.silhouette
    h, w = m.shape
    g = np.zeros_like(uv)

    dx = (uv[:, 1:] - uv[:, :-1]) * w
    dx *= (m[:, 1:] & m[:, :-1])[..., None]
    dy = (uv[1:] - uv[:-1]) * h
    dy *= (m[1:] & m[:-1])[..., None]
    l = alpha1 * (np.sum(dx * dx) + np.sum(dy * dy))
    t = 2.0 * alpha1 * dx * w
    g[:, 1:] += t
    g[:, :-1] -= t
    t = 2.0 * alpha1 * dy * h
    g[1:] += t
    g[:-1] -= t

    # second differences; the mixed term appears twice in the Hessian
    hxx = (uv[:, 2:] - 2.0 * uv[:, 1:-1] + uv[:, :-2]) * (w * w)
    hxx *= (m[:, 2:] & m[:, 1:-1] & m[:, :-2])[..., None]
    hyy = (uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) * (h * h)
    hyy *= (m[2:] & m[1:-1] & m[:-2])[..., None]
    hxy = (uv[1:, 1:] - uv[1:, :-1] - uv[:-1, 1:] + uv[:-1, :-1]) * (w * h)
    hxy *= (m[1:, 1:] & m[1:, :-1] & m[:-1, 1:] & m[:-1, :-1])[..., None]
    l += alpha2 * (np.sum(hxx * hxx) + np.sum(hyy * hyy) + 2.0 * np.sum(hxy * hxy))
    t = 2.0 * alpha2 * hxx * (w * w)
    g[:, 2:] += t
    g[:, 1:-1] -= 2.0 * t
    g[:, :-2] += t
    t = 2.0 * alpha2 * hyy * (h * h)
    g[2:] += t
    g[1:-1] -= 2.0 * t
    g[:-2] += t
    t = 4.0 * alpha2 * hxy * (w * h)
    g[1:, 1:] += t
    g[1:, :-1] -= t
    g[:-1, 1:] -= t
    g[:-1, :-1] += t
    return float(l), g


def test_reg_matrix_matches_reg_terms():
    # loss_reg, grad_reg and the solve's H = D' diag(w) D all match the
    # stencils written out: v'Hv is the loss and Hv half the gradient,
    # channel by channel
    rng = np.random.default_rng(12)
    yy, xx = np.mgrid[0:24, 0:20]
    ring = (np.hypot(yy - 12, xx - 10) < 9) & (np.hypot(yy - 12, xx - 10) > 4)
    sils = [np.ones((5, 5), dtype=bool), rng.uniform(size=(5, 5)) < 0.7,
            rng.uniform(size=(16, 13)) < 0.75, ring, np.ones((9, 7), dtype=bool)]
    sils[-1][3:6, 2:5] = False
    for sil in sils:
        for a1, a2 in ((100.0, 10.0), (0.0, 3.0), (2.0, 0.0)):
            P = UVMap(rng.normal(size=sil.shape + (2,)), sil)
            l, g = _reg_terms(P, a1, a2)
            tol = 1e-12 * max(np.abs(g).max(), 1.0)
            rep = grad_reg(P, a1, a2)
            assert np.abs(rep.grad.data - g).max() <= tol
            assert rep.l_reg == loss_reg(P, a1, a2) == pytest.approx(l, rel=1e-12, abs=1e-9)
            H = reg_operator(sil, a1, a2).matrix()
            v = P.uv.data[sil]
            Hv = H @ v
            assert np.abs(Hv - 0.5 * g[sil]).max() <= tol
            assert np.einsum("nc,nc->", v, Hv) == pytest.approx(l, rel=1e-12, abs=1e-9)

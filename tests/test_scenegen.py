"""Tests for the synthetic scene generator and its controlled corruptions."""

import numpy as np
import pytest
import scipy.ndimage as ndi

from uvweave.errors import ValidationError
from uvweave.fields import sample_bilinear
from uvweave.metrics import loss_img_s, metric_psnr
from uvweave.relocate import frame_zero_products
from uvweave.scenegen import CorruptConfig, SceneConfig, corrupt, gen_sequence

import uvweave.scenegen as scenegen


def small_cfg(**kw):
    base = dict(image_w=48, image_h=48, tex_w=48, tex_h=48,
                frames=4, seed=3, amplitude=0.02, frequency=1.5)
    base.update(kw)
    return SceneConfig(**base)


def test_gen_deterministic_bit_identical():
    a = gen_sequence(small_cfg())
    b = gen_sequence(small_cfg())
    assert np.array_equal(a.texture.data, b.texture.data)
    assert len(a.frames) == len(b.frames) == 4
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.image.data, fb.image.data)
        assert np.array_equal(fa.mask, fb.mask)
        assert np.array_equal(fa.uv_gt.uv.data, fb.uv_gt.uv.data)
        assert np.array_equal(fa.corr_gt.data, fb.corr_gt.data)
        assert np.array_equal(fa.corr_gt.valid, fb.corr_gt.valid)


def test_gen_seed_changes_texture():
    a = gen_sequence(small_cfg(seed=3))
    b = gen_sequence(small_cfg(seed=4))
    assert not np.array_equal(a.texture.data, b.texture.data)


def test_zero_amplitude_is_static():
    fs = gen_sequence(small_cfg(amplitude=0.0))
    f0 = fs.frames[0]
    for fr in fs.frames[1:]:
        assert np.array_equal(fr.image.data, f0.image.data)
        assert np.array_equal(fr.uv_gt.uv.data, f0.uv_gt.uv.data)
        assert np.array_equal(fr.corr_gt.data, f0.corr_gt.data)


def test_frame_zero_correspondence_is_identity():
    fs = gen_sequence(small_cfg())
    corr0 = fs.frames[0].corr_gt
    centers = scenegen.pixel_center_grid(48, 48)
    assert np.allclose(corr0.data[corr0.valid], centers[corr0.valid],
                       atol=1e-12)


def test_silhouette_and_pattern_variants_build():
    for sil in ("ellipse", "blobs"):
        for pat in ("blobs", "checker", "grid"):
            fs = gen_sequence(small_cfg(frames=2, silhouette=sil, pattern=pat))
            assert fs.frames[0].mask.any()
            img = fs.frames[0].image.data
            assert img[fs.frames[0].mask].min() >= 0.0
            assert img[fs.frames[0].mask].max() <= 1.0


def test_single_frame_sequence():
    fs = gen_sequence(small_cfg(frames=1))
    assert len(fs.frames) == 1
    assert fs.frames[0].index == 0


def test_config_validation():
    with pytest.raises(ValidationError, match="at least 32"):
        small_cfg(image_w=16)
    with pytest.raises(ValidationError, match="at least one frame"):
        small_cfg(frames=0)
    with pytest.raises(ValidationError, match="unknown silhouette"):
        small_cfg(silhouette="square")
    with pytest.raises(ValidationError, match="unknown pattern"):
        small_cfg(pattern="stripes")
    with pytest.raises(ValidationError, match="amplitude"):
        small_cfg(amplitude=-0.1)
    with pytest.raises(ValidationError, match="degenerate deformation"):
        small_cfg(amplitude=0.2, frequency=2.0)
    # with no motion the amplitude bound passes, but the phase 2*pi*frequency
    # would overflow
    with pytest.raises(ValidationError, match="frequency must keep 2\\*pi\\*frequency finite"):
        small_cfg(amplitude=0.0, frequency=1e308)


def test_empty_silhouette_rejected(monkeypatch):
    monkeypatch.setattr(scenegen, "_silhouette",
                        lambda cfg: np.zeros((cfg.image_h, cfg.image_w), dtype=bool))
    with pytest.raises(ValidationError, match="empty silhouette"):
        gen_sequence(small_cfg())


def test_images_consistent_with_uv_and_texture():
    # Rebuilding the reference texture from frame 0 and rendering every frame
    # through its ground-truth UVs must reproduce the frames closely.
    fs = gen_sequence(small_cfg(frames=4))
    f0 = fs.frames[0]
    T_o, _ = frame_zero_products(f0.uv_gt, f0.image, 48, 48)
    for fr in fs.frames:
        n = int(fr.uv_gt.silhouette.sum())
        l = loss_img_s(fr.uv_gt, T_o, fr.image)
        rmse = np.sqrt(l / (3 * n))
        assert rmse < 0.05


def test_correspondence_maps_to_frame_zero_chart():
    # Composing frame t's chart coordinates with its recorded correspondence
    # field yields frame-0 chart coordinates of the same material point:
    # sampling the shared texture there reproduces the frame.
    fs = gen_sequence(small_cfg(frames=4))
    for fr in fs.frames:
        sil = fr.uv_gt.silhouette
        c = scenegen.pixel_center_grid(48, 48)
        u = (c - fr.uv_gt.uv.data)[sil]
        q0, _ = sample_bilinear(fr.corr_gt, u)
        vals, _ = sample_bilinear(fs.texture, q0)
        ref = fr.image.data[sil]
        mse = float(np.mean((vals - ref) ** 2))
        psnr = 10.0 * np.log10(1.0 / max(mse, 1e-12))
        assert psnr >= 30.0


def test_corrupt_zero_config_is_identity():
    fs = gen_sequence(small_cfg(frames=2))
    out = corrupt(fs, CorruptConfig())
    for fr, raw in zip(fs.frames, out.frames):
        assert np.array_equal(raw.uv_raw.uv.data, fr.uv_gt.uv.data)
        assert np.array_equal(raw.uv_raw.silhouette, fr.uv_gt.silhouette)
        assert np.array_equal(raw.uv_gt.uv.data, fr.uv_gt.uv.data)


def test_corrupt_margin_erodes_silhouette():
    fs = gen_sequence(small_cfg(frames=2))
    out = corrupt(fs, CorruptConfig(margin=2))
    for fr, raw in zip(fs.frames, out.frames):
        sil = fr.uv_gt.silhouette
        eroded = ndi.binary_erosion(sil, iterations=2)
        assert np.array_equal(raw.uv_raw.silhouette, eroded)
        assert np.all(raw.uv_raw.uv.data[~eroded] == 0.0)
        assert np.array_equal(raw.uv_raw.uv.data[eroded], fr.uv_gt.uv.data[eroded])


def test_corrupt_margin_vanishes_silhouette():
    fs = gen_sequence(small_cfg(frames=1))
    with pytest.raises(ValidationError, match="vanishes"):
        corrupt(fs, CorruptConfig(margin=24))


def test_corrupt_noise_and_blocks_increase_render_loss():
    fs = gen_sequence(small_cfg(frames=3))
    out = corrupt(fs, CorruptConfig(dup_blocks=4, dup_size=6, uv_noise=0.01, seed=1))
    f0 = fs.frames[0]
    T_o, _ = frame_zero_products(f0.uv_gt, f0.image, 48, 48)
    for fr, raw in zip(fs.frames, out.frames):
        l_gt = loss_img_s(fr.uv_gt, T_o, fr.image)
        l_raw = loss_img_s(raw.uv_raw, T_o, fr.image)
        assert l_raw > 2.0 * l_gt


def test_corrupt_deterministic():
    fs = gen_sequence(small_cfg(frames=2))
    a = corrupt(fs, CorruptConfig(dup_blocks=3, uv_noise=0.02, jitter=0.01, seed=7))
    b = corrupt(fs, CorruptConfig(dup_blocks=3, uv_noise=0.02, jitter=0.01, seed=7))
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.uv_raw.uv.data, fb.uv_raw.uv.data)
        assert np.array_equal(fa.uv_raw.silhouette, fb.uv_raw.silhouette)


def test_corrupt_config_validation():
    with pytest.raises(ValidationError, match="bad corruption"):
        CorruptConfig(margin=-1)
    with pytest.raises(ValidationError, match="bad corruption"):
        CorruptConfig(dup_size=0)
    with pytest.raises(ValidationError, match="bad corruption"):
        CorruptConfig(uv_noise=-0.5)


def test_corrupt_requires_ground_truth():
    fs = gen_sequence(small_cfg(frames=1))
    fs.frames[0].uv_gt = None
    with pytest.raises(ValidationError, match="ground-truth"):
        corrupt(fs, CorruptConfig())


def test_corrupted_frames_keep_images_and_psnr_reference():
    # The corruption touches UVs only; images stay bit-identical, so any
    # recovery improvement is attributable to the UV pipeline.
    fs = gen_sequence(small_cfg(frames=2))
    out = corrupt(fs, CorruptConfig(margin=1, uv_noise=0.05, seed=2))
    for fr, raw in zip(fs.frames, out.frames):
        assert np.array_equal(raw.image.data, fr.image.data)
        assert metric_psnr(raw.image, fr.image) == 99.0

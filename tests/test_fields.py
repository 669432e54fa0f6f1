import numpy as np
import pytest

from uvweave import Field2, ValidationError, pixel_center_grid, sample_bilinear
from uvweave.fields import MAX_CHANNELS


def brute_bilinear(data, x, y):
    """Reference bilinear sample with clamp-to-edge, in normalized coords."""
    h, w = data.shape[:2]
    gx = min(max(x * w - 0.5, 0.0), w - 1.0)
    gy = min(max(y * h - 0.5, 0.0), h - 1.0)
    x0, y0 = int(np.floor(gx)), int(np.floor(gy))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = gx - x0, gy - y0
    return ((1 - fx) * (1 - fy) * data[y0, x0] + fx * (1 - fy) * data[y0, x1]
            + (1 - fx) * fy * data[y1, x0] + fx * fy * data[y1, x1])


def test_field_validation():
    with pytest.raises(ValidationError):
        Field2(np.full((4, 4, 1), np.nan))
    with pytest.raises(ValidationError):
        Field2(np.zeros((4, 4, MAX_CHANNELS + 1)))
    with pytest.raises(ValidationError):
        Field2(np.zeros((4, 4, 1)), valid=np.ones((3, 4), dtype=bool))
    f = Field2(np.zeros((4, 5, 2)))
    assert (f.width, f.height, f.channels) == (5, 4, 2)


def test_constant_field_any_point():
    f = Field2.constant(4, 4, (0.7,))
    for p in [(0.1, 0.9), (0.5, 0.5), (-3.0, 7.0)]:
        v, ok = sample_bilinear(f, np.array(p))
        assert v == pytest.approx(0.7, abs=0)
        assert ok == 1.0


def test_two_by_two_center():
    f = Field2(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(2, 2, 1))
    v, ok = sample_bilinear(f, np.array([0.5, 0.5]))
    assert float(v[0]) == pytest.approx(1.5)
    assert ok == 1.0


def test_pixel_center_exactness():
    rng = np.random.default_rng(0)
    data = rng.uniform(size=(6, 5, 3))
    f = Field2(data)
    g = pixel_center_grid(5, 6)
    v, ok = sample_bilinear(f, g)
    assert (v == data).all()
    assert (ok == 1.0).all()


def test_bilinear_matches_bruteforce():
    rng = np.random.default_rng(1)
    data = rng.uniform(size=(7, 9, 2))
    f = Field2(data)
    pts = rng.uniform(-0.2, 1.2, size=(50, 2))
    v, _ = sample_bilinear(f, pts)
    for k in range(50):
        ref = brute_bilinear(data, pts[k, 0], pts[k, 1])
        assert np.allclose(v[k], ref, atol=1e-12)


def test_clamp_to_edge():
    data = np.arange(12, dtype=float).reshape(3, 4, 1)
    f = Field2(data)
    v, _ = sample_bilinear(f, np.array([-5.0, 0.5]))
    left = brute_bilinear(data, 0.0, 0.5)
    assert np.allclose(v, left)


def test_empty_and_far_coordinates():
    # no points at all, and points far past every edge, which clamp
    # without an int64 overflow in the index cast
    data = np.arange(12, dtype=float).reshape(3, 4, 1)
    f = Field2(data)
    v, valid = sample_bilinear(f, np.zeros((0, 2)))
    assert v.shape == (0, 1) and valid.shape == (0,)
    v, _ = sample_bilinear(f, np.array([[-1e30, -1e30], [1e30, 1e30], [1e30, -1e30]]))
    assert v[:, 0].tolist() == [data[0, 0, 0], data[2, 3, 0], data[0, 3, 0]]


def test_nonfinite_coordinate_error():
    f = Field2.constant(4, 4, (0.0,))
    with pytest.raises(ValidationError, match="invalid coordinate"):
        sample_bilinear(f, np.array([np.nan, 0.5]))


def test_validity_fraction():
    valid = np.ones((2, 2), dtype=bool)
    valid[0, 0] = False
    f = Field2(np.ones((2, 2, 1)), valid=valid)
    _, ok = sample_bilinear(f, np.array([0.5, 0.5]))
    assert float(ok) == pytest.approx(0.75)


def test_pixel_center_grid_formula():
    g = pixel_center_grid(4, 2)
    assert g.shape == (2, 4, 2)
    assert g[0, 0, 0] == pytest.approx(0.5 / 4)
    assert g[0, 0, 1] == pytest.approx(0.5 / 2)
    assert g[1, 3, 0] == pytest.approx(3.5 / 4)
    assert g[1, 3, 1] == pytest.approx(1.5 / 2)


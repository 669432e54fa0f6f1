"""Tests for the PFM / PPM readers and writers."""

import numpy as np
import pytest

from uvweave.errors import ValidationError
from uvweave.formats import read_pfm, read_pfm_samples, read_ppm, write_pfm, write_ppm
from uvweave.relocate import read_flo


def huge_headers(tmp_path, w, h):
    """A PFM, a PPM and a .flo file whose headers claim w x h pixels over a
    12-byte body; returns (path, reader, message) triples."""
    body = bytes(12)
    pfm, ppm, flo = tmp_path / "big.pfm", tmp_path / "big.ppm", tmp_path / "big.flo"
    pfm.write_bytes(f"PF\n{w} {h}\n-1.0\n".encode() + body)
    ppm.write_bytes(f"P6\n{w} {h}\n255\n".encode() + body)
    flo.write_bytes(b"PIEH" + np.array([w, h], dtype="<i4").tobytes() + body)
    return [(pfm, read_pfm_samples, "truncated pfm data"),
            (ppm, read_ppm, "truncated ppm data"),
            (flo, read_flo, "truncated .flo data")]


def test_pfm_roundtrip_three_channel(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        arr = rng.normal(size=(7, 11, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / f"t{trial}.pfm"
        write_pfm(p, arr)
        back = read_pfm(p)
        assert back.shape == (7, 11, 3)
        assert np.array_equal(back, arr)


def test_pfm_roundtrip_single_channel(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(5, 4)).astype(np.float32).astype(np.float64)
    p = tmp_path / "g.pfm"
    write_pfm(p, arr)
    back = read_pfm(p)
    assert back.shape == (5, 4, 1)
    assert np.array_equal(back[..., 0], arr)


def test_pfm_cross_endian(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(6, 6, 3)).astype(np.float32).astype(np.float64)
    p_le = tmp_path / "le.pfm"
    p_be = tmp_path / "be.pfm"
    write_pfm(p_le, arr, byte_order="<")
    write_pfm(p_be, arr, byte_order=">")
    assert np.array_equal(read_pfm(p_le), read_pfm(p_be))
    # the scale sign flags the order
    assert b"-1.0" in p_le.read_bytes()[:32]
    assert b"\n1.0" in p_be.read_bytes()[:32]


def test_pfm_preserves_special_values(tmp_path):
    arr = np.array([[[0.0, -0.0, np.inf], [-np.inf, 1e-38, -1e38]]])
    p = tmp_path / "s.pfm"
    write_pfm(p, arr)
    back = read_pfm(p)
    assert np.array_equal(np.isinf(back), np.isinf(arr))
    fin = np.isfinite(arr)
    assert np.array_equal(back[fin], arr[fin].astype(np.float32).astype(np.float64))
    assert np.signbit(back[0, 0, 1])


def test_pfm_row_order_is_top_down(tmp_path):
    arr = np.zeros((2, 2, 1))
    arr[0, 0, 0] = 1.0   # top-left
    p = tmp_path / "o.pfm"
    write_pfm(p, arr)
    raw = p.read_bytes()
    body = raw[len(b"Pf\n2 2\n-1.0\n"):]
    first = np.frombuffer(body[:4], dtype="<f4")[0]
    assert first == 1.0


def test_pfm_write_validation(tmp_path):
    with pytest.raises(ValidationError, match="1 or 3 channels"):
        write_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 2)))
    with pytest.raises(ValidationError, match="1 or 3 channels"):
        write_pfm(tmp_path / "x.pfm", np.zeros(16))
    with pytest.raises(ValidationError, match="byte order"):
        write_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 3)), byte_order="=")


def test_pfm_bad_magic(tmp_path):
    p = tmp_path / "bad.pfm"
    p.write_bytes(b"PX\n2 2\n-1.0\n" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="bad magic"):
        read_pfm(p)


def test_pfm_bad_header_fields(tmp_path):
    p = tmp_path / "bad.pfm"
    p.write_bytes(b"Pf\ntwo 2\n-1.0\n")
    with pytest.raises(ValidationError, match="bad dimensions or scale"):
        read_pfm(p)
    p.write_bytes(b"Pf\n2 2\n0.0\n" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="bad dimensions or scale"):
        read_pfm(p)
    p.write_bytes(b"Pf\n0 2\n-1.0\n")
    with pytest.raises(ValidationError, match="bad dimensions or scale"):
        read_pfm(p)


def test_pfm_truncated_header_reports_offset(tmp_path):
    p = tmp_path / "trunc.pfm"
    p.write_bytes(b"Pf\n2 ")
    with pytest.raises(ValidationError, match="end of file at byte 5"):
        read_pfm(p)


def test_pfm_truncated_data_reports_offset(tmp_path):
    p = tmp_path / "trunc.pfm"
    good = np.ones((2, 2, 1))
    write_pfm(p, good)
    raw = p.read_bytes()
    p.write_bytes(raw[:-6])
    header_len = len(b"Pf\n2 2\n-1.0\n")
    with pytest.raises(ValidationError,
                       match=f"truncated pfm data at byte {header_len + 10}"):
        read_pfm(p)


@pytest.mark.parametrize("w, h", [(2000000000, 2000000000), (40000, 40000)])
def test_huge_header_is_truncated_data(tmp_path, w, h):
    # the header's byte count is checked against the file before reading:
    # it overflowed a read's size, or asked for gigabytes of memory
    for path, reader, message in huge_headers(tmp_path, w, h):
        with pytest.raises(ValidationError, match=message):
            reader(path)


def test_flo_short_header_and_odd_body(tmp_path):
    p = tmp_path / "short.flo"
    p.write_bytes(b"PIEH\x02\x00\x00")
    with pytest.raises(ValidationError, match="truncated .flo header"):
        read_flo(p)
    p.write_bytes(b"PIEH" + np.array([1, 1], dtype="<i4").tobytes() + bytes(5))
    with pytest.raises(ValidationError, match="truncated .flo data"):
        read_flo(p)


def test_ppm_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.uniform(size=(9, 5, 3))
    p = tmp_path / "c.ppm"
    write_ppm(p, arr)
    back = read_ppm(p)
    # round trip is exact at the 8-bit lattice
    assert np.array_equal(np.rint(back * 255.0), np.rint(arr * 255.0))
    assert np.max(np.abs(back - arr)) <= 0.5 / 255.0 + 1e-12


def test_ppm_quantization_rule(tmp_path):
    # round-half-to-even on the 255 scale, clipped to [0, 1]
    arr = np.array([[[-0.5, 0.0, 0.5 / 255.0],
                     [1.5 / 255.0, 1.0, 2.0]]])
    p = tmp_path / "q.ppm"
    write_ppm(p, arr)
    raw = p.read_bytes()
    body = raw[len(b"P6\n2 1\n255\n"):]
    assert list(body) == [0, 0, 0, 2, 255, 255]


def test_ppm_row_order_is_top_down(tmp_path):
    arr = np.zeros((2, 1, 3))
    arr[0, 0] = 1.0
    p = tmp_path / "o.ppm"
    write_ppm(p, arr)
    body = p.read_bytes()[len(b"P6\n1 2\n255\n"):]
    assert list(body) == [255, 255, 255, 0, 0, 0]


def test_ppm_validation(tmp_path):
    with pytest.raises(ValidationError, match="HxWx3"):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValidationError, match="bad magic"):
        read_ppm(p)
    p.write_bytes(b"P6\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValidationError, match="unsupported ppm"):
        read_ppm(p)
    p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(ValidationError, match="truncated ppm"):
        read_ppm(p)


def test_header_tokens_accept_arbitrary_whitespace(tmp_path):
    arr = np.full((2, 3, 1), 0.25, dtype=np.float64)
    p = tmp_path / "w.pfm"
    body = arr.astype("<f4").tobytes()
    p.write_bytes(b"Pf \t\n 3\n2 \n-1.0\n" + body)
    assert np.array_equal(read_pfm(p)[..., 0], arr[..., 0])

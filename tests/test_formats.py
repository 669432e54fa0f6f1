"""Tests for the PFM / PPM readers and writers and the artifact writer."""

import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import uvweave
from uvweave.errors import ValidationError
from uvweave.formats import (overwrite, read_pfm, read_pfm_samples, read_ppm, write_json,
                             write_pfm, write_ppm)
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


# -- the artifact writer -------------------------------------------------------

def test_overwrite_leaves_exactly_the_new_bytes(tmp_path):
    p = tmp_path / "a.bin"
    overwrite(p, b"x" * 100)
    assert p.read_bytes() == b"x" * 100
    overwrite(p, b"ab", memoryview(b"cd"), b"")        # shorter, over a longer file
    assert p.read_bytes() == b"abcd"
    overwrite(p)
    assert p.read_bytes() == b""
    overwrite(p, b"0123456789")                         # longer again
    assert p.read_bytes() == b"0123456789"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    p = tmp_path / "x.json"
    write_json(p, {"a": 1.5})
    with pytest.raises(ValueError):
        write_json(p, {"a": [0.0, value]})
    assert p.read_text() == '{"a": 1.5}\n'


def test_overwrite_behaves_as_open_wb(tmp_path):
    # a new file gets open()'s mode, an existing one keeps its own
    ref, new = tmp_path / "ref", tmp_path / "new"
    with open(ref, "wb"):
        pass
    overwrite(new, b"1")
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
    os.chmod(new, 0o640)
    overwrite(new, b"22")
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    # a symlink is written through, and stays a link
    link = tmp_path / "link"
    link.symlink_to(new)
    overwrite(link, b"3")
    assert link.is_symlink() and new.read_bytes() == b"3"
    # a dangling link creates its target
    gone = tmp_path / "gone"
    (tmp_path / "dangling").symlink_to(gone)
    overwrite(tmp_path / "dangling", b"4")
    assert gone.read_bytes() == b"4"
    # the same errors as open(path, "wb")
    for path in (tmp_path, tmp_path / "no" / "such"):
        with pytest.raises(OSError) as want:
            open(path, "wb")
        with pytest.raises(type(want.value)):
            overwrite(path, b"5")


# Calls that write a file without going through ``open``: methods of any
# object, and module functions.
WRITING_METHODS = {"write_text", "write_bytes", "tofile", "touch"}
WRITING_FUNCTIONS = {("os", "fdopen"), ("np", "save"), ("np", "savez"),
                     ("np", "savez_compressed"), ("np", "savetxt"), ("shutil", "copy"),
                     ("shutil", "copy2"), ("shutil", "copyfile"), ("shutil", "copytree"),
                     ("tempfile", "mkstemp"), ("tempfile", "NamedTemporaryFile"),
                     ("tempfile", "TemporaryFile")}


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that write a file, or may: the
    calls above, any ``os.open``, and an ``open`` whose mode is not a
    constant read-only mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = func.value.id if (isinstance(func, ast.Attribute)
                                  and isinstance(func.value, ast.Name)) else None
        if name in WRITING_METHODS or (owner, name) in WRITING_FUNCTIONS:
            yield node.lineno
        if name != "open":
            continue
        if owner == "os":
            yield node.lineno
            continue
        # builtin and io.open take the mode second, Path.open first
        at = 1 if owner in (None, "io") else 0
        mode = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            yield node.lineno


def test_every_write_goes_through_overwrite():
    # Only formats.overwrite opens a file for writing, so no artifact write
    # can go back to truncating on open.
    found = {}
    for path in sorted(Path(uvweave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(n, ast.Attribute) and n.attr == "O_TRUNC"
                       for n in ast.walk(tree)), path.name
        if path.name == "formats.py":
            helper = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "overwrite")
            assert list(_file_writes(helper)), "overwrite no longer opens its file"
            tree.body.remove(helper)
        lines = list(_file_writes(tree))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_write_guard_sees_writes():
    # the guard flags every way of writing it knows, and no read or
    # look-alike method
    for code in ('open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+")', "open(p, m)",
                 'io.open(p, "x")', 'p.open("w")', "os.open(p, flags)",
                 "p.write_bytes(b)", "a.tofile(p)", "np.save(p, a)",
                 "shutil.copyfile(a, b)"):
        assert list(_file_writes(ast.parse(code))), code
    for code in ("open(p)", 'open(p, "rb")', 'p.open()', 'p.open("rb")',
                 'open(p, mode="r")', "m.save()", "a.copy()"):
        assert not list(_file_writes(ast.parse(code))), code

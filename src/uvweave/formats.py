"""Portable float map (PFM) and binary PPM readers and writers, and the
one way artifacts are written.

Fields travel as PFM (float32, 1 or 3 channels), 8-bit images as PPM P6.
Rows are written top to bottom in both formats so the in-memory y-down
layout round-trips bit for bit.  The PFM scale field's sign encodes the
byte order: negative means little-endian.  Every artifact file, JSON
included, is written through ``overwrite``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError

# Values quantized per band when writing a PPM.
PPM_BAND_VALUES = 1 << 16


def _read_token(fh, consumed):
    """Next whitespace-delimited header token; returns (token, consumed)."""
    tok = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise ValidationError(f"malformed header: unexpected end of file at byte {consumed}")
        consumed += 1
        if ch.isspace():
            if tok:
                return tok, consumed
            continue
        tok += ch


def overwrite(path, *chunks):
    """Make ``chunks`` (bytes-like, in order) the whole content of ``path``.

    An existing file is overwritten in place and cut at the end of the
    new content, not truncated when opened.  On ext4 (unless mounted with
    ``noauto_da_alloc``), closing a file that was opened with ``O_TRUNC``
    over existing data starts its writeback in the caller: rewriting a
    12 KB PPM took about 0.2 ms that way against 0.02 ms in place.  The
    file's mode, symlink and error behaviour are those of
    ``open(path, "wb")``.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()


def write_json(path, obj, indent: int | None = None):
    """Write ``obj`` as sorted-key JSON plus a newline.  NaN and infinity
    are not JSON, so a float that is either raises ValueError."""
    overwrite(path, (json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
                     + "\n").encode())


def read_body(fh, nbytes: int) -> bytes:
    """Read ``nbytes`` of data, or the bytes left in the file if fewer.

    ``nbytes`` comes from a header, so it is checked against the file's
    size before anything is read: a huge header gives a short read, which
    the caller reports as truncated, not an overflow or out-of-memory.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    return fh.read(max(0, min(nbytes, left)))


def write_pfm(path, array: np.ndarray, byte_order: str = "<"):
    """Write an (H, W) or (H, W, {1, 3}) float array as PFM."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValidationError(f"pfm arrays must have 1 or 3 channels, got shape {arr.shape}")
    if byte_order not in ("<", ">"):
        raise ValidationError("byte order must be '<' or '>'")
    header = b"PF\n" if arr.shape[2] == 3 else b"Pf\n"
    scale = -1.0 if byte_order == "<" else 1.0
    overwrite(path, header, f"{arr.shape[1]} {arr.shape[0]}\n{scale:.1f}\n".encode(),
              arr.astype(byte_order + "f4").tobytes())


def read_pfm_samples(path) -> np.ndarray:
    """Read a PFM file's samples as stored: a read-only (H, W, C) float32
    array in the file's byte order."""
    with open(path, "rb") as fh:
        consumed = 0
        kind, consumed = _read_token(fh, consumed)
        if kind not in (b"PF", b"Pf"):
            raise ValidationError(f"malformed header: bad magic {kind!r} at byte 0")
        channels = 3 if kind == b"PF" else 1
        wtok, consumed = _read_token(fh, consumed)
        htok, consumed = _read_token(fh, consumed)
        stok, consumed = _read_token(fh, consumed)
        try:
            w, h = int(wtok), int(htok)
            scale = float(stok)
        except ValueError:
            raise ValidationError(f"malformed header: bad dimensions or scale at byte {consumed}")
        if w < 1 or h < 1 or scale == 0.0:
            raise ValidationError(f"malformed header: bad dimensions or scale at byte {consumed}")
        order = "<" if scale < 0 else ">"
        raw = read_body(fh, w * h * channels * 4)
        if len(raw) != w * h * channels * 4:
            raise ValidationError(
                f"truncated pfm data at byte {consumed + len(raw)}: "
                f"expected {w * h * channels * 4} bytes")
    return np.frombuffer(raw, dtype=order + "f4").reshape(h, w, channels)


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into an (H, W, C) float64 array."""
    return read_pfm_samples(path).astype(np.float64)


def quantize(values: np.ndarray, out: np.ndarray):
    """Store float64 ``values`` as 8-bit PPM samples in ``out`` (same shape).

    The rule: clip to [0, 1], scale by 255 and round half to even.  It
    works a band of leading-axis rows at a time, so the one float
    temporary stays small and cache-resident.
    """
    rows = max(1, PPM_BAND_VALUES * len(values) // max(values.size, 1))
    band = np.empty((min(rows, len(values)),) + values.shape[1:], dtype=np.float64)
    for r in range(0, len(values), rows):
        chunk = values[r:r + rows]
        b = band[:len(chunk)]
        np.clip(chunk, 0.0, 1.0, out=b)
        b *= 255.0
        np.rint(b, out=b)
        out[r:r + rows] = b


def write_ppm(path, array: np.ndarray):
    """Write an (H, W, 3) array in [0, 1] as binary PPM."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValidationError(f"ppm arrays must be HxWx3, got shape {arr.shape}")
    samples = np.empty(arr.shape, dtype=np.uint8)
    quantize(arr, samples)
    write_ppm_samples(path, samples)


def write_ppm_samples(path, samples: np.ndarray):
    """Write a C-contiguous (H, W, 3) uint8 array as binary PPM."""
    h, w, _ = samples.shape
    overwrite(path, f"P6\n{w} {h}\n255\n".encode(), samples.data)


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into an (H, W, 3) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        consumed = 0
        magic, consumed = _read_token(fh, consumed)
        if magic != b"P6":
            raise ValidationError(f"malformed header: bad magic {magic!r} at byte 0")
        wtok, consumed = _read_token(fh, consumed)
        htok, consumed = _read_token(fh, consumed)
        mtok, consumed = _read_token(fh, consumed)
        try:
            w, h, maxval = int(wtok), int(htok), int(mtok)
        except ValueError:
            raise ValidationError(f"malformed header: bad dimensions at byte {consumed}")
        if w < 1 or h < 1 or maxval != 255:
            raise ValidationError(f"malformed header: unsupported ppm at byte {consumed}")
        raw = read_body(fh, w * h * 3)
        if len(raw) != w * h * 3:
            raise ValidationError(f"truncated ppm data at byte {consumed + len(raw)}")
        data = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    out = data.astype(np.float64)
    out /= 255.0
    return out

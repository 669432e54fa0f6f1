"""Output checks that do not trust the program.

Everything here reads the artifacts from disk with its own PFM/PPM
readers and recomputes what the program should have produced:

* ``render_error``: a per-pixel bilinear oracle (clamp to edge, pixel
  centres at ``(i + 0.5) / n``) for a stride of foreground pixels, and
  whether every background pixel is exactly 0;
* ``psnr``: PSNR over a mask, as ``metrics.json`` reports it;
* ``frame0_positions`` and ``uv_error_texels``: the true frame-0 chart
  position of every pixel, from the generator's ``uv_gt`` and
  ``corr_gt`` files, and the mean distance of a UV map's texture
  positions from it.

Only numpy is used, so a fault in the program's readers, samplers or
metrics cannot hide itself here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# A PPM sample is rounded to the nearest of 256 levels: half a step.
QUANT_TOL = 0.5 / 255 + 1e-9
PSNR_CAP = 99.0
PSNR_TOL_DB = 1e-6


def _header(fh, count):
    """The first ``count`` whitespace-separated header tokens."""
    tokens, tok = [], b""
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated header")
        if ch.isspace():
            if tok:
                tokens.append(tok)
                tok = b""
        else:
            tok += ch
    return tokens


def read_pfm(path) -> np.ndarray:
    """(H, W, C) float64 samples of a PFM written rows top to bottom."""
    with open(path, "rb") as fh:
        kind, w, h, scale = _header(fh, 4)
        channels = {b"PF": 3, b"Pf": 1}[kind]
        w, h = int(w), int(h)
        order = "<" if float(scale) < 0 else ">"
        data = np.frombuffer(fh.read(), dtype=order + "f4")
    return data.reshape(h, w, channels).astype(np.float64)


def read_ppm(path) -> np.ndarray:
    """(H, W, 3) float64 samples of a binary 8-bit PPM, in [0, 1]."""
    with open(path, "rb") as fh:
        magic, w, h, maxval = _header(fh, 4)
        if magic != b"P6" or maxval != b"255":
            raise ValueError(f"unsupported ppm {path}")
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    return data.reshape(int(h), int(w), 3) / 255.0


def pixel_centers(w: int, h: int) -> np.ndarray:
    """(H, W, 2) normalized (x, y) pixel-centre coordinates."""
    xs = (np.arange(w) + 0.5) / w
    ys = (np.arange(h) + 0.5) / h
    return np.stack(np.broadcast_arrays(xs[None, :], ys[:, None]), axis=2)


def bilinear(tex: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sample an (H, W, C) texture at (n, 2) normalized positions."""
    h, w = tex.shape[:2]
    gx = np.clip(pos[:, 0] * w - 0.5, 0.0, w - 1.0)
    gy = np.clip(pos[:, 1] * h - 0.5, 0.0, h - 1.0)
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (gx - x0)[:, None]
    fy = (gy - y0)[:, None]
    top = (1 - fx) * tex[y0, x0] + fx * tex[y0, x1]
    bot = (1 - fx) * tex[y1, x0] + fx * tex[y1, x1]
    return (1 - fy) * top + fy * bot


def texture_positions(uv: np.ndarray) -> np.ndarray:
    """(H, W, 2) texture positions ``c - uv`` of a stored UV displacement."""
    h, w = uv.shape[:2]
    return pixel_centers(w, h) - uv[..., :2]


def render_error(frame: np.ndarray, tex: np.ndarray, uv: np.ndarray,
                 sil: np.ndarray, stride: int = 97):
    """Worst oracle error over every ``stride``-th foreground pixel, and
    whether all background pixels are exactly 0.

    ``uv`` holds the displacements the render read; a lookup render shows
    ``tex`` at ``c - uv``.
    """
    ys, xs = np.nonzero(sil)
    ys, xs = ys[::stride], xs[::stride]
    want = bilinear(tex, texture_positions(uv)[ys, xs])
    worst = float(np.abs(frame[ys, xs] - want).max()) if len(ys) else 0.0
    return worst, bool((frame[~sil] == 0.0).all())


def render_ok(frame, tex, uv, sil, stride: int = 97) -> bool:
    worst, background_zero = render_error(frame, tex, uv, sil, stride)
    return worst <= QUANT_TOL and background_zero


def psnr(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    d = a[mask] - b[mask]
    mse = float(np.mean(d * d))
    return PSNR_CAP if mse <= 0.0 else min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


def frame0_positions(uv_gt: np.ndarray, corr_gt: np.ndarray) -> np.ndarray:
    """True frame-0 chart position of every pixel of one frame.

    ``c - uv_gt`` is the pixel's position in its own frame's chart, and
    ``corr_gt`` maps each texel centre of that chart to frame 0's.  The
    generator's drift is rigid, so a least-squares affine fit of
    ``corr_gt`` over all texel centres is that map, up to float32
    storage; applying it to the frame's chart positions gives frame 0's.
    """
    th, tw = corr_gt.shape[:2]
    src = pixel_centers(tw, th).reshape(-1, 2)
    design = np.column_stack([src, np.ones(len(src))])
    coef, *_ = np.linalg.lstsq(design, corr_gt[..., :2].reshape(-1, 2), rcond=None)
    q = texture_positions(uv_gt)
    return q @ coef[:2] + coef[2]


def uv_error_texels(uv: np.ndarray, sil: np.ndarray, truth: np.ndarray,
                    tex_w: int, tex_h: int) -> tuple:
    """(sum of distances in texels, pixel count) over ``sil``."""
    d = (texture_positions(uv) - truth)[sil] * np.array([tex_w, tex_h])
    return float(np.sum(np.sqrt(np.sum(d * d, axis=1)))), int(sil.sum())


class Sequence:
    """Read-only view of a sequence directory through its manifest."""

    def __init__(self, root):
        self.root = Path(root)
        self.data = json.loads((self.root / "manifest.json").read_text())
        self.n_frames = len(self.data["frames"])
        self.tex_w, self.tex_h = self.data["texture_size"]

    def path(self, i: int, key: str) -> Path:
        return self.root / self.data["frames"][i][key]

    def uv(self, i: int, key: str):
        """(displacement (H, W, 2), silhouette) of a packed UV file."""
        packed = read_pfm(self.path(i, key))
        return packed[..., :2], packed[..., 2] > 0.5

    def mask(self, i: int, key: str = "mask") -> np.ndarray:
        return read_pfm(self.path(i, key))[..., 0] > 0.5

    def image(self, i: int, key: str) -> np.ndarray:
        return read_ppm(self.path(i, key))

    def texture(self, key: str) -> np.ndarray:
        return read_pfm(self.root / self.data[key])


def ramp_texture(w: int, h: int, gain, offset) -> np.ndarray:
    """A look whose red and green channels are linear in the texel centre's
    x and y, so a render of it shows which texture position each pixel
    fetched.  Bilinear sampling reproduces a linear ramp exactly."""
    c = pixel_centers(w, h)
    tex = np.full((h, w, 3), 0.5)
    tex[..., :2] = c * np.asarray(gain) + np.asarray(offset)
    return tex


def ramp_positions(frame: np.ndarray, gain, offset) -> np.ndarray:
    """(H, W, 2) texture positions decoded from a render of ``ramp_texture``."""
    return (frame[..., :2] - np.asarray(offset)) / np.asarray(gain)


def recovered_uv_error(seq: Sequence, key: str) -> float:
    """Mean texel distance of ``key``'s texture positions from the true
    frame-0 chart positions, over the UV map's own silhouette, all frames."""
    total, count = 0.0, 0
    for i in range(seq.n_frames):
        uv_gt, _ = seq.uv(i, "uv_gt")
        truth = frame0_positions(uv_gt, read_pfm(seq.path(i, "corr_gt")))
        uv, sil = seq.uv(i, key)
        s, n = uv_error_texels(uv, sil, truth, seq.tex_w, seq.tex_h)
        total += s
        count += n
    return total / count


def check_recovery(seq: Sequence, stride: int = 7) -> dict:
    """Every check of a recovered sequence; returns named booleans and the
    quality figures they were computed from."""
    report = json.loads((seq.root / "metrics.json").read_text())
    rec, base = report["recovered"], report["corrupted_baseline"]
    tex_o = seq.texture("texture_o")
    oracle_ok, psnrs = True, []
    for i in range(seq.n_frames):
        mask = seq.mask(i)
        synth = seq.image(i, "synth")
        uv, sil = seq.uv(i, "uv_final")
        oracle_ok &= render_ok(synth, tex_o, uv, sil, stride)
        psnrs.append(psnr(synth, seq.image(i, "image"), mask))
    psnr_ok = all(abs(a - b) <= PSNR_TOL_DB
                  for a, b in zip(psnrs, rec["psnr"]["per_frame"]))
    psnr_ok &= len(psnrs) == len(rec["psnr"]["per_frame"])
    beats = all(a > b for a, b in zip(rec["psnr"]["per_frame"], base["psnr"]["per_frame"]))
    beats &= all(a < b for a, b in zip(rec["t_diff"]["per_pair"], base["t_diff"]["per_pair"]))
    err_final = recovered_uv_error(seq, "uv_final")
    err_raw = recovered_uv_error(seq, "uv_raw")
    return {
        "checks": {"synth_oracle": bool(oracle_ok), "psnr_recomputed": bool(psnr_ok),
                   "beats_baseline": bool(beats), "uv_err_below_raw": err_final < err_raw},
        "psnr_db": rec["psnr"]["mean"],
        "t_diff": rec["t_diff"]["mean"],
        "t_of": rec["t_of"]["mean"],
        "uv_err_texels": err_final,
        "uv_err_raw_texels": err_raw,
        "baseline_psnr_db": base["psnr"]["mean"],
        "baseline_t_diff": base["t_diff"]["mean"],
        "baseline_t_of": base["t_of"]["mean"],
    }

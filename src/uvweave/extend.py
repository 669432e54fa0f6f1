"""Extension of partial UV maps out to a full silhouette.

Three steps, run in order by the pipeline:

1. ``label_fill`` grows the silhouette to the full mask; the new pixels
   carry zero UVs.
2. ``extrapolate_uv`` fills empty UV entries by sweeping outward from the
   known region, fitting a local linear model in each 3x3 window.
3. ``relax_springs`` connects every extrapolated point to nearby original
   points in texture space with Hooke springs whose rest lengths encode the
   local image-to-texture scale, then relaxes with a push phase (overlaps
   spread apart) followed by a pull phase (stretch contracts back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage as ndi

from .errors import ValidationError
from .fields import pixel_center_grid, scatter_add
from .warpmap import UVMap, texture_positions


def label_fill(P_raw: UVMap, full_mask: np.ndarray) -> UVMap:
    """Extend the silhouette to ``full_mask``.

    New pixels carry zero UVs until extrapolation assigns them.
    """
    full = np.asarray(full_mask, dtype=bool)
    if full.shape != P_raw.silhouette.shape:
        raise ValidationError("full mask shape does not match uv map")
    if not (full | ~P_raw.silhouette).all():
        raise ValidationError("full mask must contain the raw silhouette")
    return UVMap(P_raw.uv.copy(), full)


def _fit_window(dx, dy, vals):
    """Linear fit through neighbor offsets, evaluated at the center.

    Centered least squares with minimum-norm slopes: exact for linear data
    and well-behaved when the neighbors do not span both directions.
    """
    mx, my = dx.mean(), dy.mean()
    mv = vals.mean(axis=0)
    A = np.stack([dx - mx, dy - my], axis=1)
    slopes, *_ = np.linalg.lstsq(A, vals - mv, rcond=None)
    return mv - mx * slopes[0] - my * slopes[1]


_OFFSETS = [(oy, ox) for oy in (-1, 0, 1) for ox in (-1, 0, 1) if (oy, ox) != (0, 0)]
_NEIGHBORS = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]])


def _known_neighbors(known: np.ndarray) -> np.ndarray:
    """Known pixels among each pixel's 8 neighbors; outside the image is unknown."""
    return ndi.correlate(known.astype(np.int64), _NEIGHBORS, mode="constant")


def extrapolate_uv(P_labeled: UVMap, known: np.ndarray | None = None):
    """Fill empty UV entries on the silhouette; returns (UVMap, new_points).

    ``known`` marks pixels whose UVs are data (defaults to the whole
    silhouette, making the call a no-op).  Each sweep fills every pixel
    with at least two known neighbors in its 3x3 window from the previous
    sweep's state; unreachable islands fall back to the nearest known UV.
    A non-empty silhouette without any known UVs is an error.
    """
    sil = P_labeled.silhouette
    if known is None:
        known = sil.copy()
    else:
        known = np.asarray(known, dtype=bool)
        if known.shape != sil.shape:
            raise ValidationError("known mask shape does not match uv map")
        if (known & ~sil).any():
            raise ValidationError("known mask must lie inside the silhouette")
    if sil.any() and not known.any():
        raise ValidationError("no known UVs on the silhouette")

    uv = P_labeled.uv.data.copy()
    h, w = sil.shape
    cur = known.copy()
    new_rows, new_cols = [], []
    while True:
        fillable = sil & ~cur & (_known_neighbors(cur) >= 2)
        if not fillable.any():
            break
        ys, xs = np.nonzero(fillable)
        fits = np.empty((len(ys), 2))
        for i, (y, x) in enumerate(zip(ys, xs)):
            ddx, ddy, vals = [], [], []
            for oy, ox in _OFFSETS:
                ny, nx = y + oy, x + ox
                if 0 <= ny < h and 0 <= nx < w and cur[ny, nx]:
                    ddx.append(ox)
                    ddy.append(oy)
                    vals.append(uv[ny, nx])
            fits[i] = _fit_window(np.array(ddx, float), np.array(ddy, float),
                                  np.array(vals))
        uv[ys, xs] = fits
        cur[ys, xs] = True
        new_rows.append(ys)
        new_cols.append(xs)

    rest = sil & ~cur
    if rest.any():
        inds = ndi.distance_transform_edt(~cur, return_distances=False,
                                          return_indices=True)
        uv[rest] = uv[inds[0][rest], inds[1][rest]]
        ys, xs = np.nonzero(rest)
        new_rows.append(ys)
        new_cols.append(xs)

    if new_rows:
        new_points = np.stack([np.concatenate(new_rows), np.concatenate(new_cols)], axis=1)
        order = np.lexsort((new_points[:, 1], new_points[:, 0]))
        new_points = new_points[order]
    else:
        new_points = np.zeros((0, 2), dtype=np.int64)
    return UVMap(uv, sil), new_points


@dataclass
class SpringConfig:
    region: int = 40          # texel window for anchor gathering
    step: float = 0.1         # explicit Euler step, texel units
    force_tol: float = 1e-3   # convergence: max net force below this, texels
    max_iters: int = 2000     # per phase
    max_anchors: int = 12     # nearest anchors kept per movable point
    tex_w: int | None = None  # texture resolution; image size when None
    tex_h: int | None = None

    def __post_init__(self):
        if self.region < 2 or self.step <= 0 or self.force_tol <= 0:
            raise ValidationError("bad spring configuration")
        if self.max_iters < 1 or self.max_anchors < 1:
            raise ValidationError("bad spring configuration")


@dataclass
class SpringSystem:
    """Movable texture points tied to fixed anchors by unit-stiffness springs."""

    points: np.ndarray        # (m, 2) movable positions, texel units
    anchors: np.ndarray       # (s, 2) fixed endpoints, one row per spring
    spring_point: np.ndarray  # (s,) index into points
    rest: np.ndarray          # (s,) rest lengths, texels

    def net_forces(self, mode: str) -> np.ndarray:
        """Per-point force sums; 'push' acts on compressed springs only,
        'pull' on stretched ones."""
        d = self.points[self.spring_point] - self.anchors
        length = np.sqrt(np.sum(d * d, axis=1))
        safe = np.maximum(length, 1e-12)
        mag = self.rest - length          # >0 compressed: pushes outward
        if mode == "push":
            mag = np.maximum(mag, 0.0)
        elif mode == "pull":
            mag = np.minimum(mag, 0.0)
        else:
            raise ValidationError(f"unknown spring mode {mode!r}")
        f = (mag / safe)[:, None] * d
        return scatter_add(self.spring_point, f, len(self.points))

    def distortion(self) -> float:
        """Mean relative deviation of spring lengths from rest."""
        d = self.points[self.spring_point] - self.anchors
        length = np.sqrt(np.sum(d * d, axis=1))
        return float(np.mean(np.abs(length - self.rest) / np.maximum(self.rest, 1e-12)))

    def relax_phase(self, mode: str, step: float, force_tol: float, max_iters: int):
        """Integrate one phase; returns (iterations, max net force, converged)."""
        # Summed Hooke forces give an effective stiffness near the anchor
        # count, so cap the step to keep explicit Euler stable.
        counts = np.bincount(self.spring_point, minlength=len(self.points))
        step = min(step, 1.5 / max(int(counts.max()), 1))
        it = 0
        while it < max_iters:
            f = self.net_forces(mode)
            fmax = float(np.abs(f).max()) if len(f) else 0.0
            if fmax < force_tol:
                return it, fmax, True
            self.points += step * f
            it += 1
        f = self.net_forces(mode)
        fmax = float(np.abs(f).max()) if len(f) else 0.0
        return it, fmax, fmax < force_tol


@dataclass
class RelaxResult:
    system: SpringSystem | None
    moved: np.ndarray                 # (m, 2) pixel indices of relaxed points
    distortion_before: float = 0.0
    distortion_after: float = 0.0
    push_iters: int = 0
    pull_iters: int = 0
    max_force: float = 0.0
    converged: bool = True
    skipped: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))


def _known_scale(tex_pos, known):
    """Median texture-texels-per-image-pixel ratio in the known region.

    Measured over multi-pixel baselines so per-entry UV noise averages out
    instead of dominating the ratio; short baselines fill in when the
    region is too small for long ones, and 1.0 when it has no pairs at all.
    """
    h, w = known.shape
    for baselines in (((0, 8), (8, 0), (6, 6)), ((0, 1), (1, 0))):
        ratios = []
        for dy, dx in baselines:
            a = known[: h - dy, : w - dx] & known[dy:, dx:]
            if a.any():
                d = tex_pos[dy:, dx:][a] - tex_pos[: h - dy, : w - dx][a]
                dist = np.sqrt(np.sum(d * d, axis=1))
                ratios.append(dist / np.hypot(dy, dx))
        if ratios:
            return float(np.median(np.concatenate(ratios)))
    return 1.0


def _local_scale(apos, ay, ax, fallback, min_baseline=4.0):
    """Median pairwise texture/image distance ratio among one point's anchors."""
    n = len(apos)
    if n < 2:
        return fallback
    ii, jj = np.triu_indices(n, k=1)
    img = np.hypot(ay[ii] - ay[jj], ax[ii] - ax[jj]).astype(np.float64)
    keep = img >= min_baseline
    if not keep.any():
        return fallback
    tex = np.linalg.norm(apos[ii[keep]] - apos[jj[keep]], axis=1)
    return float(np.median(tex / img[keep]))


def relax_springs(P_ext: UVMap, new_points: np.ndarray, cfg: SpringConfig | None = None):
    """Relax extrapolated UV entries in texture space; returns (UVMap, RelaxResult).

    Original entries never move.  Points without any original anchor
    inside the search region are left where extrapolation put them.
    Non-convergence within the iteration budget is reported in
    ``RelaxResult.converged``.
    """
    cfg = cfg or SpringConfig()
    new_points = np.asarray(new_points, dtype=np.int64).reshape(-1, 2)
    if len(new_points) == 0:
        return P_ext.copy(), RelaxResult(system=None, moved=new_points.copy())
    tw = cfg.tex_w or P_ext.width
    th = cfg.tex_h or P_ext.height

    sil = P_ext.silhouette
    if not sil[new_points[:, 0], new_points[:, 1]].all():
        raise ValidationError("new points must lie on the silhouette")
    tex_pos = texture_positions(P_ext) * np.array([tw, th])   # texel units

    original = sil.copy()
    original[new_points[:, 0], new_points[:, 1]] = False
    oy, ox = np.nonzero(original)
    anchor_pos = tex_pos[oy, ox]
    known_scale = _known_scale(tex_pos, original)

    half = cfg.region / 2.0
    pts, springs_a, springs_p, rests, skipped = [], [], [], [], []
    for y, x in new_points:
        pos0 = tex_pos[y, x]
        box = (np.abs(anchor_pos[:, 0] - pos0[0]) <= half) \
            & (np.abs(anchor_pos[:, 1] - pos0[1]) <= half)
        cand = np.nonzero(box)[0]
        if len(cand) == 0:
            skipped.append((y, x))
            continue
        d = anchor_pos[cand] - pos0
        d2 = np.sum(d * d, axis=1)
        order = np.lexsort((ox[cand], oy[cand], d2))
        sel = cand[order[: cfg.max_anchors]]
        k = len(pts)
        pts.append((y, x))
        # Local texels-per-pixel ratio from anchor pairs near this point;
        # the chart scale varies spatially, so a global median would bake
        # systematic strain into every rest length.  Pairs span the whole
        # region at long baselines so per-entry UV noise averages out.
        ssel = cand[order[:: max(1, len(order) // 48)][:48]]
        scale = _local_scale(anchor_pos[ssel], oy[ssel], ox[ssel],
                             known_scale, min_baseline=8.0)
        img_d = np.sqrt((oy[sel] - y) ** 2.0 + (ox[sel] - x) ** 2.0)
        springs_a.extend(anchor_pos[sel])
        springs_p.extend([k] * len(sel))
        rests.extend(img_d * scale)

    if not pts:
        res = RelaxResult(system=None, moved=np.zeros((0, 2), dtype=np.int64),
                          skipped=np.array(skipped, dtype=np.int64).reshape(-1, 2))
        return P_ext.copy(), res

    pidx = np.array(pts, dtype=np.int64)
    sys = SpringSystem(points=tex_pos[pidx[:, 0], pidx[:, 1]].copy(),
                       anchors=np.array(springs_a),
                       spring_point=np.array(springs_p, dtype=np.int64),
                       rest=np.maximum(np.array(rests), 1e-6))
    d_before = sys.distortion()
    push_it, _, ok1 = sys.relax_phase("push", cfg.step, cfg.force_tol, cfg.max_iters)
    pull_it, fmax, ok2 = sys.relax_phase("pull", cfg.step, cfg.force_tol, cfg.max_iters)
    d_after = sys.distortion()
    converged = ok1 and ok2

    uv = P_ext.uv.data.copy()
    c = pixel_center_grid(P_ext.width, P_ext.height)
    u_new = sys.points / np.array([tw, th])
    uv[pidx[:, 0], pidx[:, 1]] = c[pidx[:, 0], pidx[:, 1]] - u_new
    out = UVMap(uv, sil)
    res = RelaxResult(system=sys, moved=pidx, distortion_before=d_before,
                      distortion_after=d_after, push_iters=push_it,
                      pull_iters=pull_it, max_force=fmax, converged=converged,
                      skipped=np.array(skipped, dtype=np.int64).reshape(-1, 2))
    return out, res

"""Extension of partial UV maps out to a full silhouette.

Three steps, run in order by the pipeline:

1. ``label_fill`` grows the silhouette to the full mask; the new pixels
   carry zero UVs.
2. ``extrapolate_uv`` fills empty UV entries by sweeping outward from the
   known region, fitting a local linear model in each 3x3 window; each
   sweep fits all its pixels with one batched pseudo-inverse.
3. ``relax_springs`` connects every extrapolated point to nearby original
   points in texture space with Hooke springs whose rest lengths encode the
   local image-to-texture scale, then relaxes with a push phase (overlaps
   spread apart) followed by a pull phase (stretch contracts back).  Every
   spring ties a movable point to a fixed anchor, so each iteration is a
   local/global step (Liu et al. 2013, "Fast Simulation of Mass-Spring
   Systems"): every point moves to the mean of its active springs'
   rest-length projections.  There is no step size to choose.  No two
   points share a spring, so a point stops once its own net force is
   below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage as ndi

from .errors import ValidationError
from .fields import pixel_center_grid
from .warpmap import UVMap, fill_from_nearest, texture_positions


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


_NEIGHBORS = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
# Row and column offsets of the 8 neighbors, in row-major order.
_DY, _DX = np.argwhere(_NEIGHBORS).T - 1


def _known_neighbors(known: np.ndarray) -> np.ndarray:
    """Known pixels among each pixel's 8 neighbors; outside the image is unknown."""
    return ndi.correlate(known.astype(np.int64), _NEIGHBORS, mode="constant")


def extrapolate_uv(P_labeled: UVMap, known: np.ndarray):
    """Fill empty UV entries on the silhouette; returns (UVMap, new_points).

    ``known`` marks the pixels of the silhouette whose UVs are data.  Each
    sweep fills every pixel with at least two known neighbors in its 3x3
    window from the previous sweep's state; unreachable islands fall back
    to the nearest known UV.  A non-empty silhouette without any known UVs
    is an error.
    """
    sil = P_labeled.silhouette
    known = np.asarray(known, dtype=bool)
    if known.shape != sil.shape:
        raise ValidationError("known mask shape does not match uv map")
    if (known & ~sil).any():
        raise ValidationError("known mask must lie inside the silhouette")
    if sil.any() and not known.any():
        raise ValidationError("no known UVs on the silhouette")

    # Padded working copies, written through their interior views; the
    # border is the image edge's unknown neighbors.
    uvp = np.pad(P_labeled.uv.data, ((1, 1), (1, 1), (0, 0)))
    curp = np.pad(known, 1)
    uv, cur = uvp[1:-1, 1:-1], curp[1:-1, 1:-1]
    new_rows, new_cols = [], []
    while True:
        fillable = sil & ~cur & (_known_neighbors(cur) >= 2)
        if not fillable.any():
            break
        ys, xs = np.nonzero(fillable)
        ny, nx = ys[:, None] + 1 + _DY, xs[:, None] + 1 + _DX       # (n, 8)
        wt = curp[ny, nx].astype(np.float64)        # 1 for a known neighbor
        k = wt.sum(axis=1)
        mx, my = (wt * _DX).sum(axis=1) / k, (wt * _DY).sum(axis=1) / k
        vals = uvp[ny, nx] * wt[..., None]
        mv = vals.sum(axis=1) / k[:, None]
        # Centered linear fit through the known neighbors, evaluated at the
        # pixel.  An unknown neighbor's row is zero, which leaves the
        # minimum-norm least-squares slopes unchanged: exact for linear data
        # and well-behaved when the neighbors lie on one line.
        A = np.stack([_DX - mx[:, None], _DY - my[:, None]], axis=2) * wt[..., None]
        slopes = np.linalg.pinv(A) @ ((vals - mv[:, None]) * wt[..., None])
        uv[ys, xs] = mv - mx[:, None] * slopes[:, 0] - my[:, None] * slopes[:, 1]
        cur[ys, xs] = True
        new_rows.append(ys)
        new_cols.append(xs)

    rest = sil & ~cur
    if rest.any():
        uv[rest] = fill_from_nearest(uv, cur)[rest]
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


# Spring settings; ``relax_springs`` reads them when it is called.
REGION = 40          # texel window for anchor gathering
FORCE_TOL = 1e-3     # convergence: max net force below this, texels
MAX_ITERS = 2000     # per phase
MAX_ANCHORS = 12     # nearest anchors kept per movable point


@dataclass
class SpringSystem:
    """Movable texture points tied to fixed anchors by unit-stiffness springs.

    One column per point, one row per anchor rank (nearest first); a point
    with fewer anchors than rows has ``rest == 0`` in the rows it lacks.
    """

    points: np.ndarray        # (m, 2) movable positions, texel units
    anchors: np.ndarray       # (k, m, 2) fixed endpoints
    rest: np.ndarray          # (k, m) rest lengths, texels; 0 pads

    def forces(self, mode: str, live=slice(None)):
        """Net forces and active-spring counts of the ``live`` points.
        'push' acts on compressed springs only, 'pull' on stretched ones."""
        rest = self.rest[:, live]
        d = self.points[live] - self.anchors[:, live]
        length = np.sqrt(np.sum(d * d, axis=2))
        mag = rest - length               # >0 compressed: pushes outward
        if mode == "push":
            mag = np.maximum(mag, 0.0)
        elif mode == "pull":
            mag = np.where(rest > 0.0, np.minimum(mag, 0.0), 0.0)
        else:
            raise ValidationError(f"unknown spring mode {mode!r}")
        f = (mag / np.maximum(length, 1e-12))[..., None] * d
        # Row after row, nearest anchor first.
        return f.sum(axis=0, initial=0.0), np.count_nonzero(mag, axis=0)

    def distortion(self) -> float:
        """Mean relative deviation of spring lengths from rest."""
        d = self.points - self.anchors
        length = np.sqrt(np.sum(d * d, axis=2))
        dev = np.abs(length - self.rest) / np.maximum(self.rest, 1e-12)
        return float(np.mean(dev.T[self.rest.T > 0.0]))

    def relax_phase(self, mode: str, force_tol: float, max_iters: int):
        """Run one phase; returns (iterations, max net force, converged).

        Each iteration moves every point still moving by its net force over
        its count of active springs.  A spring's force is its rest-length
        projection minus the point, so this puts the point at the mean of
        those projections: the local/global step, stable without a step
        size.  A point whose net force falls below ``force_tol`` stops; its
        anchors are fixed, so its force stays there.
        """
        live = np.arange(len(self.points))
        it = 0
        while True:
            f, n = self.forces(mode, live)
            moving = np.abs(f).max(axis=1) >= force_tol
            live, f, n = live[moving], f[moving], n[moving]
            if len(live) == 0 or it == max_iters:
                break
            self.points[live] += f / np.maximum(n, 1)[:, None]
            it += 1
        fmax = float(np.abs(self.forces(mode)[0]).max(initial=0.0))
        return it, fmax, fmax < force_tol


@dataclass
class RelaxResult:
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


# Movable points per pass of the spring build.  A pass holds (points,
# anchors) and (points, scale pairs) temporaries; at 64 points the build of
# a 128x128 acceptance frame (~6k anchors) peaks near 12 MB.
_BUILD_CHUNK = 64
# A point's local scale comes from up to this many of its candidate anchors,
# spread over its distance order, and every pair of them.
_SCALE_SAMPLES = 48
_PAIR_I, _PAIR_J = np.triu_indices(_SCALE_SAMPLES, k=1)


def build_springs(tex_pos, original, new_points, region, max_anchors):
    """Tie each new point to its nearest original anchors; returns
    (SpringSystem, moved, skipped).

    A point's candidates are the original pixels whose texture positions
    lie in the ``region`` box around it; it keeps the ``max_anchors``
    nearest (ties in row-major pixel order).  Points without candidates are
    ``skipped``; ``moved`` lists the rest, both in ``new_points`` order.
    Rest lengths are image distances times a local texels-per-pixel ratio:
    the chart scale varies spatially, so a global median would bake
    systematic strain into every rest length.  The ratio is the median over
    pairs of sampled candidates at least 8 pixels apart, so per-entry UV
    noise averages out; with no such pair it is the known region's ratio.
    """
    oy, ox = np.nonzero(original)
    anchor_pos = tex_pos[oy, ox]
    anchor_u, anchor_v = anchor_pos[:, 0].copy(), anchor_pos[:, 1].copy()
    known_scale = _known_scale(tex_pos, original)
    half = region / 2.0
    k = min(max_anchors, len(oy))
    no_points = np.zeros((0, 2), dtype=np.int64)
    moved, skipped = [no_points], [no_points]
    anchors, rests = [np.zeros((0, k, 2))], [np.zeros((0, k))]
    for c0 in range(0, len(new_points), _BUILD_CHUNK):
        pts = new_points[c0:c0 + _BUILD_CHUNK]
        pos0 = tex_pos[pts[:, 0], pts[:, 1]]
        box = (np.abs(anchor_u - pos0[:, :1]) <= half) \
            & (np.abs(anchor_v - pos0[:, 1:]) <= half)
        has = box.any(axis=1)
        skipped.append(pts[~has])
        pts, pos0, box = pts[has], pos0[has], box[has]
        if len(pts) == 0:
            continue

        # One row of candidates per point, nearest first, at least k wide.
        # Anchors come row-major from np.nonzero, so the stable sort breaks
        # distance ties by (oy, ox); padding sorts last.
        pi, ai = np.nonzero(box)
        count = box.sum(axis=1)
        col = np.arange(len(pi)) - (np.cumsum(count) - count)[pi]
        du = anchor_u[ai] - pos0[pi, 0]
        dv = anchor_v[ai] - pos0[pi, 1]
        d2 = np.full((len(pts), max(count.max(), k)), np.inf)
        d2[pi, col] = du * du + dv * dv
        cand = np.zeros(d2.shape, dtype=np.int64)
        cand[pi, col] = ai
        cand = np.take_along_axis(cand, np.argsort(d2, axis=1, kind="stable"), axis=1)
        rows = np.arange(len(pts))

        # Local scale from every stride-th candidate, all pairs among them.
        scol = np.arange(_SCALE_SAMPLES) * np.maximum(1, count // _SCALE_SAMPLES)[:, None]
        used = scol < count[:, None]
        sa = cand[rows[:, None], np.minimum(scol, count[:, None] - 1)]
        sy, sx, su, sv = oy[sa], ox[sa], anchor_u[sa], anchor_v[sa]
        img = np.hypot(sy[:, _PAIR_I] - sy[:, _PAIR_J], sx[:, _PAIR_I] - sx[:, _PAIR_J])
        ok = used[:, _PAIR_I] & used[:, _PAIR_J] & (img >= 8.0)
        du = su[:, _PAIR_I] - su[:, _PAIR_J]
        dv = sv[:, _PAIR_I] - sv[:, _PAIR_J]
        ratio = np.divide(np.sqrt(du * du + dv * dv), img,
                          out=np.full(img.shape, np.inf), where=ok)
        ratio.sort(axis=1)
        npair = ok.sum(axis=1)
        # np.median's arithmetic: the middle value, or the mean of the two.
        med = (ratio[rows, (npair - 1) // 2] + ratio[rows, npair // 2]) / 2.0
        scale = np.where(npair > 0, med, known_scale)

        an = cand[:, :k]
        real = np.arange(k) < count[:, None]
        img_d = np.sqrt((oy[an] - pts[:, :1]) ** 2.0 + (ox[an] - pts[:, 1:]) ** 2.0)
        anchors.append(np.where(real[..., None], anchor_pos[an], 0.0))
        rests.append(np.where(real, np.maximum(img_d * scale[:, None], 1e-6), 0.0))
        moved.append(pts)

    moved = np.concatenate(moved)
    sys = SpringSystem(points=tex_pos[moved[:, 0], moved[:, 1]].copy(),
                       anchors=np.concatenate(anchors).transpose(1, 0, 2).copy(),
                       rest=np.concatenate(rests).T.copy())
    return sys, moved, np.concatenate(skipped)


def relax_springs(P_ext: UVMap, new_points: np.ndarray,
                  tex_w: int | None = None, tex_h: int | None = None):
    """Relax extrapolated UV entries in texture space; returns (UVMap, RelaxResult).

    Distances are measured in texels of a ``tex_w`` x ``tex_h`` texture,
    the image size when omitted.  Original entries never move.  Points
    without any original anchor inside the ``REGION`` box are left where
    extrapolation put them.  Non-convergence within ``MAX_ITERS`` per
    phase is reported in ``RelaxResult.converged``.
    """
    new_points = np.asarray(new_points, dtype=np.int64).reshape(-1, 2)
    if len(new_points) == 0:
        return P_ext.copy(), RelaxResult(moved=new_points.copy())
    tw = tex_w or P_ext.width
    th = tex_h or P_ext.height

    sil = P_ext.silhouette
    if not sil[new_points[:, 0], new_points[:, 1]].all():
        raise ValidationError("new points must lie on the silhouette")
    tex_pos = texture_positions(P_ext) * np.array([tw, th])   # texel units

    original = sil.copy()
    original[new_points[:, 0], new_points[:, 1]] = False
    sys, pidx, skipped = build_springs(tex_pos, original, new_points,
                                       REGION, MAX_ANCHORS)
    if len(pidx) == 0:
        return P_ext.copy(), RelaxResult(moved=pidx, skipped=skipped)

    d_before = sys.distortion()
    push_it, _, ok1 = sys.relax_phase("push", FORCE_TOL, MAX_ITERS)
    pull_it, fmax, ok2 = sys.relax_phase("pull", FORCE_TOL, MAX_ITERS)

    uv = P_ext.uv.data.copy()
    c = pixel_center_grid(P_ext.width, P_ext.height)
    uv[pidx[:, 0], pidx[:, 1]] = c[pidx[:, 0], pidx[:, 1]] - sys.points / np.array([tw, th])
    return UVMap(uv, sil), RelaxResult(
        moved=pidx, distortion_before=d_before, distortion_after=sys.distortion(),
        push_iters=push_it, pull_iters=pull_it, max_force=fmax, converged=ok1 and ok2,
        skipped=skipped)

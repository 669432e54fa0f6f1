"""Pipeline stages over a manifest directory.

Each stage loads its inputs through the manifest, runs the corresponding
library code, writes its artifacts, and records a provenance tag.  Frames
are independent except for relocation's dependence on frame 0, so stages
fan out over a thread pool; everything inside a frame is single-threaded
numpy, which keeps outputs bit-identical for any thread count.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .extend import extrapolate_uv, label_fill, relax_springs
from .fields import Field2
from .formats import quantize, read_pfm_samples, read_ppm, write_json, write_ppm_samples
from .gradcore import fd_probe_check
from .manifest import MANIFEST_NAME, Manifest, config_dict, uv_pairs, uv_silhouette
from .metrics import METRIC_NOTES, metric_psnr, metric_tdiff, metric_tof
from .relocate import (RelocateConfig, block_flow, frame_zero_products, read_flo,
                       relocate_frame, write_flo)
from .render import LookupRenderer
from .scenegen import CorruptConfig, SceneConfig, corrupt_uv, gen_sequence
from .uvopt import OptConfig, optimize_uv
from .warpmap import UVMap


# The keys of a manifest frame other than retexture's: its index and the
# items the other stages write.  A retexture tag names a frame item and
# its file, so it must be a plain name and none of these.
FRAME_ITEMS = ("index", "image", "mask", "uv_gt", "corr_gt", "uv_raw", "uv_ext",
               "ext_trace", "uv_opt", "opt_trace", "uv_final", "corr", "texframe",
               "flow", "rel_trace", "synth", "baseline")
RETEXTURE_TAG = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


def _map_frames(fn, items, threads: int) -> list:
    """``fn`` of every item, in order, on a pool of ``threads`` threads when
    there is more than one: the one frame-level fan-out of every stage."""
    if threads <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _render_frames(m: Manifest, render: LookupRenderer, uv_key: str, tag: str,
                   threads: int) -> list:
    """Render every frame from its packed ``uv_key`` samples into frame item
    ``tag``, named by ``Manifest.new_item``; returns each frame's LookupStats.

    Only foreground pixels are rendered and quantized; each frame is
    scattered into a zeroed 8-bit frame that one worker reuses for all its
    frames, and written as soon as it is rendered.  The background is 0,
    so the bytes are those of ``write_ppm`` of ``render.frame``.
    """
    w, h = m.image_size
    paths = [m.new_item(tag, "ppm", frame=i) for i in range(m.n_frames)]

    def run(frames):
        out = np.empty((h * w, 3), dtype=np.uint8)
        pixels = out.view(np.dtype((np.void, 3))).reshape(-1)
        stats = []
        for i in frames:
            samples = m.read_uv_samples(i, uv_key)
            mask = uv_silhouette(samples)
            index = np.flatnonzero(mask)
            vals, st = render(index, uv_pairs(samples, mask), w, h)
            fg = np.empty((index.size, 3), dtype=np.uint8)
            quantize(vals, fg)
            out.fill(0)
            # a boolean scatter copies each run of foreground pixels at once
            pixels[mask.reshape(-1)] = fg.view(pixels.dtype).reshape(-1)
            write_ppm_samples(paths[i], out.reshape(h, w, 3))
            stats.append(st)
        return stats

    # One buffer per worker: worker k takes frames k, k + workers, ...
    workers = min(threads, m.n_frames)
    stats = _map_frames(run, [range(k, m.n_frames, workers) for k in range(workers)], workers)
    return [stats[i % workers][i // workers] for i in range(m.n_frames)]


def stage_gen(out_dir, cfg: SceneConfig) -> Manifest:
    if (Path(out_dir) / MANIFEST_NAME).exists():
        raise ValidationError(f"{out_dir} already holds a sequence ({MANIFEST_NAME})")
    fs = gen_sequence(cfg)
    m = Manifest.create(out_dir, (cfg.image_w, cfg.image_h),
                        (cfg.tex_w, cfg.tex_h), cfg.frames)
    m.write_texture("texture_gt", fs.texture)
    for fr in fs.frames:
        m.write_image(fr.index, "image", fr.image)
        m.write_mask(fr.index, "mask", fr.mask)
        m.write_uv(fr.index, "uv_gt", fr.uv_gt)
        m.write_corr("corr_gt", fr.corr_gt, frame=fr.index)
    m.mark_stage("gen", config_dict(cfg))
    m.save()
    return m


def stage_corrupt(root, cfg: CorruptConfig) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("corrupt")
    # Read the ground truth from disk so corrupt composes with external data,
    # and corrupt every frame before writing any, so a bad one writes nothing.
    rng = np.random.default_rng(cfg.seed)
    raws = [corrupt_uv(m.read_uv(i, "uv_gt"), cfg, rng) for i in range(m.n_frames)]
    for i, raw in enumerate(raws):
        m.write_uv(i, "uv_raw", raw)
    m.mark_stage("corrupt", config_dict(cfg))
    m.save()
    return m


def stage_extend(root, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("extend")
    tw, th = m.texture_size

    def run(i):
        raw = m.read_uv(i, "uv_raw")
        full = m.read_mask(i, "mask")
        labeled = label_fill(raw, full)
        extended, new_pts = extrapolate_uv(labeled, known=raw.silhouette)
        return relax_springs(extended, new_pts, tw, th)

    results = _map_frames(run, range(m.n_frames), threads)
    for i, (P, res) in enumerate(results):
        m.write_uv(i, "uv_ext", P)
        m.write_trace(i, "ext", {
            "converged": bool(res.converged), "push_iters": int(res.push_iters),
            "pull_iters": int(res.pull_iters), "max_force": float(res.max_force),
            "distortion_before": float(res.distortion_before),
            "distortion_after": float(res.distortion_after),
            "moved": len(res.moved), "skipped": len(res.skipped)})
    m.mark_stage("extend")
    m.save()
    return m


def stage_optimize(root, cfg: OptConfig | None = None, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("optimize")
    cfg = cfg or OptConfig()
    tw, th = m.texture_size

    def run(i):
        P = m.read_uv(i, "uv_ext")
        I = m.read_image(i, "image", valid=m.read_mask(i, "mask"))
        return optimize_uv(P, I, cfg, tw, th)

    results = _map_frames(run, range(m.n_frames), threads)
    for i, (P, trace) in enumerate(results):
        m.write_uv(i, "uv_opt", P)
        m.write_trace(i, "opt", {"l_app": trace.l_app, "l_reg": trace.l_reg,
                                 "steps": trace.steps, "residual": trace.residual})
    m.mark_stage("optimize", config_dict(cfg))
    m.save()
    return m


def stage_relocate(root, cfg: RelocateConfig | None = None, threads: int = 1,
                   flow_dir=None) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("relocate")
    cfg = cfg or RelocateConfig()
    tw, th = m.texture_size

    def load(i):
        P = m.read_uv(i, "uv_opt")
        I = m.read_image(i, "image", valid=m.read_mask(i, "mask"))
        return P, I

    # Frame 0 defines the reference texture; every frame needs it first.
    # Nothing is written before every frame is relocated.
    P0, I0 = load(0)
    T_o, Q0 = frame_zero_products(P0, I0, tw, th)

    def run(i):
        P, I = (P0, I0) if i == 0 else load(i)
        ext = None
        if flow_dir is not None:
            p = Path(flow_dir) / f"f{i:04d}.flo"
            if not p.is_file():
                raise ValidationError(f"missing external flow {p}")
            ext = read_flo(p)
            if (ext.width, ext.height) != (tw, th):
                raise ValidationError(f"{p.name}: flow is {ext.width}x{ext.height}, "
                                      f"expected {tw}x{th}")
        record = {}
        return relocate_frame(P, I, T_o, Q0, cfg, external_flow=ext, record=record), record

    results = _map_frames(run, range(m.n_frames), threads)
    m.write_texture("texture_o", T_o)
    m.write_corr("corr0", Q0)
    for i, ((P_f, Qt, flow, T_t), record) in enumerate(results):
        m.write_trace(i, "rel", record)
        m.write_uv(i, "uv_final", P_f)
        m.write_corr("corr", Qt, frame=i)
        m.write_texture("texframe", T_t, frame=i)
        write_flo(m.new_item("flow", "flo", frame=i), flow)
    m.mark_stage("relocate", config_dict(cfg))
    m.save()
    return m


def stage_synth(root, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("synth")
    render = LookupRenderer(m.read_texture("texture_o").data)
    stats = [{"frame": i, **asdict(st)}
             for i, st in enumerate(_render_frames(m, render, "uv_final", "synth", threads))]
    write_json(m.new_item("synth_stats", "json"), stats, indent=2)
    m.mark_stage("synth", {})
    m.save()
    return m


def stage_retexture(root, texture_path, tag: str, threads: int = 1) -> Manifest:
    """Re-render the sequence from a different texture; touches no UV files.

    A PFM look is rendered from its float32 samples as stored, a PPM look
    from its float64 decode, through ``_render_frames``.  The tag and the
    look are checked before any frame is rendered.
    """
    if not RETEXTURE_TAG.fullmatch(tag) or tag in FRAME_ITEMS:
        raise ValidationError(f"retexture tag {tag!r} must match {RETEXTURE_TAG.pattern} "
                              f"and name no other stage's frame item")
    m = Manifest.load(root)
    m.require_prereq("retexture")
    texture_path = Path(texture_path)
    if not texture_path.is_file():
        raise ValidationError(f"no texture file at {texture_path}")
    if texture_path.suffix == ".ppm":
        look = read_ppm(texture_path)      # uint8 / 255: finite
    else:
        # as stored, in native byte order
        look = read_pfm_samples(texture_path).astype(np.float32, copy=False)
        if not np.isfinite(look).all():
            raise ValidationError(f"{texture_path}: texture holds non-finite samples")
    if look.shape[2] != 3:
        raise ValidationError(f"retexture needs a 3-channel texture, "
                              f"{texture_path} has {look.shape[2]}")

    _render_frames(m, LookupRenderer(look), "uv_final", tag, threads)
    m.mark_stage("retexture", {"texture": str(texture_path), "tag": tag})
    m.save()
    return m


def _sequence_metrics(m: Manifest, uv_key: str, reals: list, gens: list,
                      real_flows: list, gen_flows: list) -> dict:
    tw, th = m.texture_size
    Ps = [m.read_uv(i, uv_key) for i in range(m.n_frames)]
    psnrs = [metric_psnr(gen, real) for gen, real in zip(gens, reals)]
    t_diff, t_diff_per_pair, t_of, t_of_per_pair = 0.0, [], 0.0, []
    if m.n_frames >= 2:
        t_diff, t_diff_per_pair = metric_tdiff(gens, Ps, tw, th)
        t_of, t_of_per_pair = metric_tof(real_flows, gen_flows)
    return {"psnr": {"mean": float(np.mean(psnrs)), "per_frame": psnrs},
            "t_diff": {"mean": t_diff, "per_pair": t_diff_per_pair},
            "t_of": {"mean": t_of, "per_pair": t_of_per_pair},
            "notes": METRIC_NOTES}


def stage_metrics(root, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_prereq("metrics")
    reals = [m.read_image(i, "image", valid=m.read_mask(i, "mask"))
             for i in range(m.n_frames)]
    # Also score a baseline rendered straight from the raw UVs, so the
    # recovery margin is visible.
    tw, th = m.texture_size
    T_raw, _ = frame_zero_products(m.read_uv(0, "uv_raw"), reals[0], tw, th)
    _render_frames(m, LookupRenderer(T_raw.data), "uv_raw", "baseline", threads)
    synth, baseline = ([m.read_image(i, key, valid=real.valid) for i, real in enumerate(reals)]
                       for key in ("synth", "baseline"))
    # Every consecutive pair's flow in one pass: reals, then synth, then
    # baseline, each in frame order.  Both reports share the real flows.
    seqs = (reals, synth, baseline)
    flows = _map_frames(lambda pair: block_flow(*pair),
                        [pair for seq in seqs for pair in zip(seq, seq[1:])], threads)
    n = m.n_frames - 1
    real_flows, synth_flows, baseline_flows = (flows[k * n:(k + 1) * n] for k in range(3))
    report = {"recovered": _sequence_metrics(m, "uv_final", reals, synth,
                                             real_flows, synth_flows),
              "corrupted_baseline": _sequence_metrics(m, "uv_raw", reals, baseline,
                                                      real_flows, baseline_flows)}
    write_json(m.new_item("metrics", "json"), report, indent=2)
    m.mark_stage("metrics", {})
    m.save()
    return m


def stage_pipeline(root, opt_cfg=None, reloc_cfg=None, threads: int = 1) -> Manifest:
    stage_extend(root, threads)
    stage_optimize(root, opt_cfg, threads)
    stage_relocate(root, reloc_cfg, threads)
    stage_synth(root, threads)
    return stage_metrics(root, threads)


def _read_traces(m: Manifest, stage: str) -> list:
    out = []
    for i in range(m.n_frames):
        with open(m.frame_item(i, f"{stage}_trace")) as fh:
            out.append(json.load(fh))
    return out


def stage_summary(root, stage: str) -> str:
    """One line summing the per-frame traces of ``extend``, ``optimize`` or
    ``relocate``."""
    m = Manifest.load(root)
    m.require_stage(stage)
    tr = _read_traces(m, {"extend": "ext", "optimize": "opt", "relocate": "rel"}[stage])

    def total(key):
        return sum(t[key] for t in tr)

    head = f"{stage}: {len(tr)} frames"
    if stage == "extend":
        return (f"{head}, {total('moved')} moved, {total('skipped')} skipped, "
                f"{total('push_iters') + total('pull_iters')} spring iterations, "
                f"{sum(not t['converged'] for t in tr)} unconverged")
    if stage == "optimize":
        before = sum(t["l_app"][0] for t in tr)
        after = sum(t["l_app"][-1] for t in tr)
        return (f"{head}, l_app {before:.4g} -> {after:.4g}, "
                f"max residual {max(t['residual'] for t in tr):.1e}")
    covered = total("covered")
    mean = sum(t["flow_mean_texels"] * t["covered"] for t in tr) / max(covered, 1)
    return (f"{head}, flow mean {mean:.3f} max {max(t['flow_max_texels'] for t in tr):.3f} "
            f"texels, {total('flow_volumes')} flow volumes over "
            f"{total('flow_volume_texels')} texels, {covered} covered, "
            f"{total('matched')} matched, {total('pruned')} pruned, "
            f"{total('filled')} filled, {total('unfilled')} unfilled")


def run_grad_check(seeds, size: int, probes: int, tol: float) -> float:
    """Finite-difference audit of the analytic gradient at ``OptConfig()``'s
    weights: ``probes`` probes of a ``size``-square scene per seed.

    Raises ValidationError, before any work, unless the grid is at least
    5x5 (the regularizer's smallest), there is a probe, every seed is
    non-negative and the tolerance is positive; NumericalError when any
    seed exceeds the tolerance.
    """
    if size < 5:
        raise ValidationError(f"grad-check size must be at least 5, got {size}")
    if probes < 1:
        raise ValidationError(f"grad-check needs at least one probe, got {probes}")
    if any(seed < 0 for seed in seeds):
        raise ValidationError(f"grad-check seeds must be non-negative, got {list(seeds)}")
    if not tol > 0 or not np.isfinite(tol):
        raise ValidationError(f"grad-check tolerance must be positive and finite, got {tol}")
    cfg, worst = OptConfig(), 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        img = rng.uniform(0.1, 0.9, size=(size, size, 3))
        sil = np.ones((size, size), dtype=bool)
        # Keep splat positions off cell boundaries so probes stay smooth.
        uv = rng.uniform(0.25, 0.65, size=(size, size, 2)) / size
        P = UVMap(uv, sil)
        I = Field2(img)
        ys = rng.integers(1, size - 1, size=probes)
        xs = rng.integers(1, size - 1, size=probes)
        cs = rng.integers(0, 2, size=probes)
        pr = np.stack([ys, xs, cs], axis=1)
        worst = max(worst, fd_probe_check(P, I, alpha1=cfg.alpha1, alpha2=cfg.alpha2,
                                          probes=pr))
    if worst >= tol:
        raise NumericalError(f"gradient check failed: max relative error {worst:.3e}")
    return worst

"""Pipeline stages over a manifest directory.

Each stage loads its inputs through the manifest, runs the corresponding
library code, writes its artifacts, and records a provenance tag.  Frames
are independent except for relocation's dependence on frame 0, so stages
fan out over a thread pool; everything inside a frame is single-threaded
numpy, which keeps outputs bit-identical for any thread count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .extend import SpringConfig, extrapolate_uv, label_fill, relax_springs
from .fields import Field2
from .formats import read_pfm, read_ppm, write_ppm
from .gradcore import fd_probe_check
from .manifest import Manifest, config_dict
from .metrics import MetricReport, metric_psnr, metric_tdiff, metric_tof, pair_flows
from .relocate import (RelocateConfig, frame_zero_products, read_flo,
                       relocate_frame, write_flo)
from .render import LookupRenderer
from .scenegen import CorruptConfig, SceneConfig, corrupt, gen_sequence
from .uvopt import OptConfig, optimize_uv
from .warpmap import UVMap


def _map_frames(fn, indices, threads: int):
    if threads <= 1:
        return [fn(i) for i in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, indices))


def _write_trace(m: Manifest, index: int, stage: str, record: dict):
    """Write one frame's stage record as sorted-key JSON, item ``<stage>_trace``."""
    rel = f"traces/f{index:04d}_{stage}.json"
    with open(m.root / rel, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")
    m.set_frame_item(index, f"{stage}_trace", rel)


def stage_gen(out_dir, cfg: SceneConfig) -> Manifest:
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
    m.require_stage("gen")
    # Rebuild the frameset from disk so corrupt composes with external data.
    scene = SceneConfig(**m.data["stages"]["gen"]["config"])
    fs = gen_sequence(scene)
    fs = corrupt(fs, cfg)
    for fr in fs.frames:
        m.write_uv(fr.index, "uv_raw", fr.uv_raw)
        m.write_mask(fr.index, "mask_raw", fr.mask_raw)
    m.mark_stage("corrupt", config_dict(cfg))
    m.save()
    return m


def stage_extend(root, cfg: SpringConfig | None = None, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_stage("corrupt")
    cfg = cfg or SpringConfig()
    if cfg.tex_w is None:
        tw, th = m.texture_size
        cfg = SpringConfig(**{**config_dict(cfg), "tex_w": tw, "tex_h": th})

    (m.root / "traces").mkdir(exist_ok=True)

    def run(i):
        raw = m.read_uv(i, "uv_raw")
        full = m.read_mask(i, "mask")
        labeled = label_fill(raw, full)
        extended, new_pts = extrapolate_uv(labeled, known=raw.silhouette)
        return relax_springs(extended, new_pts, cfg)

    results = _map_frames(run, range(m.n_frames), threads)
    for i, (P, res) in enumerate(results):
        m.write_uv(i, "uv_ext", P)
        _write_trace(m, i, "ext", {
            "converged": bool(res.converged), "push_iters": int(res.push_iters),
            "pull_iters": int(res.pull_iters), "max_force": float(res.max_force),
            "distortion_before": float(res.distortion_before),
            "distortion_after": float(res.distortion_after),
            "moved": len(res.moved), "skipped": len(res.skipped)})
    m.mark_stage("extend", config_dict(cfg))
    m.save()
    return m


def stage_optimize(root, cfg: OptConfig | None = None, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_stage("extend")
    cfg = cfg or OptConfig()
    if cfg.tex_w is None:
        tw, th = m.texture_size
        cfg = OptConfig(**{**config_dict(cfg), "tex_w": tw, "tex_h": th})
    (m.root / "traces").mkdir(exist_ok=True)

    def run(i):
        P = m.read_uv(i, "uv_ext")
        I = m.read_image(i, "image", valid=m.read_mask(i, "mask"))
        return optimize_uv(P, I, cfg)

    results = _map_frames(run, range(m.n_frames), threads)
    for i, (P, trace) in enumerate(results):
        m.write_uv(i, "uv_opt", P)
        _write_trace(m, i, "opt", {"l_app": trace.l_app, "l_reg": trace.l_reg,
                                   "steps": trace.steps, "residual": trace.residual})
    m.mark_stage("optimize", config_dict(cfg))
    m.save()
    return m


def stage_relocate(root, cfg: RelocateConfig | None = None, threads: int = 1,
                   flow_dir=None) -> Manifest:
    m = Manifest.load(root)
    m.require_stage("optimize")
    cfg = cfg or RelocateConfig()
    tw, th = m.texture_size

    def load(i):
        P = m.read_uv(i, "uv_opt")
        I = m.read_image(i, "image", valid=m.read_mask(i, "mask"))
        return P, I

    # Frame 0 defines the reference texture; every frame needs it first.
    P0, I0 = load(0)
    T_o, Q0 = frame_zero_products(P0, I0, tw, th)
    m.write_texture("texture_o", T_o)
    m.write_corr("corr0", Q0)

    (m.root / "traces").mkdir(exist_ok=True)

    def run(i):
        P, I = load(i)
        ext = None
        if flow_dir is not None:
            p = Path(flow_dir) / f"f{i:04d}.flo"
            if not p.is_file():
                raise ValidationError(f"missing external flow {p}")
            ext = read_flo(p)
        record = {}
        return relocate_frame(P, I, T_o, Q0, cfg, external_flow=ext, record=record), record

    results = _map_frames(run, range(m.n_frames), threads)
    for i, ((P_f, Qt, flow, T_t), record) in enumerate(results):
        _write_trace(m, i, "rel", record)
        m.write_uv(i, "uv_final", P_f)
        m.write_corr("corr", Qt, frame=i)
        m.write_texture("texframe", T_t, frame=i)
        rel = f"frames/f{i:04d}_flow.flo"
        write_flo(m.root / rel, flow)
        m.set_frame_item(i, "flow", rel)
    m.mark_stage("relocate", config_dict(cfg))
    m.save()
    return m


def stage_synth(root, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_stage("relocate")
    render = LookupRenderer(m.read_texture("texture_o"))

    def run(i):
        return render(m.read_uv(i, "uv_final"))

    results = _map_frames(run, range(m.n_frames), threads)
    stats = []
    for i, (img, st) in enumerate(results):
        m.write_image(i, "synth", img)
        stats.append({"frame": i, "fetches": st.fetches,
                      "foreground_pixels": st.foreground_pixels,
                      "texel_reads_per_pixel": st.texel_reads_per_pixel,
                      "madds_per_channel_per_pixel": st.madds_per_channel_per_pixel})
    with open(m.root / "synth_stats.json", "w") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")
    m.set_item("synth_stats", "synth_stats.json")
    m.mark_stage("synth", {})
    m.save()
    return m


def stage_retexture(root, texture_path, tag: str = "retex", threads: int = 1) -> Manifest:
    """Re-render the sequence from a different texture; touches no UV files."""
    m = Manifest.load(root)
    m.require_stage("relocate")
    texture_path = Path(texture_path)
    if texture_path.suffix == ".ppm":
        T = Field2(read_ppm(texture_path))
    else:
        T = Field2(read_pfm(texture_path))

    render = LookupRenderer(T)

    # Each frame is written as soon as it is rendered, so no more than one
    # frame per thread is held in memory.
    def run(i):
        img, _ = render(m.read_uv(i, "uv_final"))
        rel = f"frames/f{i:04d}_{tag}.ppm"
        write_ppm(m.root / rel, img.data)
        return rel

    for i, rel in enumerate(_map_frames(run, range(m.n_frames), threads)):
        m.set_frame_item(i, tag, rel)
    m.mark_stage("retexture", {"texture": str(texture_path), "tag": tag})
    m.save()
    return m


def _sequence_metrics(m: Manifest, uv_key: str, image_key: str,
                      reals: list, real_flows: list) -> dict:
    tw, th = m.texture_size
    gens, Ps, psnrs = [], [], []
    for i, real in enumerate(reals):
        gen = m.read_image(i, image_key, valid=real.valid)
        gens.append(gen)
        Ps.append(m.read_uv(i, uv_key))
        psnrs.append(metric_psnr(gen, real))
    rep = MetricReport(psnr_mean=float(np.mean(psnrs)), psnr_per_frame=psnrs)
    if m.n_frames >= 2:
        rep.t_diff, rep.t_diff_per_pair = metric_tdiff(gens, Ps, tw, th)
        rep.t_of, rep.t_of_per_pair = metric_tof(real_flows, gens)
    return rep.to_dict()


def stage_metrics(root, threads: int = 1) -> Manifest:
    m = Manifest.load(root)
    m.require_stage("synth")
    # Both reports score against the same real frames and real-frame flows.
    reals = [m.read_image(i, "image", valid=m.read_mask(i, "mask"))
             for i in range(m.n_frames)]
    real_flows = pair_flows(reals)
    report = {"recovered": _sequence_metrics(m, "uv_final", "synth", reals, real_flows)}

    # When the sequence was corrupted, also score a baseline rendered
    # straight from the raw UVs so the recovery margin is visible.
    if "corrupt" in m.data["stages"]:
        tw, th = m.texture_size
        T_raw, _ = frame_zero_products(m.read_uv(0, "uv_raw"), reals[0], tw, th)
        render = LookupRenderer(T_raw)

        def run(i):
            img, _ = render(m.read_uv(i, "uv_raw"))
            return img

        for i, img in enumerate(_map_frames(run, range(m.n_frames), threads)):
            m.write_image(i, "baseline", img)
        report["corrupted_baseline"] = _sequence_metrics(m, "uv_raw", "baseline",
                                                         reals, real_flows)

    with open(m.root / "metrics.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    m.set_item("metrics", "metrics.json")
    m.mark_stage("metrics", {})
    m.save()
    return m


def stage_pipeline(root, extend_cfg=None, opt_cfg=None, reloc_cfg=None,
                   threads: int = 1) -> Manifest:
    stage_extend(root, extend_cfg, threads)
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


def run_grad_check(seeds=(0, 1, 2), size: int = 8, probes: int = 20,
                   eps: float = 1e-3, tol: float = 1e-3) -> float:
    """Finite-difference audit of the analytic gradient on small scenes.

    Raises NumericalError when any seed exceeds the tolerance.
    """
    worst = 0.0
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
        worst = max(worst, fd_probe_check(P, I, alpha1=100.0, alpha2=10.0,
                                          probes=pr, eps=eps))
    if worst >= tol:
        raise NumericalError(f"gradient check failed: max relative error {worst:.3e}")
    return worst

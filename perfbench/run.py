"""uvweave benchmark: drives the CLI the way a user does and checks its outputs.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run is one process.  It imports uvweave from ``src/`` of the checkout
it sits in and calls ``uvweave.cli.main([...])`` for every operation, so
each command's exit code is that operation's result.  It builds the
workload's inputs from ``--seed`` several times (``setup_s`` is the median
build), runs the workload's operations for about ``--seconds``, checks
every output against the oracles in ``checks.py`` and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
span tracer of ``tracer.py`` and reports the per-layer metrics instead.
Scratch files go to ``perfbench/_work/`` and are removed at exit; a traced
run leaves its spans in ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from checks import (QUANT_TOL, Sequence, bilinear, check_recovery, psnr, ramp_positions,
                    ramp_texture, read_pfm, read_ppm, texture_positions)
from tracer import Tracer, has_ancestor, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("recover", "retexture")

# recover: the acceptance scene settings at 64^2 x 8.  Quality differs from
# scene to scene by 5-20%, so every run recovers SCENES of them, scene k
# from seed 2 * seed + k, and reports their mean.
SCENE_ARGS = ["--width", "64", "--height", "64", "--tex-width", "64",
              "--tex-height", "64", "--frames", "8",
              "--amplitude", "0.02", "--frequency", "1.5"]
CORRUPT_ARGS = ["--margin", "4", "--dup-blocks", "8", "--dup-size", "8",
                "--uv-noise", "0.01"]
PIPELINE_ARGS = ["--max-steps", "250", "--threads", "2"]
SCENES = 2
SCENE_BUILDS = 8             # set-up builds per scene and run
RECOVER_PAIRS = 40           # at least this many pairs of retexture passes per run

# retexture: the 512^2 x 16 sequence of the render-budget acceptance test.
BIG, BIG_FRAMES = 512, 16
RETEXTURE_BUILDS = 4
ORACLE_STRIDE = 97

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "retexture_fps": "frames/s",
              "psnr_db": "dB", "t_diff": "intensity", "t_of": "texels",
              "uv_err_texels": "texels", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    special = {"uvopt.accepted_per_eval": "ratio", "formats.bytes_read": "bytes",
               "formats.bytes_written": "bytes", "trace.overhead_pct": "%"}
    return special.get(name, "s" if name.endswith("_s") else "count")


# Per-layer metrics of a traced run.  ``_s`` times are self time (duration
# minus traced children), except ``stages.*`` which are inclusive.
PER_LAYER = {name: _unit(name) for name in """
    stages.gen_s stages.corrupt_s stages.extend_s stages.optimize_s stages.relocate_s
    stages.synth_s stages.metrics_s stages.retexture_s stages.retexture_first_s
    extend.label_fill_s extend.extrapolate_uv_s extend.relax_springs_s
    extend.new_points extend.spring_iters extend.unconverged_frames
    uvopt.optimize_uv_s uvopt.steps uvopt.accepted_steps uvopt.accepted_per_eval
    gradcore.grad_app_s gradcore.loss_app_s gradcore.grad_reg_s gradcore.loss_reg_s
    gradcore.grad_app_calls gradcore.loss_app_calls
    warpmap.splat_record_s warpmap.splat_average_s warpmap.texture_grid_s warpmap.warp_s
    warpmap.splat_average_calls
    relocate.frame_zero_products_s relocate.block_flow_s relocate.prune_mismatch_s
    relocate.patch_fill_s relocate.to_image_uv_s relocate.block_flow_calls
    relocate.filled_texels
    metrics.metric_psnr_s metrics.metric_tdiff_s metrics.metric_tof_s
    metrics.block_flow_s metrics.block_flow_calls
    render.render_s render.frames render.fetches
    formats.read_pfm_s formats.read_pfm_samples_s formats.write_pfm_s formats.read_ppm_s
    formats.write_ppm_s formats.bytes_read formats.bytes_written
    manifest.read_uv_s manifest.write_uv_s manifest.load_s manifest.save_s
    process.user_s process.sys_s process.minor_faults process.retexture_pass_user_s
    process.retexture_pass_sys_s process.retexture_pass_minor_faults
    trace.spans trace.overhead_pct""".split()}


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(root: Path, pattern: str) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob(pattern)) if p.is_file()}


class Run:
    """One benchmark run: its operations, checks, timings and tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer=None):
        from uvweave import cli, formats
        self.cli, self.formats = cli, formats
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = tracer
        self.work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.attempted = self.failed = 0
        self.checks: dict[str, bool] = {}
        self.setup_times: list[float] = []
        self.command_times: list[float] = []
        self.passes: list[tuple] = []     # (seconds, frames, user_s, sys_s, minflt)
        self.quality: dict[str, float] = {}
        self.builds = self.pipelines = 0
        self.foreground = 0               # retexture: foreground pixels per frame
        self.peak_rss_mb = 0.0            # after the workload's main commands

    # -- operations -----------------------------------------------------------

    def op(self, *argv) -> tuple[bool, float]:
        """Run one CLI command in-process; returns (exit code == 0, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main([str(a) for a in argv])
        except Exception:          # a crash is that command's failure
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"[perfbench] {argv[0]} exited {code}", file=sys.stderr)
        return code == 0, elapsed

    def check(self, name: str, ok: bool):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def phase(self, name: str) -> str:
        """Tag the spans made from now on; returns the previous tag."""
        if self.tracer is None:
            return name
        previous, self.tracer.phase = self.tracer.phase, name
        return previous

    def _texture(self, path: Path, w: int, h: int, rng):
        """A fresh random look for one retexture pass.  The benchmark makes
        it, so its writes are kept out of the per-layer figures."""
        data = rng.uniform(size=(h, w, 3))
        previous = self.phase("aside")
        if path.suffix == ".pfm":
            self.formats.write_pfm(path, data)
        else:
            self.formats.write_ppm(path, data)
        self.phase(previous)

    def retexture_pass(self, seq_root: Path, tex: Path, oracle) -> bool:
        """One timed ``retexture`` command, then its oracle check."""
        previous = self.phase("pass")
        u0 = _rusage()
        ok, dt = self.op("retexture", seq_root, tex, "--threads", "1")
        u1 = _rusage()
        self.phase(previous)
        self.passes.append((dt, oracle.frames, u1[0] - u0[0], u1[1] - u0[1], u1[2] - u0[2]))
        if self.workload == "retexture":
            self.command_times.append(dt)
        if ok:
            tex_data = read_pfm(tex) if tex.suffix == ".pfm" else read_ppm(tex)
            self.check("retexture_oracle", oracle.check(seq_root, tex_data))
        return ok

    def retexture_pairs(self, seq_root: Path, oracle, start: float, min_pairs: int):
        """Pairs of retexture passes, each pair with fresh 512^2 looks (one
        PFM, one PPM), until another pair would end past ``--seconds`` after
        ``start``; at least ``min_pairs``."""
        uv_before = _digest(seq_root, "*_uv_*.pfm")
        pairs, t0 = 0, time.perf_counter()
        while True:
            rng = np.random.default_rng([self.seed, 1, pairs])
            for suffix in ("pfm", "ppm"):
                tex = self.work / f"look.{suffix}"
                self._texture(tex, BIG, BIG, rng)
                self.check("retexture_ok", self.retexture_pass(seq_root, tex, oracle))
            pairs += 1
            now = time.perf_counter()
            if pairs >= min_pairs and now - start + (now - t0) / pairs > self.seconds:
                break
        self.check("uv_untouched", _digest(seq_root, "*_uv_*.pfm") == uv_before)

    # -- workloads ------------------------------------------------------------
    #
    # Set-up builds are split between the start and the end of the run, so
    # that their median spans the run rather than one moment of it.

    def _build_scene(self, d: Path, seed: int) -> dict:
        """gen + corrupt of one recover scene into ``d``, timed as set-up;
        returns the digest of what it wrote."""
        self.phase("setup")
        t0 = time.perf_counter()
        ok = self.op("gen", d, *SCENE_ARGS, "--seed", seed)[0]
        ok = ok and self.op("corrupt", d, *CORRUPT_ARGS, "--seed", seed)[0]
        self.setup_times.append(time.perf_counter() - t0)
        self.builds += 1
        self.check("setup_ok", ok)
        return _digest(d, "*")

    def _rebuild_scenes(self, seeds, refs, count: int):
        """More set-up builds, each byte-identical to the first of its scene."""
        for _ in range(count):
            for seed, ref in zip(seeds, refs):
                d = self.work / "rebuild"
                self.check("setup_deterministic", self._build_scene(d, seed) == ref)
                shutil.rmtree(d)

    def recover(self):
        seeds = [2 * self.seed + k for k in range(SCENES)]
        scenes = [self.work / f"scene{k}" for k in range(SCENES)]
        refs = [self._build_scene(d, seed) for d, seed in zip(scenes, seeds)]
        self._rebuild_scenes(seeds, refs, SCENE_BUILDS // 2 - 1)
        self._recover_rounds(scenes)
        self._rebuild_scenes(seeds, refs, SCENE_BUILDS - SCENE_BUILDS // 2)

    def _recover_rounds(self, scenes):
        """Whole rounds, one ``pipeline`` per scene, while another round fits
        in ``--seconds``; then retexture passes of the last recovered
        sequence for the rest of it."""
        start = time.perf_counter()
        rounds = 0
        while True:
            results = []
            for k, base in enumerate(scenes):
                rd = self.work / f"recovered{k}"
                if rd.exists():
                    shutil.rmtree(rd)
                shutil.copytree(base, rd)
                self.phase("pipeline")
                ok, dt = self.op("pipeline", rd, *PIPELINE_ARGS)
                self.command_times.append(dt)
                self.pipelines += 1
                self.check("pipeline_ok", ok)
                if not ok:
                    return
                res = check_recovery(Sequence(rd))
                for name, passed in res.pop("checks").items():
                    self.check(name, passed)
                results.append(res)
            quality = {key: statistics.fmean(r[key] for r in results) for key in results[0]}
            self.quality = self.quality or quality
            self.check("quality_repeats", quality == self.quality)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > self.seconds:
                break
        self.peak_rss_mb = _peak_rss_mb()
        oracle = Oracle.from_sequence(Sequence(rd), "uv_final", stride=7)
        self.retexture_pairs(rd, oracle, start, RECOVER_PAIRS)

    def _build_sequence(self, root: Path, x, y, sil):
        """The 512^2 x 16 sequence, written through the manifest with the
        upstream stages marked done, plus the first pair of looks."""
        from uvweave.manifest import Manifest
        from uvweave.warpmap import UVMap
        self.phase("setup")
        if root.exists():
            shutil.rmtree(root)
        t0 = time.perf_counter()
        m = Manifest.create(root, (BIG, BIG), (BIG, BIG), BIG_FRAMES)
        m.data["has_parts"] = False
        for i in range(BIG_FRAMES):
            ph = 0.3 * i / BIG_FRAMES
            uv = np.stack([0.02 * np.sin(6 * y + ph), 0.02 * np.cos(5 * x - ph)], axis=2)
            m.write_uv(i, "uv_final", UVMap(np.where(sil[..., None], uv, 0.0), sil))
        for stage in ("gen", "corrupt", "extend", "optimize", "relocate"):
            m.mark_stage(stage)
        m.save()
        rng = np.random.default_rng([self.seed, 1, 0])
        for suffix in ("pfm", "ppm"):
            self._texture(self.work / f"look.{suffix}", BIG, BIG, rng)
        self.setup_times.append(time.perf_counter() - t0)
        self.builds += 1

    def retexture(self):
        centers = (np.arange(BIG) + 0.5) / BIG
        x, y = np.meshgrid(centers, centers)
        sil = ((x - 0.5) / 0.36) ** 2 + ((y - 0.5) / 0.40) ** 2 <= 1.0
        self.foreground = int(sil.sum())
        root = self.work / "seq"
        for _ in range(RETEXTURE_BUILDS // 2):
            self._build_sequence(root, x, y, sil)
        ref = _digest(root, "*_uv_*.pfm")

        oracle = Oracle.from_sequence(Sequence(root), "uv_final", ORACLE_STRIDE)
        self.retexture_pairs(root, oracle, time.perf_counter(), 1)
        self.peak_rss_mb = _peak_rss_mb()

        # The quality look: a seeded linear ramp, so every output pixel
        # shows the texture position it fetched.
        self.phase("aside")
        rng = np.random.default_rng([self.seed, 2])
        gain = rng.uniform(0.85, 1.0, size=2)
        offset = rng.uniform(0.0, 1.0 - gain)
        ramp = self.work / "ramp.pfm"
        self.formats.write_pfm(ramp, ramp_texture(BIG, BIG, gain, offset))
        ok, _ = self.op("retexture", root, ramp, "--threads", "1", "--tag", "ramp")
        self.check("ramp_ok", ok)
        if ok:
            self.quality = ramp_quality(Sequence(root), "ramp", gain, offset)
            self.check("ramp_oracle", self.quality.pop("oracle_ok"))
        self.check("uv_untouched", _digest(root, "*_uv_*.pfm") == ref)
        for _ in range(RETEXTURE_BUILDS - RETEXTURE_BUILDS // 2):
            self._build_sequence(root, x, y, sil)

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> dict:
        # A pass renders every frame of its sequence, so the median pass
        # gives the rate; the first, cold pass of a process does not set it.
        frames = self.passes[0][1]
        values = {
            "setup_s": statistics.median(self.setup_times),
            "pipeline_s": statistics.median(self.command_times),
            "retexture_fps": frames / statistics.median(p[0] for p in self.passes),
            "psnr_db": self.quality["psnr_db"],
            "t_diff": self.quality["t_diff"],
            "t_of": self.quality["t_of"],
            "uv_err_texels": self.quality["uv_err_texels"],
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


class Oracle:
    """Per-pixel bilinear oracle for every frame of a sequence's UV files,
    on a stride of foreground pixels; the positions are read once."""

    def __init__(self, points, background):
        self.points = points            # per frame: (ys, xs, positions)
        self.background = background    # per frame: background mask
        self.frames = len(points)

    @classmethod
    def from_sequence(cls, seq, key: str, stride: int):
        points, background = [], []
        for i in range(seq.n_frames):
            uv, sil = seq.uv(i, key)
            ys, xs = np.nonzero(sil)
            ys, xs = ys[::stride], xs[::stride]
            points.append((ys, xs, texture_positions(uv)[ys, xs]))
            background.append(~sil)
        return cls(points, background)

    def check(self, root: Path, tex) -> bool:
        seq = Sequence(root)
        for i, (ys, xs, pos) in enumerate(self.points):
            frame = seq.image(i, "retex")
            if np.abs(frame[ys, xs] - bilinear(tex, pos)).max() > QUANT_TOL:
                return False
            if not (frame[self.background[i]] == 0.0).all():
                return False
        return True


def ramp_quality(seq, tag: str, gain, offset) -> dict:
    """Render fidelity of the ramp look against the oracle, in the units of
    the recovery metrics: PSNR, temporal difference in excess of the
    oracle's, and texture-position error and its frame-to-frame gap."""
    tex = ramp_texture(seq.tex_w, seq.tex_h, gain, offset).astype(np.float32).astype(np.float64)
    scale = np.array([seq.tex_w, seq.tex_h])
    psnrs, tdiffs, tofs, dists, prev = [], [], [], [], None
    oracle_ok = True
    for i in range(seq.n_frames):
        uv, sil = seq.uv(i, "uv_final")
        got = seq.image(i, tag)
        truth = texture_positions(uv)
        want = np.zeros_like(got)
        want[sil] = bilinear(tex, truth[sil])
        oracle_ok &= bool(np.abs(got - want).max() <= QUANT_TOL)
        psnrs.append(psnr(got, want, sil))
        seen = ramp_positions(got, gain, offset)
        d = (seen - truth)[sil] * scale
        dists.append(np.sqrt(np.sum(d * d, axis=1)))
        if prev is not None:
            p_got, p_want, p_seen, p_truth, p_sil = prev
            both = sil & p_sil
            tdiffs.append(float(np.mean(np.abs((got - p_got) - (want - p_want))[both])))
            gap = ((seen - p_seen) - (truth - p_truth))[both] * scale
            tofs.append(float(np.mean(np.abs(gap))))
        prev = (got, want, seen, truth, sil)
    return {"oracle_ok": oracle_ok,
            "psnr_db": float(np.mean(psnrs)), "t_diff": float(np.mean(tdiffs)),
            "t_of": float(np.mean(tofs)),
            "uv_err_texels": float(np.mean(np.concatenate(dists)))}


def per_layer(run: Run, tracer, wall: float, rusage0) -> dict:
    """Per-layer figures for one set-up build, one pipeline and one retexture
    pass; spans the benchmark made for its own inputs and checks ("aside")
    are left out."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    # Sums per phase first, then one division each, so counts stay whole.
    per = {"setup": max(run.builds, 1), "pipeline": max(run.pipelines, 1),
           "pass": max(len(run.passes), 1)}
    sums = {phase: defaultdict(float) for phase in per}
    for s in spans:
        if s[6] not in per:
            continue
        acc = sums[s[6]]
        name = s[1]
        # metric_tof's flows are the metrics stage's work, not relocate's.
        if name == "relocate.block_flow" and has_ancestor(s, "metrics.metric_tof", by_id):
            name = "metrics.block_flow"
        inclusive = name.startswith("stages.")
        acc[name + "_s"] += (s[3] - s[2]) if inclusive else own[s[0]]
        acc[name + "_calls"] += 1
        for k, v in (s[7] or {}).items():
            acc[f"{name.split('.')[0]}.{k}"] += v
    total = defaultdict(float)
    for phase, acc in sums.items():
        for k, v in acc.items():
            total[k] += v / per[phase]
    first = [s for s in spans if s[1] == "stages.retexture"]
    passes = run.passes or [(0.0,) * 5]
    loss_calls = total["gradcore.loss_app_calls"]
    u = _rusage()
    total.update({
        "stages.retexture_first_s": first[0][3] - first[0][2] if first else 0.0,
        "render.frames": total["render.render_calls"],
        "uvopt.accepted_per_eval":
            total["uvopt.accepted_steps"] / loss_calls if loss_calls else 0.0,
        "process.user_s": u[0] - rusage0[0],
        "process.sys_s": u[1] - rusage0[1],
        "process.minor_faults": u[2] - rusage0[2],
        "process.retexture_pass_user_s": statistics.median(p[2] for p in passes),
        "process.retexture_pass_sys_s": statistics.median(p[3] for p in passes),
        "process.retexture_pass_minor_faults": statistics.median(p[4] for p in passes),
        "trace.spans": len(spans),
        "trace.overhead_pct":
            100.0 * (tracer.call_cost() * len(spans) + sum(tracer.count_times)) / wall,
    })
    return {name: {"value": float(total[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rusage0 = _rusage()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if trace:
        import uvweave.cli  # noqa: F401  (binds every module the tracer patches)
        tracer = Tracer()
        tracer.install()
    run = Run(workload, seed, seconds, tracer)
    run.work.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run.retexture() if workload == "retexture" else run.recover()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"spans-{workload}-seed{seed}.json")
        metrics = per_layer(run, tracer, wall, rusage0)
        if workload == "retexture":
            renders = [s[7] for s in tracer.spans if s[1] == "render.render"]
            run.check("fetches_equal_foreground", bool(renders) and all(
                r["fetches"] == run.foreground for r in renders))
    else:
        metrics = run.end_to_end() if run.quality else {}
    correct = bool(run.quality) and all(run.checks.values())
    print(f"[perfbench] quality {json.dumps(run.quality, sort_keys=True)}", file=sys.stderr)
    for name, ok in sorted(run.checks.items()):
        print(f"[perfbench] check {name}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a process of its own; metrics are prefixed
    with the workload's name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if res is None:
            total["correct"] = False
            print(f"[perfbench] {workload}: exited {proc.returncode}", file=sys.stderr)
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uvweave" / "cli.py").is_file():
        print(f"[perfbench] no uvweave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        res = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    print(json.dumps(res, sort_keys=True))
    return 0 if res["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

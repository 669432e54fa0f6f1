"""Span tracing of uvweave's module boundaries, installed from outside.

``Tracer.install`` replaces each traced function in every uvweave module
that binds it (``uvweave.stages.relax_springs``, ``uvweave.uvopt.grad_app``,
``uvweave.metrics.block_flow``, ...), and each traced method on its class,
with a wrapper that records a span: name, start, end, parent span and
thread.  The wrapper also reads counts off the call's arguments and
result.  Spans stay in memory until ``write``; ``uninstall`` puts every
original back.

A span's self time is its duration minus the part of it its child spans
cover.  Children run on the parent's thread, so in threaded runs the
times are busy time summed over threads.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _size(path) -> int:
    return os.path.getsize(path)


def _relax_counts(args, kwargs, res):
    r = res[1]
    return {"spring_iters": r.push_iters + r.pull_iters,
            "unconverged_frames": int(not r.converged)}


def _optimize_counts(args, kwargs, res):
    # A step is accepted when the loss it records moves; a rejected step
    # (the line search gave up) records the previous value again.
    totals = res[1].total
    accepted = sum(1 for a, b in zip(totals, totals[1:]) if b != a)
    return {"steps": res[1].steps, "accepted_steps": accepted}


def _patch_fill_counts(args, kwargs, res):
    return {"filled_texels": int(res.valid.sum()) - int(args[0].valid.sum())}


# (module, attribute, span name, count reader).  A dotted attribute names a
# method on a class.  Span names are the per-layer metric prefixes.
TARGETS = [
    ("uvweave.stages", "stage_gen", "stages.gen", None),
    ("uvweave.stages", "stage_corrupt", "stages.corrupt", None),
    ("uvweave.stages", "stage_extend", "stages.extend", None),
    ("uvweave.stages", "stage_optimize", "stages.optimize", None),
    ("uvweave.stages", "stage_relocate", "stages.relocate", None),
    ("uvweave.stages", "stage_synth", "stages.synth", None),
    ("uvweave.stages", "stage_metrics", "stages.metrics", None),
    ("uvweave.stages", "stage_retexture", "stages.retexture", None),
    ("uvweave.extend", "label_fill", "extend.label_fill", None),
    ("uvweave.extend", "extrapolate_uv", "extend.extrapolate_uv",
     lambda a, k, r: {"new_points": len(r[1])}),
    ("uvweave.extend", "relax_springs", "extend.relax_springs", _relax_counts),
    ("uvweave.uvopt", "optimize_uv", "uvopt.optimize_uv", _optimize_counts),
    ("uvweave.gradcore", "grad_app", "gradcore.grad_app", None),
    ("uvweave.gradcore", "loss_app", "gradcore.loss_app", None),
    ("uvweave.gradcore", "grad_reg", "gradcore.grad_reg", None),
    ("uvweave.gradcore", "loss_reg", "gradcore.loss_reg", None),
    ("uvweave.warpmap", "splat_record", "warpmap.splat_record", None),
    ("uvweave.warpmap", "splat_average", "warpmap.splat_average", None),
    ("uvweave.warpmap", "texture_grid", "warpmap.texture_grid", None),
    ("uvweave.warpmap", "warp", "warpmap.warp", None),
    ("uvweave.relocate", "frame_zero_products", "relocate.frame_zero_products", None),
    ("uvweave.relocate", "block_flow", "relocate.block_flow", None),
    ("uvweave.relocate", "prune_mismatch", "relocate.prune_mismatch", None),
    ("uvweave.relocate", "patch_fill", "relocate.patch_fill", _patch_fill_counts),
    ("uvweave.relocate", "to_image_uv", "relocate.to_image_uv", None),
    ("uvweave.metrics", "metric_psnr", "metrics.metric_psnr", None),
    ("uvweave.metrics", "metric_tdiff", "metrics.metric_tdiff", None),
    ("uvweave.metrics", "metric_tof", "metrics.metric_tof", None),
    ("uvweave.render", "LookupRenderer.__call__", "render.render",
     lambda a, k, r: {"fetches": r[1].fetches,
                      "foreground_pixels": r[1].foreground_pixels}),
    ("uvweave.formats", "read_pfm", "formats.read_pfm", None),
    ("uvweave.formats", "read_pfm_samples", "formats.read_pfm_samples",
     lambda a, k, r: {"bytes_read": _size(a[0])}),
    ("uvweave.formats", "write_pfm", "formats.write_pfm",
     lambda a, k, r: {"bytes_written": _size(a[0])}),
    ("uvweave.formats", "read_ppm", "formats.read_ppm",
     lambda a, k, r: {"bytes_read": _size(a[0])}),
    ("uvweave.formats", "write_ppm", "formats.write_ppm",
     lambda a, k, r: {"bytes_written": _size(a[0])}),
    ("uvweave.manifest", "Manifest.read_uv", "manifest.read_uv", None),
    ("uvweave.manifest", "Manifest.write_uv", "manifest.write_uv", None),
    ("uvweave.manifest", "Manifest.load", "manifest.load", None),
    ("uvweave.manifest", "Manifest.save", "manifest.save", None),
]


class Tracer:
    """Records spans while installed.  ``phase`` tags each span with the
    part of the run it belongs to."""

    def __init__(self):
        self.spans = []           # (id, name, start, end, parent, thread, phase, counts)
        self.phase = "setup"
        self.count_times = []     # seconds spent reading counts, a part of the overhead
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def wrap(self, fn, name, count=None):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = None
            if count is not None:
                counts = count(args, kwargs, res)
                # list.append is atomic; a shared running sum would lose
                # updates between frame threads.
                self.count_times.append(time.perf_counter() - t1)
            spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                          self.phase, counts))
            return res

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "uvweave" or n.startswith("uvweave.")]
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(raw.__func__, name, count)))
                else:
                    self._set(cls, meth, self.wrap(raw, name, count))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def call_cost(self, n: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap(noop, "probe")
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        return max(time.perf_counter() - t0 - bare, 0.0) / n

    def write(self, path):
        fields = ("id", "name", "start", "end", "parent", "thread", "phase", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
            fh.write("\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        covered, end = 0.0, s[2]
        for a, b in sorted(children.get(s[0], ())):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[s[0]] = (s[3] - s[2]) - covered
    return out


def has_ancestor(span, name, by_id) -> bool:
    parent = span[4]
    while parent is not None:
        p = by_id[parent]
        if p[1] == name:
            return True
        parent = p[4]
    return False

"""Command-line interface.

Exit codes: 0 on success, 2 for input/validation problems, 3 for numerical
failures.  `--threads` (or the UVWEAVE_THREADS environment variable) sets
the frame-level worker count; outputs are bit-identical for any value.
`extend`, `optimize`, `relocate` and `pipeline` print one summary line per
stage, built from the per-frame traces.  An option that sets a config field
carries the field's name and takes its default from the config dataclass.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import stages
from .errors import NumericalError, ValidationError
from .relocate import RelocateConfig
from .scenegen import PATTERNS, SILHOUETTES, CorruptConfig, SceneConfig
from .uvopt import OptConfig


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("UVWEAVE_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValidationError(f"UVWEAVE_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ValidationError("UVWEAVE_THREADS must be >= 1")
        return n
    return 1


def _add_threads(p):
    p.add_argument("--threads", type=int, default=None,
                   help="frame-level workers (default: UVWEAVE_THREADS or 1)")


def _config(cls, args):
    """A ``cls`` config of the parsed options named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _add_opt_args(p):
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--max-steps", type=int, default=None,
                   help="ignored: optimize is one solve per frame, with no steps")
    p.set_defaults(**dataclasses.asdict(OptConfig()))


def _add_reloc_args(p):
    p.add_argument("--block", type=int)
    p.add_argument("--search-radius", type=int,
                   help="radius at the coarsest level; finer levels refine ±2")
    p.add_argument("--tau", type=float)
    p.add_argument("--patch", type=int)
    p.add_argument("--window", type=int)
    p.set_defaults(**dataclasses.asdict(RelocateConfig()))


def _summarize(root, *names):
    for name in names:
        print(stages.stage_summary(root, name))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uvweave",
                                 description="UV-map temporal consistency toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic ground-truth sequence")
    p.add_argument("out_dir")
    p.add_argument("--width", type=int, dest="image_w")
    p.add_argument("--height", type=int, dest="image_h")
    p.add_argument("--tex-width", type=int, dest="tex_w")
    p.add_argument("--tex-height", type=int, dest="tex_h")
    p.add_argument("--frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--frequency", type=float)
    p.add_argument("--silhouette", choices=SILHOUETTES)
    p.add_argument("--pattern", choices=PATTERNS)
    p.set_defaults(**dataclasses.asdict(SceneConfig()))

    p = sub.add_parser("corrupt", help="degrade the generated UV maps")
    p.add_argument("dir")
    p.add_argument("--margin", type=int)
    p.add_argument("--dup-blocks", type=int)
    p.add_argument("--dup-size", type=int)
    p.add_argument("--uv-noise", type=float)
    p.add_argument("--jitter", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(**dataclasses.asdict(CorruptConfig()))

    p = sub.add_parser("extend", help="fill and relax UVs over the full silhouette")
    p.add_argument("dir")
    _add_threads(p)

    p = sub.add_parser("optimize",
                       help="smooth the extended UVs with one sparse solve per frame")
    p.add_argument("dir")
    _add_opt_args(p)
    _add_threads(p)

    p = sub.add_parser("relocate", help="re-anchor UVs against the frame-0 texture")
    p.add_argument("dir")
    _add_reloc_args(p)
    p.add_argument("--flow-dir", default=None,
                   help="directory of externally computed f%%04d.flo files")
    _add_threads(p)

    p = sub.add_parser("synth", help="render frames from the reference texture")
    p.add_argument("dir")
    _add_threads(p)

    p = sub.add_parser("retexture", help="re-render with a replacement texture")
    p.add_argument("dir")
    p.add_argument("texture", help="PFM or PPM texture image")
    p.add_argument("--tag", default="retex")
    _add_threads(p)

    p = sub.add_parser("metrics", help="score the synthesized sequence")
    p.add_argument("dir")
    _add_threads(p)

    p = sub.add_parser("pipeline", help="extend + optimize + relocate + synth + metrics")
    p.add_argument("dir")
    _add_opt_args(p)
    _add_reloc_args(p)
    _add_threads(p)

    p = sub.add_parser("grad-check", help="finite-difference audit of the gradient")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-3)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            stages.stage_gen(args.out_dir, _config(SceneConfig, args))
        elif args.command == "corrupt":
            stages.stage_corrupt(args.dir, _config(CorruptConfig, args))
        elif args.command == "extend":
            stages.stage_extend(args.dir, threads=_threads(args))
            _summarize(args.dir, "extend")
        elif args.command == "optimize":
            stages.stage_optimize(args.dir, _config(OptConfig, args), _threads(args))
            _summarize(args.dir, "optimize")
        elif args.command == "relocate":
            stages.stage_relocate(args.dir, _config(RelocateConfig, args), _threads(args),
                                  flow_dir=args.flow_dir)
            _summarize(args.dir, "relocate")
        elif args.command == "synth":
            stages.stage_synth(args.dir, _threads(args))
        elif args.command == "retexture":
            stages.stage_retexture(args.dir, args.texture, args.tag, _threads(args))
        elif args.command == "metrics":
            stages.stage_metrics(args.dir, _threads(args))
        elif args.command == "pipeline":
            stages.stage_pipeline(args.dir, opt_cfg=_config(OptConfig, args),
                                  reloc_cfg=_config(RelocateConfig, args),
                                  threads=_threads(args))
            _summarize(args.dir, "extend", "optimize", "relocate")
        elif args.command == "grad-check":
            worst = stages.run_grad_check(seeds=tuple(args.seeds), size=args.size,
                                          probes=args.probes, tol=args.tol)
            print(f"gradient check passed: max relative error {worst:.3e}")
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

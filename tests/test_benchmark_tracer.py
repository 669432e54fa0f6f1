"""The benchmark's span tracer still fits the library's API.

``perfbench/tracer.py`` patches uvweave functions and methods by name.  A
renamed or deleted traced function, or a renamed result field that a
count reader reads, would otherwise break only the traced benchmark run,
so installing and uninstalling the tracer, and its count readers on a
small pipeline, are checked here.
"""

import importlib.util
import sys
from pathlib import Path

import uvweave.cli  # binds every module the tracer patches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("uvweave_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in a uvweave module or on one of its classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "uvweave" and not name.startswith("uvweave."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, f"{key}.{attr}")] = raw
    return out


def test_tracer_installs_and_restores_every_name():
    tracer = load_tracer()
    before = bindings()
    t = tracer.Tracer()
    try:
        t.install()
        during = bindings()
        patched = {k for k in before if during[k] is not before[k]}
        for module_name, attr, _, _ in tracer.TARGETS:
            assert (module_name, attr) in patched, f"{module_name}.{attr} not traced"
    finally:
        t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_a_pipeline(tmp_path):
    # Every count reader runs on the result it is written for, so a renamed
    # result field fails here rather than in a traced benchmark run.
    main = uvweave.cli.main
    tracer = load_tracer()
    t = tracer.Tracer()
    d = tmp_path / "seq"
    try:
        t.install()
        assert main(["gen", str(d), "--width", "32", "--height", "32", "--tex-width", "32",
                     "--tex-height", "32", "--frames", "2", "--seed", "1"]) == 0
        assert main(["corrupt", str(d), "--margin", "2", "--uv-noise", "0.01"]) == 0
        assert main(["pipeline", str(d), "--window", "7"]) == 0
        assert main(["retexture", str(d), str(d / "frames" / "f0000_synth.ppm")]) == 0
    finally:
        t.uninstall()
    counted = {s[1] for s in t.spans if s[7] is not None}
    readers = {name for _, _, name, count in tracer.TARGETS if count is not None}
    assert readers <= counted, f"never counted: {sorted(readers - counted)}"

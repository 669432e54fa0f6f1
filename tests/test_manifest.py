"""Tests for the directory-backed sequence manifest."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import uvweave
from uvweave.errors import ValidationError
from uvweave.fields import Field2
from uvweave.formats import read_pfm, write_pfm
from uvweave.manifest import Manifest, config_dict
from uvweave.scenegen import SceneConfig
from uvweave.warpmap import UVMap


def fresh(tmp_path, frames=3):
    m = Manifest.create(tmp_path / "seq", image_size=(8, 6),
                        texture_size=(10, 12), n_frames=frames)
    return m


def test_create_save_load_roundtrip(tmp_path):
    m = fresh(tmp_path)
    m.mark_stage("gen", {"seed": 3})
    m.save()
    back = Manifest.load(tmp_path / "seq")
    assert back.data == m.data
    assert back.n_frames == 3
    assert back.image_size == (8, 6)
    assert back.texture_size == (10, 12)


def test_save_is_sorted_and_stable(tmp_path):
    m = fresh(tmp_path)
    m.mark_stage("gen")
    m.save()
    first = (tmp_path / "seq" / "manifest.json").read_bytes()
    m2 = Manifest.load(tmp_path / "seq")
    m2.save()
    assert (tmp_path / "seq" / "manifest.json").read_bytes() == first
    text = first.decode()
    assert text.index('"frames"') < text.index('"image_size"') < text.index('"stages"')


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ValidationError, match="no manifest at"):
        Manifest.load(tmp_path / "nowhere")


def test_load_malformed_json(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(ValidationError, match="malformed manifest"):
        Manifest.load(d)


def test_load_missing_keys(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"version": 1}))
    with pytest.raises(ValidationError, match="missing key 'image_size'"):
        Manifest.load(d)


def test_load_noncontiguous_frames(tmp_path):
    m = fresh(tmp_path)
    m.data["frames"][1]["index"] = 5
    m.save()
    with pytest.raises(ValidationError, match="contiguous from 0"):
        Manifest.load(tmp_path / "seq")


def test_load_rejects_a_sequence_without_frames(tmp_path):
    m = fresh(tmp_path)
    m.data["frames"] = []
    m.save()
    with pytest.raises(ValidationError) as e:
        Manifest.load(tmp_path / "seq")
    assert str(e.value) == "manifest frames must list at least one frame"


def test_load_missing_referenced_file(tmp_path):
    m = fresh(tmp_path)
    m.data["frames"][0]["uv_raw"] = "frames/f0000_uv_raw.pfm"
    m.save()
    with pytest.raises(ValidationError, match="missing file frames/f0000_uv_raw.pfm"):
        Manifest.load(tmp_path / "seq")


def test_load_checks_top_level_artifacts(tmp_path):
    m = fresh(tmp_path)
    m.data["texture_o"] = "texture_o.pfm"
    m.data["has_parts"] = False
    m.save()
    with pytest.raises(ValidationError, match="missing file texture_o.pfm"):
        Manifest.load(tmp_path / "seq")
    write_pfm(m.root / "texture_o.pfm", np.zeros((12, 10, 3)))
    assert Manifest.load(tmp_path / "seq").item("texture_o") == m.root / "texture_o.pfm"
    m.data["metrics"] = 7
    m.save()
    with pytest.raises(ValidationError, match="manifest metrics is not a path"):
        Manifest.load(tmp_path / "seq")


def test_save_after_dropping_tags_leaves_exactly_the_new_json(tmp_path):
    # the manifest is rewritten in place; a shorter one must not keep the
    # old file's tail
    m = fresh(tmp_path)
    for s in ("gen", "corrupt", "extend", "optimize", "relocate", "synth", "metrics"):
        m.mark_stage(s, {"setting": s * 20})
    m.save()
    m.mark_stage("corrupt")
    m.save()
    path = tmp_path / "seq" / "manifest.json"
    assert path.read_text() == json.dumps(m.data, sort_keys=True, indent=2) + "\n"
    assert Manifest.load(tmp_path / "seq").data == m.data


def _referencing(tmp_path, rel):
    """A saved manifest whose frame 0 names ``rel``, and the frames it
    really holds."""
    m = fresh(tmp_path)
    write_pfm(m.root / "frames/f0001_uv.pfm", np.zeros((6, 8, 3)))
    m.data["frames"][1]["uv"] = "frames/f0001_uv.pfm"
    m.data["frames"][0]["x"] = rel
    m.save()
    return m


@pytest.mark.parametrize("rel, make", [
    ("frames", None),
    ("frames/f0000_dir.pfm", lambda p: p.mkdir()),
    ("frames/f0000_dangling.pfm", lambda p: p.symlink_to(p.parent / "gone.pfm")),
    ("frames/f0000_missing.pfm", None),
    ("elsewhere/f0000_missing.pfm", None),
    ("frames/f0001_uv.pfm/x", None),
    ("", None),
], ids=["frames-dir", "dir", "dangling-link", "missing", "missing-dir", "under-file",
        "empty"])
def test_load_rejects_what_is_not_a_file(tmp_path, rel, make):
    m = _referencing(tmp_path, rel)
    if make is not None:
        make(m.root / rel)
    with pytest.raises(ValidationError) as e:
        Manifest.load(m.root)
    assert str(e.value) == f"manifest references missing file {rel}"


@pytest.mark.parametrize("rel, make", [
    ("frames/f0000_link.pfm", lambda p: p.symlink_to(p.parent / "f0001_uv.pfm")),
    ("own/f0000_x.pfm", lambda p: (p.parent.mkdir(), p.write_bytes(b"x"))),
    ("frames/../frames/f0001_uv.pfm", None),
    ("frames//f0001_uv.pfm", None),
    ("./frames/f0001_uv.pfm", None),
    ("frames/f0001_uv.pfm/", None),
], ids=["link-to-file", "own-dir", "dotdot", "double-slash", "dot", "trailing-slash"])
def test_load_accepts_files_and_links_to_files(tmp_path, rel, make):
    m = _referencing(tmp_path, rel)
    if make is not None:
        make(m.root / rel)
    assert Manifest.load(m.root).frame_item(0, "x") == m.root / rel


def test_load_accepts_an_absolute_path(tmp_path):
    m = _referencing(tmp_path, str(tmp_path / "seq" / "frames" / "f0001_uv.pfm"))
    Manifest.load(m.root)
    # an absolute name that is missing is not looked up under the root
    target = tmp_path / "outside.pfm"
    m.data["frames"][0]["x"] = str(target)
    (m.root / "outside.pfm").write_bytes(b"x")
    m.save()
    with pytest.raises(ValidationError, match=f"missing file {target}"):
        Manifest.load(m.root)
    target.write_bytes(b"x")
    Manifest.load(m.root)


def test_require_stage_message(tmp_path):
    m = fresh(tmp_path)
    with pytest.raises(ValidationError, match="stage 'extend' must run before"):
        m.require_stage("extend")
    m.mark_stage("extend")
    m.require_stage("extend")


def test_mark_stage_drops_downstream_tags(tmp_path):
    m = fresh(tmp_path)
    for s in ("gen", "corrupt", "extend", "optimize", "relocate", "synth",
              "retexture", "metrics"):
        m.mark_stage(s)
    m.mark_stage("retexture")          # nothing depends on retexture
    assert len(m.data["stages"]) == 8
    m.mark_stage("relocate", {"tau": 0.1})
    assert sorted(m.data["stages"]) == ["corrupt", "extend", "gen", "optimize",
                                        "relocate"]
    assert m.data["stages"]["relocate"] == {"config": {"tau": 0.1}}
    m.mark_stage("corrupt")
    assert sorted(m.data["stages"]) == ["corrupt", "gen"]


def test_frame_item_and_item_errors(tmp_path):
    m = fresh(tmp_path)
    with pytest.raises(ValidationError, match="frame 1 has no 'uv_opt'"):
        m.frame_item(1, "uv_opt")
    with pytest.raises(ValidationError, match="manifest has no 'texture_gt'"):
        m.item("texture_gt")


def test_uv_roundtrip_without_parts(tmp_path):
    m = fresh(tmp_path)
    rng = np.random.default_rng(0)
    sil = np.zeros((6, 8), dtype=bool)
    sil[1:5, 2:7] = True
    uv = np.where(sil[..., None], rng.normal(0, 0.05, size=(6, 8, 2)), 0.0)
    P = UVMap(uv.astype(np.float32).astype(np.float64), sil)
    m.write_uv(0, "uv_raw", P)
    back = m.read_uv(0, "uv_raw")
    assert np.array_equal(back.uv.data, P.uv.data)
    assert np.array_equal(back.silhouette, sil)
    # the third channel stores the silhouette as 0/1
    assert np.array_equal(read_pfm(m.frame_item(0, "uv_raw"))[..., 2], sil.astype(np.float64))


def test_load_rejects_has_parts(tmp_path):
    m = fresh(tmp_path)
    m.save()
    Manifest.load(tmp_path / "seq")            # no key: one chart
    m.data["has_parts"] = False
    m.save()
    Manifest.load(tmp_path / "seq")            # older directories write false
    m.data["has_parts"] = True
    m.save()
    with pytest.raises(ValidationError, match="has_parts is not supported"):
        Manifest.load(tmp_path / "seq")


def test_uv_read_accepts_big_endian_files(tmp_path):
    m = fresh(tmp_path)
    rng = np.random.default_rng(1)
    sil = rng.uniform(size=(6, 8)) < 0.6
    uv = np.where(sil[..., None], rng.normal(0, 0.05, size=(6, 8, 2)), 0.0)
    packed = np.concatenate([uv, sil[..., None].astype(np.float64)], axis=2)
    for i, order in enumerate("<>"):
        rel = f"frames/f{i:04d}_uv.pfm"
        write_pfm(m.root / rel, packed, byte_order=order)
        m.data["frames"][i]["uv"] = rel
    little, big = m.read_uv(0, "uv"), m.read_uv(1, "uv")
    assert np.array_equal(big.uv.data, little.uv.data)
    assert np.array_equal(big.uv.data, uv.astype(np.float32).astype(np.float64))
    assert np.array_equal(big.silhouette, sil)

def test_mask_roundtrip(tmp_path):
    m = fresh(tmp_path)
    mask = np.zeros((6, 8), dtype=bool)
    mask[2:4, 1:6] = True
    m.write_mask(2, "mask_raw", mask)
    assert np.array_equal(m.read_mask(2, "mask_raw"), mask)
    # a mask of any channel count is read from its channel 0
    write_pfm(m.root / "frames" / "f0002_mask_raw.pfm",
              np.stack([mask, ~mask, ~mask], axis=2).astype(np.float64))
    assert np.array_equal(m.read_mask(2, "mask_raw"), mask)


def test_image_roundtrip_quantized(tmp_path):
    m = fresh(tmp_path)
    rng = np.random.default_rng(1)
    img = Field2(np.rint(rng.uniform(size=(6, 8, 3)) * 255.0) / 255.0)
    m.write_image(0, "image", img)
    back = m.read_image(0, "image")
    assert np.array_equal(back.data, img.data)
    assert back.valid is None   # no validity restriction recorded
    valid = np.zeros((6, 8), dtype=bool)
    back2 = m.read_image(0, "image", valid=valid)
    assert not back2.valid.any()


def test_texture_roundtrip(tmp_path):
    m = fresh(tmp_path)
    rng = np.random.default_rng(2)
    T = Field2(rng.uniform(size=(12, 10, 3)).astype(np.float32).astype(np.float64))
    m.write_texture("texture_gt", T)
    assert np.array_equal(m.read_texture("texture_gt").data, T.data)
    assert m.data["texture_gt"] == "texture_gt.pfm"
    assert all(set(fr) == {"index"} for fr in m.data["frames"])


def test_corr_roundtrip(tmp_path):
    m = fresh(tmp_path)
    rng = np.random.default_rng(3)
    target = rng.uniform(size=(12, 10, 2)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(12, 10)) < 0.5
    Q = Field2(target, valid=valid)
    m.write_corr(1, "corr_gt", Q)
    assert m.data["frames"][1]["corr_gt"] == "frames/f0001_corr_gt.pfm"
    back = read_pfm(m.frame_item(1, "corr_gt"))
    assert np.array_equal(back[..., :2], target)
    assert np.array_equal(back[..., 2] > 0.5, valid)


def test_config_dict_flattens_dataclass():
    d = config_dict(SceneConfig(image_w=48, image_h=48, tex_w=48, tex_h=48))
    assert d["image_w"] == 48
    assert d["seed"] == 0
    assert json.dumps(d, sort_keys=True)


def test_new_item_names_and_places_an_artifact(tmp_path):
    m = fresh(tmp_path)
    assert m.new_item("texture_o", "pfm") == m.root / "texture_o.pfm"
    assert m.data["texture_o"] == "texture_o.pfm"
    assert m.new_item("flow", "flo", frame=2) == m.root / "frames" / "f0002_flow.flo"
    assert m.data["frames"][2] == {"index": 2, "flow": "frames/f0002_flow.flo"}
    assert "flow" not in m.data["frames"][1]


def test_write_trace_makes_traces_with_the_first_record(tmp_path):
    m = fresh(tmp_path)
    assert not (m.root / "traces").exists()
    m.write_trace(1, "ext", {"b": 2, "a": [1.5]})
    assert m.data["frames"][1]["ext_trace"] == "traces/f0001_ext.json"
    assert (m.root / "traces" / "f0001_ext.json").read_text() == '{"a": [1.5], "b": 2}\n'
    m.write_trace(0, "ext", {})
    m.save()
    assert Manifest.load(m.root).frame_item(0, "ext_trace") == m.root / "traces/f0000_ext.json"


ARTIFACT_FOLDERS = ("frames/", "traces/")


def _artifact_names(tree):
    """Line numbers of the string constants and f-string parts in ``tree``
    that start with an artifact folder; docstrings are not names."""
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings and node.value.startswith(ARTIFACT_FOLDERS)):
            yield node.lineno


def test_only_the_manifest_names_artifacts():
    # Manifest.new_item and write_trace make every artifact name, so no
    # other module builds a path under frames/ or traces/
    found = {}
    for path in sorted(Path(uvweave.__file__).parent.glob("*.py")):
        if path.name == "manifest.py":
            continue
        lines = list(_artifact_names(ast.parse(path.read_text())))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_artifact_name_guard_sees_names():
    for code in ('rel = f"frames/f{i:04d}_{tag}.ppm"', 'm.root / "traces/f0000_ext.json"',
                 '"frames/" + name', 'f"{x}" + f"traces/{y}"',
                 'def f():\n    x = 1\n    "frames/f0000_x.pfm"'):
        assert list(_artifact_names(ast.parse(code))), code
    for code in ('"""frames/ are named by the manifest."""',
                 'def f():\n    """traces/f0000_ext.json"""',
                 'class C:\n    """frames/x"""', '"frame/x"', 'f"{root}/frames/x"',
                 'm.new_item("flow", "flo", frame=i)', '(root / "frames").mkdir()'):
        assert not list(_artifact_names(ast.parse(code))), code


THREAD_PACKAGES = ("threading", "concurrent")


def _thread_imports(tree):
    """Line numbers of the imports in ``tree`` of ``threading`` or of
    ``concurrent`` (``concurrent.futures`` and its pools)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in THREAD_PACKAGES for name in names):
            yield node.lineno


def test_only_stages_starts_threads():
    # stages._map_frames is the one frame-level fan-out: no other module
    # imports a thread API, and no metric takes a map function to thread
    found = {}
    for path in sorted(Path(uvweave.__file__).parent.glob("*.py")):
        if path.name == "stages.py":
            continue
        lines = list(_thread_imports(ast.parse(path.read_text())))
        if lines:
            found[path.name] = lines
    assert found == {}
    metrics = ast.parse((Path(uvweave.__file__).parent / "metrics.py").read_text())
    takes_map = [f.name for f in ast.walk(metrics) if isinstance(f, ast.FunctionDef)
                 and "map_fn" in [a.arg for a in f.args.args + f.args.kwonlyargs]]
    assert takes_map == []


def test_thread_guard_sees_imports():
    for code in ("import threading", "from concurrent.futures import ThreadPoolExecutor",
                 "import concurrent.futures as cf", "import os, threading",
                 "from concurrent import futures", "def f():\n    import threading"):
        assert list(_thread_imports(ast.parse(code))), code
    for code in ("import numpy as np", "from .fields import Field2",
                 "from . import stages", "threads = 2"):
        assert not list(_thread_imports(ast.parse(code))), code


ENV_READS = ("environ", "getenv")
TEXTURE_SIZE = ("tex_w", "tex_h")


def _second_sources(tree):
    """(line, kind) of each second way ``tree`` lets an input in: a read of
    the environment (``os.environ`` or ``os.getenv``, or either imported
    from ``os``), and a function that gives ``tex_w`` or ``tex_h`` a
    default where the sequence's texture size belongs."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, "environment"
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ENV_READS for a in node.names)):
            yield node.lineno, "environment"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if any(a.arg in TEXTURE_SIZE for a in defaulted):
                yield node.lineno, "texture size default"


def _package_sources(kind):
    found = {}
    for path in sorted(Path(uvweave.__file__).parent.glob("*.py")):
        lines = [n for n, k in _second_sources(ast.parse(path.read_text())) if k == kind]
        if lines:
            found[path.name] = lines
    return found


def test_no_module_reads_the_environment():
    # --threads is the one thread setting, and no setting hides elsewhere
    assert _package_sources("environment") == {}


def test_no_function_defaults_the_texture_size():
    # every texture-space function takes the sequence's texture size; none
    # falls back to the image size
    assert _package_sources("texture size default") == {}


def test_second_source_guard_sees_sources():
    for code, kind in (('os.environ.get("X")', "environment"),
                       ('os.environ["X"]', "environment"),
                       ('os.getenv("X", "1")', "environment"),
                       ("from os import environ", "environment"),
                       ("def f(tex_w=None):\n    pass", "texture size default"),
                       ("def f(P, tex_w, tex_h=64):\n    pass", "texture size default"),
                       ("def f(P, *, tex_h=None):\n    pass", "texture size default"),
                       ("g = lambda tex_w=8: tex_w", "texture size default")):
        assert [k for _, k in _second_sources(ast.parse(code))] == [kind], code
    for code in ("def f(P, tex_w, tex_h):\n    pass",
                 "def f(P, tex_w, tex_h, eps=1e-3):\n    pass",
                 "def f(P, *, tex_w, tex_h, eps=1e-3):\n    pass",
                 "def f(width=None):\n    pass", "os.path.join(a, b)",
                 "environ = {}", "from os import path", "cfg.tex_w or 8"):
        assert not list(_second_sources(ast.parse(code))), code

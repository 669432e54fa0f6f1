"""End-to-end tests of the command-line interface.

All commands run in-process through ``main`` so exit codes and stderr are
checked directly.  One small corrupted sequence is built per module and
shared by the read-only assertions.
"""

import dataclasses
import hashlib
import json
import shutil
import threading

import numpy as np
import pytest

from uvweave import stages
from uvweave.cli import main
from uvweave.formats import read_pfm, read_ppm, write_pfm, write_ppm
from uvweave.fields import Field2
from uvweave.manifest import STAGE_PREREQ, Manifest, config_dict
from uvweave.relocate import RelocateConfig, frame_zero_products, write_flo
from uvweave.render import LookupRenderer
from uvweave.scenegen import CorruptConfig, SceneConfig
from uvweave.stages import FRAME_ITEMS
from uvweave.uvopt import OptConfig

SMALL = ["--width", "48", "--height", "48", "--tex-width", "48",
         "--tex-height", "48", "--frames", "3", "--seed", "5",
         "--amplitude", "0.02", "--frequency", "1.5"]
CORRUPT = ["--margin", "2", "--dup-blocks", "2", "--dup-size", "6",
           "--uv-noise", "0.01", "--seed", "1"]
FAST = ["--max-steps", "80", "--window", "11"]


def run_sequence(d, pipeline_args=()):
    assert main(["gen", str(d)] + SMALL) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    assert main(["pipeline", str(d)] + FAST + list(pipeline_args)) == 0


def tree_hashes(d, patterns=("*.pfm", "*.ppm", "*.flo", "*.json")):
    out = {}
    for pat in patterns:
        for p in sorted(d.rglob(pat)):
            out[str(p.relative_to(d))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def piped(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "seq"
    run_sequence(d)
    return d, tree_hashes(d)


def test_gen_writes_manifest_and_artifacts(tmp_path):
    d = tmp_path / "g"
    assert main(["gen", str(d)] + SMALL) == 0
    assert (d / "manifest.json").is_file()
    assert (d / "texture_gt.pfm").is_file()
    assert (d / "frames" / "f0000_image.ppm").is_file()
    assert (d / "frames" / "f0002_uv_gt.pfm").is_file()
    man = json.loads((d / "manifest.json").read_text())
    assert man["image_size"] == [48, 48]
    assert list(man["stages"]) == ["gen"]


def test_gen_validation_exit_code(tmp_path, capsys):
    rc = main(["gen", str(tmp_path / "bad"), "--width", "16"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_negative_seed_exit_2_before_writing(tmp_path, capsys):
    d = tmp_path / "neg"
    assert main(["gen", str(d)] + SMALL + ["--seed", "-2"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert not d.exists()
    assert main(["gen", str(d)] + SMALL) == 0
    before = _files(d)
    assert main(["corrupt", str(d), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert _files(d) == before


def test_stage_order_enforced(tmp_path, capsys):
    d = tmp_path / "o"
    assert main(["gen", str(d)] + SMALL) == 0
    rc = main(["optimize", str(d)])
    assert rc == 2
    assert "stage 'extend' must run before" in capsys.readouterr().err
    rc = main(["extend", str(d)])
    assert rc == 2
    assert "stage 'corrupt' must run before" in capsys.readouterr().err


def test_missing_manifest_exit_code(tmp_path, capsys):
    rc = main(["corrupt", str(tmp_path / "void")])
    assert rc == 2
    assert "no manifest" in capsys.readouterr().err


def test_corrupt_reads_ground_truth_from_disk(tmp_path):
    # an edited uv_gt file, shrunk silhouette and moved UVs alike, passes
    # through the zero corruption byte for byte, and no mask_raw is written
    d = tmp_path / "edited"
    assert main(["gen", str(d)] + SMALL) == 0
    gt = d / "frames" / "f0001_uv_gt.pfm"
    packed = read_pfm(gt)
    packed[..., :2] += 0.0123 * (packed[..., 2:] > 0.5)
    packed[:, :24, 2] = 0.0
    packed[:, :24, :2] = 0.0
    write_pfm(gt, packed)
    assert main(["corrupt", str(d)]) == 0
    for i in range(3):
        raw = d / "frames" / f"f{i:04d}_uv_raw.pfm"
        assert raw.read_bytes() == (d / "frames" / f"f{i:04d}_uv_gt.pfm").read_bytes()
    assert not list(d.rglob("*mask_raw*"))
    man = json.loads((d / "manifest.json").read_text())
    assert all("mask_raw" not in fr for fr in man["frames"])


def test_stages_refuse_to_run_before_their_prerequisite(tmp_path, capsys):
    d = tmp_path / "g"
    assert main(["gen", str(d)] + SMALL) == 0
    before = _files(d)
    for stage, prereq in STAGE_PREREQ.items():
        if prereq == "gen":
            continue
        args = [stage, str(d)] + ([str(d / "texture_gt.pfm")] if stage == "retexture" else [])
        assert main(args) == 2, stage
        assert capsys.readouterr().err == f"error: stage '{prereq}' must run before this one\n"
    assert _files(d) == before


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    d = tmp_path / "t"
    assert main(["gen", str(d)] + SMALL) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    monkeypatch.setenv("UVWEAVE_THREADS", "many")
    rc = main(["extend", str(d)])
    assert rc == 2
    assert "UVWEAVE_THREADS must be an integer" in capsys.readouterr().err
    monkeypatch.setenv("UVWEAVE_THREADS", "0")
    rc = main(["extend", str(d)])
    assert rc == 2
    assert "UVWEAVE_THREADS must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("UVWEAVE_THREADS", "2")
    assert main(["extend", str(d)]) == 0


def test_threads_flag_validation(tmp_path, capsys):
    d = tmp_path / "t"
    assert main(["gen", str(d)] + SMALL) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    for bad in ("0", "-4"):
        rc = main(["extend", str(d), "--threads", bad])
        assert rc == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
    assert "extend" not in json.loads((d / "manifest.json").read_text())["stages"]
    assert main(["extend", str(d), "--threads", "1"]) == 0


def test_pipeline_products(piped):
    piped, _ = piped
    man = json.loads((piped / "manifest.json").read_text())
    for stage in ("gen", "corrupt", "extend", "optimize", "relocate",
                  "synth", "metrics"):
        assert stage in man["stages"]
    for i in range(3):
        for key in ("uv_ext", "uv_opt", "uv_final"):
            assert (piped / "frames" / f"f{i:04d}_{key}.pfm").is_file()
        assert (piped / "frames" / f"f{i:04d}_synth.ppm").is_file()
        assert (piped / "frames" / f"f{i:04d}_flow.flo").is_file()
    assert (piped / "texture_o.pfm").is_file()
    stats = json.loads((piped / "synth_stats.json").read_text())
    assert len(stats) == 3
    assert all(s["texel_reads_per_pixel"] <= 4 for s in stats)
    assert all(s["madds_per_channel_per_pixel"] <= 11 for s in stats)


def test_pipeline_metrics_show_recovery(piped):
    piped, _ = piped
    rep = json.loads((piped / "metrics.json").read_text())
    rec, cor = rep["recovered"], rep["corrupted_baseline"]
    assert len(rec["psnr"]["per_frame"]) == 3
    assert rec["psnr"]["mean"] > cor["psnr"]["mean"] + 6.0
    assert rec["t_diff"]["mean"] < cor["t_diff"]["mean"]
    assert rec["t_of"]["mean"] <= cor["t_of"]["mean"]
    assert len(rec["t_diff"]["per_pair"]) == 2


def test_optimize_traces_recorded(piped):
    piped, _ = piped
    man = json.loads((piped / "manifest.json").read_text())
    for i in range(3):
        rel = man["frames"][i]["opt_trace"]
        tr = json.loads((piped / rel).read_text())
        assert tr["l_app"][-1] <= tr["l_app"][0]
        assert tr["steps"] == len(tr["l_app"])


def test_optimize_traces_record_solve(piped):
    piped, _ = piped
    man = json.loads((piped / "manifest.json").read_text())
    for i in range(3):
        text = (piped / man["frames"][i]["opt_trace"]).read_text()
        tr = json.loads(text)
        assert list(tr) == ["l_app", "l_reg", "residual", "steps"] and text.endswith("\n")
        # before and after the solve, which cannot raise the regularizer
        assert len(tr["l_app"]) == len(tr["l_reg"]) == tr["steps"] == 2
        assert tr["l_reg"][1] <= tr["l_reg"][0]
        assert 0.0 <= tr["residual"] < 1e-10


def test_extend_traces_recorded(piped):
    piped, _ = piped
    man = json.loads((piped / "manifest.json").read_text())
    keys = ["converged", "distortion_after", "distortion_before", "max_force",
            "moved", "pull_iters", "push_iters", "skipped"]
    for i in range(3):
        rel = man["frames"][i]["ext_trace"]
        assert rel == f"traces/f{i:04d}_ext.json"
        text = (piped / rel).read_text()
        tr = json.loads(text)
        assert list(tr) == keys and text.endswith("\n")
        assert isinstance(tr["converged"], bool)
        assert tr["moved"] > 0 and tr["skipped"] >= 0
        assert tr["push_iters"] + tr["pull_iters"] > 0


def test_relocate_traces_recorded(piped):
    piped, _ = piped
    man = json.loads((piped / "manifest.json").read_text())
    keys = ["covered", "fill_candidates", "fill_tiles", "filled", "flow_max_texels",
            "flow_mean_texels", "flow_volume_texels", "flow_volumes", "matched",
            "pruned", "unfilled"]
    for i in range(3):
        rel = man["frames"][i]["rel_trace"]
        assert rel == f"traces/f{i:04d}_rel.json"
        text = (piped / rel).read_text()
        tr = json.loads(text)
        assert list(tr) == keys and text.endswith("\n")
        assert tr["covered"] > 0 and min(tr.values()) >= 0
        # every covered texel is matched, filled or left unfilled
        assert tr["matched"] + tr["filled"] + tr["unfilled"] == tr["covered"]
        assert tr["flow_max_texels"] >= tr["flow_mean_texels"]
        # every level scores at least the 81 offsets of radius 4, each over
        # at most the level's texels
        assert tr["flow_volumes"] >= 81
        assert tr["flow_volumes"] <= tr["flow_volume_texels"] <= 48 * 48 * tr["flow_volumes"]
        # a tile searches where it holds a texel to fill, and each fills;
        # with --window 11 it scores at most 25 coarse and 9 fine offsets,
        # and at least the fine one at twice its coarse winner
        assert (tr["fill_tiles"] > 0) == (tr["filled"] > 0)
        assert tr["fill_tiles"] <= tr["fill_candidates"] <= 34 * tr["fill_tiles"]
        if i == 0:
            # frame 0 is the reference: it matches itself everywhere
            assert tr["flow_max_texels"] == 0.0 and tr["pruned"] == 0


def test_stage_commands_print_trace_summaries(piped, tmp_path, capsys):
    d = tmp_path / "summary"
    shutil.copytree(piped[0], d)
    capsys.readouterr()
    assert main(["relocate", str(d), "--window", "11"]) == 0
    rel = [json.loads((d / f"traces/f{i:04d}_rel.json").read_text()) for i in range(3)]
    covered = sum(t["covered"] for t in rel)
    line = capsys.readouterr().out.strip()
    assert line.startswith("relocate: 3 frames, flow mean ")
    assert (f"texels, {sum(t['flow_volumes'] for t in rel)} flow volumes over "
            f"{sum(t['flow_volume_texels'] for t in rel)} texels, ") in line
    assert line.endswith(f"texels, {covered} covered, {sum(t['matched'] for t in rel)} "
                         f"matched, {sum(t['pruned'] for t in rel)} pruned, "
                         f"{sum(t['filled'] for t in rel)} filled, "
                         f"{sum(t['unfilled'] for t in rel)} unfilled")
    assert main(["extend", str(d)]) == 0
    ext = [json.loads((d / f"traces/f{i:04d}_ext.json").read_text()) for i in range(3)]
    iters = sum(t["push_iters"] + t["pull_iters"] for t in ext)
    assert capsys.readouterr().out == (
        f"extend: 3 frames, {sum(t['moved'] for t in ext)} moved, "
        f"{sum(t['skipped'] for t in ext)} skipped, {iters} spring iterations, 0 unconverged\n")
    assert main(["optimize", str(d)]) == 0
    opt = [json.loads((d / f"traces/f{i:04d}_opt.json").read_text()) for i in range(3)]
    assert capsys.readouterr().out == (
        f"optimize: 3 frames, l_app {sum(t['l_app'][0] for t in opt):.4g} -> "
        f"{sum(t['l_app'][1] for t in opt):.4g}, "
        f"max residual {max(t['residual'] for t in opt):.1e}\n")


def test_rerun_drops_downstream_stages(piped, tmp_path, capsys):
    d = tmp_path / "rerun"
    shutil.copytree(piped[0], d)
    assert {"optimize", "relocate"} <= set(json.loads((d / "manifest.json").read_text())["stages"])
    assert main(["extend", str(d)]) == 0
    man = json.loads((d / "manifest.json").read_text())
    assert sorted(man["stages"]) == ["corrupt", "extend", "gen"]
    rc = main(["relocate", str(d)])
    assert rc == 2
    assert "stage 'optimize' must run before" in capsys.readouterr().err


def test_grad_check_command(capsys):
    assert main(["grad-check", "--seeds", "0", "1", "--size", "8",
                 "--probes", "12"]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_grad_check_impossible_tolerance(capsys):
    rc = main(["grad-check", "--seeds", "0", "--probes", "6",
               "--tol", "1e-18"])
    assert rc == 3
    assert "numerical error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--size", "1"], "size must be at least 5, got 1"),
    (["--size", "2"], "size must be at least 5, got 2"),
    (["--size", "4"], "size must be at least 5, got 4"),
    (["--probes", "-1"], "needs at least one probe, got -1"),
    (["--probes", "0"], "needs at least one probe, got 0"),
    (["--seeds", "0", "-1"], "seeds must be non-negative, got [0, -1]"),
    (["--tol", "nan"], "tolerance must be positive and finite, got nan"),
    (["--tol", "inf"], "tolerance must be positive and finite, got inf"),
    (["--tol", "0"], "tolerance must be positive and finite, got 0.0"),
], ids=["size-1", "size-2", "size-4", "probes--1", "probes-0", "seed--1", "tol-nan",
        "tol-inf", "tol-0"])
def test_grad_check_bad_arguments_exit_2(capsys, monkeypatch, args, message):
    def probe(*a, **k):
        raise AssertionError("grad-check started work before checking its arguments")

    monkeypatch.setattr(stages, "fd_probe_check", probe)
    assert main(["grad-check"] + args) == 2
    assert capsys.readouterr().err == f"error: grad-check {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", [
    ("gen", "--amplitude"), ("gen", "--frequency"),
    ("corrupt", "--uv-noise"), ("corrupt", "--jitter"),
    ("pipeline", "--alpha1"), ("pipeline", "--alpha2"), ("pipeline", "--tau"),
])
def test_non_finite_float_option_exit_2(piped, tmp_path, capsys, command, option, value):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    before = _files(d)
    assert main([command, str(d), f"{option}={value}"]) == 2
    name = option[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
    assert _files(d) == before      # manifest.json and every artifact unchanged


def test_retexture_touches_no_uv_files(piped, tmp_path):
    piped, _ = piped
    before = tree_hashes(piped, patterns=("*.pfm", "*.flo"))
    rng = np.random.default_rng(0)
    tex = tmp_path / "swap.ppm"
    write_ppm(tex, rng.uniform(size=(48, 48, 3)))
    assert main(["retexture", str(piped), str(tex)]) == 0
    assert main(["retexture", str(piped), str(piped / "texture_gt.pfm"),
                 "--tag", "orig"]) == 0
    after = tree_hashes(piped, patterns=("*.pfm", "*.flo"))
    assert before == after
    for i in range(3):
        retex = piped / "frames" / f"f{i:04d}_retex.ppm"
        orig = piped / "frames" / f"f{i:04d}_orig.ppm"
        synth = piped / "frames" / f"f{i:04d}_synth.ppm"
        assert retex.is_file() and orig.is_file()
        assert retex.read_bytes() != synth.read_bytes()
        a = read_ppm(retex)
        assert a.shape == (48, 48, 3)


def test_relocate_external_flow(piped, tmp_path):
    # feeding the saved flows back reproduces the relocation up to the
    # float32 quantization of the .flo format, and the external path is
    # itself deterministic
    piped, _ = piped
    flows = tmp_path / "flows"
    flows.mkdir()
    for i in range(3):
        shutil.copy(piped / "frames" / f"f{i:04d}_flow.flo",
                    flows / f"f{i:04d}.flo")
    internal = [read_pfm(piped / "frames" / f"f{i:04d}_uv_final.pfm")
                for i in range(3)]
    cmd = ["relocate", str(piped), "--window", "11", "--flow-dir", str(flows)]
    assert main(cmd) == 0
    first = {k: v for k, v in tree_hashes(piped, patterns=("*.pfm", "*.flo")).items()
             if "uv_final" in k or "flow" in k}
    assert main(cmd) == 0
    second = {k: v for k, v in tree_hashes(piped, patterns=("*.pfm", "*.flo")).items()
              if "uv_final" in k or "flow" in k}
    assert first == second
    for i in range(3):
        ext = read_pfm(piped / "frames" / f"f{i:04d}_uv_final.pfm")
        assert np.max(np.abs(ext - internal[i])) <= 1e-6
        tr = json.loads((piped / f"traces/f{i:04d}_rel.json").read_text())
        assert tr["flow_volumes"] == tr["flow_volume_texels"] == 0


def test_bad_patch_flags_fail_before_any_stage(piped, tmp_path, capsys):
    d = tmp_path / "finished"
    shutil.copytree(piped[0], d)

    def files():
        return {str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()}

    before = files()
    for flag in ("--patch", "--window"):
        assert main(["pipeline", str(d), flag, "0"]) == 2
        assert "bad patch configuration" in capsys.readouterr().err
        assert files() == before


def test_huge_image_headers_exit_2(piped, tmp_path, capsys):
    # a texture or an external flow whose header claims 2e9 x 2e9 pixels
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    big = tmp_path / "big.ppm"
    big.write_bytes(b"P6\n2000000000 2000000000\n255\n" + bytes(12))
    assert main(["retexture", str(d), str(big)]) == 2
    assert "truncated ppm data" in capsys.readouterr().err
    flows = tmp_path / "flows"
    flows.mkdir()
    for i in range(3):
        (flows / f"f{i:04d}.flo").write_bytes(
            b"PIEH" + np.array([2000000000, 2000000000], dtype="<i4").tobytes() + bytes(12))
    assert main(["relocate", str(d), "--flow-dir", str(flows)]) == 2
    assert "truncated .flo data" in capsys.readouterr().err


def _frame0_path(m, value):
    m["frames"][0]["uv_raw"] = value
    return m


@pytest.mark.parametrize("edit, message", [
    (lambda m: {**m, "frames": 5}, "frames must be a list of objects"),
    (lambda m: {**m, "frames": [3]}, "frames must be a list of objects"),
    (lambda m: _frame0_path(m, 7), "frame 0 has a path that is not a string"),
    (lambda m: {**m, "image_size": [48]}, "image_size must be two positive integers"),
    (lambda m: {**m, "texture_size": [48, True]}, "texture_size must be two positive"),
    (lambda m: {**m, "stages": []}, "stages must be an object"),
    (lambda m: [m], "not a JSON object"),
], ids=["frames-int", "frames-int-item", "path-int", "size-short", "size-bool",
        "stages-list", "list"])
def test_malformed_manifest_exit_2(piped, tmp_path, capsys, edit, message):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    manifest = json.loads((d / "manifest.json").read_text())
    (d / "manifest.json").write_text(json.dumps(edit(manifest)))
    assert main(["extend", str(d)]) == 2
    assert message in capsys.readouterr().err


def _files(d):
    return {str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", ["texture_gt.pfm", "texture_o.pfm", "corr0.pfm",
                                  "synth_stats.json", "metrics.json"])
def test_missing_top_level_artifact_exit_2(piped, tmp_path, capsys, name):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    assert name in json.loads((d / "manifest.json").read_text()).values()
    (d / name).unlink()
    before = _files(d)
    assert main(["synth", str(d)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: manifest references missing file {name}\n"
    assert _files(d) == before


@pytest.mark.parametrize("texture, message", [
    (np.zeros((5, 7, 3)), "is 7x5 with 3 channel(s), expected 48x48 with 3"),
    (np.zeros((48, 48)), "is 48x48 with 1 channel(s), expected 48x48 with 3"),
], ids=["small", "one-channel"])
def test_bad_texture_file_exit_2(piped, tmp_path, capsys, texture, message):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    write_pfm(d / "texture_o.pfm", texture)
    before = _files(d)
    assert main(["synth", str(d)]) == 2
    assert capsys.readouterr().err == f"error: texture_o.pfm: texture file {message}\n"
    assert _files(d) == before


def test_retexture_missing_texture_exit_2(piped, tmp_path, capsys):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    before = _files(d)
    for texture in (tmp_path / "missing.ppm", tmp_path):
        assert main(["retexture", str(d), str(texture)]) == 2
        assert capsys.readouterr().err == f"error: no texture file at {texture}\n"
    assert _files(d) == before


def _bad_uv_one_channel(packed):
    return packed[..., 0]


def _bad_uv_short(packed):
    return packed[: packed.shape[0] // 2]


def _bad_uv_value(value):
    def edit(packed):
        packed = packed.copy()
        packed[5, 7, 2] = value
        return packed
    return edit


@pytest.mark.parametrize("command", ["retexture", "synth"])
@pytest.mark.parametrize("edit, message", [
    (_bad_uv_one_channel, "is 48x48 with 1 channel(s), expected 48x48 with 3"),
    (_bad_uv_short, "is 48x24 with 3 channel(s), expected 48x48 with 3"),
    (_bad_uv_value(np.nan), "holds non-finite samples"),
    (_bad_uv_value(np.inf), "holds non-finite samples"),
], ids=["one-channel", "short", "nan-silhouette", "inf-silhouette"])
def test_bad_packed_uv_file_exit_2(piped, tmp_path, capsys, command, edit, message):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    uv = d / "frames" / "f0000_uv_final.pfm"
    write_pfm(uv, edit(read_pfm(uv)))
    manifest = (d / "manifest.json").read_bytes()
    args = [command, str(d)] + ([str(d / "texture_gt.pfm")] if command == "retexture" else [])
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: f0000_uv_final.pfm: packed UV file {message}\n"
    assert (d / "manifest.json").read_bytes() == manifest



@pytest.mark.parametrize("name, message", [
    ("f0001_image.ppm", "image file is 32x32 with 3 channel(s), expected 48x48 with 3"),
    ("f0001_mask.pfm", "mask file is 32x32 with 1 channel(s), expected 48x48"),
], ids=["image", "mask"])
def test_wrong_size_frame_file_exit_2(piped, tmp_path, capsys, name, message):
    # the first stage that reads a frame image or mask of another size
    # names it, before any later stage compares frames
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    path = d / "frames" / name
    if name.endswith(".ppm"):
        write_ppm(path, read_ppm(path)[:32, :32])
    else:
        write_pfm(path, read_pfm(path)[:32, :32, 0])
    manifest = (d / "manifest.json").read_bytes()
    assert main(["relocate", str(d)]) == 2
    assert capsys.readouterr().err == f"error: {name}: {message}\n"
    assert (d / "manifest.json").read_bytes() == manifest


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _cut(path):
    write_ppm(path, read_ppm(path)[:32, :32])


def _darken(path):
    write_ppm(path, 0.5 * read_ppm(path))


@pytest.mark.parametrize("command, args, damage", [
    ("extend", [], {"f0001_uv_raw.pfm": _truncate}),
    ("optimize", [], {"f0001_uv_ext.pfm": _truncate}),
    # frame 0 changes too, so a texture_o.pfm written from it would differ
    ("relocate", [], {"f0000_image.ppm": _darken, "f0001_image.ppm": _cut}),
    ("corrupt", ["--margin", "3", "--seed", "9"], {"f0001_uv_gt.pfm": _truncate}),
], ids=["extend", "optimize", "relocate", "corrupt"])
def test_stage_failing_on_frame_1_writes_nothing(piped, tmp_path, command, args, damage):
    # a stage that exits 2 part way leaves every file as it was, so no
    # manifest tag vouches for a file it rewrote
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    for name, spoil in damage.items():
        spoil(d / "frames" / name)
    before = {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()}
    assert main([command, str(d)] + args) == 2
    assert {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()} == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_synth_and_baseline_equal_full_frame_render(piped, tmp_path, threads):
    # synth and the metrics baseline render only foreground pixels; their
    # files are those of the full-frame render written by write_ppm
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    assert main(["synth", str(d), "--threads", threads]) == 0
    assert main(["metrics", str(d), "--threads", threads]) == 0
    m = Manifest.load(d)
    real0 = m.read_image(0, "image", valid=m.read_mask(0, "mask"))
    T_raw, _ = frame_zero_products(m.read_uv(0, "uv_raw"), real0, *m.texture_size)
    want = tmp_path / "want.ppm"
    for key, texture, uv_key in (("synth", m.read_texture("texture_o"), "uv_final"),
                                 ("baseline", T_raw, "uv_raw")):
        render = LookupRenderer(texture.data)
        for i in range(m.n_frames):
            write_ppm(want, render.frame(m.read_uv(i, uv_key))[0].data)
            assert m.frame_item(i, key).read_bytes() == want.read_bytes(), (key, i)

def test_retexture_one_channel_look_exit_2(piped, tmp_path, capsys):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    gray = tmp_path / "gray.pfm"
    write_pfm(gray, np.random.default_rng(0).uniform(size=(48, 48)))
    before = _files(d)
    assert main(["retexture", str(d), str(gray)]) == 2
    assert capsys.readouterr().err == (
        f"error: retexture needs a 3-channel texture, {gray} has 1\n")
    assert _files(d) == before      # no frame written, manifest.json unchanged


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_retexture_non_finite_look_exit_2(piped, tmp_path, capsys, value):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    look = tmp_path / "look.pfm"
    data = np.random.default_rng(0).uniform(size=(48, 48, 3))
    data[40, 3, 1] = value
    write_pfm(look, data)
    before = _files(d)
    assert main(["retexture", str(d), str(look)]) == 2
    assert capsys.readouterr().err == f"error: {look}: texture holds non-finite samples\n"
    assert _files(d) == before      # no frame written, manifest.json unchanged


@pytest.mark.parametrize("threads", ["1", "2"])
def test_retexture_big_endian_look_matches_little_endian(piped, tmp_path, threads):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    data = np.random.default_rng(1).uniform(-0.3, 1.3, size=(40, 56, 3))
    for order, name in (("<", "le"), (">", "be")):
        write_pfm(tmp_path / f"{name}.pfm", data, byte_order=order)
        assert main(["retexture", str(d), str(tmp_path / f"{name}.pfm"), "--tag", name,
                     "--threads", threads]) == 0
    for i in range(3):
        le = (d / "frames" / f"f{i:04d}_le.ppm").read_bytes()
        assert le == (d / "frames" / f"f{i:04d}_be.ppm").read_bytes()
        assert le != (d / "frames" / f"f{i:04d}_synth.ppm").read_bytes()


def test_retexture_starts_no_more_workers_than_frames(piped, tmp_path, monkeypatch):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    look = d / "texture_gt.pfm"
    assert main(["retexture", str(d), str(look), "--tag", "one", "--threads", "1"]) == 0
    started = []

    def start(self, _f=threading.Thread.start):
        started.append(self)
        return _f(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert main(["retexture", str(d), str(look), "--tag", "many", "--threads", "64"]) == 0
    monkeypatch.undo()
    assert 1 <= len(started) <= 3                  # the sequence has 3 frames
    for i in range(3):
        one = (d / "frames" / f"f{i:04d}_one.ppm").read_bytes()
        assert one == (d / "frames" / f"f{i:04d}_many.ppm").read_bytes()


def test_retexture_rerun_with_same_tag_equals_fresh_run(piped, tmp_path):
    # the second pass rewrites every frame and a shorter manifest.json in
    # place; the sequence must equal a fresh copy retextured once
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    shutil.copytree(piped[0], again)
    shutil.copytree(piped[0], fresh)
    rng = np.random.default_rng(2)
    first = tmp_path / "a_look_with_a_long_name.ppm"
    write_ppm(first, rng.uniform(size=(48, 48, 3)))
    second = tmp_path / "b.pfm"
    write_pfm(second, rng.uniform(size=(32, 32, 3)))
    assert main(["retexture", str(again), str(first), "--tag", "look"]) == 0
    assert main(["retexture", str(again), str(second), "--tag", "look"]) == 0
    assert main(["retexture", str(fresh), str(second), "--tag", "look"]) == 0
    assert _files(again) == _files(fresh)


@pytest.mark.parametrize("tag", ["image", "uv_final", "synth", "index", "ext_trace",
                                 "a/b", "", "-x", "_x", "a.b", "a b", "..", "ü"])
def test_retexture_bad_tag_exit_2(piped, tmp_path, capsys, tag):
    # a tag names a frame item and its file: it may not replace another
    # stage's item or leave frames/
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    before = _files(d)
    assert main(["retexture", str(d), str(d / "texture_gt.pfm"), f"--tag={tag}"]) == 2
    assert capsys.readouterr().err == (
        f"error: retexture tag {tag!r} must match [A-Za-z0-9][A-Za-z0-9_-]* "
        f"and name no other stage's frame item\n")
    assert _files(d) == before


def test_manifest_names_every_file_on_disk(piped, tmp_path):
    # every file a stage writes is named in manifest.json, and every name
    # is a file
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    rng = np.random.default_rng(3)
    write_pfm(tmp_path / "a.pfm", rng.uniform(size=(32, 40, 3)))
    write_ppm(tmp_path / "b.ppm", rng.uniform(size=(48, 48, 3)))
    assert main(["retexture", str(d), str(tmp_path / "a.pfm")]) == 0
    assert main(["retexture", str(d), str(tmp_path / "b.ppm"), "--tag", "b"]) == 0
    man = json.loads((d / "manifest.json").read_text())
    named = {rel for key, rel in man.items()
             if key not in ("version", "image_size", "texture_size", "frames", "stages")}
    named |= {rel for fr in man["frames"] for key, rel in fr.items() if key != "index"}
    assert set(_files(d)) == named | {"manifest.json"}


def test_retexture_tag_ending_in_trace_names_a_frame(piped, tmp_path):
    # a tag is routed by nothing but new_item: x_trace is a frame item
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    traces = {k: v for k, v in _files(d).items() if k.startswith("traces")}
    assert main(["retexture", str(d), str(d / "texture_gt.pfm"), "--tag", "x_trace"]) == 0
    man = json.loads((d / "manifest.json").read_text())
    for i in range(3):
        assert man["frames"][i]["x_trace"] == f"frames/f{i:04d}_x_trace.ppm"
        assert (d / "frames" / f"f{i:04d}_x_trace.ppm").is_file()
    assert {k: v for k, v in _files(d).items() if k.startswith("traces")} == traces


def test_retexture_with_a_frame_cut_short_exits_2(piped, tmp_path, capsys):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    _truncate(d / "frames" / "f0001_uv_final.pfm")
    manifest = (d / "manifest.json").read_bytes()
    assert main(["retexture", str(d), str(d / "texture_gt.pfm")]) == 2
    assert capsys.readouterr().err.startswith("error: truncated pfm data")
    assert (d / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("command", ["corrupt", "extend", "optimize", "relocate"])
def test_manifest_without_frames_exit_2(piped, tmp_path, capsys, command):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    manifest = json.loads((d / "manifest.json").read_text())
    (d / "manifest.json").write_text(json.dumps({**manifest, "frames": []}))
    before = _files(d)
    assert main([command, str(d)]) == 2
    assert capsys.readouterr().err == "error: manifest frames must list at least one frame\n"
    assert _files(d) == before


def test_failing_extend_makes_no_traces_folder(tmp_path):
    # traces/ is made with the first record, so the first stage that
    # writes records leaves none behind when it exits 2
    d = tmp_path / "seq"
    assert main(["gen", str(d)] + SMALL) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    _truncate(d / "frames" / "f0001_uv_raw.pfm")
    before = _files(d)
    assert main(["extend", str(d)]) == 2
    assert not (d / "traces").exists()
    assert _files(d) == before


def test_frame_items_are_the_stages_items(piped):
    # FRAME_ITEMS lists every frame item a pipeline writes, and no other
    items = {"index"}
    for rel in piped[1]:
        folder, _, name = rel.partition("/")
        key = name.split(".")[0].partition("_")[2]      # f0000_<key>.<ext>
        if folder == "frames":
            items.add(key)
        elif folder == "traces":
            items.add(f"{key}_trace")
    assert items == set(FRAME_ITEMS)


def test_relocate_missing_external_flow(piped, tmp_path, capsys):
    piped, _ = piped
    empty = tmp_path / "noflows"
    empty.mkdir()
    rc = main(["relocate", str(piped), "--flow-dir", str(empty)])
    assert rc == 2
    assert "missing external flow" in capsys.readouterr().err


def test_pipeline_ignores_max_steps(piped, tmp_path):
    _, baseline = piped   # FAST passes --max-steps 80
    for i, steps in enumerate(([], ["--max-steps", "5"])):
        d = tmp_path / f"steps{i}"
        args = [a for a in FAST if a not in ("--max-steps", "80")] + steps
        assert main(["gen", str(d)] + SMALL) == 0
        assert main(["corrupt", str(d)] + CORRUPT) == 0
        assert main(["pipeline", str(d)] + args) == 0
        assert tree_hashes(d) == baseline


def test_pipeline_odd_texture_width(tmp_path):
    # a texture width that is not a multiple of the flow pyramid's factor
    d = tmp_path / "odd"
    assert main(["gen", str(d), "--width", "48", "--height", "48",
                 "--tex-width", "50", "--tex-height", "48"]) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    assert main(["pipeline", str(d)] + FAST) == 0


def test_pipeline_deterministic_across_threads(piped, tmp_path):
    _, baseline = piped   # hashes captured before any mutating test ran
    d2 = tmp_path / "seq2"
    run_sequence(d2, pipeline_args=("--threads", "2"))
    b = tree_hashes(d2)
    assert set(b) == set(baseline)
    for k in sorted(b):
        assert b[k] == baseline[k], f"artifact {k} differs across thread counts"


def test_gen_refuses_a_directory_holding_a_sequence(piped, tmp_path, capsys):
    # a second gen would leave the first sequence's artifacts unnamed
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    before = {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()}
    assert main(["gen", str(d)] + SMALL) == 2
    assert capsys.readouterr().err == f"error: {d} already holds a sequence (manifest.json)\n"
    assert {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()} == before


def test_relocate_external_flow_of_wrong_size_exit_2(piped, tmp_path, capsys):
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    flows = tmp_path / "flows"
    flows.mkdir()
    for i in (0, 2):
        shutil.copy(d / "frames" / f"f{i:04d}_flow.flo", flows / f"f{i:04d}.flo")
    write_flo(flows / "f0001.flo", Field2(np.zeros((16, 16, 2))))
    before = {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()}
    assert main(["relocate", str(d), "--flow-dir", str(flows)]) == 2
    assert capsys.readouterr().err == "error: f0001.flo: flow is 16x16, expected 48x48\n"
    assert {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()} == before


def test_relocate_external_flow_with_a_nan_exit_2(piped, tmp_path, capsys):
    # every flow is read before anything is written, and the error names the file
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    flows = tmp_path / "flows"
    flows.mkdir()
    for i in range(3):
        shutil.copy(d / "frames" / f"f{i:04d}_flow.flo", flows / f"f{i:04d}.flo")
    raw = bytearray((flows / "f0001.flo").read_bytes())
    raw[12 + 8 * 100:12 + 8 * 100 + 4] = np.float32(np.nan).tobytes()
    (flows / "f0001.flo").write_bytes(bytes(raw))
    before = {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()}
    assert main(["relocate", str(d), "--flow-dir", str(flows)]) == 2
    assert capsys.readouterr().err == "error: f0001.flo: flow holds non-finite samples\n"
    assert {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()} == before


def test_pipeline_rejects_flow_dir(piped, tmp_path, capsys):
    # external flows are a relocate option; pipeline would relocate without them
    d = tmp_path / "seq"
    shutil.copytree(piped[0], d)
    before = {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()}
    with pytest.raises(SystemExit) as e:
        main(["pipeline", str(d), "--flow-dir", str(tmp_path / "x")])
    assert e.value.code == 2
    assert "--flow-dir" in capsys.readouterr().err
    assert {k: hashlib.sha256(v).hexdigest() for k, v in _files(d).items()} == before
    assert not (tmp_path / "x").exists()


# Each command's config options, every one set away from its default, and
# the config each stage it runs should record for them.  The four sizes
# differ, so an option bound to the wrong field shows.
OPT_OPTIONS = (["--alpha1", "50", "--alpha2", "5"], OptConfig(alpha1=50.0, alpha2=5.0))
RELOC_OPTIONS = (["--block", "6", "--search-radius", "3", "--tau", "0.08",
                  "--patch", "6", "--window", "9"],
                 RelocateConfig(block=6, search_radius=3, tau=0.08, patch=6, window=9))
CONFIG_OPTIONS = {
    "gen": (["--width", "40", "--height", "36", "--tex-width", "34", "--tex-height", "38",
             "--frames", "2", "--seed", "4", "--amplitude", "0.01", "--frequency", "1.5",
             "--silhouette", "blobs", "--pattern", "grid"],
            {"gen": SceneConfig(image_w=40, image_h=36, tex_w=34, tex_h=38, frames=2,
                                seed=4, amplitude=0.01, frequency=1.5,
                                silhouette="blobs", pattern="grid")}),
    "corrupt": (["--margin", "1", "--dup-blocks", "1", "--dup-size", "4",
                 "--uv-noise", "0.005", "--jitter", "0.002", "--seed", "3"],
                {"corrupt": CorruptConfig(margin=1, dup_blocks=1, dup_size=4,
                                          uv_noise=0.005, jitter=0.002, seed=3)}),
    "optimize": (OPT_OPTIONS[0], {"optimize": OPT_OPTIONS[1]}),
    "relocate": (RELOC_OPTIONS[0], {"relocate": RELOC_OPTIONS[1]}),
    "pipeline": (OPT_OPTIONS[0] + RELOC_OPTIONS[0],
                 {"optimize": OPT_OPTIONS[1], "relocate": RELOC_OPTIONS[1]}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_OPTIONS))
def test_cli_options_reach_their_configs(piped, tmp_path, command):
    args, configs = CONFIG_OPTIONS[command]
    for cfg in configs.values():
        default = type(cfg)()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(cfg))
    defaults = {stage: type(cfg)() for stage, cfg in configs.items()}
    for i, (argv, want) in enumerate((([], defaults), (args, configs))):
        d = tmp_path / f"seq{i}"
        if command != "gen":
            shutil.copytree(piped[0], d)
        assert main([command, str(d)] + argv) == 0
        recorded = json.loads((d / "manifest.json").read_text())["stages"]
        for stage, cfg in want.items():
            assert recorded[stage]["config"] == config_dict(cfg), (stage, argv)

"""End-to-end tests of the command-line interface.

All commands run in-process through ``main`` so exit codes and stderr are
checked directly.  One small corrupted sequence is built per module and
shared by the read-only assertions.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from uvweave.cli import main
from uvweave.formats import read_pfm, read_ppm, write_ppm

SMALL = ["--width", "48", "--height", "48", "--tex-width", "48",
         "--tex-height", "48", "--frames", "3", "--seed", "5",
         "--amplitude", "0.02", "--frequency", "1.5"]
CORRUPT = ["--margin", "2", "--dup-blocks", "2", "--dup-size", "6",
           "--uv-noise", "0.01", "--seed", "1"]
FAST = ["--max-steps", "80", "--max-iters", "400", "--window", "11"]


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
    assert main(["extend", str(d), "--max-iters", "400"]) == 0


def test_threads_flag_validation(tmp_path, capsys):
    d = tmp_path / "t"
    assert main(["gen", str(d)] + SMALL) == 0
    assert main(["corrupt", str(d)] + CORRUPT) == 0
    for bad in ("0", "-4"):
        rc = main(["extend", str(d), "--threads", bad])
        assert rc == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
    assert "extend" not in json.loads((d / "manifest.json").read_text())["stages"]
    assert main(["extend", str(d), "--max-iters", "400", "--threads", "1"]) == 0


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
    keys = ["covered", "filled", "flow_max_texels", "flow_mean_texels",
            "flow_volume_texels", "flow_volumes", "matched", "pruned", "unfilled"]
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
    assert main(["extend", str(d), "--max-iters", "400"]) == 0
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
    assert main(["extend", str(d), "--max-iters", "400"]) == 0
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

"""The benchmark's output checks accept good outputs and reject broken ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

One small corrupted scene goes through the real pipeline; each test then
breaks one output the way a faulty program could and shows that the
check meant to catch it does.
"""

import json
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from uvweave.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def recovered(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench") / "seq"
    assert main(["gen", str(root), "--width", "32", "--height", "32", "--tex-width", "32",
                 "--tex-height", "32", "--frames", "3", "--seed", "2",
                 "--amplitude", "0.02", "--frequency", "1.5"]) == 0
    assert main(["corrupt", str(root), "--margin", "2", "--dup-blocks", "2",
                 "--dup-size", "4", "--uv-noise", "0.01", "--seed", "2"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["pipeline", str(root), "--max-steps", "20", "--threads", "1"]) == 0
    return root


@pytest.fixture
def seq(recovered, tmp_path):
    """A private copy of the recovered sequence that a test may break."""
    root = tmp_path / "seq"
    shutil.copytree(recovered, root)
    return checks.Sequence(root)


def _write_ppm(path, data):
    q = np.rint(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w, _ = q.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + q.tobytes())


def test_good_outputs_pass_every_check(seq):
    res = checks.check_recovery(seq)
    assert all(res["checks"].values()), res["checks"]
    assert 0.0 < res["uv_err_texels"] < res["uv_err_raw_texels"]


def test_oracle_matches_reference_renders(seq):
    """The oracle reproduces the program's synth frames to within half a
    quantization step, and a stride of 1 checks every foreground pixel."""
    tex = seq.texture("texture_o")
    for i in range(seq.n_frames):
        uv, sil = seq.uv(i, "uv_final")
        worst, background_zero = checks.render_error(seq.image(i, "synth"), tex, uv, sil, 1)
        assert worst <= checks.QUANT_TOL and background_zero


def test_oracle_rejects_swapped_axes(seq):
    """A render that reads the texture with x and y swapped fails the oracle."""
    tex = seq.texture("texture_o")
    uv, sil = seq.uv(1, "uv_final")
    pos = checks.texture_positions(uv)[sil][:, ::-1]
    swapped = np.zeros(sil.shape + (3,))
    swapped[sil] = checks.bilinear(tex, pos)
    path = seq.path(1, "synth")
    _write_ppm(path, swapped)
    assert not checks.render_ok(checks.read_ppm(path), tex, uv, sil, stride=1)
    assert not checks.check_recovery(seq)["checks"]["synth_oracle"]


def test_oracle_rejects_nonzero_background(seq):
    frame = seq.image(0, "synth")
    _, sil = seq.uv(0, "uv_final")
    frame[~sil] = 1.0 / 255.0
    _write_ppm(seq.path(0, "synth"), frame)
    assert not checks.check_recovery(seq)["checks"]["synth_oracle"]


def test_psnr_check_rejects_baseline_passed_off_as_synth(seq):
    """One frame's synth replaced by its baseline disagrees with the PSNR
    that metrics.json reports for it."""
    shutil.copyfile(seq.path(2, "baseline"), seq.path(2, "synth"))
    assert not checks.check_recovery(seq)["checks"]["psnr_recomputed"]


def test_uv_error_rejects_raw_uvs_passed_off_as_final(seq):
    """``uv_raw`` in place of ``uv_final`` is no better than the raw UVs."""
    data = seq.data
    for fr in data["frames"]:
        shutil.copyfile(seq.root / fr["uv_raw"], seq.root / fr["uv_final"])
    res = checks.check_recovery(seq)
    assert not res["checks"]["uv_err_below_raw"]
    assert res["uv_err_texels"] == res["uv_err_raw_texels"]


def test_frame0_positions_follow_corr_gt(seq):
    """The affine fit maps each frame's chart onto frame 0's exactly as
    sampling ``corr_gt`` does, and is the identity on frame 0."""
    for i in range(seq.n_frames):
        uv_gt, sil = seq.uv(i, "uv_gt")
        corr = checks.read_pfm(seq.path(i, "corr_gt"))
        truth = checks.frame0_positions(uv_gt, corr)[sil]
        chart = checks.texture_positions(uv_gt)[sil]
        assert np.abs(truth - checks.bilinear(corr[..., :2], chart)).max() < 1e-6
        if i == 0:
            assert np.abs(truth - chart).max() < 1e-6


def test_beats_baseline_rejects_a_worse_frame(seq):
    path = seq.root / "metrics.json"
    report = json.loads(path.read_text())
    report["recovered"]["t_diff"]["per_pair"][0] = 1.0
    path.write_text(json.dumps(report))
    assert not checks.check_recovery(seq)["checks"]["beats_baseline"]


def test_ramp_look_decodes_positions():
    pos = np.random.default_rng(0).uniform(0.1, 0.9, size=(50, 2))
    gain, offset = np.array([0.9, 0.95]), np.array([0.05, 0.02])
    tex = checks.ramp_texture(64, 48, gain, offset)
    seen = checks.ramp_positions(checks.bilinear(tex, pos)[None], gain, offset)[0]
    assert np.abs(seen - pos).max() < 1e-12


def test_benchmark_json_names_what_run_reports():
    import run
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_children_once():
    from tracer import self_times
    spans = [(1, "a", 0.0, 10.0, None, 0, "round", None),
             (2, "b", 1.0, 4.0, 1, 0, "round", None),
             (3, "c", 3.0, 6.0, 1, 0, "round", None),
             (4, "d", 2.0, 3.0, 2, 0, "round", None)]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_tracer_records_nested_spans_and_restores(tmp_path):
    import uvweave.formats
    import uvweave.manifest
    import uvweave.stages
    from tracer import Tracer
    originals = (uvweave.stages.stage_gen, uvweave.manifest.write_pfm,
                 uvweave.manifest.Manifest.__dict__["load"])
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["gen", str(tmp_path / "s"), "--width", "32", "--height", "32",
                     "--tex-width", "32", "--tex-height", "32", "--frames", "2"]) == 0
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    gen = [s for s in tracer.spans if s[1] == "stages.gen"]
    writes = [s for s in tracer.spans if s[1] == "formats.write_pfm"]
    uv_writes = [w for w in writes if by_id[w[4]][1] == "manifest.write_uv"]
    assert len(gen) == 1 and len(uv_writes) == 2
    assert all(by_id[by_id[w[4]][4]][0] == gen[0][0] for w in uv_writes)
    assert all(w[7]["bytes_written"] > 0 for w in writes)
    assert (uvweave.stages.stage_gen, uvweave.manifest.write_pfm,
            uvweave.manifest.Manifest.__dict__["load"]) == originals

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raypose
from raypose import generate_city, generate_scene
from raypose.bench import SceneConfig
from raypose.cli import main
from raypose.geometry import Correspondences
from raypose.io import (load_reconstruction, save_correspondences,
                        save_reconstruction)


def _write_city(tmp_path, n=2, cams=3, noise=0.0, seed=1):
    subsets, truths = generate_city(n, cams, 0.3, noise, seed=seed)
    paths = []
    for i, cam in enumerate(subsets):
        p = tmp_path / f"sub{i}.json"
        save_reconstruction(cam, str(p))
        paths.append(str(p))
    return paths, subsets


def test_solve_subcommand(tmp_path, capsys):
    corrs, truth = generate_scene(SceneConfig(n_correspondences=6), np.random.default_rng(2))
    path = tmp_path / "c.json"
    save_correspondences(corrs, str(path))
    assert main(["solve", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.isclose(out["best"]["scale"], truth.scale, rtol=1e-6)
    assert len(out["candidates"]) >= 1


def test_solve_fix_scale_degenerate(tmp_path, capsys):
    # all ray origins at zero: plain solve cannot see the scale, the
    # fix-scale re-pose succeeds
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 3)) + np.array([0, 0, 5.0])
    corrs = Correspondences(np.zeros((6, 3)), pts, pts)
    path = tmp_path / "c.json"
    save_correspondences(corrs, str(path))
    assert main(["solve", "--input", str(path)]) == 1
    assert main(["solve", "--input", str(path), "--fix-scale"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["best"]["scale"] == 1.0


def test_merge_two_halves(tmp_path, capsys):
    paths, subsets = _write_city(tmp_path)
    out = tmp_path / "merged.json"
    assert main(["merge", *paths, "--out", str(out)]) == 0
    merged = load_reconstruction(str(out))
    assert len(merged.camera_ids) == sum(len(s.camera_ids) for s in subsets)
    text = (tmp_path / "merged.json.report.json").read_text()
    assert "seconds" not in text   # wall times never enter data outputs
    report = json.loads(text)
    assert report["failed_members"] == {}
    assert set(report["transforms"]) == {"0", "1"}


def test_merge_malformed_id_is_invalid_input(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    doc = json.loads(Path(paths[1]).read_text())
    doc["points"][0]["id"] = [1, 2]
    with open(paths[1], "w") as f:
        json.dump(doc, f)
    assert main(["merge", *paths]) == 2
    assert "points[0].id" in capsys.readouterr().err


def test_malformed_thread_count(tmp_path, capsys):
    # A bad count is invalid input, not a traceback.
    paths, _ = _write_city(tmp_path)
    assert main(["merge", *paths, "--threads", "0"]) == 2
    assert "threads must be an integer >= 1" in capsys.readouterr().err
    assert main(["merge", *paths, "--threads", "two"]) == 2


def test_group_size_below_two_is_invalid_input(tmp_path, capsys):
    # Groups of one merged nothing, and the merge exited 1 with every
    # member "disconnected from the final reconstruction".
    paths, _ = _write_city(tmp_path)
    assert main(["merge", *paths, "--max-group-size", "1"]) == 2
    assert "max_group_size must be an integer >= 2" in capsys.readouterr().err


def test_negative_seed_is_invalid_input(capsys):
    # numpy's own message used to reach the user without naming the seed.
    assert main(["stability", "--trials", "1", "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_merge_block_not_a_list_is_invalid_input(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    doc = json.loads(Path(paths[1]).read_text())
    doc["observations"] = 5
    with open(paths[1], "w") as f:
        json.dump(doc, f)
    assert main(["merge", *paths]) == 2
    assert "observations: expected a list" in capsys.readouterr().err


def test_align_subcommand(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    assert main(["align", paths[0], paths[1]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["inlier_ratio"] > 0.9


def test_align_disjoint_is_estimation_failure(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    (tmp_path / "b").mkdir(exist_ok=True)
    other_paths, _ = _write_city(tmp_path / "b", seed=5)
    assert main(["align", paths[0], other_paths[1]]) == 1


def test_bench_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--experiment", "noise", "--trials", "2",
            "--max-noise-px", "1", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_timings_sidecar(tmp_path):
    csv = tmp_path / "s.csv"
    timings = tmp_path / "t.txt"
    assert main(["bench", "--experiment", "scalability", "--trials", "1",
                 "--seed", "1", "--out", str(csv), "--timings", str(timings)]) == 0
    assert "runtime" not in csv.read_text().split("\n")[0].replace("runtime_s_mean", "")
    assert "mean_runtime" in timings.read_text()


def test_stability_subcommand(tmp_path):
    out = tmp_path / "st.csv"
    assert main(["stability", "--trials", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4


def test_invalid_inputs_exit_two(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["solve", "--input", str(tmp_path / "missing.json")]) == 2
    assert main(["bench", "--experiment", "noise", "--bogus-flag"]) == 2
    for experiment in ("noise", "scalability"):
        assert main(["bench", "--experiment", experiment, "--trials", "0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 2
    # The per-camera polish after a merge is gone, and so is its flag.
    paths, _ = _write_city(tmp_path)
    assert main(["merge", *paths, "--refine"]) == 2


def test_config_overrides(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    assert main(["align", paths[0], paths[1],
                 "--config", "max_iterations=50",
                 "--config", "min_inliers=8",
                 "--config", "angular_inlier_threshold=0.01"]) == 0
    capsys.readouterr()
    # The sample size and the confidence are constants, and the scores
    # choose the sampler: none of them is a setting.
    for override in ("bogus_key=1", "use_prosac=true", "sample_size=4", "confidence=0.99"):
        assert main(["align", paths[0], paths[1], "--config", override]) == 2
        assert f"unknown config key {override.split('=')[0]!r}" in capsys.readouterr().err


def test_config_rejects_malformed_values(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    for override in ("max_iterations=1.5", "angular_inlier_threshold=high"):
        assert main(["align", paths[0], paths[1], "--config", override]) == 2
        assert repr(override.split("=")[0]) in capsys.readouterr().err
    assert main(["merge", *paths, "--config", "min_inliers=ten"]) == 2


def test_config_rejects_an_infinite_inlier_threshold(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    assert main(["align", paths[0], paths[1], "--config", "angular_inlier_threshold=inf"]) == 2
    assert "angular_inlier_threshold" in capsys.readouterr().err


def test_config_rejects_min_inliers_below_one(tmp_path, capsys):
    paths, _ = _write_city(tmp_path)
    assert main(["align", paths[0], paths[1], "--config", "min_inliers=0"]) == 2
    assert "min_inliers" in capsys.readouterr().err


def test_config_only_on_robust_commands(tmp_path):
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), np.random.default_rng(2))
    path = tmp_path / "c.json"
    save_correspondences(corrs, str(path))
    override = ["--config", "max_iterations=5"]
    assert main(["solve", "--input", str(path)] + override) == 2
    assert main(["bench", "--experiment", "noise", "--trials", "1"] + override) == 2
    assert main(["stability", "--trials", "1"] + override) == 2


def test_cli_leaves_the_bench_harness_unloaded():
    # solve, align and merge never need the harness; bench and stability load it.
    src = str(Path(raypose.__file__).resolve().parents[1])
    code = "import sys, raypose.cli; assert 'raypose.bench' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=src))

"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly from the repository root and checks that:

* the last line of output is the result object, with every end-to-end
  metric of BENCHMARK.json (untraced) or every per-layer metric (traced),
  each with its declared unit, and a correct result;
* the same seed gives the same input digest and another seed another one;
* two traced runs with the same seed make exactly the same counts;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result, lines


def record_of(workload, seed, trace):
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def check_metrics(result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(want) ^ set(got)), got)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)), m


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()], "workload reasons differ"
    exact = {m["name"] for m in SPEC["per_layer"]
             if m["unit"].startswith(("count", "bytes")) or m["name"] == "robust.degenerate_frac"}
    for w in (w["name"] for w in SPEC["workloads"]):
        plain, _ = result_of(run(w, 11, 0))
        check_metrics(plain, SPEC["end_to_end"])
        digest = record_of(w, 11, 0)["input_sha256"]

        first, _ = result_of(run(w, 12, 1))
        check_metrics(first, SPEC["per_layer"])
        rec_a = record_of(w, 12, 1)
        assert rec_a["counts_repeat"] and not rec_a["absent"], rec_a["absent"]
        assert rec_a["input_sha256"] != digest
        second, _ = result_of(run(w, 12, 1))
        rec_b = record_of(w, 12, 1)
        assert rec_b["input_sha256"] == rec_a["input_sha256"]
        assert rec_b["first_op_counts"] == rec_a["first_op_counts"], w
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], (w, name)
        print(f"smoke: {w}: ok")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 11, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("smoke: bare directory: exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

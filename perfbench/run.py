"""Run one raypose benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  The load is a closed loop from one
client: one process, one Python thread, ``threads=1`` passed to the merge,
``RAYPOSE_THREADS`` and the BLAS thread counts pinned to 1.

``--trace 0`` times the ops with no hooks installed and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
over the workload's first instances and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the environment, input digest and every metric
is written to ``perfbench/out/``.
"""

import os

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "RAYPOSE_THREADS": "1"}
os.environ.update(PINNED)   # before numpy loads its BLAS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import yardstick  # noqa: E402
from workloads import ACCURACY_FLOOR, WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The highest percentile reported needs at least 10 samples beyond it.
P90_MIN_OPS = 100
# Seconds of ops between two timings of the yardstick.
BLOCK_S = 0.5


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "pinned_env": PINNED}


def import_and_parse(workload, inst):
    """Fresh import of raypose plus parsing of one op's input documents.

    Returns (seconds, module).  Earlier module objects stay valid for the
    objects already made from them.
    """
    for name in [m for m in sys.modules if m == "raypose" or m.startswith("raypose.")]:
        del sys.modules[name]
    start = time.perf_counter()
    rp = importlib.import_module("raypose")
    workload.parse(rp, inst)
    return time.perf_counter() - start, rp


def run_op(workload, rp, objects, inst):
    """(seconds, Outcome) of one op; documented program errors count as failures."""
    start = time.perf_counter()
    try:
        output = workload.call(rp, objects, inst)
    except rp.RayposeError:
        output = None
    elapsed = time.perf_counter() - start
    return elapsed, workload.judge(output, inst)


def summarize(outcomes):
    return (sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
            sum(o.accurate for o in outcomes), all(o.well_formed for o in outcomes))


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def measure(workload, rp, objects, instances, seconds, record):
    """Untraced closed loop: end-to-end metrics.  Returns (metrics, outcomes).

    The yardstick is timed before the first op and then after each op that
    ends a block of ``BLOCK_S`` seconds.  Every op time and set-up sample is
    scaled by the median of the yardstick times around its block (see
    ``yardstick.py``).  The set-up samples are spread evenly over the timed
    window, between ops, so that they meet the same machine conditions as
    the ops.
    """
    stick = yardstick.Yardstick()
    stick.seconds()   # warm-up: first touch of its arrays
    refs = [stick.seconds()]
    ops, setups, outcomes = [], [], []   # ops and setups: (seconds, block)
    start = block_start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= len(setups) * seconds / workload.setup_samples:
            setups.append((import_and_parse(workload, instances[0])[0], len(refs) - 1))
        k = len(ops) % len(instances)
        elapsed, outcome = run_op(workload, rp, objects[k], instances[k])
        ops.append((elapsed, len(refs) - 1))
        outcomes.append(outcome)
        if time.perf_counter() - block_start >= BLOCK_S:
            refs.append(stick.seconds())
            block_start = time.perf_counter()
    while len(setups) < workload.setup_samples:
        setups.append((import_and_parse(workload, instances[0])[0], len(refs) - 1))
    refs.append(stick.seconds())

    # Block b lies between refs[b] and refs[b + 1]; two more on each side
    # make the median steady against one disturbed yardstick time.
    factor = [yardstick.NOMINAL_S / statistics.median(refs[max(0, b - 2):b + 4])
              for b in range(len(refs) - 1)]

    def scaled(samples):
        return [t * factor[b] for t, b in samples]

    latencies = scaled(ops)
    attempted, failed, accurate, _ = summarize(outcomes)
    values = {
        "setup_s": ("s", statistics.median(scaled(setups))),
        "latency_p50_ms": ("ms", statistics.median(latencies) * 1e3),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6),
        "success_frac": ("ratio", 1.0 - failed / attempted),
        "accurate_frac": ("ratio", accurate / attempted),
    }
    # Printed but not gated: with one closed-loop client ops_per_s is the
    # reciprocal of the mean latency, and fail_frac is often exactly 0.
    wall = [t for t, _ in ops]
    shown = dict(values, ops_per_s=("1/s", len(wall) / sum(wall)),
                 fail_frac=("ratio", failed / attempted),
                 wall_latency_p50_ms=("ms", statistics.median(wall) * 1e3),
                 wall_setup_s=("s", statistics.median(t for t, _ in setups)),
                 yardstick_ms=("ms", statistics.median(refs) * 1e3))
    if len(latencies) >= P90_MIN_OPS:
        shown["latency_p90_ms"] = ("ms", statistics.quantiles(latencies, n=10)[8] * 1e3)
    print(f"perfbench: ops: {len(ops)}; yardstick samples: {len(refs)}; setup samples (s): "
          + ", ".join(f"{t:.4f}" for t, _ in setups))
    for name, (unit, v) in shown.items():
        print(f"  {name:20s} {fmt(v):>14s} {unit}")
    if len(latencies) < P90_MIN_OPS:
        print(f"  latency_p90_ms omitted: {len(latencies)} ops < {P90_MIN_OPS}")
    print(f"  fail_frac and accurate_frac base: {attempted} attempted units, {failed} failed")
    print(f"  setup_s and latency_*_ms are scaled to a yardstick time of "
          f"{yardstick.NOMINAL_S * 1e3:g} ms; wall_* are not")
    record.update(ops=len(ops), setup_samples_s=setups, latencies_s=ops, yardstick_s=refs,
                  reported={name: v for name, (_, v) in shown.items()})
    return {name: {"value": v, "unit": unit} for name, (unit, v) in values.items()}, outcomes


def measure_traced(workload, rp, objects, instances, seconds, record, spans_path):
    """Alternate untraced and traced passes over the workload's first
    instances until ``seconds`` have passed and at least two traced passes
    ran.  Returns (per-layer metrics, outcomes, whether counts repeat)."""
    tracer = tracing.Tracer(rp)
    tracer.install()
    try:
        workload.parse(rp, instances[0])
    finally:
        tracer.uninstall()
    parse_spans = list(tracer.spans)
    tracer.spans.clear()

    objects, instances = objects[:workload.trace_pool], instances[:workload.trace_pool]
    outcomes, op_instance = [], {}
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        for k, inst in enumerate(instances):
            elapsed, outcome = run_op(workload, rp, objects[k], inst)
            untraced += elapsed
            outcomes.append(outcome)
        tracer.install()
        try:
            for k, inst in enumerate(instances):
                tracer.op = len(op_instance)
                op_instance[tracer.op] = k
                elapsed, outcome = run_op(workload, rp, objects[k], inst)
                traced += elapsed
                outcomes.append(outcome)
        finally:
            tracer.uninstall()
        passes += 1

    spans, ops = tracer.spans, len(op_instance)
    counts, first = tracing.op_counts(spans), {}
    repeat_ok = all(first.setdefault(k, counts[op]) == counts[op] for op, k in op_instance.items())
    values = tracing.layer_metrics(spans, ops, parse_spans, traced / untraced - 1.0, tracer.absent)
    by_layer = {k: v / ops for k, v in tracing.self_time_by(spans, tracing.LAYER).items()}
    by_hook = {k: v / ops for k, v in tracing.self_time_by(spans, tracing.NAME).items()}

    print(f"perfbench: traced ops: {ops} ({len(spans)} spans); "
          f"untraced {untraced:.3f} s vs traced {traced:.3f} s on the same ops")
    print(f"perfbench: exact counts repeat across replays: {repeat_ok}")
    for module, name in tracer.absent:
        print(f"perfbench: hook absent: {module}.{name}")
    for name, (unit, _, _) in tracing.PER_LAYER.items():
        print(f"  {name:34s} {fmt(values[name]) if name in values else 'absent':>14s} {unit}")
    for label, table in (("layer", by_layer), ("hook", by_hook)):
        print(f"perfbench: self time per op by {label} (ms): " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(table.items(), key=lambda kv: -kv[1])))
    record.update(traced_ops=ops, counts_repeat=repeat_ok,
                  absent=[f"{m}.{n}" for m, n in tracer.absent],
                  self_ms_per_op_by_layer=by_layer, self_ms_per_op_by_hook=by_hook,
                  first_op_counts=counts[0])
    tracer.write(spans_path)
    metrics = {name: {"value": v, "unit": tracing.PER_LAYER[name][0]} for name, v in values.items()}
    return metrics, outcomes, repeat_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "raypose" / "__init__.py").is_file():
        print(f"perfbench: no raypose sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    instances, digest = generate(workload, args.seed)
    _, rp = import_and_parse(workload, instances[0])
    if Path(rp.__file__).resolve().parent != SRC / "raypose":
        print(f"perfbench: imported raypose from {rp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    objects = [workload.parse(rp, inst) for inst in instances]
    # The held inputs are the benchmark's, not the op's: keep them out of
    # the collector's full passes so op times do not grow with the pool.
    gc.collect()
    gc.freeze()

    env = environment()
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"perfbench: why: {workload.why}")
    print(f"perfbench: inputs: {len(instances)} instances, sha256 {digest}")
    print("perfbench: env: " + json.dumps(env))
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "input_sha256": digest, "env": env}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    run_op(workload, rp, objects[0], instances[0])   # warm-up: lazy numpy set-up
    if args.trace:
        metrics, outcomes, repeat_ok = measure_traced(
            workload, rp, objects, instances, args.seconds, record, f"{stem}.spans.jsonl")
    else:
        metrics, outcomes = measure(workload, rp, objects, instances, args.seconds, record)
        repeat_ok = True

    attempted, failed, accurate, well_formed = summarize(outcomes)
    correct = well_formed and repeat_ok and accurate / attempted >= ACCURACY_FLOOR
    print(f"perfbench: accurate {accurate} of {attempted} attempted units "
          f"(floor {ACCURACY_FLOOR}); all outputs well formed: {well_formed}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

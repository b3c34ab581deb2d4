"""Outside-in tracing of raypose: spans around calls into each module.

Hooks are installed from here by rebinding public names (in every loaded
``raypose`` module that imported them) and class methods to timing
wrappers; nothing under ``src/`` is edited.  Spans are kept in memory as
plain tuples and written out when the run ends.  A hook whose target no
longer exists is reported as absent and the metrics that need it are
omitted, without failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

# (module, public name, layer).  ``bench`` and ``cli`` are not traced: the
# generators are on no user's critical path and the CLI is a thin wrapper.
HOOKS = (
    ("io", "parse_correspondences", "io"),
    ("io", "parse_reconstruction", "io"),
    ("geometry", "merge_distributed_cameras", "geometry"),
    ("geometry", "DistributedCamera.__init__", "geometry"),
    ("elimination", "build_elimination", "elimination"),
    ("cost", "build_quartic_cost", "cost"),
    ("cost", "QuarticCost.evaluate", "cost"),
    ("cost", "direct_cost", "cost"),
    ("solver", "gdls_solve", "solver"),
    ("solver", "solve_stationary", "solver"),
    ("solver", "recover_candidates", "solver"),
    ("robust", "ransac_gdls", "robust"),
    ("robust", "angular_residuals", "robust"),
    ("pipeline", "hierarchical_merge", "pipeline"),
    ("pipeline", "build_match_graph", "pipeline"),
    ("pipeline", "partition", "pipeline"),
    ("pipeline", "select_base", "pipeline"),
    ("pipeline", "shared_correspondences", "pipeline"),
    ("pipeline", "localize", "pipeline"),
)

# RobustConfig().sample_size: a solve of this many correspondences inside
# ransac_gdls is a minimal hypothesis, any other is the refit.
MINIMAL_SAMPLE = 4


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


# Exact counts taken at the boundary: (args, kwargs, result or None) -> dict.
COUNTERS = {
    "parse_correspondences": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode())},
    "parse_reconstruction": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode())},
    "DistributedCamera.__init__": lambda a, k, r: {"observations": len(_arg(a, k, 3, "observations"))},
    "build_elimination": lambda a, k, r: {"bytes": _array_bytes(r)} if r is not None else {},
    "QuarticCost.evaluate": lambda a, k, r: {"rows": np.asarray(_arg(a, k, 1, "q")).size // 4},
    "gdls_solve": lambda a, k, r: ({"n": len(_arg(a, k, 0, "correspondences"))}
                                   | ({"candidates": len(r.candidates)} if r is not None else {})),
    "ransac_gdls": lambda a, k, r: {"hypotheses": r.iterations_run} if r is not None else {},
    "localize": lambda a, k, r: {"failed": int(r is None or not r.success)},
    "hierarchical_merge": lambda a, k, r: {"levels": len(r.levels)} if r is not None else {},
}

# A span: (name, layer, start_ns, end_ns, parent index or -1, op id, error type, counts)
NAME, LAYER, START, END, PARENT, OP, ERROR, COUNTS = range(8)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, raypose):
        self.rp = raypose
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.op = -1
        self.absent: List[tuple] = []   # (module, name) of hooks with no target
        self._patches = []   # (owner, attribute, original, wrapper)
        self._resolve()

    def _resolve(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "raypose" or name.startswith("raypose."))]
        for module, name, layer in HOOKS:
            owner = getattr(self.rp, module, None)
            cls_name, _, method = name.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                target = None if owner is None else owner.__dict__.get(method)
            else:
                target = getattr(owner, name, None)
            if not callable(target):
                self.absent.append((module, name))
                continue
            wrapper = self._wrap(target, name, layer)
            if cls_name:
                self._patches.append((owner, method, target, wrapper))
                continue
            for m in modules:   # every `from .x import name` holds its own binding
                for attr, value in list(vars(m).items()):
                    if value is target:
                        self._patches.append((m, attr, target, wrapper))

    def _wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, error = None, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:   # recorded on the span, then re-raised
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = counter(args, kwargs, result) if counter else None
                spans[sid] = (name, layer, start, end, parent, self.op, error, counts)
        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as one JSON array per line, preceded by a field header."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["name", "layer", "start_ns", "end_ns", "parent",
                                "op", "error", "counts"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> List[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def op_counts(spans) -> Dict[int, Dict[str, int]]:
    """Exact counts per op id: calls, errors and counters of every hook."""
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        counts = out[s[OP]]
        counts[s[NAME] + ".calls"] += 1
        if s[ERROR]:
            counts[f"{s[NAME]}.{s[ERROR]}"] += 1
        for key, v in (s[COUNTS] or {}).items():
            counts[f"{s[NAME]}.{key}"] += v
    return {op: dict(counts) for op, counts in out.items()}


# name -> (unit, better, hooks it needs)
PER_LAYER = {
    "io.parse_s": ("s", "lower", ("parse_correspondences", "parse_reconstruction")),
    "io.bytes": ("bytes", "lower", ("parse_correspondences", "parse_reconstruction")),
    "geometry.union_ms": ("ms/op", "lower", ("merge_distributed_cameras",)),
    "geometry.union_calls": ("count/op", "lower", ("merge_distributed_cameras",)),
    "geometry.observations_validated": ("count/op", "lower", ("DistributedCamera.__init__",)),
    "geometry.self_ms": ("ms/op", "lower", ()),
    "elimination.ms_per_call": ("ms/call", "lower", ("build_elimination",)),
    "elimination.calls": ("count/op", "lower", ("build_elimination",)),
    "elimination.rank_deficient": ("count/op", "lower", ("build_elimination",)),
    "elimination.bytes_computed": ("bytes/call", "lower", ("build_elimination",)),
    "elimination.self_ms": ("ms/op", "lower", ()),
    "cost.build_ms_per_call": ("ms/call", "lower", ("build_quartic_cost",)),
    "cost.evaluate_calls_per_solve": ("count/solve", "lower", ("QuarticCost.evaluate", "gdls_solve")),
    "cost.points_evaluated_per_solve": ("count/solve", "lower", ("QuarticCost.evaluate", "gdls_solve")),
    "cost.self_ms": ("ms/op", "lower", ()),
    "solver.stationary_ms_per_call": ("ms/call", "lower", ("solve_stationary",)),
    "solver.recovery_ms_per_call": ("ms/call", "lower", ("recover_candidates",)),
    "solver.candidates_per_solve": ("count/solve", "higher", ("gdls_solve",)),
    "solver.empty_solution": ("count/op", "lower", ("gdls_solve",)),
    "solver.self_ms": ("ms/op", "lower", ()),
    "robust.hypotheses_per_call": ("count/call", "lower", ("ransac_gdls",)),
    "robust.minimal_solve_ms": ("ms/call", "lower", ("ransac_gdls", "gdls_solve")),
    "robust.score_ms_per_hypothesis": ("ms/call", "lower", ("angular_residuals",)),
    "robust.refit_ms": ("ms/call", "lower", ("ransac_gdls", "gdls_solve")),
    "robust.degenerate_frac": ("ratio", "lower", ("ransac_gdls", "gdls_solve")),
    "robust.self_ms": ("ms/op", "lower", ()),
    "pipeline.localize_ms": ("ms/op", "lower", ("localize",)),
    "pipeline.localize_calls": ("count/op", "lower", ("localize",)),
    "pipeline.localize_failed": ("count/op", "lower", ("localize",)),
    "pipeline.shared_corr_ms": ("ms/op", "lower", ("shared_correspondences",)),
    "pipeline.graph_partition_ms": ("ms/op", "lower", ("build_match_graph", "partition")),
    "pipeline.levels": ("count/op", "lower", ("hierarchical_merge",)),
    "pipeline.self_ms": ("ms/op", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
}

LAYERS = ("io", "geometry", "elimination", "cost", "solver", "robust", "pipeline")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int, parse_spans, overhead_frac: float, absent) -> Dict[str, float]:
    """Every per-layer metric whose hooks are present.

    ``spans`` are the traced ops' spans, ``parse_spans`` those of one traced
    parse of the workload's documents.
    """
    calls, total_ns, errors, counts = (defaultdict(int) for _ in range(4))
    minimal = {"calls": 0, "ns": 0, "raised": 0}
    refit_ns = 0
    for s in spans:
        name = s[NAME]
        calls[name] += 1
        total_ns[name] += s[END] - s[START]
        if s[ERROR]:
            errors[(name, s[ERROR])] += 1
        for key, v in (s[COUNTS] or {}).items():
            counts[(name, key)] += v
        if name == "gdls_solve" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "ransac_gdls":
            if s[COUNTS]["n"] == MINIMAL_SAMPLE:
                minimal["calls"] += 1
                minimal["ns"] += s[END] - s[START]
                minimal["raised"] += int(s[ERROR] is not None)
            else:
                refit_ns += s[END] - s[START]

    def per_op_ms(*names):
        return sum(total_ns[n] for n in names) / 1e6 / n_ops

    def per_call_ms(name):
        return _ratio(total_ns[name] / 1e6, calls[name])

    parses = [s for s in parse_spans if s[LAYER] == "io"]
    solves = calls["gdls_solve"]
    ok_solves = solves - sum(v for (n, _), v in errors.items() if n == "gdls_solve")
    values = {
        "io.parse_s": sum(s[END] - s[START] for s in parses) / 1e9,
        "io.bytes": sum(s[COUNTS]["bytes"] for s in parses),
        "geometry.union_ms": per_op_ms("merge_distributed_cameras"),
        "geometry.union_calls": calls["merge_distributed_cameras"] / n_ops,
        "geometry.observations_validated": counts[("DistributedCamera.__init__", "observations")] / n_ops,
        "elimination.ms_per_call": per_call_ms("build_elimination"),
        "elimination.calls": calls["build_elimination"] / n_ops,
        "elimination.rank_deficient": errors[("build_elimination", "RankDeficiencyError")] / n_ops,
        "elimination.bytes_computed": _ratio(counts[("build_elimination", "bytes")],
                                             calls["build_elimination"]),
        "cost.build_ms_per_call": per_call_ms("build_quartic_cost"),
        "cost.evaluate_calls_per_solve": _ratio(calls["QuarticCost.evaluate"], solves),
        "cost.points_evaluated_per_solve": _ratio(counts[("QuarticCost.evaluate", "rows")], solves),
        "solver.stationary_ms_per_call": per_call_ms("solve_stationary"),
        "solver.recovery_ms_per_call": per_call_ms("recover_candidates"),
        "solver.candidates_per_solve": _ratio(counts[("gdls_solve", "candidates")], ok_solves),
        "solver.empty_solution": errors[("gdls_solve", "EmptySolutionError")] / n_ops,
        "robust.hypotheses_per_call": _ratio(counts[("ransac_gdls", "hypotheses")], calls["ransac_gdls"]),
        "robust.minimal_solve_ms": _ratio(minimal["ns"] / 1e6, minimal["calls"]),
        "robust.score_ms_per_hypothesis": per_call_ms("angular_residuals"),
        "robust.refit_ms": _ratio(refit_ns / 1e6, calls["ransac_gdls"]),
        "robust.degenerate_frac": _ratio(minimal["raised"], minimal["calls"]),
        "pipeline.localize_ms": per_op_ms("localize"),
        "pipeline.localize_calls": calls["localize"] / n_ops,
        "pipeline.localize_failed": counts[("localize", "failed")] / n_ops,
        "pipeline.shared_corr_ms": per_op_ms("shared_correspondences"),
        "pipeline.graph_partition_ms": per_op_ms("build_match_graph", "partition"),
        "pipeline.levels": counts[("hierarchical_merge", "levels")] / n_ops,
        "trace.overhead_frac": overhead_frac,
    }
    layer_self = self_time_by(spans, LAYER)
    for layer in LAYERS[1:]:
        values[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) / n_ops
    missing = {name for _, name in absent}
    return {name: values[name] for name, (_, _, needs) in PER_LAYER.items()
            if not missing.intersection(needs)}


def self_time_by(spans, key: int) -> Dict[str, float]:
    """Total self time (ms) grouped by span field ``key`` (NAME or LAYER)."""
    out: Dict[str, float] = defaultdict(float)
    for s, ns in zip(spans, self_times(spans)):
        out[s[key]] += ns / 1e6
    return dict(out)

"""Seeded inputs, the timed op and the ground-truth check of each workload.

Inputs follow the scene model of ``raypose.bench`` without calling it, so
that a refactor of the program's generators or of ``DistributedCamera``
cannot silently change a workload:

* ray origins uniform in the cube [-1, 1]^3, local points uniform in
  [-1, 1] x [-1, 1] x [2, 4], directions the exact unit vectors between
  them;
* ground-truth similarities with per-axis rotations up to +/-30 degrees,
  translation distance in [0.5, 10] and scale in [0.1, 10];
* pixel noise as two independent Gaussian offsets of sigma / 800 px in the
  tangent plane of each direction, then renormalized.

Every instance is serialized in the program's documented correspondence or
reconstruction JSON format and reaches the program only through
``raypose.io``.  The ground truth stays in this module.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

FOCAL_PX = 800.0
NOISE_PX = 0.5
# A run is correct when every op's output is well formed and at least this
# share of the attempted units is within the workload's tolerance.  The
# floor only catches a broken program: the share itself is the gated
# metric ``accurate_frac``, and on city_merge the chained merge's drift
# already leaves about a tenth of the subsets beyond tolerance.
ACCURACY_FLOOR = 0.5


@dataclass(frozen=True)
class Instance:
    """One op's input documents plus what the benchmark checks it against."""

    docs: Tuple[str, ...]
    truth: object
    program_seed: int   # seed handed to the program's own sampling


@dataclass(frozen=True)
class Outcome:
    """Result of one op, in units of the workload's failure base."""

    attempted: int
    failed: int
    accurate: int
    well_formed: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int            # distinct instances generated per run
    trace_pool: int      # leading instances replayed by the traced run
    setup_samples: int   # fresh import-and-parse samples behind setup_s
    make: Callable[[np.random.Generator], Tuple[Tuple[str, ...], object]]
    parse: Callable      # (raypose, Instance) -> program objects
    call: Callable       # (raypose, objects, Instance) -> program output
    judge: Callable      # (output, or None when the op raised, Instance) -> Outcome


# ---------------------------------------------------------------- scene model

def _rotation(rng: np.random.Generator) -> np.ndarray:
    ax, ay, az = np.radians(rng.uniform(-30.0, 30.0, 3))
    cx, cy, cz = np.cos([ax, ay, az])
    sx, sy, sz = np.sin([ax, ay, az])
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


def _similarity(rng: np.random.Generator):
    """(R, t, s) drawn from the paper's ranges."""
    R = _rotation(rng)
    d = rng.normal(size=3)
    t = d / np.linalg.norm(d) * rng.uniform(0.5, 10.0)
    return R, t, float(rng.uniform(0.1, 10.0))


def _tangent_noise(rng: np.random.Generator, d: np.ndarray, noise_px: float) -> np.ndarray:
    """Unit directions perturbed by the pixel-noise model, row-wise."""
    if noise_px == 0.0:
        return d
    seed_axis = np.where(np.abs(d[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    u = np.cross(d, seed_axis)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(d, u)
    e = rng.normal(0.0, noise_px / FOCAL_PX, (d.shape[0], 2))
    out = d + e[:, :1] * u + e[:, 1:] * v
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _scene(rng: np.random.Generator, n: int, noise_px: float):
    """Origins, observed directions, world points and the pose (R, t, s).

    The pose satisfies ``s*c_i + alpha_i*d_i = R*X_i + t`` before noise.
    """
    origins = rng.uniform(-1.0, 1.0, (n, 3))
    local = np.column_stack([rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                             rng.uniform(2.0, 4.0, n)])
    d = local - origins
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    R, t, s = _similarity(rng)
    world = (s * local - t) @ R
    return origins, _tangent_noise(rng, d, noise_px), world, (R, t, s)


def _corr_doc(origins, directions, points) -> str:
    rows = [{"origin": o, "direction": d, "point": p}
            for o, d, p in zip(origins.tolist(), directions.tolist(), points.tolist())]
    return json.dumps({"correspondences": rows})


# ------------------------------------------------------------------- checks

def rotation_error_deg(R_est: np.ndarray, R_true: np.ndarray) -> float:
    """Geodesic angle from the chord ||R_est - R_true||_F = 2*sqrt(2)*sin(theta/2).

    Unlike the arccos of a trace or a quaternion dot product, this keeps
    full relative precision for angles far below 1e-6 degrees.
    """
    chord = float(np.linalg.norm(R_est - R_true)) / (2.0 * math.sqrt(2.0))
    return math.degrees(2.0 * math.asin(min(1.0, chord)))


def _transform_ok(T) -> bool:
    """A finite similarity with a proper rotation and positive scale."""
    R = np.asarray(T.rotation_matrix(), dtype=float)
    t = np.asarray(T.translation, dtype=float)
    s = float(T.scale)
    return (R.shape == (3, 3) and t.shape == (3,) and bool(np.all(np.isfinite(R)))
            and bool(np.all(np.isfinite(t))) and math.isfinite(s) and s > 0.0
            and abs(float(np.linalg.det(R)) - 1.0) < 1e-6)


def _pose_errors(T, truth):
    R, t, s = truth
    return (rotation_error_deg(np.asarray(T.rotation_matrix()), R),
            float(np.linalg.norm(np.asarray(T.translation) - t)),
            abs(float(T.scale) - s) / s)


def _judge_pose(T, truth, rot_deg: float, trans: float, rel_scale: float) -> Outcome:
    if T is None:
        return Outcome(1, 1, 0, True)
    if not _transform_ok(T):
        return Outcome(1, 0, 0, False)
    r, tr, sc = _pose_errors(T, truth)
    return Outcome(1, 0, int(r <= rot_deg and tr <= trans and sc <= rel_scale), True)


# ------------------------------------------------------------ solve workloads

def _make_minimal(rng):
    origins, d, world, truth = _scene(rng, 4, 0.0)
    return (_corr_doc(origins, d, world),), truth


def _make_large(rng):
    origins, d, world, truth = _scene(rng, 3000, NOISE_PX)
    return (_corr_doc(origins, d, world),), truth


def _make_outliers(rng):
    n = 300
    origins, d, world, truth = _scene(rng, n, NOISE_PX)
    lo, hi = world.min(axis=0), world.max(axis=0)
    replaced = rng.choice(n, size=n // 2, replace=False)
    world = world.copy()
    world[replaced] = rng.uniform(lo, hi, (replaced.size, 3))
    return (_corr_doc(origins, d, world),), truth


def _parse_corrs(rp, inst):
    return rp.io.parse_correspondences(inst.docs[0])


def _solve(rp, corrs, inst):
    return rp.gdls_solve(corrs)


def _localize(rp, corrs, inst):
    return rp.ransac_gdls(corrs, rp.RobustConfig(), seed=inst.program_seed)


def _judge_minimal(report, inst):
    T = None if report is None else report.best.transform
    return _judge_pose(T, inst.truth, 1e-6, 1e-6, 1e-6)


def _judge_large(report, inst):
    T = None if report is None else report.best.transform
    return _judge_pose(T, inst.truth, 0.1, math.inf, 1e-2)


def _judge_outliers(result, inst):
    T = None if result is None or not result.success else result.transform
    return _judge_pose(T, inst.truth, 0.5, math.inf, 1e-2)


# ------------------------------------------------------------- city workload

CITY_SUBSETS, CITY_CAMERAS, CITY_POINTS, CITY_OVERLAP = 10, 50, 60, 0.3


def _apply(R, t, s, p):
    return s * (p @ R.T) + t


def _make_city(rng):
    """Subsets laid out along x, adjacent ones sharing points, each in a
    private random frame F_k (local -> world)."""
    n_shared = int(round(CITY_OVERLAP * CITY_POINTS))
    next_pid = 0

    def sample(count, x):
        nonlocal next_pid
        p = rng.uniform(-1.0, 1.0, (count, 3))
        p[:, 0] += x
        p[:, 2] += 3.0
        ids = list(range(next_pid, next_pid + count))
        next_pid += count
        return ids, p

    shared = [sample(n_shared, 3.0 * k + 1.5) for k in range(CITY_SUBSETS - 1)]
    docs, frames, centers_world = [], [], []
    for k in range(CITY_SUBSETS):
        blocks = ([shared[k - 1]] if k > 0 else []) + ([shared[k]] if k < CITY_SUBSETS - 1 else [])
        held = sum(len(ids) for ids, _ in blocks)
        blocks.append(sample(CITY_POINTS - held, 3.0 * k))
        pids = [pid for ids, _ in blocks for pid in ids]
        pts_world = np.vstack([p for _, p in blocks])

        R, t, s = _similarity(rng)
        # inverse frame: world -> local is p -> R^T (p - t) / s
        pts_local = ((pts_world - t) @ R) / s
        cw = rng.uniform(-1.0, 1.0, (CITY_CAMERAS, 3))
        cw[:, 0] += 3.0 * k
        c_local = ((cw - t) @ R) / s
        d = (pts_local[None, :, :] - c_local[:, None, :]).reshape(-1, 3)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        d = _tangent_noise(rng, d, NOISE_PX)

        cam_ids = [f"{k}:{j}" for j in range(CITY_CAMERAS)]
        doc = {
            "version": 1,
            "cameras": [{"id": cid, "center": c, "orientation": [1.0, 0.0, 0.0, 0.0]}
                        for cid, c in zip(cam_ids, c_local.tolist())],
            "points": [{"id": pid, "xyz": p} for pid, p in zip(pids, pts_local.tolist())],
            "observations": [{"camera_id": cam_ids[i // len(pids)],
                              "point_id": pids[i % len(pids)], "direction": di}
                             for i, di in enumerate(d.tolist())],
        }
        docs.append(json.dumps(doc))
        frames.append((R, t, s))
        centers_world.append(cw)
    return tuple(docs), (frames, centers_world)


def _parse_city(rp, inst):
    return [rp.io.parse_reconstruction(doc)[0] for doc in inst.docs]


def _merge(rp, cameras, inst):
    return rp.hierarchical_merge(cameras, rp.RobustConfig(), seed=inst.program_seed, threads=1)


def _judge_city(report, inst):
    """A subset is accurate when its cameras' median world-position error,
    read through the merged frame, is at most 1e-2."""
    frames, centers_world = inst.truth
    n = len(frames)
    if report is None:
        return Outcome(n, n, 0, True)
    placed, failed = set(report.transform_log), set(report.failed_members)
    well_formed = (placed | failed == set(range(n)) and not placed & failed
                   and all(_transform_ok(T) for T in report.transform_log.values()))
    roots = [k for k, T in report.transform_log.items()
             if float(T.scale) == 1.0 and not np.any(np.asarray(T.translation))]
    accurate = 0
    if well_formed and roots:
        Rb, tb, sb = frames[roots[0]]
        for k, T in report.transform_log.items():
            R, t, s = frames[k]
            c_local = ((centers_world[k] - t) @ R) / s
            merged = _apply(np.asarray(T.rotation_matrix()), np.asarray(T.translation),
                            float(T.scale), c_local)
            err = np.linalg.norm(_apply(Rb, tb, sb, merged) - centers_world[k], axis=1)
            accurate += int(np.median(err) <= 1e-2)
    return Outcome(n, len(failed), accurate, well_formed)


# ------------------------------------------------------------------ registry

WORKLOADS = {w.name: w for w in (
    Workload("solve_minimal",
             "gdls_solve on noise-free 4-point scenes, the inner call of RANSAC; stationary search ~94% of op time. "
             "A stopping-rule change should move it, O(n) elimination should not",
             pool=2000, trace_pool=60, setup_samples=15,
             make=_make_minimal, parse=_parse_corrs, call=_solve, judge=_judge_minimal),
    Workload("solve_large",
             "gdls_solve at n=3000, 0.5 px noise; elimination and recovery dominate, the dense U sets peak memory. "
             "O(n) elimination should move it, the stationary search should not",
             pool=4, trace_pool=2, setup_samples=9,
             make=_make_large, parse=_parse_corrs, call=_solve, judge=_judge_large),
    Workload("localize_outliers",
             "ransac_gdls on n=300 with 50% outliers; ~72 tiny solves per op reach the stationary search. "
             "Batched hypotheses should move it and leave solve_minimal unchanged",
             pool=40, trace_pool=3, setup_samples=15,
             make=_make_outliers, parse=_parse_corrs, call=_localize, judge=_judge_outliers),
    Workload("city_merge",
             "hierarchical_merge of a 10-subset x 50-camera x 60-point city; unions and re-validation dominate. "
             "An array-backed camera should move it and leave solve_* unchanged",
             pool=12, trace_pool=1, setup_samples=5,
             make=_make_city, parse=_parse_city, call=_merge, judge=_judge_city),
)}


def generate(workload: Workload, seed: int) -> Tuple[List[Instance], str]:
    """The run's instances and a sha256 digest over their documents.

    Instance k draws from its own stream, so pool sizes do not shift the
    inputs of earlier instances.
    """
    digest = hashlib.sha256()
    out = []
    for k in range(workload.pool):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        docs, truth = workload.make(rng)
        program_seed = int(np.random.SeedSequence([seed, k, 1]).generate_state(1)[0])
        for doc in docs:
            digest.update(doc.encode("utf-8"))
        out.append(Instance(docs, truth, program_seed))
    return out, digest.hexdigest()

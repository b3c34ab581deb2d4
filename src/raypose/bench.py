"""Synthetic scene generation and the benchmark protocols.

Scenes put ray origins uniformly in the cube [-1,1]^3 and 3D points
uniformly in [-1,1]x[-1,1]x[2,4]; ray directions are exact unit vectors
from origin to point.  Ground-truth similarities are drawn with per-axis
rotations up to +/-30 degrees, translation distance in [0.5, 10], and
scale in [0.1, 10].  Pixel-sigma noise is mapped to ray space through a
fixed focal length of 800 px (``FOCAL_PX``) as two independent Gaussian
offsets in the tangent plane of each direction.  Only the cube size, the
scale range, the identity pose and the correspondence count vary, through
:class:`SceneConfig`.

Protocols: numerical stability (minimal noise-free trials), a noise sweep
at n = 6 comparing against the closed-form point-alignment baseline, a
scalability sweep over the correspondence count at 0.5 px, and a
multi-subset "city" generator (60 points per subset) for the merge
pipeline.  The three protocols share one trial loop, one independent
random stream per trial.  All outputs are deterministic functions of the
seed; CSV rows carry a runtime column that is always zero so the data
files are byte-reproducible (real timings are returned separately).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .geometry import (Correspondences, DistributedCamera, Quaternion,
                       SimilarityTransform, _hamilton, _integer, _row_products,
                       alignment_from_pose, apply_similarity, invert_similarity, row_norms)
from .robust import umeyama_align
from .solver import gdls_solve

CSV_HEADER = ("experiment,method,n,noise_px,rot_err_deg_mean,"
              "trans_err_mean,scale_err_rel_mean,runtime_s_mean,seed")

FOCAL_PX = 800.0
_POINT_Z = (2.0, 4.0)
_MAX_ANGLE_DEG = 30.0
_TRANSLATION_RANGE = (0.5, 10.0)
_NOISE_SWEEP_N = 6
_SCALABILITY_SIGMA_PX = 0.5
_CITY_POINTS = 60


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of one synthetic trial family."""

    n_correspondences: int = 4
    camera_cube_half_extent: float = 1.0
    scale_range: Tuple[float, float] = (0.1, 10.0)
    identity_transform: bool = False

    def __post_init__(self):
        _integer(self.n_correspondences, "n_correspondences", 4)


@dataclass(frozen=True)
class TrialResult:
    """Error metrics of one estimate against ground truth."""

    rotation_error_deg: float
    translation_error: float
    relative_scale_error: float

    def __post_init__(self):
        for v in (self.rotation_error_deg, self.translation_error, self.relative_scale_error):
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidInputError(f"error metrics must be finite and >= 0, got {v}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream; reordering trials changes nothing."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def random_similarity(rng: np.random.Generator, config: SceneConfig) -> SimilarityTransform:
    """A ground-truth similarity drawn from ``rng``: the rotation Rz Ry Rx
    of three per-axis angles (drawn x, y, z), each composed as its
    half-angle quaternion, then the translation and the scale."""
    half = np.radians(rng.uniform(-_MAX_ANGLE_DEG, _MAX_ANGLE_DEG, 3)) / 2.0
    qx, qy, qz = np.column_stack([np.cos(half), np.diag(np.sin(half))])
    q = Quaternion(*_hamilton(_hamilton(qz, qy), qx))
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    t = d * rng.uniform(*_TRANSLATION_RANGE)
    s = rng.uniform(*config.scale_range)
    return SimilarityTransform(q, t, s)


def generate_scene(config: SceneConfig, rng: np.random.Generator
                   ) -> Tuple[Correspondences, SimilarityTransform]:
    """One synthetic trial drawn from ``rng``: exact correspondences plus
    the ground truth.

    The returned pose ``(R, t, s)`` satisfies ``s*c_i + alpha_i*d_i =
    R*X_i + t`` exactly for every correspondence (before noise).
    """
    n = config.n_correspondences
    h = config.camera_cube_half_extent
    origins = rng.uniform(-h, h, (n, 3))
    # All x, then all y, then all z.
    pts_local = np.column_stack([*rng.uniform(-1.0, 1.0, (2, n)), rng.uniform(*_POINT_Z, n)])
    dirs = pts_local - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    if config.identity_transform:
        truth = SimilarityTransform.identity()
        world = pts_local
    else:
        truth = random_similarity(rng, config)
        R = truth.rotation_matrix()
        world = (truth.scale * pts_local - truth.translation) @ R
    return Correspondences(origins, dirs, world), truth


def _perturb_directions(d: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Unit directions (n, 3) offset by N(0, sigma^2) along two tangent
    directions each; the caller renormalizes.

    Draws one (n, 2) block of normals, the same stream as two draws per
    row in row order.
    """
    # Any fixed vector not parallel to d seeds the tangent basis.
    a = np.where(np.abs(d[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = np.cross(d, a)
    u /= row_norms(u)
    v = np.cross(d, u)
    e = rng.normal(0.0, sigma, (d.shape[0], 2))
    return d + e[:, :1] * u + e[:, 1:] * v


def _noise_level(value, name: str) -> None:
    """Raise unless value is a finite real number >= 0, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value >= 0.0)):
        raise InvalidInputError(f"{name} must be a finite number >= 0, got {value!r}")


def add_noise(correspondences: Correspondences, sigma_px: float,
              rng: np.random.Generator) -> Correspondences:
    """Perturb each direction by N(0, (sigma/FOCAL_PX)^2) offsets along two
    tangent directions drawn from ``rng``, then renormalize.  sigma 0
    returns the input and draws nothing."""
    _noise_level(sigma_px, "sigma_px")
    if sigma_px == 0.0:
        return correspondences
    c = correspondences
    dirs = _perturb_directions(c.directions, sigma_px / FOCAL_PX, rng)
    # The constructor renormalizes the directions.
    return Correspondences(c.origins, dirs, c.points)


def pose_errors(estimate: SimilarityTransform, truth: SimilarityTransform) -> TrialResult:
    """Rotation angle of R_est R_gt^T (degrees), translation distance, and
    relative scale error."""
    return TrialResult(
        estimate.rotation.angle_deg_to(truth.rotation),
        float(np.linalg.norm(estimate.translation - truth.translation)),
        abs(estimate.scale - truth.scale) / truth.scale,
    )


def _errors(estimate: SimilarityTransform, truth: SimilarityTransform) -> np.ndarray:
    """The three errors of :func:`pose_errors` as an array."""
    r = pose_errors(estimate, truth)
    return np.array([r.rotation_error_deg, r.translation_error, r.relative_scale_error])


def _trials(config: SceneConfig, sigma_px: float, seed: int, streams: Iterable[int]
            ) -> Iterator[Tuple[np.random.Generator, Correspondences, SimilarityTransform,
                                Correspondences]]:
    """``(rng, scene, truth, noisy scene)`` of the trial on each stream of
    ``trial_rng(seed, .)``; rng is left where the noise drew last."""
    for stream in streams:
        rng = trial_rng(seed, stream)
        scene, truth = generate_scene(config, rng)
        yield rng, scene, truth, add_noise(scene, sigma_px, rng)


def _gdls_errors(noisy: Correspondences, truth: SimilarityTransform) -> Tuple[np.ndarray, float]:
    """Errors of gdls's best estimate, and its runtime."""
    report = gdls_solve(noisy)
    return _errors(report.best.transform, truth), report.runtime_seconds


@dataclass(frozen=True)
class StabilitySummary:
    """Histogram summary of noise-free minimal-trial errors."""

    trials: int
    fraction_below_1e12: float
    fraction_below_1e9: float
    fraction_below_1e6: float
    log10_histogram: Dict[int, int]
    mean_runtime_seconds: float


def run_stability(trials: int, seed: int = 0) -> StabilitySummary:
    """Noise-free minimal (n=4) identity-pose trials; errors should sit at
    numerical noise.  Reports the fractions below 1e-12/1e-9/1e-6 and a
    log10 histogram of the worst per-trial metric."""
    _integer(trials, "trials", 1)
    _integer(seed, "seed", 0)
    errors = np.empty(trials)
    runtimes = np.empty(trials)
    config = SceneConfig(identity_transform=True)
    for i, (_, _, truth, scene) in enumerate(_trials(config, 0.0, seed, range(trials))):
        e, runtimes[i] = _gdls_errors(scene, truth)
        errors[i] = e.max()
    logs = np.log10(np.maximum(errors, 1e-300))
    bins, counts = np.unique(np.floor(logs).astype(int), return_counts=True)
    return StabilitySummary(
        trials,
        float(np.mean(errors < 1e-12)),
        float(np.mean(errors < 1e-9)),
        float(np.mean(errors < 1e-6)),
        dict(zip(bins.tolist(), counts.tolist())),
        float(runtimes.mean()),
    )


def _triangulate_midpoints(c1: np.ndarray, d1: np.ndarray,
                           c2: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Midpoint of closest approach between ray pairs, row-wise."""
    w0 = c1 - c2
    b = np.sum(d1 * d2, axis=1)
    d = np.sum(d1 * w0, axis=1)
    e = np.sum(d2 * w0, axis=1)
    denom = np.maximum(1.0 - b * b, 1e-12)
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    return 0.5 * (c1 + s[:, None] * d1 + c2 + t[:, None] * d2)


def _umeyama_estimate(rng: np.random.Generator, scene: Correspondences,
                      noisy: Correspondences, truth: SimilarityTransform,
                      sigma_px: float) -> SimilarityTransform:
    """The point-alignment baseline's pose estimate.

    It is only an alignment method, so it is fed a local point cloud
    triangulated from noisy rays: each true local point is seen from its
    own origin and from one more origin in the cube [-1, 1]^3, both rays
    carrying the same pixel noise.
    """
    Rt = truth.rotation_matrix()
    local_true = (_row_products(scene.points, Rt.T) + truth.translation) / truth.scale
    c2 = rng.uniform(-1.0, 1.0, (len(scene), 3))
    d2 = local_true - c2
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    extra = add_noise(Correspondences(c2, d2, scene.points), sigma_px, rng)
    local = _triangulate_midpoints(scene.origins, noisy.directions, c2, extra.directions)
    # The local->world alignment as pose fields: the map is its own inverse.
    return alignment_from_pose(umeyama_align(local, scene.points))


def run_noise_sweep(levels: Sequence[float] = tuple(range(11)),
                    trials_per_level: int = 1000,
                    seed: int = 0) -> Tuple[List[dict], Dict[str, float]]:
    """Mean errors of gdls and the point-alignment baseline per noise
    level, at n = 6 on shared scenes.

    Returns CSV-ready row dicts plus mean runtimes keyed by method (kept
    out of the rows so the data files stay byte-reproducible; the
    baseline's is not timed and reads 0).
    """
    _integer(trials_per_level, "trials_per_level", 1)
    _integer(seed, "seed", 0)
    if not levels:
        raise InvalidInputError("levels must hold at least one noise level")
    for level in levels:
        _noise_level(level, "noise level")
    rows = []
    runtimes = []
    config = SceneConfig(n_correspondences=_NOISE_SWEEP_N)
    for level in levels:
        sums = np.zeros((2, 3))
        streams = (1000 * i + int(round(10 * level)) for i in range(trials_per_level))
        for rng, scene, truth, noisy in _trials(config, level, seed, streams):
            e, runtime = _gdls_errors(noisy, truth)
            sums[0] += e
            runtimes.append(runtime)
            sums[1] += _errors(_umeyama_estimate(rng, scene, noisy, truth, level), truth)
        for method, mean in zip(("gdls", "umeyama"), sums / trials_per_level):
            rows.append(_row("noise", method, _NOISE_SWEEP_N, float(level), *mean, seed))
    return rows, {"gdls": float(np.mean(runtimes)), "umeyama": 0.0}


def run_scalability(n_values: Sequence[int] = (4, 10, 50, 100, 500, 1000),
                    trials: int = 1000,
                    seed: int = 0) -> Tuple[List[dict], Dict[int, float]]:
    """Mean errors and runtimes at 0.5 px as the correspondence count grows."""
    _integer(trials, "trials", 1)
    _integer(seed, "seed", 0)
    rows = []
    runtimes: Dict[int, float] = {}
    for n in n_values:
        sums, total = np.zeros(3), 0.0
        streams = (n * 100000 + i for i in range(trials))
        for _, _, truth, noisy in _trials(SceneConfig(n_correspondences=n),
                                          _SCALABILITY_SIGMA_PX, seed, streams):
            e, runtime = _gdls_errors(noisy, truth)
            sums += e
            total += runtime
        runtimes[n] = total / trials
        rows.append(_row("scalability", "gdls", n, _SCALABILITY_SIGMA_PX, *(sums / trials), seed))
    return rows, runtimes


def generate_city(n_subsets: int, cameras_per_subset: int,
                  overlap_fraction: float, noise_px: float, seed: int
                  ) -> Tuple[List[DistributedCamera], List[SimilarityTransform]]:
    """Synthetic multi-subset reconstruction with known subset frames.

    One global scene is laid out along the x axis; each subset holds 60
    points, and adjacent subsets share ``round(overlap_fraction * 60)`` of
    them.  Each subset is expressed in a private random similarity frame
    F_k (the returned truth transform maps subset-local coordinates to
    world).  Every camera observes every point of its subset; direction
    noise follows the pixel model at ``FOCAL_PX``.
    """
    _integer(n_subsets, "n_subsets", 1)
    _integer(cameras_per_subset, "cameras_per_subset", 1)
    _integer(seed, "seed", 0)
    _noise_level(noise_px, "noise_px")
    if not (0.0 < overlap_fraction < 1.0):
        raise InvalidInputError("overlap_fraction must be in (0, 1)")
    n_shared = int(round(overlap_fraction * _CITY_POINTS))
    if n_shared < 4:
        raise InvalidInputError(
            f"overlap_fraction {overlap_fraction} with {_CITY_POINTS} points "
            f"yields {n_shared} shared points (< 4)")
    if n_subsets > 1 and n_shared * (2 if n_subsets > 2 else 1) > _CITY_POINTS:
        raise InvalidInputError(f"overlap_fraction too large for {_CITY_POINTS} points")
    rng = trial_rng(seed, 0)
    cfg = SceneConfig()   # reuse the scale range for the subset frames

    # Global points along the x axis, n_shared of each subset's points
    # shared with each neighbouring subset.  A block of points is (ids, xyz).
    def sample_points(count, x_offset):
        nonlocal next_pid
        next_pid += count
        return (np.arange(next_pid - count, next_pid),
                rng.uniform(-1.0, 1.0, (count, 3)) + [x_offset, 0.0, 3.0])

    next_pid = 0
    shared = [sample_points(n_shared, 3.0 * k + 1.5) for k in range(n_subsets - 1)]
    blocks = []
    for k in range(n_subsets):
        held = shared[max(k - 1, 0):k + 1]
        own = sample_points(_CITY_POINTS - n_shared * len(held), 3.0 * k)
        blocks.append([np.concatenate(b) for b in zip(*held, own)])

    cameras: List[DistributedCamera] = []
    truths: List[SimilarityTransform] = []
    sigma = noise_px / FOCAL_PX
    for k, (pids, world) in enumerate(blocks):
        frame = random_similarity(rng, cfg)        # subset-local -> world
        inv = invert_similarity(frame)
        xyz = apply_similarity(inv, world)
        centers = apply_similarity(
            inv, rng.uniform(-1.0, 1.0, (cameras_per_subset, 3)) + [3.0 * k, 0.0, 0.0])
        # Every (camera, point) ray, camera-major; a point at a camera
        # center is not seen.
        d = (xyz - centers[:, None]).reshape(-1, 3)
        nrm = row_norms(d)
        seen = np.flatnonzero(nrm[:, 0] >= 1e-9)
        d = d[seen] / nrm[seen]
        if sigma > 0.0:
            d = _perturb_directions(d, sigma, rng)
            d /= row_norms(d)
        cameras.append(DistributedCamera(
            *np.divmod(seen, len(xyz)), d, [f"{k}:{j}" for j in range(cameras_per_subset)],
            centers, np.tile(Quaternion.identity().array, (cameras_per_subset, 1)), pids, xyz))
        truths.append(frame)
    return cameras, truths


def _row(experiment: str, method: str, n: int, noise_px: float,
         rot: float, trans: float, scale: float, seed: int) -> dict:
    return {"experiment": experiment, "method": method, "n": n,
            "noise_px": noise_px, "rot_err_deg_mean": rot,
            "trans_err_mean": trans, "scale_err_rel_mean": scale,
            "runtime_s_mean": 0.0, "seed": seed}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render rows under the fixed header with 17-significant-digit floats."""
    lines = [CSV_HEADER]
    keys = CSV_HEADER.split(",")
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def stability_rows(summary: StabilitySummary, seed: int) -> List[dict]:
    """CSV rows for a stability run: one row per reporting threshold.

    The threshold exponent is carried in the noise_px column (0 noise is
    implied by the protocol) and the fraction below it in the rotation
    column, keeping the fixed header."""
    out = []
    for exp, frac in ((-12, summary.fraction_below_1e12),
                      (-9, summary.fraction_below_1e9),
                      (-6, summary.fraction_below_1e6)):
        out.append(_row("stability", "gdls", 4, float(exp), frac, 0.0, 0.0, seed))
    return out

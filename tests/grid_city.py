"""A gx x gy grid city: subsets on a lattice, for merge tests and probes.

``generate_city`` lays its subsets along a line, so each member shares
points with at most two others.  Here subset (i, j) holds the points
within 2 units of its cell centre (3 i, 3 j) in x and y, so a member
shares a band of about 15 points with each of its four lattice
neighbours and a corner of about 4 with each diagonal one.  The points
are drawn once for the whole city, at 60 per 16 square units, with z in
[2, 4]; each subset has its cameras within 1 unit of (3 i, 3 j, 0), every
camera sees every point of its subset, and direction noise follows the
pixel model of ``raypose.bench``.  Each subset lives in a private random
similarity frame.

Run as a script to time a merge of a grid with one and with two threads:

    PYTHONPATH=src:tests python3 tests/grid_city.py 16 10

It prints placed members, the wall time of each merge and the minimal
samples solved at level 0.
"""

from __future__ import annotations

import sys
import time
from typing import List, Tuple

import numpy as np

from raypose import (DistributedCamera, Quaternion, RobustConfig, SceneConfig,
                     SimilarityTransform, apply_similarity, hierarchical_merge,
                     invert_similarity)
from raypose.bench import FOCAL_PX, _perturb_directions, random_similarity

CELL = 3.0          # lattice spacing
REACH = 2.0         # half-width of a subset's square of points
DENSITY = 60 / 16   # points per square unit


def generate_grid_city(gx: int, gy: int, cameras_per_subset: int = 20, noise_px: float = 0.5,
                       seed: int = 0) -> Tuple[List[DistributedCamera], List[SimilarityTransform]]:
    """Subset cameras in row-major lattice order, and the similarity taking
    each subset's local frame to the world, as ``generate_city`` returns."""
    rng = np.random.default_rng(seed)
    lo, hi = -REACH, CELL * np.array([gx - 1, gy - 1]) + REACH
    count = int(round(DENSITY * np.prod(hi - lo)))
    world = np.column_stack([rng.uniform(lo, hi[0], count), rng.uniform(lo, hi[1], count),
                             rng.uniform(2.0, 4.0, count)])
    sigma = noise_px / FOCAL_PX
    cameras, truths = [], []
    for k, (i, j) in enumerate((i, j) for i in range(gx) for j in range(gy)):
        centre = CELL * np.array([i, j])
        pids = np.flatnonzero(np.all(np.abs(world[:, :2] - centre) <= REACH, axis=1))
        frame = random_similarity(rng, SceneConfig())       # subset-local -> world
        inv = invert_similarity(frame)
        xyz = apply_similarity(inv, world[pids])
        centers = apply_similarity(inv, rng.uniform(-1.0, 1.0, (cameras_per_subset, 3))
                                   + [*centre, 0.0])
        d = (xyz - centers[:, None]).reshape(-1, 3)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        if sigma > 0.0:
            d = _perturb_directions(d, sigma, rng)
            d /= np.linalg.norm(d, axis=1, keepdims=True)
        obs = np.arange(len(d))
        cameras.append(DistributedCamera(
            obs // len(pids), obs % len(pids), d,
            [f"{k}:{c}" for c in range(cameras_per_subset)], centers,
            np.tile(Quaternion.identity().array, (cameras_per_subset, 1)), pids, xyz))
        truths.append(frame)
    return cameras, truths


def _main(gx: int, gy: int) -> None:
    cameras, _ = generate_grid_city(gx, gy)
    for threads in (1, 2):
        start = time.perf_counter()
        report = hierarchical_merge(cameras, RobustConfig(), seed=0, threads=threads)
        seconds = time.perf_counter() - start
        samples = sum(r.samples_solved for r in report.levels[0].results.values())
        print(f"{gx}x{gy} threads={threads}: placed {len(report.transform_log)}/{len(cameras)}, "
              f"{seconds:.2f} s, {samples} samples at level 0")


if __name__ == "__main__":
    _main(int(sys.argv[1]), int(sys.argv[2]))

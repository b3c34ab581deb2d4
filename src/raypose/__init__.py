"""Pose-and-scale estimation for distributed cameras.

A distributed camera bundles observed rays from many physical cameras
into one generalized camera.  This package provides the exact geometric
types, a least-squares pose-and-scale solver over ray-point
correspondences, robust (RANSAC) wrappers, a hierarchical
reconstruction-merging pipeline, a synthetic benchmark harness, and JSON
serialization with a CLI front end.
"""

from .errors import (EmptySolutionError, IntegrityError, InvalidInputError,
                     ParseError, RankDeficiencyError, RayposeError)
from .geometry import (Correspondences, DistributedCamera, Quaternion,
                       SimilarityTransform, alignment_from_pose,
                       apply_similarity, compose_similarity,
                       invert_similarity, merge_distributed_cameras)
from .elimination import EliminationMatrices, build_elimination
from .cost import QuarticCost, build_quartic_cost, direct_cost
from .solver import (SolveReport, SolverCandidate, gdls_solve, recover_candidates, refine,
                     solve_batch, solve_stationary)
from .robust import RobustConfig, RobustResult, ransac_gdls, umeyama_align
from .pipeline import (MergeReport, build_match_graph, hierarchical_merge,
                       localize, partition, select_base)
from .io import (load_correspondences, load_reconstruction,
                 parse_correspondences, parse_reconstruction,
                 save_correspondences, save_reconstruction)

__version__ = "0.1.0"

# The synthetic benchmark harness loads on first use: estimation and
# merging never need it, and it is a fifth of the package's import time.
_BENCH_NAMES = frozenset((
    "SceneConfig", "StabilitySummary", "TrialResult", "add_noise", "generate_city",
    "generate_scene", "pose_errors", "rows_to_csv", "run_noise_sweep",
    "run_scalability", "run_stability"))


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

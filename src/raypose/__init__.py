"""Pose-and-scale estimation for distributed cameras.

A distributed camera bundles observed rays from many physical cameras
into one generalized camera.  This package provides the exact geometric
types, a least-squares pose-and-scale solver over ray-point
correspondences, robust (RANSAC/PROSAC) wrappers, a hierarchical
reconstruction-merging pipeline, a synthetic benchmark harness, and JSON
serialization with a CLI front end.
"""

from .errors import (EmptySolutionError, IntegrityError, InvalidInputError,
                     ParseError, RankDeficiencyError, RayposeError)
from .geometry import (Correspondences, DistributedCamera, Quaternion,
                       SimilarityTransform, alignment_from_pose,
                       apply_similarity, compose_similarity,
                       invert_similarity, merge_distributed_cameras,
                       pose_from_alignment, quat_to_rotation)
from .elimination import EliminationMatrices, build_elimination
from .cost import QuarticCost, build_quartic_cost, direct_cost
from .solver import (SolveReport, SolverCandidate, gdls_solve,
                     recover_candidates, solve_stationary, super_fibonacci)
from .robust import (RobustConfig, RobustResult, prosac_order, ransac_gdls,
                     umeyama_align)
from .pipeline import (MatchGraph, MergeReport, build_match_graph,
                       hierarchical_merge, localize, partition,
                       refine_similarities, select_base)
from .bench import (SceneConfig, StabilitySummary, TrialResult, add_noise,
                    generate_city, generate_scene, pose_errors, rows_to_csv,
                    run_noise_sweep, run_scalability, run_stability)
from .io import (load_correspondences, load_reconstruction,
                 parse_correspondences, parse_reconstruction,
                 save_correspondences, save_reconstruction)

__version__ = "0.1.0"

"""Sparse stationary distributions, Laplacian pseudo-inverses, and
random-walk metrics for strongly connected digraphs."""

from .errors import (DpinvError, GmresNonConvergenceError, GmresStagnationError,
                     InputError, MissingColumnsError, NumericalError)
from .graphgen import GenConfig, preferential_attachment_digraph, random_graph
from .krylov import GmresConfig, SolveReport, gmres_block
from .laplacian import (EulerianSystem, GeneralLaplacian, build_laplacian,
                        check_eulerian, check_properties,
                        eulerian_system, general_laplacian, general_pinv,
                        pinv_apply, pinv_columns, pinv_rank1_general)
from .metrics import (PinvBlock, augment_evaporating, commute_time,
                      hitting_time, influence_scores, kemeny_constant,
                      pass_probability, trust_score, visits, visits_matrix)
from .sparse import (Digraph, MvCounter, SparseMatrix, build_transition,
                     is_strongly_connected, matvec, matvec_transpose,
                     strong_connectivity_certificate)
from .stationary import (StationaryResult, SubspaceConfig,
                         stationary_distribution, stationary_residual)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the sparse product implementation (always scipy.sparse)."""
    return "scipy"


__all__ = [
    "DpinvError", "InputError", "NumericalError", "GmresNonConvergenceError",
    "GmresStagnationError", "MissingColumnsError",
    "SparseMatrix", "Digraph", "MvCounter", "matvec", "matvec_transpose",
    "build_transition", "is_strongly_connected",
    "strong_connectivity_certificate",
    "GenConfig", "preferential_attachment_digraph", "random_graph",
    "GmresConfig", "SolveReport", "gmres_block",
    "SubspaceConfig", "StationaryResult", "stationary_distribution",
    "stationary_residual",
    "build_laplacian", "check_eulerian", "EulerianSystem", "eulerian_system",
    "pinv_apply", "pinv_columns",
    "pinv_rank1_general",
    "GeneralLaplacian", "general_laplacian", "general_pinv",
    "check_properties",
    "PinvBlock", "hitting_time", "commute_time", "visits", "visits_matrix",
    "pass_probability", "kemeny_constant", "augment_evaporating",
    "influence_scores", "trust_score",
    "active_backend",
]

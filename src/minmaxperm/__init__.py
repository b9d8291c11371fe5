"""Reconstruction of permutations from min/max betweenness profiles."""

from .errors import (
    BadEndpoints,
    COutOfRange,
    CyclicGraph,
    InternalInconsistency,
    KMismatch,
    MinMaxError,
    MismatchedN,
    NotBijection,
    NotDirected,
    NotLinear,
    PreconditionViolation,
    ProfileSyntaxError,
    ProfileValidationError,
    TooLarge,
)
from .formats import emit_permutation, emit_profile, parse_permutation, parse_profile
from .graph import (
    ArcKind,
    BArcPair,
    EasyArcsResult,
    b_arc_pairs,
    build_easy_arcs,
    endpoint_arcs,
    to_dot,
)
from .profiles import (
    Direction,
    KConstraint,
    NBRecord,
    Permutation,
    Profile,
    ProfileViolation,
    compute_profile,
    compute_set_profile,
    is_linear,
    nb_records,
    nb_set,
    validate_permutation,
    validate_profile,
)
from .reconstruction import (
    MinKResult,
    UniquenessReport,
    collision_pair,
    fixed_positions_check,
    is_unique,
    min_unique_k,
)
from .solvers import (
    SolveOutcome,
    brute_force_solutions,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    verify,
)

__version__ = "0.1.0"

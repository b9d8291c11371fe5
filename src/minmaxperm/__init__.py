"""Reconstruction of permutations from min/max betweenness profiles.

The exhaustive uniqueness analysis (`reconstruction`) is the one module
that runs on numpy, so it and the four names below load on first use:
importing the package, the solvers, the brute-force oracle and
`is_unique` load no numpy.
"""

import importlib

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
from .graph import BArcPair, RootClosure, root_closure, to_dot
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
    nb_masks,
    nb_set,
    validate_permutation,
    validate_profile,
)
from .solvers import (
    SolveOutcome,
    UniquenessReport,
    brute_force_solutions,
    is_unique,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    verify,
)

__version__ = "0.1.0"

_RECONSTRUCTION = (
    "MinKResult",
    "collision_pair",
    "fixed_positions_check",
    "min_unique_k",
)


def __getattr__(name: str):
    """Import `reconstruction` or one of its names on first use, and keep
    it as a module global so later lookups skip this."""
    if name in ("_kernels", "reconstruction"):
        # `_kernels` names `reconstruction` too: `run_header` in
        # perfbench/run.py reads `minmaxperm._kernels` and then numpy from
        # sys.modules in every benchmark run
        value = importlib.import_module(f"{__name__}.reconstruction")
    elif name in _RECONSTRUCTION:
        value = getattr(importlib.import_module(f"{__name__}.reconstruction"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

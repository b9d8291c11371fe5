"""Uniqueness analysis of k-profiles.

How much of a permutation does its k-profile pin down?  These operations
answer that exhaustively at small n: per-profile uniqueness, the minimum k
at which every profile class over all n! permutations is a singleton, the
explicit two-permutation collisions built from a shared prefix, and the
fixed-positions consistency check (all members of a profile class place 1
and n identically and split the remaining elements into the same three
blocks).

The two exhaustive checks share one grouping: profile codes of every
permutation, computed one enumeration block at a time, are grouped by
their bytes with `np.unique`, and each row is compared with its class
leader, the first row in lexicographic order with the same code.  A
collision is the first row whose leader lies before it; a fixed-positions
failure is a row whose position features differ from its leader's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import batch_profile_codes, iter_perm_arrays, value_positions
from .errors import (
    InternalInconsistency,
    PreconditionViolation,
    TooLarge,
)
from .profiles import Permutation, Profile, compute_profile, pair_count
from .solvers import DEFAULT_BRUTE_CAP, brute_force_solutions

DEFAULT_GROUPING_CAP = 8
# collision_pair re-checks its pair through two full profiles, so its time
# and memory grow with pair_count(n, k): 2-4 s and about 125 MB at this cap
# on a 2-core machine, depending on k.
COLLISION_PAIR_CAP = 120_000


@dataclass(frozen=True)
class UniquenessReport:
    """Uniqueness of one profile: unique witness, a collision pair, or empty."""

    n: int
    k: int
    directed: bool
    verdict: str  # "unique" | "collision" | "empty"
    witnesses: tuple[Permutation, ...]


@dataclass(frozen=True)
class MinKResult:
    """Least k making every k-profile class over all n! permutations a
    singleton, with a witness collision from k-1 when k > 1."""

    n: int
    directed: bool
    min_k: int
    collision: tuple[Permutation, Permutation] | None


def is_unique(F: Profile, cap_n: int = DEFAULT_BRUTE_CAP) -> UniquenessReport:
    """Classify F by the cardinality of its exhaustive solution set."""
    sols = brute_force_solutions(F, cap_n)
    if not sols:
        verdict, witnesses = "empty", ()
    elif len(sols) == 1:
        verdict, witnesses = "unique", (sols[0],)
    else:
        verdict, witnesses = "collision", (sols[0], sols[1])
    return UniquenessReport(n=F.n, k=F.k, directed=F.directed,
                            verdict=verdict, witnesses=witnesses)


def _profile_classes(n: int, k: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """All permutation rows in lexicographic order, and for each row the
    index of the first row sharing its k-profile (its class leader).

    Codes are computed one enumeration block at a time, which bounds the
    kernel's range tables by the block size, then grouped by their bytes."""
    blocks = list(iter_perm_arrays(n))
    codes = np.concatenate([batch_profile_codes(rows, k, directed) for rows in blocks])
    keys = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.concatenate(blocks), first[inverse.ravel()]


def _first_collision(n: int, k: int, directed: bool) -> tuple[Permutation, Permutation] | None:
    """First pair of distinct permutations (lexicographic enumeration)
    sharing a k-profile, or None when every class is a singleton.

    The pair is the first row whose class leader lies before it, together
    with that leader."""
    rows, leader = _profile_classes(n, k, directed)
    later = np.flatnonzero(leader != np.arange(len(rows)))
    if later.size == 0:
        return None
    j = later[0]
    P, Q = (Permutation(n=n, elems=tuple(int(v) for v in rows[i])) for i in (leader[j], j))
    # grouped by code bytes; re-check entry-wise through the scalar path
    # before reporting
    if compute_profile(P, k, directed) != compute_profile(Q, k, directed):
        raise InternalInconsistency(
            f"code grouping disagrees with recomputed profiles at n={n}, k={k}")
    return P, Q


def _require_n(n: int, cap_n: int) -> None:
    if n < 1:
        raise PreconditionViolation(f"n must be at least 1, got n={n}")
    if n > cap_n:
        raise TooLarge(f"n={n} exceeds the grouping cap {cap_n}")


def min_unique_k(n: int, directed: bool, cap_n: int = DEFAULT_GROUPING_CAP) -> MinKResult:
    """Exhaustive minimum k such that no two permutations share a k-profile."""
    _require_n(n, cap_n)
    previous = None
    for k in range(1, n + 2):
        coll = _first_collision(n, k, directed)
        if coll is None:
            return MinKResult(n=n, directed=directed, min_k=k, collision=previous)
        previous = coll
    raise InternalInconsistency(f"no k up to n+1 separates all permutations of n={n}")


def collision_pair(n: int, k: int, directed: bool) -> tuple[Permutation, Permutation]:
    """Two distinct permutations with equal k-profiles, built explicitly.

    The first four values are k+2, p2, 1, n (p2 = k+3 undirected, 2k+3
    directed) and the rest ascend; swapping the first two values leaves the
    k-profile unchanged because every pair constraint reaching past 1 and n
    is saturated and the swapped values sit more than k apart from anything
    that could separate them.  The profile equality is re-checked before
    returning; that check is why n, k with more than COLLISION_PAIR_CAP
    profile pairs raise TooLarge.
    """
    if directed:
        bound = -(-(n - 3) // 2)  # ceil((n-3)/2)
        if not 1 <= k < bound:
            raise PreconditionViolation(
                f"directed collision needs 1 <= k < ceil((n-3)/2) = {bound}, got k={k}")
        p2 = 2 * k + 3
    else:
        if not 1 <= k < n - 3:
            raise PreconditionViolation(
                f"undirected collision needs 1 <= k < n-3 = {n - 3}, got k={k}")
        p2 = k + 3
    if pair_count(n, k) > COLLISION_PAIR_CAP:
        raise TooLarge(f"n={n}, k={k} has {pair_count(n, k)} profile pairs, "
                       f"above the cap {COLLISION_PAIR_CAP}")
    head = [k + 2, p2, 1, n]
    tail = sorted(set(range(1, n + 1)) - set(head))
    P = Permutation(n=n, elems=(0, *head, *tail, n + 1))
    swapped = [p2, k + 2] + head[2:]
    Q = Permutation(n=n, elems=(0, *swapped, *tail, n + 1))
    if compute_profile(P, k, directed) != compute_profile(Q, k, directed):
        raise InternalInconsistency(
            f"constructed pair for n={n}, k={k} has differing profiles")
    return P, Q


def fixed_positions_check(n: int, k: int, directed: bool,
                          cap_n: int = DEFAULT_GROUPING_CAP) -> bool:
    """Whether every k-profile class over all n! permutations agrees on the
    positions of 1 and n and on the three element blocks they delimit."""
    _require_n(n, cap_n)
    if not 1 <= k <= n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
    rows, leader = _profile_classes(n, k, directed)
    # per row: position of 1, position of n, then the block (0 before both,
    # 1 between, 2 after) of every value
    pos = value_positions(rows).T
    lo = np.minimum(pos[:, 1], pos[:, n])[:, None]
    hi = np.maximum(pos[:, 1], pos[:, n])[:, None]
    feats = np.concatenate([pos[:, [1, n]], (pos > lo).astype(np.int8) + (pos > hi)], axis=1)
    return bool((feats == feats[leader]).all())

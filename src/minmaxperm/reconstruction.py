"""Uniqueness analysis of k-profiles.

How much of a permutation does its k-profile pin down?  These operations
answer that exhaustively at small n: per-profile uniqueness, the minimum k
at which every profile class over all n! permutations is a singleton, the
explicit two-permutation collisions built from a shared prefix, and the
fixed-positions consistency check (all members of a profile class place 1
and n identically and split the remaining elements into the same three
blocks).

The two exhaustive checks share one grouping: profile codes of a set of
permutation rows, computed at most one enumeration block at a time, are
grouped by their bytes with `np.unique`, and each row is compared with its
class leader, the first row in lexicographic order with the same code.  A
fixed-positions failure is a row whose position features differ from its
leader's, over one grouping of all n! rows.  The minimum k refines instead
of regrouping: equal k-profiles have equal (k-1)-profiles, so a row alone
in its class stays alone as k grows.  All rows are grouped at k = 1, and
each later k groups only the rows whose class at k - 1 had another member,
still in lexicographic order.  A collision is the first row whose leader
lies before it.
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
from .profiles import Permutation, Profile, compute_profile, segment
from .solvers import DEFAULT_BRUTE_CAP, DEFAULT_GROUPING_CAP, brute_force_solutions

# No cap_n lets a grouping pass this n: at n = 10, fixed_positions_check
# at k = 2 peaks above 1 GB of resident memory (docs/min_k.md).
GROUPING_LIMIT = 9
# collision_pair refuses a larger n before it builds anything: the pair and
# its text take about 145 bytes per value (`counterexample N 1` peaks at
# 42 MB resident at N = 10^5, 172 MB at 10^6 and 318 MB at 2 * 10^6).
COLLISION_LIMIT = 10**6


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


def _all_rows(n: int) -> tuple[np.ndarray, int]:
    """All permutation rows in lexicographic order, and the size of one
    enumeration block."""
    blocks = list(iter_perm_arrays(n))
    return np.concatenate(blocks), len(blocks[0])


def _leaders(rows: np.ndarray, k: int, directed: bool, step: int) -> np.ndarray:
    """For each of the rows, the index of the first row sharing its
    k-profile (its class leader).

    Codes are computed at most `step` rows at a time, which bounds the
    kernel's range tables, then grouped by their bytes; `np.unique` sorts
    stably, so a leader is the first of its class in the order given."""
    codes = None
    for at in range(0, len(rows), step):
        block = batch_profile_codes(rows[at:at + step], k, directed)
        if codes is None:
            codes = np.empty((len(rows), block.shape[1]), np.int8)
        codes[at:at + len(block)] = block
    del block  # so that the last block is not held through the sort
    keys = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def _require_n(n: int, cap_n: int) -> None:
    if n < 1:
        raise PreconditionViolation(f"n must be at least 1, got n={n}")
    if n > cap_n:
        raise TooLarge(f"n={n} exceeds the grouping cap {cap_n}")
    if n > GROUPING_LIMIT:
        raise TooLarge(f"n={n} exceeds the grouping limit {GROUPING_LIMIT}")


def min_unique_k(n: int, directed: bool, cap_n: int = DEFAULT_GROUPING_CAP) -> MinKResult:
    """Exhaustive minimum k such that no two permutations share a k-profile,
    with the first colliding pair (lexicographic enumeration) at k - 1.

    A k-profile refines the (k-1)-profile, so a row alone in its class
    stays alone at every larger k.  The rows are grouped at k = 1, and at
    each later k only the live rows, those whose class at k - 1 had
    another member, are grouped again.  The live rows keep their
    lexicographic order, so each leader and the first row whose leader
    lies before it are those of a grouping of all rows."""
    _require_n(n, cap_n)
    live, step = _all_rows(n)
    previous = None
    for k in range(1, n + 2):
        leader = _leaders(live, k, directed, step)
        later = np.flatnonzero(leader != np.arange(len(live)))
        if later.size == 0:
            return MinKResult(n=n, directed=directed, min_k=k, collision=previous)
        j = later[0]
        P, Q = (Permutation(n=n, elems=tuple(int(v) for v in live[i])) for i in (leader[j], j))
        # grouped by code bytes; re-check entry-wise through the scalar path
        # before reporting
        if compute_profile(P, k, directed) != compute_profile(Q, k, directed):
            raise InternalInconsistency(
                f"code grouping disagrees with recomputed profiles at n={n}, k={k}")
        previous = P, Q
        live = live[np.bincount(leader, minlength=len(live))[leader] > 1]
    raise InternalInconsistency(f"no k up to n+1 separates all permutations of n={n}")


def collision_pair(n: int, k: int, directed: bool) -> tuple[Permutation, Permutation]:
    """Two distinct permutations with equal k-profiles, built explicitly.

    The first four values are k+2, p2, 1, n (p2 = k+3 undirected, 2k+3
    directed) and the rest ascend; swapping the first two values leaves the
    k-profile unchanged because every pair constraint reaching past 1 and n
    is saturated and the swapped values sit more than k apart from anything
    that could separate them.  The profile equality is re-checked, on the
    only entries that the swap can change, before returning.  Past the k
    range, an n above COLLISION_LIMIT raises TooLarge.
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
    if n > COLLISION_LIMIT:
        raise TooLarge(f"n={n} exceeds the collision-pair limit {COLLISION_LIMIT}")
    head = [k + 2, p2, 1, n]
    tail = sorted(set(range(1, n + 1)) - set(head))
    P = Permutation(n=n, elems=(0, *head, *tail, n + 1))
    swapped = [p2, k + 2] + head[2:]
    Q = Permutation(n=n, elems=(0, *swapped, *tail, n + 1))
    if not _swap_keeps_profile(P, Q, k, directed):
        raise InternalInconsistency(
            f"constructed pair for n={n}, k={k} has differing profiles")
    return P, Q


def _swap_keeps_profile(P: Permutation, Q: Permutation, k: int, directed: bool) -> bool:
    """Whether P and Q, equal but for a swap of positions 1 and 2, have equal
    k-profiles (m, M and, directed, the direction).  Only the at most 4k
    entries with a swapped value as an end can differ, so only they are read."""
    pos_p, pos_q = P.positions(), Q.positions()
    return all(segment(P, pos_p, t, i)[:2 + directed] == segment(Q, pos_q, t, i)[:2 + directed]
               for v in P.elems[1:3] for i in range(1, k + 1) for t in (v - i, v)
               if 0 <= t and t + i <= P.n + 1)


def fixed_positions_check(n: int, k: int, directed: bool,
                          cap_n: int = DEFAULT_GROUPING_CAP) -> bool:
    """Whether every k-profile class over all n! permutations agrees on the
    positions of 1 and n and on the three element blocks they delimit."""
    _require_n(n, cap_n)
    if not 1 <= k <= n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
    rows, step = _all_rows(n)
    leader = _leaders(rows, k, directed, step)
    # per row: position of 1, position of n, then the block (0 before both,
    # 1 between, 2 after) of every value
    pos = value_positions(rows).T
    lo = np.minimum(pos[:, 1], pos[:, n])[:, None]
    hi = np.maximum(pos[:, 1], pos[:, n])[:, None]
    feats = np.concatenate([pos[:, [1, n]], (pos > lo).astype(np.int8) + (pos > hi)], axis=1)
    return bool((feats == feats[leader]).all())

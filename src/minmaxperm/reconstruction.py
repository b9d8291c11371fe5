"""Uniqueness analysis of k-profiles.

How much of a permutation does its k-profile pin down?  These operations
answer that exhaustively at small n: the minimum k at which every profile
class over all n! permutations is a singleton, the explicit
two-permutation collisions built from a shared prefix, and the
fixed-positions consistency check (all members of a profile class place 1
and n identically and split the remaining elements into the same three
blocks).  Per-profile uniqueness, `is_unique`, is the oracle's, in
`solvers`.

The two exhaustive checks share one grouping of a set of permutation rows
by their k-profiles.  The kernel computes the profile codes _ROW_BLOCK
rows at a time.  Each slot's (m, M, dir) becomes one mixed-radix digit,
and the rows are grouped exactly, in passes: each pass packs the current
class id and as many digits as fit below 2**63 into one int64 key, sorts
the keys with `np.argsort` and numbers the classes densely again, until
every class is a singleton or the digits run out.  Each row is compared
with its class leader, the first row in lexicographic order with the same
code.  A fixed-positions failure is a row whose position features differ
from its leader's, over one grouping of all n! rows; the features are
built only for the rows that are not their own leader, and for their
leaders.  The minimum k refines instead of regrouping: equal k-profiles
have equal (k-1)-profiles, so a row alone in its class stays alone as k
grows.  All rows are grouped at k = 1, and each later k groups only the
rows whose class at k - 1 had another member, still in lexicographic
order.  A collision is the first row whose leader lies before it.
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
from . import solvers
from .profiles import Permutation, compute_profile, segment
from .solvers import DEFAULT_GROUPING_CAP

# Per-profile uniqueness is the oracle's and lives in `solvers`, which
# loads no numpy; the two names stay here, the same objects, for callers
# that import them from this module.
UniquenessReport, is_unique = solvers.UniquenessReport, solvers.is_unique

# No cap_n lets a grouping pass this n: at n = 10, fixed_positions_check
# at k = 2 takes over 4 s and peaks above 360 MB resident (docs/min_k.md).
GROUPING_LIMIT = 9
# collision_pair refuses a larger n before it builds anything: the pair and
# its text take about 145 bytes per value (`counterexample N 1` peaks at
# 42 MB resident at N = 10^5, 172 MB at 10^6 and 318 MB at 2 * 10^6).
COLLISION_LIMIT = 10**6
# Rows per kernel call: the fastest of 1,024 to 40,320 at n = 8, and at
# V <= 11 it keeps each (V, V, b) range table under 1 MB.
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class MinKResult:
    """Least k making every k-profile class over all n! permutations a
    singleton, with a witness collision from k-1 when k > 1."""

    n: int
    directed: bool
    min_k: int
    collision: tuple[Permutation, Permutation] | None


def _all_rows(n: int) -> np.ndarray:
    """All permutation rows in lexicographic order."""
    return np.concatenate(list(iter_perm_arrays(n)))


def _slot_digits(rows: np.ndarray, k: int, directed: bool) -> tuple[np.ndarray, list[int]]:
    """The k-profile codes of the rows as one mixed-radix digit per slot:
    an (L, B) slot-major array of digits, and the L bases.

    Slot (t, t+i) has m in 0..t and M in t+i..V-1, so its digit
    m*(V-t-i) + M-t-i lies in 0..(t+1)(V-t-i)-1; a directed slot doubles
    it and adds 1 when t lies left of t+i.  Equal codes give equal digits
    and, within those ranges, equal digits give equal codes, so a code
    outside them raises InternalInconsistency.  The kernel runs on at most
    _ROW_BLOCK rows at a time, and its codes are copied slot-major into
    one (3L, B) array, from which the digits come in whole-array steps."""
    B, V = rows.shape
    gaps = range(1, min(k, V - 1) + 1)
    t = np.concatenate([np.arange(V - i, dtype=np.uint8) for i in gaps])[:, None]
    end = np.concatenate([np.arange(i, V, dtype=np.uint8) for i in gaps])[:, None]
    width = V - end
    base = ((t + 1) * width.astype(np.intp) * (1 + directed)).ravel().tolist()
    L = len(base)
    codes = np.empty((3 * L, B), np.int8)
    for at in range(0, B, _ROW_BLOCK):
        block = batch_profile_codes(rows[at:at + _ROW_BLOCK], k, directed)
        codes[:, at:at + len(block)] = block.T
    # unsigned, so that a negative m or a wrapped M - t - i is out of range
    # too; dir + 1 is 0 or 2 directed and 1 undirected
    m, low, dirs = np.split(codes.view(np.uint8), 3)
    low -= end
    dirs += 1
    if (m > t).any() or (low >= width).any() or (dirs & 0xFD if directed else dirs != 1).any():
        raise InternalInconsistency(f"profile code out of range at n={V - 2}, k={k}")
    digits = np.multiply(m, width, dtype=np.min_scalar_type(max(base) - 1))
    digits += low
    if directed:
        digits <<= 1
        dirs >>= 1
        digits += dirs
    return digits, base


def _leaders(rows: np.ndarray, k: int, directed: bool) -> np.ndarray:
    """For each of the rows, the index of the first row sharing its
    k-profile (its class leader).

    Rows are grouped by their slot digits in passes.  Each pass appends to
    the dense class id of every row as many digits as keep the key below
    2**63, sorts the int64 keys and numbers the distinct ones densely
    again; the passes stop once every class is a singleton or the digits
    run out.  The leader of a class is its least row index, so the first
    of its class in the order given."""
    digits, base = _slot_digits(rows, k, directed)
    B = len(rows)
    if B < 2:
        return np.arange(B)
    ids = np.zeros(B, np.int64)
    classes, s = 1, 0
    while classes < B and s < len(base):
        radix = 1
        key = ids
        while s < len(base) and classes * radix * base[s] <= 2**63:
            key = key * base[s]
            key += digits[s]
            radix *= base[s]
            s += 1
        order = np.argsort(key)
        key = key[order]
        new = np.empty(B, bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        ids[order] = np.cumsum(new) - 1
        classes = int(np.count_nonzero(new))
    return np.minimum.reduceat(order, np.flatnonzero(new))[ids]


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
    live = _all_rows(n)
    previous = None
    for k in range(1, n + 2):
        leader = _leaders(live, k, directed)
        later = np.flatnonzero(leader != np.arange(len(live)))
        if later.size == 0:
            return MinKResult(n=n, directed=directed, min_k=k, collision=previous)
        j = later[0]
        P, Q = (Permutation(n=n, elems=tuple(int(v) for v in live[i])) for i in (leader[j], j))
        # grouped by slot digits; re-check entry-wise through the scalar path
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
    rows = _all_rows(n)
    leader = _leaders(rows, k, directed)
    # only a row that is not its own leader can differ from its leader
    later = np.flatnonzero(leader != np.arange(len(rows)))
    for at in range(0, len(later), _ROW_BLOCK):
        j = later[at:at + _ROW_BLOCK]
        if not np.array_equal(_position_features(rows[j], n), _position_features(rows[leader[j]], n)):
            return False
    return True


def _position_features(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row: the position of 1, the position of n, then the block of
    every value (0 before both, 1 between, 2 after)."""
    pos = value_positions(rows).T
    lo = np.minimum(pos[:, 1], pos[:, n])[:, None]
    hi = np.maximum(pos[:, 1], pos[:, n])[:, None]
    return np.concatenate([pos[:, [1, n]], (pos > lo).astype(np.int8) + (pos > hi)], axis=1)

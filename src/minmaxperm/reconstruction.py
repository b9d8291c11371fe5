"""Uniqueness analysis of k-profiles.

How much of a permutation does its k-profile pin down?  These operations
answer that exhaustively at small n: the minimum k at which every profile
class over all n! permutations is a singleton, the explicit
two-permutation collisions built from a shared prefix, and the
fixed-positions consistency check (all members of a profile class place 1
and n identically and split the remaining elements into the same three
blocks).  Per-profile uniqueness, `is_unique`, is the oracle's, in
`solvers`.

This is the one module that uses numpy, and no module the package or the
CLI loads at start-up imports it: the exhaustive questions load it when
first called.

The two exhaustive checks share one grouping of a set of permutation rows
by their k-profiles.  A profile of span k over {0..n+1} has one slot per
(gap i, start t) pair, i = 1..k and t = 0..n+1-i, ordered by (i, t), and
each slot's (m, M, dir) is one mixed-radix digit.  The digits are computed
value-major, _ROW_BLOCK rows at a time, from one bitmask per value and
row, of the values at or left of it: the XOR of the masks of a slot's two
ends determines the slot's values and direction, and a table indexed by
slot and XOR holds each digit.  The rows are grouped exactly, in passes:
each pass packs the current class id and as many digits as fit below
2**63 into one int64 key, sorts the keys with `np.argsort` and numbers the
classes densely again, until every class is a singleton or the digits run
out.  Each row is compared with its class leader, the first row in
lexicographic order with the same digits.  A fixed-positions failure is a
row whose masks of 1 and n differ from its leader's, over one grouping of
all n! rows; the masks are built only for the rows that are not their own
leader, and for their leaders.  The minimum k refines instead
of regrouping: equal k-profiles have equal (k-1)-profiles, so a row alone
in its class stays alone as k grows.  All rows are grouped at k = 1, and
each later k groups only the rows whose class at k - 1 had another
member, still in lexicographic order.  A collision is the first row whose
leader lies before it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistency,
    PreconditionViolation,
    TooLarge,
)
from . import solvers
from .profiles import Permutation, compute_profile, segment

# Per-profile uniqueness is the oracle's and lives in `solvers`, which
# loads no numpy; the two names stay here, the same objects, for callers
# that import them from this module.
UniquenessReport, is_unique = solvers.UniquenessReport, solvers.is_unique

# The groupings refuse a larger n before building any row: at n = 10,
# fixed_positions_check at k = 2 takes over a second and peaks above 300 MB.
GROUPING_LIMIT = 9
# collision_pair refuses a larger n before it builds anything: the pair and
# its text take about 145 bytes per value (`counterexample N 1` peaks at
# 42 MB resident at N = 10^5, 172 MB at 10^6 and 318 MB at 2 * 10^6).
COLLISION_LIMIT = 10**6
# Rows per block of the digit kernel: the fastest of 1,024 to 40,320 at
# n = 8, and at V <= 11 it keeps each of its (V, b) scratch arrays under
# 1 MB.
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class MinKResult:
    """Least k making every k-profile class over all n! permutations a
    singleton, with a witness collision from k-1 when k > 1."""

    n: int
    directed: bool
    min_k: int
    collision: tuple[Permutation, Permutation] | None


@functools.lru_cache(maxsize=None)
def _all_rows(n: int) -> np.ndarray:
    """All n! permutations of {0..n+1} with pinned endpoints, in
    lexicographic order, as an (n!, n+2) int8 array, built once per n and
    read-only.

    The rows over the values 1..size are those over 1..size-1 with each
    first value v prepended in turn and the entries >= v shifted up by
    one; the shift keeps each block's order, so the whole stays
    lexicographic.  Each step writes its rows, ends included, in place."""
    rows = np.array([[0, 1]], np.int8)
    for size in range(1, n + 1):
        inner, count = rows[:, 1:-1], len(rows)
        rows = np.empty((size * count, size + 2), np.int8)
        rows[:, 0] = 0
        rows[:, -1] = size + 1
        for v in range(1, size + 1):
            block = rows[(v - 1) * count:v * count]
            block[:, 1] = v
            np.add(inner, inner >= v, out=block[:, 2:-1])
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=None)
def _digit_table(V: int, k: int, directed: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The digit of every slot of span k over range(V) for every segment
    mask, as a read-only (L, 2**V) array, and the L slot bases.

    Entry [s, mask] of slot s = (t, t+i) is m*(V-t-i) + M-t-i, m and M
    being the lowest and highest bits of mask | 1<<t | 1<<(t+i); directed,
    it is doubled, plus bit t+i of the mask.  The mask of a slot is
    upto[t] ^ upto[t+i] (see _slot_digits): it holds the values after t up
    to t+i when t lies left of t+i, and those after t+i up to t otherwise,
    so its bit t+i is set exactly when t lies left.  m lies in 0..t and M in
    t+i..V-1, so a digit lies below its base (t+1)(V-t-i), doubled when
    directed; equal (m, M, dir) give equal digits and equal digits equal
    (m, M, dir)."""
    gaps = range(1, k + 1)
    t = np.concatenate([np.arange(V - i) for i in gaps])[:, None]
    end = np.concatenate([np.arange(i, V) for i in gaps])[:, None]
    masks = np.arange(1 << V)
    seg = masks | 1 << t | 1 << end
    M = np.frexp(seg)[1] - 1
    m = np.frexp(seg & -seg)[1] - 1
    digit = m * (V - end) + M - end
    base = ((t + 1) * (V - end)).ravel() << directed
    if directed:
        digit = digit << 1 | masks >> end & 1
    table = digit.astype(np.min_scalar_type(base.max() - 1))
    table.setflags(write=False)
    return table, tuple(base.tolist())


def _slot_digits(rows: np.ndarray, k: int, directed: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The k-profile of each of the (B, V) int8 permutation rows as one
    mixed-radix digit per slot: an (L, B) slot-major array whose column b
    holds the digits of row b, and the L bases (see _digit_table).

    The rows go through in blocks of at most _ROW_BLOCK, value-major, as
    uint16 bitmasks, so V may not pass 16: upto[v, b] has bit u set when
    value u lies at or left of value v in row b.  A block's masks take one
    OR-scan over its positions and one scatter to the values at them.  The digits of each
    gap's slots then take one XOR of the masks of their two ends and one
    gather from _digit_table.  The masks and their scratch arrays are
    allocated once per call, span rows wide; a shorter last block fills
    and reads only its first columns."""
    B, V = rows.shape
    k = min(k, V - 1)
    table, base = _digit_table(V, k, directed)
    L = len(base)
    # slot s reads the row of the flat table at s << V
    offset = (np.arange(L) << V)[:, None]
    span = min(B, _ROW_BLOCK)
    upto = np.empty((V, span), np.uint16)
    flat = upto.reshape(-1)
    bits = np.empty((V, span), np.uint16)
    cells = np.empty((V, span), np.intp)
    index = np.arange(span)
    digits = np.empty((L, B), table.dtype)
    for at in range(0, B, _ROW_BLOCK):
        block = rows[at:at + _ROW_BLOCK].T.view(np.uint8)
        b = block.shape[1]
        bit = np.left_shift(np.uint16(1), block, out=bits[:, :b])
        # then bit[p] holds the values at positions 0..p
        for p in range(1, V):
            np.bitwise_or(bit[p - 1], bit[p], out=bit[p])
        # through the full-width buffer: on a short last block,
        # upto[:, :b] flattens to a copy
        cell = np.multiply(block, span, out=cells[:, :b], dtype=np.intp)
        cell += index[:b]
        flat[cell] = bit
        mask = upto[:, :b]
        s = 0
        for i in range(1, k + 1):
            width = V - i
            # the gather index, in the scatter's cells
            at_table = np.bitwise_xor(mask[:width], mask[i:], out=cells[:width, :b], dtype=np.intp)
            at_table += offset[s:s + width]
            np.take(table, at_table, out=digits[s:s + width, at:at + b])
            s += width
    return digits, base


def _leaders(rows: np.ndarray, k: int, directed: bool) -> np.ndarray:
    """For each of the rows, the index of the first row sharing its
    k-profile (its class leader).

    Rows are grouped by their slot digits in passes.  Each pass appends to
    the dense class id of every row as many digits as keep the key below
    2**63, sorts the int64 keys and numbers the distinct ones densely
    again; the passes stop once every class is a singleton or the digits
    run out.  The leader of a class is its least row index, so the first
    of its class in the order given.  A digit at or above its base would
    spill into the next slot of a key, so it raises InternalInconsistency."""
    digits, base = _slot_digits(rows, k, directed)
    if (digits.max(axis=1, initial=0) >= base).any():
        raise InternalInconsistency(f"slot digit out of range at n={rows.shape[1] - 2}, k={k}")
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


def _require_int(value: int, name: str) -> int:
    """value as a plain int, as `operator.index` reads it (a float such as
    5.0 is refused, so that no cache is keyed by it)."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionViolation(f"{name} must be an integer, got {name}={value!r}") from None


def _require_n(n: int) -> int:
    n = _require_int(n, "n")
    if n < 1:
        raise PreconditionViolation(f"n must be at least 1, got n={n}")
    if n > GROUPING_LIMIT:
        raise TooLarge(f"n={n} exceeds the grouping limit {GROUPING_LIMIT}")
    return n


def min_unique_k(n: int, directed: bool) -> MinKResult:
    """Exhaustive minimum k such that no two permutations share a k-profile,
    with the first colliding pair (lexicographic enumeration) at k - 1.

    A k-profile refines the (k-1)-profile, so a row alone in its class
    stays alone at every larger k.  The rows are grouped at k = 1, and at
    each later k only the live rows, those whose class at k - 1 had
    another member, are grouped again.  The live rows keep their
    lexicographic order, so each leader and the first row whose leader
    lies before it are those of a grouping of all rows."""
    n = _require_n(n)
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
    n, k = _require_int(n, "n"), _require_int(k, "k")
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


def fixed_positions_check(n: int, k: int, directed: bool) -> bool:
    """Whether every k-profile class over all n! permutations agrees on the
    positions of 1 and n and on the three element blocks they delimit."""
    n = _require_n(n)
    k = _require_int(k, "k")
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
    """Per row, the uint16 masks of the values at or left of 1 and of n:
    they fix the positions of 1 and n and the block of every other value
    (before both, between or after), and are fixed by them."""
    upto = np.bitwise_or.accumulate(np.left_shift(np.uint16(1), rows.view(np.uint8)), axis=1)
    return np.stack([upto[rows == 1], upto[rows == n]], axis=1)

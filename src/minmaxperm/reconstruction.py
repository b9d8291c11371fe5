"""Uniqueness analysis of k-profiles.

How much of a permutation does its k-profile pin down?  These operations
answer that exhaustively at small n, over all n! permutations: the minimum
k at which every profile class is a singleton, and the fixed-positions
consistency check (all members of a profile class place 1 and n
identically and split the remaining elements into the same three blocks).
Per-profile uniqueness, `is_unique`, is the oracle's, in `solvers`, and
the explicit two-permutation collisions, `collision_pair`, are built in
`profiles`; neither needs an array.

This is the one module that uses numpy, and no module the package or the
CLI loads at start-up imports it: `min_unique_k` and
`fixed_positions_check` load it when first called.

The two exhaustive checks share one grouping of a set of permutations by
their k-profiles.  The n! permutations are held value-major, in
lexicographic order, as one uint16 bitmask per value and permutation, of
the values at or left of it (_all_masks, built once per n).  A profile of
span k over {0..n+1} has one slot per (gap i, start t) pair, i = 1..k and
t = 0..n+1-i, ordered by (i, t), and each slot's (m, M, dir) is one
mixed-radix digit: the XOR of the masks of a slot's two ends determines
the slot's values and direction, and a table indexed by slot and XOR
holds each digit.  The digits are computed _ROW_BLOCK permutations at a
time.  The permutations are grouped exactly, in passes: each pass packs
the current class id and as many digits as fit below 2**63 into one int64
key, sorts the keys with `np.argsort` and numbers the classes densely
again, until every class is a singleton or the digits run out.  Only the
first pass keys every permutation; each later pass keys only those whose
class still has another member.  Each permutation is compared with its
class leader, the first in lexicographic order with the same digits.  A
fixed-positions failure is a permutation whose masks of 1 and n differ
from its leader's, over one grouping of all n!.  The minimum k refines
instead of regrouping: equal k-profiles have equal (k-1)-profiles, so a
permutation alone in its class stays alone as k grows.  All permutations
are grouped at k = 1, and each later k groups only the mask columns whose
class at k - 1 had another member, still in lexicographic order.  A
collision is the first permutation whose leader lies before it, read back
from its masks: value v lies at position popcount(mask of v) - 1.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import InternalInconsistency, PreconditionViolation, TooLarge
from . import solvers
from .profiles import Permutation, compute_profile, require_bool, require_int

# Per-profile uniqueness is the oracle's and lives in `solvers`, which
# loads no numpy; the two names stay here, the same objects, for callers
# that import them from this module.
UniquenessReport, is_unique = solvers.UniquenessReport, solvers.is_unique

# The groupings refuse a larger n before building any mask: at n = 10,
# fixed_positions_check at k = 2 takes over a second and peaks above 300 MB.
GROUPING_LIMIT = 9
# Permutations (mask columns) per block of the digit kernel: the fastest
# of 1,024 to 40,320 at n = 8, and at V <= 11 it keeps each of its (V, b)
# scratch arrays under 1 MB.
_ROW_BLOCK = 8192


class MinKResult(NamedTuple):
    """Least k making every k-profile class over all n! permutations a
    singleton, with a witness collision from k-1 when k > 1."""

    n: int
    directed: bool
    min_k: int
    collision: tuple[Permutation, Permutation] | None


@functools.lru_cache(maxsize=None)
def _all_masks(n: int) -> np.ndarray:
    """All n! permutations of {0..n+1} with pinned endpoints, in
    lexicographic order, value-major: a (n+2, n!) uint16 array whose entry
    [v, r] has bit u set when value u lies at or left of value v in
    permutation r; built once per n and read-only.

    The rows over the values 1..size are those over 1..size-1 with each
    first value v prepended in turn and the entries >= v shifted up by
    one; the shift keeps each block's order, so the whole stays
    lexicographic.  On the masks, the shift inserts a zero bit at v, and
    the prepended v sets bit v in the mask of every value but 0."""
    upto = np.array([[1], [3]], np.uint16)
    for size in range(1, n + 1):
        inner, count = upto[1:], upto.shape[1]
        upto = np.empty((size + 2, size * count), np.uint16)
        upto[0] = 1
        for v in range(1, size + 1):
            block = upto[:, (v - 1) * count:v * count]
            low = inner & (1 << v) - 1
            shifted = (inner ^ low) << 1 | low | 1 << v
            block[1:v] = shifted[:v - 1]
            block[v] = 1 | 1 << v
            block[v + 1:] = shifted[v - 1:]
    upto.setflags(write=False)
    return upto


def _permutation(column: np.ndarray) -> Permutation:
    """The permutation of one column of _all_masks: value v lies at
    position popcount(upto[v]) - 1."""
    elems = [0] * len(column)
    for v, mask in enumerate(column.tolist()):
        elems[mask.bit_count() - 1] = v
    return Permutation(n=len(column) - 2, elems=tuple(elems))


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


def _slot_digits(upto: np.ndarray, k: int, directed: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The k-profile of each of the B permutations whose (V, B) uint16
    value masks are upto (see _all_masks) as one mixed-radix digit per
    slot: an (L, B) slot-major array whose column b holds the digits of
    permutation b, and the L bases (see _digit_table).  The masks hold at
    most 16 values, so V may not pass 16.

    The masks go through in blocks of at most _ROW_BLOCK columns: the
    digits of each gap's slots take one XOR of the masks of their two ends,
    in uint16, and one gather from _digit_table.  The XOR and the gather
    index are allocated once per call, span columns wide; a shorter last
    block fills and reads only their first columns."""
    V, B = upto.shape
    k = min(k, V - 1)
    table, base = _digit_table(V, k, directed)
    L = len(base)
    # slot s reads the row of the flat table at s << V
    offset = (np.arange(L) << V)[:, None]
    span = min(B, _ROW_BLOCK)
    segments = np.empty((V - 1, span), np.uint16)
    cells = np.empty((V - 1, span), np.intp)
    digits = np.empty((L, B), table.dtype)
    for at in range(0, B, _ROW_BLOCK):
        mask = upto[:, at:at + _ROW_BLOCK]
        b = mask.shape[1]
        s = 0
        for i in range(1, k + 1):
            width = V - i
            segment_masks = np.bitwise_xor(mask[:width], mask[i:], out=segments[:width, :b])
            at_table = np.add(segment_masks, offset[s:s + width], out=cells[:width, :b])
            np.take(table, at_table, out=digits[s:s + width, at:at + b])
            s += width
    return digits, base


def _leaders(upto: np.ndarray, k: int, directed: bool) -> np.ndarray:
    """For each permutation of the (V, B) value masks upto, the index of
    the first sharing its k-profile (its class leader).

    The permutations are grouped by their slot digits in passes.  Each
    pass appends to the dense class id of every permutation as many digits
    as keep the key below 2**63, sorts the int64 keys and numbers the
    distinct ones densely again.  The first pass keys all permutations;
    each later one only those whose class still has another member, as a
    permutation alone in its class stays alone.  The passes stop once
    every class is a singleton or the digits run out.  The leader of a
    class is its least index, so the first of its class in the order
    given.  A digit at or above its base would spill into the next slot
    of a key, so it raises InternalInconsistency."""
    digits, base = _slot_digits(upto, k, directed)
    if (digits.max(axis=1, initial=0) >= base).any():
        raise InternalInconsistency(f"slot digit out of range at n={upto.shape[0] - 2}, k={k}")
    B = upto.shape[1]
    if B < 2:
        return np.arange(B)
    # after the first pass, the permutations that still share a class,
    # grouped by class, and their dense class ids
    live, ids = None, np.zeros(B, np.int64)
    classes, s = 1, 0
    while True:
        radix = 1
        key = ids
        while s < len(base) and classes * radix * base[s] <= 2**63:
            key *= base[s]
            key += digits[s] if live is None else digits[s, live]
            radix *= base[s]
            s += 1
        order = np.argsort(key)
        key = key[order]
        live = order if live is None else live[order]
        new = np.empty(len(key), bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        # a permutation shares its class when the key before or after it
        # is equal
        shared = ~new
        shared[:-1] |= ~new[1:]
        live, new = live[shared], new[shared]
        classes = int(np.count_nonzero(new))
        ids = np.cumsum(new) - 1
        if classes == 0 or s == len(base):
            break
    leader = np.arange(B)
    if classes:
        leader[live] = np.minimum.reduceat(live, np.flatnonzero(new))[ids]
    return leader


def _require_n(n: int) -> int:
    n = require_int(n, "n")
    if n < 1:
        raise PreconditionViolation(f"n must be at least 1, got n={n}")
    if n > GROUPING_LIMIT:
        raise TooLarge(f"n={n} exceeds the grouping limit {GROUPING_LIMIT}")
    return n


def min_unique_k(n: int, directed: bool) -> MinKResult:
    """Exhaustive minimum k such that no two permutations share a k-profile,
    with the first colliding pair (lexicographic enumeration) at k - 1.

    A k-profile refines the (k-1)-profile, so a permutation alone in its
    class stays alone at every larger k.  All n! are grouped at k = 1, and
    at each later k only the live ones, those whose class at k - 1 had
    another member, are grouped again.  The live mask columns keep their
    lexicographic order, so each leader and the first permutation whose
    leader lies before it are those of a grouping of all n!."""
    n, directed = _require_n(n), require_bool(directed)
    live = _all_masks(n)
    previous = None
    for k in range(1, n + 2):
        leader = _leaders(live, k, directed)
        later = np.flatnonzero(leader != np.arange(len(leader)))
        if later.size == 0:
            return MinKResult(n=n, directed=directed, min_k=k, collision=previous)
        j = later[0]
        P, Q = (_permutation(live[:, i]) for i in (leader[j], j))
        # grouped by slot digits; re-check entry-wise through the scalar path
        # before reporting
        if compute_profile(P, k, directed) != compute_profile(Q, k, directed):
            raise InternalInconsistency(
                f"code grouping disagrees with recomputed profiles at n={n}, k={k}")
        previous = P, Q
        live = live[:, np.bincount(leader, minlength=len(leader))[leader] > 1]
    raise InternalInconsistency(f"no k up to n+1 separates all permutations of n={n}")


def fixed_positions_check(n: int, k: int, directed: bool) -> bool:
    """Whether every k-profile class over all n! permutations agrees on the
    positions of 1 and n and on the three element blocks they delimit."""
    n, k, directed = _require_n(n), require_int(k, "k"), require_bool(directed)
    if not 1 <= k <= n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
    upto = _all_masks(n)
    leader = _leaders(upto, k, directed)
    # the masks of 1 and n fix the positions of 1 and n and the block of
    # every other value (before both, between or after), and are fixed by
    # them
    ends = upto[[1, n]]
    return np.array_equal(ends[:, leader], ends)

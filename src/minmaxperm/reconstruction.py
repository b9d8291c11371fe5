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

Both exhaustive checks read one refinement of the n! permutations by
their profiles, gap by gap.  The permutations are held value-major, in
lexicographic order, as one uint16 bitmask per value and permutation, of
the values at or left of it (_all_masks, built once per n).  A profile
over {0..n+1} has one slot per (gap i, start t) pair, t = 0..n+1-i, and
each slot's (m, M, dir) is one mixed-radix digit: the XOR of the masks of
a slot's two ends determines the slot's values and direction, and a table
per gap, indexed by start and XOR, holds each digit.  The k-profile is the
slots of gaps 1 to k, so the classes after gap k refine those after gap
k - 1, and a permutation alone in its class stays alone.  The refinement
carries the live permutations, the indices of those still sharing a
class, grouped by class, from one gap to the next.  Each gap computes its
digits for the live permutations only, _ROW_BLOCK at a time, packs each
one's class id and the digits into int64 keys, sorts the keys with
`np.argsort`, keeps only the permutations whose key another one shares
and numbers their classes densely again.  The leader of a class is its
least index.  The minimum k is the first gap after which no class is
shared, and the collision at k - 1 is the first permutation after gap
k - 1 whose leader lies before it, read back from its masks: value v lies
at position popcount(mask of v) - 1.  A fixed-positions failure is a
permutation, live after gap k, whose masks of 1 and n differ from its
leader's.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InternalInconsistency, PreconditionViolation, TooLarge
from . import solvers
from .profiles import Permutation, compute_profile, require_bool, require_int

# Per-profile uniqueness is the oracle's and lives in `solvers`, which
# loads no numpy; the two names stay here, the same objects, for callers
# that import them from this module.
UniquenessReport, is_unique = solvers.UniquenessReport, solvers.is_unique

# The groupings refuse a larger n before building any mask: at n = 10,
# min_unique_k and fixed_positions_check at k = 2 take 0.6 to 1.2 s and
# peak at 265 to 284 MB resident, 87 MB of it the masks, which stay cached.
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
def _digit_table(V: int, i: int, directed: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The digit of every slot of gap i over range(V) for every segment
    mask, as a read-only (V-i, 2**V) array, and the V-i slot bases.

    Entry [t, mask] of slot (t, t+i) is m*(V-t-i) + M-t-i, m and M being
    the lowest and highest bits of mask | 1<<t | 1<<(t+i); directed, it is
    doubled, plus bit t+i of the mask.  The mask of a slot is
    upto[t] ^ upto[t+i] (see _slot_digits): it holds the values after t up
    to t+i when t lies left of t+i, and those after t+i up to t otherwise,
    so its bit t+i is set exactly when t lies left.  m lies in 0..t and M in
    t+i..V-1, so a digit lies below its base (t+1)(V-t-i), doubled when
    directed; equal (m, M, dir) give equal digits and equal digits equal
    (m, M, dir)."""
    t = np.arange(V - i)[:, None]
    end = t + i
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


def _slot_digits(upto: np.ndarray, live: np.ndarray, i: int,
                 directed: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The slots of gap i of the permutations live, indices into the
    columns of the (V, B) uint16 value masks upto (see _all_masks), as one
    mixed-radix digit per slot: a (V-i, len(live)) slot-major array whose
    column b holds the digits of permutation live[b], and the V-i bases
    (see _digit_table).  The masks hold at most 16 values, so V may not
    pass 16.

    The permutations go through in blocks of at most _ROW_BLOCK: a block's
    mask columns are gathered, the masks of each slot's two ends are XORed,
    in uint16, and each slot's digits are gathered from its row of
    _digit_table.  The gathered masks and the XOR are allocated once per
    call, span columns wide; a shorter last block fills and reads only
    their first columns."""
    V = upto.shape[0]
    table, base = _digit_table(V, i, directed)
    span = min(len(live), _ROW_BLOCK)
    masks = np.empty((V, span), np.uint16)
    segments = np.empty((V - i, span), np.uint16)
    digits = np.empty((V - i, len(live)), table.dtype)
    # every index lies in range by construction: mode="clip" spares the
    # bounds check, for which np.take would first copy its output
    for at in range(0, len(live), _ROW_BLOCK):
        block = live[at:at + _ROW_BLOCK]
        b = len(block)
        mask = np.take(upto, block, axis=1, out=masks[:, :b], mode="clip")
        np.bitwise_xor(mask[:V - i], mask[i:], out=segments[:, :b])
        for t, row in enumerate(table):
            np.take(row, segments[t, :b], out=digits[t, at:at + b], mode="clip")
    return digits, base


def _regroup(upto: np.ndarray, live: np.ndarray, new: np.ndarray, i: int,
             s: int, directed: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """One key pass over the permutations live, indices into the columns
    of the value masks upto, grouped by class, new flagging the first of
    each class.  The key of each is its dense class id with as many digits
    of gap i appended, from slot s on, as keep it below 2**63.  Returns the
    permutations whose key another one shares, grouped by key, the flags of
    the first of each group, and the next slot.  A digit at or above its
    base would spill into the next slot of a key, so it raises
    InternalInconsistency."""
    digits, base = _slot_digits(upto, live, i, directed)
    if (digits.max(axis=1, initial=0) >= base).any():
        raise InternalInconsistency(f"slot digit out of range at n={upto.shape[0] - 2}, gap {i}")
    key = np.cumsum(new) - 1
    radix = int(key[-1]) + 1
    while s < len(base) and radix * base[s] <= 2**63:
        key *= base[s]
        key += digits[s]
        radix *= base[s]
        s += 1
    order = np.argsort(key)
    key = key[order]
    new = np.empty(len(key), bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    # a permutation shares its class when the key before or after it is
    # equal
    shared = ~new
    shared[:-1] |= ~new[1:]
    return live[order[shared]], new[shared], s


def _refine(upto: np.ndarray, directed: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The classes of the permutations of the (V, B) value masks upto after
    each gap i = 1, 2, ..., V-1, as (live, leader): the indices of the
    permutations that still share a class, grouped by class, and the
    leader of each, the least index of its class, so the first of its
    class in the order given.  After the first gap that leaves no class
    shared, both are empty and the refinement stops.

    Each gap keys the live permutations by their class and the gap's
    digits, in as many passes (see _regroup) as the int64 keys need; each
    pass reads the digits of the permutations still live."""
    V, B = upto.shape
    # all B permutations in one class
    live, new = np.arange(B), np.arange(B) == 0
    for i in range(1, V):
        s = 0
        while s < V - i:
            live, new, s = _regroup(upto, live, new, i, s, directed)
            if not live.size:
                yield live, live
                return
        yield live, np.minimum.reduceat(live, np.flatnonzero(new))[np.cumsum(new) - 1]


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

    The minimum k is the first gap of the refinement (see _refine) after
    which no class is shared.  After each earlier gap, the first permutation
    whose leader lies before it and that leader are the first pair of a
    grouping of all n! by their profiles, and are re-checked entry-wise."""
    n, directed = _require_n(n), require_bool(directed)
    upto = _all_masks(n)
    previous = None
    for k, (live, leader) in enumerate(_refine(upto, directed), 1):
        if not live.size:
            return MinKResult(n=n, directed=directed, min_k=k, collision=previous)
        # the first permutation whose leader lies before it
        j = np.argmin(np.where(leader < live, live, upto.shape[1]))
        P, Q = (_permutation(upto[:, i]) for i in (leader[j], live[j]))
        # grouped by slot digits; re-check entry-wise through the scalar path
        # before reporting
        if compute_profile(P, k, directed) != compute_profile(Q, k, directed):
            raise InternalInconsistency(
                f"code grouping disagrees with recomputed profiles at n={n}, k={k}")
        previous = P, Q
    raise InternalInconsistency(f"no k up to n+1 separates all permutations of n={n}")


def fixed_positions_check(n: int, k: int, directed: bool) -> bool:
    """Whether every k-profile class over all n! permutations agrees on the
    positions of 1 and n and on the three element blocks they delimit: the
    classes after gap k of the refinement (see _refine), or the first empty
    ones before it."""
    n, k, directed = _require_n(n), require_int(k, "k"), require_bool(directed)
    if not 1 <= k <= n + 1:
        raise PreconditionViolation(f"need 1 <= k <= n+1, got k={k}, n={n}")
    upto = _all_masks(n)
    for live, leader in itertools.islice(_refine(upto, directed), k):
        pass
    # the masks of 1 and n fix the positions of 1 and n and the block of
    # every other value (before both, between or after), and are fixed by
    # them
    ends = upto[[1, n]]
    return np.array_equal(ends[:, live], ends[:, leader])

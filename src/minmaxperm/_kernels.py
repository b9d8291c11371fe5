"""Hot kernels for bulk profile work over many permutations at once.

This module and `reconstruction` are the only ones that import numpy, and
no module the package or the CLI loads at start-up imports either of them:
the oracle and the uniqueness analysis load them when first called.

Every kernel is whole-array numpy:

- `profile_arrays` turns one profile into the (m, M, dir) target arrays
  the oracle's search reads, in the layout below.
- `iter_perm_arrays` builds the lexicographic table of the last s values
  once per call, s being the largest s <= n with s! <= chunk, and yields
  one block per prefix of the first n-s values, with the table mapped onto
  the values that prefix leaves.  Nothing is kept between calls.  The
  uniqueness grouping enumerates all n! rows with it.
- `batch_profile_codes` works value-major: range tables mn[lo, hi, :] and
  mx[lo, hi, :] (min and max of the values at positions lo..hi, one
  length-B array per cell) are built with one binary np.minimum /
  np.maximum per cell, and all slots of one gap i are read from them with
  a single gather by flat index.  `value_positions` is the (V, B)
  inverse permutation both it and the fixed-positions check use.
- `prefix_solutions` is the oracle's search: it extends blocks of
  permutation prefixes one position at a time and drops a prefix as soon
  as a profile entry rules out every extension of it, so it never builds
  most of the n! rows.  It reads only the target arrays.

Layout: a profile of span k over {0..n+1} has one slot per (gap i, start t)
pair, i = 1..k and t = 0..n+1-i, ordered by (i, t).  A code row is the
concatenation [m | M | dir] of the three per-slot arrays, dir being +1
(t left of t+i), -1 (right of), or 0 (unknown/undirected).
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .errors import TooLarge
from .profiles import Direction, Profile, pair_count

_DIR_CODE = {Direction.LEFT_TO_RIGHT: 1, Direction.RIGHT_TO_LEFT: -1, Direction.UNKNOWN: 0}


def profile_arrays(F: Profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, M, dir) int8 arrays of F's entries in canonical (i, t) order;
    dir is +1/-1/0.

    Raises TooLarge when n+1 does not fit in int8 (n >= 127).
    """
    if F.n + 1 > 127:
        raise TooLarge(f"n={F.n} too large for int8 profile arrays")
    ents = F.entries()
    m = np.array([c.m for c in ents], dtype=np.int8)
    M = np.array([c.M for c in ents], dtype=np.int8)
    d = np.array([_DIR_CODE[c.dir] for c in ents], dtype=np.int8)
    return m, M, d


def _as_int8_rows(perms) -> np.ndarray:
    arr = np.ascontiguousarray(perms, dtype=np.int8)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array of permutation rows")
    return arr


def value_positions(perms: np.ndarray) -> np.ndarray:
    """Inverse of a (B, V) int8 block of permutation rows of range(V), as a
    (V, B) int8 array: entry [v, b] is the position of value v in row b.
    One scatter through flat indices v*B + b."""
    B, V = perms.shape
    flat = perms.T.astype(np.intp)
    flat *= B
    flat += np.arange(B)
    pos = np.empty(V * B, np.int8)
    pos[flat] = np.arange(V, dtype=np.int8)[:, None]
    return pos.reshape(V, B)


def batch_profile_codes(perms, k: int, directed: bool) -> np.ndarray:
    """Profile code rows [m | M | dir] for a batch of permutation rows, as a
    (B, 3L) int8 C-contiguous array.

    Everything runs value-major, one length-B array per table cell:
    mn[lo, hi] and mx[lo, hi] hold the min and max of the values at
    positions lo..hi of every row, each cell one binary np.minimum /
    np.maximum of the cell before it (hi - 1) and column hi of the
    transposed rows, then copied to mn[hi, lo] so that either order of the
    two ends reads the same cell.  Slot (t, t+i) of row b is cell
    (pos[t, b]*V + pos[t+i, b])*B + b of the flat tables; each gap's slots
    are gathered at once into a (3L, B) block, which is transposed once at
    the end."""
    perms = _as_int8_rows(perms)
    B, V = perms.shape
    L = pair_count(V - 2, k)
    cols = np.ascontiguousarray(perms.T)
    mn = np.empty((V, V, B), np.int8)
    mx = np.empty((V, V, B), np.int8)
    for lo in range(V):
        mn[lo, lo] = mx[lo, lo] = cols[lo]
        for hi in range(lo + 1, V):
            np.minimum(mn[lo, hi - 1], cols[hi], out=mn[lo, hi])
            np.maximum(mx[lo, hi - 1], cols[hi], out=mx[lo, hi])
        mn[lo + 1:, lo] = mn[lo, lo + 1:]
        mx[lo + 1:, lo] = mx[lo, lo + 1:]
    mn, mx = mn.reshape(-1), mx.reshape(-1)
    pos = value_positions(perms)
    second = pos.astype(np.intp)
    second *= B
    first = second * V
    first += np.arange(B)
    cells = np.empty((V - 1, B), np.intp)
    codes = np.empty((3 * L, B), np.int8)
    dirs = codes[2 * L:]
    idx = 0
    for i in range(1, min(k, V - 1) + 1):
        width = V - i
        cell = np.add(first[:width], second[i:], out=cells[:width])
        codes[idx:idx + width] = mn[cell]
        codes[L + idx:L + idx + width] = mx[cell]
        if directed:
            dirs[idx:idx + width] = pos[:width] < pos[i:]
        idx += width
    if directed:
        # 1 where t lies left of t+i and 0 where right, to +1 and -1
        dirs *= 2
        dirs -= 1
    else:
        dirs[:] = 0
    # freed first, so that the transposed copy does not add to their peak
    del mn, mx, first, second, cells, cell
    return np.ascontiguousarray(codes.T)


# ---------------------------------------------------------------------------
# Permutation enumeration
# ---------------------------------------------------------------------------

def _perm_table(s: int) -> np.ndarray:
    """All permutations of range(s) in lexicographic order, as (s!, s) int8.

    The table of size s is the table of size s-1 with each first value v
    prepended in turn and the entries >= v shifted up by one; the shift
    keeps each block's order, so the whole stays lexicographic."""
    table = np.zeros((1, 0), np.int8)
    for size in range(1, s + 1):
        rows = table.shape[0]
        nxt = np.empty((size * rows, size), np.int8)
        for v in range(size):
            block = nxt[v * rows:(v + 1) * rows]
            block[:, 0] = v
            block[:, 1:] = table + (table >= v)
        table = nxt
    return table


def iter_perm_arrays(n: int, chunk: int = 100_000) -> Iterator[np.ndarray]:
    """All permutations of {0..n+1} with pinned endpoints, in lexicographic
    order, yielded as (B, n+2) int8 row blocks of at most `chunk` rows
    (one row per block when chunk < 1)."""
    if n + 2 > 120:
        raise TooLarge(f"n={n} too large for int8 batch enumeration")
    s, size = 0, 1
    while s < n and size * (s + 1) <= chunk:
        s += 1
        size *= s
    table = _perm_table(s)
    head = n - s
    values = range(1, n + 1)
    for prefix in itertools.permutations(values, head):
        rest = np.array(sorted(set(values).difference(prefix)), np.int8)
        rows = np.empty((size, n + 2), np.int8)
        rows[:, 0] = 0
        rows[:, -1] = n + 1
        rows[:, 1:head + 1] = prefix
        rows[:, head + 1:n + 1] = rest[table]
        yield rows


# ---------------------------------------------------------------------------
# Prefix search
# ---------------------------------------------------------------------------

# Rows one expansion step may create: large enough that numpy call overhead
# stays small against the work; the stack then holds at most n+1 blocks of
# this many rows.
_PREFIX_CHUNK = 4096


def _end_slots(m, M, d, T, U, V: int):
    """Per value v, the slots with v as an end, as (V, W) arrays: the other
    end, the slot's m and M stacked on a last axis, and the side, +1 when v
    must lie right of the other end, -1 when left, 0 when the slot records
    no direction.  Short rows are padded with the other end V, a column of
    the position table that is never placed, and side 0, so no check reads
    the padding."""
    ends: list[list[tuple[int, int, int]]] = [[] for _ in range(V)]
    for s, (t, u, dd) in enumerate(zip(T.tolist(), U.tolist(), d.tolist())):
        ends[t].append((u, s, -dd))
        ends[u].append((t, s, dd))
    W = max(len(e) for e in ends)
    other = np.full((V, W), V, np.intp)
    slot = np.zeros((V, W), np.intp)
    side = np.zeros((V, W), np.int8)
    for v, e in enumerate(ends):
        for w, (o, s, sd) in enumerate(e):
            other[v, w], slot[v, w], side[v, w] = o, s, sd
    return other, np.stack([m[slot], M[slot]], axis=2), side


def prefix_solutions(n: int, k: int, m, M, d) -> Iterator[np.ndarray]:
    """Every permutation row of {0..n+1} with pinned endpoints whose
    k-profile equals the target arrays, in lexicographic order, yielded as
    (B, n+2) int8 row blocks.

    A depth-first search over prefixes: position j takes every value still
    free in ascending order (n+1 only at the last position), and a prefix
    is dropped as soon as no extension of it can match, that is when
    (a) a slot with both ends placed has the wrong segment min, max or
        direction;
    (b) a slot with exactly one end placed has a value placed after that
        end outside [m, M];
    (c) a slot's end that must lie on the right is placed while the other
        end is not.
    A zero in d skips the direction checks for that slot.  Each slot is
    checked in full by (a) when its second end is placed, so a complete row
    survives exactly when its profile equals the target.  Prefix blocks sit
    on a stack and are expanded at most _PREFIX_CHUNK / (free values) rows
    at a time, so each level holds at most _PREFIX_CHUNK rows whatever the
    number of solutions.
    """
    if n + 1 > 127:
        raise TooLarge(f"n={n} too large for int8 prefix search")
    V = n + 2
    m = np.asarray(m).astype(np.int16)
    M = np.asarray(M).astype(np.int16)
    d = np.asarray(d).astype(np.int8)
    gaps = range(1, min(k, V - 1) + 1)
    T = np.concatenate([np.arange(V - i) for i in gaps])
    U = np.concatenate([np.arange(i, V) for i in gaps])
    # a slot's segment holds both its ends and only values of 0..n+1
    if ((m < 0) | (m > T) | (M < U) | (M >= V)).any():
        return
    other, extremes, side = _end_slots(m, M, d, T, U, V)
    values = np.arange(V)
    rows = np.zeros((1, V), np.int8)
    # pos[:, v] is the position of value v, -1 while v is free
    pos = np.full((1, V + 1), -1, np.int8)
    pos[0, 0] = 0
    stack = [(1, rows, pos)]
    while stack:
        j, rows, pos = stack.pop()
        if j == V:
            yield rows
            continue
        step = max(1, _PREFIX_CHUNK // (V - j))
        if len(rows) > step:
            stack.append((j, rows[step:], pos[step:]))
            rows, pos = rows[:step], pos[:step]
        # (b): the value placed at j joins the segment of every slot with
        # exactly one end placed
        placed = pos[:, :V] >= 0
        one_end = placed[:, T] != placed[:, U]
        lo = np.where(one_end, m, -1).max(axis=1)
        hi = np.where(one_end, M, V).min(axis=1)
        free = ~placed & (lo[:, None] <= values) & (values <= hi[:, None])
        if j < V - 1:
            free[:, V - 1] = False
        parent, v = np.nonzero(free)
        rows = rows[parent]
        rows[:, j] = v
        pos = pos[parent]
        pos[np.arange(len(v)), v] = j
        # (a) and (c) on the slots with v as an end, q being the other
        # end's position (-1 while free).  By (b) every value of a closed
        # slot's segment lies in [m, M], so its min is m and its max M
        # exactly when both values sit at positions q..j.
        r = np.arange(len(v))[:, None]
        q = pos[r, other[v]]
        missing = (pos[r[:, :, None], extremes[v]] < q[:, :, None]).any(axis=(1, 2))
        wrong_side = (side[v] == np.where(q >= 0, -1, 1)).any(axis=1)
        keep = ~(missing | wrong_side)
        if keep.any():
            stack.append((j + 1, rows[keep], pos[keep]))

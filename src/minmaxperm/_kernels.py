"""Hot kernels for bulk profile work over many permutations at once: the
uniqueness grouping's enumeration and profile codes.

This module and `reconstruction` are the only ones that import numpy, and
no module the package or the CLI loads at start-up imports either of them:
the exhaustive questions load them when first called.

Every kernel is whole-array numpy:

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
from .profiles import pair_count


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
    for prefix in itertools.permutations(range(1, n + 1), head):
        rows = np.empty((size, n + 2), np.int8)
        rows[:, 0] = 0
        rows[:, -1] = n + 1
        rows[:, 1:head + 1] = prefix
        # the table maps onto the values the prefix leaves, in order:
        # 1..s, then each prefix value p in ascending order shifts the
        # entries >= p up by one (no index array, so no intp copy)
        tail = np.add(table, 1, out=rows[:, head + 1:n + 1])
        for p in sorted(prefix):
            tail += tail >= p
        yield rows

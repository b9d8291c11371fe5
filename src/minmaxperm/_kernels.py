"""Hot kernels for bulk profile work over many permutations at once.

The exhaustive operations (oracle enumeration, uniqueness grouping) spend
essentially all their time enumerating n! candidate permutations and
computing or matching their profiles.  Every kernel is whole-array numpy:

- `iter_perm_arrays` builds the lexicographic table of the last s values
  once per call, s being the largest s <= n with s! <= chunk, and yields
  one block per prefix of the first n-s values, with the table mapped onto
  the values that prefix leaves.  Nothing is kept between calls.
- `batch_profile_codes` builds per-row range tables mn[b, lo, hi] and
  mx[b, lo, hi] (min and max of the values at positions lo..hi) and reads
  all slots of one gap i from them with a single gather.
- `match_profile` walks the slots and drops a row at its first mismatch.

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


def _positions(perms: np.ndarray) -> np.ndarray:
    B, V = perms.shape
    pos = np.empty((B, V), np.int16)
    pos[np.arange(B)[:, None], perms] = np.arange(V, dtype=np.int16)[None, :]
    return pos


def _segment_minmax(perms, cols, lo, hi):
    inside = (cols >= lo[:, None]) & (cols <= hi[:, None])
    mn = np.where(inside, perms, np.int8(127)).min(axis=1)
    mx = np.where(inside, perms, np.int8(-1)).max(axis=1)
    return mn, mx


def _as_int8_rows(perms) -> np.ndarray:
    arr = np.ascontiguousarray(perms, dtype=np.int8)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array of permutation rows")
    return arr


def _range_tables(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, V*V) tables whose entry lo*V + hi, lo <= hi, is the min (max) of
    perms[b, lo..hi]; entries with lo > hi are never read and left unset."""
    B, V = perms.shape
    mn = np.empty((B, V, V), np.int8)
    mx = np.empty((B, V, V), np.int8)
    for lo in range(V):
        np.minimum.accumulate(perms[:, lo:], axis=1, out=mn[:, lo, lo:])
        np.maximum.accumulate(perms[:, lo:], axis=1, out=mx[:, lo, lo:])
    return mn.reshape(B, V * V), mx.reshape(B, V * V)


def batch_profile_codes(perms, k: int, directed: bool) -> np.ndarray:
    """Profile code rows [m | M | dir] for a batch of permutation rows."""
    perms = _as_int8_rows(perms)
    B, V = perms.shape
    L = pair_count(V - 2, k)
    pos = _positions(perms).astype(np.intp)
    mn, mx = _range_tables(perms)
    out = np.empty((B, 3 * L), np.int8)
    idx = 0
    for i in range(1, min(k, V - 1) + 1):
        width = V - i
        p1 = pos[:, :width]
        p2 = pos[:, i:]
        cell = np.minimum(p1, p2) * V + np.maximum(p1, p2)
        out[:, idx:idx + width] = np.take_along_axis(mn, cell, axis=1)
        out[:, L + idx:L + idx + width] = np.take_along_axis(mx, cell, axis=1)
        out[:, 2 * L + idx:2 * L + idx + width] = np.where(p1 < p2, 1, -1) if directed else 0
        idx += width
    return out


def match_profile(perms, k: int, m, M, d) -> np.ndarray:
    """Boolean mask of rows whose k-profile equals the target arrays.

    A zero in d skips the direction check for that slot, which makes the
    same target arrays usable for directed and undirected matching.
    """
    perms = _as_int8_rows(perms)
    m = np.ascontiguousarray(m, dtype=np.int8)
    M = np.ascontiguousarray(M, dtype=np.int8)
    d = np.ascontiguousarray(d, dtype=np.int8)
    B, V = perms.shape
    alive = np.arange(B)
    cur = perms
    pos = _positions(perms)
    cols = np.arange(V, dtype=np.int16)[None, :]
    idx = 0
    for i in range(1, k + 1):
        for t in range(V - i):
            if alive.size == 0:
                break
            p1 = pos[:, t]
            p2 = pos[:, t + i]
            lo = np.minimum(p1, p2)
            hi = np.maximum(p1, p2)
            mn, mx = _segment_minmax(cur, cols, lo, hi)
            ok = (mn == m[idx]) & (mx == M[idx])
            if d[idx] != 0:
                ok &= np.where(p1 < p2, 1, -1) == d[idx]
            if not ok.all():
                alive = alive[ok]
                cur = cur[ok]
                pos = pos[ok]
            idx += 1
    result = np.zeros(B, bool)
    result[alive] = True
    return result


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

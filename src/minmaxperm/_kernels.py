"""Hot kernels for bulk profile work over many permutations at once.

The exhaustive operations (oracle enumeration, uniqueness grouping) spend
essentially all their time computing or matching profiles across n!
candidate permutations.  Both kernels are vectorized numpy: each walks the
(t, i) slots once and handles every row of the batch per slot.

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


def batch_profile_codes(perms, k: int, directed: bool) -> np.ndarray:
    """Profile code rows [m | M | dir] for a batch of permutation rows."""
    perms = _as_int8_rows(perms)
    B, V = perms.shape
    L = pair_count(V - 2, k)
    pos = _positions(perms)
    cols = np.arange(V, dtype=np.int16)[None, :]
    out = np.empty((B, 3 * L), np.int8)
    idx = 0
    for i in range(1, k + 1):
        for t in range(V - i):
            p1 = pos[:, t]
            p2 = pos[:, t + i]
            lo = np.minimum(p1, p2)
            hi = np.maximum(p1, p2)
            mn, mx = _segment_minmax(perms, cols, lo, hi)
            out[:, idx] = mn
            out[:, L + idx] = mx
            out[:, 2 * L + idx] = np.where(p1 < p2, 1, -1) if directed else 0
            idx += 1
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

def iter_perm_arrays(n: int, chunk: int = 100_000) -> Iterator[np.ndarray]:
    """All permutations of {0..n+1} with pinned endpoints, in lexicographic
    order, yielded as (B, n+2) int8 row blocks of at most `chunk` rows."""
    if n + 2 > 120:
        raise TooLarge(f"n={n} too large for int8 batch enumeration")
    inner = itertools.permutations(range(1, n + 1))
    width = n + 2
    while True:
        block = list(itertools.islice(inner, chunk))
        if not block:
            return
        rows = np.empty((len(block), width), np.int8)
        rows[:, 0] = 0
        rows[:, -1] = n + 1
        if n:
            rows[:, 1:-1] = np.array(block, np.int8)
        yield rows

"""Shared fixtures-in-code for the test suite: golden inputs, generators,
and the engine-free references: a profile's stated arcs, NB records and B
pairs, the slow randomized-order closure used as the confluence
reference, the settledness and cycle checks, and the rescanning
topological order.  The references work on plain sets of (x, y) arcs or
masks and never call the closure engine."""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

import minmaxperm
from minmaxperm import (
    CyclicGraph,
    Permutation,
    Profile,
    TooLarge,
    validate_permutation,
)
from minmaxperm.profiles import Direction, KConstraint, NBRecord
from minmaxperm.reconstruction import _slot_digits

L = Direction.LEFT_TO_RIGHT
R = Direction.RIGHT_TO_LEFT
U = Direction.UNKNOWN

# Running example: permutation and its gap-1 constraints (t, dir, m, M).
GOLDEN_PERM = (0, 6, 4, 7, 2, 9, 1, 8, 5, 3, 10)
GOLDEN_ENTRIES = [
    (0, L, 0, 9), (1, R, 1, 9), (2, L, 1, 9), (3, R, 1, 9), (4, L, 1, 9),
    (5, R, 1, 9), (6, L, 4, 7), (7, L, 1, 9), (8, R, 1, 9), (9, L, 1, 10),
]

# Second worked example for silent-constraint analysis.
SETTING_PERM = (0, 7, 4, 10, 2, 1, 12, 8, 3, 9, 5, 11, 6, 13)

# The 30-entry circuit-construction profile, n = 29.
CIRCUIT_ENTRIES = [
    (0, L, 0, 27), (1, L, 1, 29), (2, R, 1, 29), (3, L, 1, 29), (4, R, 1, 29),
    (5, L, 1, 29), (6, R, 1, 29), (7, R, 3, 21), (8, L, 1, 29), (9, R, 1, 29),
    (10, L, 1, 29), (11, R, 1, 29), (12, L, 8, 25), (13, L, 1, 29), (14, R, 1, 29),
    (15, R, 10, 27), (16, L, 1, 29), (17, R, 1, 29), (18, R, 16, 22), (19, L, 1, 29),
    (20, R, 1, 29), (21, R, 5, 22), (22, L, 1, 29), (23, R, 1, 29), (24, R, 15, 25),
    (25, L, 1, 29), (26, R, 1, 29), (27, L, 1, 29), (28, R, 2, 29), (29, L, 2, 30),
]

# Directed profile on n=2 with no witness: entry (0,1) claims M=2, which no
# permutation of {0,1,2,3} can deliver together with 1 left of 2.
UNSAT2_ENTRIES = [(0, L, 0, 2), (1, L, 1, 2), (2, L, 2, 3)]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`, importing the package under
    test, with its exit code and captured text output."""
    src = str(Path(minmaxperm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def run_fresh(code: str, *argv: str) -> str:
    """Stdout of `code` run in a fresh interpreter with `argv`; fails the
    test if the interpreter exits non-zero."""
    proc = run_python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_DIR_CODE = {Direction.LEFT_TO_RIGHT: 1, Direction.RIGHT_TO_LEFT: -1, Direction.UNKNOWN: 0}


def profile_arrays(F: Profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, M, dir) int8 arrays of F's entries in canonical (i, t) order;
    dir is +1/-1/0: the per-slot layout of a code column of `slot_codes`,
    [m | M | dir].  Raises TooLarge when n+1 does not fit in int8
    (n >= 127)."""
    if F.n + 1 > 127:
        raise TooLarge(f"n={F.n} too large for int8 profile arrays")
    ents = F.entries()
    m = np.array([c.m for c in ents], dtype=np.int8)
    M = np.array([c.M for c in ents], dtype=np.int8)
    d = np.array([_DIR_CODE[c.dir] for c in ents], dtype=np.int8)
    return m, M, d


def value_masks(rows: np.ndarray) -> np.ndarray:
    """The (V, B) uint16 value masks of (B, V) permutation rows, the layout
    of `reconstruction._all_masks`: entry [v, b] has bit u set when value u
    lies at or left of value v in row b.  Built row by row in plain
    Python, so that the library's mask builder never checks itself."""
    B, V = rows.shape
    out = [[0] * B for _ in range(V)]
    for b, row in enumerate(rows.tolist()):
        seen = 0
        for v in row:
            seen |= 1 << v
            out[v][b] = seen
    return np.array(out, np.uint16).reshape(V, B)


def perm_rows(n: int) -> np.ndarray:
    """All n! permutations of {0..n+1} with pinned ends, in itertools
    (lexicographic) order, as a (n!, n+2) int8 array."""
    return np.array([(0, *inner, n + 1) for inner in itertools.permutations(range(1, n + 1))],
                    np.int8).reshape(-1, n + 2)


def slot_codes(rows: np.ndarray, k: int, directed: bool) -> np.ndarray:
    """The k-profile codes [m | M | dir] of (B, V) int8 permutation rows,
    slot-major: a (3L, B) int8 array whose column b is the code of row b,
    in the layout of `profile_arrays`.  Decoded from the digits of gaps 1
    to k, one after the other, that `reconstruction._slot_digits` reads
    from the rows' `value_masks`: a directed digit is twice
    m*(V-t-i) + M-t-i, plus 1 when t lies left of t+i."""
    B, V = rows.shape
    upto, every = value_masks(rows), np.arange(B)
    gaps = range(1, k + 1)
    rest = np.concatenate([_slot_digits(upto, every, i, directed)[0].astype(np.int64) for i in gaps])
    end = np.concatenate([np.arange(i, V) for i in gaps])[:, None]
    dirs = rest % 2 * 2 - 1 if directed else np.zeros_like(rest)
    rest >>= directed
    return np.concatenate([rest // (V - end), rest % (V - end) + end, dirs]).astype(np.int8)


def make_profile(entries, n=None, directed=True, k=1) -> Profile:
    n = n if n is not None else len(entries) - 1
    cons = {}
    for t, d, m, M in entries:
        if not directed:
            d = U
        cons[(t, 1)] = KConstraint(t=t, i=1, dir=d, m=m, M=M)
    return Profile(n=n, k=k, directed=directed, constraints=cons)


def golden_profile(directed=True) -> Profile:
    return make_profile(GOLDEN_ENTRIES, directed=directed)


def golden_witness_family(directed: bool) -> set[Permutation]:
    """Every witness of the golden profile, written out by its structure.

    The values {3,5,8} take the last three slots in any order, 2 sits either
    at slot 4 or right after 0, and the undirected profile also leaves the
    order of 6 and 7 open (the directed entry (6,1) puts 6 left of 7).
    That is 24 permutations undirected and 12 directed.
    """
    out = set()
    outer = [(6, 7)] if directed else [(6, 7), (7, 6)]
    for a, b in outer:
        for tail in itertools.permutations((3, 5, 8)):
            out.add(validate_permutation((0, a, 4, b, 2, 9, 1, *tail, 10)))
            out.add(validate_permutation((0, 2, a, 4, b, 9, 1, *tail, 10)))
    return out


def circuit_profile() -> Profile:
    return make_profile(CIRCUIT_ENTRIES, n=29)


def unsat2_profile() -> Profile:
    return make_profile(UNSAT2_ENTRIES, n=2)


def all_perms(n: int):
    for inner in itertools.permutations(range(1, n + 1)):
        yield Permutation(n=n, elems=(0, *inner, n + 1))


def identity_perm(n: int) -> Permutation:
    return Permutation(n=n, elems=tuple(range(n + 2)))


def dual_perm(P: Permutation) -> Permutation:
    """Reverse of the value-complement; maps x to n+1-x and flips positions."""
    comp = [P.n + 1 - v for v in P.elems]
    return Permutation(n=P.n, elems=tuple(reversed(comp)))


def random_perm(rng: random.Random, n: int) -> Permutation:
    inner = list(range(1, n + 1))
    rng.shuffle(inner)
    return Permutation(n=n, elems=(0, *inner, n + 1))


def random_valid_directed(rng: random.Random, n: int) -> Profile:
    """Uniform random profile satisfying the validity gate (bounds, extreme
    occurrences, boundary entries left-to-right)."""
    cons = {}
    for t in range(n + 1):
        if t == 0:
            m, M, d = 0, rng.randint(1, n), L
        elif t == n:
            m, M, d = rng.randint(1, n), n + 1, L
        else:
            m, M, d = rng.randint(1, t), rng.randint(t + 1, n), rng.choice((L, R))
        cons[(t, 1)] = KConstraint(t=t, i=1, dir=d, m=m, M=M)
    return Profile(n=n, k=1, directed=True, constraints=cons)


def _valid_bounds(n: int) -> list[list[tuple[int, int]]]:
    """Per entry t, the (m, M) pairs the validity gate allows."""
    out = []
    for t in range(n + 1):
        if t == 0:
            out.append([(0, M) for M in range(1, n + 1)])
        elif t == n:
            out.append([(m, n + 1) for m in range(1, n + 1)])
        else:
            out.append([(m, M) for m in range(1, t + 1) for M in range(t + 1, n + 1)])
    return out


def all_valid_directed(n: int):
    """Every directed gap-1 profile on n that passes the validity gate, the
    set `random_valid_directed` draws from."""
    options = [[(m, M, d) for m, M in bounds for d in ((L,) if t in (0, n) else (L, R))]
               for t, bounds in enumerate(_valid_bounds(n))]
    for combo in itertools.product(*options):
        cons = {(t, 1): KConstraint(t=t, i=1, dir=d, m=m, M=M)
                for t, (m, M, d) in enumerate(combo)}
        yield Profile(n=n, k=1, directed=True, constraints=cons)


def all_valid_undirected(n: int):
    """Every undirected gap-1 profile on n that passes the validity gate:
    the (m, M) choices of `all_valid_directed`, with no direction."""
    for combo in itertools.product(*_valid_bounds(n)):
        cons = {(t, 1): KConstraint(t=t, i=1, dir=U, m=m, M=M)
                for t, (m, M) in enumerate(combo)}
        yield Profile(n=n, k=1, directed=False, constraints=cons)


def mutate_undirected(rng: random.Random, F: Profile) -> Profile:
    """Random valid edits of the m/M values of an undirected gap-1 profile."""
    cons = dict(F.constraints)
    n = F.n
    for _ in range(rng.randint(1, 3)):
        t = rng.randint(0, n)
        c = cons[(t, 1)]
        m, M = c.m, c.M
        if rng.random() < 0.5 and t >= 1:
            m = rng.randint(1, t)
        elif t <= n - 1:
            M = rng.randint(t + 1, n)
        cons[(t, 1)] = KConstraint(t=t, i=1, dir=U, m=m, M=M)
    return Profile(n=n, k=1, directed=False, constraints=cons)


def mutate_directed(rng: random.Random, F: Profile) -> Profile:
    """A few random valid edits of a directed gap-1 profile (bounds and
    boundary directions preserved)."""
    cons = dict(F.constraints)
    n = F.n
    for _ in range(rng.randint(1, 3)):
        t = rng.randint(0, n)
        c = cons[(t, 1)]
        m, M, d = c.m, c.M, c.dir
        move = rng.random()
        if move < 0.4 and t >= 1:
            m = rng.randint(1, t)
        elif move < 0.8 and t <= n - 1:
            M = rng.randint(t + 1, n)
        elif 1 <= t <= n - 1:
            d = L if d is R else R
        cons[(t, 1)] = KConstraint(t=t, i=1, dir=d, m=m, M=M)
    return Profile(n=n, k=1, directed=True, constraints=cons)


def seed_arcs(c: KConstraint) -> tuple[tuple[int, int], ...]:
    """The R-arc, then the four B-arcs, that one directed gap-1 entry states
    (a B-arc is a self-loop when m or M is an endpoint of the pair)."""
    tl, tr = (c.t, c.t + 1) if c.dir is L else (c.t + 1, c.t)
    return (tl, tr), (tl, c.m), (c.m, tr), (tl, c.M), (c.M, tr)


def endpoint_arcs(n: int) -> list[tuple[int, int]]:
    """What the pinned endpoints give: 0 before everything, everything
    before n+1."""
    return [(0, x) for x in range(1, n + 2)] + [(x, n + 1) for x in range(0, n + 1)]


def stated_arcs(F: Profile) -> set[tuple[int, int]]:
    """The arcs a gap-1 profile states, without self-loops: the `seed_arcs`
    of every entry of a directed profile, the endpoint arcs of an
    undirected one."""
    if not F.directed:
        return set(endpoint_arcs(F.n))
    return {(x, y) for c in F.entries() for x, y in seed_arcs(c) if x != y}


def nb_records(F: Profile) -> list[NBRecord]:
    """All NB-constraints of a gap-1 profile, sorted by (basis, top): entry
    t contributes one record per value outside [m_t, M_t], tops 0..m_t-1
    and M_t+1..n+1."""
    out = []
    for c in F.entries():
        basis = (c.t, c.t + 1)
        out += [NBRecord(basis=basis, top=top) for top in range(0, c.m)]
        out += [NBRecord(basis=basis, top=top) for top in range(c.M + 1, F.n + 2)]
    return sorted(out)


def b_arc_pairs(F: Profile) -> list[tuple]:
    """Arcs+/Arcs- of every entry of a gap-1 profile as (plus, minus), at
    index t: plus puts t left of t+1 with m and M in between, minus is its
    reverse, arc by arc; self-loops and repeats are dropped."""
    out = []
    for c in F.entries():
        t, u = c.t, c.t + 1
        plus = [(t, u), (t, c.m), (t, c.M), (c.m, u), (c.M, u)]
        minus = [(y, x) for x, y in plus]
        out.append(tuple(tuple(dict.fromkeys((x, y) for x, y in side if x != y))
                         for side in (plus, minus)))
    return out


def mask_arcs(masks) -> set[tuple[int, int]]:
    """The (x, y) pairs with bit y set in masks[x]."""
    return {(x, y) for x, row in enumerate(masks) for y in range(row.bit_length()) if row >> y & 1}


def arc_set(arcs) -> set[tuple[int, int]]:
    """The (x, y) pairs of arcs given as (x, y, kind) triples, without
    self-loops, which never enter a closure."""
    return {(x, y) for x, y, _ in arcs if x != y}


def masks_of(n: int, records) -> list[int]:
    """NB records folded into the per-top masks `Closure` takes: record
    (a, (t, t+1)) sets bit t of mask a (for hand-made record lists)."""
    masks = [0] * (n + 2)
    for r in records:
        masks[r.top] |= 1 << r.basis[0]
    return masks


def reference_close(n: int, arcs: set[tuple[int, int]], records, b_pairs,
                    rng: random.Random) -> set[tuple[int, int]]:
    """Fixpoint over {0..n+1} computed by applying one randomly chosen
    applicable rule instance at a time; order-independence of the result is
    the property under test."""
    g = set(arcs)
    V = n + 2
    while True:
        cands = []
        for x in range(V):
            for c in range(V):
                if (x, c) in g:
                    for y in range(V):
                        if y != x and (c, y) in g and (x, y) not in g:
                            cands.append((x, y))
        for r in records:
            a = r.top
            t, u = r.basis
            if (a, t) in g and (a, u) not in g:
                cands.append((a, u))
            if (a, u) in g and (a, t) not in g:
                cands.append((a, t))
            if (t, a) in g and (u, a) not in g:
                cands.append((u, a))
            if (u, a) in g and (t, a) not in g:
                cands.append((t, a))
        for pair in b_pairs:
            for side in pair:
                if any((x, y) in g for x, y in side):
                    cands.extend((x, y) for x, y in side if (x, y) not in g)
        if not cands:
            return g
        g.add(rng.choice(cands))


def is_settled(arcs: set[tuple[int, int]], r) -> bool:
    """Whether one orientation of the NB-constraint is fully present."""
    a = r.top
    t, u = r.basis
    return ((a, t) in arcs and (a, u) in arcs) or \
           ((t, a) in arcs and (u, a) in arcs)


def has_cycle(arcs: set[tuple[int, int]]) -> bool:
    """Whether the arcs form a directed cycle: peel vertices with no
    incoming arc from the rest until none is left (acyclic) or none can go
    (a cycle).  Reads only the arc set, so it checks `Closure.cyclic` from
    outside."""
    V = max((max(a) for a in arcs), default=-1) + 1
    incoming = [0] * V
    for x, y in arcs:
        incoming[y] |= 1 << x
    remaining = (1 << V) - 1
    while remaining:
        picked = False
        r = remaining
        while r:
            b = r & -r
            v = b.bit_length() - 1
            if not incoming[v] & remaining:
                remaining &= ~b
                picked = True
                break
            r ^= b
        if not picked:
            return True
    return False


def reference_topo_order(incoming: Sequence[int]) -> Permutation:
    """The topological order, smallest free vertex first, of the graph whose
    vertex v has in-neighbour mask incoming[v], by rescanning the vertices
    left from the lowest at every step: O(V^2) mask tests, the reference
    for `graph.topo_order`.  Raises CyclicGraph when no order exists."""
    V = len(incoming)
    remaining = (1 << V) - 1
    order = []
    for _ in range(V):
        v = -1
        r = remaining
        while r:
            b = r & -r
            cand = b.bit_length() - 1
            if not incoming[cand] & remaining:
                v = cand
                break
            r ^= b
        if v < 0:
            raise CyclicGraph("graph has a directed cycle; no topological order")
        order.append(v)
        remaining &= ~(1 << v)
    return validate_permutation(order)


class _Expired(BaseException):
    """The alarm of `deadline`, raised inside its block."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError out of the block once `seconds` of wall time have
    passed (SIGALRM, so the block must run on the main thread).

    The alarm interrupts the block with a private exception, and the
    TimeoutError is raised afresh from this frame, without the interrupted
    ones: on Python 3.11 a frame interrupted at a jump that has no line
    number gives a traceback entry whose tb_lineno is None, on which
    pytest's failure report crashes the whole session."""
    def expire(signum, frame):
        raise _Expired
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def profile_restricted(F: Profile, k: int) -> Profile:
    """F with gaps above k dropped (for the refinement property)."""
    cons = {key: c for key, c in F.constraints.items() if key[1] <= k}
    return Profile(n=F.n, k=k, directed=F.directed, constraints=cons)

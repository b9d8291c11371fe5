"""Shared fixtures-in-code for the test suite: golden inputs, generators,
and the engine-free references: the slow randomized-order closure used as
the confluence reference, and the settledness and cycle checks.  The
references work on plain sets of (x, y) arcs and never import the closure
engine."""

from __future__ import annotations

import itertools
import random

from minmaxperm import (
    Permutation,
    Profile,
    validate_permutation,
)
from minmaxperm.profiles import Direction, KConstraint

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


def arc_set(arcs) -> set[tuple[int, int]]:
    """The (x, y) pairs of arcs given as (x, y, kind) triples, without
    self-loops, which never enter a closure."""
    return {(x, y) for x, y, _ in arcs if x != y}


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
        for bp in b_pairs:
            for side in (bp.plus, bp.minus):
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


def profile_restricted(F: Profile, k: int) -> Profile:
    """F with gaps above k dropped (for the refinement property)."""
    cons = {key: c for key, c in F.constraints.items() if key[1] <= k}
    return Profile(n=F.n, k=k, directed=F.directed, constraints=cons)

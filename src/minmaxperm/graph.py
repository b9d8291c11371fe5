"""Precedence digraph over {0..n+1} and the arc-propagation algorithms.

Arcs (x, y) assert "x lies left of y" in every permutation compatible with
the profile under construction.  Four rules create arcs:

  R   the given relative order of a consecutive pair,
  B   a betweenness fact (m and M sit between t and t+1),
  T   transitivity,
  NB  a non-betweenness fact: once an arc ties the top of an NB-constraint
      to one basis element, the same orientation is forced on the other.

The one graph type is `Closure`, an incremental engine: successor and
predecessor bitmasks kept transitively closed under arc insertion, with
the NB and B rules fired only by the pairs they watch and a cycle detected
at the insertion that closes it.  It is built from seed arcs (x, y, kind),
the NB facts as one bitmask of bases per top (`profiles.nb_masks`) and the
B pairs.

`root_closure` is the solvers' front end for either directedness: it gates
a profile, closes it into the search root, and reports the NB-constraints
and B pairs the root orients neither way as silent, all from one sweep
over the entries (the gate's check, the NB masks, the seeds); only the
silent NB-constraints become `NBRecord`s, and a silent B pair is its t.
The search copies the root's masks at each node before inserting the one
arc of a decision: the root holds every NB fact and watches every silent
B pair, so the NB and B rules add the rest of that arc's side.

Insertion suits a search node, which adds one arc to a closed parent.
The search root instead closes a whole profile at once (the 5n+5 R/B arcs
of a directed one, or the 2n+2 endpoint arcs and n+1 betweenness pairs
of an undirected one), and per-arc insertion there pays a row or column
update for every pair it derives, so the root is built in bulk passes
(`root_closure`: one depth-first walk that closes each row and
fires the NB row rule on it as it finishes, then the NB column rule on
the pairs with a changed row and the B rule on every open pair, until a
pass forces nothing; a later pass re-covers only the arcs whose heads'
rows grew; no pass reads a predecessor mask, so those are derived once,
at the end).  A directed root settles in a few passes; an undirected one
cascades inward from the pinned ends, and its passes grow with n
(medians over 20 random permutation profiles each: directed 2 at n = 32
and 3 at n = 150, undirected 7 and 14).  Only the B pairs the root
leaves silent get watch tables.

`to_dot` renders the full fixpoint instead (`_full_closure`), which runs
on through cycles and labels every pair with the rule that first derived
it.  It stays on insertion from the seeds: a directed profile's R/B arcs,
or the endpoint arcs plus the betweenness pairs, whose orientations
Arcs+/Arcs- propagate as a unit, of an undirected one.

`topo_order` reads the witness off a settled closure: Kahn's order with
the smallest free vertex first, walking the antichain of free vertices
as one mask.  Taking a free vertex can free only those of its successors
that no other free vertex reaches, and a descent through pred inside that
set finds the minimal ones, so no step rescans the vertices left.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CyclicGraph,
    InternalInconsistency,
    KMismatch,
    NotDirected,
    PreconditionViolation,
    ProfileValidationError,
    TooLarge,
)
from .profiles import (
    Direction,
    NBRecord,
    Permutation,
    Profile,
    fold_nb_buckets,
    nb_masks,
    validate_permutation,
    validate_profile,
)

# to_dot refuses a larger n before it closes anything: the full fixpoint
# keeps a kind for every closed pair and the dump has a line per pair, so
# both grow as n^2 (a directed random permutation's dump peaks at 45 MB
# resident at n = 500 and at 147 MB at n = 1,000).
DUMP_LIMIT = 1000


class ArcKind(enum.Enum):
    R = "R"
    B = "B"
    T = "T"
    NB = "NB"


Side = tuple[tuple[int, int], ...]


def _b_pair(t: int, m: int, M: int) -> tuple[Side, Side]:
    """The two sides of the betweenness fact (t, m, M) as arc sets: plus
    places t left of t+1 with m and M in between, minus the reverse.
    Self-loops from degenerate facts (m = t, M = t+1) and repeats are
    dropped."""
    plus = ((t, t + 1), (t, m), (t, M), (m, t + 1), (M, t + 1))
    minus = ((t + 1, t), (m, t), (M, t), (t + 1, m), (t + 1, M))
    return tuple(tuple(dict.fromkeys((x, y) for x, y in side if x != y)) for side in (plus, minus))


# ---------------------------------------------------------------------------
# Closure engine
# ---------------------------------------------------------------------------

Arc = tuple[int, int, ArcKind]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Closure:
    """A transitively closed arc set on {0..n+1} that grows by insertion.

    succ[x] holds the vertices x reaches and pred[y] the vertices reaching
    y, never x or y itself.  Inserting (x, y) ORs succ[y] | bit(y) into x
    and into every predecessor of x (incremental transitive closure,
    Italiano 1986).  The pairs this creates fire only the rules watching
    them: bit t of nb[a], the NB fact "a does not lie between t and t+1",
    watches a's row and column at t and t+1, and a B-pair side watches
    each of its arcs.  An insertion whose head already reaches its tail
    closes a cycle and sets `cyclic`.

    nb is empty (no NB facts) or holds one mask per vertex, as
    `profiles.nb_masks` gives them; the closure keeps its own copy.
    b_pairs holds the B pairs to watch, each as the (plus, minus) sides
    that `_b_pair` gives.  The seeds are arcs (x, y, kind): each keeps the
    kind it was given (the first, when it repeats), self-loops are
    dropped, and the seeds go to `add` in ascending (x, y) order, which
    fixes the kinds of the derived arcs.  By default the closure runs on
    to the full fixpoint, through cycles, and `kinds` maps every pair to
    the rule that first derived it (`_full_closure`, for `to_dot`).  A
    `search` closure stops at the first cycle and keeps no kinds; copies
    never carry kinds either, so a search node copies two lists of masks.

    The search root is not grown here: `root_closure` closes it in
    bulk passes, straight from the profile's entries, and hands back a
    search `Closure` with the same masks and watch tables for its silent
    B pairs only.  Its copies, the search nodes, grow by `add` like any
    other closure.
    """

    __slots__ = ("succ", "pred", "cyclic", "stop_at_cycle", "kinds",
                 "_nb", "_b_mask", "_b_sides")

    def __init__(self, n: int, seeds: Iterable[Arc] = (), nb: Sequence[int] = (),
                 b_pairs: Iterable[tuple[Side, Side]] = (), *, search: bool = False):
        V = n + 2
        self.succ = [0] * V
        self.pred = [0] * V
        self.cyclic = False
        self.stop_at_cycle = search
        first: dict[tuple[int, int], ArcKind] = {}
        for x, y, kind in seeds:
            if x != y:
                first.setdefault((x, y), kind)
        self.kinds = None if search else first
        self._nb = list(nb) if nb else [0] * V
        self._b_mask = [0] * V
        self._b_sides: dict[tuple[int, int], list[tuple[Arc, ...]]] = {}
        for pair in b_pairs:
            for side in pair:
                arcs = tuple((x, y, ArcKind.B) for x, y in side)
                for x, y in side:
                    self._b_mask[x] |= 1 << y
                    self._b_sides.setdefault((x, y), []).append(arcs)
        self.add([(x, y, kind) for (x, y), kind in sorted(first.items())])

    def copy(self) -> "Closure":
        c = Closure.__new__(Closure)
        c.succ = self.succ[:]
        c.pred = self.pred[:]
        c.cyclic = self.cyclic
        c.stop_at_cycle = self.stop_at_cycle
        c.kinds = None
        c._nb, c._b_mask, c._b_sides = self._nb, self._b_mask, self._b_sides
        return c

    def add(self, arcs: Iterable[Arc]) -> None:
        """Insert the arcs (x, y, kind) and propagate to the fixpoint, or,
        in a search closure, up to the first cycle."""
        succ, pred, kinds = self.succ, self.pred, self.kinds
        nb, b_mask, b_sides = self._nb, self._b_mask, self._b_sides
        todo = list(arcs)
        while todo:
            x, y, kind = todo.pop()
            if x == y or succ[x] >> y & 1:
                continue
            if succ[y] >> x & 1:
                self.cyclic = True
                if self.stop_at_cycle:
                    return
            if kinds is not None:
                kinds.setdefault((x, y), kind)
            # only vertices that did not yet reach y gain anything, and only
            # vertices x did not yet reach gain predecessors
            heads = succ[y] | 1 << y
            tails = pred[x] | 1 << x
            gainers = tails & ~pred[y]
            gained = heads & ~succ[x]
            while gainers:
                low = gainers & -gainers
                gainers ^= low
                p = low.bit_length() - 1
                row = succ[p]
                new = heads & ~row & ~low
                row |= new
                succ[p] = row
                if kinds is not None:
                    for q in _bits(new):
                        kinds.setdefault((p, q), ArcKind.T)
                sides = new & b_mask[p]
                if sides:
                    for q in _bits(sides):
                        for side in b_sides[(p, q)]:
                            todo.extend(side)
                bases = nb[p]
                if bases:
                    forced = ((row & bases) << 1 | (row >> 1) & bases) & ~row
                    if forced:
                        todo.extend((p, q, ArcKind.NB) for q in _bits(forced))
            while gained:
                low = gained & -gained
                gained ^= low
                q = low.bit_length() - 1
                col = pred[q] | tails & ~low
                pred[q] = col
                bases = nb[q]
                if bases:
                    forced = ((col & bases) << 1 | (col >> 1) & bases) & ~col
                    if forced:
                        todo.extend((p, q, ArcKind.NB) for p in _bits(forced))

    def arcs(self) -> list[Arc]:
        """The arcs (x, y, kind) by ascending (x, y); only a full-fixpoint
        closure has them, since search closures and copies keep no kinds."""
        return [(x, y, self.kinds[(x, y)]) for x, row in enumerate(self.succ) for y in _bits(row)]


def _pred_masks(arcs: list[int], order: list[int]) -> list[int]:
    """The transpose of the arc rows `arcs`, closed along `order`, a walk's
    finishing order: in reverse, a column ORs in the closed columns of the
    tails it does not yet cover.  An empty order leaves it unclosed."""
    pred = [0] * len(arcs)
    for x, heads in enumerate(arcs):
        bit = 1 << x
        while heads:
            low = heads & -heads
            pred[low.bit_length() - 1] |= bit
            heads ^= low
    for v in reversed(order):
        col = todo = pred[v]
        while todo:
            low = todo & -todo
            above = pred[low.bit_length() - 1]
            col |= above
            todo = (todo ^ low) & ~above
        pred[v] = col
    return pred


def _side_rows(a: int, b: int, m: int, M: int) -> tuple[tuple[int, int], ...]:
    """The side of the betweenness fact (t, m, M) that puts a left of b,
    {a, b} = {t, t+1}, as (x, mask of heads) pairs: a -> {b, m, M} and
    {m, M} -> b, self-loops dropped (the masks of `_b_pair`'s arcs)."""
    return ((a, (1 << b | 1 << m | 1 << M) & ~(1 << a)),
            *((v, 1 << b) for v in (m, M) if v != a and v != b))


class RootClosure(NamedTuple):
    """A profile's search root and the constraints it leaves silent: the
    NB records and B pairs (undirected profiles only) whose two ends no arc
    joins, a B pair as its t (ascending), the pair {t, t+1}.
    `closure.cyclic` is the verdict NO, with nothing silent."""

    closure: Closure
    silent_nb: tuple[NBRecord, ...]
    silent_b: tuple[int, ...]


def root_closure(F: Profile) -> RootClosure:
    """Gate a gap-1 profile of either directedness and close it into the
    search root, the solvers' starting node: its closure under T, NB and,
    for an undirected profile, B, built in bulk passes instead of arc by
    arc, and the NB records and B pairs it leaves silent.

    One sweep over the entries checks each against the gate's condition,
    (t > 0) <= m <= t < M <= n + (t == n), no `?` and the boundary entries
    left to right if directed (on a failure, the gate raises its error),
    buckets it for the NB masks, sets tops[t] to the values outside
    [m, M], and seeds the successor masks: tl -> {tr, m, M} and
    {m, M} -> tr for a directed entry, a pair to decide for an undirected
    one, whose only seeds are the pinned endpoints.  A second mask list,
    `arcs`, holds the seeds and every arc a rule forces.  A pass is one
    depth-first walk that closes each row as it finishes, since no
    ancestor of a row finishes before it: the row ORs in the rows of its
    arcs' heads, all finished, then fires the NB row rule (row p gains t+1
    when it holds t and bit t of nb[p] is set, or the reverse).  A forced
    head that has finished is ORed in and the row closed again; one not
    yet visited makes the walk descend into it first; one still on the
    stack closes a cycle.  Every pass leaves every row closed, so a later
    pass ORs in only the heads whose rows grew since (in the walk or a
    sweep), and all of a row's heads only when that row itself grew.  The
    column rule then gives succ[t+1] the bits of succ[t] & tops[t] and
    succ[t] those of succ[t+1] & tops[t], tested only where row t or t+1
    changed (in the walk or a sweep) since the last test.  Then a B pair
    still open with any arc of a side present gains that whole side and
    leaves the open list.  Passes repeat until these sweeps force nothing.
    No pass reads a predecessor mask: `_pred_masks` derives them once, at
    the end, from `arcs` and the last pass's order.

    The pairs still open then join t and t+1 neither way, so they are the
    silent ones, and only they get watch tables: a decided pair's side is
    present at every node below the root, and an arc of its other side is
    the reverse of one of those, a cycle that insertion catches anyway.
    The silent bases of a top are its NB mask less its successor and
    predecessor masks.  A cycle met in some pass sets `cyclic` and ends the
    closure, with the masks partly closed, as a per-arc search closure
    leaves them at its first cycle, and nothing silent.
    """
    n, directed, cons = F.n, F.directed, F.constraints
    V = n + 2
    full = (1 << V) - 1
    ltr = Direction.LEFT_TO_RIGHT
    bad_dir = Direction.UNKNOWN if directed else None  # undirected: all `?`
    ok = F.k == 1 and (not directed or cons[(0, 1)].dir is cons[(n, 1)].dir is ltr)
    tops = [0] * (V - 1)
    by_m, by_after_M = [0] * (V + 1), [0] * (V + 1)
    if directed:
        succ = [0] * V
    else:
        succ = [full ^ 1] + [1 << V - 1] * (V - 2) + [0]
    pending = []
    for t in range(V - 1) if ok else ():
        c = cons[(t, 1)]
        m, M = c.m, c.M
        if c.dir is bad_dir or not (t > 0) <= m <= t < M <= n + (t == n):
            ok = False
            break
        by_m[m] |= 1 << t
        by_after_M[M + 1] |= 1 << t
        tops[t] = full ^ ((2 << M) - (1 << m))
        if not directed:
            pending.append((c, _side_rows(t, t + 1, m, M), _side_rows(t + 1, t, m, M)))
            continue
        tl, tr = (t, t + 1) if c.dir is ltr else (t + 1, t)
        rb = 1 << tr
        succ[tl] |= 1 << m | 1 << M | rb
        succ[m] |= rb
        succ[M] |= rb
    if not ok:
        require_solver_profile(F)
        raise InternalInconsistency("the root's entry check rejected a profile the gate passes")
    nb = fold_nb_buckets(by_m, by_after_M)
    if directed:
        succ = [row & ~(1 << v) for v, row in enumerate(succ)]
    arcs = succ[:]  # the seeds and every arc a rule forces
    changed = full
    while True:
        seen = done = 0
        order = []
        for start in range(V):
            if seen >> start & 1:
                continue
            seen |= 1 << start
            stack = [start]
            while stack:
                v = stack[-1]
                row = succ[v]
                fresh = row & ~seen
                if fresh:
                    low = fresh & -fresh
                    seen |= low
                    stack.append(low.bit_length() - 1)
                    continue
                if row & ~done:  # a successor still on the stack
                    root = Closure(n, nb=nb, search=True)
                    root.succ, root.pred, root.cyclic = succ, _pred_masks(arcs, []), True
                    return RootClosure(root, (), ())
                # every successor has finished: OR in the rows of the arc
                # heads that grew since v was closed (all if v grew), then
                # of the NB-forced heads, until the row forces nothing; a
                # forced head not yet finished sends v back to the walk
                bases = nb[v]
                todo = arcs[v] if changed >> v & 1 else arcs[v] & changed
                while todo:
                    low = todo & -todo
                    below = succ[low.bit_length() - 1]
                    row |= below
                    todo = (todo ^ low) & ~below
                    if not todo and bases:
                        todo = ((row & bases) << 1 | (row >> 1) & bases) & ~row
                        row |= todo
                        arcs[v] |= todo
                        if todo & ~done:
                            break
                changed |= (row != succ[v]) << v
                succ[v] = row
                if todo:
                    continue
                done |= 1 << v
                order.append(v)
                stack.pop()
        forced = False
        dirty, changed = changed, 0  # from here on, rows forced by the sweeps
        for t, top in enumerate(tops):
            if not (dirty | changed) >> t & 3:
                continue
            for a, b in ((t, t + 1), (t + 1, t)):
                new = succ[a] & top & ~succ[b]
                if new:
                    succ[b] |= new
                    arcs[b] |= new
                    changed |= 1 << b
                    forced = True
        still_open = []
        for pair in pending:
            decided = False
            for side in pair[1:]:
                for x, heads in side:
                    if succ[x] & heads:
                        break
                else:
                    continue
                decided = True
                for x, heads in side:
                    new = heads & ~succ[x]
                    if new:
                        succ[x] |= new
                        arcs[x] |= new
                        changed |= 1 << x
                        forced = True
            if not decided:
                still_open.append(pair)
        pending = still_open
        if not forced:
            break
    root = Closure(n, nb=nb, b_pairs=[_b_pair(c.t, c.m, c.M) for c, _, _ in pending],
                   search=True)
    root.succ = succ
    root.pred = pred = _pred_masks(arcs, order)
    silent = sorted((t, a) for a, bases in enumerate(nb)
                    for t in _bits(bases & ~(succ[a] | pred[a])))
    return RootClosure(root, tuple(NBRecord(basis=(t, t + 1), top=a) for t, a in silent),
                       tuple(c.t for c, _, _ in pending))


# ---------------------------------------------------------------------------
# Topological order
# ---------------------------------------------------------------------------

def topo_order(closure: Closure) -> Permutation:
    """The topological order of an acyclic closure that takes the smallest
    free vertex first (Kahn's order with a min-heap), as a Permutation.

    The closure must be closed: succ and pred transitively closed, as
    every closure without a cycle is.  The free vertices, the minimal ones
    of what is left, form an antichain kept as one mask.  Taking its
    lowest vertex v can free only successors of v that no other free
    vertex reaches, and among those candidates the newly free ones are the
    minimal ones, each found by descending pred inside the candidate set.
    That costs O(V * (width + descent)) mask steps, not a rescan of every
    vertex left at every step.

    Raises CyclicGraph on a cyclic closure, up front, since a descent
    would circle for ever there, and whenever the order comes out short.
    The order starts with 0 and ends with n+1 whenever the graph's
    constraints pin them there, which is the case for every graph the
    solvers produce.
    """
    if closure.cyclic:
        raise CyclicGraph("graph has a directed cycle; no topological order")
    succ, pred = closure.succ, closure.pred
    free = 0
    for v, above in enumerate(pred):
        if not above:
            free |= 1 << v
    order = []
    for _ in range(len(pred)):
        if not free:
            raise CyclicGraph("graph has a directed cycle; no topological order")
        low = free & -free
        free ^= low
        v = low.bit_length() - 1
        order.append(v)
        cand = succ[v]
        rest = free
        while rest and cand:
            b = rest & -rest
            rest ^= b
            cand &= ~succ[b.bit_length() - 1]
        while cand:
            w = (cand & -cand).bit_length() - 1
            below = pred[w] & cand
            while below:
                w = (below & -below).bit_length() - 1
                below = pred[w] & cand
            free |= 1 << w
            cand &= ~(succ[w] | 1 << w)
    return validate_permutation(order)


# ---------------------------------------------------------------------------
# Solver front end
# ---------------------------------------------------------------------------

def require_solver_profile(F: Profile) -> None:
    """The hard gate run before any solver: structural validity plus, for
    a directed profile, full directionality with the boundary pairs running
    left-to-right (0 and n+1 are pinned to the outermost places, so any
    other boundary direction admits no permutation and is rejected)."""
    if F.k != 1:
        raise KMismatch(f"solvers operate on gap-1 profiles, got k={F.k}")
    violations = validate_profile(F)
    if violations:
        raise ProfileValidationError(violations)
    if F.directed:
        if any(c.dir is Direction.UNKNOWN for c in F.entries()):
            raise NotDirected("directed profile has entries with unknown direction")
        if F.entry(0).dir is not Direction.LEFT_TO_RIGHT \
                or F.entry(F.n).dir is not Direction.LEFT_TO_RIGHT:
            raise PreconditionViolation(
                "entries (0,1) and (n,n+1) must run left-to-right: "
                "0 and n+1 occupy the outermost places")


def _full_closure(F: Profile) -> Closure:
    """Gate a gap-1 profile and close it arc by arc to the full fixpoint,
    through cycles, with every pair labelled by the rule that first
    derived it.  A directed profile is seeded with the R-arc and four
    B-arcs of each entry, an undirected one with what the pinned endpoints
    give (0 before everything, everything before n+1) and watches every
    betweenness pair."""
    require_solver_profile(F)
    n = F.n
    if F.directed:
        seeds, pairs = [], []
        for c in F.entries():
            t = c.t
            tl, tr = (t, t + 1) if c.dir is Direction.LEFT_TO_RIGHT else (t + 1, t)
            seeds.append((tl, tr, ArcKind.R))
            for x, y in ((tl, c.m), (c.m, tr), (tl, c.M), (c.M, tr)):
                seeds.append((x, y, ArcKind.B))
    else:
        seeds = ([(0, x, ArcKind.R) for x in range(1, n + 2)]
                 + [(x, n + 1, ArcKind.R) for x in range(0, n + 1)])
        pairs = [_b_pair(c.t, c.m, c.M) for c in F.entries()]
    return Closure(n, seeds, nb_masks(F), pairs)


def to_dot(F: Profile) -> str:
    """DOT rendering of a gap-1 profile's full fixpoint (`_full_closure`),
    each arc labelled by the rule that first derived it (debug dumps);
    TooLarge for n above DUMP_LIMIT."""
    if F.n > DUMP_LIMIT:
        raise TooLarge(f"n={F.n} exceeds the graph dump limit {DUMP_LIMIT}")
    G = _full_closure(F)
    lines = ["digraph precedence {"]
    for v in range(len(G.succ)):
        lines.append(f"  {v};")
    for x, y, kind in G.arcs():
        lines.append(f'  {x} -> {y} [label="{kind.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Precedence digraph over {0..n+1} and the arc-propagation algorithms.

Arcs (x, y) assert "x lies left of y" in every permutation compatible with
the profile under construction.  Four rules create arcs:

  R   the given relative order of a consecutive pair,
  B   a betweenness fact (m and M sit between t and t+1),
  T   transitivity,
  NB  a non-betweenness fact: once an arc ties the top of an NB-constraint
      to one basis element, the same orientation is forced on the other.

`build_easy_arcs` seeds R/B arcs from a directed profile and closes under
T/NB; NB-constraints that the closure orients neither way are reported as
silent.  The undirected pipeline also feeds the closure betweenness pairs
whose orientations (the arc sets Arcs+/Arcs-) propagate as a unit.

The one graph type is `Closure`, an incremental engine: successor and
predecessor bitmasks kept transitively closed under arc insertion, with
the NB and B rules fired only by the pairs they watch and a cycle detected
at the insertion that closes it.  It is built from seed arcs, given as
(x, y, kind) lists (`easy_arc_seeds`, `endpoint_arcs`), and lists its arcs
back with their kinds for `to_dot`.  `_solver_root` is the one front end
that gates, seeds and closes a profile's root, for either directedness:
`build_easy_arcs` and `solvers.undirected_base` take it to the fixpoint,
the solvers as a search root whose masks the search copies at each node
before inserting the arcs of one decision.  `topo_order` reads an order
off a closure's predecessor masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CyclicGraph,
    KMismatch,
    NotDirected,
    PreconditionViolation,
    ProfileValidationError,
)
from .profiles import (
    Direction,
    NBRecord,
    Permutation,
    Profile,
    nb_records,
    validate_permutation,
    validate_profile,
)


class ArcKind(enum.Enum):
    R = "R"
    B = "B"
    T = "T"
    NB = "NB"


@dataclass(frozen=True)
class EasyArcsResult:
    """The full-fixpoint closure of a directed profile's seeds and the
    NB-constraints it leaves silent; `graph.cyclic` is the verdict NO."""

    graph: Closure
    silent: tuple[NBRecord, ...]


@dataclass(frozen=True)
class BArcPair:
    """The two orientations of one betweenness pair, as concrete arc sets.

    plus places t left of t+1 (with m, M in between), minus the reverse.
    Self-loops from degenerate facts (m = t, M = t+1) are already dropped.
    """

    t: int
    plus: tuple[tuple[int, int], ...]
    minus: tuple[tuple[int, int], ...]


def _loop_free(arcs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    seen = []
    for x, y in arcs:
        if x != y and (x, y) not in seen:
            seen.append((x, y))
    return tuple(seen)


def b_arc_pairs(F: Profile) -> list[BArcPair]:
    """Arcs+/Arcs- for every entry of a gap-1 profile, ascending t."""
    if F.k != 1:
        raise KMismatch(f"B/NB decomposition is defined for k=1, got k={F.k}")
    out = []
    for c in F.entries():
        t, m, M = c.t, c.m, c.M
        plus = _loop_free([(t, t + 1), (t, m), (t, M), (m, t + 1), (M, t + 1)])
        minus = _loop_free([(t + 1, t), (m, t), (M, t), (t + 1, m), (t + 1, M)])
        out.append(BArcPair(t=t, plus=plus, minus=minus))
    return out


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
    them: an NB record (a, (t, t+1)) watches a's row and column at t and
    t+1, and a B-pair side watches each of its arcs.  An insertion whose
    head already reaches its tail closes a cycle and sets `cyclic`.

    The seeds are arcs (x, y, kind): each keeps the kind it was given (the
    first, when it repeats), self-loops are dropped, and the seeds go to
    `add` in ascending (x, y) order, which fixes the kinds of the derived
    arcs.  By default the closure runs on to the full fixpoint, through cycles, and
    `kinds` maps every pair to the rule that first derived it.  A `search`
    closure stops at the first cycle and keeps no kinds; copies never
    carry kinds either, so a search node copies two lists of masks.
    """

    __slots__ = ("succ", "pred", "cyclic", "stop_at_cycle", "kinds",
                 "_nb", "_b_mask", "_b_sides")

    def __init__(self, n: int, seeds: Iterable[Arc] = (), records: Sequence[NBRecord] = (),
                 b_pairs: Sequence[BArcPair] = (), *, search: bool = False):
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
        # _nb[a] has bit t for every NB record (a, (t, t+1))
        self._nb = [0] * V
        for rec in records:
            self._nb[rec.top] |= 1 << rec.basis[0]
        self._b_mask = [0] * V
        self._b_sides: dict[tuple[int, int], list[tuple[Arc, ...]]] = {}
        for bp in b_pairs:
            for side in (bp.plus, bp.minus):
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

    def linked(self, x: int, y: int) -> bool:
        """Whether an arc joins x and y in either direction."""
        return bool(self.succ[x] >> y & 1 or self.succ[y] >> x & 1)

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


# ---------------------------------------------------------------------------
# Topological order
# ---------------------------------------------------------------------------

def topo_order(incoming: Sequence[int]) -> Permutation:
    """Topological order, smallest vertex first among the free ones, of the
    graph whose vertex v has in-neighbour mask incoming[v] (a closure's
    `pred` serves as it is), as a Permutation.

    Raises CyclicGraph when no order exists.  The order starts with 0 and
    ends with n+1 whenever the graph's constraints pin them there, which is
    the case for every graph the solvers produce.
    """
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


# ---------------------------------------------------------------------------
# Solver front end
# ---------------------------------------------------------------------------

def require_solver_profile(F: Profile, *, directed: bool) -> None:
    """The hard gate run before any solver: structural validity plus, for
    directed inputs, full directionality with the boundary pairs running
    left-to-right (0 and n+1 are pinned to the outermost places, so any
    other boundary direction admits no permutation and is rejected)."""
    if F.k != 1:
        raise KMismatch(f"solvers operate on gap-1 profiles, got k={F.k}")
    violations = validate_profile(F)
    if violations:
        raise ProfileValidationError(violations)
    if directed:
        if not F.directed:
            raise NotDirected("profile is undirected")
        if any(c.dir is Direction.UNKNOWN for c in F.entries()):
            raise NotDirected("directed profile has entries with unknown direction")
        if F.entry(0).dir is not Direction.LEFT_TO_RIGHT \
                or F.entry(F.n).dir is not Direction.LEFT_TO_RIGHT:
            raise PreconditionViolation(
                "entries (0,1) and (n,n+1) must run left-to-right: "
                "0 and n+1 occupy the outermost places")
    else:
        if F.directed:
            raise PreconditionViolation("expected an undirected profile")


def easy_arc_seeds(F: Profile) -> list[Arc]:
    """The R- and B-arcs a directed gap-1 profile states, entry by entry
    (unclosed; B-arcs that are self-loops included)."""
    out = []
    for c in F.entries():
        t = c.t
        tl, tr = (t, t + 1) if c.dir is Direction.LEFT_TO_RIGHT else (t + 1, t)
        out.append((tl, tr, ArcKind.R))
        for x, y in ((tl, c.m), (c.m, tr), (tl, c.M), (c.M, tr)):
            out.append((x, y, ArcKind.B))
    return out


def endpoint_arcs(n: int) -> list[Arc]:
    """Only what the pinned endpoints give: 0 before everything,
    everything before n+1 (the undirected pipeline's seeds)."""
    return ([(0, x, ArcKind.R) for x in range(1, n + 2)]
            + [(x, n + 1, ArcKind.R) for x in range(0, n + 1)])


def _solver_root(F: Profile, *, directed: bool, search: bool) -> tuple[
        Closure, list[NBRecord], list[BArcPair], list[NBRecord], list[BArcPair]]:
    """A profile's root closure, a search root for the solvers and the full
    fixpoint for `build_easy_arcs` and `solvers.undirected_base`: the gate,
    the seeds (a directed profile's R/B arcs, or the endpoint arcs plus the
    betweenness pairs of an undirected one), their closure, and the split
    of the constraints.

    Returns (closure, nb_records, b_pairs, silent_nb, silent_b).  A search
    root stops at its first cycle, so when it is cyclic nothing is reported
    silent; a full-fixpoint root always reports its silent sets.
    """
    require_solver_profile(F, directed=directed)
    records = nb_records(F)
    if directed:
        seeds, pairs = easy_arc_seeds(F), []
    else:
        seeds, pairs = endpoint_arcs(F.n), b_arc_pairs(F)
    root = Closure(F.n, seeds, records, pairs, search=search)
    if search and root.cyclic:
        return root, records, pairs, [], []
    silent_nb = [r for r in records if not root.linked(r.top, r.basis[0])]
    silent_b = [bp for bp in pairs if not root.linked(bp.t, bp.t + 1)]
    return root, records, pairs, silent_nb, silent_b


def build_easy_arcs(F: Profile) -> EasyArcsResult:
    """Seed R- and B-arcs from a directed gap-1 profile, close them under
    the T/NB rules to the full fixpoint, and report the NB-constraints left
    silent.

    The closure and silent set are returned whether or not the closure has
    a directed cycle; `graph.cyclic` tells which.
    """
    root, _, _, silent, _ = _solver_root(F, directed=True, search=False)
    return EasyArcsResult(graph=root, silent=tuple(silent))


def to_dot(G: Closure) -> str:
    """DOT rendering of a full-fixpoint closure with the arc kind as edge
    label (debug dumps)."""
    lines = ["digraph precedence {"]
    for v in range(len(G.succ)):
        lines.append(f"  {v};")
    for x, y, kind in G.arcs():
        lines.append(f'  {x} -> {y} [label="{kind.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Solvers for profile satisfiability: linear, FPT, undirected, brute force,
and uniqueness by the brute-force oracle.

The three structured solvers run one depth-first branch-and-propagate
search.  Its root, `graph.root_closure(F)`, is the closure of the arcs a
profile states; a node adds one orientation of an open silent
constraint of that root to its parent's closure and propagates it
incrementally, a node whose closure hits a cycle is pruned, and a node
with no open constraint left yields a witness read off a topological
order.  The search keeps an explicit stack, so its depth is not bounded
by Python's recursion limit; its worst case stays 2^s nodes
for s silent constraints (betweenness is NP-complete), but propagation
settles most constraints without a branch.  The search walks one ordered
list of choices with a cursor.  A choice is the tuple of arcs a silent
constraint may add, one per orientation in the order they are tried: a
B pair's (t, t+1) and (t+1, t), an NB record's (a, t) and (t, a).  It is
open while no arc joins the ends of its first arc either way.  A node
branches on the first open choice, one child per arc, and its children
resume after it.  A child adds its one arc and the closure's own rules
add the rest of that orientation: the root watches every silent B pair,
whose side an arc between t and t+1 brings in whole, and holds every NB
fact, whose rules copy an arc between a and t to a and t+1.  The linear
solver is the same search, with its choices in the paper's order and one
arc each; it never backtracks on a linear profile.

A returned witness is always re-verified against the input profile
before being handed out: `verify` checks each entry's min, max and
direction against the witness's segment between t and t+i, which is what
recomputing the witness's profile and comparing it would decide, without
building that profile.  A verification failure on a fully settled
acyclic graph is impossible by construction and raises
InternalInconsistency rather than leaking a bad answer.

The brute-force oracle is independent of the precedence machinery: it
reads only the profile's entries and builds permutations left to right in
plain Python, dropping a prefix as soon as an entry rules out every
extension of it.  `is_unique` classifies a profile by the oracle's first
two solutions.
Nothing here loads numpy.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .errors import (
    InternalInconsistency,
    MismatchedN,
    NotDirected,
    NotLinear,
    PreconditionViolation,
    TooLarge,
)
from .graph import Arc, ArcKind, Closure, root_closure, topo_order
from .profiles import (
    Direction,
    NBRecord,
    Permutation,
    Profile,
    is_linear,
    nb_set,
)

# The oracle's work budget: the most any n <= 9 profile can cost (986,410
# prefixes of 1..9, each walking at most V = 11 candidates, and 9! rows,
# each costing 11), so no answer the former n cap of 9 gave can change.
ORACLE_WORK = 11 * (986_410 + 362_880)

_SIDE = {Direction.LEFT_TO_RIGHT: 1, Direction.RIGHT_TO_LEFT: -1, Direction.UNKNOWN: 0}


class SolveOutcome(NamedTuple):
    """Witness permutation, or None for the verdict No, plus diagnostics.

    silent_nb and silent_b are the constraints the root closure leaves
    open (empty when that closure already has a cycle); settings_tested
    counts the search nodes visited, the root included.
    """

    witness: Permutation | None
    silent_nb: tuple[NBRecord, ...] = ()
    silent_b: tuple[int, ...] = ()
    settings_tested: int = 0

    @property
    def is_no(self) -> bool:
        return self.witness is None


def verify(P: Permutation, F: Profile) -> bool:
    """Whether P's profile at F's span and directedness is F, that is
    `compute_profile(P, F.k, F.directed) == F`, checked entry by entry:
    each entry's m and M against the min and max of P's segment between
    t and t+i and, in a directed F, its direction against theirs (an
    Unknown direction never matches).  Stops at the first mismatch."""
    if P.n != F.n:
        raise MismatchedN(f"permutation has n={P.n}, profile n={F.n}")
    pos, elems, directed = P.positions(), P.elems, F.directed
    for c in F.constraints.values():
        a, b = pos[c.t], pos[c.t + c.i]
        if a < b:
            if directed and c.dir is not Direction.LEFT_TO_RIGHT:
                return False
            seg = elems[a:b + 1]
        else:
            if directed and c.dir is not Direction.RIGHT_TO_LEFT:
                return False
            seg = elems[b:a + 1]
        if min(seg) != c.m or max(seg) != c.M:
            return False
    return True


def brute_force_solutions(F: Profile) -> list[Permutation]:
    """Every permutation whose profile equals F, in lexicographic order;
    TooLarge past ORACLE_WORK, since a profile whose entries constrain
    little can have on the order of n! solutions or surviving prefixes."""
    return list(_solutions(F))


def _solutions(F: Profile) -> Iterator[Permutation]:
    """The permutations whose profile equals F, in lexicographic order, one
    at a time; TooLarge once its work, the length of the candidate range of
    each prefix it pops and V per finished row, exceeds ORACLE_WORK.

    A depth-first search over prefixes: position j takes every value still
    free in ascending order (n+1 only at the last position), and a prefix
    is dropped as soon as no extension of it can match, that is when
    (a) a slot with both ends placed has the wrong segment min, max or
        direction;
    (b) a slot with exactly one end placed has a value placed after that
        end outside [m, M];
    (c) a slot's end that must lie on the right is placed while the other
        end is not;
    (d) a slot's m or M is already placed when its first end is placed.
    An Unknown direction skips the direction checks for that slot.  Each
    slot is checked in full by (a) when its second end is placed, so a
    complete row survives exactly when its profile equals F.  The window
    of (b), the intersection of the open slots' [m, M], is narrowed when a
    slot opens and kept when one closes, unless that slot's m or M sits at
    a bound: only then is it recomputed.  The search keeps an explicit
    stack, so its depth is not bounded by the recursion limit.
    """
    V = F.n + 2
    # ends[v] holds (other end, m, M, side) for each slot with v as an end;
    # side is +1 when v must lie right of the other end, -1 when left, 0
    # when the slot records no direction
    ends: list[list[tuple[int, int, int, int]]] = [[] for _ in range(V)]
    for c in F.constraints.values():
        t, u = c.t, c.t + c.i
        # a slot's segment holds both its ends and only values of 0..n+1
        if not (0 <= c.m <= t and u <= c.M < V):
            return
        side = _SIDE[c.dir]
        ends[t].append((u, c.m, c.M, -side))
        ends[u].append((t, c.m, c.M, side))
    row, pos = [0] * V, [-1] * V  # pos[v] is -1 while v is free

    def window(placed):
        """The window (lo, hi) of (b) over the slots with exactly one end
        among the placed values and a slot [0, n+1] that never closes."""
        lo, hi = 0, V - 1
        for p in placed:
            for o, m, M, _ in ends[p]:
                if pos[o] < 0:
                    if m > lo:
                        lo = m
                    if M < hi:
                        hi = M
        return lo, hi

    # (j, v, lo, hi) of each prefix still to extend: row[:j] with v
    # appended, v having passed every prune; value 0 opens its slots
    # unchecked, as (a) checks them in full later
    pos[0] = 0
    stack = [(0, 0, *window([0]))]
    depth, left = 0, ORACLE_WORK
    while stack:
        j, v, lo, hi = stack.pop()
        while depth > j:
            depth -= 1
            pos[row[depth]] = -1
        row[j], pos[v], depth = v, j, j + 1
        # (b), and n+1 only at the last position
        top = min(hi, V - 1 if depth == V - 1 else V - 2)
        left -= V if depth == V else top - lo + 1 if top >= lo else 0
        if left < 0:
            raise TooLarge(f"n={F.n}: the search exceeds the oracle's work budget {ORACLE_WORK}")
        if depth == V:
            yield Permutation(n=F.n, elems=tuple(row))
            continue
        for w in range(top, lo - 1, -1):
            if pos[w] >= 0:
                continue
            pos[w] = depth
            # the window after w: a slot w opens narrows it, one w closes
            # leaves it, unless its m or M sits at a bound (recompute)
            wlo, whi, stale = lo, hi, False
            for o, m, M, side in ends[w]:
                q = pos[o]
                if q >= 0:
                    # (a): by (b) every value between the ends lies in
                    # [m, M], so the min is m and the max M when both sit
                    # at positions q..depth
                    if side < 0 or pos[m] < q or pos[M] < q:
                        break
                    if m == wlo or M == whi:
                        stale = True
                elif side > 0 or -1 < pos[m] < depth or -1 < pos[M] < depth:  # (c), (d)
                    break
                else:
                    if m > wlo:
                        wlo = m
                    if M < whi:
                        whi = M
            else:
                if stale:
                    wlo, whi = window(row[:depth] + [w])
                stack.append((depth, w, wlo, whi))
            pos[w] = -1


class UniquenessReport(NamedTuple):
    """Uniqueness of one profile: unique witness, a collision pair, or empty."""

    n: int
    k: int
    directed: bool
    verdict: str  # "unique" | "collision" | "empty"
    witnesses: tuple[Permutation, ...]


def is_unique(F: Profile) -> UniquenessReport:
    """Classify F by the cardinality of its exhaustive solution set, read
    from the oracle's search only up to its second solution (or TooLarge)."""
    sols = list(islice(_solutions(F), 2))
    if not sols:
        verdict, witnesses = "empty", ()
    elif len(sols) == 1:
        verdict, witnesses = "unique", (sols[0],)
    else:
        verdict, witnesses = "collision", (sols[0], sols[1])
    return UniquenessReport(n=F.n, k=F.k, directed=F.directed,
                            verdict=verdict, witnesses=witnesses)


# ---------------------------------------------------------------------------
# Branch-and-propagate search
# ---------------------------------------------------------------------------

def _search(root: Closure, choices: list[tuple[Arc, ...]],
            F: Profile, context: str) -> tuple[Permutation | None, int]:
    """Depth-first search from a closed root; returns (witness or None,
    nodes visited).  A node branches on the first open choice at or after
    its parent's, one child per arc in the order of its arcs, and its
    children resume after it: the choices it skips stay joined, since a
    closure only grows along a path, and so does the one it decided."""
    stack: list[tuple[Closure, Arc | None, int]] = [(root, None, 0)]
    nodes = 0
    while stack:
        node, arc, i = stack.pop()
        nodes += 1
        if arc:
            node = node.copy()
            node.add((arc,))
        if node.cyclic:
            continue
        succ = node.succ
        while i < len(choices):
            choice = choices[i]
            x, y, _ = choice[0]
            if not (succ[x] >> y & 1 or succ[y] >> x & 1):
                break
            i += 1
        else:
            w = topo_order(node)
            if not verify(w, F):
                raise InternalInconsistency(
                    f"{context}: topological order {w} does not reproduce the profile")
            return w, nodes
        for arc in reversed(choice):
            stack.append((node, arc, i + 1))
    return None, nodes


def solve_linear(F: Profile) -> SolveOutcome:
    """Polynomial decision procedure for directed linear gap-1 profiles.

    The search with its choices in the paper's order: the silent records
    sorted by NB-set size of the top (largest first), then top, then
    basis, each with its basis-first arc (t, a) only, whose column rule
    adds (t+1, a).  The first open choice then sets the open top with the
    largest NB set (ties: smallest top) after its smallest open basis.
    Linearity guarantees no cycle ever appears after a clean root, so the
    search visits one node per decision plus the root; with one arc per
    choice, a cycle after a clean root ends it with no witness, which
    raises InternalInconsistency.
    """
    if not F.directed:
        raise NotDirected("the linear solver needs a directed profile")
    if not is_linear(F):
        raise NotLinear("profile intervals do not form an inclusion chain")
    root, silent, _ = root_closure(F)
    nb_size = {top: len(nb_set(F, top)) for top in {r.top for r in silent}}
    order = sorted(silent, key=lambda r: (-nb_size[r.top], r.top, r.basis))
    choices = [((r.basis[0], r.top, ArcKind.NB),) for r in order]
    w, nodes = _search(root, choices, F, "linear solver")
    if w is None and not root.cyclic:
        raise InternalInconsistency("linear solver: a decision produced a cycle")
    return SolveOutcome(witness=w, silent_nb=silent, settings_tested=nodes)


def _solve_search(F: Profile, context: str) -> SolveOutcome:
    """The FPT search of either directedness: silent B pairs first (a
    directed root has none), plus side (t left of t+1) first, then silent
    NB records, top first (top left of t and t+1) before basis first."""
    root, silent_nb, silent_b = root_closure(F)
    b, nb = ArcKind.B, ArcKind.NB
    choices = [((t, t + 1, b), (t + 1, t, b)) for t in silent_b]
    choices += [((r.top, r.basis[0], nb), (r.basis[0], r.top, nb)) for r in silent_nb]
    w, nodes = _search(root, choices, F, context)
    return SolveOutcome(witness=w, silent_nb=silent_nb, silent_b=silent_b,
                        settings_tested=nodes)


def solve_fpt_directed(F: Profile) -> SolveOutcome:
    """Exact solver for directed gap-1 profiles: search over the
    orientations of the silent NB-constraints, top-first before
    basis-first, first open constraint in (basis, top) order.

    The first acyclic node with every constraint settled yields the
    witness; if the search exhausts, the answer is No.
    """
    if not F.directed:
        raise NotDirected("the FPT solver needs a directed profile")
    return _solve_search(F, "FPT solver")


def solve_undirected(F: Profile, method: str = "fpt") -> SolveOutcome:
    """Solver for undirected gap-1 profiles.

    The only method, "fpt", runs the generalized pipeline: no R/B arcs
    exist up front, so the closure engine also propagates betweenness pairs
    (one arc of Arcs+ drags in all of Arcs+, same for Arcs-), and the
    search branches on the silent B pairs (plus side first, ascending t)
    before the silent NB records.  Exhaustive solving of either
    directedness is `brute_force_solutions`.
    """
    if method != "fpt":
        raise ValueError(f"unknown method {method!r}")
    if F.directed:
        raise PreconditionViolation("expected an undirected profile")
    return _solve_search(F, "undirected solver")

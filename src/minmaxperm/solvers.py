"""Solvers for profile satisfiability: linear, FPT, undirected, brute force.

The three structured solvers run one depth-first branch-and-propagate
search.  Its root is the closure of the arcs a profile states; a node adds
one orientation of an open silent constraint to its parent's closure and
propagates it incrementally, a node whose closure hits a cycle is pruned,
and a node with no open constraint left yields a witness read off a
topological order.  The search keeps an explicit stack, so its depth is
not bounded by Python's recursion limit; its worst case stays 2^s nodes
for s silent constraints (betweenness is NP-complete), but propagation
settles most constraints without a branch.  The linear solver is the same
search with the paper's branching rule, which never backtracks on a
linear profile.

A returned witness is always re-verified against the input profile
(recompute and compare) before being handed out; a verification failure
on a fully settled acyclic graph is impossible by construction and raises
InternalInconsistency rather than leaking a bad answer.

The brute-force oracle is independent of the precedence machinery: it
reads only the profile's (m, M, dir) arrays and builds permutations left
to right, dropping a prefix as soon as an entry rules out every extension
of it (`_kernels.prefix_solutions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from ._kernels import prefix_solutions
from .errors import (
    InternalInconsistency,
    MismatchedN,
    NotDirected,
    NotLinear,
    TooLarge,
)
from .graph import (
    Arc,
    ArcKind,
    BArcPair,
    Closure,
    _solver_root,
    topo_order,
)
from .profiles import (
    NBRecord,
    Permutation,
    Profile,
    compute_profile,
    is_linear,
    nb_set,
)

DEFAULT_BRUTE_CAP = 9


@dataclass(frozen=True)
class SolveOutcome:
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
    """Recompute P's profile at F's span and directedness and compare."""
    if P.n != F.n:
        raise MismatchedN(f"permutation has n={P.n}, profile n={F.n}")
    return compute_profile(P, F.k, F.directed) == F


def brute_force_solutions(F: Profile, cap_n: int = DEFAULT_BRUTE_CAP) -> list[Permutation]:
    """Every permutation whose profile equals F, in lexicographic order.

    A prefix search that never builds a permutation an entry has already
    ruled out.  It refuses n beyond cap_n: an adversarial profile, such as
    one whose entries constrain little, can still have on the order of n!
    solutions or surviving prefixes.
    """
    if F.n > cap_n:
        raise TooLarge(f"n={F.n} exceeds the enumeration cap {cap_n}")
    m, M, d = F.to_arrays()
    return [Permutation(n=F.n, elems=tuple(row))
            for rows in prefix_solutions(F.n, F.k, m, M, d) for row in rows.tolist()]


# ---------------------------------------------------------------------------
# Branch-and-propagate search
# ---------------------------------------------------------------------------

class _Choice(NamedTuple):
    """A silent constraint: open while no arc joins x and y; sides are its
    two orientations as arc sets, in the order the default rule tries them."""

    x: int
    y: int
    sides: tuple[tuple[Arc, ...], tuple[Arc, ...]]


def _nb_choice(rec: NBRecord) -> _Choice:
    """Top-first (top left of t and t+1), then basis-first."""
    top, (t, u) = rec.top, rec.basis
    return _Choice(top, t, (((top, t, ArcKind.NB), (top, u, ArcKind.NB)),
                            ((t, top, ArcKind.NB), (u, top, ArcKind.NB))))


def _b_choice(bp: BArcPair) -> _Choice:
    sides = tuple(tuple((x, y, ArcKind.B) for x, y in side) for side in (bp.plus, bp.minus))
    return _Choice(bp.t, bp.t + 1, sides)


_Branch = Callable[[list[_Choice]], Sequence[tuple[Arc, ...]]]


def _first_open(open_: list[_Choice]) -> Sequence[tuple[Arc, ...]]:
    return open_[0].sides


def _search(root: Closure, choices: list[_Choice], F: Profile, context: str,
            branch: _Branch = _first_open, backtrack: bool = True
            ) -> tuple[Permutation | None, int]:
    """Depth-first search from a closed root; returns (witness or None,
    nodes visited).  `branch` maps the open constraints of a node to the
    arc sets of its children, in the order they are tried.  Without
    `backtrack`, a child whose closure hits a cycle is a fault."""
    stack: list[tuple[Closure, tuple[Arc, ...], list[_Choice]]] = [(root, (), choices)]
    nodes = 0
    while stack:
        node, arcs, pending = stack.pop()
        nodes += 1
        if arcs:
            node = node.copy()
            node.add(arcs)
        if node.cyclic:
            if arcs and not backtrack:
                raise InternalInconsistency(f"{context}: a decision produced a cycle")
            continue
        open_ = [c for c in pending if not node.linked(c.x, c.y)]
        if not open_:
            w = topo_order(node.pred)
            if not verify(w, F):
                raise InternalInconsistency(
                    f"{context}: topological order {w} does not reproduce the profile")
            return w, nodes
        for side in reversed(branch(open_)):
            stack.append((node, side, open_))
    return None, nodes


def _linear_branch(F: Profile, choices: list[_Choice]) -> _Branch:
    """The paper's rule: the open top with the largest NB set (ties: the
    smallest top) goes after its smallest open basis."""
    nb_size = {top: len(nb_set(F, top)) for top in {c.x for c in choices}}

    def branch(open_: list[_Choice]) -> Sequence[tuple[Arc, ...]]:
        top = max({c.x for c in open_}, key=lambda a: (nb_size[a], -a))
        pick = min((c for c in open_ if c.x == top), key=lambda c: c.y)
        return (pick.sides[1],)
    return branch


def solve_linear(F: Profile) -> SolveOutcome:
    """Polynomial decision procedure for directed linear gap-1 profiles.

    The search with the paper's branching rule: repeatedly set the silent
    top with the largest NB set (ties: smallest top) after the smallest
    silent basis naming it.  Linearity guarantees no cycle ever appears
    after a clean root, so the search visits one node per decision plus
    the root; a cycle raises InternalInconsistency.
    """
    if not F.directed:
        raise NotDirected("the linear solver needs a directed profile")
    if not is_linear(F):
        raise NotLinear("profile intervals do not form an inclusion chain")
    root, _, _, silent, _ = _solver_root(F, directed=True, search=True)
    choices = [_nb_choice(r) for r in silent]
    w, nodes = _search(root, choices, F, "linear solver",
                       branch=_linear_branch(F, choices), backtrack=False)
    return SolveOutcome(witness=w, silent_nb=tuple(silent), settings_tested=nodes)


def solve_fpt_directed(F: Profile) -> SolveOutcome:
    """Exact solver for directed gap-1 profiles: search over the
    orientations of the silent NB-constraints, top-first before
    basis-first, first open constraint in (basis, top) order.

    The first acyclic node with every constraint settled yields the
    witness; if the search exhausts, the answer is No.
    """
    if not F.directed:
        raise NotDirected("the FPT solver needs a directed profile")
    root, _, _, silent, _ = _solver_root(F, directed=True, search=True)
    w, nodes = _search(root, [_nb_choice(r) for r in silent], F, "FPT solver")
    return SolveOutcome(witness=w, silent_nb=tuple(silent), settings_tested=nodes)


def undirected_base(F: Profile) -> tuple[Closure, list[NBRecord],
                                         list[BArcPair], list[NBRecord], list[BArcPair]]:
    """Shared front end of the undirected pipeline.

    Seeds the endpoint arcs, closes under T/NB/B to the full fixpoint, and
    splits the constraint sets into settled and silent.  Returns (closure,
    nb_records, b_pairs, silent_nb, silent_b).
    """
    return _solver_root(F, directed=False, search=False)


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
    root, _, _, silent_nb, silent_b = _solver_root(F, directed=False, search=True)
    choices = [_b_choice(bp) for bp in silent_b] + [_nb_choice(r) for r in silent_nb]
    w, nodes = _search(root, choices, F, "undirected solver")
    return SolveOutcome(witness=w, silent_nb=tuple(silent_nb),
                        silent_b=tuple(bp.t for bp in silent_b), settings_tested=nodes)

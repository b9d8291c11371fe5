import hashlib
import itertools
import random
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from minmaxperm import (
    InternalInconsistency,
    MismatchedN,
    NotDirected,
    NotLinear,
    Permutation,
    Profile,
    ProfileValidationError,
    TooLarge,
    brute_force_solutions,
    compute_profile,
    compute_set_profile,
    is_linear,
    nb_masks,
    nb_set,
    root_closure,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    validate_permutation,
    verify,
)
from minmaxperm.graph import ArcKind, Closure, _full_closure, topo_order
from minmaxperm.profiles import KConstraint
from minmaxperm.reconstruction import _all_rows, _slot_codes

from helpers import (
    GOLDEN_PERM,
    all_perms,
    arc_set,
    b_arc_pairs,
    deadline,
    endpoint_arcs,
    golden_profile,
    golden_witness_family,
    has_cycle,
    identity_perm,
    is_settled,
    L,
    R,
    U,
    make_profile,
    masks_of,
    mutate_directed,
    mutate_undirected,
    profile_arrays,
    profile_restricted,
    random_perm,
    random_valid_directed,
    unsat2_profile,
)


class TestVerify:
    def test_golden_matches_itself(self):
        P = validate_permutation(GOLDEN_PERM)
        assert verify(P, golden_profile())
        assert verify(P, golden_profile(directed=False))

    def test_swapped_values_still_match(self):
        # 3 and 5 exchanged: invisible to the profile in both variants
        Q = validate_permutation([0, 6, 4, 7, 2, 9, 1, 8, 3, 5, 10])
        assert verify(Q, golden_profile())
        assert verify(Q, golden_profile(directed=False))

    def test_identity_does_not_match(self):
        assert not verify(identity_perm(9), golden_profile())

    def test_mismatched_n(self):
        with pytest.raises(MismatchedN):
            verify(identity_perm(4), golden_profile())

    def test_agrees_with_profile_comparison(self):
        # verify checks entry by entry; its definition builds the whole
        # profile and compares.  Pairs: the source permutation, a random
        # other one, and edits of the source's profile, at k = 1..3 in
        # both directednesses
        rng = random.Random(6151)
        outcomes = defaultdict(int)
        for k in (1, 2, 3):
            for directed in (True, False):
                mutate = mutate_directed if directed else mutate_undirected
                for _ in range(60):
                    n = rng.randint(max(1, k - 1), 9)
                    P, Q = random_perm(rng, n), random_perm(rng, n)
                    F = compute_profile(P, k, directed)
                    # the helpers edit gap-1 entries only
                    gap1 = mutate(rng, profile_restricted(F, 1)).constraints
                    edited = Profile(n=n, k=k, directed=directed,
                                     constraints={**F.constraints, **gap1})
                    for G in (F, edited):
                        for W in (P, Q):
                            expected = compute_profile(W, k, directed) == G
                            assert verify(W, G) is expected
                            outcomes[k, directed, expected] += 1
        assert all(outcomes[k, d, e] >= 10 for k in (1, 2, 3)
                   for d in (True, False) for e in (True, False))

    def test_unknown_directions_never_match(self):
        # a directed set profile marks Unknown the entries its members
        # disagree on; no single permutation's profile has one
        rng = random.Random(6152)
        with_unknown = 0
        for _ in range(100):
            k = rng.randint(1, 3)
            n = rng.randint(max(1, k - 1), 7)
            members = [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
            F = compute_set_profile(members, k, True)
            unknown = any(c.dir is U for c in F.entries())
            with_unknown += unknown
            for W in (*members, random_perm(rng, n)):
                expected = compute_profile(W, k, True) == F
                assert verify(W, F) is expected
                assert not (unknown and expected)
        assert with_unknown >= 40


class TestBruteForce:
    def test_golden_undirected_set(self):
        sols = brute_force_solutions(golden_profile(directed=False))
        family = golden_witness_family(directed=False)
        assert len(family) == 24
        assert sols == sorted(family, key=lambda p: p.elems)
        F = golden_profile(directed=False)
        assert all(verify(p, F) for p in sols)

    def test_golden_directed_set(self):
        sols = brute_force_solutions(golden_profile())
        family = golden_witness_family(directed=True)
        assert len(family) == 12
        assert sols == sorted(family, key=lambda p: p.elems)

    def test_identity_unique(self):
        for n in (2, 4, 6):
            F = compute_profile(identity_perm(n), 1, True)
            assert brute_force_solutions(F) == [identity_perm(n)]

    def test_unsat_empty(self):
        assert brute_force_solutions(unsat2_profile()) == []

    def test_cap(self):
        F = compute_profile(identity_perm(10), 1, True)
        with pytest.raises(TooLarge):
            brute_force_solutions(F)
        assert brute_force_solutions(F, cap_n=10) == [identity_perm(10)]

    def test_entry_leaving_out_its_pair_is_empty(self):
        # an interval [m, M] that leaves out one end of its own pair, or
        # reaches outside 0..n+1, matches no permutation
        F = compute_profile(identity_perm(4), 1, True)
        for t, m, M in ((2, 3, 3), (2, 2, 2), (4, -2, 5), (3, 3, 7)):
            cons = dict(F.constraints)
            cons[(t, 1)] = KConstraint(t=t, i=1, dir=L, m=m, M=M)
            assert brute_force_solutions(Profile(n=4, k=1, directed=True, constraints=cons)) == []


def _edited(rng, F):
    """F with one entry changed: its direction flipped (directed only), or a
    new m or M that still admits both ends of the pair."""
    cons = dict(F.constraints)
    key = rng.choice(sorted(cons))
    c = cons[key]
    m, M, d = c.m, c.M, c.dir
    move = rng.random()
    if F.directed and move < 0.3:
        d = R if d is L else L
    elif move < 0.65:
        m = rng.randint(0, c.t)
    else:
        M = rng.randint(c.t + c.i, F.n + 1)
    cons[key] = KConstraint(t=c.t, i=c.i, dir=d, m=m, M=M)
    return Profile(n=F.n, k=F.k, directed=F.directed, constraints=cons)


class TestOracleReferences:
    """The oracle's lists, order included, against scans that share no code
    with it."""

    @pytest.mark.parametrize("directed", (True, False))
    @pytest.mark.parametrize("k", (1, 2))
    def test_equals_itertools_scan(self, k, directed):
        # every permutation's profile and one edited copy up to n = 6, and a
        # seeded sample of them at n = 7
        rng = random.Random(10 * k + directed)
        for n in range(1, 8):
            classes = defaultdict(list)
            profiles = []
            for inner in itertools.permutations(range(1, n + 1)):
                P = Permutation(n=n, elems=(0, *inner, n + 1))
                F = compute_profile(P, k, directed)
                classes[tuple(F.entries())].append(P)
                profiles.append(F)
            if n == 7:
                profiles = rng.sample(profiles, 150)
            for F in profiles:
                for G in (F, _edited(rng, F)):
                    assert brute_force_solutions(G) == classes.get(tuple(G.entries()), []), G

    @pytest.mark.parametrize("n, k", ((8, 1), (8, 2), (9, 1)))
    def test_equals_code_scan(self, n, k):
        rng = random.Random(100 * n + k)
        rows = _all_rows(n)
        for directed in (True, False):
            codes = _slot_codes(rows, k, directed).T
            for _ in range(3):
                F = compute_profile(random_perm(rng, n), k, directed)
                for G in (F, _edited(rng, F)):
                    hits = rows[(codes == np.concatenate(profile_arrays(G))).all(axis=1)]
                    expected = [Permutation(n=n, elems=tuple(r)) for r in hits.tolist()]
                    assert brute_force_solutions(G) == expected, G


class TestOracleAboveCap:
    def test_memory_bounded_with_many_solutions(self):
        # 1 and 12 must lie between t and t+1 for every 1 <= t < 12: the
        # solutions are 0, the evens 2..10 in any order, 12, 1, the odds
        # 3..11 in any order, 13
        n = 12
        cons = {(t, 1): KConstraint(t=t, i=1, dir=U, m=0 if t == 0 else 1,
                                    M=n + 1 if t == n else n) for t in range(n + 1)}
        F = Profile(n=n, k=1, directed=False, constraints=cons)
        tracemalloc.start()
        try:
            sols = brute_force_solutions(F, cap_n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        family = sorted((0, *a, 12, 1, *b, 13)
                        for a in itertools.permutations(range(2, 11, 2))
                        for b in itertools.permutations(range(3, 12, 2)))
        assert len(family) == 14400
        assert [P.elems for P in sols] == family
        # the returned list alone takes about 3 MB; a search that held every
        # surviving prefix of one level at once would need about 15 MB more
        assert peak < 8 * 2**20

    def test_agrees_with_solvers(self):
        rng = random.Random(1216)
        for n in range(12, 17):
            for directed in (True, False):
                P = random_perm(rng, n)
                F = compute_profile(P, 1, directed)
                for G in (F, (mutate_directed if directed else mutate_undirected)(rng, F)):
                    sols = brute_force_solutions(G, cap_n=n)
                    out = solve_fpt_directed(G) if directed else solve_undirected(G)
                    assert out.is_no == (not sols), G
                    assert out.is_no or out.witness in sols
                    assert all(verify(Q, G) for Q in sols)
                    assert G is not F or P in sols


class TestOracleSearch:
    """The oracle's prunes (c) and (d), a span beyond the other scans, and
    depths beyond int8 values and beyond the recursion limit."""

    def test_extreme_placed_before_first_end(self):
        # the entry (0, 1) keeps n out of the segment between 0 and 1, so 1
        # comes before n, while the entry (n, 1) wants 1 between n and
        # n+1: no solution.  Every prefix that places n has 1 placed
        # already, and only prune (d) drops it there; the other checks wait
        # for n+1, at the last position, and alone take about a minute at
        # n = 14 on a 2-core machine
        n = 14
        cons = {(t, 1): KConstraint(t=t, i=1, dir=U, m=0 if t == 0 else 1,
                                    M=n - 1 if t == 0 else n + 1 if t == n else n)
                for t in range(n + 1)}
        with deadline(5):
            assert brute_force_solutions(Profile(n=n, k=1, directed=False,
                                                 constraints=cons), cap_n=n) == []

    def test_right_end_placed_first(self):
        # the directions of the solutions of TestOracleAboveCap's profile,
        # but the entry (n, 1) puts n+1 left of n, which no permutation
        # does.  Prune (c) drops each prefix as it places n; the other
        # checks wait for n+1, at the last position, and alone take 7 s at
        # n = 14 on a 2-core machine, about 36 times that at n = 16
        n = 16
        cons = {(t, 1): KConstraint(t=t, i=1, dir=R if t % 2 or t == n else L,
                                    m=0 if t == 0 else 1, M=n + 1 if t == n else n)
                for t in range(n + 1)}
        with deadline(5):
            assert brute_force_solutions(Profile(n=n, k=1, directed=True,
                                                 constraints=cons), cap_n=n) == []

    @pytest.mark.parametrize("directed", (True, False))
    def test_k3_equals_itertools_scan(self, directed):
        # every distinct k = 3 profile up to n = 6, and one edited copy
        rng = random.Random(30 + directed)
        for n in range(2, 7):
            classes, profiles = defaultdict(list), {}
            for inner in itertools.permutations(range(1, n + 1)):
                P = Permutation(n=n, elems=(0, *inner, n + 1))
                F = compute_profile(P, 3, directed)
                classes[tuple(F.entries())].append(P)
                profiles.setdefault(tuple(F.entries()), F)
            for F in profiles.values():
                for G in (F, _edited(rng, F)):
                    assert brute_force_solutions(G) == classes.get(tuple(G.entries()), []), G

    @pytest.mark.parametrize("n", (130, 1100))
    def test_identity_at_depth(self, n):
        P = identity_perm(n)
        assert brute_force_solutions(compute_profile(P, 1, True), cap_n=n) == [P]


class TestSolveLinear:
    def test_golden_witness(self):
        F = golden_profile()
        out = solve_linear(F)
        assert out.witness is not None and verify(out.witness, F)
        assert out.witness in brute_force_solutions(F)
        assert solve_linear(F).witness == out.witness  # deterministic

    def test_identity_not_linear(self):
        with pytest.raises(NotLinear):
            solve_linear(compute_profile(identity_perm(3), 1, True))

    def test_undirected_rejected(self):
        with pytest.raises(NotDirected):
            solve_linear(golden_profile(directed=False))

    def test_unsat_linear_returns_no(self):
        F = unsat2_profile()
        from minmaxperm import is_linear
        assert is_linear(F)
        assert solve_linear(F).is_no


class TestSolveFptDirected:
    def test_golden_witness(self):
        F = golden_profile()
        out = solve_fpt_directed(F)
        assert out.witness is not None and verify(out.witness, F)
        assert len(out.silent_nb) == 1

    def test_identity_trivial_setting(self):
        F = compute_profile(identity_perm(5), 1, True)
        out = solve_fpt_directed(F)
        assert out.witness == identity_perm(5)
        assert out.silent_nb == () and out.settings_tested == 1

    def test_unsat_no(self):
        out = solve_fpt_directed(unsat2_profile())
        assert out.is_no

    def test_undirected_rejected(self):
        with pytest.raises(NotDirected):
            solve_fpt_directed(golden_profile(directed=False))


class TestSolveUndirected:
    def test_golden_fpt(self):
        F = golden_profile(directed=False)
        out = solve_undirected(F, method="fpt")
        assert out.witness is not None and verify(out.witness, F)
        assert out.witness in brute_force_solutions(F)
        assert out.silent_b == (6,)

    def test_identity_n3(self):
        F = compute_profile(identity_perm(3), 1, False)
        assert solve_undirected(F).witness == identity_perm(3)

    def test_validation_gate(self):
        bad = make_profile(
            [(0, None, 0, 3), (1, None, 0, 3), (2, None, 1, 3), (3, None, 1, 4)],
            n=3, directed=False)
        with pytest.raises(ProfileValidationError):
            solve_undirected(bad)

    def test_directed_rejected(self):
        from minmaxperm import PreconditionViolation
        with pytest.raises(PreconditionViolation):
            solve_undirected(golden_profile())

    def test_unknown_method(self):
        for method in ("magic", "brute"):
            with pytest.raises(ValueError):
                solve_undirected(golden_profile(directed=False), method=method)


class TestOracleEquivalence:
    def test_directed_all_perms_small(self):
        # full n<=7 sweep is acceptance criterion 6(a)
        for n in range(1, 6):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                out = solve_fpt_directed(F)
                assert out.witness is not None
                assert out.witness in brute_force_solutions(F)

    def test_undirected_all_perms_small(self):
        for n in range(1, 6):
            for P in all_perms(n):
                F = compute_profile(P, 1, False)
                out = solve_undirected(F)
                assert out.witness is not None and verify(out.witness, F)

    def test_random_mutated_profiles_agree(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(2, 6)
            base = compute_profile(
                Permutation(n=n, elems=(0, *rng.sample(range(1, n + 1), n), n + 1)),
                1, True)
            F = mutate_directed(rng, base)
            out = solve_fpt_directed(F)
            sols = brute_force_solutions(F)
            assert out.is_no == (not sols)
            if not out.is_no:
                assert out.witness in sols

    def test_random_uniform_profiles_agree(self):
        rng = random.Random(99)
        for _ in range(150):
            F = random_valid_directed(rng, rng.randint(2, 6))
            out = solve_fpt_directed(F)
            assert out.is_no == (not brute_force_solutions(F))

    def test_random_mutated_undirected_agree(self):
        from helpers import mutate_undirected, random_perm
        rng = random.Random(616)
        for _ in range(120):
            n = rng.randint(2, 6)
            F = mutate_undirected(rng, compute_profile(random_perm(rng, n), 1, False))
            out = solve_undirected(F, method="fpt")
            sols = brute_force_solutions(F)
            assert out.is_no == (not sols)
            if not out.is_no:
                assert out.witness in sols


class TestFptMonotonicity:
    def test_every_solution_found_under_its_setting(self):
        # orienting the silent records the way a known solution does keeps
        # that solution: the closure stays acyclic and inside its order
        for n in range(2, 6):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                res, full = root_closure(F), _full_closure(F)
                for W in brute_force_solutions(F):
                    pos = W.positions()
                    g = full.arcs()
                    for rec in res.silent_nb:
                        top, (t, u) = rec.top, rec.basis
                        if pos[top] < pos[t]:
                            arcs = (top, t), (top, u)
                        else:
                            arcs = (t, top), (u, top)
                        for x, y in arcs:
                            g.append((x, y, ArcKind.NB))
                    closed = Closure(F.n, g, masks_of(F.n, res.silent_nb)).arcs()
                    assert not has_cycle(arc_set(closed))
                    assert all(pos[x] < pos[y] for x, y, _ in closed)


def _paper_linear_rounds(F):
    """Rounds of the paper's linear algorithm, replayed on full-fixpoint
    closures from the root's silent records: set the silent top with the
    largest NB set after its smallest silent basis, re-close, repeat until
    nothing is silent.  Returns the number of rounds and the final
    closure's topological order."""
    closure, silent = _full_closure(F), list(root_closure(F).silent_nb)
    rounds = 0
    while silent:
        top = max({r.top for r in silent}, key=lambda c: (len(nb_set(F, c)), -c))
        basis = min(r.basis[0] for r in silent if r.top == top)
        closure = Closure(F.n, closure.arcs() + [(basis, top, ArcKind.NB)],
                          masks_of(F.n, silent))
        arcs = arc_set(closure.arcs())
        assert not has_cycle(arcs)
        silent = [r for r in silent if not is_settled(arcs, r)]
        rounds += 1
    return rounds, topo_order(closure)


# An undirected NO profile (n = 9) that the search refutes only after
# branching: its root closure is acyclic and both children of the root die.
BRANCHING_NO_ENTRIES = [
    (0, U, 0, 9), (1, U, 1, 9), (2, U, 2, 3), (3, U, 2, 9), (4, U, 4, 7),
    (5, U, 4, 6), (6, U, 4, 7), (7, U, 2, 9), (8, U, 2, 9), (9, U, 1, 10),
]

# One of the 4 valid n = 6 profiles, the smallest size with any, that are NO
# only after search: the root leaves the B pairs t = 3 and 4 silent
SMALLEST_BRANCHING_NO_ENTRIES = [
    (0, U, 0, 5), (1, U, 1, 6), (2, U, 1, 6), (3, U, 3, 5), (4, U, 3, 5),
    (5, U, 1, 6), (6, U, 2, 7),
]


class TestSearch:
    def test_undirected_n10_regression(self):
        # 15 silent NB records and 5 silent B pairs; the former 2^s counter
        # loop tested 228,883 settings (56.6 s) before reaching a witness
        F = compute_profile(validate_permutation([0, 9, 2, 1, 10, 4, 3, 7, 8, 6, 5, 11]), 1, False)
        out = solve_undirected(F)
        assert len(out.silent_nb) == 15 and len(out.silent_b) == 5
        assert out.witness is not None and verify(out.witness, F)
        assert out.settings_tested <= 10

    def test_undirected_n6_search_no(self):
        # one of the four n = 6 undirected profiles whose NO needs search:
        # the root is acyclic, both orientations of its first silent B pair
        # hit a cycle.  The bulk root has the masks of the endpoint arcs
        # grown arc by arc, with every B pair cascading through `add`.
        F = make_profile([(0, L, 0, 5), (1, L, 1, 6), (2, L, 1, 6), (3, L, 3, 5),
                          (4, L, 3, 5), (5, L, 1, 6), (6, L, 2, 7)], directed=False)
        root = root_closure(F)
        seeds = [(x, y, ArcKind.R) for x, y in endpoint_arcs(F.n)]
        per_arc = Closure(F.n, seeds, nb_masks(F), b_arc_pairs(F), search=True)
        assert not root.closure.cyclic
        assert (root.closure.succ, root.closure.pred) == (per_arc.succ, per_arc.pred)
        out = solve_undirected(F)
        assert out.witness is None
        assert out.silent_b == (3, 4) and out.settings_tested == 3
        assert brute_force_solutions(F) == []

    def test_directed_n150(self):
        F = compute_profile(random_perm(random.Random(1), 150), 1, True)
        out = solve_fpt_directed(F)
        assert out.witness is not None and verify(out.witness, F)
        assert len(out.silent_nb) > 30
        # propagation settles most constraints: no more than one node per
        # silent constraint, where the counter loop faced 2^s settings
        assert out.settings_tested <= len(out.silent_nb) + 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_choice_tested_once_on_a_clean_path(self, monkeypatch, seed):
        # these searches meet no dead end, so the path to the leaf is the
        # whole search, and along a path the cursor reads each choice once
        import minmaxperm.solvers as solvers
        F = compute_profile(random_perm(random.Random(seed), 150), 1, True)
        reads = 0

        class Counted(list):
            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                return super().__getitem__(i)
        search = solvers._search
        monkeypatch.setattr(solvers, "_search",
                            lambda root, choices, *args: search(root, Counted(choices), *args))
        out = solve_fpt_directed(F)
        assert out.witness is not None and verify(out.witness, F)
        assert reads == len(out.silent_nb)

    @pytest.mark.parametrize("elems, directed, first, later", [
        # top 5 left of its basis (2, 3) puts 5 and 6 left of 2 and 3:
        # tops 2 and 3 after their basis (5, 6), the basis-first side
        ((0, 2, 3, 5, 6, 8, 1, 4, 7, 9), True, ((5, 2), (5, 3)), (2, 5)),
        # the plus side of pair 2 puts 4 left of 3: pair 3's minus side
        ((0, 2, 4, 3, 6, 1, 5, 7), False, None, (3, 4)),
    ], ids=["nb-top-after-basis", "b-pair-minus-side"])
    def test_choice_joined_in_its_second_orientation(self, elems, directed, first, later):
        # the first decision joins a later choice (x, y) as y -> x; the
        # cursor must see that join, so the search is the root and one
        # decision, where a cursor that looks only for x -> y branches on
        # the joined choice as well
        F = compute_profile(validate_permutation(elems), 1, directed)
        root, _, silent_b = root_closure(F)
        node = root.copy()
        kind = ArcKind.NB if directed else ArcKind.B
        node.add([(x, y, kind) for x, y in first or silent_b[0].plus])
        x, y = later
        assert node.succ[y] >> x & 1 and not node.succ[x] >> y & 1
        out = (solve_fpt_directed if directed else solve_undirected)(F)
        assert out.witness is not None and verify(out.witness, F)
        assert out.settings_tested == 2

    def test_undirected_n150_deep_search(self):
        # a deep undirected search that backtracks: it pins the order in
        # which the choices are tried (B pairs, then NB records)
        F = compute_profile(random_perm(random.Random(4), 150), 1, False)
        out = solve_undirected(F)
        assert len(out.silent_b) == 59 and len(out.silent_nb) == 840
        assert out.settings_tested == 4751
        assert out.witness is not None and verify(out.witness, F)

    def test_linear_one_node_per_decision(self):
        # n = 8 is the first size with profiles that take two decisions
        for n in range(1, 9):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                if not is_linear(F):
                    continue
                out = solve_linear(F)
                rounds, order = _paper_linear_rounds(F)
                assert out.settings_tested == rounds + 1, P
                assert out.witness == order, P

    @pytest.mark.parametrize("directed, digest", [
        (True, "e7b0481a7c383d86147e62ecfdc073fd75b6466cab95948bc08fc6ba26e470a9"),
        (False, "edec801fb1f7980159565eaa0bf49ff18aa1526c727e506e96119975a066f458"),
    ], ids=["directed", "undirected"])
    def test_witnesses_pinned(self, directed, digest):
        # a change to the search or to the witness order must keep every
        # answer: 100 seeded profiles (directed n 8-150, undirected n 6-40,
        # odd ones edited), each request's witness or NO and node count,
        # hashed together; the digests were recorded before the witness
        # order walked the antichain of free vertices
        lo, hi = (8, 150) if directed else (6, 40)
        solve, mutate = ((solve_fpt_directed, mutate_directed) if directed
                         else (solve_undirected, mutate_undirected))
        lines = []
        for i in range(100):
            rng = random.Random(f"pin:{directed}:{i}")
            F = compute_profile(random_perm(rng, rng.randint(lo, hi)), 1, directed)
            out = solve(mutate(rng, F) if i % 2 else F)
            lines.append(f"{out.witness or 'NO'};{out.settings_tested}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    @pytest.mark.parametrize("entries", [BRANCHING_NO_ENTRIES, SMALLEST_BRANCHING_NO_ENTRIES],
                             ids=["n9", "n6"])
    def test_branching_no(self, entries):
        F = make_profile(entries, directed=False)
        out = solve_undirected(F)
        assert out.is_no and out.settings_tested == 3
        assert brute_force_solutions(F) == []

    def test_cyclic_root_reports_nothing_silent(self):
        # a search root stops at its first cycle, and the constraints its
        # partial closure leaves unjoined (6 for the circuit profile, 2 for
        # the undirected one) are not reported silent
        from helpers import circuit_profile
        undirected = make_profile([(0, U, 0, 1), (1, U, 1, 2), (2, U, 1, 3), (3, U, 3, 4)],
                                  n=3, directed=False)
        for F, solve in ((circuit_profile(), solve_fpt_directed), (undirected, solve_undirected)):
            out = solve(F)
            assert out.is_no and out.settings_tested == 1
            assert out.silent_nb == () and out.silent_b == ()

    def test_backtrack_is_a_fault_when_disallowed(self, monkeypatch):
        # the linear solver searches without backtracking: a dead end there
        # is an internal fault, never a NO
        import minmaxperm.solvers as solvers
        search = solvers._search
        monkeypatch.setattr(solvers, "_search",
                            lambda *a, **kw: search(*a, **{**kw, "backtrack": False}))
        with pytest.raises(InternalInconsistency):
            solve_undirected(make_profile(BRANCHING_NO_ENTRIES, n=9, directed=False))


def _agrees_with_oracle(F):
    out = solve_undirected(F, method="fpt")
    sols = brute_force_solutions(F)
    assert out.is_no == (not sols), F
    if sols:
        assert out.witness in sols


class TestSolveMemory:
    @pytest.mark.parametrize("solve, directed", [(solve_fpt_directed, True),
                                                 (solve_undirected, False)],
                             ids=["directed", "undirected"])
    def test_identity_n200_peak(self, solve, directed):
        # every entry of the identity is [t, t+1], so its NB facts number
        # about n^2 / 2 (20,000 here); kept as one mask per top they cost
        # well under 3 MB, where one record object per fact took 5.5 MB
        F = compute_profile(identity_perm(200), 1, directed)
        tracemalloc.start()
        try:
            out = solve(F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.witness == identity_perm(200)
        assert peak < 3 * 2**20


class TestUndirectedOracleSweep:
    def test_all_perms_small_unedited_and_edited(self):
        rng = random.Random(2026)
        for n in range(1, 7):
            for P in all_perms(n):
                F = compute_profile(P, 1, False)
                _agrees_with_oracle(F)
                _agrees_with_oracle(mutate_undirected(rng, F))

    def test_seeded_mutated_n7(self):
        rng = random.Random(707)
        for _ in range(300):
            _agrees_with_oracle(
                mutate_undirected(rng, compute_profile(random_perm(rng, 7), 1, False)))

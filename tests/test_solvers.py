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
    build_easy_arcs,
    compute_profile,
    is_linear,
    nb_set,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    validate_permutation,
    verify,
)
from minmaxperm._kernels import batch_profile_codes, iter_perm_arrays
from minmaxperm.graph import ArcKind, Closure
from minmaxperm.profiles import KConstraint

from helpers import (
    GOLDEN_PERM,
    all_perms,
    arc_set,
    golden_profile,
    golden_witness_family,
    has_cycle,
    identity_perm,
    is_settled,
    L,
    R,
    U,
    make_profile,
    mutate_directed,
    mutate_undirected,
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
        rows = np.concatenate(list(iter_perm_arrays(n)))
        for directed in (True, False):
            codes = np.concatenate([batch_profile_codes(b, k, directed)
                                    for b in iter_perm_arrays(n)])
            for _ in range(3):
                F = compute_profile(random_perm(rng, n), k, directed)
                for G in (F, _edited(rng, F)):
                    hits = rows[(codes == np.concatenate(G.to_arrays())).all(axis=1)]
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
                res = build_easy_arcs(F)
                for W in brute_force_solutions(F):
                    pos = W.positions()
                    g = res.graph.arcs()
                    for rec in res.silent:
                        top, (t, u) = rec.top, rec.basis
                        if pos[top] < pos[t]:
                            arcs = (top, t), (top, u)
                        else:
                            arcs = (t, top), (u, top)
                        for x, y in arcs:
                            g.append((x, y, ArcKind.NB))
                    closed = Closure(F.n, g, res.silent).arcs()
                    assert not has_cycle(arc_set(closed))
                    assert all(pos[x] < pos[y] for x, y, _ in closed)


def _paper_linear_rounds(F):
    """Rounds of the paper's linear algorithm, replayed on the public
    closure: set the silent top with the largest NB set after its smallest
    silent basis, re-close, repeat until nothing is silent."""
    res = build_easy_arcs(F)
    g, silent = res.graph.arcs(), list(res.silent)
    rounds = 0
    while silent:
        top = max({r.top for r in silent}, key=lambda c: (len(nb_set(F, c)), -c))
        basis = min(r.basis[0] for r in silent if r.top == top)
        g = Closure(F.n, g + [(basis, top, ArcKind.NB)], silent).arcs()
        arcs = arc_set(g)
        assert not has_cycle(arcs)
        silent = [r for r in silent if not is_settled(arcs, r)]
        rounds += 1
    return rounds


# An undirected NO profile (n = 9) that the search refutes only after
# branching: its root closure is acyclic and both children of the root die.
BRANCHING_NO_ENTRIES = [
    (0, U, 0, 9), (1, U, 1, 9), (2, U, 2, 3), (3, U, 2, 9), (4, U, 4, 7),
    (5, U, 4, 6), (6, U, 4, 7), (7, U, 2, 9), (8, U, 2, 9), (9, U, 1, 10),
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

    def test_directed_n150(self):
        F = compute_profile(random_perm(random.Random(1), 150), 1, True)
        out = solve_fpt_directed(F)
        assert out.witness is not None and verify(out.witness, F)
        assert len(out.silent_nb) > 30
        # propagation settles most constraints: no more than one node per
        # silent constraint, where the counter loop faced 2^s settings
        assert out.settings_tested <= len(out.silent_nb) + 1

    def test_linear_one_node_per_decision(self):
        # n = 8 is the first size with profiles that take two decisions
        for n in range(1, 9):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                if not is_linear(F):
                    continue
                out = solve_linear(F)
                assert out.settings_tested == _paper_linear_rounds(F) + 1, P

    def test_branching_no(self):
        F = make_profile(BRANCHING_NO_ENTRIES, n=9, directed=False)
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

import random

import pytest

from minmaxperm import (
    ArcKind,
    CyclicGraph,
    KMismatch,
    NotDirected,
    PrecedenceGraph,
    PreconditionViolation,
    ProfileValidationError,
    b_arc_pairs,
    build_easy_arcs,
    compute_profile,
    endpoint_seeded_graph,
    nb_records,
    to_dot,
    validate_permutation,
)
from minmaxperm.graph import (
    Closure,
    close,
    easy_arc_seeds,
    require_solver_profile,
    topo_order,
)
from minmaxperm.profiles import NBRecord

from helpers import (
    SETTING_PERM,
    U,
    all_perms,
    golden_profile,
    has_cycle,
    identity_perm,
    is_settled,
    make_profile,
    reference_close,
    unsat2_profile,
)


def chain_graph(n, pairs, kind=ArcKind.R):
    g = PrecedenceGraph(n)
    for x, y in pairs:
        g.add_arc(x, y, kind)
    return g


class TestPrecedenceGraph:
    def test_add_and_query(self):
        g = PrecedenceGraph(2)
        assert g.add_arc(1, 2, ArcKind.R)
        assert not g.add_arc(1, 2, ArcKind.T)  # first derivation keeps its kind
        assert not g.add_arc(1, 1, ArcKind.T)  # self-loops never enter
        assert g.has_arc(1, 2) and not g.has_arc(2, 1)
        assert g.kinds[(1, 2)] is ArcKind.R
        assert g.num_arcs == 1

    def test_copy_isolated(self):
        g = PrecedenceGraph(2)
        g.add_arc(0, 1, ArcKind.R)
        h = g.copy()
        h.add_arc(1, 2, ArcKind.T)
        assert not g.has_arc(1, 2) and h.has_arc(1, 2)
        assert g != h

    def test_dot_dump(self):
        g = chain_graph(1, [(0, 1), (1, 2)])
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert '0 -> 1 [label="R"]' in dot


class TestBuildClosure:
    def test_transitivity_step(self):
        g = chain_graph(2, [(1, 2), (2, 3)])
        closed = close(g, [])
        assert closed.has_arc(1, 3)
        assert closed.kinds[(1, 3)] is ArcKind.T

    def test_nb_rule_couples_arcs(self):
        g = chain_graph(9, [(2, 6)])
        rec = NBRecord(basis=(6, 7), top=2)
        closed = close(g, [rec])
        assert closed.has_arc(2, 7)
        assert closed.kinds[(2, 7)] is ArcKind.NB

    def test_nb_rule_basis_side(self):
        g = chain_graph(9, [(6, 2)])
        closed = close(g, [NBRecord(basis=(6, 7), top=2)])
        assert closed.has_arc(7, 2)

    def test_input_untouched(self):
        g = chain_graph(2, [(1, 2), (2, 3)])
        close(g, [])
        assert not g.has_arc(1, 3)

    def test_confluence_small(self):
        F = golden_profile()
        recs = nb_records(F)
        seed = easy_arc_seeds(F)
        fast = close(seed, recs)
        for trial in range(8):
            assert reference_close(seed, recs, [], random.Random(trial)) == fast

    def test_b_rule_cascade(self):
        # one arc of an orientation drags in the full arc set
        F = golden_profile(directed=False)
        pairs = b_arc_pairs(F)
        g = endpoint_seeded_graph(9)
        closed = close(g, nb_records(F), pairs)
        # entry 0's plus side is triggered by the seed (0,1): M_0=9 lands between
        assert closed.has_arc(9, 1)
        # cascade resolves entry 1 to minus: 2 precedes 1
        assert closed.has_arc(2, 1)


class TestBArcPairs:
    def test_vacuous_facts_add_no_arc(self):
        # identity n=3: every entry is [t, t+1], so both facts are vacuous
        for bp in b_arc_pairs(compute_profile(identity_perm(3), 1, True)):
            assert bp.plus == ((bp.t, bp.t + 1),)
            assert bp.minus == ((bp.t + 1, bp.t),)
        pairs = b_arc_pairs(golden_profile())
        # entry 6 is 6 <->[4,7] 7: M coincides with the basis element 7
        assert pairs[6].plus == ((6, 7), (6, 4), (4, 7))
        assert pairs[6].minus == ((7, 6), (4, 6), (7, 4))
        # entry 0 is 0 <->[0,9] 1: m coincides with 0
        assert pairs[0].plus == ((0, 1), (0, 9), (9, 1))
        assert pairs[0].minus == ((1, 0), (9, 0), (1, 9))
        for bp in pairs:
            assert all(x != y for side in (bp.plus, bp.minus) for x, y in side)

    def test_k_mismatch(self):
        with pytest.raises(KMismatch):
            b_arc_pairs(compute_profile(identity_perm(3), 2, True))


class TestIsSettled:
    def test_empty_graph(self):
        g = PrecedenceGraph(9)
        assert not is_settled(g, NBRecord(basis=(6, 7), top=2))

    def test_top_first_complete(self):
        g = chain_graph(9, [(2, 6), (2, 7)])
        assert is_settled(g, NBRecord(basis=(6, 7), top=2))

    def test_golden_record_stays_open(self):
        res = build_easy_arcs(golden_profile())
        assert not is_settled(res.graph, NBRecord(basis=(6, 7), top=2))


def order(g):
    """The topological order of g, read off its closure's predecessor masks."""
    return topo_order(Closure(g).pred)


class TestCycleAndTopo:
    def test_chain(self):
        g = chain_graph(2, [(0, 1), (1, 2), (2, 3)])
        assert not Closure(g).cyclic
        assert order(g).elems == (0, 1, 2, 3)

    def test_two_cycle(self):
        g = chain_graph(2, [(1, 2), (2, 1)])
        assert Closure(g).cyclic
        with pytest.raises(CyclicGraph):
            order(g)

    def test_identity_total_order(self):
        res = build_easy_arcs(compute_profile(identity_perm(4), 1, True))
        expected = {(x, y) for x in range(6) for y in range(6) if x < y}
        assert res.graph.arc_pairs() == expected
        assert order(res.graph).elems == (0, 1, 2, 3, 4, 5)

    def test_smallest_tie_break(self):
        g = endpoint_seeded_graph(3)
        assert order(g).elems == (0, 1, 2, 3, 4)
        g.add_arc(2, 1, ArcKind.R)
        assert order(g).elems == (0, 2, 1, 3, 4)

    def test_random_graphs_order_or_cycle(self):
        # an order exists exactly when the engine-free check finds no
        # cycle, and it keeps every arc; at each step it takes the smallest
        # vertex with no remaining predecessor (the endpoint arcs pin 0 and
        # n+1, as a Permutation requires)
        rng = random.Random(1734)
        cyclic_cases = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            g = endpoint_seeded_graph(n)
            for _ in range(rng.randint(0, 2 * n)):
                g.add_arc(rng.randint(1, n), rng.randint(1, n), ArcKind.R)
            if has_cycle(g):
                cyclic_cases += 1
                with pytest.raises(CyclicGraph):
                    order(g)
                continue
            elems = order(g).elems
            pos = {v: i for i, v in enumerate(elems)}
            assert all(pos[x] < pos[y] for x, y in g.arc_pairs())
            for i, v in enumerate(elems):
                free = [u for u in elems[i:] if not any(g.has_arc(w, u) for w in elems[i:])]
                assert v == min(free)
        assert 30 <= cyclic_cases <= 270


class TestBuildEasyArcs:
    def test_golden_silent_set(self):
        res = build_easy_arcs(golden_profile())
        assert not res.cyclic
        assert res.silent == (NBRecord(basis=(6, 7), top=2),)

    def test_identity_empty_silent(self):
        for n in (1, 3, 6):
            res = build_easy_arcs(compute_profile(identity_perm(n), 1, True))
            assert res.silent == ()
            assert not res.cyclic

    def test_unsat_profile_reports_no(self):
        res = build_easy_arcs(unsat2_profile())
        assert res.cyclic
        assert has_cycle(res.graph)

    def test_cyclic_graph_still_reports_silent(self):
        # the full fixpoint reports the records it leaves unjoined even when
        # it has a cycle
        from helpers import L, R
        entries = [(0, L, 0, 9), (1, L, 1, 9), (2, L, 1, 9), (3, R, 3, 5), (4, L, 4, 5),
                   (5, R, 1, 9), (6, R, 6, 7), (7, L, 1, 9), (8, R, 1, 9), (9, L, 1, 10)]
        F = make_profile(entries)
        res = build_easy_arcs(F)
        g = res.graph
        assert res.cyclic and has_cycle(g)
        open_ = tuple(r for r in nb_records(F)
                      if not g.has_arc(r.top, r.basis[0]) and not g.has_arc(r.basis[0], r.top))
        assert len(open_) == 2 and res.silent == open_

    def test_setting_example_fully_settles(self):
        # The betweenness facts of the last two entries (both have m=3) chain
        # through transitivity and settle every non-betweenness constraint,
        # so nothing stays silent for this permutation.  Acceptance criterion
        # 02 checks the same against the reference closure.
        P = validate_permutation(SETTING_PERM)
        res = build_easy_arcs(compute_profile(P, 1, True))
        assert not res.cyclic
        assert res.silent == ()
        g = res.graph
        assert g.has_arc(3, 11) and g.kinds[(3, 11)] is ArcKind.B
        assert g.has_arc(3, 5)   # settles top 3 over basis (5,6)
        assert g.has_arc(9, 11)  # settles top 11 over basis (8,9)

    def test_gate_rejections(self):
        with pytest.raises(NotDirected):
            build_easy_arcs(golden_profile(directed=False))
        with pytest.raises(KMismatch):
            build_easy_arcs(compute_profile(identity_perm(4), 2, True))
        bad = make_profile([(0, None, 0, 3), (1, None, 0, 3), (2, None, 1, 3), (3, None, 1, 4)],
                           n=3, directed=False)
        with pytest.raises(ProfileValidationError):
            require_solver_profile(bad, directed=False)

    def test_gate_boundary_direction(self):
        from helpers import L, R
        entries = [(0, R, 0, 2), (1, L, 1, 2), (2, L, 2, 3)]
        with pytest.raises(PreconditionViolation):
            build_easy_arcs(make_profile(entries, n=2))


class TestFigureConfiguration:
    """One added arc propagates through NB couplings into a circuit.

    The graph holds only the six special constraints' arcs; the records tie
    tops 25, 12 and 8 to the bases (21,22), (18,19) and (15,16).  The base
    closure is acyclic and leaves all records silent; adding (18,12) forces
    (21,25) and (15,8), closing a circuit through the old arcs (8,21) and
    (25,15).
    """

    ARCS = [
        (8, 7), (8, 3), (3, 7), (8, 21), (21, 7),
        (12, 13), (12, 8), (8, 13), (12, 25), (25, 13),
        (16, 15), (16, 10), (10, 15), (16, 27), (27, 15),
        (19, 18), (19, 16), (16, 18), (19, 22), (22, 18),
        (22, 21), (22, 5), (5, 21),
        (25, 24), (25, 15), (15, 24),
    ]
    RECORDS = [
        NBRecord(basis=(21, 22), top=25),
        NBRecord(basis=(15, 16), top=8),
        NBRecord(basis=(18, 19), top=25),
        NBRecord(basis=(18, 19), top=12),
    ]

    def test_propagated_circuit(self):
        g = chain_graph(29, self.ARCS, kind=ArcKind.B)
        base = close(g, self.RECORDS)
        assert not has_cycle(base)
        assert all(not is_settled(base, r) for r in self.RECORDS)
        trigger = base.copy()
        trigger.add_arc(18, 12, ArcKind.NB)
        closed = close(trigger, self.RECORDS)
        assert closed.has_arc(21, 25) and closed.has_arc(15, 8)
        assert has_cycle(closed)


class TestClosureInvariants:
    def test_soundness_small(self):
        # every derived arc respects the witness's positions (n<=5 here,
        # n<=7 in the acceptance suite)
        for n in range(1, 6):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                pos = P.positions()
                res = build_easy_arcs(F)
                assert all(pos[x] < pos[y] for x, y, _ in res.graph.arcs())

    def test_endpoint_arcs_never_reversed(self):
        # nothing ever enters 0 or leaves n+1
        for n in range(1, 6):
            for P in all_perms(n):
                res = build_easy_arcs(compute_profile(P, 1, True))
                for x, y, _ in res.graph.arcs():
                    assert y != 0 and x != n + 1

    def test_post_closure_dichotomy(self):
        # every record is settled or has no arc joining its top to its basis
        for n in range(1, 7):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                res = build_easy_arcs(F)
                g = res.graph
                for r in nb_records(F):
                    if is_settled(g, r):
                        continue
                    a = r.top
                    t, u = r.basis
                    for p, q in ((a, t), (a, u)):
                        assert not g.has_arc(p, q) and not g.has_arc(q, p)


class TestClosureEngine:
    """The incremental engine against the one-rule-at-a-time reference, on
    random graphs (cycles included) with random NB records and B pairs."""

    @staticmethod
    def random_case(rng):
        n = rng.randint(1, 6)
        V = n + 2
        g = PrecedenceGraph(n)
        for _ in range(rng.randint(0, 2 * V)):
            g.add_arc(rng.randrange(V), rng.randrange(V), ArcKind.R)
        records = []
        for _ in range(rng.randint(0, 2 * V)):
            t, top = rng.randrange(n + 1), rng.randrange(V)
            if top not in (t, t + 1):
                records.append(NBRecord(basis=(t, t + 1), top=top))
        entries = [(t, U, rng.randint(0, t), rng.randint(t + 1, n + 1)) for t in range(n + 1)]
        pairs = b_arc_pairs(make_profile(entries, n=n, directed=False))
        pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        return g, records, pairs

    def test_matches_reference_and_flags_cycles(self):
        rng = random.Random(1986)
        cyclic_cases = 0
        for _ in range(150):
            g, records, pairs = self.random_case(rng)
            closed = close(g, records, pairs)
            assert closed == reference_close(g, records, pairs, rng)
            assert len(closed.arcs()) == closed.num_arcs  # every arc has a kind
            cyclic = has_cycle(closed)
            cyclic_cases += cyclic
            state = Closure(g, records, pairs)
            assert state.cyclic == cyclic
            V = g.num_vertices
            assert all(state.pred[y] >> x & 1 == state.succ[x] >> y & 1
                       for x in range(V) for y in range(V))
            assert Closure(g, records, pairs, search=True).cyclic == cyclic
        assert 20 <= cyclic_cases <= 130

    def test_incremental_equals_batch(self):
        # inserting arcs into a closed state and closing from scratch agree
        rng = random.Random(1962)
        for _ in range(100):
            g, records, pairs = self.random_case(rng)
            V = g.num_vertices
            extra = [(rng.randrange(V), rng.randrange(V)) for _ in range(3)]
            state = Closure(g, records, pairs)
            step = state.copy()
            assert step.kinds is None
            step.add([(x, y, ArcKind.NB) for x, y in extra])
            h = g.copy()
            for x, y in extra:
                h.add_arc(x, y, ArcKind.NB)
            assert step.succ == close(h, records, pairs).rows
            assert step.cyclic == has_cycle(close(h, records, pairs))

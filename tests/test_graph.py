import random

import pytest

from minmaxperm import (
    ArcKind,
    CyclicGraph,
    KMismatch,
    NotDirected,
    PreconditionViolation,
    ProfileValidationError,
    b_arc_pairs,
    build_easy_arcs,
    compute_profile,
    endpoint_arcs,
    nb_records,
    to_dot,
    validate_permutation,
)
from minmaxperm.graph import (
    Closure,
    easy_arc_seeds,
    require_solver_profile,
    topo_order,
)
from minmaxperm.profiles import NBRecord

from helpers import (
    SETTING_PERM,
    U,
    all_perms,
    arc_set,
    golden_profile,
    has_cycle,
    identity_perm,
    is_settled,
    make_profile,
    reference_close,
    unsat2_profile,
)


def chain(pairs, kind=ArcKind.R):
    """Seed arcs (x, y, kind), one kind for all."""
    return [(x, y, kind) for x, y in pairs]


def closed_arcs(c):
    """The (x, y) arcs of a full-fixpoint closure."""
    return arc_set(c.arcs())


class TestClosureSeeds:
    def test_first_kind_and_no_self_loop(self):
        c = Closure(2, [(1, 2, ArcKind.R), (1, 2, ArcKind.T), (1, 1, ArcKind.T)])
        assert c.arcs() == [(1, 2, ArcKind.R)]  # first seed keeps its kind
        assert not c.succ[1] >> 1 & 1           # self-loops never enter
        assert c.kinds == {(1, 2): ArcKind.R}

    def test_copy_isolated(self):
        c = Closure(2, [(0, 1, ArcKind.R)])
        h = c.copy()
        h.add([(1, 2, ArcKind.T)])
        assert closed_arcs(c) == {(0, 1)}
        assert h.succ[1] >> 2 & 1 and h.succ[0] >> 2 & 1
        assert h.kinds is None and c.kinds == {(0, 1): ArcKind.R}

    def test_dot_dump(self):
        dot = to_dot(Closure(1, chain([(0, 1), (1, 2)])))
        assert dot.startswith("digraph")
        assert '0 -> 1 [label="R"]' in dot


class TestBuildClosure:
    def test_transitivity_step(self):
        closed = Closure(2, chain([(1, 2), (2, 3)]))
        assert (1, 3) in closed_arcs(closed)
        assert closed.kinds[(1, 3)] is ArcKind.T

    def test_nb_rule_couples_arcs(self):
        rec = NBRecord(basis=(6, 7), top=2)
        closed = Closure(9, chain([(2, 6)]), [rec])
        assert (2, 7) in closed_arcs(closed)
        assert closed.kinds[(2, 7)] is ArcKind.NB

    def test_nb_rule_basis_side(self):
        closed = Closure(9, chain([(6, 2)]), [NBRecord(basis=(6, 7), top=2)])
        assert (7, 2) in closed_arcs(closed)

    def test_input_untouched(self):
        seeds = chain([(1, 2), (2, 3)])
        Closure(2, seeds)
        assert seeds == chain([(1, 2), (2, 3)])

    def test_confluence_small(self):
        F = golden_profile()
        recs = nb_records(F)
        seed = easy_arc_seeds(F)
        fast = closed_arcs(Closure(F.n, seed, recs))
        for trial in range(8):
            assert reference_close(F.n, arc_set(seed), recs, [], random.Random(trial)) == fast

    def test_b_rule_cascade(self):
        # one arc of an orientation drags in the full arc set
        F = golden_profile(directed=False)
        pairs = b_arc_pairs(F)
        closed = closed_arcs(Closure(9, endpoint_arcs(9), nb_records(F), pairs))
        # entry 0's plus side is triggered by the seed (0,1): M_0=9 lands between
        assert (9, 1) in closed
        # cascade resolves entry 1 to minus: 2 precedes 1
        assert (2, 1) in closed


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
        assert not is_settled(set(), NBRecord(basis=(6, 7), top=2))

    def test_top_first_complete(self):
        assert is_settled({(2, 6), (2, 7)}, NBRecord(basis=(6, 7), top=2))

    def test_golden_record_stays_open(self):
        res = build_easy_arcs(golden_profile())
        assert not is_settled(closed_arcs(res.graph), NBRecord(basis=(6, 7), top=2))


def order(n, seeds):
    """The topological order of the seeds, read off their closure's
    predecessor masks."""
    return topo_order(Closure(n, seeds).pred)


class TestCycleAndTopo:
    def test_chain(self):
        seeds = chain([(0, 1), (1, 2), (2, 3)])
        assert not Closure(2, seeds).cyclic
        assert order(2, seeds).elems == (0, 1, 2, 3)

    def test_two_cycle(self):
        seeds = chain([(1, 2), (2, 1)])
        assert Closure(2, seeds).cyclic
        with pytest.raises(CyclicGraph):
            order(2, seeds)

    def test_identity_total_order(self):
        res = build_easy_arcs(compute_profile(identity_perm(4), 1, True))
        expected = {(x, y) for x in range(6) for y in range(6) if x < y}
        assert closed_arcs(res.graph) == expected
        assert topo_order(res.graph.pred).elems == (0, 1, 2, 3, 4, 5)

    def test_smallest_tie_break(self):
        seeds = endpoint_arcs(3)
        assert order(3, seeds).elems == (0, 1, 2, 3, 4)
        seeds.append((2, 1, ArcKind.R))
        assert order(3, seeds).elems == (0, 2, 1, 3, 4)

    def test_random_graphs_order_or_cycle(self):
        # an order exists exactly when the engine-free check finds no
        # cycle, and it keeps every arc; at each step it takes the smallest
        # vertex with no remaining predecessor (the endpoint arcs pin 0 and
        # n+1, as a Permutation requires)
        rng = random.Random(1734)
        cyclic_cases = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            seeds = endpoint_arcs(n)
            for _ in range(rng.randint(0, 2 * n)):
                seeds.append((rng.randint(1, n), rng.randint(1, n), ArcKind.R))
            arcs = arc_set(seeds)
            if has_cycle(arcs):
                cyclic_cases += 1
                with pytest.raises(CyclicGraph):
                    order(n, seeds)
                continue
            elems = order(n, seeds).elems
            pos = {v: i for i, v in enumerate(elems)}
            assert all(pos[x] < pos[y] for x, y in arcs)
            for i, v in enumerate(elems):
                free = [u for u in elems[i:] if not any((w, u) in arcs for w in elems[i:])]
                assert v == min(free)
        assert 30 <= cyclic_cases <= 270


class TestBuildEasyArcs:
    def test_golden_silent_set(self):
        res = build_easy_arcs(golden_profile())
        assert not res.graph.cyclic
        assert res.silent == (NBRecord(basis=(6, 7), top=2),)

    def test_identity_empty_silent(self):
        for n in (1, 3, 6):
            res = build_easy_arcs(compute_profile(identity_perm(n), 1, True))
            assert res.silent == ()
            assert not res.graph.cyclic

    def test_unsat_profile_reports_no(self):
        res = build_easy_arcs(unsat2_profile())
        assert res.graph.cyclic
        assert has_cycle(closed_arcs(res.graph))

    def test_cyclic_graph_still_reports_silent(self):
        # the full fixpoint reports the records it leaves unjoined even when
        # it has a cycle
        from helpers import L, R
        entries = [(0, L, 0, 9), (1, L, 1, 9), (2, L, 1, 9), (3, R, 3, 5), (4, L, 4, 5),
                   (5, R, 1, 9), (6, R, 6, 7), (7, L, 1, 9), (8, R, 1, 9), (9, L, 1, 10)]
        F = make_profile(entries)
        res = build_easy_arcs(F)
        g = closed_arcs(res.graph)
        assert res.graph.cyclic and has_cycle(g)
        open_ = tuple(r for r in nb_records(F)
                      if (r.top, r.basis[0]) not in g and (r.basis[0], r.top) not in g)
        assert len(open_) == 2 and res.silent == open_

    def test_setting_example_fully_settles(self):
        # The betweenness facts of the last two entries (both have m=3) chain
        # through transitivity and settle every non-betweenness constraint,
        # so nothing stays silent for this permutation.  Acceptance criterion
        # 02 checks the same against the reference closure.
        P = validate_permutation(SETTING_PERM)
        res = build_easy_arcs(compute_profile(P, 1, True))
        assert not res.graph.cyclic
        assert res.silent == ()
        g = closed_arcs(res.graph)
        assert (3, 11) in g and res.graph.kinds[(3, 11)] is ArcKind.B
        assert (3, 5) in g   # settles top 3 over basis (5,6)
        assert (9, 11) in g  # settles top 11 over basis (8,9)

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
        base = Closure(29, chain(self.ARCS, kind=ArcKind.B), self.RECORDS)
        arcs = closed_arcs(base)
        assert not has_cycle(arcs)
        assert all(not is_settled(arcs, r) for r in self.RECORDS)
        trigger = base.arcs() + [(18, 12, ArcKind.NB)]
        closed = closed_arcs(Closure(29, trigger, self.RECORDS))
        assert (21, 25) in closed and (15, 8) in closed
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
                g = closed_arcs(res.graph)
                for r in nb_records(F):
                    if is_settled(g, r):
                        continue
                    a = r.top
                    t, u = r.basis
                    for p, q in ((a, t), (a, u)):
                        assert (p, q) not in g and (q, p) not in g


class TestClosureEngine:
    """The incremental engine against the one-rule-at-a-time reference, on
    random graphs (cycles included) with random NB records and B pairs."""

    @staticmethod
    def random_case(rng):
        n = rng.randint(1, 6)
        V = n + 2
        seeds = [(rng.randrange(V), rng.randrange(V), ArcKind.R)
                 for _ in range(rng.randint(0, 2 * V))]
        records = []
        for _ in range(rng.randint(0, 2 * V)):
            t, top = rng.randrange(n + 1), rng.randrange(V)
            if top not in (t, t + 1):
                records.append(NBRecord(basis=(t, t + 1), top=top))
        entries = [(t, U, rng.randint(0, t), rng.randint(t + 1, n + 1)) for t in range(n + 1)]
        pairs = b_arc_pairs(make_profile(entries, n=n, directed=False))
        pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        return n, seeds, records, pairs

    def test_matches_reference_and_flags_cycles(self):
        rng = random.Random(1986)
        cyclic_cases = 0
        for _ in range(150):
            n, seeds, records, pairs = self.random_case(rng)
            state = Closure(n, seeds, records, pairs)
            closed = closed_arcs(state)
            assert closed == reference_close(n, arc_set(seeds), records, pairs, rng)
            # every arc has a kind
            assert len(state.arcs()) == sum(row.bit_count() for row in state.succ)
            cyclic = has_cycle(closed)
            cyclic_cases += cyclic
            assert state.cyclic == cyclic
            V = n + 2
            assert all(state.pred[y] >> x & 1 == state.succ[x] >> y & 1
                       for x in range(V) for y in range(V))
            assert Closure(n, seeds, records, pairs, search=True).cyclic == cyclic
        assert 20 <= cyclic_cases <= 130

    def test_incremental_equals_batch(self):
        # inserting arcs into a closed state and closing from scratch agree
        rng = random.Random(1962)
        for _ in range(100):
            n, seeds, records, pairs = self.random_case(rng)
            V = n + 2
            extra = [(rng.randrange(V), rng.randrange(V)) for _ in range(3)]
            state = Closure(n, seeds, records, pairs)
            step = state.copy()
            assert step.kinds is None
            step.add([(x, y, ArcKind.NB) for x, y in extra])
            batch = Closure(n, seeds + [(x, y, ArcKind.NB) for x, y in extra], records, pairs)
            assert step.succ == batch.succ
            assert step.cyclic == has_cycle(closed_arcs(batch))

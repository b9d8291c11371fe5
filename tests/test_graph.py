import hashlib
import itertools
import random
import re
from collections import Counter

import pytest

from minmaxperm import (
    CyclicGraph,
    KMismatch,
    MinMaxError,
    NotDirected,
    PreconditionViolation,
    ProfileValidationError,
    TooLarge,
    compute_profile,
    nb_masks,
    root_closure,
    solve_fpt_directed,
    solve_undirected,
    to_dot,
    validate_permutation,
)
from minmaxperm import graph, solvers
from minmaxperm.graph import (
    DUMP_LIMIT,
    ArcKind,
    Closure,
    _b_pair,
    _full_closure,
    require_solver_profile,
    topo_order,
)
from minmaxperm.profiles import NBRecord

from helpers import (
    SETTING_PERM,
    L,
    R,
    U,
    all_perms,
    all_valid_directed,
    all_valid_undirected,
    arc_set,
    b_arc_pairs,
    deadline,
    endpoint_arcs,
    golden_profile,
    has_cycle,
    identity_perm,
    is_settled,
    make_profile,
    mask_arcs,
    masks_of,
    mutate_directed,
    mutate_undirected,
    nb_records,
    random_perm,
    reference_close,
    reference_topo_order,
    stated_arcs,
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
        dot = to_dot(compute_profile(identity_perm(1), 1, True))
        assert dot.startswith("digraph")
        assert '0 -> 1 [label="R"]' in dot

    def test_dot_dump_size_limit(self, monkeypatch):
        # refused before the full closure, which grows as n^2, runs
        def unreachable(F):
            raise AssertionError("closed a profile above the dump limit")
        monkeypatch.setattr(graph, "_full_closure", unreachable)
        with pytest.raises(TooLarge, match=f"limit {DUMP_LIMIT}$"):
            to_dot(compute_profile(identity_perm(DUMP_LIMIT + 1), 1, True))

    @staticmethod
    def _dump_sweep(directed):
        """Every valid profile with n <= 3 (directed) or n <= 4 (undirected)."""
        return ([F for n in range(1, 4) for F in all_valid_directed(n)] if directed
                else [F for n in range(1, 5) for F in all_valid_undirected(n)])

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_dot_arcs_are_the_reference_closure(self, directed):
        # every profile of the sweep, cyclic ones included: the arcs the
        # dump prints are the stated arcs closed by the one-rule-at-a-time
        # reference
        rng = random.Random(21)
        sweep = self._dump_sweep(directed)
        cyclic = 0
        for F in sweep:
            pairs = [] if directed else b_arc_pairs(F)
            ref = reference_close(F.n, stated_arcs(F), nb_records(F), pairs, rng)
            printed = {(int(x), int(y)) for x, y in re.findall(r"(\d+) -> (\d+)", to_dot(F))}
            assert printed == ref, F
            cyclic += has_cycle(ref)
        assert 0 < cyclic < len(sweep)

    @pytest.mark.parametrize("directed, count, digest", [
        (True, 153, "f2ae5faaa60c5e402a2bf1777060e459d0efb11e4d1d990f757c2b10461a68a8"),
        (False, 617, "ac99678b4d3788843b78dd3f198f2b8ca9da082e7d55e09e5b5de26091243097"),
    ], ids=["directed", "undirected"])
    def test_dot_bytes_pinned(self, directed, count, digest):
        # the sweep's dumps hashed together, labels included: a label is
        # the rule that first derived its pair, so it moves with the order
        # in which the seeds and the B sides' arcs reach `Closure.add`
        sweep = self._dump_sweep(directed)
        assert len(sweep) == count
        assert hashlib.sha256("".join(map(to_dot, sweep)).encode()).hexdigest() == digest


class TestBuildClosure:
    def test_transitivity_step(self):
        closed = Closure(2, chain([(1, 2), (2, 3)]))
        assert (1, 3) in closed_arcs(closed)
        assert closed.kinds[(1, 3)] is ArcKind.T

    def test_nb_rule_couples_arcs(self):
        rec = NBRecord(basis=(6, 7), top=2)
        closed = Closure(9, chain([(2, 6)]), masks_of(9, [rec]))
        assert (2, 7) in closed_arcs(closed)
        assert closed.kinds[(2, 7)] is ArcKind.NB

    def test_nb_rule_basis_side(self):
        closed = Closure(9, chain([(6, 2)]), masks_of(9, [NBRecord(basis=(6, 7), top=2)]))
        assert (7, 2) in closed_arcs(closed)

    def test_input_untouched(self):
        seeds = chain([(1, 2), (2, 3)])
        Closure(2, seeds)
        assert seeds == chain([(1, 2), (2, 3)])
        # the NB masks are copied: add() leaves the caller's list as it
        # was, and a later change to that list does not reach the closure
        nb = masks_of(9, [NBRecord(basis=(6, 7), top=2)])
        given = nb[:]
        c = Closure(9, chain([(0, 1)]), nb)
        c.add(chain([(2, 6)]))
        assert nb == given and (2, 7) in closed_arcs(c)
        nb[3] = 1 << 6
        c.add(chain([(3, 6)]))
        assert (3, 7) not in closed_arcs(c)

    def test_confluence_small(self):
        F = golden_profile()
        recs = nb_records(F)
        fast = closed_arcs(_full_closure(F))
        for trial in range(8):
            assert reference_close(F.n, stated_arcs(F), recs, [], random.Random(trial)) == fast

    def test_b_rule_cascade(self):
        # one arc of an orientation drags in the full arc set
        closed = closed_arcs(_full_closure(golden_profile(directed=False)))
        # entry 0's plus side is triggered by the seed (0,1): M_0=9 lands between
        assert (9, 1) in closed
        # cascade resolves entry 1 to minus: 2 precedes 1
        assert (2, 1) in closed


def library_pairs(F):
    """The B pairs the engine builds for each entry of F."""
    return [_b_pair(c.t, c.m, c.M) for c in F.entries()]


class TestBArcPairs:
    def test_vacuous_facts_add_no_arc(self):
        # identity n=3: every entry is [t, t+1], so both facts are vacuous
        for t, pair in enumerate(library_pairs(compute_profile(identity_perm(3), 1, True))):
            assert pair == (((t, t + 1),), ((t + 1, t),))
        pairs = library_pairs(golden_profile())
        assert pairs == b_arc_pairs(golden_profile())
        # entry 6 is 6 <->[4,7] 7: M coincides with the basis element 7
        assert pairs[6] == (((6, 7), (6, 4), (4, 7)), ((7, 6), (4, 6), (7, 4)))
        # entry 0 is 0 <->[0,9] 1: m coincides with 0
        assert pairs[0] == (((0, 1), (0, 9), (9, 1)), ((1, 0), (9, 0), (1, 9)))
        for pair in pairs:
            assert all(x != y for side in pair for x, y in side)


class TestIsSettled:
    def test_empty_graph(self):
        assert not is_settled(set(), NBRecord(basis=(6, 7), top=2))

    def test_top_first_complete(self):
        assert is_settled({(2, 6), (2, 7)}, NBRecord(basis=(6, 7), top=2))

    def test_golden_record_stays_open(self):
        res = root_closure(golden_profile())
        assert not is_settled(mask_arcs(res.closure.succ), NBRecord(basis=(6, 7), top=2))


def order(n, seeds):
    """The topological order of the seeds, read off their closure."""
    return topo_order(Closure(n, seeds))


class TestCycleAndTopo:
    def test_chain(self):
        seeds = chain([(0, 1), (1, 2), (2, 3)])
        assert not Closure(2, seeds).cyclic
        assert order(2, seeds).elems == (0, 1, 2, 3)

    def test_two_cycle(self):
        seeds = chain([(1, 2), (2, 1)])
        assert Closure(2, seeds).cyclic
        with deadline(5), pytest.raises(CyclicGraph):
            order(2, seeds)

    def test_identity_total_order(self):
        res = root_closure(compute_profile(identity_perm(4), 1, True))
        expected = {(x, y) for x in range(6) for y in range(6) if x < y}
        assert mask_arcs(res.closure.succ) == expected
        assert topo_order(res.closure).elems == (0, 1, 2, 3, 4, 5)

    def test_smallest_tie_break(self):
        seeds = chain(endpoint_arcs(3))
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
            seeds = chain(endpoint_arcs(n))
            for _ in range(rng.randint(0, 2 * n)):
                seeds.append((rng.randint(1, n), rng.randint(1, n), ArcKind.R))
            arcs = arc_set(seeds)
            if has_cycle(arcs):
                cyclic_cases += 1
                with deadline(5), pytest.raises(CyclicGraph):
                    order(n, seeds)
                continue
            elems = order(n, seeds).elems
            pos = {v: i for i, v in enumerate(elems)}
            assert all(pos[x] < pos[y] for x, y in arcs)
            for i, v in enumerate(elems):
                free = [u for u in elems[i:] if not any((w, u) in arcs for w in elems[i:])]
                assert v == min(free)
        assert 30 <= cyclic_cases <= 270


class TestTopoOrderReference:
    """`topo_order` walks the antichain of free vertices; the rescanning
    order of `helpers.reference_topo_order` must give the same witness."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_search_leaves_and_roots(self, monkeypatch, directed):
        # seeded large solves, odd ones edited: every leaf their searches
        # reach, and every acyclic search root
        lo, hi = (100, 150) if directed else (32, 64)
        solve, mutate = ((solve_fpt_directed, mutate_directed) if directed
                         else (solve_undirected, mutate_undirected))
        profiles = []
        for i in range(40):
            rng = random.Random(f"topo:{directed}:{i}")
            F = compute_profile(random_perm(rng, rng.randint(lo, hi)), 1, directed)
            profiles.append(mutate(rng, F) if i % 2 else F)
        leaves = []

        def record(closure):
            leaves.append(closure)
            return topo_order(closure)

        monkeypatch.setattr(solvers, "topo_order", record)
        for F in profiles:
            solve(F)
        roots = [root_closure(F).closure for F in profiles]
        closures = leaves + [c for c in roots if not c.cyclic]
        assert len(leaves) >= 20 and len(closures) >= 40
        for c in closures:
            assert topo_order(c) == reference_topo_order(c.pred)

    def test_full_fixpoint_roots_small(self):
        # every valid directed profile with n <= 4: an acyclic root gives
        # the reference order, and a cyclic one raises at once (a descent
        # through a cycle would never end)
        counts = [0, 0]
        for n in range(1, 5):
            for F in all_valid_directed(n):
                c = _full_closure(F)
                counts[c.cyclic] += 1
                if c.cyclic:
                    with deadline(5), pytest.raises(CyclicGraph):
                        topo_order(c)
                else:
                    assert topo_order(c) == reference_topo_order(c.pred)
        assert counts == [33, 4728]

    def test_random_dags_with_wide_antichains(self):
        # closures of random arcs that respect a hidden order, from sparse
        # (wide antichains, many free vertices at once) to dense
        rng = random.Random(4417)
        for _ in range(200):
            n = rng.randint(1, 60)
            hidden = random_perm(rng, n).elems
            seeds = chain(endpoint_arcs(n))
            for _ in range(rng.randint(0, 3 * n)):
                a, b = sorted(rng.sample(range(n + 2), 2))
                seeds.append((hidden[a], hidden[b], ArcKind.R))
            c = Closure(n, seeds)
            assert not c.cyclic
            assert topo_order(c) == reference_topo_order(c.pred)


class TestRootClosure:
    def test_golden_silent_set(self):
        res = root_closure(golden_profile())
        assert not res.closure.cyclic
        assert res.silent_nb == (NBRecord(basis=(6, 7), top=2),)
        res = root_closure(golden_profile(directed=False))
        assert not res.closure.cyclic
        assert res.silent_b == (6,)

    def test_identity_empty_silent(self):
        for n in (1, 3, 6):
            res = root_closure(compute_profile(identity_perm(n), 1, True))
            assert res.silent_nb == ()
            assert not res.closure.cyclic

    def test_unsat_profile_reports_no(self):
        res = root_closure(unsat2_profile())
        assert res.closure.cyclic
        assert has_cycle(closed_arcs(_full_closure(unsat2_profile())))

    def test_cyclic_graph_reports_nothing_silent(self):
        # a cyclic root is the verdict NO, with nothing left to search
        entries = [(0, L, 0, 9), (1, L, 1, 9), (2, L, 1, 9), (3, R, 3, 5), (4, L, 4, 5),
                   (5, R, 1, 9), (6, R, 6, 7), (7, L, 1, 9), (8, R, 1, 9), (9, L, 1, 10)]
        F = make_profile(entries)
        res = root_closure(F)
        full = _full_closure(F)
        assert res.closure.cyclic and full.cyclic and has_cycle(closed_arcs(full))
        assert res.silent_nb == res.silent_b == ()

    def test_setting_example_fully_settles(self):
        # The betweenness facts of the last two entries (both have m=3) chain
        # through transitivity and settle every non-betweenness constraint,
        # so nothing stays silent for this permutation.  Acceptance criterion
        # 02 checks the same against the reference closure.
        P = validate_permutation(SETTING_PERM)
        F = compute_profile(P, 1, True)
        res = root_closure(F)
        assert not res.closure.cyclic
        assert res.silent_nb == ()
        full = _full_closure(F)
        g = closed_arcs(full)
        assert g == mask_arcs(res.closure.succ)
        assert (3, 11) in g and full.kinds[(3, 11)] is ArcKind.B
        assert (3, 5) in g   # settles top 3 over basis (5,6)
        assert (9, 11) in g  # settles top 11 over basis (8,9)

    def test_undirected_full_fixpoint_matches_reference(self):
        # the endpoint arcs closed under T/NB/B by the one-rule-at-a-time
        # reference give the full fixpoint's arcs and the cycle flag, cyclic
        # or not, and an acyclic root's masks and both silent sets
        rng = random.Random(2014)
        profiles = [golden_profile(directed=False)]
        for _ in range(30):
            n = rng.randint(2, 8)
            profiles.append(mutate_undirected(rng, compute_profile(random_perm(rng, n), 1, False)))
        cyclic_cases = 0
        for F in profiles:
            records, pairs = nb_records(F), b_arc_pairs(F)
            ref = reference_close(F.n, stated_arcs(F), records, pairs, rng)
            full, res = _full_closure(F), root_closure(F)
            assert closed_arcs(full) == ref
            assert full.cyclic == res.closure.cyclic == has_cycle(ref)
            cyclic_cases += full.cyclic
            if full.cyclic:
                continue
            assert mask_arcs(res.closure.succ) == ref
            joined = ref | {(y, x) for x, y in ref}
            assert res.silent_nb == tuple(r for r in records if (r.top, r.basis[0]) not in joined)
            assert res.silent_b == tuple(t for t in range(len(pairs)) if (t, t + 1) not in joined)
        assert 0 < cyclic_cases < len(profiles)

    def test_directed_full_fixpoint_matches_reference(self):
        # the directed counterpart: R/B seeds closed under T/NB by the
        # reference give the full fixpoint's arcs and the cycle flag, and an
        # acyclic root's masks and silent NB set
        rng = random.Random(1402)
        profiles = [golden_profile()]
        for _ in range(30):
            n = rng.randint(2, 8)
            profiles.append(mutate_directed(rng, compute_profile(random_perm(rng, n), 1, True)))
        cyclic_cases = 0
        for F in profiles:
            records = nb_records(F)
            ref = reference_close(F.n, stated_arcs(F), records, [], rng)
            full, res = _full_closure(F), root_closure(F)
            assert closed_arcs(full) == ref
            assert full.cyclic == res.closure.cyclic == has_cycle(ref)
            cyclic_cases += full.cyclic
            if full.cyclic:
                continue
            joined = ref | {(y, x) for x, y in ref}
            assert res.silent_nb == tuple(r for r in records if (r.top, r.basis[0]) not in joined)
            assert res.silent_b == ()
            assert mask_arcs(res.closure.succ) == ref
            assert {(x, y) for y, x in mask_arcs(res.closure.pred)} == ref
        assert 0 < cyclic_cases < len(profiles)

    @staticmethod
    def _per_arc_root(F) -> Closure:
        """The search root of F grown arc by arc from its stated arcs,
        watching every B pair of an undirected profile."""
        pairs = [] if F.directed else b_arc_pairs(F)
        return Closure(F.n, chain(stated_arcs(F)), nb_masks(F), pairs, search=True)

    @classmethod
    def _bulk_matches_per_arc(cls, F) -> bool:
        """The search root, built in bulk rounds, against the per-arc
        closure of the same seeds and B pairs, and its silent sets against
        the constraints that closure leaves unjoined; returns the cycle
        flag."""
        bulk = root_closure(F)
        per_arc = cls._per_arc_root(F)
        assert bulk.closure.cyclic == per_arc.cyclic
        if per_arc.cyclic:
            # both stop at a cycle, with masks closed as far as their
            # insertion order got; the verdict is all that is read
            assert bulk.silent_nb == bulk.silent_b == ()
        else:
            succ = per_arc.succ
            assert bulk.closure.succ == succ
            assert bulk.closure.pred == per_arc.pred

            def linked(x, y):
                return succ[x] >> y & 1 or succ[y] >> x & 1
            assert bulk.silent_nb == tuple(r for r in nb_records(F)
                                           if not linked(r.top, r.basis[0]))
            pairs = () if F.directed else b_arc_pairs(F)
            assert bulk.silent_b == tuple(t for t in range(len(pairs)) if not linked(t, t + 1))
        return per_arc.cyclic

    def test_bulk_search_root_every_valid_profile(self):
        # every valid directed gap-1 profile with n <= 4; all but 33 are NO
        flags = [self._bulk_matches_per_arc(F)
                 for n in range(1, 5) for F in all_valid_directed(n)]
        assert (len(flags), sum(flags)) == (4761, 4728)

    def test_bulk_search_root_every_valid_undirected_profile(self):
        # every valid undirected gap-1 profile with n <= 5; all but 149 are
        # cyclic at the root
        flags = [self._bulk_matches_per_arc(F)
                 for n in range(1, 6) for F in all_valid_undirected(n)]
        assert (len(flags), sum(flags)) == (15017, 14868)

    def test_bulk_search_root_permutation_profiles(self):
        for directed, top in ((True, 7), (False, 6)):
            for n in range(1, top + 1):
                for P in all_perms(n):
                    F = compute_profile(P, 1, directed)
                    assert not self._bulk_matches_per_arc(F), P

    def test_bulk_search_root_mutated(self):
        rng = random.Random(1986)
        cyclic = sum(self._bulk_matches_per_arc(
            mutate_directed(rng, compute_profile(random_perm(rng, rng.randint(2, 150)), 1, True)))
            for _ in range(200))
        assert 0 < cyclic < 200

    def test_bulk_search_root_mutated_undirected(self):
        rng = random.Random(1987)
        cyclic = sum(self._bulk_matches_per_arc(
            mutate_undirected(rng, compute_profile(random_perm(rng, rng.randint(2, 60)), 1, False)))
            for _ in range(200))
        assert 0 < cyclic < 200

    @pytest.mark.parametrize("n", [64, 100, 150])
    def test_bulk_search_root_mutated_undirected_long_cascades(self, n):
        # edited undirected profiles large enough that the closure cascades
        # inward from the pinned ends through many passes; most are cyclic
        rng = random.Random(f"cascade:{n}")
        cyclic = sum(self._bulk_matches_per_arc(
            mutate_undirected(rng, compute_profile(random_perm(rng, n), 1, False)))
            for _ in range(40))
        assert 0 < cyclic < 40

    @pytest.mark.parametrize("directed, n", [(True, 64), (True, 100), (True, 150),
                                             (False, 64), (False, 100)])
    def test_bulk_search_root_permutation_profiles_large(self, directed, n):
        # unedited profiles do not stop at an early cycle, so their roots
        # run the column rule's cascades over several passes to the end
        rng = random.Random(f"multipass:{directed}:{n}")
        for _ in range(10):
            F = compute_profile(random_perm(rng, n), 1, directed)
            assert not self._bulk_matches_per_arc(F)

    def test_bulk_root_column_cascade_over_three_passes(self):
        # Pass 1's column sweep forces 6 -> 2 on the pair (6, 7), as 2 may
        # not lie between 6 and 7.  Pass 2's sweep carries it to 5 -> 2 on
        # (5, 6), after it has passed (4, 5), so only pass 3's sweep, which
        # tests (4, 5) again because row 5 changed, carries it on to 4 -> 2.
        P = validate_permutation((0, 3, 1, 7, 6, 5, 4, 2, 8))
        F = compute_profile(P, 1, True)
        assert not self._bulk_matches_per_arc(F)
        succ = root_closure(F).closure.succ
        assert all(succ[v] >> 2 & 1 for v in (4, 5, 6))

    @pytest.mark.parametrize("elems, directed, row, gained", [
        # Pass 1's column sweep on the pair (2, 3) forces 3 -> 1 and
        # 3 -> 7 into the empty row 3.  Row 1 did not change, yet pass 2
        # must cover the forced arc 3 -> 1, since row 3 grew, to gain 5.
        ((0, 2, 4, 6, 3, 1, 5, 7), True, 3, 5),
        # Row 2 finishes holding 1 and 7, and the NB rule forces 2 -> 6,
        # not yet visited.  The walk finishes 6 holding 4, and row 2, closed
        # again, must cover the forced arc 2 -> 6 to gain 4.
        ((0, 2, 6, 4, 7, 1, 3, 5, 8), True, 2, 4),
        # Pass 1's B sweep forces 2 -> 1, 2 -> 5 and 2 -> 3 (pairs 1 and
        # 2), and 5 -> 4 and 1 -> 4 (pair 4).  Pass 2 must cover row 2's
        # forced arcs to gain 4.
        ((0, 2, 5, 3, 1, 4, 6), False, 2, 4),
    ], ids=["column-forced", "nb-forced", "b-forced"])
    def test_bulk_root_covers_the_arcs_its_rules_force(self, elems, directed, row, gained):
        # a finishing row ORs in the rows of its arcs, the seeds and the
        # arcs a rule forced, not of every vertex its closed row names
        F = compute_profile(validate_permutation(elems), 1, directed)
        assert not self._bulk_matches_per_arc(F)
        assert root_closure(F).closure.succ[row] >> gained & 1

    def test_bulk_root_descends_into_nb_forced_head(self):
        # The first pass of the walk finishes 6, 1 and 5; row 0 then holds 1
        # and 5, and the NB rule forces 0 -> 2 and 0 -> 4, neither visited
        # yet.  The walk must finish them first and close row 0 again over
        # their rows, which forces 0 -> 3, visited last.  The sweep after
        # that pass forces nothing, so no later pass would mend a row
        # finished early.
        F = compute_profile(validate_permutation((0, 3, 4, 2, 5, 1, 6)), 1, True)
        assert not self._bulk_matches_per_arc(F)

    def test_bulk_root_nb_forced_head_on_stack_is_cycle(self):
        # Seeds 0 -> 1, 1 -> 3, 2 -> 1 and 2 -> 3.  Row 0 finishes holding 1,
        # so "0 is not between 1 and 2" forces 0 -> 2, and the walk descends
        # from 0 into 2.  Row 2 holds 1, so "2 is not between 0 and 1"
        # forces 2 -> 0, a head still on the stack: the cycle 0 -> 2 -> 0.
        # The pass stops there, so, as in the per-arc root, no row reaches
        # its own vertex.
        F = make_profile([(0, L, 0, 1), (1, R, 1, 2), (2, L, 1, 3)])
        assert self._bulk_matches_per_arc(F)
        for root in (root_closure(F).closure, self._per_arc_root(F)):
            assert not any(row >> v & 1 for v, row in enumerate(root.succ))

    def test_search_root_watches_silent_pairs_only(self):
        # the bulk root watches only its silent B pairs, the per-arc root
        # every pair; either side of every silent choice grows both alike,
        # and the search's decision arc, the side's first, grows the bulk
        # root as the whole side does
        rng = random.Random(1988)
        cases = sides_tried = one_arc_cyclic = 0
        while cases < 40:
            n = rng.randint(4, 40)
            F = compute_profile(random_perm(rng, n), 1, False)
            if rng.random() < 0.5:
                F = mutate_undirected(rng, F)
            bulk = root_closure(F)
            if bulk.closure.cyclic or not bulk.silent_b:
                continue
            cases += 1
            per_arc = self._per_arc_root(F)
            pairs = library_pairs(F)
            sides = [side for t in bulk.silent_b for side in pairs[t]]
            assert set(bulk.closure._b_sides) == {arc for side in sides for arc in side}
            for r in bulk.silent_nb:
                top, (t, u) = r.top, r.basis
                sides += [((top, t), (top, u)), ((t, top), (u, top))]
            for side in sides:
                grown = []
                for root, arcs in ((bulk.closure, side), (per_arc, side), (bulk.closure, side[:1])):
                    node = root.copy()
                    node.add([(x, y, ArcKind.B) for x, y in arcs])
                    grown.append((node.succ, node.pred, node.cyclic))
                assert grown[0] == grown[1], (F, side)
                # a cyclic node stops at its first cycle, its masks closed as
                # far as its insertion order got, so only the flag is read
                whole, one_arc = grown[0], grown[2]
                assert one_arc[2] == whole[2] and (whole[2] or one_arc == whole), (F, side)
                one_arc_cyclic += one_arc[2]
                sides_tried += 1
        assert sides_tried > 200 and 0 < one_arc_cyclic < sides_tried

    def test_gate_rejections(self):
        # the search root and the dump run the same gate
        bad = make_profile([(0, None, 0, 3), (1, None, 0, 3), (2, None, 1, 3), (3, None, 1, 4)],
                           n=3, directed=False)
        with pytest.raises(ProfileValidationError):
            require_solver_profile(bad)
        for build in (root_closure, to_dot):
            with pytest.raises(KMismatch):
                build(compute_profile(identity_perm(4), 2, True))
            with pytest.raises(ProfileValidationError):
                build(bad)
            with pytest.raises(NotDirected):
                build(make_profile([(0, L, 0, 2), (1, U, 1, 2), (2, L, 2, 3)], n=2))

    @staticmethod
    def _gate_outcome(build, F):
        """What `build(F)` raises, as (class, message, violations), or None."""
        try:
            build(F)
        except MinMaxError as exc:
            return type(exc), str(exc), getattr(exc, "violations", None)
        return None

    @staticmethod
    def _edge_profiles():
        """Every profile with n <= 1 whose m and M lie in [-1, n + 2], any
        direction; about 2,000 seeded n = 2..12 profiles, each a random
        permutation's with a few entries redrawn from those ranges; and a
        few k = 2 profiles."""
        for n in (0, 1):
            values = range(-1, n + 3)
            for directed, dirs in ((True, (L, R, U)), (False, (U,))):
                entry = list(itertools.product(values, values, dirs))
                for combo in itertools.product(entry, repeat=n + 1):
                    yield make_profile([(t, d, m, M) for t, (m, M, d) in enumerate(combo)],
                                       n=n, directed=directed)
        rng = random.Random("gate")
        for j in range(2000):
            n, directed = rng.randint(2, 12), j % 2 == 0
            entries = [(c.t, c.dir, c.m, c.M)
                       for c in compute_profile(random_perm(rng, n), 1, directed).entries()]
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                t = rng.randint(0, n)
                _, d, m, M = entries[t]
                field = rng.randrange(3)
                if field == 0:
                    m = rng.randint(-1, n + 2)
                elif field == 1:
                    M = rng.randint(-1, n + 2)
                elif directed:
                    d = rng.choice((L, R, U))
                entries[t] = (t, d, m, M)
            yield make_profile(entries, n=n, directed=directed)
        for n, directed in ((1, True), (3, False), (5, True)):
            yield compute_profile(random_perm(rng, n), 2, directed)

    def test_fused_check_is_the_gate(self):
        # root_closure checks the entries in its own sweep and leaves the
        # errors to the gate: it fails exactly where the gate fails, with
        # the same class, message and violation list
        outcomes = Counter()
        for F in self._edge_profiles():
            gate = self._gate_outcome(require_solver_profile, F)
            assert self._gate_outcome(root_closure, F) == gate, F
            outcomes[gate[0].__name__ if gate else "valid"] += 1
        assert set(outcomes) == {"valid", "KMismatch", "ProfileValidationError",
                                 "NotDirected", "PreconditionViolation"}
        assert outcomes["valid"] > 500, outcomes

    def test_gate_boundary_direction(self):
        entries = [(0, R, 0, 2), (1, L, 1, 2), (2, L, 2, 3)]
        for build in (root_closure, to_dot):
            with pytest.raises(PreconditionViolation):
                build(make_profile(entries, n=2))


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
        base = Closure(29, chain(self.ARCS, kind=ArcKind.B), masks_of(29, self.RECORDS))
        arcs = closed_arcs(base)
        assert not has_cycle(arcs)
        assert all(not is_settled(arcs, r) for r in self.RECORDS)
        trigger = base.arcs() + [(18, 12, ArcKind.NB)]
        closed = closed_arcs(Closure(29, trigger, masks_of(29, self.RECORDS)))
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
                assert all(pos[x] < pos[y] for x, y, _ in _full_closure(F).arcs())

    def test_endpoint_arcs_never_reversed(self):
        # nothing ever enters 0 or leaves n+1
        for n in range(1, 6):
            for P in all_perms(n):
                for x, y, _ in _full_closure(compute_profile(P, 1, True)).arcs():
                    assert y != 0 and x != n + 1

    def test_post_closure_dichotomy(self):
        # every record is settled or has no arc joining its top to its basis
        for n in range(1, 7):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                g = closed_arcs(_full_closure(F))
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
            state = Closure(n, seeds, masks_of(n, records), pairs)
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
            assert Closure(n, seeds, masks_of(n, records), pairs, search=True).cyclic == cyclic
        assert 20 <= cyclic_cases <= 130

    def test_incremental_equals_batch(self):
        # inserting arcs into a closed state and closing from scratch agree
        rng = random.Random(1962)
        for _ in range(100):
            n, seeds, records, pairs = self.random_case(rng)
            V = n + 2
            extra = [(rng.randrange(V), rng.randrange(V)) for _ in range(3)]
            state = Closure(n, seeds, masks_of(n, records), pairs)
            step = state.copy()
            assert step.kinds is None
            step.add([(x, y, ArcKind.NB) for x, y in extra])
            batch = Closure(n, seeds + [(x, y, ArcKind.NB) for x, y in extra],
                            masks_of(n, records), pairs)
            assert step.succ == batch.succ
            assert step.cyclic == has_cycle(closed_arcs(batch))

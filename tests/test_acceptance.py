"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 02, 03 and 04 assert golden values derived from the
profiles' own facts, not the values first recorded for them, which those
facts contradict: the second worked example leaves no constraint silent,
the 30-entry circuit profile is contradictory before the triggering arc,
and the running example has 24 undirected witnesses, not 6.  Each of these
tests re-derives its value without the closure engine; docs/goldens.md
gives the derivations.
"""

import random
import time

import numpy as np

from minmaxperm import (
    brute_force_solutions,
    collision_pair,
    compute_profile,
    emit_profile,
    fixed_positions_check,
    is_linear,
    min_unique_k,
    parse_profile,
    root_closure,
    solve_fpt_directed,
    solve_linear,
    validate_permutation,
    validate_profile,
    verify,
)
from minmaxperm.graph import ArcKind, Closure, _full_closure
from minmaxperm.profiles import NBRecord, pair_count, profile_pairs

from helpers import (
    GOLDEN_ENTRIES,
    GOLDEN_PERM,
    SETTING_PERM,
    all_perms,
    arc_set,
    b_arc_pairs,
    circuit_profile,
    golden_profile,
    golden_witness_family,
    has_cycle,
    is_settled,
    mask_arcs,
    masks_of,
    mutate_directed,
    nb_records,
    perm_rows,
    random_perm,
    random_valid_directed,
    reference_close,
    seed_arcs,
    slot_codes,
    stated_arcs,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_golden_profile():
    P = validate_permutation(GOLDEN_PERM)
    elapsed = []
    for directed in (True, False):
        best = min(_timed(lambda: compute_profile(P, 1, directed)) for _ in range(5))
        elapsed.append(best)
    ok = True
    for directed in (True, False):
        F = compute_profile(P, 1, directed)
        for t, d, m, M in GOLDEN_ENTRIES:
            c = F.entry(t)
            ok &= (c.m, c.M) == (m, M)
            if directed:
                ok &= c.dir == d
    fast = max(elapsed) < 1e-3
    assert _report(1, ok and fast,
                   f"entry-exact both variants; {max(elapsed)*1e6:.0f}us per call")
    assert ok and fast


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_silent_set_goldens():
    res1 = root_closure(golden_profile())
    first = res1.silent_nb == (NBRecord(basis=(6, 7), top=2),)

    # Second worked example.  Entry (11,1) is `<` with m = 3: 3 lies between
    # 12 and 11 with 12 on the left, so (3,11) is a seed B-arc.  With the
    # seed arc (8,3), T gives (8,11), and not(8 <-11-> 9) then forces
    # (9,11); with the seed arc (11,6), T gives (3,6), and not(5 <-3-> 6)
    # then forces (3,5).  Neither record can stay silent, and none does.
    P = validate_permutation(SETTING_PERM)
    F2 = compute_profile(P, 1, True)
    res2 = root_closure(F2)
    expected_arcs = {(3, 5), (3, 6), (3, 9), (3, 11), (5, 6), (5, 11), (8, 3),
                     (8, 5), (8, 6), (8, 9), (8, 11), (9, 6), (9, 11), (11, 6)}
    sub = {3, 5, 6, 8, 9, 11}

    def induced(arcs):
        return {(x, y) for x, y in arcs if x in sub and y in sub}

    second = res2.silent_nb == () and induced(mask_arcs(res2.closure.succ)) == expected_arcs

    # the same values without graph.Closure: the seed arc, the one-rule-at-
    # a-time reference closure, and the permutation's own positions
    seeds, records = stated_arcs(F2), nb_records(F2)
    ref = reference_close(F2.n, seeds, records, [], random.Random(2))
    pos = P.positions()
    independent = ((3, 11) in seeds
                   and induced(ref) == expected_arcs
                   and all(is_settled(ref, r) for r in records)
                   and all(pos[x] < pos[y] for x, y in expected_arcs))

    _report(2, first and second and independent,
            f"first golden silent set {'ok' if first else 'differs'}; "
            f"second golden {'ok' if second else 'differs'} "
            f"(computed silent={sorted((r.top, r.basis) for r in res2.silent_nb)}, "
            f"{len(induced(mask_arcs(res2.closure.succ)))} induced arcs); "
            f"reference closure {'agrees' if independent else 'differs'}")
    assert first and second and independent


# Two chains of steps that derive both 21<27 and 27<21 from the circuit
# profile's entries alone.  A step (x, y, rule, w) adds the arc (x, y):
# S is a seed arc of entry w, T joins (x, w) and (w, y), and NB applies the
# record of entry w, whose basis is (w, w+1).
CIRCUIT_CONTRADICTION = [
    (19, 16, "S", 18), (16, 27, "S", 15), (19, 27, "T", 16),
    (18, 27, "NB", 18),                    # not(18 <-27-> 19)
    (22, 18, "S", 18), (22, 27, "T", 18),
    (21, 27, "NB", 21),                    # not(21 <-27-> 22)
    (27, 15, "S", 15), (15, 24, "S", 24), (27, 24, "T", 15),
    (25, 13, "S", 12), (24, 13, "NB", 24),  # not(24 <-13-> 25)
    (27, 13, "T", 24),
    (27, 12, "NB", 12),                    # not(12 <-27-> 13)
    (12, 8, "S", 12), (8, 21, "S", 7), (12, 21, "T", 8), (27, 21, "T", 12),
]


def _check_derivation(F, steps) -> set[tuple[int, int]]:
    """Re-derive every step from F's entries and the earlier steps; return
    the derived arcs.  Reads nothing but the profile."""
    known: set[tuple[int, int]] = set()
    for x, y, rule, w in steps:
        if rule == "S":
            ok = (x, y) in seed_arcs(F.entry(w))
        elif rule == "T":
            ok = (x, w) in known and (w, y) in known
        else:
            c = F.entry(w)
            basis = (w, w + 1)
            top, end = (x, y) if y in basis else (y, x)
            other = basis[0] + basis[1] - end
            premise = (top, other) if top == x else (other, top)
            ok = end in basis and not c.m <= top <= c.M and premise in known
        assert ok, f"step {(x, y, rule, w)} does not follow"
        known.add((x, y))
    return known


def test_criterion_03_circuit_golden():
    F = circuit_profile()
    assert validate_profile(F) == []

    # (a) The 30-entry profile is contradictory before the triggering arc:
    # its verdict is NO, proven by the checked derivation above and by the
    # reference closure.
    derived = _check_derivation(F, CIRCUIT_CONTRADICTION)
    proven = {(21, 27), (27, 21)} <= derived
    ref_cyclic = has_cycle(reference_close(F.n, stated_arcs(F), nb_records(F),
                                           [], random.Random(3)))
    verdict_no = (root_closure(F).closure.cyclic
                  and solve_fpt_directed(F).is_no)

    # (b) The circuit construction itself, on the figure's system: the seed
    # arcs of the six special entries and four of their NB records.
    g = [(x, y, ArcKind.B) for t in (7, 12, 15, 18, 21, 24) for x, y in seed_arcs(F.entry(t))]
    records = [NBRecord(basis=(21, 22), top=25), NBRecord(basis=(15, 16), top=8),
               NBRecord(basis=(18, 19), top=25), NBRecord(basis=(18, 19), top=12)]
    assert set(records) <= set(nb_records(F))
    base = Closure(F.n, g, masks_of(F.n, records)).arcs()
    base_acyclic = not has_cycle(arc_set(base))
    all_silent = not any(is_settled(arc_set(base), r) for r in records)
    trigger = base + [(18, 12, ArcKind.NB)]
    cycle_after = has_cycle(arc_set(Closure(F.n, trigger, masks_of(F.n, records)).arcs()))

    ok = proven and ref_cyclic and verdict_no and base_acyclic and all_silent and cycle_after
    _report(3, ok,
            f"30-entry profile NO before +(18,12): derivation={proven}, "
            f"reference cyclic={ref_cyclic}, solvers NO={verdict_no}; "
            f"figure system: base acyclic={base_acyclic}, records silent={all_silent}, "
            f"cycle after +(18,12)={cycle_after}")
    assert ok


def test_criterion_04_solution_set_reproduction():
    # The recorded six (3, 5 and 8 in any order) are a quarter of the set:
    # 2 may also sit right after 0, and the undirected profile leaves the
    # order of 6 and 7 open.
    F = golden_profile(directed=False)
    t0 = time.perf_counter()
    sols = set(brute_force_solutions(F))
    elapsed = time.perf_counter() - t0
    expected = golden_witness_family(directed=False)
    assert len(expected) == 24
    exact = sols == expected
    fast = elapsed < 5.0
    assert all(verify(p, F) for p in sols)
    _report(4, exact and fast,
            f"|solutions|={len(sols)}, equal to the 24-member family={exact}; {elapsed:.2f}s")
    assert exact and fast


def test_criterion_05_linear_solver_exhaustive():
    t0 = time.perf_counter()
    linear_count = 0
    for n in range(1, 9):
        for P in all_perms(n):
            F = compute_profile(P, 1, True)
            if not is_linear(F):
                continue
            linear_count += 1
            out = solve_linear(F)
            assert out.witness is not None and verify(out.witness, F)

    rng = random.Random(20240817)
    sampled = 0
    agreeing = 0
    while sampled < 1000:
        n = rng.randint(2, 8)
        F = mutate_directed(rng, compute_profile(random_perm(rng, n), 1, True))
        if not is_linear(F):
            continue
        sampled += 1
        out = solve_linear(F)
        sols = brute_force_solutions(F)
        if out.is_no == (not sols):
            agreeing += 1
        if out.witness is not None:
            assert out.witness in sols
    elapsed = time.perf_counter() - t0
    ok = agreeing == 1000 and elapsed < 120
    _report(5, ok,
            f"{linear_count} linear profiles solved with verified witnesses, "
            f"0 inconsistency events; {agreeing}/1000 verdicts match oracle; {elapsed:.1f}s")
    assert ok


def test_criterion_06_fpt_oracle_equivalence():
    t0 = time.perf_counter()
    for n in range(1, 8):
        for P in all_perms(n):
            F = compute_profile(P, 1, True)
            out = solve_fpt_directed(F)
            assert out.witness is not None, f"missed witness for profile of {P}"
            assert out.witness in brute_force_solutions(F)

    rng = random.Random(6180339)
    for case in range(1000):
        n = rng.randint(2, 7)
        if case % 2 == 0:
            F = random_valid_directed(rng, n)
        else:
            F = mutate_directed(rng, compute_profile(random_perm(rng, n), 1, True))
        out = solve_fpt_directed(F)
        sols = brute_force_solutions(F)
        assert out.is_no == (not sols), emit_profile(F)
        if not out.is_no:
            assert out.witness in sols
    elapsed = time.perf_counter() - t0
    _report(6, True, f"exact agreement on all n<=7 profiles and 1000 random ones; {elapsed:.1f}s")


def test_criterion_07_min_k_undirected():
    t0 = time.perf_counter()
    values = {}
    for n in range(1, 9):
        values[n] = min_unique_k(n, directed=False).min_k
    formula_ok = all(values[n] == max(1, n - 3) for n in values)
    pairs_ok = True
    for n in range(5, 9):
        P, Q = collision_pair(n, n - 4, directed=False)
        pairs_ok &= P != Q and compute_profile(P, n - 4, False) == compute_profile(Q, n - 4, False)
    elapsed = time.perf_counter() - t0
    ok = formula_ok and pairs_ok and elapsed < 300
    _report(7, ok, f"min_k={values}; collision pairs verified for n=5..8; {elapsed:.1f}s")
    assert ok


def test_criterion_08_min_k_directed_lower_bound():
    t0 = time.perf_counter()
    ok = True
    for n in (6, 7, 8):
        bound = -(-(n - 3) // 2)
        for k in range(1, bound):
            P, Q = collision_pair(n, k, directed=True)
            ok &= P != Q
            ok &= compute_profile(P, k, True) == compute_profile(Q, k, True)
        exact = min_unique_k(n, directed=True).min_k
        ok &= exact >= bound
    elapsed = time.perf_counter() - t0
    _report(8, ok, f"collision pairs below ceil((n-3)/2) and exhaustive min_k >= bound; {elapsed:.1f}s")
    assert ok


def test_criterion_09_fixed_positions():
    t0 = time.perf_counter()
    for n in range(1, 8):
        for k in range(1, n + 2):
            for directed in (False, True):
                assert fixed_positions_check(n, k, directed), (n, k, directed)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    _report(9, ok, f"all n<=7, all k, both variants; {elapsed:.1f}s")
    assert ok


def _confluence_cases():
    yield golden_profile()
    yield compute_profile(validate_permutation(SETTING_PERM), 1, True)
    rng = random.Random(55)
    for _ in range(2):
        yield mutate_directed(rng, compute_profile(random_perm(rng, 6), 1, True))
    yield golden_profile(directed=False)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()

    # closure confluence: 50 randomized rule orders per instance
    for F in _confluence_cases():
        fast = arc_set(_full_closure(F).arcs())
        seeds, records = stated_arcs(F), nb_records(F)
        pairs = [] if F.directed else b_arc_pairs(F)
        for trial in range(50):
            ref = reference_close(F.n, seeds, records, pairs, random.Random(trial))
            assert ref == fast

    # closure soundness against witness positions, all n <= 7
    for n in range(1, 8):
        for P in all_perms(n):
            res = root_closure(compute_profile(P, 1, True))
            pos = P.positions()
            assert all(pos[x] < pos[y] for x, y in mask_arcs(res.closure.succ))

    # complement duality of directed k-profiles, all n <= 7, all k
    for n in range(1, 8):
        rows = perm_rows(n)
        dual_rows = (n + 1 - rows)[:, ::-1]
        for k in range(1, n + 2):
            codes = slot_codes(rows, k, True).T
            dcodes = slot_codes(dual_rows, k, True).T
            L = pair_count(n, k)
            pairs = profile_pairs(n, k)
            index = {pair: i for i, pair in enumerate(pairs)}
            remap = np.array([index[(n + 1 - t - i, i)] for t, i in pairs])
            m, M, d = codes[:, :L], codes[:, L:2 * L], codes[:, 2 * L:]
            dm = dcodes[:, :L][:, remap]
            dM = dcodes[:, L:2 * L][:, remap]
            dd = dcodes[:, 2 * L:][:, remap]
            assert np.array_equal(dm, n + 1 - M)
            assert np.array_equal(dM, n + 1 - m)
            assert np.array_equal(dd, d)

    # profile-format round-trip on 1000 random documents
    rng = random.Random(271828)
    for _ in range(1000):
        n = rng.randint(1, 8)
        P = random_perm(rng, n)
        F = compute_profile(P, rng.randint(1, n + 1), rng.random() < 0.5)
        doc = emit_profile(F)
        assert parse_profile(doc) == F
        assert emit_profile(parse_profile(doc)) == doc

    elapsed = time.perf_counter() - t0
    _report(10, True,
            f"confluence x50, soundness n<=7, duality n<=7, 1000 round-trips; {elapsed:.1f}s")

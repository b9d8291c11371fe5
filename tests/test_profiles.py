import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxperm import (
    BadEndpoints,
    COutOfRange,
    KConstraint,
    KMismatch,
    MinKResult,
    MismatchedN,
    NotBijection,
    Permutation,
    PreconditionViolation,
    Profile,
    ProfileViolation,
    SolveOutcome,
    TooLarge,
    UniquenessReport,
    compute_profile,
    compute_set_profile,
    is_linear,
    nb_masks,
    nb_set,
    solve_fpt_directed,
    solve_undirected,
    validate_permutation,
    validate_profile,
    verify,
)
from minmaxperm.profiles import Direction, NBRecord

from helpers import (
    GOLDEN_ENTRIES,
    GOLDEN_PERM,
    all_perms,
    dual_perm,
    golden_profile,
    identity_perm,
    make_profile,
    masks_of,
    mutate_directed,
    mutate_undirected,
    nb_records,
    profile_arrays,
    profile_restricted,
    random_perm,
)


def perm_strategy(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(
            lambda inner: Permutation(n=n, elems=(0, *inner, n + 1))))


class TestValidatePermutation:
    def test_identity(self):
        P = validate_permutation([0, 1, 2, 3])
        assert P.n == 2 and P.elems == (0, 1, 2, 3)

    def test_golden(self):
        assert validate_permutation(GOLDEN_PERM).n == 9

    def test_duplicate(self):
        with pytest.raises(NotBijection):
            validate_permutation([0, 2, 2, 3])

    def test_bad_endpoints(self):
        with pytest.raises(BadEndpoints):
            validate_permutation([1, 0, 2, 3])
        with pytest.raises(BadEndpoints):
            validate_permutation([0, 3, 2, 1])

    def test_too_short(self):
        with pytest.raises(NotBijection):
            validate_permutation([0, 1])

    def test_integers_only(self):
        # a float is rejected, not truncated into a permutation; numpy
        # integers are integers
        for seq in ([0, 1.9, 2], [0, 1.0, 2], [0, "1", 2]):
            with pytest.raises(NotBijection):
                validate_permutation(seq)
        P = validate_permutation(np.array([0, 2, 1, 3], dtype=np.int8))
        assert P.elems == (0, 2, 1, 3) and all(type(v) is int for v in P.elems)

    def test_positions_inverse(self):
        P = validate_permutation(GOLDEN_PERM)
        pos = P.positions()
        assert all(P.elems[pos[v]] == v for v in range(P.n + 2))


class TestComputeProfile:
    def test_golden_directed(self):
        P = validate_permutation(GOLDEN_PERM)
        F = compute_profile(P, 1, True)
        for t, d, m, M in GOLDEN_ENTRIES:
            c = F.entry(t)
            assert (c.dir, c.m, c.M) == (d, m, M), f"entry t={t}"

    def test_golden_undirected(self):
        P = validate_permutation(GOLDEN_PERM)
        F = compute_profile(P, 1, False)
        for t, _, m, M in GOLDEN_ENTRIES:
            c = F.entry(t)
            assert (c.dir, c.m, c.M) == (Direction.UNKNOWN, m, M)

    def test_identity_adjacent(self):
        F = compute_profile(identity_perm(4), 1, True)
        for t in range(5):
            c = F.entry(t)
            assert (c.m, c.M, c.dir) == (t, t + 1, Direction.LEFT_TO_RIGHT)

    def test_gap_two_entry(self):
        # segment of the golden permutation between values 1 and 3 is {1,8,5,3}
        P = validate_permutation(GOLDEN_PERM)
        F = compute_profile(P, 2, True)
        c = F.entry(1, 2)
        assert (c.m, c.M, c.dir) == (1, 8, Direction.LEFT_TO_RIGHT)

    def test_k_out_of_range(self):
        P = identity_perm(3)
        with pytest.raises(PreconditionViolation):
            compute_profile(P, 0, True)
        with pytest.raises(PreconditionViolation):
            compute_profile(P, 5, True)

    def test_array_roundtrip(self):
        # the arrays hold the entries in canonical order, dir coded +1/-1/0
        P = validate_permutation(GOLDEN_PERM)
        code = {Direction.LEFT_TO_RIGHT: 1, Direction.RIGHT_TO_LEFT: -1, Direction.UNKNOWN: 0}
        for k in (1, 2, 4):
            for directed in (True, False):
                F = compute_profile(P, k, directed)
                m, M, d = profile_arrays(F)
                ents = F.entries()
                assert m.tolist() == [c.m for c in ents]
                assert M.tolist() == [c.M for c in ents]
                assert d.tolist() == [code[c.dir] for c in ents]

    def test_arrays_int8_bound(self):
        m, M, d = profile_arrays(compute_profile(identity_perm(126), 1, True))
        assert M[-1] == 127 and m.dtype == np.int8
        with pytest.raises(TooLarge):
            profile_arrays(compute_profile(identity_perm(127), 1, True))


class TestComputeSetProfile:
    def test_singleton_matches(self):
        P = validate_permutation(GOLDEN_PERM)
        for directed in (True, False):
            assert compute_set_profile([P], 2, directed) == compute_profile(P, 2, directed)

    def test_union_example(self):
        pair = [identity_perm(3), validate_permutation([0, 2, 1, 3, 4])]
        F = compute_set_profile(pair, 1, False)
        assert F.entry(2).interval == (1, 3)
        assert F.entry(3).interval == (3, 4)

    def test_disagreeing_direction_goes_unknown(self):
        pair = [identity_perm(3), validate_permutation([0, 2, 1, 3, 4])]
        F = compute_set_profile(pair, 1, True)
        assert F.directed
        assert F.entry(1).dir is Direction.UNKNOWN  # 1,2 swap order
        assert F.entry(3).dir is Direction.LEFT_TO_RIGHT

    def test_mismatched_n(self):
        with pytest.raises(MismatchedN):
            compute_set_profile([identity_perm(3), identity_perm(4)], 1, False)

    def test_empty(self):
        with pytest.raises(PreconditionViolation):
            compute_set_profile([], 1, False)


class TestValidateProfile:
    def test_computed_profiles_pass(self):
        for P in (identity_perm(5), validate_permutation(GOLDEN_PERM)):
            for k in (1, 2):
                assert validate_profile(compute_profile(P, k, True)) == []

    def test_misplaced_zero(self):
        # n=3 with entry 1 <->[0,3] 2: the 0 belongs to the t=0 entry only
        F = make_profile([(0, None, 0, 3), (1, None, 0, 3), (2, None, 1, 3), (3, None, 1, 4)],
                         n=3, directed=False)
        bad = validate_profile(F)
        assert len(bad) == 1
        assert bad[0].t == 1 and "m=0" in bad[0].reason

    def test_bound_breach(self):
        F = make_profile([(0, None, 0, 2), (1, None, 2, 3), (2, None, 1, 3)],
                         n=2, directed=False)
        bad = validate_profile(F)
        assert any(v.t == 1 and "m=2 outside" in v.reason for v in bad)
        # M = n+1 away from the t+i = n+1 entry is also flagged
        assert any(v.t == 1 and "M=3" in v.reason for v in bad)


class TestProfileFieldTypes:
    """A Profile reads n, k and each entry's t, i, m and M as integers and
    stores plain ints; a non-integer field, or a direction that is not a
    Direction, is refused at construction."""

    @staticmethod
    def with_entry(F, key, **fields):
        cons = dict(F.constraints)
        cons[key] = cons[key]._replace(**fields)
        return Profile(n=F.n, k=F.k, directed=F.directed, constraints=cons)

    @pytest.mark.parametrize("directed", [True, False])
    def test_numpy_fields_are_plain_ints(self, directed):
        F = compute_profile(random_perm(random.Random(3), 100), 1, directed)
        cons = {key: c._replace(t=np.int64(c.t), i=np.int64(c.i),
                                m=np.int64(c.m), M=np.int64(c.M))
                for key, c in F.constraints.items()}
        G = Profile(n=F.n, k=F.k, directed=directed, constraints=cons)
        assert G == F
        assert all(type(x) is int for c in G.entries() for x in (c.t, c.i, c.m, c.M))
        W = (solve_fpt_directed if directed else solve_undirected)(G).witness
        assert W is not None and verify(W, F)

    def test_numpy_n_and_k(self):
        F = compute_profile(random_perm(random.Random(3), 100), 1, True)
        G = Profile(n=np.int64(100), k=np.int64(1), directed=True, constraints=F.constraints)
        assert type(G.n) is int and type(G.k) is int
        W = solve_fpt_directed(G).witness
        assert W is not None and verify(W, F)

    @pytest.mark.parametrize("directed", [True, False])
    def test_fractional_bound(self, directed):
        F = compute_profile(identity_perm(5), 1, directed)
        with pytest.raises(PreconditionViolation):
            self.with_entry(F, (2, 1), m=0.5)

    def test_direction_symbol(self):
        F = compute_profile(identity_perm(5), 1, True)
        with pytest.raises(PreconditionViolation):
            self.with_entry(F, (2, 1), dir=">")

    def test_float_label(self):
        F = compute_profile(identity_perm(6), 1, True)
        with pytest.raises(PreconditionViolation):
            self.with_entry(F, (5, 1), t=5.0)


class TestProfileConstruction:
    """Each structural refusal of `Profile.__init__`, the set profile's k
    bound, and the plain-object comparisons of profiles and records."""

    F = compute_profile(identity_perm(4), 2, True)

    @pytest.mark.parametrize("n, k, match", [
        (4.0, 2, "n and k must be integers"),
        (4, "2", "n and k must be integers"),
        (4, 0, r"need 1 <= k <= n\+1, got k=0, n=4"),
        (4, 6, r"need 1 <= k <= n\+1, got k=6, n=4"),
        (0, 1, "n must be at least 1, got n=0"),
        (-1, 0, "n must be at least 1, got n=-1"),
    ])
    def test_n_and_k(self, n, k, match):
        with pytest.raises(PreconditionViolation, match=match):
            Profile(n=n, k=k, directed=True, constraints=self.F.constraints)

    def test_n_zero_with_a_full_grid(self):
        # the one (t, i) pair of n = 0, k = 1 is present, so only n refuses it
        cons = {(0, 1): KConstraint(0, 1, Direction.LEFT_TO_RIGHT, 0, 1)}
        with pytest.raises(PreconditionViolation, match="n must be at least 1, got n=0"):
            Profile(0, 1, True, cons)

    def test_missing_key(self):
        cons = dict(self.F.constraints)
        del cons[(3, 2)]
        with pytest.raises(PreconditionViolation, match=r"missing \[\(3, 2\)\], extra \[\]"):
            Profile(n=4, k=2, directed=True, constraints=cons)

    def test_extra_key(self):
        cons = dict(self.F.constraints)
        cons[(0, 3)] = cons[(0, 2)]._replace(i=3)
        with pytest.raises(PreconditionViolation, match=r"missing \[\], extra \[\(0, 3\)\]"):
            Profile(n=4, k=2, directed=True, constraints=cons)

    def test_entry_under_another_key(self):
        cons = dict(self.F.constraints)
        cons[(1, 1)] = cons[(2, 1)]
        with pytest.raises(PreconditionViolation, match=r"key \(1,1\) labeled \(2,1\)"):
            Profile(n=4, k=2, directed=True, constraints=cons)

    def test_direction_in_undirected(self):
        with pytest.raises(PreconditionViolation, match="undirected profile with direction"):
            Profile(n=4, k=2, directed=False, constraints=self.F.constraints)

    @pytest.mark.parametrize("k", [0, 5])
    def test_set_profile_k_bound(self, k):
        with pytest.raises(PreconditionViolation, match=f"got k={k}, n=3"):
            compute_set_profile([identity_perm(3)], k, True)

    def test_not_equal_to_other_types(self):
        assert (self.F == object()) is False
        assert self.F != compute_profile(identity_perm(4), 2, False)

    def test_nb_record_text(self):
        assert str(NBRecord(basis=(2, 3), top=7)) == "not(2 <-7-> 3)"


P3 = Permutation(n=3, elems=(0, 3, 1, 2, 4))

# Each record type built from fixed fields, with its repr.
RECORDS = {
    "Permutation": (lambda: Permutation(n=3, elems=(0, 3, 1, 2, 4)),
                    "Permutation(n=3, elems=(0, 3, 1, 2, 4))"),
    "KConstraint": (lambda: KConstraint(t=1, i=1, dir=Direction.RIGHT_TO_LEFT, m=1, M=3),
                    "KConstraint(t=1, i=1, dir=<Direction.RIGHT_TO_LEFT: '<'>, m=1, M=3)"),
    "ProfileViolation": (lambda: ProfileViolation(t=2, i=1, reason="m=3 outside [0, t=2]"),
                         "ProfileViolation(t=2, i=1, reason='m=3 outside [0, t=2]')"),
    "NBRecord": (lambda: NBRecord(basis=(6, 7), top=2), "NBRecord(basis=(6, 7), top=2)"),
    "SolveOutcome": (lambda: SolveOutcome(witness=P3, silent_nb=(NBRecord((1, 2), 3),),
                                          silent_b=(1,), settings_tested=2),
                     "SolveOutcome(witness=Permutation(n=3, elems=(0, 3, 1, 2, 4)), "
                     "silent_nb=(NBRecord(basis=(1, 2), top=3),), silent_b=(1,), "
                     "settings_tested=2)"),
    "UniquenessReport": (lambda: UniquenessReport(n=3, k=1, directed=True, verdict="unique",
                                                  witnesses=(P3,)),
                         "UniquenessReport(n=3, k=1, directed=True, verdict='unique', "
                         "witnesses=(Permutation(n=3, elems=(0, 3, 1, 2, 4)),))"),
    "MinKResult": (lambda: MinKResult(n=3, directed=False, min_k=2, collision=(P3, P3)),
                   "MinKResult(n=3, directed=False, min_k=2, collision=("
                   "Permutation(n=3, elems=(0, 3, 1, 2, 4)), "
                   "Permutation(n=3, elems=(0, 3, 1, 2, 4))))"),
}


class TestRecordSemantics:
    """The seven record types are named tuples: immutable, compared and
    hashed by their fields, with the `Name(field=value, ...)` repr."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_field_assignment_raises(self, name):
        record = RECORDS[name][0]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    @pytest.mark.parametrize("name", RECORDS)
    def test_repr(self, name):
        make, text = RECORDS[name]
        assert repr(make()) == text

    @pytest.mark.parametrize("name", RECORDS)
    def test_equal_fields_equal_hash(self, name):
        a, b = RECORDS[name][0](), RECORDS[name][0]()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a._replace(**{a._fields[-1]: "other"})

    def test_nb_records_sort_by_basis_then_top(self):
        records = [NBRecord((2, 3), 0), NBRecord((1, 2), 5), NBRecord((2, 3), -1),
                   NBRecord((1, 2), 4)]
        assert sorted(records) == [NBRecord((1, 2), 4), NBRecord((1, 2), 5),
                                   NBRecord((2, 3), -1), NBRecord((2, 3), 0)]

    def test_solve_outcome_defaults(self):
        out = SolveOutcome(witness=None)
        assert (out.silent_nb, out.silent_b, out.settings_tested) == ((), (), 0)
        assert out.is_no and not SolveOutcome(witness=P3).is_no


class TestIsLinear:
    def test_golden_is_linear(self):
        assert is_linear(golden_profile())

    def test_identity_is_not(self):
        assert not is_linear(compute_profile(identity_perm(3), 1, True))

    def test_trivial_n1(self):
        assert is_linear(compute_profile(identity_perm(1), 1, True))

    def test_k_mismatch(self):
        with pytest.raises(KMismatch):
            is_linear(compute_profile(identity_perm(3), 2, True))


class TestNBSet:
    def test_golden_examples(self):
        F = golden_profile()
        assert nb_set(F, 2) == {6}
        assert nb_set(F, 5) == set()

    def test_identity_example(self):
        F = compute_profile(identity_perm(4), 1, True)
        assert nb_set(F, 3) == {1}

    def test_k_mismatch(self):
        with pytest.raises(KMismatch):
            nb_set(compute_profile(identity_perm(3), 2, True), 1)

    def test_out_of_range(self):
        F = golden_profile()
        with pytest.raises(COutOfRange):
            nb_set(F, 0)
        with pytest.raises(COutOfRange):
            nb_set(F, 10)


class TestDecomposition:
    def test_nb_records_golden(self):
        recs = nb_records(golden_profile())
        basis67 = [r for r in recs if r.basis == (6, 7)]
        assert {r.top for r in basis67} == {0, 1, 2, 3, 8, 9, 10}
        assert recs == sorted(recs)

    def test_record_invariant(self):
        for P in all_perms(5):
            F = compute_profile(P, 1, True)
            for r in nb_records(F):
                t = r.basis[0]
                c = F.entry(t)
                assert r.top < c.m or r.top > c.M
                assert r.top not in r.basis

    def test_record_ordering(self):
        assert NBRecord(basis=(1, 2), top=5) < NBRecord(basis=(2, 3), top=0)
        assert NBRecord(basis=(1, 2), top=3) < NBRecord(basis=(1, 2), top=5)

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_nb_masks_fold_the_records(self, directed):
        # every permutation profile with n <= 6, then 200 seeded edited
        # profiles with n from 2 to 64
        profiles = [compute_profile(P, 1, directed) for n in range(1, 7) for P in all_perms(n)]
        rng = random.Random(150 + directed)
        mutate = mutate_directed if directed else mutate_undirected
        for _ in range(200):
            P = random_perm(rng, rng.randint(2, 64))
            profiles.append(mutate(rng, compute_profile(P, 1, directed)))
        for F in profiles:
            assert nb_masks(F) == masks_of(F.n, nb_records(F))

    def test_nb_masks_golden(self):
        masks = nb_masks(golden_profile())
        assert len(masks) == 11
        # entry 6 is [4, 7]: bit 6 is set exactly on the tops outside it
        assert [a for a in range(11) if masks[a] >> 6 & 1] == [0, 1, 2, 3, 8, 9, 10]

    def test_nb_masks_k_mismatch(self):
        with pytest.raises(KMismatch):
            nb_masks(compute_profile(identity_perm(3), 2, True))


class TestProfileInvariants:
    @settings(max_examples=150)
    @given(perm_strategy(), st.data())
    def test_computed_profiles_validate(self, P, data):
        k = data.draw(st.integers(1, P.n + 1))
        directed = data.draw(st.booleans())
        assert validate_profile(compute_profile(P, k, directed)) == []

    @settings(max_examples=100)
    @given(perm_strategy(), st.data())
    def test_monotone_refinement(self, P, data):
        k = data.draw(st.integers(2, P.n + 1))
        kk = data.draw(st.integers(1, k - 1))
        full = compute_profile(P, k, True)
        assert profile_restricted(full, kk) == compute_profile(P, kk, True)

    @settings(max_examples=100)
    @given(perm_strategy(), st.data())
    def test_segment_containment(self, P, data):
        k = data.draw(st.integers(1, P.n + 1))
        F = compute_profile(P, k, False)
        for c in F.entries():
            assert c.m <= min(c.t, c.t + c.i)
            assert c.M >= max(c.t, c.t + c.i)

    def test_complement_duality_small(self):
        # full n<=7 sweep lives in the acceptance suite
        for n in range(1, 6):
            for P in all_perms(n):
                Q = dual_perm(P)
                FP = compute_profile(P, 2 if n >= 2 else 1, True)
                FQ = compute_profile(Q, 2 if n >= 2 else 1, True)
                for (t, i), c in FP.constraints.items():
                    cq = FQ.entry(n + 1 - t - i, i)
                    assert (cq.m, cq.M, cq.dir) == (n + 1 - c.M, n + 1 - c.m, c.dir)

    def test_linear_implies_nb_chain(self):
        # NB sets of a linear profile are totally ordered by inclusion
        for n in range(1, 8):
            for P in all_perms(n):
                F = compute_profile(P, 1, True)
                if not is_linear(F):
                    continue
                sets = sorted((nb_set(F, c) for c in range(1, n + 1)), key=len)
                for a, b in zip(sets, sets[1:]):
                    assert a <= b

import itertools
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from minmaxperm import (
    InternalInconsistency,
    Permutation,
    PreconditionViolation,
    TooLarge,
    collision_pair,
    compute_profile,
    fixed_positions_check,
    is_unique,
    min_unique_k,
    validate_permutation,
)
from minmaxperm import reconstruction
from minmaxperm.reconstruction import _all_masks, _slot_digits

from helpers import (
    GOLDEN_PERM,
    golden_profile,
    identity_perm,
    perm_rows,
    profile_arrays,
    slot_codes,
    unsat2_profile,
    value_masks,
)


class TestIsUnique:
    def test_golden_undirected_collides(self):
        report = is_unique(golden_profile(directed=False))
        assert report.verdict == "collision"
        w1, w2 = report.witnesses
        assert w1 != w2
        assert compute_profile(w1, 1, False) == compute_profile(w2, 1, False)

    def test_high_span_profile_unique(self):
        P = validate_permutation(GOLDEN_PERM)
        report = is_unique(compute_profile(P, 6, False))
        assert report.verdict == "unique"
        assert report.witnesses == (P,)

    def test_unsat_empty(self):
        report = is_unique(unsat2_profile())
        assert report.verdict == "empty" and report.witnesses == ()

    def test_cap(self):
        # the oracle has no n cap: the identity at n = 10 is unique
        report = is_unique(compute_profile(identity_perm(10), 1, True))
        assert report.verdict == "unique" and report.witnesses == (identity_perm(10),)


class TestMinUniqueK:
    def test_small_n_trivial(self):
        for n in (1, 2, 3):
            for directed in (False, True):
                assert min_unique_k(n, directed).min_k == 1

    def test_undirected_values(self):
        assert min_unique_k(4, False).min_k == 1
        assert min_unique_k(7, False).min_k == 4

    def test_directed_value_n7(self):
        r = min_unique_k(7, True)
        assert r.min_k == 2  # exhaustive value; meets the lower bound ceil(4/2)

    def test_collision_witnesses_collide(self):
        r = min_unique_k(6, False)
        assert r.min_k == 3
        P, Q = r.collision
        assert P != Q
        assert compute_profile(P, r.min_k - 1, False) == compute_profile(Q, r.min_k - 1, False)

    def test_closed_forms_at_grouping_limit(self):
        # the directed minimum k is exactly the lower bound max(1, ceil((n-3)/2))
        for n in range(1, reconstruction.GROUPING_LIMIT + 1):
            assert min_unique_k(n, True).min_k == max(1, -(-(n - 3) // 2))
        assert min_unique_k(9, False).min_k == 6

    def test_directed_refines_undirected(self):
        for n in range(1, 8):
            assert min_unique_k(n, True).min_k <= min_unique_k(n, False).min_k

    def test_cap(self):
        with pytest.raises(TooLarge):
            min_unique_k(reconstruction.GROUPING_LIMIT + 1, False)

    def test_n_below_one(self):
        for n in (0, -2):
            with pytest.raises(PreconditionViolation):
                min_unique_k(n, False)


class TestGroupingLimit:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def forbidden(n):
            raise AssertionError(f"enumeration of n={n} started")

        monkeypatch.setattr(reconstruction, "_all_masks", forbidden)

    @pytest.mark.parametrize("n", [reconstruction.GROUPING_LIMIT + 1, 11])
    def test_above_limit_refused_before_enumeration(self, n):
        start = time.perf_counter()
        for directed in (True, False):
            with pytest.raises(TooLarge):
                min_unique_k(n, directed)
            with pytest.raises(TooLarge):
                fixed_positions_check(n, 2, directed)
        assert time.perf_counter() - start < 1.0


class TestRefinement:
    """min_unique_k groups, at each k > 1, only the permutations whose
    class at k - 1 had another member; checked against one grouping of all
    rows."""

    @staticmethod
    def full_leaders(rows, k, directed):
        first = {}
        return np.array([first.setdefault(code.tobytes(), i)
                         for i, code in enumerate(slot_codes(rows, k, directed).T)])

    @pytest.mark.parametrize("directed", [True, False])
    def test_live_rows_match_full_grouping(self, directed, monkeypatch):
        calls = []
        real = reconstruction._leaders

        def recording(upto, k, directed):
            leader = real(upto, k, directed)
            calls.append((upto.T.copy(), k, leader))
            return leader

        monkeypatch.setattr(reconstruction, "_leaders", recording)
        for n in range(1, 8):
            calls.clear()
            min_k = min_unique_k(n, directed).min_k
            rows = perm_rows(n)
            # the live permutations by their masks, one row per permutation
            index = {row.tobytes(): i for i, row in enumerate(value_masks(rows).T)}
            assert [k for _, k, _ in calls] == list(range(1, min_k + 1))
            assert len(calls[0][0]) == len(rows)
            for j, (live, k, leader) in enumerate(calls):
                full = self.full_leaders(rows, k, directed)
                at = np.array([index[row.tobytes()] for row in live])
                # each live row's leader is its leader among all rows
                assert (at[leader] == full[at]).all()
                # the next live set is exactly the rows not alone at k
                kept = np.zeros(len(rows), bool)
                if j + 1 < len(calls):
                    kept[[index[row.tobytes()] for row in calls[j + 1][0]]] = True
                size = np.bincount(full, minlength=len(rows))[full]
                assert (size[~kept] == 1).all()
                assert (size[kept] > 1).all()


class TestGroupingMemory:
    @pytest.mark.parametrize("directed, min_k, pair", [
        (True, 3, ((0, 1, 4, 5, 7, 8, 2, 9, 3, 6, 10), (0, 1, 4, 5, 7, 8, 2, 9, 6, 3, 10))),
        (False, 6, ((0, 4, 5, 6, 7, 8, 1, 9, 2, 3, 10), (0, 4, 5, 6, 7, 8, 1, 9, 3, 2, 10))),
    ])
    def test_n9_kernel_calls_stay_within_one_block(self, directed, min_k, pair, monkeypatch):
        # at k = 2 more than one block of rows is still live; besides its
        # (L, B) digits, each kernel call allocates only 2-D scratch
        # arrays, none wider than one block and the widest min(B, 8,192)
        calls = []
        real_empty = np.empty

        def recording(upto, k, directed):
            made = []

            def recording_empty(shape, *args, **kwargs):
                made.append(shape if isinstance(shape, tuple) else (shape,))
                return real_empty(shape, *args, **kwargs)

            monkeypatch.setattr(reconstruction.np, "empty", recording_empty)
            try:
                digits, base = _slot_digits(upto, k, directed)
            finally:
                monkeypatch.setattr(reconstruction.np, "empty", real_empty)
            calls.append((upto.shape[1], digits.shape, made))
            return digits, base

        monkeypatch.setattr(reconstruction, "_slot_digits", recording)
        result = min_unique_k(9, directed)
        assert result.min_k == min_k
        assert tuple(P.elems for P in result.collision) == pair
        assert max(B for B, _, _ in calls) > reconstruction._ROW_BLOCK == 8_192
        for B, shape, made in calls:
            made.remove(shape)
            assert all(len(scratch) == 2 for scratch in made)
            assert max(width for _, width in made) == min(B, reconstruction._ROW_BLOCK)

    # Grouping whole 40,320-row blocks by their code bytes peaked at
    # 19.15 MiB for min_unique_k(8) and 20.07 MiB for
    # fixed_positions_check(8, 2); 8,192-row code blocks and int64 keys
    # peaked at 5.77 MiB directed, 5.83 MiB undirected and 6.69 MiB with
    # two (V, V, b) range tables per kernel call, at 3.20, 3.64 and
    # 4.12 MiB with (V, b) bitmasks and (3L, B) int8 codes, and at 2.33,
    # 2.47 and 2.64 MiB with the digits read from one table per span, the
    # rows and the table built inside the call.  The bounds sit 0.5 MiB
    # above those.  With the value masks cached in place of the rows
    # (0.77 MiB against 0.38 MiB at n = 8) and the later key passes over
    # the permutations still sharing a class, the peaks are 2.41, 2.73 and
    # 2.73 MiB, the masks and the table built inside the call, so the
    # bounds stay.
    @pytest.mark.parametrize("directed, bound_mib", [(True, 2.83), (False, 2.97)])
    def test_n8_traced_peak(self, directed, bound_mib):
        assert traced_peak(lambda: min_unique_k(8, directed)) < bound_mib * 2**20

    @pytest.mark.parametrize("directed", [True, False])
    def test_fixed_positions_n8_traced_peak(self, directed):
        assert traced_peak(lambda: fixed_positions_check(8, 2, directed)) < 3.15 * 2**20


def traced_peak(call):
    """Peak bytes that tracemalloc sees during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLeadersExact:
    """_leaders equals a dict grouping of the code bytes on keys that take
    more than one sort pass, and on a single row."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # the keys of each pass, by their count and least value: a key
        # past 2**63 - 1 would wrap to a negative int64
        made = []
        real = np.argsort

        def recording(keys, *args, **kwargs):
            made.append((len(keys), keys.min()))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(reconstruction.np, "argsort", recording)
        return made

    @pytest.mark.parametrize("directed", [True, False])
    def test_all_n8_rows_at_full_span(self, directed, passes):
        leader = reconstruction._leaders(_all_masks(8), 9, directed)
        assert len(passes) >= 2 and min(least for _, least in passes) >= 0
        assert (leader == np.arange(len(leader))).all()
        assert (leader == TestRefinement.full_leaders(perm_rows(8), 9, directed)).all()

    @pytest.mark.parametrize("directed, shared", [(True, 2_530), (False, 6_304)])
    def test_later_passes_sort_shared_rows_only(self, directed, shared, passes):
        # the first pass sorts all 8! permutations; the second only those
        # still sharing a class after it, counted here on the digits that
        # the first pass packs
        assert fixed_positions_check(8, 2, directed)
        assert [count for count, _ in passes[:2]] == [40_320, shared]
        digits, base = _slot_digits(_all_masks(8), 2, directed)
        packed = sum(radix <= 2**63 for radix in itertools.accumulate(base, operator.mul))
        _, first, size = np.unique(digits[:packed].T, axis=0, return_inverse=True, return_counts=True)
        assert (size[first.ravel()] > 1).sum() == shared

    @pytest.mark.parametrize("directed, k", [(True, 2), (False, 2), (False, 3)])
    def test_shuffled_n9_subset(self, directed, k, passes):
        # the first 80,640 rows, two enumeration blocks, in a seeded random
        # order, so that a leader is the first of its class in that order,
        # not the least in lexicographic order
        rows = perm_rows(9)[:80_640]
        rows = rows[np.random.default_rng(9).permutation(len(rows))]
        leader = reconstruction._leaders(value_masks(rows), k, directed)
        assert len(passes) >= 2 and min(least for _, least in passes) >= 0
        assert (leader != np.arange(len(rows))).sum() > 100
        assert (leader == TestRefinement.full_leaders(rows, k, directed)).all()

    @pytest.mark.parametrize("directed", [True, False])
    def test_digits_decode_to_codes(self, directed):
        # every digit lies below its base and gives back its slot's m, M
        # and, directed, dir: checked on every 35th row, through the
        # scalar path
        rows = perm_rows(7)
        for k in (1, 4, 8):
            digits, base = _slot_digits(_all_masks(7), k, directed)
            assert (digits < np.array(base)[:, None]).all()
            codes = slot_codes(rows[::35], k, directed)
            for code, row in zip(codes.T, rows[::35]):
                P = Permutation(n=7, elems=tuple(int(v) for v in row))
                assert np.array_equal(code, np.concatenate(profile_arrays(compute_profile(P, k, directed))))

    @pytest.mark.parametrize("directed", [True, False])
    def test_single_row(self, directed):
        upto = value_masks(np.array([GOLDEN_PERM], np.int8))
        assert reconstruction._leaders(upto, 3, directed).tolist() == [0]


def scan_first_collision(n, k, directed):
    """First pair sharing a k-profile, by a dict scan over itertools order
    with profiles from the scalar path."""
    seen = {}
    for inner in itertools.permutations(range(1, n + 1)):
        P = Permutation(n=n, elems=(0, *inner, n + 1))
        key = b"".join(a.tobytes() for a in profile_arrays(compute_profile(P, k, directed)))
        if key in seen:
            return seen[key], P
        seen[key] = P
    return None


class TestCollisionPairsExact:
    @pytest.mark.parametrize("directed", [True, False])
    def test_first_pair_matches_scan(self, directed, monkeypatch):
        # min_unique_k re-checks the first pair of every k below min_k
        # through compute_profile, P then Q; record those calls
        checked = []

        def recording(P, k, directed):
            checked.append((P, k))
            return compute_profile(P, k, directed)

        monkeypatch.setattr(reconstruction, "compute_profile", recording)
        for n in range(1, 8):
            checked.clear()
            result = min_unique_k(n, directed)
            assert [k for _, k in checked] == [k for k in range(1, result.min_k) for _ in "PQ"]
            perms = [P for P, _ in checked]
            for k in range(1, result.min_k):
                expected = scan_first_collision(n, k, directed)
                assert expected is not None
                assert tuple(perms[2 * k - 2:2 * k]) == expected
            if result.min_k > 1:
                assert result.collision == scan_first_collision(n, result.min_k - 1, directed)
            else:
                assert result.collision is None

    def test_directed_n8_pair(self):
        result = min_unique_k(8, True)
        assert result.min_k == 3
        P, Q = result.collision
        assert P.elems == (0, 3, 4, 6, 7, 1, 8, 2, 5, 9)
        assert Q.elems == (0, 3, 4, 6, 7, 1, 8, 5, 2, 9)

    def test_undirected_n8_pair(self):
        result = min_unique_k(8, False)
        assert result.min_k == 5
        P, Q = result.collision
        assert P.elems == (0, 4, 5, 6, 7, 1, 8, 2, 3, 9)
        assert Q.elems == (0, 4, 5, 6, 7, 1, 8, 3, 2, 9)


class TestCollisionPair:
    def test_undirected_n5(self):
        P, Q = collision_pair(5, 1, False)
        assert P.elems == (0, 3, 4, 1, 5, 2, 6)
        assert Q.elems == (0, 4, 3, 1, 5, 2, 6)
        assert compute_profile(P, 1, False) == compute_profile(Q, 1, False)

    def test_undirected_n8_k4(self):
        P, Q = collision_pair(8, 4, False)
        assert P.elems == (0, 6, 7, 1, 8, 2, 3, 4, 5, 9)
        assert compute_profile(P, 4, False) == compute_profile(Q, 4, False)

    def test_directed_n9_k2(self):
        P, Q = collision_pair(9, 2, True)
        assert P.elems == (0, 4, 7, 1, 9, 2, 3, 5, 6, 8, 10)
        assert Q.elems == (0, 7, 4, 1, 9, 2, 3, 5, 6, 8, 10)
        assert compute_profile(P, 2, True) == compute_profile(Q, 2, True)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            collision_pair(5, 2, False)  # k = n-3 already unique
        with pytest.raises(PreconditionViolation):
            collision_pair(5, 0, False)
        with pytest.raises(PreconditionViolation):
            collision_pair(7, 2, True)  # ceil((7-3)/2) = 2

    def test_permutations_valid(self):
        for n, k, directed in ((6, 2, False), (8, 1, True), (10, 3, False)):
            P, Q = collision_pair(n, k, directed)
            validate_permutation(P.elems)
            validate_permutation(Q.elems)

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_swap_check_is_the_full_comparison(self, directed):
        # the re-check reads only the entries with a swapped value as an
        # end; on the pair of every admissible (n, k) with n <= 40, and on
        # seeded permutations with their values at positions 1 and 2
        # swapped, mostly not a collision, it agrees with comparing the
        # two full profiles
        def agree(P, Q, k):
            full = compute_profile(P, k, directed) == compute_profile(Q, k, directed)
            assert reconstruction._swap_keeps_profile(P, Q, k, directed) == full, (P, k)
            return full

        pairs = 0
        for n in range(1, 41):
            for k in range(1, n + 2):
                try:
                    P, Q = collision_pair(n, k, directed)
                except PreconditionViolation:
                    continue
                assert agree(P, Q, k)
                pairs += 1
        assert pairs == (324 if directed else 666)
        rng = random.Random(f"swap:{directed}")
        differ = 0
        for n in range(2, 13):
            for k in range(1, n + 2):
                inner = rng.sample(range(1, n + 1), n)
                P = Permutation(n=n, elems=(0, *inner, n + 1))
                Q = Permutation(n=n, elems=(0, inner[1], inner[0], *inner[2:], n + 1))
                differ += not agree(P, Q, k)
        assert differ > 60

    def test_large_pair_is_quick(self):
        # the re-check reads at most 4k entries, not the 95,150 of the
        # whole 128-profile at n = 1000
        start = time.perf_counter()
        P, Q = collision_pair(1000, 128, False)
        assert time.perf_counter() - start < 1.0
        assert P.elems[1:3] == Q.elems[2:0:-1] == (130, 131)

    @pytest.mark.parametrize("directed", (True, False))
    def test_limit(self, directed):
        # past the k range, an n above the limit is refused, not built
        n = reconstruction.COLLISION_LIMIT + 1
        with pytest.raises(TooLarge):
            collision_pair(n, 1, directed)
        with pytest.raises(PreconditionViolation):
            collision_pair(n, n, directed)


class TestFixedPositions:
    def test_small_exhaustive(self):
        assert fixed_positions_check(6, 1, False)
        assert fixed_positions_check(6, 1, True)
        assert fixed_positions_check(5, 3, False)

    def test_cap(self):
        with pytest.raises(TooLarge):
            fixed_positions_check(reconstruction.GROUPING_LIMIT + 1, 1, False)

    def test_preconditions(self):
        for n, k in ((0, 1), (-2, 1), (4, 0), (4, 6)):
            with pytest.raises(PreconditionViolation):
                fixed_positions_check(n, k, True)


# Each entry point reads n and k with operator.index; x stands for one of
# them, the other arguments being valid.
INTEGER_ARGUMENTS = {
    "min_unique_k-n": lambda x: min_unique_k(x, True),
    "fixed_positions_check-n": lambda x: fixed_positions_check(x, 2, True),
    "fixed_positions_check-k": lambda x: fixed_positions_check(5, x, True),
    "collision_pair-n": lambda x: collision_pair(x, 1, False),
    "collision_pair-k": lambda x: collision_pair(10, x, False),
    "compute_profile-k": lambda x: compute_profile(identity_perm(6), x, True),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [2.5, 5.0, "5"])
    @pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
    def test_non_integer_refused(self, call, value):
        # even with the rows of n = 5 cached, under a key equal to 5.0
        min_unique_k(np.int64(5), True)
        with pytest.raises(PreconditionViolation):
            INTEGER_ARGUMENTS[call](value)

    @pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
    def test_numpy_integer_accepted(self, call):
        INTEGER_ARGUMENTS[call](np.int64(5))

    def test_plain_ints_passed_on(self):
        result = min_unique_k(np.int64(5), False)
        assert type(result.n) is int and result.min_k == 2
        P, Q = collision_pair(np.int64(8), np.int64(2), True)
        assert type(P.n) is int and compute_profile(P, 2, True) == compute_profile(Q, 2, True)


# Each exhaustive entry point refuses a directed that is not a bool, before
# it builds or caches anything; d stands for it.
DIRECTED_ARGUMENTS = {
    "min_unique_k": lambda d: min_unique_k(5, d),
    "fixed_positions_check": lambda d: fixed_positions_check(5, 2, d),
    "collision_pair": lambda d: collision_pair(10, 1, d),
}


class TestDirectedArgument:
    @pytest.mark.parametrize("value", ["yes", None, 2, 1, 0, 1.0])
    @pytest.mark.parametrize("call", DIRECTED_ARGUMENTS)
    def test_non_bool_refused(self, call, value):
        tables = reconstruction._digit_table.cache_info().currsize
        with pytest.raises(PreconditionViolation):
            DIRECTED_ARGUMENTS[call](value)
        assert reconstruction._digit_table.cache_info().currsize == tables

    @pytest.mark.parametrize("call", DIRECTED_ARGUMENTS)
    def test_numpy_bool_accepted(self, call):
        for d in (True, False):
            assert DIRECTED_ARGUMENTS[call](np.bool_(d)) == DIRECTED_ARGUMENTS[call](d)

    def test_plain_bool_passed_on(self):
        assert type(min_unique_k(5, np.bool_(True)).directed) is bool


class TestGroupingFaults:
    """Digits in range that put every permutation into one class, and digits
    out of range."""

    @staticmethod
    def one_class(upto, k, directed):
        # digit 0 in every slot: m = 0, M = t+i and, directed, t right of t+i
        digits, base = _slot_digits(upto, k, directed)
        return np.zeros_like(digits), base

    def test_fixed_positions_fails(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_digits", self.one_class)
        assert fixed_positions_check(6, 1, True) is False

    def test_collision_is_rechecked(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_digits", self.one_class)
        with pytest.raises(InternalInconsistency):
            min_unique_k(6, True)

    # the digit of one slot in one row set to its base, which would spill
    # into the next slot of a key, or to the largest of its dtype: slot
    # (2, 3) both ways, the first slot at its base and the last at the max
    @pytest.mark.parametrize("slot, value", [
        pytest.param(2, "base", id="base"),
        pytest.param(2, "max", id="max"),
        pytest.param(0, "base", id="first"),
        pytest.param(-1, "max", id="last"),
    ])
    @pytest.mark.parametrize("directed", [True, False])
    def test_code_out_of_range(self, directed, slot, value, monkeypatch):
        def corrupt(upto, k, directed):
            digits, base = _slot_digits(upto, k, directed)
            bad = base[slot] if value == "base" else np.iinfo(digits.dtype).max
            digits[slot, upto.shape[1] // 2] = bad
            return digits, base

        monkeypatch.setattr(reconstruction, "_slot_digits", corrupt)
        with pytest.raises(InternalInconsistency):
            fixed_positions_check(5, 2, directed)
        with pytest.raises(InternalInconsistency):
            min_unique_k(5, directed)

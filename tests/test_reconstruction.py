import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from minmaxperm import (
    InternalInconsistency,
    Permutation,
    PreconditionViolation,
    Profile,
    TooLarge,
    collision_pair,
    compute_profile,
    compute_set_profile,
    fixed_positions_check,
    is_unique,
    min_unique_k,
    nb_set,
    validate_permutation,
)
from minmaxperm import profiles, reconstruction
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


@pytest.fixture
def passes(monkeypatch):
    # the keys of each sort pass, by their count and least value: a key
    # past 2**63 - 1 would wrap to a negative int64
    made = []
    real = np.argsort

    def recording(keys, *args, **kwargs):
        made.append((len(keys), keys.min()))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(reconstruction.np, "argsort", recording)
    return made


def leaders_after(upto, k, directed):
    """The leader of every permutation of the value masks upto after gap k
    of the refinement: the least index of its class, itself when alone."""
    leader = np.arange(upto.shape[1])
    for live, lead in itertools.islice(reconstruction._refine(upto, directed), k):
        pass
    leader[live] = lead
    return leader


class TestRefinement:
    """min_unique_k reads, after each gap k, exactly the permutations that
    share their k-profile with another, grouped by class, each with its
    leader in one grouping of all rows."""

    @staticmethod
    def full_leaders(rows, k, directed):
        first = {}
        return np.array([first.setdefault(code.tobytes(), i)
                         for i, code in enumerate(slot_codes(rows, k, directed).T)])

    @pytest.mark.parametrize("directed", [True, False])
    def test_live_rows_match_full_grouping(self, directed, monkeypatch):
        gaps = []
        real = reconstruction._refine

        def recording(upto, directed):
            for live, leader in real(upto, directed):
                gaps.append((live.copy(), leader.copy()))
                yield live, leader

        monkeypatch.setattr(reconstruction, "_refine", recording)
        for n in range(1, 8):
            gaps.clear()
            min_k = min_unique_k(n, directed).min_k
            rows = perm_rows(n)
            assert len(gaps) == min_k and len(gaps[-1][0]) == 0
            for k, (live, leader) in enumerate(gaps, 1):
                full = self.full_leaders(rows, k, directed)
                size = np.bincount(full, minlength=len(rows))[full]
                assert sorted(live.tolist()) == np.flatnonzero(size > 1).tolist()
                assert (leader == full[live]).all()
                # each class is one run of the live indices
                runs = np.count_nonzero(leader[1:] != leader[:-1]) + 1 if len(live) else 0
                assert runs == len(set(leader.tolist()))

    @pytest.mark.parametrize("directed, live", [
        pytest.param(True, [362_880, 76_608, 4_360], id="directed"),
        pytest.param(False, [362_880, 214_280, 60_176, 14_736, 3_260, 480], id="undirected"),
    ])
    def test_n9_sorts_each_gap_once_over_the_live(self, directed, live, passes):
        # one key pass per gap, over the permutations still sharing a
        # class after the gap before: the live counts of docs/min_k.md
        min_unique_k(9, directed)
        assert [count for count, _ in passes] == live
        assert min(least for _, least in passes) >= 0

    @pytest.mark.parametrize("directed", [True, False])
    def test_live_set_is_indices(self, directed, monkeypatch):
        # besides views of the cached masks, no uint16 array wider than
        # one block is made from them: the live permutations are indices
        # into the masks, not a copy of their columns
        masks, made = _all_masks(9), []

        class Traced(np.ndarray):
            def __array_finalize__(self, obj):
                if (self.dtype == np.uint16 and self.ndim and self.shape[-1] > reconstruction._ROW_BLOCK
                        and not np.may_share_memory(self, masks)):
                    made.append(self.shape)

        monkeypatch.setattr(reconstruction, "_all_masks", lambda n: masks.view(Traced))
        assert min_unique_k(9, directed).min_k == (3 if directed else 6)
        assert made == []


class TestGroupingMemory:
    @pytest.mark.parametrize("directed, min_k, pair", [
        (True, 3, ((0, 1, 4, 5, 7, 8, 2, 9, 3, 6, 10), (0, 1, 4, 5, 7, 8, 2, 9, 6, 3, 10))),
        (False, 6, ((0, 4, 5, 6, 7, 8, 1, 9, 2, 3, 10), (0, 4, 5, 6, 7, 8, 1, 9, 3, 2, 10))),
    ])
    def test_n9_kernel_calls_stay_within_one_block(self, directed, min_k, pair, monkeypatch):
        # at gap 2 more than one block of permutations is still live;
        # besides its (V-i, B) digits, each kernel call allocates only 2-D
        # scratch arrays, none wider than one block and the widest
        # min(B, 8,192)
        calls = []
        real_empty = np.empty

        def recording(upto, live, i, directed):
            made = []

            def recording_empty(shape, *args, **kwargs):
                made.append(shape if isinstance(shape, tuple) else (shape,))
                return real_empty(shape, *args, **kwargs)

            monkeypatch.setattr(reconstruction.np, "empty", recording_empty)
            try:
                digits, base = _slot_digits(upto, live, i, directed)
            finally:
                monkeypatch.setattr(reconstruction.np, "empty", real_empty)
            calls.append((len(live), digits.shape, made))
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
    # bounds stay.  With one refinement over live indices, gap by gap, and
    # each slot's digits gathered from its own table row, they are 2.40,
    # 2.45 and 2.45 MiB, and the bounds stay.
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
    """The leaders after a gap of the refinement equal a dict grouping of
    the code bytes, on all n = 8 rows, on a shuffled n = 9 subset and on a
    single row."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_all_n8_rows_at_full_span(self, directed, passes):
        leader = leaders_after(_all_masks(8), 9, directed)
        assert len(passes) >= 2 and min(least for _, least in passes) >= 0
        assert (leader == np.arange(len(leader))).all()
        assert (leader == TestRefinement.full_leaders(perm_rows(8), 9, directed)).all()

    @pytest.mark.parametrize("directed, shared", [(True, 4_770), (False, 18_690)])
    def test_later_passes_sort_shared_rows_only(self, directed, shared, passes):
        # gap 1 sorts all 8! permutations; gap 2 only those still sharing
        # a class after gap 1, counted here on the gap-1 digits
        assert fixed_positions_check(8, 2, directed)
        assert [count for count, _ in passes] == [40_320, shared]
        digits, _ = _slot_digits(_all_masks(8), np.arange(40_320), 1, directed)
        _, first, size = np.unique(digits.T, axis=0, return_inverse=True, return_counts=True)
        assert (size[first.ravel()] > 1).sum() == shared

    @pytest.mark.parametrize("directed, k", [(True, 2), (False, 2), (False, 3)])
    def test_shuffled_n9_subset(self, directed, k, passes):
        # the first 80,640 rows, two enumeration blocks, in a seeded random
        # order, so that a leader is the first of its class in that order,
        # not the least in lexicographic order
        rows = perm_rows(9)[:80_640]
        rows = rows[np.random.default_rng(9).permutation(len(rows))]
        leader = leaders_after(value_masks(rows), k, directed)
        assert len(passes) >= 2 and min(least for _, least in passes) >= 0
        assert (leader != np.arange(len(rows))).sum() > 100
        assert (leader == TestRefinement.full_leaders(rows, k, directed)).all()

    @pytest.mark.parametrize("directed", [True, False])
    def test_digits_decode_to_codes(self, directed):
        # every digit lies below its base and gives back its slot's m, M
        # and, directed, dir: checked on every 35th row, through the
        # scalar path
        rows = perm_rows(7)
        for i in range(1, 9):
            digits, base = _slot_digits(_all_masks(7), np.arange(len(rows)), i, directed)
            assert (digits < np.array(base)[:, None]).all()
        for k in (1, 4, 8):
            codes = slot_codes(rows[::35], k, directed)
            for code, row in zip(codes.T, rows[::35]):
                P = Permutation(n=7, elems=tuple(int(v) for v in row))
                assert np.array_equal(code, np.concatenate(profile_arrays(compute_profile(P, k, directed))))

    @pytest.mark.parametrize("directed", [True, False])
    def test_single_row(self, directed):
        upto = value_masks(np.array([GOLDEN_PERM], np.int8))
        assert leaders_after(upto, 3, directed).tolist() == [0]


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
            assert profiles._swap_keeps_profile(P, Q, k, directed) == full, (P, k)
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
        n = profiles.COLLISION_LIMIT + 1
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


# Each entry point reads n, k and c with operator.index; x stands for one
# of them, the other arguments being valid.
INTEGER_ARGUMENTS = {
    "min_unique_k-n": lambda x: min_unique_k(x, True),
    "fixed_positions_check-n": lambda x: fixed_positions_check(x, 2, True),
    "fixed_positions_check-k": lambda x: fixed_positions_check(5, x, True),
    "collision_pair-n": lambda x: collision_pair(x, 1, False),
    "collision_pair-k": lambda x: collision_pair(10, x, False),
    "compute_profile-k": lambda x: compute_profile(identity_perm(6), x, True),
    "compute_set_profile-k": lambda x: compute_set_profile([identity_perm(6)], x, True),
    "nb_set-c": lambda x: nb_set(compute_profile(identity_perm(6), 1, False), x),
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


# Each entry point refuses a directed that is not a bool, the exhaustive
# ones before they build or cache anything; d stands for it.
DIRECTED_ARGUMENTS = {
    "min_unique_k": lambda d: min_unique_k(5, d),
    "fixed_positions_check": lambda d: fixed_positions_check(5, 2, d),
    "collision_pair": lambda d: collision_pair(10, 1, d),
    "Profile": lambda d: Profile(6, 1, d, compute_profile(identity_perm(6), 1, False).constraints),
    "compute_profile": lambda d: compute_profile(identity_perm(6), 1, d),
    "compute_set_profile": lambda d: compute_set_profile([identity_perm(6)], 1, d),
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
        for call in ("Profile", "compute_profile", "compute_set_profile"):
            assert type(DIRECTED_ARGUMENTS[call](np.bool_(True)).directed) is bool


class TestGroupingFaults:
    """Digits in range that put every permutation into one class, and digits
    out of range."""

    @staticmethod
    def one_class(upto, live, i, directed):
        # digit 0 in every slot: m = 0, M = t+i and, directed, t right of t+i
        digits, base = _slot_digits(upto, live, i, directed)
        return np.zeros_like(digits), base

    def test_fixed_positions_fails(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_digits", self.one_class)
        assert fixed_positions_check(6, 1, True) is False

    def test_collision_is_rechecked(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_digits", self.one_class)
        with pytest.raises(InternalInconsistency):
            min_unique_k(6, True)

    # the digit of one slot of one live permutation set to its base, which
    # would spill into the next slot of a key, or to the largest of its
    # dtype: slot (2, 3) both ways, the first slot at its base and the last
    # slot of gap 2 at the max.  At n = 6 classes are still shared after
    # gap 1 in both directednesses, so both calls reach gap 2.
    @pytest.mark.parametrize("gap, slot, value", [
        pytest.param(1, 2, "base", id="base"),
        pytest.param(1, 2, "max", id="max"),
        pytest.param(1, 0, "base", id="first"),
        pytest.param(2, -1, "max", id="last"),
    ])
    @pytest.mark.parametrize("directed", [True, False])
    def test_code_out_of_range(self, directed, gap, slot, value, monkeypatch):
        def corrupt(upto, live, i, directed):
            digits, base = _slot_digits(upto, live, i, directed)
            if i == gap:
                digits[slot, len(live) // 2] = base[slot] if value == "base" else np.iinfo(digits.dtype).max
            return digits, base

        monkeypatch.setattr(reconstruction, "_slot_digits", corrupt)
        with pytest.raises(InternalInconsistency):
            fixed_positions_check(6, 2, directed)
        with pytest.raises(InternalInconsistency):
            min_unique_k(6, directed)

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
    TooLarge,
    collision_pair,
    compute_profile,
    fixed_positions_check,
    is_unique,
    min_unique_k,
    validate_permutation,
)
from minmaxperm import reconstruction
from minmaxperm.profiles import pair_count
from minmaxperm.reconstruction import _all_rows, _slot_codes

from helpers import GOLDEN_PERM, golden_profile, identity_perm, profile_arrays, unsat2_profile


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
        with pytest.raises(TooLarge):
            is_unique(compute_profile(identity_perm(10), 1, True))


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

    def test_directed_refines_undirected(self):
        for n in range(1, 8):
            assert min_unique_k(n, True).min_k <= min_unique_k(n, False).min_k

    def test_cap(self):
        with pytest.raises(TooLarge):
            min_unique_k(9, False)

    def test_n_below_one(self):
        for n in (0, -2):
            with pytest.raises(PreconditionViolation):
                min_unique_k(n, False)


class TestGroupingLimit:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def forbidden(n):
            raise AssertionError(f"enumeration of n={n} started")

        monkeypatch.setattr(reconstruction, "_all_rows", forbidden)

    @pytest.mark.parametrize("n", [reconstruction.GROUPING_LIMIT + 1, 11])
    def test_raised_cap_stops_at_limit(self, n):
        start = time.perf_counter()
        for directed in (True, False):
            with pytest.raises(TooLarge):
                min_unique_k(n, directed, cap_n=n)
            with pytest.raises(TooLarge):
                fixed_positions_check(n, 2, directed, cap_n=n)
        assert time.perf_counter() - start < 1.0


class TestRefinement:
    """min_unique_k groups, at each k > 1, only the rows whose class at
    k - 1 had another member; checked against one grouping of all rows."""

    @staticmethod
    def full_leaders(rows, k, directed):
        first = {}
        return np.array([first.setdefault(code.tobytes(), i)
                         for i, code in enumerate(_slot_codes(rows, k, directed).T)])

    @pytest.mark.parametrize("directed", [True, False])
    def test_live_rows_match_full_grouping(self, directed, monkeypatch):
        calls = []
        real = reconstruction._leaders

        def recording(rows, k, directed):
            leader = real(rows, k, directed)
            calls.append((rows.copy(), k, leader))
            return leader

        monkeypatch.setattr(reconstruction, "_leaders", recording)
        for n in range(1, 8):
            calls.clear()
            min_k = min_unique_k(n, directed).min_k
            rows = _all_rows(n)
            index = {row.tobytes(): i for i, row in enumerate(rows)}
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
        # at k = 2 more than one block of rows is still live; each grouping
        # allocates its two (V, V, b) range tables once, b <= 8,192
        calls, tables = [], []
        real_codes, real_empty = reconstruction._slot_codes, np.empty

        def recording(rows, k, directed):
            calls.append(len(rows))
            return real_codes(rows, k, directed)

        def recording_empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 3:
                tables.append(shape)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(reconstruction, "_slot_codes", recording)
        monkeypatch.setattr(reconstruction.np, "empty", recording_empty)
        result = min_unique_k(9, directed, cap_n=9)
        assert result.min_k == min_k
        assert tuple(P.elems for P in result.collision) == pair
        assert max(calls) > 8_192
        assert tables == [(11, 11, min(8_192, b)) for b in calls for _ in range(2)]

    # Grouping whole 40,320-row blocks by their code bytes peaked at
    # 19.15 MiB for min_unique_k(8) and 20.07 MiB for
    # fixed_positions_check(8, 2); 8,192-row code blocks and int64 keys
    # peak at 5.45 MiB directed, 5.88 MiB undirected and 6.75 MiB.  The
    # bounds sit 0.5 MiB above those.
    @pytest.mark.parametrize("directed, bound_mib", [(True, 5.95), (False, 6.4)])
    def test_n8_traced_peak(self, directed, bound_mib):
        assert traced_peak(lambda: min_unique_k(8, directed)) < bound_mib * 2**20

    @pytest.mark.parametrize("directed", [True, False])
    def test_fixed_positions_n8_traced_peak(self, directed):
        assert traced_peak(lambda: fixed_positions_check(8, 2, directed)) < 7.25 * 2**20


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
        # the least key of each pass: a key past 2**63 - 1 would wrap to a
        # negative int64
        least = []
        real = np.argsort

        def recording(keys, *args, **kwargs):
            least.append(keys.min())
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(reconstruction.np, "argsort", recording)
        return least

    @pytest.mark.parametrize("directed", [True, False])
    def test_all_n8_rows_at_full_span(self, directed, passes):
        rows = _all_rows(8)
        leader = reconstruction._leaders(rows, 9, directed)
        assert len(passes) >= 2 and min(passes) >= 0
        assert (leader == np.arange(len(rows))).all()
        assert (leader == TestRefinement.full_leaders(rows, 9, directed)).all()

    @pytest.mark.parametrize("directed, k", [(True, 2), (False, 2), (False, 3)])
    def test_shuffled_n9_subset(self, directed, k, passes):
        # the first 80,640 rows, two enumeration blocks, in a seeded random
        # order, so that a leader is the first of its class in that order,
        # not the least in lexicographic order
        rows = _all_rows(9)[:80_640]
        rows = rows[np.random.default_rng(9).permutation(len(rows))]
        leader = reconstruction._leaders(rows, k, directed)
        assert len(passes) >= 2 and min(passes) >= 0
        assert (leader != np.arange(len(rows))).sum() > 100
        assert (leader == TestRefinement.full_leaders(rows, k, directed)).all()

    @pytest.mark.parametrize("directed", [True, False])
    def test_digits_decode_to_codes(self, directed):
        # every digit lies below its base and gives back its slot's m, M
        # and, directed, dir
        rows = _all_rows(7)
        V = 9
        for k in (1, 4, 8):
            digits, base = reconstruction._slot_digits(rows, k, directed)
            assert (digits < np.array(base)[:, None]).all()
            codes = _slot_codes(rows, k, directed)
            L = len(base)
            end = np.concatenate([np.arange(i, V) for i in range(1, min(k, V - 1) + 1)])[:, None]
            rest = digits.astype(np.int64)
            if directed:
                assert (rest % 2 * 2 - 1 == codes[2 * L:]).all()
                rest //= 2
            assert (rest // (V - end) == codes[:L]).all()
            assert (rest % (V - end) + end == codes[L:2 * L]).all()

    @pytest.mark.parametrize("directed", [True, False])
    def test_single_row(self, directed):
        rows = np.array([GOLDEN_PERM], np.int8)
        assert reconstruction._leaders(rows, 3, directed).tolist() == [0]


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
            fixed_positions_check(9, 1, False)

    def test_preconditions(self):
        for n, k in ((0, 1), (-2, 1), (4, 0), (4, 6)):
            with pytest.raises(PreconditionViolation):
                fixed_positions_check(n, k, True)


class TestGroupingFaults:
    """Codes in range that put every permutation into one class, and codes
    out of range."""

    @staticmethod
    def one_class(rows, k, directed):
        # m = 0, M = V - 1 and, directed, t left of t+i in every slot
        B, V = rows.shape
        L = pair_count(V - 2, k)
        codes = np.zeros((3 * L, B), np.int8)
        codes[L:2 * L] = V - 1
        codes[2 * L:] = directed
        return codes

    def test_fixed_positions_fails(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_codes", self.one_class)
        assert fixed_positions_check(6, 1, True) is False

    def test_collision_is_rechecked(self, monkeypatch):
        monkeypatch.setattr(reconstruction, "_slot_codes", self.one_class)
        with pytest.raises(InternalInconsistency):
            min_unique_k(6, True)

    # (column, value) written into one code row: slot (0, 1) has m = 0,
    # M in 1..V-1 and, directed, a direction of -1 or +1; column 2 is slot
    # (2, 3), whose m lies in 0..2
    @pytest.mark.parametrize("directed, column, value", [
        (True, "m", -1), (False, "m", 1), (True, "m2", 3), (False, "M", 0),
        (True, "M", 7), (False, "M", -128), (True, "dir", 0), (True, "dir", 2),
        (False, "dir", 1), (False, "dir", -1),
    ])
    def test_code_out_of_range(self, directed, column, value, monkeypatch):
        def corrupt(rows, k, directed):
            codes = _slot_codes(rows, k, directed)
            L = len(codes) // 3
            codes[{"m": 0, "m2": 2, "M": L, "dir": 2 * L}[column], len(rows) // 2] = value
            return codes

        monkeypatch.setattr(reconstruction, "_slot_codes", corrupt)
        with pytest.raises(InternalInconsistency):
            fixed_positions_check(5, 2, directed)
        with pytest.raises(InternalInconsistency):
            min_unique_k(5, directed)

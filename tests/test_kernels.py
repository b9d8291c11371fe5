import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from minmaxperm import Permutation, TooLarge, brute_force_solutions, compute_profile, verify
from minmaxperm.profiles import profile_pairs
from minmaxperm._kernels import (
    batch_profile_codes,
    iter_perm_arrays,
    pair_count,
    value_positions,
)

from helpers import golden_profile, golden_witness_family, profile_arrays, random_perm


def reference_codes(rows, k, directed):
    """Per-row profile codes computed through the scalar path."""
    out = []
    for row in rows:
        P = Permutation(n=len(row) - 2, elems=tuple(int(v) for v in row))
        m, M, d = profile_arrays(compute_profile(P, k, directed))
        out.append(np.concatenate([m, M, d]))
    return np.array(out, np.int8)


def random_rows(rng, n, count):
    return np.array([random_perm(rng, n).elems for _ in range(count)], np.int8)


class TestPairCount:
    def test_values(self):
        assert pair_count(9, 1) == 10
        assert pair_count(9, 2) == 19
        assert pair_count(3, 4) == 4 + 3 + 2 + 1
        for n, k in ((1, 1), (1, 2), (6, 3), (9, 10)):
            assert pair_count(n, k) == len(profile_pairs(n, k))


class TestEnumeration:
    def test_counts_and_shape(self):
        for n in (1, 2, 4):
            rows = np.concatenate(list(iter_perm_arrays(n)))
            assert rows.shape == (math.factorial(n), n + 2)
            assert (rows[:, 0] == 0).all() and (rows[:, -1] == n + 1).all()

    def test_lexicographic_order(self):
        rows = np.concatenate(list(iter_perm_arrays(4)))
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)

    def test_chunking(self):
        chunks = list(iter_perm_arrays(5, chunk=17))
        assert sum(c.shape[0] for c in chunks) == 120
        assert all(c.shape[0] <= 17 for c in chunks)
        joined = [tuple(r) for c in chunks for r in c]
        assert joined == [tuple(r) for r in np.concatenate(list(iter_perm_arrays(5)))]

    def test_matches_itertools_across_blocks(self):
        blocks = list(iter_perm_arrays(9))
        assert [len(b) for b in blocks] == [math.factorial(8)] * 9
        expected = np.array(list(itertools.permutations(range(1, 10))), np.int8)
        assert np.array_equal(np.concatenate(blocks)[:, 1:-1], expected)

    def test_one_row_blocks(self):
        blocks = list(iter_perm_arrays(4, chunk=1))
        assert [b.shape for b in blocks] == [(1, 6)] * 24
        assert [tuple(b[0, 1:-1]) for b in blocks] == list(itertools.permutations(range(1, 5)))

    def test_n_zero(self):
        blocks = list(iter_perm_arrays(0))
        assert len(blocks) == 1
        assert blocks[0].tolist() == [[0, 1]]

    def test_first_block_does_not_materialize_all_rows(self):
        tracemalloc.start()
        try:
            first = next(iter_perm_arrays(12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.shape == (math.factorial(8), 14)
        assert first[0].tolist() == list(range(14))
        assert peak < 10 * 2**20

    def test_too_large_for_int8(self):
        with pytest.raises(TooLarge):
            next(iter_perm_arrays(130))


class TestKernelsMatchReference:
    def test_codes_match_reference(self):
        rng = random.Random(7)
        for n, k, directed in ((3, 1, True), (5, 2, False), (7, 3, True), (8, 9, False)):
            rows = random_rows(rng, n, 40)
            ref = reference_codes(rows, k, directed)
            assert np.array_equal(batch_profile_codes(rows, k, directed), ref)

    def test_match_agrees_with_verify(self):
        F = golden_profile()
        rows = []
        base = list(range(1, 10))
        rng = random.Random(3)
        for _ in range(200):
            rng.shuffle(base)
            rows.append((0, *base, 10))
        rows.extend(sorted(P.elems for P in golden_witness_family(True)))
        expected = [verify(Permutation(n=9, elems=r), F) for r in rows]
        assert sum(expected) == 12  # the golden witnesses; no shuffled row matches
        matched = {P.elems for P in brute_force_solutions(F)}
        assert [r in matched for r in rows] == expected

    def test_undirected_match_ignores_direction(self):
        P = Permutation(n=4, elems=(0, 2, 1, 4, 3, 5))
        F = compute_profile(P, 1, False)
        assert P in brute_force_solutions(F)


def assert_codes(rows, k, directed):
    """batch_profile_codes of rows is the (B, 3L) int8 C-contiguous array
    of their reference codes."""
    codes = batch_profile_codes(rows, k, directed)
    assert codes.dtype == np.int8 and codes.flags.c_contiguous
    assert codes.shape == (len(rows), 3 * pair_count(np.shape(rows)[1] - 2, k))
    assert np.array_equal(codes, reference_codes(rows, k, directed).reshape(codes.shape))


class TestKernelEdgeCases:
    def test_value_positions_inverts_rows(self):
        rows = np.concatenate(list(iter_perm_arrays(6)))
        pos = value_positions(rows)
        assert pos.dtype == np.int8 and pos.shape == (8, len(rows))
        assert np.array_equal(pos.T, rows.argsort(axis=1))

    @pytest.mark.parametrize("directed", [True, False])
    def test_empty_and_single_row_blocks(self, directed):
        rows = random_rows(random.Random(11), 6, 5)
        for k in (1, 3, 7):
            assert_codes(rows[:0], k, directed)
            assert_codes(rows[:1], k, directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_n1(self, directed):
        rows = np.array([[0, 1, 2]], np.int8)
        for k in (1, 2):
            assert_codes(rows, k, directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_k_is_n_plus_one(self, directed):
        rng = random.Random(5)
        for n in (2, 7, 9):
            rows = random_rows(rng, n, 30)
            assert_codes(rows, n + 1, directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_int64_and_non_contiguous_input(self, directed):
        rows = random_rows(random.Random(9), 8, 40)
        for k in (1, 3):
            assert_codes(rows.astype(np.int64), k, directed)
            assert not rows[::-1].flags.c_contiguous
            assert_codes(rows[::-1], k, directed)
            assert_codes(rows.astype(np.int64)[::-1], k, directed)


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("directed", [True, False])
    def test_all_profiles_up_to_n6(self, directed):
        for n in range(1, 7):
            rows = np.concatenate(list(iter_perm_arrays(n)))
            for k in range(1, n + 2):
                assert_codes(rows, k, directed)

import itertools
import math
import random

import numpy as np
import pytest

from minmaxperm import Permutation, brute_force_solutions, compute_profile, verify
from minmaxperm.profiles import pair_count, profile_pairs
from minmaxperm import reconstruction
from minmaxperm.reconstruction import _ROW_BLOCK, _all_rows, _position_features, _slot_digits

from helpers import golden_profile, golden_witness_family, profile_arrays, random_perm, slot_codes


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
            rows = _all_rows(n)
            assert rows.shape == (math.factorial(n), n + 2)
            assert (rows[:, 0] == 0).all() and (rows[:, -1] == n + 1).all()

    def test_lexicographic_order(self):
        rows = _all_rows(4)
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)

    def test_matches_itertools_across_blocks(self):
        rows = _all_rows(9)
        assert rows.dtype == np.int8 and rows.flags.c_contiguous
        expected = np.array(list(itertools.permutations(range(1, 10))), np.int8)
        assert np.array_equal(rows[:, 1:-1], expected)

    def test_n_zero(self):
        assert _all_rows(0).tolist() == [[0, 1]]

    def test_rows_built_once_and_read_only(self):
        rows = _all_rows(5)
        assert _all_rows(5) is rows
        with pytest.raises(ValueError):
            rows[0, 1] = 2
        assert rows[0].tolist() == [0, 1, 2, 3, 4, 5, 6]


class TestKernelsMatchReference:
    def test_codes_match_reference(self):
        rng = random.Random(7)
        for n, k, directed in ((3, 1, True), (5, 2, False), (7, 3, True), (8, 9, False)):
            rows = random_rows(rng, n, 40)
            ref = reference_codes(rows, k, directed)
            assert np.array_equal(slot_codes(rows, k, directed).T, ref)

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
    """_slot_digits of rows is an (L, B) C-contiguous array with L bases,
    one column per row, that decodes to their reference codes."""
    digits, base = _slot_digits(rows, k, directed)
    assert digits.flags.c_contiguous
    assert digits.shape == (len(base), len(rows)) == (pair_count(rows.shape[1] - 2, k), len(rows))
    codes = slot_codes(rows, k, directed)
    assert np.array_equal(codes.T, reference_codes(rows, k, directed).reshape(codes.T.shape))


class TestKernelEdgeCases:
    def test_mask_features_partition_like_positions(self):
        # the masks of 1 and n group all rows as the positions of 1 and n
        # and the block of every value (before both, between, after) do
        for n in range(1, 9):
            rows = _all_rows(n)
            pos = rows.argsort(axis=1)
            lo = np.minimum(pos[:, 1], pos[:, n])[:, None]
            hi = np.maximum(pos[:, 1], pos[:, n])[:, None]
            positions = np.concatenate([pos[:, [1, n]], (pos > lo).astype(np.int8) + (pos > hi)], axis=1)
            masks = _position_features(rows, n)
            assert masks.dtype == np.uint16 and masks.shape == (len(rows), 2)
            _, by_pos = np.unique(positions, axis=0, return_inverse=True)
            _, by_mask = np.unique(masks, axis=0, return_inverse=True)
            joint = np.unique(np.stack([by_pos.ravel(), by_mask.ravel()]), axis=1)
            assert joint.shape[1] == by_pos.max() + 1 == by_mask.max() + 1

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
    def test_n9_every_k(self, directed):
        rows = random_rows(random.Random(9), 9, 200)
        for k in range(1, 11):
            assert_codes(rows, k, directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_k_is_n_plus_one(self, directed):
        rng = random.Random(5)
        for n in (2, 7, 9):
            rows = random_rows(rng, n, 30)
            assert_codes(rows, n + 1, directed)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("k", [2, 3])
    def test_tables_reused_across_blocks(self, directed, k):
        # all n = 8 rows: four full blocks and a short last one, which
        # reads only the mask columns that its own rows filled
        rows = _all_rows(8)
        last = len(rows) // _ROW_BLOCK * _ROW_BLOCK
        assert (len(rows) - last, last // _ROW_BLOCK) == (7552, 4)
        codes = slot_codes(rows, k, directed)
        assert np.array_equal(codes[:, last:].T, reference_codes(rows[last:], k, directed))
        digits, _ = _slot_digits(rows, k, directed)
        assert np.array_equal(_slot_digits(rows[_ROW_BLOCK:], k, directed)[0], digits[:, _ROW_BLOCK:])


class TestValueMasks:
    def test_masks_hold_every_value_at_the_limit(self):
        # a slot's values are a uint16 mask over the n + 2 values of a row
        assert reconstruction.GROUPING_LIMIT + 2 <= 16

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("k", [1, 2])
    def test_digit_table(self, k, directed):
        # entry [s, mask] of slot s = (t, t+i) is m*(V-t-i) + M-t-i, from
        # the least and greatest bit of mask | ends; directed, doubled plus
        # bit t+i of the mask
        V = 11
        table, base = reconstruction._digit_table(V, k, directed)
        slots = [(t, t + i) for i in range(1, k + 1) for t in range(V - i)]
        assert table.shape == (len(slots), 1 << V) and table.dtype == np.uint8
        assert not table.flags.writeable
        assert base == tuple((t + 1) * (V - end) * (1 + directed) for t, end in slots)
        for s, (t, end) in enumerate(slots):
            expected = []
            for mask in range(1 << V):
                seg = mask | 1 << t | 1 << end
                digit = ((seg & -seg).bit_length() - 1) * (V - end) + seg.bit_length() - 1 - end
                expected.append(2 * digit + (mask >> end & 1) if directed else digit)
            assert table[s].tolist() == expected


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("directed", [True, False])
    def test_all_profiles_up_to_n6(self, directed):
        for n in range(1, 7):
            rows = _all_rows(n)
            for k in range(1, n + 2):
                assert_codes(rows, k, directed)

import math
import random

import numpy as np
import pytest

from minmaxperm import Permutation, brute_force_solutions, compute_profile, verify
from minmaxperm.profiles import pair_count, profile_pairs
from minmaxperm import reconstruction
from minmaxperm.reconstruction import _ROW_BLOCK, _all_masks, _slot_digits

from helpers import (
    golden_profile,
    golden_witness_family,
    perm_rows,
    profile_arrays,
    random_perm,
    slot_codes,
    value_masks,
)


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


def mask_rows(upto):
    """The (B, V) permutation rows of (V, B) value masks: value v lies at
    position popcount(upto[v]) - 1."""
    V, B = upto.shape
    popcount = sum((upto >> u & 1).astype(np.intp) for u in range(V))
    rows = np.empty((B, V), np.int8)
    rows[np.arange(B)[:, None], popcount.T - 1] = np.arange(V, dtype=np.int8)
    return rows


class TestEnumeration:
    def test_counts_and_shape(self):
        for n in (1, 2, 4):
            upto = _all_masks(n)
            assert upto.shape == (n + 2, math.factorial(n)) and upto.dtype == np.uint16
            # 0 is always first and n + 1 always last
            assert (upto[0] == 1).all() and (upto[-1] == (1 << n + 2) - 1).all()

    def test_lexicographic_order(self):
        as_tuples = [tuple(r) for r in mask_rows(_all_masks(4)).tolist()]
        assert as_tuples == sorted(as_tuples) and len(set(as_tuples)) == 24

    def test_matches_itertools_across_blocks(self):
        # every enumeration block at n = 9, against masks computed from
        # the positions of the itertools rows
        upto = _all_masks(9)
        assert upto.flags.c_contiguous
        rows = perm_rows(9)
        pos = rows.argsort(axis=1)
        expected = np.array([sum((pos[:, u] <= pos[:, v]).astype(np.uint16) << u for u in range(11))
                             for v in range(11)], np.uint16)
        assert np.array_equal(upto, expected)
        assert np.array_equal(mask_rows(upto), rows)

    def test_n_zero(self):
        assert _all_masks(0).tolist() == [[1], [3]]

    def test_rows_built_once_and_read_only(self):
        # the rows are cached as their value masks
        upto = _all_masks(5)
        assert _all_masks(5) is upto
        with pytest.raises(ValueError):
            upto[1, 0] = 2
        assert mask_rows(upto[:, :1]).tolist() == [[0, 1, 2, 3, 4, 5, 6]]

    def test_masks_match_plain_loop(self):
        for n in range(1, 8):
            upto = _all_masks(n)
            assert np.array_equal(upto, value_masks(perm_rows(n)))
            assert _all_masks(n) is upto
            with pytest.raises(ValueError):
                upto[1, 0] = 2


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
    """_slot_digits of the rows' masks gives, for each gap i up to k, a
    (V-i, B) C-contiguous array with V-i bases, one column per row, and
    the gaps together decode to the rows' reference codes."""
    upto, every = value_masks(rows), np.arange(len(rows))
    V = rows.shape[1]
    slots = 0
    for i in range(1, k + 1):
        digits, base = _slot_digits(upto, every, i, directed)
        assert digits.flags.c_contiguous
        assert digits.shape == (len(base), len(rows)) == (V - i, len(rows))
        slots += len(base)
    assert slots == pair_count(V - 2, k)
    codes = slot_codes(rows, k, directed)
    assert np.array_equal(codes.T, reference_codes(rows, k, directed).reshape(codes.T.shape))


class TestKernelEdgeCases:
    def test_mask_features_partition_like_positions(self):
        # the masks of 1 and n group all permutations as the positions of
        # 1 and n and the block of every value (before both, between,
        # after) do
        for n in range(1, 9):
            pos = perm_rows(n).argsort(axis=1)
            lo = np.minimum(pos[:, 1], pos[:, n])[:, None]
            hi = np.maximum(pos[:, 1], pos[:, n])[:, None]
            positions = np.concatenate([pos[:, [1, n]], (pos > lo).astype(np.int8) + (pos > hi)], axis=1)
            masks = _all_masks(n)[[1, n]].T
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
    @pytest.mark.parametrize("i", [2, 3])
    def test_tables_reused_across_blocks(self, directed, i):
        # all n = 8 permutations: four full blocks and a short last one,
        # which reads only the mask columns that its own permutations
        # filled; any order of the indices gives the same digits
        upto = _all_masks(8)
        B = upto.shape[1]
        last = B // _ROW_BLOCK * _ROW_BLOCK
        assert (B - last, last // _ROW_BLOCK) == (7552, 4)
        digits, _ = _slot_digits(upto, np.arange(B), i, directed)
        rows = perm_rows(8)[last:]
        codes = slot_codes(rows, i, directed)
        assert np.array_equal(codes.T, reference_codes(rows, i, directed))
        assert np.array_equal(_slot_digits(value_masks(rows), np.arange(len(rows)), i, directed)[0],
                              digits[:, last:])
        assert np.array_equal(_slot_digits(upto, np.arange(_ROW_BLOCK, B), i, directed)[0],
                              digits[:, _ROW_BLOCK:])
        shuffled = np.random.default_rng(i).permutation(B)
        assert np.array_equal(_slot_digits(upto, shuffled, i, directed)[0], digits[:, shuffled])


class TestValueMasks:
    def test_masks_hold_every_value_at_the_limit(self):
        # a permutation's values are a uint16 mask over its n + 2 values
        assert reconstruction.GROUPING_LIMIT + 2 <= 16

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("i", [1, 2])
    def test_digit_table(self, i, directed):
        # entry [t, mask] of slot (t, t+i) is m*(V-t-i) + M-t-i, from the
        # least and greatest bit of mask | ends; directed, doubled plus bit
        # t+i of the mask
        V = 11
        table, base = reconstruction._digit_table(V, i, directed)
        slots = [(t, t + i) for t in range(V - i)]
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
            rows = perm_rows(n)
            for k in range(1, n + 2):
                assert_codes(rows, k, directed)

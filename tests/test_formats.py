import random

import pytest

from minmaxperm import (
    BadEndpoints,
    NotBijection,
    PreconditionViolation,
    ProfileSyntaxError,
    ProfileValidationError,
    compute_profile,
    compute_set_profile,
    emit_permutation,
    emit_profile,
    parse_permutation,
    parse_profile,
    validate_permutation,
)

from helpers import GOLDEN_PERM, golden_profile, identity_perm, random_perm

GOLDEN_DOC = """minmax-profile 1
n 9
k 1
directed 1
0 1 > 0 9
1 1 < 1 9
2 1 > 1 9
3 1 < 1 9
4 1 > 1 9
5 1 < 1 9
6 1 > 4 7
7 1 > 1 9
8 1 < 1 9
9 1 > 1 10
"""


class TestParseProfile:
    def test_golden_document(self):
        assert parse_profile(GOLDEN_DOC) == golden_profile()

    def test_emit_golden(self):
        assert emit_profile(golden_profile()) == GOLDEN_DOC

    def test_comments_and_blank_lines(self):
        doc = "# header comment\n\n" + GOLDEN_DOC.replace("6 1 > 4 7", "6 1 > 4 7  # special")
        assert parse_profile(doc) == golden_profile()

    def test_shuffled_constraint_lines(self):
        lines = GOLDEN_DOC.strip().splitlines()
        body = lines[4:]
        random.Random(5).shuffle(body)
        assert parse_profile("\n".join(lines[:4] + body)) == golden_profile()

    def test_undirected_marker(self):
        doc = emit_profile(golden_profile(directed=False))
        F = parse_profile(doc)
        assert not F.directed
        assert F.entry(6).interval == (4, 7)

    def test_min_greater_than_max(self):
        doc = GOLDEN_DOC.replace("6 1 > 4 7", "6 1 > 7 4")
        with pytest.raises(ProfileSyntaxError) as err:
            parse_profile(doc)
        assert err.value.line == 11

    def test_duplicate_entry(self):
        doc = GOLDEN_DOC + "6 1 > 4 7\n"
        with pytest.raises(ProfileSyntaxError, match="duplicate"):
            parse_profile(doc)

    def test_missing_entry(self):
        doc = "\n".join(GOLDEN_DOC.strip().splitlines()[:-1]) + "\n"
        with pytest.raises(ProfileSyntaxError, match="missing"):
            parse_profile(doc)

    def test_huge_header_fails_without_building_the_grid(self):
        import tracemalloc
        doc = "minmax-profile 1\nn 2000000\nk 1\ndirected 1\n0 1 > 0 5\n"
        tracemalloc.start()
        try:
            with pytest.raises(ProfileSyntaxError, match=r"missing entries .*\(1, 1\)"):
                parse_profile(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_wrong_header(self):
        with pytest.raises(ProfileSyntaxError):
            parse_profile("maxmin-profile 1\nn 1\nk 1\ndirected 0\n0 1 ? 0 1\n1 1 ? 1 2\n")

    def test_bad_direction_symbol(self):
        doc = GOLDEN_DOC.replace("6 1 > 4 7", "6 1 ! 4 7")
        with pytest.raises(ProfileSyntaxError, match="direction"):
            parse_profile(doc)

    def test_unknown_marker_in_directed(self):
        doc = GOLDEN_DOC.replace("6 1 > 4 7", "6 1 ? 4 7")
        with pytest.raises(ProfileSyntaxError):
            parse_profile(doc)

    def test_directed_marker_in_undirected(self):
        doc = emit_profile(golden_profile(directed=False)).replace("6 1 ? 4 7", "6 1 > 4 7")
        with pytest.raises(ProfileSyntaxError):
            parse_profile(doc)

    def test_non_integer_field(self):
        doc = GOLDEN_DOC.replace("6 1 > 4 7", "6 one > 4 7")
        with pytest.raises(ProfileSyntaxError):
            parse_profile(doc)

    def test_out_of_range_pair(self):
        doc = GOLDEN_DOC.replace("6 1 > 4 7", "6 2 > 4 7")
        with pytest.raises(ProfileSyntaxError):
            parse_profile(doc)

    def test_empty_document(self):
        with pytest.raises(ProfileSyntaxError):
            parse_profile("# nothing here\n")

    @pytest.mark.parametrize("doc, line, match", [
        (GOLDEN_DOC.split("directed")[0], None, "missing `directed` header line"),
        (GOLDEN_DOC.replace("n 9", "size 9"), 2, "expected `n <int>`"),
        (GOLDEN_DOC.replace("k 1\n", "k 1 1\n"), 3, "expected `k <int>`"),
        (GOLDEN_DOC.replace("k 1\n", "k one\n"), 3, "`k` is not an integer"),
        (GOLDEN_DOC.replace("directed 1", "directed 2"), 4, "must be 0 or 1"),
        (GOLDEN_DOC.replace("n 9", "n 0"), 2, "n must be positive"),
        (GOLDEN_DOC.replace("k 1\n", "k 11\n"), 3, r"1 <= k <= n\+1, got k=11"),
        (GOLDEN_DOC.replace("6 1 > 4 7", "6 1 > 4"), 11, "needs 5 fields"),
        (GOLDEN_DOC.replace("6 1 > 4 7", "10 1 > 4 7"), 11, r"t=10 outside 0\.\.9"),
    ], ids=["missing-header", "header-name", "header-fields", "header-int", "directed-flag",
            "n-below-1", "k-range", "field-count", "t-range"])
    def test_syntax_errors(self, doc, line, match):
        # one case per grammar check the other tests leave unreached; `line`
        # is None where the error names no line
        with pytest.raises(ProfileSyntaxError, match=match) as err:
            parse_profile(doc)
        assert err.value.line == line

    def test_validation_surfaced(self):
        doc = GOLDEN_DOC.replace("1 1 < 1 9", "1 1 < 0 9")
        with pytest.raises(ProfileValidationError):
            parse_profile(doc)


class TestRoundTrip:
    def test_parse_emit_random_profiles(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 8)
            P = random_perm(rng, n)
            k = rng.randint(1, n + 1)
            directed = rng.random() < 0.5
            F = compute_profile(P, k, directed)
            doc = emit_profile(F)
            assert parse_profile(doc) == F
            assert emit_profile(parse_profile(doc)) == doc

    def test_directed_unknown_entry_not_emitted(self):
        # the two permutations disagree on the direction of (1, 2), which a
        # directed document cannot state
        F = compute_set_profile([identity_perm(2), validate_permutation((0, 2, 1, 3))], 1, True)
        assert emit_profile(compute_set_profile([identity_perm(2)], 1, True))
        with pytest.raises(PreconditionViolation):
            emit_profile(F)


class TestPermutationDocuments:
    def test_roundtrip(self):
        P = validate_permutation(GOLDEN_PERM)
        assert parse_permutation(emit_permutation(P)) == P

    def test_comments(self):
        assert parse_permutation("# perm\n0 1 2 3\n") == identity_perm(2)

    def test_multiline_tokens(self):
        assert parse_permutation("0 1\n2 3\n") == identity_perm(2)

    def test_bad_values(self):
        with pytest.raises(NotBijection):
            parse_permutation("0 2 2 3")
        with pytest.raises(BadEndpoints):
            parse_permutation("1 0 2 3")
        with pytest.raises(ProfileSyntaxError):
            parse_permutation("0 x 2 3")
        with pytest.raises(ProfileSyntaxError):
            parse_permutation("   ")

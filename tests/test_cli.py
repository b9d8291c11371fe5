import json
import random

import pytest

from minmaxperm import (
    compute_profile,
    emit_permutation,
    emit_profile,
    nb_masks,
    validate_permutation,
    verify,
)
from minmaxperm import solvers
from minmaxperm.cli import entry_point, main
from minmaxperm.graph import DUMP_LIMIT, ArcKind, Closure

from helpers import (
    GOLDEN_ENTRIES,
    GOLDEN_PERM,
    R,
    b_arc_pairs,
    endpoint_arcs,
    golden_profile,
    identity_perm,
    make_profile,
    random_perm,
    run_fresh,
    run_python,
    seed_arcs,
    unsat2_profile,
)


# `solve --dump-graph` of the running example (golden_profile()).
GOLDEN_DOT = """\
digraph precedence {
  0;
  1;
  2;
  3;
  4;
  5;
  6;
  7;
  8;
  9;
  10;
  0 -> 1 [label="R"];
  0 -> 2 [label="NB"];
  0 -> 3 [label="NB"];
  0 -> 4 [label="NB"];
  0 -> 5 [label="NB"];
  0 -> 6 [label="NB"];
  0 -> 7 [label="NB"];
  0 -> 8 [label="NB"];
  0 -> 9 [label="B"];
  0 -> 10 [label="NB"];
  1 -> 3 [label="B"];
  1 -> 5 [label="B"];
  1 -> 8 [label="B"];
  1 -> 10 [label="B"];
  2 -> 1 [label="R"];
  2 -> 3 [label="R"];
  2 -> 5 [label="T"];
  2 -> 8 [label="T"];
  2 -> 9 [label="B"];
  2 -> 10 [label="NB"];
  3 -> 10 [label="NB"];
  4 -> 1 [label="B"];
  4 -> 3 [label="R"];
  4 -> 5 [label="R"];
  4 -> 7 [label="B"];
  4 -> 8 [label="T"];
  4 -> 9 [label="B"];
  4 -> 10 [label="NB"];
  5 -> 10 [label="NB"];
  6 -> 1 [label="B"];
  6 -> 3 [label="T"];
  6 -> 4 [label="B"];
  6 -> 5 [label="R"];
  6 -> 7 [label="R"];
  6 -> 8 [label="T"];
  6 -> 9 [label="B"];
  6 -> 10 [label="NB"];
  7 -> 1 [label="B"];
  7 -> 3 [label="T"];
  7 -> 5 [label="T"];
  7 -> 8 [label="R"];
  7 -> 9 [label="B"];
  7 -> 10 [label="NB"];
  8 -> 10 [label="NB"];
  9 -> 1 [label="B"];
  9 -> 3 [label="B"];
  9 -> 5 [label="B"];
  9 -> 8 [label="B"];
  9 -> 10 [label="R"];
}
"""


# stdout and exit code of every subcommand, in text and with --json, on
# the golden profiles, the unsatisfiable unsat2 profile and the golden
# permutation.  A JSON row gives the report object; the CLI prints it as
# json.dumps(report, indent=2) plus a newline, so key order counts.
W = [0, 2, 6, 4, 7, 9, 1, 3, 5, 8, 10]
W_LINEAR = [0, 6, 4, 7, 2, 9, 1, 3, 5, 8, 10]
W_2ND = [0, 2, 6, 4, 7, 9, 1, 3, 8, 5, 10]
GOLDEN_ENTRIES_JSON = [
    {"t": t, "i": 1, "dir": d, "m": m, "M": M} for t, d, m, M in (
        (0, ">", 0, 9), (1, "<", 1, 9), (2, ">", 1, 9), (3, "<", 1, 9), (4, ">", 1, 9),
        (5, "<", 1, 9), (6, ">", 4, 7), (7, ">", 1, 9), (8, "<", 1, 9), (9, ">", 1, 10))]
SILENT_NB = [{"top": 2, "basis": [6, 7]}]
PINNED = [
    (["profile", "PERM", "--directed"], 0,
     "minmax-profile 1\nn 9\nk 1\ndirected 1\n0 1 > 0 9\n1 1 < 1 9\n2 1 > 1 9\n"
     "3 1 < 1 9\n4 1 > 1 9\n5 1 < 1 9\n6 1 > 4 7\n7 1 > 1 9\n8 1 < 1 9\n9 1 > 1 10\n"),
    (["profile", "PERM", "--directed", "--json"], 0,
     {"command": "profile", "n": 9, "k": 1, "directed": True, "entries": GOLDEN_ENTRIES_JSON}),
    (["solve", "DIRECTED"], 0, "0 2 6 4 7 9 1 3 5 8 10\n"),
    (["solve", "DIRECTED", "--json"], 0,
     {"command": "solve", "method": "fpt", "n": 9, "k": 1, "directed": True,
      "outcome": "witness", "witness": W, "silent_nb": SILENT_NB, "silent_b": [],
      "settings_tested": 2}),
    (["solve", "DIRECTED", "--method", "linear"], 0, "0 6 4 7 2 9 1 3 5 8 10\n"),
    (["solve", "DIRECTED", "--method", "linear", "--json"], 0,
     {"command": "solve", "method": "linear", "n": 9, "k": 1, "directed": True,
      "outcome": "witness", "witness": W_LINEAR, "silent_nb": SILENT_NB, "silent_b": [],
      "settings_tested": 2}),
    (["solve", "UNDIRECTED"], 0, "0 2 6 4 7 9 1 3 5 8 10\n"),
    (["solve", "UNDIRECTED", "--json"], 0,
     {"command": "solve", "method": "fpt", "n": 9, "k": 1, "directed": False,
      "outcome": "witness", "witness": W, "silent_nb": SILENT_NB, "silent_b": [6],
      "settings_tested": 3}),
    (["solve", "UNDIRECTED", "--method", "brute", "--json"], 0,
     {"command": "solve", "method": "brute", "n": 9, "k": 1, "directed": False,
      "outcome": "witness", "witness": W, "silent_nb": [], "silent_b": [],
      "settings_tested": 0}),
    (["solve", "UNSAT2"], 1, "NO\n"),
    (["solve", "UNSAT2", "--json"], 1,
     {"command": "solve", "method": "fpt", "n": 2, "k": 1, "directed": True,
      "outcome": "no", "witness": None, "silent_nb": [], "silent_b": [],
      "settings_tested": 1}),
    (["verify", "PERM", "DIRECTED"], 0, "OK\n"),
    (["verify", "PERM", "DIRECTED", "--json"], 0, {"command": "verify", "match": True}),
    (["verify", "ID_PERM", "DIRECTED"], 1, "MISMATCH\n"),
    (["verify", "ID_PERM", "DIRECTED", "--json"], 1, {"command": "verify", "match": False}),
    (["enumerate", "DIRECTED"], 0,
     "0 2 6 4 7 9 1 3 5 8 10\n0 2 6 4 7 9 1 3 8 5 10\n0 2 6 4 7 9 1 5 3 8 10\n"
     "0 2 6 4 7 9 1 5 8 3 10\n0 2 6 4 7 9 1 8 3 5 10\n0 2 6 4 7 9 1 8 5 3 10\n"
     "0 6 4 7 2 9 1 3 5 8 10\n0 6 4 7 2 9 1 3 8 5 10\n0 6 4 7 2 9 1 5 3 8 10\n"
     "0 6 4 7 2 9 1 5 8 3 10\n0 6 4 7 2 9 1 8 3 5 10\n0 6 4 7 2 9 1 8 5 3 10\n"),
    (["enumerate", "DIRECTED", "--json"], 0,
     {"command": "enumerate", "count": 12, "witnesses": [
         [0, *a, 9, 1, *tail, 10] for a in ([2, 6, 4, 7], [6, 4, 7, 2])
         for tail in ([3, 5, 8], [3, 8, 5], [5, 3, 8], [5, 8, 3], [8, 3, 5], [8, 5, 3])]}),
    (["enumerate", "UNSAT2"], 1, ""),
    (["enumerate", "UNSAT2", "--json"], 1, {"command": "enumerate", "count": 0, "witnesses": []}),
    (["check-unique", "UNDIRECTED"], 1,
     "COLLISION\n0 2 6 4 7 9 1 3 5 8 10\n0 2 6 4 7 9 1 3 8 5 10\n"),
    (["check-unique", "UNDIRECTED", "--json"], 1,
     {"command": "check-unique", "n": 9, "k": 1, "directed": False, "verdict": "collision",
      "witnesses": [W, W_2ND]}),
    (["check-unique", "UNSAT2"], 1, "EMPTY\n"),
    (["check-unique", "UNSAT2", "--json"], 1,
     {"command": "check-unique", "n": 2, "k": 1, "directed": True, "verdict": "empty",
      "witnesses": []}),
    (["min-k", "5"], 0, "2\n"),
    (["min-k", "5", "--json"], 0,
     {"command": "min-k", "n": 5, "directed": False, "min_k": 2,
      "collision_at_previous_k": [[0, 2, 5, 1, 3, 4, 6], [0, 2, 5, 1, 4, 3, 6]]}),
    (["min-k", "5", "--directed", "--json"], 0,
     {"command": "min-k", "n": 5, "directed": True, "min_k": 1,
      "collision_at_previous_k": None}),
    (["counterexample", "8", "2", "--directed"], 0,
     "0 4 7 1 8 2 3 5 6 9\n0 7 4 1 8 2 3 5 6 9\n"),
    (["counterexample", "8", "2", "--directed", "--json"], 0,
     {"command": "counterexample", "n": 8, "k": 2, "directed": True,
      "pair": [[0, 4, 7, 1, 8, 2, 3, 5, 6, 9], [0, 7, 4, 1, 8, 2, 3, 5, 6, 9]]}),
]


@pytest.mark.parametrize("argv, code, expected", PINNED, ids=[" ".join(a) for a, _, _ in PINNED])
def test_pinned_output(argv, code, expected, tmp_path, capsys):
    inputs = {
        "PERM": " ".join(str(v) for v in GOLDEN_PERM) + "\n",
        "ID_PERM": " ".join(str(v) for v in identity_perm(9).elems),
        "DIRECTED": emit_profile(golden_profile()),
        "UNDIRECTED": emit_profile(golden_profile(directed=False)),
        "UNSAT2": emit_profile(unsat2_profile()),
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / a) if a in inputs else a for a in argv]) == code
    captured = capsys.readouterr()
    if isinstance(expected, dict):
        expected = json.dumps(expected, indent=2) + "\n"
    assert captured.out == expected
    assert captured.err == ""


# The three commands that run the oracle, each with its profile file after
# the first word.
ORACLE_COMMANDS = [["enumerate"], ["check-unique"], ["solve", "--method", "brute"]]


@pytest.fixture
def golden_perm_file(tmp_path):
    path = tmp_path / "golden.perm"
    path.write_text(" ".join(str(v) for v in GOLDEN_PERM) + "\n")
    return str(path)


@pytest.fixture
def golden_profile_file(tmp_path):
    path = tmp_path / "golden.prof"
    path.write_text(emit_profile(golden_profile()))
    return str(path)


@pytest.fixture
def golden_undirected_file(tmp_path):
    path = tmp_path / "golden_u.prof"
    path.write_text(emit_profile(golden_profile(directed=False)))
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat2.prof"
    path.write_text(emit_profile(unsat2_profile()))
    return str(path)


class TestProfileCommand:
    def test_text_output(self, golden_perm_file, capsys):
        assert main(["profile", golden_perm_file, "--k", "1", "--directed"]) == 0
        assert capsys.readouterr().out == emit_profile(golden_profile())

    def test_json_output(self, golden_perm_file, capsys):
        assert main(["profile", golden_perm_file, "--k", "2", "--directed", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "profile"
        assert report["n"] == 9 and report["k"] == 2 and report["directed"]
        assert {"t": 6, "i": 1, "dir": ">", "m": 4, "M": 7} in report["entries"]


class TestSolveCommand:
    def test_linear_witness(self, golden_profile_file, capsys):
        assert main(["solve", golden_profile_file, "--method", "linear"]) == 0
        line = capsys.readouterr().out.strip()
        W = validate_permutation([int(v) for v in line.split()])
        assert verify(W, golden_profile())

    def test_fpt_no_on_unsat(self, unsat_file, capsys):
        assert main(["solve", unsat_file, "--method", "fpt"]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_undirected_fpt(self, golden_undirected_file, capsys):
        assert main(["solve", golden_undirected_file]) == 0
        line = capsys.readouterr().out.strip()
        W = validate_permutation([int(v) for v in line.split()])
        assert verify(W, golden_profile(directed=False))

    def test_brute(self, golden_profile_file, golden_undirected_file, capsys):
        from minmaxperm import brute_force_solutions
        for path, F in ((golden_profile_file, golden_profile()),
                        (golden_undirected_file, golden_profile(directed=False))):
            assert main(["solve", path, "--method", "brute"]) == 0
            line = capsys.readouterr().out.strip()
            assert validate_permutation([int(v) for v in line.split()]) == \
                brute_force_solutions(F)[0]

    def test_brute_reads_the_first_solutions_only(self, tmp_path, capsys):
        # 201,600 solutions, more than the oracle's budget lists, but the
        # first two come at once
        F = compute_profile(random_perm(random.Random("d:24:2"), 24), 1, True)
        path = tmp_path / "d24.prof"
        path.write_text(emit_profile(F))
        assert main(["solve", str(path), "--method", "brute"]) == 0
        assert capsys.readouterr().out == emit_permutation(next(solvers._solutions(F)))

    def test_json_diagnostics(self, golden_profile_file, capsys):
        assert main(["solve", golden_profile_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "witness"
        assert report["silent_nb"] == [{"top": 2, "basis": [6, 7]}]
        assert report["settings_tested"] >= 1

    def test_linear_on_undirected_is_input_error(self, golden_undirected_file, capsys):
        assert main(["solve", golden_undirected_file, "--method", "linear"]) == 2
        assert "error" in capsys.readouterr().err

    def test_dump_graph(self, golden_profile_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["solve", golden_profile_file, "--dump-graph", str(dot)]) == 0
        capsys.readouterr()
        text = dot.read_text()
        assert text.startswith("digraph") and '[label="R"]' in text

    @pytest.mark.parametrize("F, code", [
        (golden_profile(), 0),
        (golden_profile(directed=False), 0),
        (unsat2_profile(), 1),  # its closed graph has a cycle
    ], ids=["directed", "undirected", "unsat2"])
    def test_dump_graph_is_full_closure(self, F, code, tmp_path, capsys):
        # the dump is the full T/NB(/B) fixpoint of the profile's seeds,
        # each entry's R-arc and B-arcs or the endpoint arcs, in that order
        prof, dot = tmp_path / "f.prof", tmp_path / "g.dot"
        prof.write_text(emit_profile(F))
        assert main(["solve", str(prof), "--dump-graph", str(dot)]) == code
        capsys.readouterr()
        if F.directed:
            seeds = [(x, y, ArcKind.B if i else ArcKind.R)
                     for c in F.entries() for i, (x, y) in enumerate(seed_arcs(c))]
            closed = Closure(F.n, seeds, nb_masks(F))
        else:
            seeds = [(x, y, ArcKind.R) for x, y in endpoint_arcs(F.n)]
            closed = Closure(F.n, seeds, nb_masks(F), b_arc_pairs(F))
        expected = ["digraph precedence {", *(f"  {v};" for v in range(F.n + 2)),
                    *(f'  {x} -> {y} [label="{kind.value}"];' for x, y, kind in closed.arcs()),
                    "}"]
        assert dot.read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("doc", [
        emit_profile(compute_profile(identity_perm(4), 2, True)),
        # a `?` entry in a directed document, which emit_profile refuses
        "minmax-profile 1\nn 2\nk 1\ndirected 1\n0 1 > 0 2\n1 1 ? 1 2\n2 1 > 2 3\n",
    ], ids=["k2", "unknown-direction"])
    def test_dump_graph_gate_error(self, doc, tmp_path, capsys):
        # the dump runs the solvers' gate: an input error, and no file
        prof, dot = tmp_path / "f.prof", tmp_path / "g.dot"
        prof.write_text(doc)
        assert main(["solve", str(prof), "--dump-graph", str(dot)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not dot.exists()

    def test_dump_graph_size_limit(self, tmp_path, capsys):
        # above the limit the dump is refused before anything is closed:
        # an input error, and no file
        n = DUMP_LIMIT + 1
        prof, dot = tmp_path / "f.prof", tmp_path / "g.dot"
        prof.write_text(emit_profile(compute_profile(identity_perm(n), 1, True)))
        assert main(["solve", str(prof), "--dump-graph", str(dot)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: n={n} exceeds the graph dump limit {DUMP_LIMIT}\n")
        assert not dot.exists()

    def test_dump_graph_golden_bytes(self, golden_profile_file, tmp_path, capsys):
        # the running example's dump, byte for byte: 49 arcs, 18 B, 15 NB,
        # 9 R and 7 T.  The kind of a derived arc depends on the order the
        # seeds go in (ascending (x, y)); entry order would label 7 -> 3 NB.
        dot = tmp_path / "g.dot"
        assert main(["solve", golden_profile_file, "--dump-graph", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text() == GOLDEN_DOT


class TestVerifyCommand:
    def test_match(self, golden_perm_file, golden_profile_file, capsys):
        assert main(["verify", golden_perm_file, golden_profile_file]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_mismatch(self, tmp_path, golden_profile_file, capsys):
        perm = tmp_path / "id.perm"
        perm.write_text(" ".join(str(v) for v in identity_perm(9).elems))
        assert main(["verify", str(perm), golden_profile_file]) == 1
        assert capsys.readouterr().out.strip() == "MISMATCH"


class TestEnumerateCommand:
    def test_counts(self, golden_undirected_file, capsys):
        assert main(["enumerate", golden_undirected_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24

    def test_empty(self, unsat_file, capsys):
        assert main(["enumerate", unsat_file]) == 1
        assert capsys.readouterr().out.strip() == ""

    def test_json(self, unsat_file, capsys):
        assert main(["enumerate", unsat_file, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0 and report["witnesses"] == []


class TestCheckUniqueCommand:
    def test_collision(self, golden_undirected_file, capsys):
        assert main(["check-unique", golden_undirected_file]) == 1
        out = capsys.readouterr().out
        assert out.startswith("COLLISION")
        assert len(out.strip().splitlines()) == 3

    def test_unique(self, tmp_path, capsys):
        from minmaxperm import compute_profile
        path = tmp_path / "id.prof"
        path.write_text(emit_profile(compute_profile(identity_perm(4), 1, True)))
        assert main(["check-unique", str(path)]) == 0
        assert capsys.readouterr().out.startswith("UNIQUE")

    def test_empty(self, unsat_file, capsys):
        assert main(["check-unique", unsat_file]) == 1
        assert capsys.readouterr().out.startswith("EMPTY")


class TestMinKCommand:
    def test_value(self, capsys):
        assert main(["min-k", "7"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    @pytest.mark.parametrize("argv, min_k", [(["9"], "6"), (["9", "--directed"], "3")])
    def test_value_at_grouping_limit(self, argv, min_k, capsys):
        assert main(["min-k", *argv]) == 0
        assert capsys.readouterr().out == min_k + "\n"

    def test_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["min-k", "7", "--cap", "9"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_json(self, capsys):
        assert main(["min-k", "5", "--directed", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_k"] == 1
        assert report["collision_at_previous_k"] is None

    def test_json_collision_payload(self, capsys):
        from minmaxperm import compute_profile, validate_permutation
        assert main(["min-k", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_k"] == 2
        pair = report["collision_at_previous_k"]
        P, Q = (validate_permutation(p) for p in pair)
        assert P != Q
        assert compute_profile(P, 1, False) == compute_profile(Q, 1, False)

    @pytest.mark.parametrize("n", ["-2", "0"])
    def test_n_below_one_is_input_error(self, n, capsys):
        assert main(["min-k", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("n", ["10", "12"])
    def test_above_grouping_limit_is_input_error(self, n, capsys):
        # refused before any of the n! rows is built
        assert main(["min-k", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestCounterexampleCommand:
    def test_pair(self, capsys):
        assert main(["counterexample", "5", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0 3 4 1 5 2 6"
        assert lines[1] == "0 4 3 1 5 2 6"

    def test_bad_k_is_input_error(self, capsys):
        assert main(["counterexample", "5", "2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["2000", "61"], ["1000", "200", "--directed"]])
    def test_large_pair(self, argv, capsys):
        # profiles of more than 120,000 pairs, which re-checking the whole
        # profiles made slow: the re-check reads at most 4k entries
        import time
        start = time.perf_counter()
        assert main(["counterexample", *argv]) == 0
        assert time.perf_counter() - start < 1.0
        lines = capsys.readouterr().out.splitlines()
        n = int(argv[0])
        assert len(lines) == 2 and lines[0] != lines[1]
        assert all(len(line.split()) == n + 2 for line in lines)

    def test_k_range_is_checked_first(self, capsys):
        # out of range at a huge n: the k-range error comes before the
        # pair is built
        assert main(["counterexample", "100000000", "100000000"]) == 2
        assert capsys.readouterr().err.startswith("error: undirected collision needs")

    def test_n_above_the_limit_is_refused_at_once(self, capsys):
        # an n far past COLLISION_LIMIT (10^6) in its k range is refused
        # before anything is built: 10^12 values would need over 100 TB
        import time
        start = time.perf_counter()
        assert main(["counterexample", "1000000000000", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: n=1000000000000 exceeds the collision-pair "
                                "limit 1000000\n")


# Imports the package, runs `main` on the arguments if there are any, and
# prints [exit code, stdout, whether numpy is loaded] as one JSON line.
_COLD_RUN = """
import contextlib, io, json, sys
import minmaxperm
code, out = None, io.StringIO()
if sys.argv[1:]:
    from minmaxperm.cli import main
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), "numpy" in sys.modules]))
"""


class TestColdPath:
    """In a fresh process, the package and every command but the two
    exhaustive ones, the oracle's included, load no numpy, and all of them
    answer as a warm process does; `min-k` and `counterexample` load the
    kernels on first use."""

    @pytest.fixture
    def files(self, golden_perm_file, golden_profile_file, golden_undirected_file, tmp_path):
        return {"perm": golden_perm_file, "prof": golden_profile_file,
                "uprof": golden_undirected_file, "dot": str(tmp_path / "g.dot")}

    def _cold_and_warm(self, argv, files, capsys):
        argv = [a.format(**files) for a in argv]
        code, out, numpy = json.loads(run_fresh(_COLD_RUN, *argv))
        assert (code, out) == (main(argv), capsys.readouterr().out)
        return code, out, numpy

    def test_import_alone(self):
        assert json.loads(run_fresh(_COLD_RUN)) == [None, "", False]

    @pytest.mark.parametrize("argv", [
        ["solve", "{prof}"],
        ["solve", "{prof}", "--json"],
        ["solve", "{prof}", "--dump-graph", "{dot}"],
        ["solve", "{prof}", "--method", "linear"],
        ["solve", "{uprof}"],
        ["verify", "{perm}", "{prof}"],
        ["profile", "{perm}", "--k", "2", "--directed"],
    ], ids=["solve", "solve-json", "solve-dump-graph", "solve-linear", "solve-undirected",
            "verify", "profile"])
    def test_no_numpy(self, argv, files, capsys):
        code, out, numpy = self._cold_and_warm(argv, files, capsys)
        assert code == 0 and out and not numpy

    @pytest.mark.parametrize("argv, code, lines", [
        (["solve", "{uprof}", "--method", "brute"], 0, 1),
        (["enumerate", "{uprof}"], 0, 24),
        (["check-unique", "{uprof}"], 1, 3),
    ], ids=["solve-brute", "enumerate", "check-unique"])
    def test_oracle_commands_answer(self, argv, code, lines, files, capsys):
        # the oracle is plain Python: no numpy here either
        got_code, out, numpy = self._cold_and_warm(argv, files, capsys)
        assert (got_code, len(out.splitlines()), numpy) == (code, lines, False)

    @pytest.mark.parametrize("argv, lines", [
        (["min-k", "5"], 1),
        (["counterexample", "8", "2", "--directed"], 2),
    ], ids=["min-k", "counterexample"])
    def test_exhaustive_commands_answer(self, argv, lines, files, capsys):
        code, out, _ = self._cold_and_warm(argv, files, capsys)
        assert (code, len(out.splitlines())) == (0, lines)


class TestModuleRun:
    """The CLI as perfbench's cli-oneshot workload runs it, `python -m
    minmaxperm.cli` in a fresh process, and as the installed script runs
    it, `entry_point` on the process's argv: a witness (exit 0), NO (exit
    1) and a syntax error (exit 2), each with its exact output."""

    CASES = [
        (emit_profile(golden_profile()), 0, "0 2 6 4 7 9 1 3 5 8 10\n", ""),
        (emit_profile(unsat2_profile()), 1, "NO\n", ""),
        ("minmax-profile 1\nn 9\n", 2, "", "error: missing `k` header line\n"),
    ]
    IDS = ["golden", "unsatisfiable", "malformed"]

    @pytest.mark.parametrize("doc, code, out, err", CASES, ids=IDS)
    def test_module(self, doc, code, out, err, tmp_path):
        path = tmp_path / "in.prof"
        path.write_text(doc)
        proc = run_python("-m", "minmaxperm.cli", "solve", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("doc, code, out, err", CASES, ids=IDS)
    def test_entry_point(self, doc, code, out, err, tmp_path, monkeypatch, capsys):
        path = tmp_path / "in.prof"
        path.write_text(doc)
        monkeypatch.setattr("sys.argv", ["minmaxperm", "solve", str(path)])
        with pytest.raises(SystemExit) as exit_:
            entry_point()
        assert exit_.value.code == code
        assert capsys.readouterr() == (out, err)


class TestInternalFault:
    def test_exit_code_3(self, golden_profile_file, monkeypatch, capsys):
        import minmaxperm.cli as cli
        from minmaxperm import InternalInconsistency

        def broken(F):
            raise InternalInconsistency("witness does not reproduce the profile")
        monkeypatch.setattr(cli, "solve_fpt_directed", broken)
        assert main(["solve", golden_profile_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "internal error: witness does not reproduce the profile"]

    def test_root_entry_check_stricter_than_gate(self, tmp_path, monkeypatch, capsys):
        # the root's own entry check and the gate must agree; with the gate
        # made a no-op, a boundary entry running right to left passes it
        # and the entry check's rejection is a fault
        import minmaxperm.graph as graph
        from minmaxperm import InternalInconsistency, PreconditionViolation
        F = make_profile([(0, R, 0, 9), *GOLDEN_ENTRIES[1:]])
        path = tmp_path / "backwards.prof"
        path.write_text(emit_profile(F))
        assert main(["solve", str(path)]) == 2
        capsys.readouterr()
        with pytest.raises(PreconditionViolation):
            graph.root_closure(F)
        monkeypatch.setattr(graph, "require_solver_profile", lambda F: None)
        message = "the root's entry check rejected a profile the gate passes"
        with pytest.raises(InternalInconsistency, match=message):
            graph.root_closure(F)
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err == f"internal error: {message}\n"

    def test_unexpected_exception_is_internal(self, golden_profile_file, monkeypatch, capsys):
        import minmaxperm.cli as cli

        def broken(F):
            raise ValueError("bad index")
        monkeypatch.setattr(cli, "solve_fpt_directed", broken)
        assert main(["solve", golden_profile_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["internal error: ValueError: bad index"]


def _package_errors():
    import minmaxperm.errors as errors
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.MinMaxError)]


class TestExitCodePolicy:
    """Every error class of the package reports bad input (exit 2), except
    the two that report a fault in the package itself (exit 3)."""

    @staticmethod
    def _raise_from_min_k(monkeypatch, exc):
        import minmaxperm.reconstruction as reconstruction

        def broken(*args):
            raise exc
        monkeypatch.setattr(reconstruction, "min_unique_k", broken)
        return main(["min-k", "5"])

    @pytest.mark.parametrize("cls", _package_errors(), ids=lambda c: c.__name__)
    def test_package_errors(self, cls, monkeypatch, capsys):
        from minmaxperm import CyclicGraph, InternalInconsistency, ProfileValidationError
        exc = cls(["boom"]) if cls is ProfileValidationError else cls("boom")
        fault = cls in (InternalInconsistency, CyclicGraph)
        assert self._raise_from_min_k(monkeypatch, exc) == (3 if fault else 2)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{'internal error' if fault else 'error'}: {exc}\n"

    # a missing file, undecodable bytes and a ValueError are covered by
    # TestInputErrors and TestInternalFault
    def test_os_error_is_input_error(self, monkeypatch, capsys):
        assert self._raise_from_min_k(monkeypatch, OSError("disk gone")) == 2
        assert capsys.readouterr().err == "error: disk gone\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_failed_write_is_input_error(self, json_flag, monkeypatch, capsys):
        import sys

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["counterexample", "5", "1", *json_flag]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_input_error_under_json(self, capsys):
        # `main` imports json only to print a report; an input error under
        # --json is still exit 2 with nothing on stdout, in this process
        # and in a fresh one that has not loaded json before `main` runs
        argv = ["min-k", "10", "--json"]
        expected = (2, "", "error: n=10 exceeds the grouping limit 9\n")
        assert (main(argv), *capsys.readouterr()) == expected
        proc = run_python("-m", "minmaxperm.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


class TestInputErrors:
    @pytest.mark.parametrize("argv", ORACLE_COMMANDS)
    def test_cap_is_a_usage_error(self, argv, golden_undirected_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], golden_undirected_file, *argv[1:], "--cap", "9"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", ORACLE_COMMANDS)
    def test_past_the_oracle_budget(self, argv, golden_undirected_file, monkeypatch, capsys):
        # the running example's first solution alone costs more than 20
        monkeypatch.setattr(solvers, "ORACLE_WORK", 20)
        assert main([argv[0], golden_undirected_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: n=9: the search exceeds the oracle's work budget 20\n")

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/x.prof"]) == 2
        capsys.readouterr()

    def test_syntax_error_file(self, tmp_path, capsys):
        path = tmp_path / "bad.prof"
        path.write_text("minmax-profile 1\nn 2\nk 1\ndirected 1\n0 1 > 7 4\n")
        assert main(["solve", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error_file(self, tmp_path, capsys):
        path = tmp_path / "bad.prof"
        path.write_text(
            "minmax-profile 1\nn 2\nk 1\ndirected 1\n"
            "0 1 > 0 2\n1 1 > 0 2\n2 1 > 1 3\n")
        assert main(["enumerate", str(path)]) == 2
        assert "invalid profile" in capsys.readouterr().err

    def test_binary_file(self, tmp_path, capsys):
        path = tmp_path / "bin.prof"
        path.write_bytes(b"\xff\xfe\x00minmax")
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("argv", ORACLE_COMMANDS)
    def test_beyond_int8_answers(self, tmp_path, argv, capsys):
        # the oracle keeps no int8 arrays and has no n cap: it answers past
        # n = 126
        path = tmp_path / "id130.prof"
        path.write_text(emit_profile(compute_profile(identity_perm(130), 1, True)))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        captured = capsys.readouterr()
        head = "UNIQUE\n" if argv[0] == "check-unique" else ""
        assert (captured.out, captured.err) == (head + emit_permutation(identity_perm(130)), "")

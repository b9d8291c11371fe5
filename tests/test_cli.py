import json

import pytest

from minmaxperm import (
    b_arc_pairs,
    emit_profile,
    endpoint_seeded_graph,
    nb_records,
    to_dot,
    validate_permutation,
    verify,
)
from minmaxperm.cli import main
from minmaxperm.graph import close, easy_arc_seeds

from helpers import GOLDEN_PERM, golden_profile, identity_perm, unsat2_profile


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
        # the dump is the full T/NB(/B) fixpoint of the profile's seeds
        prof, dot = tmp_path / "f.prof", tmp_path / "g.dot"
        prof.write_text(emit_profile(F))
        assert main(["solve", str(prof), "--dump-graph", str(dot)]) == code
        capsys.readouterr()
        if F.directed:
            closed = close(easy_arc_seeds(F), nb_records(F))
        else:
            closed = close(endpoint_seeded_graph(F.n), nb_records(F), b_arc_pairs(F))
        assert dot.read_bytes() == to_dot(closed).encode()


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


class TestCounterexampleCommand:
    def test_pair(self, capsys):
        assert main(["counterexample", "5", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0 3 4 1 5 2 6"
        assert lines[1] == "0 4 3 1 5 2 6"

    def test_bad_k_is_input_error(self, capsys):
        assert main(["counterexample", "5", "2"]) == 2
        assert "error" in capsys.readouterr().err


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

    def test_unexpected_exception_is_internal(self, golden_profile_file, monkeypatch, capsys):
        import minmaxperm.cli as cli

        def broken(F):
            raise ValueError("bad index")
        monkeypatch.setattr(cli, "solve_fpt_directed", broken)
        assert main(["solve", golden_profile_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["internal error: ValueError: bad index"]


class TestInputErrors:
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

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--cap", "200"],
        ["check-unique", "--cap", "200"],
        ["solve", "--method", "brute", "--cap", "200"],
    ])
    def test_beyond_int8_is_input_error(self, tmp_path, argv, capsys):
        from minmaxperm import compute_profile
        path = tmp_path / "id130.prof"
        path.write_text(emit_profile(compute_profile(identity_perm(130), 1, True)))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

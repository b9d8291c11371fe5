"""Command-line front end.

Subcommands:

    profile PERM --k K [--directed]       compute and print a profile
    solve PROFILE [--method M]            witness line or `NO`
    verify PERM PROFILE                   recompute-and-compare
    enumerate PROFILE                     all witnesses, one per line
    check-unique PROFILE                  UNIQUE / COLLISION / EMPTY
    min-k N [--directed]                  exhaustive minimum k
    counterexample N K [--directed]       explicit collision pair

Every subcommand accepts --json for a single structured report object.
Each `_cmd_*` returns (exit code, report, text) and `main` renders it: the
report as JSON, headed by the command name, under --json, else the text.
Exit codes: 0 success/witness, 1 NO / non-unique / mismatch, 2 input error
(an unreadable file, or any MinMaxError but the two faults), 3 internal
fault (InternalInconsistency or CyclicGraph: a solver caught itself
producing an inconsistent answer; or any other unexpected exception).

Only the exhaustive command `min-k` loads numpy, when it runs.  The
others, `counterexample` and the oracle's `solve --method brute`,
`enumerate` and `check-unique` included, run without it, so a process
that answers one of them starts faster.  `json` loads only under --json.
On a 2-core VM, `import minmaxperm.cli` adds 11-13 ms of wall clock to a
fresh interpreter (`python -X importtime`: 11 ms cumulative) when the
package compiles from source, and 6-7 ms (5 ms) with a bytecode cache.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CyclicGraph, InternalInconsistency, MinMaxError
from .formats import emit_permutation, emit_profile, parse_permutation, parse_profile
from .graph import require_solver_profile, to_dot
from .profiles import Profile, collision_pair, compute_profile
from .solvers import (
    SolveOutcome,
    brute_force_solutions,
    is_unique,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    verify,
)

# The two errors that report a fault in this package rather than bad input.
_FAULTS = (InternalInconsistency, CyclicGraph)

# What a command returns: exit code, JSON report without "command", text.
_Result = tuple[int, dict, str]


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_profile(args) -> _Result:
    F = compute_profile(parse_permutation(_read(args.perm_file)), args.k, args.directed)
    entries = [{"t": c.t, "i": c.i, "dir": c.dir.value, "m": c.m, "M": c.M}
               for c in F.entries()]
    return 0, {"n": F.n, "k": F.k, "directed": F.directed, "entries": entries}, emit_profile(F)


def _solve_dispatch(F: Profile, method: str) -> SolveOutcome:
    if method == "linear":
        return solve_linear(F)
    if method == "fpt":
        if F.directed:
            return solve_fpt_directed(F)
        return solve_undirected(F)
    # "brute": the other methods' gate, then the oracle up to its second solution
    require_solver_profile(F)
    return SolveOutcome(witness=next(iter(is_unique(F).witnesses), None))


def _cmd_solve(args) -> _Result:
    F = parse_profile(_read(args.profile_file))
    if args.dump_graph:
        Path(args.dump_graph).write_text(to_dot(F))
    outcome = _solve_dispatch(F, args.method)
    W = outcome.witness
    return 1 if outcome.is_no else 0, {
        "method": args.method,
        "n": F.n,
        "k": F.k,
        "directed": F.directed,
        "outcome": "no" if outcome.is_no else "witness",
        "witness": None if outcome.is_no else list(W.elems),
        "silent_nb": [{"top": r.top, "basis": list(r.basis)} for r in outcome.silent_nb],
        "silent_b": list(outcome.silent_b),
        "settings_tested": outcome.settings_tested,
    }, "NO\n" if outcome.is_no else emit_permutation(W)


def _cmd_verify(args) -> _Result:
    P = parse_permutation(_read(args.perm_file))
    ok = verify(P, parse_profile(_read(args.profile_file)))
    return 0 if ok else 1, {"match": ok}, "OK\n" if ok else "MISMATCH\n"


def _cmd_enumerate(args) -> _Result:
    sols = brute_force_solutions(parse_profile(_read(args.profile_file)))
    return 0 if sols else 1, {
        "count": len(sols),
        "witnesses": [list(p.elems) for p in sols],
    }, "".join(map(emit_permutation, sols))


def _cmd_check_unique(args) -> _Result:
    report = is_unique(parse_profile(_read(args.profile_file)))
    return 0 if report.verdict == "unique" else 1, {
        "n": report.n,
        "k": report.k,
        "directed": report.directed,
        "verdict": report.verdict,
        "witnesses": [list(p.elems) for p in report.witnesses],
    }, report.verdict.upper() + "\n" + "".join(map(emit_permutation, report.witnesses))


def _cmd_min_k(args) -> _Result:
    from .reconstruction import min_unique_k
    result = min_unique_k(args.n, args.directed)
    return 0, {
        "n": result.n,
        "directed": result.directed,
        "min_k": result.min_k,
        "collision_at_previous_k": (
            None if result.collision is None
            else [list(p.elems) for p in result.collision]),
    }, f"{result.min_k}\n"


def _cmd_counterexample(args) -> _Result:
    pair = collision_pair(args.n, args.k, args.directed)
    return 0, {
        "n": args.n,
        "k": args.k,
        "directed": args.directed,
        "pair": [list(p.elems) for p in pair],
    }, "".join(map(emit_permutation, pair))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON report object")

    parser = argparse.ArgumentParser(
        prog="minmaxperm",
        description="Reconstruct permutations from min/max betweenness profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[common],
                       help="compute the k-profile of a permutation file")
    p.add_argument("perm_file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("solve", parents=[common],
                       help="find a permutation matching a profile file")
    p.add_argument("profile_file")
    p.add_argument("--method", choices=("linear", "fpt", "brute"), default="fpt")
    p.add_argument("--dump-graph", metavar="PATH",
                   help="write the closed precedence graph as DOT")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", parents=[common],
                       help="check a permutation against a profile file")
    p.add_argument("perm_file")
    p.add_argument("profile_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all permutations matching a profile file")
    p.add_argument("profile_file")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-unique", parents=[common],
                       help="classify a profile as unique / collision / empty")
    p.add_argument("profile_file")
    p.set_defaults(func=_cmd_check_unique)

    p = sub.add_parser("min-k", parents=[common],
                       help="minimum k at which every k-profile is unique")
    p.add_argument("n", type=int)
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_min_k)

    p = sub.add_parser("counterexample", parents=[common],
                       help="two permutations sharing a k-profile")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, text = args.func(args)
        if args.json:
            import json
            print(json.dumps({"command": args.command, **report}, indent=2))
        else:
            sys.stdout.write(text)
        return code
    except _FAULTS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (MinMaxError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

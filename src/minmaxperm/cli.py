"""Command-line front end.

Subcommands:

    profile PERM --k K [--directed]       compute and print a profile
    solve PROFILE [--method M]            witness line or `NO`
    verify PERM PROFILE                   recompute-and-compare
    enumerate PROFILE [--cap N]           all witnesses, one per line
    check-unique PROFILE [--cap N]        UNIQUE / COLLISION / EMPTY
    min-k N [--directed] [--cap N]        exhaustive minimum k
    counterexample N K [--directed]       explicit collision pair

Every subcommand accepts --json for a single structured report object.
Exit codes: 0 success/witness, 1 NO / non-unique / mismatch, 2 input error,
3 internal fault (a solver caught itself producing an inconsistent answer,
or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    BadEndpoints,
    COutOfRange,
    KMismatch,
    MinMaxError,
    MismatchedN,
    NotBijection,
    NotDirected,
    NotLinear,
    PreconditionViolation,
    ProfileSyntaxError,
    TooLarge,
)
from .formats import emit_permutation, emit_profile, parse_permutation, parse_profile
from .graph import build_easy_arcs, require_solver_profile, to_dot
from .profiles import Permutation, Profile, compute_profile
from .reconstruction import DEFAULT_GROUPING_CAP, collision_pair, is_unique, min_unique_k
from .solvers import (
    DEFAULT_BRUTE_CAP,
    SolveOutcome,
    brute_force_solutions,
    solve_fpt_directed,
    solve_linear,
    solve_undirected,
    undirected_base,
    verify,
)

_INPUT_ERRORS = (
    ProfileSyntaxError,
    PreconditionViolation,
    NotDirected,
    NotLinear,
    NotBijection,
    BadEndpoints,
    MismatchedN,
    KMismatch,
    COutOfRange,
    TooLarge,
    OSError,
    UnicodeDecodeError,
)


def _perm_json(P: Permutation) -> list[int]:
    return list(P.elems)


def _profile_json(F: Profile) -> dict:
    return {
        "n": F.n,
        "k": F.k,
        "directed": F.directed,
        "entries": [
            {"t": c.t, "i": c.i, "dir": c.dir.symbol, "m": c.m, "M": c.M}
            for c in F.entries()
        ],
    }


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_profile(args) -> int:
    P = parse_permutation(_read(args.perm_file))
    F = compute_profile(P, args.k, args.directed)
    if args.json:
        _emit_json({"command": "profile", **_profile_json(F)})
    else:
        sys.stdout.write(emit_profile(F))
    return 0


def _solve_dispatch(F: Profile, method: str, cap: int) -> SolveOutcome:
    if method == "linear":
        return solve_linear(F)
    if method == "fpt":
        if F.directed:
            return solve_fpt_directed(F)
        return solve_undirected(F, method="fpt")
    if method == "brute":
        require_solver_profile(F, directed=F.directed)  # same gate as the other methods
        sols = brute_force_solutions(F, cap)
        return SolveOutcome(witness=sols[0] if sols else None)
    raise ValueError(f"unknown method {method!r}")


def _cmd_solve(args) -> int:
    F = parse_profile(_read(args.profile_file))
    if args.dump_graph:
        if F.directed:
            g = build_easy_arcs(F).graph
        else:
            g = undirected_base(F)[0]
        Path(args.dump_graph).write_text(to_dot(g))
    outcome = _solve_dispatch(F, args.method, args.cap)
    if args.json:
        _emit_json({
            "command": "solve",
            "method": args.method,
            "n": F.n,
            "k": F.k,
            "directed": F.directed,
            "outcome": "no" if outcome.is_no else "witness",
            "witness": None if outcome.is_no else _perm_json(outcome.witness),
            "silent_nb": [{"top": r.top, "basis": list(r.basis)} for r in outcome.silent_nb],
            "silent_b": list(outcome.silent_b),
            "settings_tested": outcome.settings_tested,
        })
    elif outcome.is_no:
        print("NO")
    else:
        sys.stdout.write(emit_permutation(outcome.witness))
    return 1 if outcome.is_no else 0


def _cmd_verify(args) -> int:
    P = parse_permutation(_read(args.perm_file))
    F = parse_profile(_read(args.profile_file))
    ok = verify(P, F)
    if args.json:
        _emit_json({"command": "verify", "match": ok})
    else:
        print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    F = parse_profile(_read(args.profile_file))
    sols = brute_force_solutions(F, args.cap)
    if args.json:
        _emit_json({
            "command": "enumerate",
            "count": len(sols),
            "witnesses": [_perm_json(p) for p in sols],
        })
    else:
        for p in sols:
            sys.stdout.write(emit_permutation(p))
    return 0 if sols else 1


def _cmd_check_unique(args) -> int:
    F = parse_profile(_read(args.profile_file))
    report = is_unique(F, args.cap)
    if args.json:
        _emit_json({
            "command": "check-unique",
            "n": report.n,
            "k": report.k,
            "directed": report.directed,
            "verdict": report.verdict,
            "witnesses": [_perm_json(p) for p in report.witnesses],
        })
    else:
        print(report.verdict.upper())
        for p in report.witnesses:
            sys.stdout.write(emit_permutation(p))
    return 0 if report.verdict == "unique" else 1


def _cmd_min_k(args) -> int:
    result = min_unique_k(args.n, args.directed, args.cap)
    if args.json:
        _emit_json({
            "command": "min-k",
            "n": result.n,
            "directed": result.directed,
            "min_k": result.min_k,
            "collision_at_previous_k": (
                None if result.collision is None
                else [_perm_json(p) for p in result.collision]),
        })
    else:
        print(result.min_k)
    return 0


def _cmd_counterexample(args) -> int:
    P, Q = collision_pair(args.n, args.k, args.directed)
    if args.json:
        _emit_json({
            "command": "counterexample",
            "n": args.n,
            "k": args.k,
            "directed": args.directed,
            "pair": [_perm_json(P), _perm_json(Q)],
        })
    else:
        sys.stdout.write(emit_permutation(P))
        sys.stdout.write(emit_permutation(Q))
    return 0


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
    p.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                   help="enumeration cap for --method brute")
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
    p.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-unique", parents=[common],
                       help="classify a profile as unique / collision / empty")
    p.add_argument("profile_file")
    p.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP)
    p.set_defaults(func=_cmd_check_unique)

    p = sub.add_parser("min-k", parents=[common],
                       help="minimum k at which every k-profile is unique")
    p.add_argument("n", type=int)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_GROUPING_CAP)
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
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = exc if isinstance(exc, MinMaxError) else f"{type(exc).__name__}: {exc}"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, request execution and the correctness gate of each workload.

Inputs are built here from the seed alone; the library only ever receives
the finished profiles (or, for cli-oneshot, argv and the files it names).
Profiles are computed with the benchmark's own segment min/max code, so the
correctness gate does not rest on `compute_profile` certifying itself.

A pool is a list of rounds.  Every round holds one request of each stratum
(n rung x edited, plus the kind mix), so any whole number of rounds has the
same composition; the timed loop stops only at round boundaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("directed", "undirected", "exhaustive", "cli-oneshot")

# Per-request deadline, in `ref` units (see run.py: one ref is the host's
# current time for a fixed piece of Python and numpy work, about 0.65 ms on
# a 2-core host running fast), so that a request gets the same amount of
# work whether the host runs fast or slow.  Directed and undirected answers
# that do not depend on the 2^s loop take at most ~100 ref (closure at
# n = 150); 300 ref leaves them a margin while a profile whose first acyclic
# setting lies deep in the counter order times out.  A CLI process takes
# 400-800 ref; the 2^s loop reaches some small CLI solve inputs too, and
# 4000 ref bounds what one of those costs the run.  Nothing in exhaustive
# comes near its deadline.
DEADLINE_REF = {"directed": 300, "undirected": 300, "exhaustive": 15_000, "cli-oneshot": 4_000}

DIRECTED_RUNGS = (8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 150)
UNDIRECTED_RUNGS = (6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32)
LINEAR_RUNGS = (8, 10, 12)
# The oracle needs n! rows; n <= 9 is where it stays affordable.
ORACLE_MAX_N = 9

# Rounds generated per seed.  Each round draws fresh inputs; the pool is
# cycled only when a run gets through all of it.
POOL_ROUNDS = {"directed": 40, "undirected": 64, "exhaustive": 12, "cli-oneshot": 32}
# Rounds replayed with tracing on in a traced run (a fixed amount of work,
# so the per-layer counts of one seed repeat).
TRACE_ROUNDS = {"directed": 8, "undirected": 16, "exhaustive": 2, "cli-oneshot": 4}


@dataclass
class Request:
    kind: str
    n: int
    directed: bool
    entries: tuple = ()          # own profile entries (t, i, dir, m, M)
    profile: object = None       # the library Profile built from `entries`
    source: tuple | None = None  # permutation the entries were computed from
    edited: bool = False
    linear: bool = False
    k: int = 1
    argv: tuple = ()             # cli-oneshot: arguments after `minmaxperm.cli`


# ---------------------------------------------------------------------------
# Own profile arithmetic (independent of the library)
# ---------------------------------------------------------------------------

def random_perm(rng: random.Random, n: int) -> tuple:
    inner = list(range(1, n + 1))
    rng.shuffle(inner)
    return (0, *inner, n + 1)


def segment_profile(elems, k: int, directed: bool) -> tuple:
    """Entries (t, i, dir, m, M) for 1 <= i <= k, in (i, t) order."""
    pos = [0] * len(elems)
    for idx, v in enumerate(elems):
        pos[v] = idx
    out = []
    for i in range(1, k + 1):
        for t in range(len(elems) - i):
            a, b = pos[t], pos[t + i]
            seg = elems[min(a, b):max(a, b) + 1]
            d = (">" if a < b else "<") if directed else "?"
            out.append((t, i, d, min(seg), max(seg)))
    return tuple(out)


def realizes(elems, req: Request) -> bool:
    """Whether elems is a pinned permutation of 0..n+1 with req's profile."""
    n = req.n
    elems = tuple(elems)
    if len(elems) != n + 2 or sorted(elems) != list(range(n + 2)):
        return False
    if elems[0] != 0 or elems[-1] != n + 1:
        return False
    return segment_profile(elems, req.k, req.directed) == req.entries


def is_linear_entries(entries) -> bool:
    """Intervals [m_t, M_t], 1 <= t <= n-1, form an inclusion chain."""
    ivals = sorted(((m, M) for t, _, _, m, M in entries[1:-1]), key=lambda mm: (mm[0], -mm[1]))
    return all(ivals[j][1] >= ivals[j + 1][1] for j in range(len(ivals) - 1))


def edit_entries(rng: random.Random, n: int, entries, directed: bool) -> tuple:
    """One to three random edits that keep every profile bound valid."""
    original = tuple(entries)
    while True:
        out = list(original)
        for _ in range(rng.randint(1, 3)):
            t = rng.randint(0, n)
            _, i, d, m, M = out[t]
            moves = []
            if t >= 1:
                moves.append("m")
            if t <= n - 1:
                moves.append("M")
            if directed and 1 <= t <= n - 1:
                moves.append("dir")
            move = rng.choice(moves)
            if move == "m":
                m = rng.randint(1, t)
            elif move == "M":
                M = rng.randint(t + 1, n)
            else:
                d = "<" if d == ">" else ">"
            out[t] = (t, i, d, m, M)
        if tuple(out) != original:
            return tuple(out)


def to_profile(lib, n: int, k: int, directed: bool, entries):
    cons = {(t, i): lib.KConstraint(t=t, i=i, dir=lib.Direction(d), m=m, M=M)
            for t, i, d, m, M in entries}
    return lib.Profile(n=n, k=k, directed=directed, constraints=cons)


def profile_text(n: int, k: int, directed: bool, entries) -> str:
    lines = ["minmax-profile 1", f"n {n}", f"k {k}", f"directed {int(directed)}"]
    lines += [f"{t} {i} {d} {m} {M}" for t, i, d, m, M in entries]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _solve_request(lib, rng, kind, n, directed, edited) -> Request:
    src = random_perm(rng, n)
    entries = segment_profile(src, 1, directed)
    if edited:
        entries = edit_entries(rng, n, entries, directed)
    return Request(kind=kind, n=n, directed=directed, entries=entries,
                   profile=to_profile(lib, n, 1, directed, entries),
                   source=src, edited=edited)


def _linear_request(lib, rng, n) -> Request:
    while True:
        src = random_perm(rng, n)
        entries = segment_profile(src, 1, True)
        if is_linear_entries(entries):
            return Request(kind="solve_linear", n=n, directed=True, entries=entries,
                           profile=to_profile(lib, n, 1, True, entries),
                           source=src, linear=True)


def directed_round(lib, rng) -> list:
    reqs = [_solve_request(lib, rng, "solve_fpt", n, True, edited)
            for n in DIRECTED_RUNGS for edited in (False, True)]
    reqs.append(_linear_request(lib, rng, rng.choice(LINEAR_RUNGS)))
    return reqs


def undirected_round(lib, rng) -> list:
    return [_solve_request(lib, rng, "solve_undirected", n, False, edited)
            for n in UNDIRECTED_RUNGS for edited in (False, True)]


def exhaustive_round(lib, rng) -> list:
    # Eight cheap n = 8 uniqueness checks keep the median inside one group
    # of similar requests; n = 9 and the grouping sweeps set the tail.
    reqs = [_solve_request(lib, rng, "is_unique", 8, j % 2 == 0, False) for j in range(8)]
    reqs += [_solve_request(lib, rng, "is_unique", 9, d, False) for d in (True, False)]
    reqs += [Request(kind="min_unique_k", n=n, directed=d)
             for n, d in ((6, False), (7, True), (7, False), (8, True))]
    # A fixed k keeps the heaviest group of every round the same work, so
    # the tail percentile does not move with the seed.
    reqs += [Request(kind="fixed_positions", n=8, directed=d, k=2) for d in (True, False)]
    return reqs


def cli_round(lib, rng, workdir, index) -> list:
    reqs = []
    for kind, n, directed, edited, command in (
            ("solve_fpt", rng.choice((8, 12, 16)), True, rng.random() < 0.5, "solve"),
            ("solve_undirected", rng.choice((6, 7, 8)), False, rng.random() < 0.5, "solve"),
            ("is_unique", 8, index % 2 == 0, False, "check-unique")):
        req = _solve_request(lib, rng, kind, n, directed, edited)
        path = workdir / f"r{index}-{command}-{'d' if directed else 'u'}.prof"
        path.write_text(profile_text(n, 1, directed, req.entries))
        req.argv = (command, str(path))
        reqs.append(req)
    reqs.append(Request(kind="min_unique_k", n=7, directed=False, argv=("min-k", "7")))
    return reqs


def generate(workload: str, lib, seed: int, workdir=None) -> list:
    """The pool of rounds for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    count = POOL_ROUNDS[workload]
    if workload == "directed":
        return [directed_round(lib, rng) for _ in range(count)]
    if workload == "undirected":
        return [undirected_round(lib, rng) for _ in range(count)]
    if workload == "exhaustive":
        return [exhaustive_round(lib, rng) for _ in range(count)]
    return [cli_round(lib, rng, workdir, r) for r in range(count)]


def warmup_requests(workload: str, lib, seed: int, workdir=None) -> list:
    """One small request of each kind the workload sends."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "directed":
        return [_solve_request(lib, rng, "solve_fpt", 8, True, False),
                _linear_request(lib, rng, 8)]
    if workload == "undirected":
        return [_solve_request(lib, rng, "solve_undirected", 6, False, False)]
    if workload == "exhaustive":
        return [_solve_request(lib, rng, "is_unique", 8, True, False),
                Request(kind="min_unique_k", n=5, directed=True),
                Request(kind="fixed_positions", n=5, directed=True, k=2)]
    return cli_round(lib, rng, workdir, -1)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute(lib, req: Request):
    """One public library call; returns a plain answer for the gate."""
    kind = req.kind
    if kind in ("solve_fpt", "solve_linear", "solve_undirected"):
        if kind == "solve_fpt":
            out = lib.solve_fpt_directed(req.profile)
        elif kind == "solve_linear":
            out = lib.solve_linear(req.profile)
        else:
            out = lib.solve_undirected(req.profile, method="fpt")
        witness = None if out.witness is None else tuple(out.witness.elems)
        return {"witness": witness, "s": len(out.silent_nb) + len(out.silent_b)}
    if kind == "is_unique":
        rep = lib.is_unique(req.profile)
        return {"verdict": rep.verdict, "witnesses": [tuple(p.elems) for p in rep.witnesses]}
    if kind == "min_unique_k":
        res = lib.min_unique_k(req.n, req.directed)
        coll = None if res.collision is None else [tuple(p.elems) for p in res.collision]
        return {"min_k": res.min_k, "collision": coll}
    if kind == "fixed_positions":
        return {"agree": lib.fixed_positions_check(req.n, req.k, req.directed)}
    raise ValueError(f"unknown request kind {kind!r}")


def parse_cli(req: Request, returncode: int, stdout: str):
    """The answer a CLI process printed, in `execute`'s shape, or a string
    describing why the output is malformed."""
    lines = stdout.split("\n")
    lines = [ln for ln in lines if ln.strip()]
    try:
        perms = [tuple(int(v) for v in ln.split()) for ln in lines[1:]]
        if req.kind in ("solve_fpt", "solve_undirected"):
            if returncode == 1 and lines == ["NO"]:
                return {"witness": None, "s": None}
            if returncode == 0 and len(lines) == 1:
                return {"witness": tuple(int(v) for v in lines[0].split()), "s": None}
        elif req.kind == "is_unique":
            verdict = lines[0].lower() if lines else ""
            if (verdict, returncode) in (("unique", 0), ("collision", 1), ("empty", 1)):
                return {"verdict": verdict, "witnesses": perms}
        elif req.kind == "min_unique_k":
            if returncode == 0 and len(lines) == 1:
                return {"min_k": int(lines[0]), "collision": None}
    except ValueError:
        pass
    return f"unexpected output (exit {returncode}): {stdout[:200]!r}"


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check(lib, req: Request, answer) -> tuple[str, str]:
    """(status, detail): status is "ok", "oracle" (a NO the oracle
    confirmed), "unverified_no" or "wrong"."""
    kind = req.kind
    if isinstance(answer, str):
        return "wrong", answer
    if kind in ("solve_fpt", "solve_linear", "solve_undirected"):
        w = answer["witness"]
        if w is not None:
            P = lib.Permutation(n=req.n, elems=w)
            if not realizes(w, req):
                return "wrong", f"witness {w} does not realize the profile"
            if not lib.verify(P, req.profile):
                return "wrong", f"verify rejects witness {w}"
            return "ok", ""
        if not req.edited:
            return "wrong", f"NO on the unedited profile of {req.source}"
        if req.n <= ORACLE_MAX_N:
            sols = lib.brute_force_solutions(req.profile)
            if sols:
                return "wrong", f"NO, but the oracle finds {tuple(sols[0].elems)}"
            return "oracle", ""
        return "unverified_no", ""
    if kind == "is_unique":
        verdict, ws = answer["verdict"], answer["witnesses"]
        if verdict == "unique":
            if ws != [req.source]:
                return "wrong", f"unique verdict returns {ws}, not the source {req.source}"
        elif verdict == "collision":
            if len(ws) != 2 or ws[0] == ws[1]:
                return "wrong", f"collision verdict with witnesses {ws}"
        else:
            return "wrong", f"verdict {verdict!r} for the profile of {req.source}"
        for w in ws:
            if not realizes(w, req) or not lib.verify(lib.Permutation(n=req.n, elems=w), req.profile):
                return "wrong", f"witness {w} does not realize the profile"
        return "ok", ""
    if kind == "min_unique_k":
        n, k = req.n, answer["min_k"]
        if req.directed and k < math.ceil((n - 3) / 2):
            return "wrong", f"directed min_k({n}) = {k} is below ceil((n-3)/2)"
        if not req.directed and k != max(1, n - 3):
            return "wrong", f"undirected min_k({n}) = {k}, expected {max(1, n - 3)}"
        coll = answer["collision"]
        if coll is not None:
            p, q = coll
            if p == q or segment_profile(p, k - 1, req.directed) != segment_profile(q, k - 1, req.directed):
                return "wrong", f"collision {coll} does not share a {k - 1}-profile"
        return "ok", ""
    if kind == "fixed_positions":
        if answer["agree"] is not True:
            return "wrong", f"fixed_positions_check({req.n}, {req.k}, {req.directed}) is not True"
        return "ok", ""
    return "wrong", f"unknown request kind {kind!r}"


def silent_count(lib, req: Request):
    """Silent-constraint count s of a solve request whose answer did not
    report it (timeouts, CLI runs); None where no front end exists."""
    try:
        if req.directed:
            res = lib.build_easy_arcs(req.profile)
            return len(res.silent)
        _, _, _, silent_nb, silent_b = lib.solvers.undirected_base(req.profile)
        return len(silent_nb) + len(silent_b)
    except (AttributeError, lib.MinMaxError):
        return None

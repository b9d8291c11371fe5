#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metric names and units that
BENCHMARK.json lists (untraced and traced), and that a wrong witness, injected
between the library and the gate, makes the run fail.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny_exhaustive_round(lib, rng):
    reqs = [wl._solve_request(lib, rng, "is_unique", n, d, False)
            for n in (5, 6) for d in (True, False)]
    reqs += [wl.Request(kind="min_unique_k", n=6, directed=d) for d in (True, False)]
    reqs += [wl.Request(kind="fixed_positions", n=5, directed=d, k=rng.randint(1, 6))
             for d in (True, False)]
    return reqs


def shrink() -> None:
    wl.DIRECTED_RUNGS = (8, 24)
    wl.UNDIRECTED_RUNGS = (6, 12)
    wl.POOL_ROUNDS = dict.fromkeys(wl.WORKLOADS, 2)
    wl.TRACE_ROUNDS = dict.fromkeys(wl.WORKLOADS, 1)
    wl.exhaustive_round = tiny_exhaustive_round


def run_once(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_names() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in wl.WORKLOADS:
            code, result = run_once(workload, trace)
            assert code == 0 and result["correct"], (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            print(f"ok  {workload:<12} trace={trace}: {len(got)} metrics")


def check_gate_trips() -> None:
    real = wl.execute

    def corrupted(lib, req):
        answer = real(lib, req)
        w = answer.get("witness") if isinstance(answer, dict) else None
        if w is not None and req.n >= 2:
            answer = {**answer, "witness": (w[0], w[2], w[1], *w[3:])}
        return answer

    wl.execute = corrupted
    try:
        code, result = run_once("directed", 0)
    finally:
        wl.execute = real
    assert code == 1 and not result["correct"] and result["failed"] > 0, result
    print(f"ok  injected wrong witnesses: exit {code}, {result['failed']} failed")


def main() -> int:
    shrink()
    check_names()
    check_gate_trips()
    return 0


if __name__ == "__main__":
    sys.exit(main())

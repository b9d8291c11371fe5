#!/usr/bin/env python3
"""minmaxperm benchmark: seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload directed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own process.  The client sends the next request
when the previous one returns; a request is one public library call, or
one CLI process in cli-oneshot, and has a fixed deadline.  The untraced run
reports the end-to-end metrics, the traced run the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object.
Exit codes: 0 all answers correct, 1 a wrong answer or a failed call,
2 the library source is missing or does not import.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
clock = time.perf_counter
# setup_s is the median of this many set-ups: this process and fresh ones.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kref", "1/kref"),
    ("latency_p50_ref", "ref"),
    ("latency_tail_ref", "ref"),
    ("answered_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
)
# Printed and stored beside them, in wall-clock units.
WALL_CLOCK = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("failed_ratio", "fraction"),
    ("ref_ms", "ms"),
)
LAYER_SPANS = (
    ("formats.parse_profile", ("calls", "self_s")),
    ("profiles.compute_profile", ("calls", "self_s")),
    ("profiles.nb_records", ("self_s",)),
    ("graph.build_easy_arcs", ("calls", "self_s")),
    ("graph.close", ("calls", "self_s")),
    ("graph.has_cycle", ("calls", "self_s")),
    ("graph.topo_sort", ("calls", "self_s")),
    ("solvers.solve", ("self_s",)),
    ("solvers.verify", ("calls", "self_s")),
    ("solvers.brute_force_solutions", ("self_s",)),
    ("kernels.iter_perm_arrays", ("self_s",)),
    ("kernels.match_profile", ("calls", "self_s")),
    ("kernels.batch_profile_codes", ("calls", "self_s")),
    ("reconstruction.is_unique", ("self_s",)),
    ("reconstruction.min_unique_k", ("self_s",)),
    ("reconstruction.fixed_positions_check", ("self_s",)),
)
LAYER_COUNTS = (
    "graph.close.arcs_added",
    "solvers.settings_tested",
    "solvers.silent_nb",
    "solvers.silent_b",
    "kernels.iter_perm_arrays.rows",
    "kernels.match_profile.rows_in",
    "kernels.match_profile.rows_matched",
    "kernels.batch_profile_codes.rows",
)
PER_LAYER = (
    [(f"{span}.{field}", "s" if field == "self_s" else "count")
     for span, fields in LAYER_SPANS for field in fields]
    + [(name, "count") for name in LAYER_COUNTS]
    + [("graph.has_cycle.cyclic_ratio", "fraction"),
       ("solvers.timeouts", "count"),
       ("cli.process_s", "s"),
       ("cli.import_s", "s"),
       ("trace.requests", "count"),
       ("trace.overhead.latency_p50_ref", "ref"),
       ("trace.overhead.latency_tail_ref", "ref"),
       ("trace.overhead.ops_per_kref", "1/kref")]
)


class Reference:
    """Times one `ref`: a fixed piece of pure-Python work (dict, integer and
    call overhead, like the solvers) plus a fixed numpy masked min over int8
    rows (like the batch kernels), each the median of three timings, taken
    just before a request.  The 2-core virtual machine the baselines were
    taken on alternates between speed phases up to 1.8x apart, for seconds
    to minutes; a latency divided by the ref measured beside it does not
    move with them."""

    def __init__(self):
        import numpy as np  # already loaded by the library under test
        self.np = np
        self.rows = np.random.default_rng(0).integers(0, 10, size=(2000, 10), dtype=np.int8)
        self.cols = np.arange(10)[None, :]

    @staticmethod
    def _python_work() -> int:
        acc, table = 0, {}
        for i in range(1000):
            table[i & 127] = (i * 7) ^ acc
            acc = (acc + (table.get((i * 13) & 127, 1) >> 3)) & 0xFFFFFFFF
        return acc

    def _numpy_work(self) -> int:
        np, rows = self.np, self.rows
        inside = (self.cols >= rows[:, 0:1]) & (self.cols <= rows[:, 1:2])
        return int(np.where(inside, rows, np.int8(127)).min(axis=1).sum())

    def seconds(self) -> float:
        total = 0.0
        for work in (self._python_work, self._numpy_work):
            times = []
            for _ in range(3):
                t0 = clock()
                work()
                times.append(clock() - t0)
            total += statistics.median(times)
        return total


class Deadline(BaseException):
    """Raised by SIGALRM inside a library call.  A BaseException, so that no
    `except Exception` in the code under test can swallow it."""


class Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Deadline()


@dataclass
class Record:
    round: int
    pos: int
    status: str      # answered | timeout | error
    answer: object
    latency: float   # seconds
    ref: float       # seconds of one ref, measured just before the request


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class Client:
    """Sends one request at a time with the workload's deadline."""

    def __init__(self, workload: str, lib, tracer: Tracer | None = None):
        self.workload = workload
        self.lib = lib
        self.deadline_ref = wl.DEADLINE_REF[workload]
        self.reference = Reference()
        self.tracer = tracer
        self.env = subprocess_env()
        self.alarm = None if workload == "cli-oneshot" else Alarm()

    def __call__(self, req: wl.Request, rid: str = "") -> tuple[str, object, float, float]:
        """(status, answer, latency seconds, ref seconds)."""
        ref = self.reference.seconds()
        deadline = self.deadline_ref * ref
        if self.workload == "cli-oneshot":
            return (*self._cli(req, rid, deadline), ref)
        tracer, alarm = self.tracer, self.alarm
        if tracer is not None:
            first = tracer.begin(rid)
        status, answer = "answered", None
        t0 = clock()
        alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            answer = wl.execute(self.lib, req)
            alarm.armed = False
        except Deadline:
            status = "timeout"
        except Exception as exc:  # a failed call is a result to report, not a crash
            status, answer = "error", f"{type(exc).__name__}: {exc}"
        finally:
            alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = clock() - t0
        if tracer is not None:
            tracer.end(first)
        return status, answer, elapsed, ref

    def _cli(self, req, rid, deadline):
        tracer = self.tracer
        if tracer is None:
            argv = [sys.executable, "-m", "minmaxperm.cli", *req.argv]
        else:
            fd, spans_file = tempfile.mkstemp(suffix=".json", dir=OUT)
            os.close(fd)
            argv = [sys.executable, str(HERE / "cli_traced.py"), spans_file, *req.argv]
            first = tracer.begin(rid)
            span = tracer.open("cli.process")
        t0 = clock()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=deadline)
            status = "answered"
        except subprocess.TimeoutExpired:
            status = "timeout"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.close(span)
            try:
                with open(spans_file) as fh:
                    child = json.load(fh)
                tracer.add_child_spans(span, child["spans"])
                tracer.counts.update(child["counts"])
            except (OSError, ValueError):
                pass  # the process died before writing its spans
            os.unlink(spans_file)
            tracer.end(first)
        if status == "timeout":
            return status, None, elapsed
        answer = wl.parse_cli(req, proc.returncode, proc.stdout)
        if isinstance(answer, str):
            return "error", answer + (f" stderr: {proc.stderr[-300:]!r}" if proc.stderr else ""), elapsed
        return "answered", answer, elapsed


def timed_loop(pool, client, seconds, rounds=None):
    """Whole rounds until `seconds` have passed or `rounds` are done.
    Returns (records, wall seconds, rounds)."""
    records = []
    start = clock()
    r = 0
    while rounds is None or r < rounds:
        if r and clock() - start >= seconds:
            break
        ri = r % len(pool)
        for j, req in enumerate(pool[ri]):
            records.append(Record(ri, j, *client(req, f"{r}.{j}")))
        r += 1
    return records, clock() - start, r


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir):
    """Import, input generation and one warm-up request of each kind.
    Returns (seconds, library module, pool)."""
    t0 = clock()
    try:
        lib = importlib.import_module("minmaxperm")
    except ImportError as exc:
        print(f"error: the library does not import: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    pool = wl.generate(workload, lib, seed, workdir)
    client = Client(workload, lib)
    for req in wl.warmup_requests(workload, lib, seed, workdir):
        client(req)
    return clock() - t0, lib, pool


def setup_in_subprocess(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=subprocess_env(), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def bare_import_seconds(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import minmaxperm.cli"], check=True,
                       cwd=ROOT, env=subprocess_env(), timeout=60)
        times.append(clock() - t0)
    return statistics.median(times)


def run_header(lib) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        git = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "none"
    except (OSError, subprocess.SubprocessError, IndexError):
        git = "none"
    kernels = lib._kernels
    backend = kernels.backend() if hasattr(kernels, "backend") else "numpy"
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "git": git,
        "backend": backend,
        "backend_flag": backend != "numpy",
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples above it (the maximum when there are too few samples)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def failed(rec: Record, verdict: str) -> bool:
    return rec.status != "answered" or verdict == "wrong"


def latencies(records, verdicts, deadline_ref) -> tuple[list[float], list[float]]:
    """Request latencies in seconds and in refs; a failed request counts as
    taking at least the deadline."""
    wall, refs = [], []
    for rec, verdict in zip(records, verdicts):
        lat = rec.latency
        if failed(rec, verdict):
            lat = max(lat, deadline_ref * rec.ref)
        wall.append(lat)
        refs.append(lat / rec.ref)
    return wall, refs


def s_bucket(s) -> str:
    if s is None:
        return "unknown"
    for hi, label in ((0, "0"), (4, "1-4"), (16, "5-16"), (64, "17-64")):
        if s <= hi:
            return label
    return "65+"


def request_mix(pool, records, verdicts, silent) -> dict:
    """Share of the attempted requests with each property later changes may
    select on."""
    props: dict[str, Counter] = {}
    for i, rec in enumerate(records):
        req = pool[rec.round][rec.pos]
        row = {"kind": req.kind, "n": req.n, "directed": req.directed,
               "edited": req.edited, "linear": req.linear,
               "outcome": rec.status if rec.status != "answered" else verdicts[i]}
        if req.kind.startswith("solve"):
            row["s"] = s_bucket(silent.get((rec.round, rec.pos)))
        for key, value in row.items():
            props.setdefault(key, Counter())[str(value)] += 1
    total = len(records)
    return {key: {v: round(c / total, 4) for v, c in sorted(cnt.items())}
            for key, cnt in props.items()}


def check_all(lib, pool, records) -> tuple[list[str], list[str]]:
    """Verdict per record (each distinct answer checked once), and the
    details of every wrong answer or failed call."""
    cache: dict = {}
    verdicts, problems = [], []
    for rec in records:
        req = pool[rec.round][rec.pos]
        if rec.status == "timeout":
            verdicts.append("timeout")
            continue
        if rec.status == "error":
            verdicts.append("error")
            problems.append(f"{req.kind} n={req.n}: {rec.answer}")
            continue
        key = (rec.round, rec.pos, repr(rec.answer))
        if key not in cache:
            cache[key] = wl.check(lib, req, rec.answer)
        verdict, detail = cache[key]
        verdicts.append(verdict)
        if verdict == "wrong":
            problems.append(f"{req.kind} n={req.n} directed={req.directed}: {detail}")
    return verdicts, problems


def silent_counts(lib, pool, records) -> dict:
    """s per solve request: from the answer where it reports s, otherwise
    from the closure front end, once per distinct request."""
    out = {}
    for rec in records:
        key = (rec.round, rec.pos)
        req = pool[rec.round][rec.pos]
        if key in out or not req.kind.startswith("solve"):
            continue
        if rec.status == "answered" and isinstance(rec.answer, dict) and rec.answer.get("s") is not None:
            out[key] = rec.answer["s"]
        else:
            out[key] = wl.silent_count(lib, req)
    return out


def end_to_end(records, verdicts, deadline_ref) -> dict:
    """The metrics of one timed loop.  Throughput counts request time only,
    so the reference timings between requests do not dilute it."""
    wall, refs = latencies(records, verdicts, deadline_ref)
    good = sum(not failed(rec, v) for rec, v in zip(records, verdicts))
    tail_ref, pct = tail(refs)
    return {
        "ops_per_kref": 1000 * good / sum(refs),
        "latency_p50_ref": statistics.median(refs),
        "latency_tail_ref": tail_ref,
        "answered_ratio": good / len(records),
        "ops_per_s": good / sum(wall),
        "latency_p50_ms": 1000 * statistics.median(wall),
        "latency_tail_ms": 1000 * tail(wall)[0],
        "failed_ratio": 1 - good / len(records),
        "ref_ms": 1000 * statistics.median(rec.ref for rec in records),
        "tail_percentile": round(pct, 2),
        "samples": len(records),
    }


def per_layer(tracer: Tracer, records_a, records_b, verdicts_a, verdicts_b,
              import_s) -> dict:
    selfs = tracer.self_times()
    metrics = {}
    for span, fields in LAYER_SPANS:
        calls, self_s = selfs.get(span, (0, 0.0))
        for field in fields:
            metrics[f"{span}.{field}"] = calls if field == "calls" else self_s
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    cycle_calls = selfs.get("graph.has_cycle", (0, 0.0))[0]
    metrics["graph.has_cycle.cyclic_ratio"] = (
        tracer.counts.get("graph.has_cycle.cyclic", 0) / cycle_calls if cycle_calls else 0.0)
    metrics["solvers.timeouts"] = sum(rec.status == "timeout" for rec in records_b)
    metrics["cli.process_s"] = sum(end - start for name, start, end, _, _ in tracer.spans
                                   if name == "cli.process")
    metrics["cli.import_s"] = import_s
    metrics["trace.requests"] = len(records_b)
    # Overhead on identical requests: the traced replay against the same
    # requests of the untraced loop, where both answered.
    both = [i for i in range(min(len(records_a), len(records_b)))
            if not failed(records_a[i], verdicts_a[i]) and not failed(records_b[i], verdicts_b[i])]
    lat_a = [records_a[i].latency / records_a[i].ref for i in both] or [0.0]
    lat_b = [records_b[i].latency / records_b[i].ref for i in both] or [0.0]
    metrics["trace.overhead.latency_p50_ref"] = statistics.median(lat_b) - statistics.median(lat_a)
    metrics["trace.overhead.latency_tail_ref"] = tail(lat_b)[0] - tail(lat_a)[0]
    metrics["trace.overhead.ops_per_kref"] = (1000 * (len(both) / sum(lat_b) - len(both) / sum(lat_a))
                                              if both else 0.0)
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    # One CPU for this process and the CLI processes it starts, so that the
    # ref timed here and the request it scales ran on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            seconds, _, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    w = args.workload
    setup_s, lib, pool = setup(w, args.seed, workdir)
    header = run_header(lib)

    client = Client(w, lib)
    records_a, wall_a, rounds_a = timed_loop(pool, client, args.seconds)
    usage = resource.RUSAGE_CHILDREN if w == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    tracer = records_b = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install(lib)
        header["untraced_functions"] = missing
        records_b, _, _ = timed_loop(pool, Client(w, lib, tracer), 3 * args.seconds,
                                     rounds=wl.TRACE_ROUNDS[w])
        tracer.uninstall()
        import_s = bare_import_seconds()

    setup_times = [setup_s] + [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]

    verdicts_a, problems = check_all(lib, pool, records_a)
    silent = silent_counts(lib, pool, records_a)
    e2e = end_to_end(records_a, verdicts_a, wl.DEADLINE_REF[w])
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb
    attempted = len(records_a)
    counts_a = Counter(verdicts_a)
    failures = counts_a["wrong"] + counts_a["error"]

    if args.trace:
        verdicts_b, problems_b = check_all(lib, pool, records_b)
        problems += problems_b
        counts_b = Counter(verdicts_b)
        failures += counts_b["wrong"] + counts_b["error"]
        attempted += len(records_b)
        metrics = per_layer(tracer, records_a, records_b, verdicts_a, verdicts_b, import_s)
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)

    correct = failures == 0
    report = {
        "workload": w, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "header": header, "deadline_ref": wl.DEADLINE_REF[w],
        "rounds": rounds_a, "wall_s": wall_a,
        "verdicts": dict(counts_a), "end_to_end": e2e,
        "setup_samples_s": setup_times,
        "mix": request_mix(pool, records_a, verdicts_a, silent),
        "problems": problems[:50],
        "requests": [[rec.round, rec.pos, verdict, round(1000 * rec.latency, 4),
                      round(1000 * rec.ref, 4)] for rec, verdict in zip(records_a, verdicts_a)],
    }
    if args.trace:
        report["per_layer"] = metrics
        tracer.dump(OUT / f"{w}-seed{args.seed}-spans.jsonl")
    with open(OUT / f"{w}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print_report(report, counts_a)
    result = {"correct": correct, "attempted": attempted, "failed": failures,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def print_report(report, counts) -> None:
    h = report["header"]
    print(f"# workload={report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} deadline_ref={report['deadline_ref']}")
    print(f"# python={h['python']} numpy={h['numpy']} cpus={h['cpus']} git={h['git']} "
          f"backend={h['backend']}")
    if h["backend_flag"]:
        print(f"# FLAG: kernel backend is {h['backend']!r}, not 'numpy'; "
              "kernel numbers are not comparable with the numpy baseline")
    print(f"# rounds={report['rounds']} wall_s={report['wall_s']:.3f} "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    e2e = report["end_to_end"]
    for name, unit in END_TO_END + WALL_CLOCK:
        extra = ""
        if name.startswith("latency_tail"):
            extra = f"  (p{e2e['tail_percentile']} of {e2e['samples']} samples, 10 beyond)"
        print(f"{name:<40} {e2e[name]:>14.4f} {unit}{extra}")
    if "per_layer" in report:
        for name, unit in PER_LAYER:
            print(f"{name:<40} {report['per_layer'][name]:>14.6g} {unit}")
    for key, shares in report["mix"].items():
        print(f"# mix {key}: " + " ".join(f"{v}={s}" for v, s in shares.items()))
    for line in report["problems"][:10]:
        print(f"# WRONG {line}")


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, worst = {}, 0
    for w in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode in (0, 1):
            report = json.loads((OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").read_text())
            rows[w] = report["end_to_end"]
    print("\n" + f"{'metric':<28}" + "".join(f"{w:>14}" for w in rows))
    for name, unit in END_TO_END + WALL_CLOCK:
        print(f"{name + ' (' + unit + ')':<28}" + "".join(f"{rows[w][name]:>14.4f}" for w in rows))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "minmaxperm" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'minmaxperm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

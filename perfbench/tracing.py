"""Span tracing installed from outside the library.

`install` replaces each traced public function with a timing wrapper in
every `minmaxperm` module namespace that holds it (`graph.close` and
`solvers.close` are the same object), so calls across layers and calls
inside one layer both nest.  Spans are kept in memory as
[name, start, end, parent, request] and written out at the end; self time
is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


def _count_close(counts, args, kwargs, result):
    counts["graph.close.arcs_added"] += result.num_arcs - args[0].num_arcs


def _count_cycle(counts, args, kwargs, result):
    counts["graph.has_cycle.cyclic"] += bool(result)


def _count_solve(counts, args, kwargs, result):
    counts["solvers.settings_tested"] += result.settings_tested
    counts["solvers.silent_nb"] += len(result.silent_nb)
    counts["solvers.silent_b"] += len(result.silent_b)


def _count_match(counts, args, kwargs, result):
    counts["kernels.match_profile.rows_in"] += len(result)
    counts["kernels.match_profile.rows_matched"] += int(result.sum())


def _count_codes(counts, args, kwargs, result):
    counts["kernels.batch_profile_codes.rows"] += len(result)


# (module, function, span name, counter hook)
TRACED = (
    ("formats", "parse_profile", "formats.parse_profile", None),
    ("profiles", "compute_profile", "profiles.compute_profile", None),
    ("profiles", "nb_records", "profiles.nb_records", None),
    ("graph", "build_easy_arcs", "graph.build_easy_arcs", None),
    ("graph", "close", "graph.close", _count_close),
    ("graph", "has_cycle", "graph.has_cycle", _count_cycle),
    ("graph", "topo_sort", "graph.topo_sort", None),
    ("solvers", "solve_linear", "solvers.solve", _count_solve),
    ("solvers", "solve_fpt_directed", "solvers.solve", _count_solve),
    ("solvers", "solve_undirected", "solvers.solve", _count_solve),
    ("solvers", "verify", "solvers.verify", None),
    ("solvers", "brute_force_solutions", "solvers.brute_force_solutions", None),
    ("_kernels", "iter_perm_arrays", "kernels.iter_perm_arrays", None),
    ("_kernels", "match_profile", "kernels.match_profile", _count_match),
    ("_kernels", "batch_profile_codes", "kernels.batch_profile_codes", _count_codes),
    ("reconstruction", "is_unique", "reconstruction.is_unique", None),
    ("reconstruction", "min_unique_k", "reconstruction.min_unique_k", None),
    ("reconstruction", "fixed_positions_check", "reconstruction.fixed_positions_check", None),
)
GENERATORS = {"iter_perm_arrays"}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = None
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), None, parent, self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span idx and any span opened inside it that is still open
        (a deadline can interrupt between opening a span and its `try`)."""
        now = _clock()
        while self.stack:
            j = self.stack.pop()
            self.spans[j][2] = now
            if j == idx:
                return

    def close_all(self) -> None:
        if self.stack:
            self.close(self.stack[0])

    def begin(self, request) -> int:
        """Start recording spans for one request; returns its first span index."""
        self.request = request
        return len(self.spans)

    def end(self, first: int) -> None:
        """Close every span of the request still open, including one whose
        bookkeeping a deadline interrupted."""
        self.close_all()
        now = _clock()
        for span in self.spans[first:]:
            if span[2] is None:
                span[2] = now
        self.request = None

    def add_child_spans(self, parent: int, spans: list[list]) -> None:
        """Graft spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, base + par if par >= 0 else parent, self.request])

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result
            finally:
                tracer.close(idx)
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    block = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[name + ".rows"] += len(block)
                yield block
        return traced

    def install(self, package) -> list[str]:
        """Patch every loaded module of `package` that holds a traced
        function; returns the traced names the package no longer has."""
        missing = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for modname, fname, name, count in TRACED:
            original = getattr(sys.modules.get(f"{package.__name__}.{modname}"), fname, None)
            if original is None:
                missing.append(f"{modname}.{fname}")
                continue
            if fname in GENERATORS:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, count)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
                    self._patched.append((module, fname, original))
        return missing

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self seconds)} over closed spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child[idx]
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

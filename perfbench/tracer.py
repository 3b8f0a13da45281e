"""In-memory spans and counters around calls into majlab's public functions.

The program itself is not instrumented: the tracer replaces a function's
name in the module namespaces that look it up at call time, so a call made
through `majlab.harness.run` or `majlab.dynamics.step` lands in a wrapper
that records a span (name, start, end, parent span) and then calls the
original.  Tiny kernels get a counter only, so wrapper cost does not distort
the layer shares.  Everything is restored by `uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Callable, Optional

# A span's parent is the index of the enclosing span, or -1 at top level.
# A call that raised leaves None in its slot.
Span = tuple[str, float, float, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # callbacks that settle deferred counts when the tracer is removed
        self.on_uninstall: list[Callable[[], None]] = []

    # ------------------------------------------------------------ recording

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(self, where: list[str], attr: str,
             name: Callable[..., str] | str,
             after: Optional[Callable] = None) -> None:
        """Record a span around every call of `attr` looked up in `where`.

        `name` is the span name, or a function of (args, kwargs, result)
        that returns it.  `after(args, kwargs, result)` runs outside the
        span, for counts taken from the call's inputs or outputs.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append(None)
                self._stack.append(idx)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    self._stack.pop()
                label = name(args, kwargs, result) if callable(name) else name
                self.spans[idx] = (label, t0, t1, parent)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper

        for module_name in where:
            self._patch(module_name, attr, make)

    def counter(self, where: list[str], attr: str, counter: str) -> None:
        """Count calls of `attr` looked up in `where`; no span."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counters[counter] = self.counters.get(counter, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for module_name in where:
            self._patch(module_name, attr, make)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for settle in self.on_uninstall:
            settle()
        self.on_uninstall.clear()

    # ------------------------------------------------------------ reading

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def busy(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def p50_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1000.0 * statistics.median(d) if d else 0.0

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(
                        {"name": s[0], "start": s[1], "end": s[2],
                         "parent": s[3]}) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def _n_edges(n: int) -> int:
    return n * (n - 1) // 2


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads reach.

    Names are wrapped in each module that imports them, because a
    `from .graphs import sample_gnp` binds a name the defining module's
    attribute does not reach.
    """
    from majlab.dynamics import CapReached

    t = tracer
    t.span(["majlab.harness", "majlab.stats"], "split_seed",
           "graphs.split_seed")

    # A sampled graph's edges are counted when the next graph is sampled
    # or the tracer is removed: by then its first day step has filled the
    # graph's cached degrees, so the count costs no popcount of its own.
    last_sampled = []

    def count_edges():
        while last_sampled:
            t.add("graphs.edges", int(last_sampled.pop().degrees.sum()) // 2)

    def sampled(args, kwargs, g):
        count_edges()
        last_sampled.append(g)

    t.span(["majlab.harness", "majlab.stats"], "sample_gnp",
           "graphs.sample_gnp", after=sampled)
    t.on_uninstall.append(count_edges)

    def ran(args, kwargs, trace):
        t.add("dynamics.runs")
        if isinstance(trace.termination, CapReached):
            t.add("dynamics.cap_hits")

    t.span(["majlab.harness", "majlab.stats"], "run", "dynamics.run",
           after=ran)

    def stepped(args, kwargs, g):
        # one day reads every adjacency word once: n rows of ceil(n/64) words
        t.add("dynamics.step.bytes_computed", g.adj.nbytes)

    t.span(["majlab.dynamics", "majlab.stats", "majlab.structure"], "step",
           "dynamics.step", after=stepped)

    t.span(["majlab.harness"], "run_sweep", "harness.run_sweep")
    t.span(["majlab.harness"], "threshold_scan", "harness.threshold_scan",
           after=lambda a, k, res: t.add("harness.threshold_scan.evaluations",
                                          len(res.evaluations)))

    def query_mode(args, kwargs, res):
        q = args[0] if args else kwargs["q"]
        return "oracle.oracle_eval.exact" if q.exact else "oracle.oracle_eval.float"

    def evaluated(args, kwargs, res):
        q = args[0] if args else kwargs["q"]
        t.add("oracle.configs", 1 << _n_edges(q.n))

    t.span(["majlab.oracle"], "oracle_eval", query_mode, after=evaluated)
    t.span(["majlab.oracle"], "oracle_vs_mc", "oracle.oracle_vs_mc")

    def scanned(args, kwargs, scan):
        t.add("oracle.scan.combos", scan.combos)
        t.add("oracle.configs", scan.combos)

    t.span(["majlab.oracle"], "exhaustive_identity_scan",
           "oracle.exhaustive_identity_scan", after=scanned)
    t.span(["majlab.oracle"], "enumerate_trial_quantities",
           "oracle.enumerate_trial_quantities",
           after=lambda a, k, res: t.add("oracle.configs", len(res[1])))
    t.counter(["majlab.oracle"], "step_mask", "oracle.step_mask.calls")

    t.span(["majlab.stats"], "lemma_report",
           lambda a, k, rep: f"stats.lemma_report.{rep.mode}")
    t.span(["majlab.stats"], "compute_r_hat", "structure.compute_r_hat")
    t.span(["majlab.stats"], "compute_s_sets", "structure.compute_s_sets")

    t.span(["majlab.fourier", "majlab.oracle"], "fourier_coefficients",
           lambda a, k, tab: ("fourier.fourier_coefficients.exact"
                              if tab.exact else
                              "fourier.fourier_coefficients.float"),
           after=lambda a, k, tab: t.add("fourier.coeffs", len(tab.scaled)))

    t.span(["majlab.probability", "majlab.appendix_a"], "BinDiffDist",
           "probability.BinDiffDist")
    t.span(["majlab.appendix_a"], "verify_appendix_a",
           "appendix_a.verify_appendix_a",
           after=lambda a, k, rep: t.add("appendix_a.points", len(rep.points)))


def layer_metrics(t: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (before cross-run ratios)."""
    c = t.counters
    runs = c.get("dynamics.runs", 0)
    # the trial kernels harness calls: seed, sample, run
    trial_busy = t.busy("graphs.split_seed", "graphs.sample_gnp",
                        "dynamics.run")
    return {
        "graphs.sample_gnp.busy_s": t.busy("graphs.sample_gnp"),
        "graphs.sample_gnp.calls": t.calls("graphs.sample_gnp"),
        "graphs.sample_gnp.p50_ms": t.p50_ms("graphs.sample_gnp"),
        "graphs.edges": c.get("graphs.edges", 0),
        "graphs.split_seed.busy_s": t.busy("graphs.split_seed"),
        "dynamics.run.busy_s": t.busy("dynamics.run"),
        "dynamics.run.calls": t.calls("dynamics.run"),
        "dynamics.step.busy_s": t.busy("dynamics.step"),
        "dynamics.step.calls": t.calls("dynamics.step"),
        "dynamics.step.p50_ms": t.p50_ms("dynamics.step"),
        "dynamics.step.bytes_computed": c.get("dynamics.step.bytes_computed", 0),
        "dynamics.cap_hit_ratio": c.get("dynamics.cap_hits", 0) / runs if runs else 0.0,
        # wall time of the in-process (workers=1) repetition not spent in
        # the trial kernels: chunking, aggregation, result files, the scan
        "harness.overhead_s": (wall_s - trial_busy
                               if t.calls("harness.run_sweep") else 0.0),
        "harness.threshold_scan.busy_s": t.busy("harness.threshold_scan"),
        "harness.threshold_scan.evaluations": c.get("harness.threshold_scan.evaluations", 0),
        "oracle.oracle_eval.exact_busy_s": t.busy("oracle.oracle_eval.exact"),
        "oracle.oracle_eval.float_busy_s": t.busy("oracle.oracle_eval.float"),
        "oracle.oracle_eval.calls": (t.calls("oracle.oracle_eval.exact")
                                     + t.calls("oracle.oracle_eval.float")),
        "oracle.oracle_eval.p50_ms": 1000.0 * statistics.median(
            t.durations("oracle.oracle_eval.exact")
            + t.durations("oracle.oracle_eval.float") or [0.0]),
        "oracle.exhaustive_identity_scan.busy_s": t.busy("oracle.exhaustive_identity_scan"),
        "oracle.scan.combos": c.get("oracle.scan.combos", 0),
        "oracle.oracle_vs_mc.busy_s": t.busy("oracle.oracle_vs_mc"),
        "oracle.configs": c.get("oracle.configs", 0),
        "oracle.step_mask.calls": c.get("oracle.step_mask.calls", 0),
        "stats.lemma_report.exact_busy_s": t.busy("stats.lemma_report.exact"),
        "stats.lemma_report.mc_busy_s": t.busy("stats.lemma_report.mc"),
        "structure.compute_r_hat.busy_s": t.busy("structure.compute_r_hat"),
        "structure.compute_s_sets.busy_s": t.busy("structure.compute_s_sets"),
        "fourier.fourier_coefficients.exact_busy_s": t.busy("fourier.fourier_coefficients.exact"),
        "fourier.fourier_coefficients.float_busy_s": t.busy("fourier.fourier_coefficients.float"),
        "fourier.coeffs": c.get("fourier.coeffs", 0),
        "probability.BinDiffDist.busy_s": t.busy("probability.BinDiffDist"),
        "appendix_a.verify_appendix_a.busy_s": t.busy("appendix_a.verify_appendix_a"),
        "appendix_a.points": c.get("appendix_a.points", 0),
    }

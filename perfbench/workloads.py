"""The four named workloads: each runs a fixed amount of work through
majlab's public functions and checks every output.

Every workload is called through module attributes (`harness.run_sweep`,
not a name bound at import), so the tracer's wrappers see the calls.  Only
the calls into majlab are timed; output checks run after them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from majlab import appendix_a, fourier, harness, oracle, probability, stats
from majlab.dynamics import UpdateRule
from majlab.graphs import RandomHalf, split_seed
from majlab.oracle import (ExpectedCount, MomentZ, OracleQuery, SetStat,
                           VarCount, WinProb)

GOLDEN = (Path(__file__).resolve().parent.parent / "tests" / "golden"
          / "oracle_golden.json")

# Sizes at which the workloads are measured, and a tiny twin for smoke tests.
SIZES = {
    "full": {
        "mc_large": {"gap": dict(n=10_000, p=0.01, delta=1000.0, trials=20),
                     "half": dict(n=10_000, trials=12)},
        "mc_small": {"sweep": dict(n=200, p=0.05, deltas=(0.0, 2.0, 4.0, 8.0),
                                   trials=300),
                     "scan": dict(n=400, p=0.1, trials=60, target=0.9)},
        "exact": {"max_golden_n": 6, "max_cell_n": 6, "mc_trials": 20_000,
                  "scan_ns": (2, 3, 4, 5), "lemma": dict(n=6, p=0.25, delta=1)},
        "analysis": {"fourier_ms": (2, 3, 4, 5), "float_m": 7,
                     "grid": "default",
                     "bindiff": ((10_000, 10_000), (12_000, 8_000),
                                 (1_000, 1_000), (100, 60)),
                     "bindiff_p": (0.01, 0.1, 0.5),
                     "lemma": dict(n=200, p=0.2, delta=5, trials=200)},
    },
    "smoke": {
        "mc_large": {"gap": dict(n=500, p=0.05, delta=50.0, trials=4),
                     "half": dict(n=500, trials=4)},
        "mc_small": {"sweep": dict(n=60, p=0.2, deltas=(0.0, 2.0), trials=20),
                     "scan": dict(n=40, p=0.3, trials=30, target=0.9)},
        "exact": {"max_golden_n": 4, "max_cell_n": 4, "mc_trials": 2_000,
                  "scan_ns": (2, 3), "lemma": dict(n=4, p=0.25, delta=1)},
        "analysis": {"fourier_ms": (2, 3), "float_m": 4, "grid": "small",
                     "bindiff": ((50, 40),), "bindiff_p": (0.1,),
                     "lemma": dict(n=40, p=0.3, delta=2, trials=100)},
    },
}

# Acceptance criterion 4: twenty (query, float p) cells for oracle_vs_mc.
AGREEMENT_CELLS = [
    (3, 0.5, (1, 1, 2), WinProb(color=1)),
    (4, 0.3, (1, 1, 2, 2), WinProb(color=1)),
    (5, 0.5, (1, 1, 1, 2, 2), WinProb(color=1)),
    (5, 0.35, (1, 1, 2, 2, 2), WinProb(color=2)),
    (6, 0.2, (1, 1, 1, 1, 2, 2), WinProb(color=1)),
    (6, 0.5, (1, 1, 1, 2, 2, 2), WinProb(color=1)),
    (4, 0.6, (1, 1, 2, 2), ExpectedCount(day=1)),
    (5, 0.4, (1, 1, 1, 2, 2), ExpectedCount(day=1)),
    (6, 0.25, (1, 1, 1, 2, 2, 2), ExpectedCount(day=1)),
    (5, 0.2, (1, 1, 1, 2, 2), ExpectedCount(day=1, color=2)),
    (5, 0.3, (1, 2, 1, 2, 1), ExpectedCount(day=2)),
    (6, 0.25, (1, 1, 1, 1, 2, 2), ExpectedCount(day=2)),
    (4, 0.35, (1, 1, 2, 2), VarCount(day=2)),
    (5, 0.5, (1, 1, 2, 2, 2), VarCount(day=2)),
    (6, 0.25, (1, 1, 1, 1, 2, 2), VarCount(day=2)),
    (6, 0.4, (1, 1, 2, 1, 2, 2), VarCount(day=1)),
    (5, 0.25, (1, 1, 1, 2, 2), SetStat("s_star")),
    (6, 0.3, (1, 1, 1, 2, 2, 2), SetStat("s_star")),
    (5, 0.4, (1, 1, 2, 2, 2), SetStat("i_g")),
    (6, 0.3, (1, 1, 2, 2, 2, 2), SetStat("i_g")),
]

# One coloring per vertex count from acceptance criterion 2.
FOURIER_COLORINGS = {2: (1, 2), 3: (1, 1, 2), 4: (1, 1, 2, 2), 5: (1, 1, 1, 2, 2)}


@dataclass
class Outcome:
    """What one repetition of a workload did and whether it was right."""

    wall_s: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.wall_s += time.perf_counter() - t0
        return result

    def check(self, ops: int, ok: bool, what: str, failed: int = None) -> None:
        """Count `ops` operations; if not ok, `failed` of them (default all).

        A failed check always counts at least one failed operation.
        """
        self.attempted += max(ops, 1)
        if not ok:
            self.failed += max(ops if failed is None else failed, 1)
            self.failures.append(what)

    def digest(self) -> str:
        """Fingerprint of every output, equal across repetitions of a seed."""
        blob = json.dumps(self.outputs, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _check_cell(out: Outcome, cell, what: str) -> None:
    total = cell.wins1 + cell.wins2 + cell.cycles + cell.cap_hits
    out.check(cell.trials, total == cell.trials,
              f"{what}: wins1+wins2+cycles+cap_hits={total} != trials={cell.trials}")
    out.outputs.append(cell.to_record())


def mc_large(size: dict, seed: int, workers: int, scratch: Path, out: Outcome) -> None:
    g = size["gap"]
    cfg = harness.ExperimentConfig(
        n_values=(g["n"],), p_values=(g["p"],), delta_values=(g["delta"],),
        trials=g["trials"], master_seed=split_seed(seed, 0), workers=workers)
    gap = out.timed(harness.run_sweep, cfg)
    h = size["half"]
    n = h["n"]
    half = out.timed(harness.scheme_experiment, RandomHalf(), n,
                     10.0 * n ** (-2.0 / 3.0), trials=h["trials"],
                     master_seed=split_seed(seed, 1), workers=workers)

    for cell in gap.cells:
        _check_cell(out, cell, "fixed gap")
    c = half.cell
    _check_cell(out, c, "random half")
    split = c.majority_trials + c.initial_ties
    out.check(1, split == c.trials and c.majority_wins <= c.majority_trials,
              f"random half: majority {c.majority_wins}/{c.majority_trials} "
              f"+ ties {c.initial_ties} vs trials {c.trials}")
    out.work = g["trials"] + h["trials"]


def mc_small(size: dict, seed: int, workers: int, scratch: Path, out: Outcome) -> None:
    s = size["sweep"]
    results = scratch / "results.jsonl"
    summary = scratch / "summary.csv"
    cfg = harness.ExperimentConfig(
        n_values=(s["n"],), p_values=(s["p"],), delta_values=s["deltas"],
        trials=s["trials"], master_seed=split_seed(seed, 0), workers=workers,
        results_path=str(results), summary_path=str(summary))
    sweep = out.timed(harness.run_sweep, cfg)
    sc = size["scan"]
    scan = out.timed(harness.threshold_scan, sc["n"], sc["p"],
                     UpdateRule.STANDARD, sc["trials"], sc["target"],
                     master_seed=split_seed(seed, 1), workers=workers)

    for cell in sweep.cells:
        _check_cell(out, cell, f"sweep cell {cell.cell_id}")
    written = [json.loads(line) for line in results.read_text().splitlines()]
    out.check(len(sweep.cells), written == [c.to_record() for c in sweep.cells],
              "results.jsonl differs from the returned cells")
    with summary.open() as fh:
        rows = list(csv.DictReader(fh))
    out.check(len(sweep.cells), [(int(r["win1"]), int(r["trials"])) for r in rows]
              == [(c.wins1, c.trials) for c in sweep.cells],
              "summary.csv differs from the returned cells")

    evals = scan.evaluations
    for d, e in evals.items():
        out.check(e["trials"], e["trials"] == sc["trials"]
                  and 0 <= e["wins1"] <= e["trials"],
                  f"scan evaluation at gap {d}: {e}")
    hits = [d for d, e in evals.items() if e["wilson_lo"] >= sc["target"]]
    bracket_ok = scan.delta_lo <= scan.delta_hi and (
        not hits or evals[scan.delta_hi]["wilson_lo"] >= sc["target"])
    if scan.delta_lo < scan.delta_hi and scan.delta_lo in evals:
        bracket_ok &= evals[scan.delta_lo]["wilson_lo"] < sc["target"]
    out.check(1, bracket_ok,
              f"scan bracket [{scan.delta_lo}, {scan.delta_hi}] contradicts its evaluations")
    out.outputs.append([sorted(evals.items()), scan.delta_lo, scan.delta_hi])
    out.work = len(sweep.cells) * s["trials"] + len(evals) * sc["trials"]


_GOLDEN_STATS = {
    "winprob": lambda d: WinProb(color=d["color"]),
    "expcount": lambda d: ExpectedCount(day=d["day"], color=d["color"]),
    "varcount": lambda d: VarCount(day=d["day"], color=d["color"]),
    "momentz": lambda d: MomentZ(k=d["k"]),
    "setstat": lambda d: SetStat(d["which"], d["moment"], u=0, v=1, w=0),
}


def _configs(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def exact(size: dict, seed: int, workers: int, scratch: Path, out: Outcome) -> None:
    golden = [r for r in json.loads(GOLDEN.read_text())
              if r["n"] <= size["max_golden_n"]]
    cases = [(rec, OracleQuery(rec["n"], p, tuple(rec["colors"]),
                               _GOLDEN_STATS[rec["stat"]](rec)))
             for rec in golden
             for p in (Fraction(rec["p"]), float(Fraction(rec["p"])))]
    values = [out.timed(oracle.oracle_eval, q).value for _, q in cases]

    cells = [OracleQuery(n, p, colors, stat)
             for n, p, colors, stat in AGREEMENT_CELLS if n <= size["max_cell_n"]]
    agreements = [out.timed(oracle.oracle_vs_mc, q, size["mc_trials"],
                            master_seed=split_seed(seed, i))
                  for i, q in enumerate(cells)]

    p_scan = Fraction(1, 3)
    scans = [out.timed(oracle.exhaustive_identity_scan, n, p_scan)
             for n in size["scan_ns"]]
    lm = size["lemma"]
    # n <= 6 enumerates every configuration; trials is checked but unused
    report = out.timed(stats.lemma_report, lm["n"], lm["p"], lm["delta"],
                       trials=100)

    for (rec, q), got in zip(cases, values):
        want = Fraction(rec["value"])
        if q.exact:
            ok = got == want
        else:
            ok = abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
        out.check(1, ok, f"golden {rec['stat']} n={rec['n']} p={q.p}: {got} != {want}")
    out.outputs.append([str(v) for v in values])

    within = sum(a.within_4se for a in agreements)
    need = len(cells) - len(cells) // 20
    out.check(len(cells), within >= need,
              f"oracle_vs_mc: {within}/{len(cells)} cells within 4 SE, need {need}",
              failed=len(cells) - within)
    out.outputs.append([(a.mc_estimate, a.mc_stderr) for a in agreements])

    for n, scan in zip(size["scan_ns"], scans):
        want_combos = (1 << n) * _configs(n)
        out.check(1, scan.clean and scan.combos == want_combos,
                  f"identity scan n={n}: combos={scan.combos}, "
                  f"violations={scan.violations[:3]}")
        out.outputs.append([scan.combos, scan.rhat_checks, scan.partition_checks,
                            scan.day2_checks, scan.centering_checks])

    _check_report(out, report, "exact")

    out.work = (sum(_configs(q.n) for q in [q for _, q in cases] + cells)
                + sum((1 << n) * _configs(n) for n in size["scan_ns"])
                + _configs(lm["n"]))


def _check_report(out: Outcome, report, mode: str) -> None:
    ids = [r.lemma_id for r in report.records]
    out.check(1, report.mode == mode and ids == list(stats.LEMMA_ANCHORS)
              and report.asserted_failures() == [],
              f"lemma_report ({mode}): mode={report.mode}, "
              f"{len(ids)} records, asserted failures {report.asserted_failures()}")
    out.outputs.append([r.to_dict() for r in report.records])


def analysis(size: dict, seed: int, workers: int, scratch: Path, out: Outcome) -> None:
    p_exact = Fraction(1, 4)
    specs = [(m, FOURIER_COLORINGS[m], v, power)
             for m in size["fourier_ms"] for v in range(m) for power in (1, 2, 3)]
    tables = [out.timed(fourier.fourier_coefficients, m, colors, v, p_exact,
                        power=power)
              for m, colors, v, power in specs]
    m7 = size["float_m"]
    float_colors = tuple([1] * (m7 - m7 // 2) + [2] * (m7 // 2))
    float_table = out.timed(fourier.fourier_coefficients, m7, float_colors, 0,
                            0.3, exact=False)

    grid = (appendix_a.default_grid(seed) if size["grid"] == "default"
            else appendix_a.small_grid(seed))
    ineq = out.timed(appendix_a.verify_appendix_a, grid)

    bindiff = [(n1, n2, p) for n1, n2 in size["bindiff"]
               for p in size["bindiff_p"]]
    dists = [out.timed(probability.BinDiffDist, *spec) for spec in bindiff]
    lm = size["lemma"]
    report = out.timed(stats.lemma_report, lm["n"], lm["p"], lm["delta"],
                       trials=lm["trials"], master_seed=split_seed(seed, 0))

    for (m, colors, v, power), tab in zip(specs, tables):
        parseval = tab.parseval_sum()
        ok = tab.exact and parseval == tab.second_moment()
        if power == 1:
            ok = (ok and tab.coefficient_scaled(0) == 0
                  and parseval == 1 - tab.mu_v ** 2
                  and tab.reconstruct_all() == tab.function_values())
        out.check(1, ok, f"fourier m={m} colors={colors} v={v} power={power}: "
                         "Parseval or reconstruction fails")
        out.outputs.append([str(x) for x in tab.scaled])
    gap = abs(float_table.parseval_sum() - float_table.second_moment())
    out.check(1, gap <= 1e-9, f"float fourier m={m7}: Parseval off by {gap}")
    out.outputs.append(float_table.parseval_sum())

    failures = [f"{pt.lemma_id} {pt.params}" for pt in ineq.points
                if pt.asserted and pt.passed is False]
    out.check(len(ineq.points), ineq.all_pass,
              f"verify_appendix_a: asserted points fail: {failures[:3]}",
              failed=len(failures))
    out.outputs.append(ineq.to_json())

    for (n1, n2, p), d in zip(bindiff, dists):
        err = abs(d.total_mass() - 1.0)
        out.check(1, err <= 1e-12,
                  f"BinDiffDist({n1}, {n2}, {p}): total mass off by {err}")
        out.outputs.append([d.total_mass(), d.mode()])

    _check_report(out, report, "mc")
    out.work = out.attempted


WORKLOADS = {"mc_large": mc_large, "mc_small": mc_small, "exact": exact,
             "analysis": analysis}


def run_workload(name: str, scale: str, seed: int, workers: int,
                 scratch: Path) -> Outcome:
    out = Outcome()
    WORKLOADS[name](SIZES[scale][name], seed, workers, scratch, out)
    return out

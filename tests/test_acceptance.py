"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

1. Exhaustive structural identities on every graph and coloring, n <= 6
   (the n = 6 scan within 10 s).
2. Exact Fourier identities of the centered indicators, n <= 5.
3. Inequality grids: >= 200 hypothesis-satisfying points per check, all
   passing with slack >= -1e-9.
4. Oracle vs Monte Carlo agreement on 20 fixed cells at 1e5 trials.
5. Large-scale phenomenon reproduction (fixed gap, symmetric start, random
   half coloring) at frozen seeds.
6. Byte-identical sweep results at worker counts 1, 4 and 16.
7. Bound-report completeness, with unattainable hypotheses never asserted.
"""

import time
from fractions import Fraction

import numpy as np

from majlab.appendix_a import LEMMA_IDS, default_grid, verify_appendix_a
from majlab.dynamics import UpdateRule, default_cap, step
from majlab.fourier import edge_list, fourier_coefficients
from majlab.graphs import ColoredGraph, RandomHalf
from majlab.harness import ExperimentConfig, run_sweep, scheme_experiment
from majlab.oracle import (ExpectedCount, OracleQuery, SetStat, VarCount,
                           WinProb, exhaustive_identity_scan, oracle_vs_mc,
                           rhat_mask, rows_from_mask, s_sets_mask, step_mask)
from majlab.stats import LEMMA_ANCHORS, lemma_report
from majlab.structure import compute_r_hat, compute_s_sets


def _conclude(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_identities_exhaustive():
    t0 = time.perf_counter()
    combos = 0
    violations = []
    for n in range(2, 6):
        scan = exhaustive_identity_scan(n, Fraction(1, 3))
        combos += scan.combos
        violations.extend(scan.violations)

    # tie the bitmask engine to the array engine on sampled combinations
    rng = np.random.default_rng(np.random.SeedSequence(99))
    mismatches = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        n_edges = n * (n - 1) // 2
        mask = int(rng.integers(0, 1 << n_edges))
        colors = [int(c) for c in rng.integers(1, 3, n)]
        rows = rows_from_mask(n, mask)
        edges = [e for k, e in enumerate(edge_list(n)) if mask >> k & 1]
        g = ColoredGraph.from_edges(n, edges, colors)
        c1m = sum(1 << i for i, c in enumerate(colors) if c == 1)
        for rule in UpdateRule:
            got = step_mask(n, rows, c1m, rule)
            want = sum(1 << i for i, c in enumerate(step(g, rule).colors)
                       if c == 1)
            mismatches += got != want
        for w in range(n):
            got = rhat_mask(n, rows, c1m, w)
            want = sum(1 << int(i) for i in compute_r_hat(g, w))
            mismatches += got != want
        ones = [i for i, c in enumerate(colors) if c == 1]
        if len(ones) >= 2:
            rep = compute_s_sets(g, ones[0], ones[1])
            got = s_sets_mask(n, rows, c1m, ones[0], ones[1])
            want = (sum(1 << i for i in rep.s1), sum(1 << i for i in rep.s2),
                    sum(1 << i for i in rep.s_star), rep.i_g)
            mismatches += got != want

    elapsed = time.perf_counter() - t0
    _conclude(
        "1 exhaustive identities (n<=5)",
        not violations and mismatches == 0 and elapsed < 300.0,
        f"combos={combos} violations={len(violations)} engine_mismatches={mismatches} "
        f"time={elapsed:.1f}s (limit 300s)")

    # n = 6: every check of every coloring and configuration, within 10 s
    n, configs = 6, 1 << 15
    t0 = time.perf_counter()
    scan = exhaustive_identity_scan(n, Fraction(1, 3))
    elapsed = time.perf_counter() - t0
    pairs = n * (n - 1) // 2 * 2 ** (n - 2) * configs  # color-1 pairs x configs
    want = {"combos": 2**n * configs, "rhat": n * 2**n * configs,
            "partition": pairs, "day2": pairs // 2,  # half the pairs are apart
            "centering": (2**n - 2) * n * configs}   # non-unanimous colorings
    got = {"combos": scan.combos, "rhat": scan.rhat_checks,
           "partition": scan.partition_checks, "day2": scan.day2_checks,
           "centering": scan.centering_checks}
    _conclude(
        "1 exhaustive identities (n=6)",
        scan.clean and got == want and elapsed <= 10.0,
        f"checks={got} expected={want} violations={scan.violations[:3]} "
        f"time={elapsed:.1f}s (limit 10s)")


def test_criterion_2_fourier_suite():
    colorings = {
        2: [(1, 2)],
        3: [(1, 1, 2), (1, 2, 2)],
        4: [(1, 1, 2, 2), (1, 1, 1, 2)],
        5: [(1, 1, 1, 2, 2), (1, 1, 1, 1, 2)],
    }
    p = Fraction(1, 4)
    bad = []
    checked = 0
    for m, cols in colorings.items():
        for colors in cols:
            for v in range(m):
                table = fourier_coefficients(m, colors, v, p)
                star = 0
                for k, e in enumerate(edge_list(m)):
                    if v in e:
                        star |= 1 << k
                if table.coefficient_scaled(0) != 0:
                    bad.append((m, colors, v, "empty-set"))
                for mask in range(1 << table.n_edges):
                    if mask & ~star and table.coefficient_scaled(mask) != 0:
                        bad.append((m, colors, v, "outside-star", mask))
                if table.parseval_sum() != 1 - table.mu_v**2:
                    bad.append((m, colors, v, "parseval"))
                if table.reconstruct_all() != table.function_values():
                    bad.append((m, colors, v, "reconstruction"))
                for level in (1, 2, 3):
                    tl = fourier_coefficients(m, colors, v, p, power=level)
                    for mask in range(1, 1 << table.n_edges):
                        if (abs(tl.coefficient_scaled(mask))
                                > 2**level * abs(table.coefficient_scaled(mask))):
                            bad.append((m, colors, v, "power", level, mask))
                checked += 1
    _conclude("2 exact Fourier suite (n<=5)", not bad,
              f"tables={checked} violations={len(bad)} {bad[:3]}")


def test_criterion_3_appendix_grids():
    t0 = time.perf_counter()
    report = verify_appendix_a(default_grid())
    summary = report.summary()
    elapsed = time.perf_counter() - t0
    enough = all(summary[k]["points"] - summary[k]["skipped"] >= 200
                 for k in LEMMA_IDS)
    clean = all(summary[k]["failures"] == 0 for k in LEMMA_IDS)
    slack_ok = all(pt.slack >= -1e-9 for pt in report.points
                   if pt.asserted and pt.slack is not None)
    _conclude(
        "3 inequality grids",
        enough and clean and slack_ok and report.all_pass and elapsed < 600.0,
        f"points={ {k: summary[k]['points'] for k in LEMMA_IDS} } "
        f"time={elapsed:.1f}s (limit 600s)")


_AGREEMENT_CELLS = [
    OracleQuery(3, 0.5, (1, 1, 2), WinProb(color=1)),
    OracleQuery(4, 0.3, (1, 1, 2, 2), WinProb(color=1)),
    OracleQuery(5, 0.5, (1, 1, 1, 2, 2), WinProb(color=1)),
    OracleQuery(5, 0.35, (1, 1, 2, 2, 2), WinProb(color=2)),
    OracleQuery(6, 0.2, (1, 1, 1, 1, 2, 2), WinProb(color=1)),
    OracleQuery(6, 0.5, (1, 1, 1, 2, 2, 2), WinProb(color=1)),
    OracleQuery(4, 0.6, (1, 1, 2, 2), ExpectedCount(day=1)),
    OracleQuery(5, 0.4, (1, 1, 1, 2, 2), ExpectedCount(day=1)),
    OracleQuery(6, 0.25, (1, 1, 1, 2, 2, 2), ExpectedCount(day=1)),
    OracleQuery(5, 0.2, (1, 1, 1, 2, 2), ExpectedCount(day=1, color=2)),
    OracleQuery(5, 0.3, (1, 2, 1, 2, 1), ExpectedCount(day=2)),
    OracleQuery(6, 0.25, (1, 1, 1, 1, 2, 2), ExpectedCount(day=2)),
    OracleQuery(4, 0.35, (1, 1, 2, 2), VarCount(day=2)),
    OracleQuery(5, 0.5, (1, 1, 2, 2, 2), VarCount(day=2)),
    OracleQuery(6, 0.25, (1, 1, 1, 1, 2, 2), VarCount(day=2)),
    OracleQuery(6, 0.4, (1, 1, 2, 1, 2, 2), VarCount(day=1)),
    OracleQuery(5, 0.25, (1, 1, 1, 2, 2), SetStat("s_star")),
    OracleQuery(6, 0.3, (1, 1, 1, 2, 2, 2), SetStat("s_star")),
    OracleQuery(5, 0.4, (1, 1, 2, 2, 2), SetStat("i_g")),
    OracleQuery(6, 0.3, (1, 1, 2, 2, 2, 2), SetStat("i_g")),
]


def test_criterion_4_oracle_mc_agreement():
    assert len(_AGREEMENT_CELLS) == 20
    hits = 0
    worst = 0.0
    for i, q in enumerate(_AGREEMENT_CELLS):
        ag = oracle_vs_mc(q, 100_000, master_seed=4000 + i)
        hits += ag.within_4se
        worst = max(worst, ag.z_score)
    _conclude("4 oracle vs Monte Carlo (20 cells, 1e5 trials)", hits >= 19,
              f"within 4se: {hits}/20, worst z={worst:.2f}")


def test_criterion_5_phenomena_at_scale():
    t0 = time.perf_counter()
    # (a) fixed gap 10/p at n=1e4: color 1 wins essentially always, fast
    cfg = ExperimentConfig(n_values=(10_000,), p_values=(0.01,),
                           delta_values=(1000.0,), trials=200,
                           master_seed=101, workers=2)
    a = run_sweep(cfg).cells[0]
    a_ok = a.p_hat >= 0.99 and a.mean_days is not None and \
        a.mean_days <= default_cap(10_000, 0.01)

    # (b) symmetric start: win frequency statistically indistinguishable
    # from 1/2
    cfg = ExperimentConfig(n_values=(2000,), p_values=(0.05,),
                           delta_values=(0.0,), trials=2000,
                           master_seed=102, workers=2)
    b = run_sweep(cfg).cells[0]
    b_ok = b.wilson_lo <= 0.5 <= b.wilson_hi

    # (c) random half coloring just above the n^{-2/3} scale: the initial
    # majority wins
    n = 10_000
    c = scheme_experiment(RandomHalf(), n, 10.0 * n ** (-2.0 / 3.0),
                          trials=500, master_seed=103, workers=2)
    c_ok = c.majority_win_rate is not None and c.majority_win_rate >= 0.9

    elapsed = time.perf_counter() - t0
    _conclude(
        "5 phenomenon reproduction",
        a_ok and b_ok and c_ok and elapsed < 1800.0,
        f"(a) win1={a.p_hat:.3f} days={a.mean_days:.1f}; "
        f"(b) ci=[{b.wilson_lo:.3f},{b.wilson_hi:.3f}]; "
        f"(c) majority rate={c.majority_win_rate:.3f}; "
        f"time={elapsed:.0f}s (limit 1800s)")


def test_criterion_6_worker_determinism(tmp_path):
    blobs = {}
    for workers in (1, 4, 16):
        path = tmp_path / f"results_w{workers}.jsonl"
        cfg = ExperimentConfig(n_values=(60,), p_values=(0.2,),
                               delta_values=(1.0, 3.0), trials=200,
                               master_seed=42, workers=workers,
                               results_path=str(path))
        run_sweep(cfg)
        blobs[workers] = path.read_bytes()
    ok = blobs[1] == blobs[4] == blobs[16]
    _conclude("6 determinism across worker counts", ok,
              f"bytes={len(blobs[1])}")


def test_criterion_7_report_completeness():
    rep = lemma_report(200, 0.2, 5, trials=200, master_seed=17)
    ids = [r.lemma_id for r in rep.records]
    complete = ids == list(LEMMA_ANCHORS)
    anchored = all(r.quote_anchor == LEMMA_ANCHORS[r.lemma_id]
                   for r in rep.records)
    flagged = all(isinstance(r.hypotheses_met, bool) for r in rep.records)
    # bounds needing astronomically large n are present but never asserted
    astronomical = ["day1_expectation", "day2_pair_sum", "day2_expectation",
                    "beta_gap", "beta2_bound", "setdiff_variance",
                    "ig_variance", "sstar_mean_sq"]
    unasserted = all(not rep.record(i).hypotheses_met
                     and not rep.record(i).asserted for i in astronomical)
    asserted_good = rep.asserted_failures() == []
    exact = lemma_report(6, 0.25, 1, trials=100)
    exact_ok = exact.mode == "exact" and \
        [r.lemma_id for r in exact.records] == list(LEMMA_ANCHORS)
    _conclude(
        "7 report completeness",
        complete and anchored and flagged and unasserted and asserted_good
        and exact_ok,
        f"records={len(ids)} asserted_failures={rep.asserted_failures()}")

"""Shared naive reference implementations used as independent oracles."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from majlab.graphs import (ColoredGraph, FixedGap, GraphParams, sample_gnp,
                           split_seed)
from majlab.dynamics import (CapReached, DynamicsTrace, TwoCycle, Unanimity,
                             UpdateRule, run, step)
from majlab.oracle import (ExpectedCount, MomentZ, OracleQuery, SetStat,
                           VarCount, WinProb)
from majlab.structure import compute_r_hat, compute_s_sets

# Every hypothesis test draws the same examples on every run, and none are
# replayed from a local example database.
settings.register_profile("majlab", derandomize=True, database=None)
settings.load_profile("majlab")

GOLDEN = Path(__file__).parent / "golden" / "oracle_golden.json"
_GOLDEN_STATS = {
    "winprob": lambda d: WinProb(color=d["color"]),
    "expcount": lambda d: ExpectedCount(day=d["day"], color=d["color"]),
    "varcount": lambda d: VarCount(day=d["day"], color=d["color"]),
    "momentz": lambda d: MomentZ(k=d["k"]),
    "setstat": lambda d: SetStat(d["which"], d["moment"], u=0, v=1, w=0),
}


def golden_records() -> list[tuple[OracleQuery, Fraction]]:
    """(query at the exact p, exact value) of every record in the golden file."""
    return [(OracleQuery(rec["n"], Fraction(rec["p"]), tuple(rec["colors"]),
                         _GOLDEN_STATS[rec["stat"]](rec)), Fraction(rec["value"]))
            for rec in json.loads(GOLDEN.read_text())]


def naive_step(n: int, edges: set[frozenset], colors: list[int],
               rule: UpdateRule) -> list[int]:
    """Dictionary-based synchronous update; snapshots all splits first."""
    splits = []
    for v in range(n):
        d1 = d2 = 0
        for u in range(n):
            if u != v and frozenset((u, v)) in edges:
                if colors[u] == 1:
                    d1 += 1
                else:
                    d2 += 1
        splits.append((d1, d2))
    out = []
    for v, (d1, d2) in enumerate(splits):
        if rule is UpdateRule.STANDARD:
            if d1 > d2:
                out.append(1)
            elif d2 > d1:
                out.append(2)
            else:
                out.append(colors[v])
        else:
            if d1 > d2 - 1:
                out.append(1)
            elif d1 < d2 - 1:
                out.append(2)
            else:
                out.append(colors[v])
    return out


def brute_fourier(m: int, colors, v: int, p: Fraction,
                  power: int) -> tuple[list[Fraction], list[Fraction]]:
    """(r_S for every subset mask S, Z_v^power on every configuration) by
    enumerating all 2^C(m,2) configurations x: Z_v from `naive_step` under
    the biased rule, mu_v = 2 P(v keeps) - 1 from the same enumeration, and
    r_S = sum_x w(x) Z_v(x)^power prod_{e in S}(2 - 2p if x has e, else -2p).
    """
    p = Fraction(p)
    n_edges = m * (m - 1) // 2
    weights, keeps, chars = [], [], []
    for x, edges in enumerate_small_graphs(m):
        weights.append(p ** len(edges) * (1 - p) ** (n_edges - len(edges)))
        day1 = naive_step(m, {frozenset(e) for e in edges}, list(colors),
                          UpdateRule.BIASED)
        keeps.append(day1[v] == colors[v])
        # prod_{e in S} per subset mask S, doubled in one edge at a time
        char = [Fraction(1)]
        for k in range(n_edges):
            t = 2 - 2 * p if x >> k & 1 else -2 * p
            char += [c * t for c in char]
        chars.append(char)
    mu = 2 * sum(w for w, keep in zip(weights, keeps) if keep) - 1
    values = [((1 if keep else -1) - mu) ** power for keep in keeps]
    wz = [w * z for w, z in zip(weights, values)]
    scaled = [sum(a * char[s] for a, char in zip(wz, chars))
              for s in range(1 << n_edges)]
    return scaled, values


def graph_per_day_run(g: ColoredGraph, rule: UpdateRule,
                      cap: int) -> DynamicsTrace:
    """The run loop that steps whole graphs: every day is a new ColoredGraph
    from `step`, and repeats are found on its packed color-1 words."""
    n = g.n
    counts = []
    cur = g
    cur_mask = g.color1_words.copy()
    prev_mask = None
    c1 = int((g.colors == 1).sum())
    counts.append((0, c1))
    if c1 in (0, n):
        return DynamicsTrace(n, counts, Unanimity(1 if c1 == n else 2, 0))
    for day in range(1, cap + 1):
        cur = step(cur, rule)
        new_mask = cur.color1_words
        c1 = int((cur.colors == 1).sum())
        counts.append((day, c1))
        if c1 in (0, n):
            return DynamicsTrace(n, counts, Unanimity(1 if c1 == n else 2, day))
        if np.array_equal(new_mask, cur_mask):
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 1, period=1))
        if prev_mask is not None and np.array_equal(new_mask, prev_mask):
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 2, period=2))
        prev_mask, cur_mask = cur_mask, new_mask
    return DynamicsTrace(n, counts, CapReached(cap))


def graph_trial_quantities(n: int, p: float, delta, trials: int,
                           master_seed: int, cap: int) -> dict[str, np.ndarray]:
    """The bound report's 14 columns graph by graph, from whole-graph
    kernels: `step` four times, `run`, `compute_r_hat` twice and
    `compute_s_sets` once per sampled graph."""
    scheme = FixedGap.from_delta(delta)
    cols = {
        name: np.empty(trials)
        for name in ("c11_std", "c11_biased", "rhat1", "rhat2", "c12", "c23",
                     "win1", "win_day", "s1", "s2", "ss", "ig",
                     "v1_in_c12", "v2_in_c12")
    }
    for t in range(trials):
        g = sample_gnp(GraphParams(n, p, split_seed(master_seed, t)), scheme)
        is_c1 = g.colors == 1
        ones = np.flatnonzero(is_c1)
        twos = np.flatnonzero(~is_c1)
        v1, v2 = int(ones[0]), int(twos[0])
        u, v = int(ones[0]), int(ones[1])
        day1 = step(g, UpdateRule.STANDARD)
        day2 = step(day1, UpdateRule.STANDARD)
        day3 = step(day2, UpdateRule.STANDARD)
        day1b = step(g, UpdateRule.BIASED)
        cols["c11_std"][t] = int((day1.colors == 1).sum())
        cols["c11_biased"][t] = int((day1b.colors == 1).sum())
        cols["rhat1"][t] = compute_r_hat(g, v1).shape[0]
        cols["rhat2"][t] = compute_r_hat(g, v2).shape[0]
        cols["c12"][t] = int((day2.colors == 1).sum())
        cols["c23"][t] = n - int((day3.colors == 1).sum())
        end = run(g, UpdateRule.STANDARD, cap).termination
        win1 = isinstance(end, Unanimity) and end.winner == 1
        cols["win1"][t] = float(win1)
        cols["win_day"][t] = end.day if win1 else np.nan
        rep = compute_s_sets(g, u, v)
        cols["s1"][t] = len(rep.s1)
        cols["s2"][t] = len(rep.s2)
        cols["ss"][t] = len(rep.s_star)
        cols["ig"][t] = rep.i_g
        cols["v1_in_c12"][t] = float(day2.colors[v1] == 1)
        cols["v2_in_c12"][t] = float(day2.colors[v2] == 1)
    return cols


def random_colored_graph(rng: np.random.Generator, n: int,
                         p: float) -> tuple[ColoredGraph, set[frozenset], list[int]]:
    edges = set()
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add(frozenset((i, j)))
                pairs.append((i, j))
    colors = [int(c) for c in rng.integers(1, 3, n)]
    return ColoredGraph.from_edges(n, pairs, colors), edges, colors


def dense_colored_graph(rng: np.random.Generator, n: int,
                        p: float) -> tuple[ColoredGraph, tuple[np.ndarray, np.ndarray], list[int]]:
    """A random colored graph from a dense adjacency matrix, packed row by
    row with `np.packbits`, for sizes where `random_colored_graph`'s loop over
    pairs is too slow: (graph, edge index arrays (i, j) with i < j, colors)."""
    upper = np.triu(rng.random((n, n), dtype=np.float32) < p, 1)
    rows = np.zeros((n, 8 * ((n + 63) // 64)), dtype=np.uint8)
    rows[:, :(n + 7) // 8] = np.packbits(upper | upper.T, axis=1, bitorder="little")
    colors = [int(c) for c in rng.integers(1, 3, n)]
    return ColoredGraph(n, rows.view("<u8"), colors), np.nonzero(upper), colors


def brute_bindiff_pmf(n1: int, n2: int, p: Fraction, d: int) -> Fraction:
    """P(X1 - X2 = d) by enumerating all 2^(n1+n2) Bernoulli outcomes."""
    p = Fraction(p)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n1 + n2):
        x1 = sum(bits[:n1])
        x2 = sum(bits[n1:])
        if x1 - x2 == d:
            ones = sum(bits)
            total += p**ones * (1 - p) ** (n1 + n2 - ones)
    return total


def brute_bindiff_geq(n1: int, n2: int, p: Fraction, d: int) -> Fraction:
    p = Fraction(p)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n1 + n2):
        x1 = sum(bits[:n1])
        x2 = sum(bits[n1:])
        if x1 - x2 >= d:
            ones = sum(bits)
            total += p**ones * (1 - p) ** (n1 + n2 - ones)
    return total


def enumerate_small_graphs(n: int):
    """(edge mask, edge pairs) over all graphs on n labelled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield mask, [e for k, e in enumerate(pairs) if mask >> k & 1]


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(12345))

"""Shared naive reference implementations used as independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from majlab.graphs import ColoredGraph
from majlab.dynamics import (CapReached, DynamicsTrace, TwoCycle, Unanimity,
                             UpdateRule, step)


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

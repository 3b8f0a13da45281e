import itertools
import json

import numpy as np
import pytest
from scipy import stats as spstats

from majlab.dynamics import UpdateRule, step
from majlab.graphs import ColoredGraph, FixedGap, GraphParams, sample_gnp
from majlab.oracle import rhat_mask, s_sets_mask
from majlab.probability import binom_pmf
from majlab.structure import (check_day2_identity, compute_r_hat,
                              compute_s_sets, day2_identity_sides, focal_pair)

from conftest import random_colored_graph


def _with_edges_at(g: ColoredGraph, v: int, new_neighbors: set[int]) -> ColoredGraph:
    """Rebuild g with the edges at v replaced by new_neighbors."""
    edges = [(a, b) for a, b in g.edges() if v not in (a, b)]
    edges += [(v, u) for u in new_neighbors if u != v]
    return ColoredGraph.from_edges(g.n, edges, g.colors.tolist())


def test_rhat_empty_graph_is_everyone():
    g = ColoredGraph.from_edges(3, [], [1, 1, 2])
    assert compute_r_hat(g, 0).tolist() == [1, 2]


def test_rhat_path_plus_isolated_excludes_both():
    g = ColoredGraph.from_edges(3, [(0, 1)], [2, 2, 1])
    assert compute_r_hat(g, 2).tolist() == []


def test_rhat_out_of_range():
    g = ColoredGraph.from_edges(2, [], [1, 2])
    with pytest.raises(ValueError):
        compute_r_hat(g, 5)


def test_rhat_day1_identity(rng):
    # members adjacent to w are exactly the day-1 color-1 neighbours of w
    for _ in range(200):
        g, _, _ = random_colored_graph(rng, int(rng.integers(3, 15)),
                                       float(rng.random()))
        day1 = step(g, UpdateRule.STANDARD)
        for w in range(g.n):
            rh = set(compute_r_hat(g, w).tolist())
            nb = set(g.neighbors(w).tolist())
            day1_ones = {v for v in nb if day1.colors[v] == 1}
            assert rh & nb == day1_ones


def test_rhat_ignores_edges_at_w(rng):
    for _ in range(50):
        g, _, _ = random_colored_graph(rng, 12, 0.4)
        w = int(rng.integers(0, 12))
        base = compute_r_hat(g, w).tolist()
        for _ in range(5):
            rewired = set(np.flatnonzero(rng.random(12) < 0.5).tolist()) - {w}
            h = _with_edges_at(g, w, rewired)
            assert compute_r_hat(h, w).tolist() == base


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("n", [63, 64, 65])
def test_sets_match_scalar_kernels_at_word_boundaries(rng, n):
    # rows and the color-1 mask are Python ints built from the edge set, so
    # the scalar kernels share nothing with the packed words
    stars = 0
    for p in (0.05, 0.2, 0.5):
        for _ in range(4):
            g, edges, colors = random_colored_graph(rng, n, p)
            rows = [sum(1 << u for u in range(n) if frozenset((u, v)) in edges)
                    for v in range(n)]
            c1m = sum(1 << v for v in range(n) if colors[v] == 1)
            for w in range(n):
                assert compute_r_hat(g, w).tolist() == \
                    _bits(rhat_mask(n, rows, c1m, w))
            ones = _bits(c1m)
            for u, v in [(ones[0], ones[1]), (ones[-2], ones[-1]),
                         tuple(rng.choice(ones, 2, replace=False).tolist())]:
                rep = compute_s_sets(g, u, v)
                s1, s2, ss, ig = s_sets_mask(n, rows, c1m, u, v)
                assert (list(rep.s1), list(rep.s2), list(rep.s_star), rep.i_g) \
                    == (_bits(s1), _bits(s2), _bits(ss), ig)
                stars += len(rep.s_star)
    assert stars > 0


def test_s_sets_partition(rng):
    for _ in range(1000):
        g = sample_gnp(GraphParams(50, 0.3, int(rng.integers(1 << 31))),
                       FixedGap.from_delta(5))
        ones = np.flatnonzero(g.colors == 1)
        rep = compute_s_sets(g, int(ones[0]), int(ones[1]))
        union = set(rep.s1) | set(rep.s2) | set(rep.s_star)
        assert len(rep.s1) + len(rep.s2) + len(rep.s_star) == 48
        assert union == set(range(50)) - {int(ones[0]), int(ones[1])}
        assert rep.i_g <= len(rep.s_star)


def test_s_sets_empty_graph():
    g = ColoredGraph.from_edges(5, [], [1, 1, 2, 1, 2])
    rep = compute_s_sets(g, 0, 1)
    assert set(rep.s1) == {2, 3, 4}
    assert rep.s2 == () and rep.s_star == () and rep.i_g == 0


def test_s_sets_validation():
    g = ColoredGraph.from_edges(4, [], [1, 1, 2, 2])
    with pytest.raises(ValueError):
        compute_s_sets(g, 0, 0)
    with pytest.raises(ValueError):
        compute_s_sets(g, 0, 2)


def test_focal_pair_defaults_to_the_first_two_color1_vertices():
    color1 = np.array([False, True, False, True, True])
    assert focal_pair(color1) == (1, 3)
    assert focal_pair(color1, 4, 1) == (4, 1)
    with pytest.raises(ValueError, match="both of u and v, or neither"):
        focal_pair(color1, u=3)
    with pytest.raises(ValueError, match="both of u and v, or neither"):
        focal_pair(color1, v=3)
    with pytest.raises(ValueError, match="need two color-1 vertices"):
        focal_pair(np.array([True, False, False]))


@pytest.mark.parametrize("u, v", [(0, 4), (-1, 0), (0, -4)])
def test_focal_vertices_out_of_range(u, v):
    # a negative index must not wrap round to the last vertices
    g = ColoredGraph.from_edges(4, [(1, 3)], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="out of range"):
        compute_s_sets(g, u, v)
    with pytest.raises(ValueError, match="out of range"):
        day2_identity_sides(g, u, v)
    with pytest.raises(ValueError, match="out of range"):
        compute_r_hat(g, v if u == 0 else u)


def test_s_sets_ignore_focal_edges(rng):
    for _ in range(30):
        g, _, _ = random_colored_graph(rng, 14, 0.4)
        colors = g.colors.tolist()
        colors[0] = colors[1] = 1
        g = ColoredGraph.from_edges(g.n, g.edges(), colors)
        base = compute_s_sets(g, 0, 1)
        for _ in range(4):
            h = _with_edges_at(g, 0, set(np.flatnonzero(rng.random(14) < 0.4)))
            h = _with_edges_at(h, 1, set(np.flatnonzero(rng.random(14) < 0.4)))
            rep = compute_s_sets(h, 0, 1)
            assert (rep.s1, rep.s2, rep.s_star) == (base.s1, base.s2, base.s_star)


def test_s_star_membership_semantics(rng):
    # member of s_star: color 1 on day 1 iff adjacent to both focal vertices;
    # member of s2: color 2 on day 1 under all four focal-edge toggles
    checked_star = checked_s2 = 0
    for _ in range(60):
        g, _, _ = random_colored_graph(rng, 10, 0.35)
        colors = g.colors.tolist()
        colors[0] = colors[1] = 1
        g = ColoredGraph.from_edges(g.n, g.edges(), colors)
        rep = compute_s_sets(g, 0, 1)
        others = [w for w in rep.s_star] + [w for w in rep.s2]
        for w in others:
            in_star = w in rep.s_star
            for has_u, has_v in itertools.product((False, True), repeat=2):
                base = [(a, b) for a, b in g.edges()
                        if not ({a, b} == {0, w} or {a, b} == {1, w})]
                if has_u:
                    base.append((0, w))
                if has_v:
                    base.append((1, w))
                h = ColoredGraph.from_edges(g.n, base, colors)
                day1 = step(h, UpdateRule.STANDARD)
                if in_star:
                    assert (day1.colors[w] == 1) == (has_u and has_v)
                    checked_star += 1
                else:
                    assert day1.colors[w] == 2
                    checked_s2 += 1
    assert checked_star > 20 and checked_s2 > 20


def test_day2_identity_requires_nonadjacent():
    g = ColoredGraph.from_edges(3, [(0, 1)], [1, 1, 2])
    with pytest.raises(ValueError):
        check_day2_identity(g, 0, 1)


def test_day2_identity_empty_graph():
    g = ColoredGraph.from_edges(4, [], [1, 1, 2, 2])
    assert day2_identity_sides(g, 0, 1) == (0, 0)


def test_day2_identity_constructed_nonzero_overlap():
    # w=2 lands in s_star and is adjacent to both focal vertices, so the
    # double-neighbour count is 1
    g = ColoredGraph.from_edges(
        6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)], [1, 1, 2, 2, 1, 2])
    rep = compute_s_sets(g, 0, 1)
    assert 2 in rep.s_star and rep.i_g == 1
    lhs, rhs = day2_identity_sides(g, 0, 1)
    assert lhs == rhs


def test_day2_identity_random(rng):
    # cross-validated against the one-step simulation on random graphs
    for _ in range(1000):
        g = sample_gnp(GraphParams(40, 0.25, int(rng.integers(1 << 31))),
                       FixedGap.from_delta(2))
        ones = np.flatnonzero(g.colors == 1)
        u, v = int(ones[0]), int(ones[1])
        if g.is_edge(u, v):
            continue
        assert check_day2_identity(g, u, v)


def test_ig_binomial_distribution():
    # conditioned on the rest of the graph, the double-neighbour count is
    # Bin(|s_star|, p^2): chi-square at 1e4 samples, significance 1e-3
    p = 0.4
    rng = np.random.default_rng(np.random.SeedSequence(2718))
    base = sample_gnp(GraphParams(40, p, 24), FixedGap.from_delta(2))
    colors = base.colors.tolist()
    ones = [i for i, c in enumerate(colors) if c == 1]
    u, v = ones[0], ones[1]
    fixed_edges = [(a, b) for a, b in base.edges() if u not in (a, b) and v not in (a, b)]
    g0 = ColoredGraph.from_edges(40, fixed_edges, colors)
    star = list(compute_s_sets(g0, u, v).s_star)
    m = len(star)
    assert m >= 3
    samples = 10_000
    hits_u = rng.random((samples, m)) < p
    hits_v = rng.random((samples, m)) < p
    ig = (hits_u & hits_v).sum(axis=1)
    # spot-check the vectorized count against explicit graph construction
    for row in range(3):
        nb_u = [star[j] for j in range(m) if hits_u[row, j]]
        nb_v = [star[j] for j in range(m) if hits_v[row, j]]
        h = ColoredGraph.from_edges(
            40, fixed_edges + [(u, w) for w in nb_u] + [(v, w) for w in nb_v],
            colors)
        rep = compute_s_sets(h, u, v)
        assert rep.i_g == ig[row]
    # bin the upper tail so expected counts stay above 5
    probs = [binom_pmf(m, p * p, k) for k in range(m + 1)]
    cut = m
    while samples * sum(probs[cut:]) < 5:
        cut -= 1
    observed = np.zeros(cut + 1)
    for val in ig:
        observed[min(val, cut)] += 1
    expected = np.array(probs[:cut] + [sum(probs[cut:])]) * samples
    stat, pval = spstats.chisquare(observed, expected)
    assert pval >= 1e-3


def test_structural_report_json():
    g = ColoredGraph.from_edges(5, [(2, 3)], [1, 1, 2, 2, 1])
    rep = compute_s_sets(g, 0, 1)
    rep.w = 0
    rep.r_hat = tuple(compute_r_hat(g, 0).tolist())
    data = json.loads(rep.to_json())
    assert data["u"] == 0 and data["v"] == 1
    assert set(data) == {"u", "v", "s1", "s2", "s_star", "i_g", "w", "r_hat"}

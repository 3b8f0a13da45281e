import io
import json

import numpy as np
import pytest

from majlab.dynamics import (CapReached, TwoCycle, Unanimity, UpdateRule,
                             default_cap, run, step)
from majlab import dynamics
from majlab.graphs import (ColoredGraph, FixedGap, GraphParams, RandomHalf,
                           sample_gnp)

from conftest import (dense_colored_graph, graph_per_day_run, naive_step,
                      random_colored_graph)


def test_k3_majority_step():
    g = ColoredGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
    assert step(g).colors.tolist() == [1, 1, 1]


def test_four_cycle_flips():
    g = ColoredGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                [1, 2, 1, 2])
    assert step(g).colors.tolist() == [2, 1, 2, 1]


def test_biased_star():
    # leaves sit exactly at the keep margin; the center flips
    g = ColoredGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [2, 1, 1, 1])
    assert step(g, UpdateRule.BIASED).colors.tolist() == [1, 1, 1, 1]


def test_isolated_vertices_tie_and_keep():
    g = ColoredGraph.from_edges(3, [], [1, 2, 1])
    assert step(g).colors.tolist() == [1, 2, 1]


def test_run_two_cycle():
    g = ColoredGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                [1, 2, 1, 2])
    tr = run(g, UpdateRule.STANDARD, 10)
    assert tr.termination == TwoCycle(entered_day=0, period=2)


def test_run_fixed_point_is_period_one_repeat():
    g = ColoredGraph.from_edges(4, [], [1, 1, 2, 2])
    tr = run(g, UpdateRule.STANDARD, 5)
    assert tr.termination == TwoCycle(entered_day=0, period=1)
    assert tr.counts == [(0, 2), (1, 2)]


def test_run_k3_unanimity():
    g = ColoredGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
    tr = run(g, UpdateRule.STANDARD, 10)
    assert tr.termination == Unanimity(winner=1, day=1)


def test_run_monochromatic_start_day0():
    g = ColoredGraph.from_edges(4, [(0, 1)], [1, 1, 1, 1])
    tr = run(g, UpdateRule.STANDARD, 5)
    assert tr.termination == Unanimity(winner=1, day=0)


def test_cap_reached():
    # alternating 6-cycle flips wholesale each day; cap=1 stops before the
    # period-2 repeat is visible
    g = ColoredGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)],
                                [1, 2, 1, 2, 1, 2])
    tr = run(g, UpdateRule.STANDARD, 1)
    assert tr.termination == CapReached(1)
    with pytest.raises(ValueError):
        run(g, UpdateRule.STANDARD, 0)


def test_default_cap_values():
    assert default_cap(10**4, 0.01) == 30
    assert default_cap(100, 0.5) == 22
    # log ratio exactly 1 when n*p == n is impossible; np=n means p=1
    assert default_cap(50, 1.0) == 20
    with pytest.raises(ValueError):
        default_cap(100, 0.005)


def test_bit_parallel_matches_naive(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        p = float(rng.random())
        g, edges, colors = random_colored_graph(rng, n, p)
        for rule in (UpdateRule.STANDARD, UpdateRule.BIASED):
            expect = naive_step(n, edges, colors, rule)
            got = step(g, rule).colors.tolist()
            assert got == expect, (n, rule, colors)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_run_matches_graph_per_day_reference(n, p):
    schemes = [FixedGap(td) for td in (n % 2, n % 2 + 2) if td <= n]
    schemes.append(RandomHalf())
    caps = [1, 2] + ([default_cap(n, p)] if n * p > 1 else [])
    for scheme in schemes:
        for seed in range(4):
            g = sample_gnp(GraphParams(n, p, 100 * n + seed), scheme)
            for rule in (UpdateRule.STANDARD, UpdateRule.BIASED):
                for cap in caps:
                    got, want = run(g, rule, cap), graph_per_day_run(g, rule, cap)
                    assert got.counts == want.counts, (scheme, seed, rule, cap)
                    assert got.termination == want.termination, \
                        (scheme, seed, rule, cap)


# word boundaries, and at n = 3001 (47 words a row) rows in two blocks of
# `margins`, the second partial
_BLOCK_SIZES = [1, 2, 63, 64, 65, 129, 3001]


def _graph_and_edges(n, p):
    """(graph, edge index arrays (i, j) with i < j, colors) at seed n."""
    rng = np.random.default_rng(n)
    if n > 129:
        return dense_colored_graph(rng, n, p)
    g, edges, colors = random_colored_graph(rng, n, p)
    pairs = np.array([sorted(e) for e in edges], dtype=np.int64).reshape(-1, 2)
    return g, tuple(pairs.T), colors


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_margins_match_edge_set_counts(n, p):
    # d1 - d2 counted edge by edge, with no packed words
    g, (i, j), colors = _graph_and_edges(n, p)
    vote = np.where(np.array(colors) == 1, 1, -1)
    want = np.zeros(n, dtype=np.int64)
    np.add.at(want, i, vote[j])
    np.add.at(want, j, vote[i])
    assert dynamics.margins(g, g.color1_words).tolist() == want.tolist()


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_run_matches_graph_per_day_reference_across_blocks(n, p):
    g = _graph_and_edges(n, p)[0]
    for rule in UpdateRule:
        for cap in (1, 2, None):
            got = run(g, rule) if cap is None else run(g, rule, cap)
            want = graph_per_day_run(g, rule, cap or 1000)
            assert got.counts == want.counts, (rule, cap)
            assert got.termination == want.termination, (rule, cap)


def test_run_builds_no_graph_and_calls_no_step(monkeypatch):
    g = sample_gnp(GraphParams(200, 0.05, 8), FixedGap(2))
    made, stepped = [], []
    real_init, real_step = ColoredGraph.__init__, dynamics.step

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    def counting_step(*args, **kwargs):
        stepped.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(ColoredGraph, "__init__", counting_init)
    monkeypatch.setattr(dynamics, "step", counting_step)
    tr = dynamics.run(g, UpdateRule.STANDARD, 50)
    assert tr.days_run >= 2
    assert made == [] and stepped == []


def test_synchronicity_against_snapshot_reference(rng):
    # the naive reference snapshots every split before updating
    for _ in range(50):
        g, edges, colors = random_colored_graph(rng, 20, 0.4)
        cur_g, cur_c = g, colors
        for _ in range(4):
            cur_g = step(cur_g)
            cur_c = naive_step(20, edges, cur_c, UpdateRule.STANDARD)
            assert cur_g.colors.tolist() == cur_c


def test_two_cycle_alternates_forever(rng):
    found = 0
    for k in range(200):
        g = sample_gnp(GraphParams(14, 0.3, 1000 + k), RandomHalf())
        tr = run(g, UpdateRule.STANDARD, 60)
        if isinstance(tr.termination, TwoCycle):
            found += 1
            # re-run from the entry state: 4 more days must alternate
            state = g
            for _ in range(tr.termination.entered_day):
                state = step(state)
            a = state
            b = step(state)
            cur = b
            expect = [a.colors, b.colors]
            for day in range(4):
                cur = step(cur)
                assert np.array_equal(cur.colors, expect[day % 2])
        if found >= 10:
            break
    assert found >= 5


def test_standard_fixed_point_vs_biased():
    # square with a tied color-2 side: standard-fixed, but the bias flips it
    g = ColoredGraph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)],
                                [1, 1, 2, 2])
    assert step(g).colors.tolist() == [1, 1, 2, 2]
    assert step(g, UpdateRule.BIASED).colors.tolist() == [1, 1, 1, 1]
    # two monochromatic triangles: fixed under both rules
    tri = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    h = ColoredGraph.from_edges(6, tri, [1, 1, 1, 2, 2, 2])
    assert step(h).colors.tolist() == [1, 1, 1, 2, 2, 2]
    assert step(h, UpdateRule.BIASED).colors.tolist() == [1, 1, 1, 2, 2, 2]


def test_step_does_not_mutate_input():
    g = ColoredGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
    before = g.colors.copy()
    out = step(g)
    assert np.array_equal(g.colors, before)
    assert out.adj is g.adj


def test_trace_csv_with_json_footer():
    g = ColoredGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
    tr = run(g, UpdateRule.STANDARD, 10)
    buf = io.StringIO()
    tr.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "day,c1,c2"
    assert lines[1] == "0,2,1"
    assert lines[2] == "1,3,0"
    footer = json.loads(lines[-1].lstrip("# "))
    assert footer == {"kind": "unanimity", "winner": 1, "day": 1}


@pytest.mark.parametrize("termination, record", [
    (Unanimity(winner=2, day=3), {"kind": "unanimity", "winner": 2, "day": 3}),
    (TwoCycle(entered_day=4, period=1),
     {"kind": "two_cycle", "entered_day": 4, "period": 1}),
    (CapReached(7), {"kind": "cap_reached", "cap": 7}),
])
def test_termination_record_keys(termination, record):
    tr = dynamics.DynamicsTrace(3, [(0, 1)], termination)
    assert json.dumps(tr.termination_record()) == json.dumps(record)

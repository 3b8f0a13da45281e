import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majlab import graphs
from majlab.graphs import (ColoredGraph, FixedGap, GraphParams, RandomBiased,
                           RandomHalf, _geometric_skips, _n_words,
                           _sample_adjacency, degree_split, pack_color_mask,
                           sample_gnp, split_seed, unpack_row)
from reference import _pairs_from_linear, _sample_pair_indices


def test_p_one_gives_complete_graph():
    g = sample_gnp(GraphParams(3, 1.0, 0), FixedGap.from_delta(0.5))
    assert g.counts() == (2, 1)
    assert all(g.is_edge(u, v) for u in range(3) for v in range(3) if u != v)


def test_p_zero_gives_empty_graph_all_color1():
    g = sample_gnp(GraphParams(4, 0.0, 0), FixedGap.from_delta(2))
    assert g.counts() == (4, 0)
    assert g.edges() == []


def test_same_seed_bit_identical():
    a = sample_gnp(GraphParams(5, 0.5, 42), RandomHalf())
    b = sample_gnp(GraphParams(5, 0.5, 42), RandomHalf())
    assert np.array_equal(a.adj, b.adj)
    assert np.array_equal(a.colors, b.colors)
    c = sample_gnp(GraphParams(5, 0.5, 43), RandomHalf())
    assert not (np.array_equal(a.adj, c.adj) and np.array_equal(a.colors, c.colors))


def _reference_pairs(n, idx):
    """One search of each linear index into the row starts."""
    rows = np.arange(n - 1, dtype=np.int64)
    row_starts = rows * (n - 1) - (rows * (rows - 1)) // 2
    i = np.searchsorted(row_starts, idx, side="right") - 1
    j = i + 1 + (idx - row_starts[i])
    return i, j


def _reference_adjacency(n, idx):
    """Both orientations of every pair or-ed into its (row, word) cell."""
    adj = np.zeros((n, _n_words(n)), dtype=np.uint64)
    if idx.shape[0]:
        i, j = _reference_pairs(n, idx)
        one = np.uint64(1)
        np.bitwise_or.at(adj, (i, j >> 6), one << (j & 63).astype(np.uint64))
        np.bitwise_or.at(adj, (j, i >> 6), one << (i & 63).astype(np.uint64))
    return adj


@pytest.mark.parametrize("n,p,seeds", [
    *((n, p, range(4)) for n in (1, 2, 3, 63, 64, 65, 127, 128, 129)
      for p in (0.0, 0.3, 1.0)),
    (2000, 0.05, range(2)),
])
def test_sampler_matches_reference_construction(n, p, seeds):
    # the whole-array sampler in tests/reference.py anchors the blocked one:
    # the same bits, and the generator left where the coloring reads it
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        idx = _sample_pair_indices(rng, n * (n - 1) // 2, p)
        i, j = _pairs_from_linear(n, idx)
        ref_i, ref_j = _reference_pairs(n, idx)
        assert i.dtype == ref_i.dtype and j.dtype == ref_j.dtype
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
        ours = np.random.default_rng(np.random.SeedSequence(seed))
        assert np.array_equal(_sample_adjacency(ours, n, p), _reference_adjacency(n, idx))
        assert ours.bit_generator.state == rng.bit_generator.state
        g = sample_gnp(GraphParams(n, p, seed), RandomHalf())
        assert np.array_equal(g.adj, _reference_adjacency(n, idx))


_BOUNDARY_P = (0.0, 0.3, float(np.nextafter(1 / 3, 0)), 1 / 3, 0.9, 1.0)


@pytest.mark.parametrize("n,block", [
    *((n, block) for n in (1, 2, 63, 64, 65, 129) for block in (1, 3, 64)),
    (2000, 64),
])
def test_sampler_blocks_match_default_block(monkeypatch, n, block):
    # the draw, the cut, the carried sum and the scatter all cross block
    # edges here; at n = 2000 blocks of 1 or 3 take minutes, so 64 only
    expected = {(p, seed): sample_gnp(GraphParams(n, p, seed), FixedGap(n % 2))
                for p in _BOUNDARY_P for seed in range(2)}
    monkeypatch.setattr(graphs, "_BLOCK", block)
    for (p, seed), want in expected.items():
        got = sample_gnp(GraphParams(n, p, seed), FixedGap(n % 2))
        assert np.array_equal(got.adj, want.adj), (p, seed)
        assert np.array_equal(got.colors, want.colors), (p, seed)


@pytest.mark.parametrize("p", [1e-5, 0.01, 0.3, float(np.nextafter(1 / 3, 0)),
                               1 / 3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("sizes", [(1, 4999), (3, 64, 1, 4932), (2500, 2500),
                                   (0, 5000, 0)])
def test_geometric_skips_split_draws_equal_one_draw(p, sizes):
    # the blocked sampler rests on this: numpy fills draws sequentially, so
    # draws whose sizes sum to N give the values and state of one draw of N
    for seed in range(3):
        split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.concatenate([_geometric_skips(split, p, k, 200) for k in sizes])
        assert np.array_equal(got, _geometric_skips(whole, p, sum(sizes), 200))
        assert split.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("p", [0.01, 10 * 10_000 ** (-2 / 3)])
def test_sampler_peak_memory_near_adjacency(p):
    # the blocked sampler holds the adjacency and a few block-sized arrays;
    # one whole-edge int64 temporary (4-9 MB at these sizes) would fail it
    sample_gnp(GraphParams(100, p, 0), RandomHalf())  # warm any lazy state
    tracemalloc.start()
    try:
        g = sample_gnp(GraphParams(10_000, p, 3), RandomHalf())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.adj.nbytes + (4 << 20), (peak, g.adj.nbytes)


# sha256 of adj.tobytes() + colors.tobytes(): equal seeds must keep giving
# these bits, so a sampler change that moves any bit fails here
@pytest.mark.parametrize("n,p,seed,scheme,digest", [
    pytest.param(65, 0.3, 11, FixedGap.from_delta(0.5),
                 "024d882f753a50eaecbcd3856947804db43869288f4c1558d484bec0baad2bfc",
                 id="fixed-gap-65"),
    pytest.param(129, 0.5, 12, RandomHalf(),
                 "feeea7931e0bed654746b8b8f9566ad0f9088bec987c20061e8891fe501edf96",
                 id="random-half-129"),
    pytest.param(10_000, 0.01, 13, FixedGap.from_delta(1000),
                 "3e7da7a2b2f313042694e6fe2a1be280ea03763c62b32a5699119f1bf17a6d89",
                 id="fixed-gap-10000"),
    pytest.param(10_000, 10 * 10_000 ** (-2 / 3), 14, RandomHalf(),
                 "bad48daeb6b3d94db0c65165d60a0c5bce0f7b941245c18f4007eb23f3dd53b7",
                 id="random-half-10000-criterion-5c"),
    pytest.param(65, float(np.nextafter(1 / 3, 0)), 15, RandomHalf(),
                 "f19da556f26098882bab82ef412f3b4660ae52fe0fedd8664706e36fde79cec4",
                 id="random-half-65-below-third"),
    pytest.param(65, 1 / 3, 16, RandomHalf(),
                 "fce8a4e3ec7f948691d67c0de17c3fef24d499cf7237bebbc40c407a0e879334",
                 id="random-half-65-third"),
    # n p C(n,2) > 2^24: the skips come in two batches
    pytest.param(6000, 0.95, 5, RandomHalf(),
                 "f230e10a6c8ab948a4428854ab9e18c2914ea758e1466e645cfaa26d2c9aae66",
                 id="random-half-6000-two-batches"),
])
def test_sampler_golden_digests(n, p, seed, scheme, digest):
    g = sample_gnp(GraphParams(n, p, seed), scheme)
    assert hashlib.sha256(g.adj.tobytes() + g.colors.tobytes()).hexdigest() == digest


class _RecordingRng:
    """Forwards to a Generator and records which of its methods are called."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("p,method", [
    *((p, "standard_exponential") for p in
      (1e-9, 1e-5, 0.01, 0.0215, 0.1, 0.3, float(np.nextafter(1 / 3, 0)))),
    *((p, "geometric") for p in (1 / 3, 0.5, 0.9)),
])
def test_skips_match_numpy_geometric(p, method):
    # below p = 1/3 the sampler's bits rest on numpy's inversion formula:
    # if a numpy release changes it, this fails before any digest does
    for seed in range(3):
        ours = _RecordingRng(np.random.default_rng(seed))
        theirs = np.random.default_rng(seed)
        got = _geometric_skips(ours, p, 5000, 1 << 62)
        assert ours.calls == [method]
        assert got.dtype == np.int64
        assert np.array_equal(got, theirs.geometric(p, 5000))
        assert ours.rng.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("p", [1e-19, 1e-300, 5e-324])
def test_tiny_p_gives_empty_graph_without_warning(p):
    # numpy's skips saturate at INT64_MAX here; unclamped, their sums wrapped
    # to negative pair indices and the scatter failed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = sample_gnp(GraphParams(100, p, 1), RandomHalf())
        skips = _geometric_skips(np.random.default_rng(1), p, 8, 4951)
    assert g.edges() == [] and not g.degrees.any()
    assert (skips == 4951).all()


def test_degree_split_examples():
    k3 = ColoredGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
    assert degree_split(k3, 2) == (2, 0)
    empty = ColoredGraph.from_edges(4, [], [1, 2, 1, 2])
    assert degree_split(empty, 1) == (0, 0)
    c4 = ColoredGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                 [1, 2, 1, 2])
    assert degree_split(c4, 0) == (0, 2)


def test_degree_split_out_of_range():
    g = ColoredGraph.from_edges(2, [], [1, 2])
    with pytest.raises(ValueError):
        degree_split(g, 2)


def test_bichromatic_double_count():
    g = sample_gnp(GraphParams(40, 0.3, 9), FixedGap.from_delta(4))
    bichromatic = sum(1 for u, v in g.edges() if g.colors[u] != g.colors[v])
    d1_over_color2 = sum(degree_split(g, v)[0] for v in range(g.n)
                         if g.colors[v] == 2)
    assert d1_over_color2 == bichromatic


def test_fixed_gap_counts():
    for n, delta in [(10, 0), (10, 3), (11, 0.5), (11, 5.5), (7, 2.5)]:
        g = sample_gnp(GraphParams(n, 0.4, 1), FixedGap.from_delta(delta))
        c1, c2 = g.counts()
        assert c1 - c2 == 2 * delta


def test_fixed_gap_parity_rejected():
    with pytest.raises(ValueError):
        sample_gnp(GraphParams(10, 0.5, 0), FixedGap.from_delta(0.5))
    with pytest.raises(ValueError):
        sample_gnp(GraphParams(11, 0.5, 0), FixedGap.from_delta(1))
    with pytest.raises(ValueError):
        FixedGap.from_delta(0.3)
    with pytest.raises(ValueError):
        sample_gnp(GraphParams(4, 0.5, 0), FixedGap.from_delta(3))


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
def test_fixed_gap_rejects_non_finite(delta):
    with pytest.raises(ValueError, match="gap must be a half-integer"):
        FixedGap.from_delta(delta)


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        GraphParams(5, -0.1, 0)
    with pytest.raises(ValueError):
        GraphParams(5, 1.5, 0)
    with pytest.raises(ValueError):
        RandomBiased(1.2)


def test_edge_frequency_matches_p():
    # 10^4 samples at n=30, p=0.3: every pair within 4 standard errors
    n, p, samples = 30, 0.3, 10_000
    acc = np.zeros((n, n), dtype=np.int64)
    for t in range(samples):
        g = sample_gnp(GraphParams(n, p, split_seed(777, t)), RandomHalf())
        bits = np.unpackbits(g.adj.view(np.uint8), axis=1,
                             bitorder="little")[:, :n]
        acc += bits
    se = np.sqrt(p * (1 - p) / samples)
    iu = np.triu_indices(n, 1)
    freqs = acc[iu] / samples
    assert np.all(np.abs(freqs - p) <= 4 * se)


def test_random_biased_extremes():
    g = sample_gnp(GraphParams(50, 0.2, 3), RandomBiased(1.0))
    assert g.counts() == (50, 0)
    g = sample_gnp(GraphParams(50, 0.2, 3), RandomBiased(0.0))
    assert g.counts() == (0, 50)


def test_json_roundtrip():
    g = sample_gnp(GraphParams(12, 0.4, 5), FixedGap.from_delta(1))
    h = ColoredGraph.from_json(g.to_json())
    assert g == h


def test_adjacency_is_symmetric_irreflexive():
    g = sample_gnp(GraphParams(25, 0.5, 8), RandomHalf())
    for v in range(g.n):
        assert not g.is_edge(v, v)
    for u, v in g.edges():
        assert g.is_edge(v, u)


def test_split_seed_deterministic_and_distinct():
    assert split_seed(1, 2, 3) == split_seed(1, 2, 3)
    seeds = {split_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000


@given(st.lists(st.booleans(), min_size=1, max_size=200))
@settings(deadline=None, max_examples=50)
def test_pack_unpack_roundtrip(bits):
    flags = np.asarray(bits, dtype=bool)
    words = pack_color_mask(flags)
    assert np.array_equal(unpack_row(words, len(bits)), flags)


@pytest.mark.parametrize("bad", [0, 3, -1])
def test_colors_outside_one_two_rejected(bad):
    adj = np.zeros((3, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="colors must be 1 or 2"):
        ColoredGraph(3, adj, np.array([1, bad, 2]))
    with pytest.raises(ValueError, match="colors must be 1 or 2"):
        ColoredGraph.from_edges(3, [(0, 1)], [bad, 2, 1])
    g = ColoredGraph(3, adj, np.array([1, 2, 2]))
    with pytest.raises(ValueError, match="colors must be 1 or 2"):
        g.with_colors(np.array([2, 2, bad]))


def test_with_colors_shares_adjacency():
    g = sample_gnp(GraphParams(10, 0.5, 2), FixedGap.from_delta(1))
    h = g.with_colors(np.where(g.colors == 1, 2, 1).astype(np.int8))
    assert h.adj is g.adj
    assert (h.colors != g.colors).all()

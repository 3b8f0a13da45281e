"""Colored graphs over bit-packed adjacency, G(n,p) sampling, and coloring schemes.

Vertices are indices 0..n-1.  Adjacency is stored as n rows of 64-bit words
(bit j of row i set iff i ~ j), so neighbourhood/color intersections are
word-AND plus popcount.  Colors are the integers 1 and 2.

`sample_gnp` streams the adjacency in blocks of `_BLOCK` pairs: geometric
skips draw the next sorted linear indices of present pairs (the only stage
that calls the RNG; below p = 1/3 it applies numpy's own inversion formula to
standard exponentials, so sampled bits rest on that formula too), per-row
tables map them to columns j, and one flat scatter adds both orientations'
bits into the words.  A batch of skips is drawn block by block with the sum
carried over, and its rest is drawn even past the last pair: numpy fills
draws sequentially, so the stream ends where one whole-batch draw leaves it.
Color-1 flags are packed by one `np.packbits` over a buffer padded to whole
words, the layout `dynamics.run` keeps its flags in.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np
import numpy.random  # numpy 2 loads it lazily, on first use; load it with majlab

__all__ = [
    "ColoredGraph",
    "ColoringScheme",
    "FixedGap",
    "RandomHalf",
    "RandomBiased",
    "GraphParams",
    "sample_gnp",
    "degree_split",
    "split_seed",
    "pack_color_mask",
    "unpack_row",
    "popcount_rows",
]

_WORD = 64


def _n_words(n: int) -> int:
    return (n + _WORD - 1) // _WORD


def pack_color_mask(flags: np.ndarray) -> np.ndarray:
    """Pack boolean flags (..., n) into uint64 words (..., W), bit j -> word
    j>>6, bit j&63; leading axes index rows packed apart."""
    n = flags.shape[-1]
    padded = np.zeros((*flags.shape[:-1], _n_words(n) * _WORD), dtype=bool)
    padded[..., :n] = flags
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def unpack_row(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_color_mask: uint64 words (..., W) -> boolean flags
    (..., n)."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=n,
                         bitorder="little")
    return bits.astype(bool)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a (..., W) uint64 array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def split_seed(master_seed: int, *path: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and an index path.

    Children are independent of worker layout: trial t of cell c always gets
    split_seed(master, c, t), no matter which process runs it.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class FixedGap:
    """Deterministic class sizes |C1| = n/2 + delta, positions permuted by the RNG.

    delta is a half-integer; it is stored doubled so odd n never produces
    fractional counts.
    """

    twice_delta: int

    def __post_init__(self):
        if self.twice_delta < 0:
            raise ValueError("gap must be nonnegative")

    @classmethod
    def from_delta(cls, delta) -> "FixedGap":
        try:
            td = Fraction(delta) * 2
        except (OverflowError, ValueError):  # an infinite or NaN gap
            td = None
        if td is None or td.denominator != 1:
            raise ValueError(f"gap must be a half-integer, got {delta}")
        return cls(int(td))

    @property
    def delta(self) -> float:
        return self.twice_delta / 2

    def class_sizes(self, n: int) -> tuple[int, int]:
        if (n + self.twice_delta) % 2 != 0:
            raise ValueError(
                f"n/2 + delta must be an integer: n={n}, delta={self.delta}"
            )
        c1 = (n + self.twice_delta) // 2
        c2 = n - c1
        if c2 < 0:
            raise ValueError(f"delta={self.delta} too large for n={n}")
        return c1, c2


@dataclass(frozen=True)
class RandomHalf:
    """Every vertex independently colored 1 or 2 with probability 1/2 each."""


@dataclass(frozen=True)
class RandomBiased:
    """Every vertex independently colored 1 with probability q1, else 2."""

    q1: float

    def __post_init__(self):
        if not 0.0 <= self.q1 <= 1.0:
            raise ValueError(f"q1 must lie in [0,1], got {self.q1}")

    @property
    def q2(self) -> float:
        return 1.0 - self.q1


ColoringScheme = Union[FixedGap, RandomHalf, RandomBiased]


@dataclass(frozen=True)
class GraphParams:
    n: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")


class ColoredGraph:
    """Immutable simple graph with a {1,2}-coloring of its vertices."""

    __slots__ = ("n", "adj", "colors", "_color1_words", "_degrees")

    def __init__(self, n: int, adj: np.ndarray, colors: np.ndarray,
                 _degrees: Optional[np.ndarray] = None):
        if adj.shape != (n, _n_words(n)):
            raise ValueError("adjacency shape does not match n")
        colors = np.asarray(colors, dtype=np.int8)
        if colors.shape != (n,):
            raise ValueError("colors must have one entry per vertex")
        color1 = colors == 1
        if not (color1 | (colors == 2)).all():
            raise ValueError("colors must be 1 or 2")
        adj.setflags(write=False)
        colors.setflags(write=False)
        self.n = n
        self.adj = adj
        self.colors = colors
        self._color1_words = pack_color_mask(color1)
        self._color1_words.setflags(write=False)
        self._degrees = _degrees

    @property
    def color1_words(self) -> np.ndarray:
        return self._color1_words

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = popcount_rows(self.adj)
            self._degrees.setflags(write=False)
        return self._degrees

    def counts(self) -> tuple[int, int]:
        c1 = int((self.colors == 1).sum())
        return c1, self.n - c1

    def with_colors(self, colors: np.ndarray) -> "ColoredGraph":
        """New graph sharing this adjacency (and its cached degrees)."""
        return ColoredGraph(self.n, self.adj, colors, _degrees=self._degrees)

    def is_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u, v >> 6] >> np.uint64(v & 63)) & np.uint64(1))

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(unpack_row(self.adj[v], self.n))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = unpack_row(self.adj[u], self.n)
            for v in np.flatnonzero(row):
                if u < v:
                    out.append((u, int(v)))
        return out

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   colors: Iterable[int]) -> "ColoredGraph":
        adj = np.zeros((n, _n_words(n)), dtype=np.uint64)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
            adj[v, u >> 6] |= np.uint64(1) << np.uint64(u & 63)
        return cls(n, adj, np.asarray(list(colors), dtype=np.int8))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "edges": [[u, v] for u, v in self.edges()],
             "colors": [int(c) for c in self.colors]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ColoredGraph":
        d = json.loads(text)
        return cls.from_edges(d["n"], [tuple(e) for e in d["edges"]], d["colors"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.n == other.n
            and np.array_equal(self.adj, other.adj)
            and np.array_equal(self.colors, other.colors)
        )

    def __repr__(self) -> str:
        c1, c2 = self.counts()
        return f"ColoredGraph(n={self.n}, edges={int(popcount_rows(self.adj).sum()) // 2}, c1={c1}, c2={c2})"


def _geometric_skips(rng: np.random.Generator, p: float, size: int, cap: int) -> np.ndarray:
    """size draws of rng.geometric(p).  Below p = 1/3 numpy draws them as
    ceil(E / -log1p(-p)) for standard exponentials E; that formula, with the
    log taken once, gives the same values, here clamped at cap.  At p = 1
    every skip is 1, and nothing is drawn.
    """
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    if p >= 1.0 / 3.0:
        return rng.geometric(p, size=size)
    gaps = rng.standard_exponential(size)
    with np.errstate(over="ignore"):
        np.divide(gaps, -math.log1p(-p), out=gaps)
    np.ceil(gaps, out=gaps)
    return np.minimum(gaps, cap, out=gaps).astype(np.int64)


# Pairs drawn, mapped and scattered per block, so the block's arrays stay in L2
_BLOCK = 1 << 15


@functools.lru_cache(maxsize=4)
def _row_tables(n: int) -> tuple[np.ndarray, ...]:
    """Per row i, read-only and built once per n: the index of its first pair
    (pairs i < j are numbered row by row; the last entry is the pair count),
    that index - i - 1, i * W, i >> 6 and the bit 1 << (i & 63)."""
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - 1 - rows) >> 1
    tables = (starts, starts - rows - 1, rows * _n_words(n), rows >> 6,
              np.uint64(1) << (rows & 63).view(np.uint64))
    for t in tables:
        t.setflags(write=False)
    return tables


def _sample_adjacency(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Bit-packed G(n,p) adjacency.  Skips make the work proportional to the
    edge count; clamping them at n_pairs + 1, past which any skip ends the
    sample, keeps the sums from overflowing."""
    w = _n_words(n)
    adj = np.zeros((n, w), dtype=np.uint64)
    n_pairs = n * (n - 1) // 2
    if p <= 0.0 or n_pairs == 0:
        return adj
    flat = adj.reshape(-1)
    starts, offsets, row_words, bands, bits = _row_tables(n)

    def scatter(idx):
        # idx increases, so rows a - 1 .. b - 1 hold it, each as one run
        a, b = starts.searchsorted(idx[[0, -1]], side="right").tolist()
        ends = idx.searchsorted(starts[a - 1:b + 1])
        counts, rs = ends[1:] - ends[:-1], slice(a - 1, b)
        j = idx - offsets[rs].repeat(counts)
        # A simple graph sets each bit once, so adding bits into a word ors them.
        np.add.at(flat, row_words[rs].repeat(counts) + (j >> 6),
                  np.uint64(1) << (j & 63).view(np.uint64))
        np.add.at(flat, j * w + bands[rs].repeat(counts), bits[rs].repeat(counts))

    mean = n_pairs * p
    batch = min(int(mean + 10.0 * np.sqrt(mean + 1.0) + 16), 1 << 24)
    last = -1  # the last index drawn; n_pairs or more once the sample is done
    while last < n_pairs - 1:
        for lo in range(0, batch, _BLOCK):
            steps = _geometric_skips(rng, p, min(_BLOCK, batch - lo), n_pairs + 1)
            if last >= n_pairs:
                continue  # drawn only to leave the stream where one batch draw does
            steps[0] += last
            np.cumsum(steps, out=steps)
            cut = int(steps.searchsorted(n_pairs - 1, side="right"))
            if cut:
                scatter(steps[:cut])
            last = int(steps[-1])
    return adj


def sample_gnp(params: GraphParams, scheme: ColoringScheme) -> ColoredGraph:
    """Draw a G(n,p) graph and color it under the given scheme.

    Every unordered pair is present independently with probability p.  The
    adjacency is drawn first and the coloring second from a single stream
    seeded by params.seed, so equal inputs give bit-identical graphs.
    """
    n = params.n
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    adj = _sample_adjacency(rng, n, params.p)
    if isinstance(scheme, FixedGap):
        c1, c2 = scheme.class_sizes(n)
        base = np.repeat(np.array([1, 2], dtype=np.int8), (c1, c2))
        colors = base[rng.permutation(n)]
    elif isinstance(scheme, RandomHalf):
        colors = np.where(rng.random(n) < 0.5, 1, 2).astype(np.int8)
    elif isinstance(scheme, RandomBiased):
        colors = np.where(rng.random(n) < scheme.q1, 1, 2).astype(np.int8)
    else:
        raise TypeError(f"unknown coloring scheme: {scheme!r}")
    return ColoredGraph(n, adj, colors)


def degree_split(g: ColoredGraph, v: int) -> tuple[int, int]:
    """(d1, d2): how many neighbours of v currently hold color 1 / color 2."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    row = g.adj[v]
    d1 = int(np.bitwise_count(row & g.color1_words).sum())
    deg = int(np.bitwise_count(row).sum())
    return d1, deg - d1

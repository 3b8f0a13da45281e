"""Slow reference kernels that the fast ones in majlab are tested against.

`star_fourier` is the star Fourier table: one basis matrix over every subset
and every configuration of v's m - 1 star edges, 2^(m-1) of each.  It reads
nothing of the class-count kernel in `majlab.fourier`, not even mu_v or the
update rule, so it anchors those tables at m = 5..7, where the whole-cube
brute force (`conftest.brute_fourier`) is too slow.

`_sample_pair_indices` and `_pairs_from_linear` are the whole-array G(n,p)
sampler that `graphs.sample_gnp` streamed by blocks replaced: every present
pair index of the sample in one array, then every (i, j) pair.  They anchor
the blocked sampler's bits and the generator state it leaves.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from majlab.fourier import edge_list
from majlab.graphs import _geometric_skips


def star_edges(m: int, v: int) -> list[int]:
    """Bit index of each edge at v in canonical edge order: star edge j joins
    v to the j-th other vertex."""
    return [k for k, e in enumerate(edge_list(m)) if v in e]


def star_subset(m: int, v: int, s: int) -> int:
    """The subset (or configuration) mask over all C(m,2) edges of star
    subset s, whose bit j stands for star edge j."""
    return sum(1 << k for j, k in enumerate(star_edges(m, v)) if s >> j & 1)


def star_fourier(m: int, colors, v: int, p: Fraction,
                 power: int) -> tuple[list[Fraction], list[Fraction]]:
    """(r_S for every star subset S, Z_v^power on every star configuration
    x), both indexed by star mask (bit j = star edge j), exact.

    v keeps its color on biased day 1 where d1 - d2 >= -1 if it holds color
    1, and d1 - d2 <= -1 if it holds color 2 (the thresholds of
    `conftest.naive_step`); mu_v = 2 P(v keeps) - 1 over the same
    configurations, and r = Phi @ (w Z^power) with the star basis
    Phi[S, x] = prod_{e in S}(2 - 2p if x has e, else -2p).
    """
    p, k = Fraction(p), m - 1
    signs = np.array([1 if colors[u] == 1 else -1 for u in range(m) if u != v])
    present = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    margin = present @ signs
    keep = margin >= -1 if colors[v] == 1 else margin <= -1
    weights = np.array([p**e * (1 - p) ** (k - e) for e in present.sum(axis=1)],
                       dtype=object)
    mu = 2 * weights[keep].sum() - 1
    values = (np.where(keep, 1, -1).astype(object) - mu) ** power
    s, x = np.ogrid[:1 << k, :1 << k]
    basis = (np.power(2 - 2 * p, np.bitwise_count(s & x).astype(object))
             * np.power(-2 * p, np.bitwise_count(s & ~x).astype(object)))
    return (basis @ (weights * values)).tolist(), values.tolist()


def _sample_pair_indices(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Strictly increasing indices of present pairs among 0..n_pairs-1, each
    independently kept w.p. p.

    Geometric skips between successes, so work is proportional to the number
    of edges rather than the number of pairs.  Clamping skips at n_pairs + 1,
    past which any skip ends the sample, keeps the sums from overflowing.
    """
    if p <= 0.0 or n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    chunks = []
    pos = 0
    mean = n_pairs * p
    batch = min(int(mean + 10.0 * np.sqrt(mean + 1.0) + 16), 1 << 24)
    while pos < n_pairs:
        gaps = _geometric_skips(rng, p, batch, n_pairs + 1)
        gaps[0] += pos - 1
        steps = np.cumsum(gaps, out=gaps)
        cut = int(np.searchsorted(steps, n_pairs - 1, side="right"))
        chunks.append(steps[:cut])
        if cut < batch:
            break
        pos = int(steps[-1]) + 1
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _pairs_from_linear(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear upper-triangle indices to (i, j) with i < j.

    idx must be strictly increasing, as the geometric skips make it: then
    the pairs of row i are one contiguous run of idx, so searching the n
    row starts into idx gives every row's count, and i is each row repeated.
    """
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (n - 1) - rows * (rows - 1) // 2
    ends = np.searchsorted(idx, starts)
    counts, rows, starts = ends[1:] - ends[:-1], rows[:-1], starts[:-1]
    # j = i + 1 + (idx - starts[i]), with the per-row offset repeated
    return np.repeat(rows, counts), idx - np.repeat(starts - rows - 1, counts)

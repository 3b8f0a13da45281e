"""Slow reference kernels that the fast ones in majlab are tested against.

`star_fourier` is the star Fourier table: one basis matrix over every subset
and every configuration of v's m - 1 star edges, 2^(m-1) of each.  It reads
nothing of the class-count kernel in `majlab.fourier`, not even mu_v or the
update rule, so it anchors those tables at m = 5..7, where the whole-cube
brute force (`conftest.brute_fourier`) is too slow.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from majlab.fourier import edge_list


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

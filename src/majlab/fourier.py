"""Fourier analysis of the centered day-1 indicators over the edge cube.

Over {-1,1}^E for the C(m,2) potential edges of an m-vertex set, each edge
present (+1) independently with probability p, the orthonormal basis is

    Phi_S(x) = prod_{e in S} (x_e + 1 - 2p) / (2 sqrt(p(1-p))),

and coefficients f_hat(S) = E[f Phi_S] are kept as the exact rationals
r_S = E[f * prod_{e in S}(x_e + 1 - 2p)] together with |S|.

Z_v reads only the counts (k1, k2) of v's present star edges to color-1 and
color-2 vertices, so r_S is 0 off the star and depends only on S's class
counts (a, b): a table holds the (c1'+1)(c2'+1) values r(a, b), c1' and c2'
being v's other vertices of each color.  With a class's sums H and G
(`_class_sums`), w[k] = p^k (1-p)^(c-k) and Z[k1, k2] = Z_v^power,

    r = (H1 w1) @ Z @ (H2 w2)^T   and   Z = G1^T @ (r / (4p(1-p))^(a+b)) @ G2,

computed in Fractions at Fraction(p).  An exact table hands out Fractions
(arrays as lists), a float table each value rounded once to float64.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .dynamics import UpdateRule, takes_color1
from .probability import binom_pmf_exact
from .stats import compute_mu, is_exact

__all__ = ["FourierTable", "fourier_coefficients", "edge_list", "config_weights"]

_MAX_VERTICES = 7


def edge_list(m: int) -> list[tuple[int, int]]:
    """Canonical edge order: lexicographic pairs (i, j), i < j."""
    return list(itertools.combinations(range(m), 2))


def _powers(base, exponents: np.ndarray) -> np.ndarray:
    """base ** exponents elementwise: float64, or exact for a Fraction base."""
    exact = isinstance(base, Fraction)
    # np.power, because Fraction.__pow__ turns an array exponent into floats
    return np.power(base, exponents.astype(object if exact else np.float64))


def config_weights(p, n_edges: int, edges) -> np.ndarray:
    """G(n, p) weight p^e (1-p)^(E-e) of a configuration with e of its
    E = n_edges potential edges, for each edge count e in `edges`.

    float64 for a float p; Fractions in an object array for a Fraction p.
    """
    e = np.arange(n_edges + 1)
    return (_powers(p, e) * _powers(1 - p, n_edges - e))[np.asarray(edges)]


def _masses(hist: np.ndarray, p) -> list[Fraction]:
    """Exact G(n, p) mass of each column of an (E + 1) x K histogram of
    configurations by edge count.  At p = a/d, edge count e weighs
    a^e (d - a)^(E - e) / d^E: a column is one integer sum over d^E."""
    p = Fraction(p)
    a, d = p.numerator, p.denominator
    n_edges = len(hist) - 1
    weights = [a**e * (d - a) ** (n_edges - e) for e in range(n_edges + 1)]
    return [Fraction(sum(w * c for w, c in zip(weights, col) if c), d**n_edges)
            for col in hist.T.tolist()]


def _hand_out(values, exact: bool):
    """Exact values as handed out: as is (arrays as lists), or rounded once."""
    if isinstance(values, np.ndarray):
        return values.tolist() if exact else values.astype(np.float64)
    return values if exact else float(values)


def _class_stars(m: int, colors: Sequence[int], v: int) -> tuple[int, int]:
    """Subset masks of v's star edges to color-1 and to color-2 vertices."""
    star = [(k, i + j - v) for k, (i, j) in enumerate(edge_list(m)) if v in (i, j)]
    return tuple(sum(1 << k for k, u in star if colors[u] == c) for c in (1, 2))


def _class_sums(c: int, p: Fraction, per_subset: bool) -> np.ndarray:
    """Sums of prod_{e in S}(x_e + 1 - 2p), 2 - 2p per present and -2p per
    absent edge of S, in one class of c star edges: [a, k] for |S| = a and k
    edges present sums over the configurations for one S (H, per_subset) or
    over the subsets S for one configuration (G); i of S's edges present."""
    out = np.empty((c + 1, c + 1), dtype=object)
    for a, k in itertools.product(range(c + 1), repeat=2):
        x, y = (a, k) if per_subset else (k, a)
        out[a, k] = sum(math.comb(x, i) * math.comb(c - x, y - i)
                        * (2 - 2 * p) ** i * (-2 * p) ** (a - i)
                        for i in range(min(a, k) + 1))
    return out


def _z_grid(c1: int, c2: int, was1: bool, mu_v: Fraction, power: int) -> np.ndarray:
    """Z_v^power when k1 of v's c1 star edges to color-1 vertices and k2 of
    its c2 to color-2 vertices are present, as an object array [k1, k2]:
    1 - mu_v where v keeps its color on biased day 1, -1 - mu_v where not."""
    margin = np.subtract.outer(np.arange(c1 + 1), np.arange(c2 + 1))
    keep = takes_color1(margin, was1, UpdateRule.BIASED) == was1
    return (np.where(keep, 1, -1).astype(object) - mu_v) ** power


@dataclass
class FourierTable:
    """All coefficients of Z_v^power over the edge cube of an m-vertex set."""

    m: int
    colors: tuple[int, ...]
    v: int
    p: Union[float, Fraction]
    power: int
    exact: bool
    mu_v: Union[float, Fraction]
    scaled: Union[list, np.ndarray]  # r(a, b) flat in (a, b) row-major order
    # masks of v's star edges to each color; exact r(a, b); Z_v^power by (k1, k2)
    stars: tuple[int, int] = field(repr=False)
    r: np.ndarray = field(repr=False, compare=False)
    z: np.ndarray = field(repr=False, compare=False)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return edge_list(self.m)

    @property
    def n_edges(self) -> int:
        return self.m * (self.m - 1) // 2

    def _mask_of(self, s: Union[numbers.Integral, Iterable[tuple[int, int]]]) -> int:
        if isinstance(s, numbers.Integral):
            s = int(s)
            if not 0 <= s < 1 << self.n_edges:
                raise ValueError(
                    f"subset mask {s} out of range for {self.n_edges} edges")
            return s
        index = {e: k for k, e in enumerate(self.edges)}
        mask = 0
        for e in s:
            e = tuple(sorted(e))
            if e not in index:
                raise ValueError(f"not an edge of the vertex set: {e}")
            mask |= 1 << index[e]
        return mask

    @property
    def classes(self) -> tuple[int, int]:
        """c1', c2': the numbers of v's star edges to each color class."""
        return self.stars[0].bit_count(), self.stars[1].bit_count()

    def _norms_sq(self) -> np.ndarray:
        """(4p(1-p))^(a+b) per class, the squared norm of prod_{e in S}(x_e+1-2p)."""
        p = Fraction(self.p)
        return _powers(4 * p * (1 - p), np.add.outer(*map(np.arange, self.r.shape)))

    def _r(self, mask: int) -> Fraction:
        """Exact r_S of a subset mask: r(a, b) of its class, 0 off v's star."""
        if mask & ~(self.stars[0] | self.stars[1]):
            return Fraction(0)
        return self.r[tuple((mask & star).bit_count() for star in self.stars)]

    def coefficient_scaled(self, s) -> Union[float, Fraction]:
        """r_S = coefficient * (2 sqrt(p(1-p)))^|S| for a subset mask or edge
        list S; exact when p is rational, and 0 when S leaves v's star."""
        return _hand_out(self._r(self._mask_of(s)), self.exact)

    def coefficient(self, s) -> float:
        mask = self._mask_of(s)
        norm = 2.0 * math.sqrt(float(self.p) * (1.0 - float(self.p)))
        return float(self.coefficient_scaled(mask)) / norm ** mask.bit_count()

    def coefficient_sq(self, s) -> Union[float, Fraction]:
        """Squared coefficient; exact rational in exact mode."""
        mask, p = self._mask_of(s), Fraction(self.p)
        r = self._r(mask)  # 0 off v's star: skip the power there
        return _hand_out(r and r**2 / (4 * p * (1 - p)) ** mask.bit_count(), self.exact)

    @property
    def coefficients(self) -> dict[frozenset, float]:
        """Float coefficients keyed by edge subset, for every subset."""
        out, edges = {}, self.edges
        for mask in range(1 << self.n_edges):
            s = frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
            out[s] = self.coefficient(mask)
        return out

    def parseval_sum(self) -> Union[float, Fraction]:
        """sum_S coefficient(S)^2, which must equal E[(Z_v^power)^2]."""
        subsets = np.outer(*([math.comb(c, a) for a in range(c + 1)]
                             for c in self.classes))  # per class (a, b)
        return _hand_out(np.sum(subsets * self.r**2 / self._norms_sq()), self.exact)

    def _per_config(self, grid: np.ndarray) -> Union[list, np.ndarray]:
        """Values by present class counts (k1, k2) spread to every configuration."""
        configs = np.arange(1 << self.n_edges)
        index = tuple(np.bitwise_count(configs & star) for star in self.stars)
        return grid[index].tolist() if self.exact else grid.astype(np.float64)[index]

    def second_moment(self) -> Union[float, Fraction]:
        """E[(Z_v^power)^2] straight from the definition (Parseval's mate)."""
        p = Fraction(self.p)
        w = np.outer(*([binom_pmf_exact(c, p, k) for k in range(c + 1)]
                       for c in self.classes))  # P(k1) P(k2)
        return _hand_out(np.sum(w * self.z**2), self.exact)

    def function_values(self) -> Union[list, np.ndarray]:
        """Z_v^power on every configuration, recomputed from the definition."""
        return self._per_config(self.z)

    def reconstruct_all(self) -> Union[list, np.ndarray]:
        """Evaluate sum_S coefficient(S) Phi_S on every configuration at once."""
        p = Fraction(self.p)
        g1, g2 = (_class_sums(c, p, per_subset=False) for c in self.classes)
        return self._per_config(g1.T @ (self.r / self._norms_sq()) @ g2)


def fourier_coefficients(m: int, colors: Sequence[int], v: int, p,
                         power: int = 1,
                         exact: Optional[bool] = None) -> FourierTable:
    """Coefficients of Z_v^power (power >= 2: of that power of the centered
    indicator) by exact expectation over the counts of v's present star
    edges to each color class.  exact defaults to whether p is rational
    (`stats.is_exact`); a float table hands out each value rounded once."""
    if not 2 <= m <= _MAX_VERTICES:
        raise ValueError(f"vertex count must be in [2, {_MAX_VERTICES}], got {m}")
    colors = tuple(int(c) for c in colors)
    if len(colors) != m or any(c not in (1, 2) for c in colors):
        raise ValueError("colors must be a length-m sequence over {1, 2}")
    if not 0 <= v < m:
        raise ValueError(f"vertex {v} out of range")
    if power < 1:
        raise ValueError("power must be at least 1")
    if not 0 < p < 1:  # NaN fails too
        raise ValueError(f"p must lie in (0,1), got {p}")
    exact = is_exact(p) if exact is None else exact
    p = Fraction(p) if exact else float(p)
    q = Fraction(p)
    stars = _class_stars(m, colors, v)
    n1, n2 = (star.bit_count() for star in stars)
    # compute_mu refuses a coloring without both colors
    mu_v = compute_mu(colors.count(1), colors.count(2), q)[colors[v] - 1]
    z = _z_grid(n1, n2, colors[v] == 1, mu_v, power)
    h1, h2 = (_class_sums(c, q, per_subset=True) * config_weights(q, c, range(c + 1))
              for c in (n1, n2))
    r = h1 @ z @ h2.T
    return FourierTable(m, colors, v, p, power, exact, _hand_out(mu_v, exact),
                        _hand_out(r.ravel(), exact), stars, r, z)

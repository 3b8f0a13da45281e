"""Fourier analysis of the centered day-1 indicators over the edge cube.

The sample space is {-1,1}^E for the C(m,2) potential edges of an m-vertex
set, with each edge present (+1) independently with probability p.  The
orthonormal basis is

    Phi_S(x) = prod_{e in S} (x_e + 1 - 2p) / (2 sqrt(p(1-p))),

and coefficients of a function f are f_hat(S) = E[f Phi_S].  Because the
normalizer is irrational, each coefficient is kept internally as the exact
rational r_S = E[f * prod_{e in S}(x_e + 1 - 2p)] together with |S|, so that
squares, ratios, and reconstructions stay exact when p is rational.

Z_v reads only v's m - 1 star edges, so coefficients off the star are 0 and
a table stores the 2^(m-1) subsets of the star alone: with the star basis
matrix Phi[S, x] = prod_{e in S}(x_e + 1 - 2p), r = Phi @ (w Z^power) and the
reconstruction is Phi^T @ (r / (4p(1-p))^|S|).  Exact tables hold Fractions
and hand their values out as lists.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .dynamics import UpdateRule, takes_color1
from .stats import compute_mu

__all__ = ["FourierTable", "fourier_coefficients", "edge_list", "config_weights"]

_MAX_VERTICES = 7
_EXACT_DEFAULT_LIMIT = 5


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


def _set_sizes(n_bits: int) -> np.ndarray:
    """|S| of every subset mask S below 2^n_bits, as uint8."""
    return np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64))


def _move_bits(masks: np.ndarray, src, dst) -> np.ndarray:
    """Bit src[j] of each mask moved to bit dst[j]; every other bit dropped."""
    return sum(((masks >> s) & 1) << d for s, d in zip(src, dst))


@functools.cache
def _star(m: int, v: int) -> tuple[int, ...]:
    """Bit index of each edge at v in canonical edge order, so that star
    edge j joins v to the j-th other vertex."""
    return tuple(k for k, e in enumerate(edge_list(m)) if v in e)


def _keep_flags(m: int, colors: Sequence[int], v: int) -> np.ndarray:
    """For every configuration of v's star, does v keep its color on biased
    day 1.  Star edge j joins v to the j-th other vertex and adds that
    vertex's color sign to v's margin when present."""
    signs = np.array([1 if colors[u] == 1 else -1 for u in range(m) if u != v])
    present = np.arange(1 << (m - 1))[:, None] >> np.arange(m - 1) & 1
    was1 = colors[v] == 1
    return takes_color1(present @ signs, was1, UpdateRule.BIASED) == was1


def _z_powers(keep: np.ndarray, mu_v, power: int) -> np.ndarray:
    """Z_v^power per configuration from v's keep flags; exact for a Fraction mu_v."""
    signs = np.where(keep, np.int8(1), np.int8(-1))
    if isinstance(mu_v, Fraction):
        signs = signs.astype(object)
    return (signs - mu_v) ** power


def _basis(n_bits: int, p) -> np.ndarray:
    """Phi[S, x] = prod_{e in S}(x_e + 1 - 2p) over the subsets S and the
    configurations x of n_bits edges: 2 - 2p where x has e, -2p where not."""
    s, x = np.ogrid[:1 << n_bits, :1 << n_bits]
    return (_powers(2 - 2 * p, np.bitwise_count(s & x))
            * _powers(-2 * p, np.bitwise_count(s & ~x)))


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
    scaled: Union[list, np.ndarray]  # by star subset, bit j = star edge j
    # per configuration of v's star: does v keep its color on biased day 1
    keep: np.ndarray = field(repr=False, compare=False)

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

    def _norms_sq(self) -> np.ndarray:
        """(4p(1-p))^|S| per subset S of v's star: the squared norm of
        prod_{e in S}(x_e + 1 - 2p)."""
        return _powers(4 * self.p * (1 - self.p), _set_sizes(self.m - 1))

    def coefficient_scaled(self, s) -> Union[float, Fraction]:
        """r_S = coefficient * (2 sqrt(p(1-p)))^|S| for a subset mask or edge
        list S; exact when p is rational, and 0 when S leaves v's star."""
        mask, star = self._mask_of(s), _star(self.m, self.v)
        if mask & ~sum(1 << k for k in star):
            return Fraction(0) if self.exact else 0.0
        return self.scaled[_move_bits(mask, star, range(self.m - 1))]

    def coefficient(self, s) -> float:
        mask = self._mask_of(s)
        norm = 2.0 * math.sqrt(float(self.p) * (1.0 - float(self.p)))
        return float(self.coefficient_scaled(mask)) / norm ** mask.bit_count()

    def coefficient_sq(self, s) -> Union[float, Fraction]:
        """Squared coefficient; exact rational in exact mode."""
        mask = self._mask_of(s)
        r = self.coefficient_scaled(mask)
        r = r if self.exact else float(r)
        return r**2 / (4 * self.p * (1 - self.p)) ** mask.bit_count()

    @property
    def coefficients(self) -> dict[frozenset, float]:
        """Float coefficients keyed by edge subset, for every subset."""
        out = {}
        for mask in range(1 << self.n_edges):
            s = frozenset(e for k, e in enumerate(self.edges) if mask >> k & 1)
            out[s] = self.coefficient(mask)
        return out

    def parseval_sum(self) -> Union[float, Fraction]:
        """sum_S coefficient(S)^2, which must equal E[(Z_v^power)^2]."""
        total = np.sum(np.asarray(self.scaled) ** 2 / self._norms_sq())
        return total if self.exact else float(total)

    def _per_config(self, star_values: np.ndarray) -> Union[list, np.ndarray]:
        """Values over v's star configurations spread to every configuration:
        lists of Fractions from exact tables, arrays from float tables."""
        configs = np.arange(1 << self.n_edges)
        a = star_values[_move_bits(configs, _star(self.m, self.v), range(self.m - 1))]
        return a.tolist() if self.exact else a

    def second_moment(self) -> Union[float, Fraction]:
        """E[(Z_v^power)^2] straight from the definition (Parseval's mate)."""
        k = self.m - 1
        w = config_weights(self.p, k, _set_sizes(k))
        total = np.sum(w * _z_powers(self.keep, self.mu_v, self.power) ** 2)
        return total if self.exact else float(total)

    def function_values(self) -> Union[list, np.ndarray]:
        """Z_v^power on every configuration, recomputed from the definition."""
        return self._per_config(_z_powers(self.keep, self.mu_v, self.power))

    def reconstruct_all(self) -> Union[list, np.ndarray]:
        """Evaluate sum_S coefficient(S) Phi_S on every configuration at once."""
        c = np.asarray(self.scaled) / self._norms_sq()
        return self._per_config(_basis(self.m - 1, self.p).T @ c)


def fourier_coefficients(m: int, colors: Sequence[int], v: int, p,
                         power: int = 1,
                         exact: Optional[bool] = None) -> FourierTable:
    """Coefficients of Z_v^power by exact expectation over the 2^(m-1)
    configurations of v's star; those off the star are 0 and not stored.

    Exact-rational arithmetic is the default for m <= 5 (p is converted to a
    Fraction); larger m uses float64.  power >= 2 gives the coefficients of
    the corresponding power of the centered indicator.
    """
    if not 2 <= m <= _MAX_VERTICES:
        raise ValueError(f"vertex count must be in [2, {_MAX_VERTICES}], got {m}")
    colors = tuple(int(c) for c in colors)
    if len(colors) != m or any(c not in (1, 2) for c in colors):
        raise ValueError("colors must be a length-m sequence over {1, 2}")
    if not 0 <= v < m:
        raise ValueError(f"vertex {v} out of range")
    if power < 1:
        raise ValueError("power must be at least 1")
    if exact is None:
        exact = m <= _EXACT_DEFAULT_LIMIT
    c1 = sum(1 for c in colors if c == 1)
    c2 = m - c1
    if c1 < 1 or c2 < 1:
        raise ValueError("both colors must appear")
    q = Fraction(p) if exact else float(p)
    if not 0 < q < 1:
        raise ValueError(f"p must lie in (0,1), got {p}")
    mu1, mu2 = compute_mu(c1, c2, q)
    mu_v = mu1 if colors[v] == 1 else mu2
    keep = _keep_flags(m, colors, v)
    k = m - 1
    r = _basis(k, q) @ (config_weights(q, k, _set_sizes(k))
                        * _z_powers(keep, mu_v, power))
    return FourierTable(m, colors, v, q, power, exact, mu_v,
                        r.tolist() if exact else r, keep)

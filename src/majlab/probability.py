"""Exact finite probability: binomial pmfs, differences of binomials, normal CDF.

The float paths are built on the Boost binomial pmf/cdf ufuncs in
scipy.special, the ones scipy.stats.binom wraps, called directly so that
importing this module does not load scipy.stats.  They keep relative error
near machine precision even for n ~ 1e6.  Full difference tables use direct
convolution; single values for large n use a window of +-12 standard
deviations, whose neglected mass is below 1e-25.
Exact-rational twins of the small cases back the float paths in tests and
in oracle mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special._ufuncs import _binom_cdf, _binom_pmf

__all__ = [
    "BERRY_ESSEEN_C",
    "binom_pmf",
    "binom_cdf",
    "BinDiffDist",
    "bindiff_pmf",
    "bindiff_cdf",
    "normal_cdf",
    "normal_cdf_centered",
    "normal_pdf",
    "binom_pmf_exact",
    "bindiff_pmf_exact",
    "bindiff_geq_exact",
]

# Berry-Esseen universal constant used by every bound in this package.
BERRY_ESSEEN_C = 0.56

_SQRT2 = math.sqrt(2.0)
_FULL_TABLE_LIMIT = 20_000  # max n1 + n2 for direct convolution tables
_WINDOW_SIGMAS = 12.0


def _pmf(k, n: int, p: float):
    """P(Bin(n,p) = k) for k in [0, n], bit for bit scipy.stats.binom.pmf.

    Like scipy, clip to [0, 1]: at k = 0 and p ~ 1e-300 Boost returns
    1 + 3e-14.  NaN for p outside [0, 1].
    """
    return np.clip(_binom_pmf(k, n, p), 0.0, 1.0)


def _cdf(k, n: int, p: float):
    """P(Bin(n,p) <= floor(k)), bit for bit scipy.stats.binom.cdf.

    Boost returns NaN outside [0, n]; scipy floors k, gives 0 below the
    support and 1 from n on, and NaN for every k when p is outside [0, 1].
    """
    k = np.floor(k)
    out = np.where(k < 0, 0.0, np.where(k >= n, 1.0, _binom_cdf(k, n, p)))
    return np.where((p >= 0) & (p <= 1), np.clip(out, 0.0, 1.0), np.nan)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"p must lie in [0,1], got {p}")


def binom_pmf(n: int, p: float, k: int) -> float:
    """P(Bin(n,p) = k)."""
    _check_p(p)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return float(_pmf(k, n, p))


def binom_cdf(n: int, p: float, k: float) -> float:
    """P(Bin(n,p) <= k)."""
    _check_p(p)
    return float(_cdf(k, n, p))


class BinDiffDist:
    """Exact distribution of X1 - X2 for independent Bin(n1,p), Bin(n2,p).

    The pmf table spans the full support [-n2, n1]; cdf_table is its
    running sum.
    """

    def __init__(self, n1: int, n2: int, p: float):
        if n1 < 0 or n2 < 0:
            raise ValueError("trial counts must be nonnegative")
        _check_p(p)
        if n1 + n2 > _FULL_TABLE_LIMIT:
            raise ValueError(
                f"full table limited to n1+n2 <= {_FULL_TABLE_LIMIT}; "
                "use bindiff_pmf/bindiff_cdf for point values"
            )
        self.n1, self.n2, self.p = n1, n2, p
        p1 = _pmf(np.arange(n1 + 1), n1, p)
        p2 = _pmf(np.arange(n2 + 1), n2, p)
        # index m of the table corresponds to d = m - n2
        self.table = np.convolve(p1, p2[::-1])
        self.cdf_table = np.cumsum(self.table)

    @property
    def support(self) -> range:
        return range(-self.n2, self.n1 + 1)

    def pmf(self, d: int) -> float:
        m = d + self.n2
        if not 0 <= m < self.table.shape[0]:
            return 0.0
        return float(self.table[m])

    def cdf(self, d: int) -> float:
        m = d + self.n2
        if m < 0:
            return 0.0
        if m >= self.table.shape[0]:
            return 1.0
        return float(self.cdf_table[m])

    def total_mass(self) -> float:
        return float(self.cdf_table[-1])

    def mode(self) -> int:
        return int(np.argmax(self.table)) - self.n2


def _window(n: int, p: float) -> tuple[int, int]:
    mu = n * p
    sd = math.sqrt(max(n * p * (1.0 - p), 1.0))
    lo = max(0, int(mu - _WINDOW_SIGMAS * sd) - 2)
    hi = min(n, int(mu + _WINDOW_SIGMAS * sd) + 2)
    return lo, hi


def bindiff_pmf(n1: int, n2: int, p: float, d: int) -> float:
    """P(Bin(n1,p) - Bin(n2,p) = d); 0 outside the support.

    Sums pmf1(k+d) * pmf2(k) over a +-12-sigma window of X2 (error below
    the 1e-25 scale of the discarded tails).  p must lie in [0, 1].
    """
    _check_p(p)
    if d > n1 or d < -n2:
        return 0.0
    lo, hi = _window(n2, p)
    lo = max(lo, -d)
    hi = min(hi, n1 - d)
    if hi < lo:
        return 0.0
    k = np.arange(lo, hi + 1)
    terms = _pmf(k + d, n1, p) * _pmf(k, n2, p)
    return float(math.fsum(terms))


def bindiff_cdf(n1: int, n2: int, p: float, d: int) -> float:
    """P(Bin(n1,p) - Bin(n2,p) <= d), via sum_k pmf2(k) * cdf1(k + d).

    k runs over a +-12-sigma window of X2; the two omitted X2 tails carry
    mass below 1e-25 each.  p must lie in [0, 1].
    """
    _check_p(p)
    if d >= n1:
        return 1.0
    if d < -n2:
        return 0.0
    lo, hi = _window(n2, p)
    k = np.arange(lo, hi + 1)
    terms = _pmf(k, n2, p) * _cdf(k + d, n1, p)
    return min(1.0, max(0.0, math.fsum(terms)))


def normal_cdf(a: float) -> float:
    """Standard normal CDF via erfc; absolute error at machine scale."""
    return 0.5 * math.erfc(-a / _SQRT2)


def normal_cdf_centered(a: float) -> float:
    """Phi(a) - 1/2, computed without cancellation near 0."""
    return 0.5 * math.erf(a / _SQRT2)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# ----------------------------------------------------------------------
# exact-rational twins (oracle mode; p must be a Fraction)


@lru_cache(maxsize=None)
def _binom_pmf_exact_cached(n: int, p: Fraction, k: int) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_pmf_exact(n: int, p: Union[Fraction, int], k: int) -> Fraction:
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return _binom_pmf_exact_cached(n, Fraction(p), k)


def bindiff_pmf_exact(n1: int, n2: int, p: Union[Fraction, int], d: int) -> Fraction:
    p = Fraction(p)
    total = Fraction(0)
    for k in range(max(0, -d), min(n2, n1 - d) + 1):
        total += binom_pmf_exact(n1, p, k + d) * binom_pmf_exact(n2, p, k)
    return total


def bindiff_geq_exact(n1: int, n2: int, p: Union[Fraction, int], d: int) -> Fraction:
    """P(Bin(n1,p) - Bin(n2,p) >= d), exact."""
    p = Fraction(p)
    total = Fraction(0)
    for t in range(max(d, -n2), n1 + 1):
        total += bindiff_pmf_exact(n1, n2, p, t)
    return total

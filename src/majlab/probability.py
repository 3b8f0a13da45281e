"""Exact finite probability: binomial pmfs, differences of binomials, normal CDF.

The float paths are built on the Boost binomial pmf/cdf ufuncs in
scipy.special, the ones scipy.stats.binom wraps, called directly so that
importing this module does not load scipy.stats.  They keep relative error
near machine precision even for n ~ 1e6.  They and appendix_a's ndtr come
from scipy.special._ufuncs alone, without the scipy.special __init__, whose
array-API layer cost 0.2 s of every start-up; scipy's OpenBLAS, which that
module starts, is loaded with its idle workers asleep instead of spinning.
Every float value of X1 - X2, table or point, is a value of one direct
convolution of the two pmfs over windows whose half-width t solves
Bernstein's t^2 = 129 (npq + t/3), so each omitted tail of X1 or X2
carries mass below e^-64.5 ~ 1e-28; bindiff_pmf sums only its own value.
Exact-rational twins of the small cases back the float paths in tests and
in oracle mode.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import types
from fractions import Fraction
from itertools import accumulate
from typing import Union

import numpy as np

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


def _special_ufuncs() -> types.ModuleType:
    """scipy.special._ufuncs, loaded without the scipy.special __init__: a
    bare package stands in for scipy.special while the extension loads, and a
    later `import scipy.special` runs the real __init__, which reuses it.
    The extension starts scipy's own OpenBLAS, whose idle workers would spin
    2^28 cycles (~0.1 s of a core, inside the caller's first work) before they
    sleep; OPENBLAS_THREAD_TIMEOUT=4 for the load, unless set, sleeps them."""
    if "scipy.special" in sys.modules:
        return importlib.import_module("scipy.special._ufuncs")
    bare = types.ModuleType("scipy.special")
    bare.__path__ = importlib.util.find_spec("scipy.special").submodule_search_locations
    sys.modules["scipy.special"] = bare
    quiet = "OPENBLAS_THREAD_TIMEOUT" not in os.environ
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]
        if quiet:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_ufuncs = _special_ufuncs()
_binom_pmf, _binom_cdf, ndtr = _ufuncs._binom_pmf, _ufuncs._binom_cdf, _ufuncs.ndtr


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


def _check_counts(n1: int, n2: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ValueError(f"trial counts must be nonnegative, got {n1}, {n2}")


def binom_pmf(n: int, p: float, k: int) -> float:
    """P(Bin(n,p) = k)."""
    _check_p(p)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return float(_pmf(k, n, p))


def binom_cdf(n: int, p: float, k: float) -> float:
    """P(Bin(n,p) <= k); k = -inf or inf gives 0 or 1."""
    _check_p(p)
    if math.isnan(k):
        raise ValueError(f"k={k} is not a number")
    return float(_cdf(k, n, p))


class BinDiffDist:
    """Distribution of X1 - X2 for independent Bin(n1,p), Bin(n2,p).

    The pmf table spans the full support [-n2, n1] and holds _bindiff_window's
    values, 0 outside the window (each omitted tail is below 1e-28);
    cdf_table is its running sum.
    """

    def __init__(self, n1: int, n2: int, p: float):
        lo, w = _bindiff_window(n1, n2, p)
        self.n1, self.n2, self.p = n1, n2, p
        # index m of the table corresponds to d = m - n2
        self.table = np.zeros(n1 + n2 + 1)
        self.table[lo + n2:lo + n2 + w.shape[0]] = w
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
        if d >= self.n1:
            return 1.0
        # a running sum of rounded pmfs can pass 1 by a few ulps
        return min(1.0, float(self.cdf_table[m]))

    def total_mass(self) -> float:
        return float(self.cdf_table[-1])

    def mode(self) -> int:
        return int(np.argmax(self.table)) - self.n2


def _window(n: int, p: float) -> tuple[int, int]:
    # Bernstein: each tail of Bin(n,p) beyond mu +- t is below
    # exp(-t^2 / (2 (npq + t/3))) = e^-64.5, as t^2 = 129 (npq + t/3)
    mu = n * p
    t = (43.0 + math.sqrt(43.0**2 + 516.0 * mu * (1.0 - p))) / 2.0
    return max(0, math.floor(mu - t)), min(n, math.ceil(mu + t))


def _bindiff_window(n1: int, n2: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, w) with w[i] = P(X1 - X2 = lo + i), X1 and X2 in their _windows.

    The one float summation of X1 - X2: X1's pmf convolved with X2's pmf
    reversed, so w starts at d = lo1 - hi2.
    """
    _check_counts(n1, n2)
    _check_p(p)
    lo1, hi1 = _window(n1, p)
    lo2, hi2 = _window(n2, p)
    return lo1 - hi2, np.convolve(_pmf(np.arange(lo1, hi1 + 1), n1, p),
                                  _pmf(np.arange(hi2, lo2 - 1, -1), n2, p))


def bindiff_pmf(n1: int, n2: int, p: float, d: int) -> float:
    """P(Bin(n1,p) - Bin(n2,p) = d): BinDiffDist's value, bit for bit, from the
    pmfs over the overlap of the two windows alone.

    np.convolve, which builds the table, pairs the longer factor ascending
    with the shorter one reversed, and sums the products by one BLAS dot, or,
    where a factor of at most 11 entries overlaps in full, by numpy's
    small-kernel loop, a plain running sum.  The same products in the same
    order give the same value.
    """
    _check_counts(n1, n2)
    _check_p(p)
    lo1, hi1 = _window(n1, p)
    lo2, hi2 = _window(n2, p)
    # the terms X2 = k, X1 = k + d for k in [a, b]
    a, b = max(lo2, lo1 - d), min(hi2, hi1 - d)
    if a > b:
        return 0.0
    k = np.arange(a, b + 1) if hi2 - lo2 <= hi1 - lo1 else np.arange(b, a - 1, -1)
    terms = _pmf(k + d, n1, p), _pmf(k, n2, p)
    if b - a == min(hi1 - lo1, hi2 - lo2) <= 10:
        return float(np.cumsum(terms[0] * terms[1])[-1])
    return float(np.dot(*terms))


def bindiff_cdf(n1: int, n2: int, p: float, d: int) -> float:
    """P(Bin(n1,p) - Bin(n2,p) <= d): BinDiffDist's value, without its table."""
    lo, w = _bindiff_window(n1, n2, p)
    if d < lo:
        return 0.0
    if d >= n1:
        return 1.0
    return min(1.0, float(np.cumsum(w)[min(d - lo, w.shape[0] - 1)]))


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


def binom_pmf_exact(n: int, p: Union[Fraction, int], k: int) -> Fraction:
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    p = Fraction(p)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def _pmf_numerators(n: int, p: Fraction) -> list[int]:
    """b^n P(Bin(n,p) = k) = C(n,k) a^k (b-a)^(n-k) for k in [0, n], p = a/b,
    by the exact ratio N_(k+1) = N_k (n-k) a / ((k+1)(b-a))."""
    a, b = p.numerator, p.denominator
    if a == b:
        return [0] * n + [1]
    out = [(b - a) ** n]
    for k in range(n):
        out.append(out[-1] * (n - k) * a // ((k + 1) * (b - a)))
    return out


def bindiff_pmf_exact(n1: int, n2: int, p: Union[Fraction, int], d: int) -> Fraction:
    _check_counts(n1, n2)
    p = Fraction(p)
    total = Fraction(0)
    for k in range(max(0, -d), min(n2, n1 - d) + 1):
        total += binom_pmf_exact(n1, p, k + d) * binom_pmf_exact(n2, p, k)
    return total


def bindiff_geq_exact(n1: int, n2: int, p: Union[Fraction, int], d: int) -> Fraction:
    """P(Bin(n1,p) - Bin(n2,p) >= d) = sum_k P(X2 = k) P(X1 >= k + d), exact."""
    _check_counts(n1, n2)
    p = Fraction(p)
    # integers over one denominator: tail[j] = b^n1 P(X1 >= j), j in [0, n1 + 1]
    tail = [*accumulate(reversed(_pmf_numerators(n1, p)))][::-1] + [0]
    return Fraction(sum(w * tail[min(max(k + d, 0), n1 + 1)]
                        for k, w in enumerate(_pmf_numerators(n2, p))),
                    p.denominator ** (n1 + n2))

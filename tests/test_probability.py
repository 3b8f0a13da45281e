import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

import majlab
from majlab import probability
from majlab.probability import (BERRY_ESSEEN_C, BinDiffDist, bindiff_cdf,
                                bindiff_geq_exact, bindiff_pmf,
                                bindiff_pmf_exact, binom_cdf, binom_pmf,
                                binom_pmf_exact, normal_cdf,
                                normal_cdf_centered, normal_pdf)

from conftest import brute_bindiff_geq, brute_bindiff_pmf


def test_binom_pmf_basics():
    assert binom_pmf(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
    for n, p in [(5, 0.2), (17, 0.9), (40, 0.01)]:
        assert binom_pmf(n, p, 0) == pytest.approx((1 - p) ** n, rel=1e-12)
    # exact decimal: C(10,3) (3/10)^3 (7/10)^7 = 0.266827932
    assert binom_pmf(10, 0.3, 3) == pytest.approx(0.266827932, rel=1e-10)


def test_binom_pmf_range_errors():
    with pytest.raises(ValueError):
        binom_pmf(5, 0.3, 6)
    with pytest.raises(ValueError):
        binom_pmf(5, 0.3, -1)


def test_binom_pmf_matches_exact_rational(rng):
    for _ in range(40):
        n = int(rng.integers(1, 2000))
        k = int(rng.integers(0, n + 1))
        p = Fraction(int(rng.integers(1, 99)), 100)
        exact = float(binom_pmf_exact(n, p, k))
        if exact < 1e-280:  # beyond float territory
            continue
        got = binom_pmf(n, float(p), k)
        assert abs(got / exact - 1) < 1e-10


def test_binom_pmf_large_n_relative_error():
    # saddle-point accuracy at n = 10^6 against 40-digit arithmetic
    import mpmath as mp
    mp.mp.dps = 40
    n, p = 10**6, 0.3
    for k in (300_000, 299_000, 305_000, 298_200):
        hi = mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1)
                    - mp.loggamma(n - k + 1)
                    + k * mp.log(mp.mpf(p)) + (n - k) * mp.log(1 - mp.mpf(p)))
        assert abs(binom_pmf(n, p, k) / float(hi) - 1) < 1e-10


def test_bindiff_simple_values():
    assert bindiff_pmf(1, 1, 0.5, 0) == pytest.approx(0.5, abs=1e-14)
    # brute force over all 2^10 outcomes: 0.216369321 exactly
    assert bindiff_pmf(5, 5, 0.3, 1) == pytest.approx(0.216369321, rel=1e-12)
    assert bindiff_pmf(5, 5, 0.3, 6) == 0.0
    assert bindiff_pmf(5, 5, 0.3, -6) == 0.0


def test_bindiff_symmetry():
    for n1, n2, p, d in [(5, 3, 0.3, 2), (10, 10, 0.7, -4), (2, 9, 0.45, 1)]:
        assert bindiff_pmf(n1, n2, p, d) == pytest.approx(
            bindiff_pmf(n2, n1, p, -d), rel=1e-12)
        dist = BinDiffDist(n1, n2, p)
        mirror = BinDiffDist(n2, n1, p)
        for t in dist.support:
            assert dist.pmf(t) == pytest.approx(mirror.pmf(-t), rel=1e-11,
                                                 abs=1e-300)


def test_bindiff_table_mass_and_cdf():
    for n1, n2, p in [(50, 30, 0.2), (7, 7, 0.5), (200, 100, 0.04)]:
        dist = BinDiffDist(n1, n2, p)
        assert abs(dist.total_mass() - 1.0) < 1e-12
        assert (dist.table >= 0).all()
        assert dist.cdf(n1) == pytest.approx(1.0, abs=1e-12)
        assert dist.cdf(-n2 - 1) == 0.0
        # windowed point values agree with the table
        for d in (-3, 0, 1, 5):
            assert bindiff_pmf(n1, n2, p, d) == pytest.approx(
                dist.pmf(d), rel=1e-11, abs=1e-300)
            assert bindiff_cdf(n1, n2, p, d) == pytest.approx(
                dist.cdf(d), rel=1e-11)


def test_bindiff_unimodal_when_equal_counts():
    for n, p in [(20, 0.3), (55, 0.77), (128, 0.5)]:
        dist = BinDiffDist(n, n, p)
        assert dist.mode() == 0
        for d in range(0, n):
            assert dist.pmf(d) >= dist.pmf(d + 1) - 1e-18
            assert dist.pmf(-d) >= dist.pmf(-d - 1) - 1e-18


def test_bindiff_large_n_windowed_sanity():
    n = 120_000
    p = 0.4
    got = bindiff_pmf(n, n, p, 0)
    approx = 1.0 / math.sqrt(4 * math.pi * n * p * (1 - p))
    assert got == pytest.approx(approx, rel=1e-2)
    assert bindiff_cdf(n, n, p, 0) == pytest.approx(0.5 + got / 2, rel=1e-9)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(-6, 6),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                    max_denominator=20))
@settings(deadline=None, max_examples=60)
def test_bindiff_matches_brute_force(n1, n2, d, p):
    exact = brute_bindiff_pmf(n1, n2, p, d)
    assert bindiff_pmf_exact(n1, n2, p, d) == exact
    assert bindiff_pmf(n1, n2, float(p), d) == pytest.approx(
        float(exact), rel=1e-10, abs=1e-15)
    geq = brute_bindiff_geq(n1, n2, p, d)
    assert bindiff_geq_exact(n1, n2, p, d) == geq
    assert 1.0 - bindiff_cdf(n1, n2, float(p), d - 1) == pytest.approx(
        float(geq), rel=1e-9, abs=1e-12)


def test_table_limit_enforced():
    with pytest.raises(ValueError):
        BinDiffDist(15_000, 15_000, 0.5)


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(8.0) - 1.0) < 1e-12
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert normal_cdf(-1.0) == pytest.approx(1 - 0.8413447460685429, abs=1e-14)
    for a in np.linspace(-6, 6, 41):
        assert abs(normal_cdf(-a) - (1.0 - normal_cdf(a))) < 1e-14


def test_normal_cdf_centered_no_cancellation():
    assert normal_cdf_centered(0.0) == 0.0
    assert normal_cdf_centered(1e-8) == pytest.approx(3.9894228040143267e-9,
                                                      rel=1e-12)
    assert normal_cdf_centered(-1e-8) == -normal_cdf_centered(1e-8)


def test_normal_pdf():
    assert normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)
    assert normal_pdf(2.0) == pytest.approx(math.exp(-2) / math.sqrt(2 * math.pi),
                                            rel=1e-15)


def test_berry_esseen_constant():
    assert BERRY_ESSEEN_C == 0.56


def test_binom_cdf_consistency():
    n, p = 30, 0.35
    acc = 0.0
    for k in range(n + 1):
        acc += binom_pmf(n, p, k)
        assert binom_cdf(n, p, k) == pytest.approx(acc, rel=1e-11)


# ----------------------------------------------------------------------
# the Boost ufuncs against scipy.stats.binom, bit for bit

_NS = (0, 1, 2, 63, 64, 65, 1000, 20000)
_PS = (0.0, 1e-6, 0.01, 0.5, 0.99, 1.0)
_BAD_PS = (-0.5, 1.5, math.nan)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_binom_matches_scipy_stats_bitwise():
    for n in _NS:
        ks = np.arange(-3, n + 4)
        inside = np.arange(n + 1)
        frac = np.concatenate([ks + 0.5, ks - 0.25, [math.inf, -math.inf,
                                                      math.nan]])
        # the scalar API at every k up to n = 1000, at a stride beyond
        pick = ks if n <= 1000 else np.unique(np.r_[ks[::97], ks[-8:]])
        pick_in = pick[(pick >= 0) & (pick <= n)]
        for p in _PS + _BAD_PS:
            assert (_bits(probability._pmf(inside, n, p))
                    == _bits(binom.pmf(inside, n, p))).all(), (n, p)
            for k in (ks, frac):
                assert (_bits(probability._cdf(k, n, p))
                        == _bits(binom.cdf(k, n, p))).all(), (n, p)
            if p not in _PS:  # the scalar API rejects these
                continue
            got = [binom_pmf(n, p, int(k)) for k in pick_in]
            assert (_bits(got) == _bits(binom.pmf(pick_in, n, p))).all()
            for k in (pick, pick + 0.5):
                got = [binom_cdf(n, p, float(k_)) for k_ in k]
                assert (_bits(got) == _bits(binom.cdf(k, n, p))).all(), (n, p)
        for k in (-1, n + 1):
            with pytest.raises(ValueError):
                binom_pmf(n, 0.5, k)
    # Boost's pmf exceeds 1 here by 3e-14; scipy.stats clips, and so do we
    assert binom_pmf(1, 1e-300, 0) == 1.0


@pytest.mark.parametrize("p", _BAD_PS + (-1, math.inf))
def test_binom_rejects_p_outside_unit_interval(p):
    # as BinDiffDist, bindiff_pmf and bindiff_cdf do, rather than answer NaN
    for k in (-2, 0, 2, 9):
        with pytest.raises(ValueError, match="p must lie in"):
            binom_cdf(5, p, k)
    with pytest.raises(ValueError, match="p must lie in"):
        binom_pmf(5, p, 2)
    with pytest.raises(ValueError, match="p must lie in"):
        bindiff_cdf(5, 5, p, 0)


def test_bindiff_matches_scipy_stats_bitwise(monkeypatch):
    # the same code with scipy.stats.binom behind every binomial value
    def values():
        out = []
        for n1 in _NS:
            for n2 in _NS:
                for p in _PS:
                    for d in sorted({-n2 - 1, -n2, -1, 0, 1, (n1 - n2) // 2,
                                     n1 - 1, n1, n1 + 1}):
                        out += [bindiff_pmf(n1, n2, p, d),
                                bindiff_cdf(n1, n2, p, d)]
                    if n1 + n2 <= 20000 and (n1 <= 1000 or n2 == 0):
                        dist = BinDiffDist(n1, n2, p)
                        out += [*dist.table, *dist.cdf_table]
        return np.array(out)

    ours = values()
    monkeypatch.setattr(probability, "_pmf", binom.pmf)
    monkeypatch.setattr(probability, "_cdf", binom.cdf)
    assert (_bits(ours) == _bits(values())).all()


def test_bindiff_rejects_bad_p():
    # d = 9 and d = -9 are the early returns outside the support
    for p in _BAD_PS:
        for d in (-9, 0, 9):
            with pytest.raises(ValueError):
                bindiff_pmf(5, 5, p, d)
            with pytest.raises(ValueError):
                bindiff_cdf(5, 5, p, d)
        with pytest.raises(ValueError):
            BinDiffDist(5, 5, p)


def test_bindiff_cdf_accurate_on_largest_tables():
    # the cdf is one np.cumsum; on the largest workload tables it stays
    # within a few ulps of an exactly rounded running sum
    for n1, n2 in [(10_000, 10_000), (12_000, 8_000)]:
        for p in (0.01, 0.5):
            dist = BinDiffDist(n1, n2, p)
            assert abs(dist.total_mass() - 1.0) <= 1e-13, (n1, n2, p)
            mode = dist.mode()
            step = round(3 * math.sqrt((n1 + n2) * p * (1 - p)))
            for d in (mode, mode - step, mode + step, -n2, n1):
                ref = math.fsum(dist.table[:d + n2 + 1])
                assert abs(dist.cdf(d) - ref) <= 1e-14, (n1, n2, p, d)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of start-up; majlab must not load it
    src = str(Path(majlab.__file__).resolve().parent.parent)
    code = ("import sys, majlab, majlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

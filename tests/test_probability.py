import itertools
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

from majlab.stats import compute_mu, compute_mu_exact

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
        # point values are the table's values
        for d in (-3, 0, 1, 5):
            assert bindiff_pmf(n1, n2, p, d) == dist.pmf(d)
            assert bindiff_cdf(n1, n2, p, d) == dist.cdf(d)
    # bindiff_pmf sums only the overlap of the two windows, in the table's
    # order: either window the longer, windows of at most 11 entries in full
    # or partial overlap, p at and next to 0 and 1, and d past the support
    pairs = [(0, 0), (1, 0), (0, 3), (1, 1), (2, 1), (5, 5), (10, 7), (7, 30),
             (10, 10), (11, 11), (12, 2), (50, 30), (30, 50), (200, 100),
             (1, 400), (3000, 20)]
    for (n1, n2), p in itertools.product(
            pairs, (0.0, 1e-300, 0.04, 0.2, 0.5, 0.93, 1.0)):
        dist = BinDiffDist(n1, n2, p)
        for d in range(-n2 - 2, n1 + 3, max(1, (n1 + n2) // 150)):
            assert bindiff_pmf(n1, n2, p, d) == dist.pmf(d), (n1, n2, p, d)


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


@pytest.mark.parametrize("n,p", [(0, 0.3), (1, 0.5), (10, 0.0), (10, 1.0),
                                 (100, 0.01), (1000, 0.01), (1000, 0.999),
                                 (5000, 0.5), (20000, 1e-4)])
def test_window_tails_below_bound(n, p):
    # each tail of Bin(n,p) outside _window sums below e^-64.5 ~ 1e-28
    lo, hi = probability._window(n, p)
    assert 0 <= lo <= hi <= n
    assert math.fsum(probability._pmf(np.arange(0, lo), n, p)) < 1e-28
    assert math.fsum(probability._pmf(np.arange(hi + 1, n + 1), n, p)) < 1e-28


def test_window_keeps_small_point_masses():
    # a point mass near 3e-15 that a +-12-sigma window of X2 misses, against
    # 50-digit arithmetic
    import mpmath as mp
    with mp.workdps(50):
        q = mp.mpf(0.01)
        pmf = lambda n, k: mp.binomial(n, k) * q**k * (1 - q) ** (n - k)
        ref = float(mp.fsum(pmf(60, k - 16) * pmf(100, k)
                            for k in range(16, 101)))
    assert ref == pytest.approx(3.2628e-15, rel=1e-4, abs=0)
    got = bindiff_pmf(60, 100, 0.01, -16)
    assert got == pytest.approx(ref, rel=1e-14, abs=0)


def test_float_mu_matches_exact_mu_with_a_large_sparse_class():
    p = 0.001
    got = compute_mu(4, 999, p)
    want = compute_mu_exact(4, 999, Fraction(p))
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-15


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 10)])
def test_bindiff_geq_exact_is_the_sum_of_point_masses(p):
    for n1 in (0, 1, 17, 30):
        for n2 in (0, 1, 17, 30):
            pmfs = {t: bindiff_pmf_exact(n1, n2, p, t)
                    for t in range(-n2, n1 + 1)}
            for d in range(-n2 - 1, n1 + 2):
                want = sum((v for t, v in pmfs.items() if t >= d), Fraction(0))
                assert bindiff_geq_exact(n1, n2, p, d) == want, (n1, n2, d)


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


def test_tables_have_no_size_limit():
    dist = BinDiffDist(15_000, 15_000, 0.5)
    assert abs(dist.total_mass() - 1.0) <= 1e-12


@pytest.mark.parametrize("n1,n2", [(-3, 5), (5, -1), (-1, 0)])
@pytest.mark.parametrize("fn,p", [
    (BinDiffDist, 0.3), (bindiff_pmf, 0.3), (bindiff_cdf, 0.3),
    (bindiff_pmf_exact, Fraction(1, 3)), (bindiff_geq_exact, Fraction(1, 3))])
def test_bindiff_rejects_negative_trial_counts(fn, p, n1, n2):
    args = (n1, n2, p) if fn is BinDiffDist else (n1, n2, p, -1)
    with pytest.raises(ValueError, match="trial counts must be nonnegative"):
        fn(*args)


def test_bindiff_pmf_matches_50_digit_sums():
    # a reference sharing no code with the window convolution: every term of
    # sum_k P(X1 = k + d) P(X2 = k), each pmf built by its ratio recurrence
    import mpmath as mp

    def pmfs(n, q):
        out = [(1 - q) ** n]
        for k in range(n):
            out.append(out[-1] * (n - k) / (k + 1) * q / (1 - q))
        return out

    with mp.workdps(50):
        for n1, n2, p in [(1000, 1000, 0.5), (12_000, 8_000, 0.1),
                          (60, 100, 0.01)]:
            q = mp.mpf(p)
            pmf1, pmf2 = pmfs(n1, q), pmfs(n2, q)
            mode = BinDiffDist(n1, n2, p).mode()
            sigma = math.sqrt((n1 + n2) * p * (1 - p))
            ds = {mode, -n2, n1, *(max(-n2, min(n1, mode + round(s * sigma)))
                                   for s in (-10, -3, 3, 10))}
            for d in sorted(ds):
                ref = mp.fsum(pmf1[k + d] * pmf2[k]
                              for k in range(max(0, -d), min(n2, n1 - d) + 1))
                got = bindiff_pmf(n1, n2, p, d)
                # relative error is not gated in the far tails, which the
                # window drops by design
                bound = 1e-14 * ref if ref >= 1e-12 else 1e-27
                assert abs(mp.mpf(got) - ref) <= bound, (n1, n2, p, d)


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


def test_binom_cdf_rejects_nan_k():
    # as binom_pmf rejects a k outside [0, n]; an infinite k keeps its answer
    with pytest.raises(ValueError, match="not a number"):
        binom_cdf(5, 0.5, math.nan)
    assert binom_cdf(5, 0.5, math.inf) == 1.0
    assert binom_cdf(5, 0.5, -math.inf) == 0.0


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


def _python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this majlab."""
    src = str(Path(majlab.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of start-up, and the scipy.special
    # package __init__ (its array API layer, numpy.f2py, numpy.testing)
    # about 0.2 s; majlab loads only the ufunc module.  numpy.random is
    # loaded at import, so a first timed call does not pay for it.
    out = _python(
        "import sys, majlab, majlab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy.special' or "
        "m.startswith(('scipy.stats', 'scipy._lib._array_api', 'numpy.f2py', "
        "'numpy.testing')))); "
        "print('numpy.random' in sys.modules)")
    assert out.split() == ["[]", "True"]


@pytest.mark.parametrize("first", ["majlab", "scipy.special"])
def test_ufuncs_are_scipy_specials_in_either_import_order(first):
    second = "scipy.special" if first == "majlab" else "majlab"
    out = _python(
        f"import {first}, {second}; import scipy.special; "
        "from majlab import probability; "
        "assert probability.ndtr is scipy.special.ndtr; "
        "assert probability._binom_pmf is scipy.special._ufuncs._binom_pmf; "
        "assert probability._binom_cdf is scipy.special._ufuncs._binom_cdf; "
        "print(repr(float(scipy.special.gammaln(3.0))))")
    assert float(out) == math.log(2.0)


_OPENBLAS_SPIN = """
import os, time
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
import numpy

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        out[tid] = int(fields[11]) + int(fields[12])
    return out

before = ticks()
import majlab.probability
after = ticks()
time.sleep(0.3)
end = ticks()
new = set(end) - set(before)
print(sum(end[t] - after.get(t, 0) for t in new),
      os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="per-thread CPU times come from /proc")
def test_scipy_openblas_workers_sleep_after_load():
    # scipy.special._ufuncs starts scipy's own OpenBLAS, whose idle workers
    # spin about 0.1 s of a core before they sleep, inside the first work
    # after `import majlab`; they must sleep at once, and the variable that
    # tells them so must not outlive the load
    spin_ticks, left = _python(_OPENBLAS_SPIN).split()
    assert int(spin_ticks) <= 1 and left == "None"
    kept = _python("import os; os.environ['OPENBLAS_THREAD_TIMEOUT'] = '28'; "
                   "import majlab; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
    assert kept.strip() == "28"

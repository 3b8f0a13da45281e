import math
from fractions import Fraction

import numpy as np
import pytest

from majlab import stats
from majlab.dynamics import UpdateRule, step
from majlab.graphs import FixedGap, GraphParams, sample_gnp, split_seed
from majlab.stats import (LEMMA_ANCHORS, ThresholdParams, centered_indicators,
                          compute_mu, compute_mu_exact, delta_threshold,
                          double_factorial, expected_biased_day1_count,
                          _gather_trial_quantities, lemma_report,
                          moment_estimate)

from conftest import brute_bindiff_geq, graph_trial_quantities
from reference import trial_records_graph_by_graph


def test_delta_threshold_log_identity():
    # p = 1/e^2: the exponential branch is e * exp(A * sqrt(2))
    p = math.exp(-2)
    th = delta_threshold(10**6, p, ThresholdParams(a=1.0, b=1.0))
    assert th.exp_branch == pytest.approx(math.e * math.exp(math.sqrt(2)),
                                          rel=1e-12)
    assert th.exp_branch == pytest.approx(11.1809737605479, rel=1e-12)


def test_delta_threshold_quarter():
    th = delta_threshold(10**6, 0.25, ThresholdParams(a=1.0, b=1.0))
    assert th.exp_branch == pytest.approx(6.49191270540951, rel=1e-12)
    assert th.poly_branch == pytest.approx(0.008, rel=1e-12)
    assert th.value == th.exp_branch
    assert th.dominant == "exponential"


def test_delta_threshold_crossover():
    # branches tie at n* = (B p^{-3/2} / exp_branch)^2; the winner flips there
    p = 0.01
    params = ThresholdParams(a=1.0, b=1.0)
    exp_branch = math.exp(math.sqrt(math.log(1 / p))) / math.sqrt(p)
    n_star = (p**-1.5 / exp_branch) ** 2
    assert delta_threshold(int(n_star * 0.8), p, params).dominant == "polynomial"
    assert delta_threshold(int(n_star * 1.25), p, params).dominant == "exponential"


def test_delta_threshold_validation():
    with pytest.raises(ValueError):
        delta_threshold(100, 0.0)
    with pytest.raises(ValueError):
        delta_threshold(100, 1.0)
    for n in (0, -3):  # not a ZeroDivisionError or a complex sqrt
        with pytest.raises(ValueError, match="n must be at least 1"):
            delta_threshold(n, 0.5)
    with pytest.raises(ValueError):
        ThresholdParams(a=0.0)


def test_mu_trivial_case():
    # a lone color-1 vertex always keeps: Bin(1,p) - 1 <= 0 = Bin(0,p)
    for p in (0.05, 0.5, 0.9):
        mu1, _ = compute_mu(1, 1, p)
        assert mu1 == pytest.approx(1.0, abs=1e-12)
    mu1, mu2 = compute_mu_exact(1, 1, Fraction(1, 3))
    assert mu1 == 1
    # ...while a lone color-2 vertex always loses under the bias
    assert mu2 == -1


def test_mu_exact_small_case():
    mu1, mu2 = compute_mu_exact(3, 2, Fraction(1, 2))
    assert mu1 == Fraction(7, 8)
    assert mu2 == Fraction(-7, 8)
    f1, f2 = compute_mu(3, 2, 0.5)
    assert f1 == pytest.approx(7 / 8, abs=1e-12)
    assert f2 == pytest.approx(-7 / 8, abs=1e-12)


def test_mu_exactness_follows_the_type_of_p():
    assert compute_mu(3, 2, Fraction(1, 2)) == (Fraction(7, 8), Fraction(-7, 8))
    assert all(isinstance(mu, Fraction) for mu in compute_mu(3, 2, 1))
    rational = moment_estimate(40, Fraction(1, 5), 2, 2, 10, master_seed=3)
    binary = moment_estimate(40, 0.2, 2, 2, 10, master_seed=3)
    assert rational.value == pytest.approx(binary.value, rel=1e-12)


def test_mu_matches_brute_force(rng):
    for _ in range(20):
        c1 = int(rng.integers(1, 6))
        c2 = int(rng.integers(1, 6))
        p = Fraction(int(rng.integers(1, 10)), 10)
        mu1, mu2 = compute_mu_exact(c1, c2, p)
        assert mu1 == 2 * brute_bindiff_geq(c1 - 1, c2, p, -1) - 1
        assert mu2 == 2 * brute_bindiff_geq(c2 - 1, c1, p, 1) - 1
        g1, g2 = compute_mu(c1, c2, float(p))
        assert g1 == pytest.approx(float(mu1), abs=1e-11)
        assert g2 == pytest.approx(float(mu2), abs=1e-11)


def test_mu_bounds_and_errors():
    for c1, c2, p in [(5, 5, 0.3), (20, 10, 0.1), (2, 30, 0.8)]:
        mu1, mu2 = compute_mu(c1, c2, p)
        assert -1.0 <= mu1 <= 1.0 and -1.0 <= mu2 <= 1.0
    with pytest.raises(ValueError):
        compute_mu(0, 5, 0.5)
    with pytest.raises(ValueError):
        compute_mu_exact(5, 0, Fraction(1, 2))


def test_centered_indicators_signs_and_aggregate():
    g = sample_gnp(GraphParams(12, 0.4, 3), FixedGap.from_delta(2))
    ci = centered_indicators(g, Fraction(2, 5))
    c1, c2 = g.counts()
    day1 = step(g, UpdateRule.BIASED)
    for v in range(g.n):
        z_plus_mu = ci.z_values[v] + (ci.mu1 if g.colors[v] == 1 else ci.mu2)
        assert z_plus_mu in (-1, 1)
        assert (z_plus_mu == 1) == (day1.colors[v] == g.colors[v])
    c11 = int((day1.colors == 1).sum())
    expect = expected_biased_day1_count(c1, c2, Fraction(2, 5))
    assert ci.z == 2 * c11 - 2 * expect


def test_centered_indicators_float_path():
    g = sample_gnp(GraphParams(30, 0.2, 5), FixedGap.from_delta(3))
    ci = centered_indicators(g, 0.2)
    mu_v = np.where(g.colors == 1, ci.mu1, ci.mu2)
    assert np.all(np.isin(np.round(ci.z_values + mu_v, 9), (-1.0, 1.0)))


def test_z_mean_centered_monte_carlo():
    # MC mean of Z within 4 stderr of 0 at n = 100
    n, p, trials = 100, 0.15, 3000
    scheme = FixedGap.from_delta(4)
    c1, c2 = scheme.class_sizes(n)
    center = expected_biased_day1_count(c1, c2, p)
    zs = np.empty(trials)
    for t in range(trials):
        g = sample_gnp(GraphParams(n, p, split_seed(555, t)), scheme)
        day1 = step(g, UpdateRule.BIASED)
        zs[t] = 2 * int((day1.colors == 1).sum()) - 2 * center
    se = zs.std(ddof=1) / math.sqrt(trials)
    assert abs(zs.mean()) <= 4 * se


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7)] == \
        [1, 1, 1, 2, 3, 15, 105]
    for m in (-2, -3, -10):
        with pytest.raises(ValueError, match="m >= -1"):
            double_factorial(m)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_negative_moment_order_rejected(k):
    # MomentZ rejects k < 0 too; the reference scale (k-1)!! has no meaning
    with pytest.raises(ValueError, match="moment order"):
        moment_estimate(50, 0.2, 0, k, 10)
    for n in (6, 60):  # exact and Monte Carlo modes
        with pytest.raises(ValueError, match="moment order"):
            lemma_report(n, 0.2, 2, 100, k=k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_moment_estimate_validates_before_any_order(k):
    # k = 0 needs no trials, but its inputs are checked as for k >= 1
    for args in [(-5, 7.0, -3), (10, 7.0, 2), (10, 0.3, -3), (-5, 0.3, 2)]:
        with pytest.raises(ValueError):
            moment_estimate(*args, k, 5)


def test_moment_estimate_k0_and_odd():
    est = moment_estimate(10, 0.3, 1, k=0, trials=5)
    assert est.value == 1.0 and est.stderr == 0.0
    est = moment_estimate(10, 0.3, 1, k=3, trials=50, master_seed=1)
    assert est.odd_k and est.reference is None


def test_moment_estimate_matches_oracle():
    from majlab.oracle import MomentZ, OracleQuery, oracle_eval
    n, p, delta, k = 4, 0.5, 1.0, 2
    exact = float(oracle_eval(
        OracleQuery(n, Fraction(1, 2), (1, 1, 1, 2), MomentZ(k))).value)
    est = moment_estimate(n, p, delta, k, trials=4000, master_seed=7)
    assert abs(est.value - exact) <= 4 * est.stderr
    assert est.ratio == pytest.approx(est.value / (1 * n), rel=1e-12)


def test_lemma_report_structure():
    rep = lemma_report(200, 0.2, 5, trials=150, master_seed=11)
    assert rep.mode == "mc"
    ids = [r.lemma_id for r in rep.records]
    assert ids == list(LEMMA_ANCHORS)
    for r in rep.records:
        assert r.quote_anchor == LEMMA_ANCHORS[r.lemma_id]
        if r.asserted:
            assert r.hypotheses_met
    # astronomically-large-n bounds are present but never asserted
    for lemma_id in ("day1_expectation", "day2_expectation", "beta_gap"):
        r = rep.record(lemma_id)
        assert not r.hypotheses_met and not r.asserted
    assert rep.record("sstar_mean").asserted
    assert rep.asserted_failures() == []


def test_lemma_report_exact_mode():
    rep = lemma_report(6, 0.25, 1, trials=100)
    assert rep.mode == "exact"
    ident = rep.record("ig_mean_identity")
    assert ident.satisfied and ident.asserted
    assert rep.record("moment_growth").extra["ratio"] is not None


def test_lemma_report_exact_mean_rounded_once():
    # c1 = 4, c2 = 2 at p = 1/4: the dyadic exact mean is a float, and the
    # float binomial-difference path misses it by an ulp
    rep = lemma_report(6, 0.25, 1, trials=100)
    got = rep.record("biased_day1_tail").extra["exact_mean"]
    assert expected_biased_day1_count(4, 2, Fraction(1, 4)) == Fraction(2937, 512)
    assert got == 2937 / 512 == 5.736328125


def test_lemma_report_zero_gap():
    # FixedGap accepts delta = 0; the day-2 gap reference takes its limit 0
    for n, p, mode in ((4, 1 / 3, "exact"), (40, 0.3, "mc")):
        rep = lemma_report(n, p, 0, trials=100, master_seed=3)
        gap = rep.record("day2_gap_probability")
        assert rep.mode == mode and rep.delta == 0
        assert gap.rhs == 0.0 and gap.satisfied


def test_lemma_report_fraction_p():
    rep = lemma_report(6, Fraction(1, 3), 1, trials=100)
    assert rep.to_json_dict() == lemma_report(6, 1 / 3, 1, trials=100).to_json_dict()
    assert type(rep.p) is float


@pytest.mark.parametrize("cap", [1, 3, 50])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n, delta", [(3, 0.5), (63, 1.5), (64, 2), (65, 0.5)])
def test_trial_record_matches_whole_graph_kernels(n, delta, p, cap):
    # the packed-word adapters of the sampled report at and across the
    # 64-bit word boundary, on empty and complete graphs too
    got = _gather_trial_quantities(n, p, delta, 6, 5, cap)
    want = graph_trial_quantities(n, p, delta, 6, 5, cap)
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        np.testing.assert_array_equal(got[name], col, err_msg=name)


@pytest.mark.parametrize("n, delta, p, cap", [
    (63, 1.5, 0.3, 50), (64, 2, 0.1, 3), (65, 0.5, 0.5, 50), (101, 0.5, 0.05, 1)])
def test_stacked_trial_records_match_graph_by_graph(monkeypatch, n, delta, p,
                                                     cap):
    # chunks of three graphs: 7 trials span three chunks, the last one short;
    # each graph keeps its own coloring and focal vertices in its chunk
    monkeypatch.setattr(stats, "_CHUNK_BYTES", 3 * n * ((n + 63) // 64) * 8)
    sizes, trial_record = [], stats.trial_record

    def record(margin_of, neighbours, color1, win1, win_day):
        sizes.append(len(color1))
        return trial_record(margin_of, neighbours, color1, win1, win_day)

    monkeypatch.setattr(stats, "trial_record", record)
    got = _gather_trial_quantities(n, p, delta, 7, 9, cap)
    assert sizes == [3, 3, 1]
    want = trial_records_graph_by_graph(n, p, delta, 7, 9, cap)
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        np.testing.assert_array_equal(got[name], col, err_msg=name)


def test_lemma_report_validation():
    with pytest.raises(ValueError):
        lemma_report(50, 0.2, 2, trials=10)
    with pytest.raises(ValueError):
        lemma_report(10, 0.2, 5.0, trials=100)  # no color-2 vertex

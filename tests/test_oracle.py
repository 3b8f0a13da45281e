import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from majlab.dynamics import UpdateRule
from majlab.fourier import edge_list, fourier_coefficients
from majlab.graphs import FixedGap, GraphParams, sample_gnp, split_seed
from majlab.oracle import (MAX_ORACLE_N, ExpectedCount, FourierCoeff, MomentZ,
                           OracleQuery, SetStat, VarCount, WinProb, _cube, _keys,
                           enumerate_trial_quantities, exhaustive_identity_scan,
                           mask_trajectory, oracle_eval, oracle_vs_mc,
                           rhat_mask, rows_from_mask, s_sets_mask, step_mask)
from majlab.stats import _gather_trial_quantities, compute_mu, compute_mu_exact

from conftest import enumerate_small_graphs, golden_records, naive_step


def brute_expected_count(n, colors, p, day, color):
    """Independent enumeration through the dict-based engine."""
    pairs = n * (n - 1) // 2
    total = Fraction(0)
    for mask, edges in enumerate_small_graphs(n):
        e = bin(mask).count("1")
        w = Fraction(p) ** e * (1 - Fraction(p)) ** (pairs - e)
        cur = list(colors)
        eset = {frozenset(x) for x in edges}
        for _ in range(day):
            cur = naive_step(n, eset, cur, UpdateRule.STANDARD)
        total += w * sum(1 for c in cur if c == color)
    return total


def test_winprob_two_vertices_never_unanimous():
    q = OracleQuery(2, Fraction(1, 2), (1, 2), WinProb(color=1, cap=5))
    assert oracle_eval(q).value == 0


def test_winprob_k3_coloring():
    # 8 graphs by hand: wins exactly on {01,02}, {01,12}, and K3
    p = Fraction(1, 2)
    q = OracleQuery(3, p, (1, 1, 2), WinProb(color=1))
    assert oracle_eval(q).value == Fraction(3, 8)
    p = Fraction(1, 4)
    q = OracleQuery(3, p, (1, 1, 2), WinProb(color=1))
    assert oracle_eval(q).value == 2 * p**2 * (1 - p) + p**3


def test_expected_count_matches_independent_enumeration():
    for n, colors, day in [(3, (1, 1, 2), 1), (4, (1, 1, 2, 2), 1),
                           (4, (1, 2, 2, 2), 2)]:
        for p in (Fraction(1, 2), Fraction(1, 5)):
            got = oracle_eval(OracleQuery(n, p, colors,
                                          ExpectedCount(day=day, color=1))).value
            assert got == brute_expected_count(n, colors, p, day, 1)


def test_expected_count_day0_is_exact_class_size():
    # also certifies that the configuration weights sum to exactly 1
    q = OracleQuery(5, Fraction(2, 7), (1, 1, 2, 1, 2),
                    ExpectedCount(day=0, color=1))
    assert oracle_eval(q).value == 3


def test_initial_strict_majority_wins_at_p_one():
    for n in range(2, 6):
        for colors in itertools.product((1, 2), repeat=n):
            c1 = colors.count(1)
            if c1 <= n - c1:
                continue
            q = OracleQuery(n, Fraction(1), colors, WinProb(color=1))
            assert oracle_eval(q).value == 1, colors
    # n = 6: all colorings through the trajectory engine on the complete
    # graph (the only configuration with weight at p = 1), plus oracle spot
    # checks on a sample
    full_rows = rows_from_mask(6, (1 << 15) - 1)
    for colors in itertools.product((1, 2), repeat=6):
        c1 = colors.count(1)
        if c1 <= 6 - c1:
            continue
        c1m = sum(1 << i for i, c in enumerate(colors) if c == 1)
        traj = mask_trajectory(6, full_rows, c1m)
        assert traj.kind == "unanimity" and traj.winner == 1 and traj.day <= 1
    for colors in [(1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 1, 2), (2, 1, 1, 2, 1, 1)]:
        q = OracleQuery(6, Fraction(1), colors, WinProb(color=1))
        assert oracle_eval(q).value == 1


def test_moment_z_centering():
    for n, colors in [(4, (1, 1, 2, 2)), (5, (1, 1, 1, 2, 2)),
                      (5, (1, 2, 2, 2, 2))]:
        q = OracleQuery(n, Fraction(1, 3), colors, MomentZ(k=1))
        assert oracle_eval(q).value == 0


def test_moment_z_matches_fourier_cross_sum():
    # E[Z^2] = sum over vertex pairs of L(u)L(v) <Z_u, Z_v>, with the inner
    # products assembled from the coefficient tables
    n, colors, p = 3, (1, 1, 2), Fraction(1, 2)
    tables = [fourier_coefficients(n, colors, v, p) for v in range(n)]
    norm = 4 * p * (1 - p)
    total = Fraction(0)
    for u in range(n):
        for v in range(n):
            sign = (1 if colors[u] == 1 else -1) * (1 if colors[v] == 1 else -1)
            inner = Fraction(0)
            for mask in range(1 << tables[0].n_edges):
                size = bin(mask).count("1")
                inner += (tables[u].coefficient_scaled(mask)
                          * tables[v].coefficient_scaled(mask) / norm**size)
            total += sign * inner
    q = OracleQuery(n, p, colors, MomentZ(k=2))
    assert oracle_eval(q).value == total


def test_var_count_nonnegative_and_exact():
    q = OracleQuery(4, Fraction(1, 2), (1, 1, 2, 2), VarCount(day=1, color=1))
    v = oracle_eval(q).value
    assert isinstance(v, Fraction) and v > 0
    # variance of the complement count is identical
    q2 = OracleQuery(4, Fraction(1, 2), (1, 1, 2, 2), VarCount(day=1, color=2))
    assert oracle_eval(q2).value == v


def test_set_stats_match_structure_module():
    from majlab.graphs import ColoredGraph
    from majlab.structure import compute_r_hat, compute_s_sets
    n, colors = 5, (1, 1, 2, 2, 2)
    p = Fraction(1, 3)
    pairs = n * (n - 1) // 2
    expect = {"s1": Fraction(0), "s_star": Fraction(0), "i_g": Fraction(0),
              "r_hat": Fraction(0)}
    for mask, edges in enumerate_small_graphs(n):
        e = bin(mask).count("1")
        w = p**e * (1 - p) ** (pairs - e)
        g = ColoredGraph.from_edges(n, edges, colors)
        rep = compute_s_sets(g, 0, 1)
        expect["s1"] += w * len(rep.s1)
        expect["s_star"] += w * len(rep.s_star)
        expect["i_g"] += w * rep.i_g
        expect["r_hat"] += w * len(compute_r_hat(g, 0))
    for which, want in expect.items():
        q = OracleQuery(n, p, colors, SetStat(which, moment=1, u=0, v=1, w=0))
        assert oracle_eval(q).value == want


def test_set_stat_second_moment():
    q1 = OracleQuery(5, Fraction(1, 4), (1, 1, 1, 2, 2), SetStat("s_star", 1))
    q2 = OracleQuery(5, Fraction(1, 4), (1, 1, 1, 2, 2), SetStat("s_star", 2))
    m1 = oracle_eval(q1).value
    m2 = oracle_eval(q2).value
    assert m2 >= m1 * m1  # variance is nonnegative


def test_ig_mean_is_p_squared_times_sstar_mean():
    for p in (Fraction(1, 3), Fraction(1, 5)):
        colors = (1, 1, 2, 2, 2)
        ig = oracle_eval(OracleQuery(5, p, colors, SetStat("i_g"))).value
        ss = oracle_eval(OracleQuery(5, p, colors, SetStat("s_star"))).value
        assert ig == p * p * ss


def test_float_mode_close_to_exact():
    exact = oracle_eval(OracleQuery(4, Fraction(3, 10), (1, 1, 2, 2),
                                    WinProb(color=1))).value
    fl = oracle_eval(OracleQuery(4, 0.3, (1, 1, 2, 2), WinProb(color=1)))
    assert fl.value == pytest.approx(float(exact), abs=1e-13)
    assert fl.details["exact"] is False


def test_cap_mass_reported():
    q = OracleQuery(3, Fraction(1, 2), (1, 1, 2), WinProb(color=1, cap=1))
    res = oracle_eval(q)
    assert res.details["cap_mass"] > 0


def test_fourier_query_passthrough():
    q = OracleQuery(3, Fraction(1, 2), (1, 1, 2), FourierCoeff(v=0, s=()))
    assert oracle_eval(q).value == 0.0


def test_float_fourier_query_is_its_exact_twin_rounded_once():
    # a float p is answered from the exact table at its binary value
    q = OracleQuery(4, 0.3, (1, 1, 2, 2), FourierCoeff(0, ((0, 1), (0, 2))))
    assert oracle_eval(q).details["scaled"] == 0.10583999999999999
    for n in (3, 4, 5, 6):
        colors = (1,) * (n - n // 2) + (2,) * (n // 2)
        for v in (0, n - 1):
            star = [e for e in edge_list(n) if v in e]
            off = [e for e in edge_list(n) if v not in e]
            for s, p in itertools.product(
                    [(), star[:1], star[:2], star, off[:1] + star[:1]],
                    (0.3, 0.1, 2 / 3)):
                fq = OracleQuery(n, p, colors, FourierCoeff(v, tuple(s)))
                eq = dataclasses.replace(fq, p=Fraction(p))
                got, twin = oracle_eval(fq), oracle_eval(eq)
                assert type(got.details["scaled"]) is float
                assert got.details["scaled"] == float(twin.details["scaled"])
                assert got.value == twin.value


def test_query_validation():
    with pytest.raises(ValueError):
        OracleQuery(7, 0.5, (1,) * 7, WinProb())
    with pytest.raises(ValueError):
        OracleQuery(3, 0.5, (1, 1), WinProb())
    with pytest.raises(ValueError):
        OracleQuery(3, 0.5, (1, 1, 3), WinProb())
    with pytest.raises(ValueError):
        oracle_eval(OracleQuery(3, 0.5, (1, 1, 2), SetStat("bogus")))
    with pytest.raises(ValueError):
        oracle_eval(OracleQuery(3, 0.5, (2, 2, 2), SetStat("s1")))
    # colors given as a list are stored as a tuple
    listed = OracleQuery(3, Fraction(1, 2), [1, 1, 2], MomentZ(k=2))
    assert listed.colors == (1, 1, 2)
    assert oracle_eval(listed).value == \
        oracle_eval(OracleQuery(3, Fraction(1, 2), (1, 1, 2), MomentZ(k=2))).value


@pytest.mark.parametrize("p, stat", [
    (1.5, WinProb()), (Fraction(-1, 2), ExpectedCount(day=1)),
    (math.nan, WinProb())])
def test_query_rejects_p_outside_unit_interval(p, stat):
    with pytest.raises(ValueError, match="p must lie in"):
        OracleQuery(3, p, (1, 1, 2), stat)


@pytest.mark.parametrize("colors, stat", [
    ((1, 1, 2, 2), SetStat("r_hat", w=4)),
    ((1, 1, 2, 2), SetStat("r_hat", w=-1)),
    ((1, 1, 2, 2), SetStat("s1", u=0, v=4)),
    ((1, 1, 1, 1), SetStat("s1", u=0, v=0)),
    ((1, 1, 1, 1), SetStat("s1", u=2)),
    ((1, 1, 1, 1), SetStat("i_g", v=3)),
])
def test_set_statistics_check_focal_vertices(colors, stat):
    with pytest.raises(ValueError):
        oracle_eval(OracleQuery(4, Fraction(1, 2), colors, stat))


@pytest.mark.parametrize("stat, match", [
    (functools.partial(ExpectedCount, day=-3), "day must be at least 0"),
    (functools.partial(VarCount, day=-1), "day must be at least 0"),
    (functools.partial(WinProb, cap=0), "cap must be at least 1"),
])
def test_day_and_cap_queries_reject_values_below_their_floor(stat, match):
    # a negative day must not answer with the day-0 value, nor cap 0 with
    # every configuration capped
    with pytest.raises(ValueError, match=match):
        oracle_eval(OracleQuery(3, Fraction(1, 2), (1, 1, 2), stat()))


@pytest.mark.parametrize("build", [
    lambda: WinProb(color=0),
    lambda: WinProb(color=3),
    lambda: ExpectedCount(day=1, color=3),
    lambda: VarCount(day=1, color=0),
    lambda: MomentZ(k=-1),
    lambda: WinProb(cap=0),
    lambda: ExpectedCount(day=-1),
    lambda: VarCount(day=-1),
    lambda: OracleQuery(0, Fraction(1, 2), (), WinProb()),
], ids=["winprob-color0", "winprob-color3", "expcount-color3",
        "varcount-color0", "momentz-k-1", "winprob-cap0", "expcount-day-1",
        "varcount-day-1", "n0"])
def test_statistic_fields_checked_on_construction(build):
    # a color other than 1 or 2 used to answer for color 2 or for neither,
    # k = -1 a reciprocal moment, and n = 0 a probability of 1; a bad day or
    # cap is refused before any enumeration
    with pytest.raises(ValueError):
        build()


def test_query_accepts_p_zero_and_one():
    # no edges: a fixed point; the triangle: the majority wins on day 1
    for p, value in ((0, 0), (0.0, 0.0), (1, 1), (Fraction(1), 1), (1.0, 1.0)):
        assert oracle_eval(OracleQuery(3, p, (1, 1, 2), WinProb())).value == value


def test_oracle_vs_mc_smoke():
    q = OracleQuery(5, 0.5, (1, 1, 1, 2, 2), WinProb(color=1))
    ag = oracle_vs_mc(q, 20_000, master_seed=9)
    assert ag.within_4se
    q = OracleQuery(6, 0.25, (1, 1, 1, 1, 2, 2), ExpectedCount(day=2))
    ag = oracle_vs_mc(q, 20_000, master_seed=10)
    assert ag.within_4se
    with pytest.raises(ValueError):
        oracle_vs_mc(OracleQuery(3, 0.5, (1, 1, 2), FourierCoeff(0, ())), 10)


@pytest.mark.parametrize("trials", [0, 1])
def test_oracle_vs_mc_needs_two_trials(trials):
    # one sample has no standard error, none no estimate
    q = OracleQuery(4, 0.5, (1, 1, 2, 2), ExpectedCount(day=1))
    with pytest.raises(ValueError, match="trials must be at least 2"):
        oracle_vs_mc(q, trials)


@pytest.mark.parametrize("stat", [
    WinProb(cap=1), ExpectedCount(day=2), VarCount(day=1), MomentZ(k=2),
    SetStat("s_star", 2)], ids=lambda s: type(s).__name__)
def test_one_enumeration_serves_every_p_and_the_mc_check(stat):
    _keys.cache_clear()
    colors = (1, 1, 1, 2, 2)
    for p in (Fraction(1, 3), 1 / 3, Fraction(1, 2), 0.5):
        got = oracle_eval(OracleQuery(5, p, colors, stat))
        if isinstance(p, float):
            exact = oracle_eval(OracleQuery(5, Fraction(p), colors, stat))
            assert type(got.value) is float
            assert got.value == float(exact.value)
            if isinstance(stat, WinProb):
                assert got.details["cap_mass"] == \
                    float(exact.details["cap_mass"])
    assert oracle_vs_mc(OracleQuery(5, 0.5, colors, stat), 2_000,
                        master_seed=3).within_4se
    assert _keys.cache_info().misses == 1


def test_identity_scan_small():
    scan = exhaustive_identity_scan(3)
    assert scan.clean
    assert scan.combos == 64


@pytest.mark.parametrize("n", [-1, 0, MAX_ORACLE_N + 1])
def test_identity_scan_checks_n(n):
    # n = 0 used to die with IndexError and n = -1 with "negative shift count"
    with pytest.raises(ValueError, match=f"scan needs 1 <= n <= {MAX_ORACLE_N}"):
        exhaustive_identity_scan(n)


def test_identity_scan_catches_wrong_centering_constants(monkeypatch):
    # the standard keep margin makes compute_mu_exact give wrong biased mu's,
    # while the cube still steps the biased rule
    monkeypatch.setattr("majlab.stats.keep_margin", lambda rule: 0)
    scan = exhaustive_identity_scan(4)
    assert not scan.clean
    assert any(v.startswith("centering: ") for v in scan.violations)


def test_golden_values():
    for q, want in golden_records():
        rec = (q.n, q.colors, q.statistic)
        assert oracle_eval(q).value == want, rec
        # a float p is summed exactly at its binary value and rounded once
        float_p = float(q.p)
        got = oracle_eval(dataclasses.replace(q, p=float_p)).value
        at_binary_p = oracle_eval(dataclasses.replace(q, p=Fraction(float_p)))
        assert type(got) is float and got == float(at_binary_p.value), rec
        assert abs(Fraction(got) - want) <= Fraction(1, 10**14) * abs(want), rec


# ----------------------------------------------------------------------
# the configuration cube against the scalar reference kernels

def _colorings(n):
    return list(itertools.product((1, 2), repeat=n))


def _c1m(colors):
    return sum(1 << i for i, c in enumerate(colors) if c == 1)


def _cube_runs(cube, c1m, rule, days):
    """(winner or 0, day of unanimity or -1, capped) of every configuration,
    as `mask_trajectory` gives them at cap = days."""
    held, day, capped = cube.run(c1m, rule, days)
    winner = np.select([held == (1 << cube.n) - 1, held == 0], [1, 2])
    return list(zip(winner.tolist(), day.tolist(), capped.tolist()))


def test_cube_kernels_match_scalar_kernels():
    for n in range(1, 6):
        cube = _cube(n)
        all_rows = _all_rows(n)
        assert [tuple(r) for r in cube.rows.tolist()] == all_rows
        for colors in _colorings(n):
            c1m = _c1m(colors)
            for rule in UpdateRule:
                assert cube.step(c1m, rule).tolist() == \
                    [step_mask(n, rows, c1m, rule) for rows in all_rows]
                trajs = {cap: [mask_trajectory(n, rows, c1m, rule, cap)
                               for rows in all_rows] for cap in (None, 1, 2)}
                for cap, ts in trajs.items():
                    days = (1 << n) + 4 if cap is None else cap
                    assert _cube_runs(cube, c1m, rule, days) == [
                        (t.winner or 0, -1 if t.day is None else t.day,
                         t.kind == "cap") for t in ts], (n, colors, rule, cap)
                # past a trajectory's end its cycle repeats and unanimity holds
                ts = trajs[None]
                for d in range(max(len(t.counts) for t in ts) + 2):
                    held = cube.run(c1m, rule, d)[0]
                    assert np.bitwise_count(held).tolist() \
                        == [t.count_at(d) for t in ts], (n, colors, rule, d)
            for w in range(n):
                assert cube.rhat(c1m, w).tolist() == \
                    [rhat_mask(n, rows, c1m, w) for rows in all_rows]
            ones = [i for i, c in enumerate(colors) if c == 1]
            for u, v in itertools.combinations(ones, 2):
                got = list(zip(*(a.tolist() for a in cube.s_sets(c1m, u, v))))
                assert got == [s_sets_mask(n, rows, c1m, u, v)
                               for rows in all_rows]


_STATS = (
    [WinProb(color, rule, cap) for rule in UpdateRule for color in (1, 2)
     for cap in (None, 1, 2)]
    + [kind(day, color, rule) for kind in (ExpectedCount, VarCount)
       for rule in UpdateRule for color in (1, 2) for day in range(4)]
    + [MomentZ(k) for k in (1, 2, 3)]
    + [SetStat(which, moment) for which in ("s1", "s2", "s_star", "i_g", "r_hat")
       for moment in (1, 2)]
    + [SetStat("r_hat", 1, w=w) for w in (1, 2, 3, 4)]
)


def _all_rows(n):
    return [rows_from_mask(n, m) for m in range(1 << (n * (n - 1) // 2))]


def _scalar_values(n, colors, stat, p, all_rows, memo):
    """Per-configuration values of the statistic through the scalar kernels.

    `memo` keeps the kernel results of one coloring across statistics.
    """
    c1m = _c1m(colors)

    def kernel(key, fn):
        if key not in memo:
            memo[key] = [fn(rows) for rows in all_rows]
        return memo[key]

    def trajs(rule, cap=None):
        return kernel(("traj", rule, cap),
                      lambda rows: mask_trajectory(n, rows, c1m, rule, cap))

    if isinstance(stat, WinProb):
        return [int(t.kind == "unanimity" and t.winner == stat.color)
                for t in trajs(stat.rule, stat.cap)]
    if isinstance(stat, (ExpectedCount, VarCount)):
        key = ("count", stat.rule, stat.day)
        if key not in memo:
            memo[key] = [t.count_at(stat.day) for t in trajs(stat.rule)]
        counts = memo[key]
        return counts if stat.color == 1 else [n - c for c in counts]
    if isinstance(stat, MomentZ):
        c1 = colors.count(1)
        if isinstance(p, Fraction):
            mu1, mu2 = compute_mu_exact(c1, n - c1, p)
        else:
            mu1, mu2 = compute_mu(c1, n - c1, p)
        center = n + mu1 * c1 - mu2 * (n - c1)
        c11 = kernel("c11", lambda rows: step_mask(
            n, rows, c1m, UpdateRule.BIASED).bit_count())
        return [(2 * c - center) ** stat.k for c in c11]
    if stat.which == "r_hat":
        w = stat.w or 0
        sizes = kernel(("rhat", w),
                       lambda rows: rhat_mask(n, rows, c1m, w).bit_count())
        return [s**stat.moment for s in sizes]
    ones = [i for i, c in enumerate(colors) if c == 1]
    if len(ones) < 2:
        raise ValueError("set statistics need two color-1 vertices")
    pick = ("s1", "s2", "s_star", "i_g").index(stat.which)
    sets = kernel("sets", lambda rows: s_sets_mask(n, rows, c1m, ones[0], ones[1]))
    return [(parts[pick] if pick == 3 else parts[pick].bit_count())
            ** stat.moment for parts in sets]


@functools.cache
def _scalar_weights(n, p):
    """Configuration weights; for rational p, integers over q^E and q^E."""
    n_edges = n * (n - 1) // 2
    sizes = [m.bit_count() for m in range(1 << n_edges)]
    if isinstance(p, Fraction):
        a, q = p.numerator, p.denominator
        return [a**e * (q - a) ** (n_edges - e) for e in sizes], q**n_edges
    return [p**e * (1 - p) ** (n_edges - e) for e in sizes], None


def _scalar_expectation(n, values, p, var):
    """Sum over configurations of weight * value (variance for VarCount)."""
    weights, scale = _scalar_weights(n, p)

    def mean(vals):
        if scale is None:
            return math.fsum(w * v for w, v in zip(weights, vals))
        return Fraction(sum(w * v for w, v in zip(weights, vals))) / scale

    total = mean(values)
    if var:
        return mean([v * v for v in values]) - total * total
    return total


def test_cube_statistics_match_scalar_reference():
    for n in range(1, 6):
        all_rows = _all_rows(n)
        for colors in _colorings(n):
            memo = {}
            for stat in _STATS:
                if isinstance(stat, SetStat) and (stat.w or 0) >= n:
                    continue
                for p in (Fraction(1, 3), 0.3):
                    q = OracleQuery(n, p, colors, stat)
                    try:
                        vals = _scalar_values(n, colors, stat, p, all_rows,
                                              memo)
                    except (ValueError, ZeroDivisionError) as exc:
                        with pytest.raises(type(exc)):
                            oracle_eval(q)
                        continue
                    want = _scalar_expectation(n, vals, p,
                                               isinstance(stat, VarCount))
                    got = oracle_eval(q).value
                    if isinstance(p, Fraction):
                        assert got == want, (n, colors, stat)
                    else:
                        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), \
                            (n, colors, stat, got, want)
                        exact = oracle_eval(OracleQuery(n, Fraction(p), colors,
                                                        stat)).value
                        assert got == float(exact), (n, colors, stat)


def _scalar_trial_quantities(n, c1, p, cap):
    """The per-configuration loop the cube replaced, kernel by kernel."""
    c1m = (1 << c1) - 1
    v1, v2, u, v = 0, c1, 0, 1
    n_edges = n * (n - 1) // 2
    std = UpdateRule.STANDARD
    rows_list = []
    for mask in range(1 << n_edges):
        rows = rows_from_mask(n, mask)
        d1 = step_mask(n, rows, c1m, std)
        d2 = step_mask(n, rows, d1, std)
        d3 = step_mask(n, rows, d2, std)
        traj = mask_trajectory(n, rows, c1m, std, None)
        win1 = traj.kind == "unanimity" and traj.winner == 1 and traj.day <= cap
        s1, s2, ss, ig = s_sets_mask(n, rows, c1m, u, v)
        rows_list.append((
            d1.bit_count(),
            step_mask(n, rows, c1m, UpdateRule.BIASED).bit_count(),
            rhat_mask(n, rows, c1m, v1).bit_count(),
            rhat_mask(n, rows, c1m, v2).bit_count(),
            d2.bit_count(), n - d3.bit_count(), float(win1),
            traj.day if win1 else np.nan, s1.bit_count(), s2.bit_count(),
            ss.bit_count(), ig, d2 >> v1 & 1, d2 >> v2 & 1))
    names = ("c11_std", "c11_biased", "rhat1", "rhat2", "c12", "c23",
             "win1", "win_day", "s1", "s2", "ss", "ig",
             "v1_in_c12", "v2_in_c12")
    cols = dict(zip(names, np.array(rows_list, dtype=np.float64).T))
    sizes = np.array([bin(m).count("1") for m in range(1 << n_edges)],
                     dtype=np.float64)
    return cols, p**sizes * (1.0 - p) ** (n_edges - sizes)


def test_enumerate_trial_quantities_matches_scalar_loop():
    for n, c1, p, cap in [(4, 2, 0.3, 5), (4, 3, 0.5, 2), (5, 2, 0.25, 7),
                          (5, 3, 0.4, 1), (5, 4, 0.7, 3)]:
        cols, weights = enumerate_trial_quantities(n, c1, p, cap)
        want_cols, want_weights = _scalar_trial_quantities(n, c1, p, cap)
        assert list(cols) == list(want_cols)
        for name, col in cols.items():
            np.testing.assert_array_equal(col, want_cols[name], err_msg=name)
        np.testing.assert_array_equal(weights, want_weights)


def test_sampled_and_enumerated_trial_records_agree():
    # Both bound-report modes take their 14 columns from
    # stats.trial_record, one sampled graph at a time or every configuration
    # of the cube at once.  Relabelling a sampled graph so that its color-1
    # vertices become 0..c1-1 in index order keeps the focal vertices (first
    # and second color-1, first color-2) and gives its enumerated row.
    seed, trials = 17, 50
    for n, delta, p, cap in [(5, 0.5, 0.5, 6), (6, 1, 0.4, 2)]:
        scheme = FixedGap.from_delta(delta)
        c1, _ = scheme.class_sizes(n)
        sampled = _gather_trial_quantities(n, p, delta, trials, seed, cap)
        cols, _ = enumerate_trial_quantities(n, c1, p, cap)
        assert list(sampled) == list(cols)
        index = {e: k for k, e in enumerate(edge_list(n))}
        for t in range(trials):
            g = sample_gnp(GraphParams(n, p, split_seed(seed, t)), scheme)
            label = np.empty(n, dtype=int)
            label[np.argsort(g.colors, kind="stable")] = np.arange(n)
            mask = 0
            for a, b in edge_list(n):
                if g.is_edge(a, b):
                    mask |= 1 << index[tuple(sorted((label[a], label[b])))]
            for name, col in cols.items():
                np.testing.assert_array_equal(sampled[name][t], col[mask],
                                              err_msg=f"{name} n={n} t={t}")

"""Every ground-truth check must be able to fail.

Each mutant below is a small, plausible bug in one shared kernel.  It is
patched into every majlab module that binds the kernel's name, and must
trip exactly the checks listed beside it:

* the labels of `exhaustive_identity_scan(5)` (rhat, partition, day2,
  centering), with the violation list uncapped so that no label hides
  behind another;
* "golden": an exact n <= 5 record of the golden file no longer matches;
* "trajectory": at n = 4 the cube's runs, or its color-1 counts on any day
  up to two past the longest run, disagree with `mask_trajectory`, the
  scalar reference that shares no kernel with the cube;
* "simulator": at n = 4 `dynamics.run` on a `ColoredGraph.from_edges`, for
  every configuration, coloring and rule, disagrees with `mask_trajectory`;
* "fourier": a few m <= 4 Fourier tables, `coefficient_scaled` of every
  subset mask and every configuration's function value, disagree with the
  brute force over the whole edge cube (`conftest.brute_fourier`);
* "appendix_a.<lemma_id>": an asserted point of
  `verify_appendix_a(small_grid(0))` fails that check.  Besides the shared
  kernels, the batched checks' own kernels are mutated: the point-mass
  window cache, the finite spaces' row moments and their event entries.

A method is patched on its class.
"""

import functools
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

from majlab import oracle, probability
from majlab.appendix_a import (LEMMA_IDS, _event_entries, _moments,
                               _window_reader, small_grid, verify_appendix_a)
from majlab.dynamics import (CapReached, TwoCycle, Unanimity, UpdateRule,
                             keep_margin, margins, run, takes_color1)
from majlab.fourier import (_class_stars, _class_sums, _masses, edge_list,
                            fourier_coefficients)
from majlab.graphs import ColoredGraph, unpack_row
from majlab.oracle import (_Cube, _cube, exhaustive_identity_scan,
                           mask_trajectory, oracle_eval, rows_from_mask)
from majlab.probability import _bindiff_window, _pmf, _window, bindiff_geq_exact
from majlab.stats import compute_mu_exact
from majlab.structure import rhat_flags, s_sets_flags

from conftest import brute_fourier, golden_records

_SCAN_LABELS = ("rhat", "partition", "day2", "centering")
_BINDIFF_LABELS = {"appendix_a.clt_supremum", "appendix_a.equal_point_lower",
                   "appendix_a.pointmass_lower"}
_FOURIER_TABLES = [(3, (1, 1, 2), 1, 2), (4, (1, 1, 2, 2), 0, 1),
                   (4, (1, 1, 1, 2), 3, 3)]  # (m, colors, v, power) at p = 1/4

# the references share no kernel with any mutant, so one build serves all
_brute_fourier = functools.cache(brute_fourier)


@functools.cache
def _trajectories(n):
    """mask_trajectory of every (configuration, coloring, rule) at n."""
    return {(mask, c1m, rule): mask_trajectory(n, rows_from_mask(n, mask),
                                               c1m, rule)
            for mask in range(1 << len(edge_list(n)))
            for c1m, rule in itertools.product(range(1 << n), UpdateRule)}


def _ties_to_color1(margin, color1, rule):
    if rule is UpdateRule.STANDARD:
        return margin >= 0
    return takes_color1(margin, color1, rule)


def _flipped_at_margin_1(margin, color1, rule):
    return takes_color1(margin, color1, rule) ^ (margin == 1)


def _rhat_without_w_vote(margin, color1, neighbours, w):
    # rhat_flags adds w's vote L(w) to the margin in G - w; take it back out
    return rhat_flags(margin - (1 if color1[w] else -1), color1, neighbours, w)


def _s_sets_read_at(s1_offset, s2_offset):
    """s_sets_flags with s1 read at gap + s1_offset (correct: 1) and s2 at
    gap + s2_offset (correct: 2)."""
    def s_sets(margin, color1, neighbours, u, v):
        gap = margin - neighbours(u) - neighbours(v)
        s1 = takes_color1(gap + s1_offset, color1, UpdateRule.STANDARD)
        s2 = ~takes_color1(gap + s2_offset, color1, UpdateRule.STANDARD)
        sets = s1, s2, ~(s1 | s2)
        for flags in sets:
            flags[..., u] = flags[..., v] = False
        return sets
    return s_sets


def _mu_at_standard_keep_margin(c1, c2, p):
    p = Fraction(p)
    return (2 * bindiff_geq_exact(c1 - 1, c2, p, 0) - 1,
            2 * bindiff_geq_exact(c2 - 1, c1, p, 0) - 1)


def _biased_keeps_at_0(rule):
    return 0


def _masses_at_1_minus_p(hist, p):
    # every pair present with probability 1 - p
    return _masses(hist, 1 - Fraction(p))


def _cube_run(two_back=True, parity=True):
    """_Cube.run, optionally blind to a repeat two days back or returning
    the current set at an early stop whatever the days left."""
    def run(self, c1m, rule, days):
        full = (1 << self.n) - 1
        cur = prev = np.full(len(self.rows), c1m, dtype=np.uint8)
        held = (cur == 0) | (cur == full)
        day = np.where(held, 0, -1)
        repeated = np.zeros(len(cur), dtype=bool)
        for d in range(1, days + 1):
            if (held | repeated).all():
                if parity and (days - d) % 2 == 0:
                    cur = np.where(held, cur, prev)
                break
            nxt = np.where(held, cur, self.step(cur, rule))
            repeated |= (nxt == cur) | (two_back & (nxt == prev))
            held = (nxt == 0) | (nxt == full)
            day[held & (day < 0)] = d
            prev, cur = cur, nxt
        return cur, day, ~(held | repeated)
    return run


def _margins_with_own_vote(g, color1_words):
    own = unpack_row(color1_words, g.n)
    return margins(g, color1_words) + np.where(own, 1, -1)


def _star_reversed(m, colors, v):
    # star edge j read as joining v to the (m-2-j)-th other vertex: the class
    # sizes hold, but the wrong edges fall in each class
    others = [u for u in range(m) if u != v]
    mirrored = list(colors)
    for u, w in zip(others, reversed(others)):
        mirrored[u] = colors[w]
    return _class_stars(m, mirrored, v)


def _class_sums_factors_swapped(c, p, per_subset):
    # k present edges read as c - k: 2 - 2p for an absent edge of S, -2p for
    # a present one
    return _class_sums(c, p, per_subset)[:, ::-1]


def _bindiff_window_with(reverse=True, flip=False):
    """_bindiff_window, optionally with X2's pmf not reversed or X2 taken as
    Bin(n2, 1 - p)."""
    def kernel(n1, n2, p):
        q = 1 - p if flip else p
        lo1, hi1 = _window(n1, p)
        lo2, hi2 = _window(n2, q)
        k2 = np.arange(hi2, lo2 - 1, -1) if reverse else np.arange(lo2, hi2 + 1)
        return lo1 - hi2, np.convolve(_pmf(np.arange(lo1, hi1 + 1), n1, p),
                                      _pmf(k2, n2, q))
    return kernel


def _windows_keyed_without_p():
    # the batched point-mass checks' window cache, keyed by (n1, n2) alone:
    # every p of a pair reads the window of the first p it met
    windows = {}

    def mass(n1, n2, p, d):
        if (n1, n2) not in windows:
            windows[n1, n2] = probability._bindiff_window(n1, n2, p)
        lo, w = windows[n1, n2]
        return float(w[d - lo]) if 0 <= d - lo < w.shape[0] else 0.0
    return mass


def _moments_arguments_swapped(weights, values):
    return _moments(values, weights)


def _event_entries_column_major(rows, event, k):
    # the event's entries gathered down the columns of the stacked points,
    # so each row holds entries of several points
    return rows.T[event.T].reshape(len(rows), k)


def _s_sets_then(post):
    return lambda *args: post(*s_sets_flags(*args))


def _s2_takes_s1(s1, s2, ss):
    return s1, s2 | s1, ss


def _no_s_star(s1, s2, ss):
    return s1, s2, np.zeros_like(ss)


MUTANTS = {
    "standard-ties-to-color-1": (takes_color1, _ties_to_color1,
                                 {"golden", "trajectory", "simulator"}),
    "takes-color1-flipped-at-margin-1": (
        takes_color1, _flipped_at_margin_1,
        {"partition", "day2", "centering", "golden", "trajectory",
         "simulator", "fourier"}),
    "rhat-without-w-vote": (rhat_flags, _rhat_without_w_vote,
                            {"rhat", "golden"}),
    "s1-at-gap-plus-0": (s_sets_flags, _s_sets_read_at(0, 2),
                         {"day2", "golden"}),
    "s2-at-gap-plus-3": (s_sets_flags, _s_sets_read_at(1, 3),
                         {"day2", "golden"}),
    "mu-at-standard-keep-margin": (compute_mu_exact,
                                   _mu_at_standard_keep_margin,
                                   {"centering", "golden", "fourier"}),
    "biased-keeps-at-margin-0": (keep_margin, _biased_keeps_at_0,
                                 {"golden", "trajectory", "simulator",
                                  "fourier"}),
    "masses-at-1-minus-p": (_masses, _masses_at_1_minus_p,
                            {"centering", "golden"}),
    "cube-run-blind-two-days-back": (_Cube.run, _cube_run(two_back=False),
                                     {"trajectory"}),
    "cube-run-without-parity": (_Cube.run, _cube_run(parity=False),
                                {"trajectory"}),
    "s2-takes-s1": (s_sets_flags, _s_sets_then(_s2_takes_s1),
                    {"partition", "day2"}),
    "no-s-star": (s_sets_flags, _s_sets_then(_no_s_star),
                  {"partition", "day2", "golden"}),
    "margins-with-own-vote": (margins, _margins_with_own_vote, {"simulator"}),
    "fourier-star-reversed": (_class_stars, _star_reversed, {"fourier"}),
    "fourier-basis-factors-swapped": (_class_sums, _class_sums_factors_swapped,
                                      {"fourier"}),
    "bindiff-x2-not-reversed": (_bindiff_window,
                                _bindiff_window_with(reverse=False),
                                _BINDIFF_LABELS),
    "bindiff-x2-at-1-minus-p": (_bindiff_window,
                                _bindiff_window_with(flip=True),
                                _BINDIFF_LABELS),
    "pointmass-windows-keyed-without-p": (_window_reader,
                                          _windows_keyed_without_p,
                                          {"appendix_a.pointmass_upper"}),
    "moments-arguments-swapped": (_moments, _moments_arguments_swapped,
                                  {"appendix_a.conditional_variance",
                                   "appendix_a.cdf_contraction"}),
    "event-entries-column-major": (_event_entries,
                                   _event_entries_column_major,
                                   {"appendix_a.conditional_variance",
                                    "appendix_a.conditional_mean"}),
}


def _patch_everywhere(monkeypatch, original, mutant):
    owner, _, name = original.__qualname__.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(sys.modules[original.__module__], owner),
                            name, mutant)
        return
    bound = [mod for key, mod in list(sys.modules.items())
             if key.split(".")[0] == "majlab"
             and getattr(mod, name, None) is original]
    assert bound, name
    for mod in bound:
        monkeypatch.setattr(mod, name, mutant)


def _tripped_checks(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_VIOLATIONS", 1 << 20)
    tripped = {v.split(":")[0] for v in exhaustive_identity_scan(5).violations}
    assert tripped <= set(_SCAN_LABELS), tripped
    if any(oracle_eval(q).value != want
           for q, want in golden_records() if q.n <= 5):
        tripped.add("golden")
    n = 4
    cube = _cube(n)
    trajectories = _trajectories(n)
    for c1m, rule in itertools.product(range(1 << n), UpdateRule):
        held, day, capped = cube.run(c1m, rule, (1 << n) + 4)
        winner = np.select([held == (1 << n) - 1, held == 0], [1, 2])
        got = zip(winner.tolist(), day.tolist(), capped.tolist())
        ts = [trajectories[mask, c1m, rule] for mask in range(len(cube.rows))]
        want = [(t.winner or 0, -1 if t.day is None else t.day, t.kind == "cap")
                for t in ts]
        # past a trajectory's end its cycle repeats and unanimity holds
        days = range(max(len(t.counts) for t in ts) + 2)
        counts = [np.bitwise_count(cube.run(c1m, rule, d)[0]).tolist()
                  for d in days]
        if (list(got) != want
                or counts != [[t.count_at(d) for t in ts] for d in days]):
            tripped.add("trajectory")
            break
    if not _simulator_agrees(n, trajectories):
        tripped.add("simulator")
    p = Fraction(1, 4)
    for m, colors, v, power in _FOURIER_TABLES:
        table = fourier_coefficients(m, colors, v, p, power=power)
        scaled = [table.coefficient_scaled(s)
                  for s in range(1 << table.n_edges)]
        if [scaled, table.function_values()] != list(
                _brute_fourier(m, colors, v, p, power)):
            tripped.add("fourier")
    tripped |= {f"appendix_a.{pt.lemma_id}"
                for pt in verify_appendix_a(small_grid(0)).points
                if pt.asserted and pt.passed is False}
    return tripped


def _simulator_agrees(n, trajectories):
    cap = (1 << n) + 4
    for (mask, c1m, rule), t in trajectories.items():
        edges = [e for k, e in enumerate(edge_list(n)) if mask >> k & 1]
        colors = [1 if c1m >> i & 1 else 2 for i in range(n)]
        trace = run(ColoredGraph.from_edges(n, edges, colors), rule, cap)
        if t.kind == "unanimity":
            end = Unanimity(t.winner, t.day)
        else:
            end = (TwoCycle(t.entered_day, t.period) if t.kind == "cycle"
                   else CapReached(cap))
        if (trace.termination != end
                or [c for _, c in trace.counts] != list(t.counts)):
            return False
    return True


def test_unmutated_checks_pass(monkeypatch):
    assert _tripped_checks(monkeypatch) == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_trips_its_checks(monkeypatch, name):
    original, mutant, expected = MUTANTS[name]
    # _keys caches per (n, coloring, statistic), not per kernel
    oracle._keys.cache_clear()
    _patch_everywhere(monkeypatch, original, mutant)
    try:
        assert _tripped_checks(monkeypatch) == expected
    finally:
        oracle._keys.cache_clear()


def test_every_check_trips_under_some_mutant():
    tripped = set().union(*(expected for *_, expected in MUTANTS.values()))
    # step_bound is the one check no mutant trips: on small_grid(0) its
    # largest step is under 1/40 of its bound and the table's peak under
    # half of it, so no table that stays a sub-probability vector can fail it
    assert tripped == {*_SCAN_LABELS, "golden", "trajectory", "simulator",
                       "fourier", *(f"appendix_a.{lemma}" for lemma in LEMMA_IDS
                                    if lemma != "step_bound")}

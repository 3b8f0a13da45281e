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
  scalar reference that shares no kernel with the cube.

A method is patched on its class.
"""

import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

from majlab import oracle
from majlab.dynamics import UpdateRule, keep_margin, takes_color1
from majlab.fourier import _masses
from majlab.oracle import (_Cube, _cube, exhaustive_identity_scan,
                           mask_trajectory, oracle_eval, rows_from_mask)
from majlab.probability import bindiff_geq_exact
from majlab.stats import compute_mu_exact
from majlab.structure import rhat_flags, s_sets_flags

from conftest import golden_records

_SCAN_LABELS = ("rhat", "partition", "day2", "centering")


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


def _s_sets_then(post):
    return lambda *args: post(*s_sets_flags(*args))


def _s2_takes_s1(s1, s2, ss):
    return s1, s2 | s1, ss


def _no_s_star(s1, s2, ss):
    return s1, s2, np.zeros_like(ss)


MUTANTS = {
    "standard-ties-to-color-1": (takes_color1, _ties_to_color1,
                                 {"golden", "trajectory"}),
    "takes-color1-flipped-at-margin-1": (
        takes_color1, _flipped_at_margin_1,
        {"partition", "day2", "centering", "golden", "trajectory"}),
    "rhat-without-w-vote": (rhat_flags, _rhat_without_w_vote,
                            {"rhat", "golden"}),
    "s1-at-gap-plus-0": (s_sets_flags, _s_sets_read_at(0, 2),
                         {"day2", "golden"}),
    "s2-at-gap-plus-3": (s_sets_flags, _s_sets_read_at(1, 3),
                         {"day2", "golden"}),
    "mu-at-standard-keep-margin": (compute_mu_exact,
                                   _mu_at_standard_keep_margin,
                                   {"centering", "golden"}),
    "biased-keeps-at-margin-0": (keep_margin, _biased_keeps_at_0,
                                 {"golden", "trajectory"}),
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
    all_rows = [rows_from_mask(n, m) for m in range(len(cube.rows))]
    for c1m, rule in itertools.product(range(1 << n), UpdateRule):
        held, day, capped = cube.run(c1m, rule, (1 << n) + 4)
        winner = np.select([held == (1 << n) - 1, held == 0], [1, 2])
        got = zip(winner.tolist(), day.tolist(), capped.tolist())
        ts = [mask_trajectory(n, rows, c1m, rule) for rows in all_rows]
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
    return tripped


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
    assert tripped == {*_SCAN_LABELS, "golden", "trajectory"}

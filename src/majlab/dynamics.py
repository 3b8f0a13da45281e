"""Synchronous two-color majority dynamics and its color-1-biased variant.

Each day every vertex simultaneously looks at its neighbours' colors on the
previous day:

* standard rule: take color 1 if d1 > d2, color 2 if d2 > d1, keep the
  current color on a tie (isolated vertices always tie);
* biased rule: take color 1 if d1 >= d2, color 2 if d1 <= d2 - 2, keep the
  current color only at d1 = d2 - 1.

`margins` is the one computation of a graph's d1 - d2, for the simulator and
the structural sets.  `keep_margin` writes the thresholds and `takes_color1`
is the one threshold, called by the simulator, the exact oracle, the
structural sets and the Fourier keep indicators; `stats.compute_mu` and
`compute_mu_exact` read the keep margin.

Synchronous runs are eventually periodic with period at most 2, so a run
terminates on unanimity, on a repeat of the state one or two days back, or
at a day cap.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import TextIO, Union

import numpy as np

from .graphs import ColoredGraph, pack_color_mask, popcount_rows

__all__ = [
    "UpdateRule",
    "Unanimity",
    "TwoCycle",
    "CapReached",
    "DynamicsTrace",
    "keep_margin",
    "takes_color1",
    "margins",
    "step",
    "run",
    "default_cap",
]


class UpdateRule(enum.Enum):
    STANDARD = "standard"
    BIASED = "biased"


@dataclass(frozen=True)
class Unanimity:
    winner: int
    day: int


@dataclass(frozen=True)
class TwoCycle:
    """State repeated the state one or two days earlier without unanimity.

    entered_day is the first day of the repeating pair (period-1 fixed
    points are reported here too, with the repeat one day back).
    """

    entered_day: int
    period: int = 2


@dataclass(frozen=True)
class CapReached:
    cap: int


Termination = Union[Unanimity, TwoCycle, CapReached]


@dataclass
class DynamicsTrace:
    n: int
    counts: list[tuple[int, int]]  # (day, c1)
    termination: Termination

    def c1(self, day: int) -> int:
        return self.counts[day][1]

    @property
    def days_run(self) -> int:
        return self.counts[-1][0]

    def write_csv(self, fh: TextIO) -> None:
        """CSV rows (day, c1, c2) followed by a JSON footer comment."""
        fh.write("day,c1,c2\n")
        for day, c1 in self.counts:
            fh.write(f"{day},{c1},{self.n - c1}\n")
        fh.write("# " + json.dumps(self.termination_record(), sort_keys=True) + "\n")

    def termination_record(self) -> dict:
        t = self.termination
        if isinstance(t, Unanimity):
            return {"kind": "unanimity", "winner": t.winner, "day": t.day}
        if isinstance(t, TwoCycle):
            return {"kind": "two_cycle", "entered_day": t.entered_day, "period": t.period}
        return {"kind": "cap_reached", "cap": t.cap}


def keep_margin(rule: UpdateRule) -> int:
    """The margin d1 - d2 at which a vertex keeps its color under `rule`:
    0 standard, -1 biased."""
    return 0 if rule is UpdateRule.STANDARD else -1


def takes_color1(margin, color1, rule: UpdateRule):
    """Whether a vertex holds color 1 after one day of `rule`, elementwise.

    margin is the vertex's color-1 minus color-2 neighbour count (d1 - d2)
    and color1 whether it holds color 1 now.  Above the rule's keep margin
    it takes color 1, below it color 2, and at it the vertex keeps its
    color.
    """
    keep = keep_margin(rule)
    return (margin > keep) | ((margin == keep) & color1)


def margins(g: ColoredGraph, color1_words: np.ndarray) -> np.ndarray:
    """d1 - d2 of every vertex when color1_words packs the color-1 vertices."""
    return 2 * popcount_rows(g.adj & color1_words[None, :]) - g.degrees


def step(g: ColoredGraph, rule: UpdateRule = UpdateRule.STANDARD) -> ColoredGraph:
    """One synchronous day.  The input is untouched; adjacency is shared."""
    new1 = takes_color1(margins(g, g.color1_words), g.colors == 1, rule)
    return g.with_colors(np.where(new1, 1, 2).astype(np.int8))


def run(g: ColoredGraph, rule: UpdateRule = UpdateRule.STANDARD,
        cap: int = 1000) -> DynamicsTrace:
    """Iterate days until unanimity, a period <= 2 repeat, or the cap."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = g.n
    color1 = g.colors == 1
    # packed color-1 words of this day, the day before and the one before that
    words, last, before = g.color1_words, None, None
    counts = []
    for day in range(cap + 1):
        if day:
            color1 = takes_color1(margins(g, words), color1, rule)
            words, last, before = pack_color_mask(color1), words, last
        c1 = int(np.count_nonzero(color1))
        counts.append((day, c1))
        if c1 in (0, n):
            return DynamicsTrace(n, counts, Unanimity(1 if c1 == n else 2, day))
        if last is not None and np.array_equal(words, last):
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 1, period=1))
        if before is not None and np.array_equal(words, before):
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 2, period=2))
    return DynamicsTrace(n, counts, CapReached(cap))


def default_cap(n: int, p: float) -> int:
    """Safety cap of ceil(10 log n / log(np)) + 10 days; requires np > 1."""
    if n * p <= 1.0:
        raise ValueError(f"default_cap needs np > 1, got np={n * p}")
    return math.ceil(10.0 * math.log(n) / math.log(n * p)) + 10

"""Synchronous two-color majority dynamics and its color-1-biased variant.

Each day every vertex simultaneously looks at its neighbours' colors on the
previous day:

* standard rule: take color 1 if d1 > d2, color 2 if d2 > d1, keep the
  current color on a tie (isolated vertices always tie);
* biased rule: take color 1 if d1 >= d2, color 2 if d1 <= d2 - 2, keep the
  current color only at d1 = d2 - 1.

`margins` is the one computation of a graph's d1 - d2, for the simulator,
the structural sets and the sampled bound report (on a stack of graphs),
and the kernel of each day of `run`.  `keep_margin`
writes the thresholds and `takes_color1` is the one threshold, called by the
simulator, the exact oracle, the structural sets and the Fourier keep
indicators; `stats.compute_mu` and `compute_mu_exact` read the keep margin.

Synchronous runs are eventually periodic with period at most 2, so a run
terminates on unanimity, on a repeat of the state one or two days back, or
at a day cap.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass
from typing import TextIO, Union

import numpy as np

from .graphs import ColoredGraph

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
_KINDS = {Unanimity: "unanimity", TwoCycle: "two_cycle", CapReached: "cap_reached"}


@dataclass
class DynamicsTrace:
    n: int
    counts: list[tuple[int, int]]  # (day, c1)
    termination: Termination

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
        return {"kind": _KINDS[type(t)], **asdict(t)}


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
    return margin + color1 > keep_margin(rule)


def margins(g: ColoredGraph, color1_words: np.ndarray) -> np.ndarray:
    """d1 - d2 of every vertex when color1_words packs the color-1 vertices.

    g may be a stack of graphs: adj (..., n, W) with leading batch axes, and
    color1_words (..., W) and degrees (..., n) to match.  Rows are ANDed and
    popcounted one block of about 2^17 words of each graph at a time, so the
    temporary of one graph stays in L2 (a stack's callers keep the whole
    stack near that size), and the popcounts are summed in int32."""
    n, w = g.adj.shape[-2:]
    rows = max(1, (1 << 17) // max(w, 1))
    d1 = np.empty(g.adj.shape[:-1], dtype=np.int32)
    # a stack's words reach its graphs' rows through a new axis
    words = color1_words if color1_words.ndim == 1 else color1_words[..., None, :]
    for r in range(0, n, rows):
        np.bitwise_count(g.adj[..., r:r + rows, :] & words).sum(
            axis=-1, dtype=np.int32, out=d1[..., r:r + rows])
    return 2 * d1 - g.degrees


def step(g: ColoredGraph, rule: UpdateRule = UpdateRule.STANDARD) -> ColoredGraph:
    """One synchronous day.  The input is untouched; adjacency is shared."""
    new1 = takes_color1(margins(g, g.color1_words), g.colors == 1, rule)
    return g.with_colors(np.where(new1, 1, 2).astype(np.int8))


def run(g: ColoredGraph, rule: UpdateRule = UpdateRule.STANDARD,
        cap: int = 1000) -> DynamicsTrace:
    """Iterate days until unanimity, a period <= 2 repeat, or the cap.

    The color-1 flags sit in a bool buffer padded to whole words, packed by
    one `np.packbits` a day; a repeat is a match of the packed bytes one or
    two days back."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = g.n
    flags = np.zeros(g.adj.shape[1] * 64, dtype=bool)
    flags[:n] = g.colors == 1
    words, key, last = g.color1_words, None, None
    counts = []
    for day in range(cap + 1):
        if day:
            flags[:n] = takes_color1(margins(g, words), flags[:n], rule)
            words = np.packbits(flags, bitorder="little").view("<u8")
        key, last, before = words.tobytes(), key, last
        c1 = int(np.count_nonzero(flags))
        counts.append((day, c1))
        if c1 in (0, n):
            return DynamicsTrace(n, counts, Unanimity(1 if c1 == n else 2, day))
        if key == last:
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 1, period=1))
        if key == before:
            return DynamicsTrace(n, counts, TwoCycle(entered_day=day - 2, period=2))
    return DynamicsTrace(n, counts, CapReached(cap))


def default_cap(n: int, p: float) -> int:
    """Safety cap of ceil(10 log n / log(np)) + 10 days; requires np > 1."""
    if n * p <= 1.0:
        raise ValueError(f"default cap needs np > 1; got n={n}, p={p}")
    return math.ceil(10.0 * math.log(n) / math.log(n * p)) + 10

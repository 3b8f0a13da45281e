"""Ground truth by exhaustive enumeration: statistics of G(n,p) for n <= 6
are integrated over all 2^C(n,2) edge configurations with exact weights.

Graphs are edge bitmasks in lexicographic pair order.  The engine holds
every configuration of an n-vertex graph at once as a (2^E, n) uint8 cube
of neighbourhood masks (E = C(n,2)), built on first use, and runs a day of
dynamics for all of them with a few `np.bitwise_count` calls.  One day
loop, `_Cube.run`, holds unanimity and gives each configuration's color-1
set on a day, its day of unanimity and whether it is unsettled.  r-hat
and the s-sets are `structure.rhat_flags` and `s_sets_flags` called on the
whole cube, the kernels `compute_r_hat` and `compute_s_sets` call on one
graph; the exact bound report's columns are `stats.trial_record` of it.

A statistic keys each configuration by a small integer that does not
depend on p.  The keys and their histogram by edge count are cached per
(n, coloring, statistic) and shared by the exact answer, the float answer
and `oracle_vs_mc`.  A configuration's weight depends only on its edge
count, so an answer at any p sums the histogram as integer masses over one
denominator per query (`fourier._masses`): at Fraction(p) = a/d, edge
count e weighs a^e (d - a)^(E - e) / d^E.  A rational p gets that exact
Fraction, a float p its binary value rounded once to the nearest float.

The scalar kernels `rows_from_mask`, `step_mask`, `rhat_mask`,
`s_sets_mask` and `mask_trajectory` work on one configuration; they are the
reference the engine is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import UpdateRule, takes_color1
from .fourier import _masses, config_weights, edge_list, fourier_coefficients
from .stats import (compute_mu_exact, expected_biased_day1_count, is_exact,
                    trial_record)
from .structure import focal_pair, rhat_flags, s_sets_flags

__all__ = [
    "MAX_ORACLE_N",
    "WinProb",
    "ExpectedCount",
    "VarCount",
    "MomentZ",
    "SetStat",
    "FourierCoeff",
    "OracleQuery",
    "OracleResult",
    "oracle_eval",
    "OracleMcAgreement",
    "oracle_vs_mc",
    "rows_from_mask",
    "step_mask",
    "rhat_mask",
    "s_sets_mask",
    "mask_trajectory",
    "enumerate_trial_quantities",
]

MAX_ORACLE_N = 6
_MAX_VIOLATIONS = 20  # an identity scan lists at most this many violations


# ----------------------------------------------------------------------
# scalar reference kernels: one configuration at a time

def rows_from_mask(n: int, mask: int) -> tuple[int, ...]:
    rows = [0] * n
    for k, (a, b) in enumerate(edge_list(n)):
        if mask >> k & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def step_mask(n: int, rows: Sequence[int], c1mask: int,
              rule: UpdateRule = UpdateRule.STANDARD) -> int:
    """One synchronous day on a bitmask graph; returns the new color-1 set."""
    new = 0
    for v in range(n):
        row = rows[v]
        d1 = (row & c1mask).bit_count()
        deg = row.bit_count()
        cur = c1mask >> v & 1
        if rule is UpdateRule.STANDARD:
            take = 2 * d1 > deg or (2 * d1 == deg and cur)
        else:
            take = 2 * d1 >= deg or (2 * d1 == deg - 1 and cur)
        if take:
            new |= 1 << v
    return new


@dataclass(frozen=True)
class MaskTrajectory:
    counts: tuple[int, ...]          # c1 per day, day 0 first
    kind: str                        # 'unanimity' | 'cycle' | 'cap'
    winner: Optional[int]
    day: Optional[int]               # unanimity day
    entered_day: Optional[int]
    period: Optional[int]

    def count_at(self, day: int) -> int:
        if day < len(self.counts):
            return self.counts[day]
        if self.kind == "unanimity":
            return self.counts[-1]
        if self.kind == "cycle":
            e = self.entered_day
            return self.counts[e + (day - e) % self.period]
        raise ValueError(f"trajectory capped before day {day}")


def mask_trajectory(n: int, rows: Sequence[int], c1mask: int,
                    rule: UpdateRule = UpdateRule.STANDARD,
                    cap: Optional[int] = None) -> MaskTrajectory:
    """Run until unanimity or a period <= 2 repeat; cap defaults to 2^n + 4."""
    if cap is None:
        cap = (1 << n) + 4
    full = (1 << n) - 1
    counts = [c1mask.bit_count()]
    if c1mask in (0, full):
        return MaskTrajectory(tuple(counts), "unanimity",
                              1 if c1mask == full else 2, 0, None, None)
    cur, prev = c1mask, None
    for day in range(1, cap + 1):
        nxt = step_mask(n, rows, cur, rule)
        counts.append(nxt.bit_count())
        if nxt in (0, full):
            return MaskTrajectory(tuple(counts), "unanimity",
                                  1 if nxt == full else 2, day, None, None)
        if nxt == cur:
            return MaskTrajectory(tuple(counts), "cycle", None, None, day - 1, 1)
        if prev is not None and nxt == prev:
            return MaskTrajectory(tuple(counts), "cycle", None, None, day - 2, 2)
        prev, cur = cur, nxt
    return MaskTrajectory(tuple(counts), "cap", None, None, None, None)


def rhat_mask(n: int, rows: Sequence[int], c1mask: int, w: int) -> int:
    """Bitmask twin of the day-1 margin set for focal vertex w."""
    lw = 1 if c1mask >> w & 1 else -1
    bit_w = 1 << w
    out = 0
    c2mask = ~c1mask & ((1 << n) - 1)
    for u in range(n):
        if u == w:
            continue
        row = rows[u] & ~bit_w
        d1 = (row & c1mask).bit_count()
        d2 = (row & c2mask).bit_count()
        if c1mask >> u & 1:
            member = d1 + lw >= d2
        else:
            member = d1 + lw > d2
        if member:
            out |= 1 << u
    return out


def s_sets_mask(n: int, rows: Sequence[int], c1mask: int, u: int,
                v: int) -> tuple[int, int, int, int]:
    """(s1, s2, s_star, i_g) for a color-1 focal pair, as bitmasks and count."""
    if not (c1mask >> u & 1 and c1mask >> v & 1):
        raise ValueError("both focal vertices must have color 1")
    full = (1 << n) - 1
    c2mask = ~c1mask & full
    skip = (1 << u) | (1 << v)
    s1 = s2 = ss = 0
    for w in range(n):
        if skip >> w & 1:
            continue
        row = rows[w] & ~skip
        gap = (row & c1mask).bit_count() - (row & c2mask).bit_count()
        if c1mask >> w & 1:
            if gap >= -1:
                s1 |= 1 << w
            elif gap == -2:
                ss |= 1 << w
            else:
                s2 |= 1 << w
        else:
            if gap >= 0:
                s1 |= 1 << w
            elif gap == -1:
                ss |= 1 << w
            else:
                s2 |= 1 << w
    ig = (ss & rows[u] & rows[v]).bit_count()
    return s1, s2, ss, ig


# ----------------------------------------------------------------------
# the configuration cube: every edge configuration at once

def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int8)


class _Cube:
    """Neighbourhood masks of all 2^E configurations of an n-vertex graph.

    Row k of `rows` holds the n adjacency masks of edge bitmask k and
    `edges[k]` its edge count.  Vertex sets are uint8 masks (n <= 8), one
    per configuration, or one int shared by all of them.  Margins stay in
    int8, so no (2^E, n) array is promoted to a wider type.
    """

    def __init__(self, n: int):
        self.n = n
        self.n_edges = n * (n - 1) // 2
        configs = np.arange(1 << self.n_edges, dtype=np.uint32)
        rows = np.zeros((len(configs), n), dtype=np.uint8)
        for k, (a, b) in enumerate(edge_list(n)):
            bit = (configs >> k & 1).astype(np.uint8)
            rows[:, a] |= bit << b
            rows[:, b] |= bit << a
        self.rows = rows
        self.degrees = _popcount(rows)
        self.edges = np.bitwise_count(configs).astype(np.int64)
        self.vertex_bits = np.uint8(1) << np.arange(n, dtype=np.uint8)
        # membership flags of every uint8 vertex set, looked up by `take`
        self.flag_table = (np.arange(256, dtype=np.uint8)[:, None]
                           & self.vertex_bits) != 0
        for a in (self.rows, self.degrees, self.edges, self.vertex_bits,
                  self.flag_table):
            a.flags.writeable = False

    def _pack(self, flags: np.ndarray) -> np.ndarray:
        """(..., n) vertex flags -> (...) vertex sets."""
        bits = flags.view(np.uint8)
        out = bits[..., 0].copy()
        for v in range(1, self.n):
            out |= bits[..., v] << v
        return out

    def _members(self, vset) -> np.ndarray:
        """Membership flags of each vertex in `vset`, shape (..., n)."""
        return self.flag_table.take(np.asarray(vset, dtype=np.uint8), axis=0)

    def _neighbours(self, x: int) -> np.ndarray:
        return self._members(self.rows[:, x])

    def margins(self, c1) -> np.ndarray:
        """d1 - d2 of every vertex in every configuration."""
        c1 = np.asarray(c1, dtype=np.uint8)
        return 2 * _popcount(self.rows & c1[..., None]) - self.degrees

    def step(self, c1, rule: UpdateRule) -> np.ndarray:
        """One synchronous day in every configuration (twin of step_mask)."""
        return self._pack(takes_color1(self.margins(c1), self._members(c1), rule))

    def rhat(self, c1m: int, w: int) -> np.ndarray:
        """Day-1 margin set of focal vertex w (twin of rhat_mask)."""
        return self._pack(rhat_flags(self.margins(c1m), self._members(c1m),
                                     self._neighbours, w))

    def s_sets(self, c1m: int, u: int, v: int):
        """(s1, s2, s_star, i_g) for a color-1 focal pair (twin of s_sets_mask)."""
        s1, s2, ss = map(self._pack, s_sets_flags(
            self.margins(c1m), self._members(c1m), self._neighbours, u, v))
        return s1, s2, ss, _popcount(ss & self.rows[:, u] & self.rows[:, v])

    def run(self, c1m: int, rule: UpdateRule, days: int):
        """Step every configuration `days` days, holding unanimous ones.
        Returns the color-1 set on day `days`, the day of unanimity (-1 for
        none) and whether the run is unsettled: neither unanimous nor
        repeating a set one or two days back (mask_trajectory's "cap")."""
        full = (1 << self.n) - 1
        cur = prev = np.full(len(self.rows), c1m, dtype=np.uint8)
        held = (cur == 0) | (cur == full)
        day = np.where(held, 0, -1)
        repeated = np.zeros(len(cur), dtype=bool)
        for d in range(1, days + 1):
            if (held | repeated).all():
                # every run is in its period <= 2 (Goles & Olivos, 1980), so
                # an odd number of days left after day d - 1 lands on prev
                if (days - d) % 2 == 0:
                    cur = np.where(held, cur, prev)
                break
            nxt = np.where(held, cur, self.step(cur, rule))
            # a repeat one or two days back; on day 1 both are day 0
            repeated |= (nxt == cur) | (nxt == prev)
            held = (nxt == 0) | (nxt == full)
            day[held & (day < 0)] = d
            prev, cur = cur, nxt
        return cur, day, ~(held | repeated)


@functools.cache
def _cube(n: int) -> _Cube:
    return _Cube(n)


# ----------------------------------------------------------------------
# queries

class _OneColor:
    """A statistic of the vertices of one color, on a day >= 0 or within a
    cap >= 1 where it has one."""

    def __post_init__(self):
        if self.color not in (1, 2):
            raise ValueError(f"color must be 1 or 2, got {self.color}")
        for name, floor in (("day", 0), ("cap", 1)):
            value = getattr(self, name, None)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be at least {floor}, got {value}")


@dataclass(frozen=True)
class WinProb(_OneColor):
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD
    cap: Optional[int] = None


@dataclass(frozen=True)
class ExpectedCount(_OneColor):
    day: int
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD


@dataclass(frozen=True)
class VarCount(_OneColor):
    day: int
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD


@dataclass(frozen=True)
class MomentZ:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"MomentZ needs k >= 0, got {self.k}")


_SET_PARTS = ("s1", "s2", "s_star", "i_g")


@dataclass(frozen=True)
class SetStat:
    which: str  # 's1' | 's2' | 's_star' | 'i_g' | 'r_hat'
    moment: int = 1
    u: Optional[int] = None
    v: Optional[int] = None
    w: Optional[int] = None

    def __post_init__(self):
        if self.which not in _SET_PARTS + ("r_hat",):
            raise ValueError(f"unknown set statistic: {self.which}")
        if self.moment not in (1, 2):
            raise ValueError("set-statistic moment must be 1 or 2")


@dataclass(frozen=True)
class FourierCoeff:
    v: int
    s: tuple[tuple[int, int], ...]


Statistic = Union[WinProb, ExpectedCount, VarCount, MomentZ, SetStat, FourierCoeff]


@dataclass(frozen=True)
class OracleQuery:
    n: int
    p: Union[float, Fraction]
    colors: tuple[int, ...]
    statistic: Statistic

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if not 1 <= self.n <= MAX_ORACLE_N:
            raise ValueError(f"oracle needs 1 <= n <= {MAX_ORACLE_N}, got {self.n}")
        if len(self.colors) != self.n:
            raise ValueError("colors must have one entry per vertex")
        if any(c not in (1, 2) for c in self.colors):
            raise ValueError("colors must be 1 or 2")
        if not 0 <= self.p <= 1:  # NaN fails too
            raise ValueError(f"p must lie in [0,1], got {self.p}")

    @property
    def exact(self) -> bool:
        return is_exact(self.p)


@dataclass
class OracleResult:
    value: Union[float, Fraction]
    details: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return float(self.value)


# Keys do not depend on p, so the exact answer, the float answer and
# oracle_vs_mc of one query share one enumeration.
@functools.lru_cache(maxsize=1)
def _keys(n: int, c1m: int, stat: Statistic) -> tuple[np.ndarray, np.ndarray]:
    """Every edge configuration's key and the (E + 1) x K histogram of the
    keys by edge count.  WinProb keys a win as 1 and a capped run as 2,
    MomentZ the biased day-1 count, SetStat raw^moment; counts key themselves.
    """
    cube = _cube(n)
    if isinstance(stat, WinProb):
        held, _, capped = cube.run(c1m, stat.rule, stat.cap or (1 << n) + 4)
        won = held == ((1 << n) - 1 if stat.color == 1 else 0)
        keys = np.where(capped, 2, won)
    elif isinstance(stat, (ExpectedCount, VarCount)):
        c1 = _popcount(cube.run(c1m, stat.rule, stat.day)[0])
        keys = c1 if stat.color == 1 else n - c1
    elif isinstance(stat, MomentZ):
        keys = _popcount(cube.step(c1m, UpdateRule.BIASED))
    elif isinstance(stat, SetStat):
        if stat.which == "r_hat":
            raw = _popcount(cube.rhat(c1m, stat.w if stat.w is not None else 0))
        else:
            u, v = focal_pair([c1m >> i & 1 for i in range(n)], stat.u, stat.v)
            pick = _SET_PARTS.index(stat.which)
            part = cube.s_sets(c1m, u, v)[pick]
            raw = part if pick == 3 else _popcount(part)
        keys = raw.astype(np.int64) ** stat.moment
    else:
        raise TypeError(f"unsupported statistic: {stat!r}")
    keys = keys.astype(np.int64)
    keys.flags.writeable = False
    width = int(keys.max()) + 1
    hist = np.bincount(cube.edges * width + keys,
                       minlength=(cube.n_edges + 1) * width)
    return keys, hist.reshape(cube.n_edges + 1, width)


def _table(q: OracleQuery) -> tuple[np.ndarray, np.ndarray, list]:
    """The keys and key histogram of q's statistic, and each key's value."""
    c1m = sum(1 << i for i, c in enumerate(q.colors) if c == 1)
    keys, hist = _keys(q.n, c1m, q.statistic)
    width = hist.shape[1]
    if isinstance(q.statistic, WinProb):
        values = [0, 1, 0][:width]
    elif isinstance(q.statistic, MomentZ):
        c1 = c1m.bit_count()
        center = 2 * expected_biased_day1_count(c1, q.n - c1, Fraction(q.p))
        values = [(2 * c - center) ** q.statistic.k for c in range(width)]
    else:
        values = list(range(width))
    return keys, hist, values


def oracle_eval(q: OracleQuery) -> OracleResult:
    """The statistic's expectation under G(n, p), or for VarCount its
    variance.  Rational p gives an exact Fraction; a float p gives the exact
    answer at its binary value, rounded once to a float (cap_mass and a
    FourierCoeff's scaled too).
    """
    out = Fraction if q.exact else float
    if isinstance(q.statistic, FourierCoeff):
        table = fourier_coefficients(q.n, q.colors, q.statistic.v,
                                     Fraction(q.p), exact=True)
        s = list(q.statistic.s)
        return OracleResult(table.coefficient(s), {
            "scaled": out(table.coefficient_scaled(s)), "exact": q.exact})
    _, hist, values = _table(q)
    mass = _masses(hist, q.p)
    total = sum(m * v for m, v in zip(mass, values))
    if isinstance(q.statistic, VarCount):
        total = sum(m * v * v for m, v in zip(mass, values)) - total * total
    details = {"exact": q.exact}
    if isinstance(q.statistic, WinProb):
        details["cap_mass"] = out(sum(mass[2:]))
    return OracleResult(out(total), details)


# ----------------------------------------------------------------------
# Monte Carlo agreement

@dataclass
class OracleMcAgreement:
    oracle_value: float
    mc_estimate: float
    mc_stderr: float
    trials: int
    z_score: float
    within_4se: bool


def oracle_vs_mc(q: OracleQuery, trials: int,
                 master_seed: int = 0) -> OracleMcAgreement:
    """Monte Carlo estimate over sampled configurations vs the exact value.

    The sampler draws fresh edge configurations and maps each one's key
    through the values the exact answer was integrated with.
    """
    if isinstance(q.statistic, FourierCoeff):
        raise ValueError("Monte Carlo comparison is for graph statistics")
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    oracle_value = float(oracle_eval(q).value)
    keys, hist, values = _table(q)
    table = np.asarray([float(x) for x in values])[keys]
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    # a sampled edge bitmask has bit k set with probability p
    bits = rng.random((trials, len(hist) - 1)) < float(q.p)
    samples = table[bits @ (1 << np.arange(len(hist) - 1))]

    if isinstance(q.statistic, VarCount):
        est = float(np.var(samples, ddof=1))
        m = samples.mean()
        m2 = np.mean((samples - m) ** 2)
        m4 = np.mean((samples - m) ** 4)
        var_of_var = (m4 - m2**2 * (trials - 3) / (trials - 1)) / trials
        se = math.sqrt(max(var_of_var, 0.0))
    else:
        est = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(trials))

    dev = abs(oracle_value - est)
    z = dev / se if se > 0 else (0.0 if dev == 0 else float("inf"))
    return OracleMcAgreement(oracle_value, est, se, trials, z, z <= 4.0)


# ----------------------------------------------------------------------
# exhaustive identity scan

@dataclass
class IdentityScan:
    n: int
    combos: int
    rhat_checks: int
    partition_checks: int
    day2_checks: int
    centering_checks: int
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


def exhaustive_identity_scan(n: int,
                             p: Union[Fraction, int] = Fraction(1, 3)) -> IdentityScan:
    """Check the structural identities on every coloring and configuration.

    For all 2^n colorings and all 2^C(n,2) edge sets:

    * the color-1 neighbours of each w on day 1 are exactly rhat(w) cap N(w);
    * s1 / s2 / s_star partition the non-focal vertices for every color-1 pair;
    * the day-1 margin at u decomposes through the s-sets for non-adjacent
      color-1 pairs;
    * unless the coloring is unanimous, each vertex v keeps its color on
      biased day 1 with exact probability (1 + mu_v)/2.

    Colorings are visited one at a time, each against the whole cube.
    """
    if not 1 <= n <= MAX_ORACLE_N:
        raise ValueError(f"scan needs 1 <= n <= {MAX_ORACLE_N}, got {n}")
    p = Fraction(p)
    full = (1 << n) - 1
    cube = _cube(n)
    rows = cube.rows
    size = len(rows)
    scan = IdentityScan(n, 0, 0, 0, 0, 0)

    # an array check fails per configuration, an exact check (a bool) once
    def note(ok, label: str, c1m: int, where: str = "") -> None:
        bad = np.flatnonzero(~ok) if isinstance(ok, np.ndarray) else [None] * (not ok)
        for mask in bad[:max(_MAX_VIOLATIONS - len(scan.violations), 0)]:
            at = "" if mask is None else f" mask={mask}"
            scan.violations.append(f"{label}: n={n} colors={c1m:0{n}b}{at}{where}")

    def pc(masks: np.ndarray) -> np.ndarray:
        return _popcount(masks).astype(np.int64)

    for c1m in range(1 << n):
        c1 = c1m.bit_count()
        scan.combos += size
        m1 = cube.step(c1m, UpdateRule.STANDARD)
        b1 = cube.step(c1m, UpdateRule.BIASED)
        for w in range(n):
            scan.rhat_checks += size
            nbhd = rows[:, w]
            note(cube.rhat(c1m, w) & nbhd == m1 & nbhd, "rhat", c1m, f" w={w}")
        ones = [i for i in range(n) if c1m >> i & 1]
        for u, v in itertools.combinations(ones, 2):
            s1, s2, ss, ig = cube.s_sets(c1m, u, v)
            scan.partition_checks += size
            rest = full & ~((1 << u) | (1 << v))
            ok = (((s1 | s2 | ss) == rest) & (s1 & s2 == 0) & (s1 & ss == 0)
                  & (s2 & ss == 0))
            note(ok, "partition", c1m, f" uv=({u},{v})")
            du = rows[:, u]
            apart = du >> v & 1 == 0
            scan.day2_checks += int(apart.sum())
            lhs = 2 * pc(du & m1) - pc(du)
            rhs = (pc(s1 & du) - pc(s2 & du) - pc(ss & du & ~rows[:, v])
                   + ig.astype(np.int64))
            note(~apart | (lhs == rhs), "day2", c1m, f" uv=({u},{v})")
        if 0 < c1 < n:
            mu1, mu2 = compute_mu_exact(c1, n - c1, p)
            flipped = b1 ^ c1m  # bit v: v changed its color on biased day 1
            for v in range(n):
                scan.centering_checks += size
                hist = np.bincount(2 * cube.edges + (flipped >> v & 1),
                                   minlength=2 * (cube.n_edges + 1))
                kept = _masses(hist.reshape(-1, 2), p)[0]
                want = (1 + (mu1 if c1m >> v & 1 else mu2)) / 2
                note(kept == want, "centering", c1m,
                     f" v={v} P(keep)={kept} != {want}")
    return scan


# ----------------------------------------------------------------------
# bulk quantities for the bound report (exact mode)

def enumerate_trial_quantities(n: int, c1: int, p: float,
                               cap: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """`stats.trial_record` of every configuration under the canonical
    split coloring [1]*c1 + [2]*(n-c1), plus the configuration weights.

    G(n,p) is exchangeable over vertices, so fixing the coloring loses no
    generality.
    """
    if c1 < 2 or n - c1 < 1:
        raise ValueError("need at least two color-1 and one color-2 vertex")
    cube = _cube(n)
    held, day, _ = cube.run((1 << c1) - 1, UpdateRule.STANDARD, cap)
    cols = trial_record(lambda flags: cube.margins(cube._pack(flags)),
                        cube._neighbours, np.arange(n) < c1,
                        held == (1 << n) - 1, day)
    return cols, config_weights(p, cube.n_edges, cube.edges)

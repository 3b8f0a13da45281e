"""Ground truth by exhaustive enumeration: statistics of G(n,p) for n <= 6
are integrated over all 2^C(n,2) edge configurations with exact weights.

Graphs are edge bitmasks in lexicographic pair order.  The engine holds
every configuration of an n-vertex graph at once as a (2^E, n) uint8 cube
of neighbourhood masks (E = C(n,2)), built on first use, and runs a day of
dynamics for all of them with a few `np.bitwise_count` calls; runs stop
per configuration on unanimity or a period <= 2 repeat.  A configuration's
weight depends only on its edge count, so a statistic's integer values are
tallied into one histogram per edge count and an answer costs at most E + 1
Fraction products.  Every answer is summed exactly at Fraction(p), which for
a float p is its binary value: a rational p gets that exact Fraction, a
float p gets it rounded once to the nearest float.

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
from .fourier import config_weights, edge_list, fourier_coefficients
from .stats import compute_mu_exact, expected_biased_day1_count, is_exact

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

_UNANIMITY, _CYCLE, _CAP = 0, 1, 2


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int8)


class _Cube:
    """Neighbourhood masks of all 2^E configurations of an n-vertex graph.

    Row k of `rows` holds the n adjacency masks of edge bitmask k and
    `edges[k]` its edge count.  Vertex sets are uint8 masks (n <= 8), one
    per configuration, or one int shared by all of them.
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
        for a in (self.rows, self.degrees, self.edges, self.vertex_bits):
            a.flags.writeable = False

    def _pack(self, flags: np.ndarray) -> np.ndarray:
        """(..., n) vertex flags -> (...) vertex sets."""
        return flags.view(np.uint8) @ self.vertex_bits

    def _members(self, vset) -> np.ndarray:
        """Membership flags of each vertex in `vset`, shape (..., n)."""
        return (np.asarray(vset, dtype=np.uint8)[..., None]
                & self.vertex_bits) != 0

    def step(self, c1, rule: UpdateRule) -> np.ndarray:
        """One synchronous day in every configuration (twin of step_mask)."""
        c1 = np.asarray(c1, dtype=np.uint8)
        margin = 2 * _popcount(self.rows & c1[..., None]) - self.degrees
        return self._pack(takes_color1(margin, self._members(c1), rule))

    def _margins(self, c1m: int, skip: int) -> np.ndarray:
        """Color-1 minus color-2 neighbours of every vertex, ignoring `skip`."""
        full = (1 << self.n) - 1
        rows = self.rows & np.uint8(full & ~skip)
        return (_popcount(rows & np.uint8(c1m))
                - _popcount(rows & np.uint8(full & ~c1m)))

    def rhat(self, c1m: int, w: int) -> np.ndarray:
        """Day-1 margin set of focal vertex w (twin of rhat_mask)."""
        lw = 1 if c1m >> w & 1 else -1
        member = takes_color1(self._margins(c1m, 1 << w) + lw,
                              self._members(c1m), UpdateRule.STANDARD)
        return self._pack(member & ~self._members(1 << w))

    def s_sets(self, c1m: int, u: int, v: int):
        """(s1, s2, s_star, i_g) for a color-1 focal pair (twin of s_sets_mask)."""
        if not (c1m >> u & 1 and c1m >> v & 1):
            raise ValueError("both focal vertices must have color 1")
        skip = (1 << u) | (1 << v)
        gap = self._margins(c1m, skip)
        cur = self._members(c1m)
        rest = np.uint8(((1 << self.n) - 1) & ~skip)
        # s1: color 1 on day 1 with one color-1 focal neighbour; s2: color 2
        # even with both; s_star: the rest
        s1 = self._pack(takes_color1(gap + 1, cur, UpdateRule.STANDARD)) & rest
        s2 = self._pack(~takes_color1(gap + 2, cur, UpdateRule.STANDARD)) & rest
        ss = rest & ~(s1 | s2)
        ig = _popcount(ss & self.rows[:, u] & self.rows[:, v])
        return s1, s2, ss, ig

    def run(self, c1m: int, rule: UpdateRule,
            cap: Optional[int] = None) -> "_CubeRun":
        """Twin of mask_trajectory for every configuration at once."""
        if cap is None:
            cap = (1 << self.n) + 4
        full = (1 << self.n) - 1
        size = len(self.rows)
        run = _CubeRun(self, rule, [np.full(size, c1m, dtype=np.uint8)],
                       kind=np.full(size, _CAP, dtype=np.int8),
                       winner=np.zeros(size, dtype=np.int8),
                       day=np.full(size, -1, dtype=np.int64),
                       entered_day=np.full(size, -1, dtype=np.int64),
                       period=np.zeros(size, dtype=np.int8))
        if c1m in (0, full):
            run.kind[:] = _UNANIMITY
            run.winner[:] = 1 if c1m == full else 2
            run.day[:] = 0
            return run
        active = np.ones(size, dtype=bool)
        for day in range(1, cap + 1):
            nxt = run.advance()
            uni = active & ((nxt == 0) | (nxt == full))
            fixed = active & ~uni & (nxt == run.states[-2])
            two = active & ~uni & ~fixed & (day >= 2 and nxt == run.states[-3])
            run.kind[uni] = _UNANIMITY
            run.winner[uni] = np.where(nxt[uni] == full, 1, 2)
            run.day[uni] = day
            run.kind[fixed | two] = _CYCLE
            run.entered_day[fixed] = day - 1
            run.period[fixed] = 1
            run.entered_day[two] = day - 2
            run.period[two] = 2
            active &= ~(uni | fixed | two)
            if not active.any():
                break
        return run


@dataclass
class _CubeRun:
    """Per-configuration trajectories; fields follow MaskTrajectory, with
    -1 / 0 where MaskTrajectory has None."""

    cube: _Cube
    rule: UpdateRule
    states: list[np.ndarray]          # color-1 set per configuration, day 0 first
    kind: np.ndarray
    winner: np.ndarray
    day: np.ndarray
    entered_day: np.ndarray
    period: np.ndarray

    def advance(self) -> np.ndarray:
        """Append the next day; unanimous configurations stay where they ended."""
        cur = self.states[-1]
        nxt = np.where(self.kind == _UNANIMITY, cur, self.cube.step(cur, self.rule))
        self.states.append(nxt)
        return nxt

    def count_at(self, day: int) -> np.ndarray:
        """Color-1 count on `day` (MaskTrajectory.count_at, vectorized).

        Past its end a cycle repeats, which the dynamics do by themselves.
        """
        if day >= len(self.states) and (self.kind == _CAP).any():
            raise ValueError(f"trajectory capped before day {day}")
        while len(self.states) <= day:
            self.advance()
        return _popcount(self.states[day])


@functools.cache
def _cube(n: int) -> _Cube:
    return _Cube(n)


# ----------------------------------------------------------------------
# queries

@dataclass(frozen=True)
class WinProb:
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD
    cap: Optional[int] = None


@dataclass(frozen=True)
class ExpectedCount:
    day: int
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD


@dataclass(frozen=True)
class VarCount:
    day: int
    color: int = 1
    rule: UpdateRule = UpdateRule.STANDARD


@dataclass(frozen=True)
class MomentZ:
    k: int


@dataclass(frozen=True)
class SetStat:
    which: str  # 's1' | 's2' | 's_star' | 'i_g' | 'r_hat'
    moment: int = 1
    u: Optional[int] = None
    v: Optional[int] = None
    w: Optional[int] = None


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
        if self.n > MAX_ORACLE_N:
            raise ValueError(f"oracle limited to n <= {MAX_ORACLE_N}")
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


def _c1mask(colors: Sequence[int]) -> int:
    m = 0
    for i, c in enumerate(colors):
        if c == 1:
            m |= 1 << i
    return m


def _focal_pair(q: OracleQuery, stat: SetStat) -> tuple[int, int]:
    ones = [i for i, c in enumerate(q.colors) if c == 1]
    if stat.u is not None and stat.v is not None:
        return stat.u, stat.v
    if len(ones) < 2:
        raise ValueError("set statistics need two color-1 vertices")
    return ones[0], ones[1]


@dataclass(frozen=True)
class _Table:
    """A statistic over the cube: configuration k has value values[keys[k]]."""

    keys: np.ndarray                      # small non-negative ints
    values: tuple                         # int or Fraction per key
    capped: Optional[np.ndarray] = None   # WinProb: the run hit its cap


def _integer_table(keys: np.ndarray, capped: Optional[np.ndarray] = None) -> _Table:
    keys = keys.astype(np.int64)
    keys.flags.writeable = False
    return _Table(keys, tuple(range(int(keys.max()) + 1)), capped)


# oracle_vs_mc evaluates its query and then reads the same table.
@functools.lru_cache(maxsize=1)
def _mask_values(q: OracleQuery) -> _Table:
    """The queried statistic on every edge configuration."""
    n = q.n
    stat = q.statistic
    c1m = _c1mask(q.colors)
    cube = _cube(n)

    if isinstance(stat, WinProb):
        run = cube.run(c1m, stat.rule, stat.cap)
        won = (run.kind == _UNANIMITY) & (run.winner == stat.color)
        capped = run.kind == _CAP
        capped.flags.writeable = False
        return _integer_table(won, capped)

    if isinstance(stat, (ExpectedCount, VarCount)):
        c1 = cube.run(c1m, stat.rule).count_at(stat.day)
        return _integer_table(c1 if stat.color == 1 else n - c1)

    if isinstance(stat, MomentZ):
        c1 = c1m.bit_count()
        center = 2 * expected_biased_day1_count(c1, n - c1, Fraction(q.p))
        c11 = _integer_table(_popcount(cube.step(c1m, UpdateRule.BIASED)))
        return _Table(c11.keys, tuple((2 * c - center) ** stat.k
                                      for c in c11.values))

    if isinstance(stat, SetStat):
        if stat.moment not in (1, 2):
            raise ValueError("set-statistic moment must be 1 or 2")
        if stat.which == "r_hat":
            w = stat.w if stat.w is not None else 0
            raw = _popcount(cube.rhat(c1m, w))
        else:
            u, v = _focal_pair(q, stat)
            pick = {"s1": 0, "s2": 1, "s_star": 2, "i_g": 3}.get(stat.which)
            if pick is None:
                raise ValueError(f"unknown set statistic: {stat.which}")
            part = cube.s_sets(c1m, u, v)[pick]
            raw = part if pick == 3 else _popcount(part)
        return _integer_table(raw.astype(np.int64) ** stat.moment)

    raise TypeError(f"unsupported statistic: {stat!r}")


def _integrate(q: OracleQuery, table: _Table) -> OracleResult:
    """Expectation of the table (variance for VarCount) under G(n, p), summed
    exactly at Fraction(q.p); a float p rounds it and cap_mass once."""
    cube = _cube(q.n)
    n_edges = cube.n_edges
    weights = config_weights(Fraction(q.p), n_edges, range(n_edges + 1))
    out = Fraction if q.exact else float

    def mean(keys: np.ndarray, values: Sequence) -> Fraction:
        # configurations of one edge count share a weight
        hist = np.bincount(cube.edges * len(values) + keys,
                           minlength=(n_edges + 1) * len(values))
        hist = hist.reshape(n_edges + 1, len(values)).tolist()
        return sum(w * sum(c * v for c, v in zip(row, values) if c)
                   for w, row in zip(weights, hist))

    total = mean(table.keys, table.values)
    if isinstance(q.statistic, VarCount):
        total = mean(table.keys, [v * v for v in table.values]) - total * total
    details = {"exact": q.exact}
    if table.capped is not None:
        details["cap_mass"] = out(mean(table.capped.astype(np.int64), [0, 1]))
    return OracleResult(out(total), details)


def oracle_eval(q: OracleQuery) -> OracleResult:
    """Integrate the queried statistic over every edge configuration.

    Rational p gives an exact Fraction; a float p gives the exact answer at
    its binary value, rounded once to a float.
    """
    if isinstance(q.statistic, FourierCoeff):
        table = fourier_coefficients(q.n, q.colors, q.statistic.v, q.p,
                                     exact=q.exact)
        value = table.coefficient(list(q.statistic.s))
        return OracleResult(value, {
            "scaled": table.coefficient_scaled(list(q.statistic.s)),
            "exact": q.exact,
        })
    return _integrate(q, _mask_values(q))


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


def _sample_masks(rng: np.random.Generator, n_edges: int, p: float,
                  trials: int) -> np.ndarray:
    bits = rng.random((trials, n_edges)) < p
    powers = (np.uint64(1) << np.arange(n_edges, dtype=np.uint64))
    return bits.astype(np.uint64) @ powers


def oracle_vs_mc(q: OracleQuery, trials: int,
                 master_seed: int = 0) -> OracleMcAgreement:
    """Monte Carlo estimate over sampled configurations vs the exact value.

    The sampler draws fresh edge configurations and looks each one up in
    the per-configuration table the exact value was integrated from.
    """
    if isinstance(q.statistic, FourierCoeff):
        raise ValueError("Monte Carlo comparison is for graph statistics")
    oracle_value = float(oracle_eval(q).value)
    values = _mask_values(q)
    table = np.asarray([float(x) for x in values.values])[values.keys]
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    n_edges = q.n * (q.n - 1) // 2
    masks = _sample_masks(rng, n_edges, float(q.p), trials)
    samples = table[masks]

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
    * Z_v + mu_v is the +-1 keep indicator of biased day 1, and the Z's sum
      (signed by the initial color) to 2|C_{1,1}| - 2 E|C_{1,1}| exactly.

    Colorings are visited one at a time, each against the whole cube.
    """
    if n > MAX_ORACLE_N:
        raise ValueError(f"scan limited to n <= {MAX_ORACLE_N}")
    p = Fraction(p)
    full = (1 << n) - 1
    cube = _cube(n)
    rows = cube.rows
    size = len(rows)
    scan = IdentityScan(n, 0, 0, 0, 0, 0)

    def note(ok: np.ndarray, label: str, c1m: int, where: str = "") -> None:
        room = _MAX_VIOLATIONS - len(scan.violations)
        for mask in np.flatnonzero(~ok)[:max(room, 0)]:
            scan.violations.append(
                f"{label}: n={n} colors={c1m:0{n}b} mask={mask}{where}")

    def pc(masks: np.ndarray) -> np.ndarray:
        return _popcount(masks).astype(np.int64)

    for c1m in range(1 << n):
        c1 = c1m.bit_count()
        c2 = n - c1
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
            mu1, mu2 = compute_mu_exact(c1, c2, p)
            center = 2 * expected_biased_day1_count(c1, c2, p)
            signed_keeps = np.zeros(size, dtype=np.int64)
            for v in range(n):
                scan.centering_checks += size
                was1 = c1m >> v & 1
                kept = (b1 >> v & 1) == was1
                mu_v = mu1 if was1 else mu2
                # Z_v = +-1 - mu_v takes one exact value per keep outcome
                for k in np.unique(kept):
                    z = (1 if k else -1) - mu_v
                    if z + mu_v not in (-1, 1):
                        note(kept != k, "centering", c1m, f" v={v}")
                signed_keeps += np.where(kept, 1, -1) * (1 if was1 else -1)
            # sum_v L(v) Z_v = signed_keeps - (mu1 c1 - mu2 c2), checked
            # exactly once per distinct (signed_keeps, |C_{1,1}|)
            key = (signed_keeps + n) * (n + 1) + pc(b1)
            for k in np.unique(key):
                keeps, c11 = divmod(int(k), n + 1)
                z_total = keeps - n - (mu1 * c1 - mu2 * c2)
                if z_total != 2 * c11 - center:
                    note(key != k, "aggregate-z", c1m)
    return scan


# ----------------------------------------------------------------------
# bulk quantities for the bound report (exact mode)

def enumerate_trial_quantities(n: int, c1: int, p: float,
                               cap: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-configuration report quantities for the canonical split coloring
    [1]*c1 + [2]*(n-c1), plus the configuration weights.

    G(n,p) is exchangeable over vertices, so fixing the coloring loses no
    generality.  Focal vertices: first/second color-1, first color-2.
    """
    if c1 < 2 or n - c1 < 1:
        raise ValueError("need at least two color-1 and one color-2 vertex")
    cube = _cube(n)
    c1m = (1 << c1) - 1
    v1, v2, u, v = 0, c1, 0, 1
    std = UpdateRule.STANDARD
    d1 = cube.step(c1m, std)
    d2 = cube.step(d1, std)
    d3 = cube.step(d2, std)
    run = cube.run(c1m, std)
    win1 = (run.kind == _UNANIMITY) & (run.winner == 1) & (run.day <= cap)
    s1, s2, ss, ig = cube.s_sets(c1m, u, v)
    cols = {
        "c11_std": _popcount(d1),
        "c11_biased": _popcount(cube.step(c1m, UpdateRule.BIASED)),
        "rhat1": _popcount(cube.rhat(c1m, v1)),
        "rhat2": _popcount(cube.rhat(c1m, v2)),
        "c12": _popcount(d2),
        "c23": n - _popcount(d3),
        "win1": win1,
        "win_day": np.where(win1, run.day, np.nan),
        "s1": _popcount(s1),
        "s2": _popcount(s2),
        "ss": _popcount(ss),
        "ig": ig,
        "v1_in_c12": d2 >> v1 & 1,
        "v2_in_c12": d2 >> v2 & 1,
    }
    cols = {name: col.astype(np.float64) for name, col in cols.items()}
    return cols, config_weights(p, cube.n_edges, cube.edges)

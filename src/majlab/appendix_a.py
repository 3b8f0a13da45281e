"""Machine verification of the package's stock of binomial/normal inequalities.

Each check computes both sides at every point of its grid in one call:

* clt_supremum and step_bound read one BinDiffDist table per point;
* the three point-mass checks read P(X1 - X2 = d) from one windowed
  convolution (`probability._bindiff_window`, which drops tails below
  1e-28) per distinct (n1, n2, p), the value bindiff_pmf gives;
* the three finite-space checks stack the points of one support size (and
  event size) as the rows of one array and evaluate them together; a row's
  sums are the sums of that point alone, bit for bit.

Points that violate a check's hypotheses are recorded as skipped, never as
failures, with their reason, and the report keeps grid order.  Slack is
rhs - lhs for upper bounds and lhs - rhs for lower bounds, so a pass is
slack >= -1e-9.  tests/reference.py evaluates every check one point at a
time, with finite-space checks of its own and bindiff_pmf for the point
masses; that is the anchor of the batched checks.

Checks and their hypothesis ranges:

* clt_supremum:        sup-distance of a +-Bernoulli sum to the normal CDF,
                       bound 0.56 (1 - 2 sigma^2) / (sigma sqrt(n)); any n, p.
* pointmass_upper:     P(X1 = X2 + d) <= 1.12 (1 - 2 sigma^2) / (sigma sqrt(n1+n2)),
                       d >= 1; asserted for p <= 1/4 (documented elsewhere for
                       p = 1/2 without asserting).
* step_bound:          |P(A = d+1) - P(A = d)| <= 20 C / (n p (1-p)) for the
                       difference of Bin(n,p) and Bin(m,p); n >= 520, m <= n,
                       p >= log(n)/n.
* equal_point_lower:   P(X1 = X2) >= 1 / (6 sqrt(n p (1-p))); n >= 20,
                       log(n)/n <= p <= 1 - 10/n.
* pointmass_lower:     P(X1 - X2 = d) >= 1/(6 sqrt(np(1-p))) - 20 C |d|/(np(1-p));
                       n >= 520, same p window (|d| reads the displacement
                       symmetrically, matching pmf(d) = pmf(-d)).
* conditional_variance: Var(X | E) <= Var(X) / P(E) on finite spaces.
* conditional_mean:     E[X | E] <= E[X] / P(E) for nonnegative X.
* cdf_contraction:      Var(Phi(W)) <= Var(W) for finite-support W.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import probability
from .probability import BERRY_ESSEEN_C, BinDiffDist, ndtr, normal_cdf

__all__ = [
    "InequalityPoint",
    "InequalityReport",
    "verify_appendix_a",
    "default_grid",
    "LEMMA_IDS",
]

_TOL = 1e-9


@dataclass
class InequalityPoint:
    lemma_id: str
    params: dict
    lhs: Optional[float]
    rhs: Optional[float]
    slack: Optional[float]
    passed: Optional[bool]
    asserted: bool
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        """The JSON record; params is shared with the point, not copied."""
        return {"lemma_id": self.lemma_id, "params": self.params,
                "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "pass": self.passed, "asserted": self.asserted,
                "reason": self.reason}


@dataclass
class InequalityReport:
    points: list[InequalityPoint] = field(default_factory=list)

    def summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for pt in self.points:
            s = out.setdefault(pt.lemma_id, {
                "points": 0, "asserted": 0, "failures": 0, "skipped": 0})
            s["points"] += 1
            if pt.passed is None:
                s["skipped"] += 1
                continue
            if pt.asserted:
                s["asserted"] += 1
                if not pt.passed:
                    s["failures"] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return all(pt.passed for pt in self.points
                   if pt.asserted and pt.passed is not None)

    def to_json(self) -> str:
        return json.dumps([pt.to_dict() for pt in self.points], sort_keys=True)


# ---------------------------------------------------------------------- grids

def _logn_over_n(n: int) -> float:
    return math.log(n) / n


def default_grid(seed: int = 0) -> dict[str, list[dict]]:
    """>= 200 hypothesis-satisfying points per check; deterministic."""
    grid: dict[str, list[dict]] = {k: [] for k in LEMMA_IDS}

    for n in (20, 50, 100, 200, 400, 700, 1000, 1500):
        for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            for frac in (0.0, 0.3, 0.5, 1.0):
                n_pos = round(frac * n)
                grid["clt_supremum"].append(
                    {"n_pos": n_pos, "n_neg": n - n_pos, "p": p})

    pairs = [(1, 1), (2, 1), (5, 5), (10, 7), (20, 20), (50, 30), (100, 100),
             (200, 150), (400, 400), (700, 300), (1000, 1000), (30, 1)]
    for p in (0.02, 0.05, 0.1, 0.15, 0.2, 0.25):
        for n1, n2 in pairs:
            for d in (1, 2, 5):
                grid["pointmass_upper"].append(
                    {"n1": n1, "n2": n2, "p": p, "d": d})
    # documentation-only points at p = 1/2 (outside the asserted window)
    for n1, n2 in ((20, 20), (100, 100)):
        grid["pointmass_upper"].append({"n1": n1, "n2": n2, "p": 0.5, "d": 1})

    for n in (520, 600, 800, 1000, 1500, 2000, 3000):
        for m_frac in (1.0, 0.6, 0.3, 0.05):
            for mult in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0):
                grid["step_bound"].append(
                    {"n": n, "m": max(1, round(m_frac * n)),
                     "p": min(0.95, mult * _logn_over_n(n))})

    for n in (20, 25, 30, 40, 55, 75, 100, 140, 200, 300, 450, 700, 1000, 1500):
        plo, phi = _logn_over_n(n), 1.0 - 10.0 / n
        for t in np.linspace(0.0, 1.0, 15):
            grid["equal_point_lower"].append(
                {"n": n, "p": float(plo + t * (phi - plo))})

    for n in (520, 700, 1000, 1400, 2000):
        plo, phi = _logn_over_n(n), 1.0 - 10.0 / n
        for t in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            for d in (0, 1, 2, 3, 5, 8, -1, -4):
                grid["pointmass_lower"].append(
                    {"n": n, "p": float(plo + t * (phi - plo)), "d": d})

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for name, count in (("conditional_variance", 1000),
                        ("conditional_mean", 1000),
                        ("cdf_contraction", 1000)):
        for i in range(count):
            m = int(rng.integers(3, 11))
            probs = rng.random(m) + 0.01
            probs /= probs.sum()
            if name == "conditional_mean":
                values = rng.random(m) * 5.0
            else:
                values = rng.uniform(-4.0, 4.0, m)
            if name == "cdf_contraction":
                grid[name].append({"probs": probs.tolist(),
                                   "values": values.tolist()})
            else:
                event = rng.random(m) < 0.6
                if not event.any():
                    event[int(rng.integers(0, m))] = True
                elif event.all():  # P(E) = 1 would test an identity
                    event[i % m] = False
                grid[name].append({"probs": probs.tolist(),
                                   "values": values.tolist(),
                                   "event": event.tolist()})
    return grid


def small_grid(seed: int = 0) -> dict[str, list[dict]]:
    """Thinned grid for quick runs; same structure, ~20 points per check."""
    full = default_grid(seed)
    return {k: v[:: max(1, len(v) // 20)] for k, v in full.items()}


# ---------------------------------------------------------------------- checks

def _sigma(p: float) -> float:
    return math.sqrt(p * (1.0 - p))


def _check_clt_supremum(params: dict) -> tuple[float, float, bool, str]:
    n_pos, n_neg, p = params["n_pos"], params["n_neg"], params["p"]
    n = n_pos + n_neg
    if n < 1 or not 0.0 < p < 1.0:
        return None, None, False, "needs n >= 1 and p in (0,1)"
    sigma = _sigma(p)
    dist = BinDiffDist(n_pos, n_neg, p)
    mu = (n_pos - n_neg) * p
    support = np.arange(-n_neg, n_pos + 1)
    cdf = dist.cdf_table
    phi = ndtr((support - mu) / (sigma * math.sqrt(n)))
    sup = float(np.max(np.maximum(np.abs(cdf - phi),
                                  np.abs(cdf - dist.table - phi))))
    rhs = BERRY_ESSEEN_C * (1.0 - 2.0 * sigma**2) / (sigma * math.sqrt(n))
    return sup, rhs, True, ""


def _window_reader():
    """P(Bin(n1,p) - Bin(n2,p) = d) for (n1, n2, p, d), read from one
    `probability._bindiff_window` per distinct (n1, n2, p): the value
    bindiff_pmf gives."""
    windows: dict[tuple, tuple[int, np.ndarray]] = {}

    def mass(n1: int, n2: int, p: float, d: int) -> float:
        key = n1, n2, p
        if key not in windows:
            windows[key] = probability._bindiff_window(n1, n2, p)
        lo, w = windows[key]
        return float(w[d - lo]) if 0 <= d - lo < w.shape[0] else 0.0
    return mass


def _check_pointmass_upper(params: dict, mass) -> tuple[float, float, bool, str]:
    n1, n2, p, d = params["n1"], params["n2"], params["p"], params["d"]
    if d < 1:
        return None, None, False, "needs a positive displacement d"
    if not 0.0 < p < 1.0:
        return None, None, False, "needs p in (0,1)"
    sigma = _sigma(p)
    lhs = mass(n1, n2, p, d)
    rhs = 2 * BERRY_ESSEEN_C * (1.0 - 2.0 * sigma**2) / (
        sigma * math.sqrt(n1 + n2))
    if p > 0.25:
        # recorded for inspection, never asserted outside the p <= 1/4 window
        return lhs, rhs, False, "documented only: p > 1/4"
    return lhs, rhs, True, ""


def _check_step_bound(params: dict) -> tuple[float, float, bool, str]:
    n, m, p = params["n"], params["m"], params["p"]
    if n < 520:
        return None, None, False, "needs n >= 520"
    if m > n:
        return None, None, False, "needs m <= n"
    if not _logn_over_n(n) <= p < 1.0:
        return None, None, False, "needs log(n)/n <= p < 1"
    table = BinDiffDist(n, m, p).table
    lhs = float(np.max(np.abs(np.diff(table))))
    rhs = 20.0 * BERRY_ESSEEN_C / (n * p * (1.0 - p))
    return lhs, rhs, True, ""


def _check_equal_point_lower(params: dict, mass) -> tuple[float, float, bool, str]:
    n, p = params["n"], params["p"]
    if n < 20:
        return None, None, False, "needs n >= 20"
    if not _logn_over_n(n) <= p <= 1.0 - 10.0 / n:
        return None, None, False, "needs log(n)/n <= p <= 1 - 10/n"
    lhs = mass(n, n, p, 0)
    rhs = 1.0 / (6.0 * math.sqrt(n * p * (1.0 - p)))
    return lhs, rhs, True, ""


def _check_pointmass_lower(params: dict, mass) -> tuple[float, float, bool, str]:
    n, p, d = params["n"], params["p"], params["d"]
    if n < 520:
        return None, None, False, "needs n >= 520"
    if not _logn_over_n(n) <= p < 1.0 - 10.0 / n:
        return None, None, False, "needs log(n)/n <= p < 1 - 10/n"
    lhs = mass(n, n, p, d)
    rhs = (1.0 / (6.0 * math.sqrt(n * p * (1.0 - p)))
           - 20.0 * BERRY_ESSEEN_C * abs(d) / (n * p * (1.0 - p)))
    return lhs, rhs, True, ""


def _stacked(points: list[dict], fields: tuple[str, ...]):
    """(indices, event size, arrays) per group of points with equal support
    sizes, and equal event sizes where "event" is a field (0 otherwise):
    each field's lists stacked as the rows of one array, bool for the event,
    float otherwise."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, params in enumerate(points):
        size = (len(params["probs"]),
                sum(params["event"]) if "event" in fields else 0)
        groups.setdefault(size, []).append(i)
    for (_, k), idx in groups.items():
        yield idx, k, [np.array([points[i][f] for i in idx],
                                dtype=bool if f == "event" else float)
                       for f in fields]


def _moments(weights: np.ndarray, values: np.ndarray):
    """(mean, variance) of each row: sum w x, and sum w x^2 minus the mean
    squared.  numpy sums each row of a C-ordered array as it sums that row
    alone, and float_power squares by libm's pow, as a Python float's ** 2
    does (x * x differs in the last bit for about 1 in 1200 x), so each row
    gives the bits of its point alone."""
    mean = (weights * values).sum(axis=-1)
    return mean, (weights * values**2).sum(axis=-1) - np.float_power(mean, 2)


def _event_entries(rows: np.ndarray, event: np.ndarray, k: int) -> np.ndarray:
    """The k entries of each row inside its event, in order."""
    return rows[event].reshape(len(rows), k)


def _conditional_stats(points: list[dict]) -> list[np.ndarray]:
    """[P(E), mean, variance, conditional mean, conditional variance] of X,
    each an array over the points in order."""
    out = [np.empty(len(points)) for _ in range(5)]
    for idx, k, (probs, values, event) in _stacked(
            points, ("probs", "values", "event")):
        eprobs, evalues = (_event_entries(a, event, k) for a in (probs, values))
        pe = eprobs.sum(axis=-1)
        mean, var = _moments(probs, values)
        cmean, cvar = _moments(eprobs / pe[:, None], evalues)
        for col, stat in zip(out, (pe, mean, var, cmean, cvar)):
            col[idx] = stat
    return out


def _check_conditional_variance(points: list[dict]) -> list[tuple]:
    pe, _, var, _, cvar = (s.tolist() for s in _conditional_stats(points))
    return [(cv, v / e, True, "") for e, v, cv in zip(pe, var, cvar)]


def _check_conditional_mean(points: list[dict]) -> list[tuple]:
    ok = [i for i, params in enumerate(points)
          if not any(v < 0 for v in params["values"])]
    pe, mean, _, cmean, _ = (s.tolist() for s in
                             _conditional_stats([points[i] for i in ok]))
    out = [(None, None, False, "needs a nonnegative variable")] * len(points)
    for i, e, m, cm in zip(ok, pe, mean, cmean):
        out[i] = (cm, m / e, True, "")
    return out


def _check_cdf_contraction(points: list[dict]) -> list[tuple]:
    lhs, rhs = np.empty(len(points)), np.empty(len(points))
    for idx, _, (probs, values) in _stacked(points, ("probs", "values")):
        phi = np.fromiter(map(normal_cdf, values.ravel().tolist()), float,
                          values.size).reshape(values.shape)
        rhs[idx] = _moments(probs, values)[1]
        lhs[idx] = _moments(probs, phi)[1]
    return [(a, b, True, "") for a, b in zip(lhs.tolist(), rhs.tolist())]


def _each(check):
    """A check of all of a lemma's points from a check of one point."""
    return lambda points: [check(params) for params in points]


def _sharing_windows(check):
    """`_each` for a point-mass check, its points sharing one window reader."""
    def check_all(points):
        mass = _window_reader()
        return [check(params, mass) for params in points]
    return check_all


# A check takes all of a lemma's grid points and returns (lhs, rhs,
# asserted, reason) for each, in order; lhs None marks a skipped point.
_CHECKS = {
    "clt_supremum": (_each(_check_clt_supremum), "<="),
    "pointmass_upper": (_sharing_windows(_check_pointmass_upper), "<="),
    "step_bound": (_each(_check_step_bound), "<="),
    "equal_point_lower": (_sharing_windows(_check_equal_point_lower), ">="),
    "pointmass_lower": (_sharing_windows(_check_pointmass_lower), ">="),
    "conditional_variance": (_check_conditional_variance, "<="),
    "conditional_mean": (_check_conditional_mean, "<="),
    "cdf_contraction": (_check_cdf_contraction, "<="),
}
LEMMA_IDS = tuple(_CHECKS)


def verify_appendix_a(
        grid: Optional[dict[str, list[dict]]] = None) -> InequalityReport:
    """Evaluate every grid point; hypothesis violations are skipped records."""
    if grid is None:
        grid = default_grid()
    report = InequalityReport()
    for lemma_id, points in grid.items():
        if lemma_id not in _CHECKS:
            raise ValueError(f"unknown check: {lemma_id}")
        check, direction = _CHECKS[lemma_id]
        for params, (lhs, rhs, asserted, reason) in zip(points, check(points)):
            if lhs is None:
                report.points.append(InequalityPoint(
                    lemma_id, params, None, None, None, None, False, reason))
                continue
            slack = (rhs - lhs) if direction == "<=" else (lhs - rhs)
            report.points.append(InequalityPoint(
                lemma_id, params, lhs, rhs, slack, slack >= -_TOL,
                asserted, reason or None))
    return report

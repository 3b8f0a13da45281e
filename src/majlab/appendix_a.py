"""Machine verification of the package's stock of binomial/normal inequalities.

Each check computes both sides at each point of a parameter grid: from a
BinDiffDist table or one bindiff_pmf value (one windowed convolution, which
drops tails below 1e-28) or exhaustively on a finite toy space.  Points
that violate a check's hypotheses are recorded as skipped, never as
failures.  Slack is rhs - lhs for upper bounds and lhs - rhs for lower
bounds, so a pass is slack >= -1e-9.

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
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .probability import (BERRY_ESSEEN_C, BinDiffDist, bindiff_pmf, ndtr,
                          normal_cdf)

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
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


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


def _check_pointmass_upper(params: dict) -> tuple[float, float, bool, str]:
    n1, n2, p, d = params["n1"], params["n2"], params["p"], params["d"]
    if d < 1:
        return None, None, False, "needs a positive displacement d"
    if not 0.0 < p < 1.0:
        return None, None, False, "needs p in (0,1)"
    sigma = _sigma(p)
    lhs = bindiff_pmf(n1, n2, p, d)
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


def _check_equal_point_lower(params: dict) -> tuple[float, float, bool, str]:
    n, p = params["n"], params["p"]
    if n < 20:
        return None, None, False, "needs n >= 20"
    if not _logn_over_n(n) <= p <= 1.0 - 10.0 / n:
        return None, None, False, "needs log(n)/n <= p <= 1 - 10/n"
    lhs = bindiff_pmf(n, n, p, 0)
    rhs = 1.0 / (6.0 * math.sqrt(n * p * (1.0 - p)))
    return lhs, rhs, True, ""


def _check_pointmass_lower(params: dict) -> tuple[float, float, bool, str]:
    n, p, d = params["n"], params["p"], params["d"]
    if n < 520:
        return None, None, False, "needs n >= 520"
    if not _logn_over_n(n) <= p < 1.0 - 10.0 / n:
        return None, None, False, "needs log(n)/n <= p < 1 - 10/n"
    lhs = bindiff_pmf(n, n, p, d)
    rhs = (1.0 / (6.0 * math.sqrt(n * p * (1.0 - p)))
           - 20.0 * BERRY_ESSEEN_C * abs(d) / (n * p * (1.0 - p)))
    return lhs, rhs, True, ""


def _cond_stats(probs, values, event):
    probs = np.asarray(probs)
    values = np.asarray(values)
    event = np.asarray(event, dtype=bool)
    pe = float(probs[event].sum())
    mean = float((probs * values).sum())
    var = float((probs * values**2).sum()) - mean**2
    cp = probs[event] / pe
    cmean = float((cp * values[event]).sum())
    cvar = float((cp * values[event] ** 2).sum()) - cmean**2
    return pe, mean, var, cmean, cvar


def _check_conditional_variance(params: dict) -> tuple[float, float, bool, str]:
    pe, _, var, _, cvar = _cond_stats(params["probs"], params["values"],
                                      params["event"])
    return cvar, var / pe, True, ""


def _check_conditional_mean(params: dict) -> tuple[float, float, bool, str]:
    values = np.asarray(params["values"])
    if (values < 0).any():
        return None, None, False, "needs a nonnegative variable"
    pe, mean, _, cmean, _ = _cond_stats(params["probs"], params["values"],
                                        params["event"])
    return cmean, mean / pe, True, ""


def _check_cdf_contraction(params: dict) -> tuple[float, float, bool, str]:
    probs = np.asarray(params["probs"])
    values = np.asarray(params["values"])
    mean = float((probs * values).sum())
    var = float((probs * values**2).sum()) - mean**2
    phi = np.asarray([normal_cdf(v) for v in values])
    pmean = float((probs * phi).sum())
    pvar = float((probs * phi**2).sum()) - pmean**2
    return pvar, var, True, ""


_CHECKS = {
    "clt_supremum": (_check_clt_supremum, "<="),
    "pointmass_upper": (_check_pointmass_upper, "<="),
    "step_bound": (_check_step_bound, "<="),
    "equal_point_lower": (_check_equal_point_lower, ">="),
    "pointmass_lower": (_check_pointmass_lower, ">="),
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
        fn, direction = _CHECKS[lemma_id]
        for params in points:
            lhs, rhs, asserted, reason = fn(params)
            if lhs is None:
                report.points.append(InequalityPoint(
                    lemma_id, params, None, None, None, None, False, reason))
                continue
            slack = (rhs - lhs) if direction == "<=" else (lhs - rhs)
            report.points.append(InequalityPoint(
                lemma_id, params, lhs, rhs, slack, slack >= -_TOL,
                asserted, reason or None))
    return report

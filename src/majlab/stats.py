"""Day-1/day-2 statistics: gap thresholds, centering constants, centered
indicators, their moments, and the quantitative-bound report.

The centered indicator of a vertex v is Z_v = (+-1) - mu_v, where +-1 records
whether v keeps its color on day 1 of the *biased* rule and mu_v is the exact
keep probability mapped to [-1, 1].  The aggregate Z = sum_v L(v) Z_v equals
2|C_{1,1}| - 2 E|C_{1,1}| (biased day 1) when the mu's are exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .dynamics import (Unanimity, UpdateRule, default_cap, keep_margin,
                       margins, run, step, takes_color1)
from .graphs import (ColoredGraph, FixedGap, GraphParams, pack_color_mask,
                     sample_gnp, split_seed, unpack_row)
from .probability import (BERRY_ESSEEN_C, bindiff_cdf, bindiff_geq_exact,
                          normal_pdf)
# perfbench/tracer.py wraps compute_r_hat and compute_s_sets in this module's
# namespace, so both names stay bound here though the report no longer calls them.
from .structure import (compute_r_hat, compute_s_sets, focal_pair, rhat_flags,
                        s_sets_flags)

__all__ = [
    "ThresholdParams",
    "DeltaThreshold",
    "delta_threshold",
    "compute_mu",
    "compute_mu_exact",
    "expected_biased_day1_count",
    "CenteredIndicators",
    "centered_indicators",
    "MomentEstimate",
    "moment_estimate",
    "double_factorial",
    "LemmaRecord",
    "LemmaReport",
    "trial_record",
    "lemma_report",
    "LEMMA_ANCHORS",
]


@dataclass(frozen=True)
class ThresholdParams:
    """Constants of the two-branch gap threshold; defaults are non-normative."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("threshold constants must be positive")


@dataclass(frozen=True)
class DeltaThreshold:
    value: float
    exp_branch: float
    poly_branch: float

    @property
    def dominant(self) -> str:
        return "exponential" if self.exp_branch >= self.poly_branch else "polynomial"


def delta_threshold(n: int, p: float,
                    params: ThresholdParams = ThresholdParams()) -> DeltaThreshold:
    """max{ exp(A*sqrt(log(1/p)))/sqrt(p), B * p^(-3/2) * n^(-1/2) }."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    exp_branch = math.exp(params.a * math.sqrt(math.log(1.0 / p))) / math.sqrt(p)
    poly_branch = params.b * p**-1.5 / math.sqrt(n)
    return DeltaThreshold(max(exp_branch, poly_branch), exp_branch, poly_branch)


def is_exact(p) -> bool:
    """A rational p (Fraction or int) asks for exact Fraction arithmetic."""
    return isinstance(p, (Fraction, int))


def _check_sizes(c1: int, c2: int) -> None:
    if c1 < 1 or c2 < 1:
        raise ValueError(f"both classes must be nonempty, got c1={c1}, c2={c2}")


def compute_mu(c1: int, c2: int, p) -> tuple:
    """Centering constants of the biased day-1 keep events; exact Fractions
    (compute_mu_exact) for a rational p, floats otherwise.

    With keep = keep_margin(BIASED), the margin at which a vertex keeps:

    mu1 = 2 P(Bin(c1-1,p) - Bin(c2,p) >= keep) - 1    (color-1 vertex keeps)
    mu2 = 2 P(Bin(c2-1,p) - Bin(c1,p) >= -keep) - 1   (color-2 vertex keeps)

    A color-1 vertex keeps at or above the margin, a color-2 vertex at or
    below it.  Color 1 already wins ties, so a color-2 vertex survives only
    on a strict same-color majority.
    """
    if is_exact(p):
        return compute_mu_exact(c1, c2, p)
    _check_sizes(c1, c2)
    keep = keep_margin(UpdateRule.BIASED)
    mu1 = 2.0 * (1.0 - bindiff_cdf(c1 - 1, c2, p, keep - 1)) - 1.0
    mu2 = 2.0 * (1.0 - bindiff_cdf(c2 - 1, c1, p, -keep - 1)) - 1.0
    return mu1, mu2


def compute_mu_exact(c1: int, c2: int, p: Union[Fraction, int]) -> tuple[Fraction, Fraction]:
    """Exact-rational twin of compute_mu."""
    _check_sizes(c1, c2)
    p = Fraction(p)
    keep = keep_margin(UpdateRule.BIASED)
    mu1 = 2 * bindiff_geq_exact(c1 - 1, c2, p, keep) - 1
    mu2 = 2 * bindiff_geq_exact(c2 - 1, c1, p, -keep) - 1
    return mu1, mu2


def expected_biased_day1_count(c1: int, c2: int, p):
    """E|C_{1,1}| for the biased rule, = (n + mu1*c1 - mu2*c2) / 2; a
    Fraction for a rational p, a float otherwise."""
    mu1, mu2 = compute_mu(c1, c2, p)
    return (c1 + c2 + mu1 * c1 - mu2 * c2) / 2


@dataclass
class CenteredIndicators:
    mu1: Union[float, Fraction]
    mu2: Union[float, Fraction]
    z_values: Union[np.ndarray, list]
    z: Union[float, Fraction]
    kept: np.ndarray


def _centered(g: ColoredGraph, mu1, mu2) -> tuple[np.ndarray, np.ndarray,
                                                   Union[float, Fraction]]:
    """(kept, Z_v, Z) on one graph; exact, with Z_v an object array, for
    Fraction mu's."""
    kept = np.asarray(step(g, UpdateRule.BIASED).colors == g.colors)
    is_c1 = g.colors == 1
    z_values = np.where(kept, 1, -1) - np.where(is_c1, mu1, mu2)
    z = np.sum(np.where(is_c1, z_values, -z_values))
    return kept, z_values, z if isinstance(z, Fraction) else float(z)


def centered_indicators(g: ColoredGraph, p) -> CenteredIndicators:
    """Per-vertex Z_v and the aggregate Z = sum_v L(v) Z_v for one graph;
    exact Fractions, with Z_v a list, for a rational p."""
    c1, c2 = g.counts()
    mu1, mu2 = compute_mu(c1, c2, p)
    kept, z_values, z = _centered(g, mu1, mu2)
    return CenteredIndicators(mu1, mu2,
                              z_values.tolist() if is_exact(p) else z_values,
                              z, kept)


def double_factorial(m: int) -> int:
    """m!! for m >= -1 (with (-1)!! = 1)."""
    if m < -1:
        raise ValueError(f"double factorial needs m >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@dataclass
class MomentEstimate:
    k: int
    value: float
    stderr: float
    trials: int
    reference: Optional[float]  # (k-1)!! * n^(k/2) for even k
    ratio: Optional[float]
    odd_k: bool


def moment_estimate(n: int, p: float, delta, k: int, trials: int,
                    master_seed: int = 0) -> MomentEstimate:
    """Monte Carlo estimate of E[Z^k] under a fixed-gap coloring.

    Odd k is allowed but flagged; the reference scale is defined for even k.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if k < 0:
        raise ValueError(f"moment order k must be at least 0, got {k}")
    if k == 0:
        return MomentEstimate(0, 1.0, 0.0, trials, 1.0, 1.0, False)
    scheme = FixedGap.from_delta(delta)
    c1, c2 = scheme.class_sizes(n)
    _check_sizes(c1, c2)
    mu1, mu2 = compute_mu(c1, c2, p)
    samples = np.empty(trials)
    for t in range(trials):
        g = sample_gnp(GraphParams(n, p, split_seed(master_seed, t)), scheme)
        samples[t] = _centered(g, mu1, mu2)[2] ** k
    value = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    odd = k % 2 == 1
    reference = None if odd else float(double_factorial(k - 1)) * n ** (k / 2)
    ratio = None if odd else value / reference
    return MomentEstimate(k, value, stderr, trials, reference, ratio, odd)


# ----------------------------------------------------------------------
# quantitative-bound report

LEMMA_ANCHORS: dict[str, str] = {
    "day1_expectation": r"\frac{19\sqrt{pn}\Delta}{1920}",
    "biased_day1_tail": r"\frac{1}{\sqrt{np(1-p)}} + \mathcal{D}p\Delta",
    "moment_growth": r"(k-1)!! \cdot n^{k/2}",
    "day2_conditional_sum": r"1 + \phi(6)\min\{1, \sqrt{p}\Delta_2/\sqrt{n}\}",
    "beta_gap": r"\frac{80C_{BE}+3}{p}",
    "beta2_bound": r"\frac{3\sqrt{(1-p)(n-1)}}{\sqrt{p}}",
    "day2_pair_sum": r"1 + 1.5*10^{-11} p\Delta",
    "day2_expectation": r"\frac{n}{2} + 5*10^{-12}*pn\Delta",
    "day2_variance": r"\mathcal{O}(n^2p) + \mathcal{O}(n/p)",
    "day2_gap_probability": r"\frac{n}{2} - 4*10^{-12}pn\Delta",
    "day3_contraction": r"ba^2 > 3(\log 2)/2",
    "final_win_time": r"t^* = \mathcal{O}(\log_{pn} n)",
    "sstar_mean": r"\mathbb{E}[|S_{u,v}^*|] \leq \frac{2\sqrt{n}}{\sqrt{p}}",
    "sstar_variance": r"\frac{289\sqrt{n}}{\sqrt{p}}",
    "setdiff_variance": r"\mathbf{Var}(|S^{(1)}| - |S^{(2)}| - |S^*|) \leq 4n",
    "setdiff_mean_sq": r"\frac{328n}{p}",
    "ig_variance": r"21 p^{3/2}n^{1/2}",
    "ig_mean": r"2p^{3/2}n^{1/2}",
    "ig_mean_sq": r"21 p^{3/2} n^{1/2} + 4p^3 n",
    "sstar_mean_sq": r"\frac{293n}{p}",
    "s1_variance_unstated": r"\frac{7(n-1)}{12}",
    "ig_mean_identity": r"p^2 \mathbb{E}[|S^{*}_{uv}|]",
}

_LOG_HUGE_A = 3.0e6     # ln n needed by the day-1/day-2 moment bounds
_LOG_HUGE_B = 6.0e13    # ln n needed by the day-2 expectation chain
_B_CONST = 1.0 / 3.0    # day-3 target: at most b*n vertices of color 2


@dataclass
class LemmaRecord:
    lemma_id: str
    quote_anchor: str
    lhs: Optional[float]
    rhs: Optional[float]
    direction: str  # '<=', '>=' or '=='
    mode: str  # 'exact' or 'mc'
    hypotheses_met: bool
    asserted: bool
    satisfied: Optional[bool]
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LemmaReport:
    n: int
    p: float
    delta: float
    trials: int
    mode: str
    records: list[LemmaRecord]

    def record(self, lemma_id: str) -> LemmaRecord:
        for r in self.records:
            if r.lemma_id == lemma_id:
                return r
        raise KeyError(lemma_id)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def asserted_failures(self) -> list[str]:
        return [r.lemma_id for r in self.records
                if r.asserted and r.satisfied is False]


def _desk_p_range(n: int, p: float) -> bool:
    return math.log(n) / n <= p <= 0.25


def trial_record(margin_of, neighbours, color1, win1, win_day) -> dict[str, np.ndarray]:
    """The report's 14 per-graph quantities, in float64.

    margin_of(flags): (..., n) d1 - d2 of every vertex when `flags` are the
    color-1 vertices; neighbours(x): (..., n) neighbour flags of x; color1:
    (n,) day-0 color-1 flags; win1, win_day: whether color 1 won the
    standard run within its cap, and on which day (read only where it won).
    The leading axes may index a batch of graphs.  Focal vertices: v1 = u
    and v of `focal_pair`, v2 the first color-2 vertex.
    """
    std = UpdateRule.STANDARD
    m0 = margin_of(color1)
    day1 = takes_color1(m0, color1, std)
    day2 = takes_color1(margin_of(day1), day1, std)
    day3 = takes_color1(margin_of(day2), day2, std)
    u, v = focal_pair(color1)
    v2 = int(np.flatnonzero(~color1)[0])
    s1, s2, ss = s_sets_flags(m0, color1, neighbours, u, v)

    def count(flags):  # einsum sums a short last axis faster than sum()
        return np.einsum("...i->...", flags, dtype=np.float64)

    cols = {
        "c11_std": count(day1),
        "c11_biased": count(takes_color1(m0, color1, UpdateRule.BIASED)),
        "rhat1": count(rhat_flags(m0, color1, neighbours, u)),
        "rhat2": count(rhat_flags(m0, color1, neighbours, v2)),
        "c12": count(day2),
        "c23": len(color1) - count(day3),
        "win1": win1,
        "win_day": np.where(win1, win_day, np.nan),
        "s1": count(s1),
        "s2": count(s2),
        "ss": count(ss),
        "ig": count(ss & neighbours(u) & neighbours(v)),
        "v1_in_c12": day2[..., u],
        "v2_in_c12": day2[..., v2],
    }
    return {name: np.asarray(col, dtype=np.float64) for name, col in cols.items()}


def _gather_trial_quantities(n: int, p: float, delta, trials: int,
                             master_seed: int, cap: int) -> dict[str, np.ndarray]:
    """`trial_record` of `trials` sampled graphs, one row per graph."""
    scheme = FixedGap.from_delta(delta)
    records = []
    for t in range(trials):
        g = sample_gnp(GraphParams(n, p, split_seed(master_seed, t)), scheme)
        end = run(g, UpdateRule.STANDARD, cap).termination
        win1 = isinstance(end, Unanimity) and end.winner == 1
        records.append(trial_record(
            lambda flags: margins(g, pack_color_mask(flags)),
            lambda x: unpack_row(g.adj[x], n), g.colors == 1,
            win1, end.day if win1 else 0))
    return {name: np.array([r[name] for r in records]) for name in records[0]}


def lemma_report(n: int, p: float, delta, trials: int, master_seed: int = 0,
                 k: int = 2, d_const: float = 1.0, dd_const: float = 1.0) -> LemmaReport:
    """Estimate every tracked quantity and tabulate it against its bound.

    n <= 6 uses exhaustive enumeration with exact weights (mode 'exact');
    larger n uses trials Monte Carlo samples.  Bounds whose hypotheses hold
    only at astronomically large n are present but never asserted.  The
    report is in floats: a Fraction p is converted on entry.
    """
    p = float(p)
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if k < 0:
        raise ValueError(f"moment order k must be at least 0, got {k}")
    scheme = FixedGap.from_delta(delta)
    c1, c2 = scheme.class_sizes(n)
    if c1 < 2 or c2 < 1:
        raise ValueError("report needs at least two color-1 and one color-2 vertex")
    delta_f = scheme.delta
    cap = default_cap(n, p) if n * p > 1 else 4 * n

    exact_mode = n <= 6
    if exact_mode:
        from .oracle import enumerate_trial_quantities
        cols, weights = enumerate_trial_quantities(n, c1, p, cap)
        wsum = float(weights.sum())

        def mean(x):
            return float((weights * x).sum() / wsum)
    else:
        cols = _gather_trial_quantities(n, p, delta, trials, master_seed, cap)
        weights = np.full(trials, 1.0 / trials)

        def mean(x):
            return float(np.mean(x))

    def var(x):
        m = mean(x)
        return mean((x - m) ** 2)

    def cond_mean(x, mask):
        wm = float((weights * mask).sum())
        if wm <= 0:
            return None
        return float((weights * mask * np.nan_to_num(x)).sum() / wm)

    mode = "exact" if exact_mode else "mc"
    sqrt_pn = math.sqrt(p * n)
    sigma = math.sqrt(n * p * (1 - p))
    huge_a = math.log(n) >= _LOG_HUGE_A
    huge_b = math.log(n) >= _LOG_HUGE_B
    desk_p = _desk_p_range(n, p)
    delta_window = 1 <= delta_f <= 10 / p

    e_c11_biased = expected_biased_day1_count(c1, c2, p)

    records: list[LemmaRecord] = []

    def add(lemma_id, lhs, rhs, direction, hypotheses_met, asserted,
            extra=None, satisfied="auto"):
        if satisfied == "auto":
            if lhs is None or rhs is None:
                satisfied = None
            elif direction == "<=":
                satisfied = lhs <= rhs
            elif direction == ">=":
                satisfied = lhs >= rhs
            else:
                satisfied = lhs == rhs
        records.append(LemmaRecord(
            lemma_id, LEMMA_ANCHORS[lemma_id],
            None if lhs is None else float(lhs),
            None if rhs is None else float(rhs),
            direction, mode, hypotheses_met, asserted and hypotheses_met,
            satisfied, extra or {}))

    # day 1, expectation of the color-1 count (standard rule)
    add("day1_expectation", mean(cols["c11_std"]),
        n / 2 + 19 * sqrt_pn * delta_f / 1920, ">=",
        huge_a and desk_p and delta_window, False)

    # day 1, tail of the biased count around its exact mean
    tail_freq = mean(np.abs(cols["c11_biased"] - e_c11_biased)
                     >= d_const * sqrt_pn * delta_f)
    add("biased_day1_tail", tail_freq, 1.0 / sigma + dd_const * p * delta_f,
        "<=", False, False,
        {"d_const": d_const, "dd_const": dd_const, "exact_mean": e_c11_biased})

    # moments of Z against the Gaussian reference scale
    zc = 2.0 * (cols["c11_biased"] - e_c11_biased)
    zk = zc**k
    ref = float(double_factorial(k - 1)) * n ** (k / 2) if k % 2 == 0 else None
    add("moment_growth", mean(zk), ref, "<=",
        k % 2 == 0 and k <= math.sqrt(n / 20), False,
        {"k": k, "ratio": None if ref is None else mean(zk) / ref})

    # beta constants: how much conditioning on one vertex shifts day 1
    beta1 = mean(cols["rhat1"]) - mean(cols["c11_std"])
    beta2 = mean(cols["c11_std"]) - mean(cols["rhat2"])
    delta2 = 19 * sqrt_pn * delta_f / 3840

    ev1 = cols["rhat1"] >= (n - 1) / 2 + delta2 + beta1
    ev2 = cols["rhat2"] >= (n - 1) / 2 + delta2 - beta2
    p1 = cond_mean(cols["v1_in_c12"], ev1)
    p2 = cond_mean(cols["v2_in_c12"], ev2)
    cond_sum = None if (p1 is None or p2 is None) else p1 + p2
    add("day2_conditional_sum", cond_sum,
        1.0 + normal_pdf(6.0) * min(1.0, math.sqrt(p) * delta2 / math.sqrt(n)),
        ">=", huge_b and p * delta2 >= 2e8, False,
        {"beta1": beta1, "beta2": beta2, "delta2": delta2,
         "cond_frac_1": float((weights * ev1).sum()),
         "cond_frac_2": float((weights * ev2).sum())})

    add("beta_gap", beta2 - beta1, (80 * BERRY_ESSEEN_C + 3) / p, "<=",
        huge_b and desk_p and delta_f >= 2, False,
        {"beta1": beta1, "beta2": beta2})
    add("beta2_bound", beta2, 3 * math.sqrt((1 - p) * (n - 1)) / math.sqrt(p),
        "<=", huge_b and desk_p and delta_f >= 2, False)

    # day 2 via the pair of focal vertices
    add("day2_pair_sum", mean(cols["v1_in_c12"]) + mean(cols["v2_in_c12"]),
        1.0 + 1.5e-11 * p * delta_f, ">=",
        huge_b and desk_p and delta_window, False)
    add("day2_expectation", mean(cols["c12"]),
        n / 2 + 5e-12 * p * n * delta_f, ">=",
        huge_b and desk_p and delta_window, False)
    add("day2_variance", var(cols["c12"]), n * n * p + n / p, "<=",
        huge_a and desk_p and delta_window, False,
        {"ratio": var(cols["c12"]) / (n * n * p + n / p),
         "reference_constant": 1.0})

    gap_thresh = n / 2 - 4e-12 * p * n * delta_f
    chebyshev_ref = (1.0 - (1.0 / (p * delta_f**2) + 1.0 / (n * p**3 * delta_f**2))
                     if delta_f else -math.inf)  # its limit as delta -> 0
    add("day2_gap_probability", mean(n - cols["c12"] <= gap_thresh),
        max(0.0, chebyshev_ref), ">=", desk_p and delta_window and huge_b,
        False, {"reference_constant": 1.0})

    # day 3 contraction and final win time
    a_const = 4e-12 * p**1.5 * math.sqrt(n) * delta_f
    shrink2 = (n - cols["c12"]) <= n / 2 - a_const * n / math.sqrt(p * n)
    day3_ok = cond_mean((cols["c23"] <= _B_CONST * n).astype(float), shrink2)
    add("day3_contraction", day3_ok, 1.0, ">=",
        _B_CONST * a_const**2 > 1.5 * math.log(2), False,
        {"a": a_const, "b": _B_CONST, "b_a_sq": _B_CONST * a_const**2,
         "cond_frac": float((weights * shrink2).sum())})

    lam = p * n / math.log(n) - 1.0
    small2 = (n - cols["c12"]) <= _B_CONST * n
    win_rate = cond_mean(cols["win1"], small2)
    add("final_win_time", win_rate,
        max(0.0, 1.0 - 2.0 * n ** (-lam / 2) if lam > 0 else 0.0), ">=",
        lam > 0, False,
        {"lambda": lam, "cap": cap,
         "mean_win_day": cond_mean(cols["win_day"], cols["win1"] > 0)})

    # structural-set moments
    add("sstar_mean", mean(cols["ss"]), 2 * math.sqrt(n / p), "<=",
        desk_p, True)
    add("sstar_variance", var(cols["ss"]), 289 * math.sqrt(n / p), "<=",
        desk_p and n >= 1048, True)
    diff = cols["s1"] - cols["s2"] - cols["ss"]
    add("setdiff_variance", var(diff), 4.0 * n, "<=",
        huge_a and desk_p and delta_window, False)
    add("setdiff_mean_sq", mean(diff**2), 328 * n / p, "<=",
        huge_a and desk_p and delta_window, False)
    add("ig_variance", var(cols["ig"]), 21 * p**1.5 * math.sqrt(n), "<=",
        huge_a and desk_p and delta_window, False)
    add("ig_mean", mean(cols["ig"]), 2 * p**1.5 * math.sqrt(n), "<=",
        huge_a and desk_p and delta_window, False)
    add("ig_mean_sq", mean(cols["ig"] ** 2),
        21 * p**1.5 * math.sqrt(n) + 4 * p**3 * n, "<=",
        huge_a and desk_p and delta_window, False)
    add("sstar_mean_sq", mean(cols["ss"] ** 2), 293 * n / p, "<=",
        huge_a and desk_p and delta_window, False)
    # cited but never stated in the source; tracked, never asserted
    add("s1_variance_unstated", var(cols["s1"]), 7 * (n - 1) / 12, "<=",
        False, False)

    # double-neighbour count vs p^2 * |S*|: exact identity in expectation
    lhs_ig = mean(cols["ig"])
    rhs_ig = p**2 * mean(cols["ss"])
    if exact_mode:
        ig_ok = abs(lhs_ig - rhs_ig) < 1e-12
        extra_ig = {}
    else:
        resid = cols["ig"] - p**2 * cols["ss"]
        se = float(np.std(resid, ddof=1) / math.sqrt(len(resid)))
        ig_ok = abs(float(np.mean(resid))) <= 4 * se
        extra_ig = {"residual_mean": float(np.mean(resid)), "residual_stderr": se}
    add("ig_mean_identity", lhs_ig, rhs_ig, "==", True, True,
        extra_ig, satisfied=ig_ok)

    return LemmaReport(n, p, delta_f, trials, mode, records)

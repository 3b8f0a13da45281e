"""Slow reference kernels that the fast ones in majlab are tested against.

`star_fourier` is the star Fourier table: one basis matrix over every subset
and every configuration of v's m - 1 star edges, 2^(m-1) of each.  It reads
nothing of the class-count kernel in `majlab.fourier`, not even mu_v or the
update rule, so it anchors those tables at m = 5..7, where the whole-cube
brute force (`conftest.brute_fourier`) is too slow.

`_sample_pair_indices` and `_pairs_from_linear` are the whole-array G(n,p)
sampler that `graphs.sample_gnp` streamed by blocks replaced: every present
pair index of the sample in one array, then every (i, j) pair.  They anchor
the blocked sampler's bits and the generator state it leaves.

`appendix_a_point_by_point` evaluates the Appendix A checks one point at a
time, as `verify_appendix_a` did before it batched them: each point-mass
value is its own `bindiff_pmf` (one sum over the windows' overlap, not a
shared window), and each finite space has its own 1-D numpy sums, in the
point-by-point finite-space checks below.  It anchors the batched checks'
verdicts and bits.

`trial_records_graph_by_graph` is the bound report's sampled columns with
one `trial_record` call per graph, as before the graphs were stacked: it
anchors the stacked chunks, their per-graph colorings and focal vertices.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from majlab import appendix_a
from majlab.appendix_a import InequalityPoint, InequalityReport
from majlab.dynamics import Unanimity, UpdateRule, margins, run
from majlab.fourier import edge_list
from majlab.graphs import (FixedGap, GraphParams, _geometric_skips,
                           pack_color_mask, sample_gnp, split_seed, unpack_row)
from majlab.probability import bindiff_pmf, normal_cdf
from majlab.stats import trial_record


def star_edges(m: int, v: int) -> list[int]:
    """Bit index of each edge at v in canonical edge order: star edge j joins
    v to the j-th other vertex."""
    return [k for k, e in enumerate(edge_list(m)) if v in e]


def star_subset(m: int, v: int, s: int) -> int:
    """The subset (or configuration) mask over all C(m,2) edges of star
    subset s, whose bit j stands for star edge j."""
    return sum(1 << k for j, k in enumerate(star_edges(m, v)) if s >> j & 1)


def star_fourier(m: int, colors, v: int, p: Fraction,
                 power: int) -> tuple[list[Fraction], list[Fraction]]:
    """(r_S for every star subset S, Z_v^power on every star configuration
    x), both indexed by star mask (bit j = star edge j), exact.

    v keeps its color on biased day 1 where d1 - d2 >= -1 if it holds color
    1, and d1 - d2 <= -1 if it holds color 2 (the thresholds of
    `conftest.naive_step`); mu_v = 2 P(v keeps) - 1 over the same
    configurations, and r = Phi @ (w Z^power) with the star basis
    Phi[S, x] = prod_{e in S}(2 - 2p if x has e, else -2p).
    """
    p, k = Fraction(p), m - 1
    signs = np.array([1 if colors[u] == 1 else -1 for u in range(m) if u != v])
    present = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    margin = present @ signs
    keep = margin >= -1 if colors[v] == 1 else margin <= -1
    weights = np.array([p**e * (1 - p) ** (k - e) for e in present.sum(axis=1)],
                       dtype=object)
    mu = 2 * weights[keep].sum() - 1
    values = (np.where(keep, 1, -1).astype(object) - mu) ** power
    s, x = np.ogrid[:1 << k, :1 << k]
    basis = (np.power(2 - 2 * p, np.bitwise_count(s & x).astype(object))
             * np.power(-2 * p, np.bitwise_count(s & ~x).astype(object)))
    return (basis @ (weights * values)).tolist(), values.tolist()


def _sample_pair_indices(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Strictly increasing indices of present pairs among 0..n_pairs-1, each
    independently kept w.p. p.

    Geometric skips between successes, so work is proportional to the number
    of edges rather than the number of pairs.  Clamping skips at n_pairs + 1,
    past which any skip ends the sample, keeps the sums from overflowing.
    """
    if p <= 0.0 or n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    chunks = []
    pos = 0
    mean = n_pairs * p
    batch = min(int(mean + 10.0 * np.sqrt(mean + 1.0) + 16), 1 << 24)
    while pos < n_pairs:
        gaps = _geometric_skips(rng, p, batch, n_pairs + 1)
        gaps[0] += pos - 1
        steps = np.cumsum(gaps, out=gaps)
        cut = int(np.searchsorted(steps, n_pairs - 1, side="right"))
        chunks.append(steps[:cut])
        if cut < batch:
            break
        pos = int(steps[-1]) + 1
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _pairs_from_linear(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear upper-triangle indices to (i, j) with i < j.

    idx must be strictly increasing, as the geometric skips make it: then
    the pairs of row i are one contiguous run of idx, so searching the n
    row starts into idx gives every row's count, and i is each row repeated.
    """
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (n - 1) - rows * (rows - 1) // 2
    ends = np.searchsorted(idx, starts)
    counts, rows, starts = ends[1:] - ends[:-1], rows[:-1], starts[:-1]
    # j = i + 1 + (idx - starts[i]), with the per-row offset repeated
    return np.repeat(rows, counts), idx - np.repeat(starts - rows - 1, counts)


# ----------------------------------------------------------------------
# Appendix A, one point at a time

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


def _conditional_variance(params):
    pe, _, var, _, cvar = _cond_stats(params["probs"], params["values"],
                                      params["event"])
    return cvar, var / pe, True, ""


def _conditional_mean(params):
    values = np.asarray(params["values"])
    if (values < 0).any():
        return None, None, False, "needs a nonnegative variable"
    pe, mean, _, cmean, _ = _cond_stats(params["probs"], params["values"],
                                        params["event"])
    return cmean, mean / pe, True, ""


def _cdf_contraction(params):
    probs = np.asarray(params["probs"])
    values = np.asarray(params["values"])
    mean = float((probs * values).sum())
    var = float((probs * values**2).sum()) - mean**2
    phi = np.asarray([normal_cdf(v) for v in values])
    pmean = float((probs * phi).sum())
    pvar = float((probs * phi**2).sum()) - pmean**2
    return pvar, var, True, ""


def _with_bindiff_pmf(check):
    return lambda params: check(params, bindiff_pmf)


APPENDIX_A_POINT_CHECKS = {
    "clt_supremum": appendix_a._check_clt_supremum,
    "pointmass_upper": _with_bindiff_pmf(appendix_a._check_pointmass_upper),
    "step_bound": appendix_a._check_step_bound,
    "equal_point_lower": _with_bindiff_pmf(appendix_a._check_equal_point_lower),
    "pointmass_lower": _with_bindiff_pmf(appendix_a._check_pointmass_lower),
    "conditional_variance": _conditional_variance,
    "conditional_mean": _conditional_mean,
    "cdf_contraction": _cdf_contraction,
}


def appendix_a_point_by_point(grid: dict[str, list[dict]]) -> InequalityReport:
    """`verify_appendix_a(grid)` with each point evaluated alone."""
    report = InequalityReport()
    for lemma_id, points in grid.items():
        direction = appendix_a._CHECKS[lemma_id][1]
        for params in points:
            lhs, rhs, asserted, reason = APPENDIX_A_POINT_CHECKS[lemma_id](params)
            if lhs is None:
                report.points.append(InequalityPoint(
                    lemma_id, params, None, None, None, None, False, reason))
                continue
            slack = (rhs - lhs) if direction == "<=" else (lhs - rhs)
            report.points.append(InequalityPoint(
                lemma_id, params, lhs, rhs, slack, slack >= -1e-9,
                asserted, reason or None))
    return report


# ----------------------------------------------------------------------
# the sampled bound report, one graph at a time

def trial_records_graph_by_graph(n: int, p: float, delta, trials: int,
                                 master_seed: int, cap: int) -> dict[str, np.ndarray]:
    """`stats._gather_trial_quantities` with one trial_record call per
    sampled graph, on that graph's own (n,) coloring and adjacency rows."""
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

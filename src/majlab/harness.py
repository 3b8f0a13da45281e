"""Batch Monte Carlo experiments: win-probability sweeps over (n, p, gap),
threshold scans, and random-coloring-scheme runs.

Every trial draws its RNG stream from (master_seed, cell_index, trial_index),
and per-cell reductions run in trial order, so results are byte-identical no
matter how many workers execute the trials.  Cap hits are tracked separately
from losses and cycles.

A sweep with a results file first writes `<results>.manifest.json` (schema,
version, seed contract and a fingerprint of the output-deciding config), and
a resume refuses a non-empty results file whose manifest is missing or
differs, so cells of two different sweeps never mix.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .dynamics import TwoCycle, Unanimity, UpdateRule, default_cap, run
from .graphs import (ColoringScheme, FixedGap, GraphParams, RandomBiased,
                     RandomHalf, sample_gnp, split_seed)

__all__ = [
    "ExperimentConfig",
    "ForeignResultsError",
    "SEED_CONTRACT",
    "config_fingerprint",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "wilson_interval",
    "ScanResult",
    "threshold_scan",
    "SchemeResult",
    "scheme_experiment",
]

_Z95 = 1.959963984540054

_MANIFEST_SCHEMA = 1
_MAX_CHUNK = 10_000  # most trials in one work chunk
SEED_CONTRACT = ("trial t of cell c under master seed s draws its stream from "
                 "split_seed(s, c, t); cells reduce in trial order")


def wilson_interval(wins: int, total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if total == 0:
        return 0.0, 1.0
    phat = wins / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    delta_values: Optional[tuple[float, ...]] = None
    scheme: Optional[ColoringScheme] = None
    rule: UpdateRule = UpdateRule.STANDARD
    trials: int = 100
    master_seed: int = 0
    cap: Optional[int] = None  # None: default_cap(n, p) per cell
    workers: int = 1
    results_path: Optional[str] = None
    summary_path: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if (self.delta_values is None) == (self.scheme is None):
            raise ValueError("exactly one of delta_values or scheme is required")
        if self.cap is None:
            for n in self.n_values:
                for p in self.p_values:
                    if n * p <= 1.0:
                        raise ValueError(
                            f"default cap needs np > 1; cell n={n}, p={p}")

    def cells(self) -> list["Cell"]:
        out = []
        idx = 0
        for n in self.n_values:
            for p in self.p_values:
                if self.delta_values is not None:
                    for d in self.delta_values:
                        out.append(Cell(idx, n, p, FixedGap.from_delta(d)))
                        idx += 1
                else:
                    out.append(Cell(idx, n, p, self.scheme))
                    idx += 1
        return out


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    p: float
    scheme: ColoringScheme

    @property
    def delta(self) -> Optional[float]:
        return self.scheme.delta if isinstance(self.scheme, FixedGap) else None


# trial outcome codes
_WIN, _CYCLE, _CAP = 0, 1, 2


def _one_trial(n: int, p: float, scheme: ColoringScheme, rule: UpdateRule,
               cap: int, master_seed: int, cell_index: int,
               trial_index: int) -> tuple[int, int, int, int, int]:
    seed = split_seed(master_seed, cell_index, trial_index)
    g = sample_gnp(GraphParams(n, p, seed), scheme)
    tr = run(g, rule, cap)
    c1_0 = tr.counts[0][1]
    t = tr.termination
    if isinstance(t, Unanimity):
        return trial_index, _WIN, t.winner, t.day, c1_0
    if isinstance(t, TwoCycle):
        return trial_index, _CYCLE, 0, -1, c1_0
    return trial_index, _CAP, 0, -1, c1_0


def _run_chunk(args) -> list[tuple[int, int, int, int, int]]:
    (n, p, scheme, rule, cap, master_seed, cell_index, lo, hi) = args
    return [
        _one_trial(n, p, scheme, rule, cap, master_seed, cell_index, t)
        for t in range(lo, hi)
    ]


@dataclass
class CellResult:
    cell_id: int
    n: int
    p: float
    delta: Optional[float]
    trials: int
    wins1: int
    wins2: int
    cycles: int
    cap_hits: int
    mean_days: Optional[float]
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    majority_trials: Optional[int] = None
    majority_wins: Optional[int] = None
    initial_ties: Optional[int] = None

    def to_record(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None or
             k in ("delta", "mean_days")}
        return d


@dataclass
class SweepResult:
    cells: list[CellResult]

    def cell(self, cell_id: int) -> CellResult:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise KeyError(cell_id)


def _aggregate(cell: Cell, outcomes: list[tuple[int, int, int, int, int]],
               track_majority: bool) -> CellResult:
    outcomes = sorted(outcomes)  # by trial index: reduction order is fixed
    n = cell.n
    wins1 = wins2 = cycles = caps = 0
    day_sum = 0
    day_count = 0
    maj_trials = maj_wins = ties = 0
    for _, kind, winner, days, c1_0 in outcomes:
        if kind == _WIN:
            if winner == 1:
                wins1 += 1
            else:
                wins2 += 1
            day_sum += days
            day_count += 1
        elif kind == _CYCLE:
            cycles += 1
        else:
            caps += 1
        if track_majority:
            if 2 * c1_0 == n:
                ties += 1
            else:
                maj_trials += 1
                majority = 1 if 2 * c1_0 > n else 2
                if kind == _WIN and winner == majority:
                    maj_wins += 1
    trials = len(outcomes)
    lo, hi = wilson_interval(wins1, trials)
    return CellResult(
        cell_id=cell.index, n=n, p=cell.p, delta=cell.delta, trials=trials,
        wins1=wins1, wins2=wins2, cycles=cycles, cap_hits=caps,
        mean_days=(day_sum / day_count if day_count else None),
        p_hat=wins1 / trials, wilson_lo=lo, wilson_hi=hi,
        majority_trials=maj_trials if track_majority else None,
        majority_wins=maj_wins if track_majority else None,
        initial_ties=ties if track_majority else None,
    )


def _execute_cell(cell: Cell, cfg: ExperimentConfig, pool,
                  track_majority: bool) -> CellResult:
    cap = cfg.cap if cfg.cap is not None else default_cap(cell.n, cell.p)
    chunk = max(1, min(_MAX_CHUNK,
                       math.ceil(cfg.trials / max(1, cfg.workers * 4))))
    chunks = [
        (cell.n, cell.p, cell.scheme, cfg.rule, cap, cfg.master_seed,
         cell.index, lo, min(lo + chunk, cfg.trials))
        for lo in range(0, cfg.trials, chunk)
    ]
    parts = map(_run_chunk, chunks) if pool is None else pool.map(_run_chunk, chunks)
    outcomes = [o for part in parts for o in part]
    return _aggregate(cell, outcomes, track_majority)


def _pool(workers: int):
    """A process pool of `workers` for a `with` block, or None at workers = 1."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


class ForeignResultsError(ValueError):
    """A results file that another sweep configuration (or no manifest) wrote."""


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """sha256 of the config fields that decide the bytes of results.jsonl.

    Workers and paths are left out: they never change a result.
    """
    fields = {
        "n_values": list(cfg.n_values), "p_values": list(cfg.p_values),
        "delta_values": (None if cfg.delta_values is None
                         else list(cfg.delta_values)),
        "scheme": None if cfg.scheme is None else repr(cfg.scheme),
        "rule": cfg.rule.value, "trials": cfg.trials,
        "master_seed": cfg.master_seed, "cap": cfg.cap,
    }
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _manifest(cfg: ExperimentConfig) -> str:
    return json.dumps({
        "schema": _MANIFEST_SCHEMA, "version": __version__,
        "seed_contract": SEED_CONTRACT,
        "fingerprint": config_fingerprint(cfg),
    }, sort_keys=True) + "\n"


def _claim_results(results_path: Path, cfg: ExperimentConfig) -> None:
    """Start a results file, or check that a non-empty one is this sweep's.

    Raises ForeignResultsError, before touching the file, when its manifest
    is missing or differs from this config's.
    """
    manifest_path = Path(f"{results_path}.manifest.json")
    expected = _manifest(cfg)
    if results_path.exists() and results_path.stat().st_size > 0:
        found = manifest_path.read_text() if manifest_path.exists() else None
        if found != expected:
            state = "is missing" if found is None else "differs"
            raise ForeignResultsError(
                f"{results_path} was not written by this sweep configuration "
                f"(its manifest {manifest_path} {state}); give a new results "
                "path")
    else:
        manifest_path.write_text(expected)


def _load_finished(path: Path) -> dict[int, dict]:
    """Cells an earlier run wrote to `path`, keyed by cell id.

    Each cell is one write ending in a newline, so a crash mid-append leaves
    a final line without one.  That torn tail is cut off before anything is
    appended; its cell runs again and writes the same bytes.
    """
    with path.open("rb+") as fh:
        data = fh.read()
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            fh.truncate(whole)
    records = (json.loads(line) for line in data[:whole].splitlines()
               if line.strip())
    return {rec["cell_id"]: rec for rec in records}


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every cell of the grid; deterministic for a fixed master seed.

    With a results path, one JSON line is appended per finished cell and
    cells already present are skipped, so an interrupted sweep resumes.  A
    results file written under another config raises ForeignResultsError.
    """
    cells = cfg.cells()
    completed: dict[int, dict] = {}
    results_path = Path(cfg.results_path) if cfg.results_path else None
    if results_path is not None:
        _claim_results(results_path, cfg)
        if results_path.exists():
            completed = _load_finished(results_path)
    track_majority = cfg.scheme is not None and not isinstance(cfg.scheme, FixedGap)

    out: list[CellResult] = []
    with _pool(cfg.workers) as pool:
        for cell in cells:
            if cell.index in completed:
                rec = completed[cell.index]
                out.append(CellResult(**{
                    k: rec.get(k) for k in CellResult.__dataclass_fields__}))
                continue
            res = _execute_cell(cell, cfg, pool, track_majority)
            out.append(res)
            if results_path is not None:
                with results_path.open("a") as fh:
                    fh.write(json.dumps(res.to_record(), sort_keys=True) + "\n")
    if cfg.summary_path:
        with open(cfg.summary_path, "w", newline="") as fh:
            csv.writer(fh).writerows(summary_rows(out))
    return SweepResult(out)


def summary_rows(cells: list[CellResult]) -> list[list]:
    """The sweep summary table: the header, then one row per cell with ""
    where the cell has no value."""
    header = ["cell_id", "n", "p", "delta", "trials", "win1", "win2", "cycles",
              "cap_hits", "p_hat", "wilson_lo", "wilson_hi", "mean_days"]
    return [header] + [
        ["" if x is None else x for x in (
            c.cell_id, c.n, c.p, c.delta, c.trials, c.wins1, c.wins2,
            c.cycles, c.cap_hits, c.p_hat, c.wilson_lo, c.wilson_hi,
            c.mean_days)]
        for c in cells]


@dataclass
class ScanResult:
    """Bracket [delta_lo, delta_hi] for the smallest winning gap.

    delta_hi is the smallest gap whose Wilson lower bound reached the target;
    delta_lo is the largest gap that missed it.  A non-monotone response
    widens the bracket instead of failing.
    """

    delta_lo: float
    delta_hi: float
    target_prob: float
    evaluations: dict[float, dict]
    widened: bool


def threshold_scan(n: int, p: float, rule: UpdateRule, trials: int,
                   target_prob: float, master_seed: int = 0,
                   workers: int = 1) -> ScanResult:
    """Bisect over the gap for the smallest fixed gap whose color-1 win
    frequency certifiably (Wilson lower bound) reaches target_prob."""
    if not 0.5 < target_prob < 1.0:
        raise ValueError("target probability must lie in (0.5, 1)")
    parity = n % 2
    td_min = parity  # smallest representable doubled gap
    td_max = n       # monochromatic start
    evals: dict[int, dict] = {}

    with _pool(workers) as pool:
        def ev(td: int) -> bool:
            if td not in evals:
                cfg = ExperimentConfig(
                    n_values=(n,), p_values=(p,), delta_values=(td / 2,),
                    rule=rule, trials=trials,
                    master_seed=split_seed(master_seed, td), workers=workers)
                cell = _execute_cell(cfg.cells()[0], cfg, pool,
                                     track_majority=False)
                evals[td] = {"wins1": cell.wins1, "trials": cell.trials,
                             "wilson_lo": cell.wilson_lo, "p_hat": cell.p_hat}
            return evals[td]["wilson_lo"] >= target_prob

        hi_ok = ev(td_max)
        lo_ok = ev(td_min)
        if lo_ok:
            lo, hi = td_min, td_min
        elif not hi_ok:
            lo, hi = td_min, td_max  # nothing certified; full-range bracket
        else:
            lo, hi = td_min, td_max
            while hi - lo > 2:
                mid = lo + (hi - lo) // 2
                if (mid - parity) % 2:
                    mid += 1
                if mid <= lo or mid >= hi:
                    break
                if ev(mid):
                    hi = mid
                else:
                    lo = mid

    successes = {td for td in evals if evals[td]["wilson_lo"] >= target_prob}
    failures = set(evals) - successes
    widened = False
    if successes and failures and max(failures) > min(successes):
        widened = True
        lo, hi = min(successes), max(failures)
        above = [td for td in successes if td > max(failures)]
        hi = min(above) if above else td_max
    return ScanResult(lo / 2, hi / 2, target_prob,
                      {td / 2: v for td, v in sorted(evals.items())}, widened)


@dataclass
class SchemeResult:
    cell: CellResult
    majority_win_rate: Optional[float]
    majority_wilson: tuple[float, float]


def scheme_experiment(scheme: Union[RandomHalf, RandomBiased], n: int, p: float,
                      trials: int, rule: UpdateRule = UpdateRule.STANDARD,
                      master_seed: int = 0, workers: int = 1,
                      cap: Optional[int] = None) -> SchemeResult:
    """Random-coloring run that also conditions on the initial majority.

    Trials whose initial counts tie are kept in a separate bucket and do not
    enter the majority-win rate.
    """
    cfg = ExperimentConfig(
        n_values=(n,), p_values=(p,), scheme=scheme, rule=rule,
        trials=trials, master_seed=master_seed, cap=cap, workers=workers)
    cell = run_sweep(cfg).cells[0]
    rate = (cell.majority_wins / cell.majority_trials
            if cell.majority_trials else None)
    wl = wilson_interval(cell.majority_wins or 0, cell.majority_trials or 0)
    return SchemeResult(cell, rate, wl)

import json

import numpy as np
import pytest

from majlab import harness
from majlab.dynamics import UpdateRule, run
from majlab.graphs import (FixedGap, GraphParams, RandomBiased,
                           RandomHalf, sample_gnp)
from majlab.harness import (ExperimentConfig, run_sweep, scheme_experiment,
                            threshold_scan, wilson_interval)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    # reference value: 8/10 successes -> [0.4902, 0.9433] (score interval)
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.4901625, abs=2e-4)
    assert hi == pytest.approx(0.9433, abs=2e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(10,), p_values=(0.5,))  # no coloring source
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(10,), p_values=(0.5,), delta_values=(1,),
                         scheme=RandomHalf())
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(10,), p_values=(0.5,), delta_values=(1,),
                         trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(100,), p_values=(0.001,),
                         delta_values=(1,))  # np <= 1 without explicit cap


def test_counts_partition_trials():
    cfg = ExperimentConfig(n_values=(30,), p_values=(0.2,),
                           delta_values=(0.0, 2.0), trials=150, master_seed=7)
    for cell in run_sweep(cfg).cells:
        assert cell.wins1 + cell.wins2 + cell.cycles + cell.cap_hits == 150
        assert 0.0 <= cell.wilson_lo <= cell.p_hat <= cell.wilson_hi <= 1.0


def test_sweep_deterministic_across_workers(tmp_path):
    def go(workers, name):
        path = tmp_path / f"{name}.jsonl"
        cfg = ExperimentConfig(n_values=(40,), p_values=(0.25,),
                               delta_values=(1.0, 2.0), trials=120,
                               master_seed=5, workers=workers,
                               results_path=str(path))
        run_sweep(cfg)
        return path.read_bytes()

    assert go(1, "w1") == go(4, "w4")


def test_sweep_resume_skips_completed_cells(tmp_path):
    path = tmp_path / "res.jsonl"
    cfg = ExperimentConfig(n_values=(30,), p_values=(0.3,),
                           delta_values=(1.0, 3.0), trials=80, master_seed=3,
                           results_path=str(path))
    full = run_sweep(cfg)
    all_lines = path.read_text().strip().split("\n")
    assert len(all_lines) == 2
    # keep only the first cell, as if the run died mid-sweep
    path.write_text(all_lines[0] + "\n")
    resumed = run_sweep(cfg)
    assert path.read_text().strip().split("\n") == all_lines
    assert [c.to_record() for c in resumed.cells] == \
        [c.to_record() for c in full.cells]


def test_sweep_resume_after_torn_last_line(tmp_path):
    path = tmp_path / "res.jsonl"
    cfg = ExperimentConfig(n_values=(30,), p_values=(0.3,),
                           delta_values=(1.0, 3.0, 5.0), trials=40,
                           master_seed=3, results_path=str(path))
    run_sweep(cfg)
    intact = path.read_bytes()
    first_end = intact.index(b"\n") + 1
    # a crash mid-write: cut inside the first line, and inside the second
    for cut in (first_end // 2, first_end + 5, len(intact) - 1):
        path.write_bytes(intact[:cut])
        run_sweep(cfg)
        assert path.read_bytes() == intact, cut


def test_sweep_manifest(tmp_path):
    from majlab import __version__
    from majlab.harness import SEED_CONTRACT, config_fingerprint
    path = tmp_path / "res.jsonl"
    cfg = ExperimentConfig(n_values=(20,), p_values=(0.3,),
                           delta_values=(1.0,), trials=50, master_seed=1,
                           results_path=str(path))
    run_sweep(cfg)
    manifest = json.loads((tmp_path / "res.jsonl.manifest.json").read_text())
    assert manifest == {"schema": 1, "version": __version__,
                        "seed_contract": SEED_CONTRACT,
                        "fingerprint": config_fingerprint(cfg)}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "res.jsonl", "res.jsonl.manifest.json"]
    # workers and paths never change a result byte ...
    same = ExperimentConfig(n_values=(20,), p_values=(0.3,),
                            delta_values=(1.0,), trials=50, master_seed=1,
                            workers=3, results_path="elsewhere.jsonl",
                            summary_path="s.csv")
    assert config_fingerprint(same) == manifest["fingerprint"]
    # ... while every output-deciding field does
    base = dict(n_values=(20,), p_values=(0.3,), delta_values=(1.0,),
                trials=50, master_seed=1)
    changes = [dict(n_values=(21,)), dict(p_values=(0.31,)),
               dict(delta_values=(2.0,)), dict(trials=51),
               dict(master_seed=2), dict(cap=30),
               dict(rule=UpdateRule.BIASED),
               dict(delta_values=None, scheme=RandomHalf()),
               dict(delta_values=None, scheme=RandomBiased(0.6))]
    prints = {config_fingerprint(ExperimentConfig(**{**base, **c}))
              for c in changes}
    assert len(prints) == len(changes)
    assert manifest["fingerprint"] not in prints


def test_resume_refuses_results_of_another_config(tmp_path):
    path = tmp_path / "res.jsonl"
    first = ExperimentConfig(n_values=(20,), p_values=(0.3,),
                             delta_values=(1.0,), trials=50, master_seed=1,
                             results_path=str(path))
    run_sweep(first)
    written = path.read_bytes()
    other = ExperimentConfig(n_values=(20,), p_values=(0.3,),
                             delta_values=(1.0,), trials=500, master_seed=99,
                             results_path=str(path))
    with pytest.raises(ValueError, match="manifest .* differs"):
        run_sweep(other)
    assert path.read_bytes() == written
    # an empty results file is free to claim, and the claim sticks
    path.write_bytes(b"")
    run_sweep(other)
    claimed = path.read_bytes()
    assert json.loads(claimed)["trials"] == 500
    run_sweep(other)
    assert path.read_bytes() == claimed
    # a results file with no manifest (as older versions wrote) is refused
    # too, even with a torn last line: nothing is truncated
    (tmp_path / "res.jsonl.manifest.json").unlink()
    path.write_bytes(written[:-3])
    with pytest.raises(ValueError, match="manifest .* is missing"):
        run_sweep(first)
    assert path.read_bytes() == written[:-3]


def test_resume_and_workers_keep_results_and_manifest_bytes(tmp_path):
    def go(workers, name, cut_to_first_cell=False):
        path = tmp_path / f"{name}.jsonl"
        cfg = ExperimentConfig(n_values=(30,), p_values=(0.3,),
                               delta_values=(1.0, 3.0), trials=60,
                               master_seed=8, workers=workers,
                               results_path=str(path))
        run_sweep(cfg)
        if cut_to_first_cell:
            data = path.read_bytes()
            path.write_bytes(data[:data.index(b"\n") + 1])
            run_sweep(cfg)
        manifest = tmp_path / f"{name}.jsonl.manifest.json"
        return path.read_bytes(), manifest.read_bytes()

    one = go(1, "w1")
    assert go(2, "w2") == one
    assert go(1, "resumed", cut_to_first_cell=True) == one


def test_summary_csv_columns(tmp_path):
    summary = tmp_path / "summary.csv"
    cfg = ExperimentConfig(n_values=(20,), p_values=(0.3,),
                           delta_values=(1.0,), trials=30, master_seed=2,
                           summary_path=str(summary))
    run_sweep(cfg)
    header = summary.read_text().strip().split("\n")[0]
    assert header == ("cell_id,n,p,delta,trials,win1,win2,cycles,cap_hits,"
                      "p_hat,wilson_lo,wilson_hi,mean_days")


def test_win_rate_monotone_in_gap_up_to_ci():
    cfg = ExperimentConfig(n_values=(60,), p_values=(0.2,),
                           delta_values=(0.0, 2.0, 5.0, 10.0), trials=300,
                           master_seed=13)
    cells = run_sweep(cfg).cells
    for small, large in zip(cells, cells[1:]):
        # a certified decrease (smaller gap certifiably beating a larger one)
        # is a failure
        assert small.wilson_lo <= large.wilson_hi


def test_color_swap_symmetry():
    # standard dynamics commutes with swapping the two colors
    for seed in range(20):
        g = sample_gnp(GraphParams(24, 0.3, seed), FixedGap.from_delta(0))
        swapped = g.with_colors(np.where(g.colors == 1, 2, 1).astype(np.int8))
        t1 = run(g, UpdateRule.STANDARD, 30).termination_record()
        t2 = run(swapped, UpdateRule.STANDARD, 30).termination_record()
        assert t1["kind"] == t2["kind"]
        if t1["kind"] == "unanimity":
            assert t1["winner"] + t2["winner"] == 3
            assert t1["day"] == t2["day"]


def test_scheme_experiment_all_one():
    sr = scheme_experiment(RandomBiased(1.0), 50, 0.2, trials=40, master_seed=4)
    assert sr.cell.wins1 == 40
    assert sr.cell.mean_days == 0.0
    assert sr.majority_win_rate == 1.0


def test_scheme_experiment_ties_bucketed():
    sr = scheme_experiment(RandomHalf(), 10, 0.4, trials=400, master_seed=6,
                           cap=40)
    cell = sr.cell
    assert cell.initial_ties is not None and cell.initial_ties > 0
    assert cell.majority_trials + cell.initial_ties == 400


def test_threshold_scan_complete_graph_odd_n():
    res = threshold_scan(21, 1.0 - 1e-12, UpdateRule.STANDARD, trials=80,
                         target_prob=0.9, master_seed=1)
    assert res.delta_lo <= 0.5 <= res.delta_hi
    assert res.delta_hi == 0.5  # any strict majority wins on a complete graph


def test_threshold_scan_symmetric_start_excludes_zero():
    res = threshold_scan(40, 0.3, UpdateRule.STANDARD, trials=120,
                         target_prob=0.8, master_seed=2)
    assert res.delta_hi > 0.0
    assert res.evaluations[0.0]["wilson_lo"] < 0.8
    assert not res.widened


def test_threshold_scan_opens_one_pool(monkeypatch):
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    args = (40, 0.3, UpdateRule.STANDARD, 60, 0.8, 2)
    pooled = threshold_scan(*args, workers=2)
    assert len(opened) == 1 and len(pooled.evaluations) > 2
    assert threshold_scan(*args, workers=1) == pooled
    assert len(opened) == 1


def test_threshold_scan_validation():
    with pytest.raises(ValueError):
        threshold_scan(20, 0.5, UpdateRule.STANDARD, 10, target_prob=0.4)


def test_sweep_win_rate_matches_oracle():
    # the sampling path (sample_gnp + run) against exhaustive enumeration;
    # a half-integer gap at n=5 gives classes of size 3 and 2
    from fractions import Fraction
    from majlab.oracle import OracleQuery, WinProb, oracle_eval
    exact = float(oracle_eval(OracleQuery(
        5, Fraction(1, 2), (1, 1, 1, 2, 2), WinProb(color=1))).value)
    trials = 4000
    cfg = ExperimentConfig(n_values=(5,), p_values=(0.5,),
                           delta_values=(0.5,), trials=trials,
                           master_seed=21, cap=40)
    cell = run_sweep(cfg).cells[0]
    se = (exact * (1 - exact) / trials) ** 0.5
    assert abs(cell.p_hat - exact) <= 4 * se

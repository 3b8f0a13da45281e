import dataclasses
import json
import math

import numpy as np
import pytest

from majlab.appendix_a import (LEMMA_IDS, default_grid, small_grid,
                               verify_appendix_a)
from majlab.probability import BERRY_ESSEEN_C, BinDiffDist

from reference import appendix_a_point_by_point


def test_small_grid_all_pass():
    report = verify_appendix_a(small_grid())
    assert report.all_pass
    summary = report.summary()
    assert set(summary) == set(LEMMA_IDS)
    for lemma, s in summary.items():
        assert s["failures"] == 0, lemma


def test_default_grid_sizes():
    grid = default_grid()
    for lemma in LEMMA_IDS:
        assert len(grid[lemma]) >= 200, lemma


def test_documented_points_not_asserted():
    report = verify_appendix_a({"pointmass_upper": [
        {"n1": 20, "n2": 20, "p": 0.5, "d": 1},
        {"n1": 10, "n2": 10, "p": 0.1, "d": 1},
    ]})
    doc, asserted = report.points
    assert not doc.asserted and doc.lhs is not None
    assert "documented" in doc.reason
    assert asserted.asserted and asserted.passed


def test_hypothesis_violations_skipped_with_reason():
    report = verify_appendix_a({
        "step_bound": [{"n": 100, "m": 50, "p": 0.3}],        # n too small
        "equal_point_lower": [{"n": 100, "p": 0.999}],        # p too large
        "pointmass_upper": [{"n1": 5, "n2": 5, "p": 0.1, "d": 0}],  # d = 0
    })
    for pt in report.points:
        assert pt.passed is None and pt.lhs is None
        assert pt.reason
    assert report.all_pass  # skips never fail the report


def test_clt_supremum_hand_case():
    # single Bernoulli(1/2): the sup distance is |1/2 - Phi(-1)| ~ 0.3413
    report = verify_appendix_a({"clt_supremum": [
        {"n_pos": 1, "n_neg": 0, "p": 0.5}]})
    pt = report.points[0]
    assert pt.lhs == pytest.approx(0.5 - 0.15865525393145707, abs=1e-12)
    assert pt.rhs == pytest.approx(BERRY_ESSEEN_C * 0.5 / 0.5, abs=1e-12)
    assert pt.passed


def test_conditional_bounds_hand_case():
    # X uniform on {0, 10}, event picks the large outcome
    probs = [0.5, 0.5]
    values = [0.0, 10.0]
    event = [False, True]
    report = verify_appendix_a({
        "conditional_variance": [{"probs": probs, "values": values,
                                  "event": event}],
        "conditional_mean": [{"probs": probs, "values": values,
                              "event": event}],
    })
    var_pt = next(p for p in report.points if p.lemma_id == "conditional_variance")
    mean_pt = next(p for p in report.points if p.lemma_id == "conditional_mean")
    assert var_pt.lhs == pytest.approx(0.0, abs=1e-12)       # Var(X|E) = 0
    assert var_pt.rhs == pytest.approx(50.0, abs=1e-12)      # 25 / 0.5
    assert mean_pt.lhs == pytest.approx(10.0, abs=1e-12)
    assert mean_pt.rhs == pytest.approx(10.0, abs=1e-12)     # equality case
    assert mean_pt.passed


def test_conditional_mean_requires_nonnegative():
    report = verify_appendix_a({"conditional_mean": [
        {"probs": [0.5, 0.5], "values": [-1.0, 1.0], "event": [True, False]}]})
    assert report.points[0].passed is None


def test_contraction_hand_case():
    # two-point variable at +-10: Phi values are ~0/1 so the variance drops
    report = verify_appendix_a({"cdf_contraction": [
        {"probs": [0.5, 0.5], "values": [-10.0, 10.0]}]})
    pt = report.points[0]
    assert pt.lhs == pytest.approx(0.25, abs=1e-9)
    assert pt.rhs == pytest.approx(100.0, abs=1e-9)


def test_report_json_schema():
    report = verify_appendix_a({"equal_point_lower": [{"n": 50, "p": 0.2}]})
    data = json.loads(report.to_json())
    assert isinstance(data, list)
    rec = data[0]
    assert set(rec) == {"lemma_id", "params", "lhs", "rhs", "slack", "pass",
                        "asserted", "reason"}
    assert rec["pass"] is True


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify_appendix_a({"nonsense": []})


def test_step_bound_tightest_point_has_margin():
    # smallest n with the sparsest admissible p is the closest call; make
    # sure it is not knife-edge
    n = 520
    p = math.log(n) / n
    table = BinDiffDist(n, n, p).table
    lhs = float(np.max(np.abs(np.diff(table))))
    rhs = 20 * BERRY_ESSEEN_C / (n * p * (1 - p))
    assert lhs < 0.5 * rhs


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_conditional_points_never_draw_the_whole_space(seed):
    # with P(E) = 1 both conditional bounds hold with equality, so such a
    # point could fail only through rounding; every point must have slack
    grid = default_grid(seed)
    lemmas = ("conditional_mean", "conditional_variance")
    for lemma in lemmas:
        for params in grid[lemma]:
            assert any(params["event"]) and not all(params["event"]), params
    report = verify_appendix_a({k: grid[k] for k in lemmas})
    assert all(pt.passed and pt.slack > 0 for pt in report.points)


@pytest.mark.parametrize("grid", [
    lambda: default_grid(0), lambda: default_grid(1), lambda: default_grid(7),
    lambda: small_grid(0),
], ids=["default-0", "default-1", "default-7", "small-0"])
def test_batched_checks_match_point_by_point(grid):
    # order, params, both sides to the bit, asserted, pass and reason
    grid = grid()
    assert (verify_appendix_a(grid).to_json()
            == appendix_a_point_by_point(grid).to_json())


@pytest.mark.parametrize("grid", [
    {"clt_supremum": [{"n_pos": 0, "n_neg": 0, "p": 0.3}]},
    {"clt_supremum": [{"n_pos": 3, "n_neg": 1, "p": 1.0}]},
    {"pointmass_upper": [{"n1": 5, "n2": 5, "p": 0.1, "d": 0}]},
    {"pointmass_upper": [{"n1": 5, "n2": 5, "p": 0.0, "d": 2}]},
    {"step_bound": [{"n": 100, "m": 50, "p": 0.3}]},
    {"step_bound": [{"n": 600, "m": 700, "p": 0.3}]},
    {"step_bound": [{"n": 600, "m": 60, "p": 0.001}]},
    {"equal_point_lower": [{"n": 10, "p": 0.3}]},
    {"equal_point_lower": [{"n": 100, "p": 0.999}]},
    {"pointmass_lower": [{"n": 100, "p": 0.3, "d": 1}]},
    {"pointmass_lower": [{"n": 600, "p": 0.999, "d": 1}]},
    {"conditional_mean": [{"probs": [0.5, 0.5], "values": [-1.0, 1.0],
                           "event": [True, False]}]},
    # skipped points among kept ones of several support and event sizes
    {"conditional_mean": [
        {"probs": [0.2, 0.3, 0.5], "values": [1.0, 2.0, 3.0],
         "event": [True, False, True]},
        {"probs": [0.5, 0.5], "values": [-1.0, 1.0], "event": [True, False]},
        {"probs": [0.25] * 4, "values": [0.5, 4.0, 1.0, 2.0],
         "event": [False, True, False, False]},
        {"probs": [0.1, 0.9], "values": [2.0, 1.0], "event": [True, False]}],
     "pointmass_upper": [{"n1": 5, "n2": 5, "p": 0.1, "d": 0},
                         {"n1": 5, "n2": 5, "p": 0.1, "d": 1},
                         {"n1": 5, "n2": 5, "p": 0.5, "d": 1},
                         {"n1": 5, "n2": 5, "p": 0.1, "d": 7}]},
])
def test_skipped_points_match_point_by_point(grid):
    report = verify_appendix_a(grid)
    assert report.to_json() == appendix_a_point_by_point(grid).to_json()
    assert any(pt.passed is None and pt.reason for pt in report.points)


def test_report_json_matches_the_asdict_records():
    # to_dict builds each record without deep-copying its params
    report = verify_appendix_a(small_grid(0))
    records = []
    for pt in report.points:
        record = dataclasses.asdict(pt)
        record["pass"] = record.pop("passed")
        records.append(record)
    assert report.to_json() == json.dumps(records, sort_keys=True)

"""Tiny-size smoke runs of every workload, untraced and traced.

    python -m pytest perfbench/tests

They check that every metric named in BENCHMARK.json is reported with its
unit and that no output check fails.  They make no timing asserts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert any(line.split()[:3] == ["fail_ratio", "=", "0"] for line in lines)
    provenance = json.loads(next(line for line in lines
                                 if line.startswith("provenance: "))[12:])
    assert {"nproc", "python", "numpy", "scipy", "git_commit", "seed",
            "src_lines"} <= set(provenance)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _import_benchmark():
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    import workloads
    return run, workloads


def test_failed_check_always_counts():
    _, workloads = _import_benchmark()
    out = workloads.Outcome()
    out.check(0, False, "a check with no operations of its own")
    out.check(5, False, "a check whose failures were not counted", failed=0)
    assert out.attempted == 6 and out.failed == 2
    assert len(out.failures) == 2


def test_wrong_result_file_fails_the_run(tmp_path, monkeypatch):
    run, workloads = _import_benchmark()
    real_sweep = workloads.harness.run_sweep

    def sweep_with_truncated_results(cfg):
        result = real_sweep(cfg)
        if cfg.results_path:  # threshold_scan's own sweeps write no file
            lines = Path(cfg.results_path).read_text().splitlines()
            Path(cfg.results_path).write_text("\n".join(lines[:-1]) + "\n")
        return result

    monkeypatch.setattr(workloads.harness, "run_sweep",
                        sweep_with_truncated_results)
    out = workloads.run_workload("mc_small", "smoke", 5, 1, tmp_path)
    assert out.failed > 0
    assert any("results.jsonl" in f for f in out.failures)

    rep = {"mode": "plain", "attempted": out.attempted, "failed": out.failed,
           "failures": out.failures, "digest": out.digest()}
    attempted, failed, notes = run._tally([rep])
    assert failed > 0 and notes

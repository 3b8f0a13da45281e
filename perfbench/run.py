"""Run one workload of the majlab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; majlab is imported from its src/.
Each repetition of the workload runs in a fresh process (rep.py), and
repetitions start while the next one is expected to end within --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions.  setup_s also takes the set-up-only processes that fill the
rest of --seconds once no further repetition fits.

--trace 1 runs rounds of (plain, [serial,] traced)
repetitions and reports the per-layer metrics.  Every output is checked;
repetitions of one seed must also produce identical outputs, which in a
traced run compares workers=1 against workers=2.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Human-readable lines before it repeat every metric with its unit.
Results, provenance and spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MONTE_CARLO = ("mc_large", "mc_small")
WORK_NAME = {"mc_large": "trials_per_s", "mc_small": "trials_per_s",
             "exact": "configs_per_s", "analysis": "ops_per_s"}
# A run must end within 180 s; leave room for the last repetition's exit.
HARD_LIMIT_S = 165.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spawn(workload: str, seed: int, scale: str, mode: str,
           budget_s: float) -> dict:
    """Run one repetition; a crash or timeout becomes a failed record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--mode", mode,
           "--out", str(OUT), "--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, budget_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"mode": mode, "error": f"timed out after {budget_s:.0f} s"}
    if proc.returncode != 0:
        return {"mode": mode, "error": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    return json.loads(stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD's commit, with "-dirty" if the work tree has changes."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        # a checkout without .git may sit inside some other repository
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown (not a git checkout)"
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _provenance(seed: int, reps: list[dict]) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {"nproc": os.cpu_count(), **versions, "git_commit": _git_commit(),
            "seed": seed, "src_lines": src_lines}


def _tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, counting crashed repetitions and
    repetitions whose outputs differ from the first one."""
    attempted = failed = 0
    notes: list[str] = []
    reference = next((r["digest"] for r in reps if "digest" in r), None)
    for i, r in enumerate(reps):
        if r["mode"] == "setup" and "error" not in r:
            continue
        if "error" in r:
            attempted += 1
            failed += 1
            notes.append(f"rep {i} ({r['mode']}): {r['error']}")
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        notes += [f"rep {i} ({r['mode']}): {f}" for f in r["failures"]]
        if r["digest"] != reference:
            failed += r["attempted"] - r["failed"]
            notes.append(f"rep {i} ({r['mode']}): outputs differ from the "
                         "first repetition of the same seed")
    return attempted, failed, notes


def _end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    ok = [r for r in reps if "error" not in r]
    runs = [r for r in ok if r["mode"] == "plain"]
    return {
        "setup_s": [r["setup_s"] for r in ok],
        "wall_s": [r["wall_s"] for r in runs],
        "work_per_s": [r["work"] / r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def _per_layer(reps: list[dict]) -> dict[str, list[float]]:
    walls = {mode: [r["wall_s"] for r in reps
                    if r["mode"] == mode and "error" not in r]
             for mode in ("plain", "serial", "traced")}
    if not walls["plain"] or not walls["traced"]:
        return {}
    traced = [r for r in reps if r["mode"] == "traced" and "error" not in r]
    values = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
    plain = statistics.median(walls["plain"])
    serial = statistics.median(walls["serial"]) if walls["serial"] else None
    traced_wall = statistics.median(walls["traced"])
    # traced repetitions run in-process, so compare them with the
    # in-process baseline where there is one
    values["trace.overhead_ratio"] = [traced_wall / (serial or plain)]
    # (trials/s at workers=2) / (2 x trials/s in-process)
    values["harness.pool_efficiency"] = [serial / (2.0 * plain) if serial else 0.0]
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "majlab" / "__init__.py").is_file():
        print(f"no majlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    OUT.mkdir(exist_ok=True)

    if not args.trace:
        modes = ["plain"]
    elif args.workload in MONTE_CARLO:
        modes = ["plain", "serial", "traced"]
    else:
        modes = ["plain", "traced"]

    start = time.perf_counter()
    reps: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            budget = HARD_LIMIT_S - (time.perf_counter() - start)
            reps.append(_spawn(args.workload, args.seed, args.scale, mode,
                               budget))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        expect = statistics.median(rounds)
        if (elapsed + expect > args.seconds
                or elapsed + 1.5 * max(rounds) > HARD_LIMIT_S):
            break
    # fill the rest of the measuring time with set-up-only processes
    probes: list[float] = []
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while not args.trace and setups:
        elapsed = time.perf_counter() - start
        expect = statistics.median(probes) if probes else 1.5 * min(setups)
        if elapsed + expect > args.seconds:
            break
        t0 = time.perf_counter()
        reps.append(_spawn(args.workload, args.seed, args.scale, "setup",
                           HARD_LIMIT_S - elapsed))
        probes.append(time.perf_counter() - t0)

    attempted, failed, notes = _tally(reps)
    if not any("error" not in r and r["mode"] != "setup" for r in reps):
        for note in notes:
            print(note, file=sys.stderr)
        return 1
    samples = _per_layer(reps) if args.trace else _end_to_end(reps)
    missing = set(units) - set(samples)
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    metrics = {name: {"value": statistics.median(samples[name]),
                      "unit": units[name]} for name in units}
    provenance = _provenance(args.seed, reps)
    elapsed = time.perf_counter() - start

    print(f"majlab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps) - len(probes)} "
          f"set-up-only={len(probes)} ({elapsed:.1f} s)")
    for name in units:
        vals = samples[name]
        label = WORK_NAME[args.workload] if name == "work_per_s" else name
        q1, med, q3 = _quartiles(vals)
        print(f"  {label:40s} = {med:.6g} {units[name]}"
              f"   (median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'fail_ratio':40s} = {failed / max(attempted, 1):.6g} 1"
          f"   ({failed} of {attempted} operations failed)")
    for note in notes:
        print(f"  FAILED {note}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace,
                  scale=args.scale, provenance=provenance, failures=notes,
                  samples=samples, repetitions=reps)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one benchmark workload, in a fresh process.

run.py starts this script once per repetition, so every repetition pays the
interpreter start and the numpy/scipy/majlab imports (`setup_s`), and
majlab's module-level caches start cold, as they do for a `majlab` command.
The last line of standard output is one JSON record of the repetition.

Modes:
  plain   workers=2, untraced: the end-to-end measurement
  serial  workers=1, untraced: the in-process baseline of the Monte Carlo
          workloads (pool efficiency, tracing overhead)
  traced  workers=1 with every layer boundary wrapped in spans
  setup   imports only: one more sample of `setup_s`
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--mode", choices=("plain", "serial", "traced", "setup"),
                    default="plain")
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time at which the parent started this process")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import workloads
    setup_s = time.time() - args.t0
    if args.mode == "setup":
        print(json.dumps({"mode": args.mode, "setup_s": setup_s}))
        return 0

    out_dir = Path(args.out)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        outcome = workloads.run_workload(
            args.workload, args.scale, args.seed,
            2 if args.mode == "plain" else 1, scratch)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "work": outcome.work,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "digest": outcome.digest(),
        "peak_rss_mb": rss_kb / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, outcome.wall_s)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

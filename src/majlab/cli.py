"""Command-line entry point.

Subcommands: simulate, sweep, scan, oracle, sets, verify, report.  Every
subcommand takes --seed and is bit-reproducible; --workers (default from
MAJLAB_WORKERS) bounds parallelism, with 1 forcing sequential execution.
Exit codes: 0 success, 1 runtime failure, 2 bad arguments (including a sweep
--results file that another sweep configuration wrote), 3 when verify finds
an asserted inequality violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from .appendix_a import default_grid, small_grid, verify_appendix_a
from .dynamics import UpdateRule, default_cap, run
from .graphs import (ColoredGraph, FixedGap, GraphParams, RandomBiased,
                     RandomHalf, sample_gnp)
from .harness import (ExperimentConfig, ForeignResultsError, run_sweep,
                      summary_rows, threshold_scan)
from .oracle import (ExpectedCount, FourierCoeff, MomentZ, OracleQuery,
                     SetStat, VarCount, WinProb, oracle_eval)
from .stats import lemma_report
from .structure import (compute_r_hat, compute_s_sets, day2_identity_sides,
                        focal_pair)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _scheme_from_args(args) -> object:
    if args.scheme == "fixed-gap":
        if args.delta is None:
            raise ValueError("--delta is required with the fixed-gap scheme")
        return FixedGap.from_delta(args.delta)
    if args.scheme == "random-half":
        return RandomHalf()
    return RandomBiased(args.q1)


def _add_common(sp, *, seed=True, workers=False, fmt=False):
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file of flag defaults; explicit flags win")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if workers:
        sp.add_argument("--workers", type=_positive_int,
                        default=os.environ.get("MAJLAB_WORKERS", "1"),
                        help="worker processes (default: MAJLAB_WORKERS or 1)")
    if fmt:
        sp.add_argument("--format", choices=("json", "csv"), default="json")


def _with_config(argv: list[str]) -> list[str]:
    """argv with the --config file's entries as flags right after the
    subcommand, so each is parsed like the same flag on the command line.

    Keys are flag names without the leading dashes; a list is joined with
    commas, true is a bare switch, and false or null leaves the flag out.
    Explicitly given flags come later, so they win.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, rest = probe.parse_known_args(argv)
    command = next((tok for tok in rest if not tok.startswith("-")), None)
    if not known.config or command is None:
        return argv
    with open(known.config) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError("--config must hold a JSON object of flag values")
    flags = []
    for key, value in entries.items():
        if value is True:
            flags.append(f"--{key}")
        elif value is not False and value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            flags.append(f"--{key}={text}")
    at = argv.index(command) + 1
    return argv[:at] + flags + argv[at:]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="majlab",
        description="Majority dynamics on G(n,p): simulation, exact small-n "
                    "oracle, structural sets, and verification reports.")
    ap.add_argument("--version", action="version", version=f"majlab {__version__}")
    # flags match only in full, so a --config key and its flag take the same
    # spellings and a prefix is never resolved to some longer flag
    sub = ap.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    sp = sub.add_parser("simulate", help="run one trajectory, write its trace")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--scheme", choices=("fixed-gap", "random-half", "random-biased"),
                    default="fixed-gap")
    sp.add_argument("--q1", type=float, default=0.5)
    sp.add_argument("--rule", choices=("standard", "biased"), default="standard")
    sp.add_argument("--cap", type=_positive_int, default=None)
    sp.add_argument("--trace", type=str, default=None, help="trace output path")
    _add_common(sp, fmt=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep over (n, p, gap) cells")
    sp.add_argument("--n", type=_ints, default=(100,), dest="n_values")
    sp.add_argument("--p", type=_floats, default=(0.1,), dest="p_values")
    sp.add_argument("--delta", type=_floats, default=None, dest="delta_values")
    sp.add_argument("--scheme", choices=("random-half", "random-biased"),
                    default=None)
    sp.add_argument("--q1", type=float, default=0.5)
    sp.add_argument("--rule", choices=("standard", "biased"), default="standard")
    sp.add_argument("--trials", type=_positive_int, default=100)
    sp.add_argument("--cap", type=_positive_int, default=None)
    sp.add_argument("--results", type=str, default=None,
                    help="results.jsonl path (appended; enables resume)")
    sp.add_argument("--summary", type=str, default=None, help="summary.csv path")
    _add_common(sp, workers=True, fmt=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("scan", help="bisect for the smallest winning gap")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--rule", choices=("standard", "biased"), default="standard")
    sp.add_argument("--trials", type=_positive_int, default=400)
    sp.add_argument("--target", type=float, default=0.9)
    _add_common(sp, workers=True)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("oracle", help="exact small-n statistics by enumeration")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--colors", type=str, required=True,
                    help="per-vertex colors, e.g. 112")
    sp.add_argument("--p", type=str, required=True,
                    help="probability; fractions like 1/3 stay exact")
    sp.add_argument("--stat", required=True,
                    choices=("winprob", "expcount", "varcount", "momentz",
                             "setstat", "fourier"))
    sp.add_argument("--color", type=int, default=1)
    sp.add_argument("--day", type=int, default=1)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--which", default="s_star",
                    choices=("s1", "s2", "s_star", "i_g", "r_hat"))
    sp.add_argument("--moment", type=int, default=1)
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--v", type=int, default=None)
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--edges", type=str, default="",
                    help="edge set for fourier, e.g. 0-1,0-2")
    sp.add_argument("--rule", choices=("standard", "biased"), default="standard")
    sp.add_argument("--cap", type=_positive_int, default=None)
    sp.add_argument("--float", action="store_true", dest="as_float",
                    help="force float evaluation")
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sets", help="structural sets of a colored graph")
    sp.add_argument("--graph", type=str, default=None,
                    help="graph JSON path; otherwise a graph is sampled")
    sp.add_argument("--n", type=_positive_int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--v", type=int, default=None)
    sp.add_argument("--w", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sets)

    sp = sub.add_parser("verify", help="run an inequality verification suite")
    sp.add_argument("target", choices=("appendix-a",))
    sp.add_argument("--grid", choices=("default", "small"), default="default")
    sp.add_argument("--out", type=str, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("report", help="quantitative-bound report")
    sp.add_argument("target", choices=("lemmas",))
    sp.add_argument("--n", type=_positive_int, default=200)
    sp.add_argument("--p", type=float, default=0.2)
    sp.add_argument("--delta", type=float, default=5)
    sp.add_argument("--trials", type=_positive_int, default=400)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--d-const", type=float, default=1.0,
                    help="deviation scale of the day-1 tail record")
    sp.add_argument("--dd-const", type=float, default=1.0,
                    help="slack scale of the day-1 tail record")
    sp.add_argument("--out", type=str, default=None)
    _add_common(sp, fmt=True)
    sp.set_defaults(func=_cmd_report)
    return ap


def _cmd_simulate(args) -> int:
    scheme = _scheme_from_args(args)
    g = sample_gnp(GraphParams(args.n, args.p, args.seed), scheme)
    cap = args.cap if args.cap is not None else default_cap(args.n, args.p)
    trace = run(g, UpdateRule(args.rule), cap)
    if args.trace:
        with open(args.trace, "w") as fh:
            if args.format == "csv":
                trace.write_csv(fh)
            else:
                json.dump({"counts": [[d, c, trace.n - c] for d, c in trace.counts],
                           "termination": trace.termination_record()}, fh,
                          sort_keys=True)
                fh.write("\n")
    print(json.dumps(trace.termination_record(), sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    scheme = _scheme_from_args(args) if args.scheme else None
    cfg = ExperimentConfig(
        n_values=tuple(args.n_values), p_values=tuple(args.p_values),
        delta_values=None if scheme else tuple(args.delta_values or ()) or None,
        scheme=scheme, rule=UpdateRule(args.rule), trials=args.trials,
        master_seed=args.seed, cap=args.cap, workers=args.workers,
        results_path=args.results, summary_path=args.summary)
    result = run_sweep(cfg)
    if args.format == "csv":
        for row in summary_rows(result.cells):
            print(",".join(map(str, row)))
    else:
        for cell in result.cells:
            print(json.dumps(cell.to_record(), sort_keys=True))
    return 0


def _cmd_scan(args) -> int:
    res = threshold_scan(args.n, args.p, UpdateRule(args.rule), args.trials,
                         args.target, master_seed=args.seed,
                         workers=args.workers)
    print(json.dumps({
        "delta_lo": res.delta_lo, "delta_hi": res.delta_hi,
        "target": res.target_prob, "widened": res.widened,
        "evaluations": {str(k): v for k, v in res.evaluations.items()},
    }, sort_keys=True))
    return 0


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        a, b = part.split("-")
        out.append((int(a), int(b)))
    return tuple(out)


def _cmd_oracle(args) -> int:
    colors = tuple(int(c) for c in args.colors)
    p = Fraction(args.p)  # 'a/b' and decimal strings parse exactly
    p = float(p) if args.as_float else p
    rule = UpdateRule(args.rule)
    if args.stat == "winprob":
        stat = WinProb(color=args.color, rule=rule, cap=args.cap)
    elif args.stat == "expcount":
        stat = ExpectedCount(day=args.day, color=args.color, rule=rule)
    elif args.stat == "varcount":
        stat = VarCount(day=args.day, color=args.color, rule=rule)
    elif args.stat == "momentz":
        stat = MomentZ(k=args.k)
    elif args.stat == "setstat":
        stat = SetStat(which=args.which, moment=args.moment,
                       u=args.u, v=args.v, w=args.w)
    else:
        stat = FourierCoeff(v=args.v if args.v is not None else 0,
                            s=_parse_edges(args.edges))
    res = oracle_eval(OracleQuery(args.n, p, colors, stat))
    if isinstance(res.value, Fraction):
        print(f"{res.value.numerator}/{res.value.denominator}")
        print(f"# = {_fmt(float(res.value))}")
    else:
        print(_fmt(float(res.value)))
    return 0


def _cmd_sets(args) -> int:
    if args.graph:
        g = ColoredGraph.from_json(Path(args.graph).read_text())
    else:
        if args.n is None or args.p is None or args.delta is None:
            raise ValueError("need --graph or all of --n/--p/--delta")
        g = sample_gnp(GraphParams(args.n, args.p, args.seed),
                       FixedGap.from_delta(args.delta))
    u, v = focal_pair(g.colors == 1, args.u, args.v)
    rep = compute_s_sets(g, u, v)
    if args.w is not None:
        rep.w = args.w
        rep.r_hat = tuple(compute_r_hat(g, args.w).tolist())
    out = json.loads(rep.to_json())
    if not g.is_edge(u, v):
        lhs, rhs = day2_identity_sides(g, u, v)
        out["day2_identity"] = {"lhs": lhs, "rhs": rhs, "holds": lhs == rhs}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    grid = default_grid(args.seed) if args.grid == "default" else small_grid(args.seed)
    report = verify_appendix_a(grid)
    summary = report.summary()
    if args.out:
        Path(args.out).write_text(report.to_json())
    print(json.dumps(summary, sort_keys=True))
    if not report.all_pass:
        print("verification FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_report(args) -> int:
    rep = lemma_report(args.n, args.p, args.delta, args.trials,
                       master_seed=args.seed, k=args.k,
                       d_const=args.d_const, dd_const=args.dd_const)
    payload = rep.to_json_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True))
    if args.format == "csv":
        print("lemma_id,lhs,rhs,direction,mode,hypotheses_met,asserted,satisfied")
        for rec in rep.records:
            d = rec.to_dict()
            print(",".join("" if d[k] is None else str(d[k]) for k in (
                "lemma_id", "lhs", "rhs", "direction", "mode",
                "hypotheses_met", "asserted", "satisfied")))
    else:
        for rec in rep.records:
            line = {k: rec.to_dict()[k] for k in
                    ("lemma_id", "lhs", "rhs", "hypotheses_met", "asserted",
                     "satisfied")}
            print(json.dumps(line, sort_keys=True))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _with_config(argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ForeignResultsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

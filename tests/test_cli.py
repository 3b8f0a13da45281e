import json

import pytest

from majlab import cli


def run_cli(args):
    return cli.main(args)


def test_simulate_writes_trace(tmp_path, capsys):
    trace = tmp_path / "out.csv"
    code = run_cli(["simulate", "--n", "200", "--p", "0.1", "--delta", "10",
                    "--seed", "7", "--trace", str(trace), "--format", "csv"])
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "day,c1,c2"
    day0 = lines[1].split(",")
    assert day0[0] == "0" and int(day0[1]) == 110
    assert lines[-1].startswith("# ")
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["kind"] in ("unanimity", "two_cycle", "cap_reached")


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli(["simulate", "--n", "100", "--p", "0.1", "--delta", "5",
                 "--seed", "3", "--trace", str(path), "--format", "csv"])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json_format(tmp_path):
    trace = tmp_path / "out.json"
    run_cli(["simulate", "--n", "50", "--p", "0.2", "--delta", "2",
             "--trace", str(trace)])
    data = json.loads(trace.read_text())
    assert data["counts"][0][0] == 0
    assert "termination" in data


def test_oracle_exact_output(capsys):
    code = run_cli(["oracle", "--n", "3", "--colors", "112", "--stat",
                    "winprob", "--p", "0.5"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "3/8"
    assert out[1].startswith("# = 0.375")


def test_oracle_float_output(capsys):
    code = run_cli(["oracle", "--n", "3", "--colors", "112", "--stat",
                    "winprob", "--p", "0.5", "--float"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.375"


def test_oracle_setstat(capsys):
    code = run_cli(["oracle", "--n", "5", "--colors", "11222", "--stat",
                    "setstat", "--which", "s_star", "--p", "1/3"])
    assert code == 0
    assert capsys.readouterr().out.strip().split("\n")[0] == "4/3"


def test_oracle_rejects_p_above_one(capsys):
    code = run_cli(["oracle", "--n", "3", "--colors", "112", "--stat",
                    "winprob", "--p", "3/2"])
    assert code == 2
    io = capsys.readouterr()
    assert io.out == "" and "p must lie in [0,1]" in io.err


def test_oracle_rejects_focal_vertex_out_of_range(capsys):
    code = run_cli(["oracle", "--n", "4", "--colors", "1122", "--stat",
                    "setstat", "--which", "r_hat", "--w", "9", "--p", "1/2"])
    assert code == 2
    io = capsys.readouterr()
    assert io.out == "" and "error:" in io.err and "out of range" in io.err


def test_oracle_rejects_negative_day(capsys):
    code = run_cli(["oracle", "--n", "3", "--colors", "112", "--stat",
                    "expcount", "--day", "-2", "--p", "1/2"])
    assert code == 2
    io = capsys.readouterr()
    assert io.out == "" and "day must be at least 0" in io.err


@pytest.mark.parametrize("stat", [
    ["expcount", "--color", "3"], ["winprob", "--color", "0"],
    ["momentz", "--k", "-1"]])
def test_oracle_rejects_bad_statistic_fields(capsys, stat):
    code = run_cli(["oracle", "--n", "4", "--colors", "1122", "--p", "1/2",
                    "--stat"] + stat)
    assert code == 2
    io = capsys.readouterr()
    assert io.out == "" and "error:" in io.err


def test_sets_subcommand(tmp_path, capsys):
    code = run_cli(["sets", "--n", "30", "--p", "0.2", "--delta", "2",
                    "--seed", "4", "--w", "0"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) >= {"u", "v", "s1", "s2", "s_star", "i_g"}
    assert "r_hat" in data
    if "day2_identity" in data:
        assert data["day2_identity"]["holds"]


def test_sets_from_graph_file(tmp_path, capsys):
    from majlab.graphs import ColoredGraph
    g = ColoredGraph.from_edges(6, [(0, 2), (1, 2), (2, 3)],
                                [1, 1, 2, 2, 1, 2])
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    code = run_cli(["sets", "--graph", str(path), "--u", "0", "--v", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["i_g"] == 1
    assert data["day2_identity"]["holds"]


@pytest.mark.parametrize("colors, focal, message", [
    ([1, 2, 2], [], "need two color-1 vertices"),
    ([1, 1, 2, 1], ["--u", "3"], "take both of u and v, or neither"),
])
def test_sets_rejects_a_missing_focal_pair(tmp_path, capsys, colors, focal,
                                           message):
    from majlab.graphs import ColoredGraph
    path = tmp_path / "g.json"
    path.write_text(ColoredGraph.from_edges(len(colors), [(0, 1)],
                                            colors).to_json())
    assert run_cli(["sets", "--graph", str(path)] + focal) == 2
    io = capsys.readouterr()
    assert io.out == "" and f"error: set statistics {message}" in io.err


def test_verify_small_grid(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "appendix-a", "--grid", "small",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(pt["pass"] or not pt["asserted"] for pt in report)
    summary = json.loads(capsys.readouterr().out)
    assert summary["clt_supremum"]["failures"] == 0


def test_verify_exit_3_on_violation(monkeypatch, capsys):
    from majlab.appendix_a import InequalityPoint, InequalityReport

    def broken(grid):
        return InequalityReport(points=[InequalityPoint(
            "clt_supremum", {}, 2.0, 1.0, -1.0, False, True)])

    monkeypatch.setattr(cli, "verify_appendix_a", broken)
    code = run_cli(["verify", "appendix-a", "--grid", "small"])
    assert code == 3


def test_sweep_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 40, "p": [0.3]}))
    results = tmp_path / "results.jsonl"
    code = run_cli(["sweep", "--config", str(cfg), "--n", "20",
                    "--delta", "1", "--seed", "5",
                    "--results", str(results)])
    assert code == 0
    rec = json.loads(results.read_text().strip())
    assert rec["trials"] == 40 and rec["p"] == 0.3
    # an explicit flag wins over the config file
    results2 = tmp_path / "results2.jsonl"
    code = run_cli(["sweep", "--config", str(cfg), "--n", "20",
                    "--delta", "1", "--seed", "5", "--trials", "25",
                    "--results", str(results2)])
    assert code == 0
    assert json.loads(results2.read_text().strip())["trials"] == 25


def exit_code(args):
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


ORACLE = ["oracle", "--colors", "112", "--stat", "winprob"]


@pytest.mark.parametrize("entries", [{"workers": 1.5}, {"workers": 0},
                                     {"bogus": 1}, {"tri": 3}])
def test_bad_config_entries_exit_2(tmp_path, capsys, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    assert exit_code(["sweep", "--config", str(cfg), "--n", "20", "--p", "0.3",
                      "--delta", "1", "--trials", "3"]) == 2


def test_config_entries_parse_like_flags(tmp_path, capsys):
    # a config value goes through the flag's type: 0.1 becomes Fraction('0.1')
    # as on the command line, and a required flag may come from the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 0.1, "cap": 4}))
    assert run_cli(ORACLE + ["--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert run_cli(ORACLE + ["--n", "3", "--p", "0.1", "--cap", "4"]) == 0
    assert from_config == capsys.readouterr().out
    # true is a bare switch, and an explicit flag still wins
    cfg.write_text(json.dumps({"n": 3, "p": "1/3", "float": True}))
    assert run_cli(ORACLE + ["--config", str(cfg), "--p", "1/2"]) == 0
    from_config = capsys.readouterr().out
    assert run_cli(ORACLE + ["--n", "3", "--p", "1/2", "--float"]) == 0
    assert from_config == capsys.readouterr().out


def test_sweep_csv_stdout_matches_summary_file(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    for extra in (["--delta", "0,2"], ["--scheme", "random-half"]):
        code = run_cli(["sweep", "--n", "20", "--p", "0.3", "--trials", "30",
                        "--seed", "4", "--format", "csv",
                        "--summary", str(summary)] + extra)
        assert code == 0
        stdout = capsys.readouterr().out
        written = summary.read_bytes().decode()
        assert stdout.endswith("\n") and "\r" not in stdout
        assert written.endswith("\r\n")
        assert stdout.split("\n") == written.split("\r\n")


def test_scan_subcommand(capsys):
    code = run_cli(["scan", "--n", "20", "--p", "0.9999", "--trials", "60",
                    "--target", "0.8", "--seed", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta_hi"] >= data["delta_lo"]
    assert sorted(data) == ["delta_hi", "delta_lo", "evaluations", "target"]


def test_report_lemmas(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = run_cli(["report", "lemmas", "--n", "60", "--p", "0.2",
                    "--delta", "3", "--trials", "120", "--seed", "9",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 22
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 22
    # a zero gap is a valid FixedGap coloring
    code = run_cli(["report", "lemmas", "--n", "60", "--p", "0.2",
                    "--delta", "0", "--trials", "100", "--seed", "9"])
    assert code == 0
    capsys.readouterr()
    code = run_cli(["report", "lemmas", "--n", "60", "--p", "0.2",
                    "--delta", "2", "--trials", "100", "--k", "-2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "moment order" in captured.err


def test_invalid_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--n", "10"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["abc", "0", "-5", "2.5"])
@pytest.mark.parametrize("command", [["sweep", "--delta", "1"], ["scan"]])
def test_bad_worker_count_exits_2(monkeypatch, capsys, command, bad):
    args = command + ["--n", "20", "--p", "0.3", "--trials", "5"]
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--workers", bad])
    assert exc.value.code == 2
    monkeypatch.setenv("MAJLAB_WORKERS", bad)
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "-1", "abc", "20,0"])
@pytest.mark.parametrize("base, flag", [
    (["simulate", "--n", "10", "--p", "0.5", "--delta", "1"], "--n"),
    (["simulate", "--n", "10", "--p", "0.5", "--delta", "1"], "--cap"),
    (["sweep", "--n", "20", "--p", "0.3", "--delta", "1", "--trials", "5"], "--trials"),
    (["sweep", "--n", "20", "--p", "0.3", "--delta", "1", "--trials", "5"], "--cap"),
    (["scan", "--n", "20", "--p", "0.3", "--trials", "5"], "--trials"),
    (["scan", "--n", "20", "--p", "0.3", "--trials", "5"], "--n"),
    (ORACLE + ["--n", "3", "--p", "1/2"], "--n"),
    (ORACLE + ["--n", "3", "--p", "1/2"], "--cap"),
    (["report", "lemmas", "--n", "60", "--p", "0.2", "--delta", "3",
      "--trials", "100"], "--trials"),
    (["report", "lemmas", "--n", "60", "--p", "0.2", "--delta", "3",
      "--trials", "100"], "--n"),
    (["sets", "--n", "10", "--p", "0.5", "--delta", "1"], "--n"),
    (["sweep", "--p", "0.3", "--delta", "1", "--trials", "5"], "--n"),
])
def test_bad_counts_exit_2(capsys, base, flag, bad):
    assert exit_code(base + [flag, bad]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_sweep_into_foreign_results_exit_2(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    base = ["sweep", "--n", "20", "--p", "0.3", "--delta", "1",
            "--results", str(results)]
    assert run_cli(base + ["--seed", "1", "--trials", "50"]) == 0
    written = results.read_bytes()
    capsys.readouterr()
    assert run_cli(base + ["--seed", "99", "--trials", "500"]) == 2
    assert "manifest" in capsys.readouterr().err
    assert results.read_bytes() == written


SWEEP = ["sweep", "--n", "20", "--p", "0.3", "--delta", "1", "--trials", "3"]


@pytest.mark.parametrize("args, message", [
    (SWEEP + ["--p", "1.5"], "p must lie in [0,1]"),
    (SWEEP + ["--delta=-3"], "gap must be nonnegative"),
    (SWEEP + ["--n", "20", "--delta", "30"], "too large for n=20"),
    (SWEEP + ["--n", "20", "--delta", "0.5"], "must be an integer"),
    (SWEEP + ["--n", "3", "--p", "0.3", "--delta", "0.5"], "needs np > 1"),
    (SWEEP + ["--scheme", "random-biased", "--q1", "1.5"], "q1 must lie in"),
    (["scan", "--n", "20", "--p", "0.3", "--trials", "3", "--target", "1.2"],
     "target probability"),
    (SWEEP + ["--delta", "inf"], "half-integer, got inf"),
    (SWEEP + ["--delta=-inf"], "half-integer, got -inf"),
    (["simulate", "--n", "20", "--p", "0.3", "--delta", "inf"],
     "half-integer, got inf"),
    (["sets", "--n", "20", "--p", "0.3", "--delta", "inf"],
     "half-integer, got inf"),
    (["report", "lemmas", "--delta", "inf"], "half-integer, got inf"),
], ids=["p", "negative-gap", "gap-above-half-n", "gap-parity", "np-at-most-1",
        "q1", "target", "infinite-gap", "negative-infinite-gap",
        "simulate-infinite-gap", "sets-infinite-gap", "report-infinite-gap"])
def test_out_of_range_values_exit_2_before_any_trial(tmp_path, monkeypatch,
                                                     capsys, args, message):
    from majlab import harness

    def no_trial(*_):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "sample_gnp", no_trial)
    results = tmp_path / "r.jsonl"
    if args[0] == "sweep":
        args = args + ["--results", str(results)]
    assert run_cli(args) == 2
    io = capsys.readouterr()
    assert io.out == "" and "error:" in io.err and message in io.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p", ["0", "1", "1.5", "-0.1", "nan"])
@pytest.mark.parametrize("n", ["6", "200"])
def test_report_lemmas_rejects_p_outside_the_open_unit_interval(capsys, n, p):
    assert run_cli(["report", "lemmas", "--n", n, "--p", p,
                    "--delta", "1"]) == 2
    io = capsys.readouterr()
    assert io.out == ""
    assert io.err.splitlines() == [f"error: p must lie in (0,1), got {float(p)}"]


def test_runtime_failure_exit_1(capsys):
    code = run_cli(["sets", "--graph", "/nonexistent/file.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_delta_exits_2(capsys):
    assert run_cli(["simulate", "--n", "10", "--p", "0.5"]) == 2
    assert "--delta is required" in capsys.readouterr().err


def test_ctrl_c_exits_130_with_one_resume_line(monkeypatch, capsys):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_sweep", interrupted)
    try:
        code = run_cli(["sweep", "--n", "20", "--p", "0.3", "--delta", "2",
                        "--trials", "4"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped majlab's main")
    assert code == 130
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "resumes" in err

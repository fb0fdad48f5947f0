import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from harbourne import constraints, search
from harbourne.profiles import CONICS
from harbourne.search import Filter, SearchQuery, minimize_h

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_negativity_sweep_rows_match_minimize_h(capsys):
    assert load_script("negativity_sweep").main(["--kmin", "3", "--kmax", "9"]) == 0
    out = capsys.readouterr().out
    assert "*" not in out
    rows = out.splitlines()[1:]
    assert len(rows) == 7
    for k, row in zip(range(3, 10), rows):
        # k, feasible, then each column as exact and decimal minimum
        cells = row.split()
        lt = minimize_h(SearchQuery(CONICS, k, True, {Filter.LT_QUADRATIC}))
        raw = minimize_h(SearchQuery(CONICS, k, True))
        assert int(cells[0]) == k
        assert int(cells[1]) == lt.enumerated_count
        assert Fraction(cells[2]) == lt.min_h
        assert Fraction(cells[4]) == raw.min_h


def test_negativity_sweep_searches_raw_where_lt_rejects(monkeypatch, capsys):
    # the real lt first rejects a t-vector at k = 18; this predicate rejects
    # from k = 3 on, so the sweep cannot reuse its lt result as the raw one
    def holds(k, f0, f1, t2):
        return (f0 + f1 + t2) % 4 != 0

    monkeypatch.setattr(constraints, "lt_holds", holds)
    monkeypatch.setattr(search, "_lt_everywhere", lambda *group: False)
    sweep = load_script("negativity_sweep")
    queries = []

    def minimize(query):
        queries.append(query)
        return minimize_h(query)

    monkeypatch.setattr(sweep, "minimize_h", minimize)
    assert sweep.main(["--kmin", "3", "--kmax", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [q.filters for q in queries] == [{Filter.LT_QUADRATIC}, set()] * 6
    for k, row in zip(range(3, 9), rows, strict=True):
        lt = minimize_h(SearchQuery(CONICS, k, True, {Filter.LT_QUADRATIC}))
        raw = minimize_h(SearchQuery(CONICS, k, True))
        assert lt.filtered_count < lt.enumerated_count
        assert row == (
            f"{k:>3}  {lt.enumerated_count:>9}  "
            f"{sweep._column(lt, 22)}  {sweep._column(raw, 16)}"
        )


def test_cremona_iteration_prints_the_telescoped_trajectory(capsys):
    assert load_script("cremona_iteration").main(["--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # step, s, degree multiplier, exact h, decimal h
    assert [row.split()[:4] for row in lines[1:4]] == [
        ["0", "49", "1", "-3"],
        ["1", "52", "2", "-147/52"],
        ["2", "55", "4", "-147/55"],
    ]
    assert lines[-1] == "telescoped closed form h0*s0/(s0+3n) = -147/55 confirmed"


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("cremona_iteration", ["--steps", "-1"], "n must be >= 0"),
        ("cremona_iteration", ["--s0", "0"], "s0 must be >= 1"),
        ("negativity_sweep", ["--kmin", "2"], "search requires k >= 3, got k=2"),
        ("cremona_iteration", ["--h0", "1/0"], "--h0: not a rational: '1/0'"),
        ("cremona_iteration", ["--h0", "1e1000"], "--h0: not a rational: '1e1000'"),
        ("negativity_sweep", ["--kmin", "1_0"], "argument --kmin: invalid int value: '1_0'"),
        ("negativity_sweep", ["--kmax", "+3"], "argument --kmax: invalid int value: '+3'"),
        ("cremona_iteration", ["--s0", " 3"], "argument --s0: invalid int value: ' 3'"),
        ("cremona_iteration", ["--steps", "1_0"], "argument --steps: invalid int value: '1_0'"),
        ("negativity_sweep", ["--kmin", "5", "--kmax", "4"],
         "--kmax must be >= --kmin, got kmin=5, kmax=4"),
    ],
)
def test_scripts_report_bad_arguments_without_a_traceback(capsys, script, argv, message):
    with pytest.raises(SystemExit) as exit_:
        load_script(script).main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()  # argparse's usage line, then the error
    assert usage.startswith("usage: ") and error.endswith(f": error: {message}")


def test_same_outputs_error_documents_are_refused(tmp_path, capsys):
    """Each error document fails geom with the error it was written for."""
    from harbourne import cli

    want = {
        "tangent": (2, "multiplicity 2"),
        "osculating": (2, "multiplicity 3"),
        "outside": (2, "no in-field intersection point of 4"),
        "completed-tangent": (2, "curves 1 and 2 meet at (0 : 0 : 1) with multiplicity 2"),
        "proportional": (1, "curves must be pairwise distinct"),
    }
    docs = load_script("same_outputs").ERROR_DOCS
    assert len(docs) == 10
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, message = want[name.removesuffix("-scaled").removesuffix("-q").removesuffix("-sqrt5")]
        assert cli.main(["geom", str(path), "--machine"]) == rc, name
        out, err = capsys.readouterr()
        assert out == "" and message in err, name


def test_same_outputs_fraction_documents_succeed(tmp_path, capsys):
    """Each fractional document has p/q coefficients and geom accepts it."""
    from harbourne import cli

    want = {
        "seven-point-conics": {"2": 72, "3": 11, "15": 7},
        "eight-lines": {"2": 19, "3": 3},
        "cremona-conics": {"2": 6, "3": 3, "4": 1, "7": 3},
        "sqrt5-lines": {"2": 45, "5": 6},
    }
    docs = load_script("same_outputs").FRACTION_DOCS
    assert len(docs) == 4 and set(docs) == set(want)
    for name, doc in docs.items():
        assert all(any("/" in str(c) for c in curve["coeffs"]) for curve in doc["curves"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["geom", str(path), "--machine"]) == 0, name
        out, err = capsys.readouterr()
        assert json.loads(out)["analysis"]["profile"]["t"] == want[name] and err == ""


def _row(index, argv, rc=0, stdout="", stderr="", workload="cli", seed=1):
    return {"workload": workload, "seed": seed, "index": index, "argv": argv,
            "rc": rc, "stdout": stdout, "stderr": stderr}


def test_same_outputs_compares_exit_code_stdout_and_stderr():
    compare = load_script("same_outputs").compare
    parent = [
        _row(0, ["analyze", "<docs>/cli-1/001-warmup.json"], stdout="ok\n"),
        _row(1, ["geom", "<docs>/cli-1/002-bad.json"], rc=1,
             stderr="error: <docs>/cli-1/002-bad.json: not JSON\n"),
        _row(2, ["fixtures", "--machine"], stdout="{}\n"),
    ]
    assert compare(parent, [dict(r) for r in parent]) == (3, [])

    change = [dict(r) for r in parent]
    change[1]["rc"] = 2
    change[2]["stderr"] = "warning\n"
    same, diffs = compare(parent, change)
    assert same == 1 and len(diffs) == 2
    assert diffs[0].startswith("cli seed 1 #1: geom <docs>/cli-1/002-bad.json")
    assert diffs[0].endswith(": rc differ")
    assert diffs[1].endswith(": stderr differ")

    # a missing command or one run out of order is a difference too
    same, diffs = compare(parent, parent[:2])
    assert same == 2 and diffs == ["the parent runs 3 commands, the change 2"]
    same, diffs = compare(parent, [parent[0], parent[2], parent[1]])
    assert same == 1 and len(diffs) == 2 and "the change runs fixtures" in diffs[0]


def _run_result(pass_s, rss=20.0, failed=0):
    return {"correct": True, "failed": failed, "attempted": 100,
            "metrics": {"pass_s": {"value": pass_s}, "peak_rss_mb": {"value": rss}}}


def test_bench_pairs_summary_states_whether_the_gain_rule_holds():
    summarize = load_script("bench_pairs").summarize
    metrics = {"pass_s": "lower", "peak_rss_mb": "lower"}
    parent = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.28, 0.30, 0.31, 0.30]
    runs = {"seeds": list(range(1, 11)),
            "parent": [_run_result(v) for v in parent],
            "change": [_run_result(v - 0.1) for v in parent]}
    entry = summarize(runs, metrics)["metrics"]["pass_s"]
    assert entry["parent"] == {"median": 0.3, "q1": 0.3, "q3": 0.3075}
    assert entry["parent_iqr"] == 0.0075
    assert entry["change_better_in_pairs"] == 10 and entry["gain_rule_met"] is True
    assert entry["median_change_pct"] == -33.3

    # 8 of 10 pairs better: the rule fails on the count, whatever the gap
    runs["change"][0] = _run_result(0.31)
    runs["change"][1] = _run_result(0.32)
    entry = summarize(runs, metrics)["metrics"]["pass_s"]
    assert entry["change_better_in_pairs"] == 8 and entry["gain_rule_met"] is False

    # better in every pair, but by less than the parent's spread
    runs["change"] = [_run_result(v - 0.005) for v in parent]
    entry = summarize(runs, metrics)["metrics"]["pass_s"]
    assert entry["change_better_in_pairs"] == 10 and entry["gain_rule_met"] is False

    # an unchanged metric is no gain
    assert summarize(runs, metrics)["metrics"]["peak_rss_mb"]["gain_rule_met"] is False


def test_bench_pairs_gain_rule_reads_the_better_direction():
    summarize = load_script("bench_pairs").summarize
    parent = [1.0, 1.1, 0.9, 1.0]
    runs = {"seeds": [1, 2, 3, 4],
            "parent": [_run_result(v) for v in parent],
            "change": [_run_result(v + 1) for v in parent]}
    higher = summarize(runs, {"pass_s": "higher"})["metrics"]["pass_s"]
    lower = summarize(runs, {"pass_s": "lower"})["metrics"]["pass_s"]
    assert higher["gain_rule_met"] is True and higher["change_better_in_pairs"] == 4
    assert lower["gain_rule_met"] is False and lower["change_worse_in_pairs"] == 4

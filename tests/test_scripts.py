import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

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

import importlib.util
from fractions import Fraction
from pathlib import Path

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

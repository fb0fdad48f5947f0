import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from conftest import SEVEN_POINTS, conic_through

import harbourne
from harbourne import cli, search
from harbourne.profiles import LINES
from harbourne.search import SearchQuery, enumerate_profiles

# The subprocess runs the package these tests import, installed or not.
SRC = str(Path(harbourne.__file__).resolve().parents[1])


def run_python(args, cwd=None, timeout=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        text=True,
        capture_output=True,
        timeout=timeout,
    )


def run_cli(args, cwd=None, timeout=None):
    return run_python(["-m", "harbourne", *args], cwd=cwd, timeout=timeout)


@pytest.fixture
def klein_doc(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(
        json.dumps({"class": "line-p2", "k": 21, "t": {"3": 28, "4": 21}})
    )
    return path


@pytest.fixture
def pencil_geometry_doc(tmp_path):
    members = [(1, 0), (0, 1), (1, 2), (2, 1), (1, -1)]
    curves = [
        {
            "type": "conic",
            "coeffs": [lam + 2 * mu, lam - mu, -2 * lam - mu, 0, 0, 0],
        }
        for lam, mu in members
    ]
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, "curves": curves}))
    return path


def test_help_smoke():
    r = run_cli(["--help"])
    assert r.returncode == 0
    for sub in ("analyze", "geom", "cremona", "search", "verify-covers", "fixtures"):
        assert sub in r.stdout


def test_analyze_human(klein_doc):
    r = run_cli(["analyze", str(klein_doc)])
    assert r.returncode == 0, r.stderr
    assert "h=-3" in r.stdout
    assert "validation: ok" in r.stdout


def test_analyze_machine_roundtrip(klein_doc):
    r = run_cli(["analyze", str(klein_doc), "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["profile"] == json.loads(klein_doc.read_text())
    assert data["validation"]["ok"] is True
    assert F(str(data["h_report"]["h"])) == F(-3)
    assert data["h_report"]["s"] == 49
    assert data["case"]["tag"] == "NotApplicable"


def test_analyze_validation_failure(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"class": "conic-p2", "k": 3, "t": {"2": 11}}))
    r = run_cli(["analyze", str(doc)])
    assert r.returncode == 1
    assert "11" in r.stdout and "12" in r.stdout


def test_analyze_malformed_document(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"class": "line-p2", "k": 3, "t": {"1": 2}}))
    r = run_cli(["analyze", str(doc)])
    assert r.returncode == 1
    assert "$.t.1" in r.stderr


def test_analyze_unparseable_json(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    r = run_cli(["analyze", str(doc)])
    assert r.returncode == 1


def test_analyze_conic_constraints_surface(tmp_path):
    doc = tmp_path / "conics.json"
    doc.write_text(json.dumps({"class": "conic-p2", "k": 4, "t": {"2": 24}}))
    r = run_cli(["analyze", str(doc), "--machine"])
    data = json.loads(r.stdout)
    assert data["case"]["tag"] == "TK0"
    q = data["constraints"]["positivity_quadratic"]
    assert (q["a"], q["b"], q["c"]) == (32, 24, 0)
    assert q["holds_over_integers"] is True
    assert q["at_one_value"] == 56  # 8k - 2f1 - 4t2 + 9f0 = 32 - 96 - 96 + 216


def test_analyze_quadric_surfaces_hirzebruch(tmp_path):
    doc = tmp_path / "quadric.json"
    doc.write_text(json.dumps({"class": "one-one-quadric", "k": 4, "t": {"2": 12}}))
    r = run_cli(["analyze", str(doc), "--machine"])
    data = json.loads(r.stdout)
    hz = data["constraints"]["hirzebruch_one_one"]
    assert (hz["lhs"], hz["rhs"], hz["holds"]) == (25, 0, True)
    assert F(str(hz["cover_margin_n3"])) == 100


def test_cremona_generic(klein_doc):
    r = run_cli(["cremona", str(klein_doc), "--mode", "generic", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["law"]["holds"] is True
    after = data["after"]
    assert after["profile"]["t"] == {"3": 28, "4": 21, "21": 3}
    assert F(str(after["h_report"]["h"])) == F(-147, 52)
    assert after["h_report"]["h_decimal"] == "-2.827"


def test_cremona_common3(tmp_path):
    doc = tmp_path / "tk3.json"
    doc.write_text(json.dumps({"class": "conic-p2", "k": 4, "t": {"4": 3, "2": 6}}))
    r = run_cli(["cremona", str(doc), "--mode", "common3", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["law"]["common_point_identity"] is True
    assert data["after"]["profile"] == {"class": "line-p2", "k": 4, "t": {"2": 6}}


def test_cremona_mode_violation(klein_doc):
    r = run_cli(["cremona", str(klein_doc), "--mode", "common3"])
    assert r.returncode == 2
    assert "common-points" in r.stderr


def test_cremona_degree_two_consistency_error(tmp_path):
    doc = tmp_path / "conics.json"
    doc.write_text(json.dumps({"class": "conic-p2", "k": 4, "t": {"2": 24}}))
    r = run_cli(["cremona", str(doc), "--mode", "generic"])
    assert r.returncode == 2
    assert "identity" in r.stderr


def test_geom_pencil(pencil_geometry_doc):
    r = run_cli(["geom", str(pencil_geometry_doc), "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["analysis"]["profile"] == {
        "class": "conic-p2",
        "k": 5,
        "t": {"5": 4},
    }
    assert F(str(data["analysis"]["h_report"]["h"])) == 0
    assert data["analysis"]["case"]["tag"] == "TK4"


def test_rational_geom_does_not_import_sympy(tmp_path):
    # sympy is imported lazily by the number-field root finder only; the
    # rational path must not pay for that import
    doc = tmp_path / "seven-point-conics.json"
    curves = [
        {"type": "conic", "coeffs": list(conic_through(five))}
        for five in combinations(SEVEN_POINTS, 5)
    ]
    doc.write_text(json.dumps({"field": {"kind": "rational"}, "curves": curves}))
    code = (
        "import sys\n"
        "from harbourne.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('sympy loaded:', 'sympy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    r = run_python(["-c", code, "geom", str(doc), "--machine"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["analysis"]["profile"]["t"] == {
        "2": 72,
        "3": 11,
        "15": 7,
    }
    assert r.stderr == "sympy loaded: False\n"


def test_number_field_geom_does_not_import_sympy(tmp_path):
    # the number-field root finder factors norms with the package's own
    # integer code
    doc = tmp_path / "sqrt5-conics.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "number-field", "min_poly": [-5, 0, 1]},
                "curves": [
                    # a pencil through (+-sqrt 5 : +-1 : 1)
                    {"type": "conic", "coeffs": [1, 1, -6, 0, 0, 0]},
                    {"type": "conic", "coeffs": [1, -1, -4, 0, 0, 0]},
                    {"type": "conic", "coeffs": [2, 1, -11, 0, 0, 0]},
                ],
            }
        )
    )
    code = (
        "import sys\n"
        "from harbourne.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('sympy loaded:', 'sympy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    r = run_python(["-c", code, "geom", str(doc), "--machine"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["analysis"]["profile"]["t"] == {"3": 4}
    assert r.stderr == "sympy loaded: False\n"


def test_geom_resultant_fallback_message(tmp_path):
    doc = tmp_path / "fallback.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "curves": [
                    {"type": "conic", "coeffs": [1, 0, 0, 0, 0, -1]},
                    {"type": "conic", "coeffs": [1, 1, 2, -1, -2, -1]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "conic pair meets in 1 in-field point(s) of 4" in r.stderr


def test_geom_osculating_conics_rejected(tmp_path):
    # X^2 + Y^2 - 2Z^2 and an osculating conic meet only at (1:1:1), with
    # multiplicity 4
    doc = tmp_path / "osculating.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "curves": [
                    {"type": "conic", "coeffs": [1, 1, -2, 0, 0, 0]},
                    {"type": "conic", "coeffs": [1, 1, 1, 1, -2, -2]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "curves 0 and 1 meet at" in r.stderr
    assert "with multiplicity 4" in r.stderr


def test_geom_reducible_field_rejected(tmp_path):
    doc = tmp_path / "reducible.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "number-field", "min_poly": [2, 0, 3, 0, 1]},
                "curves": [{"type": "line", "coeffs": [1, 0, 0]}],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"], timeout=10)
    assert r.returncode == 1
    assert "min_poly is reducible" in r.stderr


def test_geom_number_field_document(tmp_path):
    doc = tmp_path / "nf.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "number-field", "min_poly": [-2, 0, 1]},
                "curves": [
                    {"type": "line", "coeffs": [1, [0, -1], 0]},
                    {"type": "line", "coeffs": [1, [0, 1], 0]},
                    {"type": "line", "coeffs": [1, 1, 1]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["analysis"]["profile"] == {
        "class": "line-p2",
        "k": 3,
        "t": {"2": 3},
    }


def test_geom_over_field_with_huge_min_poly_constant(tmp_path):
    # the reducibility check on theta^2 - (10^24 + 7) must not enumerate
    # divisors of the constant
    doc = tmp_path / "huge.json"
    doc.write_text(
        json.dumps(
            {
                "field": {
                    "kind": "number-field",
                    "min_poly": [-1000000000000000000000007, 0, 1],
                },
                "curves": [
                    {"type": "line", "coeffs": [1, [0, -1], 0]},
                    {"type": "line", "coeffs": [1, [0, 1], 0]},
                    {"type": "line", "coeffs": [1, 1, 1]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"], timeout=5)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["analysis"]["profile"]["t"] == {"2": 3}


def test_geom_outside_field_is_computation_error(tmp_path):
    doc = tmp_path / "geom.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "curves": [
                    {"type": "conic", "coeffs": [1, 1, -1, 0, 0, 0]},
                    {"type": "conic", "coeffs": [1, 1, -3, 0, 0, 0]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc)])
    assert r.returncode == 2
    assert "in-field" in r.stderr


def test_search_machine():
    r = run_cli(
        [
            "search",
            "--class",
            "conic-p2",
            "--k",
            "4",
            "--tk0",
            "--filter",
            "lt",
            "--machine",
        ]
    )
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["enumerated_count"] == 9
    assert F(str(data["min_h"])) == F(-4, 3)
    assert data["argmin_profiles"] == [
        {"class": "conic-p2", "k": 4, "t": {"2": 24}}
    ]


def test_search_conic_k14_lt_is_exact():
    # 32,941,924 t-vectors, answered exactly by default: no walk, no cut
    argv = "search --class conic-p2 --k 14 --tk0 --filter lt --machine"
    r = run_cli(argv.split())
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["min_h"] == "-64/17"
    assert data["enumerated_count"] == data["filtered_count"] == 32941924
    assert [p["t"] for p in data["argmin_profiles"]] == [{"7": 16, "8": 1}]
    assert data["truncated"] is False


def line_k8_moment_states():
    """States the line search at k = 8 holds: the distinct (r, budget left,
    f0, f1) over every t-vector's prefix t_8..t_r, r = 9 (empty) down to 4."""
    states = set()
    for profile in enumerate_profiles(SearchQuery(LINES, 8)):
        t = dict(profile.t)
        for r in range(9, 3, -1):
            top = [(q, c) for q, c in t.items() if q >= r]
            states.add((
                r,
                28 - sum(comb(q, 2) * c for q, c in top),
                sum(c for _, c in top),
                sum(q * c for q, c in top),
            ))
    return len(states)


def test_search_moment_state_cap(monkeypatch, capsys):
    argv = ["search", "--class", "line-p2", "--k", "8", "--machine"]
    held = line_k8_moment_states()
    monkeypatch.setattr(search, "MAX_MOMENT_STATES", held)
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["enumerated_count"] == 66 and not err

    monkeypatch.setattr(search, "MAX_MOMENT_STATES", held - 1)
    assert cli.main(argv) == cli.EXIT_COMPUTATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: search at k=8 needs more than {held - 1} moment states\n"


def test_search_has_no_limit_option():
    r = run_cli(["search", "--help"])
    assert r.returncode == 0 and "--limit" not in r.stdout
    r = run_cli(["search", "--class", "line-p2", "--k", "4", "--limit", "5"])
    assert r.returncode == 2
    assert "unrecognized arguments: --limit 5" in r.stderr


def test_search_bad_filter_combination():
    r = run_cli(["search", "--class", "line-p2", "--k", "4", "--filter", "lt"])
    assert r.returncode == 2


def test_verify_covers():
    r = run_cli(["verify-covers", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["ok"] is True
    assert data["checks"]["closed_form"] is True
    assert data["checks"]["sign_agreement"] is True


def test_verify_covers_other_order():
    r = run_cli(["verify-covers", "--n", "2", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["checks"]["numeric_agreement"] is True
    assert "closed_form" not in data["checks"]


def test_fixtures():
    r = run_cli(["fixtures", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["ok"] is True
    names = [row["name"] for row in data["rows"]]
    assert "klein-lines" in names and "conic-pencil" in names
    for row in data["rows"]:
        assert row["ok"] is True

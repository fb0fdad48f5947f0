import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from conftest import SEVEN_POINTS, conic_through, swinnerton_dyer

import harbourne
from harbourne import cli, covers, profiles, search
from harbourne.profiles import CONICS, LINES, ConfigurationProfile
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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"class": "line-p2", "k": 4, "t": {"2": 5, "02": 6}}', "$.t.02: "),
        ('{"class": "line-p2", "k": 4, "t": {"2": 6, "2": 3}}', "repeated key '2'"),
    ],
    ids=["zero-padded-key", "repeated-key"],
)
def test_analyze_ambiguous_multiplicity_keys_exit_1(tmp_path, capsys, text, message):
    # int() reads "02" as 2, and json keeps the last of two equal keys:
    # either would silently merge two counts into one
    doc = tmp_path / "ambiguous.json"
    doc.write_text(text)
    assert cli.main(["analyze", str(doc)]) == 1
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("n", [5, 6])
def test_geom_over_a_field_past_the_degree_limit_exits_1(tmp_path, n):
    # Swinnerton-Dyer fields of degree 32 and 64: proving them irreducible
    # takes seconds and minutes, so they are refused before any factoring
    doc = tmp_path / f"sd{n}.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "number-field", "min_poly": swinnerton_dyer(n)},
                "curves": [
                    {"type": "line", "coeffs": [1, 0, 0]},
                    {"type": "line", "coeffs": [0, 1, 0]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"], timeout=5)
    assert r.returncode == 1
    assert f"min_poly has degree {2**n}" in r.stderr
    assert "largest field degree supported is 16" in r.stderr


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


def test_geom_exponent_coefficient_rejected(tmp_path):
    # Fraction("1e100000000") would build an integer of 10^8 digits
    doc = tmp_path / "exponent.json"
    doc.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "curves": [
                    {"type": "line", "coeffs": ["1e100000000", 0, 0]},
                    {"type": "line", "coeffs": [0, 1, 0]},
                ],
            }
        )
    )
    r = run_cli(["geom", str(doc), "--machine"], timeout=5)
    assert r.returncode == 1
    assert "$.curves[0].coeffs[0]" in r.stderr


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


def test_geom_one_curve_document_exits_1(tmp_path, capsys):
    doc = tmp_path / "geom.json"
    doc.write_text(json.dumps({"field": {"kind": "rational"},
                               "curves": [{"type": "line", "coeffs": [1, 2, 3]}]}))
    code, out, err = run_in_process(["geom", str(doc), "--machine"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: $.curves: a configuration needs at least two curves\n"


def test_conic_analysis_validates_and_takes_moments_once(monkeypatch):
    built = []
    for name in ("ValidationReport", "MomentSet"):
        original = getattr(profiles, name)
        monkeypatch.setattr(profiles, name, lambda *a, _o=original, **kw:
                            built.append(_o.__name__) or _o(*a, **kw))
    payload = cli._analysis_payload(ConfigurationProfile(CONICS, 7, {2: 81, 3: 1}))
    assert payload["validation"]["ok"] and "positivity_quadratic" in payload["constraints"]
    assert sorted(built) == ["MomentSet", "ValidationReport"]


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


def test_search_refuses_before_counting(monkeypatch, capsys):
    def count(query):
        raise AssertionError("counted before the moment states were capped")

    held = line_k8_moment_states()
    monkeypatch.setattr(search, "MAX_MOMENT_STATES", held - 1)
    monkeypatch.setattr(search, "_count_t_vectors", count)
    argv = ["search", "--class", "line-p2", "--k", "8", "--machine"]
    assert cli.main(argv) == cli.EXIT_COMPUTATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: search at k=8 needs more than {held - 1} moment states\n"


def test_search_refuses_more_layers_than_the_cap_at_once():
    # every layer holds the root state, so k - 2 layers of lines need more
    # than the real cap before any layer is built or anything is counted
    k = 20_000_000
    assert k - 2 > search.MAX_MOMENT_STATES
    r = run_cli(["search", "--class", "line-p2", "--k", str(k)], timeout=2)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        f"error: search at k={k} needs more than {search.MAX_MOMENT_STATES} "
        "moment states\n"
    )


def test_search_refuses_a_budget_past_the_cap_at_once():
    # at k = 3 no layer is built, but the close and the count would walk
    # budget + 1 = 3 * 10000**2 + 1 values of the remaining budget
    assert 3 * 10_000**2 + 1 > search.MAX_MOMENT_STATES
    argv = ["search", "--class", "plane-curve-p2:10000", "--k", "3"]
    r = run_cli(argv, timeout=5)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        f"error: search at k=3 needs more than {search.MAX_MOMENT_STATES} "
        "moment states\n"
    )


def test_search_just_under_the_budget_cap_is_small():
    # budget 3 * 1999**2 = 11,988,003 passes the real cap; a count by the
    # generating function held budget + 1 ints (about 475 MB)
    assert 3 * 1999**2 + 1 <= search.MAX_MOMENT_STATES
    argv = ["search", "--class", "plane-curve-p2:1999", "--k", "3", "--machine"]
    probe = (
        "import json, resource, subprocess, sys\n"
        "r = subprocess.run([sys.executable, '-m', 'harbourne', *sys.argv[1:]],"
        " capture_output=True, text=True, timeout=20)\n"
        "rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([r.returncode, r.stdout, rss_kb]))\n"
    )
    r = run_python(["-c", probe, *argv], timeout=30)
    code, out, rss_kb = json.loads(r.stdout)
    assert code == 0
    assert json.loads(out)["enumerated_count"] == 1999**2 + 1  # budget // 3 + 1
    assert rss_kb < 100 * 1024


def test_search_budget_cap_boundary(monkeypatch, capsys):
    def count(query):
        raise AssertionError("counted before the budget was capped")

    argv = ["search", "--class", "conic-p2", "--k", "3", "--machine"]
    monkeypatch.setattr(search, "MAX_MOMENT_STATES", 13)  # budget 4 * 3 = 12
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["enumerated_count"] == 5 and not err

    monkeypatch.setattr(search, "MAX_MOMENT_STATES", 12)
    monkeypatch.setattr(search, "_count_t_vectors", count)
    assert cli.main(argv) == cli.EXIT_COMPUTATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: search at k=3 needs more than 12 moment states\n"


def test_search_has_no_limit_option():
    r = run_cli(["search", "--help"])
    assert r.returncode == 0 and "--limit" not in r.stdout
    r = run_cli(["search", "--class", "line-p2", "--k", "4", "--limit", "5"])
    assert r.returncode == 2
    assert "unrecognized arguments: --limit 5" in r.stderr


@pytest.mark.parametrize("degree", ["1_0", " 3", "03", "+3", "3 ", "0", "-3", "x", ""])
def test_search_class_degree_is_a_plain_decimal(capsys, degree):
    token = f"plane-curve-p2:{degree}"
    code, out, err = run_in_process(["search", "--class", token, "--k", "3"], capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == f"error: $: bad degree in class token {token!r}\n"


INT_OPTIONS = [["search", "--class", "line-p2", "--k"], ["verify-covers", "--n"]]


@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "3 ", "03", "٣", "abc", ""])
@pytest.mark.parametrize("argv", INT_OPTIONS, ids=["k", "n"])
def test_integer_options_are_plain_decimals(capsys, argv, text):
    code, out, err = run_in_process([*argv, text, "--machine"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {argv[-1]}: invalid int value: {text!r}\n")


def test_negative_integer_options_reach_their_range_checks(capsys):
    code, out, err = run_in_process(["search", "--class", "line-p2", "--k", "-3"], capsys)
    assert (code, out, err) == (cli.EXIT_COMPUTATION, "", "error: search requires k >= 3, got k=-3\n")
    code, out, err = run_in_process(["verify-covers", "--n", "-3"], capsys)
    assert (code, out, err) == (cli.EXIT_VALIDATION, "", "error: $: --n must be >= 2\n")


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--n", "2", "--machine"], "verify_covers_n2_machine.txt"),
        (["--n", "3", "--machine"], "verify_covers_n3_machine.txt"),
        (["--n", "5", "--machine"], "verify_covers_n5_machine.txt"),
        (["--n", "3"], "verify_covers_n3.txt"),
    ],
)
def test_verify_covers_golden(argv, golden, capsys):
    assert cli.main(["verify-covers", *argv]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == (GOLDEN / golden).read_text(encoding="utf-8") and err == ""


def test_fixtures():
    r = run_cli(["fixtures", "--machine"])
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["ok"] is True
    names = [row["name"] for row in data["rows"]]
    assert "klein-lines" in names and "conic-pencil" in names
    for row in data["rows"]:
        assert row["ok"] is True


# ---------------------------------------------------------------------------
# one parser and one margin per process


def run_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_reuse_matches_fresh_processes(monkeypatch, capsys):
    # help text is wrapped to COLUMNS, here and in the subprocesses alike
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    sequence = [
        "search --class line-p2 --k 4 --limit 5",
        "search --class conic-p2 --k 6 --tk0 --filter lt --machine",
        # the --filter list of the call before must not leak into this one
        "search --class line-p2 --k 6 --machine",
        "verify-covers --n 2 --machine",
        # and the default n = 3 must come back
        "verify-covers --machine",
        "search --help",
    ]
    for command in sequence:
        argv = command.split()
        fresh = run_cli(argv)
        assert run_in_process(argv, capsys) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), command
    assert cli._build_parser.cache_info().misses == 1


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    commands = (
        ["search", "--class", "line-p2", "--k", "4", "--machine"],
        ["fixtures", "--machine"],
    )
    assert cli.main(commands[0]) == cli.EXIT_OK
    # the top-level parser and one per subcommand
    assert built[0] == "harbourne" and len(built) == 7
    for i in range(11):
        assert cli.main(commands[i % 2]) == cli.EXIT_OK
    assert len(built) == 7
    capsys.readouterr()


def test_cover_margin_is_evaluated_once_per_order(monkeypatch, capsys, tmp_path):
    covers.unreduced_margin.cache_clear()
    covers.miyaoka_yau_margin.cache_clear()
    orders = []
    eval_n = covers.FormalExpr.eval_n

    def counting_eval_n(self, n0):
        orders.append(n0)
        return eval_n(self, n0)

    monkeypatch.setattr(covers.FormalExpr, "eval_n", counting_eval_n)
    doc = tmp_path / "quadric.json"
    doc.write_text(json.dumps({"class": "one-one-quadric", "k": 4, "t": {"2": 12}}))
    assert cli.main(["verify-covers", "--n", "3", "--machine"]) == cli.EXIT_OK
    for _ in range(3):
        assert cli.main(["analyze", str(doc), "--machine"]) == cli.EXIT_OK
    assert capsys.readouterr().out.count('"cover_margin_n3"') == 3
    assert orders == [3]

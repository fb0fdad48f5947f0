"""Self-tests of the benchmark, kept apart from the program's test suite.

    python3 -m pytest -q perfbench/selftest.py

They check that every oracle agrees with the program on inputs small
enough to run in seconds, that a seed regenerates the same documents,
and that a perturbed output is reported.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harbourne import CONICS, LINES, ONE_ONE, ConfigurationProfile  # noqa: E402
from harbourne import classify_conic_case, local_h, moments, validate  # noqa: E402
from harbourne.exactfield import ExactField  # noqa: E402
from harbourne.geometry import GeometricConfiguration, PlaneCurve, CurveForm  # noqa: E402
from harbourne.geometry import extract_profile  # noqa: E402
from harbourne.search import Filter, SearchQuery, minimize_h  # noqa: E402

CLASSES = {"line-p2": LINES, "conic-p2": CONICS, "one-one-quadric": ONE_ONE}


def test_search_oracle_matches_program():
    cases = [("conic-p2", k, True, "lt") for k in range(3, 7)]
    cases += [("one-one-quadric", k, True, "hirz11") for k in range(4, 8)]
    cases += [("line-p2", k, False, None) for k in range(3, 9)]
    cases += [("conic-p2", k, False, None) for k in range(3, 6)]
    for cls, k, tk0, filt in cases:
        filters = frozenset() if filt is None else frozenset({Filter(filt)})
        got = minimize_h(SearchQuery(CLASSES[cls], k, require_tk_zero=tk0, filters=filters))
        want = O.search_minimum(cls, k, tk0, filt)
        assert (got.enumerated_count, got.filtered_count, got.min_h, len(got.argmin_profiles)) == (
            want["enumerated"], want["filtered"], want["min_h"], want["ties"]), (cls, k)


def test_analysis_oracle_matches_program():
    rng = random.Random(5)
    for _ in range(200):
        cls = rng.choice(list(CLASSES))
        k = rng.randint(3, 8)
        t = workloads._random_t(rng, O.GAMMA[cls], k, k, {})
        if rng.random() < 0.3:
            t[2] = t.get(2, 0) + 1
        profile = ConfigurationProfile(CLASSES[cls], k, t)
        want = O.expected_analysis(cls, k, t)
        report = validate(profile)
        assert [v.code for v in report.violations] == want["codes"]
        if report.ok:
            ms, hr = moments(profile), local_h(profile)
            assert (ms.f0, ms.f1, ms.f2, hr.numerator, hr.h) == (
                want["f0"], want["f1"], want["f2"], want["numerator"], want["h"])
            assert classify_conic_case(profile).case_tag.value == want["case"]


def _program_profile(field: O.Field, curves) -> dict:
    ef = ExactField(field.min_poly)
    forms = [PlaneCurve(CurveForm.LINE if len(c) == 3 else CurveForm.CONIC,
                        tuple(ef.element(list(x.c)) for x in c)) for c in curves]
    return dict(extract_profile(GeometricConfiguration(ef, tuple(forms))).t)


def test_line_oracle_matches_program():
    rng = random.Random(11)
    q = O.Field()
    for _ in range(10):
        lines = {}
        while len(lines) < 6:
            l = [q(rng.randint(-2, 2)) for _ in range(3)]
            if any(not x.is_zero() for x in l):
                lines.setdefault(O.point_key(l), l)
        lines = list(lines.values())
        assert O.line_profile(lines) == _program_profile(q, lines)


def test_conic_oracle_matches_program():
    q = O.Field()
    six = [tuple(q(c) for c in p) for p in workloads.SEVEN_POINTS[:6]]
    subsets = list(combinations(six, 5))
    conics = [O.conic_through(s) for s in subsets]
    assert O.conic_profile(conics, subsets) == _program_profile(q, conics) == {5: 6}
    lines = [tuple(q(c) for c in l) for l in workloads.CREMONA_LINES[:4]]
    images = [[q(0), q(0), q(0), c, b, a] for a, b, c in lines]
    vertices = [tuple(q(int(i == j)) for i in range(3)) for j in range(3)]
    t = O.conic_profile(images, [vertices] * 4)
    assert t == _program_profile(q, images)
    assert t == {**O.line_profile(lines), 4: 3}


def test_cremona_base_shape_image_adds_three_k_fold_points():
    q = O.Field()
    lines = [tuple(q(c) for c in l) for l in workloads.CREMONA_LINES]
    k = len(lines)
    images = [[q(0), q(0), q(0), c, b, a] for a, b, c in lines]
    vertices = [tuple(q(int(i == j)) for i in range(3)) for j in range(3)]
    t_lines = O.line_profile(lines)
    assert O.conic_profile(images, [vertices] * k) == {**t_lines, k: t_lines.get(k, 0) + 3}


def test_common_point_identity_holds_on_oracle_profiles():
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(4, 9)
        t = workloads._random_t(rng, 4, k, k - 1, {k: 3})
        conics = O.expected_analysis("conic-p2", k, t)
        lines = O.expected_analysis("line-p2", k, {r: c for r, c in t.items() if r != k})
        assert conics["h"] == Fraction(k - lines["f1"], lines["f0"] + 3)


def test_base_shapes_are_in_general_position():
    q = O.Field()
    assert O.in_general_position([tuple(q(c) for c in p) for p in workloads.SEVEN_POINTS])
    sqrt5 = O.Field(workloads.NF_FIELDS["sqrt5"])
    assert O.in_general_position(workloads._points(sqrt5, workloads.SQRT5_SIX_POINTS, (1, 1, 1)))


def test_fourth_point_lies_on_both_conics():
    q = O.Field()
    pts = [tuple(q(c) for c in p) for p in workloads.SEVEN_POINTS]
    for a, b in combinations(combinations(pts, 5), 2):
        shared = [p for p in a if p in b]
        if len(shared) == 3:
            c1, c2 = O.conic_through(a), O.conic_through(b)
            p = O.fourth_point(c1, c2, shared)
            assert O.conic_eval(c1, p).is_zero() and O.conic_eval(c2, p).is_zero()


def test_number_field_arithmetic_matches_program():
    rng = random.Random(3)
    for poly in workloads.NF_FIELDS.values():
        ours, theirs = O.Field(poly), ExactField(tuple(Fraction(c) for c in poly))
        for _ in range(20):
            a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ours.degree)]
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ours.degree)]
            x, y = ours(a), ours(b)
            assert (x * y).c == (theirs.element(a) * theirs.element(b)).coeffs
            if not x.is_zero():
                assert x.inverse().c == theirs.element(a).inverse().coeffs


def test_nf_pencil_oracle_matches_program():
    field = O.Field(workloads.NF_FIELDS["sqrt5"])
    pts = workloads._points(field, workloads.NF_PENCIL_POINTS, (1, 1, 1))
    b1, b2 = O.pencil_basis(pts)
    conics = [O.normalize([x + y * lam for x, y in zip(b1, b2)]) for lam in (1, 2)]
    assert O.conic_profile(conics, [pts] * 2) == _program_profile(field, conics) == {2: 4}


def test_same_seed_same_documents(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7, tmp_path / "a" / name)
        second = workloads.build(name, 7, tmp_path / "b" / name)
        assert [c.argv for c in first.commands] == [
            [arg.replace("/b/", "/a/") for arg in c.argv] for c in second.commands]
        for path in sorted((tmp_path / "a" / name).iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / name / path.name).read_bytes()
        workloads.build(name, 8, tmp_path / "c" / name)
        if name != "search":  # search only reorders its commands
            assert any(p.read_bytes() != (tmp_path / "c" / name / p.name).read_bytes()
                       for p in (tmp_path / "a" / name).iterdir() if "warmup" not in p.name)


def _command(name, tmp_path, predicate):
    wl = workloads.build(name, 3, tmp_path / name)
    return next(c for c in wl.commands if predicate(c.argv)), wl


def _bench(wl):
    bench = run._Bench.__new__(run._Bench)
    bench.wl, bench.verdicts, bench.wrong = wl, {}, []
    bench.attempted = bench.failed = 0
    return bench


def _outputs(wl, cmd, perturb):
    from harbourne import cli
    import passrun

    outputs = []
    for c in wl.commands:
        rc, out, err = passrun.run_command(cli, c.argv) if c is cmd else (0, "", "")
        if c is cmd:
            out = json.dumps(perturb(json.loads(out)))
        outputs.append((rc, out, err))
    return outputs


def test_changed_min_h_is_reported(tmp_path):
    cmd, wl = _command("search", tmp_path, lambda a: a[2:5] == ["conic-p2", "--k", "5"])

    def perturb(payload):
        payload["min_h"] = str(Fraction(payload["min_h"]) + 1)
        return payload

    bench = _bench(wl)
    bench._verify(_outputs(wl, cmd, perturb))
    assert any(line.startswith(" ".join(cmd.argv)) and "min_h" in line for line in bench.wrong)
    assert not bench._report({})["correct"]


def test_changed_t_count_is_reported(tmp_path):
    cmd, wl = _command("geom-q", tmp_path, lambda a: "cremona-lines" in a[1])

    def perturb(payload):
        t = payload["analysis"]["profile"]["t"]
        t["2"] += 1
        return payload

    bench = _bench(wl)
    bench._verify(_outputs(wl, cmd, perturb))
    assert any("t-vector" in line for line in bench.wrong)


def test_unperturbed_output_passes(tmp_path):
    cmd, wl = _command("geom-q", tmp_path, lambda a: "cremona-lines" in a[1])
    bench = _bench(wl)
    bench._verify(_outputs(wl, cmd, lambda payload: payload))
    assert not any(" ".join(cmd.argv) in line for line in bench.wrong)


def test_reducible_field_is_counted_failed(tmp_path):
    from harbourne import cli
    import passrun

    cmd, _ = _command("cli", tmp_path, lambda a: "reducible-field" in " ".join(a))
    rc, out, err = passrun.run_command(cli, cmd.argv)
    assert cmd.check(rc, out, err) == (workloads.OK if rc == 1 else workloads.FAILED)
    assert cmd.check(1, "", "error") == workloads.OK


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""

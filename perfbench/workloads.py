"""Seeded inputs for the four workloads, each command with its check.

A workload is a fixed list of CLI commands.  ``build`` writes the
documents they read into a work directory and returns the commands;
every command carries a check that compares the program's output with
an independent computation from ``oracles`` (never with a stored copy
of an earlier output).

The geometric base shapes below are fixed; the seed reflects their
coordinates (X, Y, Z -> +-X, +-Y, +-Z), flips the sign of each curve
equation and shuffles the command order.  Those changes alter every
number the program reads but not how much work it does (measured:
FieldElement multiplications agree within 0.1% over all eight
reflections of the 7-point conics), so the runs of different seeds
measure the same work.  Profiles in the ``cli`` workload are drawn
fresh from the seed; they are small and cost about the same whatever
their values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import oracles as O

WORKLOADS = ("search", "geom-q", "geom-nf", "cli")

# Verdicts of a check.
OK, FAILED = "ok", "failed"

# search: (class, extra flags, filter, k ladder)
SEARCH_LADDERS = (
    ("conic-p2", ["--tk0", "--filter", "lt"], "lt", range(3, 10)),
    ("one-one-quadric", ["--tk0", "--filter", "hirz11"], "hirz11", range(4, 12)),
    ("line-p2", [], None, range(3, 15)),
)

# geom-q: 7 integer points in general position (the 5-subset conics
# have three triple points from coinciding fourth points), a line
# arrangement with no line through a coordinate vertex and no crossing
# on a coordinate line (so its Cremona image is transversal), and four
# points whose pencil members have coefficients up to about 2*10^6,
# which makes the rational-root trial division visible.
SEVEN_POINTS = ((-2, -2, 1), (-2, -1, 1), (0, 1, 1), (1, -1, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1))
CREMONA_LINES = ((2, 3, 3), (3, 4, 5), (2, -1, 7), (1, 2, 3), (6, 5, -3), (5, 3, 1), (1, 1, -1))
PENCIL_POINTS = ((-4, -6, 5), (-5, 7, 8), (7, 4, 4), (-5, 7, 1))

# geom-nf: points as coefficient vectors in powers of theta.
NF_FIELDS = {
    "sqrt5": (-5, 0, 1),
    "cbrt2": (-2, 0, 0, 1),
    "zeta5": (1, 1, 1, 1, 1),
}
SQRT5_SIX_POINTS = (
    ((-1, 1), (-1,), (1,)),
    ((-1,), (0,), (1,)),
    ((1,), (-1, -1), (1,)),
    ((0, -1), (0,), (1,)),
    ((1, -1), (1,), (1,)),
    ((0, 1), (-1, 1), (1,)),
)
NF_PENCIL_POINTS = (
    ((-1, -1), (-1,), (1,)),
    ((-1, 1), (1,), (1,)),
    ((0, 1), (-1, 1), (1,)),
    ((-1, 1), (1, -1), (1,)),
)

# The warm-up command of each workload is one of its own kind, so that
# set-up holds the imports and lazy imports that workload's commands
# trigger and no others: a small search, an analyze, a rational geom,
# and a geom over Q(sqrt 2), whose first intersection imports sympy.
# The geom documents are two conics through the coordinate vertices and
# (1:1:1).
WARMUP_CONICS = [
    {"type": "conic", "coeffs": [0, 0, 0, -2, 1, 1]},
    {"type": "conic", "coeffs": [0, 0, 0, 1, -2, 1]},
]
WARMUP_DOCS = {
    "geom-q": {"field": {"kind": "rational"}, "curves": WARMUP_CONICS},
    "geom-nf": {"field": {"kind": "number-field", "min_poly": [-2, 0, 1]}, "curves": WARMUP_CONICS},
    "cli": {"class": "conic-p2", "k": 4, "t": {"2": 24}},
}


def _warmup(name: str, docs) -> list:
    if name == "search":
        return ["search", "--class", "line-p2", "--k", "5", "--machine"]
    verb = "analyze" if name == "cli" else "geom"
    return [verb, docs.write("warmup", WARMUP_DOCS[name]), "--machine"]


# (theta^2 + 1)(theta^2 + 2): not irreducible, so Q[theta]/(m) is not a
# field.  The program should reject it with exit 1; it does not yet, so
# this one command is counted as failed in every pass.
REDUCIBLE_DOC = {
    "field": {"kind": "number-field", "min_poly": [2, 0, 3, 0, 1]},
    "curves": [
        {"type": "line", "coeffs": [1, 0, 0]},
        {"type": "line", "coeffs": [0, 1, 0]},
        {"type": "line", "coeffs": [0, 0, 1]},
        {"type": "line", "coeffs": [1, 1, 1]},
    ],
}


@dataclass
class Command:
    argv: list
    check: Callable[[int, str, str], str]  # (exit code, stdout, stderr) -> verdict


@dataclass
class Workload:
    warmup: list
    commands: list


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the documents of one workload and return its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    docs = _Docs(workdir)
    commands = {
        "search": _search,
        "geom-q": _geom_q,
        "geom-nf": _geom_nf,
        "cli": _cli,
    }[name](rng, docs)
    rng.shuffle(commands)
    return Workload(warmup=_warmup(name, docs), commands=commands)


class _Docs:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, stem: str, doc) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)


def _verdict(problems: list) -> str:
    return OK if not problems else "wrong: " + "; ".join(problems)


def _parse(rc: int, out: str, want_rc: int = 0):
    if rc != want_rc:
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _frac(value) -> Fraction:
    return Fraction(str(value))


# ---------------------------------------------------------------------------
# search


def _search(rng, docs) -> list:
    commands = []
    for cls, flags, filt, ladder in SEARCH_LADDERS:
        for k in ladder:
            argv = ["search", "--class", cls, "--k", str(k), "--machine"] + flags
            want = O.search_minimum(cls, k, bool(flags), filt)
            commands.append(Command(argv, _search_check(cls, k, bool(flags), filt, want)))
    return commands


def _search_check(cls, k, tk0, filt, want):
    def check(rc, out, err):
        got = _parse(rc, out)
        if got is None:
            return FAILED
        p = []
        if got["enumerated_count"] != want["enumerated"]:
            p.append(f"enumerated_count {got['enumerated_count']} != {want['enumerated']}")
        if got["filtered_count"] != want["filtered"]:
            p.append(f"filtered_count {got['filtered_count']} != {want['filtered']}")
        if got["truncated"]:
            p.append("truncated")
        if got["min_h"] is None or _frac(got["min_h"]) != want["min_h"]:
            p.append(f"min_h {got['min_h']} != {want['min_h']}")
        if filt == "lt" and got["min_h"] is not None and _frac(got["min_h"]) < Fraction(-9, 2):
            p.append("lt-filtered minimum below -9/2")
        argmins = got["argmin_profiles"]
        if len(argmins) != want["ties"]:
            p.append(f"{len(argmins)} argmin profiles != {want['ties']}")
        seen = set()
        for doc in argmins:
            t = {int(r): c for r, c in doc["t"].items()}
            key = tuple(sorted(t.items()))
            a = O.expected_analysis(cls, k, t)
            if doc["class"] != cls or doc["k"] != k or key in seen or a["codes"]:
                p.append(f"bad argmin profile {doc}")
            elif a["h"] != want["min_h"] or not O.passes_filter(filt, k, t):
                p.append(f"argmin profile {doc} has h {a['h']} or fails {filt}")
            elif tk0 and t.get(k):
                p.append(f"argmin profile {doc} has t_k > 0")
            seen.add(key)
        return _verdict(p)

    return check


# ---------------------------------------------------------------------------
# geometry documents


def _reflect(rng) -> tuple:
    return tuple(rng.choice((1, -1)) for _ in range(3))


def _curve_doc(field: O.Field, curves, rng) -> dict:
    out = []
    for c in curves:
        sign = rng.choice((1, -1))
        out.append({
            "type": "line" if len(c) == 3 else "conic",
            "coeffs": [(x * sign).to_document() for x in c],
        })
    return {"field": field.to_document(), "curves": out}


def _geom_check(cls: str, curves: int, want_t: dict, extra=None):
    """Profile equals the oracle's; moments and h recomputed from it."""
    want = O.expected_analysis(cls, curves, want_t)

    def check(rc, out, err):
        got = _parse(rc, out)
        if got is None:
            return FAILED
        prof = got["analysis"]["profile"]
        t = {int(r): c for r, c in prof["t"].items()}
        p = []
        if got["curve_count"] != curves or prof["class"] != cls or prof["k"] != curves:
            p.append(f"header {got['curve_count']} {prof['class']} k={prof['k']}")
        if t != want_t:
            p.append(f"t-vector {t} != {want_t}")
        else:
            p.extend(_analysis_problems(got["analysis"], want))
        if extra is not None and not p:
            p.extend(extra(got))
        return _verdict(p)

    return check


def _analysis_problems(payload: dict, want: dict) -> list:
    p = []
    codes = [v["code"] for v in payload["validation"]["violations"]]
    if codes != want["codes"] or payload["validation"]["ok"] != (not want["codes"]):
        p.append(f"violations {codes} != {want['codes']}")
    if want["codes"]:
        return p
    ms, hr = payload["moments"], payload["h_report"]
    if (ms["f0"], ms["f1"], ms["f2"]) != (want["f0"], want["f1"], want["f2"]):
        p.append(f"moments {ms} != f0={want['f0']} f1={want['f1']} f2={want['f2']}")
    if hr["s"] != want["f0"] or hr["numerator"] != want["numerator"] or _frac(hr["h"]) != want["h"]:
        p.append(f"h_report {hr} != h={want['h']}")
    if payload["case"]["tag"] != want["case"]:
        p.append(f"case {payload['case']['tag']} != {want['case']}")
    return p


def _points(field: O.Field, raw, signs: tuple) -> list:
    return [tuple(field(c) * s for s, c in zip(signs, p)) for p in raw]


def _seven_point_conics(rng, docs) -> Command:
    q = O.Field()
    pts = _points(q, SEVEN_POINTS, _reflect(rng))
    subsets = list(combinations(pts, 5))
    conics = [O.conic_through(s) for s in subsets]
    t = O.conic_profile(conics, subsets)
    path = docs.write("seven-point-conics", _curve_doc(q, conics, rng))
    return Command(["geom", path, "--machine"], _geom_check("conic-p2", len(conics), t))


def _cremona_pair(rng, docs) -> list:
    """A line arrangement and its Cremona image a*YZ + b*XZ + c*XY."""
    q = O.Field()
    lines = _points(q, CREMONA_LINES, _reflect(rng))
    k = len(lines)
    t_lines = O.line_profile(lines)
    conics = [[q(0), q(0), q(0), c, b, a] for a, b, c in lines]
    vertices = [tuple(q(int(i == j)) for i in range(3)) for j in range(3)]
    t_conics = O.conic_profile(conics, [vertices] * k)
    law = O.expected_analysis("line-p2", k, t_lines)

    def cremona_law(got):
        # the image adds three k-fold points and rescales h by s/(s+3)
        p = []
        t = {int(r): c for r, c in got["analysis"]["profile"]["t"].items()}
        if t != {**t_lines, k: t_lines.get(k, 0) + 3}:
            p.append(f"image t-vector {t} does not add {{{k}: 3}} to {t_lines}")
        if _frac(got["analysis"]["h_report"]["h"]) != law["h"] * Fraction(law["f0"], law["f0"] + 3):
            p.append("image h differs from h*s/(s+3)")
        return p

    return [
        Command(["geom", docs.write("cremona-lines", _curve_doc(q, lines, rng)), "--machine"],
                _geom_check("line-p2", k, t_lines)),
        Command(["geom", docs.write("cremona-conics", _curve_doc(q, conics, rng)), "--machine"],
                _geom_check("conic-p2", k, t_conics, cremona_law)),
    ]


def _pencil(field: O.Field, raw_points, members: int, rng, docs, stem: str) -> Command:
    """``members`` conics through four points: they meet only there, t_k = 4."""
    pts = _points(field, raw_points, (1, 1, 1))
    b1, b2 = O.pencil_basis(pts)
    conics = [O.normalize([x + y * lam for x, y in zip(b1, b2)]) for lam in range(1, members + 1)]
    if any(O.conic_det(c).is_zero() for c in conics):
        raise O.Degenerate("reducible pencil member")
    t = O.conic_profile(conics, [pts] * members)
    if t != {members: 4}:
        raise AssertionError(f"pencil oracle gave {t}")
    return Command(["geom", docs.write(stem, _curve_doc(field, conics, rng)), "--machine"],
                   _geom_check("conic-p2", members, t))


def _geom_q(rng, docs) -> list:
    return [
        _seven_point_conics(rng, docs),
        *_cremona_pair(rng, docs),
        _pencil(O.Field(), PENCIL_POINTS, 6, rng, docs, "large-pencil"),
    ]


def _geom_nf(rng, docs) -> list:
    sqrt5 = O.Field(NF_FIELDS["sqrt5"])
    pts = _points(sqrt5, SQRT5_SIX_POINTS, _reflect(rng))
    subsets = list(combinations(pts, 5))
    conics = [O.conic_through(s) for s in subsets]
    t = O.conic_profile(conics, subsets)  # every pair shares 4 points: t5 = 6
    six = Command(
        ["geom", docs.write("sqrt5-six-point-conics", _curve_doc(sqrt5, conics, rng)), "--machine"],
        _geom_check("conic-p2", len(conics), t),
    )
    return [six] + [
        _pencil(O.Field(NF_FIELDS[name]), NF_PENCIL_POINTS, 3, rng, docs, f"{name}-pencil")
        for name in ("cbrt2", "zeta5")
    ]


# ---------------------------------------------------------------------------
# cli: many small commands


def _random_t(rng, gamma: int, k: int, top: int, fixed: dict) -> dict:
    """Random t-vector with sum C(r,2) t_r = gamma*C(k,2) and r <= top."""
    budget = gamma * comb(k, 2) - sum(comb(r, 2) * c for r, c in fixed.items())
    t = dict(fixed)
    for r in range(top, 2, -1):
        cap = budget // comb(r, 2)
        c = rng.randint(0, min(cap, 3)) if cap else 0
        if c:
            t[r] = c
            budget -= comb(r, 2) * c
    if budget:
        t[2] = budget
    return t


def _profile_doc(cls, k: int, t: dict) -> dict:
    return {"class": cls, "k": k, "t": {str(r): c for r, c in sorted(t.items())}}


# Rounds of small commands in one cli pass: enough that a pass lasts
# about a second, like the other workloads' commands, rather than a few
# hundred milliseconds (see README.md, "The pass_s statistic").
CLI_ROUNDS = 12


def _cli_profiles(rng) -> list:
    """(class, k, t) for every class and every conic t_k case, valid and not."""
    out = []
    for _ in range(CLI_ROUNDS):
        k = rng.randint(4, 12)
        out.append(("line-p2", k, _random_t(rng, 1, k, k - 1, {})))
        for tk in range(5):
            k = rng.randint(4, 9)
            out.append(("conic-p2", k, _random_t(rng, 4, k, k - 1, {k: tk} if tk else {})))
        k = rng.randint(4, 9)
        out.append(("one-one-quadric", k, _random_t(rng, 2, k, k - 1, {})))
        k = rng.randint(3, 6)
        out.append(({"plane-curve-p2": {"degree": 3}}, k, _random_t(rng, 9, k, k - 1, {})))
    for cls, k, t in list(out[:4 * CLI_ROUNDS // 3]):
        broken = dict(t)
        broken[2] = broken.get(2, 0) + 1  # breaks the incidence identity
        out.append((cls, k, broken))
        out.append((cls, k, {**t, k + 1: 1}))  # multiplicity above k
    return out


def _analyze(docs, cls, k, t) -> Command:
    path = docs.write("profile", _profile_doc(cls, k, t))
    want = O.expected_analysis(cls, k, t)

    def check(rc, out, err):
        got = _parse(rc, out, 1 if want["codes"] else 0)
        if got is None:
            return FAILED
        p = _analysis_problems(got, want)
        if got["profile"] != _profile_doc(cls, k, t):
            p.append(f"profile echo {got['profile']}")
        return _verdict(p)

    return Command(["analyze", path, "--machine"], check)


def _parse_error(docs) -> Command:
    path = docs.write("bad-key", {"class": "line-p2", "k": 3, "t": {"1": 3}})

    def check(rc, out, err):
        if rc != 1:
            return FAILED
        return _verdict([] if "$.t.1" in err and not out else [f"parse error text {err!r}"])

    return Command(["analyze", path, "--machine"], check)


def _cremona(docs, mode: str, cls, k: int, t: dict) -> Command:
    path = docs.write(f"cremona-{mode}", _profile_doc(cls, k, t))
    before = O.expected_analysis(cls, k, t)
    if mode == "generic":
        image_cls, image_t = "conic-p2", {**t, k: t.get(k, 0) + 3}
    else:
        image_cls, image_t = "line-p2", {r: c for r, c in t.items() if r != k}
    after = O.expected_analysis(image_cls, k, image_t)

    def check(rc, out, err):
        got = _parse(rc, out)
        if got is None:
            return FAILED
        p = _analysis_problems(got["before"], before) + _analysis_problems(got["after"], after)
        if got["after"]["profile"] != _profile_doc(image_cls, k, image_t):
            p.append(f"image profile {got['after']['profile']}")
        if mode == "generic":
            want_h = before["h"] * Fraction(before["f0"], before["f0"] + 3)
            if not got["law"]["holds"] or _frac(got["law"]["expected_h"]) != want_h:
                p.append(f"law {got['law']} (want h {want_h})")
        elif not p:
            # (4k - f1)/f0 of the conics equals (k - F1)/(F0 + 3) of the lines
            ms = got["after"]["moments"]
            identity = _frac(got["before"]["h_report"]["h"]) == Fraction(k - ms["f1"], ms["f0"] + 3)
            if not got["law"]["common_point_identity"] or not identity:
                p.append(f"law {got['law']}, identity {identity}")
        return _verdict(p)

    return Command(["cremona", path, "--mode", mode, "--machine"], check)


FIXTURE_ROWS = (
    ("klein-lines", "line-p2", 21, {3: 28, 4: 21}),
    ("klein-conics (generic cremona)", "conic-p2", 21, {3: 28, 4: 21, 21: 3}),
    ("wiman-lines", "line-p2", 45, {3: 120, 4: 45, 5: 36}),
    ("wiman-conics (generic cremona)", "conic-p2", 45, {3: 120, 4: 45, 5: 36, 45: 3}),
    ("conic-pencil", "conic-p2", 5, {5: 4}),
)


def _fixtures_check(rc, out, err):
    got = _parse(rc, out)
    if got is None:
        return FAILED
    p = [] if got["ok"] else ["fixtures not ok"]
    if len(got["rows"]) != len(FIXTURE_ROWS):
        return _verdict(p + [f"{len(got['rows'])} rows"])
    for row, (name, cls, k, t) in zip(got["rows"], FIXTURE_ROWS):
        want = O.expected_analysis(cls, k, t)
        if row["name"] != name or row["profile"] != _profile_doc(cls, k, t):
            p.append(f"row {row['name']} profile {row['profile']}")
        elif _frac(row["h"]) != want["h"] or row["s"] != want["f0"] or not row["ok"]:
            p.append(f"row {name}: h={row['h']} s={row['s']} want {want['h']} {want['f0']}")
    return _verdict(p)


# 4*(9 + k + t2 - sum_{r>=3} (r-4) t_r) with S0 = sum t_r, S1 = sum r t_r
COVER_MARGIN_N3 = {"1": 36, "k": 4, "t2": 4, "S0": 16, "S1": -4}


def _covers_check(rc, out, err):
    got = _parse(rc, out)
    if got is None:
        return FAILED
    margin = {sym: _frac(c) for sym, c in got["reduced_margin"].items()}
    p = []
    if margin != {sym: Fraction(c) for sym, c in COVER_MARGIN_N3.items()}:
        p.append(f"reduced margin {got['reduced_margin']}")
    if not got["ok"] or not all(got["checks"].values()) or len(got["checks"]) != 4:
        p.append(f"checks {got['checks']}")
    return _verdict(p)


def _line_geom(rng, docs) -> Command:
    q = O.Field()
    lines: dict = {}
    while len(lines) < 8:
        l = [q(rng.randint(-3, 3)) for _ in range(3)]
        if any(not x.is_zero() for x in l):
            lines.setdefault(O.point_key(l), l)
    lines = list(lines.values())
    t = O.line_profile(lines)
    return Command(["geom", docs.write("lines", _curve_doc(q, lines, rng)), "--machine"],
                   _geom_check("line-p2", len(lines), t))


def _reducible_field(docs) -> Command:
    path = docs.write("reducible-field", REDUCIBLE_DOC)
    return Command(["geom", path, "--machine"], lambda rc, out, err: OK if rc == 1 else FAILED)


def _cli(rng, docs) -> list:
    commands = [_analyze(docs, *prof) for prof in _cli_profiles(rng)]
    commands.append(_parse_error(docs))
    for _ in range(4 * CLI_ROUNDS // 3):
        k = rng.randint(4, 12)
        commands.append(_cremona(docs, "generic", "line-p2", k, _random_t(rng, 1, k, k - 1, {})))
        k = rng.randint(4, 9)
        commands.append(
            _cremona(docs, "common3", "conic-p2", k, _random_t(rng, 4, k, k - 1, {k: 3}))
        )
    commands.append(Command(["fixtures", "--machine"], _fixtures_check))
    commands.append(Command(["verify-covers", "--n", "3", "--machine"], _covers_check))
    commands.extend(_line_geom(rng, docs) for _ in range(4 * CLI_ROUNDS // 3))
    commands.append(_reducible_field(docs))
    return commands


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write a workload's documents and list its commands.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for the documents")
    args = parser.parse_args()
    built = build(args.workload, args.seed, args.out)
    for command in [built.warmup] + [c.argv for c in built.commands]:
        print("harbourne " + " ".join(command))

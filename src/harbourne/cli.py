"""Command-line front end.

Subcommands: analyze, geom, cremona, search, verify-covers, fixtures.
Every run is deterministic given its inputs; --machine switches to JSON
output that round-trips through the documented schemas.

Exit codes: 0 ok, 1 validation/parse failure, 2 computation error,
3 fixture or verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache

from . import covers
from .constraints import (
    CaseBound,
    classify_conic_case,
    hirzebruch_one_one,
    holds_over_integers,
    positivity_at_one,
    positivity_quadratic,
)
from .cremona import (
    CremonaMode,
    CremonaSpec,
    GENERICITY_NOTE,
    cremona_profile,
    h_transformation_law,
)
from .documents import (
    _CLASS_TOKENS,
    DocumentError,
    format_rational,
    geometry_from_document,
    profile_from_document,
    profile_to_document,
)
from .geometry import extract_profile
from .hconst import format_decimal, local_h
from .profiles import (
    ConfigurationProfile,
    CurveKind,
    CONICS,
    HarbourneError,
    LINES,
    ONE_ONE,
    ProfileInvalidError,
    moments,
    plane_curves,
    validate,
)
from .search import Filter, SearchQuery, enumerate_profiles, minimize_h

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_MISMATCH = 3

def _rat(value: Fraction | None):
    return None if value is None else format_rational(value)


# ---------------------------------------------------------------------------
# shared report construction


def _case_payload(case: CaseBound) -> dict:
    return {
        "tag": case.case_tag.value,
        "bound": _rat(case.bound),
        "provenance": case.provenance,
    }


def _analysis_payload(profile: ConfigurationProfile) -> dict:
    report = validate(profile)
    payload: dict = {
        "profile": profile_to_document(profile),
        "validation": {
            "ok": report.ok,
            "violations": [
                {"code": v.code, "message": v.message, "lhs": v.lhs, "rhs": v.rhs}
                for v in report.violations
            ],
        },
    }
    if not report.ok:
        return payload
    ms = moments(profile)
    payload["moments"] = {"f0": ms.f0, "f1": ms.f1, "f2": ms.f2}
    hr = local_h(profile)
    payload["h_report"] = {
        "s": hr.s,
        "numerator": hr.numerator,
        "degree_total": hr.degree_total,
        "h": format_rational(hr.h),
        "h_decimal": format_decimal(hr.h, 3),
    }
    payload["case"] = _case_payload(classify_conic_case(profile))

    kind = profile.curve_class.kind
    tk = profile.t_of(profile.k)
    cons: dict = {}
    if kind is CurveKind.CONIC_P2 and profile.k >= 3 and tk == 0:
        q = positivity_quadratic(profile)
        check = holds_over_integers(q)
        at_one, at_one_holds = positivity_at_one(profile)
        cons["positivity_quadratic"] = {
            "a": q.a,
            "b": q.b,
            "c": q.c,
            "holds_over_integers": check.holds,
            "witness_x": check.witness_x,
            "witness_value": check.witness_value,
            "at_one_value": at_one,
            "at_one_holds": at_one_holds,
        }
    if kind is CurveKind.ONE_ONE_QUADRIC and profile.k >= 4 and tk == 0:
        hz = hirzebruch_one_one(profile)
        cons["hirzebruch_one_one"] = {
            "lhs": hz.lhs,
            "rhs": hz.rhs,
            "holds": hz.holds,
            "note": hz.note,
            "cover_margin_n3": format_rational(
                covers.margin_on_profile(profile, 3)
            ),
        }
    payload["constraints"] = cons
    return payload


def _print_analysis(payload: dict, out) -> None:
    prof = payload["profile"]
    print(f"profile: {json.dumps(prof)}", file=out)
    val = payload["validation"]
    if val["ok"]:
        print("validation: ok", file=out)
    else:
        print("validation: FAILED", file=out)
        for v in val["violations"]:
            print(f"  - [{v['code']}] {v['message']}", file=out)
        return
    ms = payload["moments"]
    print(f"moments: f0={ms['f0']} f1={ms['f1']} f2={ms['f2']}", file=out)
    hr = payload["h_report"]
    print(
        f"H-constant: numerator={hr['numerator']} s={hr['s']} "
        f"h={hr['h']} ({hr['h_decimal']})",
        file=out,
    )
    case = payload["case"]
    line = f"case: {case['tag']}"
    if case["bound"] is not None:
        line += f" bound={case['bound']}"
    print(line, file=out)
    print(f"  provenance: {case['provenance']}", file=out)
    for name, data in payload.get("constraints", {}).items():
        print(f"{name}: {json.dumps(data)}", file=out)


# ---------------------------------------------------------------------------
# subcommands


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key, which ``json`` would
    resolve silently to its last value, raises ``ValueError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}")
    # malformed JSON, a repeated key, bad UTF-8 or nesting past the recursion limit
    except (ValueError, RecursionError) as err:
        raise DocumentError(f"invalid JSON in {path}: {err}")


def cmd_analyze(args, out) -> int:
    profile = profile_from_document(_load_json(args.file))
    payload = _analysis_payload(profile)
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        _print_analysis(payload, out)
    return EXIT_OK if payload["validation"]["ok"] else EXIT_VALIDATION


def cmd_geom(args, out) -> int:
    config = geometry_from_document(_load_json(args.file))
    profile = extract_profile(config)
    payload = {
        "curve_count": len(config.curves),
        "field": config.field.label(),
        "analysis": _analysis_payload(profile),
    }
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(
            f"extracted {len(config.curves)} curves over {config.field.label()}",
            file=out,
        )
        _print_analysis(payload["analysis"], out)
    return EXIT_OK


def cmd_cremona(args, out) -> int:
    profile = profile_from_document(_load_json(args.file))
    mode = CremonaMode(args.mode)
    image = cremona_profile(profile, CremonaSpec(mode))
    before = local_h(profile)
    after = local_h(image)
    payload: dict = {
        "mode": mode.value,
        "before": _analysis_payload(profile),
        "after": _analysis_payload(image),
    }
    ok = True
    if mode is CremonaMode.GENERIC_POINTS:
        expected = h_transformation_law(before.h, before.s)
        law_holds = expected == after.h and before.numerator == after.numerator
        payload["law"] = {
            "expected_h": format_rational(expected),
            "numerator_invariant": before.numerator == after.numerator,
            "holds": law_holds,
        }
        payload["note"] = GENERICITY_NOTE
        ok = law_holds
    else:
        # (4k - f1)/f0 of the conics equals (k - F1)/(F0 + 3) of the lines
        ms = moments(image)
        identity = Fraction(profile.k - ms.f1, ms.f0 + 3) == before.h
        payload["law"] = {"common_point_identity": identity}
        ok = identity
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"mode: {mode.value}", file=out)
        print("--- before ---", file=out)
        _print_analysis(payload["before"], out)
        print("--- after ---", file=out)
        _print_analysis(payload["after"], out)
        print(f"law: {json.dumps(payload['law'])}", file=out)
        if "note" in payload:
            print(f"note: {payload['note']}", file=out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _parse_search_class(token: str):
    if token in _CLASS_TOKENS:
        return _CLASS_TOKENS[token]
    if token.startswith("plane-curve-p2:"):
        raw = token.split(":", 1)[1]
        try:
            degree = _plain_int(raw)
        except argparse.ArgumentTypeError:  # not plain, or past int()'s digit limit
            degree = 0
        if degree < 1:
            raise DocumentError(f"bad degree in class token {token!r}")
        return plane_curves(degree)
    raise DocumentError(f"unknown curve class {token!r}")


def cmd_search(args, out) -> int:
    cls = _parse_search_class(args.curve_class)
    filters = frozenset(Filter(tok) for tok in args.filter or [])
    query = SearchQuery(
        curve_class=cls,
        k=args.k,
        require_tk_zero=args.tk0,
        filters=filters,
    )
    result = minimize_h(query)
    payload = {
        "class": args.curve_class,
        "k": args.k,
        "tk0": args.tk0,
        "filters": sorted(f.value for f in filters),
        "enumerated_count": result.enumerated_count,
        "filtered_count": result.filtered_count,
        # minimize_h is exact, so always false; schema readers, perfbench's
        # search check among them, still read the key.
        "truncated": False,
        "min_h": _rat(result.min_h),
        "min_h_decimal": None
        if result.min_h is None
        else format_decimal(result.min_h, 3),
        "argmin_profiles": [profile_to_document(p) for p in result.argmin_profiles],
    }
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(
            f"enumerated {result.enumerated_count} combinatorially feasible "
            f"profiles ({result.filtered_count} pass filters)",
            file=out,
        )
        if result.empty:
            print("no feasible profile", file=out)
        else:
            print(
                f"min_h = {format_rational(result.min_h)} "
                f"({format_decimal(result.min_h, 3)}) attained by:",
                file=out,
            )
            for p in result.argmin_profiles:
                print(f"  {json.dumps(profile_to_document(p))}", file=out)
    return EXIT_OK


def _lincomb_str(lc: dict[str, Fraction]) -> str:
    names = {"1": "", "k": "k", "k2": "k^2", "t2": "t2", "S0": "S0", "S1": "S1", "S2": "S2"}
    parts = []
    for sym in ("1", "k", "k2", "t2", "S0", "S1", "S2"):
        c = lc.get(sym)
        if not c:
            continue
        body = names[sym]
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def cmd_verify_covers(args, out) -> int:
    n = args.n
    if n < 2:
        raise DocumentError("--n must be >= 2")
    margin = covers.miyaoka_yau_margin(n)
    checks: dict[str, bool] = {}

    if n == 3:
        checks["closed_form"] = margin == covers.reduced_margin_closed_form()

    rng = random.Random(574214)
    agree = True
    for _ in range(200):
        k = rng.randint(3, 40)
        t = {r: rng.randint(0, 9) for r in rng.sample(range(2, 13), 4)}
        vals = covers.symbol_values(k, t)
        symbolic = covers.unreduced_margin(n).evaluate(vals)
        direct = 3 * covers.direct_euler_value(
            k, t, n
        ) - covers.direct_canonical_square_value(k, t, n)
        if symbolic != direct:
            agree = False
            break
    checks["numeric_agreement"] = agree

    sound = True
    for _ in range(200):
        k = rng.randint(4, 30)
        cap = 2 * k * (k - 1)
        t: dict[int, int] = {}
        spent = 0
        for r in rng.sample(range(3, 9), 3):
            room = (cap - spent) // (r * (r - 1))
            c = rng.randint(0, min(room, 6))
            if c:
                t[r] = c
                spent += r * (r - 1) * c
        t[2] = (cap - spent) // 2
        if not covers.quadric_identity_holds(k, t):
            raise AssertionError("sample construction broke the identity")
        vals = covers.symbol_values(k, t)
        if covers.unreduced_margin(n).evaluate(vals) != margin.evaluate(vals):
            sound = False
            break
    checks["reduction_soundness"] = sound

    if n == 3:
        signs = True
        for k in (4, 5, 6):
            query = SearchQuery(ONE_ONE, k, require_tk_zero=True)
            for profile in enumerate_profiles(query):
                want = hirzebruch_one_one(profile).holds
                got = covers.margin_on_profile(profile, 3) >= 0
                if want != got:
                    signs = False
                    break
        checks["sign_agreement"] = signs

    ok = all(checks.values())
    payload = {
        "n": n,
        "reduced_margin": {
            sym: format_rational(c) for sym, c in margin.coefficient(0).items()
        },
        "reduced_margin_rendered": _lincomb_str(margin.coefficient(0)),
        "checks": checks,
        "final_form": "9 + k + t2 + t3 >= sum_{r>=5} (r-4) t_r",
        "intermediate_form": "9 + k - t2 >= sum_{r>=2} (r-4) t_r",
        "ok": ok,
    }
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"reduced margin at n={n}: {payload['reduced_margin_rendered']}", file=out)
        if n == 3:
            print("equivalent inequality forms:", file=out)
            print(f"  {payload['final_form']}", file=out)
            print(f"  {payload['intermediate_form']}", file=out)
        for name, passed in checks.items():
            print(f"check {name}: {'ok' if passed else 'MISMATCH'}", file=out)
    return EXIT_OK if ok else EXIT_MISMATCH


_FIXTURES = (
    {
        "name": "klein-lines",
        "profile": ConfigurationProfile(LINES, 21, {3: 28, 4: 21}),
        "h": Fraction(-3),
        "s": 49,
        "decimal": ("-3.000", 3),
    },
    {
        "name": "klein-conics (generic cremona)",
        "profile": None,  # derived from the previous row
        "derive_from": 0,
        "h": Fraction(-147, 52),
        "s": 52,
        "decimal": ("-2.827", 3),
        "t_expect": {3: 28, 4: 21, 21: 3},
    },
    {
        "name": "wiman-lines",
        "profile": ConfigurationProfile(LINES, 45, {3: 120, 4: 45, 5: 36}),
        "h": Fraction(-225, 67),
        "s": 201,
        "decimal": ("-3.36", 2),
    },
    {
        "name": "wiman-conics (generic cremona)",
        "profile": None,
        "derive_from": 2,
        "h": Fraction(-225, 68),
        "s": 204,
        "decimal": ("-3.31", 2),
        "t_expect": {3: 120, 4: 45, 5: 36, 45: 3},
    },
    {
        "name": "conic-pencil",
        "profile": ConfigurationProfile(CONICS, 5, {5: 4}),
        "h": Fraction(0),
        "s": 4,
        "decimal": ("0.000", 3),
    },
)


def cmd_fixtures(args, out) -> int:
    rows = []
    ok = True
    resolved: list[ConfigurationProfile] = []
    for fix in _FIXTURES:
        profile = fix["profile"]
        if profile is None:
            base = resolved[fix["derive_from"]]
            profile = cremona_profile(
                base, CremonaSpec(CremonaMode.GENERIC_POINTS)
            )
        resolved.append(profile)
        hr = local_h(profile)
        want_dec, places = fix["decimal"]
        got_dec = format_decimal(hr.h, places)
        row_ok = hr.h == fix["h"] and hr.s == fix["s"] and got_dec == want_dec
        if "t_expect" in fix:
            row_ok = row_ok and dict(profile.t) == fix["t_expect"]
        rows.append(
            {
                "name": fix["name"],
                "profile": profile_to_document(profile),
                "h": format_rational(hr.h),
                "h_decimal": got_dec,
                "s": hr.s,
                "expected_h": format_rational(fix["h"]),
                "expected_decimal": want_dec,
                "expected_s": fix["s"],
                "ok": row_ok,
            }
        )
        ok = ok and row_ok
    payload = {"rows": rows, "ok": ok}
    if args.machine:
        print(json.dumps(payload, indent=2), file=out)
    else:
        for row in rows:
            status = "ok" if row["ok"] else "MISMATCH"
            print(
                f"{row['name']}: h={row['h']} ({row['h_decimal']}) "
                f"s={row['s']} [{status}]",
                file=out,
            )
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def _plain_int(text: str) -> int:
    """An integer option written as str() writes an int; type=int alone
    also reads "1_0", "+3" and " 3"."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by every later one
    in the process; each subcommand keeps the cmd_* function bound then, so a
    cmd_* monkeypatched after the first main() call does not take effect."""
    parser = argparse.ArgumentParser(
        prog="harbourne",
        description="Exact H-constants for line, conic and (1,1)-curve "
        "configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a profile document")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("geom", help="extract and analyze a geometry document")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("cremona", help="transform a profile document")
    p.add_argument("file")
    p.add_argument(
        "--mode", choices=[m.value for m in CremonaMode], required=True
    )
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_cremona)

    p = sub.add_parser("search", help="enumerate profiles and minimize h")
    p.add_argument("--class", dest="curve_class", required=True)
    p.add_argument("--k", type=_plain_int, required=True)
    p.add_argument("--tk0", action="store_true")
    p.add_argument(
        "--filter", action="append", choices=[f.value for f in Filter]
    )
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-covers", help="verify the cover computation")
    p.add_argument("--n", type=_plain_int, default=3)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_verify_covers)

    p = sub.add_parser("fixtures", help="run the built-in fixture table")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (DocumentError, ProfileInvalidError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except HarbourneError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMPUTATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

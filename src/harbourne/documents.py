"""JSON document schemas for profiles and geometric configurations.

Profile document:

    {"class": "line-p2" | "conic-p2" | "one-one-quadric"
              | {"plane-curve-p2": {"degree": d}},
     "k": int,
     "t": {"<r>": count, ...}}

Geometry document:

    {"field": {"kind": "rational"}
              | {"kind": "number-field", "min_poly": [c0, ..., 1]},
     "curves": [{"type": "line", "coeffs": [a, b, c]}
                | {"type": "conic", "coeffs": [a, b, c, d, e, f]}, ...]}

Rationals are written as integers or "p/q" strings of ASCII digits
with an optional leading "-"; number-field elements as arrays of
rationals (coefficients of powers of the generator), non-empty and no
longer than the field degree.  Unknown keys, multiplicities below 2
and profile integers too wide to print (:func:`_expect_int`) are
rejected at parse time, and every error carries the offending location.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exactfield import ExactField, FieldElement, RATIONALS
from .geometry import CurveForm, GeometricConfiguration, PlaneCurve
from .profiles import (
    ConfigurationProfile,
    CurveClass,
    CurveKind,
    CONICS,
    HarbourneError,
    LINES,
    ONE_ONE,
    plane_curves,
)

_CLASS_TOKENS = {
    "line-p2": LINES,
    "conic-p2": CONICS,
    "one-one-quadric": ONE_ONE,
}


class DocumentError(HarbourneError):
    def __init__(self, message: str, location: str = "$"):
        self.location = location
        super().__init__(f"{location}: {message}")


def _expect_keys(obj: dict, allowed: set[str], required: set[str], loc: str):
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"unknown keys {sorted(unknown)}", loc)
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"missing keys {sorted(missing)}", loc)


def _expect_int(value, loc: str) -> int:
    """A profile document's integer, with at most a fifth of the
    interpreter's int-string limit in digits: every integer an analysis
    prints is a polynomial of degree at most 4 in these, d^2*C(k,2) the
    widest, so it stays printable."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected an integer, got {value!r}", loc)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)() // 5
    if cap and value.bit_length() > 3 * cap and abs(value) >= 10**cap:  # 2^3 < 10
        raise DocumentError(f"integer has more than {cap} digits", loc)
    return value


def parse_rational(value, loc: str = "$") -> Fraction:
    """An integer, or a string of ASCII digits with an optional leading
    "-" and an optional "/" and denominator.  Decimals, exponents, spaces,
    "+" and "_" are refused: Fraction("1e100000000") alone would build an
    integer of 10^8 digits."""
    if isinstance(value, bool):
        raise DocumentError(f"expected a rational, got {value!r}", loc)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):  # "1/0", or too many digits
            pass
        raise DocumentError(f"not a rational: {value!r}", loc)
    raise DocumentError(f"expected an integer or 'p/q' string, got {value!r}", loc)


def format_rational(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


# ---------------------------------------------------------------------------
# profiles


def profile_from_document(obj) -> ConfigurationProfile:
    if not isinstance(obj, dict):
        raise DocumentError("profile document must be a JSON object")
    _expect_keys(obj, {"class", "k", "t"}, {"class", "k", "t"}, "$")
    cls = _class_from_document(obj["class"])
    k = _expect_int(obj["k"], "$.k")
    traw = obj["t"]
    if not isinstance(traw, dict):
        raise DocumentError("expected an object of counts", "$.t")
    t: dict[int, int] = {}
    for key, value in traw.items():
        loc = f"$.t.{key}"
        try:
            r = int(key)
        except ValueError:
            r = None
        if r is None or str(r) != key:  # int() also reads "02", " 2 ", "2_0"
            raise DocumentError(f"multiplicity key {key!r} is not an integer", loc)
        if r < 2:
            raise DocumentError(f"multiplicity {r} is below the minimum 2", loc)
        _expect_int(r, loc)
        count = _expect_int(value, loc)
        if count < 0:
            raise DocumentError(f"count {count} is negative", loc)
        t[r] = count
    try:
        return ConfigurationProfile(cls, k, t)
    except ValueError as err:
        raise DocumentError(str(err)) from None


def _class_from_document(obj) -> CurveClass:
    if isinstance(obj, str):
        if obj in _CLASS_TOKENS:
            return _CLASS_TOKENS[obj]
        raise DocumentError(f"unknown curve class {obj!r}", "$.class")
    if isinstance(obj, dict):
        _expect_keys(obj, {"plane-curve-p2"}, {"plane-curve-p2"}, "$.class")
        inner = obj["plane-curve-p2"]
        if not isinstance(inner, dict):
            raise DocumentError("expected an object", "$.class.plane-curve-p2")
        _expect_keys(inner, {"degree"}, {"degree"}, "$.class.plane-curve-p2")
        degree = _expect_int(inner["degree"], "$.class.plane-curve-p2.degree")
        if degree < 1:
            raise DocumentError(
                f"degree {degree} is below 1", "$.class.plane-curve-p2.degree"
            )
        return plane_curves(degree)
    raise DocumentError(f"unrecognised curve class {obj!r}", "$.class")


def class_to_document(cls: CurveClass):
    if cls.kind is CurveKind.PLANE_CURVE_P2:
        return {"plane-curve-p2": {"degree": cls.degree}}
    return cls.kind.value


def profile_to_document(profile: ConfigurationProfile) -> dict:
    return {
        "class": class_to_document(profile.curve_class),
        "k": profile.k,
        "t": {str(r): c for r, c in profile.t.items()},
    }


# ---------------------------------------------------------------------------
# geometry


def geometry_from_document(obj) -> GeometricConfiguration:
    if not isinstance(obj, dict):
        raise DocumentError("geometry document must be a JSON object")
    _expect_keys(obj, {"field", "curves"}, {"field", "curves"}, "$")
    field = _field_from_document(obj["field"])
    raw_curves = obj["curves"]
    if not isinstance(raw_curves, list) or not raw_curves:
        raise DocumentError("expected a non-empty array", "$.curves")
    curves = []
    for idx, raw in enumerate(raw_curves):
        curves.append(_curve_from_document(raw, field, f"$.curves[{idx}]"))
    if len(curves) < 2:
        raise DocumentError("a configuration needs at least two curves", "$.curves")
    try:
        return GeometricConfiguration(field, tuple(curves))
    except HarbourneError as err:
        raise DocumentError(str(err), "$.curves") from None


def _field_from_document(obj) -> ExactField:
    loc = "$.field"
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", loc)
    kind = obj.get("kind")
    if kind == "rational":
        _expect_keys(obj, {"kind"}, {"kind"}, loc)
        return RATIONALS
    if kind == "number-field":
        _expect_keys(obj, {"kind", "min_poly"}, {"kind", "min_poly"}, loc)
        raw = obj["min_poly"]
        if not isinstance(raw, list):
            raise DocumentError("expected an array of rationals", f"{loc}.min_poly")
        coeffs = tuple(
            parse_rational(v, f"{loc}.min_poly[{i}]") for i, v in enumerate(raw)
        )
        try:
            return ExactField(coeffs)
        except HarbourneError as err:
            raise DocumentError(str(err), f"{loc}.min_poly") from None
    raise DocumentError(f"unknown field kind {kind!r}", loc)


def _element_from_document(value, field: ExactField, loc: str) -> FieldElement:
    if isinstance(value, list):
        if field.is_rational:
            raise DocumentError(
                "array-valued coefficients need a number field", loc
            )
        if not value:
            raise DocumentError("empty coefficient vector", loc)
        if len(value) > field.degree:
            raise DocumentError(
                f"coefficient vector longer than the field degree "
                f"{field.degree}", loc
            )
        coeffs = [parse_rational(v, f"{loc}[{i}]") for i, v in enumerate(value)]
        return field.element(coeffs)
    return field.element(parse_rational(value, loc))


def _curve_from_document(obj, field: ExactField, loc: str) -> PlaneCurve:
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", loc)
    _expect_keys(obj, {"type", "coeffs"}, {"type", "coeffs"}, loc)
    ctype = obj["type"]
    if ctype not in ("line", "conic"):
        raise DocumentError(f"unknown curve type {ctype!r}", f"{loc}.type")
    want = 3 if ctype == "line" else 6
    raw = obj["coeffs"]
    if not isinstance(raw, list) or len(raw) != want:
        raise DocumentError(
            f"expected an array of {want} coefficients", f"{loc}.coeffs"
        )
    coeffs = tuple(
        _element_from_document(v, field, f"{loc}.coeffs[{i}]")
        for i, v in enumerate(raw)
    )
    form = CurveForm.LINE if ctype == "line" else CurveForm.CONIC
    try:
        return PlaneCurve(form, coeffs)
    except (HarbourneError, ValueError) as err:
        raise DocumentError(str(err), loc) from None

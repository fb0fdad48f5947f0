"""Symbolic verification of the Hirzebruch-type inequality on the quadric.

An abelian cover of order n^(k-1) branched along a (1,1)-curve
configuration has, after minimal desingularization, Euler characteristic
and canonical self-intersection expressible (up to the common factor
n^(k-3)) as quadratic polynomials in n whose coefficients are rational
linear combinations of the symbols

    1, k, k^2, t2, S0, S1, S2        with  Sj = sum_{r>=3} r^j * t_r.

This module encodes those two polynomials, forms the Miyaoka-Yau margin
3*e - K^2 at a chosen n, eliminates k^2 through the quadric incidence
identity 2k^2 = 2k + 2*t2 + (S2 - S1), and checks that at n = 3 the
reduced margin is exactly 4*(9 + k + t2 - sum_{r>=3} (r-4) t_r), i.e.
the inequality with per-point summand (r-4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .profiles import ConfigurationProfile, CurveKind, require_valid

SYMBOLS = ("1", "k", "k2", "t2", "S0", "S1", "S2")

LinComb = Mapping[str, Fraction]


def _norm(comb_: Mapping[str, Fraction | int]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for sym, coeff in comb_.items():
        if sym not in SYMBOLS:
            raise ValueError(f"unknown symbol {sym!r}")
        c = Fraction(coeff)
        if c:
            out[sym] = c
    return out


def _combine(a: Mapping[str, Fraction], b: Mapping[str, Fraction], sign: int):
    out = dict(a)
    for sym, coeff in b.items():
        out[sym] = out.get(sym, Fraction(0)) + sign * coeff
    return _norm(out)


@dataclass(frozen=True)
class FormalExpr:
    """Polynomial in the cover order n over the symbol basis above.

    Besides ``terms`` it keeps the same coefficients as one integer form:
    the least common denominator of all of them and, per power of n, the
    pairs (symbol, numerator over that denominator) that ``evaluate`` sums.
    """

    terms: Mapping[int, LinComb]

    def __post_init__(self):
        cleaned: dict[int, LinComb] = {}
        for npow, comb_ in dict(self.terms).items():
            if npow < 0:
                raise ValueError("negative powers of n are not representable")
            lc = _norm(comb_)
            if lc:
                cleaned[npow] = MappingProxyType(lc)
        object.__setattr__(self, "terms", MappingProxyType(cleaned))
        den = lcm(*(c.denominator for lc in cleaned.values() for c in lc.values()))
        numerators = tuple(
            (p, tuple((sym, int(c * den)) for sym, c in lc.items()))
            for p, lc in cleaned.items()
        )
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_numerators", numerators)

    @staticmethod
    def from_constant(comb_: Mapping[str, Fraction | int]) -> "FormalExpr":
        return FormalExpr({0: {s: Fraction(c) for s, c in comb_.items()}})

    def coefficient(self, npow: int) -> dict[str, Fraction]:
        return dict(self.terms.get(npow, {}))

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        powers = set(self.terms) | set(other.terms)
        return FormalExpr(
            {
                p: _combine(self.terms.get(p, {}), other.terms.get(p, {}), +1)
                for p in powers
            }
        )

    def __sub__(self, other: "FormalExpr") -> "FormalExpr":
        powers = set(self.terms) | set(other.terms)
        return FormalExpr(
            {
                p: _combine(self.terms.get(p, {}), other.terms.get(p, {}), -1)
                for p in powers
            }
        )

    def scale(self, factor: Fraction | int) -> "FormalExpr":
        f = Fraction(factor)
        return FormalExpr(
            {p: {s: f * c for s, c in lc.items()} for p, lc in self.terms.items()}
        )

    def eval_n(self, n0: int) -> "FormalExpr":
        """Collapse the polynomial in n at an integer n0 (degree 0 result)."""
        total: dict[str, Fraction] = {}
        for p, lc in self.terms.items():
            scale = Fraction(n0) ** p
            for sym, coeff in lc.items():
                total[sym] = total.get(sym, Fraction(0)) + scale * coeff
        return FormalExpr({0: total})

    def reduce_common_point_identity(self) -> "FormalExpr":
        """Eliminate k^2 via 2k^2 = 2k + 2*t2 + (S2 - S1)."""
        rewrite = {
            "k": Fraction(1),
            "t2": Fraction(1),
            "S2": Fraction(1, 2),
            "S1": Fraction(-1, 2),
        }
        out: dict[int, dict[str, Fraction]] = {}
        for p, lc in self.terms.items():
            new = {s: c for s, c in lc.items() if s != "k2"}
            k2 = lc.get("k2")
            if k2:
                for sym, factor in rewrite.items():
                    new[sym] = new.get(sym, Fraction(0)) + k2 * factor
            out[p] = new
        return FormalExpr(out)

    def evaluate(
        self, values: Mapping[str, Fraction | int], n: int | None = None
    ) -> Fraction:
        """Numeric value at the given symbol values (and n if degree > 0).

        The values multiply the integer numerators of the coefficients, and
        the total becomes one Fraction over their common denominator."""
        vals = {**values, "1": 1}
        if "k" in vals:
            vals.setdefault("k2", vals["k"] ** 2)
        total = 0
        for p, nums in self._numerators:
            if p and n is None:
                raise ValueError("expression depends on n; pass n explicitly")
            total += (n**p if p else 1) * sum(num * vals[sym] for sym, num in nums)
        return Fraction(total, self._den)

    def degree(self) -> int:
        return max(self.terms, default=0)


def symbol_values(k: int, t: Mapping[int, int]) -> dict[str, int]:
    """Symbol assignment (k, k2, t2, S0, S1, S2) of a multiplicity map."""
    vals = {"k": k, "k2": k * k, "t2": t.get(2, 0)}
    for j in range(3):
        vals[f"S{j}"] = sum(r**j * c for r, c in t.items() if r >= 3)
    return vals


# f0 and f1 expanded over the symbol basis (sums start at r = 2).
_F0 = {"t2": Fraction(1), "S0": Fraction(1)}
_F1 = {"t2": Fraction(2), "S1": Fraction(1)}


def euler_expr() -> FormalExpr:
    """Normalized Euler characteristic e(Y)/n^(k-3) of the cover,
    as n^2*(4 - 2k + f1 - f0) + 2n*(k + f0 - f1) + f1 - t2."""
    n2 = _combine(
        _combine({"1": Fraction(4), "k": Fraction(-2)}, _F1, +1), _F0, -1
    )
    n1 = {
        s: 2 * c
        for s, c in _combine(_combine({"k": Fraction(1)}, _F0, +1), _F1, -1).items()
    }
    n0 = _combine(_F1, {"t2": Fraction(1)}, -1)
    return FormalExpr({2: n2, 1: n1, 0: n0})


def canonical_square_expr() -> FormalExpr:
    """Normalized canonical self-intersection K_Y^2/n^(k-3) = n^2*K'^2.

    The three coefficients in n expand the per-point weights (1-r)^2,
    -(-2r^2 + 6r - 4) and (r-2)^2 over (S0, S1, S2).
    """
    n0 = {
        "k2": Fraction(2),
        # -(S2 - 2*S1 + S0)
        "S2": Fraction(-1),
        "S1": Fraction(2),
        "S0": Fraction(-1),
    }
    n1 = {
        "k": Fraction(8),
        "k2": Fraction(-4),
        # -(-2*S2 + 6*S1 - 4*S0)
        "S2": Fraction(2),
        "S1": Fraction(-6),
        "S0": Fraction(4),
    }
    n2 = {
        "1": Fraction(8),
        "k": Fraction(-8),
        "k2": Fraction(2),
        # -(S2 - 4*S1 + 4*S0)
        "S2": Fraction(-1),
        "S1": Fraction(4),
        "S0": Fraction(-4),
    }
    return FormalExpr({2: n2, 1: n1, 0: n0})


@cache
def unreduced_margin(n0: int) -> FormalExpr:
    """3*e - K^2 at n = n0, before the k^2 elimination (degree 0 in n).
    Cached per n0, like the margin below; the result is frozen, its terms read-only."""
    if n0 < 2:
        raise ValueError("cover order must be >= 2")
    return (euler_expr().scale(3) - canonical_square_expr()).eval_n(n0)


@cache
def miyaoka_yau_margin(n0: int) -> FormalExpr:
    """Reduced Miyaoka-Yau margin at n = n0: a linear form over
    {1, k, t2, S0, S1, S2} whose nonnegativity is the cover constraint."""
    return unreduced_margin(n0).reduce_common_point_identity()


def reduced_margin_closed_form() -> FormalExpr:
    """4*(9 + k + t2 - sum_{r>=3}(r-4) t_r), the expected margin at n = 3."""
    return FormalExpr.from_constant(
        {"1": 36, "k": 4, "t2": 4, "S0": 16, "S1": -4}
    )


def margin_on_profile(profile: ConfigurationProfile, n0: int) -> Fraction:
    """Numeric reduced margin of a validating (1,1)-curve profile."""
    if profile.curve_class.kind is not CurveKind.ONE_ONE_QUADRIC:
        raise ValueError(
            "cover margins are defined for (1,1)-curve configurations, got "
            + profile.curve_class.label()
        )
    require_valid(profile)
    return miyaoka_yau_margin(n0).evaluate(symbol_values(profile.k, profile.t))


def direct_euler_value(k: int, t: Mapping[int, int], n: int) -> Fraction:
    """Independent arithmetic evaluation of e(Y)/n^(k-3) from raw moments."""
    f0 = sum(t.values())
    f1 = sum(r * c for r, c in t.items())
    t2 = t.get(2, 0)
    return Fraction(
        n * n * (4 - 2 * k + f1 - f0) + 2 * n * (k + f0 - f1) + f1 - t2
    )


def direct_canonical_square_value(k: int, t: Mapping[int, int], n: int) -> Fraction:
    """Independent arithmetic evaluation of K_Y^2/n^(k-3) from raw sums."""
    c0 = 2 * k * k - sum(c * (1 - r) ** 2 for r, c in t.items() if r >= 3)
    c1 = (
        8 * k
        - 4 * k * k
        - sum(c * (-2 * r * r + 6 * r - 4) for r, c in t.items() if r >= 3)
    )
    c2 = 8 - 8 * k + 2 * k * k - sum(c * (r - 2) ** 2 for r, c in t.items() if r >= 3)
    return Fraction(c0 + n * c1 + n * n * c2)


def quadric_identity_holds(k: int, t: Mapping[int, int]) -> bool:
    """sum_r r(r-1) t_r == 2k(k-1), the quadric incidence identity."""
    return sum(r * (r - 1) * c for r, c in t.items()) == 2 * k * (k - 1)

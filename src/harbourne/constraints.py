"""Inequality predicates for configuration profiles.

Three families live here:

* the integer positivity quadratic for conic configurations without a
  common point (all k conics through one point), certified over all of Z
  by a vertex check;
* a Hirzebruch-type inequality for (1,1)-curve configurations on the
  smooth quadric, with per-point deficiency summand (r-4)*t_r;
* the t_k case classifier for conic configurations, attaching the exact
  negativity bound each case carries.

The two filters are defined once, as integer functions of
(k, f0, f1, t2): :func:`lt_coefficients` with :func:`lt_holds`, and
:func:`hirz11_margin`.  The profile predicates wrap them, and the search
reads them directly on moment states.

Hypotheses are hard gates: applying a predicate outside them raises
instead of silently skipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hconst import local_h
from .profiles import (
    ONE_ONE,
    ConfigurationProfile,
    CurveKind,
    HarbourneError,
    moments,
    require_valid,
    validate,
)


class HypothesisNotMet(HarbourneError):
    """A predicate was applied outside its hypotheses."""


@dataclass(frozen=True)
class QuadraticConstraint:
    """Integer quadratic a*x^2 + b*x + c that is claimed nonnegative on Z."""

    a: int
    b: int
    c: int

    def value(self, x: int) -> int:
        return self.a * x * x + self.b * x + self.c


@dataclass(frozen=True)
class IntegerCheck:
    holds: bool
    witness_x: int | None = None
    witness_value: int | None = None


@dataclass(frozen=True)
class HirzebruchCheck:
    lhs: int
    rhs: int
    holds: bool
    note: str


class CaseTag(Enum):
    TK0 = "TK0"
    TK1_OPEN = "TK1_open"
    TK2 = "TK2"
    TK3 = "TK3"
    TK4 = "TK4"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class CaseBound:
    """Negativity bound attached to a t_k case of a conic configuration."""

    case_tag: CaseTag
    bound: Fraction | None
    provenance: str


def lt_coefficients(k: int, f0: int, f1: int, t2: int) -> tuple[int, int, int]:
    """Coefficients (a, b, c) of the positivity quadratic of a conic
    configuration with moments f0, f1 and t2 double points."""
    return 2 * k + f0, 2 * (3 * k - f1 + 2 * f0), 4 * (f0 - t2)


def lt_holds(k: int, f0: int, f1: int, t2: int) -> bool:
    """Whether the positivity quadratic is >= 0 at every integer."""
    return _integer_minimum(*lt_coefficients(k, f0, f1, t2))[1] >= 0


def hirz11_margin(k: int, f0: int, f1: int, t2: int) -> int:
    """lhs - rhs of :func:`hirzebruch_one_one`: 9 + k + t2 + t3 -
    sum_{r>=5} (r-4) t_r, where sum_{r>=2} (r-4) t_r = f1 - 4*f0."""
    return 9 + k - t2 + 4 * f0 - f1


def _integer_minimum(a: int, b: int, c: int) -> tuple[int, int]:
    """(x, F(x)) at the least value of F = a*x^2 + b*x + c on Z, a > 0.

    It sits at an integer nearest the real vertex -b/2a; on a tie the
    first of the two in set order is kept.
    """
    best = None
    for x in {-b // (2 * a), -(b // (2 * a))}:
        value = (a * x + b) * x + c
        if best is None or value < best[1]:
            best = x, value
    return best


def positivity_quadratic(profile: ConfigurationProfile) -> QuadraticConstraint:
    """Quadratic in x that is nonnegative over Z for transversal conic
    configurations with k >= 3 and no k-fold point."""
    _require_conic_tk0(profile)
    ms = moments(profile)
    return QuadraticConstraint(
        *lt_coefficients(profile.k, ms.f0, ms.f1, profile.t_of(2))
    )


def holds_over_integers(q: QuadraticConstraint) -> IntegerCheck:
    """Decide F(x) >= 0 for every integer x, with a witness on failure.

    With a > 0 it suffices to test the two integers nearest the real
    vertex -b/2a; a <= 0 cannot be certified this way and is rejected.
    """
    if q.a <= 0:
        raise HypothesisNotMet(
            f"leading coefficient must be positive, got {q.a}"
        )
    x, value = _integer_minimum(q.a, q.b, q.c)
    if value >= 0:
        return IntegerCheck(holds=True)
    return IntegerCheck(holds=False, witness_x=x, witness_value=value)


def positivity_at_one(profile: ConfigurationProfile) -> tuple[int, bool]:
    """The x = 1 instantiation 8k - 2f1 - 4t_2 + 9f0 of the positivity
    quadratic, evaluated exactly."""
    _require_conic_tk0(profile)
    ms = moments(profile)
    value = 8 * profile.k - 2 * ms.f1 - 4 * profile.t_of(2) + 9 * ms.f0
    q = positivity_quadratic(profile)
    if value != q.value(1):
        raise AssertionError(
            f"x=1 instantiation {value} disagrees with F(1) = {q.value(1)}"
        )
    return value, value >= 0


def hirzebruch_one_one(profile: ConfigurationProfile) -> HirzebruchCheck:
    """Hirzebruch-type inequality 9 + k + t_2 + t_3 >= sum_{r>=5} (r-4) t_r
    for k >= 4 irreducible (1,1)-curves on the quadric with t_k = 0."""
    if profile.curve_class.kind is not CurveKind.ONE_ONE_QUADRIC:
        raise HypothesisNotMet("inequality applies to (1,1)-curve configurations")
    if profile.k < 4:
        raise HypothesisNotMet(f"inequality requires k >= 4, got k={profile.k}")
    if profile.t_of(profile.k) != 0:
        raise HypothesisNotMet(
            f"inequality requires t_k = 0, got t_{profile.k} = {profile.t_of(profile.k)}"
        )
    ms = moments(profile)  # validates the profile
    t2 = profile.t_of(2)
    return HirzebruchCheck(
        lhs=9 + profile.k + t2 + profile.t_of(3),
        rhs=sum((r - 4) * c for r, c in profile.t.items() if r >= 5),
        holds=hirz11_margin(profile.k, ms.f0, ms.f1, t2) >= 0,
        note="per-point deficiency summand (r-4)*t_r; re-derived symbolically "
        "by the covers module",
    )


def classify_conic_case(profile: ConfigurationProfile) -> CaseBound:
    """Map a validating conic profile to its t_k case and negativity bound.

    Total on validating conic profiles: the common-point cap pins
    t_k to {0, 1, 2, 3, 4}.
    """
    if profile.curve_class.kind is not CurveKind.CONIC_P2:
        return CaseBound(
            CaseTag.NOT_APPLICABLE,
            None,
            f"classifier applies to conic configurations only, "
            f"got {profile.curve_class.label()}",
        )
    require_valid(profile)
    tk = profile.t_of(profile.k)

    if tk == 0:
        return CaseBound(
            CaseTag.TK0,
            Fraction(-9, 2),
            "integer positivity of the moment quadratic at x = 1 "
            "bounds (4k - f1)/f0 below by -9/2",
        )
    if tk == 4:
        report = local_h(profile)
        if report.h != 0:
            raise AssertionError(
                f"four common points force H = 0, got {report.h} for {profile}"
            )
        return CaseBound(
            CaseTag.TK4,
            Fraction(0),
            "pencil of conics through four base points; H = 0 exactly",
        )
    if tk == 3:
        return CaseBound(
            CaseTag.TK3,
            Fraction(-9, 2),
            "strict: Cremona to lines + linear bound -4",
        )
    if tk == 2:
        return _tk2_bound(profile)
    return CaseBound(
        CaseTag.TK1_OPEN,
        None,
        "open problem: a single common point is not covered by any known bound",
    )


def _tk2_bound(profile: ConfigurationProfile) -> CaseBound:
    """h >= (k + t2 - 1)/f0 - 4 for t_k = 2.

    Removing the two k-fold points leaves a (1,1)-curve configuration on
    the quadric with g0 = f0 - 2 points and g1 = f1 - 2k incidences, so
    h = (4k - f1)/f0 = (2k - g1)/(g0 + 2).  Its Hirzebruch-type inequality
    gives g1 <= 9 + k - t2 + 4*g0, hence
    h >= (k + t2 - 9 - 4*g0)/(g0 + 2) = (k + t2 - 1)/f0 - 4.
    """
    ms = moments(profile)
    if 4 * profile.k - ms.f1 >= 0:
        return CaseBound(
            CaseTag.TK2,
            Fraction(0),
            "strict-transform self-intersection is nonnegative; trivial bound 0",
        )
    _assert_induced_quadric_valid(profile)
    return CaseBound(
        CaseTag.TK2,
        Fraction(profile.k + profile.t_of(2) - 1, ms.f0) - 4,
        "chain through the induced (1,1)-configuration and its "
        "Hirzebruch-type inequality",
    )


def _assert_induced_quadric_valid(profile: ConfigurationProfile) -> None:
    induced = ConfigurationProfile(
        ONE_ONE,
        profile.k,
        {r: c for r, c in profile.t.items() if r != profile.k},
    )
    if not validate(induced).ok:
        raise AssertionError(
            f"induced (1,1)-profile of {profile} fails its identity"
        )


def _require_conic_tk0(profile: ConfigurationProfile) -> None:
    if profile.curve_class.kind is not CurveKind.CONIC_P2:
        raise HypothesisNotMet("predicate applies to conic configurations")
    if profile.k < 3:
        raise HypothesisNotMet(f"predicate requires k >= 3, got k={profile.k}")
    if profile.t_of(profile.k) != 0:
        raise HypothesisNotMet(
            f"predicate requires t_k = 0, got t_{profile.k} = "
            f"{profile.t_of(profile.k)}"
        )
    require_valid(profile)

"""Combinatorial data model for transversal curve configurations.

A configuration of k curves of a fixed class is summarised by its
multiplicity histogram t_r: the number of points at which exactly r
of the curves meet transversally.  Bezout bookkeeping forces the
incidence identity

    sum_r C(r,2) * t_r  =  gamma * C(k,2)

where gamma is the pairwise intersection number of two class members
(1 for lines, 4 for conics, d^2 for degree-d plane curves, 2 for
(1,1)-curves on the smooth quadric).  Everything downstream (H-constants,
constraint predicates, Cremona bookkeeping) consumes these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb
from types import MappingProxyType
from typing import Mapping


class HarbourneError(Exception):
    """Base class for errors raised by this package."""


class ProfileInvalidError(HarbourneError):
    """An operation required a validating profile and did not get one."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(
            "profile fails validation: "
            + "; ".join(v.message for v in report.violations)
        )


class CurveKind(Enum):
    LINE_P2 = "line-p2"
    CONIC_P2 = "conic-p2"
    PLANE_CURVE_P2 = "plane-curve-p2"
    ONE_ONE_QUADRIC = "one-one-quadric"


@dataclass(frozen=True)
class CurveClass:
    """Class of the configuration members (all members share it)."""

    kind: CurveKind
    degree: int | None = None  # only for PLANE_CURVE_P2, degree >= 3

    def __post_init__(self):
        if self.kind is CurveKind.PLANE_CURVE_P2:
            if self.degree is None or self.degree < 3:
                raise ValueError(
                    "PLANE_CURVE_P2 needs an explicit degree >= 3; "
                    "use LINES or CONICS for degrees 1 and 2"
                )
        elif self.degree is not None:
            raise ValueError(f"{self.kind.value} does not take a degree")

    @property
    def pairwise_intersection(self) -> int:
        """Bezout product of the degrees of two class members."""
        if self.kind is CurveKind.LINE_P2:
            return 1
        if self.kind is CurveKind.CONIC_P2:
            return 4
        if self.kind is CurveKind.PLANE_CURVE_P2:
            return self.degree * self.degree
        return 2  # (1,1).(1,1) on the quadric

    @property
    def member_degree(self) -> int:
        """Total degree of one member (bidegree sum for quadric curves)."""
        if self.kind is CurveKind.LINE_P2:
            return 1
        if self.kind is CurveKind.CONIC_P2:
            return 2
        if self.kind is CurveKind.PLANE_CURVE_P2:
            return self.degree
        return 2

    @property
    def is_plane(self) -> bool:
        return self.kind is not CurveKind.ONE_ONE_QUADRIC

    def self_intersection(self, k: int) -> int:
        """Self-intersection of the class divisor of k members."""
        if self.is_plane:
            return (self.member_degree * k) ** 2
        return 2 * k * k  # (k,k)^2 on the quadric

    def label(self) -> str:
        if self.kind is CurveKind.PLANE_CURVE_P2:
            return f"plane-curve-p2(degree={self.degree})"
        return self.kind.value


LINES = CurveClass(CurveKind.LINE_P2)
CONICS = CurveClass(CurveKind.CONIC_P2)
ONE_ONE = CurveClass(CurveKind.ONE_ONE_QUADRIC)


def plane_curves(degree: int) -> CurveClass:
    """Curve class of plane curves of the given degree (normalised)."""
    if degree == 1:
        return LINES
    if degree == 2:
        return CONICS
    return CurveClass(CurveKind.PLANE_CURVE_P2, degree)


# Two distinct irreducible conics share at most 4 points.
CONIC_COMMON_POINT_CAP = 4


@dataclass(frozen=True)
class ConfigurationProfile:
    """Histogram record of a configuration: class, member count, t-vector.

    ``t`` maps a multiplicity r >= 2 to the number of r-fold points.
    Construction performs structural checks only (integer types, k >= 2,
    r >= 2, counts >= 0); the mathematical invariants are the business of
    :func:`validate`, which reports violations as data.  The report and
    the :func:`moments` are kept on the object, computed on first use.
    """

    curve_class: CurveClass
    k: int
    t: Mapping[int, int] = field(default_factory=dict)
    # per-object caches, set on first use
    _report = _moments = None

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        entries = {}
        for r, count in dict(self.t).items():
            if not isinstance(r, int) or not isinstance(count, int):
                raise ValueError(f"t entries must be integers, got {r!r}: {count!r}")
            if r < 2:
                raise ValueError(f"multiplicity keys must be >= 2, got {r}")
            if count < 0:
                raise ValueError(f"count for multiplicity {r} is negative")
            if count:
                entries[r] = count
        object.__setattr__(self, "t", MappingProxyType(dict(sorted(entries.items()))))

    def t_of(self, r: int) -> int:
        return self.t.get(r, 0)

    @property
    def budget(self) -> int:
        """Right-hand side of the incidence identity."""
        return self.curve_class.pairwise_intersection * comb(self.k, 2)

    @property
    def incidence_sum(self) -> int:
        """Left-hand side of the incidence identity."""
        return sum(comb(r, 2) * c for r, c in self.t.items())

    def sorted_items(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.t.items())

    def __str__(self) -> str:
        ts = ", ".join(f"t_{r}={c}" for r, c in self.t.items()) or "no singular points"
        return f"{self.curve_class.label()}, k={self.k}, {ts}"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    lhs: int | None = None
    rhs: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


def validate(profile: ConfigurationProfile) -> ValidationReport:
    """Check every profile invariant; violations are reported, not raised.
    The report is computed once per profile object."""
    if profile._report is None:
        object.__setattr__(profile, "_report", _check(profile))
    return profile._report


def _check(profile: ConfigurationProfile) -> ValidationReport:
    bad: list[Violation] = []

    out_of_range = sorted(r for r in profile.t if r > profile.k)
    if out_of_range:
        bad.append(
            Violation(
                "multiplicity-range",
                f"multiplicities {out_of_range} exceed the curve count k={profile.k}",
            )
        )

    if not profile.t:
        bad.append(
            Violation(
                "no-multiple-points",
                f"k={profile.k} >= 2 curves must meet somewhere; t-vector is empty",
            )
        )

    lhs = profile.incidence_sum
    rhs = profile.budget
    if lhs != rhs:
        bad.append(
            Violation(
                "incidence-identity",
                f"sum C(r,2)*t_r = {lhs} != {rhs} = "
                f"{profile.curve_class.pairwise_intersection}*C({profile.k},2)",
                lhs=lhs,
                rhs=rhs,
            )
        )

    if profile.curve_class.kind is CurveKind.CONIC_P2:
        tk = profile.t_of(profile.k)
        if tk > CONIC_COMMON_POINT_CAP:
            bad.append(
                Violation(
                    "conic-common-point-cap",
                    f"t_k = {tk} > {CONIC_COMMON_POINT_CAP}: two distinct irreducible "
                    "conics share at most 4 points",
                    lhs=tk,
                    rhs=CONIC_COMMON_POINT_CAP,
                )
            )

    return ValidationReport(ok=not bad, violations=tuple(bad))


def require_valid(profile: ConfigurationProfile) -> None:
    """Raise ProfileInvalidError unless the profile validates."""
    report = validate(profile)
    if not report.ok:
        raise ProfileInvalidError(report)


@dataclass(frozen=True)
class MomentSet:
    """Power sums f_i = sum_r r^i * t_r of a multiplicity histogram."""

    f0: int
    f1: int
    f2: int


def moments(profile: ConfigurationProfile) -> MomentSet:
    """Exact moments of a validating profile, computed once per object."""
    if profile._moments is None:
        require_valid(profile)
        items = profile.t.items()
        ms = MomentSet(
            f0=sum(c for _, c in items),
            f1=sum(r * c for r, c in items),
            f2=sum(r * r * c for r, c in items),
        )
        object.__setattr__(profile, "_moments", ms)
    return profile._moments

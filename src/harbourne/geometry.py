"""Coordinate-level configurations over an exact field.

Curves are lines a*X + b*Y + c*Z and conics
a*X^2 + b*Y^2 + c*Z^2 + d*XY + e*XZ + f*YZ with coefficients in an
:class:`~harbourne.exactfield.ExactField`.  A conic is read through its
doubled matrix S = ((2a, d, e), (d, 2b, f), (e, f, 2c)), whose entries
are the coefficients themselves: S p is the gradient at p and p^T S q
the polarization.  Conics are required to be irreducible (det S != 0),
so every curve here is smooth and local intersection data is well
defined.

Intersection points are only ever reported with coordinates in the
declared field; there is no automatic field extension.  When the
in-field points do not account for the full Bezout count the operation
fails with IntersectionOutsideField, and the caller picks a larger field
explicitly.  Conic pairs are intersected by pencil degeneration: the
degenerate members are the roots of the closed-form binary cubic
det(lam*Sf + mu*Sg).  The common points of two members that split over
the field are the crossings of their lines, counted per crossing; of
one, where its lines meet the first conic.  When no member splits, at
most one common point is in the field, and it is simple.  The
closed-form resultant of the first coordinate projection that does not
vanish identically finds it: the line from the projection centre to each
in-field root of the resultant meets the first conic, and a point of it
on the second conic is the lone point.
A point is stored canonical, first nonzero coordinate 1, with one
integer key that equality and hashing compare: over Q its primitive
integer vector, over a number field the (num, den) of its coordinates.
No field inverse is taken here outside the construction of a point over
a number field, and over Q the order of a point list comes from its
integers alone.  Cross products and two-term sums are one
:func:`~harbourne.exactfield.minor` or :func:`~harbourne.exactfield.dot`
per coordinate.  Intersections, completions, incidence tests and the
distinctness check read only vectors: a point's :meth:`ProjPoint.vector`
and its monomials, a curve's coefficient vector and a conic's S of that
vector, kept from construction.  Over Q these are a point's primitive
integer vector and a curve's coefficients over their lcm, so the forms
are int sums, and a line crossing or completed point is built from its
integers with no inverse; over a number field they are the coordinates
and coefficients.  The field is told apart only where the vectors are
built.  :func:`extract_profile` lists each point with every curve
through it, keyed by the point, when a pair first finds it.  A pair with
as many listed common points as its Bezout number is skipped, a conic
pair with three is completed where the lines of two split pencil members
cross, and any other pair is intersected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .exactfield import (
    ExactField,
    FieldElement,
    FieldError,
    _element,
    dot,
    minor,
    roots_in_field,
)
from .profiles import (
    CONICS,
    ConfigurationProfile,
    HarbourneError,
    LINES,
    validate,
)


class GeometryError(HarbourneError):
    pass


class IntersectionOutsideField(GeometryError):
    """In-field intersection points fall short of the Bezout count."""

    def __init__(self, message, found, expected):
        self.found = found
        self.expected = expected
        super().__init__(message)


class NonTransversalIntersection(GeometryError):
    def __init__(self, message, pair, point):
        self.pair = pair
        self.point = point
        super().__init__(message)


class MixedClassesError(GeometryError):
    pass


class DegreeOutOfRangeError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Point of the projective plane, stored canonical: its first nonzero
    coordinate is 1.

    Equality and hashing compare one integer key fixed at construction.
    Over Q it is the primitive integer vector, first nonzero entry
    positive, which is also :meth:`vector`, and the coordinates are x_i /
    x_first with no inverse taken.  Over a number field it is the (num,
    den) of each coordinate, after one inverse unless the lead coordinate
    is already 1, and :meth:`vector` is the coordinates.  The
    :meth:`monomials` are computed on first use.
    """

    coords: tuple[FieldElement, FieldElement, FieldElement]
    _key = _vec = _mono = None

    def __post_init__(self):
        coords = self.coords
        if len(coords) != 3:
            raise ValueError("a projective point has three coordinates")
        field = coords[0].field
        if any(c.field is not field and c.field != field for c in coords):
            raise GeometryError("coordinates must share one field")
        if all(c.is_zero() for c in coords):
            raise ValueError("(0:0:0) is not a projective point")
        if field.is_rational:
            den = lcm(*(c.den for c in coords))
            _set_vector(self, field, tuple(c.num[0] * (den // c.den) for c in coords))
            return
        lead = next(c for c in coords if c)
        if lead.den != 1 or lead.num[0] != 1 or any(lead.num[1:]):  # lead is not 1
            inv = lead.inverse()
            coords = tuple(x * inv for x in coords)
            object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_key", tuple((c.num, c.den) for c in coords))
        object.__setattr__(self, "_vec", coords)

    @property
    def field(self) -> ExactField:
        return self.coords[0].field

    def vector(self) -> tuple:
        """Over Q the primitive integer vector, over a number field the
        coordinates: what incidence tests and intersections read."""
        return self._vec

    def monomials(self) -> tuple:
        """x^2, y^2, z^2, xy, xz, yz of :meth:`vector`, in conic coefficient
        order, computed once."""
        if self._mono is None:
            object.__setattr__(self, "_mono", _monomials(*self._vec))
        return self._mono

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.field != other.field:
            return False
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"ProjPoint{self}"


def _set_vector(p: ProjPoint, field: ExactField, v: Sequence[int]) -> None:
    """Store on p, over Q, the point of the nonzero integer vector v: v
    divided by its content and signed so its first nonzero entry is
    positive is the key and the vector, and the coordinates are its
    entries over that first one."""
    first = next(x for x in v if x)
    g = gcd(*v) if first > 0 else -gcd(*v)
    vec = tuple(x // g for x in v)
    object.__setattr__(p, "coords", tuple(_element(field, (x,), first // g) for x in vec))
    object.__setattr__(p, "_key", vec)
    object.__setattr__(p, "_vec", vec)


def point(field: ExactField, x, y, z) -> ProjPoint:
    return ProjPoint((field.element(x), field.element(y), field.element(z)))


def _point_from_vector(field: ExactField, v: Sequence) -> ProjPoint:
    """The point of a nonzero vector: over Q of ints, whose canonical
    coordinates are built once, with no inverse; over a number field of
    coordinates."""
    if not field.is_rational:
        return ProjPoint(tuple(v))
    p = object.__new__(ProjPoint)
    _set_vector(p, field, v)
    return p


def _monomials(x, y, z) -> tuple:
    return (x * x, y * y, z * z, x * y, x * z, y * z)


def cross(u: Sequence[FieldElement], v: Sequence[FieldElement]):
    return (
        minor(u[1], v[2], u[2], v[1]),
        minor(u[2], v[0], u[0], v[2]),
        minor(u[0], v[1], u[1], v[0]),
    )


def _in_order(pts: list[tuple[ProjPoint, int]]) -> list[tuple[ProjPoint, int]]:
    """(point, multiplicity) pairs sorted by the coefficients of their
    canonical coordinates, compared as integers over one common
    denominator."""
    den = lcm(*(c.den for pt, _ in pts for c in pt.coords))
    return sorted(pts, key=lambda pm: [n * (den // c.den) for c in pm[0].coords for n in c.num])


# ---------------------------------------------------------------------------
# curves


class CurveForm(Enum):
    LINE = "line"
    CONIC = "conic"


@dataclass(frozen=True, eq=False)
class PlaneCurve:
    """Line a*X+b*Y+c*Z or conic a*X^2+b*Y^2+c*Z^2+d*XY+e*XZ+f*YZ.

    Intersections read the vector set at construction, over Q the
    coefficients over their lcm as ints, and a conic's one matrix S of it.
    """

    form: CurveForm
    coeffs: tuple[FieldElement, ...]
    _vec = _vmat = None

    def __post_init__(self):
        expected = 3 if self.form is CurveForm.LINE else 6
        if len(self.coeffs) != expected:
            raise ValueError(f"{self.form.value} takes {expected} coefficients")
        first = self.coeffs[0].field
        if any(c.field is not first and c.field != first for c in self.coeffs):
            raise GeometryError("coefficients must share one field")
        if all(c.is_zero() for c in self.coeffs):
            raise ValueError("zero coefficient vector")
        vec = self.coeffs
        if first.is_rational:
            den = lcm(*(c.den for c in vec))
            vec = tuple(c.num[0] * (den // c.den) for c in vec)
        object.__setattr__(self, "_vec", vec)
        if self.form is CurveForm.CONIC:
            s = _doubled(*vec)
            if not det3(s):
                raise GeometryError(
                    "conic is degenerate (zero determinant), hence reducible; "
                    "only irreducible conics are supported"
                )
            object.__setattr__(self, "_vmat", s)

    @property
    def field(self) -> ExactField:
        return self.coeffs[0].field

    @property
    def degree(self) -> int:
        return 1 if self.form is CurveForm.LINE else 2

    def evaluate(self, p: ProjPoint) -> FieldElement:
        if self.form is CurveForm.LINE:
            return dot(self.coeffs, p.coords)
        return dot(self.coeffs, _monomials(*p.coords))

    def gradient(self, p: ProjPoint) -> tuple[FieldElement, ...]:
        """S p for a conic; the coefficients for a line."""
        if self.form is CurveForm.LINE:
            return self.coeffs
        return mat_vec(_doubled(*self.coeffs), p.coords)

    def __str__(self):
        return f"{self.form.value}[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"PlaneCurve({self})"


def _doubled(a, b, c, d, e, f) -> Mat3:
    return ((a + a, d, e), (d, b + b, f), (e, f, c + c))


def line(field: ExactField, a, b, c) -> PlaneCurve:
    return PlaneCurve(CurveForm.LINE, tuple(field.element(v) for v in (a, b, c)))


def conic(field: ExactField, a, b, c, d, e, f) -> PlaneCurve:
    return PlaneCurve(
        CurveForm.CONIC, tuple(field.element(v) for v in (a, b, c, d, e, f))
    )


def _same_field(a, b) -> None:
    """Refuse two objects over different fields, as field arithmetic would."""
    if a.field is not b.field and a.field != b.field:
        raise FieldError("cannot mix elements of different fields")


def proportional(c1: PlaneCurve, c2: PlaneCurve) -> bool:
    """Same form and proportional coefficients, read off the vectors."""
    if c1.form is not c2.form:
        return False
    _same_field(c1, c2)
    u, v = c1._vec, c2._vec
    return not any(minor(u[i], v[j], u[j], v[i]) for i, j in combinations(range(len(u)), 2))


@dataclass(frozen=True, eq=False)
class GeometricConfiguration:
    field: ExactField
    curves: tuple[PlaneCurve, ...]

    def __post_init__(self):
        for c in self.curves:
            if c.field != self.field:
                raise GeometryError("curve field differs from configuration field")
        for a, b in combinations(self.curves, 2):
            if proportional(a, b):
                raise GeometryError(f"curves must be pairwise distinct: {a} ~ {b}")


def incident(curve: PlaneCurve, p: ProjPoint) -> bool:
    """evaluate(p) is zero, tested on the vectors: over Q an int sum."""
    _same_field(curve, p)
    v = p.vector() if curve.form is CurveForm.LINE else p.monomials()
    return not dot(curve._vec, v)


# ---------------------------------------------------------------------------
# 3x3 exact linear algebra (enough for conic matrices and basis changes)

Mat3 = tuple[tuple[FieldElement, ...], ...]


def det3(m: Mat3) -> FieldElement:
    return dot(m[0], cross(m[1], m[2]))


def mat_vec(m: Mat3, v: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    cols = transpose(b)
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def transpose(m: Mat3) -> Mat3:
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def adjugate3(m: Mat3) -> Mat3:
    """Column j is the cross product of the rows other than j, in cyclic
    order, so that m * adj m = det m * I."""
    return transpose((cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])))


def kernel_vector(m: Mat3) -> tuple[FieldElement, ...] | None:
    """A nonzero kernel vector of a singular 3x3 matrix, if rank is 2."""
    adj = adjugate3(m)
    for col in range(3):
        v = tuple(adj[row][col] for row in range(3))
        if any(not c.is_zero() for c in v):
            return v
    return None  # rank <= 1


# ---------------------------------------------------------------------------
# binary forms (homogeneous in two variables; index = power of the first)


def bf_mul(a: Sequence[FieldElement], b: Sequence[FieldElement]):
    zero = a[0].field.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def binary_form_roots(coeffs: Sequence[FieldElement], field: ExactField):
    """Roots in P^1(K) of a binary form, with multiplicities.

    Returns (roots, found_total) where roots is a list of
    ((t, u), multiplicity) pairs and found_total counts multiplicity over
    the in-field roots; the form's degree minus found_total is the part
    living in proper extensions.  Coefficients may be ints.
    """
    coeffs = [field.element(c) for c in coeffs]
    degree = len(coeffs) - 1
    if all(c.is_zero() for c in coeffs):
        raise ValueError("zero binary form")
    lo = 0
    while coeffs[lo].is_zero():
        lo += 1
    hi = degree
    while coeffs[hi].is_zero():
        hi -= 1
    roots = []
    if lo:  # factor t^lo: root (0:1)
        roots.append(((field.zero(), field.one()), lo))
    if hi < degree:  # factor u^(degree-hi): root (1:0)
        roots.append(((field.one(), field.zero()), degree - hi))
    middle = list(coeffs[lo : hi + 1])
    if len(middle) > 1:
        for root, mult in roots_in_field(middle, field):
            roots.append(((root, field.one()), mult))
    found = sum(m for _, m in roots)
    return roots, found


# ---------------------------------------------------------------------------
# intersection


def intersect(c1: PlaneCurve, c2: PlaneCurve) -> list[tuple[ProjPoint, int]]:
    """All in-field intersection points with local multiplicities.

    Multiplicities sum to the Bezout product of the degrees; a shortfall
    raises IntersectionOutsideField carrying whatever was found.
    """
    if c1.field != c2.field:
        raise GeometryError("curves live over different fields")
    if c1.form is CurveForm.LINE and c2.form is CurveForm.LINE:
        # two lines are proportional exactly when their cross product is zero
        v = cross(c1._vec, c2._vec)
        if not any(v):
            raise GeometryError("curves must not be proportional")
        return [(_point_from_vector(c1.field, v), 1)]
    if proportional(c1, c2):
        raise GeometryError("curves must not be proportional")
    if c1.form is CurveForm.CONIC and c2.form is CurveForm.CONIC:
        return _conic_conic(c1, c2)
    l, q = (c1, c2) if c1.form is CurveForm.LINE else (c2, c1)
    pts, found = _line_conic(l, q)
    if found < 2:
        raise IntersectionOutsideField(
            f"line/conic meet in {found} in-field point(s) of 2 over "
            f"{l.field.label()}",
            found=pts,
            expected=2,
        )
    return pts


def _span_of_line(v: Sequence) -> tuple[tuple, tuple]:
    """Two vectors spanning the line with coefficient vector v."""
    a, b, c = v
    if a:
        return (-b, a, 0), (-c, 0, a)
    if b:
        return (1, 0, 0), (0, -c, b)
    return (1, 0, 0), (0, 1, 0)


def _conic_bilinear(c: PlaneCurve, p: ProjPoint, q: ProjPoint) -> FieldElement:
    """p^T S q = Q(p+q) - Q(p) - Q(q), the polarization of the conic."""
    return dot(p.coords, mat_vec(_doubled(*c.coeffs), q.coords))


def _line_conic(l: PlaneCurve, q: PlaneCurve) -> tuple[list[tuple[ProjPoint, int]], int]:
    """The in-field points where line l meets conic q, in the order of
    :func:`_in_order`, with their multiplicities, and the total of those
    multiplicities (2 when both points are in the field).  The line is
    spanned by two vectors a, b built from its vector, and q(t*a + u*b) is
    read off q's vector and S."""
    a, b = _span_of_line(l._vec)
    # q(t*a + u*b) = alpha t^2 + beta t u + gamma u^2
    alpha, gamma = (dot(q._vec, _monomials(*v)) for v in (a, b))
    beta = dot(a, mat_vec(q._vmat, b))
    roots, found = binary_form_roots([gamma, beta, alpha], l.field)
    pts = [
        (ProjPoint(tuple(dot((t, u), xy) for xy in zip(a, b))), mult)
        for (t, u), mult in roots
    ]
    return _in_order(pts), found


def _conic_conic(f: PlaneCurve, g: PlaneCurve) -> list[tuple[ProjPoint, int]]:
    """In-field base points of the pencil spanned by f and g, with their
    local intersection multiplicities.

    The degenerate members h = lam*f + mu*g are the roots of the binary
    cubic det(lam*Sf + mu*Sg), and mu != 0 since f is nondegenerate.  So
    I_P(f, g) = I_P(f, h), and I_P is additive over the components of h
    (Fulton, *Algebraic Curves*, 3.3).  Two split members h1 = L1*L2 and
    h2 = L3*L4 span the pencil and share no line, which f would contain,
    so I_P(f, g) = I_P(h1, h2) counts the pairs (i, j) with Li x Lj = P,
    a double line twice.  With h1 alone split, as for contacts (3,1) and
    (4) or base points outside the field, I_P = I_P(f, L1) + I_P(f, L2).

    When no member splits, at most one base point is in the field and it
    is simple.  Galois permutes the base points and keeps their
    multiplicities.  If two base points P, Q are in the field, the other
    two form a Galois-stable pair R, S, and the member PQ*RS splits.  For
    multiplicities (2,1,1), (3,1) and (4), P is the only point of its
    multiplicity, so it is in the field with its common tangent T, and
    T*QR, T*PQ and T^2 split; for (2,2) the double line PQ^2 splits.  So
    the other three base points form one Galois orbit, and a resultant
    projection finds the lone point, if any.

    The cubic and the members are taken from the conics' stored S, over Q
    integer matrices, and a crossing Li x Lj from the lines' vectors.
    """
    field = f.field
    sf, sg = f._vmat, g._vmat

    def member(lam: FieldElement, mu: FieldElement) -> Mat3:
        return tuple(tuple(dot((lam, mu), st) for st in zip(*rows)) for rows in zip(sf, sg))

    def trace(adj: Mat3, s: Mat3) -> FieldElement:
        """tr(adj * s) for a symmetric s."""
        return dot(adj[0] + adj[1] + adj[2], s[0] + s[1] + s[2])

    # det(lam*Sf + mu*Sg) = lam^3 det Sf + lam^2 mu tr(adj Sf Sg)
    #                       + lam mu^2 tr(Sf adj Sg) + mu^3 det Sg
    cubic = [det3(sg), trace(adjugate3(sg), sf), trace(adjugate3(sf), sg), det3(sf)]
    roots, _ = binary_form_roots(cubic, field)
    # once one member splits and one does not, not every base point is in
    # the field, so no second member can split
    split, failed = [], False
    for (lam, mu), _ in roots:
        lines = _split_degenerate(member(lam, mu), field)
        if lines:
            split.append(lines)
        failed = failed or not lines
        if split and len(split) + failed == 2:
            break

    if not split:
        pts = [(pt, 1) for pt in _resultant_candidates(f, g)]
        if len(pts) > 1:
            raise AssertionError("no member splits, yet two base points are in K")
    else:
        if len(split) == 2:
            on_lines = [(_point_from_vector(field, cross(a._vec, b._vec)), 1)
                        for a in split[0] for b in split[1]]
        else:
            on_lines = [pm for l in split[0] for pm in _line_conic(l, f)[0]]
        hits: dict[ProjPoint, int] = {}
        for pt, mult in on_lines:
            hits[pt] = hits.get(pt, 0) + mult
        if not all(incident(f, pt) and incident(g, pt) for pt in hits):
            raise AssertionError("split pencil members meet off the base points")
        pts = _in_order(list(hits.items()))

    if not pts:
        raise IntersectionOutsideField(
            f"conic pair has no in-field intersection point of 4 over "
            f"{field.label()}",
            found=[],
            expected=4,
        )
    found = sum(m for _, m in pts)
    if found < 4:
        raise IntersectionOutsideField(
            f"conic pair meets in {found} in-field point(s) of 4 over "
            f"{field.label()}",
            found=pts,
            expected=4,
        )
    return pts


def _complete_pair(
    f: PlaneCurve, g: PlaneCurve, known: Sequence[ProjPoint]
) -> list[tuple[ProjPoint, int]]:
    """intersect(f, g) for two conics with three known distinct common
    points P1, P2, P3, by the pencil argument of
    :func:`_conic_conic` with no root finding.

    R = P1 + P2 lies on the line L = P1 x P2, and not on f, which would
    otherwise contain L.  As f(P1) = f(P2) = 0, f(R) = P1^T Sf P2, and
    likewise g(R).  So h = g(R)*f - f(R)*g vanishes at three points of L
    and splits as L*M, with M through P3, which is not on L.  M is then
    the tangent of h at P3, with coefficients S_h P3 = g(R)*Sf P3 -
    f(R)*Sg P3.  Since I_P(f, g) = I_P(f, h) = I_P(f, L) + I_P(f, M)
    (Fulton, *Algebraic Curves*, 3.3), L adds 1 at P1 and at P2, and M
    adds 1 at P3 and at its second point X on f.  Likewise R' = P1 + P3
    gives the line M' = g(R')*Sf P2 - f(R')*Sg P2 through P2 and X.  M and
    M' differ, or P2, P3 and X would lie on one line meeting f three
    times, so X = M x M', whichever known point it may be.  All of this is
    taken on the vectors of the points and conics.
    """
    p1, p2, p3 = known
    fp2, gp2, fp3, gp3 = (mat_vec(c._vmat, p.vector()) for p in (p2, p3) for c in (f, g))
    v1 = p1.vector()
    fr, gr, fr3, gr3 = (dot(v1, grad) for grad in (fp2, gp2, fp3, gp3))
    m = [minor(gr, a, fr, b) for a, b in zip(fp3, gp3)]
    m3 = [minor(gr3, a, fr3, b) for a, b in zip(fp2, gp2)]
    x = _point_from_vector(f.field, cross(m, m3))
    if not (incident(f, x) and incident(g, x)):
        raise AssertionError("pencil lines of a completed pair cross off the base points")
    hits = {p: 1 for p in known}
    hits[x] = hits.get(x, 0) + 1
    return _in_order(list(hits.items()))


def _split_degenerate(m: Mat3, field: ExactField) -> list[PlaneCurve] | None:
    """Split a singular conic matrix into its (one or two) lines over the
    field; None when the lines only exist over an extension."""
    v = kernel_vector(m)
    if v is None:
        # rank 1: double line, read off a nonzero row
        for i in range(3):
            if not m[i][i].is_zero():
                coeffs = tuple(m[i][j] for j in range(3))
                l = PlaneCurve(CurveForm.LINE, coeffs)
                return [l, l]
        return None  # rank-1 with zero diagonal cannot occur for symmetric m
    # rank 2: lines through the kernel point v.  With c the last coordinate
    # where v is nonzero, the unit vectors e_a, e_b (a < b) of the other two
    # complete v to a basis, and m restricted to their span is the binary
    # quadratic m[a][a] s^2 + 2 m[a][b] s w + m[b][b] w^2.
    c = next(i for i in (2, 1, 0) if not v[i].is_zero())
    a, b = (i for i in range(3) if i != c)
    roots, found = binary_form_roots([m[b][b], m[a][b] * 2, m[a][a]], field)
    if found < 2:
        return None
    lines = []
    for (s, w), mult in roots:
        direction = [field.zero()] * 3
        direction[a], direction[b] = s, w
        coeffs = cross(v, direction)
        l = PlaneCurve(CurveForm.LINE, coeffs)
        lines.extend([l] * mult)
    return lines


def _quadratic_resultant(fc, gc):
    """Resultant in the eliminated variable of two quadratics whose
    coefficients are binary forms (low to high), by the 2x2 Bezout closed
    form (a0*b2 - a2*b0)^2 - (a0*b1 - a1*b0)*(a1*b2 - a2*b1): a binary
    quartic."""
    (a0, a1, a2), (b0, b1, b2) = fc, gc

    def minor(x, y, u, v):
        return [p - q for p, q in zip(bf_mul(x, y), bf_mul(u, v))]

    d02 = minor(a0, b2, a2, b0)
    return minor(d02, d02, minor(a0, b1, a1, b0), minor(a1, b2, a2, b1))


def _conic_var_coeffs(c: PlaneCurve, var: int):
    """Conic as a polynomial in coordinate ``var`` with binary-form
    coefficients in the two remaining coordinates (in increasing index
    order)."""
    a, b, cc, d, e, f = c.coeffs
    if var == 2:  # in Z; forms in (X, Y), index = power of X
        return [[b, d, a], [f, e], [cc]]
    if var == 1:  # in Y; forms in (X, Z)
        return [[cc, e, a], [f, d], [b]]
    # in X; forms in (Y, Z)
    return [[cc, f, b], [e, d], [a]]


def _resultant_candidates(f: PlaneCurve, g: PlaneCurve) -> list[ProjPoint]:
    """In-field common points via the first coordinate projection whose
    resultant is not identically zero.  The resultant vanishes identically
    only when both conics pass through the projection centre, so that
    projection sees every common point, the centre excepted, each over its
    own root: on the line from the centre through that root, among the
    points where it meets f."""
    field = f.field
    for var in (2, 1, 0):
        res = _quadratic_resultant(_conic_var_coeffs(f, var), _conic_var_coeffs(g, var))
        if not all(c.is_zero() for c in res):
            break
    roots, _found = binary_form_roots(res, field)
    a, b = (i for i in range(3) if i != var)
    out: list[ProjPoint] = []
    for (t, u), _mult in roots:
        # the line u*x_a - t*x_b = 0 through the centre and the root (t:u)
        coeffs = [field.zero()] * 3
        coeffs[a], coeffs[b] = u, -t
        on_line, _ = _line_conic(PlaneCurve(CurveForm.LINE, tuple(coeffs)), f)
        out.extend(pt for pt, _ in on_line if incident(g, pt))
    return out


# ---------------------------------------------------------------------------
# transversality and profile extraction


def transversal_at(c1: PlaneCurve, c2: PlaneCurve, p: ProjPoint) -> bool:
    """True iff both curves are smooth at p with distinct tangents."""
    if not (incident(c1, p) and incident(c2, p)):
        raise GeometryError("point does not lie on both curves")
    g1 = c1.gradient(p)
    g2 = c2.gradient(p)
    if all(c.is_zero() for c in g1) or all(c.is_zero() for c in g2):
        return False
    return not all(c.is_zero() for c in cross(g1, g2))


def extract_profile(config: GeometricConfiguration) -> ConfigurationProfile:
    """Multiplicity histogram of a transversal configuration.

    Requires every pairwise intersection to be in-field and transversal;
    the resulting profile must satisfy its incidence identity (Bezout),
    so a validation failure aborts as an internal error.

    Pairs are taken in lexicographic order.  When a pair (i, j) first
    finds a point P, by intersection or by completion, each later curve
    m > j is evaluated at P once, and P is listed with {i, j} and the m
    that vanish there.  That set is exact: were P on a curve m < j other
    than i, the earlier pair (m, i) or (i, m) would have found P, as it
    was intersected, completed (which gives all its common points) or
    skipped (which needs all of them listed).  So a pair's known common points are
    the listed points with both its curves.

    A pair with its Bezout number of known points, 4 for two conics and 1
    for two lines, is skipped.  The table is keyed by the points, which
    compare by their integer key, so the known points are distinct, and
    two distinct irreducible curves whose intersection numbers sum to the
    Bezout number, each at least 1, meet transversally at those points and
    nowhere else (Fulton, *Algebraic Curves*, 5.3).  Intersecting a
    skipped pair would return exactly those points, each with
    multiplicity 1: it could neither raise nor add a curve to a point.

    A conic pair with three known points P1, P2, P3 is completed without
    root finding (:func:`_complete_pair`): the pencil members through a
    third point of the line P1P2, and of P1P3, split as those lines times
    lines M through P3 and M' through P2 (Fulton, 3.3), which cross at the
    fourth point X, and I_P(f, g) is 1 at each known point plus 1 where
    P = X.  The list is the one intersect returns: the same canonical
    points in the same order, with the same multiplicities.  Any other
    pair is intersected.  A pair that intersect rejects as outside the
    field has at most two in-field common points, so it is intersected,
    and a tangent pair has fewer than four, so it is never skipped.  So
    the profile, and the first error with the pair and point it names,
    are those of intersecting every pair.

    The evaluations and completions read the vectors, over Q as int sums,
    and a point keeps its monomials, so they are computed once per listed
    point.
    """
    curves = config.curves
    if len(curves) < 2:
        raise GeometryError("a configuration needs at least two curves")
    forms = {c.form for c in curves}
    if len(forms) != 1:
        raise MixedClassesError("curves must be all lines or all conics")
    cls = LINES if forms == {CurveForm.LINE} else CONICS

    # the incidence table: each point maps to its curves, fixed when a pair
    # first finds it; on_i holds the rows on curve i
    bezout = curves[0].degree ** 2
    table: dict[ProjPoint, set[int]] = {}
    for i in range(len(curves)):
        on_i = [row for row in table.items() if i in row[1]]
        for j in range(i + 1, len(curves)):
            known = [pt for pt, members in on_i if j in members]
            if len(known) == bezout:
                continue
            if len(known) == 3:
                pts = _complete_pair(curves[i], curves[j], known)
            else:
                pts = intersect(curves[i], curves[j])
            for pt, mult in pts:
                if mult > 1:
                    raise NonTransversalIntersection(
                        f"curves {i} and {j} meet at {pt} with "
                        f"multiplicity {mult}",
                        pair=(i, j),
                        point=pt,
                    )
                if pt not in table:
                    later = range(j + 1, len(curves))
                    members = {i, j, *(m for m in later if incident(curves[m], pt))}
                    table[pt] = members
                    on_i.append((pt, members))

    t: dict[int, int] = {}
    for members in table.values():
        r = len(members)
        t[r] = t.get(r, 0) + 1

    profile = ConfigurationProfile(cls, len(curves), t)
    report = validate(profile)
    if not report.ok:
        raise AssertionError(
            "extracted profile fails its incidence identity: "
            + "; ".join(v.message for v in report.violations)
        )
    return profile


# ---------------------------------------------------------------------------
# the standard Cremona transformation (base points = coordinate triangle)


def _is_coordinate_vertex(p: ProjPoint) -> bool:
    return sum(1 for c in p.coords if c.is_zero()) == 2


def cremona_map_point(p: ProjPoint) -> ProjPoint:
    """(x:y:z) -> (yz:xz:xy); undefined at the three coordinate vertices."""
    if _is_coordinate_vertex(p):
        raise GeometryError("cremona map is undefined at a base point")
    x, y, z = p.coords
    return ProjPoint((y * z, x * z, x * y))


_MONO_LINE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_MONO_CONIC = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def _curve_monomials(c: PlaneCurve) -> dict[tuple[int, int, int], FieldElement]:
    monos = _MONO_LINE if c.form is CurveForm.LINE else _MONO_CONIC
    return {m: coeff for m, coeff in zip(monos, c.coeffs) if not coeff.is_zero()}


def cremona_map_curve(c: PlaneCurve) -> PlaneCurve:
    """Image of a line or conic under (x:y:z) -> (yz:xz:xy).

    The substituted form is divided by the coordinate monomial carrying
    the base-point multiplicities; the image degree 2d - m1 - m2 - m3
    must again be 1 or 2 (lines and conics are the supported kinds).
    """
    field = c.field
    base = [point(field, 1, 0, 0), point(field, 0, 1, 0), point(field, 0, 0, 1)]
    # multiplicity of a smooth curve at a point is its incidence indicator
    mults = tuple(1 if incident(c, b) else 0 for b in base)

    substituted: dict[tuple[int, int, int], FieldElement] = {}
    for (i, j, k), coeff in _curve_monomials(c).items():
        # X^i Y^j Z^k -> (YZ)^i (XZ)^j (XY)^k = X^(j+k) Y^(i+k) Z^(i+j)
        key = (j + k, i + k, i + j)
        substituted[key] = substituted.get(key, field.zero()) + coeff
    substituted = {m: v for m, v in substituted.items() if not v.is_zero()}

    mins = tuple(min(m[axis] for m in substituted) for axis in range(3))
    if mins != mults:
        raise AssertionError(
            f"factored monomial {mins} disagrees with base multiplicities {mults}"
        )
    reduced = {
        tuple(m[axis] - mins[axis] for axis in range(3)): v
        for m, v in substituted.items()
    }
    new_degree = 2 * c.degree - sum(mults)
    if any(sum(m) != new_degree for m in reduced):
        raise AssertionError("inhomogeneous image form")
    if new_degree == 1:
        coeffs = tuple(reduced.get(m, field.zero()) for m in _MONO_LINE)
        return PlaneCurve(CurveForm.LINE, coeffs)
    if new_degree == 2:
        coeffs = tuple(reduced.get(m, field.zero()) for m in _MONO_CONIC)
        return PlaneCurve(CurveForm.CONIC, coeffs)
    raise DegreeOutOfRangeError(
        f"image has degree {new_degree}; only lines and conics are supported "
        "(degree 0 means the curve is contracted to a point)"
    )


def triangle_frame(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Mat3:
    """Change of coordinates sending three non-collinear points to the
    coordinate triangle: returns the matrix T with T*p_i proportional
    to e_i.  Apply with :func:`apply_to_point` / :func:`apply_to_curve`
    (the latter takes the columns matrix, see below)."""
    return adjugate3(frame_inverse_columns(p1, p2, p3))


def frame_inverse_columns(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> Mat3:
    """Columns matrix M = (p1 | p2 | p3): the inverse frame, mapping the
    coordinate triangle back to the three points."""
    cols = tuple(zip(p1.coords, p2.coords, p3.coords))
    if det3(cols).is_zero():
        raise GeometryError("base points are collinear")
    return cols


def apply_to_point(m: Mat3, p: ProjPoint) -> ProjPoint:
    return ProjPoint(mat_vec(m, p.coords))


def apply_to_curve(m_inverse: Mat3, c: PlaneCurve) -> PlaneCurve:
    """Transform a curve by substituting coordinates: the argument is the
    matrix of the inverse point map (new point v satisfies p = M v)."""
    if c.form is CurveForm.LINE:
        coeffs = mat_vec(transpose(m_inverse), c.coeffs)
        return PlaneCurve(CurveForm.LINE, tuple(coeffs))
    s = mat_mul(transpose(m_inverse), mat_mul(_doubled(*c.coeffs), m_inverse))
    half = c.field.element(Fraction(1, 2))
    coeffs = (s[0][0] * half, s[1][1] * half, s[2][2] * half, s[0][1], s[0][2], s[1][2])
    return PlaneCurve(CurveForm.CONIC, coeffs)


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
No field inverse is taken here outside :meth:`ProjPoint.canonical`, and
over Q a point's identity and the order of a point list come from its
integers alone.  Cross products and two-term sums are one
:func:`~harbourne.exactfield.minor` or :func:`~harbourne.exactfield.dot`
per coordinate.  Incidence tests, conic-pair completions, line crossings
and the distinctness check read vectors: over Q a point's primitive
integer vector and a curve's coefficients over their lcm, so they are
int sums, and a point they make is built canonical from its integers
with no inverse; over a number field the coordinates and coefficients.
:func:`extract_profile` lists each point with every
curve through it when a pair first finds it.  A pair with as many listed
common points as its Bezout number is skipped, a conic pair with three
is completed where the lines of two split pencil members cross, and any
other pair is intersected.  Each conic keeps its matrix S from
construction.
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
    """Point of the projective plane; equality is projective.

    Equality and hashing compare the integer identity, the (num, den) of
    each canonical coordinate.  It is computed on first use, as are the
    :meth:`vector` that incidence tests and completions read, the
    monomials that :meth:`PlaneCurve.evaluate` reads and, per conic, the
    gradient S p.  Each is kept on this object, never shared with a
    scaled copy.
    """

    coords: tuple[FieldElement, FieldElement, FieldElement]
    # per-object caches, set on first use
    _id = _key = _vec = _mono = _grads = None

    def __post_init__(self):
        if len(self.coords) != 3:
            raise ValueError("a projective point has three coordinates")
        first = self.coords[0].field
        if any(c.field is not first and c.field != first for c in self.coords):
            raise GeometryError("coordinates must share one field")
        if all(c.is_zero() for c in self.coords):
            raise ValueError("(0:0:0) is not a projective point")

    @property
    def field(self) -> ExactField:
        return self.coords[0].field

    def canonical(self) -> "ProjPoint":
        """Scale so the first nonzero coordinate is 1; self if it is."""
        for c in self.coords:
            if not c.is_zero():
                if c.den == 1 and c.num[0] == 1 and not any(c.num[1:]):  # c is 1
                    return self
                inv = c.inverse()
                return ProjPoint(tuple(x * inv for x in self.coords))
        raise AssertionError("unreachable: zero point")

    def identity(self) -> tuple:
        """The (num, den) of each canonical coordinate, computed once; over
        Q by cross-multiplying with the first nonzero coordinate."""
        if self._id is None:
            if self.field.is_rational:
                n0, d0 = next((c.num[0], c.den) for c in self.coords if c.num[0])
                ident = []
                for c in self.coords:
                    n, d = c.num[0] * d0, c.den * n0
                    g = gcd(n, d) if d > 0 else -gcd(n, d)
                    ident.append(((n // g,), d // g))
                ident = tuple(ident)
            else:
                ident = tuple((c.num, c.den) for c in self.canonical().coords)
            object.__setattr__(self, "_id", ident)
        return self._id

    def sort_key(self):
        """Coefficients of the canonical coordinates, computed once: the
        reference for :func:`_in_order`."""
        if self._key is None:
            key = tuple(c.coeffs for c in self.canonical().coords)
            object.__setattr__(self, "_key", key)
        return self._key

    def vector(self) -> tuple:
        """Over Q the primitive integer vector, first nonzero entry
        positive, read off the identity; over a number field the
        coordinates.  Computed once."""
        if self._vec is None:
            vec = self.coords
            if self.field.is_rational:
                ident = self.identity()
                den = lcm(*(d for _, d in ident))
                vec = tuple(n * (den // d) for (n,), d in ident)
            object.__setattr__(self, "_vec", vec)
        return self._vec

    def monomials(self) -> tuple[FieldElement, ...]:
        """x^2, y^2, z^2, xy, xz, yz, in conic coefficient order, computed once."""
        if self._mono is None:
            object.__setattr__(self, "_mono", _monomials(*self.coords))
        return self._mono

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.field != other.field:
            return False
        return self.identity() == other.identity()

    def __hash__(self):
        return hash(self.identity())

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"ProjPoint{self}"


def point(field: ExactField, x, y, z) -> ProjPoint:
    return ProjPoint((field.element(x), field.element(y), field.element(z)))


def _point_from_vector(field: ExactField, v: Sequence) -> ProjPoint:
    """The point of a nonzero vector.  Over Q v holds ints: divided by its
    content it is the point's vector, and the point is canonical, x_i /
    x_first, with no inverse taken.  Over a number field v are the
    coordinates."""
    if not field.is_rational:
        return ProjPoint(tuple(v))
    first = next(x for x in v if x)
    g = gcd(*v) if first > 0 else -gcd(*v)
    vec = tuple(x // g for x in v)
    p = ProjPoint(tuple(_element(field, (x,), first // g) for x in vec))
    object.__setattr__(p, "_vec", vec)
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
    """(point, multiplicity) pairs sorted by :meth:`ProjPoint.sort_key`,
    compared as the integer identities over one common denominator."""
    den = lcm(*(d for pt, _ in pts for _, d in pt.identity()))
    return sorted(
        pts, key=lambda pm: [n * (den // d) for num, d in pm[0].identity() for n in num]
    )


# ---------------------------------------------------------------------------
# curves


class CurveForm(Enum):
    LINE = "line"
    CONIC = "conic"


@dataclass(frozen=True, eq=False)
class PlaneCurve:
    """Line a*X+b*Y+c*Z or conic a*X^2+b*Y^2+c*Z^2+d*XY+e*XZ+f*YZ."""

    form: CurveForm
    coeffs: tuple[FieldElement, ...]
    # set at construction: a conic's doubled matrix S, and the vectors
    # that incidence tests and completions read, over Q the coefficients
    # over their lcm, as ints, and a conic's S of those, over a number
    # field coeffs and S
    _matrix = _vec = _vmat = None

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
            s = _doubled(*self.coeffs)
            if det3(s).is_zero():
                raise GeometryError(
                    "conic is degenerate (zero determinant), hence reducible; "
                    "only irreducible conics are supported"
                )
            object.__setattr__(self, "_matrix", s)
            object.__setattr__(self, "_vmat", _doubled(*vec) if first.is_rational else s)

    @property
    def field(self) -> ExactField:
        return self.coeffs[0].field

    @property
    def degree(self) -> int:
        return 1 if self.form is CurveForm.LINE else 2

    def evaluate(self, p: ProjPoint) -> FieldElement:
        if self.form is CurveForm.LINE:
            return dot(self.coeffs, p.coords)
        return dot(self.coeffs, p.monomials())

    def gradient(self, p: ProjPoint) -> tuple[FieldElement, ...]:
        """S p for a conic, kept on p per conic; the coefficients for a line."""
        if self.form is CurveForm.LINE:
            return self.coeffs
        if p._grads is None:
            object.__setattr__(p, "_grads", {})
        if self not in p._grads:
            p._grads[self] = mat_vec(self._matrix, p.coords)
        return p._grads[self]

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
    v = p.vector()
    if curve.form is CurveForm.CONIC:
        v = _monomials(*v) if p.field.is_rational else p.monomials()
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
    living in proper extensions.
    """
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


def _span_of_line(l: PlaneCurve) -> tuple[ProjPoint, ProjPoint]:
    a, b, c = l.coeffs
    field = l.field
    if not a.is_zero():
        p1 = point(field, -b, a, 0)
        p2 = point(field, -c, 0, a)
    elif not b.is_zero():
        p1 = point(field, 1, 0, 0)
        p2 = point(field, 0, -c, b)
    else:
        p1 = point(field, 1, 0, 0)
        p2 = point(field, 0, 1, 0)
    return p1, p2


def _conic_bilinear(c: PlaneCurve, p: ProjPoint, q: ProjPoint) -> FieldElement:
    """p^T S q = Q(p+q) - Q(p) - Q(q), the polarization of the conic."""
    return dot(p.coords, mat_vec(c._matrix, q.coords))


def _combine_points(t: FieldElement, a: ProjPoint, u: FieldElement, b: ProjPoint):
    return tuple(dot((t, u), xy) for xy in zip(a.coords, b.coords))


def _line_conic(l: PlaneCurve, q: PlaneCurve) -> tuple[list[tuple[ProjPoint, int]], int]:
    """The in-field points where line l meets conic q, canonical and
    sorted by sort_key, with their multiplicities, and the total of those
    multiplicities (2 when both points are in the field)."""
    a, b = _span_of_line(l)
    # Q(t*a + u*b) = alpha t^2 + beta t u + gamma u^2
    alpha = q.evaluate(a)
    gamma = q.evaluate(b)
    beta = _conic_bilinear(q, a, b)
    roots, found = binary_form_roots([gamma, beta, alpha], l.field)
    pts = [
        (ProjPoint(_combine_points(t, a, u, b)).canonical(), mult)
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
    """
    field = f.field
    sf, sg = f._matrix, g._matrix

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
            on_lines = [(ProjPoint(cross(a.coeffs, b.coeffs)).canonical(), 1)
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
    points P1, P2, P3 (canonical), by the pencil argument of
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
    times, so X = M x M', whichever known point it may be.  Over Q all of
    this is taken on the integer vectors of the points and conics.
    """
    p1, p2, p3 = known
    rational = f.field.is_rational
    fp2, gp2, fp3, gp3 = (
        mat_vec(c._vmat, p.vector()) if rational else c.gradient(p)
        for p in (p2, p3) for c in (f, g)
    )
    v1 = p1.vector()
    fr, gr, fr3, gr3 = (dot(v1, grad) for grad in (fp2, gp2, fp3, gp3))
    m = [minor(gr, a, fr, b) for a, b in zip(fp3, gp3)]
    m3 = [minor(gr3, a, fr3, b) for a, b in zip(fp2, gp2)]
    x = _point_from_vector(f.field, cross(m, m3)).canonical()
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
        out.extend(pt for pt, _ in on_line if g.evaluate(pt).is_zero())
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
    for two lines, is skipped.  Points are keyed by their integer
    :meth:`~ProjPoint.identity`, so the known points are distinct, and
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

    Over Q the evaluations and completions are int sums on the integer
    vectors; over a number field a point keeps its monomials and its
    gradient per conic, so they are computed once per listed point.
    """
    curves = config.curves
    if len(curves) < 2:
        raise GeometryError("a configuration needs at least two curves")
    forms = {c.form for c in curves}
    if len(forms) != 1:
        raise MixedClassesError("curves must be all lines or all conics")
    cls = LINES if forms == {CurveForm.LINE} else CONICS

    # the incidence table: each point's identity maps to the point and its
    # curves, fixed when a pair first finds it; on_i holds the rows on curve i
    bezout = curves[0].degree ** 2
    table: dict[tuple, tuple[ProjPoint, set[int]]] = {}
    for i in range(len(curves)):
        on_i = [row for row in table.values() if i in row[1]]
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
                        f"curves {i} and {j} meet at {pt.canonical()} with "
                        f"multiplicity {mult}",
                        pair=(i, j),
                        point=pt,
                    )
                if pt.identity() not in table:
                    later = range(j + 1, len(curves))
                    members = {i, j, *(m for m in later if incident(curves[m], pt))}
                    table[pt.identity()] = row = (pt, members)
                    on_i.append(row)

    t: dict[int, int] = {}
    for _, members in table.values():
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
    s = mat_mul(transpose(m_inverse), mat_mul(c._matrix, m_inverse))
    half = c.field.element(Fraction(1, 2))
    coeffs = (s[0][0] * half, s[1][1] * half, s[2][2] * half, s[0][1], s[0][2], s[1][2])
    return PlaneCurve(CurveForm.CONIC, coeffs)


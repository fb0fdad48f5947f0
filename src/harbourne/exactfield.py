"""Exact field arithmetic: the rationals and simple number fields.

A number field is presented as Q[theta]/(m) for a monic polynomial m
with rational coefficients, of degree d.  An element is stored fraction
free, in the manner of FLINT's ``nf_elem``: a tuple ``num`` of d integer
numerators (low to high) over one denominator ``den`` > 0, in lowest
terms, gcd(den, *num) = 1.  Each element has exactly one such form, so
equality is a comparison of integers, which is the whole point: geometric
predicates downstream never touch floating point.  ``coeffs`` gives the
same value as a tuple of Fractions.

Sums and differences are taken on the numerators.  A product is the
integer schoolbook product of the numerators, reduced by a table of
theta^d, ..., theta^(2d-2) modulo m, built once per field over one common
denominator (m need not have integer coefficients).  An inverse solves
(multiplication by num) x = den e_0 by fraction-free Gauss-Jordan
elimination over Z (Bareiss), whose divisions are all exact; the norm in
:mod:`harbourne._zpoly` takes its determinants the same way.

A sum of products, sum(u_i * v_i), is one kernel, :func:`dot`, which
the geometric forms (conic values, matrix products, determinants) go
through.  It puts each product's denominator u_i.den * v_i.den over
their lcm and adds the integer numerators: over Q as plain ints, over
Q[theta]/(m) as the unreduced 2d - 1 coefficients of the schoolbook
products, which are reduced by the power table once.  So it builds one
element and takes one gcd, where the products and partial sums would
build 2n - 1.  :func:`minor`, a*b - c*d, is the same sum with a sign,
for the cross products.

A field is accepted only if m has degree at most ``MAX_FIELD_DEGREE``
and is irreducible over Q: its primitive integer form must be square-free
with a single irreducible factor over Z.

Root extraction for univariate polynomials over the field is one skeleton
for every field, :func:`roots_in_field`.  A linear polynomial is answered
directly.  Any other f first goes to one factorizer over Z (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14-15), which also
tests square-freeness: over Q on f itself, whose linear factors give the
roots, and over a number field on the norm (a resultant down to Q[x]) of
f, by the norm/shift argument of Trager (1976).  A square-free result
proves f square-free (the transversal case), so every root is simple.
Over a number field the in-field roots are read off as linear gcds of f
with norm factors, and when all of them are in the field the last one
comes from the sum of the roots (Vieta) instead.  Only otherwise does the
square-free chain c0 = monic f, c(i+1) = gcd(c(i), c(i)') run: c0 / c1 is
the square-free part of f, whose distinct roots are found as above, and
a root of f has multiplicity 1 + the number of c1, c2, ... it is a root
of.  Over a number field, x is shifted by integer multiples of theta
until the norm is square-free.  That argument needs its input
square-free: for a polynomial with a repeated root no shift works, and
the search stops with an ``AssertionError`` after the C(deg f * d, 2) + 1
shifts that suffice for a square-free one.  The integer polynomial work
(norms, factoring with its square-free test) lives in
:mod:`harbourne._zpoly`, imported lazily by the field check and the root
paths of degree 2 and up; everything in K[x] is done here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .profiles import HarbourneError

Rat = Fraction


class FieldError(HarbourneError):
    """Structural problem with a field or a cross-field operation."""


# The largest min_poly degree a field may have.  The Zassenhaus
# recombination that proves min_poly irreducible can try up to 2^(d/2 - 1)
# subsets of modular factors (every prime splits a Swinnerton-Dyer
# polynomial into factors of degree <= 2): 0.03 s at d = 16, seconds at
# d = 32, more than two minutes at d = 64.
MAX_FIELD_DEGREE = 16


# ---------------------------------------------------------------------------
# fraction-free linear algebra modulo m


def _over_common_den(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, den) for fractions given as (numerator, denominator > 0)
    pairs: den is their least common denominator and nums[i] / den the
    i-th fraction."""
    pairs = list(pairs)
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _power_table(min_poly: Sequence[Rat]) -> tuple[tuple, int]:
    """(rows, den): theta^(d+j) = sum(t * theta^i for i, t in rows[j]) / den
    modulo the monic min_poly of degree d, for j = 0 .. d-2, with each row
    listing its nonzero (i, t) and den the least common denominator."""
    d = len(min_poly) - 1
    power = [-c for c in min_poly[:d]]  # theta^d
    powers = [power]
    for _ in range(d - 2):
        top = power[-1]
        power = [(power[i - 1] if i else 0) + top * powers[0][i] for i in range(d)]
        powers.append(power)
    nums, den = _over_common_den(
        (c.numerator, c.denominator) for p in powers for c in p
    )
    rows = tuple(
        tuple((i, t) for i, t in enumerate(nums[j * d : (j + 1) * d]) if t)
        for j in range(len(powers))
    )
    return rows, den


def _reduce(prod: Sequence[int], table: tuple[tuple, int]) -> list[int]:
    """den * prod(theta) modulo m, as d integers, for an integer prod with
    d <= len(prod) <= 2d - 1 and table = (rows, den) of :func:`_power_table`."""
    rows, den = table
    d = len(rows) + 1
    out = list(prod[:d]) if den == 1 else [den * c for c in prod[:d]]
    for j in range(len(prod) - d):
        c = prod[d + j]
        if c:
            for i, t in rows[j]:
                out[i] += c * t
    return out


def _mult_matrix(num: Sequence[int], table: tuple[tuple, int]) -> list[list[int]]:
    """Rows of den times the matrix of multiplication by num(theta): its
    column k is theta^k num(theta) modulo m."""
    cols = [_reduce([0] * k + list(num), table) for k in range(len(num))]
    return [list(row) for row in zip(*cols)]


def _bareiss(rows: list[list[int]], solve: bool = False) -> tuple[int, int]:
    """Fraction-free elimination of an integer n x (n + r) matrix, in place.

    Returns (pivot, sign): the determinant of the leading n x n block is
    sign * pivot, 0 when it is singular.  After step k every entry is a
    (k+1) x (k+1) minor, so each division by the previous pivot is exact
    (Bareiss 1968).  With ``solve`` the rows above each pivot are cleared
    too (Gauss-Jordan), so for a nonsingular left block each of the r
    right-hand columns ends as pivot times its solution.  The left block
    is not kept up to date: column k is only zeroed off the diagonal at
    step k, so row i keeps its own pivot, not the last one, on the
    diagonal; only the right-hand columns are meant to be read.
    """
    n = len(rows)
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0, sign
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i in range(0 if solve else k + 1, n):
            if i == k:
                continue
            row = rows[i]
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[k] = 0
        prev = p
    return prev, sign


# ---------------------------------------------------------------------------
# fields and elements


@dataclass(frozen=True)
class ExactField:
    """The rationals (min_poly None) or Q[theta]/(min_poly).

    ``min_poly`` is monic, low-to-high, leading coefficient included.  A
    number field also caches its :func:`_power_table` as ``_table``,
    outside the dataclass fields, so equality and hashing ignore it.
    """

    min_poly: tuple[Rat, ...] | None = None

    def __post_init__(self):
        if self.min_poly is None:
            object.__setattr__(self, "_table", None)
            return
        coeffs = tuple(Rat(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", coeffs)
        if len(coeffs) < 3:
            raise FieldError(
                "min_poly must have degree >= 2; use RATIONALS for degree 1"
            )
        if coeffs[-1] != 1:
            raise FieldError("min_poly must be monic")
        if len(coeffs) - 1 > MAX_FIELD_DEGREE:
            raise FieldError(
                f"min_poly has degree {len(coeffs) - 1}; the largest field degree "
                f"supported is {MAX_FIELD_DEGREE}"
            )
        from ._zpoly import factor_squarefree

        factors = factor_squarefree(_primitive(coeffs))
        if factors is None or len(factors) > 1:
            raise FieldError("min_poly is reducible over Q")
        object.__setattr__(self, "_table", _power_table(coeffs))

    @property
    def degree(self) -> int:
        return 1 if self.min_poly is None else len(self.min_poly) - 1

    @property
    def is_rational(self) -> bool:
        return self.min_poly is None

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction or coefficient sequence into the field."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldError("element belongs to a different field")
            return value
        pad = (0,) * (self.degree - 1)
        if isinstance(value, int):
            return _element(self, (value,) + pad, 1)
        if isinstance(value, Fraction):
            return _element(self, (value.numerator,) + pad, value.denominator)
        coeffs = [Rat(c) for c in value]
        if self.is_rational and len(coeffs) > 1:
            raise FieldError("coefficient vectors need a number field")
        if len(coeffs) > self.degree:  # reduce modulo min_poly by Horner
            acc, theta = self.zero(), self.generator()
            for c in reversed(coeffs):
                acc = acc * theta + c
            return acc
        num, den = _over_common_den((c.numerator, c.denominator) for c in coeffs)
        return _element(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        if self.is_rational:
            raise FieldError("the rationals have no generator")
        return self.element([0, 1])

    def label(self) -> str:
        if self.is_rational:
            return "Q"
        return "Q[theta]/(" + _poly_str(self.min_poly, "theta") + ")"


RATIONALS = ExactField()


def _poly_str(coeffs: Sequence[Rat], var: str) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts) if parts else "0"


class FieldElement:
    """An element num(theta) / den of ``field``: immutable, compared and
    hashed by value.  Built only by :func:`_element`, through
    :meth:`ExactField.element` or the arithmetic."""

    __slots__ = ("field", "num", "den")

    field: ExactField
    num: tuple[int, ...]
    den: int

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldElement is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldElement is immutable: cannot delete {name!r}")

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients of 1, theta, ..., theta^(d-1) as Fractions."""
        return tuple([Rat(n, self.den) for n in self.num])

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("cannot mix elements of different fields")
            return other
        return self.field.element(other)

    # The fast paths below test the other operand's field by identity; an
    # equal but distinct field object, a mismatch or a plain number goes
    # through _coerce.

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
        a, b, ad, bd = self.num, other.num, self.den, other.den
        if ad == bd:
            if len(a) == 1:
                return _element(self.field, (a[0] + b[0],), ad)
            return _element(self.field, tuple([x + y for x, y in zip(a, b)]), ad)
        if len(a) == 1:
            return _element(self.field, (a[0] * bd + b[0] * ad,), ad * bd)
        return _element(
            self.field, tuple([x * bd + y * ad for x, y in zip(a, b)]), ad * bd
        )

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
        a, b, ad, bd = self.num, other.num, self.den, other.den
        if ad == bd:
            if len(a) == 1:
                return _element(self.field, (a[0] - b[0],), ad)
            return _element(self.field, tuple([x - y for x, y in zip(a, b)]), ad)
        if len(a) == 1:
            return _element(self.field, (a[0] * bd - b[0] * ad,), ad * bd)
        return _element(
            self.field, tuple([x * bd - y * ad for x, y in zip(a, b)]), ad * bd
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
        a, b = self.num, other.num
        if len(a) == 1:
            return _element(self.field, (a[0] * b[0],), self.den * other.den)
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        table = self.field._table
        return _element(
            self.field, tuple(_reduce(prod, table)), self.den * other.den * table[1]
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if len(self.num) == 1:
            return _element(self.field, (self.den,), self.num[0])
        # M x = e_0 for M = table den * (multiplication by num); the
        # inverse of num / den is then table den * den * x
        table = self.field._table
        rows = _mult_matrix(self.num, table)
        for row in rows:
            row.append(0)
        rows[0][-1] = 1
        pivot, _ = _bareiss(rows, solve=True)
        if not pivot:
            raise FieldError(
                "element is a zero divisor: min_poly is not irreducible"
            )
        scale = table[1] * self.den
        return _element(self.field, tuple([scale * row[-1] for row in rows]), pivot)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = self.field.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def as_rational(self) -> Rat:
        """The value as a Fraction; only for elements of the prime field."""
        if any(self.num[1:]):
            raise FieldError(f"{self} is not rational")
        return Rat(self.num[0], self.den)

    def __str__(self) -> str:
        return _poly_str(self.coeffs, "theta")

    def __repr__(self) -> str:
        return f"FieldElement({self})"


# slot writers that bypass the immutability guard, for _element only
_new_element = object.__new__
_set_field = FieldElement.field.__set__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__


def _element(field: ExactField, num: tuple[int, ...], den: int) -> FieldElement:
    """The element num / den of field (den nonzero), brought to lowest
    terms with a positive denominator: the one constructor."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([c // g for c in num])
        den //= g
    self = _new_element(FieldElement)
    _set_field(self, field)
    _set_num(self, num)
    _set_den(self, den)
    return self


def dot(us: Sequence[FieldElement], vs: Sequence[FieldElement]) -> FieldElement:
    """sum(u * v for u, v in zip(us, vs)) as one element, for two
    sequences of equal length: the products are put over the lcm of their
    denominators and summed unreduced, then reduced once.  Operands that
    are not all elements of one field object go through * and +, so
    coercion and the FieldError for mixed fields are theirs."""
    if not us:
        return 0
    field = getattr(us[0], "field", None)
    for x in (*us, *vs):
        if x.__class__ is not FieldElement or x.field is not field:
            return sum(u * v for u, v in zip(us, vs))
    table = field._table
    if table is None:
        # one running numerator over the lcm of the denominators so far
        num, den = 0, 1
        for u, v in zip(us, vs):
            e = u.den * v.den
            if e == den:
                num += u.num[0] * v.num[0]
            else:
                g = lcm(den, e)
                num = num * (g // den) + u.num[0] * v.num[0] * (g // e)
                den = g
        return _element(field, (num,), den)
    dens = [u.den * v.den for u, v in zip(us, vs)]
    den = lcm(*dens)
    return _schoolbook_sum(
        field, [(u.num, v.num, den // e) for u, v, e in zip(us, vs, dens)], den
    )


def minor(a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
    """a * b - c * d as one element, the two-term :func:`dot` with the
    second product negated; mixed operands go through * and -."""
    field = getattr(a, "field", None)
    for x in (a, b, c, d):
        if x.__class__ is not FieldElement or x.field is not field:
            return a * b - c * d
    e, g = a.den * b.den, c.den * d.den
    den = e if e == g else lcm(e, g)
    if field._table is None:
        return _element(
            field, (a.num[0] * b.num[0] * (den // e) - c.num[0] * d.num[0] * (den // g),), den
        )
    return _schoolbook_sum(field, ((a.num, b.num, den // e), (c.num, d.num, -(den // g))), den)


def _schoolbook_sum(field: ExactField, terms, den: int) -> FieldElement:
    """sum(k * u(theta) * v(theta) for u, v, k in terms) / den over a number
    field, for integer numerator tuples u, v: the schoolbook products are
    summed unreduced and reduced by the power table once."""
    prod = [0] * (2 * field.degree - 1)
    for u, v, k in terms:
        for i, x in enumerate(u):
            if x:
                x *= k
                for j, y in enumerate(v, i):
                    prod[j] += x * y
    table = field._table
    return _element(field, tuple(_reduce(prod, table)), den * table[1])


# ---------------------------------------------------------------------------
# polynomials over a field (dense, low -> high FieldElement coefficients)


def kx_strip(f: list[FieldElement]) -> list[FieldElement]:
    while f and f[-1].is_zero():
        f.pop()
    return f


def kx_monic(f: Sequence[FieldElement]) -> list[FieldElement]:
    f = kx_strip(list(f))
    if not f:
        return f
    inv = f[-1].inverse()
    return [c * inv for c in f]


def kx_divmod(
    a: Sequence[FieldElement], b: Sequence[FieldElement]
) -> tuple[list[FieldElement], list[FieldElement]]:
    b = kx_strip(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    field = b[-1].field
    rem = list(a)
    quot = [field.zero()] * max(0, len(rem) - len(b) + 1)
    inv_lead = b[-1].inverse()
    while len(kx_strip(rem)) >= len(b):
        rem = kx_strip(rem)
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * bi
    return kx_strip(quot), kx_strip(rem)


def kx_gcd(a: Sequence[FieldElement], b: Sequence[FieldElement]) -> list[FieldElement]:
    r0, r1 = kx_strip(list(a)), kx_strip(list(b))
    while r1:
        _, r = kx_divmod(r0, r1)
        r0, r1 = r1, r
    return kx_monic(r0)


def kx_derivative(f: Sequence[FieldElement]) -> list[FieldElement]:
    return kx_strip([c * i for i, c in enumerate(f)][1:])


def kx_evaluate(f: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """f(x) by Horner."""
    acc = f[-1]
    for c in reversed(f[:-1]):
        acc = acc * x + c
    return acc


def kx_shift(f: Sequence[FieldElement], c: FieldElement) -> list[FieldElement]:
    """f(x + c) by Horner on (x + c)."""
    field = c.field
    res: list[FieldElement] = []
    for coef in reversed(list(f)):
        nxt = [field.zero()] + res
        for i, r in enumerate(res):
            nxt[i] = nxt[i] + c * r
        nxt[0] = nxt[0] + coef
        res = nxt
    return kx_strip(res)


# ---------------------------------------------------------------------------
# roots in the field


def roots_in_field(
    f: Sequence[FieldElement], field: ExactField
) -> list[tuple[FieldElement, int]]:
    """All roots of f lying in the field, with multiplicities.

    Non-root factors (roots in proper extensions) are silently absent;
    callers compare total found multiplicity against the degree to detect
    a shortfall.
    """
    poly = kx_strip(list(f))
    if not poly:
        raise ValueError("the zero polynomial has every element as a root")
    if len(poly) == 1:
        return []
    if len(poly) == 2:
        return [(-poly[0] / poly[1], 1)]
    monic = kx_monic(poly)
    # the factorizer proves a square-free f (the transversal case) so, and
    # then every root is simple: over Q on f itself, over K on its norm at
    # shift 0, which is square-free only if f is
    if field.is_rational:
        roots = _rational_roots(_integers(monic))
        if roots is not None:
            return [(field.element(r), 1) for r in roots]
    else:
        roots = _shift_roots(monic, field, 0)
        if roots is not None:
            return [(r, 1) for r in roots]
    # c0 = monic f, c(i+1) = gcd(c(i), c(i)'); a root of f lies on exactly
    # multiplicity - 1 of c1, c2, ..., and c0 / c1 is the square-free part
    chain = [monic]
    while len(chain[-1]) > 1:
        chain.append(kx_gcd(chain[-1], kx_derivative(chain[-1])))
    squarefree = monic if len(chain) == 2 else kx_divmod(monic, chain[1])[0]
    if field.is_rational:
        roots = [field.element(r) for r in _rational_roots(_integers(squarefree))]
    else:  # shift 0 has failed already for a square-free f
        roots = _number_field_roots(squarefree, field, 1 if len(chain) == 2 else 0)
    out = []
    for root in roots:
        mult = 1
        while kx_evaluate(chain[mult], root).is_zero():
            mult += 1
        out.append((root, mult))
    return out


def _rational_roots(ints: Sequence[int]) -> list[Rat] | None:
    """Distinct rational roots of an integer polynomial of positive degree
    and content 1, or None when it is not square-free: 0 first, then by
    (|numerator|, denominator), a positive root before its negative.

    They are -g0/g1 for the linear factors g0 + g1 x of the polynomial
    over Z (:func:`harbourne._zpoly.factor_squarefree`).
    """
    from ._zpoly import factor_squarefree

    factors = factor_squarefree(ints)
    if factors is None:
        return None
    return sorted((Rat(-g[0], g[1]) for g in factors if len(g) == 2), key=_root_order)


def _root_order(c: Rat) -> tuple:
    return abs(c.numerator), c.denominator, c < 0


def _integers(poly: Sequence[FieldElement]) -> list[int]:
    """The integer polynomial with content 1 proportional to a nonzero
    one over Q."""
    return _content_free(_over_common_den((c.num[0], c.den) for c in poly)[0])


def _primitive(coeffs: Sequence[Rat]) -> list[int]:
    """The integer polynomial with content 1 proportional to a nonzero one."""
    return _content_free(
        _over_common_den((c.numerator, c.denominator) for c in coeffs)[0]
    )


def _content_free(ints: Sequence[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content."""
    content = gcd(*ints)
    return [c // content for c in ints]


def _number_field_roots(
    poly: list[FieldElement], field: ExactField, first: int = 0
) -> list[FieldElement]:
    """Distinct roots in Q[theta]/(m) of a square-free monic poly of degree
    n, by the norm trick (Trager 1976), trying the shifts s = first, first
    + 1, ... in turn (:func:`_shift_roots`).

    The norm of poly(x - s theta) has the n d roots alpha + s sigma(theta),
    for the roots alpha of the conjugates poly^sigma.  Two of them with the
    same sigma never coincide, since poly is square-free, and two with
    different sigma coincide for at most one s.  So one of the first
    C(n d, 2) + 1 shifts s gives a square-free norm; if none does, poly has
    a repeated root.
    """
    for s in range(first, comb((len(poly) - 1) * field.degree, 2) + 1):
        roots = _shift_roots(poly, field, s)
        if roots is not None:
            return roots
    raise AssertionError(
        "no shift gives a square-free norm: the polynomial has a repeated root"
    )


def _shift_roots(
    poly: list[FieldElement], field: ExactField, s: int
) -> list[FieldElement] | None:
    """Distinct roots in Q[theta]/(m) of a monic poly of degree n whose
    norm at shift s is square-free (which proves poly square-free); None
    when that norm is not.

    Each irreducible factor g of poly(x - s theta) over K has the norm
    factor N(g) of degree d deg g, so the factors of degree d are those of
    the in-field roots, which their gcds with it read off, in the order of
    :func:`harbourne._zpoly.factor_squarefree`.  When all n roots are in
    the field, the last is -c(n-1) minus the others (Vieta), with no gcd.
    """
    from . import _zpoly

    theta = field.generator()
    d = field.degree
    shifted = kx_shift(poly, theta * (-s)) if s else poly
    nums, _ = _over_common_den((n, c.den) for c in shifted for n in c.num)
    norm = _zpoly.integer_norm(
        [nums[i : i + d] for i in range(0, len(nums), d)], field._table
    )
    factors = _zpoly.factor_squarefree(norm)
    if factors is None:
        return None
    n = len(poly) - 1
    linear = [g for g in factors if len(g) - 1 == d]
    split = len(linear) == n
    roots = []
    for g in linear[: n - 1] if split else linear:
        h = kx_gcd(shifted, [field.element(c) for c in g])
        if len(h) != 2:
            raise AssertionError("a norm factor of degree d gives no linear gcd")
        roots.append(-h[0] - theta * s)  # h = x - rho
    if split:
        roots.append(-sum(roots, poly[-2]))
    return roots

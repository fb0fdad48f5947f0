"""Exact field arithmetic: the rationals and simple number fields.

A number field is presented as Q[theta]/(m) for a monic polynomial m
with rational coefficients; elements are coefficient vectors of length
deg(m) and all arithmetic reduces modulo m.  Equality is coefficient-wise
after reduction, so it is decidable, which is the whole point: geometric
predicates downstream never touch floating point.

A field is accepted only if m is irreducible over Q: its primitive
integer form must be square-free with a single irreducible factor over Z.

Root extraction for univariate polynomials over the field is provided in
:func:`roots_in_field`.  Over Q, linear and quadratic polynomials are
solved directly; otherwise the rational roots come from a p-adic lift:
roots modulo a small prime are Newton-lifted to a power of it and turned
back into fractions by rational reconstruction, in time polynomial in
the bit size of the coefficients (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 15).  Over a number field it is a norm/shift
argument (Trager 1976): shift x by integer multiples of theta until the
norm (a resultant down to Q[x]) is square-free, factor the norm over Z,
and read off the in-field roots as the linear gcds.  The integer
polynomial work (norms, factoring) lives in :mod:`harbourne._zpoly`,
imported only by the number-field paths; everything in K[x] is done
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

from .profiles import HarbourneError

Rat = Fraction


class FieldError(HarbourneError):
    """Structural problem with a field or a cross-field operation."""


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (low -> high coefficients)


def _pstrip(p: list[Rat]) -> list[Rat]:
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a: Sequence[Rat], b: Sequence[Rat]) -> list[Rat]:
    if not a or not b:
        return []
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _pstrip(out)


def _pdivmod(a: Sequence[Rat], b: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    b = _pstrip(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Rat(0)] * max(0, len(rem) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(_pstrip(rem)) >= len(b):
        rem = _pstrip(rem)
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
    return _pstrip(quot), _pstrip(rem)


def _pgcd(a: Sequence[Rat], b: Sequence[Rat]) -> list[Rat]:
    """Euclid: a greatest common divisor (not made monic)."""
    r0, r1 = _pstrip(list(a)), _pstrip(list(b))
    while r1:
        r0, r1 = r1, _pdivmod(r0, r1)[1]
    return r0


def _pxgcd(a: Sequence[Rat], b: Sequence[Rat]) -> tuple[list[Rat], list[Rat], list[Rat]]:
    """Extended Euclid: (g, u, v) with u*a + v*b = g."""
    r0, r1 = _pstrip(list(a)), _pstrip(list(b))
    u0, u1 = [Rat(1)], []
    v0, v1 = [], [Rat(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _pstrip([x - y for x, y in _zippad(u0, _pmul(q, u1))])
        v0, v1 = v1, _pstrip([x - y for x, y in _zippad(v0, _pmul(q, v1))])
    return r0, u0, v0


def _squarefree(a: Sequence[Rat]) -> bool:
    return len(_pgcd(a, [c * i for i, c in enumerate(a)][1:])) == 1


def _zippad(a: Sequence[Rat], b: Sequence[Rat]) -> Iterable[tuple[Rat, Rat]]:
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else Rat(0), b[i] if i < len(b) else Rat(0))


# ---------------------------------------------------------------------------
# fields and elements


@dataclass(frozen=True)
class ExactField:
    """The rationals (min_poly None) or Q[theta]/(min_poly).

    ``min_poly`` is monic, low-to-high, leading coefficient included.
    """

    min_poly: tuple[Rat, ...] | None = None

    def __post_init__(self):
        if self.min_poly is None:
            return
        coeffs = tuple(Rat(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", coeffs)
        if len(coeffs) < 3:
            raise FieldError(
                "min_poly must have degree >= 2; use RATIONALS for degree 1"
            )
        if coeffs[-1] != 1:
            raise FieldError("min_poly must be monic")
        from ._zpoly import factor_squarefree

        if not _squarefree(coeffs) or len(factor_squarefree(_primitive(coeffs))) > 1:
            raise FieldError("min_poly is reducible over Q")

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
        if isinstance(value, (int, Fraction)):
            coeffs = [Rat(value)] + [Rat(0)] * (self.degree - 1)
            return FieldElement(self, tuple(coeffs))
        coeffs = [Rat(c) for c in value]
        if self.is_rational and len(coeffs) > 1:
            raise FieldError("coefficient vectors need a number field")
        if len(coeffs) > self.degree:
            coeffs = self._reduce(coeffs)
        coeffs += [Rat(0)] * (self.degree - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        if self.is_rational:
            raise FieldError("the rationals have no generator")
        return self.element([0, 1])

    def _reduce(self, coeffs: list[Rat]) -> list[Rat]:
        _, rem = _pdivmod(coeffs, list(self.min_poly))
        return rem

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
    """An element of ``field``: immutable, compared and hashed by value."""

    __slots__ = ("field", "coeffs")

    field: ExactField
    coeffs: tuple[Rat, ...]

    def __init__(self, field: ExactField, coeffs: tuple[Rat, ...]):
        _set_field(self, field)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldElement is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldElement is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.field is other.field or self.field == other.field
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return FieldElement(self.field, (a[0] + b[0],))
        return FieldElement(self.field, tuple([x + y for x, y in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple([-a for a in self.coeffs]))

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return FieldElement(self.field, (a[0] - b[0],))
        return FieldElement(self.field, tuple([x - y for x, y in zip(a, b)]))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return FieldElement(self.field, (a[0] * b[0],))
        red = self.field._reduce(_pmul(a, b))
        red += [Rat(0)] * (len(a) - len(red))
        return FieldElement(self.field, tuple(red))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.is_rational:
            return FieldElement(self.field, (1 / self.coeffs[0],))
        g, u, _ = _pxgcd(list(self.coeffs), list(self.field.min_poly))
        if len(g) != 1:
            raise FieldError(
                "element is a zero divisor: min_poly is not irreducible"
            )
        scaled = [c / g[0] for c in u]
        red = self.field._reduce(scaled)
        red += [Rat(0)] * (self.field.degree - len(red))
        return FieldElement(self.field, tuple(red))

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
        if any(self.coeffs[1:]):
            raise FieldError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        return _poly_str(self.coeffs, "theta")

    def __repr__(self) -> str:
        return f"FieldElement({self})"


# slot writers that bypass the immutability guard, for __init__ only
_set_field = FieldElement.field.__set__
_set_coeffs = FieldElement.coeffs.__set__


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
    if field.is_rational:
        rats = [c.coeffs[0] for c in poly]
        ints = _primitive(rats)
        if len(ints) <= 3:
            return [(field.element(r), m) for r, m in _low_degree_roots(ints)]
        return [
            (field.element(r), _multiplicity(ints, r.numerator, r.denominator))
            for r in _rational_roots(rats)
        ]
    roots = _number_field_roots(poly, field)
    out = []
    for root in roots:
        mult = 0
        work = poly
        while True:
            quot, rem = kx_divmod(work, [-root, field.one()])
            if rem:
                break
            mult += 1
            work = quot
        if mult:
            out.append((root, mult))
    return out


def _rational_roots(coeffs: Sequence[Rat]) -> list[Rat]:
    """Distinct rational roots: 0 first, then by (|numerator|, denominator),
    a positive root before its negative.

    Every rational root of the square-free primitive part
    f = a_n x^n + ... + a_0 is some a/b with a | a_0 and b | a_n.  Modulo
    the smallest prime p that does not divide a_n and at which every root
    of f is simple, each rational root is one of those roots mod p.  Newton
    iteration lifts each to a root mod M = p^(2^j) > 2|a_0||a_n|, where a/b
    is the only fraction with |a| <= |a_0| and 0 < b <= |a_n| congruent to
    it, recovered by the half-extended Euclidean algorithm.  Each candidate
    is kept only if f(a/b) = 0 exactly, so the cost is polynomial in the
    bit size of the coefficients.
    """
    poly = _pstrip(list(coeffs))
    roots: list[Rat] = []
    if poly and not poly[0]:
        roots.append(Rat(0))
        while not poly[0]:
            poly.pop(0)
    if len(poly) <= 1:
        return roots
    g = _pgcd(poly, [c * i for i, c in enumerate(poly)][1:])
    if len(g) > 1:
        poly, _ = _pdivmod(poly, g)
    ints = _primitive(poly)
    deriv = [c * i for i, c in enumerate(ints)][1:]
    a_max, b_max = abs(ints[0]), abs(ints[-1])

    for p in _primes():
        if b_max % p == 0:
            continue
        residues = [r for r in range(p) if _eval_mod(ints, r, p) == 0]
        if all(_eval_mod(deriv, r, p) for r in residues):
            break

    found = []
    for r in residues:
        m = p
        while m <= 2 * a_max * b_max:
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        # half-extended Euclid on (m, r), stopped at the first remainder <= a_max
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a_max:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 and abs(t1) <= b_max and _eval_homogeneous(ints, r1, t1) == 0:
            found.append(Rat(r1, t1))
    found.sort(key=_root_order)
    return roots + found


def _root_order(c: Rat) -> tuple:
    return abs(c.numerator), c.denominator, c < 0


def _low_degree_roots(ints: Sequence[int]) -> list[tuple[Rat, int]]:
    """Rational roots with multiplicities of a linear or quadratic integer
    polynomial, in :func:`_rational_roots` order."""
    if len(ints) == 2:
        return [(Rat(-ints[0], ints[1]), 1)]
    c, b, a = ints
    disc = b * b - 4 * a * c
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return []
    if not root:
        return [(Rat(-b, 2 * a), 2)]
    pair = sorted((Rat(-b + root, 2 * a), Rat(-b - root, 2 * a)), key=_root_order)
    return [(r, 1) for r in pair]


def _primitive(coeffs: Sequence[Rat]) -> list[int]:
    """The integer polynomial with content 1 proportional to a nonzero one."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    return [c // content for c in ints]


def _multiplicity(ints: Sequence[int], a: int, b: int) -> int:
    """How often b*x - a (b > 0, gcd(a, b) = 1) divides an integer polynomial.

    By Gauss's lemma b*x - a divides it over Q only if it does over Z, so
    synthetic division over Z stops at the first coefficient b does not
    divide, or at a nonzero remainder.
    """
    mult = 0
    while True:
        quot, carry = [], 0
        for c in reversed(ints[1:]):
            q, r = divmod(c + carry, b)
            if r:
                return mult
            quot.append(q)
            carry = a * q
        if ints[0] + carry:
            return mult
        mult += 1
        ints = quot[::-1]


def _primes() -> Iterable[int]:
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _eval_mod(ints: Sequence[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * r + c) % m
    return acc


def _eval_homogeneous(ints: Sequence[int], a: int, b: int) -> int:
    """sum c_i a^i b^(n-i): zero exactly when a/b is a root."""
    acc, b_pow = ints[-1], 1
    for c in reversed(ints[:-1]):
        b_pow *= b
        acc = acc * a + c * b_pow
    return acc


_SHIFT_ATTEMPTS = 64


def _number_field_roots(
    poly: list[FieldElement], field: ExactField
) -> list[FieldElement]:
    """Distinct roots in Q[theta]/(m) via the square-free norm trick.

    Roots come in the order of the norm's irreducible factors in
    :func:`harbourne._zpoly.factor_squarefree`.
    """
    from . import _zpoly

    # square-free part, monic
    work = kx_monic(poly)
    g = kx_gcd(work, kx_derivative(work))
    if len(g) > 1:
        work, _ = kx_divmod(work, g)
        work = kx_monic(work)

    theta = field.generator()
    for s in range(_SHIFT_ATTEMPTS):
        shifted = kx_shift(work, theta * (-s))
        norm = _zpoly.norm([c.coeffs for c in shifted], field.min_poly)
        if not _squarefree(norm):
            continue
        roots = []
        for factor in _zpoly.factor_squarefree(norm):
            if len(factor) - 1 > field.degree:
                continue
            h = kx_gcd(shifted, [field.element(c) for c in factor])
            if len(h) == 2:  # linear: x - rho
                rho = -h[0]
                roots.append(rho - theta * s)
        return roots
    raise FieldError("could not separate conjugate roots; shift search exhausted")

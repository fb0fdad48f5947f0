import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from conftest import swinnerton_dyer
from hypothesis import given, strategies as st

from harbourne import _zpoly
from harbourne._zpoly import factor_squarefree
from harbourne.exactfield import (
    ExactField,
    FieldElement,
    FieldError,
    MAX_FIELD_DEGREE,
    RATIONALS,
    _bareiss,
    _number_field_roots,
    _primitive,
    _rational_roots,
    dot,
    kx_divmod,
    kx_gcd,
    kx_monic,
    kx_shift,
    minor,
    roots_in_field,
)

SQRT2 = ExactField((F(-2), F(0), F(1)))
CBRT2 = ExactField((F(-2), F(0), F(0), F(1)))
GAUSS = ExactField((F(1), F(0), F(1)))  # x^2 + 1


def elements(field):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.builds(
        lambda cs: field.element(cs),
        st.lists(coeff, min_size=field.degree, max_size=field.degree),
    )


class TestFieldConstruction:
    def test_rational_degree(self):
        assert RATIONALS.degree == 1 and RATIONALS.is_rational

    def test_rational_root_rejected(self):
        with pytest.raises(FieldError):
            ExactField((F(-4), F(0), F(1)))  # x^2 - 4
        with pytest.raises(FieldError):
            ExactField((F(-8), F(0), F(0), F(1)))  # x^3 - 8

    def test_huge_irreducible_quadratic_accepted_quickly(self):
        # 10^24 + 7 is not a square; divisor enumeration up to its square
        # root would not finish
        field = ExactField((F(-(10**24 + 7)), F(0), F(1)))
        assert field.generator() ** 2 == field.element(10**24 + 7)
        with pytest.raises(FieldError):
            ExactField((F(-(10**24 + 7) ** 2), F(0), F(1)))

    def test_non_monic_rejected(self):
        with pytest.raises(FieldError):
            ExactField((F(-2), F(0), F(2)))

    def test_degree_one_rejected(self):
        with pytest.raises(FieldError):
            ExactField((F(1), F(1)))

    def test_reducible_min_poly_rejected_at_construction(self):
        # products of irreducible factors without a rational root
        for min_poly in (
            (-4, 0, 0, 0, 1),  # (x^2 - 2)(x^2 + 2)
            (2, 0, 3, 0, 1),  # (x^2 + 1)(x^2 + 2)
            (1, 0, 2, 0, 1),  # (x^2 + 1)^2
        ):
            with pytest.raises(FieldError, match="reducible"):
                ExactField(tuple(F(c) for c in min_poly))

    def test_irreducible_min_poly_accepted(self):
        cyclo7 = ExactField(tuple(F(1) for _ in range(7)))
        assert cyclo7.generator() ** 7 == cyclo7.one()
        huge = ExactField((F(-(10**24 + 7)), F(0), F(1)))
        assert huge.degree == 2
        halves = ExactField((F(-1, 2), F(0), F(1)))  # x^2 - 1/2
        assert halves.generator() ** 2 == halves.element(F(1, 2))


class TestFieldElementContract:
    def test_immutable(self):
        x = SQRT2.generator()
        with pytest.raises(AttributeError):
            x.coeffs = (F(1), F(0))
        with pytest.raises(AttributeError):
            x.field = CBRT2
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            del x.coeffs
        assert x.coeffs == (F(0), F(1)) and x.field is SQRT2

    def test_equal_elements_hash_alike(self):
        theta = SQRT2.generator()
        a = theta * 2 + 1
        b = SQRT2.element([1, 2])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SQRT2.one()}) == 2
        assert {a: "x"}[b] == "x"
        assert RATIONALS.element(F(2, 4)) == RATIONALS.element(F(1, 2))
        assert len({RATIONALS.element(3), RATIONALS.one() * 3}) == 1
        assert SQRT2.one() != RATIONALS.one()
        assert SQRT2.one() != 1

    def test_equal_field_objects_interoperate(self):
        twin = ExactField((F(-2), F(0), F(1)))
        assert twin is not SQRT2 and twin == SQRT2
        a, b = twin.generator(), SQRT2.generator()
        assert a == b and hash(a) == hash(b)
        assert a * b == SQRT2.element(2)
        assert a - b == SQRT2.zero()

    def test_mixing_fields_raises(self):
        for x, y in (
            (SQRT2.generator(), CBRT2.generator()),
            (RATIONALS.one(), SQRT2.one()),
            (SQRT2.one(), RATIONALS.one()),
        ):
            for op in (
                lambda: x + y,
                lambda: x - y,
                lambda: x * y,
                lambda: x / y,
            ):
                with pytest.raises(FieldError):
                    op()

    @pytest.mark.parametrize("field", [RATIONALS, SQRT2])
    def test_number_coercion(self, field):
        x = field.element(5) if field.is_rational else field.generator() + 5
        assert 2 - x == field.element(2) - x == -(x - 2)
        assert x - 2 == x + field.element(-2)
        assert 3 * x == x * 3 == x + x + x
        assert x * F(1, 3) == x / 3
        assert isinstance(2 - x, FieldElement) and (2 - x).field is field
        assert isinstance(x * F(1, 3), FieldElement)


class TestArithmetic:
    def test_generator_satisfies_min_poly(self):
        theta = SQRT2.generator()
        assert theta * theta == SQRT2.element(2)
        assert (CBRT2.generator() ** 3) == CBRT2.element(2)

    def test_inverse(self):
        theta = SQRT2.generator()
        x = SQRT2.one() + theta
        assert x * x.inverse() == SQRT2.one()
        assert x.inverse() == theta - 1  # 1/(1+s2) = s2 - 1

    def test_division_and_power(self):
        theta = CBRT2.generator()
        assert (theta**2 / theta) == theta
        assert theta**-3 == CBRT2.element(F(1, 2))

    def test_mixed_field_rejected(self):
        with pytest.raises(FieldError):
            SQRT2.generator() + CBRT2.generator()

    def test_as_rational(self):
        assert SQRT2.element(F(3, 7)).as_rational() == F(3, 7)
        with pytest.raises(FieldError):
            SQRT2.generator().as_rational()

    @given(elements(SQRT2), elements(SQRT2), elements(SQRT2))
    def test_ring_axioms_quadratic(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(elements(CBRT2), elements(CBRT2), elements(CBRT2))
    def test_ring_axioms_cubic(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(elements(SQRT2))
    def test_inverse_axiom_quadratic(self, a):
        if not a.is_zero():
            assert a * a.inverse() == SQRT2.one()

    @given(elements(CBRT2))
    def test_inverse_axiom_cubic(self, a):
        if not a.is_zero():
            assert a * a.inverse() == CBRT2.one()


class TestRoots:
    def test_rational_roots_with_multiplicity(self):
        # x * (x-2)^2 * (x + 1/3) = x^4 - 11x^3/3 + 8x^2/3 + 4x/3
        coeffs = [F(0), F(4, 3), F(8, 3), F(-11, 3), F(1)]
        poly = [RATIONALS.element(c) for c in coeffs]
        got = {
            (root.as_rational(), mult)
            for root, mult in roots_in_field(poly, RATIONALS)
        }
        assert got == {(F(0), 1), (F(2), 2), (F(-1, 3), 1)}

    def test_no_rational_roots(self):
        poly = [RATIONALS.element(c) for c in (F(-2), F(0), F(1))]
        assert roots_in_field(poly, RATIONALS) == []

    def test_sqrt_in_quadratic_field(self):
        theta = SQRT2.generator()
        poly = [SQRT2.element(-2), SQRT2.zero(), SQRT2.one()]
        roots = {r for r, _ in roots_in_field(poly, SQRT2)}
        assert roots == {theta, -theta}

    def test_nested_sqrt(self):
        # sqrt(3 + 2*sqrt2) = 1 + sqrt2
        theta = SQRT2.generator()
        target = SQRT2.element(3) + theta * 2
        poly = [-target, SQRT2.zero(), SQRT2.one()]
        roots = {r for r, _ in roots_in_field(poly, SQRT2)}
        assert roots == {SQRT2.one() + theta, -(SQRT2.one() + theta)}

    def test_not_a_square_in_field(self):
        poly = [SQRT2.element(-3), SQRT2.zero(), SQRT2.one()]
        assert roots_in_field(poly, SQRT2) == []

    def test_multiplicity_in_number_field(self):
        theta = SQRT2.generator()
        one = SQRT2.one()
        # (x - theta)^2 (x - 5)
        a = [-theta, one]

        def mul(p, q):
            out = [SQRT2.zero()] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] = out[i + j] + pi * qj
            return out

        poly = mul(mul(a, a), [SQRT2.element(-5), one])
        got = {(r, m) for r, m in roots_in_field(poly, SQRT2)}
        assert got == {(theta, 2), (SQRT2.element(5), 1)}

    def test_gaussian_field(self):
        i = GAUSS.generator()
        poly = [GAUSS.element(1), GAUSS.zero(), GAUSS.one()]  # x^2 + 1
        roots = {r for r, _ in roots_in_field(poly, GAUSS)}
        assert roots == {i, -i}

    def test_cubic_field_single_real_embedding(self):
        poly = [CBRT2.element(-2), CBRT2.zero(), CBRT2.zero(), CBRT2.one()]
        roots = roots_in_field(poly, CBRT2)
        assert roots == [(CBRT2.generator(), 1)]

    def test_all_fifth_roots_of_unity(self):
        cyclo = ExactField((F(1), F(1), F(1), F(1), F(1)))
        theta = cyclo.generator()
        poly = [cyclo.element(-1)] + [cyclo.zero()] * 4 + [cyclo.one()]  # x^5 - 1
        roots = {r for r, m in roots_in_field(poly, cyclo) if m == 1}
        assert roots == {cyclo.one(), theta, theta**2, theta**3, theta**4}

    def test_conjugate_shift_collisions_resolved(self):
        # roots theta and 3*theta collide under the first shift attempts;
        # the square-free-norm loop must keep going
        theta = SQRT2.generator()
        poly = [SQRT2.element(6), theta * -4, SQRT2.one()]  # (x-theta)(x-3theta)
        roots = {r for r, _ in roots_in_field(poly, SQRT2)}
        assert roots == {theta, theta * 3}

    def test_quartic_field_contains_sqrt2(self):
        quartic = ExactField((F(-2), F(0), F(0), F(0), F(1)))  # x^4 - 2
        theta = quartic.generator()
        poly = [quartic.element(-2), quartic.zero(), quartic.one()]
        roots = {r for r, _ in roots_in_field(poly, quartic)}
        assert roots == {theta**2, -(theta**2)}

    def test_quartic_field_misses_sqrt3(self):
        quartic = ExactField((F(-2), F(0), F(0), F(0), F(1)))
        poly = [quartic.element(-3), quartic.zero(), quartic.one()]
        assert roots_in_field(poly, quartic) == []


def _rational_roots_by_divisors(coeffs):
    """Reference: distinct rational roots by divisor enumeration, the
    rational root theorem taken literally (cost grows with the square
    root of the coefficients)."""
    poly = list(coeffs)
    roots = []
    v = 0
    while poly and not poly[0]:
        poly.pop(0)
        v += 1
    if v:
        roots.append(F(0))
    if len(poly) <= 1:
        return roots
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in poly]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]

    def divisors(n):
        out = []
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                out.append(d)
                if d != n // d:
                    out.append(n // d)
        return sorted(out)

    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            if gcd(p, q) != 1:
                continue
            for cand in (F(p, q), F(-p, q)):
                acc = F(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _qmul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_root_poly(rng):
    """A product of rational linear factors (random denominators, some
    repeated), maybe x^v, maybe an irreducible quadratic, scaled."""
    poly = [F(1)]
    for _ in range(rng.randint(0, 3)):
        root = F(rng.randint(-12, 12), rng.randint(1, 6))
        for _ in range(rng.choice((1, 1, 2))):
            poly = _qmul(poly, [-root, F(1)])
    if rng.random() < 0.25:
        poly = [F(0)] * rng.randint(1, 2) + poly
    if rng.random() < 0.4:
        b = rng.randint(-4, 4)
        c = F(b * b, 4) + F(rng.randint(1, 9), rng.randint(1, 3))  # no real roots
        poly = _qmul(poly, [c, F(b), F(1)])
    if len(poly) == 1:
        poly = [F(rng.randint(1, 5)), F(0), F(1)]
    scale = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 7))
    return [c * scale for c in poly]


class TestRationalRootsOracle:
    def test_matches_divisor_enumeration(self):
        rng = random.Random(20150620)
        for _ in range(200):
            poly = _random_root_poly(rng)
            got = roots_in_field([RATIONALS.element(c) for c in poly], RATIONALS)
            assert [r.as_rational() for r, _ in got] == _rational_roots_by_divisors(poly), poly

    def test_order_zero_then_size_positive_first(self):
        # x (x - 1/2)(x + 1/2)(x + 3)(x - 2), square-free
        poly = [F(1)]
        for root in (F(0), F(1, 2), F(-1, 2), F(-3), F(2)):
            poly = _qmul(poly, [-root, F(1)])
        assert _rational_roots(_primitive(poly)) == [F(0), F(1, 2), F(-1, 2), F(2), F(-3)]

    def test_large_coefficients(self, monkeypatch):
        # roots whose numerators and denominators have 25 digits
        big = F(10**24 + 7, 10**24 + 9)
        poly = _qmul([-big, F(1)], [big, F(1)])  # x^2 - big^2
        assert _rational_roots(_primitive(poly)) == [big, -big]
        assert _rational_roots([-(10**24 + 7), 0, 1]) == []
        # (x - 3)(x^2 + 1)(x^2 + 7)(x^2 + 127): square-free over Q, but not
        # mod 3, 5 or 7, so only the exact test can say so
        exact = []
        euclid = _zpoly._squarefree
        monkeypatch.setattr(
            _zpoly, "_squarefree", lambda f: exact.append(f) or euclid(f)
        )
        poly = _qmul([F(-3), F(1)], [F(c) for c in (889, 0, 1023, 0, 135, 0, 1)])
        assert _rational_roots(_primitive(poly)) == [F(3)] and len(exact) == 1

    def test_one_factorization_per_root_call(self, monkeypatch):
        calls = []
        factor = _zpoly.factor_squarefree
        monkeypatch.setattr(
            _zpoly, "factor_squarefree", lambda f: calls.append(f) or factor(f)
        )

        def roots(*coeffs):
            poly = [RATIONALS.element(c) for c in coeffs]
            return [(r.as_rational(), m) for r, m in roots_in_field(poly, RATIONALS)]

        assert roots(F(-3, 4), 2) == [(F(3, 8), 1)] and calls == []
        assert roots(-6, 1, 1) == [(F(2), 1), (F(-3), 1)] and len(calls) == 1
        # x^3 - x^2 - x - 2 = (x - 2)(x^2 + x + 1)
        assert roots(-2, -1, -1, 1) == [(F(2), 1)] and len(calls) == 2

    @given(
        st.dictionaries(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            st.integers(1, 3),
            max_size=4,
        ),
        st.fractions(min_value=0, max_value=50, max_denominator=10).filter(lambda c: c > 0),
    )
    def test_roots_in_field_recovers_multiplicities(self, chosen, c):
        poly = [c, F(0), F(1)]  # x^2 + c: no rational root
        for root, mult in chosen.items():
            for _ in range(mult):
                poly = _qmul(poly, [-root, F(1)])
        got = roots_in_field([RATIONALS.element(x) for x in poly], RATIONALS)
        assert {r.as_rational(): m for r, m in got} == chosen
        assert len(got) == len(chosen)


def _divisions(f, root):
    """How often x - root divides f, by repeated division over K[x]."""
    mult, work = 0, f
    while True:
        quot, rem = kx_divmod(work, [-root, root.field.one()])
        if rem:
            return mult
        mult, work = mult + 1, quot


def _multiplicities_by_kx_divmod(poly):
    """Each rational root (by divisor enumeration) with its multiplicity
    by repeated division over K[x]."""
    f = [RATIONALS.element(c) for c in poly]
    roots = [RATIONALS.element(r) for r in _rational_roots_by_divisors(poly)]
    return [(x, _divisions(f, x)) for x in roots]


class TestRationalMultiplicities:
    def test_matches_kx_divmod_loop(self):
        rng = random.Random(20151021)
        repeated = zero = 0
        for _ in range(200):
            poly = _random_root_poly(rng)
            want = _multiplicities_by_kx_divmod(poly)
            got = roots_in_field([RATIONALS.element(c) for c in poly], RATIONALS)
            assert got == want, poly
            repeated += any(m > 1 for _, m in got)
            zero += any(r.is_zero() for r, _ in got)
        assert repeated > 20 and zero > 20

    def test_high_multiplicity_and_zero_root(self):
        # x^3 (2x - 3)^4 (x + 5): integer synthetic division by b*x - a
        poly = [F(0)] * 3 + [F(1)]
        for _ in range(4):
            poly = _qmul(poly, [F(-3), F(2)])
        poly = _qmul(poly, [F(5), F(1)])
        got = roots_in_field([RATIONALS.element(c / 7) for c in poly], RATIONALS)
        assert [(r.as_rational(), m) for r, m in got] == [
            (F(0), 3), (F(3, 2), 4), (F(-5), 1)
        ]


class TestLowDegreeRoots:
    def test_linear_and_quadratic_match_the_general_search(self):
        rng = random.Random(20151022)
        seen = {"double": 0, "zero": 0, "none": 0, "linear": 0}
        def linear():
            return [F(-rng.randint(-6, 6)), F(rng.randint(1, 5))]

        for _ in range(240):
            kind = rng.randrange(4)
            if kind == 0:
                poly = linear()
            elif kind == 1:
                lin = linear()
                poly = _qmul(lin, lin)  # a double root
            elif kind == 2:
                poly = _qmul(linear(), linear())
            else:
                poly = [F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), F(rng.randint(1, 9))]
            scale = F(rng.choice([-3, 1, 2]), rng.randint(1, 4))
            poly = [c * scale for c in poly]
            want = _multiplicities_by_kx_divmod(poly)
            got = roots_in_field([RATIONALS.element(c) for c in poly], RATIONALS)
            assert got == want, poly
            seen["double"] += any(m == 2 for _, m in got)
            seen["zero"] += any(r.is_zero() for r, _ in got)
            seen["none"] += not got
            seen["linear"] += len(poly) == 2
        assert min(seen.values()) >= 10, seen


class TestPolynomialHelpers:
    def test_divmod(self):
        one = RATIONALS.one()
        f = [RATIONALS.element(-2), RATIONALS.zero(), one]  # x^2 - 2
        g = [RATIONALS.element(1), one]  # x + 1
        q, r = kx_divmod(f, g)
        # x^2 - 2 = (x + 1)(x - 1) - 1
        assert [c.as_rational() for c in q] == [F(-1), F(1)]
        assert [c.as_rational() for c in r] == [F(-1)]

    def test_gcd_is_monic(self):
        one = RATIONALS.one()
        f = [RATIONALS.element(-8), RATIONALS.zero(), RATIONALS.element(2)]
        g = [RATIONALS.element(-2 * 3), RATIONALS.element(3)]  # 3(x - 2)
        gcd = kx_gcd(f, g)
        assert [c.as_rational() for c in gcd] == [F(-2), F(1)]

    def test_shift(self):
        one = RATIONALS.one()
        f = [RATIONALS.zero(), RATIONALS.zero(), one]  # x^2
        shifted = kx_shift(f, RATIONALS.element(3))  # (x+3)^2
        assert [c.as_rational() for c in shifted] == [F(9), F(6), F(1)]


# ---------------------------------------------------------------------------
# the fraction-free arithmetic against the Fraction arithmetic it replaced


def _ref_strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_pmul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_strip(out)


def _ref_pdivmod(a, b):
    b = _ref_strip(list(b))
    rem = list(a)
    quot = [F(0)] * max(0, len(rem) - len(b) + 1)
    while len(_ref_strip(rem)) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
    return _ref_strip(quot), _ref_strip(rem)


def _ref_pxgcd(a, b):
    """Extended Euclid: (g, u, v) with u*a + v*b = g."""
    r0, r1 = _ref_strip(list(a)), _ref_strip(list(b))
    u0, u1, v0, v1 = [F(1)], [], [], [F(1)]

    def minus(x, y):
        n = max(len(x), len(y))
        x, y = x + [F(0)] * (n - len(x)), y + [F(0)] * (n - len(y))
        return _ref_strip([p - q for p, q in zip(x, y)])

    while r1:
        q, r = _ref_pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, minus(u0, _ref_pmul(q, u1))
        v0, v1 = v1, minus(v0, _ref_pmul(q, v1))
    return r0, u0, v0


def _ref_pad(p, d):
    return tuple(p) + (F(0),) * (d - len(p))


def _ref_mul(a, b, m):
    if m is None:
        return (a[0] * b[0],)
    return _ref_pad(_ref_pdivmod(_ref_pmul(list(a), list(b)), m)[1], len(m) - 1)


def _ref_inverse(a, m):
    if m is None:
        return (1 / a[0],)
    g, u, _ = _ref_pxgcd(list(a), list(m))
    assert len(g) == 1
    return _ref_pad(_ref_pdivmod([c / g[0] for c in u], m)[1], len(m) - 1)


def _ref_pow(a, e, m):
    if e < 0:
        return _ref_pow(_ref_inverse(a, m), -e, m)
    out = _ref_pad([F(1)], len(a))
    for _ in range(e):
        out = _ref_mul(out, a, m)
    return out


ORACLE_FIELDS = {
    "Q": RATIONALS,
    "sqrt5": ExactField((F(-5), F(0), F(1))),
    "cbrt2": CBRT2,
    "zeta5": ExactField(tuple(F(1) for _ in range(5))),
    "zeta7": ExactField(tuple(F(1) for _ in range(7))),
    "half": ExactField((F(-1, 2), F(0), F(1))),  # theta^2 - 1/2
    "cubic": ExactField((F(-3, 4), F(2, 3), F(-1, 5), F(1))),  # table denominator 300
}


def _random_coeffs(rng, d):
    def coeff():
        kind = rng.randrange(6)
        if kind == 0:
            return F(0)
        if kind == 1:
            return F(rng.randint(-9, 9))
        if kind == 2:
            return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        return F(rng.randint(-60, 60), rng.randint(1, 12))

    return tuple(coeff() for _ in range(d))


def _assert_normal(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    assert x.coeffs == tuple(F(n, x.den) for n in x.num)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
class TestAgainstFractionArithmetic:
    def test_operations_match_the_fraction_reference(self, name):
        field = ORACLE_FIELDS[name]
        m = field.min_poly and list(field.min_poly)
        rng = random.Random(f"oracle:{name}")
        for _ in range(200):
            ca = _random_coeffs(rng, field.degree)
            cb = _random_coeffs(rng, field.degree)
            a, b = field.element(ca), field.element(cb)
            assert a.coeffs == ca and b.coeffs == cb
            results = {
                "+": (a + b, tuple(x + y for x, y in zip(ca, cb))),
                "-": (a - b, tuple(x - y for x, y in zip(ca, cb))),
                "neg": (-a, tuple(-x for x in ca)),
                "*": (a * b, _ref_mul(ca, cb, m)),
                "**3": (a**3, _ref_pow(ca, 3, m)),
            }
            if any(cb):
                results["inverse"] = (b.inverse(), _ref_inverse(cb, m))
                results["/"] = (a / b, _ref_mul(ca, _ref_inverse(cb, m), m))
                results["**-2"] = (b**-2, _ref_pow(cb, -2, m))
            for op, (got, want) in results.items():
                assert got.coeffs == want, (op, ca, cb)
                _assert_normal(got)

    def test_equal_values_are_equal_and_hash_alike(self, name):
        field = ORACLE_FIELDS[name]
        rng = random.Random(f"hash:{name}")
        for _ in range(50):
            a = field.element(_random_coeffs(rng, field.degree))
            b = field.element(_random_coeffs(rng, field.degree))
            routes = [a, field.element(a.coeffs), a + b - b, (a * 3) / 3, -(-a)]
            if b:
                routes.append(a * b / b)
            for x in routes:
                assert x == a and hash(x) == hash(a)
                assert x.num == a.num and x.den == a.den


@pytest.mark.parametrize("name", ["zeta7", "half", "cubic"])
def test_division_round_trip(name):
    field = ORACLE_FIELDS[name]

    @given(elements(field), elements(field))
    def round_trip(a, b):
        if b:
            assert (a * b) / b == a
            _assert_normal((a * b) / b)

    round_trip()


def _term_by_term(us, vs):
    total = us[0] * vs[0]
    for u, v in zip(us[1:], vs[1:]):
        total = total + u * v
    return total


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_dot_matches_the_term_by_term_sum(name):
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"dot:{name}")
    zeros = 0
    for _ in range(120):
        n = rng.randint(1, 9)
        us = [field.element(_random_coeffs(rng, field.degree)) for _ in range(n)]
        vs = [field.element(_random_coeffs(rng, field.degree)) for _ in range(n)]
        cancel = rng.randrange(3)
        if cancel == 1 and n > 1:  # the last product undoes the others
            us[-1], vs[-1] = _term_by_term(us[:-1], vs[:-1]), -field.one()
        elif cancel == 2 and n < 9:  # each product appears with both signs
            us, vs = us + us, vs + [-v for v in vs]
        got, want = dot(us, vs), _term_by_term(us, vs)
        assert (got.num, got.den, got.field) == (want.num, want.den, want.field)
        _assert_normal(got)
        zeros += got.is_zero()
    assert zeros >= 40


def test_dot_coerces_like_mul_and_add():
    twin = ExactField((F(-2), F(0), F(1)))
    assert twin is not SQRT2 and twin == SQRT2
    us = (twin.generator(), SQRT2.element([F(1, 3), 2]), 5)
    vs = (SQRT2.element([1, F(-1, 2)]), twin.element(F(7, 4)), SQRT2.generator())
    assert dot(us, vs) == us[0] * vs[0] + us[1] * vs[1] + us[2] * vs[2]
    assert dot(vs, us) == vs[0] * us[0] + vs[1] * us[1] + vs[2] * us[2]
    q = RATIONALS.element(F(3, 4))
    assert dot((2, q), (q, -3)) == 2 * q + q * -3 == RATIONALS.element(F(-3, 4))
    assert dot((), ()) == sum(()) == 0


def test_dot_refuses_mixed_fields():
    for us, vs in (
        ((SQRT2.one(), CBRT2.one()), (SQRT2.one(), CBRT2.one())),
        ((SQRT2.one(),), (RATIONALS.one(),)),
        ((RATIONALS.one(), RATIONALS.one()), (RATIONALS.one(), SQRT2.one())),
    ):
        with pytest.raises(FieldError):
            dot(us, vs)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_minor_matches_the_term_by_term_difference(name):
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"minor:{name}")
    zeros = 0
    for _ in range(120):
        a, b, c, d = (field.element(_random_coeffs(rng, field.degree)) for _ in range(4))
        cancel = rng.randrange(3)
        if cancel == 1:  # the same product twice
            c, d = b, a
        elif cancel == 2 and d:  # the same product over other denominators
            c, d = a * d, b / d
        got, want = minor(a, b, c, d), a * b - c * d
        assert (got.num, got.den, got.field) == (want.num, want.den, want.field)
        _assert_normal(got)
        zeros += got.is_zero()
    assert zeros >= 40


def test_minor_coerces_like_mul_and_sub():
    twin = ExactField((F(-2), F(0), F(1)))
    a, b, c, d = twin.generator(), SQRT2.element([F(1, 3), 2]), 5, SQRT2.element([1, F(-1, 2)])
    assert minor(a, b, c, d) == a * b - c * d
    assert minor(c, d, b, a) == c * d - b * a
    q = RATIONALS.element(F(3, 4))
    assert minor(2, q, q, -3) == 2 * q - q * -3 == RATIONALS.element(F(15, 4))
    assert minor(F(1, 2), q, q, F(1, 3)) == RATIONALS.element(F(1, 8))
    assert minor(2, 3, 4, 5) == 2 * 3 - 4 * 5 == -14


def test_minor_refuses_mixed_fields():
    for args in (
        (SQRT2.one(), CBRT2.one(), SQRT2.one(), SQRT2.one()),
        (SQRT2.one(), SQRT2.one(), RATIONALS.one(), SQRT2.one()),
        (RATIONALS.one(), RATIONALS.one(), RATIONALS.one(), SQRT2.one()),
    ):
        with pytest.raises(FieldError):
            minor(*args)


def test_long_coefficient_vectors_reduce_like_the_reference():
    for name in ("cbrt2", "half", "cubic", "zeta7"):
        field = ORACLE_FIELDS[name]
        rng = random.Random(f"long:{name}")
        for length in range(1, 3 * field.degree + 2):
            coeffs = _random_coeffs(rng, length)
            want = _ref_pdivmod(list(coeffs), list(field.min_poly))[1]
            got = field.element(coeffs)
            assert got.coeffs == _ref_pad(want, field.degree)
            _assert_normal(got)


def _fraction_det(rows):
    a = [[F(x) for x in r] for r in rows]
    n, det = len(a), F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def test_bareiss_determinants_and_solutions():
    rng = random.Random(20151023)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.1 and n > 1:  # a dependent last row
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        want = _fraction_det(rows)
        pivot, sign = _bareiss([list(r) for r in rows])
        assert sign * pivot == want
        aug = [list(r) + [b] for r, b in zip(rows, rhs)]
        pivot, sign = _bareiss(aug, solve=True)
        assert sign * pivot == want
        if not want:
            singular += 1
            continue
        x = [F(r[-1], pivot) for r in aug]
        assert [sum(F(a) * xi for a, xi in zip(r, x)) for r in rows] == rhs
    assert singular >= 10


def _euclid_squarefree(f):
    """Whether gcd(f, f') over Q is a constant, by the Fraction reference."""
    poly = [F(c) for c in f]
    g, _, _ = _ref_pxgcd(poly, [c * i for i, c in enumerate(poly)][1:])
    return len(g) == 1


class TestSquarefreeCertificate:
    def test_matches_euclid_over_q(self):
        rng = random.Random(20151024)
        seen = {True: 0, False: 0}
        for _ in range(300):
            f = [rng.choice((-2, -1, 1, 3))]
            for _ in range(rng.randint(1, 4)):
                g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)]
                for _ in range(rng.choice((1, 1, 2))):
                    f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
                         for k in range(len(f) + len(g) - 1)]
            want = _euclid_squarefree(f)
            assert (factor_squarefree(f) is not None) == want, f
            seen[want] += 1
        assert min(seen.values()) >= 50

    def test_squares_at_every_small_prime_fall_back(self, monkeypatch):
        exact = []
        euclid = _zpoly._squarefree
        monkeypatch.setattr(
            _zpoly, "_squarefree", lambda f: exact.append(f) or euclid(f)
        )
        # (x^2 + 1)(x^2 + 7)(x^2 + 127) is square-free, but not mod 3, 5 or
        # 7, so only the exact test can say so
        assert factor_squarefree([889, 0, 1023, 0, 135, 0, 1]) == [
            [1, 0, 1], [7, 0, 1], [127, 0, 1]
        ]
        assert len(exact) == 1
        assert factor_squarefree([1, 0, 2, 0, 1]) is None and len(exact) == 2  # (x^2 + 1)^2
        assert factor_squarefree([7, 0, 1]) == [[7, 0, 1]] and len(exact) == 2  # mod 3


# ---------------------------------------------------------------------------
# the root skeleton over number fields


SQRT5 = ORACLE_FIELDS["sqrt5"]
ZETA5 = ORACLE_FIELDS["zeta5"]


def _kx_mul(a, b):
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("field", [SQRT5, CBRT2, ZETA5], ids=["sqrt5", "cbrt2", "zeta5"])
def test_number_field_multiplicities_match_repeated_division(field):
    rng = random.Random(f"multiplicities:{field.degree}")
    seen = {1: 0, 2: 0, 3: 0}
    for _ in range(12):
        chosen = {}
        while len(chosen) < rng.randint(1, 3):
            x = field.element([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(field.degree)])
            chosen[x] = rng.choice((1, 2, 3))
        poly = [field.element(rng.choice((-2, 1, 3)))]
        for x, mult in chosen.items():
            for _ in range(mult):
                poly = _kx_mul(poly, [-x, field.one()])
        if rng.random() < 0.5:  # a factor x^2 - 7, no root in these fields
            poly = _kx_mul(poly, [field.element(-7), field.zero(), field.one()])
        got = roots_in_field(poly, field)
        assert len({r for r, _ in got}) == len(got)
        assert {r: m for r, m in got if r in chosen} == chosen
        for root, mult in got:
            assert mult == _divisions(poly, root) >= 1
            seen[min(mult, 3)] += 1
        assert sum(m for _, m in got) <= len(poly) - 1
    assert min(seen.values()) >= 3, seen


def test_number_field_roots_refuse_a_repeated_root():
    theta = SQRT5.generator()
    # (x - theta)^2 (x - 1): every shifted norm has a square factor
    poly = _kx_mul(_kx_mul([-theta, SQRT5.one()], [-theta, SQRT5.one()]),
                   [SQRT5.element(-1), SQRT5.one()])
    with pytest.raises(AssertionError, match="repeated root"):
        _number_field_roots(kx_monic(poly), SQRT5)
    assert set(roots_in_field(poly, SQRT5)) == {(theta, 2), (SQRT5.one(), 1)}


def test_linear_polynomials_are_answered_directly(monkeypatch):
    monkeypatch.setattr(_zpoly, "integer_norm", None)  # no norm is taken
    theta = CBRT2.generator()
    poly = [theta * 3 + 1, CBRT2.element(F(2, 3))]
    ((root, mult),) = roots_in_field(poly, CBRT2)
    assert mult == 1 and poly[0] + poly[1] * root == CBRT2.zero()
    assert roots_in_field([RATIONALS.element(F(-3, 4)), RATIONALS.element(2)], RATIONALS) == [
        (RATIONALS.element(F(3, 8)), 1)
    ]


# ---------------------------------------------------------------------------
# the field degree limit


def test_swinnerton_dyer_fields_up_to_the_degree_limit():
    assert swinnerton_dyer(2) == [1, 0, -10, 0, 1]
    assert swinnerton_dyer(3) == [576, 0, -960, 0, 352, 0, -40, 0, 1]
    sd4 = swinnerton_dyer(4)
    assert len(sd4) - 1 == MAX_FIELD_DEGREE == 16
    assert ExactField(tuple(F(c) for c in sd4)).degree == 16
    for n in (5, 6):
        sd = swinnerton_dyer(n)
        assert len(sd) - 1 == 2**n and sd[-1] == 1
        with pytest.raises(FieldError, match="largest field degree supported is 16"):
            ExactField(tuple(F(c) for c in sd))

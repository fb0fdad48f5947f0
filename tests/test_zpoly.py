"""The integer factorizer, the norm and the number-field root finder
against sympy, which serves only as an oracle here: the package itself
does not import it."""

import random
from fractions import Fraction as F

import pytest
import sympy
from conftest import swinnerton_dyer
from hypothesis import assume, given, settings, strategies as st

from harbourne import _zpoly, exactfield
from harbourne.exactfield import (
    RATIONALS,
    ExactField,
    FieldError,
    _number_field_roots,
    _over_common_den,
    _power_table,
    kx_derivative,
    kx_divmod,
    kx_gcd,
    kx_monic,
    kx_shift,
    roots_in_field,
)

X, TH = sympy.symbols("_x _theta")


def _zmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_factor(rng, degree):
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    return coeffs + [rng.choice([-3, -2, -1, 1, 2, 3])]


def _sympy_factors(f):
    """sympy's irreducible factors of f, or None when f is not square-free."""
    _, factors = sympy.factor_list(sympy.Poly(f[::-1], X, domain="ZZ"))
    if any(mult > 1 for _, mult in factors):
        return None
    return [[int(c) for c in reversed(q.all_coeffs())] for q, _ in factors]


def _is_squarefree(f):
    poly = sympy.Poly(f[::-1], X, domain="ZZ")
    return sympy.gcd(poly, poly.diff(X)).degree() == 0


# x^4 - 2x^3 - 3x^2 - 2x - 3 = x (x - 1)(x^2 - x - 1) mod 3, irreducible
# mod 5 and over Z
QUARTIC = [-3, -2, -3, -2, 1]


class TestFactorSquarefree:
    def test_matches_sympy_on_seeded_products(self):
        rng = random.Random(20151021)
        compared = split = 0
        while compared < 300:
            count = rng.randint(1, 4)
            degrees = [1] * count
            for _ in range(rng.randint(count, 24) - count):
                degrees[rng.randrange(count)] += 1
            f = [rng.choice([-6, -1, 1, 4])]
            for d in degrees:
                f = _zmul(f, _random_factor(rng, d))
            want = _sympy_factors(f)
            if want is None:
                continue
            got = _zpoly.factor_squarefree(f)
            assert got == want, f
            compared += 1
            split += len(got) > 1
        assert split > 150

    def test_many_modular_factors(self):
        # x^8 - 40x^6 + 352x^4 - 960x^2 + 576, the minimal polynomial of
        # sqrt 2 + sqrt 3 + sqrt 5: irreducible, yet it splits into factors
        # of degree at most 2 modulo every prime
        f = [576, 0, -960, 0, 352, 0, -40, 0, 1]
        assert _zpoly.factor_squarefree(f) == [f]
        g = _zmul(f, [-1, 0, 2])
        assert _zpoly.factor_squarefree(g) == _sympy_factors(g) == [[-1, 0, 2], f]
        # QUARTIC has three factors mod 3, its first good prime, and one mod 5
        assert _zpoly.factor_squarefree(QUARTIC) == _sympy_factors(QUARTIC)
        h = _zmul(QUARTIC, [-1, 2])
        assert _zpoly.factor_squarefree(h) == _sympy_factors(h)

    @pytest.mark.parametrize("f", [QUARTIC, swinnerton_dyer(3)], ids=["quartic", "sd3"])
    def test_one_prime_per_factorization(self, monkeypatch, f):
        # the irreducible factors over Z do not depend on the prime, so the
        # first good prime is split and no other prime is tried
        calls = []
        distinct_degree = _zpoly._distinct_degree

        def counted(fp, p):
            calls.append(p)
            return distinct_degree(fp, p)

        monkeypatch.setattr(_zpoly, "_distinct_degree", counted)
        assert _zpoly.factor_squarefree(f) == [f]
        assert len(calls) == 1

    def test_content_and_sign_are_dropped(self):
        assert _zpoly.factor_squarefree([0, -6]) == [[0, 1]]
        assert _zpoly.factor_squarefree([6, 0, -6]) == [[-1, 1], [1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=2, max_size=6).filter(
                lambda q: q[-1] != 0
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(-5, 5).filter(bool),
    )
    def test_round_trip(self, factors, scale):
        f = [scale]
        for q in factors:
            f = _zmul(f, q)
        assume(_is_squarefree(f))
        found = _zpoly.factor_squarefree(f)
        back = [1]
        for q in found:
            assert q[-1] > 0
            assert _zpoly.factor_squarefree(q) == [q]
            back = _zmul(back, q)
        # f is its content times the product of its factors
        assert all(a * back[-1] == b * f[-1] for a, b in zip(f, back))
        assert found == sorted(found, key=lambda q: (len(q), q[::-1]))


def _sympy_expr(coeffs, var):
    return sum(sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(coeffs))


def _sympy_norm(g_coeffs, min_poly):
    g = sympy.expand(sum(_sympy_expr(c, TH) * X**i for i, c in enumerate(g_coeffs)))
    res = sympy.Poly(sympy.resultant(_sympy_expr(min_poly, TH), g, TH), X)
    return [F(int(c.p), int(c.q)) for c in reversed(res.all_coeffs())]


SQRT5 = ExactField((F(-5), F(0), F(1)))
CBRT2 = ExactField((F(-2), F(0), F(0), F(1)))
ZETA5 = ExactField(tuple(F(1) for _ in range(5)))
ZETA7 = ExactField(tuple(F(1) for _ in range(7)))
HALF = ExactField((F(-1, 2), F(1, 3), F(1)))  # x^2 + x/3 - 1/2


def _random_element(rng, field, scale=3):
    return field.element(
        [F(rng.randint(-scale, scale), rng.randint(1, 2)) for _ in range(field.degree)]
    )


def _kx_mul(a, b):
    field = a[0].field
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _random_kx(rng, field, roots, other_degree):
    """Product of (x - r) over in-field roots r (repeats allowed) and a
    random polynomial of other_degree."""
    poly = [field.one()]
    for r in roots:
        poly = _kx_mul(poly, [-r, field.one()])
    if other_degree:
        other = [_random_element(rng, field) for _ in range(other_degree)]
        poly = _kx_mul(poly, other + [_random_element(rng, field) or field.one()])
    return poly


def _norm(g, m):
    """Res_theta(m, g) in Q[x] for monic m and g in (Q[theta]/(m))[x], from
    :func:`_zpoly.integer_norm` of g with its denominators cleared, divided
    by the constant that the scaling and m's power table contribute."""
    table = _power_table(m)
    d = len(m) - 1
    nums, den = _over_common_den(
        (c.numerator, c.denominator) for coeffs in g for c in coeffs
    )
    ints = _zpoly.integer_norm([nums[i : i + d] for i in range(0, len(nums), d)], table)
    scale = (table[1] * den) ** d
    return [F(c, scale) for c in ints]


class TestNorm:
    @pytest.mark.parametrize(
        "field", [SQRT5, CBRT2, ZETA5, HALF], ids=["sqrt5", "cbrt2", "zeta5", "half"]
    )
    def test_matches_sympy_resultant(self, field):
        rng = random.Random(field.degree)
        for _ in range(6):
            degree = rng.randint(1, 3)
            g = [_random_element(rng, field) for _ in range(degree)] + [field.one()]
            want = _sympy_norm([c.coeffs for c in g], field.min_poly)
            assert _norm([c.coeffs for c in g], field.min_poly) == want


def _sympy_number_field_roots(poly, field):
    """The sympy-backed root finder the package used before: norm by
    sympy's resultant, square-free test by its gcd, factors from its
    factor_list, in that order."""
    m_expr = _sympy_expr(field.min_poly, TH)
    work = kx_monic(poly)
    g = kx_gcd(work, kx_derivative(work))
    if len(g) > 1:
        work, _ = kx_divmod(work, g)
        work = kx_monic(work)
    theta = field.generator()
    for s in range(64):
        shifted = kx_shift(work, theta * (-s))
        g_expr = sympy.expand(
            sum(_sympy_expr(c.coeffs, TH) * X**i for i, c in enumerate(shifted))
        )
        norm_poly = sympy.Poly(sympy.expand(sympy.resultant(m_expr, g_expr, TH)), X)
        if sympy.gcd(norm_poly, norm_poly.diff(X)).degree() > 0:
            continue
        roots = []
        for factor, _ in sympy.factor_list(norm_poly)[1]:
            if factor.degree(X) > field.degree:
                continue
            q_kx = [
                field.element(F(int(c.p), int(c.q))) for c in reversed(factor.all_coeffs())
            ]
            h = kx_gcd(shifted, q_kx)
            if len(h) == 2:
                roots.append(-h[0] - theta * s)
        return roots
    raise FieldError("shift search exhausted")


class TestNumberFieldRoots:
    @pytest.mark.parametrize(
        "field, trials, max_roots",
        [(SQRT5, 12, 4), (CBRT2, 10, 3), (ZETA5, 8, 3), (ZETA7, 4, 2)],
        ids=["sqrt5", "cbrt2", "zeta5", "zeta7"],
    )
    def test_matches_the_sympy_root_finder(self, field, trials, max_roots):
        rng = random.Random(7 * field.degree + trials)
        found = 0
        for _ in range(trials):
            distinct = [_random_element(rng, field) for _ in range(rng.randint(1, max_roots))]
            roots = distinct + distinct[: rng.randint(0, len(distinct))]
            poly = _random_kx(rng, field, roots, rng.randint(0, 2))
            want = _sympy_number_field_roots(poly, field)
            work = kx_monic(poly)
            g = kx_gcd(work, kx_derivative(work))
            squarefree = kx_divmod(work, g)[0] if len(g) > 1 else work
            assert _number_field_roots(squarefree, field) == want
            got = roots_in_field(poly, field)
            assert [r for r, _ in got] == want
            assert set(distinct) <= set(want)
            found += len(want)
        assert found >= trials

    def test_roots_at_the_degree_limit(self):
        # x^2 - 2 over Q(sqrt 2 + sqrt 3 + sqrt 5 + sqrt 7), of degree 16
        # (SD_4): the norm has degree 32 and splits into factors of degree
        # at most 2 modulo every prime
        field = ExactField(tuple(F(c) for c in swinnerton_dyer(4)))
        poly = [field.element(-2), field.zero(), field.one()]
        roots = roots_in_field(poly, field)
        assert [m for _, m in roots] == [1, 1]
        r, s = (root for root, _ in roots)
        assert s == -r and r * r == field.element(2)

    def test_rational_coefficients_need_a_shift(self):
        # x^2 - 5 over Q(sqrt 5): the norm at shift 0 is (x^2 - 5)^2
        poly = [SQRT5.element(-5), SQRT5.zero(), SQRT5.one()]
        theta = SQRT5.generator()
        assert _number_field_roots(poly, SQRT5) == _sympy_number_field_roots(poly, SQRT5)
        assert set(_number_field_roots(poly, SQRT5)) == {theta, -theta}


def _count_calls(monkeypatch, *names):
    """Count the calls that roots_in_field makes to exactfield's names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(exactfield, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(exactfield, name, counting)
    return calls


def _norm_squarefree_at_shift_0(poly, field):
    d = field.degree
    nums, _ = _over_common_den((n, c.den) for c in kx_monic(poly) for n in c.num)
    norm = _zpoly.integer_norm([nums[i : i + d] for i in range(0, len(nums), d)], field._table)
    return _zpoly.factor_squarefree(norm) is not None


class TestSquarefreeFirst:
    """The factorizer decides square-freeness before any square-free chain,
    and a split polynomial's last root comes from Vieta, not from a gcd."""

    @pytest.mark.parametrize("field", [SQRT5, CBRT2, ZETA5], ids=["sqrt5", "cbrt2", "zeta5"])
    def test_split_polynomials_take_n_minus_1_gcds(self, monkeypatch, field):
        rng = random.Random(f"vieta:{field.degree}")
        at_shift_0 = 0
        for _ in range(8):
            roots = []
            while len(roots) < rng.randint(2, 4):
                r = _random_element(rng, field)
                if r not in roots:
                    roots.append(r)
            scale = _random_element(rng, field)
            if scale.is_zero():
                continue
            poly = [c * scale for c in _random_kx(rng, field, roots, 0)]
            want = _sympy_number_field_roots(poly, field)  # a gcd for every root
            calls = _count_calls(monkeypatch, "kx_gcd", "kx_derivative")
            got = roots_in_field(poly, field)
            monkeypatch.undo()
            assert got == [(r, 1) for r in want] and set(want) == set(roots)
            if _norm_squarefree_at_shift_0(poly, field):
                at_shift_0 += 1
                assert calls == {"kx_gcd": len(roots) - 1, "kx_derivative": 0}
        assert at_shift_0 >= 4, at_shift_0

    def test_squarefree_rational_polynomials_take_no_gcd(self, monkeypatch):
        rng = random.Random("squarefree over Q")
        for _ in range(10):
            roots = {F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))}
            poly = [RATIONALS.element(c) for c in (rng.randint(-5, 5), 0, 1)]  # x^2 + c
            for r in roots:
                poly = _kx_mul(poly, [RATIONALS.element(-r), RATIONALS.one()])
            if len(kx_gcd(poly, kx_derivative(poly))) > 1:
                continue  # c = 0 or -r^2: a repeated root
            calls = _count_calls(monkeypatch, "kx_gcd", "kx_derivative")
            got = roots_in_field(poly, RATIONALS)
            monkeypatch.undo()
            assert calls == {"kx_gcd": 0, "kx_derivative": 0}
            assert {r.as_rational() for r, m in got if m == 1} >= roots
            assert all(m == 1 for _, m in got)

    def test_a_squarefree_polynomial_with_a_repeated_norm_resumes_at_shift_1(self, monkeypatch):
        # x^2 - 5 over Q(sqrt 5): the norm at shift 0 is (x^2 - 5)^2, so the
        # chain runs, finds x^2 - 5 square-free, and the shifts go on from 1
        theta = SQRT5.generator()
        poly = [SQRT5.element(-5), SQRT5.zero(), SQRT5.one()]
        calls = _count_calls(monkeypatch, "kx_derivative")
        got = roots_in_field(poly, SQRT5)
        monkeypatch.undo()
        assert calls == {"kx_derivative": 1}
        assert got == [(r, 1) for r in _sympy_number_field_roots(poly, SQRT5)]
        assert {r for r, _ in got} == {theta, -theta}

    @pytest.mark.parametrize("field", [RATIONALS, SQRT5, CBRT2], ids=["Q", "sqrt5", "cbrt2"])
    def test_repeated_roots_run_the_chain(self, monkeypatch, field):
        rng = random.Random(f"repeated:{field.degree}")
        for _ in range(4):
            a, b = _random_element(rng, field), _random_element(rng, field)
            if a == b:
                continue
            poly = _random_kx(rng, field, [a, a, b, a], rng.randint(0, 2))
            calls = _count_calls(monkeypatch, "kx_derivative")
            got = roots_in_field(poly, field)
            monkeypatch.undo()
            assert calls["kx_derivative"] >= 2
            assert {r: m for r, m in got if r in (a, b)} == {a: 3, b: 1}
            if field is not RATIONALS:
                assert [r for r, _ in got] == _sympy_number_field_roots(poly, field)

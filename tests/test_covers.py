import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import quadric_profiles
from harbourne import covers
from harbourne.constraints import hirzebruch_one_one
from harbourne.profiles import CONICS, ConfigurationProfile, ONE_ONE
from harbourne.search import SearchQuery, enumerate_profiles

F = Fraction


class TestEulerExpr:
    def test_basis_coefficients(self):
        e = covers.euler_expr()
        assert e.coefficient(2) == {
            "1": F(4),
            "k": F(-2),
            "t2": F(1),
            "S1": F(1),
            "S0": F(-1),
        }
        assert e.coefficient(1) == {
            "k": F(2),
            "t2": F(-2),
            "S0": F(2),
            "S1": F(-2),
        }
        assert e.coefficient(0) == {"t2": F(1), "S1": F(1)}

    def test_numeric_instantiation(self):
        vals = covers.symbol_values(4, {2: 12})
        assert vals == {"k": 4, "k2": 16, "t2": 12, "S0": 0, "S1": 0, "S2": 0}
        assert all(type(v) is int for v in vals.values())
        value = covers.euler_expr().evaluate(vals, n=2)
        assert type(value) is Fraction and value == 12
        assert type(covers.euler_expr().evaluate({**vals, "k": F(4)}, n=2)) is Fraction


class TestCanonicalSquareExpr:
    def test_basis_coefficients(self):
        ksq = covers.canonical_square_expr()
        assert ksq.coefficient(0) == {
            "k2": F(2),
            "S2": F(-1),
            "S1": F(2),
            "S0": F(-1),
        }
        assert ksq.coefficient(2) == {
            "1": F(8),
            "k": F(-8),
            "k2": F(2),
            "S2": F(-1),
            "S1": F(4),
            "S0": F(-4),
        }
        assert ksq.coefficient(1) == {
            "k": F(8),
            "k2": F(-4),
            "S2": F(2),
            "S1": F(-6),
            "S0": F(4),
        }


class TestMargin:
    def test_reduced_margin_at_three_is_the_closed_form(self):
        margin = covers.miyaoka_yau_margin(3)
        assert margin == covers.reduced_margin_closed_form()
        assert margin.coefficient(0) == {
            "1": F(36),
            "k": F(4),
            "t2": F(4),
            "S0": F(16),
            "S1": F(-4),
        }

    def test_k_squared_eliminated(self):
        for n in (2, 3, 4, 7):
            assert "k2" not in covers.miyaoka_yau_margin(n).coefficient(0)

    def test_margin_on_profiles(self):
        assert covers.margin_on_profile(
            ConfigurationProfile(ONE_ONE, 4, {2: 12}), 3
        ) == 100
        assert covers.margin_on_profile(
            ConfigurationProfile(ONE_ONE, 6, {5: 1, 2: 20}), 3
        ) == 136

    def test_margin_rejects_invalid_profile(self):
        from harbourne.profiles import ProfileInvalidError

        with pytest.raises(ProfileInvalidError):
            covers.margin_on_profile(ConfigurationProfile(ONE_ONE, 4, {2: 11}), 3)

    def test_margin_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            covers.margin_on_profile(ConfigurationProfile(CONICS, 4, {2: 24}), 3)


@st.composite
def raw_instantiations(draw):
    k = draw(st.integers(3, 40))
    rs = draw(st.lists(st.integers(2, 12), min_size=1, max_size=5, unique=True))
    t = {r: draw(st.integers(0, 9)) for r in rs}
    n = draw(st.integers(2, 5))
    return k, t, n


class TestSymbolicNumericAgreement:
    @given(raw_instantiations())
    def test_unreduced_margin_matches_direct_formulas(self, inst):
        """Identity not assumed: the formal expression must agree with
        direct arithmetic evaluation everywhere."""
        k, t, n = inst
        vals = covers.symbol_values(k, t)
        symbolic = covers.unreduced_margin(n).evaluate(vals)
        direct = 3 * covers.direct_euler_value(
            k, t, n
        ) - covers.direct_canonical_square_value(k, t, n)
        assert symbolic == direct

    @given(raw_instantiations())
    def test_euler_and_canonical_separately(self, inst):
        k, t, n = inst
        vals = covers.symbol_values(k, t)
        assert covers.euler_expr().evaluate(vals, n=n) == covers.direct_euler_value(
            k, t, n
        )
        assert covers.canonical_square_expr().evaluate(
            vals, n=n
        ) == covers.direct_canonical_square_value(k, t, n)

    def test_reduction_sound_on_identity_satisfying_data(self):
        rng = random.Random(99252)
        for _ in range(150):
            k = rng.randint(4, 30)
            cap = 2 * k * (k - 1)
            t, spent = {}, 0
            for r in rng.sample(range(3, 9), 3):
                room = (cap - spent) // (r * (r - 1))
                c = rng.randint(0, min(room, 6))
                if c:
                    t[r] = c
                    spent += r * (r - 1) * c
            t[2] = (cap - spent) // 2
            assert covers.quadric_identity_holds(k, t)
            vals = covers.symbol_values(k, t)
            for n in (2, 3, 5):
                assert covers.unreduced_margin(n).evaluate(
                    vals
                ) == covers.miyaoka_yau_margin(n).evaluate(vals)


class TestMarginPredicateAgreement:
    @given(quadric_profiles(min_k=4, max_k=8))
    def test_sign_agreement_random(self, profile):
        margin = covers.margin_on_profile(profile, 3)
        assert (margin >= 0) == hirzebruch_one_one(profile).holds

    def test_sign_agreement_exhaustive_small_k(self):
        for k in (4, 5):
            for profile in enumerate_profiles(
                SearchQuery(ONE_ONE, k, require_tk_zero=True)
            ):
                margin = covers.margin_on_profile(profile, 3)
                assert (margin >= 0) == hirzebruch_one_one(profile).holds

    def test_margin_factor_matches_inequality_slack(self):
        profile = ConfigurationProfile(ONE_ONE, 6, {5: 1, 2: 20})
        check = hirzebruch_one_one(profile)
        assert covers.margin_on_profile(profile, 3) == 4 * (check.lhs - check.rhs)


class TestFormalExpr:
    def test_equality_after_reduction(self):
        a = covers.FormalExpr({0: {"k": F(1)}, 1: {"t2": F(0)}})
        b = covers.FormalExpr({0: {"k": F(1)}})
        assert a == b

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            covers.FormalExpr({0: {"bogus": F(1)}})

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            covers.FormalExpr({-1: {"k": F(1)}})

    def test_needs_n_when_degree_positive(self):
        with pytest.raises(ValueError):
            covers.euler_expr().evaluate(covers.symbol_values(4, {2: 12}))

    def test_rewrite_is_identity_compatible(self):
        """k^2 rewrite agrees with direct evaluation whenever the quadric
        identity holds."""
        expr = covers.FormalExpr({0: {"k2": F(1)}})
        reduced = expr.reduce_common_point_identity()
        vals = covers.symbol_values(5, {2: 20})  # 2*5*4 = 40 = 2*t2
        assert covers.quadric_identity_holds(5, {2: 20})
        assert reduced.evaluate(vals) == expr.evaluate(vals) == 25



def _reference_value(expr, values, n=None):
    """sum_p n^p sum_sym coeff * value, term by term over Fractions."""
    vals = {**values, "1": 1}
    if "k" in vals:
        vals.setdefault("k2", vals["k"] ** 2)
    total = F(0)
    for p, lc in expr.terms.items():
        inner = sum((c * F(vals[sym]) for sym, c in lc.items()), F(0))
        total += F(n if p else 1) ** p * inner
    return total


SIXTHS = covers.euler_expr().scale(F(1, 6))
MIXED = covers.euler_expr().scale(F(1, 2)) - covers.canonical_square_expr().scale(
    F(1, 3)
)
HALVES = covers.FormalExpr(  # the k2 rewrite brings in S2/2 and -S1/2
    {0: {"k2": F(1)}, 1: {"k2": F(3), "S0": F(1)}}
).reduce_common_point_identity()


class TestIntegerForm:
    """evaluate sums integer numerators over one common denominator."""

    def test_fixtures_have_the_denominators(self):
        def dens(expr):
            return {c.denominator for lc in expr.terms.values() for c in lc.values()}

        assert dens(SIXTHS) == {3, 6} and dens(MIXED) == {1, 2, 3, 6}
        assert dens(HALVES) == {1, 2} and "k2" not in HALVES.coefficient(1)

    @pytest.mark.parametrize(
        "expr", [SIXTHS, MIXED, HALVES], ids=["sixths", "mixed", "halves"]
    )
    def test_matches_the_reference_sum(self, expr):
        rng = random.Random(80521)
        for _ in range(50):
            k = rng.randint(3, 30)
            t = {r: rng.randint(0, 9) for r in rng.sample(range(2, 13), 4)}
            vals = covers.symbol_values(k, t)
            for n in (2, 3, 7):
                value = expr.evaluate(vals, n=n)
                assert type(value) is Fraction
                assert value == _reference_value(expr, vals, n)

    def test_fraction_values(self):
        vals = {"k": F(7, 2), "t2": F(1, 3), "S0": F(5), "S1": F(-2, 9), "S2": F(4, 5)}
        for expr in (SIXTHS, MIXED, HALVES, covers.miyaoka_yau_margin(3)):
            value = expr.evaluate(vals, n=4)
            assert type(value) is Fraction
            assert value == _reference_value(expr, vals, 4)
        vals["k2"] = F(1, 7)  # given explicitly, not taken as k^2
        assert MIXED.evaluate(vals, n=3) == _reference_value(MIXED, vals, 3)

    def test_degree_zero_needs_no_n(self):
        vals = covers.symbol_values(6, {5: 1, 2: 20})
        margin = covers.unreduced_margin(3).scale(F(1, 6))
        value = margin.evaluate(vals)
        assert type(value) is Fraction and value == _reference_value(margin, vals)
        with pytest.raises(ValueError, match="pass n explicitly"):
            SIXTHS.evaluate(vals)

    def test_empty_expression(self):
        empty = covers.FormalExpr({})
        assert empty == covers.FormalExpr({0: {"k": F(0)}})
        for value in (empty.evaluate({}), empty.evaluate({"k": 4}, n=3)):
            assert type(value) is Fraction and value == 0

    def test_one_fraction_per_call(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        vals = covers.symbol_values(6, {5: 1, 2: 20})
        monkeypatch.setattr(Fraction, "__new__", counting)
        assert F(1, 2) + F(1, 3) == F(5, 6) and built  # the hook sees arithmetic
        for expr, n in ((covers.miyaoka_yau_margin(3), None), (MIXED, 5)):
            built.clear()
            expr.evaluate(vals, n=n)
            assert len(built) == 1


class TestMarginCache:
    def test_bad_order_raises_on_every_call(self):
        covers.unreduced_margin.cache_clear()
        covers.miyaoka_yau_margin.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="cover order must be >= 2"):
                covers.unreduced_margin(1)
            with pytest.raises(ValueError, match="cover order must be >= 2"):
                covers.miyaoka_yau_margin(1)
        assert covers.unreduced_margin.cache_info().currsize == 0

    def test_cached_margin_cannot_be_changed_by_a_caller(self):
        margin = covers.miyaoka_yau_margin(3)
        with pytest.raises(TypeError):
            margin.terms[0] = {"k": F(1)}
        with pytest.raises(TypeError):
            margin.terms[0]["k"] = F(1)
        coeff = margin.coefficient(0)
        coeff["k"] = F(99)
        assert covers.miyaoka_yau_margin(3) == covers.reduced_margin_closed_form()

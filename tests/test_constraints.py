from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import conic_profiles
from harbourne.constraints import (
    CaseTag,
    HypothesisNotMet,
    classify_conic_case,
    hirz11_margin,
    hirzebruch_one_one,
    holds_over_integers,
    lt_coefficients,
    lt_holds,
    positivity_at_one,
    positivity_quadratic,
    QuadraticConstraint,
)
from harbourne.hconst import local_h
from harbourne.profiles import CONICS, ConfigurationProfile, LINES, ONE_ONE, moments
from harbourne.search import SearchQuery, enumerate_profiles


class TestPositivityQuadratic:
    @pytest.mark.parametrize(
        "k, t, abc",
        [
            (3, {2: 12}, (18, 18, 0)),
            (4, {2: 24}, (32, 24, 0)),
            (4, {3: 8}, (16, 8, 32)),
        ],
    )
    def test_coefficients(self, k, t, abc):
        q = positivity_quadratic(ConfigurationProfile(CONICS, k, t))
        assert (q.a, q.b, q.c) == abc

    def test_gate_tk_nonzero(self):
        with pytest.raises(HypothesisNotMet):
            positivity_quadratic(ConfigurationProfile(CONICS, 5, {5: 4}))

    def test_gate_small_k(self):
        with pytest.raises(HypothesisNotMet):
            positivity_quadratic(ConfigurationProfile(CONICS, 2, {2: 4}))

    def test_gate_wrong_class(self):
        with pytest.raises(HypothesisNotMet):
            positivity_quadratic(ConfigurationProfile(LINES, 4, {2: 6}))


class TestHoldsOverIntegers:
    def test_boundary_zeroes(self):
        check = holds_over_integers(QuadraticConstraint(18, 18, 0))
        assert check.holds  # F(-1) = F(0) = 0, negative only strictly between

    def test_violation_witness(self):
        check = holds_over_integers(QuadraticConstraint(1, 0, -1))
        assert not check.holds
        assert check.witness_x == 0 and check.witness_value == -1

    def test_perfect_square(self):
        assert holds_over_integers(QuadraticConstraint(1, 0, 0)).holds

    def test_nonpositive_leading_coefficient(self):
        with pytest.raises(HypothesisNotMet):
            holds_over_integers(QuadraticConstraint(0, 1, 1))

    def test_rejects_combinatorial_profile_below_the_bound(self):
        # t_9 = 17 on k = 18 conics is combinatorially feasible with
        # h = -81/17 < -9/2; integer positivity must rule it out
        profile = ConfigurationProfile(CONICS, 18, {9: 17})
        assert local_h(profile).h == Fraction(-81, 17) < Fraction(-9, 2)
        q = positivity_quadratic(profile)
        check = holds_over_integers(q)
        assert not check.holds
        assert check.witness_x == 1 and check.witness_value == -9

    @pytest.mark.parametrize("abc, x", [((1, 1, -5), 0), ((1, 3, -1), -2)])
    def test_tie_at_a_half_integer_vertex(self, abc, x):
        # F is equal and negative at both integers nearest the vertex
        check = holds_over_integers(QuadraticConstraint(*abc))
        assert not check.holds and check.witness_x == x

    @given(
        st.integers(1, 60),
        st.integers(-300, 300),
        st.integers(-300, 300),
    )
    def test_agrees_with_exhaustive_scan(self, a, b, c):
        q = QuadraticConstraint(a, b, c)
        check = holds_over_integers(q)
        brute = all(q.value(x) >= 0 for x in range(-10_000, 10_001))
        assert check.holds == brute
        if not check.holds:
            assert q.value(check.witness_x) == check.witness_value < 0


class TestPositivityAtOne:
    def test_twelve_double_points(self):
        value, holds = positivity_at_one(ConfigurationProfile(CONICS, 3, {2: 12}))
        assert value == 36 and holds

    def test_eight_triple_points(self):
        value, holds = positivity_at_one(ConfigurationProfile(CONICS, 4, {3: 8}))
        assert value == 56 and holds

    def test_gate(self):
        with pytest.raises(HypothesisNotMet):
            positivity_at_one(ConfigurationProfile(CONICS, 5, {5: 4}))

    @given(conic_profiles(require_tk_zero=True))
    def test_matches_quadratic_at_one(self, profile):
        value, _ = positivity_at_one(profile)
        assert value == positivity_quadratic(profile).value(1)


class TestHirzebruchOneOne:
    def test_no_high_multiplicities(self):
        check = hirzebruch_one_one(ConfigurationProfile(ONE_ONE, 4, {2: 12}))
        assert (check.lhs, check.rhs, check.holds) == (25, 0, True)

    def test_one_five_fold_point(self):
        check = hirzebruch_one_one(
            ConfigurationProfile(ONE_ONE, 6, {5: 1, 2: 20})
        )
        assert (check.lhs, check.rhs, check.holds) == (35, 1, True)

    def test_combinatorial_failure_exists(self):
        # two 25-fold points plus five 5-fold points on k = 26 curves
        profile = ConfigurationProfile(ONE_ONE, 26, {25: 2, 5: 5})
        check = hirzebruch_one_one(profile)
        assert (check.lhs, check.rhs, check.holds) == (35, 47, False)

    def test_gate_tk_nonzero(self):
        with pytest.raises(HypothesisNotMet):
            hirzebruch_one_one(ConfigurationProfile(ONE_ONE, 5, {5: 2}))

    def test_gate_small_k(self):
        with pytest.raises(HypothesisNotMet):
            hirzebruch_one_one(ConfigurationProfile(ONE_ONE, 3, {2: 6}))

    def test_gate_wrong_class(self):
        with pytest.raises(HypothesisNotMet):
            hirzebruch_one_one(ConfigurationProfile(CONICS, 4, {2: 24}))


def test_moment_forms_match_the_profile_predicates():
    # every tk0 profile of the conic (k = 3..9) and (1,1) (k = 4..10) ladders
    queries = [SearchQuery(CONICS, k, True) for k in range(3, 10)]
    queries += [SearchQuery(ONE_ONE, k, True) for k in range(4, 11)]
    for query in queries:
        for profile in enumerate_profiles(query):
            ms = moments(profile)
            m = profile.k, ms.f0, ms.f1, profile.t_of(2)
            if query.curve_class is CONICS:
                q = positivity_quadratic(profile)
                assert (q.a, q.b, q.c) == lt_coefficients(*m), profile
                assert holds_over_integers(q).holds == lt_holds(*m), profile
            else:
                check = hirzebruch_one_one(profile)
                assert check.lhs - check.rhs == hirz11_margin(*m), profile


class TestClassifier:
    def test_tk4_pencil(self):
        case = classify_conic_case(ConfigurationProfile(CONICS, 5, {5: 4}))
        assert case.case_tag is CaseTag.TK4
        assert case.bound == 0
        assert local_h(ConfigurationProfile(CONICS, 5, {5: 4})).h == 0

    def test_tk3(self):
        case = classify_conic_case(ConfigurationProfile(CONICS, 4, {4: 3, 2: 6}))
        assert case.case_tag is CaseTag.TK3
        assert case.bound == Fraction(-9, 2)

    def test_tk0(self):
        case = classify_conic_case(ConfigurationProfile(CONICS, 4, {2: 24}))
        assert case.case_tag is CaseTag.TK0
        assert case.bound == Fraction(-9, 2)

    def test_tk1_open(self):
        case = classify_conic_case(ConfigurationProfile(CONICS, 3, {3: 1, 2: 9}))
        assert case.case_tag is CaseTag.TK1_OPEN
        assert case.bound is None
        assert "open" in case.provenance

    def test_tk2_chain_bound(self):
        profile = ConfigurationProfile(CONICS, 3, {3: 2, 2: 6})
        case = classify_conic_case(profile)
        assert case.case_tag is CaseTag.TK2
        # (k + t2 - 1)/f0 - 4 with k = 3, t2 = 6, f0 = 8
        assert case.bound == Fraction(-3)
        assert not hasattr(case, "alt_bound") and not hasattr(case, "diverges")
        # the chain bound actually bounds h from below on this profile
        assert local_h(profile).h >= case.bound

    def test_tk2_witness_against_the_old_alternative_form(self):
        # h = -6/5 here, below the refuted (-34 + 2 t2 + f1)/(f0 - 2) - 8 = 0
        profile = ConfigurationProfile(CONICS, 13, {10: 2, 12: 1, 13: 2})
        case = classify_conic_case(profile)
        h = local_h(profile).h
        assert h == Fraction(-6, 5)
        assert case.bound == Fraction(-8, 5)
        assert h >= case.bound

    def test_tk2_bound_on_every_hirz_passing_profile(self):
        """Adding two k-fold points to every (1,1)-profile passing the
        Hirzebruch-type inequality gives every t_k = 2 conic profile the
        chain reaches; the bound holds on each of them."""
        checked = 0
        for k in range(4, 13):
            query = SearchQuery(ONE_ONE, k, require_tk_zero=True)
            for induced in enumerate_profiles(query):
                if not hirzebruch_one_one(induced).holds:
                    continue
                profile = ConfigurationProfile(CONICS, k, {**induced.t, k: 2})
                case = classify_conic_case(profile)
                assert case.case_tag is CaseTag.TK2
                assert local_h(profile).h >= case.bound, profile
                checked += 1
        assert checked == 55841

    def test_not_applicable(self):
        for profile in (
            ConfigurationProfile(LINES, 4, {2: 6}),
            ConfigurationProfile(ONE_ONE, 4, {2: 12}),
        ):
            case = classify_conic_case(profile)
            assert case.case_tag is CaseTag.NOT_APPLICABLE
            assert case.bound is None

    @given(conic_profiles())
    def test_total_on_valid_conic_profiles(self, profile):
        case = classify_conic_case(profile)
        tag_by_tk = {
            0: CaseTag.TK0,
            1: CaseTag.TK1_OPEN,
            2: CaseTag.TK2,
            3: CaseTag.TK3,
            4: CaseTag.TK4,
        }
        assert case.case_tag is tag_by_tk[profile.t_of(profile.k)]

    @given(conic_profiles())
    def test_bound_is_honoured_when_certified(self, profile):
        """For TK0 profiles passing the integer positivity check, and for
        TK3/TK4 always, the reported bound really bounds h from below."""
        case = classify_conic_case(profile)
        h = local_h(profile).h
        if case.case_tag is CaseTag.TK4:
            assert h == 0
        elif case.case_tag is CaseTag.TK0:
            if holds_over_integers(positivity_quadratic(profile)).holds:
                assert h >= case.bound

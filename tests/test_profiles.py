import pytest
from hypothesis import given

from conftest import feasible_profiles
from harbourne.profiles import (
    CONICS,
    ConfigurationProfile,
    LINES,
    ONE_ONE,
    ProfileInvalidError,
    moments,
    plane_curves,
    validate,
)

KLEIN = ConfigurationProfile(LINES, 21, {3: 28, 4: 21})


class TestCurveClass:
    def test_pairwise_intersections(self):
        assert LINES.pairwise_intersection == 1
        assert CONICS.pairwise_intersection == 4
        assert ONE_ONE.pairwise_intersection == 2
        assert plane_curves(3).pairwise_intersection == 9
        assert plane_curves(6).pairwise_intersection == 36

    def test_low_degree_normalisation(self):
        assert plane_curves(1) == LINES
        assert plane_curves(2) == CONICS

    def test_self_intersection(self):
        assert LINES.self_intersection(21) == 441
        assert CONICS.self_intersection(5) == 100
        assert ONE_ONE.self_intersection(4) == 32


class TestConstruction:
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationProfile(LINES, 1, {2: 1})

    def test_multiplicity_below_two_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationProfile(LINES, 4, {1: 3})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationProfile(LINES, 4, {2: -1})

    def test_zero_counts_dropped(self):
        p = ConfigurationProfile(LINES, 4, {2: 6, 3: 0})
        assert dict(p.t) == {2: 6}

    def test_immutable(self):
        with pytest.raises(TypeError):
            KLEIN.t[3] = 1


class TestValidate:
    def test_klein_lines_ok(self):
        report = validate(KLEIN)
        assert report.ok and not report.violations
        assert KLEIN.incidence_sum == KLEIN.budget == 210

    def test_conic_pencil_ok(self):
        p = ConfigurationProfile(CONICS, 5, {5: 4})
        assert validate(p).ok
        assert p.incidence_sum == p.budget == 40

    def test_identity_violation_with_both_sides(self):
        p = ConfigurationProfile(CONICS, 3, {2: 11})
        report = validate(p)
        assert not report.ok
        (violation,) = report.violations
        assert violation.code == "incidence-identity"
        assert violation.lhs == 11 and violation.rhs == 12

    def test_multiplicity_above_k_reported(self):
        p = ConfigurationProfile(LINES, 3, {4: 1})
        codes = {v.code for v in validate(p).violations}
        assert "multiplicity-range" in codes

    def test_conic_common_point_cap(self):
        p = ConfigurationProfile(CONICS, 3, {3: 5})
        codes = {v.code for v in validate(p).violations}
        assert "conic-common-point-cap" in codes

    def test_empty_t_fails(self):
        p = ConfigurationProfile(LINES, 2, {})
        report = validate(p)
        assert not report.ok
        assert "no-multiple-points" in {v.code for v in report.violations}

    def test_k2_profile_trivially_valid(self):
        assert validate(ConfigurationProfile(LINES, 2, {2: 1})).ok
        assert validate(ConfigurationProfile(CONICS, 2, {2: 4})).ok

    @given(feasible_profiles())
    def test_pure_function(self, profile):
        assert validate(profile) == validate(profile)

    def test_four_common_points_force_everything(self):
        for k in range(3, 8):
            base = ConfigurationProfile(CONICS, k, {k: 4})
            assert validate(base).ok
            perturbed = ConfigurationProfile(CONICS, k, {k: 4, 2: 1})
            assert not validate(perturbed).ok


class TestMoments:
    def test_klein(self):
        ms = moments(KLEIN)
        assert (ms.f0, ms.f1, ms.f2) == (49, 168, 588)

    def test_twelve_double_points(self):
        ms = moments(ConfigurationProfile(CONICS, 3, {2: 12}))
        assert (ms.f0, ms.f1, ms.f2) == (12, 24, 48)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ProfileInvalidError):
            moments(ConfigurationProfile(LINES, 2, {}))

    @given(feasible_profiles())
    def test_identity_restated_in_moments(self, profile):
        ms = moments(profile)
        gamma = profile.curve_class.pairwise_intersection
        assert ms.f2 - ms.f1 == gamma * profile.k * (profile.k - 1)
        assert ms.f0 <= ms.f1 <= ms.f2

    def test_identity_over_search_enumeration(self):
        from harbourne.search import SearchQuery, enumerate_profiles

        for cls, k in ((LINES, 6), (CONICS, 5), (ONE_ONE, 5)):
            for profile in enumerate_profiles(SearchQuery(cls, k)):
                ms = moments(profile)
                gamma = profile.curve_class.pairwise_intersection
                assert ms.f2 - ms.f1 == gamma * k * (k - 1)

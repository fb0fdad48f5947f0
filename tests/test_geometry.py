import random
import sys
from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd

import pytest
from conftest import SEVEN_POINTS, conic_through

from harbourne import exactfield, geometry as G
from harbourne.exactfield import ExactField, RATIONALS
from harbourne.geometry import (
    DegreeOutOfRangeError,
    GeometricConfiguration,
    GeometryError,
    IntersectionOutsideField,
    MixedClassesError,
    NonTransversalIntersection,
    ProjPoint,
    conic,
    cremona_map_curve,
    cremona_map_point,
    extract_profile,
    incident,
    intersect,
    line,
    point,
    proportional,
    transversal_at,
)
from harbourne.hconst import local_h
from harbourne.profiles import CONICS, LINES, ConfigurationProfile

Q = RATIONALS
GAUSS = ExactField((F(1), F(0), F(1)))
SQRTM2 = ExactField((F(2), F(0), F(1)))  # x^2 + 2

CIRCLE2 = conic(Q, 1, 1, -2, 0, 0, 0)  # X^2 + Y^2 - 2Z^2
HYPER = conic(Q, 2, -1, -1, 0, 0, 0)  # 2X^2 - Y^2 - Z^2


class TestPoints:
    def test_projective_equality(self):
        assert point(Q, 1, 2, 3) == point(Q, 2, 4, 6)
        assert point(Q, 1, 2, 3) != point(Q, 1, 2, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            point(Q, 0, 0, 0)

    def test_canonical(self):
        p = point(Q, 0, 3, 6)
        assert [c.as_rational() for c in p.coords] == [F(0), F(1), F(2)]
        assert ProjPoint(p.coords).coords == p.coords

    def test_hash_consistent_with_equality(self):
        assert len({point(Q, 1, 2, 3), point(Q, 2, 4, 6)}) == 1

    def test_coords_are_canonical_and_equal_a_fresh_computation(self):
        theta = SQRTM2.generator()
        raw = (theta * 2, SQRTM2.element(3), theta + 1)
        p = ProjPoint(raw)
        inv = raw[0].inverse()
        assert p.coords == tuple(c * inv for c in raw) and p.coords[0] == SQRTM2.one()
        twin = ProjPoint(tuple(c * (theta - 5) for c in raw))
        assert twin == p and hash(twin) == hash(p) and twin.coords == p.coords
        assert repr(p) == f"ProjPoint{p}" and "_key" not in repr(p)

    def test_equal_fields_accepted_and_mixed_fields_rejected(self, monkeypatch):
        # two distinct but equal fields: an identity-only check would refuse
        a, b = ExactField((-5, 0, 1)), ExactField((-5, 0, 1))
        assert a is not b and a == b
        hashes = []
        monkeypatch.setattr(ExactField, "__hash__", lambda f: hashes.append(f) or 0)
        p = ProjPoint((a.element(1), b.generator(), a.element(2)))
        assert p.field is a
        coeffs = (b.element(1), a.generator(), b.element(3))
        assert G.PlaneCurve(G.CurveForm.LINE, coeffs).field is b
        # the field check compares fields and never hashes them
        assert hashes == []
        mixed = (a.element(1), a.element(2), SQRTM2.element(3))
        with pytest.raises(GeometryError, match="^coordinates must share one field$"):
            ProjPoint(mixed)
        with pytest.raises(GeometryError, match="^coefficients must share one field$"):
            G.PlaneCurve(G.CurveForm.LINE, mixed)


class TestCurves:
    def test_degenerate_conic_rejected(self):
        with pytest.raises(GeometryError):
            conic(Q, 0, 0, 0, 0, 1, 1)  # Z*(X + Y)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            line(Q, 0, 0, 0)

    def test_proportional(self):
        assert proportional(line(Q, 1, 2, 3), line(Q, 2, 4, 6))
        assert not proportional(line(Q, 1, 2, 3), line(Q, 1, 2, 4))

    def test_configuration_rejects_duplicates(self):
        with pytest.raises(GeometryError):
            GeometricConfiguration(Q, (line(Q, 1, 0, 0), line(Q, 2, 0, 0)))


class TestIncidence:
    def test_line(self):
        assert incident(line(Q, 1, 1, 1), point(Q, 1, -1, 0))
        assert incident(line(Q, 1, 0, 0), point(Q, 0, 1, 1))
        assert not incident(line(Q, 1, 0, 0), point(Q, 1, 0, 0))

    def test_conic(self):
        assert incident(CIRCLE2, point(Q, 1, 1, 1))
        assert not incident(CIRCLE2, point(Q, 1, 0, 0))


class TestIntersect:
    def test_line_line(self):
        pts = intersect(line(Q, 1, 0, 0), line(Q, 0, 1, 0))
        assert pts == [(point(Q, 0, 0, 1), 1)]

    def test_two_conic_fixture(self):
        pts = intersect(CIRCLE2, HYPER)
        got = {p for p, m in pts}
        assert all(m == 1 for _, m in pts)
        assert got == {
            point(Q, 1, 1, 1),
            point(Q, 1, 1, -1),
            point(Q, 1, -1, 1),
            point(Q, 1, -1, -1),
        }
        for p, _ in pts:
            assert transversal_at(CIRCLE2, HYPER, p)

    def test_line_conic_tangency_multiplicity(self):
        parabola = conic(Q, 1, 0, 0, 0, 0, -1)  # X^2 - YZ
        pts = intersect(line(Q, 0, 1, 0), parabola)
        assert pts == [(point(Q, 0, 0, 1), 2)]

    def test_tangent_line_conic_point_is_canonical(self):
        # the tangent to X^2 - YZ at (theta : 5 : 1), theta^2 = 5, is
        # 2*theta*X - Y - 5Z; the point comes back as (1 : theta : theta/5),
        # not as a combination of the line's spanning points
        field = ORACLE_FIELDS["sqrt5"]
        theta = field.generator()
        parabola = conic(field, 1, 0, 0, 0, 0, -1)
        [(pt, mult)] = intersect(line(field, 2 * theta, -1, -5), parabola)
        assert mult == 2 and pt == ProjPoint((theta, field.element(5), field.one()))
        assert pt.coords == (field.one(), theta, theta / 5)
        assert ProjPoint(pt.coords).coords == pt.coords

    def test_line_conic_outside_field(self):
        circle = conic(Q, 1, 1, -1, 0, 0, 0)
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(circle, line(Q, 0, 0, 1))
        assert err.value.expected == 2
        assert err.value.found == []

    def test_line_conic_over_gaussian_field(self):
        circle = conic(GAUSS, 1, 1, -1, 0, 0, 0)
        pts = intersect(circle, line(GAUSS, 0, 0, 1))
        i = GAUSS.generator()
        assert {p for p, _ in pts} == {
            ProjPoint((GAUSS.one(), i, GAUSS.zero())),
            ProjPoint((GAUSS.one(), -i, GAUSS.zero())),
        }

    def test_conic_conic_all_points_outside(self):
        a = conic(Q, 1, 1, -1, 0, 0, 0)
        b = conic(Q, 1, 1, -3, 0, 0, 0)
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(a, b)
        assert err.value.found == [] and err.value.expected == 4

    def test_conic_conic_tangential_pair_over_extension(self):
        # X^2+Y^2-Z^2 and X^2+Y^2-3Z^2 touch at (1:+-i:0), each with
        # multiplicity 2
        a = conic(GAUSS, 1, 1, -1, 0, 0, 0)
        b = conic(GAUSS, 1, 1, -3, 0, 0, 0)
        pts = intersect(a, b)
        assert sorted(m for _, m in pts) == [2, 2]
        i = GAUSS.generator()
        assert {p for p, _ in pts} == {
            ProjPoint((GAUSS.one(), i, GAUSS.zero())),
            ProjPoint((GAUSS.one(), -i, GAUSS.zero())),
        }

    def test_conic_conic_partial_points_reported(self):
        # X^2+Y^2-2Z^2 and X^2-YZ share (1:1:1), (-1:1:1) and a conjugate
        # pair with y = -2, x^2 = -2
        a = CIRCLE2
        b = conic(Q, 1, 0, 0, 0, 0, -1)
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(a, b)
        assert err.value.expected == 4
        assert {p for p, _ in err.value.found} == {
            point(Q, 1, 1, 1),
            point(Q, -1, 1, 1),
        }

    def test_conic_conic_partial_resolves_over_extension(self):
        a = conic(SQRTM2, 1, 1, -2, 0, 0, 0)
        b = conic(SQRTM2, 1, 0, 0, 0, 0, -1)
        pts = intersect(a, b)
        assert len(pts) == 4 and all(m == 1 for _, m in pts)
        s = SQRTM2.generator()  # s^2 = -2
        assert ProjPoint((s, SQRTM2.element(-2), SQRTM2.one())) in {
            p for p, _ in pts
        }

    def test_conic_conic_single_point_of_contact_order_four(self):
        osculating = conic(Q, 1, 1, 1, 1, -2, -2)
        pts = intersect(CIRCLE2, osculating)
        assert pts == [(point(Q, 1, 1, 1), 4)]

    def test_proportional_rejected(self):
        with pytest.raises(GeometryError):
            intersect(line(Q, 1, 1, 1), line(Q, 2, 2, 2))

    def test_mixed_fields_rejected(self):
        with pytest.raises(GeometryError):
            intersect(line(Q, 1, 0, 0), line(GAUSS, 0, 1, 0))

    def test_line_pair_takes_its_minors_off_the_cross_product(self, monkeypatch):
        calls = _counted(monkeypatch, "proportional")
        assert intersect(line(Q, 1, 2, 3), line(Q, 1, 2, 4)) == [(point(Q, 2, -1, 0), 1)]
        for field in (Q, GAUSS):
            with pytest.raises(GeometryError, match="^curves must not be proportional$"):
                intersect(line(field, 1, 2, 3), line(field, 2, 4, 6))
        with pytest.raises(GeometryError, match="^curves live over different fields$"):
            intersect(line(Q, 1, 2, 3), line(GAUSS, 1, 2, 3))
        assert calls == []
        assert len(intersect(line(Q, 1, -1, 0), CIRCLE2)) == 2
        assert calls == [False]  # other pairs still ask proportional


class TestTransversal:
    def test_fixture_gradients(self):
        assert transversal_at(CIRCLE2, HYPER, point(Q, 1, 1, 1))

    def test_distinct_lines_always_transversal(self):
        l1, l2 = line(Q, 1, 0, 0), line(Q, 1, 1, 1)
        (p, _), = intersect(l1, l2)
        assert transversal_at(l1, l2, p)

    def test_tangency_detected(self):
        parabola = conic(Q, 1, 0, 0, 0, 0, -1)
        assert not transversal_at(parabola, line(Q, 0, 1, 0), point(Q, 0, 0, 1))

    def test_requires_incidence(self):
        with pytest.raises(GeometryError):
            transversal_at(CIRCLE2, HYPER, point(Q, 1, 0, 0))


def pencil_member(lam, mu):
    return conic(
        Q,
        lam + 2 * mu,
        lam - mu,
        -2 * lam - mu,
        0,
        0,
        0,
    )


class TestExtractProfile:
    def test_four_generic_lines(self):
        cfg = GeometricConfiguration(
            Q,
            (line(Q, 1, 0, 0), line(Q, 0, 1, 0), line(Q, 0, 0, 1), line(Q, 1, 1, 1)),
        )
        profile = extract_profile(cfg)
        assert profile.curve_class == LINES
        assert dict(profile.t) == {2: 6}

    def test_three_concurrent_lines(self):
        cfg = GeometricConfiguration(
            Q, (line(Q, 1, 0, 0), line(Q, 0, 1, 0), line(Q, 1, 1, 0))
        )
        assert dict(extract_profile(cfg).t) == {3: 1}

    def test_conic_pencil_through_four_points(self):
        members = [pencil_member(*lm) for lm in ((1, 0), (0, 1), (1, 2), (2, 1), (1, -1))]
        cfg = GeometricConfiguration(Q, tuple(members))
        profile = extract_profile(cfg)
        assert profile.curve_class == CONICS
        assert profile.k == 5
        assert dict(profile.t) == {5: 4}
        assert local_h(profile).h == 0

    def test_large_coordinate_pencil(self):
        # six members of the pencil through (-4,-6,5), (-5,7,8), (7,4,4),
        # (-5,7,1), with coefficients up to about 2*10^6
        members = [
            conic(Q, *coeffs)
            for coeffs in (
                (155224, -134841, 17342, -81867, -78039, -78039),
                (105012, -99597, 34684, -72355, -34684, -69368),
                (48820, -48207, 21344, -37497, -12006, -36018),
                (69284, -70017, 34684, -56463, -13572, -54288),
                (159812, -163950, 86710, -135198, -26013, -130065),
                (2241956, -2324409, 1283308, -1946103, -312156, -1872936),
            )
        ]
        base = [point(Q, *p) for p in ((-4, -6, 5), (-5, 7, 8), (7, 4, 4), (-5, 7, 1))]
        got = [p for p, _ in intersect(members[0], members[5])]
        assert sorted(tuple(c.coeffs for c in p.coords) for p in got) == sorted(
            tuple(c.coeffs for c in p.coords) for p in base
        )
        profile = extract_profile(GeometricConfiguration(Q, tuple(members)))
        assert dict(profile.t) == {6: 4}

    def test_mixed_classes_rejected(self):
        cfg = GeometricConfiguration(Q, (line(Q, 1, 0, 0), CIRCLE2))
        with pytest.raises(MixedClassesError):
            extract_profile(cfg)

    def test_non_transversal_rejected(self):
        # circle + (tangent line at (1:1:1))^2: contact of order four
        osculating = conic(Q, 1, 1, 1, 1, -2, -2)
        cfg = GeometricConfiguration(Q, (CIRCLE2, osculating))
        with pytest.raises(NonTransversalIntersection) as err:
            extract_profile(cfg)
        assert err.value.point == point(Q, 1, 1, 1)

    def test_non_transversal_point_reported_canonical(self):
        # X^2 + Y^2 - Z^2 and X^2 + 2Y^2 - Z^2 touch at (1:0:1) and (1:0:-1)
        cfg = GeometricConfiguration(
            Q, (conic(Q, 1, 1, -1, 0, 0, 0), conic(Q, 1, 2, -1, 0, 0, 0))
        )
        with pytest.raises(NonTransversalIntersection) as err:
            extract_profile(cfg)
        assert str(err.value) == "curves 0 and 1 meet at (1 : 0 : -1) with multiplicity 2"

    def test_outside_field_propagates(self):
        cfg = GeometricConfiguration(
            Q, (conic(Q, 1, 1, -1, 0, 0, 0), conic(Q, 1, 1, -3, 0, 0, 0))
        )
        with pytest.raises(IntersectionOutsideField):
            extract_profile(cfg)

    def test_matches_naive_oracle_on_random_lines(self):
        rng = random.Random(1702)
        for _ in range(30):
            k = rng.randint(2, 10)
            curves = _random_lines(rng, k)
            cfg = GeometricConfiguration(Q, tuple(curves))
            profile = extract_profile(cfg)
            assert dict(profile.t) == _naive_line_histogram(curves)


def _random_lines(rng, k):
    seen = []
    while len(seen) < k:
        coeffs = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        if not any(coeffs):
            continue
        cand = line(Q, *coeffs)
        if any(proportional(cand, other) for other in seen):
            continue
        seen.append(cand)
    return seen


def _naive_line_histogram(curves):
    """Independent pairwise cross-product oracle over Fractions."""
    pts = {}
    for i in range(len(curves)):
        a = [c.as_rational() for c in curves[i].coeffs]
        for j in range(i + 1, len(curves)):
            b = [c.as_rational() for c in curves[j].coeffs]
            v = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            scale = next(c for c in v if c)
            key = tuple(c / scale for c in v)
            pts.setdefault(key, set()).update({i, j})
    hist = {}
    for members in pts.values():
        r = len(members)
        hist[r] = hist.get(r, 0) + 1
    return hist


def _line_through(p, q):
    return G.PlaneCurve(G.CurveForm.LINE, G.cross(p.coords, q.coords))


def _line_product_conic(l1, l2):
    a, b, c = l1.coeffs
    d, e, f = l2.coeffs
    return (a * d, b * e, c * f, a * e + b * d, a * f + c * d, b * f + c * e)


class TestConicPencilGroundTruth:
    """Random four-point pencils give conic pairs whose intersection is
    known exactly in advance."""

    def _random_general_points(self, rng, field, span):
        pts = []
        while len(pts) < 4:
            try:
                p = G.ProjPoint(
                    tuple(field.element(rng.randint(-span, span)) for _ in range(3))
                )
            except ValueError:
                continue
            if all(not (p == q) for q in pts):
                pts.append(p)
        from itertools import combinations

        if any(
            G.det3((a.coords, b.coords, c.coords)).is_zero()
            for a, b, c in combinations(pts, 3)
        ):
            return None
        return pts

    def _two_members(self, rng, field, pts):
        d1 = _line_product_conic(
            _line_through(pts[0], pts[1]), _line_through(pts[2], pts[3])
        )
        d2 = _line_product_conic(
            _line_through(pts[0], pts[2]), _line_through(pts[1], pts[3])
        )
        members = []
        for _ in range(40):
            lam, mu = rng.randint(-6, 6), rng.randint(-6, 6)
            if lam == 0 and mu == 0:
                continue
            coeffs = tuple(
                field.element(lam) * a + field.element(mu) * b
                for a, b in zip(d1, d2)
            )
            try:
                cand = G.PlaneCurve(G.CurveForm.CONIC, coeffs)
            except (GeometryError, ValueError):
                continue
            if not any(proportional(cand, m) for m in members):
                members.append(cand)
            if len(members) == 2:
                return members
        return None

    def test_rational_pencils(self):
        rng = random.Random(424242)
        done = 0
        while done < 40:
            pts = self._random_general_points(rng, Q, 8)
            if pts is None:
                continue
            members = self._two_members(rng, Q, pts)
            if members is None:
                continue
            result = intersect(members[0], members[1])
            assert sorted(tuple(c.coeffs for c in p.coords) for p, _ in result) == sorted(
                tuple(c.coeffs for c in p.coords) for p in pts
            )
            assert sum(m for _, m in result) == 4
            reversed_result = intersect(members[1], members[0])
            assert sorted((tuple(c.coeffs for c in p.coords), m) for p, m in result) == sorted(
                (tuple(c.coeffs for c in p.coords), m) for p, m in reversed_result
            )
            done += 1

    def test_number_field_pencils(self):
        field = ExactField((F(-5), F(0), F(1)))
        rng = random.Random(7)
        done = 0
        while done < 8:
            pts = []
            while len(pts) < 4:
                try:
                    p = G.ProjPoint(
                        tuple(
                            field.element([rng.randint(-3, 3), rng.randint(-2, 2)])
                            for _ in range(3)
                        )
                    )
                except ValueError:
                    continue
                if all(not (p == q) for q in pts):
                    pts.append(p)
            from itertools import combinations

            if any(
                G.det3((a.coords, b.coords, c.coords)).is_zero()
                for a, b, c in combinations(pts, 3)
            ):
                continue
            members = self._two_members(rng, field, pts)
            if members is None:
                continue
            result = intersect(members[0], members[1])
            assert sorted(tuple(c.coeffs for c in p.coords) for p, _ in result) == sorted(
                tuple(c.coeffs for c in p.coords) for p in pts
            )
            assert sum(m for _, m in result) == 4
            done += 1

    def _pencil_pairs(self, rng, field, count):
        pairs = []
        while len(pairs) < count:
            pts = _random_field_points(rng, field)
            if pts is None:
                continue
            members = self._two_members(rng, field, pts)
            if members is not None:
                pairs.append(members)
        return pairs

    def test_rational_pencils_match_parametrization(self):
        for f, g in self._pencil_pairs(random.Random(5150), Q, 15):
            _assert_matches_parametrization(f, g)
            _assert_matches_parametrization(g, f)

    @pytest.mark.parametrize(
        "min_poly",
        [(-5, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1)],
        ids=["sqrt5", "cbrt2", "zeta5"],
    )
    def test_number_field_pencils_match_parametrization(self, min_poly):
        field = ExactField(tuple(F(c) for c in min_poly))
        for f, g in self._pencil_pairs(random.Random(len(min_poly)), field, 2):
            _assert_matches_parametrization(f, g)
            _assert_matches_parametrization(g, f)


class TestCremonaMaps:
    def test_point_substitution(self):
        assert cremona_map_point(point(Q, 1, 2, 3)) == point(Q, 6, 3, 2)

    def test_fixed_point(self):
        assert cremona_map_point(point(Q, 1, 1, 1)) == point(Q, 1, 1, 1)

    def test_involution(self):
        p = point(Q, 2, 3, 5)
        assert cremona_map_point(cremona_map_point(p)) == p

    def test_base_point_rejected(self):
        with pytest.raises(GeometryError):
            cremona_map_point(point(Q, 0, 1, 0))

    def test_line_to_conic_and_back(self):
        l = line(Q, 1, 1, 1)
        image = cremona_map_curve(l)
        assert image.form is G.CurveForm.CONIC
        assert [c.as_rational() for c in image.coeffs] == [0, 0, 0, 1, 1, 1]
        assert proportional(cremona_map_curve(image), l)

    def test_line_through_one_base_point(self):
        l = line(Q, 1, 1, 0)  # through (0:0:1)
        image = cremona_map_curve(l)
        assert image.form is G.CurveForm.LINE
        assert proportional(image, line(Q, 1, 1, 0))
        assert proportional(cremona_map_curve(image), l)

    def test_conic_through_two_base_points(self):
        c = conic(Q, 0, 0, -1, 1, 0, 0)  # XY - Z^2
        image = cremona_map_curve(c)
        assert image.form is G.CurveForm.CONIC
        assert proportional(cremona_map_curve(image), c)

    def test_conic_missing_base_points_rejected(self):
        with pytest.raises(DegreeOutOfRangeError):
            cremona_map_curve(CIRCLE2)

    def test_coordinate_line_contracted(self):
        with pytest.raises(DegreeOutOfRangeError):
            cremona_map_curve(line(Q, 0, 0, 1))


class TestTriangleFrame:
    def test_sends_points_to_vertices(self):
        p1, p2, p3 = point(Q, 1, 1, 1), point(Q, 1, -1, 0), point(Q, 0, 2, 5)
        t = G.triangle_frame(p1, p2, p3)
        assert G.apply_to_point(t, p1) == point(Q, 1, 0, 0)
        assert G.apply_to_point(t, p2) == point(Q, 0, 1, 0)
        assert G.apply_to_point(t, p3) == point(Q, 0, 0, 1)

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            G.triangle_frame(point(Q, 1, 0, 0), point(Q, 0, 1, 0), point(Q, 1, 1, 0))

    def test_curve_transform_preserves_incidence(self):
        p1, p2, p3 = point(Q, 1, 1, 1), point(Q, 1, -1, 0), point(Q, 0, 2, 5)
        t = G.triangle_frame(p1, p2, p3)
        m = G.frame_inverse_columns(p1, p2, p3)
        for curve in (CIRCLE2, HYPER, line(Q, 1, 2, 3)):
            moved = G.apply_to_curve(m, curve)
            for x, y, z in ((1, 1, 1), (1, -1, 1), (3, 1, -2), (0, 1, 1)):
                p = point(Q, x, y, z)
                assert incident(curve, p) == incident(
                    moved, G.apply_to_point(t, p)
                )


# ---------------------------------------------------------------------------
# conic pairs against the parametrization route; path and incidence checks

# lines through no coordinate vertex, no two meeting on a coordinate line,
# so their Cremona images meet transversally
CREMONA_LINES = ((2, 3, 3), (3, 4, 5), (2, -1, 7), (1, 2, 3), (6, 5, -3), (5, 3, 1), (1, 1, -1))


def _bf_eval(form, t, u):
    return sum(
        (c * t**i * u ** (len(form) - 1 - i) for i, c in enumerate(form)),
        t.field.zero(),
    )


def _conic_parametrization(q, p0):
    """Three binary quadratics parametrizing the smooth conic q from a point
    p0 on it: direction (t:u) -> second intersection of the line through p0
    with that direction."""
    field = q.field
    # two points spanning a coordinate line that avoids p0
    for a, b in (
        (point(field, 1, 0, 0), point(field, 0, 1, 0)),
        (point(field, 1, 0, 0), point(field, 0, 0, 1)),
        (point(field, 0, 1, 0), point(field, 0, 0, 1)),
    ):
        if not G.det3((a.coords, b.coords, p0.coords)).is_zero():
            break
    q_dir = [q.evaluate(b), G._conic_bilinear(q, a, b), q.evaluate(a)]
    b_dir = [G._conic_bilinear(q, p0, b), G._conic_bilinear(q, p0, a)]
    # p0 * Q(ta + ub) - B(p0, ta + ub) * (ta + ub), coordinatewise
    comps = []
    for p0c, ac, bc in zip(p0.coords, a.coords, b.coords):
        along = G.bf_mul(b_dir, [bc, ac])
        comps.append([p0c * x - y for x, y in zip(q_dir, along)])
    return comps


def _eval_conic_on_forms(q, comps):
    X, Y, Z = comps
    terms = [
        [coeff * x for x in G.bf_mul(u, v)]
        for coeff, u, v in zip(q.coeffs, (X, Y, Z, X, X, Y), (X, Y, Z, Y, Z, Z))
    ]
    return [sum(col[1:], col[0]) for col in zip(*terms)]


def _parametrized_intersection(f, g, p0):
    """Reference route: parametrize f from the common point p0 and read
    every in-field common point, with its multiplicity, off the roots of g
    pulled back to a binary quartic.  Returns (points, in-field total)."""
    comps = _conic_parametrization(f, p0)
    roots, found = G.binary_form_roots(_eval_conic_on_forms(g, comps), f.field)
    pts = [
        (ProjPoint(tuple(_bf_eval(comp, t, u) for comp in comps)), m)
        for (t, u), m in roots
    ]
    for pt, _ in pts:
        assert incident(f, pt) and incident(g, pt)
    return sorted(pts, key=lambda pm: tuple(c.coeffs for c in pm[0].coords)), found


def _assert_matches_parametrization(f, g, known=None):
    """intersect(f, g) against the parametrization seeded from the first
    point intersect reports, or from ``known``, a common point, when it
    reports none; an IntersectionOutsideField must carry the reference's
    message and found list."""
    try:
        got, err = intersect(f, g), None
    except IntersectionOutsideField as e:
        got, err = e.found, e
    seed = got[0][0] if got else known
    if seed is None:
        assert str(err) == (
            f"conic pair has no in-field intersection point of 4 over {f.field.label()}"
        )
        return
    assert incident(f, seed) and incident(g, seed)
    want, found = _parametrized_intersection(f, g, seed)
    assert len(got) == len(want)
    assert all(p == q for (p, _), (q, _) in zip(got, want))
    assert [m for _, m in got] == [m for _, m in want]
    assert [tuple(c.coeffs for c in p.coords) for p, _ in got] == [
        tuple(c.coeffs for c in q.coords) for q, _ in want]
    if found == 4:
        assert err is None
    else:
        assert str(err) == (
            f"conic pair meets in {found} in-field point(s) of 4 over {f.field.label()}"
        )
        assert err.expected == 4


def _cremona_image_conics():
    return [cremona_map_curve(line(Q, *abc)) for abc in CREMONA_LINES]


def _random_field_points(rng, field, count=4):
    """count points with coordinates drawn from the whole field, or None when
    two coincide or three are collinear."""
    pts = []
    while len(pts) < count:
        coords = tuple(
            field.element([rng.randint(-2, 2) for _ in range(field.degree)])
            for _ in range(3)
        )
        if all(c.is_zero() for c in coords):
            continue
        pts.append(ProjPoint(coords))
    if any(p == q for p, q in combinations(pts, 2)) or any(
        G.det3((a.coords, b.coords, c.coords)).is_zero()
        for a, b, c in combinations(pts, 3)
    ):
        return None
    return pts


def test_cremona_image_conics_match_parametrization():
    for f, g in combinations(_cremona_image_conics(), 2):
        _assert_matches_parametrization(f, g)


ORACLE_FIELDS = {
    "Q": Q,
    "gauss": GAUSS,
    "sqrt5": ExactField((F(-5), F(0), F(1))),
    "cbrt2": ExactField((F(-2), F(0), F(0), F(1))),
}

# base-point multiplicities of the pencil X^2 - YZ + mu*h for each kind of
# degenerate conic h; None where some base points may lie outside the field
ORACLE_KINDS = {
    "transversal": [1, 1, 1, 1],  # h = P1P2 * P3P4
    "tangent": [1, 1, 2],  # h = T1 * P2P3
    "bitangent": [2, 2],  # h = (P1P2)^2
    "osculating": [1, 3],  # h = T1 * P1P2
    "hyperosculating": [4],  # h = T1^2
    "outside": None,  # h = L * P1P2, L a random line
    "no-split": None,  # g a random conic through P1
}


def _oracle_pairs(rng, field, kind, count):
    """Conic pairs (f, g, P1) with P1 a known common point, built on the
    parabola X^2 - YZ through (t : t^2 : 1) and moved by a random frame."""

    def elem(span=2):
        return field.element([rng.randint(-span, span) for _ in range(field.degree)])

    f0 = conic(field, 1, 0, 0, 0, 0, -1)
    pairs = []
    while len(pairs) < count:
        ts = [elem() for _ in range(4)]
        if any((a - b).is_zero() for a, b in combinations(ts, 2)):
            continue
        p1, p2, p3, p4 = (ProjPoint((t, t * t, field.one())) for t in ts)
        t1 = G.PlaneCurve(G.CurveForm.LINE, f0.gradient(p1))
        if kind == "no-split":
            q = [elem(4) for _ in range(6)]
            x, y = ts[0], ts[0] * ts[0]  # Z = 1, so the Z^2 coefficient absorbs q(p1)
            rest = zip(q[:2] + q[3:], (x * x, y * y, x * y, x, y))
            q[2] = -sum((c * m for c, m in rest), field.zero())
        else:
            rand_line = G.PlaneCurve(G.CurveForm.LINE, (elem(4), elem(4), field.one()))
            l1, l2 = {
                "transversal": (_line_through(p1, p2), _line_through(p3, p4)),
                "tangent": (t1, _line_through(p2, p3)),
                "bitangent": (_line_through(p1, p2), _line_through(p1, p2)),
                "osculating": (t1, _line_through(p1, p2)),
                "hyperosculating": (t1, t1),
                "outside": (rand_line, _line_through(p1, p2)),
            }[kind]
            mu = elem() + rng.choice([-3, 3])
            q = [a + mu * b for a, b in zip(f0.coeffs, _line_product_conic(l1, l2))]
        frame = tuple(
            tuple(field.element(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3)
        )
        if G.det3(frame).is_zero():
            continue
        try:
            g0 = G.PlaneCurve(G.CurveForm.CONIC, tuple(q))
        except (GeometryError, ValueError):
            continue  # a degenerate conic
        known = G.apply_to_point(G.adjugate3(frame), p1)
        pairs.append((G.apply_to_curve(frame, f0), G.apply_to_curve(frame, g0), known))
    return pairs


@pytest.mark.parametrize("kind", list(ORACLE_KINDS))
@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_seeded_pairs_match_parametrization(name, kind):
    field = ORACLE_FIELDS[name]
    for f, g, known in _oracle_pairs(random.Random(f"{name}-{kind}"), field, kind, 3):
        _assert_matches_parametrization(f, g, known)
        _assert_matches_parametrization(g, f, known)
        if ORACLE_KINDS[kind] is not None:
            assert sorted(m for _, m in intersect(f, g)) == ORACLE_KINDS[kind]


def _counted(monkeypatch, name):
    """Patch G.<name> to record the result of every call."""
    results = []
    original = getattr(G, name)

    def counting(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(G, name, counting)
    return results


def _random_element(rng, field):
    return field.element(
        [F(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7))) for _ in range(field.degree)]
    )


def _conic_by_terms(c, coords):
    a, b, cc, d, e, f = c.coeffs
    x, y, z = coords
    return a * x * x + b * y * y + cc * z * z + d * x * y + e * x * z + f * y * z


def _det_by_terms(m):
    return (
        m[0][0] * m[1][1] * m[2][2] + m[0][1] * m[1][2] * m[2][0] + m[0][2] * m[1][0] * m[2][1]
        - m[0][2] * m[1][1] * m[2][0] - m[0][0] * m[1][2] * m[2][1] - m[0][1] * m[1][0] * m[2][2]
    )


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_forms_match_their_term_by_term_formulas(name):
    """evaluate, gradient, _conic_bilinear, det3 and mat_mul, which sum
    their products in one reduction, against the products added one by one."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"forms:{name}")
    elem = lambda: _random_element(rng, field)  # noqa: E731
    checked = 0
    while checked < 40:
        p, q = (ProjPoint((elem(), elem(), elem())) for _ in range(2))
        ln = line(field, elem(), elem(), elem())
        a, b, c = ln.coeffs
        x, y, z = p.coords
        assert ln.evaluate(p) == a * x + b * y + c * z
        assert ln.gradient(p) == ln.coeffs
        try:
            k = conic(field, *(elem() for _ in range(6)))
        except GeometryError:  # degenerate
            continue
        a, b, c, d, e, f = k.coeffs
        assert k.evaluate(p) == _conic_by_terms(k, p.coords)
        assert k.gradient(p) == (
            2 * a * x + d * y + e * z,
            d * x + 2 * b * y + f * z,
            e * x + f * y + 2 * c * z,
        )
        pq = tuple(u + v for u, v in zip(p.coords, q.coords))
        polar = (_conic_by_terms(k, pq) - _conic_by_terms(k, p.coords)
                 - _conic_by_terms(k, q.coords))
        assert G._conic_bilinear(k, p, q) == polar
        m, n = (tuple(tuple(elem() for _ in range(3)) for _ in range(3)) for _ in range(2))
        assert G.det3(m) == _det_by_terms(m)
        assert G.mat_mul(m, n) == tuple(
            tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] + m[i][2] * n[2][j] for j in range(3))
            for i in range(3)
        )
        checked += 1


def _random_coords(rng, field, zeros=True):
    coords = [_random_element(rng, field) for _ in range(3)]
    if zeros:
        for i in rng.sample(range(3), rng.randint(0, 2)):
            coords[i] = field.zero()
    if all(c.is_zero() for c in coords):
        coords[rng.randrange(3)] = field.one()
    return tuple(coords)


def _random_point(rng, field, zeros=True):
    return ProjPoint(_random_coords(rng, field, zeros))


def _nonzero_scaling(rng, field):
    while True:
        s = _random_element(rng, field)
        if not s.is_zero():
            return s


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_point_identity_is_projective(name):
    """Scalings of one point share key, hash and coordinates, whose first
    nonzero entry is 1; the key is the vector over Q and the (num, den) of
    the coordinates over a number field.  Points that are not proportional
    have different keys."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"identity:{name}")
    pts = [_random_point(rng, field) for _ in range(40)]
    for p in pts:
        assert next(c for c in p.coords if c) == field.one()
        key = p.vector() if field.is_rational else tuple((c.num, c.den) for c in p.coords)
        assert p._key == key
        scale = _nonzero_scaling(rng, field)
        twin = ProjPoint(tuple(c * scale for c in p.coords))
        assert twin._key == key and twin.coords == p.coords
        assert twin == p and hash(twin) == hash(p)
        for s in (-scale, scale * F(-(10**12 + 39), 10**9 + 7)):
            other = ProjPoint(tuple(c * s for c in p.coords))
            assert other._key == key and other.coords == p.coords
    pairs = 0
    for p, q in combinations(pts, 2):
        proportional_ = all(c.is_zero() for c in G.cross(p.coords, q.coords))
        assert (p._key == q._key) is (p == q) is (p.coords == q.coords) is proportional_
        pairs += not proportional_
    assert pairs > 700


def test_sort_key_orders_points_by_fraction_value():
    """Over Q(sqrt5) a point's coordinates are x_i / x_lead, checked on
    Fractions with (a + b theta)^-1 = (a - b theta) / (a^2 - 5 b^2), and
    _in_order sorts points by their coefficients."""
    field = ORACLE_FIELDS["sqrt5"]
    rng = random.Random(20151020)

    def coeff():
        kind = rng.randrange(6)
        if kind == 0:
            return F(0)
        if kind == 1:
            return F(rng.randint(-9, 9))
        if kind == 2:
            return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        return F(rng.randint(-60, 60), rng.randint(1, 12))

    points, want = [], []
    for _ in range(60):
        coords = [(coeff(), coeff()) for _ in range(3)]
        coords[rng.randrange(3)] = (F(rng.randint(1, 3)), F(0))  # never (0:0:0)
        points.append(ProjPoint(tuple(field.element(c) for c in coords)))
        a, b = next(c for c in coords if any(c))
        u, v = a / (a * a - 5 * b * b), -b / (a * a - 5 * b * b)
        want.append(tuple((x * u + 5 * y * v, x * v + y * u) for x, y in coords))
    assert [tuple(c.coeffs for c in p.coords) for p in points] == want
    order = sorted(range(len(points)), key=want.__getitem__)
    got = G._in_order([(p, 1) for p in points])
    assert all(p is points[i] for (p, _), i in zip(got, order))


@pytest.mark.parametrize("name", ["Q", "sqrt5", "cbrt2"])
def test_integer_order_is_the_sort_key_order(name):
    """_in_order sorts (point, multiplicity) pairs by the coefficients of
    their coordinates, with ties (scaled copies) left in their order."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"order:{name}")

    def coeff():
        if rng.random() < 0.3:
            return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        return F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7)))

    for _ in range(60):
        pts = []
        while len(pts) < 6:
            coords = [field.element([coeff() for _ in range(field.degree)]) for _ in range(3)]
            if not all(c.is_zero() for c in coords):
                p = ProjPoint(tuple(coords))
                pts.append((p, rng.randint(1, 3)))
                if rng.random() < 0.3:
                    scale = _nonzero_scaling(rng, field)
                    pts.append((ProjPoint(tuple(c * scale for c in p.coords)), 1))
        rng.shuffle(pts)
        got = G._in_order(pts)
        want = sorted(pts, key=lambda pm: tuple(c.coeffs for c in pm[0].coords))
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_cached_monomials_and_gradients_match_the_formulas(name):
    """A point keeps the monomials of its own vector, computed once, even
    when a scaled copy of it was evaluated first; a conic's gradient is S p
    on each point's coordinates, which a scaled copy shares."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"caches:{name}")
    checked = 0
    while checked < 20:
        try:
            conics = [conic(field, *(_random_element(rng, field) for _ in range(6)))
                      for _ in range(2)]
        except GeometryError:  # degenerate
            continue
        raw = _random_coords(rng, field, zeros=checked % 2 == 0)
        s = _nonzero_scaling(rng, field)
        p, twin = ProjPoint(raw), ProjPoint(tuple(c * s for c in raw))
        assert twin.coords == p.coords
        for pt in (twin, p):
            x, y, z = pt.vector()
            assert pt.monomials() == (x * x, y * y, z * z, x * y, x * z, y * z)
            assert pt.monomials() is pt.monomials()
            x, y, z = pt.coords
            for k in conics:
                a, b, c, d, e, f = k.coeffs
                assert k.gradient(pt) == (
                    2 * a * x + d * y + e * z,
                    d * x + 2 * b * y + f * z,
                    e * x + f * y + 2 * c * z,
                )
                assert k.evaluate(pt) == _conic_by_terms(k, pt.coords)
        for k in conics:
            assert k.gradient(twin) == k.gradient(p)
        checked += 1


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_vector_is_the_primitive_integer_vector_over_q(name):
    """Over Q a point's vector is its primitive integer vector, first
    nonzero entry positive, shared by every scaling of the point, negative
    or with a large denominator; over Q(sqrt5) it is the coordinates."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"vector:{name}")
    for _ in range(40):
        p = _random_point(rng, field)
        vec = p.vector()
        assert p.vector() is vec
        if not field.is_rational:
            assert vec == p.coords
            continue
        assert all(type(x) is int for x in vec) and gcd(*vec) == 1
        assert next(x for x in vec if x) > 0
        assert not any(G.cross(vec, [c.as_rational() for c in p.coords]))
        scale = _nonzero_scaling(rng, field)
        for s in (scale, -scale, scale * F(-(10**12 + 39), 10**9 + 7)):
            assert ProjPoint(tuple(c * s for c in p.coords)).vector() == vec


@pytest.mark.parametrize("name", ["Q", "sqrt5", "cbrt2"])
def test_scaled_coordinates_build_one_stored_point(name, monkeypatch):
    """A point built from any nonzero scaling of its coordinates has the
    same coords, vector and hash.  Its construction takes one inverse over
    a number field when the lead coordinate is not 1, and none over Q."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"scalings:{name}")
    taken = []
    original = exactfield.FieldElement.inverse
    monkeypatch.setattr(exactfield.FieldElement, "inverse",
                        lambda self: taken.append(self) or original(self))

    def built(coords):
        del taken[:]
        p = ProjPoint(coords)
        lead = next(c for c in coords if c)
        assert len(taken) == (0 if field.is_rational or lead == field.one() else 1)
        return p

    for _ in range(40):
        raw = _random_coords(rng, field)
        p = built(raw)
        scale = _nonzero_scaling(rng, field)
        for s in (scale, -scale, scale * F(-(10**12 + 39), 10**9 + 7)):
            twin = built(tuple(c * s for c in raw))
            assert twin.coords == p.coords and twin.vector() == p.vector()
            assert hash(twin) == hash(p) and twin == p


def test_points_built_from_integer_vectors():
    """Over Q a line crossing is built from the integer cross product of
    the lines' vectors: canonical, with the vector a fresh copy computes."""
    rng = random.Random("crossings")
    lines = []
    while len(lines) < 8:
        coeffs = [_random_element(rng, Q) for _ in range(3)]
        if any(coeffs) and not any(proportional(line(Q, *coeffs), l) for l in lines):
            lines.append(line(Q, *coeffs))
    assert any(c.den > 1 for l in lines for c in l.coeffs)
    for a, b in combinations(lines, 2):
        [(p, mult)] = intersect(a, b)
        assert mult == 1 and next(c for c in p.coords if c) == Q.one()
        assert incident(a, p) and incident(b, p)
        assert p.vector() == ProjPoint(p.coords).vector()
        assert not any(G.cross(p.coords, G.cross(a.coeffs, b.coeffs)))


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_incidence_on_vectors_is_evaluate_is_zero(name):
    """incident, read off the vectors, agrees with evaluate on seeded
    points on and off seeded curves with p/q coefficients."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"incidence:{name}")
    on = off = 0
    while on < 40:
        p = _random_point(rng, field)
        twin = ProjPoint(tuple(c * _nonzero_scaling(rng, field) for c in p.coords))
        curves = []
        for values in (p.coords, G._monomials(*p.coords)):
            coeffs = [_random_element(rng, field) for _ in values]
            i = next(i for i, v in enumerate(values) if not v.is_zero())
            through = list(coeffs)
            through[i] = coeffs[i] - G.dot(coeffs, values) / values[i]
            for cs in (coeffs, through):
                try:
                    curves.append(G.PlaneCurve(G.CurveForm(("line", "conic")[len(cs) > 3]),
                                               tuple(cs)))
                except (GeometryError, ValueError):  # degenerate or zero
                    pass
        for c in curves:
            for q in (p, twin):
                assert incident(c, q) is c.evaluate(q).is_zero()
            on += incident(c, p)
            off += not incident(c, p)
    assert off > 20


def _line_conic_on_coords(l, q):
    """intersect(l, q) for a line l and a conic q, read off coordinates: l
    is spanned by two points built from its coefficients, and the roots of
    q(t*a + u*b), from evaluate and the polarization, give the points."""
    field = l.field
    a, b, c = l.coeffs
    if not a.is_zero():
        pa, pb = point(field, -b, a, 0), point(field, -c, 0, a)
    elif not b.is_zero():
        pa, pb = point(field, 1, 0, 0), point(field, 0, -c, b)
    else:
        pa, pb = point(field, 1, 0, 0), point(field, 0, 1, 0)
    form = [q.evaluate(pb), G._conic_bilinear(q, pa, pb), q.evaluate(pa)]
    roots, found = G.binary_form_roots(form, field)
    pts = sorted(
        ((ProjPoint(tuple(t * x + u * y for x, y in zip(pa.coords, pb.coords))), m)
         for (t, u), m in roots),
        key=lambda pm: tuple(c.coeffs for c in pm[0].coords),
    )
    if found < 2:
        raise IntersectionOutsideField(
            f"line/conic meet in {found} in-field point(s) of 2 over {field.label()}",
            found=pts,
            expected=2,
        )
    return pts


def _scaled_by_a_fraction(rng, c):
    """c with its coefficients times a random nonzero element whose
    coefficients have numerators and denominators up to 10^6."""
    field = c.field
    s = field.zero()
    while s.is_zero():
        s = field.element([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                           for _ in range(field.degree)])
    return G.PlaneCurve(c.form, tuple(x * s for x in c.coeffs))


@pytest.mark.parametrize("name", ["Q", "sqrt5"])
def test_line_conic_matches_the_coordinate_parametrization(name):
    """intersect of a line and a conic with p/q coefficients gives exactly
    the list, message and found points of _line_conic_on_coords.  The line
    is the chord P1P2 or the tangent at P1 of a conic through five points,
    the first `fixed` of them (1:0:0) and (0:1:0), or a line whose first
    `fixed` coefficients are 0 meeting the conic outside the field, so
    that lines with a = 0 and with a = b = 0 occur."""
    field = ORACLE_FIELDS[name]
    rng = random.Random(f"line conic {name}")
    vertices = [point(field, 1, 0, 0), point(field, 0, 1, 0)]
    want = {"transversal": [1, 1], "tangent": [2], "outside": None}
    zeros = set()
    for fixed in range(3):
        for kind in want:
            done = 0
            while done < 3:
                pts = _random_field_points(rng, field, 5)
                if pts is None:
                    continue
                if kind != "outside":
                    pts = vertices[:fixed] + pts[fixed:]
                if any(G.det3((a.coords, b.coords, c.coords)).is_zero()
                       for a, b, c in combinations(pts, 3)):
                    continue
                q = _conic_through_points(pts)
                if kind == "transversal":
                    l = _line_through(pts[0], pts[1])
                elif kind == "tangent":
                    l = G.PlaneCurve(G.CurveForm.LINE, q.gradient(pts[0]))
                else:
                    coeffs = [field.zero()] * fixed + [
                        field.element([rng.randint(-3, 3) for _ in range(field.degree)])
                        for _ in range(3 - fixed)]
                    if coeffs[2].is_zero():
                        continue
                    l = G.PlaneCurve(G.CurveForm.LINE, tuple(coeffs))
                l, q = _scaled_by_a_fraction(rng, l), _scaled_by_a_fraction(rng, q)
                expected = _intersect_outcome(_line_conic_on_coords, l, q)
                if kind == "outside" and expected[1] is None:
                    continue  # a random line meeting the conic in the field
                assert any(c.den > 1 for c in l.coeffs + q.coeffs)
                for a, b in ((l, q), (q, l)):
                    assert _intersect_outcome(intersect, a, b) == expected
                if want[kind] is None:
                    assert expected == ([], (f"line/conic meet in 0 in-field point(s) of 2 "
                                             f"over {field.label()}", 2))
                else:
                    assert [m for _, m in expected[0]] == want[kind]
                zeros.add(next(i for i, c in enumerate(l.coeffs) if not c.is_zero()))
                done += 1
    assert zeros == {0, 1, 2}


def test_transversal_pair_over_q_inverts_only_in_root_finding(monkeypatch):
    """Over Q the base points of a transversal pair, read off two split
    pencil members, are the crossings of the members' lines, built from
    their integer vectors: every inverse is taken inside roots_in_field."""
    rng = random.Random("transversal inverses")
    pairs = [(CIRCLE2, HYPER)] + [
        (_scaled_by_a_fraction(rng, f), _scaled_by_a_fraction(rng, g))
        for f, g, _ in _oracle_pairs(rng, Q, "transversal", 4)
    ]
    inside, outside = [], []
    original = exactfield.FieldElement.inverse

    def inverse(self):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        (inside if "roots_in_field" in names else outside).append(self)
        return original(self)

    monkeypatch.setattr(exactfield.FieldElement, "inverse", inverse)
    splits = _counted(monkeypatch, "_split_degenerate")
    for f, g in pairs:
        assert [m for _, m in intersect(f, g)] == [1, 1, 1, 1]
    assert sum(lines is not None for lines in splits) == 2 * len(pairs)
    assert inside and outside == []


class TestConicConicPath:
    def test_four_base_points_from_two_split_members(self, monkeypatch):
        splits = _counted(monkeypatch, "_split_degenerate")
        pts = intersect(CIRCLE2, HYPER)
        assert len(pts) == 4 and all(m == 1 for _, m in pts)
        assert len(splits) == 2

    def test_osculating_pair_from_one_split_member(self, monkeypatch):
        # the only degenerate member is the tangent line at (1:1:1), doubled
        splits = _counted(monkeypatch, "_split_degenerate")
        fallback = _counted(monkeypatch, "_resultant_candidates")
        osculating = conic(Q, 1, 1, 1, 1, -2, -2)
        assert intersect(CIRCLE2, osculating) == [(point(Q, 1, 1, 1), 4)]
        assert sum(lines is not None for lines in splits) == 1
        assert fallback == []

    def test_resultant_fallback_with_one_rational_point(self, monkeypatch):
        # one base point (1:1:1) over Q, the other three a cubic orbit: no
        # pencil member splits, and the fallback finds the rational point
        fallback = _counted(monkeypatch, "_resultant_candidates")
        a = conic(Q, 1, 0, 0, 0, 0, -1)  # X^2 - YZ
        b = conic(Q, 1, 1, 2, -1, -2, -1)
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(a, b)
        assert "conic pair meets in 1 in-field point(s) of 4" in str(err.value)
        assert err.value.found == [(point(Q, 1, 1, 1), 1)]
        assert len(fallback) == 1

    def test_resultant_fallback_with_the_rational_point_at_a_projection_centre(
        self, monkeypatch
    ):
        # the pair above moved so that (1:1:1) goes to (0:0:1): the
        # z-projection's resultant vanishes identically, and the next
        # projection still finds the point
        fallback = _counted(monkeypatch, "_resultant_candidates")
        rows = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
        frame = tuple(tuple(Q.element(v) for v in row) for row in rows)
        a = G.apply_to_curve(frame, conic(Q, 1, 0, 0, 0, 0, -1))
        b = G.apply_to_curve(frame, conic(Q, 1, 1, 2, -1, -2, -1))
        assert proportional(a, conic(Q, 1, 0, 0, 0, 2, -1))  # X^2 + 2XZ - YZ
        assert proportional(b, conic(Q, 1, 1, 0, -1, -1, 0))  # X^2 + Y^2 - XY - XZ
        in_z = (G._conic_var_coeffs(q, 2) for q in (a, b))
        assert G._quadratic_resultant(*in_z) == [Q.zero()] * 5
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(a, b)
        assert err.value.found == [(point(Q, 0, 0, 1), 1)]
        assert len(fallback) == 1

    def test_resultant_fallback_with_no_rational_point(self, monkeypatch):
        # the base points of X^2 - YZ and Y^2 - Z^2 - XZ are (st : s^2 : t^2)
        # with s/t a root of x^4 - x - 1, whose Galois group is S4: no
        # pencil member is defined over Q, and no base point is rational
        splits = _counted(monkeypatch, "_split_degenerate")
        fallback = _counted(monkeypatch, "_resultant_candidates")
        a = conic(Q, 1, 0, 0, 0, 0, -1)
        b = conic(Q, 0, 1, -1, 0, -1, 0)
        with pytest.raises(IntersectionOutsideField) as err:
            intersect(a, b)
        assert str(err.value) == "conic pair has no in-field intersection point of 4 over Q"
        assert err.value.found == []
        assert splits == [] and fallback == [[]]

    def test_tangential_pair_from_two_split_members(self, monkeypatch):
        splits = _counted(monkeypatch, "_split_degenerate")
        fallback = _counted(monkeypatch, "_resultant_candidates")
        a = conic(GAUSS, 1, 1, -1, 0, 0, 0)
        b = conic(GAUSS, 1, 1, -3, 0, 0, 0)
        assert [m for _, m in intersect(a, b)] == [2, 2]
        assert sum(lines is not None for lines in splits) == 2
        assert fallback == []

    def test_transversal_pair_solves_three_polynomials(self, monkeypatch):
        # over Q(sqrt5): the pencil cubic and one quadratic per split member;
        # the base points are the crossings of the two members' lines
        solved = _counted(monkeypatch, "binary_form_roots")
        splits = _counted(monkeypatch, "_split_degenerate")
        line_conic = _counted(monkeypatch, "_line_conic")
        rng = random.Random("three polynomials")
        (f, g, _), = _oracle_pairs(rng, ORACLE_FIELDS["sqrt5"], "transversal", 1)
        assert [m for _, m in intersect(f, g)] == [1, 1, 1, 1]
        assert len(solved) == 3 and len(splits) == 2 and line_conic == []


def _one_member_intersect(f, g):
    """intersect(f, g) for two conics read off one pencil member: the lines
    of the first member that splits are met with f, and each point's
    multiplicity is the sum of theirs.  The resultant fallback serves when
    no member splits."""
    field = f.field
    sf, sg = (G._doubled(*c.coeffs) for c in (f, g))
    cubic = [G.det3(sg), None, None, G.det3(sf)]
    for k, (s, t) in ((1, (sf, sg)), (2, (sg, sf))):
        adj = G.adjugate3(t)
        cubic[k] = sum((adj[i][j] * s[j][i] for i in range(3) for j in range(3)), field.zero())
    roots, _ = G.binary_form_roots(cubic, field)
    members = (
        tuple(tuple(lam * sf[i][j] + mu * sg[i][j] for j in range(3)) for i in range(3))
        for (lam, mu), _ in roots
    )
    lines = next(filter(None, (G._split_degenerate(m, field) for m in members)), None)
    if lines is None:
        pts = [(pt, 1) for pt in G._resultant_candidates(f, g)]
    else:
        hits = {}
        for l in lines:
            for pt, mult in G._line_conic(l, f)[0]:
                assert incident(g, pt)
                hits[pt] = hits.get(pt, 0) + mult
        pts = sorted(hits.items(), key=lambda pm: tuple(c.coeffs for c in pm[0].coords))
    found = sum(m for _, m in pts)
    if not pts:
        raise IntersectionOutsideField(
            f"conic pair has no in-field intersection point of 4 over {field.label()}",
            found=[],
            expected=4,
        )
    if found < 4:
        raise IntersectionOutsideField(
            f"conic pair meets in {found} in-field point(s) of 4 over {field.label()}",
            found=pts,
            expected=4,
        )
    return pts


# the base-point multiplicities of each kind of pair, in turn; None where
# two base points lie outside the field
CROSS_CHECK_KINDS = {
    "four points": [1, 1, 1, 1],  # g through P1..P4 and P6
    "tangent": [1, 1, 2],  # g = f + lam*T*P2P3, T the tangent of f at P1
    "bitangent": [2, 2],  # g = f + lam*(P2P3)^2
    "osculating": [1, 3],  # g = f + lam*T*P1P2
    "outside": None,  # g = f + lam*T*M, M a random line
}


def _cross_check_pairs(rng, field, count):
    """(f, g, kind) for count conic pairs, f through five random in-field
    points P1..P5, and g by each kind of CROSS_CHECK_KINDS in turn."""

    def elem():
        return field.element([rng.randint(-2, 2) for _ in range(field.degree)])

    pairs = []
    while len(pairs) < count:
        kind = list(CROSS_CHECK_KINDS)[len(pairs) % len(CROSS_CHECK_KINDS)]
        pts = _random_field_points(rng, field, 6)
        if pts is None:
            continue
        coords = [p.coords for p in pts]
        try:
            f = G.PlaneCurve(G.CurveForm.CONIC, conic_through(coords[:5]))
            if kind == "four points":
                g_coeffs = conic_through(coords[:4] + coords[5:])
            else:
                t = G.PlaneCurve(G.CurveForm.LINE, f.gradient(pts[0]))
                secant = _line_through(pts[1], pts[2])
                l1, l2 = {
                    "tangent": (t, secant),
                    "bitangent": (secant, secant),
                    "osculating": (t, _line_through(pts[0], pts[1])),
                    "outside": (t, G.PlaneCurve(G.CurveForm.LINE, (elem(), elem(), field.one()))),
                }[kind]
                lam = elem() + rng.choice([-3, 3])
                h = _line_product_conic(l1, l2)
                g_coeffs = tuple(a + lam * b for a, b in zip(f.coeffs, h))
            g = G.PlaneCurve(G.CurveForm.CONIC, g_coeffs)
        except (GeometryError, ValueError):
            continue  # a degenerate conic
        if not proportional(f, g):
            pairs.append((f, g, kind))
    return pairs


def _intersect_outcome(fn, f, g):
    try:
        return _exact(fn(f, g)), None
    except IntersectionOutsideField as err:
        return _exact(err.found), (str(err), err.expected)


@pytest.mark.parametrize("name", ["Q", "sqrt5", "cbrt2"])
def test_two_split_members_match_the_one_member_path(name):
    """intersect gives exactly the list, error message and found points of
    the path that reads the base points off one split member."""
    rng = random.Random(f"two members {name}")
    for f, g, kind in _cross_check_pairs(rng, ORACLE_FIELDS[name], 25):
        for a, b in ((f, g), (g, f)):
            got = _intersect_outcome(intersect, a, b)
            assert got == _intersect_outcome(_one_member_intersect, a, b)
            want = CROSS_CHECK_KINDS[kind]
            if want is not None:
                assert got[1] is None and sorted(m for _, m in got[0]) == want


def _conjugate_pair_pencils(rng, field, count):
    """count conic pairs f, g in the pencil of L1*L2 and u^2 - 2*v^2, for
    random lines L1, L2 and linear forms u, v.  The base points are two
    pairs conjugate over K(sqrt 2), so the three degenerate members are
    all over K, and only L1*L2 splits."""

    def lin():
        return G.PlaneCurve(G.CurveForm.LINE, tuple(field.element(rng.randint(-4, 4))
                                                   for _ in range(3)))

    pairs = []
    while len(pairs) < count:
        try:
            l1, l2, u, v = (lin() for _ in range(4))
            h1 = _line_product_conic(l1, l2)
            h2 = [a - 2 * b for a, b in zip(_line_product_conic(u, u), _line_product_conic(v, v))]
            f, g = (G.PlaneCurve(G.CurveForm.CONIC, tuple(a + lam * b for a, b in zip(h1, h2)))
                    for lam in rng.sample([-3, -2, -1, 1, 2, 3], 2))
        except (GeometryError, ValueError):
            continue  # a zero line or a degenerate conic
        pairs.append((f, g))
    return pairs


def test_a_member_that_does_not_split_ends_the_search(monkeypatch):
    """Once one pencil member splits and another does not, not every base
    point is in the field, so no third member is split: each intersection
    solves the cubic, two members and the two lines of the one that splits
    (trying every member would take 358 forms and 178 splits).  Outcomes
    are those of the one-member path."""
    pairs = [(a, b) for name in ("Q", "sqrt5", "cbrt2")
             for f, g in _conjugate_pair_pencils(random.Random(f"conjugate pairs {name}"),
                                                 ORACLE_FIELDS[name], 10)
             for a, b in ((f, g), (g, f))]
    want = [_intersect_outcome(_one_member_intersect, a, b) for a, b in pairs]
    solved = _counted(monkeypatch, "binary_form_roots")
    splits = _counted(monkeypatch, "_split_degenerate")
    got = [_intersect_outcome(intersect, a, b) for a, b in pairs]
    assert got == want and all(error is not None for _, error in got)
    assert (len(solved), len(splits)) == (300, 120)


class TestCompletePair:
    """Fed any three distinct common points, in any order, _complete_pair
    returns exactly intersect's list: the same canonical coordinates,
    multiplicities and order.  A tangent pair has three distinct common
    points, so its point of contact plays each of the roles P1, P2, P3."""

    @pytest.mark.parametrize("kind", ["transversal", "tangent"])
    @pytest.mark.parametrize("name", ["Q", "sqrt5"])
    def test_every_ordering_matches_intersect(self, name, kind):
        rng = random.Random(f"complete {name} {kind}")
        for f, g, _ in _oracle_pairs(rng, ORACLE_FIELDS[name], kind, 4):
            for a, b in ((f, g), (g, f)):
                want = intersect(a, b)
                assert sorted(m for _, m in want) == ORACLE_KINDS[kind]
                for trio in combinations([p for p, _ in want], 3):
                    for known in permutations(trio):
                        assert _exact(G._complete_pair(a, b, known)) == _exact(want)

    @pytest.mark.parametrize("kind", ["transversal", "tangent"])
    def test_conics_scaled_by_fractions_match_intersect(self, kind):
        """Over Q the conics' integer vectors clear their denominators."""
        rng = random.Random(f"complete scaled {kind}")

        def scaled(c):
            s = F(rng.choice((-1, 1)) * rng.randint(1, 10**9), rng.randint(2, 10**9))
            return G.PlaneCurve(G.CurveForm.CONIC, tuple(x * s for x in c.coeffs))

        for f, g, _ in _oracle_pairs(rng, Q, kind, 4):
            f, g = scaled(f), scaled(g)
            assert any(c.den > 1 for c in f.coeffs + g.coeffs)
            for a, b in ((f, g), (g, f)):
                want = intersect(a, b)
                assert sorted(m for _, m in want) == ORACLE_KINDS[kind]
                for trio in combinations([p for p, _ in want], 3):
                    for known in permutations(trio):
                        assert _exact(G._complete_pair(a, b, known)) == _exact(want)


def test_geometry_takes_no_inverse_outside_canonical(monkeypatch):
    """Over Q(sqrt5), intersect and extract_profile ask for no field
    inverse from geometry code except to store a point canonical when it is
    built; conics are read through the doubled matrix S, whose entries are
    the coefficients."""
    field = ORACLE_FIELDS["sqrt5"]
    theta = field.generator()
    f = conic(field, 1, 2, 3, 4, 5, theta)
    assert f._vmat == tuple(
        tuple(field.element(v) if isinstance(v, int) else v for v in row)
        for row in ((2, 4, 5), (4, 4, theta), (5, theta, 6))
    )

    rng = random.Random("inverse")
    pairs = [pair[:2] for kind in ORACLE_KINDS for pair in _oracle_pairs(rng, field, kind, 2)]
    images = [cremona_map_curve(line(field, a, b, c + theta)) for a, b, c in CREMONA_LINES]

    requested = []
    original = exactfield.FieldElement.inverse

    def inverse(self):
        frame = sys._getframe(1)
        if frame.f_code.co_name in ("__truediv__", "__rtruediv__", "__pow__"):
            frame = frame.f_back  # the division asked for the inverse
        if frame.f_code.co_filename == G.__file__:
            requested.append(frame.f_code.co_name)
        return original(self)

    monkeypatch.setattr(exactfield.FieldElement, "inverse", inverse)
    for a, b in pairs:
        try:
            intersect(a, b)
        except IntersectionOutsideField:
            pass
    profile = extract_profile(GeometricConfiguration(field, tuple(images)))
    assert profile.t[len(images)] == 3
    assert requested and set(requested) == {"__post_init__"}


def test_line_arrangement_over_q_takes_no_inverse(monkeypatch):
    """Over Q a point's identity is cross-multiplied from its integers, so
    extract_profile normalizes no point of eight lines by an inverse."""
    curves = _random_lines(random.Random("eight lines"), 8)
    taken = []
    original = exactfield.FieldElement.inverse
    monkeypatch.setattr(exactfield.FieldElement, "inverse",
                        lambda self: taken.append(self) or original(self))
    profile = extract_profile(GeometricConfiguration(Q, tuple(curves)))
    assert dict(profile.t) == _naive_line_histogram(curves) and taken == []


def _incidence_t(curves):
    """t-vector counted directly: every curve tested at every point that
    some pair of curves shares."""
    points = {}
    for a, b in combinations(curves, 2):
        for p, _ in intersect(a, b):
            points.setdefault(tuple(c.coeffs for c in p.coords), p)
    t = {}
    for p in points.values():
        r = sum(incident(c, p) for c in curves)
        t[r] = t.get(r, 0) + 1
    return t


class TestExtractProfileIncidence:
    def _check(self, curves):
        profile = extract_profile(GeometricConfiguration(Q, tuple(curves)))
        assert dict(profile.t) == _incidence_t(curves)

    def test_random_lines(self):
        rng = random.Random(2718)
        for _ in range(20):
            self._check(_random_lines(rng, rng.randint(2, 10)))

    def test_seven_point_conics(self):
        self._check([conic(Q, *conic_through(s)) for s in combinations(SEVEN_POINTS, 5)])

    def test_pencil(self):
        self._check([pencil_member(*lm) for lm in ((1, 0), (0, 1), (1, 2), (2, 1), (1, -1))])

    def test_cremona_image(self):
        self._check(_cremona_image_conics())


# ---------------------------------------------------------------------------
# extract_profile against the all-pairs loop it replaced


def _all_pairs_profile(config):
    """extract_profile without pair skipping: every pair is intersected, in
    lexicographic order, and the first error raised is the answer."""
    curves = config.curves
    cls = LINES if curves[0].form is G.CurveForm.LINE else CONICS
    on_curves = {}
    for i, j in combinations(range(len(curves)), 2):
        for pt, mult in intersect(curves[i], curves[j]):
            if mult > 1:
                raise NonTransversalIntersection(
                    f"curves {i} and {j} meet at {pt} with "
                    f"multiplicity {mult}",
                    pair=(i, j),
                    point=pt,
                )
            on_curves.setdefault(tuple(c.coeffs for c in pt.coords), set()).update((i, j))
    t = {}
    for members in on_curves.values():
        t[len(members)] = t.get(len(members), 0) + 1
    return ConfigurationProfile(cls, len(curves), t)


def _outcome(extract, config):
    try:
        return extract(config)
    except GeometryError as err:
        return err


def _exact(value):
    """Points down to their coordinates, so that equal means identical."""
    if isinstance(value, ProjPoint):
        return tuple(c.coeffs for c in value.coords)
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


@pytest.fixture
def intersect_calls(monkeypatch):
    """The curve pairs extract_profile hands to intersect, in order."""
    pairs = []
    original = G.intersect

    def counting(a, b):
        pairs.append((a, b))
        return original(a, b)

    monkeypatch.setattr(G, "intersect", counting)
    return pairs


@pytest.fixture
def completions(monkeypatch):
    """The (f, g, known) of every pair extract_profile completes from three
    known common points, in order."""
    calls = []
    original = G._complete_pair

    def counting(f, g, known):
        calls.append((f, g, list(known)))
        return original(f, g, known)

    monkeypatch.setattr(G, "_complete_pair", counting)
    return calls


def _assert_matches_all_pairs(curves, calls, field=Q):
    """extract_profile gives the all-pairs profile, or its first error with
    the same type, message, pair, point and found list; calls is reset to
    the pairs extract_profile intersected."""
    config = GeometricConfiguration(field, tuple(curves))
    want = _outcome(_all_pairs_profile, config)
    calls.clear()
    got = _outcome(extract_profile, config)
    assert type(got) is type(want)
    if isinstance(want, ConfigurationProfile):
        assert (got.curve_class, got.k, dict(got.t)) == (want.curve_class, want.k, dict(want.t))
    else:
        assert str(got) == str(want)
        for name in ("pair", "point", "found", "expected"):
            assert _exact(getattr(got, name, None)) == _exact(getattr(want, name, None))
    return got


def _last_pair_index(curves, calls):
    """Indices of the last pair handed to intersect."""
    a, b = calls[-1]
    return tuple(next(n for n, c in enumerate(curves) if c is x) for x in (a, b))


def _general_integer_points(rng, n):
    """n affine integer points, no three collinear."""
    while True:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4), 1) for _ in range(n)]
        if not any(
            G.det3(tuple(tuple(Q.element(v) for v in p) for p in trio)).is_zero()
            for trio in combinations(pts, 3)
        ):
            return pts


def _pencil_members(base, count, field=Q):
    """count irreducible members d2 + s*d1 (s = 1, -1, 2, -2, ...) of the
    pencil through four points in general position."""
    d1 = _line_product_conic(_line_through(base[0], base[1]), _line_through(base[2], base[3]))
    d2 = _line_product_conic(_line_through(base[0], base[2]), _line_through(base[1], base[3]))
    members = []
    for s in range(1, 4 * count):
        for sign in (1, -1):
            try:
                members.append(G.PlaneCurve(
                    G.CurveForm.CONIC,
                    tuple(b + field.element(sign * s) * a for a, b in zip(d1, d2)),
                ))
            except GeometryError:  # the third line pair of the pencil
                continue
            if len(members) == count:
                return members
    raise AssertionError("unreachable: a pencil has three degenerate members")


def _lines_with_triple_points(rng, k):
    """k distinct lines with no zero coefficient (so no line passes through a
    coordinate vertex), three through each of two random points."""
    centres = [point(Q, rng.randint(-3, 3), rng.randint(-3, 3), 1)]
    while len(centres) < 2:
        centre = point(Q, rng.randint(-3, 3), rng.randint(-3, 3), 1)
        if centre != centres[0]:
            centres.append(centre)
    lines = []
    while len(lines) < k:
        other = point(Q, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
        through = [c for c in centres if sum(incident(l, c) for l in lines) < 3]
        if through:
            if other == through[0]:
                continue
            cand = _line_through(through[0], other)
        else:
            cand = line(Q, *(rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(3)))
        if any(c.is_zero() for c in cand.coeffs) or any(proportional(cand, l) for l in lines):
            continue
        lines.append(cand)
    return lines


def _rational_point_on(c, through, rng):
    """A point of the conic c other than through, on a random line through it."""
    while True:
        other = point(Q, rng.randint(-3, 3), rng.randint(-3, 3), 1)
        if other == through:
            continue
        found = [p for p, _ in intersect(_line_through(through, other), c) if p != through]
        if found:
            return found[0]


def _pencil_then_late_error(rng, tangent):
    """Pencil members m0..m3 through B0..B3 and a conic E = m0 + L*M, with L the
    line B0B1 and M a line through a further rational point X of m0: E meets
    m0 in B0, B1, X and one more rational point.  M is chosen so that E
    touches m1 at a rational point p (tangent), or at random (E then meets m1
    in B0, B1 and, as a rule, two points outside Q).  The pairs (1, 2) and
    (1, 3) are known in full once row 0 is done, so the error at (1, 4) or
    later comes after skipped pairs.  Returns the curves and p (or None)."""
    while True:
        base = _random_field_points(rng, Q)
        if base is None:
            continue
        members = _pencil_members(base, 4)
        m0, m1 = members[:2]
        el, en = _line_through(base[0], base[1]), _line_through(base[2], base[3])
        x = _rational_point_on(m0, base[2], rng)
        if incident(el, x) or any(x == b for b in base):
            continue
        p = None
        if tangent:
            # m1 = m0 + s*L*N, and E = m1 + t*T*L with T the tangent at p
            s = next(
                (b - a) / c for a, b, c in zip(m0.coeffs, m1.coeffs, _line_product_conic(el, en))
                if not c.is_zero()
            )
            p = _rational_point_on(m1, base[3], rng)
            tan = G.PlaneCurve(G.CurveForm.LINE, m1.gradient(p))
            if incident(el, p) or any(p == b for b in base) or incident(tan, x):
                continue
            t = -s * en.evaluate(x) / tan.evaluate(x)
            coeffs = tuple(s * a + t * b for a, b in zip(en.coeffs, tan.coeffs))
        else:
            other = point(Q, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
            if other == x:
                continue
            coeffs = G.cross(x.coords, other.coords)
        em = _line_product_conic(el, G.PlaneCurve(G.CurveForm.LINE, coeffs))
        try:
            extra = G.PlaneCurve(G.CurveForm.CONIC, tuple(a + b for a, b in zip(m0.coeffs, em)))
            curves = (*members, extra)
            GeometricConfiguration(Q, curves)
        except GeometryError:
            continue
        row0 = intersect(m0, extra)
        if len(row0) == 4 and all(m == 1 for _, m in row0):
            return list(curves), p


def _touching_after_known_points(rng, k):
    """k conics through three points A, B, D, in random order.  Two of them,
    T*BD + s*AB*AD with T a line through A, touch at A; the others pass
    through two more random points each.  Returns the curves, A and the
    indices of the touching pair, or None when that pair comes first, so
    that its common points would not be known when it is reached."""
    a, b, d, on_t = _general_integer_points(rng, 4)
    base = [point(Q, *v) for v in (a, b, d)]
    others = []
    while len(others) < k - 2:
        extra = [(rng.randint(-9, 9), rng.randint(-9, 9), 1) for _ in range(2)]
        five = [tuple(Q.element(v) for v in p) for p in (a, b, d, *extra)]
        if any(G.det3(trio).is_zero() for trio in combinations(five, 3)):
            continue
        others.append(conic(Q, *conic_through((a, b, d, *extra))))
    tangent = _line_through(base[0], point(Q, *on_t))
    touching = _line_product_conic(tangent, _line_through(base[1], base[2]))
    chords = _line_product_conic(_line_through(*base[:2]), _line_through(base[0], base[2]))
    pair = []
    for s in rng.sample([-3, -2, -1, 1, 2, 3], 6):
        try:
            pair.append(G.PlaneCurve(
                G.CurveForm.CONIC, tuple(x + Q.element(s) * y for x, y in zip(touching, chords))
            ))
        except GeometryError:  # the degenerate members of the pencil
            continue
        if len(pair) == 2:
            break
    curves = others + pair
    rng.shuffle(curves)
    indices = tuple(sorted(curves.index(c) for c in pair))
    if indices[0] == 0:
        return None
    return curves, base[0], indices


def _conic_through_points(pts):
    """The conic through five points of any field, no three collinear: the
    member of the pencil spanned by (P1P2)(P3P4) and (P1P3)(P2P4) that
    passes through P5."""
    p1, p2, p3, p4, p5 = pts
    pairs = [
        (_line_through(p1, p2), _line_through(p3, p4)),
        (_line_through(p1, p3), _line_through(p2, p4)),
    ]
    (v1, d1), (v2, d2) = (
        (a.evaluate(p5) * b.evaluate(p5), _line_product_conic(a, b)) for a, b in pairs
    )
    return G.PlaneCurve(G.CurveForm.CONIC, tuple(v2 * x - v1 * y for x, y in zip(d1, d2)))


def _met_by_last(rng, kind):
    """A conic f through A, B, D, then conics through A, B, D and two random
    points each, then a last conic g = f + s*L1*L2 in no earlier pair.  So
    when the pair (0, last) is reached, only the evaluation of g at each
    point found on f, when that point was first found, can make any of its
    common points known.  By kind, g touches f at A and passes through B
    and D ("tangent": L1 the tangent at A, L2 the line BD), passes through
    A and B ("two": L1 = AB), through A ("one": L1 a line through A), or
    through none of the points found ("none"); L2 is random unless given.
    Returns the curves and A, or None when an earlier pair is not
    transversal or g is degenerate."""
    on_f = _general_integer_points(rng, 5)
    a, b, d = (point(Q, *v) for v in on_f[:3])
    f = conic(Q, *conic_through(on_f))
    others, count = [], rng.randint(1, 3)
    while len(others) < count:
        five = on_f[:3] + [(rng.randint(-9, 9), rng.randint(-9, 9), 1) for _ in range(2)]
        if any(G.det3(tuple(tuple(Q.element(v) for v in p) for p in trio)).is_zero()
               for trio in combinations(five, 3)):
            continue
        others.append(conic(Q, *conic_through(five)))

    def random_line(through=None):
        coeffs = [rng.randint(-6, 6) for _ in range(3)]
        if through is None:
            return line(Q, *coeffs)
        return _line_through(through, point(Q, *coeffs[:2], 1))

    try:
        l1, l2 = {
            "tangent": lambda: (G.PlaneCurve(G.CurveForm.LINE, f.gradient(a)), _line_through(b, d)),
            "two": lambda: (_line_through(a, b), random_line()),
            "one": lambda: (random_line(a), random_line()),
            "none": lambda: (random_line(), random_line()),
        }[kind]()
        s = Q.element(rng.choice([-3, -2, -1, 1, 2, 3]))
        g = G.PlaneCurve(
            G.CurveForm.CONIC,
            tuple(x + s * y for x, y in zip(f.coeffs, _line_product_conic(l1, l2))),
        )
        curves = [f, *others, g]
        GeometricConfiguration(Q, tuple(curves))
    except (GeometryError, ValueError):  # a zero line, a degenerate g, a repeat
        return None
    if any(m > 1 for c in others for _, m in intersect(f, c)):
        return None
    return curves, a


def _seven_point_elements(monkeypatch):
    """The FieldElements built by extract_profile on the 21 conics through
    five of SEVEN_POINTS, by field arithmetic or by geometry directly."""
    conics = [conic(Q, *conic_through(s)) for s in combinations(SEVEN_POINTS, 5)]
    config = GeometricConfiguration(Q, tuple(conics))
    built = []
    original = exactfield._element

    def counting(*args):
        built.append(None)
        return original(*args)

    monkeypatch.setattr(exactfield, "_element", counting)
    monkeypatch.setattr(G, "_element", counting, raising=False)
    assert dict(extract_profile(config).t) == {2: 72, 3: 11, 15: 7}
    return len(built)


class TestExtractProfileSkipsKnownPairs:
    """A pair whose Bezout number of distinct common points is already known
    is not intersected, and a conic pair with three of them known is
    completed; profiles and first errors match the all-pairs loop."""

    def test_seven_point_conics_make_1_call_and_86_completions(
        self, intersect_calls, completions
    ):
        conics = [conic(Q, *conic_through(s)) for s in combinations(SEVEN_POINTS, 5)]
        profile = _assert_matches_all_pairs(conics, intersect_calls)
        assert dict(profile.t) == {2: 72, 3: 11, 15: 7}
        assert (len(intersect_calls), len(completions)) == (1, 86)

    def test_seven_point_conics_build_at_most_12000_elements(self, monkeypatch):
        """Each form of three or more products is summed in one reduction
        (exactfield.dot), not one FieldElement per product and partial sum."""
        assert _seven_point_elements(monkeypatch) <= 12_000

    def test_seven_point_conics_build_at_most_8000_elements(self, monkeypatch):
        """Each point's identity, monomials and gradients per conic are
        computed once, not once per pair that reads them."""
        assert _seven_point_elements(monkeypatch) <= 8_000

    def test_seven_point_conics_build_at_most_6500_elements(self, monkeypatch):
        """Each point's later curves are evaluated once, when it is first
        found, not again for every pair whose known points are counted."""
        assert _seven_point_elements(monkeypatch) <= 6_500

    def test_seven_point_conics_build_at_most_4500_elements(self, monkeypatch):
        """A completion crosses two pencil lines, a cross product or a
        two-term sum builds one element per coordinate, and points are
        ordered by integers, comparing no Fraction."""
        compared = []
        original = F.__eq__
        monkeypatch.setattr(F, "__eq__", lambda a, b: compared.append(b) or original(a, b))
        assert _seven_point_elements(monkeypatch) <= 4_500
        assert compared == []

    def test_seven_point_conics_build_at_most_600_elements_and_take_10_inverses(
        self, monkeypatch
    ):
        """Over Q incidence tests, completions and distinctness run on
        integer vectors, and a completed point is built from its vector,
        canonical with no inverse."""
        taken = []
        original = exactfield.FieldElement.inverse
        monkeypatch.setattr(exactfield.FieldElement, "inverse",
                            lambda self: taken.append(self) or original(self))
        assert _seven_point_elements(monkeypatch) <= 600
        assert len(taken) <= 10

    def test_seven_point_conics_build_454_elements_and_take_1_inverse(self, monkeypatch):
        """Over Q root finding reads a polynomial's integers before any
        monic form is made, so the one inverse left is the division that
        gives a linear polynomial's root, and geometry asks for none."""
        requested = []
        original = exactfield.FieldElement.inverse

        def inverse(self):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "__truediv__":
                frame = frame.f_back  # the division asked for the inverse
            requested.append(frame.f_code.co_name)
            return original(self)

        monkeypatch.setattr(exactfield.FieldElement, "inverse", inverse)
        assert _seven_point_elements(monkeypatch) == 454
        assert requested == ["roots_in_field"]

    def test_cremona_image_conics_make_1_call_and_9_completions(
        self, intersect_calls, completions
    ):
        profile = _assert_matches_all_pairs(_cremona_image_conics(), intersect_calls)
        assert dict(profile.t) == {2: 6, 3: 3, 4: 1, 7: 3}
        assert (len(intersect_calls), len(completions)) == (1, 9)

    def test_first_error_at_a_completed_pair(self, intersect_calls, completions):
        rng = random.Random("touching at a known point")
        roles = set()
        done = 0
        while done < 8:
            made = _touching_after_known_points(rng, rng.randint(3, 5))
            if made is None:
                continue
            curves, a, pair = made
            completions.clear()
            err = _assert_matches_all_pairs(curves, intersect_calls)
            assert isinstance(err, NonTransversalIntersection)
            if err.pair != pair:  # two other conics touch at B or D first
                continue
            assert err.point == a
            f, g, known = completions[-1]
            assert (f, g) == tuple(curves[i] for i in err.pair)
            roles.add("P3" if known.index(a) == 2 else "P1/P2")
            done += 1
        assert roles == {"P1/P2", "P3"}

    def test_pencil_makes_one_call(self, intersect_calls):
        rng = random.Random(1515)
        nf = [(ORACLE_FIELDS["sqrt5"], 4), (ORACLE_FIELDS["cbrt2"], 3)]
        for field, k in [(Q, k) for k in range(2, 8)] + nf:
            base = None
            while base is None:
                base = _random_field_points(rng, field)
            members = _pencil_members(base, k, field)
            profile = _assert_matches_all_pairs(members, intersect_calls, field)
            assert dict(profile.t) == {k: 4}
            assert len(intersect_calls) == 1

    def test_sqrt5_six_point_conics_make_one_call(self, intersect_calls):
        field = ORACLE_FIELDS["sqrt5"]
        rng = random.Random("six sqrt5 points")
        pts = None
        while pts is None or incident(_conic_through_points(pts[:5]), pts[5]):
            pts = _random_field_points(rng, field, 6)
        conics = [_conic_through_points(s) for s in combinations(pts, 5)]
        profile = _assert_matches_all_pairs(conics, intersect_calls, field)
        assert dict(profile.t) == {5: 6}
        assert len(intersect_calls) == 1

    @pytest.mark.parametrize("n, seed", [(6, 1), (6, 2), (7, 3), (8, 4)])
    def test_conics_through_five_subsets(self, n, seed, intersect_calls):
        rng = random.Random(seed)
        pts = _general_integer_points(rng, n)
        conics = [conic(Q, *conic_through(s)) for s in combinations(pts, 5)]
        _assert_matches_all_pairs(conics, intersect_calls)

    def test_cremona_images_of_lines_with_triple_points(self, intersect_calls):
        rng = random.Random(31415)
        outcomes = set()
        for _ in range(8):
            lines = _lines_with_triple_points(rng, rng.randint(6, 8))
            got = _assert_matches_all_pairs(lines, intersect_calls)
            assert sum(count for r, count in got.t.items() if r >= 3) >= 2
            assert len(intersect_calls) < len(lines) * (len(lines) - 1) // 2
            images = [cremona_map_curve(l) for l in lines]
            outcomes.add(type(_assert_matches_all_pairs(images, intersect_calls)))
        assert outcomes == {ConfigurationProfile, NonTransversalIntersection}

    def test_first_error_at_a_pair_completed_from_probed_points(
        self, intersect_calls, completions
    ):
        """g touches f at A, and f's earlier pairs found A, B and D and listed
        g at each: (0, last) is a completion, which raises where intersect
        would."""
        rng = random.Random("probed tangent")
        roles = set()
        for _ in range(8):
            made = None
            while made is None:
                made = _met_by_last(rng, "tangent")
            curves, a = made
            completions.clear()
            err = _assert_matches_all_pairs(curves, intersect_calls)
            assert isinstance(err, NonTransversalIntersection)
            assert err.pair == (0, len(curves) - 1) and err.point == a
            assert len(intersect_calls) == 1
            f, g, known = completions[-1]
            assert (f, g) == (curves[0], curves[-1])
            roles.add("P3" if known.index(a) == 2 else "P1/P2")
        assert roles == {"P1/P2", "P3"}

    @pytest.mark.parametrize("kind, known", [("two", 2), ("one", 1), ("none", 0)])
    def test_outside_field_after_probing(self, kind, known, intersect_calls):
        """g meets f in `known` of the points found on f and in points
        outside Q: with fewer than three known points the pair is
        intersected, which raises."""
        rng = random.Random(f"probed outside {kind}")
        done = 0
        while done < 3:
            made = _met_by_last(rng, kind)
            if made is None:
                continue
            curves, _ = made
            f, g = curves[0], curves[-1]
            found_on_f = {tuple(c.coeffs for c in p.coords): p
                          for c in curves[1:-1] for p, _ in intersect(f, c)}
            if sum(incident(g, p) for p in found_on_f.values()) != known:
                continue
            try:
                intersect(f, g)
                continue
            except IntersectionOutsideField:
                pass
            err = _assert_matches_all_pairs(curves, intersect_calls)
            assert isinstance(err, IntersectionOutsideField)
            assert intersect_calls == [(curves[0], curves[1]), (f, g)]
            done += 1

    @pytest.mark.parametrize("tangent", [True, False], ids=["tangent", "outside"])
    def test_first_error_after_skipped_pairs(self, tangent, intersect_calls):
        rng = random.Random(f"late error {tangent}")
        for _ in range(3):
            curves, p = _pencil_then_late_error(rng, tangent)
            err = _assert_matches_all_pairs(curves, intersect_calls)
            i, j = _last_pair_index(curves, intersect_calls)
            assert i >= 1
            all_pairs = list(combinations(range(len(curves)), 2))
            assert len(intersect_calls) < all_pairs.index((i, j)) + 1
            if tangent:
                assert isinstance(err, NonTransversalIntersection)
                assert err.pair == (1, 4) and err.point == p
            else:
                assert isinstance(err, IntersectionOutsideField)

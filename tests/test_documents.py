from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import feasible_profiles
from harbourne.documents import (
    DocumentError,
    format_rational,
    geometry_from_document,
    parse_rational,
    profile_from_document,
    profile_to_document,
)
from harbourne.profiles import CONICS, LINES, ONE_ONE, plane_curves


class TestRationals:
    def test_parse(self):
        assert parse_rational(3) == F(3)
        assert parse_rational("-7/2") == F(-7, 2)

    def test_parse_rejects(self):
        for bad in ("x", "1/0", True, 1.5, None, "1.5", " 3 ", "1_000", "1e3",
                    "1E3", "+3", "-", "/2", "3/", "-7/-2", "3\n", "\u0663"):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_format_roundtrip(self):
        for value in (F(3), F(-7, 2), F(0)):
            assert parse_rational(format_rational(value)) == value


class TestProfileDocuments:
    def test_parse_klein(self):
        p = profile_from_document(
            {"class": "line-p2", "k": 21, "t": {"3": 28, "4": 21}}
        )
        assert p.curve_class == LINES
        assert p.k == 21 and dict(p.t) == {3: 28, 4: 21}

    def test_parse_classes(self):
        assert (
            profile_from_document({"class": "conic-p2", "k": 3, "t": {"2": 12}}).curve_class
            == CONICS
        )
        assert (
            profile_from_document(
                {"class": "one-one-quadric", "k": 4, "t": {"2": 12}}
            ).curve_class
            == ONE_ONE
        )
        cls = profile_from_document(
            {"class": {"plane-curve-p2": {"degree": 6}}, "k": 3, "t": {"2": 1}}
        ).curve_class
        assert cls == plane_curves(6)

    def test_unknown_top_level_key(self):
        with pytest.raises(DocumentError):
            profile_from_document(
                {"class": "line-p2", "k": 3, "t": {}, "extra": 1}
            )

    def test_missing_key(self):
        with pytest.raises(DocumentError):
            profile_from_document({"class": "line-p2", "k": 3})

    def test_unknown_class(self):
        with pytest.raises(DocumentError):
            profile_from_document({"class": "cubic-p3", "k": 3, "t": {}})

    def test_multiplicity_below_two_rejected_at_parse(self):
        with pytest.raises(DocumentError) as err:
            profile_from_document({"class": "line-p2", "k": 3, "t": {"1": 5}})
        assert "$.t.1" in str(err.value)

    def test_non_integer_bits_rejected(self):
        with pytest.raises(DocumentError):
            profile_from_document({"class": "line-p2", "k": "3", "t": {}})
        with pytest.raises(DocumentError):
            profile_from_document({"class": "line-p2", "k": 3, "t": {"2": "x"}})
        with pytest.raises(DocumentError):
            profile_from_document({"class": "line-p2", "k": True, "t": {}})
        # int() reads each of these keys, "2_0" as 20; only str(int(key))
        # names a multiplicity, so no two keys can name the same one
        for key in ("02", " 2 ", "2_0", "+2", "2.0", "None"):
            doc = {"class": "line-p2", "k": 4, "t": {"2": 5, key: 6}}
            with pytest.raises(DocumentError) as err:
                profile_from_document(doc)
            assert f"$.t.{key}: " in str(err.value)

    @given(feasible_profiles())
    def test_roundtrip(self, profile):
        assert profile_from_document(profile_to_document(profile)) == profile


class TestGeometryDocuments:
    DOC = {
        "field": {"kind": "rational"},
        "curves": [
            {"type": "conic", "coeffs": [1, 1, -2, 0, 0, 0]},
            {"type": "line", "coeffs": ["1/2", 0, 1]},
        ],
    }

    def test_parse_rational_field(self):
        cfg = geometry_from_document(self.DOC)
        assert cfg.field.is_rational
        assert len(cfg.curves) == 2
        assert cfg.curves[1].coeffs[0].as_rational() == F(1, 2)

    def test_parse_number_field(self):
        doc = {
            "field": {"kind": "number-field", "min_poly": [-2, 0, 1]},
            "curves": [
                {"type": "line", "coeffs": [[0, 1], 1, 0]},
                {"type": "line", "coeffs": [1, 0, 0]},
            ],
        }
        cfg = geometry_from_document(doc)
        assert cfg.field.degree == 2
        theta = cfg.field.generator()
        assert cfg.curves[0].coeffs[0] == theta

    def test_unknown_field_kind(self):
        with pytest.raises(DocumentError):
            geometry_from_document({"field": {"kind": "real"}, "curves": []})

    def test_vector_coefficient_needs_number_field(self):
        doc = {
            "field": {"kind": "rational"},
            "curves": [{"type": "line", "coeffs": [[0, 1], 1, 0]}],
        }
        with pytest.raises(DocumentError):
            geometry_from_document(doc)

    def test_empty_coefficient_vector_rejected_with_location(self):
        # [] is not read as 0
        doc = {
            "field": {"kind": "number-field", "min_poly": [-2, 0, 1]},
            "curves": [{"type": "line", "coeffs": [1, [], 0]}],
        }
        with pytest.raises(DocumentError) as err:
            geometry_from_document(doc)
        assert str(err.value) == "$.curves[0].coeffs[1]: empty coefficient vector"

    def test_wrong_coefficient_count(self):
        doc = {
            "field": {"kind": "rational"},
            "curves": [{"type": "conic", "coeffs": [1, 2, 3]}],
        }
        with pytest.raises(DocumentError) as err:
            geometry_from_document(doc)
        assert "$.curves[0].coeffs" in str(err.value)

    def test_degenerate_conic_rejected_with_location(self):
        doc = {
            "field": {"kind": "rational"},
            "curves": [{"type": "conic", "coeffs": [0, 0, 0, 0, 1, 1]}],
        }
        with pytest.raises(DocumentError) as err:
            geometry_from_document(doc)
        assert "$.curves[0]" in str(err.value)

    def test_reducible_min_poly_rejected(self):
        doc = {
            "field": {"kind": "number-field", "min_poly": [-4, 0, 1]},
            "curves": [{"type": "line", "coeffs": [1, 0, 0]}],
        }
        with pytest.raises(DocumentError):
            geometry_from_document(doc)

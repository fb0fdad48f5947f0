"""Klein's configuration from coordinates over Q(zeta_7).

Elkies' generators of the simple group of order 168 in PGL_3(Q(zeta_7))
close to 168 projective elements; the axes of its 21 involutions are
Klein's 21 lines.  Their profile and h are checked here, and so is the
Cremona image at three integer base points in general position, which is
the ``klein-conics`` fixture row of ``harbourne fixtures``.
"""

import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from harbourne import geometry as G
from harbourne.cli import _FIXTURES
from harbourne.exactfield import ExactField
from harbourne.geometry import (
    GeometricConfiguration,
    ProjPoint,
    apply_to_curve,
    cremona_map_curve,
    cross,
    extract_profile,
    frame_inverse_columns,
    incident,
    intersect,
    line,
    point,
)
from harbourne.hconst import local_h

PHI7 = ExactField(tuple(F(1) for _ in range(7)))  # 1 + t + ... + t^6


def _mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(3)), PHI7.zero()) for j in range(3))
        for i in range(3)
    )


def _projective(m):
    """m scaled so that its first nonzero entry is 1."""
    lead = next(x for row in m for x in row if not x.is_zero()).inverse()
    return tuple(tuple(x * lead for x in row) for row in m)


def _generators():
    z = PHI7.generator()
    zero, one = PHI7.zero(), PHI7.one()
    a, b, c = z - z**6, z**2 - z**5, z**4 - z**3
    diagonal = ((z**4, zero, zero), (zero, z**2, zero), (zero, zero, z))
    shift = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    # the factor 1/sqrt(-7) of Elkies' circulant drops out projectively
    circulant = ((a, b, c), (b, c, a), (c, a, b))
    return [_projective(g) for g in (diagonal, shift, circulant)]


def _group(gens):
    seen = {_projective(g) for g in gens}
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                prod = _projective(_mat_mul(m, g))
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return seen


def _klein_lines(group):
    identity = _projective(tuple(
        tuple(PHI7.one() if i == j else PHI7.zero() for j in range(3)) for i in range(3)
    ))
    axes = []
    for m in group:
        if m == identity or _projective(_mat_mul(m, m)) != identity:
            continue
        # A ~ diag(l, l, -l): tr A = l, and every row of A - l I is the
        # equation of the l-eigenspace, the axis
        trace = m[0][0] + m[1][1] + m[2][2]
        rows = [
            tuple(m[i][j] - (trace if i == j else PHI7.zero()) for j in range(3))
            for i in range(3)
        ]
        axes.append(line(PHI7, *next(r for r in rows if any(r))))
    return axes


def _singular_points(lines):
    points = {}
    for l1, l2 in combinations(lines, 2):
        p = ProjPoint(cross(l1.coeffs, l2.coeffs))
        points[p.sort_key()] = p
    return list(points.values())


def _base_points(lines, singular, rng):
    """Three integer points off every line whose joining lines miss every
    singular point."""
    while True:
        pts = [
            point(PHI7, rng.randint(-9, 9), rng.randint(-9, 9), 1) for _ in range(3)
        ]
        if any(incident(l, p) for l in lines for p in pts):
            continue
        joins = [cross(p.coords, q.coords) for p, q in combinations(pts, 2)]
        if any(all(c.is_zero() for c in j) for j in joins):
            continue
        joins = [line(PHI7, *j) for j in joins]
        if incident(joins[0], pts[2]):
            continue
        if any(incident(j, s) for j in joins for s in singular):
            continue
        return pts


@pytest.fixture(scope="module")
def klein():
    """The group, its 21 axes, their 49 crossings and the Cremona image."""
    group = _group(_generators())
    lines = _klein_lines(group)
    singular = _singular_points(lines)
    frame = frame_inverse_columns(*_base_points(lines, singular, random.Random(7)))
    conics = tuple(cremona_map_curve(apply_to_curve(frame, l)) for l in lines)
    return group, lines, singular, conics


def _counting(monkeypatch, name):
    calls = []
    original = getattr(G, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(G, name, counting)
    return calls


def test_klein_lines_and_their_cremona_image(klein, monkeypatch):
    group, lines, singular, conics = klein
    assert len(group) == 168
    assert len(lines) == 21

    profile = extract_profile(GeometricConfiguration(PHI7, tuple(lines)))
    assert dict(profile.t) == {3: 28, 4: 21}
    assert local_h(profile).h == -3

    assert len(singular) == 49
    # all 21 conics pass through the three base points: the first pair finds
    # them and lists every conic through each, so only that pair is
    # intersected, and the 48 pairs that meet in a new fourth point are
    # completed; every other pair has its four points listed and is skipped
    intersect_calls = _counting(monkeypatch, "intersect")
    completions = _counting(monkeypatch, "_complete_pair")
    image = extract_profile(GeometricConfiguration(PHI7, conics))
    assert (len(intersect_calls), len(completions)) == (1, 48)
    assert dict(image.t) == {3: 28, 4: 21, 21: 3}
    assert local_h(image).h == F(-147, 52)

    fixture = next(f for f in _FIXTURES if f["name"].startswith("klein-conics"))
    assert dict(image.t) == fixture["t_expect"] and local_h(image).h == fixture["h"]


def test_klein_lines_are_intersected_once_per_point(klein, monkeypatch):
    """Each of the 49 points is listed with all its lines when first found,
    so every later pair of lines through it is skipped."""
    lines = klein[1]
    intersect_calls = _counting(monkeypatch, "intersect")
    profile = extract_profile(GeometricConfiguration(PHI7, tuple(lines)))
    assert dict(profile.t) == {3: 28, 4: 21}
    assert len(intersect_calls) == 49


def test_completion_matches_intersect_on_a_klein_pair(klein):
    f, g = klein[3][:2]
    want = intersect(f, g)
    assert [m for _, m in want] == [1, 1, 1, 1]
    exact = [(tuple(c.coeffs for c in p.coords), m) for p, m in want]
    for trio in combinations([p for p, _ in want], 3):
        for known in permutations(trio):
            got = G._complete_pair(f, g, known)
            assert [(tuple(c.coeffs for c in p.coords), m) for p, m in got] == exact

"""Shared generators for feasible configuration profiles."""

from __future__ import annotations

from math import comb

from hypothesis import strategies as st

from harbourne.profiles import (
    CONICS,
    ConfigurationProfile,
    CurveClass,
    CurveKind,
    LINES,
    ONE_ONE,
)


def random_feasible_t(rng, curve_class: CurveClass, k: int, require_tk_zero=False):
    """Random t-vector satisfying the incidence identity exactly."""
    budget = curve_class.pairwise_intersection * comb(k, 2)
    t: dict[int, int] = {}
    r_top = k - 1 if require_tk_zero else k
    for r in range(r_top, 2, -1):
        weight = comb(r, 2)
        cap = budget // weight
        if curve_class.kind is CurveKind.CONIC_P2 and r == k:
            cap = min(cap, 4)
        if cap <= 0:
            continue
        count = rng.randint(0, cap)
        if count:
            t[r] = count
            budget -= weight * count
    if budget:
        t[2] = budget
    return t


def random_valid_profile(rng, curve_class, k, require_tk_zero=False):
    return ConfigurationProfile(
        curve_class, k, random_feasible_t(rng, curve_class, k, require_tk_zero)
    )


@st.composite
def feasible_profiles(
    draw,
    classes=(LINES, CONICS, ONE_ONE),
    min_k=3,
    max_k=9,
    require_tk_zero=False,
):
    cls = draw(st.sampled_from(list(classes)))
    k = draw(st.integers(min_k, max_k))
    budget = cls.pairwise_intersection * comb(k, 2)
    t: dict[int, int] = {}
    r_top = k - 1 if require_tk_zero else k
    for r in range(r_top, 2, -1):
        weight = comb(r, 2)
        cap = budget // weight
        if cls.kind is CurveKind.CONIC_P2 and r == k:
            cap = min(cap, 4)
        if cap <= 0:
            continue
        count = draw(st.integers(0, cap))
        if count:
            t[r] = count
            budget -= weight * count
    if budget:
        t[2] = budget
    return ConfigurationProfile(cls, k, t)


def line_profiles(min_k=3, max_k=12):
    return feasible_profiles(classes=(LINES,), min_k=min_k, max_k=max_k)


def conic_profiles(min_k=3, max_k=9, require_tk_zero=False):
    return feasible_profiles(
        classes=(CONICS,), min_k=min_k, max_k=max_k, require_tk_zero=require_tk_zero
    )


def quadric_profiles(min_k=4, max_k=9, require_tk_zero=True):
    return feasible_profiles(
        classes=(ONE_ONE,), min_k=min_k, max_k=max_k, require_tk_zero=require_tk_zero
    )


# Seven integer points, no three on a line and no six on a conic, so the
# conics through their 5-subsets are irreducible.
SEVEN_POINTS = (
    (-2, -2, 1),
    (-2, -1, 1),
    (0, 1, 1),
    (1, -1, 1),
    (1, 0, 1),
    (2, 0, 1),
    (2, 1, 1),
)


def conic_through(points):
    """Integer coefficients (X^2, Y^2, Z^2, XY, XZ, YZ) of the conic through
    five integer points, no three of them collinear."""

    def join(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    def product(l1, l2):
        a, b, c = l1
        d, e, f = l2
        return (a * d, b * e, c * f, a * e + b * d, a * f + c * d, b * f + c * e)

    def value(coeffs, p):
        a, b, c, d, e, f = coeffs
        x, y, z = p
        return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z

    p = points
    # two line pairs through the first four points span their pencil
    d1 = product(join(p[0], p[1]), join(p[2], p[3]))
    d2 = product(join(p[0], p[2]), join(p[1], p[3]))
    v1, v2 = value(d1, p[4]), value(d2, p[4])
    return tuple(v1 * y - v2 * x for x, y in zip(d1, d2))


def swinnerton_dyer(n: int) -> list[int]:
    """The minimal polynomial of sqrt 2 + sqrt 3 + ... over the first n
    primes, of degree 2^n, low to high.

    Each prime p maps f to f(x + sqrt p) f(x - sqrt p) = A(x)^2 - p B(x)^2,
    where f(x + y) = A(x) + y B(x) modulo y^2 = p, from the Taylor terms
    f^(k)(x) / k!.
    """

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    f = [0, 1]
    for p in (2, 3, 5, 7, 11, 13)[:n]:
        a, b = [0] * len(f), [0] * len(f)
        term = f
        for k in range(len(f)):
            if k:  # f^(k) / k! from f^(k-1) / (k-1)!
                term = [c * i // k for i, c in enumerate(term)][1:]
            part = b if k % 2 else a
            for i, c in enumerate(term):
                part[i] += p ** (k // 2) * c
        f = [x - p * y for x, y in zip(mul(a, a), mul(b, b))]
        while not f[-1]:
            f.pop()
    return f


"""Independent computations the benchmark checks the program against.

Nothing here imports the program.  The arithmetic is a separate small
implementation of Q and of Q[theta]/(m): elements are tuples of
Fractions, inverses come from solving the multiplication matrix (the
program uses an extended Euclid), and intersection points come from
classical constructions rather than from root finding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd


class Degenerate(Exception):
    """A generated configuration is not transversal or not in general position."""


# ---------------------------------------------------------------------------
# exact fields


class Field:
    """Q (min_poly None) or Q[theta]/(min_poly), min_poly monic, low to high."""

    def __init__(self, min_poly=None):
        self.min_poly = None if min_poly is None else tuple(Fraction(c) for c in min_poly)
        self.degree = 1 if min_poly is None else len(min_poly) - 1

    def __call__(self, value) -> "Num":
        if isinstance(value, Num):
            return value
        if isinstance(value, (int, Fraction)):
            coeffs = [Fraction(value)]
        else:
            coeffs = [Fraction(c) for c in value]
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return Num(self, tuple(coeffs))

    def _reduce(self, prod: list) -> tuple:
        d = self.degree
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * self.min_poly[j]
        return tuple(prod[:d])

    def to_document(self):
        if self.min_poly is None:
            return {"kind": "rational"}
        return {"kind": "number-field", "min_poly": [_rat_doc(c) for c in self.min_poly]}


class Num:
    __slots__ = ("field", "c")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.c = coeffs

    def _o(self, other) -> "Num":
        return other if isinstance(other, Num) else self.field(other)

    def __add__(self, other):
        o = self._o(other)
        return Num(self.field, tuple(a + b for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return Num(self.field, tuple(-a for a in self.c))

    def __sub__(self, other):
        o = self._o(other)
        return Num(self.field, tuple(a - b for a, b in zip(self.c, o.c)))

    def __mul__(self, other):
        o = self._o(other)
        if self.field.degree == 1:
            return Num(self.field, (self.c[0] * o.c[0],))
        prod = [Fraction(0)] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    prod[i + j] += a * b
        return Num(self.field, self.field._reduce(prod))

    def inverse(self) -> "Num":
        d = self.field.degree
        if d == 1:
            return Num(self.field, (1 / self.c[0],))
        # column j of the multiplication matrix is self * theta^j
        cols = [(self * Num(self.field, tuple(Fraction(int(i == j)) for i in range(d)))).c
                for j in range(d)]
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        return Num(self.field, tuple(_solve(rows, d)))

    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other):
        return isinstance(other, Num) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def to_document(self):
        if self.field.degree == 1:
            return _rat_doc(self.c[0])
        return [_rat_doc(x) for x in self.c]


def _rat_doc(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _solve(rows: list, n: int) -> list:
    """Solve a square system given as augmented Fraction rows."""
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular system (zero divisor)")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def nullspace(rows: list, n: int) -> list:
    """Basis of the right kernel of a matrix of Nums with n columns."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    field = rows[0][0].field
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [field(0)] * n
        v[free] = field(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# projective points, lines and conics (conic coefficients in the order
# X^2, Y^2, Z^2, XY, XZ, YZ, as in the geometry document)


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(a, b, c):
    return dot(a, cross(b, c))


def point_key(p) -> tuple:
    """Projective normal form: first nonzero coordinate scaled to 1."""
    lead = next(x for x in p if not x.is_zero())
    inv = lead.inverse()
    return tuple((x * inv).c for x in p)


def conic_monomials(p):
    x, y, z = p
    return [x * x, y * y, z * z, x * y, x * z, y * z]


def conic_eval(q, p):
    return dot(q[:3], [p[0] * p[0], p[1] * p[1], p[2] * p[2]]) + dot(
        q[3:], [p[0] * p[1], p[0] * p[2], p[1] * p[2]]
    )


def conic_det(q):
    a, b, c, d, e, f = q
    half = Fraction(1, 2)
    m = ((a, d * half, e * half), (d * half, b, f * half), (e * half, f * half, c))
    return det3(*m)


def normalize(coeffs: list) -> list:
    """Scale a coefficient vector: primitive integers over Q, leading 1 otherwise."""
    field = coeffs[0].field
    if field.degree == 1:
        den = 1
        for x in coeffs:
            den = den * x.c[0].denominator // gcd(den, x.c[0].denominator)
        ints = [int(x.c[0] * den) for x in coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        lead = next(v for v in ints if v)
        g = g if lead > 0 else -g
        return [field(v // g) for v in ints]
    inv = next(x for x in coeffs if not x.is_zero()).inverse()
    return [x * inv for x in coeffs]


def conic_through(points) -> list:
    """The conic through five points in general position."""
    basis = nullspace([conic_monomials(p) for p in points], 6)
    if len(basis) != 1:
        raise Degenerate("five points do not determine one conic")
    return normalize(basis[0])


def pencil_basis(points) -> list:
    """Two conics spanning the pencil through four points in general position."""
    basis = nullspace([conic_monomials(p) for p in points], 6)
    if len(basis) != 2:
        raise Degenerate("four points do not span a pencil")
    return basis


def in_general_position(points) -> bool:
    """No three collinear and no six on a conic."""
    if any(det3(*t).is_zero() for t in combinations(points, 3)):
        return False
    return all(
        not nullspace([conic_monomials(p) for p in six], 6)
        for six in combinations(points, 6)
    )


def fourth_point(q1, q2, shared):
    """Fourth common point of two conics through three shared points.

    In the frame p = M v with M = (P1 | P2 | P3), a conic through the
    frame vertices reads alpha*v2*v3 + beta*v1*v3 + gamma*v1*v2 with
    alpha = Q(P2 + P3), beta = Q(P1 + P3), gamma = Q(P1 + P2).  The
    standard Cremona map turns both conics into lines; their crossing w
    maps back to v = (w2*w3 : w1*w3 : w1*w2).
    """
    p1, p2, p3 = shared

    def image_line(q):
        return (
            conic_eval(q, _padd(p2, p3)),
            conic_eval(q, _padd(p1, p3)),
            conic_eval(q, _padd(p1, p2)),
        )

    w = cross(image_line(q1), image_line(q2))
    if any(x.is_zero() for x in w):
        raise Degenerate("conics are tangent at a shared point")
    v = (w[1] * w[2], w[0] * w[2], w[0] * w[1])
    return tuple(p1[i] * v[0] + p2[i] * v[1] + p3[i] * v[2] for i in range(3))


def _padd(p, q):
    return tuple(a + b for a, b in zip(p, q))


def line_profile(lines) -> dict:
    """t-vector of a line arrangement from all pairwise cross products."""
    points = {}
    for a, b in combinations(lines, 2):
        p = cross(a, b)
        points.setdefault(point_key(p), p)
    return _histogram(points.values(), lambda p: sum(dot(l, p).is_zero() for l in lines))


def conic_profile(conics, known_points) -> dict:
    """t-vector of conics, each given with the points it is known to pass through.

    Two conics sharing four known points meet exactly there; sharing
    three, they meet in one more point, from :func:`fourth_point`.
    Fewer shared points are outside what the benchmark generates.
    """
    keyed = [{point_key(p): p for p in pts} for pts in known_points]
    points = {}
    for i, j in combinations(range(len(conics)), 2):
        shared = [keyed[i][k] for k in keyed[i] if k in keyed[j]]
        if len(shared) == 3:
            extra = fourth_point(conics[i], conics[j], shared)
            if point_key(extra) in {point_key(p) for p in shared}:
                raise Degenerate("conics are tangent at a shared point")
            shared.append(extra)
        if len(shared) != 4:
            raise Degenerate(f"conics {i} and {j} share {len(shared)} known points")
        for p in shared:
            points.setdefault(point_key(p), p)
    return _histogram(
        points.values(), lambda p: sum(conic_eval(q, p).is_zero() for q in conics)
    )


def _histogram(points, multiplicity) -> dict:
    t: dict[int, int] = {}
    for p in points:
        r = multiplicity(p)
        if r < 2:
            raise AssertionError("an intersection point lies on fewer than two curves")
        t[r] = t.get(r, 0) + 1
    return dict(sorted(t.items()))


# ---------------------------------------------------------------------------
# profile arithmetic (classes as in the profile document)

GAMMA = {"line-p2": 1, "conic-p2": 4, "one-one-quadric": 2}
MEMBER_DEGREE = {"line-p2": 1, "conic-p2": 2, "one-one-quadric": 2}


def class_gamma(cls) -> int:
    if isinstance(cls, dict):
        return cls["plane-curve-p2"]["degree"] ** 2
    return GAMMA[cls]


def self_intersection(cls, k: int) -> int:
    """D^2 of the configuration divisor of k members."""
    if cls == "one-one-quadric":
        return 2 * k * k
    degree = cls["plane-curve-p2"]["degree"] if isinstance(cls, dict) else MEMBER_DEGREE[cls]
    return (degree * k) ** 2


def expected_analysis(cls, k: int, t: dict) -> dict:
    """Validation codes, moments and h recomputed from the t-vector."""
    codes = []
    if any(r > k for r in t):
        codes.append("multiplicity-range")
    if not any(t.values()):
        codes.append("no-multiple-points")
    if sum(comb(r, 2) * c for r, c in t.items()) != class_gamma(cls) * comb(k, 2):
        codes.append("incidence-identity")
    if cls == "conic-p2" and t.get(k, 0) > 4:
        codes.append("conic-common-point-cap")
    out = {"codes": codes}
    if codes:
        return out
    f0 = sum(t.values())
    f1 = sum(r * c for r, c in t.items())
    f2 = sum(r * r * c for r, c in t.items())
    numerator = self_intersection(cls, k) - f2
    out.update(f0=f0, f1=f1, f2=f2, numerator=numerator, h=Fraction(numerator, f0))
    if cls == "conic-p2":
        out["case"] = {0: "TK0", 1: "TK1_open", 2: "TK2", 3: "TK3", 4: "TK4"}[t.get(k, 0)]
    else:
        out["case"] = "NotApplicable"
    return out


# ---------------------------------------------------------------------------
# search: counts and minima by dynamic programming over moment states


def count_tvectors(gamma: int, k: int, r_max: int, conic_cap: bool) -> int:
    """Number of t-vectors with sum C(r,2) t_r = gamma*C(k,2), r <= r_max.

    Coefficients of prod_{r=3..r_max} 1/(1 - x^C(r,2)) summed up to the
    budget (t_2 absorbs the rest); t_k <= 4 when ``conic_cap``.
    """
    budget = gamma * comb(k, 2)
    ways = [1] + [0] * budget
    for r in range(3, r_max + 1):
        part = comb(r, 2)
        if conic_cap and r == k:
            nxt = [0] * (budget + 1)
            for s, w in enumerate(ways):
                if w:
                    for c in range(min(4, (budget - s) // part) + 1):
                        nxt[s + c * part] += w
            ways = nxt
        else:
            for s in range(part, budget + 1):
                ways[s] += ways[s - part]
    return sum(ways)


def lt_holds(k: int, f0: int, f1: int, t2: int) -> bool:
    """a x^2 + b x + c >= 0 on Z for the conic positivity quadratic."""
    a = 2 * k + f0
    b = 2 * (3 * k - f1 + 2 * f0)
    c = 4 * (f0 - t2)
    x0 = (-b) // (2 * a)  # floor of the real vertex
    return all(a * x * x + b * x + c >= 0 for x in (x0, x0 + 1))


def search_minimum(cls: str, k: int, tk0: bool, filt: str | None) -> dict:
    """min h, its number of tied t-vectors and the filtered count.

    States after choosing t_3..t_rmax: (spent budget, sum t, sum r t,
    filter statistic) with the number of t-vectors reaching each.  The
    lt filter reads k, f0, f1, t2; hirz11 reads t2 and t3 - sum_{r>=5}
    (r-4) t_r.
    """
    gamma = GAMMA[cls]
    budget = gamma * comb(k, 2)
    r_max = k - 1 if tk0 else k
    states = {(0, 0, 0, 0): 1}
    for r in range(3, r_max + 1):
        part = comb(r, 2)
        cap_r = 4 if (cls == "conic-p2" and r == k) else None
        stat_step = 1 if r == 3 else (-(r - 4) if r >= 5 else 0)
        nxt: dict = {}
        for (s, f0, f1, st), w in states.items():
            top = (budget - s) // part
            if cap_r is not None:
                top = min(top, cap_r)
            for c in range(top + 1):
                key = (s + c * part, f0 + c, f1 + r * c, st + c * stat_step)
                nxt[key] = nxt.get(key, 0) + w
        states = nxt
    best = None
    ties = filtered = 0
    for (s, f0, f1, st), w in states.items():
        t2 = budget - s
        f0 += t2
        f1 += 2 * t2
        if filt == "lt" and not lt_holds(k, f0, f1, t2):
            continue
        if filt == "hirz11" and 9 + k + t2 + st < 0:
            continue
        filtered += w
        h = Fraction(gamma * k - f1, f0)
        if best is None or h < best:
            best, ties = h, w
        elif h == best:
            ties += w
    return {
        "enumerated": count_tvectors(gamma, k, r_max, cls == "conic-p2" and not tk0),
        "filtered": filtered,
        "min_h": best,
        "ties": ties,
    }


def passes_filter(filt: str | None, k: int, t: dict) -> bool:
    t2 = t.get(2, 0)
    if filt == "lt":
        return lt_holds(k, sum(t.values()), sum(r * c for r, c in t.items()), t2)
    if filt == "hirz11":
        return 9 + k + t2 + t.get(3, 0) >= sum((r - 4) * c for r, c in t.items() if r >= 5)
    return True

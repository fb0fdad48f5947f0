"""Integer polynomials: factoring over Z and norms down to Z[x].

:mod:`harbourne.exactfield` imports this module lazily, to check that a
field's min_poly is irreducible and to find roots of degree 2 and up,
over Q and over number fields alike; Q arithmetic and linear
polynomials never load it.  Polynomials are lists of coefficients, low
to high.

Factoring over Z is the Zassenhaus algorithm (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 14-15).  It works at the first
odd prime p that keeps f square-free of the same degree: the irreducible
factors over Z do not depend on p, only the number of modular factors
to recombine does.  The same prime loop decides whether f is square-free
at all: one such p proves it, and only when the first
``_SQUAREFREE_PRIMES`` candidates all fail does Euclid over Q decide;
:func:`factor_squarefree` returns None for an f that is not.  The
factors come from distinct-degree splitting, then Cantor-Zassenhaus
equal-degree splitting with a fixed-seed generator, so the output is
deterministic.  A balanced tree of quadratic Hensel steps (Algorithm
15.10) lifts them to a modulus p^(2^e) > 2 |lc(f)| 2^n ||f||_2.  Every
integer factor's associate with leading coefficient lc(f) then has
coefficients below half the modulus, so subsets of lifted factors are
recombined by exact trial division.

The norm of g in K[x], K = Q[theta]/(m), is Res_theta(m, g): the
determinant of multiplication by g(x0, theta) on K, taken at
deg_x(g) * deg(m) + 1 integers x0 and interpolated (Trager 1976).
:func:`integer_norm` takes g with its denominators already cleared, so
each determinant is a Bareiss elimination over Z and the interpolation
divides exactly; there is no Fraction-level wrapper.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from random import Random
from typing import Iterable, Sequence

from .exactfield import (
    RATIONALS,
    _bareiss,
    _content_free,
    _mult_matrix,
    kx_derivative,
    kx_gcd,
)

# Primes that may fail the square-free test before Euclid over Q runs.
# Euclid at the first failing prime instead ran 303 times, not 189, over
# the 391 factorizations of the geom-nf benchmark documents of seeds 1-3,
# and took 0.40 s, not 0.36 s (medians of five runs, 2-CPU x86_64): a
# square-free f often fails at a prime dividing its discriminant and
# passes at the next one.
_SQUAREFREE_PRIMES = 3
_SEED = 20150923


# ---------------------------------------------------------------------------
# polynomials mod m, coefficients in [0, m)


def _pstrip(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _add(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip([c % m for c in out])


def _sub(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _add(a, [-c for c in b], m)


def _mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pstrip([c % m for c in out])


def _divmod(a: Sequence[int], b: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; lc(b) must be a unit mod m."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], _pstrip([c % m for c in rem])
    inv = pow(b[-1], -1, m)
    quot = [0] * (len(rem) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db] * inv % m
        quot[i] = c
        if c:
            for j in range(db):
                rem[i + j] -= c * b[j]
    return _pstrip(quot), _pstrip([c % m for c in rem[:db]])


def _monic(a: Sequence[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p (b nonzero)."""
    a, b = _pstrip([c % p for c in a]), _pstrip([c % p for c in b])
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _bezout(g: Sequence[int], h: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s g + t h = 1 mod p, deg s < deg h and deg t < deg g,
    for coprime g and h with h monic."""
    r0, r1, s0, s1 = list(g), list(h), [1], []
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    s = _divmod(_mul(s0, [pow(r0[0], -1, p)], p), h, p)[1]
    t = _divmod(_sub([1], _mul(s, g, p), p), h, p)[0]
    return s, t


def _powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result, base = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), f, p)[1]
        base = _divmod(_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# factoring mod p


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g_d, d): g_d is the product of the degree-d monic irreducible
    factors of the square-free monic f mod p (Algorithm 14.3)."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """The degree-d monic irreducible factors of f mod p, an odd prime
    (Cantor-Zassenhaus, Algorithm 14.8 repeated)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _pstrip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(f, a, p)
        if len(g) == 1:
            b = _powmod(a, (p**d - 1) // 2, f, p)
            g = _gcd(f, _sub(b, [1], p), p)
        if 1 < len(g) < len(f):
            rest = _divmod(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(rest, d, p, rng)


def _primes() -> Iterable[int]:
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _modular_factors(f: list[int]) -> tuple[int, list[list[int]]] | None:
    """The first odd prime p not dividing lc(f) at which f mod p is
    square-free, with the monic irreducible factors of f mod p; or None
    when f is not square-free.

    A square factor of f stays a square factor mod every prime p not
    dividing lc(f), so one p with gcd(f, f') = 1 mod p proves f
    square-free.  The converse can fail only at primes dividing the
    discriminant; when the first few candidate primes all fail, Euclid
    over Q decides.  The irreducible factors over Z are the same at any
    good prime, so no second prime is tried.
    """
    failed = 0
    for p in _primes():
        if p == 2 or f[-1] % p == 0:
            continue
        fp = _monic([c % p for c in f], p)
        deriv = _pstrip([i * c % p for i, c in enumerate(fp)][1:])
        if deriv and len(_gcd(fp, deriv, p)) == 1:
            rng = Random(_SEED)
            split = _distinct_degree(fp, p)
            return p, [q for g, d in split for q in _equal_degree(g, d, p, rng)]
        failed += 1
        if failed == _SQUAREFREE_PRIMES and not _squarefree(f):
            return None


def _squarefree(f: Sequence[int]) -> bool:
    """Euclid over Q: whether gcd(f, f') is a constant."""
    g = [RATIONALS.element(c) for c in f]
    return len(kx_gcd(g, kx_derivative(g))) == 1


# ---------------------------------------------------------------------------
# Hensel lifting and recombination


def _hensel_step(f, g, h, s, t, m):
    """Algorithm 15.10: from f = g h and s g + t h = 1 mod sqrt(m), with h
    monic, the same relations mod m."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _sub(s, d, m)
    t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, s, t


def _tree(factors: list[list[int]], p: int) -> list:
    """[product, left, right, s, t] over halves of factors; leaves [factor]."""
    if len(factors) == 1:
        return [factors[0]]
    half = len(factors) // 2
    left, right = _tree(factors[:half], p), _tree(factors[half:], p)
    s, t = _bezout(left[0], right[0], p)
    return [_mul(left[0], right[0], p), left, right, s, t]


def _lift(node: list, target: list[int], m: int) -> None:
    node[0] = target
    if len(node) > 1:
        g, h, node[3], node[4] = _hensel_step(
            target, node[1][0], node[2][0], node[3], node[4], m
        )
        _lift(node[1], g, m)
        _lift(node[2], h, m)


def _leaves(node: list) -> list[list[int]]:
    return [node[0]] if len(node) == 1 else _leaves(node[1]) + _leaves(node[2])


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None when b does not divide a."""
    if b[0] and a[0] % b[0]:
        return None
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + db], b[-1])
        if r:
            return None
        quot[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    return quot if not any(rem[:db]) else None


def _zassenhaus(f: list[int]) -> list[list[int]] | None:
    """Irreducible factors of a primitive f with lc > 0, or None when f is
    not square-free."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    modular = _modular_factors(f)
    if modular is None:
        return None
    p, factors = modular
    if len(factors) == 1:
        return [f]
    lc = f[-1]
    # m > 2 |lc| 2^n ||f||_2, compared in squares
    bound_sq = 4 * lc * lc * 4**n * sum(c * c for c in f)
    m = p
    tree = _tree(factors, p)
    while m * m <= bound_sq:
        m *= m
        _lift(tree, _mul(f, [pow(lc, -1, m)], m), m)
    lifted = _leaves(tree)

    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _content_free([c - m if 2 * c > m else c for c in g])
            quot = _exact_quotient(f, g)
            if quot is not None:
                out.append(g)
                f = quot
                lifted = [q for i, q in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


# ---------------------------------------------------------------------------
# public entry points


def factor_squarefree(f: Sequence[int]) -> list[list[int]] | None:
    """The irreducible factors over Z of an integer polynomial of positive
    degree, or None when it is not square-free.

    Each factor is primitive with a positive leading coefficient.  They
    come in the order of sympy's ``factor_list``: by degree, then by
    coefficients from the leading one down.
    """
    f = _content_free(f)
    if f[-1] < 0:
        f = [-c for c in f]
    factors = _zassenhaus(f)
    if factors is None:
        return None
    return sorted(factors, key=lambda q: (len(q), q[::-1]))


def integer_norm(g: Sequence[Sequence[int]], table: tuple[tuple, int]) -> list[int]:
    """(den^d) Res_theta(m, g) in Z[x] for g in (Z[theta]/(m))[x], where
    table = (rows, den) is the power table of the monic m of degree d
    (:func:`harbourne.exactfield._power_table`).

    ``g`` lists the integer coefficient vectors (each of length d) of the
    powers of x.  The result has degree at most N = deg_x(g) d; its values
    at x0 = 0..N are determinants of den times the multiplication matrices
    of g(x0, theta), by Bareiss elimination.  They are values of an
    integer polynomial, so every divided difference of Newton's formula
    is an exact integer division.
    """
    d = len(g[0])
    points = (len(g) - 1) * d + 1
    coef = []
    for x0 in range(points):
        v = [0] * d
        power = 1
        for coeffs in g:
            for i, c in enumerate(coeffs):
                v[i] += c * power
            power *= x0
        pivot, sign = _bareiss(_mult_matrix(v, table))
        coef.append(sign * pivot)
    # divided differences at 0, 1, ..., N; spacing is integral
    for j in range(1, points):
        for i in range(points - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) // j
    # Newton form to monomials, Horner from the innermost term
    out = [coef[-1]]
    for i in range(points - 2, -1, -1):
        # out * (x - i) + coef[i]
        nxt = [0] + out
        for j, c in enumerate(out):
            nxt[j] -= i * c
        nxt[0] += coef[i]
        out = nxt
    return _pstrip(out)

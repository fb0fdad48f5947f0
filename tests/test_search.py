import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from harbourne.constraints import QuadraticConstraint, holds_over_integers
from harbourne.hconst import local_h
from harbourne.profiles import (
    CONICS,
    ConfigurationProfile,
    LINES,
    ONE_ONE,
    plane_curves,
)
from harbourne.search import (
    Filter,
    SearchQuery,
    SearchQueryError,
    SearchResult,
    _lt_holds,
    _passes,
    enumerate_profiles,
    minimize_h,
)


def brute_force_t_vectors(gamma: int, k: int, r_max: int, tk_cap: int | None):
    """Independent nested-loop enumeration of the incidence identity."""
    budget = gamma * comb(k, 2)
    rs = list(range(3, r_max + 1))
    ranges = []
    for r in rs:
        cap = budget // comb(r, 2)
        if tk_cap is not None and r == k:
            cap = min(cap, tk_cap)
        ranges.append(range(cap + 1))
    out = []
    for counts in product(*ranges):
        spent = sum(comb(r, 2) * c for r, c in zip(rs, counts))
        if spent > budget:
            continue
        t = {r: c for r, c in zip(rs, counts) if c}
        if budget - spent:
            t[2] = budget - spent
        out.append(tuple(sorted(t.items())))
    return set(out)


class TestEnumerate:
    def test_unique_conic_k3_tk0(self):
        profiles = list(
            enumerate_profiles(SearchQuery(CONICS, 3, require_tk_zero=True))
        )
        assert len(profiles) == 1
        assert dict(profiles[0].t) == {2: 12}

    def test_conic_k4_tk0(self):
        profiles = list(
            enumerate_profiles(SearchQuery(CONICS, 4, require_tk_zero=True))
        )
        assert len(profiles) == 9
        seen = {dict(p.t).get(3, 0) for p in profiles}
        assert seen == set(range(9))
        for p in profiles:
            a = p.t_of(3)
            assert p.t_of(2) == 24 - 3 * a

    def test_lines_k3(self):
        profiles = list(enumerate_profiles(SearchQuery(LINES, 3)))
        assert [dict(p.t) for p in profiles] == [{3: 1}, {2: 3}]

    @pytest.mark.parametrize(
        "cls, k",
        [(LINES, 6), (LINES, 9), (CONICS, 4), (CONICS, 5), (ONE_ONE, 5), (ONE_ONE, 6)],
    )
    def test_matches_nested_loop_oracle(self, cls, k):
        query = SearchQuery(cls, k)
        got = {p.sorted_items() for p in enumerate_profiles(query)}
        tk_cap = 4 if cls is CONICS else None
        want = brute_force_t_vectors(cls.pairwise_intersection, k, k, tk_cap)
        assert got == want

    def test_tk_zero_restriction(self):
        for p in enumerate_profiles(SearchQuery(CONICS, 5, require_tk_zero=True)):
            assert p.t_of(5) == 0

    def test_no_duplicates(self):
        profiles = [
            p.sorted_items()
            for p in enumerate_profiles(SearchQuery(CONICS, 6, require_tk_zero=True))
        ]
        assert len(profiles) == len(set(profiles))

    def test_enumeration_order_deterministic(self):
        a = [p.sorted_items() for p in enumerate_profiles(SearchQuery(LINES, 6))]
        b = [p.sorted_items() for p in enumerate_profiles(SearchQuery(LINES, 6))]
        assert a == b

    def test_monotone_count_in_k(self):
        counts = [
            sum(1 for _ in enumerate_profiles(SearchQuery(LINES, k)))
            for k in range(3, 8)
        ]
        assert counts == sorted(counts)

    def test_every_profile_validates(self):
        from harbourne.profiles import validate

        for p in enumerate_profiles(SearchQuery(CONICS, 5)):
            assert validate(p).ok


class TestQueryGates:
    def test_lt_filter_needs_conics(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(LINES, 4, require_tk_zero=True, filters={Filter.LT_QUADRATIC})

    def test_lt_filter_needs_tk0(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(CONICS, 4, filters={Filter.LT_QUADRATIC})

    def test_hirz_filter_needs_quadric(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(CONICS, 4, require_tk_zero=True, filters={Filter.HIRZEBRUCH_11})

    def test_small_k_rejected(self):
        with pytest.raises(SearchQueryError):
            SearchQuery(LINES, 2)


class TestMinimize:
    def test_conic_k4_lt_filtered(self):
        result = minimize_h(
            SearchQuery(
                CONICS, 4, require_tk_zero=True, filters={Filter.LT_QUADRATIC}
            )
        )
        assert result.min_h == Fraction(-4, 3)
        assert [dict(p.t) for p in result.argmin_profiles] == [{2: 24}]

    def test_conic_k3_unique(self):
        result = minimize_h(SearchQuery(CONICS, 3, require_tk_zero=True))
        assert result.min_h == Fraction(-1)
        assert result.enumerated_count == 1

    def test_lines_k3(self):
        result = minimize_h(SearchQuery(LINES, 3))
        assert result.min_h == Fraction(-1)
        assert [dict(p.t) for p in result.argmin_profiles] == [{2: 3}]
        # the concurrent triple has h = 0, not the minimum
        concurrent = ConfigurationProfile(LINES, 3, {3: 1})
        assert local_h(concurrent).h == 0

    def test_matches_oracle_minimum(self):
        query = SearchQuery(CONICS, 5, require_tk_zero=True)
        result = minimize_h(query)
        want = min(local_h(p).h for p in enumerate_profiles(query))
        assert result.min_h == want

    def test_filtered_count_reported(self):
        result = minimize_h(
            SearchQuery(
                ONE_ONE, 4, require_tk_zero=True, filters={Filter.HIRZEBRUCH_11}
            )
        )
        assert result.filtered_count <= result.enumerated_count
        assert result.filtered_count > 0


class TestNegativityBoundSweep:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_min_h_above_minus_nine_halves(self, k):
        result = minimize_h(
            SearchQuery(
                CONICS, k, require_tk_zero=True, filters={Filter.LT_QUADRATIC}
            )
        )
        assert result.min_h >= Fraction(-9, 2)

    def test_frozen_minima(self):
        # k = 3, 4 by closed form h(a) = (3a - 32)/(24 - 2a) on the t_3
        # count a (increasing, so a = 0 wins); k = 5, 6 frozen from the
        # unfiltered enumeration oracle (test_matches_oracle_minimum style)
        expected = {
            3: Fraction(-1),
            4: Fraction(-4, 3),
            5: Fraction(-3, 2),
            6: Fraction(-9, 5),
        }
        for k, want in expected.items():
            result = minimize_h(
                SearchQuery(
                    CONICS, k, require_tk_zero=True, filters={Filter.LT_QUADRATIC}
                )
            )
            assert result.min_h == want
            unfiltered = min(
                local_h(p).h
                for p in enumerate_profiles(SearchQuery(CONICS, k, require_tk_zero=True))
            )
            assert result.min_h == unfiltered

    def test_k5_minimum_is_a_plateau(self):
        # on k = 5 every profile without 4- or 5-fold points attains the
        # minimum: h = (3a - 60)/(40 - 2a) is constant -3/2
        result = minimize_h(SearchQuery(CONICS, 5, require_tk_zero=True))
        assert result.min_h == Fraction(-3, 2)
        assert len(result.argmin_profiles) == 14
        for p in result.argmin_profiles:
            assert p.t_of(4) == 0 and p.t_of(5) == 0


def walk_oracle(query: SearchQuery) -> SearchResult:
    """minimize_h by visiting every enumerated profile."""
    enumerated = surviving = 0
    best = None
    argmins = []
    for profile in enumerate_profiles(query):
        enumerated += 1
        if not _passes(profile, query.filters):
            continue
        surviving += 1
        h = local_h(profile).h
        if best is None or h < best:
            best, argmins = h, [profile]
        elif h == best:
            argmins.append(profile)
    return SearchResult(best, tuple(argmins), enumerated, surviving)


def hirz11_walk(k: int):
    """(enumerated, filtered, min h, argmin t-vectors) of the (1,1)-curve
    search with tk0 and hirz11, by a walk over plain dicts."""
    out = [0, 0, None, []]

    def walk(r, rem, f0, f1, deficit, t):
        if r == 2:
            out[0] += 1
            f0, f1 = f0 + rem, f1 + 2 * rem
            if 9 + k + rem + t.get(3, 0) < deficit:
                return
            out[1] += 1
            h = Fraction(2 * k - f1, f0)
            if out[2] is None or h < out[2]:
                out[2], out[3] = h, []
            if h == out[2]:
                out[3].append({**t, 2: rem} if rem else t)
            return
        part = comb(r, 2)
        for c in range(rem // part, -1, -1):
            walk(
                r - 1, rem - c * part, f0 + c, f1 + r * c,
                deficit + max(r - 4, 0) * c, {**t, r: c} if c else t,
            )

    walk(k - 1, 2 * comb(k, 2), 0, 0, 0, {})
    return tuple(out)


LT = frozenset({Filter.LT_QUADRATIC})
HIRZ = frozenset({Filter.HIRZEBRUCH_11})
# k = 3 with tk0 leaves r_max = 2: the only t-vector is t_2 = budget.
DP_QUERIES = (
    [SearchQuery(LINES, k, tk0) for k in range(3, 10) for tk0 in (False, True)]
    + [SearchQuery(CONICS, k, tk0) for k in range(3, 9) for tk0 in (False, True)]
    + [SearchQuery(CONICS, k, True, LT) for k in range(3, 9)]
    + [SearchQuery(ONE_ONE, k, tk0) for k in range(3, 10) for tk0 in (False, True)]
    + [SearchQuery(ONE_ONE, k, True, HIRZ) for k in range(4, 10)]
    + [SearchQuery(plane_curves(3), k, tk0) for k in range(3, 7) for tk0 in (False, True)]
)


class TestMomentStateSearch:
    """minimize_h against the profile walk: equal results, argmin order
    included."""

    @pytest.mark.parametrize(
        "query",
        DP_QUERIES,
        ids=lambda q: f"{q.curve_class.label()}-k{q.k}"
        f"{'-tk0' if q.require_tk_zero else ''}"
        + "".join(f"-{f.value}" for f in q.filters),
    )
    def test_matches_walk(self, query):
        assert minimize_h(query) == walk_oracle(query)

    def test_hirz11_where_it_rejects(self):
        # k = 14 is the smallest k at which hirz11 rejects t-vectors
        result = minimize_h(SearchQuery(ONE_ONE, 14, True, HIRZ))
        enumerated, filtered, best, argmins = hirz11_walk(14)
        assert filtered < enumerated
        assert (result.enumerated_count, result.filtered_count) == (enumerated, filtered)
        assert result.min_h == best
        assert [dict(p.t) for p in result.argmin_profiles] == argmins

    def test_lt_vertex_test_matches_holds_over_integers(self):
        rng = random.Random(20150622)
        verdicts = set()
        for _ in range(20000):
            k = rng.randint(3, 30)
            f0 = rng.randint(1, 300)
            f1 = rng.randint(2 * f0, 12 * f0)
            t2 = rng.randint(0, f0)
            q = QuadraticConstraint(2 * k + f0, 2 * (3 * k - f1 + 2 * f0), 4 * (f0 - t2))
            want = holds_over_integers(q).holds
            assert _lt_holds(k, f0, f1, t2) == want, (k, f0, f1, t2)
            verdicts.add(want)
        assert verdicts == {True, False}

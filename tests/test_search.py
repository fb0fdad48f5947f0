import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from harbourne import constraints
from harbourne.constraints import QuadraticConstraint, holds_over_integers, lt_holds
from harbourne.hconst import local_h
from harbourne.profiles import (
    CONICS,
    ConfigurationProfile,
    LINES,
    ONE_ONE,
    plane_curves,
)
from harbourne import search
from harbourne.search import (
    Filter,
    SearchQuery,
    SearchQueryError,
    SearchResult,
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

    @pytest.mark.parametrize("k, tk0", [(3, False), (3, True), (4, True)])
    @pytest.mark.parametrize("degree", [1, 2, 3, 7, 40])
    def test_closed_form_count_at_r_max_3_or_less(self, degree, k, tk0):
        # r_max = 3 or 2: the count is budget // 3 + 1 or 1, not the
        # generating function's list of budget + 1 ints
        query = SearchQuery(plane_curves(degree), k, require_tk_zero=tk0)
        walked = sum(1 for _ in enumerate_profiles(query))
        assert search._count_t_vectors(query) == walked


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
            assert lt_holds(k, f0, f1, t2) == want, (k, f0, f1, t2)
            verdicts.add(want)
        assert verdicts == {True, False}


def last_layer(query: SearchQuery) -> dict:
    """The moment states (rem, f0, f1) left after levels r_max..4, each
    with its number of t-vectors."""
    k, gamma = query.k, query.curve_class.pairwise_intersection
    budget, r_max = gamma * comb(k, 2), k - 1 if query.require_tk_zero else k
    layer = {(budget, 0, 0): 1}
    for r in range(r_max, 3, -1):
        part, nxt = comb(r, 2), {}
        for (rem, f0, f1), n in layer.items():
            for c in range(rem // part + 1):
                child = (rem - c * part, f0 + c, f1 + r * c)
                nxt[child] = nxt.get(child, 0) + n
        layer = nxt
    return layer


def per_state_close(query: SearchQuery):
    """(enumerated, filtered, min h, argmin finals) of the moment-state DP
    with levels 3 and 2 closed state by state: every last-layer state
    (rem, f0, f1) walks every t_3 from rem // 3 down to 0."""
    k, gamma = query.k, query.curve_class.pairwise_intersection
    r_max = k - 1 if query.require_tk_zero else k
    hirz = Filter.HIRZEBRUCH_11 in query.filters
    lt = Filter.LT_QUADRATIC in query.filters
    layer = last_layer(query)
    enumerated = filtered = 0
    best, finals = None, set()
    for (rem, f0, f1), n in layer.items():
        for c3 in range(rem // 3 + 1 if r_max >= 3 else 1):
            t2 = rem - 3 * c3
            final = (f0 + c3 + t2, f1 + 3 * c3 + 2 * t2)
            s = 4 * f0 - f1 + c3 + t2 if hirz else t2 if lt else 0
            enumerated += n
            if hirz and 9 + k + s < 0 or lt and not lt_holds(k, *final, s):
                continue
            filtered += n
            h = Fraction(gamma * k - final[1], final[0])
            if best is None or h < best:
                best, finals = h, set()
            if h == best:
                finals.add((*final, s))
    return enumerated, filtered, best, finals


def final_of(profile: ConfigurationProfile, query: SearchQuery):
    """(f0, f1, s) of a profile, s the statistic its filter reads."""
    t = dict(profile.t)
    f0, f1, t2 = sum(t.values()), sum(r * c for r, c in t.items()), t.get(2, 0)
    if Filter.HIRZEBRUCH_11 in query.filters:
        return f0, f1, t2 + t.get(3, 0) - sum((r - 4) * c for r, c in t.items() if r > 4)
    return f0, f1, t2 if Filter.LT_QUADRATIC in query.filters else 0


class TestGroupClose:
    """The last layer closes once per group of states; the per-state close
    it replaced is the oracle."""

    @pytest.mark.parametrize(
        "query",
        [
            SearchQuery(CONICS, 11, True, LT),
            SearchQuery(CONICS, 10, False),
            SearchQuery(LINES, 14, True),
            SearchQuery(ONE_ONE, 14, True, HIRZ),
            SearchQuery(ONE_ONE, 12, False),
            SearchQuery(plane_curves(3), 7, True),
        ],
        ids=lambda q: f"{q.curve_class.label()}-k{q.k}",
    )
    def test_matches_per_state_close(self, query):
        result = minimize_h(query)
        enumerated, filtered, best, finals = per_state_close(query)
        assert (result.enumerated_count, result.filtered_count) == (enumerated, filtered)
        assert result.min_h == best
        assert {final_of(p, query) for p in result.argmin_profiles} == finals

    @pytest.mark.parametrize("k", range(3, 9))
    def test_lt_rejections(self, monkeypatch, k):
        # the real lt first rejects a t-vector at k = 18; this predicate
        # rejects finals from k = 3 on, and both sides read it; no group is
        # certified whole, so each t2 gets its own verdict
        def rejects(k, f0, f1, t2):
            return (f0 + f1 + t2) % 4 == 0

        monkeypatch.setattr(constraints, "lt_holds", lambda *m: not rejects(*m))
        monkeypatch.setattr(search, "_lt_everywhere", lambda *group: False)
        query = SearchQuery(CONICS, k, True, LT)
        enumerated = filtered = 0
        best, argmins = None, []
        for profile in enumerate_profiles(query):
            enumerated += 1
            f0, f1, t2 = final_of(profile, query)
            if rejects(k, f0, f1, t2):
                continue
            filtered += 1
            h = local_h(profile).h
            if best is None or h < best:
                best, argmins = h, []
            if h == best:
                argmins.append(dict(profile.t))
        result = minimize_h(query)
        assert filtered < enumerated
        assert (result.enumerated_count, result.filtered_count) == (enumerated, filtered)
        assert result.min_h == best
        assert [dict(p.t) for p in result.argmin_profiles] == argmins

    @pytest.mark.parametrize("k, calls", [(8, 38), (9, 49)])
    def test_one_lt_verdict_per_group_and_t2(self, monkeypatch, k, calls):
        # the per-state close made 6,900 and 24,001 calls, and a verdict at
        # every t2 of every group 3,990 and 10,748; now _lt_everywhere
        # certifies all but a few groups, and only those walk their t2
        seen = []
        monkeypatch.setattr(constraints, "lt_holds", lambda *m: seen.append(m) or lt_holds(*m))
        minimize_h(SearchQuery(CONICS, k, True, LT))
        assert len(seen) == calls

    def test_lt_everywhere_is_sound(self):
        # a group the helper certifies passes the real lt at every t2 of its
        # range.  lt rejects no conic final below k = 18, so the groups of
        # k = 3..12 are also held to the helper's own claim, b^2 <= 4ac at
        # every t2, and random groups, where lt does reject, to the first
        def lt_at(k, g0, g1, t2):
            f0, f1 = (g0 + 2 * t2) // 3, g1 + t2
            return f0, f1, 2 * k + f0, 2 * (3 * k - f1 + 2 * f0), 4 * (f0 - t2)

        verdicts = set()
        for k in range(3, 13):
            tops = {}
            for rem, f0, f1 in last_layer(SearchQuery(CONICS, k, True)):
                key = 3 * f0 + rem, f1 + rem
                tops[key] = max(tops.get(key, rem), rem)
            for (g0, g1), top in tops.items():
                certified = search._lt_everywhere(k, g0, g1, top % 3, top)
                verdicts.add(certified)
                for t2 in range(top % 3, top + 1, 3) if certified else ():
                    f0, f1, a, b, c = lt_at(k, g0, g1, t2)
                    assert lt_holds(k, f0, f1, t2), (k, g0, g1, t2)
                    assert b * b <= 4 * a * c, (k, g0, g1, t2)
        assert verdicts == {True, False}

        rng = random.Random(20150623)
        rejected = certified = 0
        for _ in range(3000):
            k, top, f0 = rng.randint(3, 30), rng.randint(0, 60), rng.randint(1, 200)
            g0, g1 = 3 * f0 + top, rng.randint(2 * f0, 12 * f0) + top
            holds = [
                lt_holds(k, *lt_at(k, g0, g1, t2)[:2], t2)
                for t2 in range(top % 3, top + 1, 3)
            ]
            rejected += not all(holds)
            if search._lt_everywhere(k, g0, g1, top % 3, top):
                certified += 1
                assert all(holds), (k, g0, g1, top)
        assert rejected and certified

    def test_conic_k18_lt(self):
        # k = 18 is where lt first rejects t-vectors and first binds:
        # the raw minimum there is -81/17
        result = minimize_h(SearchQuery(CONICS, 18, True, LT))
        assert result.enumerated_count == 4_806_644_695
        assert result.filtered_count == 4_806_626_697
        assert result.min_h == Fraction(-9, 2)
        assert len(result.argmin_profiles) == 6189
        assert dict(result.argmin_profiles[0].t) == {17: 1, 9: 7, 8: 8}
        assert dict(result.argmin_profiles[-1].t) == {7: 27, 6: 3}

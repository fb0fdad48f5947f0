"""Exhaustive enumeration of feasible multiplicity vectors and exact
H-minimization.

The incidence identity is an integer feasibility problem: spend the
budget gamma*C(k,2) on parts of size C(r,2).  Enumeration is a pruned
depth-first search from the largest multiplicity down; the r = 2 level
absorbs whatever budget remains, so every branch closes.  Output is
labelled combinatorially feasible only: no geometric realizability is
implied, which makes the minimum an over-approximating (hence valid)
lower-bound probe.

Minimization does not enumerate.  h = (gamma*k - f1)/f0 and every
filter reads (k, f0, f1, t2), through the one definition of each in
:mod:`harbourne.constraints`, so a dynamic program over moment states,
each weighted by its number of t-vectors, gives the minimum and both
counts exactly.  The last two levels close by group: the states that
share (3*f0 + rem, f1 + rem) have the same finals.  A group on whose t2 range the filter gives one
verdict closes in one step; any other visits each t2 once, weighted by
the suffix sum of its states' counts over rem >= t2.  Only the argmin
profiles are rebuilt, each traced back from its last-layer state to the
root, sorted into enumeration order and checked one by one.  The states
held across the layers are capped at ``MAX_MOMENT_STATES``, and so is
budget + 1, the most values of rem that the close or the count walks; a
query that needs more is refused with :class:`SearchQueryError`, before the
number of t-vectors is counted independently as the DP's cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator

from . import constraints
from .hconst import local_h
from .profiles import (
    ConfigurationProfile,
    CurveClass,
    CurveKind,
    HarbourneError,
    validate,
)

# Moment states held across the layers of one search.  Lines at k = 50
# need 11.4M of them, about 2 GB; past the cap a query exits 2.
MAX_MOMENT_STATES = 12_000_000


class SearchQueryError(HarbourneError):
    """The query is internally inconsistent (class/filter mismatch etc.)."""


class Filter(Enum):
    LT_QUADRATIC = "lt"
    HIRZEBRUCH_11 = "hirz11"


@dataclass(frozen=True)
class SearchQuery:
    curve_class: CurveClass
    k: int
    require_tk_zero: bool = False
    filters: frozenset[Filter] = dc_field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "filters", frozenset(self.filters))
        if self.k < 3:
            raise SearchQueryError(f"search requires k >= 3, got k={self.k}")
        if Filter.LT_QUADRATIC in self.filters:
            if self.curve_class.kind is not CurveKind.CONIC_P2:
                raise SearchQueryError(
                    "the lt filter applies to conic configurations only"
                )
            if not self.require_tk_zero:
                raise SearchQueryError("the lt filter requires tk0")
        if Filter.HIRZEBRUCH_11 in self.filters:
            if self.curve_class.kind is not CurveKind.ONE_ONE_QUADRIC:
                raise SearchQueryError(
                    "the hirz11 filter applies to (1,1)-curve configurations only"
                )
            if not self.require_tk_zero:
                raise SearchQueryError("the hirz11 filter requires tk0")
            if self.k < 4:
                raise SearchQueryError("the hirz11 filter requires k >= 4")


@dataclass(frozen=True)
class SearchResult:
    min_h: Fraction | None
    argmin_profiles: tuple[ConfigurationProfile, ...]
    enumerated_count: int
    filtered_count: int

    @property
    def empty(self) -> bool:
        return self.min_h is None


def _shape(query: SearchQuery) -> tuple[int, int]:
    """Budget gamma*C(k,2) of the incidence identity and the largest r."""
    budget = query.curve_class.pairwise_intersection * comb(query.k, 2)
    return budget, query.k - 1 if query.require_tk_zero else query.k


def enumerate_profiles(query: SearchQuery) -> Iterator[ConfigurationProfile]:
    """Yield every feasible t-vector exactly once.

    Order is decreasing-r lexicographic: the count at the largest
    multiplicity varies slowest and starts at its maximum.  Pruning is by
    remaining budget alone: for conics the budget 4 C(k,2) already holds
    t_k to the common-point cap of 4.
    """
    k = query.k
    budget, r_max = _shape(query)

    def walk(r: int, remaining: int, acc: dict[int, int]):
        if r == 2:
            if remaining:
                acc = dict(acc)
                acc[2] = remaining  # part size C(2,2) = 1
            yield ConfigurationProfile(query.curve_class, k, acc)
            return
        part = comb(r, 2)
        for count in range(remaining // part, -1, -1):
            child = dict(acc)
            if count:
                child[r] = count
            yield from walk(r - 1, remaining - count * part, child)

    yield from walk(r_max, budget, {})


def _passes(profile: ConfigurationProfile, filters: frozenset[Filter]) -> bool:
    if Filter.LT_QUADRATIC in filters:
        q = constraints.positivity_quadratic(profile)
        if not constraints.holds_over_integers(q).holds:
            return False
    if Filter.HIRZEBRUCH_11 in filters:
        if not constraints.hirzebruch_one_one(profile).holds:
            return False
    return True


def minimize_h(query: SearchQuery) -> SearchResult:
    """Exact minimum of the local H-constant over the filtered enumeration.

    Ties are kept: every argmin profile is reported, in enumeration
    order.  ``filtered_count`` is the number of enumerated profiles that
    survived the filters.  The moment-state dynamic program answers
    without building any profile it does not report.
    """
    result = _dp_minimize(query)
    count = _count_t_vectors(query)
    if result.enumerated_count != count:
        raise AssertionError(
            f"moment states hold {result.enumerated_count} t-vectors, not {count}"
        )
    return result


def _count_t_vectors(query: SearchQuery) -> int:
    """Number of profiles :func:`enumerate_profiles` yields.

    Coefficient of x^budget in prod_r 1/(1 - x^C(r,2)) over r = 2..r_max:
    in closed form for r_max <= 3, where t_3 = 0..budget // 3 fixes t_2,
    so a k = 3 query holds no list of budget + 1 ints.
    """
    budget, r_max = _shape(query)
    if r_max <= 3:
        return budget // 3 + 1 if r_max == 3 else 1
    ways = [1] * (budget + 1)  # r = 2 alone: t_2 takes any amount
    for r in range(3, r_max + 1):
        part = comb(r, 2)
        for spent in range(part, budget + 1):
            ways[spent] += ways[spent - part]
    return ways[budget]


def _lt_everywhere(k: int, g0: int, g1: int, lo: int, top: int) -> bool:
    """True if lt holds at every t2 = lo, lo + 3, ..., top of group (g0, g1).

    The discriminant b^2 - 4ac of the lt quadratic is a quadratic
    in t2 with leading coefficient 4, so it is at most 0 on the whole
    range when it is at both ends; with a > 0 the quadratic is then >= 0
    at every real x.  False means only that this test decides nothing.
    """
    for t2 in (lo, top):
        a, b, c = constraints.lt_coefficients(k, (g0 + 2 * t2) // 3, g1 + t2, t2)
        if b * b > 4 * a * c:
            return False
    return True


def _dp_minimize(query: SearchQuery) -> SearchResult:
    """Answer :func:`minimize_h` from moment states, not from t-vectors.

    h = (gamma*k - f1)/f0 and every filter reads (k, f0, f1, t2), so
    levels r = r_max..4 map each state (remaining budget, f0, f1) to the
    number of t-vectors reaching it.  Levels 3 and 2 close the states
    into finals (f0, f1, t2), and a final fixes h and the verdict of the
    filter.

    With t2 = rem - 3*t_3, the finals of a state are F0 = f0 + (rem +
    2*t2)/3 and F1 = f1 + rem + t2 for t2 = rem, rem - 3, ..., rem mod 3.
    They depend on the state only through its group (3*f0 + rem,
    f1 + rem), which fixes rem mod 3, and the states of one group differ
    only in rem.  So each group is closed once, over t2 = lo, lo + 3,
    ..., top, with top its largest rem and lo = top mod 3.  Usually the
    filter gives one verdict over that whole range: the hirz11 margin
    rises with t2, so its verdicts at lo and top decide the group when
    they agree, and :func:`_lt_everywhere` certifies lt.  Such a group
    adds the number of finals of its states, sum n*(rem//3 + 1), to the
    counts at once, and h = 3*(gamma*k - g1 - t2)/(g0 + 2*t2), monotone
    in t2, offers only t2 = top or lo to the argmin set, or every t2
    where it is constant.  Any other group walks its t2 from top down,
    each with one verdict and one comparison of h, weighted by the suffix
    sum of the counts of the group's states with rem >= t2.  Finals are
    never stored.

    Only (group, t2) is kept of each tie.  Each of its group's states
    with rem >= t2 closes to it with t3 = (rem - t2)/3, and is traced
    back to the root through every parent (rem + c*C(r,2), f0 - c,
    f1 - r*c) with t_r = c that the layer before holds.  Every state a
    layer holds is reachable from the root, so each path is exactly one
    tied t-vector; sorting restores enumeration order.
    """
    k = query.k
    budget, r_max = _shape(query)
    gamma_k = query.curve_class.pairwise_intersection * k
    hirz = Filter.HIRZEBRUCH_11 in query.filters
    lt = Filter.LT_QUADRATIC in query.filters
    too_many = f"search at k={k} needs more than {MAX_MOMENT_STATES} moment states"
    # The close and the count walk up to budget + 1 values of rem, so the
    # budget is capped like the states.  Every layer holds (budget, 0, 0),
    # and budget + 1 > k - 2 >= the number of layers, so this also refuses
    # a query with more layers than the cap before any layer is built.
    if budget + 1 > MAX_MOMENT_STATES:
        raise SearchQueryError(too_many)
    levels = [(r, comb(r, 2)) for r in range(r_max, 3, -1)]

    layers = [{(budget, 0, 0): 1}]
    held = 1
    for r, part in levels:
        nxt: dict = {}
        for (rem, f0, f1), n in layers[-1].items():
            for c in range(rem // part, -1, -1):
                child = rem - c * part, f0 + c, f1 + r * c
                nxt[child] = nxt.get(child, 0) + n
            if held + len(nxt) > MAX_MOMENT_STATES:
                raise SearchQueryError(too_many)
        held += len(nxt)
        layers.append(nxt)

    # Levels 3 and 2, by group (see the docstring).  The state of group
    # (g0, g1) with a given rem is (rem, (g0 - rem)/3, g1 - rem).
    def passes(g0: int, g1: int, t2: int) -> bool:  # the final at t2
        f0, f1 = (g0 + 2 * t2) // 3, g1 + t2
        return not (
            hirz and constraints.hirz11_margin(k, f0, f1, t2) < 0
            or lt and not constraints.lt_holds(k, f0, f1, t2)
        )

    last = layers[-1]
    step = 3 if r_max >= 3 else budget + 1  # with no level 3, t2 = rem
    tops: dict = {}  # group -> the largest rem of its states
    finals: dict = {}  # group -> the t-vectors its states close to
    for (rem, f0, f1), n in last.items():
        key = 3 * f0 + rem, f1 + rem
        if tops.get(key, -1) < rem:
            tops[key] = rem
        finals[key] = finals.get(key, 0) + n * (rem // step + 1)

    enumerated = surviving = 0
    best: tuple[int, int] | None = None  # h as (numerator, f0 > 0)
    ties: list = []  # (group, t2) of every argmin final
    for key, top in tops.items():
        g0, g1 = key
        lo = top % step
        if hirz:  # the margin rises by 2/3 per unit of t2
            at_lo, at_top = passes(g0, g1, lo), passes(g0, g1, top)
            uniform = at_lo if at_lo == at_top else None
        else:
            uniform = True if not lt or _lt_everywhere(k, g0, g1, lo, top) else None
        if uniform is not None:
            enumerated += finals[key]
            if not uniform:
                continue
            surviving += finals[key]
            slope = g0 + 2 * (gamma_k - g1)  # h falls with t2 where > 0
            t2s = [top] if slope > 0 else [lo] if slope < 0 else range(top, -1, -step)
        else:
            t2s = []
            weight = 0  # t-vectors through the group's states with rem >= t2
            for t2 in range(top, -1, -step):
                weight += last.get((t2, (g0 - t2) // 3, g1 - t2), 0)
                enumerated += weight
                if not passes(g0, g1, t2):
                    continue
                surviving += weight
                t2s.append(t2)
        for t2 in t2s:
            f0, num = (g0 + 2 * t2) // 3, gamma_k - g1 - t2
            if best is None or num * best[1] < best[0] * f0:
                best = num, f0
                ties = [(key, t2)]
            elif num * best[1] == best[0] * f0:
                ties.append((key, t2))

    paths = [  # (state, t3 and t2) of every last-layer state with a tied final
        (state, {3: (rem - t2) // 3, 2: t2})
        for (g0, g1), t2 in ties
        for rem in range(tops[g0, g1], t2 - 1, -step)
        if (state := (rem, (g0 - rem) // 3, g1 - rem)) in last
    ]
    for (r, part), layer in zip(reversed(levels), reversed(layers[:-1])):
        paths = [
            (parent, {**t, r: c})
            for (rem, f0, f1), t in paths
            for c in range(f0 + 1)
            if (parent := (rem + c * part, f0 - c, f1 - r * c)) in layer
        ]
    argmins = sorted(
        (ConfigurationProfile(query.curve_class, k, t) for _, t in paths),
        key=lambda p: [-p.t_of(r) for r in range(r_max, 2, -1)],
    )
    min_h = None if best is None else Fraction(*best)
    for profile in argmins:
        if not (
            validate(profile).ok
            and _passes(profile, query.filters)
            and local_h(profile).h == min_h
        ):
            raise AssertionError(f"moment states put {profile} at h = {min_h}")

    return SearchResult(
        min_h=min_h,
        argmin_profiles=tuple(argmins),
        enumerated_count=enumerated,
        filtered_count=surviving,
    )


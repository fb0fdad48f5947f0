"""Exhaustive enumeration of feasible multiplicity vectors and exact
H-minimization.

The incidence identity is an integer feasibility problem: spend the
budget gamma*C(k,2) on parts of size C(r,2).  Enumeration is a pruned
depth-first search from the largest multiplicity down; the r = 2 level
absorbs whatever budget remains, so every branch closes.  Output is
labelled combinatorially feasible only: no geometric realizability is
implied, which makes the minimum an over-approximating (hence valid)
lower-bound probe.

Minimization does not enumerate.  h = (gamma*k - f1)/f0, the lt filter
reads (k, f0, f1, t2) and hirz11 reads t2, t3 and sum_{r>=5} (r-4) t_r,
so a dynamic program over moment states, each weighted by its number of
t-vectors, gives the minimum and both counts exactly; only the argmin
profiles are rebuilt, in enumeration order, and checked one by one.
The states held across the layers are capped at ``MAX_MOMENT_STATES``;
a query that needs more is refused with :class:`SearchQueryError`.
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
    CONIC_COMMON_POINT_CAP,
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


def _level_cap(query: SearchQuery, r: int) -> int:
    """Upper bound on t_r apart from the budget (which it never exceeds)."""
    budget, r_max = _shape(query)
    if r > r_max:
        return 0
    if query.curve_class.kind is CurveKind.CONIC_P2 and r == query.k:
        return CONIC_COMMON_POINT_CAP
    return budget


def enumerate_profiles(query: SearchQuery) -> Iterator[ConfigurationProfile]:
    """Yield every feasible t-vector exactly once.

    Order is decreasing-r lexicographic: the count at the largest
    multiplicity varies slowest and starts at its maximum.  Pruning is by
    remaining budget; the conic common-point cap bounds t_k directly.
    """
    k = query.k
    budget, r_max = _shape(query)
    caps = {r: _level_cap(query, r) for r in range(3, r_max + 1)}

    def walk(r: int, remaining: int, acc: dict[int, int]):
        if r == 2:
            if remaining:
                acc = dict(acc)
                acc[2] = remaining  # part size C(2,2) = 1
            yield ConfigurationProfile(query.curve_class, k, acc)
            return
        part = comb(r, 2)
        for count in range(min(remaining // part, caps[r]), -1, -1):
            child = dict(acc)
            if count:
                child[r] = count
            yield from walk(r - 1, remaining - count * part, child)

    if r_max < 2:
        return
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
    return _dp_minimize(query, _count_t_vectors(query))


def _count_t_vectors(query: SearchQuery) -> int:
    """Number of profiles :func:`enumerate_profiles` yields.

    Coefficient of x^budget in prod_r 1/(1 - x^C(r,2)) over r = 2..r_max,
    with the factor of a capped level truncated at its cap.
    """
    budget, r_max = _shape(query)
    ways = [1] * (budget + 1)  # r = 2 alone: t_2 takes any amount
    for r in range(3, r_max + 1):
        part = comb(r, 2)
        cap = _level_cap(query, r)
        if cap >= budget // part:
            for spent in range(part, budget + 1):
                ways[spent] += ways[spent - part]
        else:
            ways = [
                sum(ways[spent - c * part] for c in range(min(cap, spent // part) + 1))
                for spent in range(budget + 1)
            ]
    return ways[budget]


def _lt_holds(k: int, f0: int, f1: int, t2: int) -> bool:
    """``holds_over_integers(positivity_quadratic(p)).holds`` from moments.

    a > 0, so the integer minimum sits at floor(-b/2a) or the next integer.
    """
    a = 2 * k + f0
    b = 2 * (3 * k - f1 + 2 * f0)
    c = 4 * (f0 - t2)
    x = (-b) // (2 * a)
    return a * x * x + b * x + c >= 0 and a * (x + 1) ** 2 + b * (x + 1) + c >= 0


def _dp_minimize(query: SearchQuery, count: int) -> SearchResult:
    """Answer :func:`minimize_h` from moment states, not from t-vectors.

    h = (gamma*k - f1)/f0 and both filters read only moments, so levels
    r = r_max..4 map each state (remaining budget, f0, f1, s) to the
    number of t-vectors reaching it.  The statistic s is t2 + t3 -
    sum_{r>=5} (r-4) t_r for hirz11 and 0 otherwise.  Levels 3 and 2
    close every state into finals (f0, f1, s), where lt takes s = t2;
    a final fixes h and the verdict of the filter.  Finals are streamed
    into the counts and the argmin set, never stored.  States that reach
    an argmin final are then marked backwards, and a walk in enumeration
    order along marked states rebuilds the tied profiles.
    """
    k = query.k
    budget, r_max = _shape(query)
    gamma_k = query.curve_class.pairwise_intersection * k
    hirz = Filter.HIRZEBRUCH_11 in query.filters
    lt = Filter.LT_QUADRATIC in query.filters
    levels = [
        (r, comb(r, 2), r - 4 if hirz else 0, _level_cap(query, r))
        for r in range(r_max, 3, -1)
    ]
    cap3 = _level_cap(query, 3)

    def children(i, state):
        """(t_r, child state) at level i, in enumeration order."""
        r, part, weight, cap = levels[i]
        rem, f0, f1, s = state
        for c in range(min(rem // part, cap), -1, -1):
            yield c, (rem - c * part, f0 + c, f1 + r * c, s - weight * c)

    def finals(state):
        """(t_3, final) closing a state, in enumeration order."""
        rem, f0, f1, s = state
        for c3 in range(min(rem // 3, cap3), -1, -1):
            t2 = rem - 3 * c3
            yield c3, (
                f0 + c3 + t2,
                f1 + 3 * c3 + 2 * t2,
                s + c3 + t2 if hirz else t2 if lt else 0,
            )

    layers = [{(budget, 0, 0, 0): 1}]
    held = 1
    for i in range(len(levels)):
        nxt: dict = {}
        for state, n in layers[-1].items():
            for _, child in children(i, state):
                nxt[child] = nxt.get(child, 0) + n
            if held + len(nxt) > MAX_MOMENT_STATES:
                raise SearchQueryError(
                    f"search at k={k} needs more than {MAX_MOMENT_STATES} "
                    "moment states"
                )
        held += len(nxt)
        layers.append(nxt)

    enumerated = surviving = 0
    best: tuple[int, int] | None = None  # h as (numerator, f0 > 0)
    argmin_finals: set = set()
    reaching: set = set()  # the states of the last layer with an argmin final
    for state, n in layers[-1].items():
        for _, final in finals(state):
            enumerated += n
            f0, f1, s = final
            if hirz and 9 + k + s < 0 or lt and not _lt_holds(k, f0, f1, s):
                continue
            surviving += n
            num = gamma_k - f1
            if best is None or num * best[1] < best[0] * f0:
                best = num, f0
                argmin_finals, reaching = {final}, {state}
            elif num * best[1] == best[0] * f0:
                argmin_finals.add(final)
                reaching.add(state)
    if enumerated != count:
        raise AssertionError(f"moment states hold {enumerated} t-vectors, not {count}")

    marks = [reaching]
    for i in range(len(levels) - 1, -1, -1):
        below = marks[0]
        marks.insert(0, {
            st for st in layers[i] if any(ch in below for _, ch in children(i, st))
        })

    argmins: list[ConfigurationProfile] = []

    def descend(i, state, t):
        if i < len(levels):
            for c, child in children(i, state):
                if child in marks[i + 1]:
                    descend(i + 1, child, {**t, levels[i][0]: c} if c else t)
            return
        for c3, final in finals(state):
            if final in argmin_finals:
                t2 = state[0] - 3 * c3
                argmins.append(
                    ConfigurationProfile(query.curve_class, k, {**t, 3: c3, 2: t2})
                )

    descend(0, (budget, 0, 0, 0), {})
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


"""Point maps between finite spaces, with the image/preimage property zoo.

A map is a total assignment of codomain points to domain points.  Maps
between the same pair of spaces are ranked like
``itertools.product(range(codomain.n), repeat=domain.n)``; rank and
assignment convert with :func:`map_index` / :func:`assignment_from_index`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Set

from .classes import _alpha_m_closed, _union, alpha_m_closed_meet_irreducibles
from .errors import BadParams, SpaceMismatch
from .space import (FiniteSpace, PointSet, _Frozen, _interior, check_space, load_json,
                    points_of, space_from_record)


class SpaceMap(_Frozen):
    """A total map ``domain  -> codomain``, point x to assignment[x]."""

    _fields = ("domain", "codomain", "assignment")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, assignment: tuple) -> None:
        check_space(domain, "domain")
        check_space(codomain, "codomain")
        if not isinstance(assignment, tuple):
            # a set or mapping has no order that could stand for x -> assignment[x]
            if isinstance(assignment, (Set, Mapping)):
                raise BadParams(f"assignment {assignment!r} is not a sequence "
                                "of codomain points")
            try:
                assignment = tuple(assignment)
            except TypeError:
                raise BadParams(f"assignment {assignment!r} is not a sequence "
                                "of codomain points") from None
        if len(assignment) != domain.n:
            raise BadParams(
                f"assignment length {len(assignment)} != domain size {domain.n}")
        for x, y in enumerate(assignment):
            if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < codomain.n:
                raise BadParams(f"assignment[{x}] = {y!r} outside codomain of "
                                f"{codomain.n} points")
        self._set(domain, codomain, assignment)

    def image(self, a: PointSet) -> PointSet:
        self.domain.check_subset(a)
        out = 0
        t = a
        while t:
            b = t & -t
            t ^= b
            out |= 1 << self.assignment[b.bit_length() - 1]
        return out

    def preimage(self, b: PointSet) -> PointSet:
        self.codomain.check_subset(b)
        out = 0
        for x, y in enumerate(self.assignment):
            if b >> y & 1:
                out |= 1 << x
        return out

    def to_record(self) -> dict:
        return {
            "domain": self.domain.to_record(),
            "codomain": self.codomain.to_record(),
            "assignment": list(self.assignment),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))


def check_map(obj, what: str = "map") -> SpaceMap:
    """``obj`` if it is a SpaceMap; BadParams otherwise."""
    if not isinstance(obj, SpaceMap):
        raise BadParams(f"{what} {obj!r} is not a SpaceMap")
    return obj


def identity_map(space: FiniteSpace) -> SpaceMap:
    return SpaceMap(space, space, tuple(range(check_space(space).n)))


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """g after f; the middle spaces must be identical (bitwise)."""
    check_map(g)
    check_map(f)
    if f.codomain != g.domain:
        raise SpaceMismatch(
            f"cannot compose through different middle spaces: "
            f"{f.codomain!r} vs {g.domain!r}")
    return SpaceMap(f.domain, g.codomain,
                    tuple(g.assignment[y] for y in f.assignment))


def is_surjective(f: SpaceMap) -> bool:
    return check_map(f).image(f.domain.full) == f.codomain.full


def is_bijective(f: SpaceMap) -> bool:
    return (len(set(check_map(f).assignment)) == f.domain.n
            and is_surjective(f))


def inverse(f: SpaceMap) -> SpaceMap:
    """Inverse of a bijection, typed codomain -> domain."""
    if not is_bijective(check_map(f)):
        raise BadParams("only bijective maps have an inverse")
    inv = [0] * f.codomain.n
    for x, y in enumerate(f.assignment):
        inv[y] = x
    return SpaceMap(f.codomain, f.domain, tuple(inv))


# The predicates below test sets they build from the neighbourhood tables,
# so they take images and preimages through these tables, unchecked, rather
# than through SpaceMap.image/preimage.

def _fibres(f: SpaceMap) -> list:
    # f^-1({y}) for each codomain point y; f^-1(B) is their union over B
    fib = [0] * f.codomain.n
    for x, y in enumerate(f.assignment):
        fib[y] |= 1 << x
    return fib


def _point_images(f: SpaceMap) -> list:
    # {f(x)} for each domain point x; f(A) is their union over A
    return [1 << y for y in f.assignment]


def _is_open(space: FiniteSpace, a: PointSet) -> bool:
    return _interior(space.min_nbhd, a) == a


def is_continuous(f: SpaceMap) -> bool:
    """Preimage of every open set is open.

    Each open set of Y is the union of the U_y it holds, preimages commute
    with unions, and unions of open sets are open; so it suffices that
    f^-1(U_y) is open for every y."""
    check_map(f)
    fib = _fibres(f)
    return all(_is_open(f.domain, _union(fib, u)) for u in f.codomain.min_nbhd)


def is_open_map(f: SpaceMap) -> bool:
    """Image of every open set is open.

    Each open set of X is the union of the U_x it holds, and images commute
    with unions; so it suffices that f(U_x) is open for every x."""
    check_map(f)
    pts = _point_images(f)
    return all(_is_open(f.codomain, _union(pts, u)) for u in f.domain.min_nbhd)


def is_closed_map(f: SpaceMap) -> bool:
    """Image of every closed set is closed.

    Each closed set of X is the union of the cl({x}) it holds, images
    commute with unions, and finite unions of closed sets are closed; so it
    suffices that f(cl({x})) is closed for every x."""
    check_map(f)
    minn, full = f.domain.min_nbhd, f.domain.full
    pts, cod_full = _point_images(f), f.codomain.full
    for x in range(f.domain.n):
        closure = full ^ _interior(minn, full ^ (1 << x))
        if not _is_open(f.codomain, cod_full ^ _union(pts, closure)):
            return False
    return True


def is_alpha_m_continuous(f: SpaceMap) -> bool:
    """Preimage of every closed set is alpha_m-closed.

    Each closed set F of Y is the intersection of the Y - U_y with y
    outside F (U_y misses F, as F is closed), preimages commute with
    intersections, and alpha_m-closed sets are closed under them (see
    :mod:`topolab.classes`); so it suffices that X - f^-1(U_y) is
    alpha_m-closed, that is, f^-1(U_y) is alpha_m-open, for every y."""
    check_map(f)
    fib, full = _fibres(f), f.domain.full
    return all(_alpha_m_closed(f.domain, full ^ _union(fib, u))
               for u in f.codomain.min_nbhd)


def is_alpha_m_irresolute(f: SpaceMap) -> bool:
    """Preimage of every alpha_m-closed set is alpha_m-closed.

    Each alpha_m-closed set of Y is an intersection of the meet-irreducible
    ones (:func:`topolab.classes.alpha_m_closed_meet_irreducibles`),
    preimages commute with intersections, and alpha_m-closed sets of X are
    closed under them; so it suffices that the preimage of each
    meet-irreducible one is alpha_m-closed."""
    check_map(f)
    fib = _fibres(f)
    return all(_alpha_m_closed(f.domain, _union(fib, c))
               for c in alpha_m_closed_meet_irreducibles(f.codomain))


def is_alpha_m_closed_map(f: SpaceMap) -> bool:
    """Image of every closed set is alpha_m-closed.

    Writing ker(S) for the union of the U_x over x in S, it suffices that
    f(X - ker(f^-1({y}))), the image of a closed set, is alpha_m-closed for
    every y outside the maximal points M of Y.  For suppose some closed F
    has f(F) not alpha_m-closed: some y outside M | f(F) lies in
    int(cl(f(F))).  F misses f^-1({y}), so, being closed, it misses
    ker(f^-1({y})); so F lies in G = X - ker(f^-1({y})).  Then f(F) <= f(G),
    y is not in f(G), and y is in int(cl(f(G))), so f(G) is not
    alpha_m-closed either."""
    check_map(f)
    minn, full = f.domain.min_nbhd, f.domain.full
    fib, pts = _fibres(f), _point_images(f)
    for y in points_of(f.codomain.full ^ f.codomain.maximal):
        g = full ^ _union(minn, fib[y])
        if not _alpha_m_closed(f.codomain, _union(pts, g)):
            return False
    return True


def is_alpha_m_open_map(f: SpaceMap) -> bool:
    """Image of every open set is alpha_m-open.

    Each open set of X is the union of the U_x it holds, images commute
    with unions, and alpha_m-open sets, the complements of alpha_m-closed
    ones, are closed under unions; so it suffices that f(U_x) is
    alpha_m-open for every x."""
    check_map(f)
    pts, full = _point_images(f), f.codomain.full
    return all(_alpha_m_closed(f.codomain, full ^ _union(pts, u))
               for u in f.domain.min_nbhd)


def open_preimages_alpha_m_open(f: SpaceMap) -> bool:
    """Preimage of every open set is alpha_m-open.

    Each open set of Y is the union of the U_y it holds, preimages commute
    with unions, and alpha_m-open sets are closed under unions; so it
    suffices that f^-1(U_y) is alpha_m-open for every y.  That is the test
    that decides :func:`is_alpha_m_continuous`, so the two properties
    coincide."""
    return is_alpha_m_continuous(f)


# the one-map properties by name, in MapClassification field order
MAP_PREDICATES = {
    "continuous": is_continuous,
    "open_map": is_open_map,
    "closed_map": is_closed_map,
    "surjective": is_surjective,
    "bijective": is_bijective,
    "alpha_m_continuous": is_alpha_m_continuous,
    "alpha_m_irresolute": is_alpha_m_irresolute,
    "alpha_m_closed_map": is_alpha_m_closed_map,
    "alpha_m_open_map": is_alpha_m_open_map,
}

MAP_PROPERTY_IDS = tuple(MAP_PREDICATES)


class MapClassification(_Frozen):
    """Flags for one map, in fixed field order."""

    _fields = MAP_PROPERTY_IDS

    def __init__(self, continuous: bool, open_map: bool, closed_map: bool,
                 surjective: bool, bijective: bool, alpha_m_continuous: bool,
                 alpha_m_irresolute: bool, alpha_m_closed_map: bool,
                 alpha_m_open_map: bool) -> None:
        self._set(continuous, open_map, closed_map, surjective, bijective,
                  alpha_m_continuous, alpha_m_irresolute, alpha_m_closed_map,
                  alpha_m_open_map)

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in MAP_PROPERTY_IDS}


def classify_map(f: SpaceMap) -> MapClassification:
    check_map(f)
    return MapClassification(**{name: holds(f) for name, holds in MAP_PREDICATES.items()})


def map_index(f: SpaceMap) -> int:
    """Rank of the map among all maps domain -> codomain."""
    idx = 0
    for y in f.assignment:
        idx = idx * f.codomain.n + y
    return idx


def assignment_from_index(idx: int, n_dom: int, n_cod: int) -> tuple:
    total = n_cod ** n_dom
    if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < total:
        raise BadParams(f"map rank {idx!r} outside 0..{total - 1}")
    a = [0] * n_dom
    for x in range(n_dom - 1, -1, -1):
        a[x] = idx % n_cod
        idx //= n_cod
    return tuple(a)


def map_from_record(obj) -> SpaceMap:
    """Parse and validate ``{"domain": ..., "codomain": ..., "assignment": [...]}``."""
    if not isinstance(obj, dict) or set(obj) != {"domain", "codomain", "assignment"}:
        raise BadParams("map record must be an object with keys "
                        "'domain', 'codomain' and 'assignment'")
    domain = space_from_record(obj["domain"])
    codomain = space_from_record(obj["codomain"])
    raw = obj["assignment"]
    if not isinstance(raw, list):
        raise BadParams("map record field 'assignment' must be a list")
    return SpaceMap(domain, codomain, tuple(raw))


def map_from_json(text: str) -> SpaceMap:
    return map_from_record(load_json(text))

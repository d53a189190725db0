"""Point maps between finite spaces, with the image/preimage property zoo.

A map is a total assignment of codomain points to domain points.  Maps
between the same pair of spaces are ranked like
``itertools.product(range(codomain.n), repeat=domain.n)``; rank and
assignment convert with :func:`map_index` / :func:`assignment_from_index`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import classes
from .errors import BadParams, SpaceMismatch
from .space import FiniteSpace, PointSet, space_from_record

MAP_PROPERTY_IDS = (
    "continuous", "open_map", "closed_map", "surjective", "bijective",
    "alpha_m_continuous", "alpha_m_irresolute",
    "alpha_m_closed_map", "alpha_m_open_map",
)


@dataclass(frozen=True)
class SpaceMap:
    """A total map ``domain  -> codomain``, point x to assignment[x]."""

    domain: FiniteSpace
    codomain: FiniteSpace
    assignment: tuple

    def __post_init__(self):
        if not isinstance(self.assignment, tuple):
            object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.domain.n:
            raise BadParams(
                f"assignment length {len(self.assignment)} != domain size {self.domain.n}")
        for x, y in enumerate(self.assignment):
            if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < self.codomain.n:
                raise BadParams(f"assignment[{x}] = {y!r} outside codomain of "
                                f"{self.codomain.n} points")

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


def identity_map(space: FiniteSpace) -> SpaceMap:
    return SpaceMap(space, space, tuple(range(space.n)))


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """g after f; the middle spaces must be identical (bitwise)."""
    if f.codomain != g.domain:
        raise SpaceMismatch(
            f"cannot compose through different middle spaces: "
            f"{f.codomain!r} vs {g.domain!r}")
    return SpaceMap(f.domain, g.codomain,
                    tuple(g.assignment[y] for y in f.assignment))


def is_surjective(f: SpaceMap) -> bool:
    return f.image(f.domain.full) == f.codomain.full


def is_bijective(f: SpaceMap) -> bool:
    return (len(set(f.assignment)) == f.domain.n
            and is_surjective(f))


def inverse(f: SpaceMap) -> SpaceMap:
    """Inverse of a bijection, typed codomain -> domain."""
    if not is_bijective(f):
        raise BadParams("only bijective maps have an inverse")
    inv = [0] * f.codomain.n
    for x, y in enumerate(f.assignment):
        inv[y] = x
    return SpaceMap(f.codomain, f.domain, tuple(inv))


def is_continuous(f: SpaceMap) -> bool:
    """Preimage of every open set is open."""
    return all(f.domain.is_open(f.preimage(u)) for u in f.codomain.opens)


def is_open_map(f: SpaceMap) -> bool:
    """Image of every open set is open."""
    return all(f.codomain.is_open(f.image(u)) for u in f.domain.opens)


def is_closed_map(f: SpaceMap) -> bool:
    """Image of every closed set is closed."""
    full = f.domain.full
    return all(f.codomain.is_closed(f.image(full ^ u)) for u in f.domain.opens)


def is_alpha_m_continuous(f: SpaceMap) -> bool:
    """Preimage of every closed set is alpha_m-closed."""
    full = f.codomain.full
    return all(classes.is_alpha_m_closed(f.domain, f.preimage(full ^ u))
               for u in f.codomain.opens)


def is_alpha_m_irresolute(f: SpaceMap) -> bool:
    """Preimage of every alpha_m-closed set is alpha_m-closed."""
    return all(classes.is_alpha_m_closed(f.domain, f.preimage(c))
               for c in classes.family(f.codomain, "alpha_m_closed"))


def is_alpha_m_closed_map(f: SpaceMap) -> bool:
    """Image of every closed set is alpha_m-closed."""
    full = f.domain.full
    return all(classes.is_alpha_m_closed(f.codomain, f.image(full ^ u))
               for u in f.domain.opens)


def is_alpha_m_open_map(f: SpaceMap) -> bool:
    """Image of every open set is alpha_m-open."""
    return all(classes.is_alpha_m_open(f.codomain, f.image(u)) for u in f.domain.opens)


def open_preimages_alpha_m_open(f: SpaceMap) -> bool:
    """Preimage of every open set is alpha_m-open."""
    return all(classes.is_alpha_m_open(f.domain, f.preimage(u)) for u in f.codomain.opens)


@dataclass(frozen=True)
class MapClassification:
    """Flags for one map, in fixed field order."""

    continuous: bool
    open_map: bool
    closed_map: bool
    surjective: bool
    bijective: bool
    alpha_m_continuous: bool
    alpha_m_irresolute: bool
    alpha_m_closed_map: bool
    alpha_m_open_map: bool

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in MAP_PROPERTY_IDS}


def classify_map(f: SpaceMap) -> MapClassification:
    return MapClassification(
        continuous=is_continuous(f),
        open_map=is_open_map(f),
        closed_map=is_closed_map(f),
        surjective=is_surjective(f),
        bijective=is_bijective(f),
        alpha_m_continuous=is_alpha_m_continuous(f),
        alpha_m_irresolute=is_alpha_m_irresolute(f),
        alpha_m_closed_map=is_alpha_m_closed_map(f),
        alpha_m_open_map=is_alpha_m_open_map(f),
    )


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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"invalid JSON: {exc}") from None
    return map_from_record(obj)

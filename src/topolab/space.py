"""Finite topological spaces over a bitmask ground set.

A subset of the ground set {0..n-1} is a plain ``int`` bitmask: bit p set
means point p belongs to the subset.  The empty set is 0 and the full set
is ``(1 << n) - 1``, so both exist for every n >= 0 and equality of
subsets is integer equality.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .errors import BadParams, NotATopology

MAX_POINTS = 16

# type alias: subsets are bitmasks
PointSet = int


def subset_of_points(points: Iterable[int], n: int) -> PointSet:
    """Bitmask of an iterable of 0-based point indices (order-free)."""
    mask = 0
    for p in points:
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
            raise BadParams(f"point {p!r} outside ground set of {n} points")
        mask |= 1 << p
    return mask


def points_of(mask: PointSet) -> list[int]:
    """Ascending point indices of a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def family_sort_key(mask: PointSet) -> tuple[int, int]:
    """Canonical subset order: cardinality first, then numeric value."""
    return (mask.bit_count(), mask)


def canonical_subsets(n: int):
    """Every subset of n points in canonical order, without sorting: per
    cardinality, Gosper's hack steps to the next bitmask with as many bits."""
    yield 0
    for k in range(1, n + 1):
        a = (1 << k) - 1
        while not a >> n:
            yield a
            low = a & -a
            ripple = a + low
            a = (((ripple ^ a) >> 2) // low) | ripple


def format_subset(mask: PointSet) -> str:
    return "{" + ",".join(str(p) for p in points_of(mask)) + "}"


@dataclass(frozen=True)
class FiniteSpace:
    """An immutable, validated topology on points 0..n-1.

    ``opens`` is deduplicated and stored in canonical order (cardinality,
    then numeric bitmask value).  Instances are pure values: hashable,
    comparable field by field, picklable, and safe to share across threads.
    Two derived values are cached on the instance on first use, and
    recomputing either gives the same value: the per-point neighbourhood
    table, from which interior and closure are computed per call, and the
    mask of maximal points.  The table is the form every space is built
    from: :func:`new_space`, the generators and the enumeration store the
    table they hold, so it is not derived from the opens a second time.
    Construct through :func:`new_space` or the generators; the raw
    constructor does not validate.
    """

    n: int
    opens: tuple[PointSet, ...]

    @property
    def full(self) -> PointSet:
        return (1 << self.n) - 1

    @cached_property
    def min_nbhd(self) -> tuple[PointSet, ...]:
        """Smallest open neighbourhood U_x of each point x: the intersection
        of the opens that contain it."""
        return _min_nbhds(self.n, self.opens)

    @cached_property
    def maximal(self) -> PointSet:
        """The maximal points M: the x whose U_x is a minimal nonempty open
        set, that is, with U_z == U_x for every z in U_x.  U_x lies in M
        for x in M, and every nonempty open set holds a point of M."""
        return _maximal(self.min_nbhd)

    def check_subset(self, a: PointSet) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a <= self.full:
            raise BadParams(f"subset {a!r} does not fit in {self.n} points")

    def subsets(self) -> range:
        """All subset bitmasks, ascending."""
        return range(1 << self.n)

    def complement(self, a: PointSet) -> PointSet:
        self.check_subset(a)
        return self.full ^ a

    def interior(self, a: PointSet) -> PointSet:
        """Largest open subset of ``a``."""
        self.check_subset(a)
        return _interior(self.min_nbhd, a)

    def closure(self, a: PointSet) -> PointSet:
        """Smallest closed superset of ``a``."""
        self.check_subset(a)
        return self.full ^ _interior(self.min_nbhd, self.full ^ a)

    def is_open(self, a: PointSet) -> bool:
        self.check_subset(a)
        return _interior(self.min_nbhd, a) == a

    def is_closed(self, a: PointSet) -> bool:
        return self.is_open(self.full ^ a)

    def is_clopen(self, a: PointSet) -> bool:
        return self.is_open(a) and self.is_open(self.full ^ a)

    def to_record(self) -> dict:
        return {"n": self.n, "opens": [points_of(u) for u in self.opens]}

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))

    def __repr__(self):
        opens = ",".join(format_subset(u) for u in self.opens)
        return f"FiniteSpace(n={self.n}, opens=[{opens}])"


def _min_nbhds(n: int, opens) -> tuple[PointSet, ...]:
    # per point, the intersection of the opens that contain it
    return tuple(reduce(and_, (u for u in opens if u >> x & 1), (1 << n) - 1)
                 for x in range(n))


def _maximal(minn) -> PointSet:
    # the points whose neighbourhood is the neighbourhood of each of its points
    return sum(1 << x for x, u in enumerate(minn)
               if all(minn[z] == u for z in points_of(u)))


def _interior(minn, a: PointSet) -> PointSet:
    # the points of a whose minimal neighbourhood lies in a; a is open
    # (an up-set of the table) iff this returns a itself
    s = 0
    t = a
    while t:
        b = t & -t
        t ^= b
        mx = minn[b.bit_length() - 1]
        if mx & a == mx:
            s |= b
    return s


def _diagnose_family(n: int, members: set) -> None:
    """Raise NotATopology naming one offending pair of an invalid family."""
    ordered = sorted(members)
    # some pairwise intersection missing?
    for x in range(n):
        bx = 1 << x
        cur = None
        for u in ordered:
            if not u & bx:
                continue
            if cur is None:
                cur = u
                continue
            if cur & u not in members:
                raise NotATopology(
                    f"intersection of {format_subset(cur)} and {format_subset(u)}"
                    f" = {format_subset(cur & u)} is not in the family")
            cur &= u
    # all minimal neighbourhoods are members; some union must be missing
    minn = _min_nbhds(n, members)
    for u in ordered:
        for m in minn:
            if u | m not in members:
                raise NotATopology(
                    f"union of {format_subset(u)} and {format_subset(m)}"
                    f" = {format_subset(u | m)} is not in the family")
    raise NotATopology("family is not closed under union/intersection")


def _validate_family(n: int, members: set) -> tuple[PointSet, ...]:
    """The neighbourhood table of the topology ``members``; NotATopology if
    it is not one."""
    full = (1 << n) - 1
    if 0 not in members:
        raise NotATopology("the empty set is missing from the family")
    if full not in members:
        raise NotATopology(f"the full set {format_subset(full)} is missing from the family")
    if len(members) == full + 1:
        return tuple(1 << x for x in range(n))  # power set: always a topology
    # U_x, the intersection of the members holding x, lies in each of them.
    # So if adding any U_x to a member gives a member, the family is exactly
    # the unions of U_x's (reached from {}), the opens of the topology the
    # U_x generate (y in U_x gives U_y <= U_x, as U_x is then a member).
    minn = _min_nbhds(n, members)
    if any(u | m not in members for u in members for m in minn):
        _diagnose_family(n, members)
    return minn


def new_space(n: int, opens: Iterable[PointSet]) -> FiniteSpace:
    """Validated constructor from bitmask opens.

    Deduplicates, checks every subset fits, checks the topology axioms,
    and stores the family canonically ordered.  Raises NotATopology with
    a message naming one offending pair (or the missing empty/full set).
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_POINTS:
        raise BadParams(f"point count {n!r} outside 0..{MAX_POINTS}")
    full = (1 << n) - 1
    if not isinstance(opens, Iterable):
        raise BadParams(f"opens {opens!r} is not an iterable of subsets")
    members = set()
    for u in opens:
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u <= full:
            raise BadParams(f"subset {u!r} does not fit in {n} points")
        members.add(u)
    minn = _validate_family(n, members)
    return _seeded(FiniteSpace(n, tuple(sorted(members, key=family_sort_key))), minn)


def _seeded(space: FiniteSpace, minn) -> FiniteSpace:
    # store the table the constructor already holds as the cached min_nbhd,
    # so that it is not derived from the opens a second time
    vars(space)["min_nbhd"] = tuple(minn)
    return space


def _from_min_nbhds(n: int, minn) -> FiniteSpace:
    """The space whose minimal neighbourhoods are ``minn``.  The table must
    be exact: x in minn[x], and minn[z] <= minn[x] for z in minn[x].  The
    opens are the unions of table entries, a topology by construction, so
    they are not validated again.  Each U_x is joined to every union listed
    so far, unless it is one already, so k opens cost O(k·n) unions."""
    opens = {0}
    for u in minn:
        if u not in opens:
            opens |= {o | u for o in opens}
    return _seeded(FiniteSpace(n, tuple(sorted(opens, key=family_sort_key))), minn)


def _check_n(n, low: int = 0):
    if not isinstance(n, int) or isinstance(n, bool) or not low <= n <= MAX_POINTS:
        raise BadParams(f"point count {n!r} outside {low}..{MAX_POINTS}")


def discrete(n: int) -> FiniteSpace:
    """Every subset open."""
    _check_n(n)
    return _from_min_nbhds(n, [1 << x for x in range(n)])


def indiscrete(n: int) -> FiniteSpace:
    """Only the empty set and the full set open."""
    _check_n(n)
    full = (1 << n) - 1
    return _from_min_nbhds(n, [full] * n)


def sierpinski() -> FiniteSpace:
    """Two points with exactly one nontrivial open, {0}."""
    return _from_min_nbhds(2, [0b01, 0b11])


def particular_point(n: int, p: int) -> FiniteSpace:
    """Opens are the empty set plus every subset containing ``p``."""
    _check_n(n, low=1)
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
        raise BadParams(f"point {p!r} outside ground set of {n} points")
    return _from_min_nbhds(n, [(1 << x) | (1 << p) for x in range(n)])


def excluded_point(n: int, p: int) -> FiniteSpace:
    """Opens are the full set plus every subset avoiding ``p``."""
    _check_n(n, low=1)
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
        raise BadParams(f"point {p!r} outside ground set of {n} points")
    full = (1 << n) - 1
    return _from_min_nbhds(n, [full if x == p else 1 << x for x in range(n)])


def khalimsky_interval(n: int) -> FiniteSpace:
    """Digital-line interval: odd points open, even points have the
    three-point neighbourhood {p-1, p, p+1} clipped to range."""
    _check_n(n)
    full = (1 << n) - 1
    minn = []
    for p in range(n):
        if p % 2 == 1:
            minn.append(1 << p)
        else:
            m = 1 << p
            if p > 0:
                m |= 1 << (p - 1)
            if p + 1 < n:
                m |= 1 << (p + 1)
            minn.append(m & full)
    return _from_min_nbhds(n, minn)


GENERATORS = {
    "discrete": (discrete, 1),
    "indiscrete": (indiscrete, 1),
    "sierpinski": (sierpinski, 0),
    "particular_point": (particular_point, 2),
    "excluded_point": (excluded_point, 2),
    "khalimsky_interval": (khalimsky_interval, 1),
}


def generate(name: str, *params: int) -> FiniteSpace:
    """Dispatch to a named generator; BadParams on unknown name or arity."""
    try:
        fn, arity = GENERATORS[name]
    except KeyError:
        raise BadParams(f"unknown generator {name!r}; choose from "
                        + ", ".join(sorted(GENERATORS))) from None
    if len(params) != arity:
        raise BadParams(f"generator {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def check_space(obj, what: str = "space") -> FiniteSpace:
    """``obj`` if it is a FiniteSpace; BadParams otherwise."""
    if not isinstance(obj, FiniteSpace):
        raise BadParams(f"{what} {obj!r} is not a FiniteSpace")
    return obj


def load_json(text):
    """The value of one JSON text; BadParams if it is not JSON text, or
    nests too deeply for the parser."""
    try:
        return json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        raise BadParams(f"invalid JSON: {exc}") from None


def space_from_record(obj) -> FiniteSpace:
    """Parse and fully validate the dict form ``{"n": ..., "opens": [[...]]}``."""
    if not isinstance(obj, dict) or set(obj) != {"n", "opens"}:
        raise BadParams("space record must be an object with keys 'n' and 'opens'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParams("space record field 'n' must be an integer")
    raw = obj["opens"]
    if not isinstance(raw, list) or not all(isinstance(u, list) for u in raw):
        raise BadParams("space record field 'opens' must be a list of point lists")
    if not 0 <= n <= MAX_POINTS:
        raise BadParams(f"point count {n!r} outside 0..{MAX_POINTS}")
    return new_space(n, [subset_of_points(u, n) for u in raw])


def space_from_json(text: str) -> FiniteSpace:
    return space_from_record(load_json(text))

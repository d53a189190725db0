"""Finite topological spaces over a bitmask ground set.

A subset of the ground set {0..n-1} is a plain ``int`` bitmask: bit p set
means point p belongs to the subset.  The empty set is 0 and the full set
is ``(1 << n) - 1``, so both exist for every n >= 0 and equality of
subsets is integer equality.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from functools import cached_property

from .errors import BadParams, NotATopology

MAX_POINTS = 16

# type alias: subsets are bitmasks
PointSet = int


def subset_of_points(points: Iterable[int], n: int) -> PointSet:
    """Bitmask of an iterable of 0-based point indices (order-free);
    BadParams unless ``points`` is iterable and ``n`` an int."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParams(f"point count {n!r} is not an integer")
    try:
        points = iter(points)
    except TypeError:
        raise BadParams(f"points {points!r} are not an iterable of point indices") from None
    mask = 0
    for p in points:
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
            raise BadParams(f"point {p!r} outside ground set of {n} points")
        mask |= 1 << p
    return mask


def points_of(mask: PointSet) -> list[int]:
    """Ascending point indices of a bitmask; BadParams for anything that is
    not a non-negative int, bools included."""
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
        raise BadParams(f"subset {mask!r} is not a non-negative bitmask")
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


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


class _Frozen:
    """Base of topolab's immutable value classes.

    A subclass names its fields, in order, in ``_fields``, and its
    ``__init__`` sets each of them once, through :meth:`_set`.  Two
    instances are equal iff they are of one class with equal fields; the
    hash is that of the tuple of fields, and the repr reads
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    AttributeError.  Fields live in the instance ``__dict__``, so instances
    pickle as plain objects do, without calling ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteSpace(_Frozen):
    """An immutable topology on points 0..n-1, stored as its neighbourhood
    table.

    ``min_nbhd`` is the tuple (U_0, ..., U_{n-1}) of per-point minimal open
    neighbourhoods; a finite topology and its table determine each other,
    so instances are pure values whose equality and hash follow (n,
    table).  They are picklable and safe to share across threads.  Interior
    and closure are computed from the table per call.  Two derived values
    are cached on the instance on first use: ``opens``, the open sets in
    canonical order (cardinality, then numeric bitmask value), and the mask
    of maximal points.

    The constructor checks the table in O(n²), so every instance is a
    topology: BadParams unless n is an int in 0..MAX_POINTS and the table a
    tuple of n subsets of the n points; NotATopology if some x is not in
    U_x, or some z in U_x has U_z not inside U_x.  :func:`new_space` builds
    one from its open sets.
    """

    _fields = ("n", "min_nbhd")

    def __init__(self, n: int, min_nbhd: tuple[PointSet, ...]) -> None:
        minn = min_nbhd
        _check_n(n)
        if not isinstance(minn, tuple) or len(minn) != n:
            raise BadParams(f"neighbourhood table {minn!r} is not a tuple of {n} subsets")
        full = (1 << n) - 1
        for u in minn:
            if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u <= full:
                raise BadParams(f"neighbourhood {u!r} does not fit in {n} points")
        for x, u in enumerate(minn):
            if not u >> x & 1:
                raise NotATopology(f"point {x} is not in its neighbourhood {format_subset(u)}")
            for z in points_of(u):
                if minn[z] & u != minn[z]:
                    raise NotATopology(
                        f"point {z} is in the neighbourhood {format_subset(u)} of point {x},"
                        f" but its own, {format_subset(minn[z])}, is not inside it")
        self._set(n, min_nbhd)

    @classmethod
    def _unchecked(cls, n: int, min_nbhd: tuple) -> FiniteSpace:
        """A space from a table already known to be a topology's, without
        the constructor's check: for the enumeration's streams, and for
        :func:`new_space` and :func:`space_from_record`, whose validation
        derives the table."""
        space = cls.__new__(cls)
        # object.__setattr__, not _set: fields set this way stay in the
        # instance's inline values, with no dict object of its own, and the
        # streams hold thousands of spaces
        object.__setattr__(space, "n", n)
        object.__setattr__(space, "min_nbhd", min_nbhd)
        return space

    @property
    def full(self) -> PointSet:
        return (1 << self.n) - 1

    @cached_property
    def opens(self) -> tuple[PointSet, ...]:
        """The open sets, the unions of table entries, in canonical order."""
        return _opens(self.min_nbhd)

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


def _opens(minn) -> tuple[PointSet, ...]:
    """The open sets of a neighbourhood table in canonical order.  Each U_x
    is joined to every union listed so far, unless it is one already, so k
    opens cost O(k·n) unions."""
    opens = {0}
    for u in minn:
        if u not in opens:
            opens |= {o | u for o in opens}
    # the sort by cardinality is stable, so each cardinality stays in
    # numeric order
    return tuple(sorted(sorted(opens), key=int.bit_count))


def _maximal(minn) -> PointSet:
    # the points whose neighbourhood is the neighbourhood of each of its points
    out = 0
    for x, u in enumerate(minn):
        t = u
        while t:
            b = t & -t
            if minn[b.bit_length() - 1] != u:
                break
            t ^= b
        else:
            out |= 1 << x
    return out


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


def _diagnose_family(n: int, members: set, minn) -> None:
    """Raise NotATopology naming one offending pair of an invalid family;
    ``minn`` holds, per point, the intersection of the members holding it."""
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
    # U_x, the intersection of the members holding x, in one pass
    minn = [full] * n
    for u in members:
        t = u
        while t:
            b = t & -t
            t ^= b
            minn[b.bit_length() - 1] &= u
    # each member u is the union of the U_x over its points, so the members
    # are among the unions of U_x's; they are all of them, the opens of the
    # topology the U_x generate (y in U_x gives U_y <= U_x), iff the unions
    # number no more than the members
    unions = {0}
    for u in minn:
        if u not in unions:
            unions |= {o | u for o in unions}
            if len(unions) > len(members):
                _diagnose_family(n, members, minn)
    return tuple(minn)


def new_space(n: int, opens: Iterable[PointSet]) -> FiniteSpace:
    """Validated constructor from bitmask opens.

    Checks every subset fits and the topology axioms, and stores the
    neighbourhood table of the family.  Raises NotATopology with
    a message naming one offending pair (or the missing empty/full set).
    """
    _check_n(n)
    full = (1 << n) - 1
    if not isinstance(opens, Iterable):
        raise BadParams(f"opens {opens!r} is not an iterable of subsets")
    members = set()
    for u in opens:
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u <= full:
            raise BadParams(f"subset {u!r} does not fit in {n} points")
        members.add(u)
    # the table of a topology passes the constructor's check: x is in U_x,
    # and z in U_x gives U_z <= U_x
    return FiniteSpace._unchecked(n, _validate_family(n, members))


def _check_n(n, low: int = 0):
    if not isinstance(n, int) or isinstance(n, bool) or not low <= n <= MAX_POINTS:
        raise BadParams(f"point count {n!r} outside {low}..{MAX_POINTS}")


def discrete(n: int) -> FiniteSpace:
    """Every subset open."""
    _check_n(n)
    return FiniteSpace(n, tuple(1 << x for x in range(n)))


def indiscrete(n: int) -> FiniteSpace:
    """Only the empty set and the full set open."""
    _check_n(n)
    return FiniteSpace(n, ((1 << n) - 1,) * n)


def sierpinski() -> FiniteSpace:
    """Two points with exactly one nontrivial open, {0}."""
    return FiniteSpace(2, (0b01, 0b11))


def particular_point(n: int, p: int) -> FiniteSpace:
    """Opens are the empty set plus every subset containing ``p``."""
    _check_n(n, low=1)
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
        raise BadParams(f"point {p!r} outside ground set of {n} points")
    return FiniteSpace(n, tuple((1 << x) | (1 << p) for x in range(n)))


def excluded_point(n: int, p: int) -> FiniteSpace:
    """Opens are the full set plus every subset avoiding ``p``."""
    _check_n(n, low=1)
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
        raise BadParams(f"point {p!r} outside ground set of {n} points")
    full = (1 << n) - 1
    return FiniteSpace(n, tuple(full if x == p else 1 << x for x in range(n)))


def khalimsky_interval(n: int) -> FiniteSpace:
    """Digital-line interval: odd points open, even points have the
    three-point neighbourhood {p-1, p, p+1} clipped to range."""
    _check_n(n)
    full = (1 << n) - 1
    return FiniteSpace(n, tuple(1 << p if p % 2 else 0b111 << p >> 1 & full
                                for p in range(n)))


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
    except (KeyError, TypeError):       # TypeError: a name that cannot be a key
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


def _check_point_lists(raw) -> None:
    # the record's first error, if 'opens' is no list of lists; the parse
    # walks the whole list for it only once it has found some error
    if not isinstance(raw, list) or not all(isinstance(u, list) for u in raw):
        raise BadParams("space record field 'opens' must be a list of point lists")


def space_from_record(obj) -> FiniteSpace:
    """Parse and fully validate the dict form ``{"n": ..., "opens": [[...]]}``."""
    if not isinstance(obj, dict) or set(obj) != {"n", "opens"}:
        raise BadParams("space record must be an object with keys 'n' and 'opens'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParams("space record field 'n' must be an integer")
    raw = obj["opens"]
    if not isinstance(raw, list) or not 0 <= n <= MAX_POINTS:
        _check_point_lists(raw)
        raise BadParams(f"point count {n!r} outside 0..{MAX_POINTS}")
    members = set()
    for u in raw:
        if not isinstance(u, list):
            _check_point_lists(raw)
        mask = 0
        for p in u:
            if p.__class__ is not int or not 0 <= p < n:
                # a later entry that is no list is reported first; then
                # BadParams naming p, or the mask of int subclasses
                _check_point_lists(raw)
                mask = subset_of_points(u, n)
                break
            mask |= 1 << p
        members.add(mask)
    # n and every mask are in range, as new_space would check them; the
    # family check is the rest of new_space's, and proves the table
    return FiniteSpace._unchecked(n, _validate_family(n, members))


def space_from_json(text: str) -> FiniteSpace:
    return space_from_record(load_json(text))

"""Membership tests for the generalized open/closed set classes.

Definitions, writing int/cl for interior and closure inside a fixed space:

- preopen:       A <= int(cl(A));        preclosed:   cl(int(A)) <= A
- semiopen:      A <= cl(int(A));        semiclosed:  int(cl(A)) <= A
- alpha-open:    A <= int(cl(int(A)));   alpha-closed: cl(int(cl(A))) <= A
- beta-open:     A <= cl(int(cl(A)));    beta-closed: int(cl(int(A))) <= A
- g-closed:      cl(A) <= U for every open U >= A; g-open: complement g-closed
- alpha_m-closed: int(cl(A)) <= U for every alpha-open U >= A;
  alpha_m-open:  complement alpha_m-closed

The g-closed condition reduces to containment in ker(A), the union of the
members' minimal neighbourhoods, which is the smallest open superset.  The
alpha_m-closed condition reduces to the maximal points M of the space (see
``FiniteSpace.maximal``):

    A is alpha_m-closed  iff  int(cl(A)) - A <= M.

Applied to X - A, as int(cl(X - A)) = X - cl(int(A)), this makes A
alpha_m-open iff A - cl(int(A)) <= M.

Proof.  Suppose int(cl(A)) - A <= M, and let U be alpha-open with A <= U.
Take y in int(cl(A)) - A.  U_y <= cl(A), so U_y meets A at some a, and
U_a == U_y as y is in M.  As U <= int(cl(int(U))), U_a meets int(U) at
some z; U_z == U_y again, and U_z <= U, so y is in U.  Conversely take y
in int(cl(A)) - A outside M, and let U = A | (ker(A) & M).  For m in
ker(A) & M, U_m <= ker(A) & M, so ker(A) & M is open and lies in int(U).
Each U_w meets M, so ker(A) <= cl(ker(A) & M) <= cl(int(U)), and as
ker(A) is open, U <= ker(A) <= int(cl(int(U))).  So U is an alpha-open
superset of A that misses y, and A is not alpha_m-closed.

Corollary: alpha_m-closed sets are closed under intersection.  As int and
cl are monotone, int(cl(A & B)) - (A & B) lies in
(int(cl(A)) - A) | (int(cl(B)) - B), and so in M.

Generators.  So every alpha_m-closed set is the intersection of the
meet-irreducible ones above it (X being the empty intersection), and
:func:`alpha_m_closed_meet_irreducibles` lists those from the table: X - {m}
for m in M, and X - (B | {y}) for y outside M and B a minimal nonempty open
set (B = U_m, m in M) inside U_y.

Proof.  First, y is in int(cl(C)) iff every such B inside U_y meets C.
U_y <= cl(C) iff U_z meets C for every z in U_y; each U_z holds some U_m
with m in M, and that U_m lies in U_y; and each B inside U_y is U_z for
its points z.  So C is alpha_m-closed iff, for each y outside C | M, some
minimal B inside U_y misses C.  Each listed set passes this test: y is the
one point outside M it drops, and B misses it.  Given alpha_m-closed C,
each y outside C has a listed set above C that misses y: X - {y} for y in
M, else X - (B | {y}) with B inside U_y missing C.  So C is the
intersection of the listed sets above it.  Each listed set D is
meet-irreducible, that is, its alpha_m-closed proper supersets do not
intersect to D.  For D = X - {m} the only one is X.  For
D = X - (B | {y}), two distinct minimal open sets are disjoint, so every
minimal B' inside U_y other than B lies in D; a superset adding points of
B alone meets them all and misses y, so it is not alpha_m-closed, and every
alpha_m-closed proper superset holds y.  Distinct m, or distinct (B, y),
give distinct sets, as y is the one point outside M that the set drops.

Queries read the space's per-point table and its mask of maximal points;
so does :func:`alpha_m_closed_meet_irreducibles`, which lists at most
|M| + (n - |M|)·|M| sets (5.7 on average over the spaces of at most 5
points, whose families average 18.7 members) and keeps none of them.
:func:`family`, :func:`family_set` and :func:`family_mask` walk all 2^n
subsets on every call, testing each with the class's predicate, and keep
nothing; no query of the library calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, ScopeTooLarge
from .space import (FiniteSpace, PointSet, _interior, canonical_subsets, check_space,
                    points_of)

CLASS_IDS = (
    "open", "closed", "clopen",
    "preopen", "preclosed", "semiopen", "semiclosed",
    "alpha_open", "alpha_closed", "beta_open", "beta_closed",
    "g_closed", "g_open", "alpha_m_closed", "alpha_m_open",
)

# widest space for class masks (one bit per subset), as the sweeps use them
MASK_LIMIT = 6


def _union(table, a: PointSet) -> PointSet:
    # union of the table's neighbourhoods over the members of a
    out = 0
    t = a
    while t:
        b = t & -t
        t ^= b
        out |= table[b.bit_length() - 1]
    return out


def is_preopen(space: FiniteSpace, a: PointSet) -> bool:
    i = space.interior(space.closure(a))
    return a & i == a


def is_preclosed(space: FiniteSpace, a: PointSet) -> bool:
    c = space.closure(space.interior(a))
    return c & a == c


def is_semiopen(space: FiniteSpace, a: PointSet) -> bool:
    c = space.closure(space.interior(a))
    return a & c == a


def is_semiclosed(space: FiniteSpace, a: PointSet) -> bool:
    i = space.interior(space.closure(a))
    return i & a == i


def is_alpha_open(space: FiniteSpace, a: PointSet) -> bool:
    i = space.interior(space.closure(space.interior(a)))
    return a & i == a


def is_alpha_closed(space: FiniteSpace, a: PointSet) -> bool:
    c = space.closure(space.interior(space.closure(a)))
    return c & a == c


def is_beta_open(space: FiniteSpace, a: PointSet) -> bool:
    c = space.closure(space.interior(space.closure(a)))
    return a & c == a


def is_beta_closed(space: FiniteSpace, a: PointSet) -> bool:
    i = space.interior(space.closure(space.interior(a)))
    return i & a == i


def is_g_closed(space: FiniteSpace, a: PointSet) -> bool:
    space.check_subset(a)
    return _g_closed(space, a)


def _g_closed(space: FiniteSpace, a: PointSet) -> bool:
    # cl(A) <= ker(A), the smallest open superset; a is not checked
    minn, full = space.min_nbhd, space.full
    c = full ^ _interior(minn, full ^ a)
    return c & _union(minn, a) == c


def is_g_open(space: FiniteSpace, a: PointSet) -> bool:
    return is_g_closed(space, space.complement(a))


def is_alpha_m_closed(space: FiniteSpace, a: PointSet) -> bool:
    space.check_subset(a)
    return _alpha_m_closed(space, a)


def _alpha_m_closed(space: FiniteSpace, a: PointSet) -> bool:
    # int(cl(A)) - A <= M; a is not checked
    minn, full = space.min_nbhd, space.full
    i = _interior(minn, full ^ _interior(minn, full ^ a))
    return i & (a | space.maximal) == i


def is_alpha_m_open(space: FiniteSpace, a: PointSet) -> bool:
    return is_alpha_m_closed(space, space.complement(a))


def alpha_m_closed_meet_irreducibles(space: FiniteSpace) -> list:
    """The meet-irreducible alpha_m-closed sets: X - {m} for each maximal
    point m, then X - (B | {y}) for each y outside M and each minimal
    nonempty open set B inside U_y.  Every alpha_m-closed set is an
    intersection of these (see the module docstring)."""
    minn, maximal, full = check_space(space).min_nbhd, space.maximal, space.full
    out = [full ^ (1 << m) for m in points_of(maximal)]
    for y in points_of(full ^ maximal):
        t = minn[y] & maximal          # B <= U_y iff B meets U_y
        while t:
            b = minn[(t & -t).bit_length() - 1]
            t &= ~b
            out.append(full ^ (b | 1 << y))
    return out


_PREDICATES = (
    FiniteSpace.is_open, FiniteSpace.is_closed, FiniteSpace.is_clopen,
    is_preopen, is_preclosed, is_semiopen, is_semiclosed,
    is_alpha_open, is_alpha_closed, is_beta_open, is_beta_closed,
    is_g_closed, is_g_open, is_alpha_m_closed, is_alpha_m_open,
)


@dataclass(frozen=True)
class ClassificationReport:
    """Flags for one subset, in fixed field order."""

    open: bool
    closed: bool
    clopen: bool
    preopen: bool
    preclosed: bool
    semiopen: bool
    semiclosed: bool
    alpha_open: bool
    alpha_closed: bool
    beta_open: bool
    beta_closed: bool
    g_closed: bool
    g_open: bool
    alpha_m_closed: bool
    alpha_m_open: bool

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in CLASS_IDS}


def classify_subset(space: FiniteSpace, a: PointSet) -> ClassificationReport:
    """All 15 class flags for one subset, from one pass over its interiors,
    closures and kernel.  As cl(X - A) = X - int(A), the complement is
    g-closed iff ker(X - A) | int(A) == X."""
    check_space(space).check_subset(a)
    minn, maximal, full = space.min_nbhd, space.maximal, space.full
    ia = _interior(minn, a)
    ca = full ^ _interior(minn, full ^ a)
    ica = _interior(minn, ca)                   # int(cl(A))
    cia = full ^ _interior(minn, full ^ ia)     # cl(int(A))
    icia = _interior(minn, cia)                 # int(cl(int(A)))
    cica = full ^ _interior(minn, full ^ ica)   # cl(int(cl(A)))
    return ClassificationReport(                # fields in CLASS_IDS order
        ia == a, ca == a, ia == a == ca,
        a & ica == a, cia & a == cia, a & cia == a, ica & a == ica,
        a & icia == a, cica & a == cica, a & cica == a, icia & a == icia,
        ca & _union(minn, a) == ca, _union(minn, full ^ a) | ia == full,
        ica & (a | maximal) == ica, a & (cia | maximal) == a)


def _class_index(class_id: str) -> int:
    if class_id not in CLASS_IDS:
        raise BadParams(f"unknown class id {class_id!r}")
    return CLASS_IDS.index(class_id)


def family_mask(space: FiniteSpace, class_id: str) -> int:
    """Family mask of one class (bit A set iff subset A belongs); n <= 6."""
    _class_index(class_id)
    if check_space(space).n > MASK_LIMIT:
        raise ScopeTooLarge(f"family masks need n <= {MASK_LIMIT}, got {space.n}")
    return sum(1 << a for a in family(space, class_id))


def family(space: FiniteSpace, class_id: str) -> list:
    """All subsets of one class, canonically ordered."""
    member = _PREDICATES[_class_index(class_id)]
    return [a for a in canonical_subsets(check_space(space).n) if member(space, a)]


def family_set(space: FiniteSpace, class_id: str) -> frozenset:
    """Same members as :func:`family`, as a frozenset for O(1) lookups."""
    return frozenset(family(space, class_id))

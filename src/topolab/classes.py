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

Queries read the space's per-point table and its mask of maximal points.
:func:`family` and :func:`family_set` walk all 2^n subsets once per space
and class, and keep the members in the space's own memo;
:func:`family_mask` asks the ``class_masks`` kernel afresh on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .space import FiniteSpace, PointSet, _interior, canonical_subsets, check_space

CLASS_IDS = _kernels.CLASS_ORDER

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
    c = space.closure(a)
    k = _union(space.min_nbhd, a)          # smallest open superset
    return c & k == c


def is_g_open(space: FiniteSpace, a: PointSet) -> bool:
    return is_g_closed(space, space.complement(a))


def is_alpha_m_closed(space: FiniteSpace, a: PointSet) -> bool:
    i = space.interior(space.closure(a))
    return i & (a | space.maximal) == i


def is_alpha_m_open(space: FiniteSpace, a: PointSet) -> bool:
    return is_alpha_m_closed(space, space.complement(a))


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
    i = _class_index(class_id)
    if check_space(space).n > MASK_LIMIT:
        raise ScopeTooLarge(f"family masks need n <= {MASK_LIMIT}, got {space.n}")
    return _kernels.class_masks(space.n, space.opens)[i]


def _family_tuple(space: FiniteSpace, i: int) -> tuple:
    members = check_space(space)._families.get(i)
    if members is None:
        member = _PREDICATES[i]
        members = space._families[i] = tuple(
            a for a in canonical_subsets(space.n) if member(space, a))
    return members


def family(space: FiniteSpace, class_id: str) -> list:
    """All subsets of one class, canonically ordered.  Kept on the space
    object, so later calls on the same object do not walk the subsets."""
    return list(_family_tuple(space, _class_index(class_id)))


def family_set(space: FiniteSpace, class_id: str) -> frozenset:
    """Same members as :func:`family`, as a frozenset for O(1) lookups."""
    return frozenset(_family_tuple(space, _class_index(class_id)))

"""Membership tests for the generalized open/closed set classes.

Definitions, writing int/cl for interior and closure inside a fixed space:

- preopen:       A <= int(cl(A));        preclosed:   cl(int(A)) <= A
- semiopen:      A <= cl(int(A));        semiclosed:  int(cl(A)) <= A
- alpha-open:    A <= int(cl(int(A)));   alpha-closed: cl(int(cl(A))) <= A
- beta-open:     A <= cl(int(cl(A)));    beta-closed: int(cl(int(A))) <= A
- g-closed:      cl(A) <= U for every open U >= A; g-open: complement g-closed
- alpha_m-closed: int(cl(A)) <= U for every alpha-open U >= A;
  alpha_m-open:  complement alpha_m-closed

The "for every open/alpha-open superset" conditions reduce to containment
in the union of the members' minimal (alpha-)neighbourhoods, which is the
smallest such superset.  Queries read the space's per-point tables; only
the sweeps and :func:`family_mask` build masks over all 2^n subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .space import FiniteSpace, PointSet, _interior, canonical_subsets

CLASS_IDS = _kernels.CLASS_ORDER

# widest space for class masks (one bit per subset), as the sweeps use them
MASK_LIMIT = 6


@lru_cache(maxsize=65536)
def _masks(space: FiniteSpace):
    return _kernels.class_masks(space.n, space.opens)


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
    k = _union(space.min_alpha_nbhd, a)    # smallest alpha-open superset
    return i & k == i


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
    closures and kernels.  The complement needs only its kernels: as
    cl(X - A) = X - int(A), it is g-closed iff ker(X - A) | int(A) == X, and
    as int(cl(X - A)) = X - cl(int(A)), alpha_m-closed iff
    aker(X - A) | cl(int(A)) == X."""
    space.check_subset(a)
    minn, aminn, full = space.min_nbhd, space.min_alpha_nbhd, space.full
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
        ica & _union(aminn, a) == ica, _union(aminn, full ^ a) | cia == full)


def _class_index(class_id: str) -> int:
    if class_id not in CLASS_IDS:
        raise BadParams(f"unknown class id {class_id!r}")
    return CLASS_IDS.index(class_id)


def family_mask(space: FiniteSpace, class_id: str) -> int:
    """Family mask of one class (bit A set iff subset A belongs); n <= 6."""
    i = _class_index(class_id)
    if space.n > MASK_LIMIT:
        raise ScopeTooLarge(f"family masks need n <= {MASK_LIMIT}, got {space.n}")
    return _masks(space)[i]


@lru_cache(maxsize=65536)
def _family_tuple(space: FiniteSpace, i: int) -> tuple:
    member = _PREDICATES[i]
    return tuple(a for a in canonical_subsets(space.n) if member(space, a))


def family(space: FiniteSpace, class_id: str) -> list:
    """All subsets of one class, canonically ordered.  Memoized per space."""
    return list(_family_tuple(space, _class_index(class_id)))


def family_set(space: FiniteSpace, class_id: str) -> frozenset:
    """Same members as :func:`family`, as a frozenset for O(1) lookups."""
    return frozenset(_family_tuple(space, _class_index(class_id)))

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
smallest such superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .space import FiniteSpace, PointSet, family_sort_key

CLASS_IDS = _kernels.CLASS_ORDER

# family masks describe subsets-of-2^n as single words only up to here
MASK_LIMIT = 6


@lru_cache(maxsize=65536)
def _masks(space: FiniteSpace):
    return _kernels.class_masks(space.n, space.opens)


def _kernel(space: FiniteSpace, a: PointSet) -> PointSet:
    # union of minimal open neighbourhoods over the members of a
    minn = space.min_nbhd
    out = 0
    t = a
    while t:
        b = t & -t
        t ^= b
        out |= minn[b.bit_length() - 1]
    return out


def _alpha_kernel(space: FiniteSpace, a: PointSet) -> PointSet:
    minn = space.min_alpha_nbhd
    out = 0
    t = a
    while t:
        b = t & -t
        t ^= b
        out |= minn[b.bit_length() - 1]
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
    c = space.closure(a)
    k = _kernel(space, a)
    return c & k == c


def is_g_open(space: FiniteSpace, a: PointSet) -> bool:
    return is_g_closed(space, space.complement(a))


def is_alpha_m_closed(space: FiniteSpace, a: PointSet) -> bool:
    space.check_subset(a)
    i = space.interior(space.closure(a))
    k = _alpha_kernel(space, a)
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
    """All 15 class flags for one subset."""
    space.check_subset(a)
    if space.n <= MASK_LIMIT:
        masks = _masks(space)
        return ClassificationReport(*(bool(m >> a & 1) for m in masks))
    return ClassificationReport(*(p(space, a) for p in _PREDICATES))


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
    if space.n <= MASK_LIMIT:
        fm = _masks(space)[i]
        members = [a for a in space.subsets() if fm >> a & 1]
    else:
        members = [a for a in space.subsets() if _PREDICATES[i](space, a)]
    members.sort(key=family_sort_key)
    return tuple(members)


def family(space: FiniteSpace, class_id: str) -> list:
    """All subsets of one class, canonically ordered.  Memoized per space."""
    return list(_family_tuple(space, _class_index(class_id)))


def family_set(space: FiniteSpace, class_id: str) -> frozenset:
    """Same members as :func:`family`, as a frozenset for O(1) lookups."""
    return frozenset(_family_tuple(space, _class_index(class_id)))

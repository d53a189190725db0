"""Exhaustive enumeration of labeled topologies, canonical forms, and maps.

Spaces stream in a fixed canonical order: ascending point count, then
lexicographic on the canonically-sorted opens tuple.  The order is stable
across runs.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from typing import TYPE_CHECKING, Iterator

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .space import FiniteSpace, _opens, check_space, points_of

if TYPE_CHECKING:
    from .maps import SpaceMap

ENUMERATION_CAP = 5
# canonical_form tries n! relabelings and expands each distinct table to its
# opens.  On a 2-vCPU host the symmetric discrete(7), one table, takes 0.01 s,
# and the rigid 7-point chain, 5,040 tables, 0.08 s; the 8-point chain 0.78 s
CANONICAL_FORM_CAP = 7


def _check_scope(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadParams(f"point count {n!r} must be a non-negative integer")
    if n > ENUMERATION_CAP:
        raise ScopeTooLarge(f"enumeration is capped at {ENUMERATION_CAP} points, got {n}")


# one stream per point count, kept for the process: stream positions refer to it
@cache
def _labeled(n: int) -> tuple:
    return tuple(sorted((FiniteSpace._unchecked(n, minn)
                         for minn in _kernels.enumerate_masks(n)),
                        key=lambda s: s.opens))


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """All labeled topologies on n points, in canonical stream order."""
    _check_scope(n)
    yield from _labeled(n)


def relabel(space: FiniteSpace, perm) -> FiniteSpace:
    """Push the topology through the point relabeling x -> perm[x].

    BadParams if ``space`` is not a FiniteSpace, or ``perm`` is not a
    permutation of its points.
    """
    check_space(space)
    try:
        perm = tuple(perm)
    except TypeError:
        raise BadParams(f"{perm!r} is not a sequence of point indices") from None
    for x in perm:
        if not isinstance(x, int) or isinstance(x, bool):
            raise BadParams(f"permutation entry {x!r} is not an integer")
    if sorted(perm) != list(range(space.n)):
        raise BadParams(f"{perm!r} is not a permutation of 0..{space.n - 1}")
    return FiniteSpace(space.n, _permuted([points_of(u) for u in space.min_nbhd], perm))


def _permuted(lists, perm) -> tuple:
    # the table of the relabeling: U_x's points, ``lists[x]``, carried to
    # perm[y], become the neighbourhood of perm[x]
    table = [0] * len(perm)
    for x, ys in enumerate(lists):
        u = 0
        for y in ys:
            u |= 1 << perm[y]
        table[perm[x]] = u
    return tuple(table)


def _orbit(space: FiniteSpace) -> frozenset:
    """The neighbourhood table of every relabeling of the space.

    A symmetric space has fewer distinct tables than permutations.  The
    tables are permuted directly, with none of ``relabel``'s checks.
    """
    lists = [points_of(u) for u in space.min_nbhd]
    return frozenset(_permuted(lists, p) for p in permutations(range(space.n)))


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Least relabeling of the space; equal iff two spaces are homeomorphic.

    The least relabeling compares opens tuples, so it is the first member of
    the orbit in the labeled stream order.  It tries all n! relabelings, and
    expands only the distinct tables to opens, so spaces above
    ``CANONICAL_FORM_CAP`` points raise ``ScopeTooLarge``.  Only the least
    table is built into a space.  BadParams if ``space`` is not a
    FiniteSpace.
    """
    if check_space(space).n > CANONICAL_FORM_CAP:
        raise ScopeTooLarge(
            f"canonical form is capped at {CANONICAL_FORM_CAP} points, got {space.n}")
    return FiniteSpace(space.n, min(_orbit(space), key=_opens))


# one class walk per point count, kept for the process like the stream
@cache
def _classes(n: int) -> tuple:
    """Each homeomorphism class on n points as (first stream member, orbit),
    in stream order.  The orbit is the frozenset of its members'
    neighbourhood tables, so its size is n!/|Aut|.

    The stream is sorted by opens, so a class's first member in it is its
    least relabeling.  The stream is walked once: a space starts a new
    class unless an earlier orbit holds it, so each class's orbit is
    permuted once.
    """
    seen, classes = set(), []
    for s in _labeled(n):
        if s.min_nbhd not in seen:
            orbit = _orbit(s)
            seen |= orbit
            classes.append((s, orbit))
    return tuple(classes)


def enumerate_topologies_up_to_homeo(n: int) -> Iterator[FiniteSpace]:
    """One representative per homeomorphism class, in stream order.

    Each representative is the class's least relabeling, as
    ``canonical_form`` gives it (see ``_classes``).
    """
    _check_scope(n)
    for s, _ in _classes(n):
        yield s


def spaces_up_to(max_points: int) -> tuple:
    """All labeled topologies with 0..max_points points, stream-ordered."""
    _check_scope(max_points)
    out = []
    for n in range(max_points + 1):
        out.extend(_labeled(n))
    return tuple(out)


def enumerate_maps(domain: FiniteSpace, codomain: FiniteSpace) -> Iterator[SpaceMap]:
    """All maps domain -> codomain in rank order."""
    # imported on first call, so that enumerating spaces loads no map layer
    from .maps import SpaceMap

    check_space(domain, "domain")
    check_space(codomain, "codomain")
    if domain.n > ENUMERATION_CAP or codomain.n > ENUMERATION_CAP:
        raise ScopeTooLarge(
            f"map enumeration is capped at {ENUMERATION_CAP}-point spaces")
    for assign in product(range(codomain.n), repeat=domain.n):
        yield SpaceMap(domain, codomain, assign)

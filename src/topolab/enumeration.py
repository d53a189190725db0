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
from .space import FiniteSpace, canonical_subsets, check_space, points_of

if TYPE_CHECKING:
    from .maps import SpaceMap

ENUMERATION_CAP = 5
# canonical_form tries n! relabelings and keys each distinct table with
# _key(n).  On a 2-vCPU host the symmetric discrete(7), one table, takes
# 0.007 s (0.016 s on the first call, which builds _key(7)), and the rigid
# 7-point chain, 5,040 tables, 0.02-0.03 s; the 8-point chain 0.2-0.27 s
CANONICAL_FORM_CAP = 7


def _check_scope(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadParams(f"point count {n!r} must be a non-negative integer")
    if n > ENUMERATION_CAP:
        raise ScopeTooLarge(f"enumeration is capped at {ENUMERATION_CAP} points, got {n}")


@cache
def _key(n: int):
    """The stream's sort key for neighbourhood tables on n <= 8 points.

    Lane r of a word is its byte r, and stands for the r-th subset A in
    canonical order.  ``values`` holds A itself in lane r.  ``words[x][u]``
    has 0xFF in the lanes of the A that are up-closed at x for U_x = u: x
    not in A, or u inside A.  The opens of a table are exactly its up-sets,
    the A up-closed at each point (every open holding x holds U_x, and an
    up-set is the union of the U_x over its points), so ``values`` ANDed
    with the n words of a table holds each open in its lane and 0 in every
    other.  Every open of n <= 8 points is below 256, so it fits its byte,
    and only the empty set reads 0 among the opens.  The key is that word's
    bytes with the zero lanes deleted: the opens in canonical order, less
    the empty set that begins every opens tuple.  So comparing two keys
    compares the opens tuples, element by element with a proper prefix
    first.  No union is formed and no space is built.
    """
    subsets = list(canonical_subsets(n))
    values = int.from_bytes(bytes(subsets), "little")
    words = tuple([int.from_bytes(bytes([0xFF if not a >> x & 1 or a & u == u else 0
                                         for a in subsets]), "little")
                   for u in range(1 << n)] for x in range(n))
    size = 1 << n

    def key(minn):
        w = values
        for lane, u in zip(words, minn):
            w &= lane[u]
        return w.to_bytes(size, "little").translate(None, b"\0")

    return key


# one sorted table stream per point count, kept for the process
@cache
def _tables(n: int) -> tuple:
    """The neighbourhood tables of the labeled topologies on n points,
    sorted by their opens tuples through ``_key(n)``."""
    return tuple(sorted(_kernels.enumerate_masks(n), key=_key(n)))


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """All labeled topologies on n points, in canonical stream order: one
    space per table of ``_tables(n)``, built as it is yielded."""
    _check_scope(n)
    for minn in _tables(n):
        yield FiniteSpace._unchecked(n, minn)


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
    compares only the distinct tables, by the stream's ``_key(n)``, so
    spaces above ``CANONICAL_FORM_CAP`` points raise ``ScopeTooLarge``.
    Only the least table is built into a space.  BadParams if ``space`` is
    not a FiniteSpace.
    """
    if check_space(space).n > CANONICAL_FORM_CAP:
        raise ScopeTooLarge(
            f"canonical form is capped at {CANONICAL_FORM_CAP} points, got {space.n}")
    return FiniteSpace(space.n, min(_orbit(space), key=_key(space.n)))


def _image_tables(n: int) -> list:
    """Per permutation p of n points, (p^-1, the image of every mask under
    p).  Each image is the image of the mask without its lowest point, joined
    to that point's image, so a table costs 2^n steps."""
    tables = []
    for p in permutations(range(n)):
        image = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            image[m] = image[m ^ low] | 1 << p[low.bit_length() - 1]
        inverse = [0] * n
        for x, y in enumerate(p):
            inverse[y] = x
        tables.append((inverse, image))
    return tables


# one class walk per point count, kept for the process like the sorted tables
@cache
def _classes(n: int) -> tuple:
    """Each homeomorphism class on n points as (first stream member, orbit),
    in stream order.  The orbit is the frozenset of its members'
    neighbourhood tables, so its size is n!/|Aut|.

    The stream is sorted by opens, so a class's first member in it is its
    least relabeling.  The sorted tables, ``_tables(n)``, are walked once:
    a table starts a new class unless an earlier orbit holds it, and only
    these tables are built into spaces.  Its orbit is read off the image
    tables, built once per call: the relabeling by p gives p[x] the image
    of U_x, so its table is n lookups.  The tables hold n!·2^n entries,
    which pays at n <= 5 across the classes; ``_orbit`` walks the points of
    a single space instead.
    """
    images = _image_tables(n)
    seen, classes = set(), []
    for minn in _tables(n):
        if minn not in seen:
            orbit = frozenset(tuple([image[minn[x]] for x in inverse])
                              for inverse, image in images)
            seen |= orbit
            classes.append((FiniteSpace._unchecked(n, minn), orbit))
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
    return tuple(FiniteSpace._unchecked(n, minn)
                 for n in range(max_points + 1) for minn in _tables(n))


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

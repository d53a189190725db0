"""Exhaustive enumeration of labeled topologies, canonical forms, and maps.

Spaces stream in a fixed canonical order: ascending point count, then
lexicographic on the canonically-sorted opens tuple.  The order is stable
across runs.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from functools import cache
from itertools import groupby, permutations, product
from math import factorial
from typing import TYPE_CHECKING, Iterator

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .space import FiniteSpace, canonical_subsets, check_space, points_of

if TYPE_CHECKING:
    from .maps import SpaceMap

ENUMERATION_CAP = 5
# canonical_form tries only the relabelings that list the points by
# non-decreasing |U_x|, and keys each distinct table with _key(n).  On a
# 2-vCPU host discrete(7) and the indiscrete 7-point space, 5,040 of them
# giving one table, take 0.007 s and 0.016 s (0.01 s more on the first call,
# which builds _key(7)), and discrete(8) 0.07 s.  No 7-point space gives
# more than 72 distinct tables; the rigid 7-point chain tries one, in 0.03 ms
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
    if not isinstance(perm, tuple):
        # a set or mapping has no order that could stand for x -> perm[x]
        if isinstance(perm, (Set, Mapping)):
            raise BadParams(f"{perm!r} is not a sequence of point indices")
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


def _run_images(table) -> Iterator[tuple]:
    """The image of a table with |U_0| <= ... <= |U_{n-1}| under each
    relabeling that permutes the points within each run of one |U_x|: one
    per element of the group H of ``_classes``, whose order is the product
    of the factorials of the run lengths."""
    size = [u.bit_count() for u in table]
    runs = [tuple(run) for _, run in groupby(range(len(table)), key=size.__getitem__)]
    lists = [points_of(u) for u in table]
    return (_permuted(lists, sum(p, ())) for p in product(*map(permutations, runs)))


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Least relabeling of the space; equal iff two spaces are homeomorphic.

    The least relabeling compares opens tuples, so it is the first member of
    the orbit in the labeled stream order, and it lists the points by
    non-decreasing |U_x| (see ``_classes``).  So it relabels the points in
    that order once, and tries only the ``_run_images`` of that table; the
    distinct ones are compared by the stream's ``_key(n)``.  There are
    still n! images of ``discrete(n)``, so spaces above
    ``CANONICAL_FORM_CAP`` points raise ``ScopeTooLarge``.  Only the least
    table is built into a space.  BadParams if ``space`` is not a
    FiniteSpace.
    """
    if check_space(space).n > CANONICAL_FORM_CAP:
        raise ScopeTooLarge(
            f"canonical form is capped at {CANONICAL_FORM_CAP} points, got {space.n}")
    minn = space.min_nbhd
    # the relabeling that lists the points by |U_x|, ties in label order
    labels = [0] * space.n
    for label, x in enumerate(sorted(range(space.n), key=lambda x: minn[x].bit_count())):
        labels[x] = label
    table = _permuted([points_of(u) for u in minn], labels)
    return FiniteSpace(space.n, min(set(_run_images(table)), key=_key(space.n)))


# one class walk per point count, kept for the process like the sorted tables
@cache
def _classes(n: int) -> tuple:
    """Each homeomorphism class on n points as (least relabeling, orbit
    size), in stream order.  The orbit size is n!/|Aut|.

    The least relabeling of a space lists its points by non-decreasing
    |U_x|.  Proof by swap: say |U_y| = j < |U_w| with w labeled below y.
    An open holding a point holds its U, so no open of size below j holds
    y or w; of the opens of size j, some hold y (U_y is one) and none
    hold w.  Swapping the labels of y and w leaves the opens of each size
    below j as they are, and in each open of size j that holds y trades
    the bit of y's label for the lower bit of w's: the sorted list of the
    opens of size j gets lower.  The stream compares opens tuples, which
    list the opens by size first, so the swapped space comes earlier.

    So the classes are read off the size-sorted tables of
    ``_kernels.enumerate_masks``, 286 of the 6,942 at n = 5, sorted by
    ``_key(n)``.  Each table that no earlier orbit holds is its class's
    least relabeling, and only these are built into spaces.  Its images
    under H, its ``_run_images``, are marked seen: they are
    all the size-sorted tables of its class, since a relabeling between
    two size-sorted tables keeps the runs of one |U_x|.  Every automorphism
    keeps |U_x|, so Aut lies in H, and the orbit size n!/|Aut| is
    n!·|H·rep|/|H|.
    """
    seen, classes = set(), []
    for minn in sorted(_kernels.enumerate_masks(n, size_sorted=True), key=_key(n)):
        if minn not in seen:
            images = list(_run_images(minn))
            distinct = set(images)
            seen |= distinct
            classes.append((FiniteSpace._unchecked(n, minn),
                            factorial(n) * len(distinct) // len(images)))
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

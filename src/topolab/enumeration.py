"""Exhaustive enumeration of labeled topologies, canonical forms, and maps.

Spaces stream in a fixed canonical order: ascending point count, then
lexicographic on the canonically-sorted opens tuple.  The order is stable
across runs, so shards of the stream can be recombined
deterministically.
"""

from __future__ import annotations

from itertools import islice, permutations, product
from typing import Iterator

from . import _kernels
from .errors import BadParams, ScopeTooLarge
from .maps import SpaceMap
from .space import FiniteSpace, _from_min_nbhds, check_space, family_sort_key

ENUMERATION_CAP = 5
# canonical_form tries n! relabelings: on a 2-vCPU host discrete(7) takes
# 0.75 s and discrete(8) 13 s
CANONICAL_FORM_CAP = 7

_labeled_cache: dict = {}


def _check_scope(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadParams(f"point count {n!r} must be a non-negative integer")
    if n > ENUMERATION_CAP:
        raise ScopeTooLarge(f"enumeration is capped at {ENUMERATION_CAP} points, got {n}")


def _check_shard(shard):
    if shard is None:
        return
    if not (isinstance(shard, (tuple, list)) and len(shard) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in shard)
            and 0 <= shard[0] < shard[1]):
        raise BadParams(f"shard {shard!r} must be (index, count) with 0 <= index < count")


def _labeled(n: int) -> tuple:
    spaces = _labeled_cache.get(n)
    if spaces is None:
        spaces = _labeled_cache[n] = tuple(sorted(
            (_from_min_nbhds(n, minn) for minn in _kernels.enumerate_masks(n)),
            key=lambda s: s.opens))
    return spaces


def enumerate_topologies(n: int, shard=None) -> Iterator[FiniteSpace]:
    """All labeled topologies on n points, in canonical stream order.

    ``shard=(i, k)`` yields every k-th space starting at position i, so k
    disjoint shards partition the stream.
    """
    _check_scope(n)
    _check_shard(shard)
    spaces = _labeled(n)
    if shard is None:
        yield from spaces
    else:
        i, k = shard
        yield from spaces[i::k]


def relabel(space: FiniteSpace, perm) -> FiniteSpace:
    """Push the topology through the point relabeling x -> perm[x]."""
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
    opens = []
    for u in space.opens:
        v = 0
        t = u
        while t:
            b = t & -t
            t ^= b
            v |= 1 << perm[b.bit_length() - 1]
        opens.append(v)
    opens.sort(key=family_sort_key)
    return FiniteSpace(space.n, tuple(opens))


def _orbit(space: FiniteSpace) -> tuple[FiniteSpace, set]:
    """(least relabeling, opens of every relabeling) of the space.

    The least relabeling compares opens tuples, so it is the first member of
    the orbit in the labeled stream order.
    """
    orbit = {relabel(space, p).opens for p in permutations(range(space.n))}
    return FiniteSpace(space.n, min(orbit)), orbit


def canonical_form(space: FiniteSpace) -> FiniteSpace:
    """Least relabeling of the space; equal iff two spaces are homeomorphic.

    It tries all n! relabelings, so spaces above ``CANONICAL_FORM_CAP``
    points raise ``ScopeTooLarge``.
    """
    if check_space(space).n > CANONICAL_FORM_CAP:
        raise ScopeTooLarge(
            f"canonical form is capped at {CANONICAL_FORM_CAP} points, got {space.n}")
    return _orbit(space)[0]


def _homeo_classes(n: int) -> Iterator[FiniteSpace]:
    seen = set()
    for s in _labeled(n):
        if s.opens not in seen:
            least, orbit = _orbit(s)
            seen |= orbit
            yield least


def enumerate_topologies_up_to_homeo(n: int, shard=None) -> Iterator[FiniteSpace]:
    """One representative per homeomorphism class, in stream order.

    Each representative is the class's least relabeling, as
    ``canonical_form`` gives it.  The labeled stream is walked once: a space
    starts a new class unless an earlier orbit holds it, so each class's
    orbit is relabeled once.  ``shard=(i, k)`` yields every k-th
    representative starting at position i.
    """
    _check_scope(n)
    _check_shard(shard)
    reps = _homeo_classes(n)
    if shard is None:
        yield from reps
    else:
        i, k = shard
        yield from islice(reps, i, None, k)


def spaces_up_to(max_points: int) -> tuple:
    """All labeled topologies with 0..max_points points, stream-ordered."""
    _check_scope(max_points)
    out = []
    for n in range(max_points + 1):
        out.extend(_labeled(n))
    return tuple(out)


def enumerate_maps(domain: FiniteSpace, codomain: FiniteSpace,
                   surjective_only: bool = False,
                   bijective_only: bool = False) -> Iterator[SpaceMap]:
    """All maps domain -> codomain in rank order, optionally filtered."""
    check_space(domain, "domain")
    check_space(codomain, "codomain")
    if domain.n > ENUMERATION_CAP or codomain.n > ENUMERATION_CAP:
        raise ScopeTooLarge(
            f"map enumeration is capped at {ENUMERATION_CAP}-point spaces")
    full = codomain.full
    for assign in product(range(codomain.n), repeat=domain.n):
        if bijective_only or surjective_only:
            img = 0
            for y in assign:
                img |= 1 << y
            if img != full:
                continue
            if bijective_only and len(set(assign)) != domain.n:
                continue
        yield SpaceMap(domain, codomain, assign)

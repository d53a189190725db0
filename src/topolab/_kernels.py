"""The hot kernels, in pure Python.

Conventions:

- a subset of the ground set {0..n-1} is an int bitmask (bit p = point p);
- a topology is its neighbourhood table, the tuple (U_0, ..., U_{n-1}) of
  per-point minimal open neighbourhoods, as ``FiniteSpace.min_nbhd`` holds
  it; the kernels read and return no other form of a space;
- a family of subsets is an int "family mask" with bit A set iff the subset
  whose bitmask value is A belongs to the family (used for n <= 6);
- maps X -> Y are ranked like ``itertools.product(range(nY), repeat=nX)``:
  index = sum(a[x] * nY**(nX-1-x)), the last coordinate varying fastest;
- a set of maps X -> Y is an int "rank bitset" with bit r set iff the map of
  rank r belongs to it.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from .space import _interior, _maximal

# the one kernel implementation; the benchmark prints topolab.BACKEND
BACKEND = "pure"

def space_pack(n, minn):
    """Derived tables for the neighbourhood table ``minn`` of an n-point
    space.

    Returns ``(maximal, interior_table, closure_table)``: the mask of
    maximal points (see ``FiniteSpace.maximal``), and full interior/closure
    lookup tables indexed by subset bitmask.  Only :func:`class_masks` calls
    it; it is a function of its own because the benchmark's tracer times it
    by name.
    """
    full = (1 << n) - 1
    int_t = tuple(_interior(minn, a) for a in range(full + 1))
    cl_t = tuple(full ^ int_t[full ^ a] for a in range(full + 1))
    return _maximal(minn), int_t, cl_t


def class_masks(n, minn):
    """The family masks of the open, closed, alpha_m-closed and alpha_m-open
    sets of the n-point space with neighbourhood table ``minn``, in that
    order: the families that :func:`map_masks` reads on each side.  The
    alpha_m classes are the semiclosed and semiopen sets up to the maximal
    points (see :mod:`topolab.classes`).  Requires n <= 6."""
    maximal, int_t, cl_t = space_pack(n, minn)
    open_fm = closed_fm = am_closed = am_open = 0
    for a in range(1 << n):
        bit = 1 << a
        ia = int_t[a]
        ca = cl_t[a]
        if ia == a:
            open_fm |= bit
        if ca == a:
            closed_fm |= bit
        ica = int_t[ca]      # int(cl(A))
        if ica & (a | maximal) == ica:
            am_closed |= bit
        if a & (cl_t[ia] | maximal) == a:
            am_open |= bit
    return open_fm, closed_fm, am_closed, am_open


class SubsetTables(NamedTuple):
    """How every map of one shape (nX, nY) carries subsets, as rank bitsets.

    ``pre_ranks`` holds one column per subset D of Y, for preimages, and
    ``img_ranks`` one per subset S of X, for images.  A column is a pair
    ``(reach, nibbles)``: ``reach`` is the family mask of the sets that D is
    carried to by some map, and ``nibbles[k][m]`` is the rank bitset of the
    maps that carry D to one of the sets 4k + i, i a bit of the 4-bit m.
    The maps carrying D into any family G are then one table entry per
    nonzero nibble of G & reach.
    """
    pre_ranks: list
    img_ranks: list


def _rank_columns(rows, width):
    """The columns of :class:`SubsetTables` for ``rows[r][s]``, s < width."""
    columns = []
    for s in range(width):
        by_target = {}
        for r, row in enumerate(rows):
            t = row[s]
            by_target[t] = by_target.get(t, 0) | 1 << r
        reach = sum(1 << t for t in by_target)
        nibbles = []
        for base in range(0, reach.bit_length(), 4):
            table = [0] * 16
            for m in range(1, 16):
                low = m & -m
                table[m] = table[m ^ low] | by_target.get(base + low.bit_length() - 1, 0)
            nibbles.append(table)
        columns.append((reach, nibbles))
    return columns


# one entry per shape, so at most 36 up to 5 points
@cache
def subset_tables(nx, ny):
    """The :class:`SubsetTables` of the maps from nX to nY points."""
    preimages, images = [], []
    for assign in product(range(ny), repeat=nx):     # rank order
        single = [0] * ny
        for x, y in enumerate(assign):
            single[y] |= 1 << x
        # each subset's entry extends that of the subset less its low bit
        pre = [0] * (1 << ny)
        for d in range(1, 1 << ny):
            low = d & -d
            pre[d] = pre[d ^ low] | single[low.bit_length() - 1]
        img = [0] * (1 << nx)
        for a in range(1, 1 << nx):
            low = a & -a
            img[a] = img[a ^ low] | 1 << assign[low.bit_length() - 1]
        preimages.append(pre)
        images.append(img)
    return SubsetTables(_rank_columns(preimages, 1 << ny), _rank_columns(images, 1 << nx))


def _carried(columns, members, family, ranks):
    """The maps among ``ranks`` that carry every subset in the family mask
    ``members`` into the family mask ``family``: the AND over the members s
    of the OR over the targets t in ``family`` of the maps taking s to t."""
    while members and ranks:
        low = members & -members
        members ^= low
        reach, nibbles = columns[low.bit_length() - 1]
        inside = family & reach
        if inside == reach:
            continue
        hit = 0
        for table in nibbles:
            if not inside:
                break
            hit |= table[inside & 15]
            inside >>= 4
        ranks &= hit
    return ranks


def map_masks(nx, x_families, ny, y_families):
    """Property rank bitsets over all nY**nX maps X -> Y, keyed by the
    property names of :mod:`topolab.maps`, with the two that the claims
    derive from them.

    ``x_families`` and ``y_families`` are the :func:`class_masks` of X and
    of Y.  Every property but ``bijective`` and
    ``inverse_alpha_m_continuous`` says that each member of one family is
    carried (by preimage or image) into another, and is folded from the
    columns of :func:`subset_tables`, all maps at once.
    ``open_preimages_alpha_m_open`` is ``alpha_m_continuous`` by complements
    (see :mod:`topolab.maps`), so the alpha_m-open sets of X are not read;
    no claim reads ``open_map``, so it has no key.  Requires nX, nY <= 5.
    """
    x_open, x_closed, x_amc, _ = x_families
    y_open, y_closed, y_amc, y_amo = y_families
    tables = subset_tables(nx, ny)
    pre, img = tables.pre_ranks, tables.img_ranks
    every = (1 << ny ** nx) - 1
    amcm = _carried(img, x_closed, y_amc, every)
    surj = _carried(img, 1 << (1 << nx) - 1, 1 << (1 << ny) - 1, every)
    bij = surj if nx == ny else 0
    amc = _carried(pre, y_closed, x_amc, every)
    return {"continuous": _carried(pre, y_open, x_open, every),
            "closed_map": _carried(img, x_closed, y_closed, every),
            "surjective": surj,
            "bijective": bij,
            "alpha_m_continuous": amc,
            "alpha_m_irresolute": _carried(pre, y_amc, x_amc, every),
            "alpha_m_closed_map": amcm,
            "alpha_m_open_map": _carried(img, x_open, y_amo, every),
            "open_preimages_alpha_m_open": amc,
            # a bijection's inverse pulls each closed C of X back to f(C)
            "inverse_alpha_m_continuous": bij & amcm}


def enumerate_masks(n, size_sorted=False):
    """Neighbourhood tables of all labeled topologies on n points, one tuple
    (U_0, ..., U_{n-1}) per topology, in lexicographic order; with
    ``size_sorted``, only those with |U_0| <= ... <= |U_{n-1}|.

    Depth-first, U_0 first.  A table is a topology's iff, for all x and y,
    x is in U_x, and y in U_x implies U_y <= U_x.  For an earlier y with x
    in U_y, that says U_x <= U_y; so U_x is x joined to a submask of the
    rest of the intersection of those U_y.  The walk visits only these, in
    ascending order, and tests each for the other half: every earlier y in
    U_x has U_y <= U_x.  Each mask it skips lacks x or fails the first half,
    and ascending submasks are ascending masks, so the tables come out in
    the order a walk of all 2^n masks per point would give.  With
    ``size_sorted`` it also drops every branch whose last U_x is smaller
    than the one before, on entry, so that the full walk pays one test per
    branch; the homeomorphism classes are read off these tables alone (see
    ``enumeration._classes``).  The benchmark's tracer times it by this
    name, so the name stays.  It builds the tables as one list, so memory
    bounds n: 209,527 tables at n = 6 (2,366 size-sorted), and 9,535,241
    at n = 7 (25,902 size-sorted).
    """
    full = (1 << n) - 1
    minn = [0] * n
    out = []

    def extend(x):
        if size_sorted and x > 1 and minn[x - 1].bit_count() < minn[x - 2].bit_count():
            return
        if x == n:
            out.append(tuple(minn))
            return
        bx = 1 << x
        rest = full
        for y in range(x):
            if minn[y] & bx:
                rest &= minn[y]
        rest &= ~bx
        sub = 0
        while True:
            cand = sub | bx
            low = cand & (bx - 1)       # the earlier points in U_x
            while low:
                b = low & -low
                low ^= b
                my = minn[b.bit_length() - 1]
                if my & cand != my:
                    break
            else:
                minn[x] = cand
                extend(x + 1)
            if sub == rest:
                break
            sub = (sub - rest) & rest

    extend(0)
    return out


def composition_failures(nx, ny, nz, f_indices, g_indices, target_bits):
    """The number of (f, g) pairs, f among the ranks ``f_indices`` of the
    maps from nX to nY points and g among the ranks ``g_indices`` of those
    from nY to nZ, whose composite misses ``target_bits``: a bitset over
    the nZ**nX composite ranks in which a clear bit means the composite
    fails the conclusion.

    No sweep calls it: ``verifier._sweep_chunk`` counts the composition
    claims from f alone.  The tests count every pair of the composition
    claims with it, as an oracle, and the benchmark's tracer wraps it by
    name.
    """
    # here, not at the top: the enumeration loads this module, and must not
    # load the map and class layers
    from .maps import assignment_from_index

    if not f_indices or not g_indices:
        return 0
    count = 0
    f_assign = [assignment_from_index(fi, nx, ny) for fi in f_indices]
    g_assign = [assignment_from_index(gi, ny, nz) for gi in g_indices]
    weights = [nz ** (nx - 1 - x) for x in range(nx)]
    for fa in f_assign:
        for ga in g_assign:
            c = 0
            for x in range(nx):
                c += ga[fa[x]] * weights[x]
            if not target_bits >> c & 1:
                count += 1
    return count

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

# order of the tuple returned by map_masks: the one-map properties in
# topolab.maps.MAP_PREDICATES order, less open_map, which no claim reads, then
# the two that the claims derive from them.  Spelled out, not derived from
# MAP_PREDICATES, so that the enumeration, which loads this module, does not
# load the map and class layers; tests/test_kernels.py checks the order.
MAP_PROP_ORDER = (
    "continuous", "closed_map", "surjective", "bijective", "alpha_m_continuous",
    "alpha_m_irresolute", "alpha_m_closed_map", "alpha_m_open_map",
    "open_preimages_alpha_m_open", "inverse_alpha_m_continuous")


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
    sets of the n-point space with neighbourhood table ``minn``: the four
    that :func:`map_masks` reads on each side, in its argument order.  The
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


def map_masks(nx, x_open, x_closed, x_amc, x_amo,
              ny, y_open, y_closed, y_amc, y_amo):
    """Property rank bitsets over all nY**nX maps X -> Y, in MAP_PROP_ORDER.

    Each argument after the two sizes is a family mask of the named class
    on that side.  Every property but ``bijective`` and
    ``inverse_alpha_m_continuous`` says that each member of one family is
    carried (by preimage or image) into another, and is folded from the
    columns of :func:`subset_tables`, all maps at once.
    ``open_preimages_alpha_m_open`` is ``alpha_m_continuous`` by complements
    (see :mod:`topolab.maps`), so ``x_amo`` is not read; no claim reads
    ``open_map``, so it has no column.  Requires nX, nY <= 5.
    """
    tables = subset_tables(nx, ny)
    pre, img = tables.pre_ranks, tables.img_ranks
    every = (1 << ny ** nx) - 1
    amcm = _carried(img, x_closed, y_amc, every)
    surj = _carried(img, 1 << (1 << nx) - 1, 1 << (1 << ny) - 1, every)
    bij = surj if nx == ny else 0
    amc = _carried(pre, y_closed, x_amc, every)
    return (_carried(pre, y_open, x_open, every),
            _carried(img, x_closed, y_closed, every),
            surj,
            bij,
            amc,
            _carried(pre, y_amc, x_amc, every),
            amcm,
            _carried(img, x_open, y_amo, every),
            amc,
            # a bijection's inverse pulls each closed C of X back to f(C)
            bij & amcm)


def enumerate_masks(n):
    """Neighbourhood tables of all labeled topologies on n points, one tuple
    (U_0, ..., U_{n-1}) per topology, in lexicographic order.

    Depth-first, U_0 first.  A table is a topology's iff, for all x and y,
    x is in U_x, and y in U_x implies U_y <= U_x.  For an earlier y with x
    in U_y, that says U_x <= U_y; so U_x is x joined to a submask of the
    rest of the intersection of those U_y.  The walk visits only these, in
    ascending order, and tests each for the other half: every earlier y in
    U_x has U_y <= U_x.  Each mask it skips lacks x or fails the first half,
    and ascending submasks are ascending masks, so the tables come out in
    the order a walk of all 2^n masks per point would give.  The benchmark's
    tracer times it by this name, so the name stays.  Requires n <= 5.
    """
    full = (1 << n) - 1
    minn = [0] * n
    out = []

    def extend(x):
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

    It is the verifier's exact count of the composition claims' failing
    pairs, for the f that its one-sided test cannot clear (see
    ``verifier._sweep_chunk``); no sweep over T_alpha_m middle spaces has
    any.  The tests count the whole composition fold with it, and the
    benchmark's tracer wraps it by name.
    """
    from .maps import assignment_from_index     # here, not at the top: see MAP_PROP_ORDER

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

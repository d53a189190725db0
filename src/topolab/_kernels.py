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

from functools import lru_cache
from typing import NamedTuple

from .space import _interior, _maximal

# the one kernel implementation; the benchmark prints topolab.BACKEND
BACKEND = "pure"

# order of the tuple returned by map_masks
MAP_PROP_ORDER = (
    "continuous", "open_map", "closed_map", "surjective", "bijective",
    "alpha_m_continuous", "alpha_m_irresolute", "alpha_m_closed_map",
    "alpha_m_open_map", "open_preimages_alpha_m_open",
    "inverse_alpha_m_continuous",
)


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
    """How every map of one shape (nX, nY) carries subsets, by rank.

    ``preimages[r][D]`` is the preimage of the subset D of Y under the map of
    rank r, and ``images[r][S]`` the image of the subset S of X.

    ``pre_ranks`` and ``img_ranks`` regroup the same tables into rank
    bitsets, one column per subset D (resp. S).  A column is a pair
    ``(reach, nibbles)``: ``reach`` is the family mask of the sets that D is
    carried to by some map, and ``nibbles[k][m]`` is the rank bitset of the
    maps that carry D to one of the sets 4k + i, i a bit of the 4-bit m.
    The maps carrying D into any family G are then one table entry per
    nonzero nibble of G & reach.
    """
    preimages: list
    images: list
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
@lru_cache(maxsize=None)
def subset_tables(nx, ny):
    """The :class:`SubsetTables` of the maps from nX to nY points."""
    preimages, images = [], []
    for rank in range(ny ** nx):
        assign = _decode(rank, nx, ny)
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
    return SubsetTables(preimages, images,
                        _rank_columns(preimages, 1 << ny), _rank_columns(images, 1 << nx))


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
    Requires nX, nY <= 5.
    """
    tables = subset_tables(nx, ny)
    pre, img = tables.pre_ranks, tables.img_ranks
    every = (1 << len(tables.images)) - 1
    amcm = _carried(img, x_closed, y_amc, every)
    surj = _carried(img, 1 << (1 << nx) - 1, 1 << (1 << ny) - 1, every)
    bij = surj if nx == ny else 0
    return (_carried(pre, y_open, x_open, every),
            _carried(img, x_open, y_open, every),
            _carried(img, x_closed, y_closed, every),
            surj,
            bij,
            _carried(pre, y_closed, x_amc, every),
            _carried(pre, y_amc, x_amc, every),
            amcm,
            _carried(img, x_open, y_amo, every),
            _carried(pre, y_open, x_amo, every),
            # a bijection's inverse pulls each closed C of X back to f(C)
            bij & amcm)


def enumerate_masks(n):
    """Neighbourhood tables of all labeled topologies on n points, one tuple
    (U_0, ..., U_{n-1}) per topology, in search order.

    Depth-first assignment of per-point minimal neighbourhoods; the
    consistency constraint is y in m(x) => m(y) <= m(x).  The benchmark's
    tracer times it by this name, so the name stays.  Requires n <= 5.
    """
    size = 1 << n
    minn = [0] * n
    out = []

    def extend(x):
        if x == n:
            out.append(tuple(minn))
            return
        bx = 1 << x
        for cand in range(size):
            if not cand & bx:
                continue
            ok = True
            for y in range(x):
                my = minn[y]
                if cand >> y & 1 and my & cand != my:
                    ok = False
                    break
                if my >> x & 1 and cand & my != cand:
                    ok = False
                    break
            if ok:
                minn[x] = cand
                extend(x + 1)

    extend(0)
    return out


def _decode(idx, k, base):
    a = [0] * k
    for x in range(k - 1, -1, -1):
        a[x] = idx % base
        idx //= base
    return a


def composition_failures(nx, ny, nz, f_indices, g_indices, target_bits, limit):
    """Count (f, g) pairs whose composite map misses ``target_bits``.

    ``target_bits`` is a bitset over the nZ**nX composite ranks; a clear
    bit means the composite fails the conclusion.  Pairs run f-outer,
    g-inner in the given list orders; the first ``limit`` failing pairs are
    returned (limit < 0 collects all).  Returns ``(count, pairs)``.

    The verifier does not call it: it folds the composition claims from
    subset families of the middle space instead.  It stays as the
    brute-force reference that tests check that fold against, and because
    the benchmark's tracer wraps it by name.
    """
    if not f_indices or not g_indices:
        return 0, []
    count = 0
    fails = []
    f_assign = [_decode(fi, nx, ny) for fi in f_indices]
    g_assign = [_decode(gi, ny, nz) for gi in g_indices]
    weights = [nz ** (nx - 1 - x) for x in range(nx)]
    for fa, fi in zip(f_assign, f_indices):
        for ga, gi in zip(g_assign, g_indices):
            c = 0
            for x in range(nx):
                c += ga[fa[x]] * weights[x]
            if not target_bits >> c & 1:
                count += 1
                if limit < 0 or len(fails) < limit:
                    fails.append((fi, gi))
    return count, fails

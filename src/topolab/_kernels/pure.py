"""Pure-Python backend for the hot kernels.

The compiled extension (``topolab._kernels._speedups``) mirrors this module
function for function; this file is the reference semantics.

Conventions shared by both backends:

- a subset of the ground set {0..n-1} is an int bitmask (bit p = point p);
- a family of subsets is an int "family mask" with bit A set iff the subset
  whose bitmask value is A belongs to the family (used for n <= 6);
- maps X -> Y are ranked like ``itertools.product(range(nY), repeat=nX)``:
  index = sum(a[x] * nY**(nX-1-x)), the last coordinate varying fastest.
"""

from __future__ import annotations

# order of the tuple returned by class_masks
CLASS_ORDER = (
    "open", "closed", "clopen",
    "preopen", "preclosed", "semiopen", "semiclosed",
    "alpha_open", "alpha_closed", "beta_open", "beta_closed",
    "g_closed", "g_open", "alpha_m_closed", "alpha_m_open",
)

# order of the tuple returned by map_masks
MAP_PROP_ORDER = (
    "continuous", "open_map", "closed_map", "surjective", "bijective",
    "alpha_m_continuous", "alpha_m_irresolute", "alpha_m_closed_map",
    "alpha_m_open_map", "open_preimages_alpha_m_open",
    "inverse_alpha_m_continuous",
)


def space_pack(n, opens):
    """Derived tables for a validated topology.

    Returns ``(min_nbhd, min_alpha_nbhd, interior_table, closure_table)``:
    per-point smallest open (resp. alpha-open) neighbourhoods, and full
    interior/closure lookup tables indexed by subset bitmask.
    """
    size = 1 << n
    full = size - 1
    minn = []
    for x in range(n):
        bx = 1 << x
        m = full
        for u in opens:
            if u & bx:
                m &= u
        minn.append(m)
    int_t = [0] * size
    for a in range(size):
        s = 0
        t = a
        while t:
            b = t & -t
            t ^= b
            mx = minn[b.bit_length() - 1]
            if mx & a == mx:
                s |= b
        int_t[a] = s
    cl_t = [full ^ int_t[full ^ a] for a in range(size)]
    # alpha-opens are the A with A <= int(cl(int(A)))
    aminn = [full] * n
    for u in range(size):
        if int_t[cl_t[int_t[u]]] & u == u:
            for x in range(n):
                if u >> x & 1:
                    aminn[x] &= u
    return tuple(minn), tuple(aminn), tuple(int_t), tuple(cl_t)


def class_masks(n, opens):
    """The 15 class family masks, in CLASS_ORDER.  Requires n <= 6."""
    minn, aminn, int_t, cl_t = space_pack(n, opens)
    size = 1 << n
    full = size - 1
    open_fm = 0
    for u in opens:
        open_fm |= 1 << u
    closed_fm = 0
    for a in range(size):
        if open_fm >> (full ^ a) & 1:
            closed_fm |= 1 << a
    preopen = preclosed = semiopen = semiclosed = 0
    alpha_open = alpha_closed = beta_open = beta_closed = 0
    g_closed = am_closed = 0
    for a in range(size):
        bit = 1 << a
        ia = int_t[a]
        ca = cl_t[a]
        ica = int_t[ca]      # int(cl(A))
        cia = cl_t[ia]       # cl(int(A))
        icia = int_t[cia]    # int(cl(int(A)))
        cica = cl_t[ica]     # cl(int(cl(A)))
        if a & ica == a:
            preopen |= bit
        if cia & a == cia:
            preclosed |= bit
        if a & cia == a:
            semiopen |= bit
        if ica & a == ica:
            semiclosed |= bit
        if a & icia == a:
            alpha_open |= bit
        if cica & a == cica:
            alpha_closed |= bit
        if a & cica == a:
            beta_open |= bit
        if icia & a == icia:
            beta_closed |= bit
        ker = 0
        aker = 0
        t = a
        while t:
            b = t & -t
            t ^= b
            x = b.bit_length() - 1
            ker |= minn[x]
            aker |= aminn[x]
        if ca & ker == ca:
            g_closed |= bit
        if ica & aker == ica:
            am_closed |= bit
    g_open = 0
    am_open = 0
    for a in range(size):
        if g_closed >> (full ^ a) & 1:
            g_open |= 1 << a
        if am_closed >> (full ^ a) & 1:
            am_open |= 1 << a
    return (open_fm, closed_fm, open_fm & closed_fm,
            preopen, preclosed, semiopen, semiclosed,
            alpha_open, alpha_closed, beta_open, beta_closed,
            g_closed, g_open, am_closed, am_open)


def map_masks(nx, x_open, x_closed, x_amc, x_amo,
              ny, y_open, y_closed, y_amc, y_amo):
    """Property bitsets over all nY**nX maps X -> Y, in MAP_PROP_ORDER.

    Each argument after the two sizes is a family mask of the named class
    on that side.  Bit i of a result refers to the map with rank i.
    Requires nX, nY <= 5.
    """
    if nx and not ny:
        return (0,) * 11
    size_y = 1 << ny
    full_y = size_y - 1
    opens_x = [a for a in range(1 << nx) if x_open >> a & 1]
    closed_x = [a for a in range(1 << nx) if x_closed >> a & 1]
    opens_y = [b for b in range(size_y) if y_open >> b & 1]
    closed_y = [b for b in range(size_y) if y_closed >> b & 1]
    amc_y = [b for b in range(size_y) if y_amc >> b & 1]
    count = ny ** nx
    cont = openm = closedm = surj = bij = 0
    amc = irr = amcm = amom = opap = invamc = 0
    assign = [0] * nx
    for idx in range(count):
        presing = [0] * ny
        image_full = 0
        injective = True
        for x in range(nx):
            y = assign[x]
            if presing[y]:
                injective = False
            presing[y] |= 1 << x
            image_full |= 1 << y
        bit = 1 << idx
        # preimage-quantified properties
        ok_cont = ok_opap = True
        for u in opens_y:
            p = 0
            t = u
            while t:
                b = t & -t
                t ^= b
                p |= presing[b.bit_length() - 1]
            if ok_cont and not x_open >> p & 1:
                ok_cont = False
            if ok_opap and not x_amo >> p & 1:
                ok_opap = False
            if not (ok_cont or ok_opap):
                break
        ok_amc = True
        for c in closed_y:
            p = 0
            t = c
            while t:
                b = t & -t
                t ^= b
                p |= presing[b.bit_length() - 1]
            if not x_amc >> p & 1:
                ok_amc = False
                break
        ok_irr = True
        for c in amc_y:
            p = 0
            t = c
            while t:
                b = t & -t
                t ^= b
                p |= presing[b.bit_length() - 1]
            if not x_amc >> p & 1:
                ok_irr = False
                break
        # image-quantified properties
        ok_open = ok_amom = True
        for u in opens_x:
            img = 0
            t = u
            while t:
                b = t & -t
                t ^= b
                img |= 1 << assign[b.bit_length() - 1]
            if ok_open and not y_open >> img & 1:
                ok_open = False
            if ok_amom and not y_amo >> img & 1:
                ok_amom = False
            if not (ok_open or ok_amom):
                break
        ok_closed = ok_amcm = True
        for c in closed_x:
            img = 0
            t = c
            while t:
                b = t & -t
                t ^= b
                img |= 1 << assign[b.bit_length() - 1]
            if ok_closed and not y_closed >> img & 1:
                ok_closed = False
            if ok_amcm and not y_amc >> img & 1:
                ok_amcm = False
            if not (ok_closed or ok_amcm):
                break
        if ok_cont:
            cont |= bit
        if ok_opap:
            opap |= bit
        if ok_amc:
            amc |= bit
        if ok_irr:
            irr |= bit
        if ok_open:
            openm |= bit
        if ok_amom:
            amom |= bit
        if ok_closed:
            closedm |= bit
        if ok_amcm:
            amcm |= bit
        if image_full == full_y:
            surj |= bit
            if injective:
                bij |= bit
                # alpha_m-continuity of the inverse map Y -> X
                inv = [0] * ny
                for x in range(nx):
                    inv[assign[x]] = x
                ok_inv = True
                for c in closed_x:
                    p = 0
                    for y in range(ny):
                        if c >> inv[y] & 1:
                            p |= 1 << y
                    if not y_amc >> p & 1:
                        ok_inv = False
                        break
                if ok_inv:
                    invamc |= bit
        # odometer: advance the assignment in rank order
        for x in range(nx - 1, -1, -1):
            assign[x] += 1
            if assign[x] < ny:
                break
            assign[x] = 0
    return (cont, openm, closedm, surj, bij,
            amc, irr, amcm, amom, opap, invamc)


def enumerate_masks(n):
    """Family masks of all labeled topologies on n points, ascending.

    Depth-first assignment of per-point minimal neighbourhoods; the
    consistency constraint is y in m(x) => m(y) <= m(x).  Requires n <= 5.
    """
    if n == 0:
        return [1]
    size = 1 << n
    minn = [0] * n
    out = []

    def extend(x):
        if x == n:
            fm = 0
            for a in range(size):
                t = a
                ok = True
                while t:
                    b = t & -t
                    t ^= b
                    mx = minn[b.bit_length() - 1]
                    if mx & a != mx:
                        ok = False
                        break
                if ok:
                    fm |= 1 << a
            out.append(fm)
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
    out.sort()
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

    The verifier no longer calls it: it folds the composition claims from
    subset families of the middle space instead.  It stays in step with
    the compiled extension, whose source is not regenerated with this file.
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

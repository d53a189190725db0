"""Independent brute-force oracles used to pin expected values.

Everything here is written against the raw definitions with itertools only,
deliberately sharing no code with the package under test.
"""

from itertools import permutations, product


def naive_labeled_families(n):
    """All topologies on n labeled points, as family bitmasks.

    Direct search: every family of subsets containing the empty and full
    set, kept iff closed under pairwise union and intersection.  Only
    feasible for small n (2^(2^n - 2) candidates); intended for n <= 4.
    """
    size = 1 << n
    full = size - 1
    if n == 0:
        return [1]
    middles = [a for a in range(size) if a not in (0, full)]
    base = (1 << 0) | (1 << full)
    out = []
    for pick in range(1 << len(middles)):
        fm = base
        for i, a in enumerate(middles):
            if pick >> i & 1:
                fm |= 1 << a
        members = [a for a in range(size) if fm >> a & 1]
        ok = True
        for a in members:
            for b in members:
                if not (fm >> (a | b) & 1 and fm >> (a & b) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(fm)
    return sorted(out)


def naive_is_topology(n, members):
    """Whether a family of subsets of n points is a topology: it holds the
    empty and the full set, and every pair of members has its union and
    intersection in the family."""
    fam = set(members)
    if 0 not in fam or (1 << n) - 1 not in fam:
        return False
    return all(a | b in fam and a & b in fam for a in fam for b in fam)


def relabel_family(fm, n, perm):
    """Push a family bitmask through the point relabeling x -> perm[x]."""
    out = 0
    for a in range(1 << n):
        if fm >> a & 1:
            b = 0
            for x in range(n):
                if a >> x & 1:
                    b |= 1 << perm[x]
            out |= 1 << b
    return out


def relabel_opens(opens, perm):
    """Push every open through the point relabeling x -> perm[x], and sort
    the result by cardinality, then bitmask value."""
    out = []
    for a in opens:
        b = 0
        for x, y in enumerate(perm):
            if a >> x & 1:
                b |= 1 << y
        out.append(b)
    return tuple(sorted(out, key=lambda b: (bin(b).count("1"), b)))


def naive_canonical_opens(n, opens):
    """The least of the relabeled opens tuples over all n! relabelings."""
    return min(relabel_opens(opens, perm) for perm in permutations(range(n)))


def orbit_count(families, n):
    """Number of orbits of the point-permutation action on the families."""
    seen = set()
    orbits = 0
    for fm in families:
        if fm in seen:
            continue
        orbits += 1
        for perm in permutations(range(n)):
            seen.add(relabel_family(fm, n, perm))
    return orbits


def naive_interior(n, opens, a):
    """Union of all open subsets of a."""
    s = 0
    for u in opens:
        if u & a == u:
            s |= u
    return s


def naive_closure(n, opens, a):
    """Smallest closed superset of a: intersect every closed set above it."""
    full = (1 << n) - 1
    best = full
    for u in opens:
        c = full ^ u
        if c & a == a:
            best &= c
    return best


def naive_min_nbhd(n, opens, x):
    """Intersection of every open set containing x."""
    best = (1 << n) - 1
    for u in opens:
        if u >> x & 1:
            best &= u
    return best


def naive_maximal(n, opens):
    """Mask of the points x whose minimal neighbourhood is a minimal
    nonempty open set: no nonempty open set lies strictly inside it."""
    out = 0
    for x in range(n):
        m = naive_min_nbhd(n, opens, x)
        if not any(u and u & m == u and u != m for u in opens):
            out |= 1 << x
    return out


def naive_alpha_open(n, opens, a):
    """A <= int(cl(int(A))), from the naive interior and closure above."""
    icia = naive_interior(n, opens, naive_closure(n, opens, naive_interior(n, opens, a)))
    return a & icia == a


def naive_alpha_m_closed(n, opens, a):
    """The paper's definition: int(cl(A)) lies inside every alpha-open
    superset of A; every subset of the ground set is tried."""
    ica = naive_interior(n, opens, naive_closure(n, opens, a))
    return all(ica & u == ica for u in range(1 << n)
               if u & a == a and naive_alpha_open(n, opens, u))


def naive_up_sets(n, minn):
    """The opens of the neighbourhood table ``minn``, in canonical order
    (cardinality, then value): every subset of the n points is tried, and
    kept iff it holds the neighbourhood of each of its points."""
    opens = [a for a in range(1 << n)
             if all(minn[x] & a == minn[x] for x in range(n) if a >> x & 1)]
    return sorted(opens, key=lambda a: (bin(a).count("1"), a))


def naive_tables(n):
    """Every neighbourhood table of a topology on n points, in lexicographic
    order: every n-tuple of subsets is tried, and kept iff each x lies in
    its own entry U_x and each y in U_x has U_y inside U_x."""
    return [t for t in product(range(1 << n), repeat=n)
            if all(t[x] >> x & 1 for x in range(n))
            and all(t[y] & t[x] == t[y]
                    for x in range(n) for y in range(n) if t[x] >> y & 1)]

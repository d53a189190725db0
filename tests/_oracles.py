"""Independent brute-force oracles used to pin expected values.

Everything here is written against the raw definitions with itertools only,
deliberately sharing no code with the package under test.
"""

from itertools import permutations


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


def naive_min_alpha_nbhd(n, opens, x):
    """Intersection of every alpha-open set containing x.

    A is alpha-open iff A <= int(cl(int(A))), with int and cl taken from
    the naive oracles above; every subset of the ground set is tried.
    """
    best = (1 << n) - 1
    for a in range(1 << n):
        if not a >> x & 1:
            continue
        icia = naive_interior(n, opens, naive_closure(n, opens, naive_interior(n, opens, a)))
        if a & icia == a:
            best &= a
    return best

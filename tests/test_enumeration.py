import random
from itertools import permutations
from math import factorial

import pytest

import topolab as T
from topolab import _kernels
from topolab import enumeration as en
from topolab.errors import BadParams, NotATopology, ScopeTooLarge
from topolab.space import _opens

from _oracles import (naive_canonical_opens, naive_classes, naive_labeled_families,
                      naive_up_sets, orbit_count, relabel_opens)


def test_labeled_counts_against_naive_oracle():
    # the independent brute-force search pins the small counts first
    for n in range(4):
        fams = naive_labeled_families(n)
        ours = list(en.enumerate_topologies(n))
        assert len(ours) == len(fams)
        packed = sorted(sum(1 << u for u in s.opens) for s in ours)
        assert packed == fams


def test_labeled_count_pins():
    expect = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
    for n, k in expect.items():
        assert sum(1 for _ in en.enumerate_topologies(n)) == k


def test_homeo_counts_against_orbit_oracle():
    for n in range(5):
        fams = naive_labeled_families(n)
        assert (sum(1 for _ in en.enumerate_topologies_up_to_homeo(n))
                == orbit_count(fams, n))


def test_homeo_count_pins():
    expect = {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139}
    for n, k in expect.items():
        assert sum(1 for _ in en.enumerate_topologies_up_to_homeo(n)) == k


def test_homeo_reps_are_least_relabelings():
    # the orbit walk against canonical_form on every labeled space
    for n in range(5):
        reps = [s.opens for s in en.enumerate_topologies_up_to_homeo(n)]
        assert reps == sorted({en.canonical_form(s).opens
                               for s in en.enumerate_topologies(n)})


def test_homeo_reps_partition_five_points():
    reps = list(en.enumerate_topologies_up_to_homeo(5))
    assert len({r.opens for r in reps}) == len(reps)
    total = 0
    for r in reps:
        assert en.canonical_form(r) == r
        total += len({en.relabel(r, p).opens for p in permutations(range(5))})
    assert total == 6942


def test_emitted_spaces_validate_and_are_unique():
    for n in range(5):
        seen = set()
        for s in en.enumerate_topologies(n):
            assert T.new_space(s.n, s.opens) == s
            assert s.opens not in seen
            seen.add(s.opens)


def test_labeled_stream_is_sorted_by_opens_tuples():
    # the stream sorts by bytes keys; the documented order sorts spaces by
    # their opens tuples
    for n in range(6):
        spaces = [T.FiniteSpace(n, t) for t in _kernels.enumerate_masks(n)]
        assert tuple(en.enumerate_topologies(n)) == tuple(sorted(spaces, key=lambda s: s.opens)), n


def test_lane_words_hold_exactly_the_opens():
    # the stream key's bytes are the opens in canonical order, less the
    # empty set: against the union closure the key replaces at n <= 5, and
    # against the brute-force families at n <= 4
    for n in range(6):
        key = en._key(n)
        families = []
        for minn in _kernels.enumerate_masks(n):
            opens = list(key(minn))
            assert opens == list(_opens(minn)[1:]), minn
            families.append(1 + sum(1 << v for v in opens))
        if n <= 4:
            assert sorted(families) == naive_labeled_families(n), n


def test_homeo_classes_build_one_space_per_class(monkeypatch):
    # with every stream cache cleared, the class walk builds its
    # representatives only (A001930), not the labeled stream (A000798)
    built = []
    unchecked = T.FiniteSpace._unchecked

    def counting(cls, n, minn):
        built.append(n)
        return unchecked(n, minn)

    monkeypatch.setattr(T.FiniteSpace, "_unchecked", classmethod(counting))
    for cached in (en._key, en._tables, en._classes):
        cached.cache_clear()
    for n, k in enumerate((1, 1, 3, 9, 33, 139)):
        built.clear()
        assert sum(1 for _ in en.enumerate_topologies_up_to_homeo(n)) == k
        assert len(built) == k, n
    for n in range(6):
        assert tuple(s.min_nbhd for s in en.enumerate_topologies(n)) == en._tables(n), n


def test_class_orbits_are_the_relabelings():
    # the orbit sizes read off the size-sorted relabelings, against relabel
    # on every permutation of every class representative; those orbits
    # partition the labeled tables
    for n in range(6):
        perms = list(permutations(range(n)))
        tables = set()
        for rep, size in en._classes(n):
            orbit = {en.relabel(rep, p).min_nbhd for p in perms}
            assert size == len(orbit), rep
            assert not tables & orbit, rep
            tables |= orbit
        assert tables == set(en._tables(n)), n


def test_least_relabelings_list_points_by_size():
    # every labeled table on n <= 5 points lies in one orbit of the naive
    # walk, whose first member in opens order is its least relabeling: that
    # member has |U_0| <= ... <= |U_{n-1}|
    for n in range(6):
        tables = _kernels.enumerate_masks(n)
        classes = naive_classes(n, tables)
        assert sum(len(orbit) for _, orbit in classes) == len(tables), n
        for least, orbit in classes:
            sizes = [u.bit_count() for u in least]
            assert sizes == sorted(sizes), least
            assert least == min(orbit, key=lambda t: naive_up_sets(n, t))


def test_class_walk_matches_the_orbit_partition_oracle():
    # the walk over the size-sorted tables alone against the naive walk over
    # every labeled table: the same representatives, in the same order, and
    # each orbit size the size of the naive orbit and of _orbit's
    for n in range(6):
        classes = en._classes(n)
        assert [(rep.min_nbhd, size) for rep, size in classes] == \
            [(least, len(orbit)) for least, orbit in naive_classes(n, _kernels.enumerate_masks(n))]
        for rep, size in classes:
            assert size == len(en._orbit(rep)), rep


def test_class_walk_reaches_six_points():
    # past the enumeration cap: A001930(6) classes, whose orbit sizes sum to
    # A000798(6)
    classes = en._classes(6)
    assert len(classes) == 718
    assert sum(size for _, size in classes) == 209527


def test_stream_order_deterministic_and_sorted():
    spaces = list(en.enumerate_topologies(3))
    assert spaces == sorted(spaces, key=lambda s: s.opens)
    assert spaces == list(en.enumerate_topologies(3))


def test_two_point_stream_order():
    got = [s.opens for s in en.enumerate_topologies(2)]
    assert got == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3), (0, 3)]


def test_scope_caps():
    with pytest.raises(ScopeTooLarge):
        list(en.enumerate_topologies(6))
    with pytest.raises(ScopeTooLarge):
        list(en.enumerate_topologies_up_to_homeo(6))
    with pytest.raises(ScopeTooLarge):
        en.spaces_up_to(6)
    assert en.canonical_form(T.indiscrete(7)) == T.indiscrete(7)
    with pytest.raises(ScopeTooLarge):
        en.canonical_form(T.discrete(8))
    with pytest.raises(BadParams):
        list(en.enumerate_topologies(-1))
    with pytest.raises(BadParams):
        list(en.enumerate_topologies(True))


def test_relabel():
    sierp = T.sierpinski()
    flipped = en.relabel(sierp, (1, 0))
    assert flipped.opens == (0, 2, 3)
    assert en.relabel(flipped, (1, 0)) == sierp
    assert en.relabel(T.discrete(3), (2, 0, 1)) == T.discrete(3)
    with pytest.raises(BadParams):
        en.relabel(sierp, (0, 0))
    with pytest.raises(BadParams):
        en.relabel(sierp, (0, 1, 2))
    with pytest.raises(BadParams):
        en.relabel(sierp, (True, False))
    with pytest.raises(BadParams):
        en.relabel(sierp, (0.0, 1))
    with pytest.raises(BadParams):
        en.relabel(sierp, 2)
    with pytest.raises(BadParams):
        en.relabel(5, (0,))


def test_canonical_form():
    sierp0 = T.sierpinski()
    sierp1 = T.new_space(2, [0, 2, 3])
    assert en.canonical_form(sierp0) == en.canonical_form(sierp1) == sierp0
    assert en.canonical_form(T.discrete(3)) == T.discrete(3)
    for s in en.enumerate_topologies(3):
        c = en.canonical_form(s)
        assert en.canonical_form(c) == c
    with pytest.raises(BadParams):
        en.canonical_form(5)


def test_relabel_permutes_the_opens():
    # relabel permutes the neighbourhood table; the opens it lists must be
    # the permuted opens, sorted
    for s in en.spaces_up_to(4):
        for p in permutations(range(s.n)):
            assert en.relabel(s, p).opens == relabel_opens(s.opens, p), (s, p)


def test_canonical_form_matches_the_naive_oracle():
    # the least relabeling by opens, from the tables of the orbit, against
    # the least of the n! permuted opens tuples
    for s in en.spaces_up_to(4):
        assert en.canonical_form(s).opens == naive_canonical_opens(s.n, s.opens), s
    for r in en.enumerate_topologies_up_to_homeo(5):
        assert r.opens == naive_canonical_opens(5, r.opens), r
    # the chains' opens are the initial segments {0..x}: no two of their
    # relabelings are equal
    chains = [T.FiniteSpace(n, tuple((2 << x) - 1 for x in range(n))) for n in (6, 7)]
    for s in chains + [T.discrete(6)]:
        assert en.canonical_form(s).opens == naive_canonical_opens(s.n, s.opens), s


def _random_preorder_space(rng, n):
    # U_x is every point reachable from x in a random relation: a preorder's
    # up-sets, so a valid neighbourhood table
    reach = [1 << x | sum(1 << y for y in range(n) if rng.random() < 0.2) for x in range(n)]
    for k in range(n):
        for x in range(n):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    return T.FiniteSpace(n, tuple(reach))


def test_canonical_form_keys_rigid_spaces_past_the_stream():
    # the stream's key on 6 and 7 points, which no stream sorts: on rigid
    # spaces every one of the n! tables is distinct and compared by its key
    rng = random.Random(2016)
    for n, count in ((6, 4), (7, 3)):
        rigid = []
        while len(rigid) < count:
            s = _random_preorder_space(rng, n)
            if len(en._orbit(s)) == factorial(n) and len(s.opens) >= 2 * n:
                rigid.append(s)
        for s in rigid:
            assert en.canonical_form(s).opens == naive_canonical_opens(n, s.opens), s


def test_orbit_matches_relabel():
    # the orbit permutes the table without relabel's checks; it must give
    # the tables relabel gives
    spaces = list(en.spaces_up_to(4)) + list(en.enumerate_topologies(5))[::7]
    for s in spaces:
        assert en._orbit(s) == {en.relabel(s, p).min_nbhd
                                for p in permutations(range(s.n))}, s


def test_tables_that_are_no_topology_are_refused():
    # the constructor checks the table, so no space holds a bad one; the
    # entry points that permute a table refuse anything but a space
    not_topologies = (
        (2, (0b10, 0b11)),            # 0 is not in U_0
        (3, (0b011, 0b110, 0b100)),   # 1 in U_0, U_1 not in U_0
    )
    malformed = (
        (2, [1, 3]),                  # not a tuple
        (2, (1,)),                    # one entry short
        (2, (1, 2, 3)),               # one entry over
        (2, (1, 4)),                  # 4 is not a subset of 2 points
        (2, (1, -1)),
        (2, (True, 3)),
        (2, (1, 3.0)),
        (-1, ()),
        (2.0, (1, 3)),
        (T.MAX_POINTS + 1, T.discrete(T.MAX_POINTS).min_nbhd + (1 << T.MAX_POINTS,)),
    )
    for n, table in not_topologies:
        with pytest.raises(NotATopology):
            T.FiniteSpace(n, table)
    for n, table in malformed:
        with pytest.raises(BadParams):
            T.FiniteSpace(n, table)
    for bad in (None, (2, (1, 3)), "ab"):
        with pytest.raises(BadParams):
            en.canonical_form(bad)
        with pytest.raises(BadParams):
            en.relabel(bad, (1, 0))


def test_canonical_form_classifies_homeomorphism():
    # canonical forms agree exactly on orbit membership
    for s in en.enumerate_topologies(3):
        c = en.canonical_form(s)
        orbit = {en.relabel(s, p).opens for p in permutations(range(3))}
        assert c.opens == min(orbit)


def test_predicates_invariant_under_relabeling():
    for s in en.enumerate_topologies(3):
        ax = T.axiom_report(s)
        for p in permutations(range(3)):
            t = en.relabel(s, p)
            assert (T.is_T0(t), T.is_T1(t), T.is_T_half(t),
                    T.is_T_alpha_m(t), T.singleton_dichotomy(t)) == \
                   (ax.T0, ax.T1, ax.T_half, ax.T_alpha_m, ax.singleton_dichotomy)
            for a in s.subsets():
                b = 0
                for x in range(3):
                    if a >> x & 1:
                        b |= 1 << p[x]
                assert T.classify_subset(s, a).to_record() == \
                    T.classify_subset(t, b).to_record()


def test_spaces_up_to():
    pool = en.spaces_up_to(3)
    assert len(pool) == 1 + 1 + 4 + 29
    assert [s.n for s in pool] == sorted(s.n for s in pool)


def test_enumerate_maps_counts():
    sierp = T.sierpinski()
    maps_ss = list(en.enumerate_maps(sierp, sierp))
    assert len(maps_ss) == 4
    assert sum(T.is_bijective(f) for f in maps_ss) == 2
    assert len(list(en.enumerate_maps(T.discrete(1), T.indiscrete(2)))) == 2
    d3 = T.discrete(3)
    assert len(list(en.enumerate_maps(d3, d3))) == 27
    assert len(list(en.enumerate_maps(T.discrete(0), d3))) == 1
    assert len(list(en.enumerate_maps(d3, T.discrete(0)))) == 0


def test_enumerate_maps_rank_order():
    ranks = [f.assignment for f in en.enumerate_maps(T.sierpinski(), T.indiscrete(2))]
    assert ranks == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_maps_scope():
    with pytest.raises(ScopeTooLarge):
        list(en.enumerate_maps(T.discrete(6), T.discrete(1)))
    with pytest.raises(BadParams):
        list(en.enumerate_maps(5, T.sierpinski()))

from itertools import permutations

import pytest

import topolab as T
from topolab import enumeration as en
from topolab.errors import BadParams, ScopeTooLarge

from _oracles import naive_labeled_families, orbit_count


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


def test_homeo_sharding_partitions_the_reps():
    whole = list(en.enumerate_topologies_up_to_homeo(4))
    parts = [list(en.enumerate_topologies_up_to_homeo(4, shard=(i, 3)))
             for i in range(3)]
    assert sorted(sum(parts, []), key=lambda s: s.opens) == whole


def test_emitted_spaces_validate_and_are_unique():
    for n in range(5):
        seen = set()
        for s in en.enumerate_topologies(n):
            assert T.new_space(s.n, s.opens) == s
            assert s.opens not in seen
            seen.add(s.opens)


def test_stream_order_deterministic_and_sorted():
    spaces = list(en.enumerate_topologies(3))
    assert spaces == sorted(spaces, key=lambda s: s.opens)
    assert spaces == list(en.enumerate_topologies(3))


def test_two_point_stream_order():
    got = [s.opens for s in en.enumerate_topologies(2)]
    assert got == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3), (0, 3)]


def test_sharding_partitions_the_stream():
    whole = list(en.enumerate_topologies(4))
    for k in (1, 2, 3, 7):
        parts = [list(en.enumerate_topologies(4, shard=(i, k))) for i in range(k)]
        assert sorted(sum(parts, []), key=lambda s: s.opens) == whole
        assert sum(len(p) for p in parts) == len(whole)
    with pytest.raises(BadParams):
        list(en.enumerate_topologies(2, shard=(2, 2)))
    with pytest.raises(BadParams):
        list(en.enumerate_topologies(2, shard=(-1, 2)))
    for bad in (5, (0, 1, 2), (0, True), (True, 2), (0.0, 1), "01", (0,)):
        with pytest.raises(BadParams):
            list(en.enumerate_topologies(2, shard=bad))
        with pytest.raises(BadParams):
            list(en.enumerate_topologies_up_to_homeo(2, shard=bad))


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


def test_enumerate_maps_order_and_filters():
    sierp = T.sierpinski()
    ind = T.indiscrete(2)
    ranks = [f.assignment for f in en.enumerate_maps(sierp, ind)]
    assert ranks == [(0, 0), (0, 1), (1, 0), (1, 1)]
    surj = list(en.enumerate_maps(sierp, ind, surjective_only=True))
    assert [f.assignment for f in surj] == [(0, 1), (1, 0)]
    bij = list(en.enumerate_maps(T.discrete(3), T.discrete(3), bijective_only=True))
    assert len(bij) == 6
    for f in bij:
        assert T.is_bijective(f)
    onto = list(en.enumerate_maps(T.discrete(3), T.discrete(2), surjective_only=True))
    assert len(onto) == 2 ** 3 - 2


def test_enumerate_maps_scope():
    with pytest.raises(ScopeTooLarge):
        list(en.enumerate_maps(T.discrete(6), T.discrete(1)))
    with pytest.raises(BadParams):
        list(en.enumerate_maps(5, T.sierpinski()))

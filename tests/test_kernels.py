"""The kernels module on its own: exported orders, the kernels that only
the benchmark's tracer and the tests still reach, and one end-to-end run.

``map_masks`` is checked against the direct predicates in
``test_maps.py``, ``class_masks`` against the naive oracles here and the
alpha_m predicates in ``test_classes.py``, and the tables ``enumerate_masks``
yields against the naive oracles here and in ``test_enumeration.py``.
"""

import random

import topolab as T
from topolab import _kernels, classes, verifier
from topolab.maps import SpaceMap, assignment_from_index, compose, map_index

from _oracles import (naive_alpha_m_closed, naive_closure, naive_interior, naive_maximal,
                      naive_tables)


def test_space_pack_and_class_masks_agree():
    # space_pack and the four class masks against the naive oracles, from
    # the neighbourhood table, on every space with n <= 4
    for s in T.spaces_up_to(4):
        maximal, int_t, cl_t = _kernels.space_pack(s.n, s.min_nbhd)
        assert maximal == naive_maximal(s.n, s.opens)
        assert int_t == tuple(naive_interior(s.n, s.opens, a) for a in s.subsets())
        assert cl_t == tuple(naive_closure(s.n, s.opens, a) for a in s.subsets())
        want = [sum(1 << a for a in s.subsets() if member(a)) for member in (
            lambda a: a in s.opens,
            lambda a: s.full ^ a in s.opens,
            lambda a: naive_alpha_m_closed(s.n, s.opens, a),
            lambda a: naive_alpha_m_closed(s.n, s.opens, s.full ^ a))]
        assert _kernels.class_masks(s.n, s.min_nbhd) == tuple(want), s


def test_enumerate_masks_matches_every_table():
    # the pruned search against a filter of all 2^(n*n) tuples, order included
    for n in range(5):
        assert _kernels.enumerate_masks(n) == naive_tables(n), n


def test_size_sorted_tables_are_the_sorted_ones():
    # the size-sorted mode of the one search against a filter of the full
    # stream, order included: 286 of the 6,942 tables at n = 5
    for n in range(7):
        tables = _kernels.enumerate_masks(n)
        want = [t for t in tables
                if all(a.bit_count() <= b.bit_count() for a, b in zip(t, t[1:]))]
        assert _kernels.enumerate_masks(n, size_sorted=True) == want, n
        if n == 5:
            assert (len(tables), len(want)) == (6942, 286)


def test_composition_failures_agree():
    # the brute-force composition kernel against SpaceMap composition
    rng = random.Random(20240817)
    spaces = list(T.spaces_up_to(3))
    for _ in range(150):
        x, y, z = (rng.choice(spaces) for _ in range(3))
        f_all, g_all = y.n ** x.n, z.n ** y.n
        f_idx = sorted(rng.sample(range(f_all), k=rng.randint(0, f_all)))
        g_idx = sorted(rng.sample(range(g_all), k=rng.randint(0, g_all)))
        target = rng.getrandbits(z.n ** x.n)
        expect = sum(not target >> map_index(compose(
                         SpaceMap(y, z, assignment_from_index(gi, y.n, z.n)),
                         SpaceMap(x, y, assignment_from_index(fi, x.n, y.n)))) & 1
                     for fi in f_idx for gi in g_idx)
        assert _kernels.composition_failures(x.n, y.n, z.n, f_idx, g_idx, target) == expect


def test_tuple_orders_exported_once():
    assert T.BACKEND == _kernels.BACKEND == "pure"
    assert T.CLASS_IDS is classes.CLASS_IDS
    assert len(classes.CLASS_IDS) == len(set(classes.CLASS_IDS)) == 15


def test_kernels_run_the_full_pipeline():
    # spot-check one refutation end to end
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    assert (r.outcome, r.failures, r.witnesses[0].spaces[0].opens) == \
        ("refuted", 2, (0, 1, 3))

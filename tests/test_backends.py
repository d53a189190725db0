"""The kernels module on its own: exported orders, the kernels that only
the benchmark's tracer and the tests still reach, and one end-to-end run.

``map_masks`` is checked against the direct predicates in
``test_maps.py``, ``class_masks`` in ``test_classes.py`` and
``enumerate_masks`` against the naive oracle in ``test_enumeration.py``.
"""

import random

import topolab as T
from topolab import _kernels, classes, verifier
from topolab.maps import SpaceMap, assignment_from_index, compose, map_index

from _oracles import naive_closure, naive_interior, naive_maximal, naive_min_nbhd


def test_space_pack_and_class_masks_agree():
    # space_pack against the naive oracles, class_masks against the predicates
    for s in T.spaces_up_to(3):
        minn, maximal, int_t, cl_t = _kernels.space_pack(s.n, s.opens)
        assert minn == tuple(naive_min_nbhd(s.n, s.opens, x) for x in range(s.n))
        assert maximal == naive_maximal(s.n, s.opens)
        assert int_t == tuple(naive_interior(s.n, s.opens, a) for a in s.subsets())
        assert cl_t == tuple(naive_closure(s.n, s.opens, a) for a in s.subsets())
        masks = _kernels.class_masks(s.n, s.opens)
        for cid, mask in zip(_kernels.CLASS_ORDER, masks):
            assert mask == sum(1 << a for a in T.family(s, cid)), (s, cid)


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
        limit = rng.choice([-1, 0, 1, 4])
        expect = [(fi, gi) for fi in f_idx for gi in g_idx
                  if not target >> map_index(compose(
                      SpaceMap(y, z, assignment_from_index(gi, y.n, z.n)),
                      SpaceMap(x, y, assignment_from_index(fi, x.n, y.n)))) & 1]
        got = _kernels.composition_failures(x.n, y.n, z.n, f_idx, g_idx, target, limit)
        assert got == (len(expect), expect if limit < 0 else expect[:limit])


def test_tuple_orders_exported_once():
    assert T.BACKEND == _kernels.BACKEND == "pure"
    assert classes.CLASS_IDS is _kernels.CLASS_ORDER
    assert len(_kernels.CLASS_ORDER) == 15
    assert len(_kernels.MAP_PROP_ORDER) == 11


def test_pure_backend_runs_the_full_pipeline():
    # spot-check one refutation end to end
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    assert (r.outcome, r.failures, r.witnesses[0].spaces[0].opens) == \
        ("refuted", 2, (0, 1, 3))

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolab as T
from topolab import _kernels, classes, maps, space
from topolab._kernels import MAP_PROP_ORDER
from topolab.enumeration import enumerate_maps, spaces_up_to
from topolab.errors import BadParams, SpaceMismatch

SIERP = T.sierpinski()
IND2 = T.indiscrete(2)
DISC1 = T.discrete(1)
DISC2 = T.discrete(2)

SWAP = T.SpaceMap(SIERP, SIERP, (1, 0))
IDS = T.identity_map(SIERP)


# ------------------------------------------------------------- construction

def test_assignment_validation():
    with pytest.raises(BadParams):
        T.SpaceMap(SIERP, SIERP, (0,))           # wrong length
    with pytest.raises(BadParams):
        T.SpaceMap(SIERP, SIERP, (0, 2))         # point outside codomain
    with pytest.raises(BadParams):
        T.SpaceMap(SIERP, SIERP, (0, -1))
    with pytest.raises(BadParams):
        T.SpaceMap(SIERP, SIERP, (0, True))
    for bad in (5, None):                         # not a sequence
        with pytest.raises(BadParams):
            T.SpaceMap(SIERP, SIERP, bad)
    with pytest.raises(BadParams):
        T.SpaceMap(5, SIERP, (0,))               # endpoints not spaces
    with pytest.raises(BadParams):
        T.SpaceMap(SIERP, 5, (0, 0))
    with pytest.raises(BadParams):
        T.classify_map(5)
    assert T.SpaceMap(SIERP, SIERP, [1, 1]).assignment == (1, 1)


def test_empty_domain_map():
    f = T.SpaceMap(T.discrete(0), SIERP, ())
    assert f.image(0) == 0 and f.preimage(0b11) == 0
    assert not T.is_surjective(f)
    g = T.SpaceMap(T.discrete(0), T.discrete(0), ())
    assert T.is_bijective(g)


def test_image_preimage_examples():
    assert IDS.preimage(0b10) == 0b10
    assert SWAP.preimage(0b10) == 0b01
    assert SWAP.image(0b01) == 0b10
    const = T.SpaceMap(DISC2, SIERP, (0, 0))
    assert const.image(0b11) == 0b01
    assert const.preimage(0b01) == 0b11
    assert const.preimage(0b10) == 0


def test_image_preimage_validate_masks():
    with pytest.raises(BadParams):
        SWAP.image(0b100)
    with pytest.raises(BadParams):
        SWAP.preimage(0b100)


def test_compose_and_identity():
    assert T.compose(SWAP, SWAP) == IDS
    assert T.compose(IDS, SWAP) == SWAP
    f = T.SpaceMap(DISC1, IND2, (0,))
    g = T.SpaceMap(IND2, SIERP, (1, 1))
    gf = T.compose(g, f)
    assert gf.domain == DISC1 and gf.codomain == SIERP
    assert gf.assignment == (1,)


def test_compose_requires_identical_middle_space():
    f = T.SpaceMap(DISC1, IND2, (0,))
    g = T.SpaceMap(DISC2, SIERP, (0, 1))    # same n, different topology
    with pytest.raises(SpaceMismatch):
        T.compose(g, f)
    with pytest.raises(BadParams):
        T.compose(5, 5)
    with pytest.raises(BadParams):
        T.compose(f, 5)


def test_inverse():
    assert T.inverse(SWAP) == SWAP
    assert T.inverse(IDS) == IDS
    with pytest.raises(BadParams):
        T.inverse(T.SpaceMap(SIERP, SIERP, (0, 0)))
    with pytest.raises(BadParams):
        T.inverse(5)
    tri = T.SpaceMap(T.discrete(3), T.discrete(3), (1, 2, 0))
    assert T.inverse(tri).assignment == (2, 0, 1)
    assert T.compose(T.inverse(tri), tri) == T.identity_map(T.discrete(3))


def test_surjective_bijective():
    assert T.is_surjective(SWAP) and T.is_bijective(SWAP)
    assert not T.is_surjective(T.SpaceMap(SIERP, SIERP, (0, 0)))
    onto = T.SpaceMap(T.discrete(3), DISC2, (0, 1, 0))
    assert T.is_surjective(onto) and not T.is_bijective(onto)


# ------------------------------------------------------------- predicates

def test_continuity_examples():
    assert T.is_continuous(IDS)
    assert not T.is_continuous(SWAP)          # preimage of {0} is {1}
    const = T.SpaceMap(DISC2, SIERP, (0, 0))
    assert T.is_continuous(const) and not T.is_surjective(const)


def test_alpha_m_continuity_examples():
    assert T.is_alpha_m_continuous(IDS)
    assert not T.is_alpha_m_continuous(SWAP)  # preimage of closed {1} is {0}
    ind_to_sierp = T.SpaceMap(IND2, SIERP, (0, 1))
    assert T.is_alpha_m_continuous(ind_to_sierp)
    assert not T.is_continuous(ind_to_sierp)


def test_alpha_m_irresolute_examples():
    assert T.is_alpha_m_irresolute(IDS)
    assert not T.is_alpha_m_irresolute(SWAP)
    for f in enumerate_maps(SIERP, T.indiscrete(1)):
        assert T.is_alpha_m_irresolute(f)


def test_closed_map_examples():
    assert T.is_closed_map(IDS) and T.is_alpha_m_closed_map(IDS)
    f = T.SpaceMap(DISC1, IND2, (0,))
    assert T.is_alpha_m_closed_map(f) and not T.is_closed_map(f)
    assert not T.is_alpha_m_closed_map(SWAP)  # image of closed {1} is {0}


def test_open_map_and_alpha_m_open_map():
    assert T.is_open_map(IDS) and T.is_alpha_m_open_map(IDS)
    f = T.SpaceMap(DISC1, IND2, (0,))
    assert T.is_alpha_m_open_map(f) and not T.is_open_map(f)


def test_irresolute_implies_alpha_m_continuous():
    for x in spaces_up_to(3):
        for y in spaces_up_to(3):
            if x.n > 2 and y.n > 2:
                continue
            for f in enumerate_maps(x, y):
                if T.is_alpha_m_irresolute(f):
                    assert T.is_alpha_m_continuous(f)


def test_alpha_m_continuous_iff_open_preimages_alpha_m_open():
    # exact identity behind the fwd/bwd claim pair
    for x in spaces_up_to(2):
        for y in spaces_up_to(2):
            for f in enumerate_maps(x, y):
                assert (T.is_alpha_m_continuous(f)
                        == maps.open_preimages_alpha_m_open(f))


def test_preimage_complement_identity():
    for x in spaces_up_to(2):
        for y in spaces_up_to(2):
            for f in enumerate_maps(x, y):
                for b in y.subsets():
                    assert (f.preimage(y.complement(b))
                            == x.complement(f.preimage(b)))


def test_classification_identity_and_swap():
    r = T.classify_map(IDS).to_record()
    assert all(r.values())
    assert tuple(r) == T.MAP_PROPERTY_IDS
    r = T.classify_map(SWAP).to_record()
    assert r["bijective"] and r["surjective"]
    for k, v in r.items():
        if k not in ("bijective", "surjective"):
            assert not v, k


def test_classification_against_predicates():
    preds = {
        "continuous": T.is_continuous,
        "open_map": T.is_open_map,
        "closed_map": T.is_closed_map,
        "surjective": T.is_surjective,
        "bijective": T.is_bijective,
        "alpha_m_continuous": T.is_alpha_m_continuous,
        "alpha_m_irresolute": T.is_alpha_m_irresolute,
        "alpha_m_closed_map": T.is_alpha_m_closed_map,
        "alpha_m_open_map": T.is_alpha_m_open_map,
    }
    assert set(preds) == set(T.MAP_PROPERTY_IDS)
    for x in spaces_up_to(2):
        for y in spaces_up_to(2):
            for f in enumerate_maps(x, y):
                rec = T.classify_map(f).to_record()
                for name, p in preds.items():
                    assert rec[name] == p(f), (f, name)


KERNEL_PREDS = {
    "continuous": T.is_continuous,
    "closed_map": T.is_closed_map,
    "surjective": T.is_surjective,
    "bijective": T.is_bijective,
    "alpha_m_continuous": T.is_alpha_m_continuous,
    "alpha_m_irresolute": T.is_alpha_m_irresolute,
    "alpha_m_closed_map": T.is_alpha_m_closed_map,
    "alpha_m_open_map": T.is_alpha_m_open_map,
    "open_preimages_alpha_m_open": maps.open_preimages_alpha_m_open,
    "inverse_alpha_m_continuous":
        lambda f: T.is_bijective(f) and T.is_alpha_m_continuous(T.inverse(f)),
}


def _check_kernel_map_masks(x, y):
    """Every bit of map_masks for X -> Y against the one-map predicates."""
    sides = [[classes.family_mask(s, c)
              for c in ("open", "closed", "alpha_m_closed", "alpha_m_open")]
             for s in (x, y)]
    bitsets = _kernels.map_masks(x.n, *sides[0], y.n, *sides[1])
    assert all(bits >> y.n ** x.n == 0 for bits in bitsets), (x, y)
    for rank, f in enumerate(enumerate_maps(x, y)):
        for prop, bits in zip(MAP_PROP_ORDER, bitsets):
            assert (bits >> rank & 1) == KERNEL_PREDS[prop](f), (x, y, rank, prop)


def test_kernel_map_masks_match_direct_predicates():
    # the sweep kernel and the one-map-at-a-time route must agree bit for
    # bit on every map between spaces of at most 3 points (24,907 maps)
    assert set(KERNEL_PREDS) == set(MAP_PROP_ORDER)
    pool = spaces_up_to(3)
    for x in pool:
        for y in pool:
            _check_kernel_map_masks(x, y)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_kernel_map_masks_match_direct_predicates_4_5_points(data):
    x = data.draw(preorder_spaces(min_n=4, max_n=5))
    y = data.draw(preorder_spaces(min_n=4, max_n=5))
    _check_kernel_map_masks(x, y)


# ------------------------------------------------------------- ranks, formats

def test_map_index_product_order():
    for x in spaces_up_to(3):
        for y in spaces_up_to(3):
            if x.n + y.n > 5:
                continue
            for rank, f in enumerate(enumerate_maps(x, y)):
                assert maps.map_index(f) == rank
                assert maps.assignment_from_index(rank, x.n, y.n) == f.assignment


def test_assignment_from_index_bounds():
    with pytest.raises(BadParams):
        maps.assignment_from_index(4, 2, 2)
    with pytest.raises(BadParams):
        maps.assignment_from_index(-1, 2, 2)
    assert maps.assignment_from_index(0, 0, 0) == ()


def test_map_record_round_trip():
    for f in (IDS, SWAP, T.SpaceMap(DISC1, IND2, (0,))):
        assert T.map_from_record(f.to_record()) == f
        assert T.map_from_json(f.to_json()) == f


def test_map_json_shape():
    f = T.SpaceMap(DISC1, IND2, (0,))
    assert f.to_json() == ('{"domain":{"n":1,"opens":[[],[0]]},'
                           '"codomain":{"n":2,"opens":[[],[0,1]]},'
                           '"assignment":[0]}')


def test_map_record_strict():
    rec = SWAP.to_record()
    rec["extra"] = 1
    with pytest.raises(BadParams):
        T.map_from_record(rec)
    with pytest.raises(BadParams):
        T.map_from_record({"domain": SIERP.to_record()})
    with pytest.raises(BadParams):
        T.map_from_json('{"domain":1}')
    with pytest.raises(BadParams):
        T.map_from_json("not json")
    with pytest.raises(BadParams):
        T.map_from_json(5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_map_algebra_random(data):
    pool = spaces_up_to(3)
    x = data.draw(st.sampled_from(pool))
    y = data.draw(st.sampled_from(pool))
    assign = tuple(
        data.draw(st.integers(0, y.n - 1)) for _ in range(x.n)) if y.n else ()
    if x.n and not y.n:
        return
    f = T.SpaceMap(x, y, assign)
    a = data.draw(st.integers(0, x.full))
    b = data.draw(st.integers(0, y.full))
    # image/preimage adjunction: f(A) <= B  iff  A <= f^-1(B)
    assert (f.image(a) & b == f.image(a)) == (a & f.preimage(b) == a)
    assert f.preimage(y.complement(b)) == x.complement(f.preimage(b))
    assert maps.assignment_from_index(maps.map_index(f), x.n, y.n) == assign


@st.composite
def preorder_spaces(draw, min_n=0, max_n=6):
    """A random space: the reflexive-transitive closure of a random relation,
    each point's minimal neighbourhood being the points it reaches."""
    n = draw(st.integers(min_n, max_n))
    reach = [1 << x | draw(st.integers(0, (1 << n) - 1)) for x in range(n)]
    for k in range(n):              # Warshall
        for x in range(n):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    return space.FiniteSpace(n, tuple(reach))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_map_predicates_match_family_definitions(data):
    # the predicates test generating sets; the definitions quantify over
    # every open, closed, alpha_m-closed or alpha_m-open set
    x, y = data.draw(preorder_spaces()), data.draw(preorder_spaces())
    if x.n and not y.n:
        return
    f = T.SpaceMap(x, y, tuple(data.draw(st.integers(0, y.n - 1)) for _ in range(x.n)))
    opens_x, opens_y = set(x.opens), set(y.opens)
    assert T.is_continuous(f) == all(f.preimage(u) in opens_x for u in y.opens)
    assert T.is_open_map(f) == all(f.image(u) in opens_y for u in x.opens)
    amc_x, amc_y = (classes.family_set(s, "alpha_m_closed") for s in (x, y))
    amo_x, amo_y = (classes.family_set(s, "alpha_m_open") for s in (x, y))
    closed_x, closed_y = (classes.family(s, "closed") for s in (x, y))
    assert T.is_closed_map(f) == all(y.is_closed(f.image(c)) for c in closed_x)
    assert T.is_alpha_m_continuous(f) == all(f.preimage(c) in amc_x for c in closed_y)
    assert T.is_alpha_m_irresolute(f) == all(f.preimage(c) in amc_x for c in amc_y)
    assert T.is_alpha_m_closed_map(f) == all(f.image(c) in amc_y for c in closed_x)
    assert T.is_alpha_m_open_map(f) == all(f.image(u) in amo_y for u in x.opens)
    assert maps.open_preimages_alpha_m_open(f) == all(
        f.preimage(u) in amo_x for u in y.opens)


def test_map_queries_walk_no_family(monkeypatch):
    # every map property is decided from per-point generating sets: with
    # the subset walk and the family listings refused, classify_map still
    # answers on 5-16 point spaces
    rng = random.Random(12)
    pool = []
    for n in range(5, 17):
        reach = [1 << x | rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                 for x in range(n)]
        for k in range(n):          # Warshall
            for x in range(n):
                if reach[x] >> k & 1:
                    reach[x] |= reach[k]
        pool.append(space.FiniteSpace(n, tuple(reach)))
    wide = T.discrete(16)

    def refuse(*args):
        raise AssertionError("a map query walked the subsets")

    for name in ("canonical_subsets", "family", "family_set"):
        monkeypatch.setattr(classes, name, refuse)
    fs = [T.identity_map(wide)]
    for x in pool:
        for y in rng.sample(pool, 3) + [x]:
            fs.append(T.SpaceMap(x, y, tuple(rng.randrange(y.n) for _ in range(x.n))))
    for f in fs:
        assert len(T.classify_map(f).to_record()) == len(T.MAP_PROPERTY_IDS)
        assert isinstance(maps.open_preimages_alpha_m_open(f), bool)
    assert all(T.classify_map(fs[0]).to_record().values())

import json
import pickle
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolab as T
from topolab.enumeration import spaces_up_to
from topolab.errors import BadParams, NotATopology

from _oracles import (naive_closure, naive_interior, naive_is_topology, naive_labeled_families,
                      naive_maximal, naive_min_nbhd, naive_up_sets)
from test_axioms import _seeded_preorders
from test_maps import preorder_spaces

SIERP = T.sierpinski()


def opens_of(fm, n):
    return [a for a in range(1 << n) if fm >> a & 1]


# ---------------------------------------------------------------- validation

def test_sierpinski_accepted():
    s = T.new_space(2, [0b00, 0b01, 0b11])
    assert s == SIERP
    assert s.opens == (0, 1, 3)


def test_discrete_3_accepted():
    s = T.new_space(3, range(8))
    assert s == T.discrete(3)
    assert len(s.opens) == 8


def test_missing_union_rejected():
    # {0} and {1} open but their union (= the full set) is not
    with pytest.raises(NotATopology, match="full set"):
        T.new_space(2, [0b00, 0b01, 0b10])


def test_missing_union_names_the_pair():
    with pytest.raises(NotATopology) as e:
        T.new_space(3, [0b000, 0b001, 0b010, 0b111])
    msg = str(e.value)
    assert "{0}" in msg and "{1}" in msg and "{0,1}" in msg


def test_missing_empty_and_full_rejected():
    with pytest.raises(NotATopology, match="empty set"):
        T.new_space(2, [0b01, 0b11])
    with pytest.raises(NotATopology, match="full set|whole"):
        T.new_space(2, [0b00, 0b01])


def test_missing_intersection_rejected():
    # {0,1} and {1,2} present, {1} absent
    with pytest.raises(NotATopology) as e:
        T.new_space(3, [0b000, 0b011, 0b110, 0b111])
    assert "{1}" in str(e.value)


def test_validator_matches_naive_oracle_exhaustively():
    # every candidate family on <= 3 points validates iff the brute-force
    # oracle accepts it
    for n in range(4):
        good = set(naive_labeled_families(n))
        size = 1 << n
        full = size - 1
        base = (1 << 0) | (1 << full)
        middles = [a for a in range(size) if a not in (0, full)]
        for pick in range(1 << len(middles)):
            fm = base
            for i, a in enumerate(middles):
                if pick >> i & 1:
                    fm |= 1 << a
            members = opens_of(fm, n)
            if fm in good:
                assert T.new_space(n, members).n == n
            else:
                with pytest.raises(NotATopology):
                    T.new_space(n, members)


def _names_a_real_gap(msg, n, members):
    # a NotATopology message names a missing empty or full set, or two
    # members whose union or intersection is missing
    full = (1 << n) - 1
    if msg == "the empty set is missing from the family":
        return 0 not in members
    if msg.startswith("the full set "):
        return full not in members
    m = re.fullmatch(r"(union|intersection) of \{([\d,]*)\} and \{([\d,]*)\}"
                     r" = \{([\d,]*)\} is not in the family", msg)
    if m is None:
        return False
    a, b, c = (T.subset_of_points([int(p) for p in g.split(",") if p], n)
               for g in m.group(2, 3, 4))
    return (a in members and b in members and c not in members
            and c == (a | b if m[1] == "union" else a & b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validator_matches_naive_oracle_on_4_to_8_points(data):
    # the opens of a random preorder, as they are, with one member dropped
    # (the empty or full set only where there is no other), or with one
    # subset that is not open added
    s = data.draw(preorder_spaces(min_n=4, max_n=8))
    n, members = s.n, set(s.opens)
    edit = data.draw(st.sampled_from(("keep", "drop", "add")))
    if edit == "drop":
        members.discard(data.draw(st.sampled_from(s.opens[1:-1] or s.opens)))
    elif edit == "add" and len(members) < 1 << n:
        members.add(data.draw(st.sampled_from([a for a in range(1 << n) if a not in members])))
    if naive_is_topology(n, members):
        got = T.new_space(n, members)
        # the checked constructor accepts the table new_space builds unchecked
        assert T.FiniteSpace(n, got.min_nbhd) == got
        assert got.min_nbhd == tuple(naive_min_nbhd(n, members, x) for x in range(n))
        assert set(got.opens) == members
    else:
        with pytest.raises(NotATopology) as e:
            T.new_space(n, members)
        assert _names_a_real_gap(str(e.value), n, members), str(e.value)


def test_large_space_validation_uses_reconstruction_path():
    # a 12-point khalimsky interval round-trips through the validator
    k = T.khalimsky_interval(12)
    assert T.new_space(12, k.opens) == k
    # breaking one open set is caught on the same path
    broken = [u for u in k.opens if u != k.opens[1]]
    with pytest.raises(NotATopology):
        T.new_space(12, broken)


def test_bad_params():
    for n in (-1, 17, "2", 2.0, True):
        with pytest.raises(BadParams):
            T.new_space(n, [0])
    with pytest.raises(BadParams):
        T.new_space(2, [0, 4, 3])       # bit outside ground set
    with pytest.raises(BadParams):
        T.new_space(2, [0, -1, 3])
    with pytest.raises(BadParams):
        T.new_space(2, [0, True, 3])    # bools are not subsets
    with pytest.raises(BadParams):
        T.new_space(2, [0, "1", 3])
    for opens in (5, None, 3.0):        # not iterable at all
        with pytest.raises(BadParams):
            T.new_space(2, opens)


def test_duplicates_collapse():
    s = T.new_space(2, [0, 1, 3, 1, 0])
    assert s.opens == (0, 1, 3)


def test_opens_stored_sorted_by_size_then_value():
    s = T.new_space(3, [7, 0, 3, 1, 5])
    assert s.opens == (0, 1, 3, 5, 7)


# ---------------------------------------------------------- interior/closure

def test_interior_examples():
    assert SIERP.interior(0b10) == 0          # only the empty open fits
    assert SIERP.interior(0b11) == 0b11       # X is open
    assert T.indiscrete(2).interior(0b01) == 0


def test_closure_examples():
    assert SIERP.closure(0b01) == 0b11        # closed sets: {}, {1}, X
    assert SIERP.closure(0b00) == 0b00
    assert T.discrete(3).closure(0b110) == 0b110


def test_interior_closure_match_naive_oracle():
    # with the minimal neighbourhoods they are computed from, and the
    # maximal points that the alpha_m classes read
    for s in spaces_up_to(4):
        n, opens = s.n, s.opens
        assert s.min_nbhd == tuple(naive_min_nbhd(n, opens, x) for x in range(n))
        assert s.maximal == naive_maximal(n, opens)
        for a in s.subsets():
            assert s.interior(a) == naive_interior(n, opens, a)
            assert s.closure(a) == naive_closure(n, opens, a)
            assert s.is_open(a) == (a in opens)


def test_maximal_matches_naive_oracle_on_larger_preorders():
    for s in _seeded_preorders(31, [6, 7, 8, 9, 10] * 6):
        assert s.maximal == naive_maximal(s.n, s.opens), s


def test_membership_flags():
    assert SIERP.is_open(0b01) and not SIERP.is_closed(0b01)
    assert not SIERP.is_clopen(0b01)
    assert SIERP.is_clopen(0b11) and SIERP.is_clopen(0)
    ind = T.indiscrete(2)
    assert not ind.is_open(0b01) and not ind.is_closed(0b01)


def test_check_subset_rejects_stray_bits():
    with pytest.raises(BadParams):
        SIERP.interior(0b100)
    with pytest.raises(BadParams):
        SIERP.closure(-1)


def test_discrete_and_indiscrete_operator_shapes():
    d = T.discrete(3)
    for a in d.subsets():
        assert d.interior(a) == a == d.closure(a)
    ind = T.indiscrete(3)
    full = ind.full
    for a in ind.subsets():
        assert ind.interior(a) == (full if a == full else 0)
        assert ind.closure(a) == (0 if a == 0 else full)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_kuratowski_laws_random(n, data):
    fams = naive_labeled_families(n)
    fm = data.draw(st.sampled_from(fams))
    s = T.new_space(n, opens_of(fm, n))
    a = data.draw(st.integers(0, s.full))
    ia, ca = s.interior(a), s.closure(a)
    assert ia & a == ia and a & ca == a
    assert s.interior(ia) == ia and s.closure(ca) == ca
    assert ia == s.full ^ s.closure(s.full ^ a)
    assert s.is_open(ia) and s.is_closed(ca)


# ------------------------------------------------------------------ generators

def test_generator_structures():
    assert T.sierpinski().opens == (0, 1, 3)
    assert T.khalimsky_interval(3).opens == (0, 0b010, 0b011, 0b110, 0b111)
    assert T.discrete(0).opens == (0,)
    assert T.indiscrete(1).opens == (0, 1)
    assert T.particular_point(3, 0).opens == (0, 1, 3, 5, 7)
    ex = T.excluded_point(3, 2)
    assert ex.opens == (0, 1, 2, 3, 7)
    for p in (3, -1, True, "0"):
        with pytest.raises(BadParams):
            T.excluded_point(3, p)


def test_khalimsky_minimal_neighbourhoods():
    k = T.khalimsky_interval(5)
    assert k.min_nbhd == (0b00011, 0b00010, 0b01110, 0b01000, 0b11000)


def test_constructors_seed_the_exact_neighbourhood_table():
    # new_space, the generators and the enumeration store a table, from
    # which the opens are derived; it must be the one the opens give back
    def check(s):
        assert s.min_nbhd == tuple(naive_min_nbhd(s.n, s.opens, x) for x in range(s.n)), s

    for s in spaces_up_to(5):
        check(s)
        twin = T.new_space(s.n, s.opens)
        assert twin.opens == s.opens, s
        check(twin)
    check(T.space_from_json(T.khalimsky_interval(6).to_json()))
    check(T.discrete(16))
    for n in range(9):
        for s in (T.discrete(n), T.indiscrete(n), T.khalimsky_interval(n)):
            check(s)
        for p in range(n):
            check(T.particular_point(n, p))
            check(T.excluded_point(n, p))
    check(T.sierpinski())


@settings(max_examples=60, deadline=None)
@given(preorder_spaces(max_n=16))
def test_table_builder_lists_every_up_set(s):
    # FiniteSpace.opens joins table entries; the reference tries all 2^n subsets
    assert list(s.opens) == naive_up_sets(s.n, s.min_nbhd)


def test_generate_dispatch():
    assert T.generate("sierpinski") == SIERP
    assert T.generate("discrete", 3) == T.discrete(3)
    assert T.generate("khalimsky_interval", 4) == T.khalimsky_interval(4)
    with pytest.raises(BadParams):
        T.generate("nosuch")
    with pytest.raises(BadParams):
        T.generate("discrete")            # missing arity
    with pytest.raises(BadParams):
        T.generate("sierpinski", 2)
    with pytest.raises(BadParams):
        T.generate("particular_point", 3, 5)


def test_generators_validate():
    gens = [T.discrete(4), T.indiscrete(4), T.sierpinski(),
            T.particular_point(4, 2), T.excluded_point(4, 1),
            T.khalimsky_interval(7)]
    for s in gens:
        assert T.new_space(s.n, s.opens) == s


# ------------------------------------------------------------------ formats

def test_record_round_trip():
    for s in (SIERP, T.discrete(0), T.khalimsky_interval(4)):
        assert T.space_from_record(s.to_record()) == s
        assert T.space_from_json(s.to_json()) == s


def test_json_shape_exact():
    assert SIERP.to_json() == '{"n":2,"opens":[[],[0],[0,1]]}'
    assert T.discrete(0).to_json() == '{"n":0,"opens":[[]]}'


def test_record_strict_keys():
    with pytest.raises(BadParams):
        T.space_from_record({"n": 2, "opens": [[], [0], [0, 1]], "x": 1})
    with pytest.raises(BadParams):
        T.space_from_record({"n": 2})
    with pytest.raises(BadParams):
        T.space_from_record([2, []])


def test_bad_json_is_input_error():
    with pytest.raises(BadParams):
        T.space_from_json("{not json")
    with pytest.raises(BadParams):
        T.space_from_json(5)                    # not JSON text at all
    with pytest.raises(BadParams):
        T.space_from_json("[" * 200_000)        # nests past the parser's recursion limit
    with pytest.raises(BadParams):
        T.space_from_json("1" * 5000)           # past the integer digit limit
    with pytest.raises(BadParams):
        T.space_from_json(b"{\x80}")            # bytes that are not UTF-8
    with pytest.raises(BadParams):
        T.map_from_json("[" * 200_000)
    with pytest.raises(BadParams):
        T.space_from_json('{"n":2,"opens":[[],[0],[0,2]]}')  # point out of range
    with pytest.raises(NotATopology):
        T.space_from_json('{"n":2,"opens":[[],[0]]}')


def test_record_errors_keep_their_precedence():
    # the parse checks each entry's type as it goes; an entry that is no
    # list must still be reported before a bad point count or an earlier
    # bad point
    lists = "space record field 'opens' must be a list of point lists"
    cases = (
        ({"n": True, "opens": 5}, "space record field 'n' must be an integer"),
        ({"n": 2, "opens": "ab"}, lists),
        ({"n": 2, "opens": [[], [0], 5]}, lists),
        ({"n": 2, "opens": [[9], 5]}, lists),
        ({"n": 20, "opens": [[0], 5]}, lists),
        ({"n": 20, "opens": [[0]]}, "point count 20 outside 0..16"),
        ({"n": 2, "opens": [[9], [0]]}, "point 9 outside ground set of 2 points"),
        ({"n": 2, "opens": [[], [True]]}, "point True outside ground set of 2 points"),
    )
    for record, message in cases:
        with pytest.raises(BadParams) as err:
            T.space_from_record(record)
        assert str(err.value) == message, record

    class Point(int):
        pass

    class Points(list):
        pass

    assert T.space_from_record({"n": 2, "opens": Points([[], Points([Point(0)]), [0, 1]])}) == SIERP


def test_subset_helpers():
    assert T.subset_of_points([0, 2], 3) == 0b101
    assert T.subset_of_points([], 3) == 0
    assert T.points_of(0b101) == [0, 2]
    assert T.format_subset(0b101) == "{0,2}"
    assert T.format_subset(0) == "{}"
    with pytest.raises(BadParams):
        T.subset_of_points([3], 3)
    with pytest.raises(BadParams):
        T.subset_of_points([True], 3)


def test_subset_helpers_reject_negative_masks():
    # a negative int has endless set bits in two's complement, so a loop
    # that clears one bit at a time never ends; the alarm turns such a hang
    # into a failure
    def timeout(signum, frame):
        raise TimeoutError("no answer within 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(1)
    try:
        for fn in (T.points_of, T.format_subset):
            for bad in (-1, -0b101, 1.0, "1", None):
                with pytest.raises(BadParams):
                    fn(bad)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_repr_is_readable():
    assert repr(SIERP) == "FiniteSpace(n=2, opens=[{},{0},{0,1}])"


def test_spaces_hash_and_compare():
    assert T.new_space(2, [0, 1, 3]) == SIERP
    assert hash(T.new_space(2, [0, 1, 3])) == hash(SIERP)
    assert T.new_space(2, [0, 2, 3]) != SIERP
    assert len({T.discrete(2), T.discrete(2), T.indiscrete(2)}) == 2


def test_a_space_is_its_table():
    # the table is the one stored form: equality and hash follow it, and
    # the opens are derived from it when read
    k = T.khalimsky_interval(5)
    assert vars(T.FiniteSpace(5, k.min_nbhd)) == {"n": 5, "min_nbhd": k.min_nbhd}
    assert "opens" not in vars(k)
    assert k == T.FiniteSpace(5, k.min_nbhd) == T.new_space(5, k.opens)
    assert hash(k) == hash(T.FiniteSpace(5, k.min_nbhd))
    back = pickle.loads(pickle.dumps(k))
    assert back == k and back.opens == k.opens


def test_queries_list_no_opens():
    for s in (T.discrete(16), T.khalimsky_interval(16)):
        T.axiom_report(s)
        for a in (0, 1, 0b110, s.full >> 1, s.full):
            T.classify_subset(s, a)
        T.classify_map(T.identity_map(s))
        assert "opens" not in vars(s), s

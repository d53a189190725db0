import random
import sys

import pytest

import topolab as T
from topolab import enumeration, verifier
from topolab.enumeration import spaces_up_to
from topolab.errors import BadParams
from topolab.space import FiniteSpace

SIERP = T.sierpinski()
IND2 = T.indiscrete(2)


def test_T0_examples():
    assert T.is_T0(SIERP)
    assert T.is_T0(T.discrete(3))
    assert not T.is_T0(IND2)
    assert T.is_T0(T.discrete(0)) and T.is_T0(T.discrete(1))


def test_T1_examples():
    assert not T.is_T1(SIERP)
    assert T.is_T1(T.discrete(3))
    assert T.is_T1(T.discrete(0))
    assert not T.is_T1(T.khalimsky_interval(3))


def test_T1_means_discrete_on_finite_spaces():
    for s in spaces_up_to(4):
        assert T.is_T1(s) == (len(s.opens) == 1 << s.n)


def test_T_half_examples():
    assert T.is_T_half(SIERP)
    assert not T.is_T_half(IND2)
    for n in range(5):
        assert T.is_T_half(T.discrete(n))


def test_T_half_khalimsky_up_to_6():
    for n in range(7):
        assert T.is_T_half(T.khalimsky_interval(n))


def test_T_alpha_m_examples():
    assert T.is_T_alpha_m(SIERP)
    assert not T.is_T_alpha_m(IND2)
    for n in range(5):
        assert T.is_T_alpha_m(T.discrete(n))


def test_T_alpha_m_is_family_equality():
    for s in spaces_up_to(4):
        assert T.is_T_alpha_m(s) == (
            T.family_set(s, "alpha_m_closed") == T.family_set(s, "closed"))
        # one inclusion is automatic: closed sets are alpha_m-closed
        assert T.family_set(s, "closed") <= T.family_set(s, "alpha_m_closed")


def test_T_half_is_family_equality():
    for s in spaces_up_to(4):
        assert T.is_T_half(s) == (
            T.family_set(s, "g_closed") == T.family_set(s, "closed"))


def _seeded_preorders(seed, sizes):
    rng = random.Random(seed)
    out = []
    for n in sizes:
        reach = [1 << x | rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                 for x in range(n)]
        for k in range(n):          # Warshall
            for x in range(n):
                if reach[x] >> k & 1:
                    reach[x] |= reach[k]
        out.append(FiniteSpace(n, tuple(reach)))
    return out


def _long_walk(n, head):
    """The table ``head`` on points 0-2, then U_x = {0, 1, x} for each x
    beyond."""
    return head + tuple(3 | 1 << x for x in range(3, n))


# spaces whose witnesses come late in canonical order: X - {1} is the
# (2^n - 2)-th subset, X - {0} the (2^n - 1)-th, and only X follows
LONG_WALKS = {
    # the star: U_0 = U_1 = {0, 1}, and U_x = {0, 1, x} beyond
    _long_walk(8, (3, 3, 7)): {"T_half": 253, "T_alpha_m": 253},
    _long_walk(16, (3, 3, 7)): {"T_half": 65533, "T_alpha_m": 65533},
    # the tree: U_0 = {0}, U_1 = {0, 1}, U_2 = {0, 2}, and U_x = {0, 1, x} beyond
    _long_walk(8, (1, 3, 5)): {"T_half": 253},
    _long_walk(16, (1, 3, 5)): {"T_half": 65533},
    # U_1 = {1}, U_0 = {0, 1}, and U_x = {0, 1, x} beyond
    _long_walk(8, (3, 2, 7)): {"T_half": 254},
    _long_walk(16, (3, 2, 7)): {"T_half": 65534},
}


def test_gap_witness_is_first_family_member_not_closed():
    # the witnesses built from the tables are what comparing whole families
    # finds; on n <= 5 points, the T0 and T1 witnesses are the first
    # offending pairs under the pointwise definitions
    long_walks = tuple(FiniteSpace(len(t), t) for t in LONG_WALKS)
    spaces = (spaces_up_to(5) + tuple(T.khalimsky_interval(n) for n in range(7, 11))
              + long_walks + tuple(_seeded_preorders(23, [6, 7, 8, 9, 10] * 4))
              + tuple(_seeded_preorders(29, [11, 12] * 4)))
    for s in spaces:
        found = dict(T.axiom_report(s).witnesses)
        closed = T.family_set(s, "closed")
        for axiom, cid in (("T_half", "g_closed"), ("T_alpha_m", "alpha_m_closed")):
            first = next((a for a in T.family(s, cid) if a not in closed), None)
            assert found.get(axiom) == first, (s, axiom)
        if s.n <= 5:
            pairs = [(x, y) for x in range(s.n) for y in range(s.n) if x != y]
            t0 = next(((1 << x) | (1 << y) for x, y in pairs
                       if x < y and all(u >> x & 1 == u >> y & 1 for u in s.opens)), None)
            t1 = next(((1 << x) | (1 << y) for x, y in pairs
                       if all(u >> y & 1 for u in s.opens if u >> x & 1)), None)
            assert (found.get("T0"), found.get("T1")) == (t0, t1), s
    for s, pins in zip(long_walks, LONG_WALKS.values()):
        found = dict(T.axiom_report(s).witnesses)
        assert {axiom: found.get(axiom) for axiom in pins} == pins, s


def test_T_half_iff_singletons_open_or_closed():
    # Dunham (1977): T_1/2 iff every singleton is open or closed
    for s in spaces_up_to(5):
        pointwise = all(s.is_open(1 << x) or s.is_closed(1 << x) for x in range(s.n))
        assert T.is_T_half(s) == pointwise, s


def test_T_alpha_m_iff_singletons_closed_or_open_with_clopen_closure():
    """Proved in topolab.axioms: T_alpha_m iff every singleton is closed,
    or is open with a clopen closure.  Pinned here to
    the families on every labeled space with at most 5 points (252 of the
    7,332 are T_alpha_m)."""
    holds = 0
    for s in spaces_up_to(5):
        pointwise = all(s.is_closed(1 << x)
                        or (s.is_open(1 << x) and s.is_clopen(s.closure(1 << x)))
                        for x in range(s.n))
        assert pointwise == (
            T.family_set(s, "alpha_m_closed") == T.family_set(s, "closed")), s
        assert T.is_T_alpha_m(s) == pointwise, s
        holds += pointwise
    assert holds == 252


def _star_forest(s):
    """Every U_y - {y} is empty, or is one point x with U_x = {x}."""
    for y, u in enumerate(s.min_nbhd):
        rest = u & ~(1 << y)
        if rest and (rest & (rest - 1) or s.min_nbhd[rest.bit_length() - 1] != rest):
            return False
    return True


def test_T_alpha_m_spaces_are_star_forests():
    # on all 7,332 labeled spaces with at most 5 points: T_alpha_m holds
    # exactly on the star forests, which number A000248 (idempotent maps of
    # the points) per n, in A000041 classes (partitions of n by star
    # size); the singleton dichotomy holds exactly on the discrete spaces,
    # so T3_2_ab fails A000248(n) - 1 times on n >= 1 points, 246 in all
    spaces = spaces_up_to(5)
    assert len(spaces) == 7332
    labeled, refuted = [0] * 6, [0] * 6
    for s in spaces:
        t_alpha_m = T.is_T_alpha_m(s)
        assert t_alpha_m == _star_forest(s), s
        assert T.singleton_dichotomy(s) == (s.min_nbhd == tuple(1 << x for x in range(s.n))), s
        labeled[s.n] += t_alpha_m
        refuted[s.n] += t_alpha_m and not T.singleton_dichotomy(s)
    assert labeled == [1, 1, 3, 10, 41, 196]
    assert [sum(T.is_T_alpha_m(rep) for rep, _ in enumeration._classes(n))
            for n in range(6)] == [1, 1, 2, 3, 5, 7]
    assert refuted == [0, 0, 2, 9, 40, 195] == [0] + [a - 1 for a in labeled[1:]]
    assert [T.verify("T3_2_ab", verifier.Scope(n)).failures for n in range(6)] == \
        [sum(refuted[:n + 1]) for n in range(6)]
    assert sum(refuted) == 246


def _lines_run(fn, *args):
    """The number of lines of topolab code that ``fn(*args)`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if "topolab" in frame.f_code.co_filename else None

    old = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return count


def test_holding_gap_axioms_walk_no_subsets():
    # T_half and T_alpha_m hold on these 253 spaces, and are reported so
    # without a walk over the subsets: at most 16 (n + 2)^2 lines run, where
    # walking discrete(16)'s 65,536 subsets runs more than that on its own
    spaces = [s for s in spaces_up_to(5) if T.is_T_alpha_m(s)] + [T.discrete(16)]
    for s in spaces:
        r = T.axiom_report(s)
        assert r.T_alpha_m and r.T_half, s
        assert _lines_run(T.axiom_report, s) <= 16 * (s.n + 2) ** 2, s
    assert len(spaces) == 253


def test_axiom_report_walks_no_subsets():
    # every witness is built from the tables in O(n^2): at most 9 n^2 lines
    # run on these 16-point spaces, where the canonical-order walk ran
    # about 50,000 n^2 on the star
    spaces = ([FiniteSpace(len(t), t) for t in LONG_WALKS if len(t) == 16]
              + [T.discrete(16), T.indiscrete(16)] + _seeded_preorders(3, [16] * 10))
    for s in spaces:
        assert _lines_run(T.axiom_report, s) <= 16 * s.n ** 2, s


def test_singleton_dichotomy_examples():
    assert T.singleton_dichotomy(T.discrete(2))
    assert not T.singleton_dichotomy(SIERP)
    assert not T.singleton_dichotomy(IND2)
    assert T.singleton_dichotomy(T.discrete(0))


def test_singleton_dichotomy_definition():
    for s in spaces_up_to(4):
        expect = all(
            T.is_alpha_closed(s, 1 << x) or s.is_clopen(1 << x)
            for x in range(s.n))
        assert T.singleton_dichotomy(s) == expect


def test_separation_chain():
    # classical chain: T1 => T_half => T0, swept exhaustively
    for s in spaces_up_to(4):
        if T.is_T1(s):
            assert T.is_T_half(s)
        if T.is_T_half(s):
            assert T.is_T0(s)


def test_axiom_ids():
    assert T.AXIOM_IDS == ("T0", "T1", "T_half", "T_alpha_m",
                           "singleton_dichotomy")


def test_axiom_report_rejects_a_non_space():
    with pytest.raises(BadParams):
        T.axiom_report(5)


def test_axiom_report_sierpinski():
    r = T.axiom_report(SIERP)
    assert (r.T0, r.T1, r.T_half, r.T_alpha_m, r.singleton_dichotomy) == \
        (True, False, True, True, False)
    rec = r.to_record()
    assert tuple(rec)[:5] == T.AXIOM_IDS
    assert set(rec["witnesses"]) == {"T1", "singleton_dichotomy"}


def test_axiom_report_witnesses_reproduce_failures():
    for s in spaces_up_to(3):
        r = T.axiom_report(s)
        rec = r.to_record()
        flags = {aid: rec[aid] for aid in T.AXIOM_IDS}
        assert set(rec["witnesses"]) == {a for a, ok in flags.items() if not ok}
        for axiom, pts in rec["witnesses"].items():
            mask = T.subset_of_points(pts, s.n)
            if axiom == "T0":
                # two points sharing a minimal neighbourhood
                xs = list(pts)
                assert len(xs) == 2
                assert s.min_nbhd[xs[0]] == s.min_nbhd[xs[1]]
            elif axiom == "T1":
                # a pair where one point sits in the other's every open
                xs = list(pts)
                assert len(xs) == 2
                a, b = xs
                assert s.min_nbhd[a] >> b & 1 or s.min_nbhd[b] >> a & 1
            elif axiom == "T_half":
                assert T.is_g_closed(s, mask) and not s.is_closed(mask)
            elif axiom == "T_alpha_m":
                assert T.is_alpha_m_closed(s, mask) and not s.is_closed(mask)
            else:
                assert bin(mask).count("1") == 1
                assert not T.is_alpha_closed(s, mask)
                assert not s.is_clopen(mask)


def test_indiscrete_2_report():
    r = T.axiom_report(IND2)
    assert not any((r.T0, r.T1, r.T_half, r.T_alpha_m, r.singleton_dichotomy))
    assert len(r.witnesses) == 5

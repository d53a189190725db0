import pytest

import topolab as T
from topolab import axioms
from topolab.enumeration import spaces_up_to
from topolab.errors import BadParams

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


def test_gap_witness_is_first_family_member_not_closed():
    # the canonical-order walk finds what comparing whole families finds
    spaces = spaces_up_to(5) + tuple(T.khalimsky_interval(n) for n in range(7, 11))
    for s in spaces:
        found = dict(T.axiom_report(s).witnesses)
        closed = T.family_set(s, "closed")
        for axiom, cid in (("T_half", "g_closed"), ("T_alpha_m", "alpha_m_closed")):
            first = next((a for a in T.family(s, cid) if a not in closed), None)
            assert found.get(axiom) == first, (s, axiom)


def test_T_half_iff_singletons_open_or_closed():
    # Dunham (1977): T_1/2 iff every singleton is open or closed
    for s in spaces_up_to(5):
        pointwise = all(s.is_open(1 << x) or s.is_closed(1 << x) for x in range(s.n))
        assert T.is_T_half(s) == pointwise, s


def test_T_alpha_m_iff_singletons_closed_or_open_with_clopen_closure():
    """Proved in topolab.axioms, and decided that way: T_alpha_m iff every
    singleton is closed, or is open with a clopen closure.  Pinned here to
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


def test_holding_gap_axioms_walk_no_subsets(monkeypatch):
    # T_half and T_alpha_m are decided from the singletons; the canonical
    # walk runs only to find the witness of a failing space
    spaces = [s for s in spaces_up_to(5) if T.is_T_alpha_m(s)] + [T.discrete(16)]

    def refuse(n):
        raise AssertionError("a holding axiom walked the subsets")

    monkeypatch.setattr(axioms, "canonical_subsets", refuse)
    for s in spaces:
        r = T.axiom_report(s)
        assert r.T_alpha_m and r.T_half, s
    assert len(spaces) == 253


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

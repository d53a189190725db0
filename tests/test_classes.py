import pytest

import topolab as T
from topolab import _kernels, classes, maps
from topolab.errors import BadParams, ScopeTooLarge

from _oracles import naive_alpha_m_closed

SIERP = T.sierpinski()
IND2 = T.indiscrete(2)
DISC2 = T.discrete(2)


def all_spaces(max_n):
    from topolab.enumeration import spaces_up_to
    return spaces_up_to(max_n)


# ----------------------------------------------------------- single predicates

def test_preopen_examples():
    assert T.is_preopen(SIERP, 0b01)          # int(cl({0})) = int(X) = X
    assert not T.is_preopen(SIERP, 0b10)      # int(cl({1})) = int({1}) = {}
    assert T.is_preopen(SIERP, 0)
    assert T.is_preopen(IND2, 0)


def test_semiopen_examples():
    assert T.is_semiopen(SIERP, 0b01)         # cl(int({0})) = cl({0}) = X
    assert not T.is_semiopen(SIERP, 0b10)     # cl({}) = {}
    for a in DISC2.subsets():
        assert T.is_semiopen(DISC2, a)


def test_alpha_examples():
    assert not T.is_alpha_open(IND2, 0b01)
    assert T.is_alpha_closed(SIERP, 0b10)
    for s in (SIERP, IND2, DISC2):
        assert T.is_alpha_open(s, s.full)


def test_beta_examples():
    assert T.is_beta_open(SIERP, 0b01)        # cl(int(cl({0}))) = X
    assert not T.is_beta_open(SIERP, 0b10)
    assert T.is_beta_open(SIERP, 0)


def test_g_closed_examples():
    assert T.is_g_closed(IND2, 0b01)          # only open superset is X
    assert not IND2.is_closed(0b01)
    assert not T.is_g_closed(SIERP, 0b01)     # U = {0}, cl({0}) = X
    for s in (SIERP, IND2, DISC2):
        for a in s.subsets():
            if s.is_closed(a):
                assert T.is_g_closed(s, a)


def test_alpha_m_closed_examples():
    assert T.is_alpha_m_closed(SIERP, 0b10)   # int(cl({1})) = {}
    assert not T.is_alpha_m_closed(SIERP, 0b01)
    assert T.is_alpha_m_closed(IND2, 0b01)


def test_indiscrete_every_subset_alpha_m_closed():
    for n in (2, 3, 4):
        s = T.indiscrete(n)
        for a in s.subsets():
            assert T.is_alpha_m_closed(s, a)


def test_alpha_m_classes_match_the_definition():
    # the maximal-point tests of the predicate, the single pass and the
    # class_masks kernel against the paper's definition, on every n <= 4
    for s in all_spaces(4):
        open_fm, closed_fm, am_closed_fm, am_open_fm = _kernels.class_masks(s.n, s.min_nbhd)
        for a in s.subsets():
            want = naive_alpha_m_closed(s.n, s.opens, a)
            want_open = naive_alpha_m_closed(s.n, s.opens, s.full ^ a)
            r = T.classify_subset(s, a)
            assert T.is_alpha_m_closed(s, a) == r.alpha_m_closed == want, (s, a)
            assert T.is_alpha_m_open(s, a) == r.alpha_m_open == want_open, (s, a)
            assert (am_closed_fm >> a & 1, am_open_fm >> a & 1) == (want, want_open), (s, a)
            assert (open_fm >> a & 1, closed_fm >> a & 1) == (r.open, r.closed), (s, a)
        # proved in topolab.classes: the family is closed under intersection
        fam = T.family_set(s, "alpha_m_closed")
        assert all(a & b in fam for a in fam for b in fam), s


def test_meet_irreducibles_match_brute_force():
    # the listed generators are exactly the members of the alpha_m-closed
    # family that are not the intersection of the members strictly above
    # them, on all 7,332 spaces with n <= 5
    for s in all_spaces(5):
        fam = T.family_set(s, "alpha_m_closed")
        irreducible = set()
        for c in fam - {s.full}:
            meet = s.full
            for d in fam:
                if d != c and d & c == c:
                    meet &= d
            if meet != c:
                irreducible.add(c)
        listed = classes.alpha_m_closed_meet_irreducibles(s)
        assert len(listed) == len(set(listed)), s
        assert set(listed) == irreducible, s


# ----------------------------------------------------------- full reports

def test_classification_report_sierpinski_0():
    r = T.classify_subset(SIERP, 0b01)
    assert (r.open, r.preopen, r.semiopen, r.alpha_open, r.beta_open) == \
        (True,) * 5
    assert (r.closed, r.g_closed, r.alpha_m_closed) == (False,) * 3
    assert not r.clopen


def test_classification_report_discrete_all_true():
    r = T.classify_subset(DISC2, 0b01)
    assert all(getattr(r, f) for f in T.CLASS_IDS)


def test_classification_report_indiscrete_0():
    r = T.classify_subset(IND2, 0b01)
    assert r.g_closed and r.alpha_m_closed and not r.closed


def test_report_record_field_order():
    r = T.classify_subset(SIERP, 0b01)
    rec = r.to_record()
    assert tuple(rec) == T.CLASS_IDS
    assert rec["open"] is True and rec["alpha_m_closed"] is False


def test_class_ids_vocabulary():
    assert T.CLASS_IDS == (
        "open", "closed", "clopen",
        "preopen", "preclosed", "semiopen", "semiclosed",
        "alpha_open", "alpha_closed", "beta_open", "beta_closed",
        "g_closed", "g_open", "alpha_m_closed", "alpha_m_open")


# ----------------------------------------------------------- families

def test_family_examples():
    assert T.family(SIERP, "alpha_m_closed") == [0, 0b10, 0b11]
    assert T.family(SIERP, "closed") == [0, 0b10, 0b11]
    assert T.family(T.indiscrete(1), "open") == [0, 1]


def test_family_canonical_order():
    fam = T.family(T.discrete(3), "open")
    assert fam == sorted(range(8), key=lambda a: (bin(a).count("1"), a))


def test_family_set_and_mask_agree_with_family():
    # all three walk the predicates afresh: no module-level cache, and the
    # space keeps only its neighbourhood table and maximal points
    assert not [name for name, v in vars(classes).items() if hasattr(v, "cache_info")]
    for s in all_spaces(4):
        for cid in T.CLASS_IDS:
            fam = T.family(s, cid)
            assert T.family_set(s, cid) == frozenset(fam)
            mask = classes.family_mask(s, cid)
            members = [a for a in s.subsets() if mask >> a & 1]
            assert fam == sorted(members, key=lambda a: (bin(a).count("1"), a))
        assert set(vars(s)) <= {"n", "opens", "min_nbhd", "maximal"}, s


def test_family_unknown_class_rejected():
    with pytest.raises(BadParams):
        T.family(SIERP, "nonsuch")
    with pytest.raises(BadParams):
        T.family_set(SIERP, ["open"])
    with pytest.raises(BadParams):
        classes.family_mask(SIERP, "Open")
    with pytest.raises(BadParams):
        classes.family_mask(T.khalimsky_interval(7), "Open")
    for call in (T.family, T.family_set, classes.family_mask):
        with pytest.raises(BadParams):
            call(5, "open")                     # not a space
    with pytest.raises(BadParams):
        T.classify_subset(5, 1)


def test_reports_agree_with_families():
    # classify_subset flags match family membership everywhere (this pins
    # the single pass to the per-predicate families)
    for s in all_spaces(4):
        fams = {cid: T.family_set(s, cid) for cid in T.CLASS_IDS}
        for a in s.subsets():
            r = T.classify_subset(s, a).to_record()
            for cid in T.CLASS_IDS:
                assert r[cid] == (a in fams[cid]), (s, a, cid)


def test_wide_space_predicate_path():
    # n = 7 is past the family-mask width limit; queries still answer
    k = T.khalimsky_interval(7)
    assert T.is_alpha_m_closed(k, 0)
    assert T.is_preopen(k, 0b0000010)
    r = T.classify_subset(k, 0b1111111)
    assert r.clopen
    with pytest.raises(ScopeTooLarge):
        classes.family_mask(k, "open")


def test_library_path_builds_no_subset_tables(monkeypatch):
    # parsing, axioms, subset classes, families and maps all answer from
    # the per-point tables; the 2^n kernels serve only the sweeps
    def refuse(*args):
        raise AssertionError("a library query called a 2^n kernel")

    monkeypatch.setattr(_kernels, "space_pack", refuse)
    monkeypatch.setattr(_kernels, "class_masks", refuse)
    wide = [T.space_from_json(g.to_json()) for g in (
        T.indiscrete(16), T.khalimsky_interval(16), T.excluded_point(16, 3),
        T.khalimsky_interval(5))]
    for s in wide:
        T.axiom_report(s)
        for a in (0, 1, 0b10110, s.full >> 1, s.full):
            T.classify_subset(s, a)
    assert T.family(wide[1], "open") == list(wide[1].opens)
    eight = [T.khalimsky_interval(8), T.particular_point(8, 2), T.excluded_point(8, 0)]
    for x in eight:
        for y in eight:
            maps.classify_map(maps.SpaceMap(x, y, (0, 1, 2, 3, 3, 5, 7, 6)))


# ----------------------------------------------------------- lattice laws

def test_implication_lattice_exhaustive():
    for s in all_spaces(4):
        for a in s.subsets():
            r = T.classify_subset(s, a)
            if r.open:
                assert r.alpha_open
            if r.alpha_open:
                assert r.preopen and r.semiopen
            if r.preopen or r.semiopen:
                assert r.beta_open
            assert r.alpha_open == (r.preopen and r.semiopen)
            if r.closed:
                assert r.g_closed and r.alpha_m_closed
            if r.open:
                assert r.g_open and r.alpha_m_open
            if r.clopen:
                assert r.open and r.closed


def test_duality_exhaustive():
    pairs = [("open", "closed"), ("preopen", "preclosed"),
             ("semiopen", "semiclosed"), ("alpha_open", "alpha_closed"),
             ("beta_open", "beta_closed"), ("g_open", "g_closed"),
             ("alpha_m_open", "alpha_m_closed")]
    for s in all_spaces(4):
        for a in s.subsets():
            ra = T.classify_subset(s, a).to_record()
            rc = T.classify_subset(s, s.complement(a)).to_record()
            for op, cl in pairs:
                assert ra[op] == rc[cl], (s, a, op)
            assert ra["clopen"] == rc["clopen"]


def test_kernels():
    # kernel = intersection of open supersets = union of minimal nbhds
    assert classes._union(SIERP.min_nbhd, 0b10) == 0b11
    assert classes._union(SIERP.min_nbhd, 0b01) == 0b01
    # the alpha_m classes read the maximal points instead
    assert (SIERP.maximal, IND2.maximal, T.khalimsky_interval(3).maximal) == \
        (0b01, 0b11, 0b010)
    for s in all_spaces(3):
        for a in s.subsets():
            ker = s.full
            for u in s.opens:
                if a & u == a:
                    ker &= u
            assert classes._union(s.min_nbhd, a) == ker

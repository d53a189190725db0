import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolab as T
from topolab import _kernels, enumeration, maps, verifier
from topolab.enumeration import spaces_up_to
from topolab.errors import ArityMismatch, BadParams, InternalCheckError, ScopeTooLarge
from topolab.maps import assignment_from_index, compose, map_index
from topolab.space import points_of

SIERP = T.sierpinski()
DISC1 = T.discrete(1)
DISC2 = T.discrete(2)
IND2 = T.indiscrete(2)

EXACT_AT_3 = ("P3_3", "T3_4a", "T3_4b", "T3_5_fwd", "T3_5_bwd", "P3_6",
              "T3_8a", "T3_8b", "T3_9a", "T3_10", "P3_11",
              "P3_12_ab", "P3_12_bc", "P3_12_ca")


def test_claim_vocabulary():
    assert T.CLAIM_IDS == (
        "T3_2_ab", "T3_2_ba", "P3_3", "T3_4a", "T3_4b", "T3_5_fwd",
        "T3_5_bwd", "P3_6", "T3_8a", "T3_8b", "T3_9a", "T3_9b", "T3_10",
        "P3_11", "P3_12_ab", "P3_12_bc", "P3_12_ca")
    for cid in T.CLAIM_IDS:
        assert verifier.claim_statement(cid)
    for bad in ("T9_9", ["P3_3"]):
        with pytest.raises(BadParams):
            verifier.claim_statement(bad)


# ------------------------------------------------------------ check_instance

def test_check_instance_space_claims():
    assert not T.check_instance("T3_2_ab", [SIERP], [])
    assert T.check_instance("T3_2_ab", [DISC2], [])
    assert T.check_instance("T3_2_ba", [SIERP], [])   # dichotomy false: vacuous
    assert T.check_instance("T3_2_ab", [IND2], [])    # hypothesis false: vacuous


def test_check_instance_pair_claims():
    ident = T.identity_map(DISC2)
    assert T.check_instance("P3_3", [DISC2, DISC2], [ident])
    f = T.SpaceMap(DISC1, IND2, (0,))
    assert not T.check_instance("T3_9b", [DISC1, IND2], [f])
    assert T.check_instance("T3_9a", [DISC1, IND2], [f])


def test_check_instance_triple_claims():
    ident = T.identity_map(SIERP)
    assert T.check_instance("P3_6", [SIERP, SIERP, SIERP], [ident, ident])
    assert T.check_instance("T3_8b", [SIERP, SIERP, SIERP], [ident, ident])


def test_evaluate_instance_details():
    ev = T.evaluate_instance("T3_2_ab", [SIERP], [])
    assert ev.hypotheses == (("T_alpha_m(X)", True),)
    assert ev.conclusion == ("singleton_dichotomy(X)", False)
    assert not ev.holds
    ev = T.evaluate_instance("T3_2_ab", [IND2], [])
    assert ev.hypotheses == (("T_alpha_m(X)", False),)
    assert ev.conclusion == ("singleton_dichotomy(X)", None)  # never evaluated
    assert ev.holds


def test_evaluate_instance_hypothesis_order_short_circuits():
    f = T.SpaceMap(SIERP, SIERP, (1, 0))     # swap: not alpha_m-continuous
    ev = T.evaluate_instance("P3_3", [SIERP, SIERP], [f])
    assert ev.hypotheses[0] == ("alpha_m_continuous(f)", False)
    assert len(ev.hypotheses) == 1


def test_check_instance_arity_errors():
    with pytest.raises(ArityMismatch):
        T.check_instance("T3_2_ab", [SIERP, SIERP], [])
    with pytest.raises(ArityMismatch):
        T.check_instance("P3_3", [SIERP, SIERP], [])
    with pytest.raises(ArityMismatch):
        T.check_instance("P3_3", [SIERP], [T.identity_map(SIERP)])
    f = T.SpaceMap(DISC1, IND2, (0,))
    with pytest.raises(ArityMismatch):
        T.check_instance("P3_3", [SIERP, IND2], [f])    # endpoints disagree
    with pytest.raises(ArityMismatch):
        T.check_instance("P3_6", [DISC1, IND2, SIERP], [f, f])
    with pytest.raises(BadParams):
        T.check_instance("nope", [SIERP], [])
    for bad_id in (["P3_3"], {"P3_3": 1}):                   # unhashable ids
        with pytest.raises(BadParams):
            T.check_instance(bad_id, [SIERP], [])
        with pytest.raises(BadParams):
            T.evaluate_instance(bad_id, [SIERP], [])
    with pytest.raises(BadParams):
        T.evaluate_instance("P3_3", (SIERP, SIERP), (5,))    # not a SpaceMap
    with pytest.raises(BadParams):
        T.evaluate_instance("T3_2_ab", ("sierpinski",))      # not a FiniteSpace
    with pytest.raises(BadParams):
        T.evaluate_instance("T3_2_ab", SIERP)                # not a sequence


def test_p3_12_inverse_direction_is_type_correct():
    # bijection whose inverse is evaluated as a map Y -> X
    for x in (SIERP, DISC2):
        for f in (T.identity_map(x), T.SpaceMap(x, x, (1, 0))):
            ev = T.evaluate_instance("P3_12_ab", [x, x], [f])
            assert ev.hypotheses[0][0] == "bijective(f)"
            assert ev.holds in (True, False)
    g = T.SpaceMap(SIERP, SIERP, (0, 0))
    ev = T.evaluate_instance("P3_12_ab", [SIERP, SIERP], [g])
    assert ev.hypotheses == (("bijective(f)", False),)


# ------------------------------------------------------------------- scope

def test_scope_bounds():
    assert verifier.Scope(max_points=3).witness_limit == 5
    assert verifier.Scope(max_points=3, witness_limit=None).witness_limit is None
    with pytest.raises(ScopeTooLarge):
        verifier.Scope(max_points=6)
    with pytest.raises(BadParams):
        verifier.Scope(max_points=-1)
    with pytest.raises(BadParams):
        verifier.Scope(max_points=3, witness_limit=0)
    with pytest.raises(BadParams):
        verifier.Scope(max_points=3, witness_limit=True)
    rec = verifier.Scope(max_points=2).to_record()
    assert rec == {"max_points": 2, "map_cap": None, "witness_limit": 5}


def test_default_scopes():
    assert verifier.default_scope("T3_2_ab").max_points == 4
    assert verifier.default_scope("T3_2_ba").max_points == 4
    for cid in T.CLAIM_IDS:
        if not cid.startswith("T3_2"):
            assert verifier.default_scope(cid).max_points == 3
    with pytest.raises(BadParams):
        verifier.default_scope(["P3_3"])


# ------------------------------------------------------------------ verify

def test_refutation_T3_2_ab_at_2_points():
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    assert r.outcome == "refuted"
    assert r.instances == 6 and r.failures == 2
    first = r.witnesses[0]
    assert first.spaces[0] == SIERP
    assert first.hypotheses == (("T_alpha_m(X)", True),)
    assert first.conclusion == ("singleton_dichotomy(X)", False)


def test_refutation_T3_9b_smallest_witness():
    r = T.verify("T3_9b", verifier.Scope(max_points=2))
    assert r.outcome == "refuted"
    w = r.witnesses[0]
    assert w.spaces[0] == DISC1 and w.spaces[1] == IND2
    assert w.maps[0].assignment == (0,)


def test_exact_claims_hold_at_3():
    reports = T.verify_all(verifier.Scope(max_points=3), claims=EXACT_AT_3)
    for cid, r in zip(EXACT_AT_3, reports):
        assert r.claim == cid
        assert r.outcome == "holds-on-scope", cid
        assert r.failures == 0 and r.witnesses == ()


def test_instance_counts_at_scope_3():
    assert T.verify("T3_2_ab", verifier.Scope(max_points=3)).instances == 35
    assert T.verify("P3_3", verifier.Scope(max_points=3)).instances == 24907
    assert T.verify("P3_6", verifier.Scope(max_points=3)).instances == 19757979


def test_pair_instances_match_brute_count():
    # analytic counting = actual quantifier size at a small scope
    from topolab.enumeration import enumerate_maps, spaces_up_to
    pool = spaces_up_to(2)
    expect = sum(
        sum(1 for _ in enumerate_maps(x, y)) for x in pool for y in pool)
    assert T.verify("P3_3", verifier.Scope(max_points=2)).instances == expect


def test_triple_instances_match_brute_count():
    from topolab.enumeration import spaces_up_to
    pool = spaces_up_to(2)

    def n_maps(a, b):
        return b.n ** a.n if not (a.n and not b.n) else 0

    expect = sum(n_maps(x, y) * n_maps(y, z)
                 for x in pool for y in pool for z in pool)
    assert T.verify("P3_6", verifier.Scope(max_points=2)).instances == expect


def test_outcome_iff_witnesses():
    for cid in ("T3_2_ab", "T3_2_ba", "T3_9b", "P3_3"):
        r = T.verify(cid, verifier.Scope(max_points=2))
        assert (r.outcome == "refuted") == bool(r.witnesses)
        assert (r.failures > 0) == (r.outcome == "refuted")


def test_witness_limit_semantics():
    scope1 = verifier.Scope(max_points=3, witness_limit=1)
    r = T.verify("T3_2_ab", scope1)
    assert len(r.witnesses) == 1 and r.failures == 11
    all_w = T.verify("T3_2_ab", verifier.Scope(max_points=3, witness_limit=None))
    assert len(all_w.witnesses) == all_w.failures == 11
    for w in all_w.witnesses:
        assert not T.check_instance(w.claim, w.spaces, w.maps)


def test_determinism_and_parallel_merge():
    scope = verifier.Scope(max_points=3)
    a = verifier.reports_to_json(T.verify_all(scope=scope))
    b = verifier.reports_to_json(T.verify_all(scope=scope))
    assert a == b
    c = verifier.reports_to_json(
        [T.verify("T3_9b", scope, jobs=3), T.verify("T3_2_ab", scope, jobs=2)])
    d = verifier.reports_to_json(
        [T.verify("T3_9b", scope), T.verify("T3_2_ab", scope)])
    assert c == d


def test_verify_all_shares_encodings_but_reports_separately():
    scope = verifier.Scope(max_points=2)
    reports = {r.claim: r for r in T.verify_all(scope=scope)}
    assert len(reports) == 17
    for a, b in (("P3_3", "T3_4a"), ("P3_3", "T3_9a"),
                 ("P3_6", "T3_8a"), ("T3_8b", "P3_11")):
        ra, rb = reports[a], reports[b]
        assert ra.failures == rb.failures and ra.instances == rb.instances
        assert [w.spaces for w in ra.witnesses] == [w.spaces for w in rb.witnesses]
        for w in rb.witnesses:
            assert w.claim == b


SPACE_IDS = ("T3_2_ab", "T3_2_ba")
TRIPLE_IDS = ("P3_6", "T3_8a", "T3_8b", "P3_11")
PAIR_IDS = tuple(c for c in T.CLAIM_IDS if c not in SPACE_IDS + TRIPLE_IDS)


def _brute_bindings(claim_id, scope):
    """Every binding of the claim in (x, y[, z], map rank) order."""
    from topolab.enumeration import enumerate_maps as maps, spaces_up_to
    pool = spaces_up_to(scope.max_points)
    if claim_id in SPACE_IDS:
        return [((x,), ()) for x in pool]
    if claim_id in PAIR_IDS:
        return [((x, y), (f,)) for x in pool for y in pool for f in maps(x, y)]
    return [((x, y, z), (f, g)) for x in pool for y in pool for z in pool
            for f in maps(x, y) for g in maps(y, z)]


@pytest.mark.parametrize("scope", [verifier.Scope(max_points=2),
                                   verifier.Scope(max_points=2, witness_limit=None)])
def test_sweep_matches_brute_force(scope):
    reports = {r.claim: r for r in T.verify_all(scope=scope)}
    for cid in T.CLAIM_IDS:
        bindings = _brute_bindings(cid, scope)
        failing = [b for b in bindings if not T.check_instance(cid, *b)]
        r = reports[cid]
        assert r.instances == len(bindings), cid
        assert r.failures == len(failing), cid
        assert [(w.spaces, w.maps) for w in r.witnesses] == \
            failing[:scope.witness_limit], cid


def test_verify_is_verify_all_for_one_claim():
    scope = verifier.Scope(max_points=3)
    together = {r.claim: r.to_record() for r in T.verify_all(scope=scope)}
    for cid in T.CLAIM_IDS:
        assert T.verify(cid, scope).to_record() == together[cid], cid


def test_pair_sweep_requests_each_pair_once():
    # one count per scope: one loop over Y per X serves the pair claims and
    # the composition claims, so each pair of the 14 class representatives
    # is requested once; the witness walk reads the direct predicates, and
    # requests none; and no pair masks outlive the sweep
    for claims in (PAIR_IDS, T.CLAIM_IDS):
        verifier._pair_masks.cache_clear()
        T.verify_all(scope=verifier.Scope(max_points=3), claims=claims)
        info = verifier._pair_masks.cache_info()
        assert (info.misses, info.hits, info.currsize) == (14 * 14, 0, 0), claims
    # and nothing else in the verifier keeps state between calls
    assert [name for name, obj in vars(verifier).items()
            if hasattr(obj, "cache_info")] == ["_pair_masks"]


def test_space_claims_build_no_class_masks(monkeypatch):
    # the space claims read only the axiom flags, so a sweep of them alone
    # must answer without one class_masks call
    claims, scope = ("T3_2_ab", "T3_2_ba"), verifier.Scope(4)
    expected = [r.to_record() for r in T.verify_all(scope, claims=claims)]

    def refuse(n, minn):
        raise AssertionError("class masks built for a sweep of space claims")

    monkeypatch.setattr(_kernels, "class_masks", refuse)
    assert [r.to_record() for r in T.verify_all(scope, claims=claims)] == expected


@pytest.fixture(scope="module")
def stream_tables():
    return verifier._space_tables(spaces_up_to(4))


PAIR_KEYS = [key for key, enc in verifier._ENCODINGS.items() if verifier._arity(enc) == 2]


def test_claims_and_pair_kernel_share_one_vocabulary():
    # every term names an axiom on a bound space or a property of a bound
    # map, and each property the sweep reads off a pair is a kernel key
    families = _kernels.class_masks(1, (1,))
    kernel = set(_kernels.map_masks(1, families, 1, families))
    assert kernel == set(verifier._DIRECT_MAP_PRED) - {"open_map"}
    assert set(verifier._SAFE_F) | set(verifier._SAFE_F.values()) <= kernel
    assert set(verifier._ENCODINGS) == set(verifier._CLAIMS.values())
    for key, enc in verifier._ENCODINGS.items():
        arity = verifier._arity(enc)
        bound_maps = {1: (), 2: ("f",), 3: ("f", "g", "compose(g,f)")}[arity]
        for name, arg in enc:
            if name in verifier._AXIOMS:
                assert arg in ("X", "Y")[:arity], (key, name, arg)
            else:
                assert name in kernel and arg in bound_maps, (key, name, arg)
        if arity == 2:
            # the sweep reads an axiom conclusion on Y
            assert any(arg == "f" for _, arg in enc[:-1]) and enc[-1][1] in ("f", "Y"), key
        if arity == 3:
            # the form _sweep_chunk counts from f alone
            p = enc[0][0]
            assert p in verifier._SAFE_F, key
            assert enc == ((p, "f"), (p, "g"), ("T_alpha_m", "Y"), (p, "compose(g,f)")), key
    # the labels are built from the terms
    f = T.identity_map(SIERP)
    assert [label for label, _ in verifier._terms(verifier._ENCODINGS["P3_6"], (SIERP,) * 3,
                                                  (f, f))] == [
        "alpha_m_continuous(f)", "alpha_m_continuous(g)", "T_alpha_m(Y)",
        "alpha_m_continuous(compose(g,f))"]
    assert [label for label, _ in verifier._terms(verifier._ENCODINGS["P3_12_ab"], (SIERP,) * 2,
                                                  (f,))] == [
        "bijective(f)", "alpha_m_continuous(inverse(f))", "alpha_m_open_map(f)"]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_tables_match_direct_predicates(stream_tables, data):
    # two spaces of the n<=4 stream, cut out of the sweep's tables as a
    # two-space stream: every pair claim's failure count over the maps
    # X -> X and X -> Y, and the pairs with failures, equal those
    # evaluate_instance finds among all maps
    spaces = spaces_up_to(4)
    ix, iy = (data.draw(st.integers(0, len(spaces) - 1)) for _ in range(2))
    tables = {name: (column[ix], column[iy]) for name, column in stream_tables.items()}
    encs = [verifier._ENCODINGS[key] for key in PAIR_KEYS]
    failures, failing = verifier._sweep_chunk(encs, tables, range(1))
    x = spaces[ix]
    for key, count, tuples in zip(PAIR_KEYS, failures, failing):
        direct = [sum(not T.evaluate_instance(key, (x, y), (T.SpaceMap(
                          x, y, assignment_from_index(rank, x.n, y.n)),)).holds
                      for rank in range(y.n ** x.n))
                  for y in (x, spaces[iy])]
        assert count == sum(direct), (key, ix, iy)
        assert tuples == {(0, j) for j, n in enumerate(direct) if n}, (key, ix, iy)


def _brute_composition(encs, spaces, tables):
    """The composition claims counted over every (f, g) pair of the
    hypothesis, with no appeal to the lemma that lets ``_sweep_chunk``
    count them from f alone: the composition kernel decides each pair
    against the composite's own pair mask, and each triple's failures count
    the product of its spaces' weights times.  Returns the failures and the
    triples with failures of each encoding."""
    weight = tables["weight"]
    rows = [[verifier._pair_masks(tables, ix, iz) for iz in range(len(spaces))]
            for ix in range(len(spaces))]
    middles = [iy for iy, t in enumerate(tables["T_alpha_m"]) if t]

    def ranks(i, j, p):
        count = spaces[j].n ** spaces[i].n
        return points_of(rows[i][j][p] & ((1 << count) - 1))

    failures, failing = [], []
    for enc in encs:
        p = enc[0][0]
        count, triples = 0, set()
        for ix in range(len(spaces)):
            for iy in middles:
                f_ranks = ranks(ix, iy, p)
                for iz in range(len(spaces)):
                    g_ranks = ranks(iy, iz, p)
                    if not f_ranks or not g_ranks:
                        continue
                    n = _kernels.composition_failures(
                        spaces[ix].n, spaces[iy].n, spaces[iz].n, f_ranks, g_ranks,
                        rows[ix][iz][p])
                    count += weight[ix] * weight[iy] * weight[iz] * n
                    if n:
                        triples.add((ix, iy, iz))
        failures.append(count)
        failing.append(triples)
    return failures, failing


def _forced_tables(max_points):
    """The class representatives with at most ``max_points`` points, their
    orbit sizes, and their sweep tables with T_alpha_m forced true on every
    space, so that the T_alpha_m hypothesis on the middle space is dropped
    and the composition claims fail often."""
    classes = [c for n in range(max_points + 1) for c in enumeration._classes(n)]
    reps = [rep for rep, _ in classes]
    weights = [size for _, size in classes]
    tables = dict(verifier._space_tables(reps, weights), T_alpha_m=(True,) * len(reps))
    return reps, weights, tables


def test_maps_into_T_alpha_m_spaces_are_safe():
    # the lemma the composition count rests on, on the direct predicates:
    # into a T_alpha_m space Y, every alpha_m-continuous map is
    # alpha_m-irresolute and every alpha_m-closed map is closed
    reps = [rep for n in range(4) for rep, _ in enumeration._classes(n)]
    middles = 0
    for x, y in product(reps, repeat=2):
        if not T.is_T_alpha_m(y):
            continue
        middles += 1
        for f in enumeration.enumerate_maps(x, y):
            for p, safe in verifier._SAFE_F.items():
                assert not maps.MAP_PREDICATES[p](f) or maps.MAP_PREDICATES[safe](f), \
                    (p, x, y, f)
    assert middles > len(reps)


@pytest.mark.parametrize("key", ["P3_6", "T3_8b"])
def test_unsafe_f_into_a_T_alpha_m_middle_is_caught(key):
    # with T_alpha_m forced on every space, some f of the hypothesis into a
    # middle space is not safe, and the count refuses to go on
    reps, _, tables = _forced_tables(2)
    with pytest.raises(InternalCheckError):
        verifier._sweep_chunk([verifier._ENCODINGS[key]], tables, range(len(reps)))


def test_T3_5_reads_the_alpha_m_open_sets_of_X():
    # with X's alpha_m-open family cut to {empty set}, no preimage of an
    # open set under a map out of a nonempty X is alpha_m-open, so each
    # alpha_m-continuous such map fails T3_5_fwd; a count that read
    # alpha_m-continuity for both terms would find none
    reps = [rep for n in range(4) for rep, _ in enumeration._classes(n)]
    tables = verifier._space_tables(reps)
    tables["families"] = tuple(fam[:3] + (1,) for fam in tables["families"])
    failures, failing = verifier._sweep_chunk(
        [verifier._ENCODINGS["T3_5_fwd"]], tables, range(len(reps)))
    want = sum(verifier._pair_masks(tables, ix, iy)["alpha_m_continuous"].bit_count()
               for ix, iy in product(range(len(reps)), repeat=2) if reps[ix].n)
    assert failures == [want] and want > 0
    assert {reps[ix].n for ix, _ in failing[0]} == {1, 2, 3}


def test_composition_kernel_matches_the_map_predicates():
    # the kernel the benchmark's tracer still names, against an oracle that
    # shares no code with it: every (f, g) pair of the class representatives
    # with n <= 2, with T_alpha_m forced on every middle space, decided by
    # the map predicates on f, g and g after f and weighted by orbit size
    reps, weights, tables = _forced_tables(2)
    for key, want in (("P3_6", 16), ("T3_8b", 36)):
        enc = verifier._ENCODINGS[key]
        holds = maps.MAP_PREDICATES[enc[0][0]]
        failures, failing = 0, set()
        for (ix, x), (iy, y), (iz, z) in product(enumerate(reps), repeat=3):
            for f, g in product(enumeration.enumerate_maps(x, y),
                                enumeration.enumerate_maps(y, z)):
                if holds(f) and holds(g) and not holds(compose(g, f)):
                    failures += weights[ix] * weights[iy] * weights[iz]
                    failing.add((ix, iy, iz))
        assert failures == want, key
        assert _brute_composition([enc], reps, tables) == ([failures], [failing]), key


def test_sweeps_over_T_alpha_m_middles_count_no_pair(monkeypatch):
    # into a T_alpha_m middle space every f of the hypothesis clears the
    # one-sided test, so a real sweep never reaches the pair count
    claims, scope = ("P3_6", "T3_8b"), verifier.Scope(4)
    expected = [r.to_record() for r in T.verify_all(scope, claims=claims)]

    def refuse(*args):
        raise AssertionError("a composition pair counted over a T_alpha_m middle")

    monkeypatch.setattr(_kernels, "composition_failures", refuse)
    assert [r.to_record() for r in T.verify_all(scope, claims=claims)] == expected


def _labeled_sweep(keys, scope):
    """Failures and witness bindings of each encoding from one sweep of
    every labeled binding, each of weight 1 and its own class: the count
    over the labeled tables, then the walk of its failing tuples."""
    spaces = spaces_up_to(scope.max_points)
    encs = [verifier._ENCODINGS[key] for key in keys]
    failures, failing = verifier._sweep_chunk(
        encs, verifier._space_tables(spaces), range(len(spaces)))
    members = [(s, i) for i, s in enumerate(spaces)]
    found = [verifier._first_failures(key, tuples, members, scope.witness_limit)
             for key, tuples in zip(keys, failing)]
    return failures, found


@pytest.mark.parametrize("scope, keys", [
    (verifier.Scope(max_points=3), tuple(verifier._ENCODINGS)),
    (verifier.Scope(max_points=3, witness_limit=None), tuple(verifier._ENCODINGS)),
    (verifier.Scope(max_points=4), ("P3_3", "T3_4b", "T3_9b", "T3_10")),
], ids=["n3", "n3-all-witnesses", "n4-pairs"])
def test_orbit_counts_match_the_labeled_sweep(scope, keys):
    # the counts over class representatives, weighted by orbit size, and the
    # witnesses of the walk equal those of the sweep of every labeled binding
    reports = T.verify_all(scope, claims=keys)
    for key, r, count, bindings in zip(keys, reports, *_labeled_sweep(keys, scope)):
        assert r.failures == count, key
        assert [(w.spaces, w.maps, w.hypotheses, w.conclusion) for w in r.witnesses] == \
            [(spaces, maps, *evaluation[:2]) for spaces, maps, evaluation in bindings], key


def test_composition_walk_runs_chains_then_maps_in_order(monkeypatch):
    # composition claims never fail in a real sweep, so every binding is
    # made to fail: the walk lists the bindings of exactly the given class
    # triples, by space positions, then f rank, then g rank
    monkeypatch.setattr(verifier, "_evaluate", lambda enc, spaces, bound_maps:
                        verifier.InstanceEvaluation((), ("fails", False), False))
    spaces = spaces_up_to(2)
    members = [(s, i) for i, s in enumerate(spaces)]
    # every third triple along which maps exist, so that the walk prunes
    tuples = {t for t in product(range(len(spaces)), repeat=3)
              if sum(t) % 3 == 0 and all(spaces[j].n or not spaces[i].n
                                         for i, j in zip(t, t[1:]))}
    found = verifier._first_failures("P3_6", tuples, members, None)
    keys = [(tuple(map(spaces.index, bound)), tuple(map(map_index, bound_maps)))
            for bound, bound_maps, _ in found]
    assert keys == sorted(keys)
    assert {positions for positions, _ in keys} == tuples
    x_y_z = [tuple(spaces[i] for i in t) for t in tuples]
    assert len(found) == sum(y.n ** x.n * z.n ** y.n for x, y, z in x_y_z) > len(tuples)
    assert verifier._first_failures("P3_6", tuples, members, 5) == found[:5]


def test_orbit_weights_are_reconciled(monkeypatch):
    # one orbit size one too large: the weights no longer sum to the labeled
    # count, and the sweep refuses to report
    classes = enumeration._classes

    def one_too_many(n):
        *rest, (rep, size) = classes(n)
        return (*rest, (rep, size + 1))

    monkeypatch.setattr(enumeration, "_classes", one_too_many)
    with pytest.raises(InternalCheckError):
        T.verify_all(verifier.Scope(max_points=3))


def test_stream_counts_are_reconciled(monkeypatch):
    # one Sierpinski table missing from the size-sorted tables that the
    # class walk reads, with no cache kept: its class is lost, and the orbit
    # sizes at n = 2 no longer sum to the labeled count
    masks = _kernels.enumerate_masks
    monkeypatch.setattr(_kernels, "enumerate_masks", lambda n, size_sorted=False: [
        t for t in masks(n, size_sorted) if t != (0b01, 0b11)])
    monkeypatch.setattr(enumeration, "_classes", enumeration._classes.__wrapped__)
    assert len(enumeration._classes(2)) == 2
    with pytest.raises(InternalCheckError):
        T.verify_all(verifier.Scope(max_points=2), claims=("T3_2_ab",))


@pytest.mark.parametrize("limit", [5, None])
def test_sweep_reads_no_labeled_stream(monkeypatch, limit):
    # the counts come from the class orbit sizes and the witnesses from the
    # orbits of the failing classes, so a sweep whose stream of spaces and
    # of sorted labeled tables raises reports the same bytes
    scope = verifier.Scope(max_points=3, witness_limit=limit)
    expected = [r.to_record() for r in T.verify_all(scope)]

    def no_stream(max_points):
        raise AssertionError("the sweep read the labeled stream")

    monkeypatch.setattr(verifier, "spaces_up_to", no_stream)
    monkeypatch.setattr(enumeration, "spaces_up_to", no_stream)
    monkeypatch.setattr(enumeration, "_tables", no_stream)
    assert [r.to_record() for r in T.verify_all(scope)] == expected


@pytest.mark.parametrize("limit", [5, None])
def test_witness_walk_is_reconciled(monkeypatch, limit):
    # a walk that loses one failing binding no longer matches the count, at
    # the default witness limit as with none
    walk = verifier._first_failures

    def one_lost(key, tuples, members, limit):
        return walk(key, tuples, members, limit)[:-1]

    monkeypatch.setattr(verifier, "_first_failures", one_lost)
    with pytest.raises(InternalCheckError):
        T.verify_all(verifier.Scope(max_points=3, witness_limit=limit), claims=("T3_9b",))


@pytest.mark.parametrize("limit", [5, None])
def test_count_marking_a_holding_pair_is_caught(monkeypatch, limit):
    # the count marks one more T3_9b class pair failing, one that holds on
    # every map: the walk finishes its chains without a failure.  The least
    # such pair, the empty space's, comes before every witness
    sweep = verifier._sweep_chunk

    def one_more(encs, tables, outer):
        failures, failing = sweep(encs, tables, outer)
        k = encs.index(verifier._ENCODINGS["T3_9b"])
        holding = set(product(outer, range(len(tables["n"])))) - failing[k]
        failing[k].add(min(holding))
        return failures, failing

    monkeypatch.setattr(verifier, "_sweep_chunk", one_more)
    with pytest.raises(InternalCheckError):
        T.verify_all(verifier.Scope(max_points=3, witness_limit=limit), claims=("T3_9b",))


def test_kernel_marking_a_closed_map_failing_is_caught(monkeypatch):
    # the pair masks lose the closed_map bit of one closed alpha_m-closed
    # map, out of the one point into the Sierpinski class's representative:
    # the count gains a failure that the direct predicates do not find
    (x, _), = enumeration._classes(1)
    y = next(rep for rep, size in enumeration._classes(2) if size == 2)
    rank = next(map_index(f) for f in enumeration.enumerate_maps(x, y)
                if T.is_alpha_m_closed_map(f) and T.is_closed_map(f))
    target = [(s.n, _kernels.class_masks(s.n, s.min_nbhd)) for s in (x, y)]
    masks = verifier._pair_masks

    def cleared(tables, ix, iy):
        m = dict(masks(tables, ix, iy))
        if [(tables["n"][i], tables["families"][i]) for i in (ix, iy)] == target:
            m["closed_map"] &= ~(1 << rank)
        return m

    monkeypatch.setattr(verifier, "_pair_masks", cleared)
    with pytest.raises(InternalCheckError):
        T.verify_all(verifier.Scope(max_points=2, witness_limit=None), claims=("T3_9b",))


def test_alpha_m_lemmas_on_every_space_up_to_5():
    # on each of the 7,332 labeled spaces with at most 5 points: closed sets
    # are alpha_m-closed, the space is T_alpha_m iff no other set is, and
    # the alpha_m-open sets are the complements of the alpha_m-closed ones
    tables = verifier._space_tables(spaces_up_to(5))
    assert len(tables["n"]) == 7332
    for n, t_alpha_m, (_, closed, amc, amo) in zip(
            tables["n"], tables["T_alpha_m"], tables["families"]):
        full = (1 << n) - 1
        assert closed & ~amc == 0
        assert t_alpha_m == (amc == closed)
        assert amo == sum(1 << (full ^ a) for a in points_of(amc))


def test_pair_claims_at_5_points_follow_the_lemmas():
    # beyond the labeled sweep's reach the lemmas above are the oracle.  Out
    # of a T_alpha_m space X, alpha_m-closed is closed; in any Y, closed is
    # alpha_m-closed.  So an alpha_m-continuous map (P3_3) and an
    # alpha_m-irresolute one (T3_4b) pull closed sets back to closed sets;
    # and under a surjective closed alpha_m-irresolute f, an alpha_m-closed
    # B of Y is f(f^-1(B)), the image of a closed set, so closed (T3_10).
    # T3_9b has no such proof, and fails.
    claims = ("P3_3", "T3_4b", "T3_9b", "T3_10")
    reports = T.verify_all(verifier.Scope(max_points=5), claims=claims)
    assert [(r.instances, r.failures) for r in reports] == [
        (154_771_368_636, 0), (154_771_368_636, 0),
        (154_771_368_636, 1_368_541_630), (154_771_368_636, 0)]
    t3_9b = reports[2]
    assert len(t3_9b.witnesses) == 5 and T.validate_witness(t3_9b)
    assert t3_9b.to_record()["witnesses"] == \
        T.verify("T3_9b", verifier.Scope(max_points=3)).to_record()["witnesses"]


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    # a process pool forks all its workers on the first submit, so --jobs
    # is capped at the CPU count; a fake pool records the worker count and
    # the shares, and maps serially, so no process is started
    pools, sweeps = [], []   # worker counts; the shares of each sweep

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shares):
            sweeps.append(list(shares))
            return list(map(fn, sweeps[-1]))

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 3)
    # each share is a stride of the 14 class representatives, and the
    # reports equal those of a serial run, whatever the limit
    for limit in (1, 5, None):
        scope = verifier.Scope(max_points=3, witness_limit=limit)
        del sweeps[:]
        capped = verifier.reports_to_json(T.verify_all(scope, jobs=100_000))
        assert sweeps == [[range(i, 14, 3) for i in range(3)]], limit
        assert capped == verifier.reports_to_json(T.verify_all(scope)), limit
    assert pools == [3, 3, 3]
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
    T.verify("T3_9b", scope, jobs=100_000)
    assert pools == [3, 3, 3]       # one worker: no pool at all


def test_verify_rejects_bad_scope_or_claim():
    with pytest.raises(BadParams):
        T.verify("nope")
    with pytest.raises(ScopeTooLarge):
        T.verify("T3_2_ab", verifier.Scope(max_points=9))
    with pytest.raises(BadParams):
        T.verify("T3_2_ab", 3)
    with pytest.raises(BadParams):
        T.verify_all(scope={"max_points": 2}, claims=("P3_3",))
    for claims in (5, "P3_3", [["P3_3"]]):
        with pytest.raises(BadParams):
            T.verify_all(verifier.Scope(max_points=1), claims=claims)
    for jobs in (0, -1, "2", 2.0, True):
        with pytest.raises(BadParams):
            T.verify("T3_2_ab", verifier.Scope(max_points=1), jobs=jobs)
        with pytest.raises(BadParams):
            T.verify_all(verifier.Scope(max_points=1), jobs=jobs)


# ------------------------------------------------------------- witnesses, io

def test_witness_record_round_trip():
    r = T.verify("T3_9b", verifier.Scope(max_points=2))
    for w in r.witnesses:
        rec = json.loads(json.dumps(w.to_record()))
        back = verifier.witness_from_record(rec)
        assert back.claim == w.claim
        assert back.spaces == w.spaces and back.maps == w.maps


def test_validate_witness_true_on_real_reports():
    for cid in ("T3_2_ab", "T3_9b"):
        r = T.verify(cid, verifier.Scope(max_points=2))
        assert T.validate_witness(r)


def _with_witnesses(report, witnesses):
    return verifier.TheoremReport(
        claim=report.claim, statement=report.statement, scope=report.scope,
        instances=report.instances, failures=report.failures, outcome=report.outcome,
        witnesses=witnesses, wall_time=report.wall_time)


def test_validate_witness_false_on_hand_edited():
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    fake = verifier.Witness(
        claim="T3_2_ab", spaces=(DISC2,), maps=(),
        hypotheses=(("T_alpha_m(X)", True),),
        conclusion=("singleton_dichotomy(X)", False))
    assert not T.validate_witness(_with_witnesses(r, (fake,)))


def test_witness_from_record_rejects_bad_input():
    with pytest.raises(BadParams):
        verifier.witness_from_record({"claim": "nope", "spaces": [], "maps": [],
                                      "hypotheses": {}, "conclusion": {}})
    with pytest.raises(BadParams):
        verifier.witness_from_record([])
    good = T.verify("T3_9b", verifier.Scope(max_points=2)).witnesses[0].to_record()
    for key, bad in (("conclusion", {"closed_map(f)": False, "other": True}),
                     ("conclusion", [["closed_map(f)", False]]),
                     ("hypotheses", [["alpha_m_closed_map(f)", True]]),
                     ("maps", {}),
                     ("spaces", 5),
                     ("claim", ["T3_9b"]),
                     ("claim", "T3_2_ab")):    # one space and no map
        with pytest.raises(BadParams):
            verifier.witness_from_record(dict(good, **{key: bad}))
    assert verifier.witness_from_record(good).claim == "T3_9b"


def test_witness_record_labels_and_flags_are_checked():
    # the labels must be the claim's terms on the binding, in order, and the
    # flags JSON true on each hypothesis and false on the conclusion
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    good = r.witnesses[0].to_record()
    assert good["hypotheses"] == {"T_alpha_m(X)": True}
    assert good["conclusion"] == {"singleton_dichotomy(X)": False}
    for key, bad in (("hypotheses", {"anything": "yes"}),
                     ("conclusion", {"nonsense": 0}),
                     ("conclusion", {"singleton_dichotomy(X)": True}),  # it holds
                     ("conclusion", {"singleton_dichotomy(X)": 0}),     # not a bool
                     ("conclusion", {"singleton_dichotomy(X)": None}),
                     ("conclusion", {}),
                     ("hypotheses", {"T_alpha_m(X)": 1}),
                     ("hypotheses", {"T_alpha_m(X)": False}),
                     ("hypotheses", {}),
                     ("hypotheses", {"T_alpha_m(X)": True, "T_alpha_m(Y)": True})):
        with pytest.raises(BadParams):
            verifier.witness_from_record(dict(good, **{key: bad}))
    # the hypotheses of a two-hypothesis claim, in the wrong order
    t3_9b = T.verify("T3_9b", verifier.Scope(max_points=2)).witnesses[0].to_record()
    assert list(t3_9b["hypotheses"]) == ["alpha_m_closed_map(f)", "T_alpha_m(X)"]
    with pytest.raises(BadParams):
        verifier.witness_from_record(dict(t3_9b, hypotheses=dict(
            reversed(list(t3_9b["hypotheses"].items())))))
    # a report that carries a nonsense witness does not validate
    nonsense = verifier.Witness(
        claim="T3_2_ab", spaces=r.witnesses[0].spaces, maps=(),
        hypotheses=(("anything", "yes"),), conclusion=("nonsense", 0))
    with pytest.raises(BadParams):
        T.validate_witness(_with_witnesses(r, (nonsense,)))


def test_validate_witness_rejects_non_witnesses():
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    for witnesses in (5, ("x",), (r,), (verifier.Witness("T3_2_ab", (5,), (), (), ("", False)),)):
        with pytest.raises(BadParams):
            T.validate_witness(_with_witnesses(r, witnesses))


def test_every_witness_round_trips():
    # every witness of the n <= 3 catalogue, with no limit, parses back to
    # itself and still refutes its claim
    reports = T.verify_all(verifier.Scope(3, witness_limit=None))
    assert sum(len(r.witnesses) for r in reports) > 0
    for r in reports:
        for w in r.witnesses:
            assert verifier.witness_from_record(json.loads(json.dumps(w.to_record()))) == w
        assert T.validate_witness(r), r.claim


def test_report_record_shape():
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    rec = r.to_record()
    assert set(rec) == {"claim", "statement", "scope", "instances",
                        "failures", "outcome", "witnesses"}
    assert "wall_time" not in rec
    assert rec["scope"] == {"max_points": 2, "map_cap": None, "witness_limit": 5}
    out = verifier.reports_to_json([r])
    payload = json.loads(out)
    assert set(payload) == {"note", "reports"}
    assert "not a proof" in payload["note"]


def test_statements_name_behavior_not_sources():
    for cid in T.CLAIM_IDS:
        s = verifier.claim_statement(cid)
        for banned in ("theorem", "Thm", "proposition", "paper", "section"):
            assert banned.lower() not in s.lower()

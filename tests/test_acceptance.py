"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines stream.
"""

import json
import time

import topolab as T
from topolab import verifier
from topolab.cli import main as cli_main
from topolab.enumeration import spaces_up_to

from _oracles import naive_labeled_families, orbit_count

EXACT_AT_3 = ("T3_5_fwd", "T3_5_bwd", "P3_3", "T3_4a", "T3_4b", "T3_9a",
              "P3_6", "T3_8a", "T3_8b", "P3_11", "T3_10",
              "P3_12_ab", "P3_12_bc", "P3_12_ca")


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_operator_laws():
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for s in spaces_up_to(4):
        full = s.full
        for a in s.subsets():
            ia, ca = s.interior(a), s.closure(a)
            good = (ia & a == ia and a & ca == a
                    and s.interior(ia) == ia and s.closure(ca) == ca
                    and ia == full ^ s.closure(full ^ a)
                    and ca == full ^ s.interior(full ^ a)
                    and s.is_open(ia) and s.is_closed(ca))
            checked += 1
            bad += not good
    dt = time.perf_counter() - t0
    report(1, bad == 0 and dt < 5.0,
           f"Kuratowski identities on {checked} subset instances "
           f"(n <= 4), {bad} failures, {dt:.2f}s (< 5s)")


def test_criterion_2_class_lattice():
    checked = 0
    bad = 0
    duals = [("open", "closed"), ("preopen", "preclosed"),
             ("semiopen", "semiclosed"), ("alpha_open", "alpha_closed"),
             ("beta_open", "beta_closed"), ("g_open", "g_closed"),
             ("alpha_m_open", "alpha_m_closed")]
    for s in spaces_up_to(4):
        for a in s.subsets():
            r = T.classify_subset(s, a)
            rc = T.classify_subset(s, s.complement(a)).to_record()
            rr = r.to_record()
            good = (
                (not r.open or r.alpha_open)
                and (not r.alpha_open or (r.preopen and r.semiopen))
                and (not (r.preopen or r.semiopen) or r.beta_open)
                and r.alpha_open == (r.semiopen and r.preopen)
                and (not r.closed or r.g_closed)
                and (not r.closed or r.alpha_m_closed)
                and all(rr[o] == rc[c] for o, c in duals))
            checked += 1
            bad += not good
    report(2, bad == 0,
           f"class-lattice implications and duality on {checked} "
           f"subset instances (n <= 4), {bad} failures")


def test_criterion_3_enumeration_pins():
    oracle_labeled = [len(naive_labeled_families(n)) for n in range(4)]
    fast_labeled = [sum(1 for _ in T.enumerate_topologies(n)) for n in range(6)]
    oracle_homeo = [orbit_count(naive_labeled_families(n), n) for n in range(5)]
    fast_homeo = [sum(1 for _ in T.enumerate_topologies_up_to_homeo(n))
                  for n in range(6)]
    ok = (oracle_labeled == [1, 1, 4, 29]
          and fast_labeled == [1, 1, 4, 29, 355, 6942]
          and oracle_homeo == [1, 1, 3, 9, 33]
          and fast_homeo == oracle_homeo + [139])
    report(3, ok,
           f"labeled counts {fast_labeled} (oracle n<=3 {oracle_labeled[1:]}), "
           f"homeo classes {fast_homeo[1:]} (orbit oracle n<=4), "
           f"n=5 recorded: {fast_labeled[5]} labeled, {fast_homeo[5]} classes")


def test_criterion_4_exact_theorems():
    t0 = time.perf_counter()
    scope = verifier.Scope(max_points=3)
    outcomes = {}
    for cid in EXACT_AT_3:
        r = T.verify(cid, scope)
        outcomes[cid] = (r.outcome, len(r.witnesses))
    dt = time.perf_counter() - t0
    bad = {c: o for c, o in outcomes.items() if o != ("holds-on-scope", 0)}
    report(4, not bad and dt < 60.0,
           f"{len(EXACT_AT_3)} exact claims hold on n <= 3 with zero "
           f"witnesses, sweep {dt:.2f}s (< 60s)" + (f"; unexpected: {bad}" if bad else ""))


def test_criterion_5_refutations():
    r_ab = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    w = r_ab.witnesses[0]
    ok = (r_ab.outcome == "refuted" and w.spaces[0].n == 2
          and T.validate_witness(r_ab))
    r_9b = T.verify("T3_9b", verifier.Scope(max_points=2))
    w9 = r_9b.witnesses[0]
    ok = ok and (r_9b.outcome == "refuted"
                 and w9.spaces[0] == T.discrete(1)
                 and w9.spaces[1] == T.indiscrete(2)
                 and T.validate_witness(r_9b))
    # serialize/parse round trip, then re-fail every witness
    for rep in (r_ab, r_9b):
        payload = json.loads(verifier.reports_to_json([rep]))
        for wrec in payload["reports"][0]["witnesses"]:
            back = verifier.witness_from_record(wrec)
            ok = ok and not T.check_instance(back.claim, back.spaces, back.maps)
    r_ba = T.verify("T3_2_ba", verifier.Scope(max_points=3))
    report(5, ok,
           f"T3_2_ab refuted at n <= 2 ({len(r_ab.witnesses)} witnesses, first on "
           f"{w.spaces[0].n} points), T3_9b refuted via "
           f"discrete(1)->indiscrete(2), all witnesses re-fail after round "
           f"trip; T3_2_ba recorded: {r_ba.outcome} at n <= 3")


def test_criterion_6_determinism(tmp_path, capsys):
    paths = [tmp_path / f"run{i}.json" for i in range(3)]
    assert cli_main(["verify", "--max-points", "3", "--json", str(paths[0])]) == 0
    assert cli_main(["verify", "--max-points", "3", "--json", str(paths[1])]) == 0
    assert cli_main(["verify", "--max-points", "3", "--jobs", "2",
                     "--json", str(paths[2])]) == 0
    capsys.readouterr()
    a, b, c = (p.read_bytes() for p in paths)
    with capsys.disabled():
        report(6, a == b and a == c,
               f"two serial runs byte-identical ({len(a)} bytes) and "
               f"parallel --jobs 2 matches serial")


def test_criterion_7_t_half_sanity():
    sierp = T.is_T_half(T.sierpinski())
    ind = T.is_T_half(T.indiscrete(2))
    khal = [T.is_T_half(T.khalimsky_interval(n)) for n in range(7)]
    ok = sierp and not ind and all(khal)
    report(7, ok,
           f"T_half(sierpinski)={sierp}, T_half(indiscrete(2))={ind}, "
           f"T_half(khalimsky_interval(n))={'all true' if all(khal) else khal} "
           f"for n <= 6")

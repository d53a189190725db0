"""Workload definitions, the seeded query generator and the output checks.

Everything here is plain Python and imports nothing from topolab, so the
checks stay independent of the program they judge.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
REF = BENCH / "ref"
OUT = BENCH / ".out"

# independent pins
A000798 = (1, 1, 4, 29, 355, 6942)      # labeled topologies on n points
A001930 = (1, 1, 3, 9, 33, 139)         # topologies up to homeomorphism
T3_9B_FAILURES = {3: 2554, 4: 1205215}
PAIRS_N4_CLAIMS = ("P3_3", "T3_4b", "T3_9b", "T3_10")
PAIRS_N4_INSTANCES = 33827652
CATALOGUE_CLAIMS = 17

HERMETIC_UNSET = ("TOPOLAB_JOBS", "TOPOLAB_BACKEND")


def child_env() -> dict:
    """Environment of every timed child: the checkout's src, no topolab knobs."""
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Workload:
    name: str
    scope: int          # spaces_up_to bound paid at set-up; -1: import only
    argv: tuple = ()    # topolab CLI arguments; empty for the query session
    report: str = ""    # "json": --json report file; "stdout": standard output
    ref: str = ""       # reference output under perfbench/ref


PAIRS_ARGV = ("verify", "--jobs", "1", "--max-points", "4") + tuple(
    arg for claim in PAIRS_N4_CLAIMS for arg in ("--claim", claim))

WORKLOADS = {
    w.name: w for w in (
        Workload("catalogue", 4, ("verify", "--jobs", "1"), "json", "catalogue.json"),
        Workload("catalogue-j2", 4, ("verify", "--jobs", "2"), "json", "catalogue.json"),
        Workload("pairs-n4", 4, PAIRS_ARGV, "json", "pairs-n4.json"),
        Workload("homeo-n5", 5, ("enumerate", "-n", "5", "--upto-homeo"),
                 "stdout", "homeo-n5.txt"),
        Workload("queries", -1),
    )
}


# ----------------------------------------------------------- query generator

# spaces per point count: the subset queries on small spaces set the median,
# the forty 10-point axiom reports sit around p99, and one cyclic space each
# at 11..16 points (few opens, so 2^n tables dominate) is the tail above it
QUERY_SIZES = {5: 80, 6: 80, 7: 80, 8: 80, 9: 8, 10: 40,
               11: 1, 12: 1, 13: 1, 14: 1, 15: 1, 16: 1}
SUBSETS_PER_SPACE = 6
QUERY_MAPS = 200
MAP_MAX_POINTS = 8


# preorder kinds, cycled per point count so every seed gets the same mix
KINDS = ("identity", "acyclic", "cyclic", "acyclic", "cyclic",
         "acyclic", "cyclic", "acyclic", "cyclic", "acyclic")


def random_preorder(rng: random.Random, n: int, kind: str) -> list:
    """Up-closures ``up[x]`` (bitmasks) of a seeded preorder on n points.

    ``identity`` is the discrete order; ``acyclic`` edges follow a random
    ranking, so the preorder is antisymmetric; ``cyclic`` edges are
    unrestricted, and cycles merge points.
    """
    up = [1 << x for x in range(n)]
    if kind == "identity":
        return up
    rank = rng.sample(range(n), n)
    p = 2.0 / n
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < p and (kind == "cyclic" or rank[x] < rank[y]):
                up[x] |= 1 << y
    for k in range(n):          # transitive closure, Warshall on bitmasks
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return up


def up_sets(n: int, up: list) -> list:
    """Opens of the preorder's topology: every up-closed subset, ascending."""
    out = []
    for a in range(1 << n):
        t = a
        while t:
            b = t & -t
            t ^= b
            m = up[b.bit_length() - 1]
            if m & a != m:
                break
        else:
            out.append(a)
    return out


def points(mask: int) -> list:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def opens_digest(opens) -> str:
    return hashlib.sha256(",".join(map(str, sorted(opens))).encode()).hexdigest()


def make_queries(seed: int) -> dict:
    """The query session's inputs and the expected answers, from the seed.

    ``inputs`` is what the program receives; ``expect`` stays with the
    benchmark.
    """
    rng = random.Random(seed)
    spaces, expect_spaces, ups = [], [], []
    for n, count in QUERY_SIZES.items():
        for i in range(count):
            kind = KINDS[(i + n) % len(KINDS)] if count > 1 else "cyclic"
            up = random_preorder(rng, n, kind)
            opens = up_sets(n, up)
            full = (1 << n) - 1
            subsets = [rng.randrange(1 << n), rng.choice(opens), full ^ rng.choice(opens)]
            subsets += [rng.randrange(1 << n) for _ in range(SUBSETS_PER_SPACE - 3)]
            text = json.dumps({"n": n, "opens": [points(u) for u in opens]},
                              separators=(",", ":"))
            spaces.append({"json": text, "subsets": subsets})
            ups.append(up)
            antisymmetric = all(not (up[y] >> x & 1)
                                for x in range(n) for y in points(up[x]) if y != x)
            expect_spaces.append({
                "n": n, "opens": opens, "digest": opens_digest(opens),
                "T0": antisymmetric, "T1": all(up[x] == 1 << x for x in range(n)),
            })
    small = [i for i, e in enumerate(expect_spaces) if e["n"] <= MAP_MAX_POINTS]
    maps, expect_maps = [], []
    for _ in range(QUERY_MAPS):
        i = rng.choice(small)
        nx = expect_spaces[i]["n"]
        if rng.random() < 0.2:      # a bijection between equal-sized spaces
            j = rng.choice([k for k in small if expect_spaces[k]["n"] == nx])
            assignment = rng.sample(range(nx), nx)
        else:
            j = rng.choice(small)
            assignment = [rng.randrange(expect_spaces[j]["n"]) for _ in range(nx)]
        maps.append([i, j, assignment])
        expect_maps.append(expected_map_flags(ups[i], ups[j], assignment))
    return {"inputs": {"spaces": spaces, "maps": maps},
            "expect": {"spaces": expect_spaces, "maps": expect_maps}}


def expected_map_flags(up_x, up_y, assignment) -> list:
    """[continuous, surjective, bijective]; continuous means monotone."""
    continuous = all(up_y[assignment[x]] >> assignment[y] & 1
                     for x in range(len(up_x)) for y in points(up_x[x]))
    surjective = set(assignment) == set(range(len(up_y)))
    return [continuous, surjective, surjective and len(up_x) == len(up_y)]


def query_count(inputs: dict) -> int:
    per_space = 2 + SUBSETS_PER_SPACE   # space_from_json, axiom_report, subsets
    return per_space * len(inputs["spaces"]) + len(inputs["maps"])


# -------------------------------------------------------------------- checks

def _oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import _oracles
    finally:
        sys.path.pop(0)
    return _oracles


def check_queries(expect: dict, results: dict) -> int:
    """Number of wrong or failed queries in one session's results."""
    oracles = _oracles()
    wrong = len(results["errors"])
    for exp, got in zip(expect["spaces"], results["spaces"]):
        if got is None:
            continue
        n, opens = exp["n"], exp["opens"]
        if got["n"] != n or got["digest"] != exp["digest"]:
            wrong += 1
        if got["T0"] is not None and (got["T0"], got["T1"]) != (exp["T0"], exp["T1"]):
            wrong += 1
        for a, flags in got["classes"]:
            if n <= MAP_MAX_POINTS:
                is_open = oracles.naive_interior(n, opens, a) == a
                is_closed = oracles.naive_closure(n, opens, a) == a
            else:
                is_open = a in opens
                is_closed = ((1 << n) - 1) ^ a in opens
            if flags != [is_open, is_closed, is_open and is_closed]:
                wrong += 1
    for exp, got in zip(expect["maps"], results["maps"]):
        if got is not None and got != exp:
            wrong += 1
    return wrong


def check_report(workload: Workload, data: bytes) -> list:
    """Problems with one CLI output; an empty list means it is correct."""
    problems = []
    if data != (REF / workload.ref).read_bytes():
        problems.append(f"{workload.name}: output differs from {workload.ref}")
    if workload.report == "stdout":
        lines = data.decode("utf-8", "replace").splitlines()
        if len(lines) != A001930[5]:
            problems.append(f"{len(lines)} homeomorphism classes at n=5, "
                            f"want {A001930[5]}")
        return problems
    try:
        reports = json.loads(data)["reports"]
    except (ValueError, KeyError, TypeError):
        return problems + [f"{workload.name}: report is not valid JSON"]
    by_claim = {r.get("claim"): r for r in reports}
    if workload.name == "pairs-n4":
        scope = 4
        if tuple(by_claim) != PAIRS_N4_CLAIMS:
            problems.append(f"claims {tuple(by_claim)} differ from {PAIRS_N4_CLAIMS}")
        for claim, r in by_claim.items():
            if r.get("instances") != PAIRS_N4_INSTANCES:
                problems.append(f"{claim}: instances differ from {PAIRS_N4_INSTANCES}")
    else:
        scope = 3
        if len(by_claim) != CATALOGUE_CLAIMS:
            problems.append(f"{len(by_claim)} claims reported, want {CATALOGUE_CLAIMS}")
    if by_claim.get("T3_9b", {}).get("failures") != T3_9B_FAILURES[scope]:
        problems.append(f"T3_9b failures differ from {T3_9B_FAILURES[scope]}")
    return problems


def report_instances(data: bytes) -> int:
    return sum(r["instances"] for r in json.loads(data)["reports"])


def check_counts(labeled, homeo=()) -> list:
    """Problems with per-n counts of labeled and homeomorphism classes."""
    problems = []
    if list(labeled) != list(A000798[:len(labeled)]):
        problems.append(f"labeled counts {list(labeled)} differ from A000798")
    if list(homeo) != list(A001930[:len(homeo)]):
        problems.append(f"homeomorphism class counts {list(homeo)} differ from A001930")
    return problems


# ------------------------------------------------------------ machine record

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def machine_record(backend: str) -> dict:
    return {"backend": backend, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "git_sha": _git_sha()}

"""Exhaustive bounded-scope checking of the implication claims.

Every claim is an implication over bound spaces and maps.  ``verify``
checks every binding inside a :class:`Scope` (all labeled topologies with
0..max_points points and, per binding, all maps between them), counts the
failing instances, and returns a report whose outcome is either
``holds-on-scope`` or ``refuted``.  Holds-on-scope is exhaustive for the
scope and is not a proof beyond it.

Every claim is invariant under relabelling each bound space on its own.
So the sweep counts failures over one representative per homeomorphism
class, each tuple of representatives weighted by the product of its orbit
sizes.  Only to collect the witnesses does it walk labeled spaces: it
lists the members of the failing classes alone, each class's orbit sorted
into stream order, builds spaces for them, evaluates just the bindings
whose class tuple failed with the direct predicates, and stops at the
witness limit.  The witnesses are the least failing labeled bindings, as a
sweep of every labeled binding would list them.

Instances are counted analytically from the binding product over the
labeled spaces per point count, the sums of the orbit sizes, so serial and
parallel runs of the same scope produce identical reports; bindings whose
hypotheses fail count as (vacuously true) checked instances.  Before it
reports, the sweep checks that those sums are the labeled counts of OEIS
A000798, and that the walk found as many witnesses as the counted failures
allow.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from collections.abc import Iterable
from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import product
from math import prod
from typing import NamedTuple

from . import _kernels, axioms, enumeration, maps
# not called here; kept because perfbench/tracer.py replaces it by this name
from .enumeration import spaces_up_to
from .errors import ArityMismatch, BadParams, InternalCheckError, ScopeTooLarge
from .maps import check_map, compose, map_from_record
from .space import FiniteSpace, _Frozen, check_space, space_from_record

MAX_SCOPE_POINTS = 5

SCOPE_NOTE = ("exhaustive check of every binding within the bounded scope; "
              "holds-on-scope is not a proof beyond it")

# the one-map predicates by name, with the two the claims derive from them
_DIRECT_MAP_PRED = {
    **maps.MAP_PREDICATES,
    "open_preimages_alpha_m_open": maps.open_preimages_alpha_m_open,
    "inverse_alpha_m_continuous":
        lambda f: maps.is_alpha_m_continuous(maps.inverse(f)),
}

# the one label that is not the property name applied to its argument
_LABEL_TEMPLATE = {"inverse_alpha_m_continuous": "alpha_m_continuous(inverse({m}))"}


# the space axioms the claims name, by name; the sweep tabulates each per space
_AXIOMS = {
    "T_alpha_m": axioms.is_T_alpha_m,
    "singleton_dichotomy": axioms.singleton_dichotomy,
}


# per hypothesis of a composition claim, the property of f that makes g
# after f hold for every g of the hypothesis, whatever the middle space;
# into a T_alpha_m middle space every f of the hypothesis has it
_SAFE_F = {"alpha_m_continuous": "alpha_m_irresolute", "alpha_m_closed_map": "closed_map"}


# Each claim is its terms, the hypotheses in declared order and then the
# conclusion.  A term is (property, argument): an axiom of _AXIOMS on a
# space X or Y, or a property of _DIRECT_MAP_PRED of a map f: X -> Y,
# g: Y -> Z or compose(g,f).  A composition claim has the form of P3_6.
_ENCODINGS = {
    "T3_2_ab": (("T_alpha_m", "X"), ("singleton_dichotomy", "X")),
    "T3_2_ba": (("singleton_dichotomy", "X"), ("T_alpha_m", "X")),
    "P3_3": (("alpha_m_continuous", "f"), ("T_alpha_m", "X"), ("continuous", "f")),
    "T3_4b": (("alpha_m_irresolute", "f"), ("T_alpha_m", "X"), ("continuous", "f")),
    "T3_5_fwd": (("alpha_m_continuous", "f"), ("open_preimages_alpha_m_open", "f")),
    "T3_5_bwd": (("open_preimages_alpha_m_open", "f"), ("alpha_m_continuous", "f")),
    "P3_6": (("alpha_m_continuous", "f"), ("alpha_m_continuous", "g"), ("T_alpha_m", "Y"),
             ("alpha_m_continuous", "compose(g,f)")),
    "T3_8b": (("alpha_m_closed_map", "f"), ("alpha_m_closed_map", "g"), ("T_alpha_m", "Y"),
              ("alpha_m_closed_map", "compose(g,f)")),
    "T3_9b": (("alpha_m_closed_map", "f"), ("T_alpha_m", "X"), ("closed_map", "f")),
    "T3_10": (("surjective", "f"), ("closed_map", "f"), ("alpha_m_irresolute", "f"),
              ("T_alpha_m", "X"), ("T_alpha_m", "Y")),
    "P3_12_ab": (("bijective", "f"), ("inverse_alpha_m_continuous", "f"),
                 ("alpha_m_open_map", "f")),
    "P3_12_bc": (("bijective", "f"), ("alpha_m_open_map", "f"), ("alpha_m_closed_map", "f")),
    "P3_12_ca": (("bijective", "f"), ("alpha_m_closed_map", "f"),
                 ("inverse_alpha_m_continuous", "f")),
}


def _arity(enc) -> int:
    """The spaces a claim binds, X, Y, Z, ...; it binds one map fewer,
    f: X -> Y then g: Y -> Z."""
    args = {arg for _, arg in enc}
    return 3 if "g" in args else 2 if "f" in args else 1


_STATEMENTS = {
    "T3_2_ab": "if every alpha_m-closed set is closed then every singleton is "
               "alpha-closed or clopen",
    "T3_2_ba": "if every singleton is alpha-closed or clopen then every "
               "alpha_m-closed set is closed",
    "P3_3": "an alpha_m-continuous map out of a T_alpha_m space is continuous",
    "T3_4b": "an alpha_m-irresolute map out of a T_alpha_m space is continuous",
    "T3_5_fwd": "an alpha_m-continuous map pulls every open set back to an "
                "alpha_m-open set",
    "T3_5_bwd": "a map pulling every open set back to an alpha_m-open set is "
                "alpha_m-continuous",
    "P3_6": "alpha_m-continuous maps compose to an alpha_m-continuous map when "
            "the middle space is T_alpha_m",
    "T3_8b": "alpha_m-closed maps compose to an alpha_m-closed map when the "
             "middle space is T_alpha_m",
    "T3_9b": "an alpha_m-closed map out of a T_alpha_m space is a closed map",
    "T3_10": "a surjective closed alpha_m-irresolute image of a T_alpha_m space "
             "is T_alpha_m",
    "P3_12_ab": "a bijection with an alpha_m-continuous inverse is an "
                "alpha_m-open map",
    "P3_12_bc": "a bijective alpha_m-open map is an alpha_m-closed map",
    "P3_12_ca": "a bijective alpha_m-closed map has an alpha_m-continuous inverse",
}

# claim id -> encoding key; several ids restate one encoding and are swept
# once per scope but always reported separately
_CLAIMS = {
    "T3_2_ab": "T3_2_ab", "T3_2_ba": "T3_2_ba", "P3_3": "P3_3", "T3_4a": "P3_3",
    "T3_4b": "T3_4b", "T3_5_fwd": "T3_5_fwd", "T3_5_bwd": "T3_5_bwd",
    "P3_6": "P3_6", "T3_8a": "P3_6", "T3_8b": "T3_8b", "T3_9a": "P3_3",
    "T3_9b": "T3_9b", "T3_10": "T3_10", "P3_11": "T3_8b",
    "P3_12_ab": "P3_12_ab", "P3_12_bc": "P3_12_bc", "P3_12_ca": "P3_12_ca",
}

CLAIM_IDS = tuple(_CLAIMS)


class Scope(_Frozen):
    """Bounds of a sweep: all labeled spaces with 0..max_points points, and
    every map between them.

    ``witness_limit`` caps collected witnesses (None keeps every failing
    instance).
    """

    _fields = ("max_points", "witness_limit")

    def __init__(self, max_points: int, witness_limit: int = 5) -> None:
        if not isinstance(max_points, int) or isinstance(max_points, bool) or max_points < 0:
            raise BadParams(f"max_points {max_points!r} must be a non-negative integer")
        if max_points > MAX_SCOPE_POINTS:
            raise ScopeTooLarge(
                f"sweeps are capped at {MAX_SCOPE_POINTS} points, got {max_points}")
        limit = witness_limit
        if limit is not None and (not isinstance(limit, int)
                                  or isinstance(limit, bool) or limit < 1):
            raise BadParams("witness_limit must be None or a positive integer")
        self._set(max_points, witness_limit)

    def to_record(self) -> dict:
        # "map_cap" stays, always null, so that saved reports keep their bytes
        return {"max_points": self.max_points, "map_cap": None,
                "witness_limit": self.witness_limit}


class Witness(_Frozen):
    """One failing binding: all hypotheses hold, the conclusion does not."""

    _fields = ("claim", "spaces", "maps", "hypotheses", "conclusion")

    def __init__(self, claim: str, spaces: tuple, maps: tuple, hypotheses: tuple,
                 conclusion: tuple) -> None:
        # hypotheses: ((label, bool), ...); conclusion: (label, bool)
        self._set(claim, spaces, maps, hypotheses, conclusion)

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "spaces": [s.to_record() for s in self.spaces],
            "maps": [m.to_record() for m in self.maps],
            "hypotheses": {label: value for label, value in self.hypotheses},
            "conclusion": {self.conclusion[0]: self.conclusion[1]},
        }


def witness_from_record(obj) -> Witness:
    """Parse a witness record, re-validating the embedded spaces and maps
    and checking that they bind the claim's spaces and maps, and that its
    labels are the claim's terms on them, each hypothesis flagged true and
    the conclusion false."""
    if not isinstance(obj, dict):
        raise BadParams("witness record must be an object")
    for key, kind in (("claim", str), ("spaces", list), ("maps", list),
                      ("hypotheses", dict), ("conclusion", dict)):
        if key not in obj:
            raise BadParams(f"witness record is missing {key!r}")
        if not isinstance(obj[key], kind):
            raise BadParams(f"witness record field {key!r} must be a {kind.__name__}")
    claim = obj["claim"]
    enc = _ENCODINGS[_encoding_key(claim)]
    spaces = tuple(space_from_record(s) for s in obj["spaces"])
    parsed_maps = tuple(map_from_record(m) for m in obj["maps"])
    try:
        _bind(claim, spaces, parsed_maps)
    except ArityMismatch as exc:
        raise BadParams(f"witness record does not fit its claim: {exc}") from None
    *hyp_labels, c_label = (label for label, _ in _terms(enc, spaces, parsed_maps))
    hyps = tuple(obj["hypotheses"].items())
    conclusion = tuple(obj["conclusion"].items())
    if [k for k, _ in hyps] != hyp_labels or [k for k, _ in conclusion] != [c_label]:
        raise BadParams(f"witness record labels are not the terms of {claim}: "
                        f"hypotheses {hyp_labels}, conclusion {c_label!r}")
    if any(v is not True for _, v in hyps) or conclusion[0][1] is not False:
        raise BadParams("witness record flags must be true on every hypothesis "
                        "and false on the conclusion")
    return Witness(claim=claim, spaces=spaces, maps=parsed_maps,
                   hypotheses=hyps, conclusion=conclusion[0])


class TheoremReport(_Frozen):
    """Outcome of one claim sweep over one scope."""

    _fields = ("claim", "statement", "scope", "instances", "failures", "outcome",
               "witnesses", "wall_time")

    def __init__(self, claim: str, statement: str, scope: Scope, instances: int,
                 failures: int, outcome: str, witnesses: tuple, wall_time: float) -> None:
        # outcome: "holds-on-scope" | "refuted"; wall_time is informational,
        # and excluded from to_record()
        self._set(claim, statement, scope, instances, failures, outcome, witnesses,
                  wall_time)

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "statement": self.statement,
            "scope": self.scope.to_record(),
            "instances": self.instances,
            "failures": self.failures,
            "outcome": self.outcome,
            "witnesses": [w.to_record() for w in self.witnesses],
        }


# ---------------------------------------------------------------- direct path

def _encoding_key(claim_id) -> str:
    """Encoding key of a claim id; BadParams for anything that is not one."""
    if not isinstance(claim_id, str) or claim_id not in _CLAIMS:
        raise BadParams(f"unknown claim id {claim_id!r}")
    return _CLAIMS[claim_id]


def _bind(claim_id: str, spaces, bound_maps) -> None:
    arity = _arity(_ENCODINGS[_encoding_key(claim_id)])
    if not isinstance(spaces, (list, tuple)) or not isinstance(bound_maps, (list, tuple)):
        raise BadParams("bound spaces and maps must each be a list or tuple")
    if len(spaces) != arity or len(bound_maps) != arity - 1:
        raise ArityMismatch(
            f"claim {claim_id} binds {arity} space(s) and {arity - 1} map(s); "
            f"got {len(spaces)} and {len(bound_maps)}")
    for s in spaces:
        check_space(s, "bound space")
    for f in bound_maps:
        check_map(f, "bound map")
    for i, f in enumerate(bound_maps):
        if f.domain != spaces[i] or f.codomain != spaces[i + 1]:
            raise ArityMismatch(
                f"map {i} endpoints do not match the bound spaces of claim {claim_id}")


def _terms(enc, spaces, bound_maps) -> list:
    """``(label, thunk)`` of each term of one binding, the hypotheses in
    declared order and then the conclusion; calling a thunk decides its
    flag.

    The binding is ``_arity(enc)`` spaces, bound to X, Y, Z, and the maps
    between consecutive ones, bound to f: X -> Y then g: Y -> Z.  A term on
    compose(g,f) composes the two only when its thunk is called.
    """
    bound = dict(zip("XYZ", spaces))
    bound.update(zip("fg", bound_maps))
    terms = []
    for name, arg in enc:
        pred = _AXIOMS.get(name) or _DIRECT_MAP_PRED[name]
        if arg == "compose(g,f)":
            test = lambda pred=pred, f=bound["f"], g=bound["g"]: pred(compose(g, f))
        else:
            test = partial(pred, bound[arg])
        terms.append((_LABEL_TEMPLATE.get(name, name + "({m})").format(m=arg), test))
    return terms


class InstanceEvaluation(NamedTuple):
    """Outcome of one bound instance: labeled flags plus overall truth."""

    hypotheses: tuple
    conclusion: tuple
    holds: bool


def _evaluate(enc, spaces, bound_maps) -> InstanceEvaluation:
    # evaluate_instance on a binding known to fit the encoding
    *hyp_terms, (label, conclusion) = _terms(enc, spaces, bound_maps)
    hyps = []
    for name, test in hyp_terms:
        value = bool(test())
        hyps.append((name, value))
        if not value:
            return InstanceEvaluation(tuple(hyps), (label, None), True)
    value = bool(conclusion())
    return InstanceEvaluation(tuple(hyps), (label, value), value)


def evaluate_instance(claim_id: str, spaces, bound_maps=()) -> InstanceEvaluation:
    """Hypothesis flags, conclusion flag, and truth of one bound instance.

    Hypotheses evaluate in declared order and stop at the first failure;
    the conclusion is evaluated only when every hypothesis holds (so the
    returned conclusion flag is None for vacuously true instances).
    """
    _bind(claim_id, spaces, bound_maps)
    return _evaluate(_ENCODINGS[_CLAIMS[claim_id]], spaces, bound_maps)


def check_instance(claim_id: str, spaces, bound_maps=()) -> bool:
    """True iff the implication holds on this one binding."""
    _, _, holds = evaluate_instance(claim_id, spaces, bound_maps)
    return holds


# ---------------------------------------------------------------- mask path

# labeled topologies on n = 0..5 points (OEIS A000798): the orbit sizes of
# the classes on n points must sum to the n-th
_LABELED_COUNTS = (1, 1, 4, 29, 355, 6942)


def ProcessPoolExecutor(max_workers: int):
    """A process pool of ``max_workers`` workers.  Its module is imported on
    the first call, so that a serial run never loads it.  The name is the
    class's: the benchmark's tracer counts pool starts under it."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


# maxsize=0 keeps no entry, so every call is computed afresh and counted as
# one miss; the decorator stays because perfbench/tracer.py reads cache_info()
@lru_cache(maxsize=0)
def _pair_masks(tables: dict, ix: int, iy: int):
    """Map-property bitsets, by property name, of every map between the
    spaces at positions ix and iy of the sweep's tables."""
    n, families = tables["n"], tables["families"]
    return _kernels.map_masks(n[ix], families[ix], n[iy], families[iy])


def _space_tables(spaces, weights=None, maps=True) -> dict:
    """The sweep's per-space tables, each a tuple indexed by position in
    ``spaces``: point count, the flag of each axiom in ``_AXIOMS``, the class
    masks that map_masks reads (``families``), and the space's weight, its
    orbit size over class representatives (1 if ``weights`` is None).  One
    class_masks call per space, on its neighbourhood table, if ``maps``: a
    sweep of claims that bind no map reads no class masks.
    """
    columns = {name: [] for name in ("n", *_AXIOMS, *(("families",) if maps else ()))}
    for s in spaces:
        columns["n"].append(s.n)
        for name, holds in _AXIOMS.items():
            columns[name].append(holds(s))
        if maps:
            columns["families"].append(_kernels.class_masks(s.n, s.min_nbhd))
    columns["weight"] = [1] * len(spaces) if weights is None else weights
    return {name: tuple(column) for name, column in columns.items()}


def _count_instances(enc, sizes: Counter) -> int:
    """Bindings of one encoding over spaces of which ``sizes[n]`` have n
    points: every chain of ``_arity(enc)`` spaces, times the maps along it,
    one per consecutive pair.  There are b ** a maps from a points to b
    points, one empty map when a is 0.  Map counts depend only on point
    counts, so the sum runs over chains of point counts, each weighted by
    how many spaces have those counts."""
    return sum(prod(sizes[n] for n in chain)
               * prod(b ** a for a, b in zip(chain, chain[1:]))
               for chain in product(sizes, repeat=_arity(enc)))


def _sweep_chunk(encs, tables: dict, outer):
    """Weighted failure counts and failing tuples of space positions of each
    encoding in ``encs``, over the outer-space positions ``outer``.

    Every space is read through its position in ``tables``, the sweep's
    :func:`_space_tables`.  A binding's failures count the product of its
    spaces' weights times.  For each X one loop over Y fetches the pair
    masks of X and Y once, if some claim reads them.

    Claims are read from their terms.  A pair claim skips an X whose axiom
    hypotheses fail; for each Y it ANDs the pair masks of its f terms into
    the bitset of all maps X -> Y, clears it if a hypothesis on Y fails, and
    keeps the maps whose conclusion fails.

    A composition claim is counted from f alone.  An f: X -> Y with the
    ``_SAFE_F`` property of the hypothesis makes g after f hold for every g
    out of Y: an alpha_m-irresolute f pulls the alpha_m-closed g^-1(C) back
    to an alpha_m-closed set, and a closed map f pushes a closed S to the
    closed f(S), which g pushes to an alpha_m-closed set.  In a T_alpha_m
    middle Y the alpha_m-closed sets are the closed ones, so every f of the
    hypothesis is safe, and no binding fails.  The loop checks that each f
    into a T_alpha_m Y is safe, and raises InternalCheckError on one that
    is not.
    """
    sizes, weight = tables["n"], tables["weight"]
    failures = [0] * len(encs)
    failing = [set() for _ in encs]
    singles, doubles, triples = ([(k, enc) for k, enc in enumerate(encs) if _arity(enc) == a]
                                 for a in (1, 2, 3))
    middles = tables["T_alpha_m"] if triples else (False,) * len(sizes)
    for ix in outer:
        for k, enc in singles:
            *hyps, (concl, _) = enc
            if all(tables[name][ix] for name, _ in hyps) and not tables[concl][ix]:
                failures[k] += weight[ix]
                failing[k].add((ix,))
        pairs = [(k, enc) for k, enc in doubles
                 if all(tables[name][ix] for name, arg in enc[:-1] if arg == "X")]
        for iy in range(len(sizes)):
            if not (pairs or middles[iy]):
                continue
            m = _pair_masks(tables, ix, iy)
            every = (1 << sizes[iy] ** sizes[ix]) - 1
            for k, enc in pairs:
                *hyps, (concl, on) = enc
                fail_bits = every
                for name, arg in hyps:
                    if arg == "f":
                        fail_bits &= m[name]
                    elif arg == "Y" and not tables[name][iy]:
                        fail_bits = 0
                if on == "f":
                    fail_bits &= ~m[concl]
                elif tables[concl][iy]:
                    fail_bits = 0
                if fail_bits:
                    failures[k] += weight[ix] * weight[iy] * fail_bits.bit_count()
                    failing[k].add((ix, iy))
            # f: X -> Y with Y T_alpha_m: g after f holds for every g
            for _, enc in triples if middles[iy] else ():
                p = enc[0][0]
                if m[p] & ~m[_SAFE_F[p]]:
                    raise InternalCheckError(
                        f"an f with {p} into a T_alpha_m space is not {_SAFE_F[p]}")
    return failures, failing


def _first_failures(key: str, tuples, members, limit) -> list:
    """The first ``limit`` failing labeled bindings of encoding ``key`` (all
    of them if None), in sweep order, each as (spaces, maps, evaluation).

    ``tuples`` holds the failing tuples of class positions, and ``members``
    the (space, class position) of each labeled space in the orbit of a
    class in one of them, in stream order.  The walk visits the chains of
    members whose class tuple fails, and the maps along each chain in rank
    order, f outer and g inner, and evaluates each binding with the direct
    predicates.  Relabelling each space maps every binding of a class tuple
    onto one of each of its labeled chains, so every chain holds a failure;
    a finished chain without one raises InternalCheckError.
    """
    enc = _ENCODINGS[key]
    arity = _arity(enc)
    # every leading part of a failing class tuple
    starts = {t[:j] for t in tuples for j in range(1, len(t) + 1)}
    found = []

    def chains(spaces, classes):
        if len(spaces) == arity:
            yield spaces
            return
        for s, c in members:
            if classes + (c,) in starts:
                yield from chains(spaces + (s,), classes + (c,))

    for spaces in chains((), ()):
        failed = False
        for bound in product(*map(enumeration.enumerate_maps, spaces, spaces[1:])):
            evaluation = _evaluate(enc, spaces, bound)
            if not evaluation.holds:
                found.append((spaces, bound, evaluation))
                failed = True
                if len(found) == limit:
                    return found
        if not failed:
            raise InternalCheckError(
                f"the count marked {key} failing on {spaces}, which holds on every map")
    return found


def _run_sweep(keys, scope: Scope, jobs: int, pool):
    """(instances, failures, failing bindings) of each encoding key in
    ``keys`` over the labeled spaces of the scope.

    Every claim is invariant under relabelling each bound space on its own,
    so the failures are counted over one representative per homeomorphism
    class (Stong 1966): a tuple of representatives counts for the product
    of its orbit sizes.  The count is split into one share per worker:
    share i is every jobs-th representative from i.  The orbit sizes of each
    point count must sum to its labeled count of OEIS A000798, or the sweep
    raises InternalCheckError; the instances are counted from those sums.

    The failing bindings are the least ones of the labeled sweep, as
    :func:`_first_failures` walks them with the direct predicates, one walk
    per encoding with failures.  Only the members of a class in some
    failing class tuple are built into spaces: the tables of its
    ``enumeration._orbit``, sorted by point count and then ``_key``, which
    is stream order.  Each walk must find as many bindings as the witness
    limit allows of the counted failures, all of them with no limit;
    otherwise the sweep raises InternalCheckError.
    """
    points = range(scope.max_points + 1)
    classes = [c for n in points for c in enumeration._classes(n)]
    reps = [s for s, _ in classes]
    weights = [w for _, w in classes]
    labeled = Counter()
    for s, w in zip(reps, weights):
        labeled[s.n] += w
    known = _LABELED_COUNTS[:scope.max_points + 1]
    if tuple(labeled[n] for n in points) != known:
        raise InternalCheckError(
            f"orbit sizes per point count {dict(labeled)} are not the labeled "
            f"counts of OEIS A000798, {known}")
    encs = [_ENCODINGS[key] for key in keys]
    instances = [_count_instances(enc, labeled) for enc in encs]

    tables = _space_tables(reps, weights, maps=any(_arity(enc) > 1 for enc in encs))
    count = partial(_sweep_chunk, encs, tables)
    results = list((pool.map if pool else map)(
        count, [range(i, len(reps), jobs) for i in range(jobs)]))
    failures = [sum(r[0][k] for r in results) for k in range(len(encs))]
    failing = [set().union(*(r[1][k] for r in results)) for k in range(len(encs))]
    # the labeled members of the failing classes, in stream order
    members = sorted((reps[c].n, enumeration._key(reps[c].n)(t), t, c)
                     for c in {c for tuples in failing for t in tuples for c in t}
                     for t in enumeration._orbit(reps[c]))
    members = [(FiniteSpace._unchecked(n, t), c) for n, _, t, c in members]
    found = [_first_failures(key, tuples, members, scope.witness_limit) if tuples else []
             for key, tuples in zip(keys, failing)]
    limit = scope.witness_limit
    wanted = [f if limit is None else min(f, limit) for f in failures]
    if list(map(len, found)) != wanted:
        raise InternalCheckError(
            f"the witness walk found {list(map(len, found))} failing bindings, "
            f"the orbit-weighted count allows {wanted}")
    return list(zip(instances, failures, found))


def default_scope(claim_id: str) -> Scope:
    """n <= 4 for the space-quantified claims, n <= 3 for map-quantified ones."""
    return Scope(4) if _arity(_ENCODINGS[_encoding_key(claim_id)]) == 1 else Scope(3)


def claim_statement(claim_id: str) -> str:
    return _STATEMENTS[_encoding_key(claim_id)]


def _verify_claims(claim_scopes: dict, jobs: int) -> dict:
    """Reports keyed by claim id for ``{claim id: scope}``.

    Claims of one scope are answered by one sweep, and report its wall
    time.  Ids restating one encoding are folded once and reported
    separately.  With jobs > 1 every sweep shares one process pool, of at
    most one worker per CPU, and hands each worker one share of its class
    representatives; the reports do not depend on the worker count.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise BadParams(f"jobs {jobs!r} must be a positive integer")
    jobs = min(jobs, os.cpu_count() or 1)
    groups = {}     # scope -> {encoding key: [claim ids]}
    for claim_id, scope in claim_scopes.items():
        key = _encoding_key(claim_id)
        if not isinstance(scope, Scope):
            raise BadParams(f"scope {scope!r} must be a Scope")
        groups.setdefault(scope, {}).setdefault(key, []).append(claim_id)
    reports = {}
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        for scope, by_encoding in groups.items():
            started = time.perf_counter()
            results = _run_sweep(list(by_encoding), scope, jobs, pool)
            wall = time.perf_counter() - started
            for (key, claim_ids), (instances, failures, found) in zip(
                    by_encoding.items(), results):
                for claim_id in claim_ids:
                    witnesses = tuple(
                        Witness(claim=claim_id, spaces=spaces, maps=bound_maps,
                                hypotheses=hyps, conclusion=concl)
                        for spaces, bound_maps, (hyps, concl, _) in found)
                    reports[claim_id] = TheoremReport(
                        claim=claim_id, statement=_STATEMENTS[key], scope=scope,
                        instances=instances, failures=failures,
                        outcome="refuted" if failures else "holds-on-scope",
                        witnesses=witnesses, wall_time=wall)
    return reports


def verify(claim_id: str, scope: Scope = None, jobs: int = 1) -> TheoremReport:
    """Sweep one claim over a scope (default per claim kind) and report."""
    return verify_all(scope, claims=(claim_id,), jobs=jobs)[0]


def verify_all(scope: Scope = None, claims=None, jobs: int = 1):
    """Reports for every claim id (or a subset), in the order given.

    With ``scope=None`` each claim runs at its per-kind default scope.
    Claims of one scope share one sweep; claims that restate the same
    encoding are folded once and reported separately.
    """
    if claims is None:
        claims = CLAIM_IDS
    elif isinstance(claims, str) or not isinstance(claims, Iterable):
        raise BadParams(f"claims {claims!r} must be an iterable of claim ids")
    claims = tuple(claims)
    for c in claims:
        _encoding_key(c)
    by_claim = _verify_claims(
        {c: scope if scope is not None else default_scope(c) for c in claims}, jobs)
    return [by_claim[c] for c in claims]


def validate_witness(report: TheoremReport) -> bool:
    """True iff every witness still refutes its claim after a round trip
    through the serialized text form; BadParams for anything but a
    TheoremReport of Witnesses whose records parse."""
    if not isinstance(report, TheoremReport):
        raise BadParams(f"report {report!r} is not a TheoremReport")
    try:
        records = [json.loads(json.dumps(w.to_record())) for w in report.witnesses]
    except (AttributeError, TypeError, ValueError):
        raise BadParams(f"witnesses {report.witnesses!r} are not "
                        "serializable Witnesses") from None
    for rec in records:
        back = witness_from_record(rec)
        if check_instance(back.claim, back.spaces, back.maps):
            return False
    return True


def reports_to_json(reports) -> str:
    """Deterministic structured output for a batch of reports; BadParams
    for anything but an iterable of TheoremReports."""
    if not isinstance(reports, Iterable):
        raise BadParams(f"reports {reports!r} must be an iterable of TheoremReports")
    records = []
    for r in reports:
        if not isinstance(r, TheoremReport):
            raise BadParams(f"report {r!r} is not a TheoremReport")
        records.append(r.to_record())
    payload = {"note": SCOPE_NOTE, "reports": records}
    return json.dumps(payload, separators=(",", ":"))

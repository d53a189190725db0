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
reads the sorted neighbourhood tables in stream order, builds spaces for
the members of the failing classes alone, evaluates just the bindings
whose class tuple failed with the direct predicates, and stops at the
witness limit.  The witnesses are the least failing labeled bindings, as a
sweep of every labeled binding would list them.

Instances are counted analytically from the binding product over the
number of labeled tables per point count, so serial and parallel runs of
the same scope produce identical reports; bindings whose hypotheses fail
count as (vacuously true) checked instances.  Before it reports, the sweep
checks that the orbit sizes sum to those numbers and to OEIS A000798, and
that the walk found as many witnesses as the counted failures allow.
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
from .maps import SpaceMap, check_map, compose, map_from_record
from .space import FiniteSpace, _Frozen, check_space, points_of, space_from_record

MAX_SCOPE_POINTS = 5

SCOPE_NOTE = ("exhaustive check of every binding within the bounded scope; "
              "holds-on-scope is not a proof beyond it")

_PROP_IDX = {name: i for i, name in enumerate(_kernels.MAP_PROP_ORDER)}

# the one-map predicates by name, with the two the claims derive from them
_DIRECT_MAP_PRED = {
    **maps.MAP_PREDICATES,
    "open_preimages_alpha_m_open": maps.open_preimages_alpha_m_open,
    "inverse_alpha_m_continuous":
        lambda f: maps.is_alpha_m_continuous(maps.inverse(f)),
}

_LABEL_TEMPLATE = {
    name: name + "({m})" for name in _DIRECT_MAP_PRED
}
_LABEL_TEMPLATE["inverse_alpha_m_continuous"] = "alpha_m_continuous(inverse({m}))"


# the space axioms the claims name, by name; the sweep tabulates each per space
_AXIOMS = {
    "T_alpha_m": axioms.is_T_alpha_m,
    "singleton_dichotomy": axioms.singleton_dichotomy,
}


# Each claim kind binds ``arity`` spaces X, Y, Z, ... and the arity - 1 maps
# along them, X -> Y -> Z.

class _SpaceClaim(_Frozen):
    arity = 1
    _fields = ("hyp", "concl")

    def __init__(self, hyp: str, concl: str) -> None:
        # axiom names in _AXIOMS
        self._set(hyp, concl)


class _PairClaim(_Frozen):
    arity = 2
    _fields = ("map_hyp", "space_hyp_x", "concl_map")

    def __init__(self, map_hyp: tuple, space_hyp_x: bool = False, concl_map: str = "") -> None:
        # space_hyp_x adds the hypothesis T_alpha_m(X); concl_map is empty
        # iff the conclusion is T_alpha_m(Y)
        self._set(map_hyp, space_hyp_x, concl_map)


class _TripleClaim(_Frozen):
    arity = 3
    _fields = ("map_prop",)

    def __init__(self, map_prop: str) -> None:
        # hypothesis property of f and g; conclusion property of g after f
        self._set(map_prop)


# per hypothesis of a composition claim, the property of f that makes g
# after f hold for every g of the hypothesis, whatever the middle space;
# into a T_alpha_m middle space every f of the hypothesis has it
_SAFE_F = {"alpha_m_continuous": "alpha_m_irresolute", "alpha_m_closed_map": "closed_map"}


_ENCODINGS = {
    "T3_2_ab": _SpaceClaim(hyp="T_alpha_m", concl="singleton_dichotomy"),
    "T3_2_ba": _SpaceClaim(hyp="singleton_dichotomy", concl="T_alpha_m"),
    "P3_3": _PairClaim(map_hyp=("alpha_m_continuous",), space_hyp_x=True,
                       concl_map="continuous"),
    "T3_4b": _PairClaim(map_hyp=("alpha_m_irresolute",), space_hyp_x=True,
                        concl_map="continuous"),
    "T3_5_fwd": _PairClaim(map_hyp=("alpha_m_continuous",),
                           concl_map="open_preimages_alpha_m_open"),
    "T3_5_bwd": _PairClaim(map_hyp=("open_preimages_alpha_m_open",),
                           concl_map="alpha_m_continuous"),
    "P3_6": _TripleClaim(map_prop="alpha_m_continuous"),
    "T3_8b": _TripleClaim(map_prop="alpha_m_closed_map"),
    "T3_9b": _PairClaim(map_hyp=("alpha_m_closed_map",), space_hyp_x=True,
                        concl_map="closed_map"),
    "T3_10": _PairClaim(map_hyp=("surjective", "closed_map", "alpha_m_irresolute"),
                        space_hyp_x=True, concl_map=""),
    "P3_12_ab": _PairClaim(map_hyp=("bijective", "inverse_alpha_m_continuous"),
                           concl_map="alpha_m_open_map"),
    "P3_12_bc": _PairClaim(map_hyp=("bijective", "alpha_m_open_map"),
                           concl_map="alpha_m_closed_map"),
    "P3_12_ca": _PairClaim(map_hyp=("bijective", "alpha_m_closed_map"),
                           concl_map="inverse_alpha_m_continuous"),
}

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
    and checking that they bind the claim's spaces and maps."""
    if not isinstance(obj, dict):
        raise BadParams("witness record must be an object")
    for key, kind in (("claim", str), ("spaces", list), ("maps", list),
                      ("hypotheses", dict), ("conclusion", dict)):
        if key not in obj:
            raise BadParams(f"witness record is missing {key!r}")
        if not isinstance(obj[key], kind):
            raise BadParams(f"witness record field {key!r} must be a {kind.__name__}")
    claim = obj["claim"]
    _encoding_key(claim)
    if len(obj["conclusion"]) != 1:
        raise BadParams("witness record field 'conclusion' must hold one entry")
    spaces = tuple(space_from_record(s) for s in obj["spaces"])
    parsed_maps = tuple(map_from_record(m) for m in obj["maps"])
    try:
        _bind(claim, spaces, parsed_maps)
    except ArityMismatch as exc:
        raise BadParams(f"witness record does not fit its claim: {exc}") from None
    hyps = tuple((k, bool(v)) for k, v in obj["hypotheses"].items())
    (c_label, c_value), = obj["conclusion"].items()
    return Witness(claim=claim, spaces=spaces, maps=parsed_maps,
                   hypotheses=hyps, conclusion=(c_label, bool(c_value)))


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
    arity = _ENCODINGS[_encoding_key(claim_id)].arity
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


def _map_term(name: str, m: str, f: SpaceMap):
    # (label, thunk) of property ``name`` of the map f, called m in the label
    return _LABEL_TEMPLATE[name].format(m=m), partial(_DIRECT_MAP_PRED[name], f)


def _terms(enc, spaces, bound_maps) -> list:
    """``(label, thunk)`` of each hypothesis of one binding, in declared
    order, then of its conclusion; calling a thunk decides its flag.

    The binding is ``enc.arity`` spaces, named X, Y, Z in the labels, and
    the ``enc.arity - 1`` maps between consecutive ones, f: X -> Y then
    g: Y -> Z.  The conclusion of a composition claim is the property of
    g after f, which is composed only when its thunk is called.
    """
    if isinstance(enc, _SpaceClaim):
        (x,) = spaces
        return [(f"{name}(X)", partial(_AXIOMS[name], x)) for name in (enc.hyp, enc.concl)]
    t_alpha_m = _AXIOMS["T_alpha_m"]
    if isinstance(enc, _PairClaim):
        x, y = spaces
        (f,) = bound_maps
        terms = [_map_term(name, "f", f) for name in enc.map_hyp]
        if enc.space_hyp_x:
            terms.append(("T_alpha_m(X)", partial(t_alpha_m, x)))
        terms.append(_map_term(enc.concl_map, "f", f) if enc.concl_map
                     else ("T_alpha_m(Y)", partial(t_alpha_m, y)))
        return terms
    f, g = bound_maps
    pred = _DIRECT_MAP_PRED[enc.map_prop]
    return [_map_term(enc.map_prop, "f", f), _map_term(enc.map_prop, "g", g),
            ("T_alpha_m(Y)", partial(t_alpha_m, spaces[1])),
            (_LABEL_TEMPLATE[enc.map_prop].format(m="compose(g,f)"),
             lambda: pred(compose(g, f)))]


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

# the class masks map_masks reads on each side of a pair, in its argument
# order, which is also the order class_masks returns them in
_MAP_SIDE = ("open", "closed", "alpha_m_closed", "alpha_m_open")

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
    """Map-property bitsets of every map between the spaces at positions ix
    and iy of the sweep's tables."""
    return _kernels.map_masks(tables["n"][ix], *(tables[name][ix] for name in _MAP_SIDE),
                              tables["n"][iy], *(tables[name][iy] for name in _MAP_SIDE))


def _space_tables(spaces, weights=None, maps=True) -> dict:
    """The sweep's per-space tables, each a tuple indexed by position in
    ``spaces``: point count, the flag of each axiom in ``_AXIOMS``, the class
    masks that map_masks reads, and the space's weight, its orbit size over
    class representatives (1 if ``weights`` is None).  One class_masks call
    per space, on its neighbourhood table, if ``maps``: a sweep of claims
    that bind no map reads no class masks.
    """
    columns = {name: [] for name in ("n", *_AXIOMS, *(_MAP_SIDE if maps else ()))}
    for s in spaces:
        columns["n"].append(s.n)
        for name, holds in _AXIOMS.items():
            columns[name].append(holds(s))
        if maps:
            for name, mask in zip(_MAP_SIDE, _kernels.class_masks(s.n, s.min_nbhd)):
                columns[name].append(mask)
    columns["weight"] = [1] * len(spaces) if weights is None else weights
    return {name: tuple(column) for name, column in columns.items()}


def _count_instances(enc, sizes: Counter) -> int:
    """Bindings of one encoding over spaces of which ``sizes[n]`` have n
    points: every chain of ``enc.arity`` spaces, times the ``enc.arity - 1``
    maps along it, one per consecutive pair.  There are b ** a maps from a
    points to b points, one empty map when a is 0.  Map counts depend only
    on point counts, so the sum runs over chains of point counts, each
    weighted by how many spaces have those counts."""
    return sum(prod(sizes[n] for n in chain)
               * prod(b ** a for a, b in zip(chain, chain[1:]))
               for chain in product(sizes, repeat=enc.arity))


def _sweep_chunk(encs, tables: dict, outer):
    """Weighted failure counts and failing tuples of space positions of each
    encoding in ``encs``, over the outer-space positions ``outer``.

    Every space is read through its position in ``tables``, the sweep's
    :func:`_space_tables`.  A binding's failures count the product of its
    spaces' weights times.  Each pair of spaces fetches its pair masks once,
    into a row that goes with its X.

    A composition claim is counted from f alone.  An f: X -> Y with the
    ``_SAFE_F`` property of the hypothesis makes g after f hold for every g
    out of Y: an alpha_m-irresolute f pulls the alpha_m-closed g^-1(C) back
    to an alpha_m-closed set, and a closed map f pushes a closed S to the
    closed f(S), which g pushes to an alpha_m-closed set.  In a T_alpha_m
    middle Y the alpha_m-closed sets are the closed ones, so every f of the
    hypothesis is safe, and a real sweep meets no other.  The other f, should
    there be any, are paired with every g out of Y, and the composite's
    pair mask decides each pair (``_kernels.composition_failures``).
    """
    sizes, t_alpha_m, weight = (tables[name] for name in ("n", "T_alpha_m", "weight"))
    failures = [0] * len(encs)
    failing = [set() for _ in encs]
    singles = [(k, enc) for k, enc in enumerate(encs) if isinstance(enc, _SpaceClaim)]
    doubles = [(k, enc) for k, enc in enumerate(encs) if isinstance(enc, _PairClaim)]
    triples = [(k, enc) for k, enc in enumerate(encs) if isinstance(enc, _TripleClaim)]
    middles = [iy for iy, t in enumerate(t_alpha_m) if t] if triples else []
    rows = {}   # X -> {Y: pair masks of X and Y}

    def masks(ix, iy):
        row = rows.setdefault(ix, {})
        if iy not in row:
            row[iy] = _pair_masks(tables, ix, iy)
        return row[iy]

    for ix in outer:
        for k, enc in singles:
            if tables[enc.hyp][ix] and not tables[enc.concl][ix]:
                failures[k] += weight[ix]
                failing[k].add((ix,))
        pairs = [(k, enc) for k, enc in doubles if t_alpha_m[ix] or not enc.space_hyp_x]
        for iy in range(len(sizes)) if pairs else ():
            m = masks(ix, iy)
            for k, enc in pairs:
                first, *rest = enc.map_hyp
                hyp_bits = m[_PROP_IDX[first]]
                for name in rest:
                    hyp_bits &= m[_PROP_IDX[name]]
                if enc.concl_map:
                    fail_bits = hyp_bits & ~m[_PROP_IDX[enc.concl_map]]
                else:
                    fail_bits = 0 if t_alpha_m[iy] else hyp_bits
                if fail_bits:
                    failures[k] += weight[ix] * weight[iy] * fail_bits.bit_count()
                    failing[k].add((ix, iy))

        # f: X -> Y and g: Y -> Z with Y T_alpha_m
        for iy in middles:
            m = masks(ix, iy)
            for k, enc in triples:
                p = _PROP_IDX[enc.map_prop]
                unsafe = points_of(m[p] & ~m[_PROP_IDX[_SAFE_F[enc.map_prop]]])
                for iz in range(len(sizes)) if unsafe else ():
                    count = _kernels.composition_failures(
                        sizes[ix], sizes[iy], sizes[iz], unsafe,
                        points_of(masks(iy, iz)[p]), masks(ix, iz)[p])
                    if count:
                        failures[k] += weight[ix] * weight[iy] * weight[iz] * count
                        failing[k].add((ix, iy, iz))
        rows.pop(ix, None)
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
    # every leading part of a failing class tuple
    starts = {t[:j] for t in tuples for j in range(1, len(t) + 1)}
    found = []

    def chains(spaces, classes):
        if len(spaces) == enc.arity:
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
    share i is every jobs-th representative from i.  The instances are
    counted from the number of labeled tables per point count, the lengths
    of the sorted tables ``enumeration._tables``.  The orbit sizes of each
    point count must sum to that number, and to the labeled count of OEIS
    A000798; otherwise the sweep raises InternalCheckError.

    The failing bindings are the least ones of the labeled sweep, as
    :func:`_first_failures` walks them with the direct predicates, one walk
    per encoding with failures.  Only the tables in the orbit of a class in
    some failing class tuple are built into spaces.  Each walk must find as
    many bindings as the witness limit allows of the counted failures, all
    of them with no limit; otherwise the sweep raises InternalCheckError.
    """
    points = range(scope.max_points + 1)
    classes = [c for n in points for c in enumeration._classes(n)]
    reps = [s for s, _ in classes]
    weights = [len(orbit) for _, orbit in classes]
    labeled = Counter({n: len(enumeration._tables(n)) for n in points})
    weighted = Counter()
    for s, w in zip(reps, weights):
        weighted[s.n] += w
    known = _LABELED_COUNTS[:scope.max_points + 1]
    if weighted != labeled or tuple(weighted[n] for n in range(len(known))) != known:
        raise InternalCheckError(
            f"orbit sizes per point count {dict(weighted)} are not the labeled "
            f"counts {dict(labeled)} (OEIS A000798: {known})")
    encs = [_ENCODINGS[key] for key in keys]
    instances = [_count_instances(enc, labeled) for enc in encs]

    tables = _space_tables(reps, weights, maps=any(enc.arity > 1 for enc in encs))
    count = partial(_sweep_chunk, encs, tables)
    results = list((pool.map if pool else map)(
        count, [range(i, len(reps), jobs) for i in range(jobs)]))
    failures = [sum(r[0][k] for r in results) for k in range(len(encs))]
    failing = [set().union(*(r[1][k] for r in results)) for k in range(len(encs))]
    # the class of each labeled table in the orbit of a failing class
    where = {t: c for c in {c for tuples in failing for t in tuples for c in t}
             for t in classes[c][1]}
    members = [(FiniteSpace._unchecked(n, t), where[t])
               for n in points for t in enumeration._tables(n) if t in where]
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
    return Scope(4) if _ENCODINGS[_encoding_key(claim_id)].arity == 1 else Scope(3)


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
    TheoremReport."""
    if not isinstance(report, TheoremReport):
        raise BadParams(f"report {report!r} is not a TheoremReport")
    for w in report.witnesses:
        rec = json.loads(json.dumps(w.to_record()))
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

"""Exhaustive bounded-scope checking of the implication claims.

Every claim is an implication over bound spaces and maps.  ``verify``
sweeps every binding inside a :class:`Scope` (all labeled topologies with
0..max_points points and, per binding, all maps between them), counts the
failing instances, and returns a report whose outcome is either
``holds-on-scope`` or ``refuted``.  Holds-on-scope is exhaustive for the
scope and is not a proof beyond it.

Instances are counted analytically from the binding product, so serial and
parallel runs of the same scope produce identical reports; bindings whose
hypotheses fail count as (vacuously true) checked instances.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from . import _kernels, axioms, maps
from .enumeration import spaces_up_to
from .errors import ArityMismatch, BadParams, InternalCheckError, ScopeTooLarge
from .maps import SpaceMap, assignment_from_index, check_map, compose, map_from_record
from .space import FiniteSpace, check_space, points_of, space_from_record

MAX_SCOPE_POINTS = 5

SCOPE_NOTE = ("exhaustive check of every binding within the bounded scope; "
              "holds-on-scope is not a proof beyond it")

_PROP_IDX = {name: i for i, name in enumerate(_kernels.MAP_PROP_ORDER)}

_DIRECT_MAP_PRED = {
    "continuous": maps.is_continuous,
    "open_map": maps.is_open_map,
    "closed_map": maps.is_closed_map,
    "surjective": maps.is_surjective,
    "bijective": maps.is_bijective,
    "alpha_m_continuous": maps.is_alpha_m_continuous,
    "alpha_m_irresolute": maps.is_alpha_m_irresolute,
    "alpha_m_closed_map": maps.is_alpha_m_closed_map,
    "alpha_m_open_map": maps.is_alpha_m_open_map,
    "open_preimages_alpha_m_open": maps.open_preimages_alpha_m_open,
    "inverse_alpha_m_continuous":
        lambda f: maps.is_alpha_m_continuous(maps.inverse(f)),
}

_LABEL_TEMPLATE = {
    name: name + "({m})" for name in _DIRECT_MAP_PRED
}
_LABEL_TEMPLATE["inverse_alpha_m_continuous"] = "alpha_m_continuous(inverse({m}))"


@dataclass(frozen=True)
class _SpaceClaim:
    hyp: str    # axiom flag name
    concl: str


@dataclass(frozen=True)
class _PairClaim:
    map_hyp: tuple
    space_hyp_x: bool = False       # additional hypothesis: T_alpha_m(X)
    concl_map: str = ""             # empty iff the conclusion is T_alpha_m(Y)


@dataclass(frozen=True)
class _TripleClaim:
    map_prop: str   # hypothesis property of f and g; conclusion property of g after f


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


@dataclass(frozen=True)
class Scope:
    """Bounds of a sweep: all labeled spaces with 0..max_points points.

    ``map_cap`` optionally limits each space pair to its first map_cap maps
    in rank order; ``witness_limit`` caps collected witnesses (None keeps
    every failing instance).
    """

    max_points: int
    map_cap: int = None
    witness_limit: int = 5

    def __post_init__(self):
        if not isinstance(self.max_points, int) or isinstance(self.max_points, bool) \
                or self.max_points < 0:
            raise BadParams(f"max_points {self.max_points!r} must be a non-negative integer")
        if self.max_points > MAX_SCOPE_POINTS:
            raise ScopeTooLarge(
                f"sweeps are capped at {MAX_SCOPE_POINTS} points, got {self.max_points}")
        for name in ("map_cap", "witness_limit"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool) or value < 1):
                raise BadParams(f"{name} must be None or a positive integer")

    def to_record(self) -> dict:
        return {"max_points": self.max_points, "map_cap": self.map_cap,
                "witness_limit": self.witness_limit}


@dataclass(frozen=True)
class Witness:
    """One failing binding: all hypotheses hold, the conclusion does not."""

    claim: str
    spaces: tuple
    maps: tuple
    hypotheses: tuple   # ((label, bool), ...)
    conclusion: tuple   # (label, bool)

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


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one claim sweep over one scope."""

    claim: str
    statement: str
    scope: Scope
    instances: int
    failures: int
    outcome: str        # "holds-on-scope" | "refuted"
    witnesses: tuple
    wall_time: float    # informational; excluded from to_record()

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

def _axiom_flag(name: str, space: FiniteSpace) -> bool:
    if name == "T_alpha_m":
        return axioms.is_T_alpha_m(space)
    if name == "singleton_dichotomy":
        return axioms.singleton_dichotomy(space)
    raise AssertionError(name)


def _encoding_key(claim_id) -> str:
    """Encoding key of a claim id; BadParams for anything that is not one."""
    if not isinstance(claim_id, str) or claim_id not in _CLAIMS:
        raise BadParams(f"unknown claim id {claim_id!r}")
    return _CLAIMS[claim_id]


def _bind(claim_id: str, spaces, bound_maps) -> None:
    enc = _ENCODINGS[_encoding_key(claim_id)]
    if isinstance(enc, _SpaceClaim):
        want_spaces, want_maps = 1, 0
    elif isinstance(enc, _PairClaim):
        want_spaces, want_maps = 2, 1
    else:
        want_spaces, want_maps = 3, 2
    if not isinstance(spaces, (list, tuple)) or not isinstance(bound_maps, (list, tuple)):
        raise BadParams("bound spaces and maps must each be a list or tuple")
    if len(spaces) != want_spaces or len(bound_maps) != want_maps:
        raise ArityMismatch(
            f"claim {claim_id} binds {want_spaces} space(s) and {want_maps} map(s); "
            f"got {len(spaces)} and {len(bound_maps)}")
    for s in spaces:
        check_space(s, "bound space")
    for f in bound_maps:
        check_map(f, "bound map")
    for i, f in enumerate(bound_maps):
        if f.domain != spaces[i] or f.codomain != spaces[i + 1]:
            raise ArityMismatch(
                f"map {i} endpoints do not match the bound spaces of claim {claim_id}")


class InstanceEvaluation(NamedTuple):
    """Outcome of one bound instance: labeled flags plus overall truth."""

    hypotheses: tuple
    conclusion: tuple
    holds: bool


def evaluate_instance(claim_id: str, spaces, bound_maps=()) -> InstanceEvaluation:
    """Hypothesis flags, conclusion flag, and truth of one bound instance.

    Hypotheses evaluate in declared order and stop at the first failure;
    the conclusion is evaluated only when every hypothesis holds (so the
    returned conclusion flag is None for vacuously true instances).
    """
    _bind(claim_id, spaces, bound_maps)
    enc = _ENCODINGS[_CLAIMS[claim_id]]
    hyps = []

    def run(label, fn):
        value = bool(fn())
        hyps.append((label, value))
        return value

    if isinstance(enc, _SpaceClaim):
        (s,) = spaces
        if not run(f"{enc.hyp}(X)", lambda: _axiom_flag(enc.hyp, s)):
            return InstanceEvaluation(tuple(hyps), (f"{enc.concl}(X)", None), True)
        value = _axiom_flag(enc.concl, s)
        return InstanceEvaluation(tuple(hyps), (f"{enc.concl}(X)", value), value)
    if isinstance(enc, _PairClaim):
        x, y = spaces
        (f,) = bound_maps
        for name in enc.map_hyp:
            label = _LABEL_TEMPLATE[name].format(m="f")
            if not run(label, lambda name=name: _DIRECT_MAP_PRED[name](f)):
                return InstanceEvaluation(tuple(hyps), _pair_concl_label(enc), True)
        if enc.space_hyp_x and not run("T_alpha_m(X)",
                                       lambda: axioms.is_T_alpha_m(x)):
            return InstanceEvaluation(tuple(hyps), _pair_concl_label(enc), True)
        label, _ = _pair_concl_label(enc)
        if enc.concl_map:
            value = bool(_DIRECT_MAP_PRED[enc.concl_map](f))
        else:
            value = axioms.is_T_alpha_m(y)
        return InstanceEvaluation(tuple(hyps), (label, value), value)
    x, y, z = spaces
    f, g = bound_maps
    pred = _DIRECT_MAP_PRED[enc.map_prop]
    for label, fn in ((_LABEL_TEMPLATE[enc.map_prop].format(m="f"), lambda: pred(f)),
                      (_LABEL_TEMPLATE[enc.map_prop].format(m="g"), lambda: pred(g)),
                      ("T_alpha_m(Y)", lambda: axioms.is_T_alpha_m(y))):
        if not run(label, fn):
            return InstanceEvaluation(
                tuple(hyps),
                (_LABEL_TEMPLATE[enc.map_prop].format(m="compose(g,f)"), None),
                True)
    value = bool(pred(compose(g, f)))
    return InstanceEvaluation(
        tuple(hyps),
        (_LABEL_TEMPLATE[enc.map_prop].format(m="compose(g,f)"), value),
        value)


def _pair_concl_label(enc: _PairClaim):
    if enc.concl_map:
        return (_LABEL_TEMPLATE[enc.concl_map].format(m="f"), None)
    return ("T_alpha_m(Y)", None)


def check_instance(claim_id: str, spaces, bound_maps=()) -> bool:
    """True iff the implication holds on this one binding."""
    _, _, holds = evaluate_instance(claim_id, spaces, bound_maps)
    return holds


# ---------------------------------------------------------------- mask path

# the class masks map_masks reads on each side of a pair, in its argument
# order, which is also the order class_masks returns them in
_MAP_SIDE = ("open", "closed", "alpha_m_closed", "alpha_m_open")


# maxsize=0 keeps no entry, so every call is computed afresh and counted as
# one miss; the decorator stays because perfbench/tracer.py reads cache_info()
@lru_cache(maxsize=0)
def _pair_masks(tables: dict, ix: int, iy: int):
    """Map-property bitsets of every map between the spaces at stream
    positions ix and iy."""
    return _kernels.map_masks(tables["n"][ix], *(tables[name][ix] for name in _MAP_SIDE),
                              tables["n"][iy], *(tables[name][iy] for name in _MAP_SIDE))


def _space_tables(spaces) -> dict:
    """The sweep's per-space tables, each a tuple indexed by stream position:
    point count, the two axiom flags, and the class masks that map_masks and
    the composition fold read.  One class_masks call per space, on its
    neighbourhood table; the axioms are decided by :mod:`topolab.axioms`."""
    columns = {name: [] for name in ("n", "T_alpha_m", "singleton_dichotomy") + _MAP_SIDE}
    for s in spaces:
        columns["n"].append(s.n)
        columns["T_alpha_m"].append(axioms.is_T_alpha_m(s))
        columns["singleton_dichotomy"].append(axioms.singleton_dichotomy(s))
        for name, mask in zip(_MAP_SIDE, _kernels.class_masks(s.n, s.min_nbhd)):
            columns[name].append(mask)
    return {name: tuple(column) for name, column in columns.items()}


def _map_count(n_dom: int, n_cod: int, cap) -> int:
    m = n_cod ** n_dom  # one empty map when the domain is empty
    return m if cap is None else min(m, cap)


def _count_instances(enc, spaces, scope: Scope) -> int:
    sizes = Counter(s.n for s in spaces)
    if isinstance(enc, _SpaceClaim):
        return len(spaces)
    if isinstance(enc, _PairClaim):
        return sum(ca * cb * _map_count(a, b, scope.map_cap)
                   for a, ca in sizes.items() for b, cb in sizes.items())
    return sum(ca * cb * cc
               * _map_count(a, b, scope.map_cap) * _map_count(b, c, scope.map_cap)
               for a, ca in sizes.items()
               for b, cb in sizes.items()
               for c, cc in sizes.items())


def _witness(claim_id: str, spaces, positions, ranks) -> Witness:
    """Rebuild one failing binding and re-check it with the direct predicates."""
    bound = tuple(spaces[i] for i in positions)
    bound_maps = tuple(SpaceMap(a, b, assignment_from_index(rank, a.n, b.n))
                       for a, b, rank in zip(bound, bound[1:], ranks))
    hyps, concl, holds = evaluate_instance(claim_id, bound, bound_maps)
    if holds:
        raise InternalCheckError(
            f"sweep marked a passing instance of {claim_id} as failing")
    return Witness(claim=claim_id, spaces=bound, maps=bound_maps,
                   hypotheses=hyps, conclusion=concl)


def _map_sides(prop: str, as_f: bool, dom: int, cod: int, ranks, tables: dict) -> list:
    """Side of each map dom -> cod of the given ranks in the composition
    claims, as f or as g.  ``dom`` and ``cod`` are stream positions in the
    sweep's ``tables``.

    An alpha_m-continuous map pulls every closed set of its codomain back to
    an alpha_m-closed set; an alpha_m-closed map pushes every closed set of
    its domain forward to an alpha_m-closed set.  Either way a map carries
    subsets from a source space to a target space, and g after f (X -> Y ->
    Z) fails iff some closed set of the first source, carried through both
    maps, is not alpha_m-closed in the last target.  That is iff A_f & B_g,
    two bitsets over the subsets of Y:

    - alpha_m-continuity: A_f = {D <= Y : f^-1(D) not alpha_m-closed in X}
      and B_g = {g^-1(C) : C closed in Z};
    - alpha_m-closed maps: A_f = {f(S) : S closed in X} and
      B_g = {B <= Y : g(B) not alpha_m-closed in Z}.

    Both identities are exact, and neither depends on T_alpha_m(Y).
    """
    pull = prop == "alpha_m_continuous"
    carry = _kernels.subset_tables(tables["n"][dom], tables["n"][cod])
    table, src, dst = (carry.preimages, cod, dom) if pull else (carry.images, dom, cod)
    if as_f == pull:
        # the subsets of src whose carried set is not alpha_m-closed in dst
        family = tables["alpha_m_closed"][dst]
        return [sum(1 << s for s, t in enumerate(table[r]) if not family >> t & 1)
                for r in ranks]
    # the carried closed sets of src
    closed = points_of(tables["closed"][src])
    sides = []
    for r in ranks:
        row, side = table[r], 0
        for c in closed:
            side |= 1 << row[c]
        sides.append(side)
    return sides


class _FailingG(dict):
    """A_f -> how many maps g out of one middle space Y, to every Z, make g
    after f fail.  Each A_f is summed from the B_g counts on first use."""

    def __init__(self, g_sides: Counter):
        super().__init__()
        self.g_sides = g_sides

    def __missing__(self, a):
        self[a] = n = sum(c for b, c in self.g_sides.items() if a & b)
        return n


@lru_cache(maxsize=1)
def _middle_memo(map_cap, *columns) -> dict:
    """(property, middle position) -> _FailingG, for the map cap and the
    table columns (point count and ``_MAP_SIDE``) of the last composition
    sweep, which are all that its counts read.  Each worker process builds
    it once and every chunk it runs reads it."""
    return {}


def _failing_pairs(f_ranks, f_sides, g_ranks, g_sides):
    """(f rank, g rank) of each failing composite, f-outer and g-inner."""
    by_side = {}
    for rf, a in zip(f_ranks, f_sides):
        bad = by_side.get(a)
        if bad is None:
            bad = by_side[a] = [rg for rg, b in zip(g_ranks, g_sides) if a & b]
        for rg in bad:
            yield rf, rg


def _sweep_chunk(encs, scope: Scope, tables: dict, start: int, stop: int):
    """Failure count and first failing bindings of each encoding in ``encs``
    over outer-space positions [start, stop).

    A binding is (space positions, map ranks).  Every space is read through
    its position in ``tables``, the sweep's :func:`_space_tables`.  Each
    outer space X fetches its row of pair masks (X to every space) once,
    and every encoding is folded from that row while it is at hand.

    A composition claim never tests an (f, g) pair for its count.  Each f
    from X to a T_alpha_m middle Y is reduced to its side A_f, and each g
    out of Y to its side B_g (see :func:`_map_sides`).  The failures of
    (X, Y) are the sum over f of the number of g, over every Z, with
    A_f & B_g.  The B_g counts of each Y are built from Y's row once per
    process.  Only an (X, Y) with failures, and room for witnesses, is
    scanned pair by pair: Z, then f rank, then g rank.
    """
    limit, cap = scope.witness_limit, scope.map_cap
    sizes, t_alpha_m = tables["n"], tables["T_alpha_m"]
    failures = [0] * len(encs)
    found = [[] for _ in encs]
    singles = [(k, enc) for k, enc in enumerate(encs) if isinstance(enc, _SpaceClaim)]
    doubles = [(k, enc) for k, enc in enumerate(encs) if isinstance(enc, _PairClaim)]
    triples = [(k, enc.map_prop) for k, enc in enumerate(encs)
               if isinstance(enc, _TripleClaim)]
    middles = [iy for iy, t in enumerate(t_alpha_m) if t] if triples else []
    memo = _middle_memo(cap, *(tables[name] for name in ("n",) + _MAP_SIDE)) \
        if triples else None
    kept = {}   # rows of the middle spaces

    def row(i):
        if i in kept:
            return kept[i]
        masks = [_pair_masks(tables, i, iz) for iz in range(len(sizes))]
        if triples and t_alpha_m[i]:
            kept[i] = masks
        return masks

    def room(k):
        return None if limit is None else max(0, limit - len(found[k]))

    def allowed(i, j):
        return (1 << _map_count(sizes[i], sizes[j], cap)) - 1

    def g_sides(prop, iy, iz):
        # ranks and sides of the maps g: Y -> Z that satisfy prop
        ranks = points_of(row(iy)[iz][_PROP_IDX[prop]] & allowed(iy, iz))
        return ranks, _map_sides(prop, False, iy, iz, ranks, tables)

    def failing_g(prop, iy):
        hits = memo.get((prop, iy))
        if hits is None:
            counts = Counter()
            for iz in range(len(sizes)):
                counts.update(g_sides(prop, iy, iz)[1])
            hits = memo[prop, iy] = _FailingG(counts)
        return hits

    def failing_triples(prop, ix, iy, f_ranks, f_sides):
        for iz in range(len(sizes)):
            for pair in _failing_pairs(f_ranks, f_sides, *g_sides(prop, iy, iz)):
                yield (ix, iy, iz), pair

    for ix in range(start, stop):
        for k, enc in singles:
            if tables[enc.hyp][ix] and not tables[enc.concl][ix]:
                failures[k] += 1
                found[k].extend([((ix,), ())][:room(k)])
        pairs = [(k, enc) for k, enc in doubles if t_alpha_m[ix] or not enc.space_hyp_x]
        if not pairs and not triples:
            continue
        x_row = row(ix)

        for iy, masks in enumerate(x_row):
            f_allowed = allowed(ix, iy)
            for k, enc in pairs:
                hyp_bits = f_allowed
                for name in enc.map_hyp:
                    hyp_bits &= masks[_PROP_IDX[name]]
                if enc.concl_map:
                    fail_bits = hyp_bits & ~masks[_PROP_IDX[enc.concl_map]]
                else:
                    fail_bits = 0 if t_alpha_m[iy] else hyp_bits
                failures[k] += fail_bits.bit_count()
                want = room(k)
                if want != 0:
                    found[k].extend(((ix, iy), (rank,))
                                    for rank in points_of(fail_bits)[:want])

        # f: X -> Y and g: Y -> Z with Y T_alpha_m
        for iy in middles:
            for k, prop in triples:
                f_ranks = points_of(x_row[iy][_PROP_IDX[prop]] & allowed(ix, iy))
                if not f_ranks:
                    continue
                f_sides = _map_sides(prop, True, ix, iy, f_ranks, tables)
                count = sum(map(failing_g(prop, iy).__getitem__, f_sides))
                failures[k] += count
                if count and room(k) != 0:
                    found[k].extend(islice(
                        failing_triples(prop, ix, iy, f_ranks, f_sides), room(k)))
    return failures, found


def _chunks(total: int, jobs: int):
    parts = max(1, min(total, jobs * 4))
    step = (total + parts - 1) // parts
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_sweep(encs, scope: Scope, jobs: int, pool):
    """(failures, witness bindings) of each encoding in ``encs`` from one
    walk of the scope, split over the pool's workers."""
    spaces = spaces_up_to(scope.max_points)
    tables = _space_tables(spaces)
    parts = _chunks(len(spaces), jobs) if pool is not None else [(0, len(spaces))]
    args = [(encs, scope, tables, lo, hi) for lo, hi in parts]
    results = (pool.map(_sweep_chunk, *zip(*args)) if len(parts) > 1
               else [_sweep_chunk(*args[0])])
    failures = [0] * len(encs)
    found = [[] for _ in encs]
    for part_failures, part_found in results:
        for k in range(len(encs)):
            failures[k] += part_failures[k]
            found[k].extend(part_found[k])
    return [(f, bindings[:scope.witness_limit]) for f, bindings in zip(failures, found)]


def default_scope(claim_id: str) -> Scope:
    """n <= 4 for the space-quantified claims, n <= 3 for map-quantified ones."""
    enc = _ENCODINGS[_encoding_key(claim_id)]
    return Scope(4) if isinstance(enc, _SpaceClaim) else Scope(3)


def claim_statement(claim_id: str) -> str:
    return _STATEMENTS[_encoding_key(claim_id)]


def _verify_claims(claim_scopes: dict, jobs: int) -> dict:
    """Reports keyed by claim id for ``{claim id: scope}``.

    Claims of one scope are answered by one sweep, and report its wall
    time.  Ids restating one encoding are folded once and reported
    separately.  With jobs > 1 every sweep shares one process pool.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise BadParams(f"jobs {jobs!r} must be a positive integer")
    groups = {}     # scope -> {encoding key: [claim ids]}
    for claim_id, scope in claim_scopes.items():
        key = _encoding_key(claim_id)
        if not isinstance(scope, Scope):
            raise BadParams(f"scope {scope!r} must be a Scope")
        groups.setdefault(scope, {}).setdefault(key, []).append(claim_id)
    reports = {}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for scope, by_encoding in groups.items():
            started = time.perf_counter()
            results = _run_sweep([_ENCODINGS[key] for key in by_encoding],
                                 scope, jobs, pool)
            wall = time.perf_counter() - started
            spaces = spaces_up_to(scope.max_points)
            for (key, claim_ids), (failures, bindings) in zip(by_encoding.items(),
                                                              results):
                instances = _count_instances(_ENCODINGS[key], spaces, scope)
                for claim_id in claim_ids:
                    witnesses = tuple(_witness(claim_id, spaces, *b) for b in bindings)
                    if bool(failures) != bool(witnesses):
                        raise InternalCheckError(
                            f"claim {claim_id}: {failures} failures but "
                            f"{len(witnesses)} witnesses")
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
    through the serialized text form."""
    for w in report.witnesses:
        rec = json.loads(json.dumps(w.to_record()))
        back = witness_from_record(rec)
        if check_instance(back.claim, back.spaces, back.maps):
            return False
    return True


def reports_to_json(reports, indent=None) -> str:
    """Deterministic structured output for a batch of reports."""
    payload = {"note": SCOPE_NOTE,
               "reports": [r.to_record() for r in reports]}
    return json.dumps(payload, indent=indent, separators=(",", ":"))

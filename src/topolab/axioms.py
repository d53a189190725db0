"""Separation axioms, each decided by searching for a witness.

T0/T1 use the minimal-neighbourhood characterizations (m(x) = m(y) iff no
open separates x from y; m(x) = {x} iff opens separate x from everything),
which agree with the pointwise definitions on finite spaces.  T_half asks
that every g-closed set be closed, T_alpha_m that every alpha_m-closed set
be closed, and the singleton dichotomy that every singleton be alpha-closed
or clopen.  For T_half and T_alpha_m the subsets are walked in canonical
order and the walk stops at the first class member that is not closed;
T_half skips the walk when every singleton is open or closed, which is
Dunham's characterization of T_half.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classes
from .space import FiniteSpace, PointSet, canonical_subsets, points_of

AXIOM_IDS = ("T0", "T1", "T_half", "T_alpha_m", "singleton_dichotomy")


def is_T0(space: FiniteSpace) -> bool:
    """Some open contains exactly one of each pair of distinct points."""
    return _t0_witness(space) is None


def is_T1(space: FiniteSpace) -> bool:
    """Each of two distinct points has an open avoiding the other."""
    return _t1_witness(space) is None


def is_T_half(space: FiniteSpace) -> bool:
    """Every g-closed set is closed."""
    return _t_half_witness(space) is None


def is_T_alpha_m(space: FiniteSpace) -> bool:
    """Every alpha_m-closed set is closed."""
    return _family_gap_witness(space, classes.is_alpha_m_closed) is None


def singleton_dichotomy(space: FiniteSpace) -> bool:
    """Every singleton is alpha-closed or clopen."""
    return _dichotomy_witness(space) is None


def _t0_witness(space: FiniteSpace):
    minn = space.min_nbhd
    for x in range(space.n):
        for y in range(x + 1, space.n):
            if minn[x] == minn[y]:
                return (1 << x) | (1 << y)
    return None


def _t1_witness(space: FiniteSpace):
    minn = space.min_nbhd
    for x in range(space.n):
        for y in range(space.n):
            if y != x and minn[x] >> y & 1:
                return (1 << x) | (1 << y)
    return None


def _family_gap_witness(space: FiniteSpace, member):
    # first member of the class that is not closed, canonical order; every
    # closed set is g-closed and alpha_m-closed, so None means equal families
    for a in canonical_subsets(space.n):
        if not space.is_closed(a) and member(space, a):
            return a
    return None


def _t_half_witness(space: FiniteSpace):
    """First g-closed set that is not closed, in canonical order, or None.

    Dunham 1977 (*T_{1/2}-spaces*, Kyungpook Math. J. 17): a space is T_half
    iff every singleton is open or closed.  So the 2^n walk runs only when
    some singleton is neither, and then it finds a witness.  T_alpha_m
    keeps its walk, as its pointwise test is still a conjecture.
    """
    if all(space.is_open(1 << x) or space.is_closed(1 << x) for x in range(space.n)):
        return None
    return _family_gap_witness(space, classes.is_g_closed)


def _dichotomy_witness(space: FiniteSpace):
    for x in range(space.n):
        s = 1 << x
        if not (classes.is_alpha_closed(space, s) or space.is_clopen(s)):
            return s
    return None


@dataclass(frozen=True)
class AxiomReport:
    """Axiom flags plus one offending witness subset per failed axiom."""

    T0: bool
    T1: bool
    T_half: bool
    T_alpha_m: bool
    singleton_dichotomy: bool
    witnesses: tuple  # ordered (axiom_id, subset-bitmask) pairs

    def to_record(self) -> dict:
        rec = {name: getattr(self, name) for name in AXIOM_IDS}
        rec["witnesses"] = {axiom: points_of(mask) for axiom, mask in self.witnesses}
        return rec


def axiom_report(space: FiniteSpace) -> AxiomReport:
    """Evaluate all five axioms with diagnostics for the failures.

    Each axiom is defined by its witness finder: it holds iff no witness."""
    finders = {
        "T0": _t0_witness,
        "T1": _t1_witness,
        "T_half": _t_half_witness,
        "T_alpha_m": lambda s: _family_gap_witness(s, classes.is_alpha_m_closed),
        "singleton_dichotomy": _dichotomy_witness,
    }
    found = {axiom: finders[axiom](space) for axiom in AXIOM_IDS}
    return AxiomReport(
        witnesses=tuple((axiom, mask) for axiom, mask in found.items() if mask is not None),
        **{axiom: mask is None for axiom, mask in found.items()})

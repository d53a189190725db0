"""Separation axioms, with one offending witness for each that fails.

T0/T1 use the minimal-neighbourhood characterizations (m(x) = m(y) iff no
open separates x from y; m(x) = {x} iff opens separate x from everything),
which agree with the pointwise definitions on finite spaces.  T_half asks
that every g-closed set be closed, T_alpha_m that every alpha_m-closed set
be closed, and the singleton dichotomy that every singleton be alpha-closed
or clopen.

T_half and T_alpha_m are each decided by a test on the singletons, and a
failing space's witness is the first class member that is not closed, in
canonical order; only that search walks the subsets.  T_half holds iff
every singleton is open or closed (Dunham 1977, *T_{1/2}-spaces*, Kyungpook
Math. J. 17).  T_alpha_m holds iff every singleton is closed, or is open
with an open closure.

Proof, with M the maximal points and A alpha_m-closed iff
int(cl(A)) - A <= M (see :mod:`topolab.classes`).  Suppose T_alpha_m.  For
x outside M, int(cl({x})) is empty: a w in it has U_w <= cl({x}), so x is
in U_z, and U_x <= U_z, for every z in U_w.  As x is in U_w, U_x <= U_w,
so U_z == U_x for every z in U_x, putting x in M.  So {x} is
alpha_m-closed, hence closed.  For x in M, X - {x} is alpha_m-closed,
hence closed, so {x} is open and x is in int(cl({x})).  Then
{x} | (int(cl({x})) - M) is alpha_m-closed with closure cl({x}), hence
equals cl({x}), and so cl({x}) <= int(cl({x})) is open.  Conversely, let
every singleton pass the test, and A be alpha_m-closed.  Take y in
cl(A) - A, and a in U_y & A.  {a} is not closed, as y is in cl({a}), so
{a} is open and cl({a}) is open.  So U_y <= cl({a}) <= cl(A), which puts
y in int(cl(A)); and U_a == {a} differs from U_y, so y is not in M.  That
contradicts A being alpha_m-closed, so A is closed.
"""

from __future__ import annotations

from . import classes
from .space import (FiniteSpace, PointSet, _Frozen, _interior, canonical_subsets, check_space,
                    points_of)

AXIOM_IDS = ("T0", "T1", "T_half", "T_alpha_m", "singleton_dichotomy")


def is_T0(space: FiniteSpace) -> bool:
    """Some open contains exactly one of each pair of distinct points."""
    return _t0_witness(check_space(space)) is None


def is_T1(space: FiniteSpace) -> bool:
    """Each of two distinct points has an open avoiding the other."""
    return _t1_witness(check_space(space)) is None


def is_T_half(space: FiniteSpace) -> bool:
    """Every g-closed set is closed."""
    return _all_singletons(check_space(space), _open_or_closed)


def is_T_alpha_m(space: FiniteSpace) -> bool:
    """Every alpha_m-closed set is closed."""
    return _all_singletons(check_space(space), _closed_or_open_with_open_closure)


def singleton_dichotomy(space: FiniteSpace) -> bool:
    """Every singleton is alpha-closed or clopen."""
    return _dichotomy_witness(check_space(space)) is None


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


def _open_or_closed(space: FiniteSpace, s: PointSet) -> bool:
    return space.is_open(s) or space.is_closed(s)


def _closed_or_open_with_open_closure(space: FiniteSpace, s: PointSet) -> bool:
    return space.is_closed(s) or (space.is_open(s) and space.is_open(space.closure(s)))


def _all_singletons(space: FiniteSpace, test) -> bool:
    return all(test(space, 1 << x) for x in range(space.n))


def _gap_witness(space: FiniteSpace, singleton_test, member):
    """First member of the class that is not closed, in canonical order, or
    None.  ``singleton_test`` holds on every singleton iff there is none
    (see the module docstring), so the subsets are walked only when it fails.
    ``member`` takes the space and a subset, and checks neither."""
    if _all_singletons(space, singleton_test):
        return None
    minn, full = space.min_nbhd, space.full
    for a in canonical_subsets(space.n):
        c = full ^ a
        if _interior(minn, c) != c and member(space, a):
            return a
    return None


def _t_half_witness(space: FiniteSpace):
    return _gap_witness(space, _open_or_closed, classes._g_closed)


def _t_alpha_m_witness(space: FiniteSpace):
    return _gap_witness(space, _closed_or_open_with_open_closure,
                        classes._alpha_m_closed)


def _dichotomy_witness(space: FiniteSpace):
    for x in range(space.n):
        s = 1 << x
        if not (classes.is_alpha_closed(space, s) or space.is_clopen(s)):
            return s
    return None


class AxiomReport(_Frozen):
    """Axiom flags plus one offending witness subset per failed axiom."""

    _fields = (*AXIOM_IDS, "witnesses")

    def __init__(self, T0: bool, T1: bool, T_half: bool, T_alpha_m: bool,
                 singleton_dichotomy: bool, witnesses: tuple) -> None:
        # witnesses: ordered (axiom_id, subset-bitmask) pairs
        self._set(T0, T1, T_half, T_alpha_m, singleton_dichotomy, witnesses)

    def to_record(self) -> dict:
        rec = {name: getattr(self, name) for name in AXIOM_IDS}
        rec["witnesses"] = {axiom: points_of(mask) for axiom, mask in self.witnesses}
        return rec


def axiom_report(space: FiniteSpace) -> AxiomReport:
    """Evaluate all five axioms with diagnostics for the failures.

    Each axiom is defined by its witness finder: it holds iff no witness."""
    check_space(space)
    finders = {
        "T0": _t0_witness,
        "T1": _t1_witness,
        "T_half": _t_half_witness,
        "T_alpha_m": _t_alpha_m_witness,
        "singleton_dichotomy": _dichotomy_witness,
    }
    found = {axiom: finders[axiom](space) for axiom in AXIOM_IDS}
    return AxiomReport(
        witnesses=tuple((axiom, mask) for axiom, mask in found.items() if mask is not None),
        **{axiom: mask is None for axiom, mask in found.items()})

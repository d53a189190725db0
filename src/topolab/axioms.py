"""Separation axioms, with one offending witness for each that fails.

T0/T1 use the minimal-neighbourhood characterizations (m(x) = m(y) iff no
open separates x from y; m(x) = {x} iff opens separate x from everything),
which agree with the pointwise definitions on finite spaces.  T_half asks
that every g-closed set be closed, T_alpha_m that every alpha_m-closed set
be closed, and the singleton dichotomy that every singleton be alpha-closed
or clopen.

The finders read the table, the mask M of maximal points, and cl({x})
for every x, the transpose of the table, built once per query.  T_half and
T_alpha_m are each decided by a test on the singletons, and a failing
space's witness is the first class member that is not closed, in canonical
order; only that search walks the subsets, taking each one's closure once,
as a union of cl({x})'s.  It can visit all but the full set (2^n - 1
subsets; see the tests for such spaces).  T_half holds iff
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

from .classes import _union
from .space import FiniteSpace, _Frozen, _interior, canonical_subsets, check_space, points_of

AXIOM_IDS = ("T0", "T1", "T_half", "T_alpha_m", "singleton_dichotomy")


def is_T0(space: FiniteSpace) -> bool:
    """Some open contains exactly one of each pair of distinct points."""
    return _t0_witness(check_space(space)) is None


def is_T1(space: FiniteSpace) -> bool:
    """Each of two distinct points has an open avoiding the other."""
    return _t1_witness(check_space(space)) is None


def is_T_half(space: FiniteSpace) -> bool:
    """Every g-closed set is closed."""
    return _t_half_witness(check_space(space), _closures(space.min_nbhd)) is None


def is_T_alpha_m(space: FiniteSpace) -> bool:
    """Every alpha_m-closed set is closed."""
    return _t_alpha_m_witness(check_space(space), _closures(space.min_nbhd)) is None


def singleton_dichotomy(space: FiniteSpace) -> bool:
    """Every singleton is alpha-closed or clopen."""
    return _dichotomy_witness(check_space(space), _closures(space.min_nbhd)) is None


def _closures(minn) -> list:
    """cl({x}) for every x, the points z with x in U_z: the transpose of
    the table, in O(sum of |U_x|)."""
    cl = [0] * len(minn)
    for z, u in enumerate(minn):
        bz = 1 << z
        t = u
        while t:
            b = t & -t
            t ^= b
            cl[b.bit_length() - 1] |= bz
    return cl


def _t0_witness(space: FiniteSpace):
    minn = space.min_nbhd
    for x in range(space.n):
        for y in range(x + 1, space.n):
            if minn[x] == minn[y]:
                return (1 << x) | (1 << y)
    return None


def _t1_witness(space: FiniteSpace):
    # the first U_x holding another point, with the lowest such point
    for x, u in enumerate(space.min_nbhd):
        other = u & ~(1 << x)
        if other:
            return (1 << x) | (other & -other)
    return None


def _first_not_closed(n: int, cl, member):
    """The first subset A, in canonical order, that is not closed and has
    ``member(A, cl(A))``, or None."""
    for a in canonical_subsets(n):
        c = _union(cl, a)
        if c != a and member(a, c):
            return a
    return None


def _t_half_witness(space: FiniteSpace, cl):
    # g-closed: cl(A) <= ker(A), the union of the U_x over A
    minn = space.min_nbhd
    if all(minn[x] == 1 << x or cl[x] == 1 << x for x in range(space.n)):
        return None
    return _first_not_closed(space.n, cl, lambda a, c: c & _union(minn, a) == c)


def _t_alpha_m_witness(space: FiniteSpace, cl):
    # alpha_m-closed: int(cl(A)) - A <= M
    minn, maximal = space.min_nbhd, space.maximal
    if all(cl[x] == 1 << x or (minn[x] == 1 << x and _interior(minn, cl[x]) == cl[x])
           for x in range(space.n)):
        return None

    def member(a, c):
        i = _interior(minn, c)
        return i & (a | maximal) == i
    return _first_not_closed(space.n, cl, member)


def _dichotomy_witness(space: FiniteSpace, cl):
    """{x} is alpha-closed iff cl(int(cl({x}))) <= {x}.  Outside M,
    int(cl({x})) is empty; in M, U_x <= cl({x}) puts x in it, so {x} passes
    iff cl({x}) == {x}, which a clopen {x} also has."""
    maximal = space.maximal
    for x in range(space.n):
        if maximal >> x & 1 and cl[x] != 1 << x:
            return 1 << x
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
    cl = _closures(check_space(space).min_nbhd)
    found = {
        "T0": _t0_witness(space),
        "T1": _t1_witness(space),
        "T_half": _t_half_witness(space, cl),
        "T_alpha_m": _t_alpha_m_witness(space, cl),
        "singleton_dichotomy": _dichotomy_witness(space, cl),
    }
    return AxiomReport(
        witnesses=tuple((axiom, mask) for axiom, mask in found.items() if mask is not None),
        **{axiom: mask is None for axiom, mask in found.items()})

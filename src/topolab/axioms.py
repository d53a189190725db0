"""Separation axioms, with one offending witness for each that fails.

T0/T1 use the minimal-neighbourhood characterizations (m(x) = m(y) iff no
open separates x from y; m(x) = {x} iff opens separate x from everything),
which agree with the pointwise definitions on finite spaces.  T_half asks
that every g-closed set be closed, T_alpha_m that every alpha_m-closed set
be closed, and the singleton dichotomy that every singleton be alpha-closed
or clopen.

The finders read the table, the mask M of maximal points, and cl({x})
for every x, the transpose of the table, built once per query.  A failing
space's T_half or T_alpha_m witness is the first class member that is not
closed, in canonical order (cardinality, then value).  Both are built in
O(n^2) from the rules below, without walking the subsets; each rule also
decides its axiom, which holds iff it yields no witness.

T_half.  A is g-closed iff cl(A) <= ker(A), the union of the U_a over a in
A.  The witness is {x} for the least x with cl({x}) <= U_x and
cl({x}) != {x}, if there is one.  Otherwise, with C the closed points
(cl({x}) == {x}), it is the least by (cardinality, value) of the sets
A_y = {y} | (cl({y}) & C) with A_y != cl({y}).

Proof.  {x} is g-closed iff cl({x}) <= U_x, which gives the first case.
Call x top if cl({x}) <= U_x: each z in cl({x}) then has
U_x <= U_z <= U_x, so cl({x}) is the block {z : U_z == U_x} of x.  A is
g-closed iff it meets the block of every top point in cl(A).  If: for y in
cl(A), take z in cl({y}), and so in cl(A), with cl({z}) minimal; each w in
cl({z}) has cl({w}) == cl({z}), so w is in U_z and z is top.  A meets
cl({z}) at some a, so y is in U_z <= U_a.  Only if: a top z in cl(A) is in
U_a for some a in A, so a is in cl({z}), z's block.  With no singleton
witness, every top point is alone in its block, so the top points are C,
and A is g-closed iff cl(A) & C <= A.  Each A_y has closure cl({y}), which
meets C inside A_y, so A_y is g-closed, and a witness iff
A_y != cl({y}).  A witness A is not closed, so some y in A has cl({y}) not
inside A; as cl({y}) & C <= A, A holds A_y, and A_y != cl({y}).  So the
first witness holds a witness A_y, no larger than itself, and equals it.

T_alpha_m.  The minimal nonempty open sets are the blocks U_m for m in M.
For such a block B, let R(B) be the y outside M with U_y & M == B (B is
the only one inside U_y), and D(B) the y outside M whose U_y meets B.  The
witness is {a} for the least a with cl({a}) != {a} and either a outside M
or R(U_a) empty, if there is one.  Otherwise it is the least by
(cardinality, value) of the sets {b} | R(B), for b the least point of a
block B with |B| >= 2 or D(B) != R(B).

Proof.  A is alpha_m-closed iff each y outside A | M has a block inside
U_y that misses A (see :mod:`topolab.classes`).  A point a outside M is in
no block, so {a} is alpha_m-closed.  For a in M, {a} meets only the block
U_a, so it is alpha_m-closed iff R(U_a) is empty.  With no singleton
witness, every point outside M is closed.  For a block B with least point
b, cl({b}) = B | D(B): z in M has b in U_z iff U_z == B, and z outside M
iff U_z meets B, as U_z then holds the block.  A_B = {b} | R(B) meets only
the block B, and each y outside A_B | M has another block inside U_y, so
A_B is alpha_m-closed.  Its closure is cl({b}) | R(B) = B | D(B), so it is
a witness iff |B| >= 2 or D(B) != R(B).  A witness A is not closed, and
its points outside M are, so some a in A & M has cl({a}) not inside A.
Let B = U_a.  Each y in R(B) is in A, or else the one block inside U_y,
B, meets A at a.  So A holds {a} | R(B), and cl({a}) == B | D(B) is not
inside it, so A_B is a witness (B == {a} gives a == b).  It is smaller
than A, or it is {b} | R(B) beside A == {a} | R(B) with b <= a, so the
first witness is some A_B.

Both axioms also have tests on the singletons.  T_half holds iff every
singleton is open or closed (Dunham 1977, *T_{1/2}-spaces*, Kyungpook
Math. J. 17), and T_alpha_m iff every singleton is closed, or is open with
an open closure.

Proof of the second, with A alpha_m-closed iff
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

from .space import FiniteSpace, _Frozen, check_space, points_of

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


def _first(sets):
    """The least of ``sets`` by (cardinality, value), or None."""
    return min(sets, key=lambda a: (a.bit_count(), a), default=None)


def _t_half_witness(space: FiniteSpace, cl):
    # the rule and its proof are in the module docstring
    minn, n = space.min_nbhd, space.n
    for x in range(n):
        if cl[x] != 1 << x and cl[x] & minn[x] == cl[x]:
            return 1 << x
    closed = sum(1 << x for x in range(n) if cl[x] == 1 << x)
    spans = [1 << y | (cl[y] & closed) for y in range(n)]     # the sets A_y
    return _first(a for a, c in zip(spans, cl) if a != c)


def _t_alpha_m_witness(space: FiniteSpace, cl):
    # the rule and its proof are in the module docstring
    minn, maximal, n = space.min_nbhd, space.maximal, space.n
    only = {}                   # R(B) for each block B with one
    for y in range(n):
        if not maximal >> y & 1:
            b = minn[y] & maximal
            only[b] = only.get(b, 0) | 1 << y
    for a in range(n):
        if cl[a] != 1 << a and (not maximal >> a & 1 or minn[a] not in only):
            return 1 << a
    # {b} | R(B) for each b in M and its block B = U_b; it is closed iff it
    # equals cl({b}) = B | D(B), and the least b of a block gives the least
    spans = {b: 1 << b | only.get(minn[b], 0) for b in points_of(maximal)}
    return _first(a for b, a in spans.items() if a != cl[b])


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

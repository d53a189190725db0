"""Every exported predicate, the subset and witness helpers, identity_map,
generate and reports_to_json answer an argument of the wrong type with a
TopolabError, never a raw Python error."""

from functools import partial

import pytest

import topolab as T
from topolab import verifier
from topolab.errors import TopolabError

SIERP = T.sierpinski()
IDS = T.identity_map(SIERP)


def _report(scope=verifier.Scope(1), witnesses=()):
    return verifier.TheoremReport("T3_5_fwd", "st", scope, 0, 0, "holds-on-scope",
                                  witnesses, 0.0)


# TheoremReports whose fields do not serialize
BAD_REPORTS = ([_report(witnesses=5)], [_report(scope=None)],
               [_report(witnesses=(verifier.Witness("T3_5_fwd", (5,), (), (), ("c", False)),))])

# no space, map, report or point count; each call adds the wrong kind
BAD = (None, 0, True, "ab", [1])

PREDICATES = [name for name in T.__all__ if name.startswith("is_")] + [
    "singleton_dichotomy", "open_preimages_alpha_m_open"]


def _predicate_call(name):
    """The predicate, taking the argument under test, and the values to pass."""
    fn = getattr(T, name)
    if fn.__module__ == "topolab.maps":
        return fn, BAD + (SIERP,)
    if fn.__module__ == "topolab.classes":      # a space and a subset of it
        return partial(fn, a=0), BAD + (IDS,)
    return fn, BAD + (IDS,)


CALLS = {
    **{name: _predicate_call(name) for name in PREDICATES},
    "validate_witness": (T.validate_witness, BAD + (IDS,)),
    "reports_to_json": (verifier.reports_to_json, BAD + ((IDS,),) + BAD_REPORTS),
    "identity_map": (T.identity_map, BAD + (IDS,)),
    "generate": (T.generate, BAD + (SIERP,)),
    "subset_of_points(points)": (lambda points: T.subset_of_points(points, 1),
                                 BAD + (SIERP,)),
    "subset_of_points(n)": (lambda n: T.subset_of_points([0], n), BAD + (SIERP,)),
    # 0 is the empty set
    "points_of": (T.points_of, (None, True, "ab", [1], SIERP)),
}


def test_every_exported_predicate_is_covered():
    assert len(PREDICATES) == 5 + 12 + 10


@pytest.mark.parametrize("name", CALLS)
def test_wrong_argument_types_raise_topolab_errors(name):
    call, values = CALLS[name]
    for bad in values:
        with pytest.raises(TopolabError):
            call(bad)

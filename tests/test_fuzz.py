"""Every callable that topolab exports answers hostile arguments, or raises a
TopolabError, within a time budget.

Each call gets as many positional arguments as its signature takes, drawn
from hostile values (negative and huge ints, bools, floats, lists where
tuples belong, strings, None, tables and records that are no topology's)
and from well-formed spaces, maps, scopes and reports, so that a later
argument is reached too.  A returned iterator is drained for a while,
since generators check their arguments lazily.  The budget is a
``signal.alarm``, which starts no thread or process; a sweep asked for
worker processes gets a serial stand-in for the pool.
"""

import inspect
import signal
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topolab as T
from topolab import verifier
from topolab.errors import TopolabError

BUDGET_S = 5

SIERP = T.sierpinski()
GOOD = (SIERP, T.discrete(2), T.identity_map(SIERP), T.Scope(1),
        T.verify("T3_2_ab", T.Scope(1)), "T3_9b", "discrete", 0, 1, 2, ())

HOSTILE = (
    -1, -2**70, 2**70, 10**9, 17, 3.5, float("nan"), float("inf"), True, False,
    None, "", "ab", "\x00", "[", '{"n": 2, "opens": [[0]]}', '{"n": -1}',
    '{"n": 1e400, "opens": []}', "[[[[[[[[[[[[]]]]]]]]]]]]",
    [0, 1], [SIERP], [[0], [1]], (1, 2, 3), (2, 3), (-1,), (0b10, 0b11),
    {"n": 2, "opens": [[0]]}, {"n": True, "opens": []}, {}, b"\xff", object(),
)

ARGUMENT = st.sampled_from(HOSTILE + GOOD)

# topolab's own callables; the exception types take any arguments, and
# PointSet is int
CALLABLES = sorted(
    name for name, obj in ((name, getattr(T, name)) for name in T.__all__)
    if callable(obj) and obj.__module__.startswith("topolab")
    and not (isinstance(obj, type) and issubclass(obj, Exception)))


def _arity(fn):
    """(fewest, most) positional arguments the callable takes."""
    params = inspect.signature(fn).parameters.values()
    positional = [p for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    least = sum(p.default is p.empty for p in positional)
    extra = 2 if any(p.kind is p.VAR_POSITIONAL for p in params) else 0
    return least, len(positional) + extra


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


class _SerialPool:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, shares):
        return list(map(fn, shares))


@pytest.fixture(autouse=True)
def alarm(monkeypatch):
    monkeypatch.setattr(verifier, "ProcessPoolExecutor", _SerialPool)
    previous = signal.signal(signal.SIGALRM, _over_budget)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_every_exported_callable_is_walked():
    assert len(CALLABLES) >= 70
    assert {"points_of", "verify_all", "FiniteSpace", "generate"} <= set(CALLABLES)


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_arguments_answer_or_raise_topolab_errors(name, data):
    fn = getattr(T, name)
    least, most = _arity(fn)
    args = data.draw(st.lists(ARGUMENT, min_size=least, max_size=most), label="args")
    signal.alarm(BUDGET_S)
    try:
        result = fn(*args)
        if hasattr(result, "__next__"):
            list(islice(result, 100))
    except TopolabError:
        pass
    except _OverBudget:
        pytest.fail(f"{name}{tuple(args)!r} ran past {BUDGET_S} s")
    finally:
        signal.alarm(0)

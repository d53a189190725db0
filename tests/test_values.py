"""The value classes behave as the frozen dataclasses they replaced did.

Each class writes its own ``__init__``.  The parameters and reprs pinned
here are the ones the dataclass forms had.  The hash is the hash of the
tuple of fields, exactly what those forms computed, so set and dict orders
stay the same.  Equality holds only within one class.  Instances pickle,
and assigning or deleting an attribute raises AttributeError.
"""

import inspect
import pickle

import pytest

import topolab as T
from topolab import verifier

SIERP = T.sierpinski()
WITNESS = T.verify("T3_9b", T.Scope(2, witness_limit=1)).witnesses[0]
SPACE_REPR = "FiniteSpace(n=2, opens=[{},{0},{0,1}])"
WITNESS_REPR = (
    "Witness(claim='T3_9b', spaces=(FiniteSpace(n=1, opens=[{},{0}]), "
    "FiniteSpace(n=2, opens=[{},{0,1}])), maps=(SpaceMap(domain=FiniteSpace(n=1, "
    "opens=[{},{0}]), codomain=FiniteSpace(n=2, opens=[{},{0,1}]), assignment=(0,)),), "
    "hypotheses=(('alpha_m_closed_map(f)', True), ('T_alpha_m(X)', True)), "
    "conclusion=('closed_map(f)', False))")
CLASS_FLAGS = dict(zip(T.CLASS_IDS, (True, False) * 7 + (True,)))
MAP_FLAGS = dict.fromkeys(T.MAP_PROPERTY_IDS, True)
REPORT = dict(claim="T3_9b", statement="st", scope=T.Scope(2, 1), instances=5,
              failures=1, outcome="refuted", witnesses=(WITNESS,), wall_time=0.0)

# (class, arguments, arguments differing in one field, parameters, repr)
VALUES = [
    (T.FiniteSpace, dict(n=2, min_nbhd=(1, 3)), dict(n=2, min_nbhd=(3, 3)),
     "(n: 'int', min_nbhd: 'tuple[PointSet, ...]')", SPACE_REPR),
    (T.SpaceMap, dict(domain=SIERP, codomain=SIERP, assignment=(0, 1)),
     dict(domain=SIERP, codomain=SIERP, assignment=(1, 1)),
     "(domain: 'FiniteSpace', codomain: 'FiniteSpace', assignment: 'tuple')",
     f"SpaceMap(domain={SPACE_REPR}, codomain={SPACE_REPR}, assignment=(0, 1))"),
    (T.Scope, dict(max_points=3), dict(max_points=3, witness_limit=None),
     "(max_points: 'int', witness_limit: 'int' = 5)",
     "Scope(max_points=3, witness_limit=5)"),
    (T.Witness, {name: getattr(WITNESS, name) for name in
                 ("claim", "spaces", "maps", "hypotheses", "conclusion")},
     dict(claim="T3_9a", spaces=WITNESS.spaces, maps=WITNESS.maps,
          hypotheses=WITNESS.hypotheses, conclusion=WITNESS.conclusion),
     "(claim: 'str', spaces: 'tuple', maps: 'tuple', hypotheses: 'tuple', "
     "conclusion: 'tuple')", WITNESS_REPR),
    (T.TheoremReport, REPORT, {**REPORT, "wall_time": 1.0},
     "(claim: 'str', statement: 'str', scope: 'Scope', instances: 'int', "
     "failures: 'int', outcome: 'str', witnesses: 'tuple', wall_time: 'float')",
     "TheoremReport(claim='T3_9b', statement='st', scope=Scope(max_points=2, "
     f"witness_limit=1), instances=5, failures=1, outcome='refuted', "
     f"witnesses=({WITNESS_REPR},), wall_time=0.0)"),
    (T.AxiomReport, dict(T0=True, T1=False, T_half=True, T_alpha_m=True,
                         singleton_dichotomy=False,
                         witnesses=(("T1", 3), ("singleton_dichotomy", 1))),
     dict(T0=True, T1=False, T_half=True, T_alpha_m=True, singleton_dichotomy=False,
          witnesses=(("T1", 3),)),
     "(T0: 'bool', T1: 'bool', T_half: 'bool', T_alpha_m: 'bool', "
     "singleton_dichotomy: 'bool', witnesses: 'tuple')",
     "AxiomReport(T0=True, T1=False, T_half=True, T_alpha_m=True, "
     "singleton_dichotomy=False, witnesses=(('T1', 3), ('singleton_dichotomy', 1)))"),
    (T.ClassificationReport, CLASS_FLAGS, {**CLASS_FLAGS, "open": False},
     "(open: 'bool', closed: 'bool', clopen: 'bool', preopen: 'bool', "
     "preclosed: 'bool', semiopen: 'bool', semiclosed: 'bool', alpha_open: 'bool', "
     "alpha_closed: 'bool', beta_open: 'bool', beta_closed: 'bool', "
     "g_closed: 'bool', g_open: 'bool', alpha_m_closed: 'bool', "
     "alpha_m_open: 'bool')",
     "ClassificationReport(open=True, closed=False, clopen=True, preopen=False, "
     "preclosed=True, semiopen=False, semiclosed=True, alpha_open=False, "
     "alpha_closed=True, beta_open=False, beta_closed=True, g_closed=False, "
     "g_open=True, alpha_m_closed=False, alpha_m_open=True)"),
    (T.MapClassification, MAP_FLAGS, {**MAP_FLAGS, "bijective": False},
     "(continuous: 'bool', open_map: 'bool', closed_map: 'bool', "
     "surjective: 'bool', bijective: 'bool', alpha_m_continuous: 'bool', "
     "alpha_m_irresolute: 'bool', alpha_m_closed_map: 'bool', "
     "alpha_m_open_map: 'bool')",
     "MapClassification(continuous=True, open_map=True, closed_map=True, "
     "surjective=True, bijective=True, alpha_m_continuous=True, "
     "alpha_m_irresolute=True, alpha_m_closed_map=True, alpha_m_open_map=True)"),
    (verifier._SpaceClaim, dict(hyp="T_alpha_m", concl="singleton_dichotomy"),
     dict(hyp="singleton_dichotomy", concl="singleton_dichotomy"),
     "(hyp: 'str', concl: 'str')",
     "_SpaceClaim(hyp='T_alpha_m', concl='singleton_dichotomy')"),
    (verifier._PairClaim,
     dict(map_hyp=("surjective", "closed_map", "alpha_m_irresolute"), space_hyp_x=True),
     dict(map_hyp=("surjective", "closed_map", "alpha_m_irresolute")),
     "(map_hyp: 'tuple', space_hyp_x: 'bool' = False, concl_map: 'str' = '')",
     "_PairClaim(map_hyp=('surjective', 'closed_map', 'alpha_m_irresolute'), "
     "space_hyp_x=True, concl_map='')"),
    (verifier._TripleClaim, dict(map_prop="alpha_m_continuous"),
     dict(map_prop="alpha_m_closed_map"), "(map_prop: 'str')",
     "_TripleClaim(map_prop='alpha_m_continuous')"),
]


@pytest.mark.parametrize("cls, args, other, params, text", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_class_keeps_its_dataclass_behaviour(cls, args, other, params, text):
    signature = inspect.signature(cls)
    assert str(signature.replace(return_annotation=signature.empty)) == params
    fields = tuple(signature.parameters)
    value = cls(**args)
    values = tuple(getattr(value, name) for name in fields)
    assert repr(value) == text
    assert value == cls(*values) and hash(value) == hash(cls(*values))
    assert hash(value) == hash(values)
    assert value != cls(**other) and value != values
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and repr(back) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert tuple(getattr(value, name) for name in fields) == values


def test_every_claim_kind_and_export_is_covered():
    covered = {v[0] for v in VALUES}
    assert {type(enc) for enc in verifier._ENCODINGS.values()} <= covered
    exported = {obj for obj in (getattr(T, name) for name in T.__all__)
                if isinstance(obj, type)
                and not issubclass(obj, Exception) and obj is not int}
    assert exported <= covered

import pytest

from qcrb.blocks import BlockDecomposition, BlockView
from qcrb.conditions import ConditionReport, Verdict, WCandidate
from qcrb.config import Tolerances
from qcrb.estimate import SimResult
from qcrb.linalg import HermEigen
from qcrb.model import StateBundle
from qcrb.povm import EffectCheck, OptimalityReport, SaturationReport
from qcrb.sld import Qfim, SldSet

RECORDS = [BlockDecomposition, BlockView, Verdict, WCandidate, ConditionReport, Tolerances,
           SimResult, HermEigen, StateBundle, EffectCheck, OptimalityReport, SaturationReport,
           SldSet, Qfim]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(record):
    original = record(*range(len(record._fields)))
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(original, first, -1)
    changed = original._replace(**{first: -1})
    assert type(changed) is record
    assert getattr(changed, first) == -1
    assert getattr(original, first) == 0
    assert tuple(changed)[1:] == tuple(original)[1:]

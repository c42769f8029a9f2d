import json
from pathlib import Path

import pytest

import qcrb
from qcrb.blocks import BlockDecomposition, BlockView
from qcrb.conditions import ConditionReport, JointFrame, Verdict, WCandidate
from qcrb.config import Tolerances
from qcrb.estimate import SimConfig, SimResult
from qcrb.linalg import HermEigen
from qcrb.model import StateBundle, StateModel
from qcrb.povm import EffectCheck, OptimalityReport, Povm, SaturationReport
from qcrb.sld import Qfim, SldSet

RECORDS = [BlockDecomposition, BlockView, Verdict, WCandidate, ConditionReport, JointFrame,
           Tolerances, SimConfig, SimResult, HermEigen, StateModel, StateBundle, Povm,
           EffectCheck, OptimalityReport, SaturationReport, SldSet, Qfim]


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


SCHEMA = json.loads(
    (Path(qcrb.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)
_SECTIONS = SCHEMA["properties"]
REPORTED = [
    (Verdict, SCHEMA["definitions"]["verdict"]),
    (EffectCheck, SCHEMA["definitions"]["effectCheck"]),
    (ConditionReport, _SECTIONS["conditions"]),
    (WCandidate, _SECTIONS["conditions"]["properties"]["c4"]),
    (OptimalityReport, _SECTIONS["optimality"]),
    (SaturationReport, _SECTIONS["saturation"]),
    (Qfim, _SECTIONS["qfim"]),
    (SimResult, _SECTIONS["simulation"]),
]


@pytest.mark.parametrize("record, section", REPORTED, ids=[r.__name__ for r, _ in REPORTED])
def test_reported_record_fields_are_its_schema_section(record, section):
    # the report writes a record's fields in order, a trailing "_" dropped
    assert [name.removesuffix("_") for name in record._fields] == list(section["properties"])

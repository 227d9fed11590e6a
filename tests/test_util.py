import importlib
import json
import math
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rweval
from rweval import util
from rweval.dtree import DecisionTreeModel, Internal, Leaf, Prediction, Task
from rweval.elf import ElfSummary, ElfType, SectionEntry
from rweval.errors import SchemaError
from rweval.features import FeatureVector, Label
from rweval.harness import ManifestEntry, RunRecord, ToolAdapter
from rweval.report import (Cell, Cohort, ComparativeTable, MapTable, SectionSizeTable,
                           SuccessTable)
from rweval.scope import ScopeReport
from rweval.training import Accuracy, FeatureMatrix, MatrixRow
from rweval.util import fmt_pct, json_text, replace
from rweval.variant import TriState, VariantConfig

_STRINGS = st.text() | st.sampled_from(["", "\n", ",\n  ", "null", "é \x00\x1f", '"\\'])
_KEYS = (_STRINGS | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
         | st.booleans() | st.none())
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | _STRINGS)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_json_text_is_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_on_empty_and_nested_containers():
    value = {"a": {}, "b": [], "c": (), "d": [[], {}, [[1]], {"e": ()}], 1: {2.5: [None]},
             True: "x", None: float("nan")}
    assert json_text(value) == json.dumps(value, indent=2)


def _variant():
    return VariantConfig("p", "gcc", "O2", "pie", "present", "u20")


def _tree():
    return Internal("pi", Leaf(1.0, 0.0), Leaf(0.0, 3.0))


def _prediction():
    return Prediction(Label.PASS, 0.75, (1.0, 3.0))


# Each value class -> fresh field values, in field order, for one instance
RECORDS = {
    Leaf: lambda: {"fail_count": 1.0, "pass_count": 2.0},
    Internal: lambda: {"feature": "pi", "when_false": Leaf(1.0, 0.0),
                       "when_true": Leaf(0.0, 3.0)},
    DecisionTreeModel: lambda: {"tool_name": "t", "task": Task.AFL, "feature_order": ("pi",),
                                "root": _tree(), "reported_accuracy": 81.47},
    Prediction: lambda: {"outcome": Label.PASS, "confidence": 0.75, "leaf_counts": (1.0, 3.0)},
    Accuracy: lambda: {"ratio": 0.5, "percent": 50.0},
    ElfSummary: lambda: {"file_size": 1000, "elf_type": ElfType.DYN,
                         "sections": (SectionEntry(".text", 64, 16),),
                         "program_header_extent": (64, 56),
                         "section_header_extent": (936, 64)},
    FeatureVector: lambda: {"features": {"pi": True, "strip": False}},
    MatrixRow: lambda: {"binary_id": "b0", "values": (True, False), "label": Label.FAIL},
    FeatureMatrix: lambda: {"feature_names": ("a", "b"),
                            "rows": (MatrixRow("b0", (True, False), Label.FAIL),)},
    ToolAdapter: lambda: {"tool_name": "copy", "nop_command": "cp {input} {output}",
                          "afl_command": None, "ir_artifact_glob": "*.ll"},
    RunRecord: lambda: {"binary_id": "b0", "variant": _variant(), "tool_name": "copy",
                        "task": Task.NOP, "ir_ok": TriState.NA, "exe_ok": True,
                        "func_ok": TriState.YES, "runtime_seconds": 1.5,
                        "memory_kbytes": 100, "output_size_bytes": 1000, "annotation": ""},
    ManifestEntry: lambda: {"binary_id": "b0", "path": "/bin/true", "variant": _variant(),
                            "null_invocation": ("--help",)},
    Cohort: lambda: {"name": "gcc", "predicate": {"compiler": "gcc"}, "denominator": 3},
    Cell: lambda: {"count": 2, "raw_pct": 66.67},
    SuccessTable: lambda: {"cohort": Cohort("all", {}, 1), "tool_order": ("a",),
                           "cells": {("a", "IR"): Cell(None, None)}},
    ComparativeTable: lambda: {"tools": ("a", "b"), "raw_cells": {("a", "b"): 50.0}},
    MapTable: lambda: {"key_label": "tool", "value_label": "pct", "values": {"a": 1.0},
                       "fmt": fmt_pct},
    SectionSizeTable: lambda: {"buckets": (".text",), "tools": ("a",),
                               "raw_cells": {(".text", "a"): None}},
    ScopeReport: lambda: {"binary_id": "b0", "features": FeatureVector({"pi": True}),
                          "predictions": {"zipr": _prediction()}},
    VariantConfig: lambda: {"program": "p", "compiler": "gcc", "flags": "O2",
                            "relocation": "pie", "symbols": "present", "os_tag": "u20"},
}


def test_every_record_class_is_covered():
    found = set()
    for info in pkgutil.iter_modules(rweval.__path__):
        module = importlib.import_module(f"rweval.{info.name}")
        found |= {v for v in vars(module).values() if isinstance(v, type)
                  and v.__setattr__ is util._refuse_assignment}
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_each_value_class_is_a_frozen_record(cls):
    fields = RECORDS[cls]()
    a, b = cls(**fields), cls(*RECORDS[cls]().values())
    assert a == b and not a != b
    values = tuple(fields.values())
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    twin = type(cls.__name__, (cls,), {})(**fields)
    assert a != twin and twin != a
    assert a != values
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert vars(a) == fields and a == b
    items = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__name__}({items})"
    copy = replace(a)
    assert copy == a and copy is not a


def test_replace_runs_the_checks_again():
    record = RunRecord(**RECORDS[RunRecord]())
    assert replace(record, runtime_seconds=2.0).runtime_seconds == 2.0
    with pytest.raises(ValueError, match="not finite"):
        replace(record, runtime_seconds=math.nan)
    model = DecisionTreeModel(**RECORDS[DecisionTreeModel]())
    with pytest.raises(SchemaError, match="undeclared feature 'strip'"):
        replace(model, root=Internal("strip", Leaf(1.0, 0.0), Leaf(0.0, 1.0)))
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        replace(model, colour="red")
    matrix = FeatureMatrix(**RECORDS[FeatureMatrix]())
    with pytest.raises(ValueError, match="^row 'b0' has 1 values for 2 features$"):
        replace(matrix, rows=(MatrixRow("b0", (True,), Label.FAIL),))


def test_a_field_without_a_default_cannot_follow_one_with():
    class Bad:
        first: int = 0
        second: int

    with pytest.raises(TypeError, match="without a default follows"):
        util.record(Bad)

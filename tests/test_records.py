"""The record API: plain results are NamedTuples; the types that validate
or cache are frozen plain classes with value semantics."""

from __future__ import annotations

import copy
import dataclasses
import functools
import pickle

import pytest

from qcasim import (
    Cell,
    ClockConfig,
    GeometryParams,
    InputSchedule,
    KinkPair,
    KinkReport,
    Layout,
    Measurement,
    OutputReading,
    OutputVerdict,
    PointCharge,
    Role,
    RoleKind,
    Trace,
    TraceSample,
    TruthResult,
    VectorVerdict,
    Violation,
)
from qcasim.sweep import SweepRow

# Each record's fields, in the order a dataclass of the same name declared them.
RECORD_FIELDS = [
    (PointCharge, ("x", "y", "charge")),
    (KinkPair, ("id_a", "id_b", "distance_nm", "bare", "neutralized")),
    (KinkReport, ("pairs", "total_bare", "total_neutralized", "radius_of_effect", "geometry")),
    (TraceSample, ("vector_index", "sample_index", "gammas", "polarizations", "iterations")),
    (Trace, ("cell_ids", "vectors", "samples_per_cycle", "samples")),
    (OutputReading, ("output", "vector_index", "steady", "max_abs")),
    (OutputVerdict, ("output", "expected", "steady", "passed")),
    (VectorVerdict, ("vector_index", "inputs", "outputs")),
    (TruthResult, ("verdicts",)),
    (Violation, ("rule", "cell_ids", "message")),
    (SweepRow, ("total_cells", "kink_bare", "kink_neut", "max_abs_p", "steady_p")),
]

# Each validating or caching type: its fields in __init__ order, a record,
# a valid change of one field, and a construction it rejects (None for
# Measurement, which checks nothing).
_READING = OutputReading("q", 0, 0.75, 0.75)
VALIDATING = [
    (
        GeometryParams,
        ("cell_size", "dot_diameter", "pitch", "relative_permittivity", "charge_model", "radius_of_effect"),
        GeometryParams(),
        {"pitch": 21.0},
        lambda: GeometryParams(pitch=1.0),
    ),
    (Role, ("kind", "label", "polarization"), Role.input("a"), {"label": "b"}, lambda: Role(RoleKind.FIXED)),
    (
        Cell,
        ("id", "x", "y", "role", "zone"),
        Cell("c", 0.0, 0.0, Role.normal()),
        {"zone": 1},
        lambda: Cell("c", 0.0, 0.0, Role.normal(), zone=4),
    ),
    (
        Layout,
        ("geometry", "cells"),
        Layout(GeometryParams(), [Cell("c", 0.0, 0.0, Role.fixed(+1))]),
        {"cells": ()},
        lambda: Layout(GeometryParams(), [None]),
    ),
    (
        ClockConfig,
        ("gamma_high", "gamma_low", "samples_per_cycle"),
        ClockConfig(),
        {"samples_per_cycle": 64},
        lambda: ClockConfig(gamma_low=2e-21),
    ),
    (
        InputSchedule,
        ("labels", "vectors"),
        InputSchedule.exhaustive(["a"]),
        {"vectors": ((("a", 1),),)},
        lambda: InputSchedule(("a",), ()),
    ),
    (Measurement, ("vectors", "readings"), Measurement((), (_READING,)), {"readings": ()}, None),
]
_IDS = [cls.__name__ for cls, *_ in VALIDATING]


@pytest.mark.parametrize("cls, fields", RECORD_FIELDS, ids=[cls.__name__ for cls, _ in RECORD_FIELDS])
def test_plain_records_are_named_tuples(cls, fields):
    assert issubclass(cls, tuple)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == fields
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert tuple(record) == values and record == values
    assert [getattr(record, name) for name in fields] == list(values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def _values(record, fields):
    return [getattr(record, name) for name in fields]


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_validating_types_are_not_tuples_and_still_reject(cls, fields, record, change, bad):
    assert not issubclass(cls, tuple)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == cls.__match_args__ == fields
    if bad is not None:
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_validating_types_are_frozen(cls, fields, record, change, bad):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.new_attribute = 1


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_validating_types_compare_and_hash_by_type_and_fields(cls, fields, record, change, bad):
    twin = cls(*_values(record, fields))
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(_values(record, fields)))
    assert record != record._replace(**change)
    assert record != tuple(_values(record, fields))
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert record != subclass(*_values(record, fields))
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_validating_types_repr_as_dataclasses_did(cls, fields, record, change, bad):
    values = ", ".join(f"{name}={value!r}" for name, value in zip(fields, _values(record, fields)))
    assert repr(record) == f"{cls.__name__}({values})"


def test_geometry_repr_reads_as_before():
    assert repr(GeometryParams()) == (
        "GeometryParams(cell_size=18.0, dot_diameter=5.0, pitch=20.0, relative_permittivity=1.0,"
        " charge_model=<ChargeModel.NEUTRALIZED: 'neutralized'>, radius_of_effect=65.0)"
    )


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_validating_types_pickle_and_copy(cls, fields, record, change, bad):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
        assert _values(twin, fields) == _values(record, fields)


@pytest.mark.parametrize("cls, fields, record, change, bad", VALIDATING, ids=_IDS)
def test_replace_copies_through_init(cls, fields, record, change, bad):
    changed = record._replace(**change)
    assert type(changed) is cls
    for name in fields:
        assert getattr(changed, name) == change.get(name, getattr(record, name))
    assert record._replace() == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_validates():
    with pytest.raises(ValueError, match="pitch must be at least cell_size"):
        GeometryParams()._replace(pitch=1.0)
    with pytest.raises(ValueError, match="clock zone must be 0..3"):
        Cell("c", 0.0, 0.0, Role.normal())._replace(zone=4)


def test_measurement_caches_its_index():
    assert isinstance(Measurement.__dict__["_by_key"], functools.cached_property)
    measurement = Measurement((), (_READING,))
    assert measurement.reading("q", 0) is _READING
    assert measurement._by_key is measurement._by_key
    # the cached index is not a field: it changes no comparison, copy or pickle
    assert measurement == Measurement((), (_READING,))
    assert pickle.loads(pickle.dumps(measurement)).reading("q", 0) == _READING

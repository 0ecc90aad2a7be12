"""The record API: plain results are NamedTuples, validating or caching
types are frozen dataclasses."""

from __future__ import annotations

import dataclasses
import functools

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

# Each dataclass with a construction its __post_init__ (or __init__) rejects.
VALIDATING = [
    (GeometryParams, lambda: GeometryParams(pitch=1.0)),
    (Role, lambda: Role(RoleKind.FIXED)),
    (Cell, lambda: Cell("c", 0.0, 0.0, Role.normal(), zone=4)),
    (Layout, lambda: Layout(GeometryParams(), [None])),
    (ClockConfig, lambda: ClockConfig(gamma_low=2e-21)),
    (InputSchedule, lambda: InputSchedule(("a",), ())),
]


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


@pytest.mark.parametrize("cls, build", VALIDATING, ids=[cls.__name__ for cls, _ in VALIDATING])
def test_validating_types_stay_frozen_dataclasses(cls, build):
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert not issubclass(cls, tuple)
    with pytest.raises(ValueError):
        build()


def test_measurement_stays_a_dataclass_for_its_cached_index():
    assert dataclasses.is_dataclass(Measurement) and Measurement.__dataclass_params__.frozen
    assert isinstance(Measurement.__dict__["_by_key"], functools.cached_property)
    reading = OutputReading("q", 0, 0.75, 0.75)
    assert Measurement((), (reading,)).reading("q", 0) is reading

"""Tests for the package's value classes, the `quiver.Record`s: how each
is built, compared, hashed, printed and kept frozen, the mutable
`BijectionReport`, and the standard-library modules an import loads."""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from ncpq import (BijectionReport, CartanMatrix, Classification, ExcSequence, Quiver, Reflection,
                  Representation, Subcategory, WeylElement, make_reflection)
from ncpq.weyl import ExchangeWitness

A2 = Quiver(2, ((1, 2),))
I2 = ((1, 0), (0, 1))
S = ((0, 1), (1, 0))

# Each frozen record: its class, its constructor arguments, the fields it
# stores (normalized as its `__init__` does) and its repr.
RECORDS = {
    "Quiver": (Quiver, (3, ((2, 3), (1, 2))), (3, ((1, 2), (2, 3))),
               "Quiver(n=3, arrows=((1, 2), (2, 3)))"),
    "CartanMatrix": (CartanMatrix, ([[2, -1], [-1, 2]],), (((2, -1), (-1, 2)),),
                     "CartanMatrix(entries=((2, -1), (-1, 2)))"),
    "Classification": (Classification, ("finite", "A2"), ("finite", "A2"),
                       "Classification(kind='finite', label='A2')"),
    "Representation": (Representation, (A2, (1, 1), ([[1]],)), (A2, (1, 1), (((1,),),)),
                       "Representation(quiver=Quiver(n=2, arrows=((1, 2),)), dims=(1, 1), "
                       "maps=(((1,),),))"),
    "WeylElement": (WeylElement, (S,), (S,), "WeylElement(matrix=((0, 1), (1, 0)))"),
    "Reflection": (Reflection, ((1, 1), (((0, 1), (1, 1)), (1, 1))),
                   ((1, 1), (((0, 1), (1, 1)), (1, 1))),
                   "Reflection(root=(1, 1), step=(((0, 1), (1, 1)), (1, 1)))"),
    "ExchangeWitness": (ExchangeWitness, (1, WeylElement(I2), WeylElement(S)),
                        (1, WeylElement(I2), WeylElement(S)),
                        "ExchangeWitness(t=1, lhs=WeylElement(matrix=((1, 0), (0, 1))), "
                        "rhs=WeylElement(matrix=((0, 1), (1, 0))))"),
    "ExcSequence": (ExcSequence, (([1, 0], (0, 1)),), (((1, 0), (0, 1)),),
                    "ExcSequence(roots=((1, 0), (0, 1)))"),
    "Subcategory": (Subcategory, (frozenset({(1, 0)}), ((1, 0),)),
                    (frozenset({(1, 0)}), ((1, 0),)),
                    "Subcategory(ind_roots=frozenset({(1, 0)}), simples=((1, 0),))"),
}


def _report() -> BijectionReport:
    return BijectionReport("a2", "Finite(A2)", (1, 2), {"nc": 5}, {"injective": True},
                           [{"kind": "well_defined", "last": [1, 0], "pair": ((1, 0), (0, 1))}],
                           1.5)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_built_by_position_and_by_keyword(name):
    cls, args, values, _ = RECORDS[name]
    by_position, by_keyword = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in cls._fields) == values


def test_classification_label_defaults_to_none():
    assert Classification("affine").label is None
    assert Classification("affine") == Classification("affine", None)
    assert Classification("affine") == Classification(kind="affine")
    assert Classification("affine") != Classification("affine", "A1")


def test_reflection_record_is_the_one_make_reflection_builds():
    assert make_reflection(A2, (1, 1)) == Reflection(*RECORDS["Reflection"][1])


@pytest.mark.parametrize("name", RECORDS)
def test_record_equals_only_its_own_class(name):
    cls, args, _, _ = RECORDS[name]
    record = cls(*args)
    assert record == cls(*args)
    assert record.__eq__(record._values()) is NotImplemented
    assert record != record._values()
    assert record != type("Sub", (cls,), {})(*args)


def test_records_of_two_classes_are_unequal_on_equal_fields():
    # A Weyl element and a Cartan matrix on one matrix store equal fields.
    m = ((2, -1), (-1, 2))
    assert WeylElement(m)._values() == CartanMatrix(m)._values()
    assert WeylElement(m) != CartanMatrix(m)
    assert CartanMatrix(m) != WeylElement(m)
    assert len({WeylElement(m), CartanMatrix(m)}) == 2


def test_record_hash_is_the_hash_of_its_field_tuple():
    for cls, args, values, _ in RECORDS.values():
        expected = hash(values[0]) if cls is WeylElement else hash(values)
        assert hash(cls(*args)) == expected, cls.__name__
    assert hash(Quiver(2, ((1, 2),))) != hash(Quiver(3, ((1, 2),)))


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr(name):
    cls, args, _, text = RECORDS[name]
    assert repr(cls(*args)) == text


def test_record_refuses_assignment_and_deletion():
    for cls, args, values, _ in RECORDS.values():
        record = cls(*args)
        for field in (*cls._fields, "extra"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert record._values() == values and not hasattr(record, "extra"), cls.__name__


def test_record_keeps_a_cached_property_in_its_dict():
    w = WeylElement(S)
    assert hash(w) == hash(S) and w.__dict__["_hash"] == hash(S)
    t = make_reflection(A2, (1, 0))
    assert t.element is t.element


def test_report_is_mutable_and_unhashable():
    report = _report()
    report.elapsed_ms = 2.0
    assert report.elapsed_ms == 2.0 and report != _report()
    report.failures.append({"kind": "cap_exceeded", "detail": "x"})
    assert len(report.failures) == 2
    del report.elapsed_ms
    assert not hasattr(report, "elapsed_ms")
    assert _report() == _report()
    with pytest.raises(TypeError):
        hash(_report())


def test_report_repr():
    assert repr(_report()) == (
        "BijectionReport(quiver='a2', type='Finite(A2)', coxeter_order=(1, 2), "
        "counts={'nc': 5}, flags={'injective': True}, failures=[{'kind': 'well_defined', "
        "'last': [1, 0], 'pair': ((1, 0), (0, 1))}], elapsed_ms=1.5)")


def test_report_to_dict_copies_as_asdict_did():
    report = _report()
    mirror = dataclasses.make_dataclass("BijectionReport", BijectionReport._fields)
    expected = dataclasses.asdict(mirror(*report._values()))
    data = report.to_dict()
    assert data == expected and list(data) == list(BijectionReport._fields)
    assert type(data["coxeter_order"]) is tuple
    assert type(data["failures"][0]["pair"]) is tuple
    assert data["failures"] is not report.failures
    assert data["failures"][0] is not report.failures[0]
    assert data["failures"][0]["last"] is not report.failures[0]["last"]
    data["counts"]["nc"] = 0
    data["failures"][0]["last"].append(7)
    assert report == _report()


def test_report_round_trips_through_a_dict():
    data = _report().to_dict()
    data["coxeter_order"] = list(data["coxeter_order"])
    assert BijectionReport.from_dict(data) == _report()


def test_import_loads_no_dataclasses_typing_or_fractions():
    # A bare interpreter, with no site and no bytecode, imports the
    # package and its CLI without any of these standard-library modules.
    banned = ("dataclasses", "inspect", "ast", "dis", "copy", "typing", "fractions")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    code = f"import sys, ncpq, ncpq.cli; print(sorted(set({banned!r}) & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.strip() == "[]"


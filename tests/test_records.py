"""The value records (:class:`splitpile.asm.Record` and its subclasses)
behave as the frozen dataclasses they replaced, and importing the CLI
loads neither ``dataclasses`` nor ``fractions``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitpile.asm import Config, PreconditionError, SplitGraph, StabilizationTrace
from splitpile.partitions import Partition, SymmetryReport
from splitpile.polyomino import BounceRecord, SawtoothPolyomino, area, sts
from splitpile.toppling import ItcSequence, ToppleTrace
from splitpile.verify import VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"
WORD = "HUHDHUHDUDUHD"
POLY = sts(WORD)

# (class, fields in order, the same fields with one value changed)
FROZEN = [
    (SplitGraph, {"n": 5, "d": 3}, {"d": 4}),
    (Config, {"clique": (3, 2), "independent": (1,)}, {"independent": (0,)}),
    (
        StabilizationTrace,
        {"final": Config((1,), ()), "odometer": (0, 0)},
        {"odometer": (1, 0)},
    ),
    (ToppleTrace, {"mode": "CTI", "rounds": (((0,), ()),)}, {"mode": "ITC"}),
    (ItcSequence, {"b": (1,), "a": (2,)}, {"b": (0,)}),
    (
        SawtoothPolyomino,
        {"n": POLY.n, "d": POLY.d, "upper": POLY.upper, "lower": POLY.lower},
        {"lower": "WWWWWSSSSS"},
    ),
    (
        BounceRecord,
        {"mode": "CTI", "sizes": (1, 0), "path": ((1, 0), (0, 1), (0, 0))},
        {"sizes": (1, 1)},
    ),
    (Partition, {"parts": (3, 1)}, {"parts": (2, 2)}),
]
# frozen too, but their list and dict fields make them unhashable
REPORTS = [
    (
        SymmetryReport,
        {
            "n": 2,
            "points": [(Fraction(2), Fraction(3), Fraction(5))],
            "lhs": [Fraction(1, 2)],
            "rhs": [Fraction(1, 2)],
            "swapped_equal": [True],
        },
        {"swapped_equal": [False]},
    ),
    (
        VerificationReport,
        {
            "check": "phi_roundtrip",
            "params": {"n": 1, "d": 0},
            "status": "pass",
            "counterexample": None,
            "seconds": 0.25,
        },
        {"status": "fail"},
    ),
]
ALL = FROZEN + REPORTS


def _ids(table):
    return [cls.__name__ for cls, _, _ in table]


@pytest.mark.parametrize("cls, fields, changed", ALL, ids=_ids(ALL))
def test_construction_equality_and_repr(cls, fields, changed):
    record = cls(*fields.values())
    assert cls(**fields) == record
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert record != cls(**{**fields, **changed})
    # equal only to an instance of the same class
    assert record != tuple(fields.values())
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert record != sub(*fields.values()) and sub(*fields.values()) != record
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({body})"
    # the constructor binds its fields as a signature would
    values = tuple(fields.values())
    for refused in (
        lambda: cls(*values[:-1]),  # the last field missing
        lambda: cls(*values, values[0]),  # an extra positional
        lambda: cls(**fields, unknown=values[0]),  # an unknown keyword
        lambda: cls(values[0], **fields),  # the first field given twice
    ):
        with pytest.raises(TypeError, match=cls.__name__):
            refused()


@pytest.mark.parametrize("cls, fields, changed", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_as_their_fields_and_refuse_assignment(cls, fields, changed):
    record = cls(**fields)
    assert hash(record) == hash(tuple(fields.values()))
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls, fields, changed", REPORTS, ids=_ids(REPORTS))
def test_reports_refuse_assignment_and_deletion(cls, fields, changed):
    record = cls(**fields)
    (name, value), = changed.items()
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[name]
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls, fields, changed", ALL, ids=_ids(ALL))
def test_records_pickle_and_copy(cls, fields, changed):
    record = cls(**fields)
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is cls and twin == record


def test_sequence_fields_are_coerced_to_tuples():
    assert Config([3, 2], iter([1])) == Config((3, 2), (1,))
    assert Config([3, 2], [1]).clique == (3, 2)
    assert ItcSequence([1], [2]).a == (2,) and ItcSequence([1], [2]).b == (1,)
    assert Partition([3, 1]).parts == (3, 1)
    assert repr(ItcSequence([1], [2])) == "ItcSequence(b=(1,), a=(2,))"


@pytest.mark.parametrize(
    "build",
    [
        lambda: SplitGraph(0, 1),
        lambda: SplitGraph(1, -1),
        lambda: ItcSequence((1, 0), (2,)),
        lambda: ItcSequence((), ()),
        lambda: Partition((2, 0)),
        lambda: Partition((1, 2)),
        lambda: SawtoothPolyomino(0, 0, "NS", "W"),
        lambda: SawtoothPolyomino(1, 0, ["N", "N", "S", "S"], "WW"),
        lambda: SawtoothPolyomino(1, 0, "NNSX", "WW"),
        lambda: SawtoothPolyomino(1, 0, "NNS", "WW"),
        lambda: SawtoothPolyomino(1, 0, "NNSS", "WWS"),
    ],
)
def test_domain_checks_still_refuse_bad_fields(build):
    with pytest.raises(PreconditionError):
        build()


def test_polyomino_caches_stay_out_of_equality_hashing_and_pickling():
    poly = sts(WORD)
    fresh = sts(WORD)
    area(poly)  # fills both cached walks
    assert {"_points", "_boundary_sets"} <= set(vars(poly))
    assert not vars(fresh)
    assert poly == fresh and hash(poly) == hash(fresh)
    assert repr(poly) == repr(fresh)
    assert not vars(pickle.loads(pickle.dumps(poly)))
    assert area(copy.deepcopy(poly)) == area(fresh)


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    # the baseline is taken in the same process, after the standard
    # modules the CLI needs anyway, so the interpreter's own start-up
    # imports do not count
    code = (
        "import sys, argparse, json\n"
        "before = set(sys.modules)\n"
        "import splitpile.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"splitpile.verify", "splitpile.partitions", "splitpile.polyomino"} <= added
    assert not {"dataclasses", "fractions", "decimal", "inspect"} & added

"""Every record class keeps the same value protocol: frozen fields, copies and
pickles that compare equal, a ``Name(field=value, ...)`` repr, defaults that
match explicit construction, and equality only within one class."""

import copy
import math
import pickle

import pytest

from conformable.core import EvalResult, TerminalMode
from conformable.expr import BinOp, Call, Const, FuncSpec, FunctionDef, Neg, Var, _Token, parse
from conformable.quad import QuadConfig
from conformable.record import Record
from conformable.verify import (
    CheckOutcome,
    RegistryEntry,
    VerificationReport,
    Witness,
)

# (class, arguments that leave the defaults out, every field given explicitly)
CASES = [
    (Const, (1.5,), (1.5,)),
    (Var, (), ()),
    (Neg, (Var(),), (Var(),)),
    (BinOp, ("+", Var(), Const(2.0)), ("+", Var(), Const(2.0))),
    (Call, ("sin", Var()), ("sin", Var())),
    (FuncSpec, (parse("t^2"),), (parse("t^2"), None)),
    (FunctionDef, ("sin", math.sin), ("sin", math.sin, None)),
    (_Token, ("op", "+", 3), ("op", "+", 3, 0.0)),
    (EvalResult, (2.0, 0.0), (2.0, 0.0, None)),
    (QuadConfig, (), (1e-10, 1e-9, 2000)),
    (RegistryEntry, ("one", "1"), ("one", "1", None, True, True, True, None)),
    (
        Witness,
        ("sine", 0.5, None, 1.0, 0.5, "value(0.5)", 1e-9),
        ("sine", 0.5, None, 1.0, 0.5, "value(0.5)", 1e-9),
    ),
    (
        CheckOutcome,
        ("naturalness", TerminalMode.CORRECTED, "skipped"),
        ("naturalness", TerminalMode.CORRECTED, "skipped", (), None, None, ()),
    ),
    (VerificationReport, ((), "0" * 64, {}), ((), "0" * 64, {})),
]


@pytest.mark.parametrize("cls, short, explicit", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_protocol(cls, short, explicit):
    record = cls(*short)
    assert record == cls(*explicit)
    assert record == cls(**dict(zip(cls._fields, explicit)))
    assert len(cls._fields) == len(explicit)

    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record

    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, explicit))
    assert repr(record) == f"{cls.__name__}({shown})"

    # A record class with the same field names holding the same values.
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    other = twin(*explicit)
    assert other.as_dict() == record.as_dict()
    assert record != other and other != record

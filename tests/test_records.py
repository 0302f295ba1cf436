"""The contract of `mvpf.Record`, the base of the package's immutable
records, for every record class in the package.

Each class is checked against a stdlib frozen dataclass with the same
fields (the span left out of comparison for a `Spanned` record), which is
what the records were before: the same hash, so sets and dicts keep their
order, and the same repr.  A record equals only a record of its own
class; its fields cannot be assigned; it is built from positional
arguments, keywords and defaults alike, and a wrong call raises
TypeError.  A record built unchecked by ``_make`` is the record the
checked constructor builds, except a `Signature`, which has no unchecked
constructor.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import cplusplan
from cplusplan.mvpf import BOT, And, MvAtom, Neg, Or, Record, Signature
from cplusplan.syntax import Span, Spanned
from cplusplan.translate import PAtom, TAtom

for _m in pkgutil.iter_modules(cplusplan.__path__):
    importlib.import_module(f"cplusplan.{_m.name}")


def _records() -> list[type]:
    out, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub is not Spanned:
                out.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__name__))


RECORDS = _records()
# a class that checks its fields on construction gets values it takes
SAMPLES = {"Signature": ((0,), {0: (1, 2)})}


def sample(cls) -> tuple:
    return SAMPLES.get(cls.__name__) or tuple(f"{cls.__name__}.{f}" for f in cls._fields)


def twin(cls):
    """The frozen dataclass that the record stands in for."""
    spanned = issubclass(cls, Spanned)
    return dataclasses.make_dataclass(cls.__name__, [
        (f, object, dataclasses.field(compare=not (spanned and f == "span")))
        for f in cls._fields
    ], frozen=True)


def compared(cls, values: tuple) -> tuple:
    return values[:-1] if issubclass(cls, Spanned) else values


def built(cls) -> list:
    """The sample record from each constructor the class has: the checked
    call, and ``_make`` unless the class checks every record."""
    values = sample(cls)
    out = [cls(*values)]
    if cls._make is not None:
        out.append(cls._make(values))
    return out


def test_every_record_class_is_found():
    names = {c.__name__ for c in RECORDS}
    assert {"MvAtom", "Bot", "PAtom", "TAtom", "PropRule", "GroundLaw", "CoreLaw",
            "CausedLaw", "Token", "PlanView", "SolveResult"} <= names
    assert len(RECORDS) >= 38


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_every_constructor_builds_the_same_record(self, cls):
        values = sample(cls)
        for x in built(cls):
            assert x.__class__ is cls and tuple(x) == values
            assert x == cls(*values) and not x != cls(*values)

    def test_hash_is_the_tuple_hash_of_the_compared_fields(self, cls):
        values = sample(cls)
        try:
            want = hash(twin(cls)(*values))
        except TypeError:  # a field that is a dict
            for x in built(cls):
                with pytest.raises(TypeError):
                    hash(x)
            return
        for x in built(cls):
            assert hash(x) == want == hash(compared(cls, values))
        if not issubclass(cls, Spanned):
            assert cls.__hash__ is tuple.__hash__

    def test_repr_is_the_dataclass_repr(self, cls):
        values = sample(cls)
        for x in built(cls):
            assert repr(x) == repr(twin(cls)(*values))

    def test_fields_are_read_only(self, cls):
        x = cls(*sample(cls))
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
        with pytest.raises(AttributeError):
            x.not_a_field = None

    def test_positional_keyword_and_default_construction_agree(self, cls):
        values = sample(cls)
        x = cls(*values)
        assert tuple(getattr(x, f) for f in cls._fields) == values
        assert cls(**dict(zip(cls._fields, values))) == x
        if values:
            assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == x
        required = [f for f in cls._fields if f not in cls._defaults]
        n = len(required)
        assert cls._fields[:n] == tuple(required), "a default before a required field"
        assert cls(*values[:n]) == cls(*values[:n], *(cls._defaults[f] for f in cls._fields[n:]))

    def test_wrong_calls_raise_type_error(self, cls):
        values = sample(cls)
        with pytest.raises(TypeError, match="takes"):
            cls(*values, "extra")
        with pytest.raises(TypeError, match="unexpected argument 'extra'"):
            cls(*values, extra=1)
        if values:
            with pytest.raises(TypeError, match="multiple values"):
                cls(*values, **{cls._fields[0]: values[0]})
        required = [f for f in cls._fields if f not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match=f"missing argument '{required[-1]}'"):
                cls(*values[:len(required) - 1])

    def test_copy_and_pickle_give_an_equal_record(self, cls):
        for x in built(cls):
            assert copy.copy(x) == x
            assert pickle.loads(pickle.dumps(x)) == x


def test_a_signature_is_always_checked():
    empty = ((0,), {0: ()})
    with pytest.raises(ValueError, match="empty domain"):
        Signature(*empty)
    with pytest.raises(TypeError):
        Signature._make(empty)
    assert Signature._make is None


@pytest.mark.parametrize("cls", [c for c in RECORDS if issubclass(c, Spanned)],
                         ids=lambda c: c.__name__)
def test_a_spanned_record_ignores_its_span(cls):
    values = sample(cls)
    x = cls(*values)
    moved = cls(*values[:-1], Span("elsewhere", 3, 4))
    assert x == moved and not x != moved and hash(x) == hash(moved)
    changed = cls("other", *values[1:])
    assert x != changed and not x == changed


def test_equal_fields_under_other_classes_differ():
    p = PAtom(0, 1, 2)
    pairs = [
        (p, TAtom(0, 1, 2)),
        (MvAtom(1, 2), (1, 2)),
        (And((p, p)), Or((p, p))),
        (Neg(p), (p,)),
    ]
    for a, b in pairs:
        assert hash(a) == hash(b)
        assert a != b and b != a
        assert not (a == b or b == a)
        assert len({a, b}) == 2
        assert {a: 1}.get(b) is None and {b: 1}.get(a) is None


def test_the_record_with_no_fields_is_true():
    assert BOT and bool(BOT) is True

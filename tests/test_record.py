"""The package's records: immutable, equal and hashed by their fields, and
checked when they are built (`simplotope.record`)."""

from fractions import Fraction

import pytest

from simplotope.core import FaceId, SimplotopeSpec, VertexPoint
from simplotope.exact import LpProblem, LpResult
from simplotope.lptable import bounds_table
from simplotope.record import Record
from simplotope.trisquare import Ingredient
from simplotope.verifier import TriangulationCandidate

SPEC = SimplotopeSpec((1, 2))


def make(kind, *args):
    """Each checked record from a few arguments, built twice for equality."""
    if kind == "spec":
        return SimplotopeSpec(tuple(args))
    if kind == "vertex":
        return VertexPoint(SPEC, tuple(args))
    if kind == "face":
        return FaceId(SPEC, frozenset(args))
    return LpProblem([1] * args[0], [([1] * args[1], 1)])


# (kind, arguments, other arguments of the same kind, arguments to refuse)
CHECKED = [
    ("spec", (1, 2), (2, 1), [(), (1, 0)]),
    ("vertex", (0, 2), (1, 2), [(0,), (2, 0), (0, 3), (0, -1)]),
    ("face", ((1, 0),), ((1, 1),), [((0, 2),), ((1, 3),), ((0, 0), (0, 1)), ((1, 0), (1, 1), (1, 2))]),
    ("lp", (2, 2), (3, 3), [(2, 3), (3, 1)]),
]


@pytest.mark.parametrize("kind, args, other, refused", CHECKED, ids=[c[0] for c in CHECKED])
def test_checked_records(kind, args, other, refused):
    a, b, c = make(kind, *args), make(kind, *args), make(kind, *other)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != c and len({a, b, c}) == 2
    assert a != tuple(getattr(a, name) for name in a.__slots__)  # equal to its own class only
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")
    for name in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1  # no field outside __slots__ either
    assert a == b
    for bad in refused:
        with pytest.raises((ValueError, IndexError)):
            make(kind, *bad)


def test_checked_records_equal_their_own_class_only():
    class Other(Record):
        __slots__ = ("factors",)

        def __init__(self, factors):
            object.__setattr__(self, "factors", factors)

    assert Other((1, 2)) != SPEC and SPEC != Other((1, 2))
    assert Other((1, 2)) == Other((1, 2)) and hash(Other((1, 2))) == hash(SPEC)


def test_checked_records_hash_their_fields_as_a_tuple():
    # the hash that @dataclass(frozen=True) gave, one field or several
    assert hash(SPEC) == hash(((1, 2),))
    v = VertexPoint(SPEC, (1, 0))
    assert hash(v) == hash((SPEC, (1, 0)))
    assert hash(LpProblem([1], [([1], 2)])) == hash(((1,), (((1,), 2),)))


def test_plain_records_are_immutable_tuples():
    cand = TriangulationCandidate(SPEC, ())
    table = bounds_table(1, 0, 1)
    records = [cand, LpResult(Fraction(0), ()), Ingredient("x", True, ""), table,
               table.cells[0]]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert record == type(record)(*record) and hash(record) == hash(type(record)(*record))

"""The value classes' contract: construction by position or keyword with
the same defaults, equality only within one class, a hash equal to the
hash of the compared fields, no assignment to a frozen one, and the
default repr wherever a class writes none of its own."""
from fractions import Fraction

import pytest

from proccat.finset import Atom, FnTab, Inj, Tup
from proccat.laws import Case, LawReport
from proccat.process import Ongoing, Terminated
from proccat.temporal import unit_obj
from proccat.times import Chain, FiniteScale, ScaleUnion, TimeScale

F0, F1 = Fraction(0), Fraction(1)
A, B = Atom("a"), Atom("b")

# class, the compared fields in order, and their names
FROZEN = [
    (Atom, ("a",), ("name",)),
    (Tup, ((A, B),), ("items",)),
    (Inj, (1, A), ("tag", "value")),
    (FnTab, (((A, B),),), ("entries",)),
    (TimeScale, ((F0, F1),), ("points",)),
    (FiniteScale, ((F0, F1),), ("points",)),
    (Chain, (F0, -1), ("anchor", "sign")),
    (ScaleUnion, ((FiniteScale((F0,)), Chain(F1, 1)),), ("parts",)),
    (Terminated, (F1, ((F0, A),), Tup(())), ("at_time", "seen", "result")),
    (Ongoing, (((F0, A),),), ("seen",)),
    (LawReport, ("functor", "grid", "fail", "w"),
     ("suite", "instance", "verdict", "witness")),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize("cls, fields, names", FROZEN, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, names):
    x = cls(*fields)
    assert tuple(getattr(x, n) for n in names) == fields
    assert cls(**dict(zip(names, fields))) == x


@pytest.mark.parametrize("cls, fields, names", FROZEN, ids=IDS)
def test_equal_only_within_the_class_and_hashed_by_fields(cls, fields, names):
    x = cls(*fields)
    assert x == cls(*fields) and not x != cls(*fields)
    assert hash(x) == hash(fields)
    assert x != fields and x.__eq__(fields) is NotImplemented
    assert len({x, cls(*fields)}) == 1


@pytest.mark.parametrize("cls, fields, names", FROZEN, ids=IDS)
def test_frozen_classes_refuse_assignment_and_deletion(cls, fields, names):
    x = cls(*fields)
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert getattr(x, names[0]) == fields[0]


def test_equality_is_class_exact():
    assert Atom("a") != Tup(("a",))
    assert Ongoing(()) != ((),)
    assert FiniteScale((F0,)) != TimeScale((F0,))
    assert Chain(F0, 1) != Chain(F0, -1) and Inj(0, A) != Inj(1, A)


def test_defaults():
    r = LawReport("functor", "grid", "pass")
    assert r.witness is None
    assert r == LawReport("functor", "grid", "pass", None)
    assert hash(r) == hash(("functor", "grid", "pass", None))


def test_default_reprs():
    assert repr(LawReport("functor", "grid", "fail", "w")) == (
        "LawReport(suite='functor', instance='grid', verdict='fail', "
        "witness='w')")
    assert repr(Terminated(F1, ((F0, A),), Tup(()))) == (
        "Terminated(at_time=Fraction(1, 1), seen=((Fraction(0, 1), a),), result=())")
    assert repr(Ongoing(())) == "Ongoing(seen=())"
    assert repr(FiniteScale((F0, Fraction(1, 2)))) == (
        "FiniteScale(points=(Fraction(0, 1), Fraction(1, 2)))")
    assert repr(Chain(F1, -1)) == "Chain(anchor=Fraction(1, 1), sign=-1)"
    assert repr(ScaleUnion((FiniteScale((F0,)), Chain(F1, 1)))) == (
        "ScaleUnion(parts=(FiniteScale(points=(Fraction(0, 1),)), "
        "Chain(anchor=Fraction(1, 1), sign=1)))")


def test_own_reprs_stay():
    assert repr(Inj(1, Tup((A, FnTab(((A, B),)))))) == "in1((a, {a->b}))"
    assert repr(TimeScale((F0, F1))) == "{0, 1}"


def test_time_scale_compares_by_points_alone():
    # Equal points give one scale, whose own state the hash leaves out.
    s, t = TimeScale.of(0, 1), TimeScale((F0, 1))
    assert s is t and s == t and hash(s) == hash(t) == hash(((F0, F1),))
    assert s != TimeScale.of(0, 2) and s._indices
    assert type(s.points[0]) is Fraction


def test_case_compares_by_identity_and_holds_a_fresh_list():
    scale = TimeScale.of(0)
    a = unit_obj(scale)
    c, d = Case("x", a, a, None), Case(label="x", a=a, b=a, w=None)
    assert c == c and c != d and hash(c) != hash(d)
    assert c.right is None and c.held == [] and c.held is not d.held
    c.right = (None, a, a)
    c.held.append(a)
    assert (c.right, d.held) == ((None, a, a), [])
    assert Case("x", a, a, F0, (None, a, a)).right == (None, a, a)

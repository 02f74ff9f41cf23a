"""The AST's node base against frozen dataclasses.

Every node class of projcalc.ast is checked against its twin from
oracles.dataclass_twin, a frozen dataclass with the same fields: repr, ==
and hash agree on seeded random field values, construction by position,
by keyword and with defaults works, and no field can be changed.
"""

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from projcalc import ast
from projcalc.pointclass import BoundedBy, pi, sigma

from .oracles import NODE_DEFAULTS, dataclass_twin

NODES = sorted(
    (c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast._Node) and c.__name__[0] != "_"),
    key=lambda c: c.__name__,
)
SPACES = set(ast.SpaceExpr.__args__)
TWINS = {c: dataclass_twin(c) for c in NODES}

# field values of every shape a node holds, some equal across types (1 == True)
VALUES = (
    0, 1, 2, True, False, None, "A", "B", "f", "<=", Fraction(1, 2), Fraction(-3),
    sigma(1), pi(2), BoundedBy(sigma(2)), (), (ast.NamedSet("A"), ast.NamedSet("B")),
    ast.NamedSet("A"), ast.NamedFunc("f"), ast.Complement(ast.NamedSet("A")),
    ast.Reals(), ast.ProductSpace(ast.Reals(), ast.Baire()), ast.FuncAnnot("borel", 1),
)


def draws(cls, seed: int, count: int = 40):
    """count pairs of field value lists for cls, the second equal to the first at about half its fields."""
    rng = random.Random(f"{cls.__name__}/{seed}")
    for _ in range(count):
        first = [rng.choice(VALUES) for _ in cls._fields]
        second = [v if rng.random() < 0.6 else rng.choice(VALUES) for v in first]
        yield first, second


def test_the_nodes_are_all_here():
    assert len(NODES) == 52
    assert SPACES < set(NODES)


def test_no_class_in_ast_is_a_dataclass():
    classes = [c for c in vars(ast).values() if isinstance(c, type)]
    assert classes and not any(dataclasses.is_dataclass(c) for c in classes)


@pytest.mark.parametrize("cls", [c for c in NODES if c not in SPACES], ids=lambda c: c.__name__)
def test_repr_eq_and_hash_agree_with_a_frozen_dataclass(cls):
    twin = TWINS[cls]
    for seed in range(3):
        for first, second in draws(cls, seed):
            a, b, ta, tb = cls(*first), cls(*second), twin(*first), twin(*second)
            assert repr(a) == repr(ta)
            assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
            assert hash(a) == hash(ta) and hash(b) == hash(tb)
            assert a == cls(*first) and hash(a) == hash(cls(*first))
            assert a != ta and ta != a  # a node and a dataclass are never equal


def test_nodes_of_two_classes_with_equal_fields_differ():
    rng = random.Random(7)
    for c, d in itertools.combinations([c for c in NODES if c not in SPACES], 2):
        values = [rng.choice(VALUES) for _ in range(max(len(c._fields), len(d._fields)))]
        a, b = c(*values[: len(c._fields)]), d(*values[: len(d._fields)])
        ta, tb = TWINS[c](*values[: len(c._fields)]), TWINS[d](*values[: len(d._fields)])
        assert (a == b) is (ta == tb) is False
        assert (a != b) is (ta != tb) is True
    f, g = ast.NamedFunc("f"), ast.NamedFunc("g")
    assert ast.Sum(f, g) != ast.ProdOp(f, g) and ast.Sum(f, g) == ast.Sum(f, g)
    assert ast.LetSet("A", ast.NamedSet("B"), line=1) != ast.LetFunc("A", ast.NamedSet("B"), line=1)


@pytest.mark.parametrize("cls", [c for c in NODES if c not in SPACES], ids=lambda c: c.__name__)
def test_construction_by_position_keyword_and_default(cls):
    twin = TWINS[cls]
    for first, _ in draws(cls, 11, 10):
        by_keyword = cls(**dict(zip(cls._fields, first)))
        assert by_keyword == cls(*first)
        assert repr(by_keyword) == repr(cls(*first)) == repr(twin(*first))
        required = [v for f, v in zip(cls._fields, first) if f != "line" and f not in NODE_DEFAULTS]
        assert repr(cls(*required)) == repr(twin(*required))
        for f in cls._fields[len(required):]:
            assert getattr(cls(*required), f) == getattr(twin(*required), f)
    with pytest.raises(TypeError):
        cls(*first, 0)
    with pytest.raises(TypeError):
        cls(no_such_field=0)


def test_a_statement_line_is_shown_but_not_compared():
    for cls in (c for c in NODES if "line" in c._fields):
        values = [ast.NamedSet("A")] * (len(cls._fields) - 1)
        one, two = cls(*values, line=1), cls(*values, line=2)
        assert one == two and hash(one) == hash(two) and repr(one) != repr(two)
        assert cls(*values).line == 0 and repr(one).endswith(", line=1)")


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
def test_no_field_can_change(cls):
    node = cls(*VALUES[6:6 + len(cls._fields)]) if cls not in SPACES else cls(*[ast.Reals()] * len(cls._fields))
    for f in cls._fields:
        before = getattr(node, f)
        with pytest.raises(AttributeError):
            setattr(node, f, 1)
        with pytest.raises(AttributeError):
            delattr(node, f)
        assert getattr(node, f) is before
    with pytest.raises(AttributeError):
        node.no_such_field = 1
    assert not hasattr(node, "__dict__")


def test_spaces_stay_one_object_per_structure():
    rng = random.Random(3)
    atoms = [c for c in SPACES if not c._fields]
    made = [c() for c in atoms]
    for _ in range(300):
        left, right = rng.choice(made), rng.choice(made)
        space = rng.choice([ast.ProductSpace(left, right), ast.MeasureSpace(left)])
        assert ast.ProductSpace(left, right) is ast.ProductSpace(left, right)
        assert repr(space) == repr(TWINS[type(space)](*ast.space_children(space)))
        assert space == type(space)(*ast.space_children(space)) and hash(space) == object.__hash__(space)
        made.append(space)
    for space in made:
        assert type(space)(*ast.space_children(space)) is space
        assert copy.deepcopy(space) is space and pickle.loads(pickle.dumps(space)) is space
    assert ast.ProductSpace(made[0], made[1]) != ast.ProductSpace(made[1], made[0]) or made[0] is made[1]


def test_copy_and_pickle_rebuild_equal_nodes():
    program = ast.Program((
        ast.SetDecl("A", ast.Reals(), sigma(1), line=2),
        ast.LetSet("B", ast.Section(ast.Complement(ast.NamedSet("A")), 1, at="p"), line=3),
    ))
    for twin in (copy.copy(program), copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert twin == program and repr(twin) == repr(program)

"""Finite-model io, validation, and exact evaluation of the operator AST."""

import random
import time
from pathlib import Path
from fractions import Fraction

import pytest

from projcalc import ast, finitemodel
from projcalc.ast import ProductSpace
from projcalc.errors import FormatError, SignatureError, UnsupportedConstructorError
from projcalc.pointclass import ConstantClass, delta
from projcalc.finitemodel import (
    XREAL,
    FiniteModel,
    FuncData,
    KernelData,
    MeasureData,
    SetData,
    dumps_model,
    eval_set,
    evaluate,
    func_data,
    loads_model,
    measure_of,
)
from projcalc.xreal import NEG_INF, POS_INF, XReal, fin, xreal_prod, xreal_sum

from . import oracles


def base_model() -> FiniteModel:
    m = FiniteModel(
        spaces={"X": ("x1", "x2"), "Y": ("y1", "y2", "y3")},
        sets={
            "A": SetData("X", frozenset({"x1"})),
            "B": SetData("Y", frozenset({"y2", "y3"})),
            "Yfull": SetData("Y", frozenset({"y1", "y2", "y3"})),
            "S": SetData(ProductSpace("X", "Y"), frozenset({("x1", "y1"), ("x1", "y3"), ("x2", "y2")})),
            "SQ": SetData(ProductSpace("X", "X"), frozenset({("x1", "x1")})),
            "base_0": SetData("X", frozenset({"x1"})),
            "base_1": SetData("X", frozenset({"x1", "x2"})),
        },
        funcs={
            "f": FuncData(ProductSpace("X", "Y"), XREAL, {
                ("x1", "y1"): fin(1), ("x1", "y2"): fin(2), ("x1", "y3"): fin(Fraction(-1, 2)),
                ("x2", "y1"): NEG_INF, ("x2", "y2"): POS_INF, ("x2", "y3"): fin(0),
            }),
            "g": FuncData("X", "Y", {"x1": "y2", "x2": "y1"}),
            "r": FuncData("Y", "X", {"y1": "x2", "y2": "x2", "y3": "x1"}),
            "s": FuncData("X", XREAL, {"x1": fin(3), "x2": NEG_INF}),
            "t": FuncData("X", XREAL, {"x1": fin(-1), "x2": POS_INF}),
            "u_0": FuncData("X", XREAL, {"x1": fin(0), "x2": fin(5)}),
            "u_1": FuncData("X", XREAL, {"x1": fin(4), "x2": fin(-5)}),
        },
        measures={"mu": MeasureData("X", {"x1": Fraction(1, 3), "x2": Fraction(2, 3)})},
        kernels={"q": KernelData("X", "Y", {
            "x1": {"y1": Fraction(1, 2), "y2": Fraction(1, 2), "y3": Fraction(0)},
            "x2": {"y1": Fraction(0), "y2": Fraction(0), "y3": Fraction(1)},
        })},
    )
    m.validate()
    return m


@pytest.fixture(scope="module")
def m() -> FiniteModel:
    return base_model()


# --- carriers and points --------------------------------------------------------


def test_points_left_major(m):
    assert m.points(ProductSpace("X", "Y"))[:4] == [
        ("x1", "y1"), ("x1", "y2"), ("x1", "y3"), ("x2", "y1"),
    ]
    with pytest.raises(SignatureError):
        m.points("Z")


def model_on(carrier: str, members: str = "[]", spaces: str = '{"X": ["x"], "Y": ["y"]}') -> str:
    """A .pjm document with one set A on the carrier text."""
    return (
        f'{{"schema": "projcalc/1", "spaces": {spaces}, '
        f'"sets": {{"A": {{"carrier": "{carrier}", "members": {members}}}}}}}'
    )


@pytest.mark.parametrize("c", ["X", ProductSpace("X", "Y"), ProductSpace(ProductSpace("X", "X"), "Y")])
def test_carrier_round_trip(c):
    m = FiniteModel(spaces={"X": ("x",), "Y": ("y",)}, sets={"A": SetData(c, frozenset())})
    assert loads_model(dumps_model(m)).sets["A"].carrier is c


@pytest.mark.parametrize("bad", ["prod(X Y)", "prod(X, Y", "", "prod(, Y)", "X junk", "X\u00e9", "prod(X, Y))"])
def test_carrier_rejects(bad):
    with pytest.raises(FormatError, match="^bad carrier "):
        loads_model(model_on(bad))


def test_carrier_spellings():
    # the space syntax's spacing and keyword case; identifiers are the lexer's
    assert loads_model(model_on("  PROD( X ,prod(Y,X) ) ")).sets["A"].carrier is ProductSpace(
        "X", ProductSpace("Y", "X")
    )
    assert loads_model(model_on("X_1", spaces='{"X_1": ["x"]}')).sets["A"].carrier == "X_1"


@pytest.mark.parametrize("name", ["reals", "Nat", "BAIRE", "cantor", "prod", "Measures", "xreal", "XReal"])
def test_space_syntax_keywords_are_reserved(name):
    with pytest.raises(FormatError, match=f"^space name '{name}' is reserved"):
        loads_model(model_on("X", spaces=f'{{"X": ["x"], "{name}": ["v"]}}'))


def test_keyword_leaves_name_unknown_spaces():
    with pytest.raises(FormatError, match="^set 'A' names unknown space 'reals'$"):
        loads_model(model_on("prod(X, Reals)"))


def nested(depth: int, atom: str = "x", other: str = "x") -> tuple[str, str]:
    """A carrier that nests prod(..., X) depth deep, and the JSON of one of its points."""
    return "prod(" * depth + "X" + ", X)" * depth, "[" * depth + f'"{atom}"' + f', "{other}"]' * depth


def test_carrier_depth_is_bounded():
    # MAX_CARRIER_DEPTH loads, evaluates and dumps; one level more is refused
    carrier, point = nested(finitemodel.MAX_CARRIER_DEPTH)
    m = loads_model(model_on(carrier, members=f"[{point}]", spaces='{"X": ["x"]}'))
    assert evaluate(ast.Complement(S("A")), m).members == frozenset()
    assert loads_model(dumps_model(m)) == m
    for depth in (finitemodel.MAX_CARRIER_DEPTH + 1, 3000):
        with pytest.raises(FormatError, match="^malformed model: a carrier is nested too deeply$"):
            loads_model(model_on(nested(depth)[0], spaces='{"X": ["x"]}'))


def test_a_very_deep_carrier_is_refused_before_it_is_read():
    # the bracket depth gives the bound away long before the parser would
    text = model_on(nested(200_000)[0], spaces='{"X": ["x"]}')
    start = time.perf_counter()
    with pytest.raises(FormatError, match="^malformed model: a carrier is nested too deeply$"):
        loads_model(text)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("depth", [19, 40])
def test_deep_carriers_are_not_listed(depth):
    # validation tests each point against its carrier's structure: over a
    # 2-atom X, the 40-deep carrier has 2^41 points, and none is listed
    carrier, point = nested(depth, "x0", "x1")
    spaces = '{"X": ["x0", "x1"]}'
    start = time.perf_counter()
    assert len(loads_model(model_on(carrier, members=f"[{point}]", spaces=spaces)).sets["A"].members) == 1
    with pytest.raises(FormatError, match="must be total"):
        loads_model(
            f'{{"schema": "projcalc/1", "spaces": {spaces}, '
            f'"funcs": {{"f": {{"dom": "{carrier}", "cod": "xreal", "table": [[{point}, "0"]]}}}}}}'
        )
    assert time.perf_counter() - start < 0.5


# --- validation -----------------------------------------------------------------


def mutated(change) -> FiniteModel:
    m = base_model()
    change(m)
    return m


@pytest.mark.parametrize("change, fragment", [
    (lambda m: m.spaces.__setitem__("Z", ("z", "z")), "distinct atoms"),
    (lambda m: m.spaces.__setitem__("Z", ()), "distinct atoms"),
    (lambda m: m.spaces.__setitem__("xreal", ("v",)), "reserved"),
    (lambda m: m.sets.__setitem__("A", SetData("X", frozenset({"nope"}))), "outside its carrier"),
    (lambda m: m.funcs["s"].table.pop("x2"), "total"),
    (lambda m: m.funcs["g"].table.__setitem__("x1", "zz"), "outside its codomain"),
    (lambda m: m.funcs["s"].table.__setitem__("x1", Fraction(1)), "extended-real"),
    (lambda m: m.measures["mu"].weights.__setitem__("x1", Fraction(1)), "probability vector"),
    (lambda m: m.kernels["q"].rows.pop("x1"), "one row per atom"),
    (lambda m: m.kernels["q"].rows["x1"].pop("y1"), "weight every atom"),
    (lambda m: m.kernels["q"].rows["x1"].__setitem__("y1", Fraction(-1, 2)), "probability vector"),
])
def test_validate_rejects(change, fragment):
    with pytest.raises(FormatError, match=fragment):
        mutated(change).validate()


# --- wire format ----------------------------------------------------------------


def test_model_round_trip_canonical(m):
    text = dumps_model(m)
    m2 = loads_model(text)
    assert dumps_model(m2) == text
    assert m2.sets["S"].members == m.sets["S"].members
    assert m2.funcs["f"].table == m.funcs["f"].table
    assert m2.kernels["q"].rows == m.kernels["q"].rows


def test_model_disk_round_trip(m, tmp_path):
    path = tmp_path / "m.pjm"
    path.write_text(dumps_model(m), encoding="utf-8")
    assert dumps_model(loads_model(path.read_text(encoding="utf-8"))) == dumps_model(m)


@pytest.mark.parametrize("doc", [
    "[]",
    '{"schema": "projcalc/2"}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "sets": {"A": {"carrier": "X", "members": [3]}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "measures": {"m": {"space": "X", "weights": {"x": 0.5}}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "measures": {"m": {"space": "X", "weights": {"x": "1/0"}}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "funcs": {"f": {"dom": "X", "cod": "xreal", "table": [["x"]]}}}',
    '{"schema": "projcalc/1", "sets": []}',  # a section that is not an object
    pytest.param(
        '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "sets": {"A": {"carrier": "'
        + "prod(" * 3000 + "X" + ", X)" * 3000 + '", "members": []}}}',
        id="carrier-3000-deep",
    ),
    # every space a carrier, measure or kernel names must be declared
    '{"schema": "projcalc/1", "funcs": {"f": {"dom": "Z", "cod": "xreal", "table": []}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "kernels": {"k": {"src": "Nowhere", "dst": "X", "rows": {}}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "measures": {"m": {"space": "Z", "weights": {}}}}',
    '{"schema": "projcalc/1", "spaces": {"X": ["x"]}, "measures": {"m": {"space": [], "weights": {}}}}',
])
def test_loads_model_rejects(doc):
    with pytest.raises(FormatError):
        loads_model(doc)


def test_loads_model_json_offset():
    with pytest.raises(FormatError) as exc:
        loads_model('{"schema": }')
    assert exc.value.offset == 11


def test_loads_model_nested_json():
    # deeper than the JSON decoder's recursion allows: a format error, not RecursionError
    with pytest.raises(FormatError, match="nested too deeply"):
        loads_model('{"schema": "projcalc/1", "spaces": ' + "[" * 200_000)


def test_loads_model_huge_integer():
    # past int()'s 4300-digit limit, json.loads raises a plain ValueError
    doc = '{"schema": "projcalc/1", "spaces": {"X": [' + "9" * 5000 + "]}}"
    with pytest.raises(FormatError, match="an integer has too many digits"):
        loads_model(doc)


@pytest.mark.parametrize("section,error", [
    ('"funcs": {"f": {"dom": "Z", "cod": "xreal", "table": []}}', "function 'f' names unknown space 'Z'"),
    ('"sets": {"A": {"carrier": "prod(X, Z)", "members": []}}', "set 'A' names unknown space 'Z'"),
    ('"kernels": {"k": {"src": "Nowhere", "dst": "X", "rows": {}}}', "kernel 'k' names unknown space 'Nowhere'"),
    ('"measures": {"m": {"space": "Z", "weights": {}}}', "measure 'm' names unknown space 'Z'"),
], ids=["func", "set", "kernel", "measure"])
def test_loads_model_names_the_unknown_space(section, error):
    with pytest.raises(FormatError) as exc:
        loads_model('{"schema": "projcalc/1", "spaces": {"X": ["x"]}, ' + section + "}")
    assert str(exc.value) == error


@pytest.mark.parametrize("doc, message", [
    ('{"schema": "projcalc/1", "spaces": {"X": "xy"}}', "space 'X' atoms must be a list, got 'xy'"),
    (model_on("X", members='"xy"'), "set 'A' members must be a list, got 'xy'"),
    (model_on("X", members='{"x": 1}'), "set 'A' members must be a list, got {'x': 1}"),
])
def test_atoms_and_members_are_json_lists(doc, message):
    # a string was read one character at a time, an object by its keys
    with pytest.raises(FormatError) as exc:
        loads_model(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", ["1e3000000", "1E5", "2.5e-1"])
def test_rationals_take_no_exponent(value):
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"^bad rational '{value}'$"):
        loads_model('{"schema": "projcalc/1", "spaces": {"X": ["x"]}, '
                    f'"measures": {{"m": {{"space": "X", "weights": {{"x": "{value}"}}}}}}}}')
    with pytest.raises(FormatError, match="exponent"):
        loads_model('{"schema": "projcalc/1", "spaces": {"X": ["x"]}, '
                     f'"funcs": {{"f": {{"dom": "X", "cod": "xreal", "table": [["x", "{value}"]]}}}}}}')
    assert time.perf_counter() - start < 0.5


def test_loads_model_validates():
    # structurally fine, semantically bad: measure mass 2
    doc = (
        '{"schema": "projcalc/1", "spaces": {"X": ["x"]},'
        ' "measures": {"m": {"space": "X", "weights": {"x": "2/1"}}}}'
    )
    with pytest.raises(FormatError, match="probability"):
        loads_model(doc)


# --- set evaluation -------------------------------------------------------------


def S(name: str) -> ast.NamedSet:
    return ast.NamedSet(name)


# schedules only matter symbolically; finite evaluation ignores them
SCHED = ConstantClass(delta(1))


def test_eval_named_and_complement(m):
    assert eval_set(S("A"), m) == {"x1"}
    assert eval_set(ast.Complement(S("A")), m) == {"x2"}
    with pytest.raises(SignatureError):
        eval_set(S("missing"), m)


def test_eval_boolean_ops(m):
    assert eval_set(ast.FiniteUnion((S("A"), ast.Complement(S("A")))), m) == {"x1", "x2"}
    assert eval_set(ast.FiniteIntersection((S("B"), S("Yfull"))), m) == {"y2", "y3"}
    assert eval_set(ast.CountableUnion("n", "base", None, SCHED), m) == {"x1", "x2"}
    assert eval_set(ast.CountableIntersection("n", "base", None, SCHED), m) == {"x1"}
    with pytest.raises(UnsupportedConstructorError, match="no concrete members"):
        eval_set(ast.CountableUnion("n", "ghost", None, SCHED), m)


def test_eval_product_projection_section(m):
    prod = eval_set(ast.Product(S("A"), S("B")), m)
    assert prod == {("x1", "y2"), ("x1", "y3")}
    assert eval_set(ast.Projection(S("S"), 1), m) == {"x1", "x2"}
    assert eval_set(ast.Projection(S("S"), 2), m) == {"y1", "y2", "y3"}
    # named axis resolves against the carrier
    assert eval_set(ast.Projection(S("S"), "Y"), m) == {"y1", "y2", "y3"}
    with pytest.raises(SignatureError, match="ambiguous"):
        eval_set(ast.Projection(S("SQ"), "X"), m)
    with pytest.raises(SignatureError, match="product carrier"):
        eval_set(ast.Projection(S("A"), 1), m)
    assert eval_set(ast.Section(S("S"), 1, at="x1"), m) == {"y1", "y3"}
    assert eval_set(ast.Section(S("S"), 2, at="y2"), m) == {"x2"}
    with pytest.raises(UnsupportedConstructorError, match="concrete evaluation point"):
        eval_set(ast.Section(S("S"), 1), m)


def test_eval_images_and_graphs(m):
    assert eval_set(ast.BorelImage("g", S("A")), m) == {"y2"}
    assert eval_set(ast.Preimage(ast.NamedFunc("g"), S("B")), m) == {"x1"}
    graph = eval_set(ast.Graph(ast.NamedFunc("g")), m)
    assert graph == {("x1", "y2"), ("x2", "y1")}
    assert evaluate(ast.Graph(ast.NamedFunc("g")), m).carrier == ProductSpace("X", "Y")


def test_eval_sublevel_ops(m):
    f = ast.NamedFunc("f")
    assert eval_set(ast.Sublevel(f, "<", Fraction(1)), m) == {("x1", "y3"), ("x2", "y1"), ("x2", "y3")}
    assert eval_set(ast.Sublevel(f, "<=", Fraction(1)), m) == {
        ("x1", "y1"), ("x1", "y3"), ("x2", "y1"), ("x2", "y3"),
    }
    assert eval_set(ast.Sublevel(f, ">", Fraction(1)), m) == {("x1", "y2"), ("x2", "y2")}
    assert eval_set(ast.Sublevel(f, ">=", Fraction(1)), m) == {
        ("x1", "y1"), ("x1", "y2"), ("x2", "y2"),
    }
    with pytest.raises(SignatureError, match="extended-real"):
        eval_set(ast.Sublevel(ast.NamedFunc("g"), "<", Fraction(1)), m)


def test_eval_unsupported(m):
    with pytest.raises(UnsupportedConstructorError, match="measure-threshold"):
        eval_set(ast.MeasureThreshold(S("S"), Fraction(1, 2)), m)


def test_set_algebra_randomized():
    rng = random.Random(20260814)
    for _ in range(25):
        atoms = tuple(f"p{i}" for i in range(5))
        ys = tuple(f"q{i}" for i in range(3))
        model = FiniteModel(spaces={"X": atoms, "Y": ys})
        a = frozenset(p for p in atoms if rng.randrange(2))
        b = frozenset(p for p in atoms if rng.randrange(2))
        model.sets = {
            "A": SetData("X", a),
            "B": SetData("X", b),
            "Yfull": SetData("Y", frozenset(ys)),
        }
        model.validate()
        lhs = eval_set(ast.Complement(ast.FiniteUnion((S("A"), S("B")))), model)
        rhs = eval_set(
            ast.FiniteIntersection((ast.Complement(S("A")), ast.Complement(S("B")))), model
        )
        assert lhs == rhs  # De Morgan
        proj = eval_set(ast.Projection(ast.Product(S("A"), S("Yfull")), 1), model)
        assert proj == a  # projecting a full cylinder recovers the base


# --- function evaluation --------------------------------------------------------


def test_func_pair_and_compose(m):
    pair = func_data(ast.PairFunc(ast.NamedFunc("g"), ast.NamedFunc("g")), m)
    assert pair.cod == ProductSpace("Y", "Y")
    assert pair.table["x1"] == ("y2", "y2")
    comp = func_data(ast.Compose(ast.NamedFunc("r"), ast.NamedFunc("g")), m)
    assert comp.dom == "X" and comp.cod == "X"
    assert comp.table == {"x1": "x2", "x2": "x2"}


def test_func_cylinder(m):
    cyl = func_data(ast.CylinderExtend(ast.NamedFunc("s"), "Y"), m)
    assert cyl.dom == ProductSpace("X", "Y")
    assert cyl.table[("x1", "y3")] == fin(3)
    assert cyl.table[("x2", "y1")] == NEG_INF
    with pytest.raises(UnsupportedConstructorError, match="cylinder factors"):
        func_data(ast.CylinderExtend(ast.NamedFunc("s"), ast.Baire()), m)


def test_func_sections(m):
    row = func_data(ast.SectionOf(ast.NamedFunc("f"), 1, at="x2"), m)
    assert row.dom == "Y"
    assert row.table == {"y1": NEG_INF, "y2": POS_INF, "y3": fin(0)}
    col = func_data(ast.SectionOf(ast.NamedFunc("f"), 2, at="y2"), m)
    assert col.table == {"x1": fin(2), "x2": POS_INF}
    with pytest.raises(UnsupportedConstructorError, match="concrete point"):
        func_data(ast.SectionOf(ast.NamedFunc("f"), 1), m)


def test_func_arithmetic_conventions(m):
    s, t = ast.NamedFunc("s"), ast.NamedFunc("t")
    total = func_data(ast.Sum(s, t), m)
    assert total.table["x1"] == fin(2)
    assert total.table["x2"] == NEG_INF  # -inf + +inf resolves low
    prod = func_data(ast.ProdOp(s, t), m)
    assert prod.table["x1"] == fin(-3)
    assert prod.table["x2"] == NEG_INF
    zero = func_data(ast.ProdOp(t, ast.Sum(ast.NamedFunc("u_0"), ast.NamedFunc("u_1"))), m)
    assert zero.table["x2"] == fin(0)  # 0 * +inf = 0
    assert func_data(ast.MinOp(s, t), m).table == {"x1": fin(-1), "x2": NEG_INF}
    assert func_data(ast.MaxOp(s, t), m).table == {"x1": fin(3), "x2": POS_INF}
    assert func_data(ast.Neg(t), m).table == {"x1": fin(1), "x2": NEG_INF}
    with pytest.raises(SignatureError, match="pointwise arithmetic"):
        func_data(ast.Sum(ast.NamedFunc("g"), s), m)


def test_func_inner_product(m):
    pair = ast.PairFunc(ast.NamedFunc("s"), ast.NamedFunc("t"))
    ip = func_data(ast.InnerProduct(pair, pair), m)
    assert ip.table["x1"] == fin(10)  # 3*3 + (-1)(-1)
    assert ip.table["x2"] == POS_INF  # (-inf)^2 + (+inf)^2


def test_func_power(m):
    sq = func_data(ast.Power(ast.NamedFunc("t"), Fraction(2)), m)
    assert sq.table == {"x1": fin(1), "x2": POS_INF}
    cube = func_data(ast.Power(ast.NamedFunc("s"), Fraction(3)), m)
    assert cube.table == {"x1": fin(27), "x2": NEG_INF}
    even = func_data(ast.Power(ast.NamedFunc("s"), Fraction(2)), m)
    assert even.table["x2"] == POS_INF  # even power flips -inf


def test_func_fractional_power_is_exact():
    # rational roots come out exact; an irrational one is refused, never
    # rounded through a float
    pm = FiniteModel(
        spaces={"X": ("a", "b", "c")},
        funcs={"u": FuncData("X", XREAL, {"a": fin(Fraction(9, 4)), "b": fin(0), "c": POS_INF})},
    )
    half = func_data(ast.Power(ast.NamedFunc("u"), Fraction(1, 2)), pm)
    assert half.table == {"a": fin(Fraction(3, 2)), "b": fin(0), "c": POS_INF}
    assert func_data(ast.Power(ast.NamedFunc("u"), Fraction(3, 2)), pm).table["a"] == fin(Fraction(27, 8))
    big = Fraction(3**40, 7**20)
    pm.funcs["u"] = FuncData("X", XREAL, {"a": fin(big), "b": fin(1), "c": fin(0)})
    assert func_data(ast.Power(ast.NamedFunc("u"), Fraction(1, 20)), pm).table["a"] == fin(Fraction(9, 7))
    pm.funcs["u"] = FuncData("X", XREAL, {"a": fin(2), "b": fin(1), "c": fin(0)})
    with pytest.raises(UnsupportedConstructorError, match="no exact rational value at 'a'"):
        func_data(ast.Power(ast.NamedFunc("u"), Fraction(1, 2)), pm)
    # a root index far past the base's size costs nothing, exact or not
    with pytest.raises(UnsupportedConstructorError):
        func_data(ast.Power(ast.NamedFunc("u"), Fraction(1, 10**9)), pm)
    pm.funcs["u"] = FuncData("X", XREAL, {"a": fin(1), "b": fin(1), "c": fin(0)})
    tiny = func_data(ast.Power(ast.NamedFunc("u"), Fraction(1, 10**9)), pm)
    assert tiny.table == {"a": fin(1), "b": fin(1), "c": fin(0)}


def test_func_countable_family(m):
    sup = func_data(ast.CountableSup("n", "u", None, SCHED), m)
    assert sup.table == {"x1": fin(4), "x2": fin(5)}
    inf = func_data(ast.CountableInf("n", "u", None, SCHED), m)
    assert inf.table == {"x1": fin(0), "x2": fin(-5)}
    with pytest.raises(UnsupportedConstructorError):
        func_data(ast.CountableSup("n", "ghost", None, SCHED), m)


def test_func_partial_extrema(m):
    lo = func_data(ast.PartialInf(ast.NamedFunc("f"), ast.NamedSet("S")), m)
    assert lo.dom == "X" and lo.cod == XREAL
    assert lo.table == {"x1": fin(Fraction(-1, 2)), "x2": POS_INF}
    hi = func_data(ast.PartialSup(ast.NamedFunc("f"), ast.NamedSet("S")), m)
    assert hi.table == {"x1": fin(1), "x2": POS_INF}
    # partial: domain only covers proj of the constraint set
    empty = func_data(
        ast.PartialInf(ast.NamedFunc("f"), ast.FiniteIntersection((S("S"), ast.Complement(S("S"))))),
        m,
    )
    assert empty.table == {}


def test_func_integral_kernel(m):
    out = func_data(ast.IntegralKernel(ast.NamedFunc("f"), "q"), m)
    assert out.dom == "X" and out.cod == XREAL
    assert out.table["x1"] == fin(Fraction(3, 2))  # (1 + 2) / 2, y3 carries no mass
    assert out.table["x2"] == fin(0)


def test_func_integral_both_infinite():
    # a row putting mass 1/2 on a +inf value and 1/2 on a -inf value
    m = FiniteModel(
        spaces={"X": ("x",), "Y": ("y1", "y2")},
        funcs={"w": FuncData(ProductSpace("X", "Y"), XREAL, {("x", "y1"): POS_INF, ("x", "y2"): NEG_INF})},
        kernels={"k": KernelData("X", "Y", {"x": {"y1": Fraction(1, 2), "y2": Fraction(1, 2)}})},
    )
    m.validate()
    out = func_data(ast.IntegralKernel(ast.NamedFunc("w"), "k"), m)
    assert out.table["x"] == NEG_INF  # lower integral resolves the clash down


def test_func_select_and_from_graph(m):
    sel = func_data(ast.Select(ast.NamedSet("S")), m)
    assert sel.table == {"x1": "y1", "x2": "y2"}  # least y per section
    picked = func_data(ast.FromGraph(ast.NamedSet("S"), ast.NamedSet("A")), m)
    assert picked.table == {"x1": "y1"}  # x2 is outside the domain set


def test_func_unsupported(m):
    with pytest.raises(UnsupportedConstructorError):
        func_data(
            ast.EpsSelector(ast.NamedSet("S"), ast.NamedFunc("f"), Fraction(1), "inf"), m
        )
    with pytest.raises(SignatureError):
        func_data(ast.NamedFunc("missing"), m)


def test_measure_of(m):
    assert measure_of(m, "mu", frozenset({"x1"})) == Fraction(1, 3)
    assert measure_of(m, "mu", frozenset({"x1", "x2"})) == 1
    assert measure_of(m, "mu", frozenset()) == 0


# --- the one fold -----------------------------------------------------------------
#
# tests/oracles.py keeps the recursive ladders the fold replaced (set members,
# function tables and set carriers, each walking its operands again); the fold
# must give what they gave, and the same error where they gave one of ours.


def outcome(run):
    try:
        return "ok", run()
    except Exception as exc:  # compared by type and message
        return "error", type(exc), str(exc)


def fold_outcome(e, m):
    value = evaluate(e, m)
    if isinstance(value, SetData):
        return value.members, value.carrier
    return value.table, value.dom, value.cod


def ladder_outcome(e, m):
    if type(e) in SET_NODES:
        return oracles.reference_eval_set(e, m), oracles.reference_set_carrier_of(e, m)
    f = oracles.reference_func_data(e, m)
    return f.table, f.dom, f.cod


SET_NODES = set(ast.SetExpr.__args__)
FUNC_NODES = set(ast.FuncExpr.__args__)
EVALUATED = (SET_NODES | FUNC_NODES) - {ast.MeasureThreshold, ast.EpsSelector}

X, Y = "X", "Y"
CARRIERS = (X, Y, ProductSpace(X, Y), ProductSpace(Y, X))
OTHER = {X: Y, Y: X}
VALUES = [NEG_INF, POS_INF] + [fin(Fraction(a, b)) for a in range(-3, 4) for b in (1, 2)]


def random_model(rng: random.Random) -> FiniteModel:
    """Named sets on every carrier, a function for every signature, two
    families, and a kernel from X to Y, all drawn at random."""
    m = FiniteModel(spaces={
        X: tuple(f"x{i}" for i in range(rng.randint(1, 3))),
        Y: tuple(f"y{i}" for i in range(rng.randint(1, 3))),
    })
    for i, c in enumerate(CARRIERS):
        for j in range(2):
            m.sets[f"s{i}{j}"] = SetData(c, frozenset(p for p in m.points(c) if rng.randrange(2)))
        for k, cod in enumerate((*CARRIERS, XREAL)):
            pick = (lambda: rng.choice(VALUES)) if cod == XREAL else (lambda: rng.choice(m.points(cod)))
            m.funcs[f"f{i}{k}"] = FuncData(c, cod, {p: pick() for p in m.points(c)})
    for i in range(rng.randint(1, 3)):
        m.sets[f"base_{i}"] = SetData(X, frozenset(p for p in m.points(X) if rng.randrange(2)))
        m.funcs[f"u_{i}"] = FuncData(X, XREAL, {p: rng.choice(VALUES) for p in m.points(X)})
    rows = {}
    for x in m.spaces[X]:
        raw = [rng.randint(0, 3) for _ in m.spaces[Y]]
        raw[0] += raw == [0] * len(raw)
        rows[x] = {y: Fraction(w, sum(raw)) for y, w in zip(m.spaces[Y], raw)}
    m.kernels["q"] = KernelData(X, Y, rows)
    m.validate()
    return m


def set_name(m, c, rng):
    return S(rng.choice([n for n, s in sorted(m.sets.items()) if s.carrier == c and "_" not in n]))


def func_name(m, dom, cod, rng):
    names = [n for n, f in sorted(m.funcs.items()) if (f.dom, f.cod) == (dom, cod) and "_" not in n]
    return rng.choice(names)


def random_set(rng, m, c, depth):
    """A well-typed set expression on carrier c, at most depth nodes deep."""
    forms = ["name"] + (["family"] if c == X else [])
    if depth > 1:
        forms += ["compl", "union", "inter", "pre", "sublevel"]
        forms += ["prod", "graph"] if isinstance(c, ProductSpace) else ["proj", "img", "section"]
    form, d = rng.choice(forms), depth - 1
    o = OTHER.get(c)
    if form == "name":
        return set_name(m, c, rng)
    if form == "family":
        return rng.choice((ast.CountableUnion, ast.CountableIntersection))("n", "base", None, SCHED)
    if form == "compl":
        return ast.Complement(random_set(rng, m, c, d))
    if form in ("union", "inter"):
        node = ast.FiniteUnion if form == "union" else ast.FiniteIntersection
        return node(tuple(random_set(rng, m, c, d) for _ in range(rng.randint(2, 3))))
    if form == "pre":
        mid = rng.choice(CARRIERS)
        return ast.Preimage(random_func(rng, m, c, mid, d), random_set(rng, m, mid, d))
    if form == "sublevel":
        bound = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return ast.Sublevel(random_func(rng, m, c, XREAL, d), rng.choice(("<", "<=", ">", ">=")), bound)
    if form == "prod":
        return ast.Product(random_set(rng, m, c.left, d), random_set(rng, m, c.right, d))
    if form == "graph":
        return ast.Graph(random_func(rng, m, c.left, c.right, d))
    if form == "proj":
        if rng.randrange(2):
            return ast.Projection(random_set(rng, m, ProductSpace(c, o), d), rng.choice((1, c)))
        return ast.Projection(random_set(rng, m, ProductSpace(o, c), d), rng.choice((2, c)))
    if form == "img":
        dom = rng.choice(CARRIERS)
        return ast.BorelImage(func_name(m, dom, c, rng), random_set(rng, m, dom, d))
    at = rng.choice(m.spaces[o])
    if rng.randrange(2):
        return ast.Section(random_set(rng, m, ProductSpace(o, c), d), 1, at=at)
    return ast.Section(random_set(rng, m, ProductSpace(c, o), d), 2, at=at)


def random_func(rng, m, dom, cod, depth):
    """A well-typed function expression from dom to cod, at most depth nodes deep."""
    if cod == ProductSpace(XREAL, XREAL):  # no model function has it; pair builds it at any depth
        d = max(depth - 1, 1)
        return ast.PairFunc(random_func(rng, m, dom, XREAL, d), random_func(rng, m, dom, XREAL, d))
    forms = ["name"] + (["family"] if (dom, cod) == (X, XREAL) else [])
    if depth > 1:
        forms.append("compose")
        if isinstance(cod, ProductSpace):
            forms.append("pair")
        if isinstance(dom, ProductSpace):
            forms.append("cyl")
        else:
            forms.append("fsection")
            forms += ["select", "from_graph"] if cod == OTHER[dom] else []
        if cod == XREAL:
            forms += ["arith", "neg", "inner", "pow"] + (["over"] if dom in (X, Y) else [])
            forms += ["integral"] if dom == X else []
    form, d = rng.choice(forms), depth - 1
    if form == "name":
        return ast.NamedFunc(func_name(m, dom, cod, rng))
    if form == "family":
        return rng.choice((ast.CountableSup, ast.CountableInf))("n", "u", None, SCHED)
    if form == "compose":
        mid = rng.choice((X, Y))
        return ast.Compose(random_func(rng, m, mid, cod, d), random_func(rng, m, dom, mid, d))
    if form == "pair":
        return ast.PairFunc(random_func(rng, m, dom, cod.left, d), random_func(rng, m, dom, cod.right, d))
    if form == "cyl":
        return ast.CylinderExtend(random_func(rng, m, dom.left, cod, d), dom.right)
    if form == "fsection":
        o = OTHER[dom]
        at = rng.choice(m.spaces[o])
        if rng.randrange(2):
            return ast.SectionOf(random_func(rng, m, ProductSpace(o, dom), cod, d), 1, at=at)
        return ast.SectionOf(random_func(rng, m, ProductSpace(dom, o), cod, d), 2, at=at)
    if form == "select":
        return ast.Select(random_set(rng, m, ProductSpace(dom, cod), d))
    if form == "from_graph":
        return ast.FromGraph(random_set(rng, m, ProductSpace(dom, cod), d), random_set(rng, m, dom, d))
    if form == "arith":
        node = rng.choice((ast.Sum, ast.ProdOp, ast.MinOp, ast.MaxOp))
        return node(random_func(rng, m, dom, XREAL, d), random_func(rng, m, dom, XREAL, d))
    if form == "neg":
        return ast.Neg(random_func(rng, m, dom, XREAL, d))
    if form == "inner":
        v = rng.choice((XREAL, ProductSpace(XREAL, XREAL)))
        return ast.InnerProduct(random_func(rng, m, dom, v, d), random_func(rng, m, dom, v, d))
    if form == "pow":  # whole exponents: a refused root is pinned by the defect table below
        return ast.Power(random_func(rng, m, dom, XREAL, d), Fraction(rng.randint(1, 3)))
    if form == "over":
        on = ProductSpace(dom, OTHER[dom])
        node = rng.choice((ast.PartialInf, ast.PartialSup))
        return node(random_func(rng, m, on, XREAL, d), random_set(rng, m, on, d))
    return ast.IntegralKernel(random_func(rng, m, ProductSpace(X, Y), XREAL, d), "q")


def test_fold_matches_the_recursive_ladders():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(60):
        m = random_model(rng)
        for _ in range(25):
            if rng.randrange(2):
                e = random_set(rng, m, rng.choice(CARRIERS), rng.randint(2, 4))
            else:
                cod = rng.choice((*CARRIERS, XREAL))
                e = random_func(rng, m, rng.choice(CARRIERS), cod, rng.randint(2, 4))
            ast.fold(e, lambda node, _: seen.add(type(node)))
            assert outcome(lambda: fold_outcome(e, m)) == outcome(lambda: ladder_outcome(e, m)), e
    assert seen == EVALUATED


def defect_model() -> FiniteModel:
    m = base_model()
    m.funcs["v_0"] = m.funcs["g"]  # a family of functions that are not scalar
    m.sets["Z"] = SetData("Nowhere", frozenset())  # a set on a space the model lacks
    return m


F = ast.NamedFunc
# one defect per check a node makes, each reported as the ladders reported it
SINGLE_DEFECTS = [
    S("missing"),
    ast.Complement(F("g")),
    ast.Complement(S("Z")),
    ast.FiniteUnion((S("A"), F("g"))),
    ast.FiniteIntersection((F("g"), S("A"))),
    ast.CountableUnion("n", "ghost", None, SCHED),
    ast.CountableIntersection("n", "ghost", None, SCHED),
    ast.Product(S("A"), F("g")),
    ast.Projection(S("A"), 1),
    ast.Projection(S("SQ"), "X"),
    ast.Projection(S("S"), 3),
    ast.Projection(S("S"), "Z"),
    ast.BorelImage("g", F("g")),
    ast.Preimage(S("A"), S("B")),
    ast.Preimage(F("missing"), S("B")),
    ast.Section(S("S"), 1),
    ast.Section(S("A"), 1, at="x1"),
    ast.Graph(S("A")),
    ast.Graph(F("missing")),
    ast.Sublevel(F("g"), "<", Fraction(1)),
    ast.MeasureThreshold(S("S"), Fraction(1, 2)),
    F("missing"),
    ast.PairFunc(F("g"), S("A")),
    ast.CylinderExtend(F("s"), ast.Baire()),
    ast.CylinderExtend(F("s"), "Nowhere"),
    ast.Compose(F("missing"), F("g")),
    ast.SectionOf(F("f"), 1),
    ast.SectionOf(F("s"), 1, at="x1"),
    ast.Sum(F("g"), F("s")),
    ast.ProdOp(F("s"), F("g")),
    ast.MinOp(F("g"), F("s")),
    ast.MaxOp(F("s"), F("g")),
    ast.Neg(F("g")),
    ast.InnerProduct(S("A"), F("s")),
    ast.Power(F("g"), Fraction(2)),
    ast.Power(F("s"), Fraction(1, 2)),
    ast.CountableSup("n", "ghost", None, SCHED),
    ast.CountableInf("n", "v", None, SCHED),
    ast.PartialInf(F("g"), S("S")),
    ast.PartialSup(F("f"), S("missing")),
    ast.IntegralKernel(F("g"), "q"),
    ast.Select(F("g")),
    ast.Select(S("missing")),
    ast.FromGraph(S("S"), F("g")),
    ast.EpsSelector(S("S"), F("f"), Fraction(1), "inf"),
]


@pytest.mark.parametrize("e", SINGLE_DEFECTS, ids=lambda e: type(e).__name__)
def test_single_defects_report_as_before(e):
    m = defect_model()
    fold = outcome(lambda: fold_outcome(e, m))
    assert fold[0] == "error" and issubclass(fold[1], (SignatureError, UnsupportedConstructorError))
    assert fold == outcome(lambda: ladder_outcome(e, m))


def test_expression_of_the_other_kind(m):
    with pytest.raises(UnsupportedConstructorError, match="no finite semantics for NamedFunc"):
        eval_set(F("g"), m)
    with pytest.raises(UnsupportedConstructorError, match="no finite semantics for NamedSet"):
        func_data(S("A"), m)


# each ended in a bare Python error in the ladders; the fold names the defect
ILL_TYPED = [
    (ast.BorelImage("nope", S("A")), "model has no function 'nope'"),
    (ast.IntegralKernel(F("f"), "nope"), "model has no kernel 'nope'"),
    (ast.IntegralKernel(ast.CylinderExtend(F("s"), "X"), "q"), r"needs a function on prod\(X, Y\)"),
    (ast.Select(S("A")), "select needs a product carrier"),
    (ast.FromGraph(S("A"), S("A")), "from_graph needs a product carrier"),
    (ast.PartialInf(F("s"), S("A")), "inf_over/sup_over needs a product carrier"),
    (ast.PartialSup(F("s"), S("A")), "inf_over/sup_over needs a product carrier"),
    (ast.PartialInf(F("f"), S("SQ")), "needs its set on the function's domain"),
    (ast.InnerProduct(F("g"), F("g")), "inner products need"),
    (ast.InnerProduct(F("s"), ast.PairFunc(F("s"), F("t"))), "inner products need"),
    (ast.FiniteIntersection(()), "needs a member"),
]


@pytest.mark.parametrize("e, message", ILL_TYPED, ids=[type(e).__name__ for e, _ in ILL_TYPED])
def test_ill_typed_expressions_are_signature_errors(m, e, message):
    bare = (KeyError, AttributeError, ValueError, TypeError, RecursionError)
    with pytest.raises(bare):
        ladder_outcome(e, m)
    with pytest.raises(SignatureError, match=message):
        fold_outcome(e, m)


def test_union_members_share_a_carrier(m):
    e = ast.FiniteUnion((S("S"), S("A")))
    # the ladders gave a set with members off its own carrier
    members = oracles.reference_eval_set(e, m)
    assert not members <= set(m.points(oracles.reference_set_carrier_of(e, m)))
    with pytest.raises(SignatureError, match="must share a carrier"):
        eval_set(e, m)


def test_partial_integrands_and_objectives_are_read_where_defined(m):
    # inf_over(f, S) restricted to x1 is defined at x1 only, and so is its cylinder
    at_x1 = ast.FiniteIntersection((S("S"), ast.Product(S("A"), S("Yfull"))))
    cyl = ast.CylinderExtend(ast.PartialInf(F("f"), at_x1), "Y")
    integral = ast.IntegralKernel(cyl, "q")
    assert func_data(integral, m).table == {"x1": fin(Fraction(-1, 2))}
    optimum = ast.PartialSup(cyl, S("S"))
    assert func_data(optimum, m).table == {"x1": fin(Fraction(-1, 2))}
    for e in (integral, optimum):  # the ladders read the table at x2
        with pytest.raises(KeyError):
            ladder_outcome(e, m)


def test_product_evaluates_both_factors(m):
    # the ladders never evaluated the right factor of an empty left one
    e = ast.Product(ast.FiniteIntersection((S("A"), ast.Complement(S("A")))), S("missing"))
    assert oracles.reference_eval_set(e, m) == frozenset()
    with pytest.raises(SignatureError, match="model has no set 'missing'"):
        eval_set(e, m)


def test_deep_nests_evaluate(m):
    e, f = S("A"), F("s")
    for _ in range(5000):
        e, f = ast.Complement(e), ast.Neg(f)
    assert eval_set(e, m) == {"x1"}
    assert func_data(f, m).table == m.funcs["s"].table


def _nested_dot(u, v):
    # the inner product as the nested binary sums it is defined by
    if isinstance(u, XReal):
        return xreal_prod(u, v)
    return xreal_sum([_nested_dot(u[0], v[0]), _nested_dot(u[1], v[1])])


def test_inner_product_sums_as_the_nesting_does():
    rng = random.Random(5)
    entries = [NEG_INF, POS_INF, fin(0), fin(Fraction(1, 2)), fin(-3)]

    def shape(depth):  # None for an entry, else a pair of shapes
        return None if depth == 0 or rng.random() < 0.3 else (shape(depth - 1), shape(depth - 1))

    def fill(s):
        return rng.choice(entries) if s is None else (fill(s[0]), fill(s[1]))

    for _ in range(2000):
        s = shape(4)
        u, v = fill(s), fill(s)
        assert finitemodel._dot(u, v) == _nested_dot(u, v), (u, v)


def test_deep_inner_products_evaluate():
    # 3000 nested pairs, deeper than the recursion limit; f is +inf at one
    # point and -inf at another, so the sums meet both infinities
    m = loads_model((Path(__file__).resolve().parents[1] / "demos" / "models" / "two_by_three.pjm").read_text())
    p = F("f")
    for _ in range(3000):
        p = ast.PairFunc(p, F("f"))
    table = evaluate(ast.InnerProduct(p, p), m).table
    assert table == {point: xreal_sum([xreal_prod(v, v)] * 3001) for point, v in m.funcs["f"].table.items()}
    assert table[("x1", "y1")] == POS_INF and table[("x0", "y0")] == fin(Fraction(3001, 9))


def test_combine_runs_once_per_node(m, monkeypatch):
    e = S("A")
    for _ in range(400):
        e = ast.Complement(ast.FiniteUnion((e, S("base_0"))))  # 800 deep
    nodes = ast.fold(e, lambda _, kids: 1 + sum(kids))
    calls = []
    combine = finitemodel._combine
    monkeypatch.setattr(finitemodel, "_combine", lambda *args: calls.append(1) or combine(*args))
    assert eval_set(e, m) == frozenset()  # compl(X) after an even number of rounds
    assert len(calls) == nodes == 1201

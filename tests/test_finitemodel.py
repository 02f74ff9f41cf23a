"""Finite-model io, validation, and exact evaluation of the operator AST."""

import random
from fractions import Fraction

import pytest

from projcalc import ast
from projcalc.errors import FormatError, SignatureError, UnsupportedConstructorError
from projcalc.pointclass import ConstantClass, delta
from projcalc.finitemodel import (
    XREAL,
    FiniteModel,
    FuncData,
    KernelData,
    MeasureData,
    Prod,
    SetData,
    dumps_model,
    eval_set,
    format_carrier,
    func_data,
    loads_model,
    measure_of,
    parse_carrier,
    set_carrier_of,
)
from projcalc.xreal import NEG_INF, POS_INF, fin


def base_model() -> FiniteModel:
    m = FiniteModel(
        spaces={"X": ("x1", "x2"), "Y": ("y1", "y2", "y3")},
        sets={
            "A": SetData("X", frozenset({"x1"})),
            "B": SetData("Y", frozenset({"y2", "y3"})),
            "Yfull": SetData("Y", frozenset({"y1", "y2", "y3"})),
            "S": SetData(Prod("X", "Y"), frozenset({("x1", "y1"), ("x1", "y3"), ("x2", "y2")})),
            "SQ": SetData(Prod("X", "X"), frozenset({("x1", "x1")})),
            "base_0": SetData("X", frozenset({"x1"})),
            "base_1": SetData("X", frozenset({"x1", "x2"})),
        },
        funcs={
            "f": FuncData(Prod("X", "Y"), XREAL, {
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
    assert m.points(Prod("X", "Y"))[:4] == [
        ("x1", "y1"), ("x1", "y2"), ("x1", "y3"), ("x2", "y1"),
    ]
    with pytest.raises(SignatureError):
        m.points("Z")


@pytest.mark.parametrize("c", ["X", Prod("X", "Y"), Prod(Prod("X", "X"), "Y")])
def test_carrier_round_trip(c):
    assert parse_carrier(format_carrier(c)) == c


@pytest.mark.parametrize("bad", ["prod(X Y)", "prod(X, Y", "", "prod(, Y)", "X junk"])
def test_carrier_rejects(bad):
    with pytest.raises(FormatError):
        parse_carrier(bad)


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
    assert set_carrier_of(ast.Graph(ast.NamedFunc("g")), m) == Prod("X", "Y")


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
    assert pair.cod == Prod("Y", "Y")
    assert pair.table["x1"] == ("y2", "y2")
    comp = func_data(ast.Compose(ast.NamedFunc("r"), ast.NamedFunc("g")), m)
    assert comp.dom == "X" and comp.cod == "X"
    assert comp.table == {"x1": "x2", "x2": "x2"}


def test_func_cylinder(m):
    cyl = func_data(ast.CylinderExtend(ast.NamedFunc("s"), "Y"), m)
    assert cyl.dom == Prod("X", "Y")
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
        funcs={"w": FuncData(Prod("X", "Y"), XREAL, {("x", "y1"): POS_INF, ("x", "y2"): NEG_INF})},
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

"""Extended-real conventions and generalized integrals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcalc.xreal import (
    NEG_INF,
    POS_INF,
    ZERO,
    XReal,
    fin,
    format_xreal,
    integral_lower,
    integral_upper,
    neg_part,
    parse_xreal,
    pos_part,
    xreal_prod,
    xreal_sum,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
xreals = st.one_of(st.just(NEG_INF), st.just(POS_INF), rationals.map(fin))


class TestConventions:
    # the full fixed table, asserted item by item
    def test_convention_table(self):
        assert NEG_INF + POS_INF == NEG_INF
        assert POS_INF - POS_INF == NEG_INF
        assert -POS_INF == NEG_INF
        assert +NEG_INF == NEG_INF
        assert ZERO * POS_INF == ZERO
        assert ZERO * NEG_INF == ZERO
        assert POS_INF * ZERO == ZERO
        assert NEG_INF * ZERO == ZERO

    def test_sum_neg_inf_dominates(self):
        assert xreal_sum([POS_INF, fin(3), NEG_INF]) == NEG_INF
        assert xreal_sum([NEG_INF, POS_INF]) == NEG_INF
        assert xreal_sum([POS_INF, fin(-7)]) == POS_INF
        assert xreal_sum([fin(Fraction(1, 3)), fin(Fraction(1, 6))]) == fin(Fraction(1, 2))
        assert xreal_sum([]) == ZERO

    def test_product_signs(self):
        assert xreal_prod(POS_INF, NEG_INF) == NEG_INF
        assert xreal_prod(NEG_INF, NEG_INF) == POS_INF
        assert xreal_prod(fin(-2), POS_INF) == NEG_INF
        assert xreal_prod(fin(Fraction(2, 3)), fin(Fraction(3, 2))) == fin(1)

    @given(xreals, xreals)
    def test_sum_commutative(self, a, b):
        assert a + b == b + a

    @given(xreals, xreals, xreals)
    def test_sum_fold_matches_list(self, a, b, c):
        # list sum and left fold agree despite the absorbing conventions
        assert xreal_sum([a, b, c]) == xreal_sum([xreal_sum([a, b]), c])

    @given(xreals, xreals)
    def test_prod_commutative(self, a, b):
        assert xreal_prod(a, b) == xreal_prod(b, a)

    @given(xreals)
    def test_neg_involution(self, a):
        assert -(-a) == a

    @given(xreals)
    def test_parts_decompose(self, a):
        assert pos_part(a) >= ZERO and neg_part(a) >= ZERO
        if a.is_finite:
            assert pos_part(a) - neg_part(a) == a

    def test_order(self):
        assert NEG_INF < fin(-(10**9)) < fin(0) < fin(10**9) < POS_INF

    @given(xreals, xreals)
    def test_order_is_sign_then_value(self, a, b):
        # the comparisons skip the tuple, but must keep (sign, fin) order
        ka, kb = (a.sign, a.fin), (b.sign, b.fin)
        assert (a < b) == (ka < kb)
        assert (a <= b) == (ka <= kb)
        assert (a > b) == (ka > kb)
        assert (a >= b) == (ka >= kb)
        assert (a == b) == (ka == kb)


class TestConstruction:
    def test_finite_part_is_a_fraction(self):
        assert type(fin(3).fin) is Fraction
        assert type(XReal(0, -2).fin) is Fraction
        q = Fraction(1, 3)
        assert fin(q).fin is q  # no re-wrap

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            XReal(0, 0.5)
        with pytest.raises(TypeError):
            fin(0.1)
        with pytest.raises(TypeError):
            XReal(1, 0.0)

    def test_infinite_values_carry_no_finite_part(self):
        with pytest.raises(ValueError):
            XReal(1, Fraction(1))
        with pytest.raises(ValueError):
            XReal(2)

    def test_slotted_and_frozen(self):
        x = fin(1)
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.fin = Fraction(2)


class TestParseFormat:
    @given(xreals)
    def test_round_trip(self, a):
        assert parse_xreal(format_xreal(a)) == a

    def test_fixed_forms(self):
        assert format_xreal(NEG_INF) == "-inf"
        assert format_xreal(POS_INF) == "+inf"
        assert format_xreal(fin(Fraction(-3, 7))) == "-3/7"
        assert parse_xreal("inf") == POS_INF

    def test_no_floats(self):
        with pytest.raises(ValueError):
            parse_xreal("0.5e3x")

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "0.5e3", "1e10000000"])
    def test_no_exponents(self, text):
        # Fraction("1e10000000") alone takes seconds to expand
        with pytest.raises(ValueError, match="exponent"):
            parse_xreal(text)

    @pytest.mark.parametrize("text, value", [(" -3/4 ", Fraction(-3, 4)), ("1.5", Fraction(3, 2)), ("+2", Fraction(2))])
    def test_other_rational_forms_stay(self, text, value):
        assert parse_xreal(text) == fin(value)


class TestIntegrals:
    def test_finite_case(self):
        f = {"a": fin(2), "b": fin(-4)}
        p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert integral_lower(f, p) == fin(-1)
        assert integral_upper(f, p) == fin(-1)

    def test_one_part_infinite(self):
        f = {"a": POS_INF, "b": fin(-1)}
        p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert integral_lower(f, p) == POS_INF
        f2 = {"a": NEG_INF, "b": fin(1)}
        assert integral_lower(f2, p) == NEG_INF

    def test_both_parts_infinite_branch(self):
        # frozen by hand: I+ = I- = +inf, so the two integrals split
        f = {"a": POS_INF, "b": NEG_INF}
        p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert integral_lower(f, p) == NEG_INF
        assert integral_upper(f, p) == POS_INF

    def test_null_mass_annihilates_infinity(self):
        f = {"a": POS_INF, "b": fin(3)}
        p = {"a": Fraction(0), "b": Fraction(1)}
        assert integral_lower(f, p) == fin(3)
        assert integral_upper(f, p) == fin(3)

    @given(st.dictionaries(st.sampled_from("abcd"), rationals, min_size=1))
    def test_lower_equals_upper_on_finite_tables(self, vals):
        f = {k: fin(v) for k, v in vals.items()}
        n = len(f)
        p = {k: Fraction(1, n) for k in f}
        assert integral_lower(f, p) == integral_upper(f, p)
        expected = sum((v * Fraction(1, n) for v in vals.values()), Fraction(0))
        assert integral_lower(f, p) == fin(expected)

    @given(st.lists(st.sampled_from([NEG_INF, POS_INF, fin(0), fin(1), fin(-1)]), min_size=1, max_size=4))
    def test_lower_below_upper(self, vals):
        f = {i: v for i, v in enumerate(vals)}
        p = {i: Fraction(1, len(vals)) for i in range(len(vals))}
        assert integral_lower(f, p) <= integral_upper(f, p)

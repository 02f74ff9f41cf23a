"""Lattice of canonical tokens, checked against the closure oracle."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcalc.pointclass import (
    LEVEL_CAP,
    BoundedBy,
    ConstantClass,
    ExplicitList,
    Kind,
    LevelOverflowError,
    PointClass,
    Unbounded,
    UnboundedScheduleError,
    complement_class,
    delta,
    join,
    leq,
    meet,
    parse_class_token,
    pi,
    product_class,
    projection_class,
    schedule_bound,
    sigma,
)

from .oracles import LatticeOracle, token_universe

ORACLE = LatticeOracle(8)
TOKENS_8 = token_universe(8)
TOKENS_10 = token_universe(10)

tokens = st.builds(
    PointClass,
    kind=st.sampled_from(list(Kind)),
    level=st.integers(min_value=1, max_value=30),
)


class TestOrder:
    def test_matches_closure_oracle(self):
        for a, b in itertools.product(TOKENS_8, repeat=2):
            assert leq(a, b) == ORACLE.leq(a, b), (a, b)

    def test_reflexive(self):
        for a in TOKENS_10:
            assert leq(a, a)

    def test_antisymmetric(self):
        for a, b in itertools.product(TOKENS_10, repeat=2):
            if leq(a, b) and leq(b, a):
                assert a == b

    def test_transitive(self):
        for a, b, c in itertools.product(TOKENS_10, repeat=3):
            if leq(a, b) and leq(b, c):
                assert leq(a, c)

    def test_sigma_pi_incomparable_at_same_level(self):
        for n in range(1, 11):
            assert not leq(sigma(n), pi(n))
            assert not leq(pi(n), sigma(n))

    def test_generating_edges(self):
        for n in range(1, 10):
            assert leq(delta(n), sigma(n))
            assert leq(delta(n), pi(n))
            assert leq(sigma(n), delta(n + 1))
            assert leq(pi(n), delta(n + 1))


class TestJoinMeet:
    def test_join_matches_oracle(self):
        for a, b in itertools.product(TOKENS_8, repeat=2):
            assert join(a, b) == ORACLE.join(a, b), (a, b)

    def test_meet_matches_oracle(self):
        for a, b in itertools.product(TOKENS_8, repeat=2):
            assert meet(a, b) == ORACLE.meet(a, b), (a, b)

    def test_join_example(self):
        # frozen from the closure oracle: pi 3 already contains sigma 1
        assert ORACLE.join(sigma(1), pi(3)) == pi(3)
        assert join(sigma(1), pi(3)) == pi(3)

    def test_ambiguous_pair(self):
        assert join(sigma(2), pi(2)) == delta(3)
        assert meet(sigma(2), pi(2)) == delta(2)

    @given(tokens, tokens)
    def test_commutative(self, a, b):
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)

    @given(tokens, tokens, tokens)
    def test_associative(self, a, b, c):
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)

    @given(tokens)
    def test_idempotent(self, a):
        assert join(a, a) == a
        assert meet(a, a) == a

    @given(tokens, tokens)
    def test_absorption(self, a, b):
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a

    @given(tokens, tokens)
    def test_consistency_with_order(self, a, b):
        assert leq(a, b) == (join(a, b) == b)
        assert leq(a, b) == (meet(a, b) == a)


class TestClassOps:
    def test_complement(self):
        assert complement_class(sigma(3)) == pi(3)
        assert complement_class(pi(3)) == sigma(3)
        assert complement_class(delta(7)) == delta(7)

    @given(tokens)
    def test_complement_involution(self, a):
        assert complement_class(complement_class(a)) == a

    def test_projection(self):
        assert projection_class(pi(2)) == sigma(3)
        assert projection_class(sigma(2)) == sigma(2)
        assert projection_class(delta(2)) == sigma(2)

    def test_borel_image(self):
        # Borel images (S-BIMG) take the projection bound
        assert projection_class(pi(2)) == sigma(3)
        assert projection_class(delta(1)) == sigma(1)
        assert projection_class(sigma(4)) == sigma(4)

    def test_product(self):
        assert product_class(sigma(2), sigma(2)) == sigma(2)
        assert product_class(delta(1), delta(1)) == delta(1)
        # frozen: strict sigma/pi mixture upcasts to the least common delta
        assert product_class(sigma(2), pi(3)) == delta(4)
        assert product_class(pi(3), sigma(2)) == delta(4)
        # a delta factor rides along at the join
        assert product_class(delta(1), sigma(2)) == sigma(2)
        assert product_class(delta(5), sigma(2)) == delta(5)

    @given(tokens, tokens)
    def test_product_sound(self, a, b):
        # both factors embed into the product class
        c = product_class(a, b)
        assert leq(a, c) and leq(b, c)

    @given(tokens)
    def test_unary_monotone(self, a):
        ups = [b for b in token_universe(32) if leq(a, b)]
        for op in (complement_class, projection_class):
            for b in ups:
                assert leq(op(a), op(b)), (op.__name__, a, b)


class TestSchedules:
    def test_constant_and_bounded(self):
        assert schedule_bound(ConstantClass(sigma(2))) == sigma(2)
        assert schedule_bound(BoundedBy(delta(2))) == delta(2)

    def test_explicit_list_folds_join(self):
        # frozen from the closure oracle: join(delta 1, delta 3, delta 2) = delta 3
        sched = ExplicitList((delta(1), delta(3), delta(2)))
        assert schedule_bound(sched) == delta(3)
        mixed = ExplicitList((sigma(2), pi(2)))
        assert schedule_bound(mixed) == delta(3)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedScheduleError) as exc:
            schedule_bound(Unbounded("level_i = i"))
        assert "UnboundedSchedule" in str(exc.value)
        assert "level_i = i" in str(exc.value)

    def test_empty_explicit_list_rejected(self):
        with pytest.raises(ValueError):
            ExplicitList(())

    def test_schedule_bound_scans_all_entries(self):
        assert schedule_bound(ExplicitList((pi(1), sigma(1)))) == delta(2)


class TestTokens:
    def test_level_cap(self):
        delta(LEVEL_CAP)  # the cap itself is fine
        with pytest.raises(LevelOverflowError):
            delta(LEVEL_CAP + 1)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            sigma(0)
        with pytest.raises(ValueError):
            pi(-2)

    def test_str_and_parse_round_trip(self):
        for tok in TOKENS_10:
            assert parse_class_token(str(tok)) == tok

    def test_parse_aliases(self):
        assert parse_class_token("borel") == delta(1)
        assert parse_class_token("analytic") == sigma(1)
        with pytest.raises(ValueError):
            parse_class_token("projective")

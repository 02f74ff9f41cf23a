"""Concrete near-optimal selection: golden picks and a randomized sweep."""

import random
from fractions import Fraction

import pytest

from projcalc.selectors import eps_select_enumerate, sectionwise_optimum
from projcalc.xreal import NEG_INF, POS_INF, fin

YS = ["a", "b", "c"]


def test_sectionwise_optimum_directions():
    D = {("x", "a"), ("x", "b"), ("z", "c")}
    f = {("x", "a"): fin(0), ("x", "b"): fin(1), ("z", "c"): NEG_INF}
    assert sectionwise_optimum(D, f, "inf") == {"x": fin(0), "z": NEG_INF}
    assert sectionwise_optimum(D, f, "sup") == {"x": fin(1), "z": NEG_INF}


def test_float_eps_rejected():
    # sectionwise_optimum has no eps of its own; the selector built on it
    # refuses an inexact band width instead of rounding it to a Fraction
    D = {("x", "a"), ("x", "b")}
    f = {("x", "a"): fin(0), ("x", "b"): fin(1)}
    assert sectionwise_optimum(D, f, "inf") == {"x": fin(0)}
    with pytest.raises(TypeError):
        eps_select_enumerate(D, f, 0.5, "inf", YS)


def test_golden_inf_pick():
    D = {("x", "a"), ("x", "b")}
    f = {("x", "a"): fin(0), ("x", "b"): fin(1)}
    assert eps_select_enumerate(D, f, Fraction(1, 2), "inf", YS) == {"x": "a"}
    # widen eps past the gap: "a" still wins the tie-break
    assert eps_select_enumerate(D, f, Fraction(3), "inf", YS) == {"x": "a"}


def test_escape_band_when_unbounded_below():
    D = {("x", "a"), ("x", "b")}
    f = {("x", "a"): NEG_INF, ("x", "b"): fin(-100)}
    # qualifying needs f < -1/eps = -2; both do, least index wins
    assert eps_select_enumerate(D, f, Fraction(1, 2), "inf", YS) == {"x": "a"}
    g = {("x", "a"): fin(-1), ("x", "b"): NEG_INF}
    # now -1 fails the escape bound and b is the only qualifier
    assert eps_select_enumerate(D, g, Fraction(1, 2), "inf", YS) == {"x": "b"}


def test_degenerate_sections_attain():
    D = {("x", "a"), ("x", "b")}
    f = {("x", "a"): POS_INF, ("x", "b"): POS_INF}
    # identically +inf: the infimum is attained by every choice
    assert eps_select_enumerate(D, f, Fraction(1), "inf", YS) == {"x": "a"}
    assert eps_select_enumerate(D, f, Fraction(1), "sup", YS) == {"x": "a"}


def test_sup_mirror():
    D = {("x", "a"), ("x", "b"), ("x", "c")}
    f = {("x", "a"): fin(3), ("x", "b"): fin(3), ("x", "c"): fin(5)}
    assert eps_select_enumerate(D, f, Fraction(1), "sup", YS) == {"x": "c"}
    assert eps_select_enumerate(D, f, Fraction(10), "sup", YS) == {"x": "a"}
    g = {("x", "a"): fin(0), ("x", "b"): POS_INF, ("x", "c"): fin(100)}
    assert eps_select_enumerate(D, g, Fraction(1, 50), "sup", YS) == {"x": "b"}


def test_rejects_bad_inputs():
    D = {("x", "a")}
    f = {("x", "a"): fin(0)}
    with pytest.raises(ValueError, match="direction"):
        eps_select_enumerate(D, f, Fraction(1), "min", YS)
    with pytest.raises(ValueError, match="positive"):
        eps_select_enumerate(D, f, Fraction(0), "inf", YS)


def rand_value(rng: random.Random):
    roll = rng.randrange(10)
    if roll == 0:
        return NEG_INF
    if roll == 1:
        return POS_INF
    return fin(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))


def qualifies(v, opt, eps, direction) -> bool:
    # re-stated acceptance bound, kept independent of the implementation
    if direction == "inf":
        if opt == NEG_INF:
            return v < fin(-1 / eps)
        if opt == POS_INF:
            return True
        return v < opt + fin(eps)
    if opt == POS_INF:
        return v > fin(1 / eps)
    if opt == NEG_INF:
        return True
    return v > opt - fin(eps)


@pytest.mark.parametrize("direction", ["inf", "sup"])
def test_random_sweep(direction):
    rng = random.Random(97 if direction == "inf" else 98)
    for _ in range(200):
        xs = [f"x{i}" for i in range(rng.randint(1, 5))]
        ys = [f"y{i}" for i in range(rng.randint(1, 5))]
        D = {(x, y) for x in xs for y in ys if rng.randrange(2)}
        f = {p: rand_value(rng) for p in D}
        eps = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        sel = eps_select_enumerate(D, f, eps, direction, ys)
        opt = sectionwise_optimum(D, f, direction)
        assert set(sel) == {x for (x, _) in D}  # total on the projection
        for x, y in sel.items():
            assert (x, y) in D  # graph stays inside the constraint set
            assert qualifies(f[(x, y)], opt[x], eps, direction)
            # least qualifying index
            for y2 in ys:
                if ys.index(y2) >= ys.index(y):
                    break
                if (x, y2) in D:
                    assert not qualifies(f[(x, y2)], opt[x], eps, direction)

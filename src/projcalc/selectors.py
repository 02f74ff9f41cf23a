"""Enumerated near-optimal selectors on finite constraint sets.

Given a constraint set D over X x Y and a scalar objective table, pick one
y per x that is eps-close to the sectionwise optimum.  Branching follows
the optimum's value: a finite optimum uses the strict eps band, an infinite
optimum of the "wrong" sign uses the 1/eps escape band, and a section whose
values all sit at the degenerate extreme (+inf for inf, -inf for sup) makes
every choice exactly optimal, so the least-indexed one is taken.

Selection always returns the least-indexed qualifying y, so results are
deterministic for golden tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .xreal import NEG_INF, POS_INF, XReal, fin


def sectionwise_optimum(
    D: Iterable[tuple], f: Mapping[tuple, XReal], direction: str
) -> dict:
    """min (direction 'inf') or max ('sup') of f over each section of D."""
    pick = min if direction == "inf" else max
    out: dict = {}
    for (x, y) in D:
        v = f[(x, y)]
        out[x] = v if x not in out else pick(out[x], v)
    return out


def least_choice(pairs: Iterable[tuple], y_order: Sequence) -> dict:
    """For each x among the pairs (x, y), the y that comes first in y_order."""
    index = {y: i for i, y in enumerate(y_order)}
    out: dict = {}
    for (x, y) in pairs:
        if x not in out or index[y] < index[out[x]]:
            out[x] = y
    return out


def qualifies(v: XReal, opt: XReal, eps: Fraction, direction: str) -> bool:
    """Whether value v is eps-close to its section's optimum opt in direction."""
    if direction == "inf":
        if opt == NEG_INF:
            return v < fin(-1 / eps)
        if opt == POS_INF:
            return True  # the section attains the infimum everywhere
        return v < opt + fin(eps)
    if opt == POS_INF:
        return v > fin(1 / eps)
    if opt == NEG_INF:
        return True
    return v > opt - fin(eps)


def eps_select_enumerate(
    D: Iterable[tuple],
    f: Mapping[tuple, XReal],
    eps: Fraction,
    direction: str,
    y_order: Sequence,
) -> dict:
    """Selector table: for each x in proj(D), the least qualifying y.

    y_order fixes the tie-break; every y occurring in D must appear in it.
    The result's graph is a subset of D by construction.
    """
    if direction not in ("inf", "sup"):
        raise ValueError(f"direction must be 'inf' or 'sup', got {direction!r}")
    if isinstance(eps, float):
        raise TypeError(f"eps must be exact (int or Fraction), got {eps!r}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    opt = sectionwise_optimum(D, f, direction)
    near = ((x, y) for (x, y) in D if qualifies(f[(x, y)], opt[x], eps, direction))
    out = least_choice(near, y_order)
    # on finite sections the optimum is attained, so every x is covered
    assert set(out) == set(opt)
    return out

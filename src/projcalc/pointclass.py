"""Canonical tokens of the projective hierarchy and their lattice.

A pointclass token is a kind (sigma, pi, delta) together with a level
n >= 1.  The order is the reflexive-transitive closure of

    delta(n) <= sigma(n),  delta(n) <= pi(n),
    sigma(n) <= delta(n+1),  pi(n) <= delta(n+1),

with sigma(n) and pi(n) incomparable at each level.  Every pair has a join
and a meet: the only incomparable pairs are {sigma(n), pi(n)}, whose join is
delta(n+1) and whose meet is delta(n).

Only canonical tokens exist here.  Borel is delta(1), analytic is sigma(1);
there is no "projective" token (an unbounded union over levels is not a
class of any fixed level, which is exactly what UnboundedScheduleError
reports).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import LevelOverflowError, UnboundedScheduleError

LEVEL_CAP = 65535


class Kind(enum.Enum):
    SIGMA = "sigma"
    PI = "pi"
    DELTA = "delta"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PointClass:
    kind: Kind
    level: int

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"pointclass level must be a positive integer, got {self.level!r}")
        if self.level > LEVEL_CAP:
            raise LevelOverflowError(self.level, LEVEL_CAP)

    def __str__(self) -> str:
        return f"{self.kind.value} {self.level}"


def sigma(n: int) -> PointClass:
    return PointClass(Kind.SIGMA, n)


def pi(n: int) -> PointClass:
    return PointClass(Kind.PI, n)


def delta(n: int) -> PointClass:
    return PointClass(Kind.DELTA, n)


def parse_class_token(text: str) -> PointClass:
    """Parse "sigma 3" / "pi 1" / "delta 2" (also "borel", "analytic")."""
    parts = text.strip().lower().split()
    if parts == ["borel"]:
        return delta(1)
    if parts == ["analytic"]:
        return sigma(1)
    if len(parts) == 2 and parts[0] in ("sigma", "pi", "delta") and parts[1].isdigit():
        return PointClass(Kind(parts[0]), int(parts[1]))
    raise ValueError(f"not a pointclass token: {text!r}")


def leq(a: PointClass, b: PointClass) -> bool:
    """Containment of canonical tokens (closed form of the closure above)."""
    if a.kind is Kind.DELTA:
        # delta(n) sits below everything at level >= n
        return b.level >= a.level
    if b.kind is Kind.DELTA:
        # sigma/pi(n) enter delta only one level up
        return b.level >= a.level + 1
    if a.kind is b.kind:
        return b.level >= a.level
    # sigma(n) vs pi(m): crossing kinds costs a level
    return b.level >= a.level + 1


def join(a: PointClass, b: PointClass) -> PointClass:
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    # only sigma(n) / pi(n) are incomparable
    return delta(a.level + 1)


def meet(a: PointClass, b: PointClass) -> PointClass:
    if leq(a, b):
        return a
    if leq(b, a):
        return b
    return delta(a.level)


def delta_lift(c: PointClass) -> PointClass:
    """Least delta token containing c."""
    if c.kind is Kind.DELTA:
        return c
    return delta(c.level + 1)


def sigma_lift(c: PointClass) -> PointClass:
    """Least sigma token containing c."""
    if c.kind is Kind.SIGMA:
        return c
    if c.kind is Kind.DELTA:
        return sigma(c.level)
    return sigma(c.level + 1)


def complement_class(c: PointClass) -> PointClass:
    """Complements swap sigma and pi and fix delta."""
    if c.kind is Kind.SIGMA:
        return pi(c.level)
    if c.kind is Kind.PI:
        return sigma(c.level)
    return c


def projection_class(c: PointClass) -> PointClass:
    """Coordinate projection: pi(n) -> sigma(n+1); sigma and delta -> sigma(n)."""
    if c.kind is Kind.PI:
        return sigma(c.level + 1)
    return sigma(c.level)


def product_class(a: PointClass, b: PointClass) -> PointClass:
    """Class of a binary product of sets.

    Same-kind pairs (and pairs involving a delta) land at the join; a strict
    sigma/pi mixture has no common kind at any shared level, so both factors
    upcast to the least common delta.
    """
    if a.kind is b.kind or Kind.DELTA in (a.kind, b.kind):
        return join(a, b)
    return delta(max(a.level, b.level) + 1)


# --- level schedules for countable families ---------------------------------


@dataclass(frozen=True)
class ConstantClass:
    cls: PointClass


@dataclass(frozen=True)
class BoundedBy:
    bound: PointClass


@dataclass(frozen=True)
class ExplicitList:
    classes: tuple[PointClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("explicit schedule must be non-empty")


@dataclass(frozen=True)
class Unbounded:
    witness: str


LevelSchedule = ConstantClass | BoundedBy | ExplicitList | Unbounded


def schedule_bound(s: LevelSchedule) -> PointClass:
    """Least token containing every entry of the schedule.

    Raises UnboundedScheduleError for schedules with no uniform bound: each
    kind is countably closed only at a fixed level, so nothing short of a
    bound yields a token.
    """
    if isinstance(s, ConstantClass):
        return s.cls
    if isinstance(s, BoundedBy):
        return s.bound
    if isinstance(s, ExplicitList):
        out = s.classes[0]
        for c in s.classes[1:]:
            out = join(out, c)
        return out
    raise UnboundedScheduleError(s.witness)

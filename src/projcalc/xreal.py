"""Extended reals with exact rational finite part.

Values are -inf, a Fraction, or +inf.  The arithmetic conventions are fixed
once and used everywhere (inference bookkeeping, finite-model evaluation,
generalized integrals):

    -inf + inf = inf - inf = -inf        (any -inf in a sum wins)
    +(-inf) = -inf,  -(+inf) = -inf
    0 * (+-inf) = (+-inf) * 0 = 0

No floats anywhere: comparisons and sums of rationals are exact, and a
float finite part is a TypeError.  XReal is a slotted frozen dataclass, cheap
to build and compare: the finite oracles make hundreds of thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]


@dataclass(frozen=True, order=False, slots=True)
class XReal:
    """sign = -1 for -inf, +1 for +inf, 0 for the finite value `fin`."""

    sign: int
    fin: Fraction = Fraction(0)

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign!r}")
        if type(self.fin) is not Fraction:
            if isinstance(self.fin, float):
                raise TypeError(f"XReal takes no float finite part, got {self.fin!r}")
            object.__setattr__(self, "fin", Fraction(self.fin))
        if self.sign != 0 and self.fin != 0:
            raise ValueError("infinite values carry no finite part")

    # -- predicates

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    # -- total order: -inf < finite (by value) < +inf, i.e. (sign, fin) order

    def __lt__(self, other: "XReal") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.fin < other.fin

    def __le__(self, other: "XReal") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.fin <= other.fin

    def __gt__(self, other: "XReal") -> bool:
        return other < self

    def __ge__(self, other: "XReal") -> bool:
        return other <= self

    def __neg__(self) -> "XReal":
        if self.sign != 0:
            return XReal(-self.sign)
        return XReal(0, -self.fin)

    def __pos__(self) -> "XReal":
        return self

    # two-term xreal_sum, without the list: any -inf wins, then any +inf

    def __add__(self, other: "XReal") -> "XReal":
        if self.sign < 0 or other.sign < 0:
            return NEG_INF
        if self.sign > 0 or other.sign > 0:
            return POS_INF
        return XReal(0, self.fin + other.fin)

    def __sub__(self, other: "XReal") -> "XReal":
        # self + (-other)
        if self.sign < 0 or other.sign > 0:
            return NEG_INF
        if self.sign > 0 or other.sign < 0:
            return POS_INF
        return XReal(0, self.fin - other.fin)

    def __mul__(self, other: "XReal") -> "XReal":
        return xreal_prod(self, other)

    def __str__(self) -> str:
        if self.sign < 0:
            return "-inf"
        if self.sign > 0:
            return "+inf"
        return str(self.fin)


NEG_INF = XReal(-1)
POS_INF = XReal(1)
ZERO = XReal(0)


def fin(q: RationalLike) -> XReal:
    return XReal(0, q)  # __post_init__ converts ints and rejects floats


def parse_rational(text: str) -> Fraction:
    """Fraction(text) without an exponent: "1e3000000" would cost seconds to expand."""
    if "e" in text or "E" in text:
        raise ValueError(f"rationals take no exponent: {text!r}")
    return Fraction(text)


def parse_xreal(text: str) -> XReal:
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("+inf", "inf", "+oo"):
        return POS_INF
    return fin(parse_rational(t))


def format_xreal(x: XReal) -> str:
    return str(x)


def xreal_sum(values: Iterable[XReal]) -> XReal:
    """Sum under the fixed conventions.

    Any -inf term makes the sum -inf; otherwise any +inf term makes it
    +inf; otherwise the exact rational sum.  In particular the two-term
    sums (+inf) + (-inf) and (-inf) + (+inf) are both -inf.
    """
    total = Fraction(0)
    seen_pos = False
    for v in values:
        if v.sign < 0:
            return NEG_INF
        if v.sign > 0:
            seen_pos = True
        else:
            total += v.fin
    return POS_INF if seen_pos else XReal(0, total)


def xreal_prod(a: XReal, b: XReal) -> XReal:
    """Product with 0 * (+-inf) = 0 and the usual sign rule otherwise."""
    if a.is_finite and b.is_finite:
        return XReal(0, a.fin * b.fin)
    if (a.is_finite and a.fin == 0) or (b.is_finite and b.fin == 0):
        return ZERO
    sign_a = a.sign if not a.is_finite else (1 if a.fin > 0 else -1)
    sign_b = b.sign if not b.is_finite else (1 if b.fin > 0 else -1)
    return POS_INF if sign_a * sign_b > 0 else NEG_INF


def pos_part(x: XReal) -> XReal:
    return x if x > ZERO else ZERO


def neg_part(x: XReal) -> XReal:
    return -x if x < ZERO else ZERO


def integral_lower(f: dict, p: dict) -> XReal:
    """Generalized integral favoring -inf on the undefined case.

    f maps atoms to XReal, p maps atoms to rational masses.  With
    I+ = sum p(x) f+(x) and I- = sum p(x) f-(x): the value is I+ - I- when
    either part is finite, and -inf when both are infinite.
    """
    i_plus, i_minus = _integral_parts(f, p)
    if i_plus.is_finite or i_minus.is_finite:
        return i_plus - i_minus
    return NEG_INF


def integral_upper(f: dict, p: dict) -> XReal:
    """Same as integral_lower but the doubly-infinite case resolves to +inf."""
    i_plus, i_minus = _integral_parts(f, p)
    if i_plus.is_finite or i_minus.is_finite:
        return i_plus - i_minus
    return POS_INF


def _integral_parts(f: dict, p: dict) -> tuple[XReal, XReal]:
    # masses of 0 annihilate infinite values via the 0 * inf = 0 convention
    weights = {x: fin(q) for x, q in p.items()}
    i_plus = xreal_sum(xreal_prod(weights[x], pos_part(f[x])) for x in p)
    i_minus = xreal_sum(xreal_prod(weights[x], neg_part(f[x])) for x in p)
    return i_plus, i_minus

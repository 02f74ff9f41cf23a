"""Exception types shared across the package.

Diagnostic messages carry the short token a caller greps for (e.g. the rule
id in AxiomRequiredError), so the CLI can surface them verbatim.
"""

from __future__ import annotations

import functools
import sys


class ProjcalcError(Exception):
    """Base class for all package-specific errors."""


class LevelOverflowError(ProjcalcError):
    """A hierarchy level exceeded LEVEL_CAP."""

    def __init__(self, level: int, cap: int):
        self.level = level
        self.cap = cap
        super().__init__(f"LevelOverflow: level {level} exceeds cap {cap}")


class UnboundedScheduleError(ProjcalcError):
    """A countable operation over a level schedule with no uniform bound."""

    def __init__(self, witness: str = ""):
        self.witness = witness
        detail = f" (schedule: {witness})" if witness else ""
        super().__init__(
            "UnboundedSchedule: a countable combination across an unbounded "
            "level schedule need not land in any fixed level of the "
            f"hierarchy{detail}"
        )


class AxiomRequiredError(ProjcalcError):
    """A determinacy-gated rule was invoked in plain ZFC mode."""

    def __init__(self, rule: str, detail: str = ""):
        self.rule = rule
        self.detail = detail
        msg = f"AxiomRequired: {rule}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SignAnnotationMissingError(ProjcalcError):
    """A positive-power node needs a nonneg-annotated operand."""


class ParseError(ProjcalcError):
    """Syntax error in DSL source. Carries position and expectations."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f"; expected one of: {', '.join(expected)}" if expected else ""
        super().__init__(f"{line}:{column}: {message}{hint}")


class ResolutionError(ProjcalcError):
    """An identifier is undeclared, duplicated, or of the wrong kind."""


class SignatureError(ProjcalcError):
    """Carrier spaces do not line up for an operation."""


class UnsupportedConstructorError(ProjcalcError):
    """A set expression has no concrete semantics on finite models."""


class CheckError(ProjcalcError):
    """A derivation node failed independent re-checking. Carries a path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path or '/'}: {reason}")


class FormatError(ProjcalcError):
    """A serialized derivation or model document is malformed."""

    def __init__(self, reason: str, offset: int | None = None):
        self.offset = offset
        where = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"{reason}{where}")


class ResourceLimitError(ProjcalcError):
    """The game solver exceeded its node budget."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"ResourceLimit: node budget {budget} exhausted")


class DepthLimitError(ResourceLimitError):
    """A program nests deeper than the interpreter stack allows.

    The parser, binder, inference engine and formatter recurse into nested
    expressions, so a deep enough nest runs out of stack.  So does one
    inference call that unfolds a long chain of lets, such as ``infer_set``
    on the last name of the chain.  ``projcalc infer`` does not: its one
    engine infers a program's lets in order, each on top of the one before.
    """

    def __init__(self, limit: int):
        self.limit = limit
        ProjcalcError.__init__(
            self,
            f"DepthLimit: program nests or chains deeper than the interpreter "
            f"stack allows (recursion limit {limit})",
        )


def depth_limited(fn):
    """``fn``, raising DepthLimitError where it would run out of stack."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise DepthLimitError(sys.getrecursionlimit()) from None

    return call

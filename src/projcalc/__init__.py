"""Pointclass calculus over the projective hierarchy.

The package has four largely independent layers:

- symbolic: hierarchy tokens and their lattice (`pointclass`), the operator
  AST and DSL front end (`ast`, `parser`, `sema`, `formatter`), the
  inference engine that assigns classes and measurability levels with
  derivations with shared subproofs (`infer`, `rules`), and an independent
  re-checker that reads serialized derivations as row tables (`derivation`);
- concrete: exact finite models with evaluators for every constructor that
  has desk-scale semantics (`finitemodel`, `xreal`), randomized structural
  identity suites over them (`identities`), and enumerated near-optimal
  selectors (`selectors`);
- games: finite alternating-move determinacy with strategy extraction
  (`games`);
- plumbing: the `projcalc` command line (`cli`).

The concrete layer loads on first use of one of its names, so a process
that only infers and checks never imports it.
"""

import importlib

from .derivation import (
    ZFC,
    ZFC_PD,
    Conclusion,
    Derivation,
    Judgment,
    check,
    expand,
    read_table,
    serialize,
)
from .errors import (
    AxiomRequiredError,
    CheckError,
    FormatError,
    LevelOverflowError,
    ParseError,
    ProjcalcError,
    ResolutionError,
    ResourceLimitError,
    SignAnnotationMissingError,
    SignatureError,
    UnboundedScheduleError,
    UnsupportedConstructorError,
)
from .games import (
    FiniteGame,
    compile_target_expr,
    dumps_game,
    loads_game,
    solve,
    verify_strategy,
)
from .infer import (
    AssertionResult,
    Certificate,
    Engine,
    FuncLevel,
    Refusal,
    eps_selector_certificate,
    evaluate_assertions,
    infer_func,
    infer_set,
    select_certificate,
    universal_measurability,
)
from .parser import parse, parse_program
from .pointclass import (
    LEVEL_CAP,
    PointClass,
    complement_class,
    delta,
    join,
    leq,
    meet,
    pi,
    product_class,
    projection_class,
    sigma,
)
from .sema import Env, bind

__version__ = "0.1.0"

# the concrete layer's names, by the module that defines them
_LAZY = {
    "finitemodel": (
        "XREAL", "FiniteModel", "FuncData", "KernelData", "MeasureData", "SetData",
        "dumps_model", "eval_set", "func_data", "loads_model", "measure_of",
    ),
    "identities": (
        "IDENTITIES", "Counterexample", "IdentityCase", "case_seed", "check_identity",
        "generate_case", "run_suite",
    ),
    "selectors": ("eps_select_enumerate", "sectionwise_optimum"),
    "xreal": (
        "NEG_INF", "POS_INF", "XReal", "fin", "format_xreal", "integral_lower", "integral_upper",
        "parse_xreal",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ZFC",
    "ZFC_PD",
    "Conclusion",
    "Derivation",
    "Judgment",
    "check",
    "expand",
    "read_table",
    "serialize",
    "AxiomRequiredError",
    "CheckError",
    "FormatError",
    "LevelOverflowError",
    "ParseError",
    "ProjcalcError",
    "ResolutionError",
    "ResourceLimitError",
    "SignAnnotationMissingError",
    "SignatureError",
    "UnboundedScheduleError",
    "UnsupportedConstructorError",
    "XREAL",
    "FiniteModel",
    "FuncData",
    "KernelData",
    "MeasureData",
    "SetData",
    "dumps_model",
    "eval_set",
    "func_data",
    "loads_model",
    "measure_of",
    "FiniteGame",
    "compile_target_expr",
    "dumps_game",
    "loads_game",
    "solve",
    "verify_strategy",
    "IDENTITIES",
    "Counterexample",
    "IdentityCase",
    "case_seed",
    "check_identity",
    "generate_case",
    "run_suite",
    "AssertionResult",
    "Certificate",
    "Engine",
    "FuncLevel",
    "Refusal",
    "eps_selector_certificate",
    "evaluate_assertions",
    "infer_func",
    "infer_set",
    "select_certificate",
    "universal_measurability",
    "parse",
    "parse_program",
    "LEVEL_CAP",
    "PointClass",
    "complement_class",
    "delta",
    "join",
    "leq",
    "meet",
    "pi",
    "product_class",
    "projection_class",
    "sigma",
    "eps_select_enumerate",
    "sectionwise_optimum",
    "Env",
    "bind",
    "NEG_INF",
    "POS_INF",
    "XReal",
    "fin",
    "format_xreal",
    "integral_lower",
    "integral_upper",
    "parse_xreal",
    "__version__",
]

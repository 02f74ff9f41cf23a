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

Importing the package loads none of them: each public name loads its
module on first use.  `projcalc.cli` loads the symbolic layer and `games`
but not the concrete layer, so a process that only infers and checks never
imports it.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "derivation": (
        "ZFC", "ZFC_PD", "Conclusion", "Derivation", "Judgment", "check", "expand", "read_table",
        "serialize",
    ),
    "errors": (
        "AxiomRequiredError", "CheckError", "FormatError", "LevelOverflowError", "ParseError",
        "ProjcalcError", "ResolutionError", "ResourceLimitError", "SignAnnotationMissingError",
        "SignatureError", "UnboundedScheduleError", "UnsupportedConstructorError",
    ),
    "finitemodel": (
        "XREAL", "FiniteModel", "FuncData", "KernelData", "MeasureData", "SetData",
        "dumps_model", "eval_set", "func_data", "loads_model", "measure_of",
    ),
    "games": ("FiniteGame", "compile_target_expr", "dumps_game", "loads_game", "solve", "verify_strategy"),
    "identities": (
        "IDENTITIES", "Counterexample", "IdentityCase", "case_seed", "check_identity",
        "generate_case", "run_suite",
    ),
    "infer": (
        "AssertionResult", "Certificate", "Engine", "Refusal", "eps_selector_certificate",
        "evaluate_assertions", "infer_func", "infer_set", "select_certificate",
        "universal_measurability",
    ),
    "parser": ("parse", "parse_program"),
    "pointclass": (
        "LEVEL_CAP", "PointClass", "complement_class", "delta", "join", "leq", "meet", "pi",
        "product_class", "projection_class", "sigma",
    ),
    "selectors": ("eps_select_enumerate", "sectionwise_optimum"),
    "sema": ("Env", "bind"),
    "xreal": (
        "NEG_INF", "POS_INF", "XReal", "fin", "format_xreal", "integral_lower", "integral_upper",
        "parse_xreal",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())

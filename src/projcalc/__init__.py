"""Pointclass calculus over the projective hierarchy.

The package has four largely independent layers:

- symbolic: hierarchy tokens and their lattice (`pointclass`), the operator
  AST and DSL front end (`ast`, `parser`, `sema`, `formatter`), the
  inference engine that assigns classes and measurability levels with
  derivations with shared subproofs (`infer`, `rules`), and an independent
  re-checker for serialized derivations (`derivation`);
- concrete: exact finite models with evaluators for every constructor that
  has desk-scale semantics (`finitemodel`, `xreal`), randomized structural
  identity suites over them (`identities`), and enumerated near-optimal
  selectors (`selectors`);
- games: finite alternating-move determinacy with strategy extraction
  (`games`);
- plumbing: the `projcalc` command line (`cli`).
"""

from .derivation import (
    ZFC,
    ZFC_PD,
    Conclusion,
    Derivation,
    Judgment,
    check,
    deserialize,
    serialize,
)
from .errors import (
    AxiomRequiredError,
    CheckError,
    DepthLimitError,
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
from .finitemodel import (
    XREAL,
    FiniteModel,
    FuncData,
    KernelData,
    MeasureData,
    Prod,
    SetData,
    dumps_model,
    eval_set,
    func_data,
    loads_model,
    measure_of,
)
from .games import (
    FiniteGame,
    compile_target_expr,
    dumps_game,
    loads_game,
    solve,
    verify_strategy,
)
from .identities import (
    IDENTITIES,
    Counterexample,
    IdentityCase,
    case_seed,
    check_identity,
    generate_case,
    run_suite,
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
from .selectors import eps_select_enumerate, sectionwise_optimum
from .sema import Env, bind
from .xreal import (
    NEG_INF,
    POS_INF,
    XReal,
    fin,
    format_xreal,
    integral_lower,
    integral_upper,
    parse_xreal,
)

__version__ = "0.1.0"

__all__ = [
    "ZFC",
    "ZFC_PD",
    "Conclusion",
    "Derivation",
    "Judgment",
    "check",
    "deserialize",
    "serialize",
    "AxiomRequiredError",
    "CheckError",
    "DepthLimitError",
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
    "Prod",
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

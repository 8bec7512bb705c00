"""Hybrid answer-set solving over here-and-there models with integer constraints.

The package covers the full pipeline: parsing rule programs with linear,
difference, and assignment constraint atoms; grounding; the here-and-there
relation and equilibrium-model semantics in two valuation modes (casp:
shared total valuations, founded: minimized partial valuations); an
incremental difference-logic engine; a generate-and-certify search engine;
a product-configuration toolkit; and a command-line frontend.
"""

from .core import Diagnostic as RuleDiagnostic
from .core import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Program,
    Rule,
    SymConst,
    pretty_print,
)
from .parser import Diagnostic as ParseDiagnostic
from .parser import check_wellformed, parse_program, parse_term
from .grounder import GroundProgram, ground
from .semantics import Answers, AnswerSet, Valuation, enumerate_equilibrium, is_equilibrium
from .ht import Interpretation, World, gl_reduct, is_ht_model, least_model, sat_rule, total
from .dl import Conflict, DiffGraph, Sat, negate_diff
from .search import Abstraction, abstract, solve, stable_models_bool, theory_certify
from .configkit import (
    ConfigInstance,
    ConfigModel,
    Violation,
    check_instance,
    decode_instance,
    instance_facts,
    load_instance,
    load_model,
    translate,
    value_bounds,
)
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "FALSITY",
    "AspVar",
    "AssignmentAtom",
    "Atom",
    "DiffConstraintAtom",
    "Falsity",
    "FuncTerm",
    "IntConst",
    "LinearConstraintAtom",
    "Literal",
    "Program",
    "Rule",
    "SymConst",
    "check_wellformed",
    "pretty_print",
    "RuleDiagnostic",
    "ParseDiagnostic",
    "parse_program",
    "parse_term",
    "GroundProgram",
    "ground",
    "Answers",
    "AnswerSet",
    "Interpretation",
    "Valuation",
    "World",
    "enumerate_equilibrium",
    "gl_reduct",
    "is_equilibrium",
    "is_ht_model",
    "least_model",
    "sat_rule",
    "total",
    "Conflict",
    "DiffGraph",
    "Sat",
    "negate_diff",
    "Abstraction",
    "abstract",
    "solve",
    "stable_models_bool",
    "theory_certify",
    "ConfigInstance",
    "ConfigModel",
    "Violation",
    "check_instance",
    "decode_instance",
    "instance_facts",
    "load_instance",
    "load_model",
    "translate",
    "value_bounds",
    "run",
    "__version__",
]

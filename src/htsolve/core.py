"""Core program representation: terms, atoms, rules, programs.

Three layers of atoms share one rule language: ordinary atoms over terms,
constraint atoms (&sum, &diff) whose truth is a function of an integer
valuation, and &in value assignments, which may only appear as rule heads.
All nodes are immutable and hashable, and str() yields the canonical text
form accepted by the parser module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

SYM_PATTERN = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
VAR_PATTERN = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

COMPARATORS = ("<=", "=", "!=", "<", ">", ">=")


@dataclass(frozen=True)
class IntConst:
    """Integer constant.  In a constraint-variable position it denotes itself."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymConst:
    """Symbolic constant; also names an integer variable inside constraint atoms."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AspVar:
    """Rule variable, replaced by ground terms during grounding."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FuncTerm:
    """Applied symbol such as w(a).  Arguments must themselves be flat terms."""

    name: str
    args: tuple


    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Union[IntConst, SymConst, AspVar, FuncTerm]


@dataclass(frozen=True)
class Atom:
    """Ordinary atom: predicate name plus ground or non-ground arguments.

    The hash is computed once, since engines look atoms up in dicts again
    and again; it is not a field, so ==, repr and fields() ignore it.
    """

    predicate: str
    args: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so a copy in another process rehashes
        return (Atom, (self.predicate, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class LinearConstraintAtom:
    """&sum{k1*x1;...;kn*xn} cmp rhs over integer-valued terms."""

    terms: tuple  # of (coefficient, Term) pairs
    cmp: str
    rhs: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((k, t) for k, t in self.terms))

    def __str__(self) -> str:
        body = ";".join(f"{k}*{t}" for k, t in self.terms)
        return f"&sum{{{body}}} {self.cmp} {self.rhs}"


@dataclass(frozen=True)
class DiffConstraintAtom:
    """&diff{x-y} <= bound; the only comparator supported for differences."""

    lhs_var: Term
    rhs_var: Term
    bound: int

    def __str__(self) -> str:
        return f"&diff{{{self.lhs_var}-{self.rhs_var}}} <= {self.bound}"


@dataclass(frozen=True)
class AssignmentAtom:
    """&in{lo..hi} =: target.  Head-only; undefined bounds impose nothing."""

    lo: Term
    hi: Term
    target: Term

    def __str__(self) -> str:
        return f"&in{{{self.lo}..{self.hi}}} =: {self.target}"


class Falsity:
    """Head marker for integrity constraints."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Falsity()"

    def __str__(self) -> str:
        return "#false"


FALSITY = Falsity()

TheoryAtom = Union[LinearConstraintAtom, DiffConstraintAtom, AssignmentAtom]
BodyElem = Union[Atom, LinearConstraintAtom, DiffConstraintAtom]
Head = Union[Atom, LinearConstraintAtom, DiffConstraintAtom, AssignmentAtom, Falsity]


@dataclass(frozen=True)
class Literal:
    """Body literal: an element under positive or negated polarity."""

    positive: bool
    atom: BodyElem

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Rule:
    """head :- body.  Empty body is a fact; a Falsity head is a constraint."""

    head: Head
    body: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        if isinstance(self.head, Falsity):
            return f":- {body}."
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {body}."


@dataclass(frozen=True)
class Program:
    """Sequence of rules in authored order."""

    rules: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __str__(self) -> str:
        return pretty_print(self)


@dataclass(frozen=True)
class Diagnostic:
    """Well-formedness or safety finding, anchored to a rule index."""

    rule_index: int
    message: str

    def __str__(self) -> str:
        return f"rule {self.rule_index}: {self.message}"


def pretty_print(p) -> str:
    """Render a program (anything with .rules) one rule per line."""
    return "\n".join(str(r) for r in p.rules)


def walk_terms(obj) -> Iterator[Term]:
    """Yield every term node reachable from a rule, atom, or term."""
    if isinstance(obj, (IntConst, SymConst, AspVar)):
        yield obj
    elif isinstance(obj, FuncTerm):
        yield obj
        for a in obj.args:
            yield from walk_terms(a)
    elif isinstance(obj, Atom):
        for a in obj.args:
            yield from walk_terms(a)
    elif isinstance(obj, LinearConstraintAtom):
        for _, t in obj.terms:
            yield from walk_terms(t)
    elif isinstance(obj, DiffConstraintAtom):
        yield from walk_terms(obj.lhs_var)
        yield from walk_terms(obj.rhs_var)
    elif isinstance(obj, AssignmentAtom):
        yield from walk_terms(obj.lo)
        yield from walk_terms(obj.hi)
        yield from walk_terms(obj.target)
    elif isinstance(obj, Literal):
        yield from walk_terms(obj.atom)
    elif isinstance(obj, Rule):
        if not isinstance(obj.head, Falsity):
            yield from walk_terms(obj.head)
        for lit in obj.body:
            yield from walk_terms(lit)


def rule_variables(r: Rule) -> set:
    """All AspVars occurring anywhere in the rule."""
    return {t for t in walk_terms(r) if isinstance(t, AspVar)}


def is_ground(obj) -> bool:
    return not any(isinstance(t, AspVar) for t in walk_terms(obj))


def variable_names(e) -> Iterator[Term]:
    """Terms naming integer variables in a constraint or assignment atom.

    Integer constants in variable positions denote themselves and are skipped.
    """
    if isinstance(e, LinearConstraintAtom):
        for _, t in e.terms:
            if not isinstance(t, IntConst):
                yield t
    elif isinstance(e, DiffConstraintAtom):
        for t in (e.lhs_var, e.rhs_var):
            if not isinstance(t, IntConst):
                yield t
    elif isinstance(e, AssignmentAtom):
        for t in (e.lo, e.hi, e.target):
            if not isinstance(t, IntConst):
                yield t


def _check_term(t: Term, where: str, rule_index: int, out: list, depth: int = 0) -> None:
    if isinstance(t, IntConst):
        return
    if isinstance(t, SymConst):
        if not SYM_PATTERN.match(t.name):
            out.append(Diagnostic(rule_index, f"bad symbolic constant '{t.name}' in {where}"))
    elif isinstance(t, AspVar):
        if not VAR_PATTERN.match(t.name):
            out.append(Diagnostic(rule_index, f"bad variable name '{t.name}' in {where}"))
    elif isinstance(t, FuncTerm):
        if not SYM_PATTERN.match(t.name):
            out.append(Diagnostic(rule_index, f"bad function name '{t.name}' in {where}"))
        if not t.args:
            out.append(Diagnostic(rule_index, f"function term '{t.name}' without arguments in {where}"))
        if depth > 0:
            out.append(Diagnostic(rule_index, f"nested function term '{t}' in {where}"))
        for a in t.args:
            _check_term(a, where, rule_index, out, depth + 1)
    else:
        out.append(Diagnostic(rule_index, f"unknown term {t!r} in {where}"))


def _check_elem(e, rule_index: int, out: list) -> None:
    if isinstance(e, Atom):
        if not SYM_PATTERN.match(e.predicate):
            out.append(Diagnostic(rule_index, f"bad predicate name '{e.predicate}'"))
        for a in e.args:
            _check_term(a, f"atom {e.predicate}", rule_index, out)
    elif isinstance(e, LinearConstraintAtom):
        if not e.terms:
            out.append(Diagnostic(rule_index, "&sum atom with no elements"))
        if e.cmp not in COMPARATORS:
            out.append(Diagnostic(rule_index, f"bad comparator '{e.cmp}'"))
        if not isinstance(e.rhs, int):
            out.append(Diagnostic(rule_index, "&sum right-hand side must be an integer"))
        for k, t in e.terms:
            if not isinstance(k, int):
                out.append(Diagnostic(rule_index, f"non-integer coefficient {k!r}"))
            _check_term(t, "&sum element", rule_index, out)
    elif isinstance(e, DiffConstraintAtom):
        if not isinstance(e.bound, int):
            out.append(Diagnostic(rule_index, "&diff bound must be an integer"))
        _check_term(e.lhs_var, "&diff", rule_index, out)
        _check_term(e.rhs_var, "&diff", rule_index, out)
    elif isinstance(e, AssignmentAtom):
        if isinstance(e.target, IntConst):
            out.append(Diagnostic(rule_index, "assignment target must be a variable name, not a constant"))
        for t in (e.lo, e.hi, e.target):
            _check_term(t, "&in", rule_index, out)
    else:
        out.append(Diagnostic(rule_index, f"unknown element {e!r}"))


def check_wellformed(p) -> list:
    """Validate type invariants rule by rule; empty list means well-formed."""
    out: list = []
    for i, r in enumerate(p.rules):
        if isinstance(r.head, Falsity):
            if not r.body:
                out.append(Diagnostic(i, "integrity constraint with empty body"))
        else:
            _check_elem(r.head, i, out)
        for lit in r.body:
            if isinstance(lit.atom, AssignmentAtom):
                out.append(Diagnostic(i, "assignment in body"))
                continue
            if isinstance(lit.atom, Falsity):
                out.append(Diagnostic(i, "falsity cannot occur in a rule body"))
                continue
            _check_elem(lit.atom, i, out)
    return out


def atoms_of(g) -> tuple:
    """Collect (atoms, constraint atoms, integer-variable names) of a ground program.

    Each component is deduplicated and sorted by its text form.
    """
    atoms: set = set()
    theory: set = set()
    for r in g.rules:
        elems = [] if isinstance(r.head, Falsity) else [r.head]
        elems.extend(lit.atom for lit in r.body)
        for e in elems:
            if isinstance(e, Atom):
                atoms.add(e)
            else:
                theory.add(e)
    return tuple(sorted(atoms, key=str)), tuple(sorted(theory, key=str)), variables_of(theory)


def variables_of(elems) -> tuple:
    """Integer-variable names of the given atoms, deduplicated and sorted by text."""
    return tuple(sorted({v for e in elems for v in variable_names(e)}, key=str))

"""Core program representation: terms, atoms, rules, programs.

Three layers of atoms share one rule language: ordinary atoms over terms,
constraint atoms (&sum, &diff) whose truth is a function of an integer
valuation, and &in value assignments, which may only appear as rule heads.
All nodes are immutable and hashable, and str() yields the canonical text
form accepted by the parser module.  The parser's grammar is the one
definition of the language: a node built here by hand is well formed when
its text parses back to it (parser.check_wellformed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

COMPARATORS = ("<=", "=", "!=", "<", ">", ">=")


# Sets a field of a frozen node built by object.__new__, as the dataclass
# __init__ does.  That keeps the node's compact shared-key attribute storage;
# filling node.__dict__ directly would make it a full dict, about 150 bytes
# more per node.
_set = object.__setattr__


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
    and again.  An atom built by with_text keeps the text it is given, and
    str() returns it.  Neither is a field, so ==, repr and fields() ignore
    them.
    """

    predicate: str
    args: tuple = ()
    _text = None  # set only by with_text; not a field: no annotation

    @classmethod
    def with_text(cls, predicate: str, args: tuple, text: str) -> "Atom":
        """The atom predicate(args), args a tuple, whose str() is text: text
        must be what __str__ would build, so a caller that formats it anyway
        pays once.  Filled in as __post_init__ would, without __init__."""
        atom = object.__new__(cls)
        _set(atom, "predicate", predicate)
        _set(atom, "args", args)
        _set(atom, "_hash", hash((predicate, args)))
        _set(atom, "_text", text)
        return atom

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so a copy in another process rehashes
        return (Atom, (self.predicate, self.args))

    def __str__(self) -> str:
        if self._text is not None:
            return self._text
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

    @classmethod
    def new(cls, positive: bool, atom: BodyElem) -> "Literal":
        """Literal(positive, atom), filled in without the dataclass __init__."""
        lit = object.__new__(cls)
        _set(lit, "positive", positive)
        _set(lit, "atom", atom)
        return lit

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Rule:
    """head :- body.  Empty body is a fact; a Falsity head is a constraint."""

    head: Head
    body: tuple = ()

    @classmethod
    def new(cls, head: Head, body: tuple) -> "Rule":
        """Rule(head, body), body a tuple, filled in without the dataclass
        __init__ and __post_init__."""
        rule = object.__new__(cls)
        _set(rule, "head", head)
        _set(rule, "body", body)
        return rule

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


def theory_terms(e) -> tuple:
    """The terms of a constraint or assignment atom in text order; () for any other."""
    if isinstance(e, LinearConstraintAtom):
        return tuple(t for _, t in e.terms)
    if isinstance(e, DiffConstraintAtom):
        return (e.lhs_var, e.rhs_var)
    if isinstance(e, AssignmentAtom):
        return (e.lo, e.hi, e.target)
    return ()


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
    elif isinstance(obj, Literal):
        yield from walk_terms(obj.atom)
    elif isinstance(obj, Rule):
        if not isinstance(obj.head, Falsity):
            yield from walk_terms(obj.head)
        for lit in obj.body:
            yield from walk_terms(lit)
    else:
        for t in theory_terms(obj):
            yield from walk_terms(t)


def rule_variables(r: Rule) -> set:
    """All AspVars occurring anywhere in the rule."""
    return {t for t in walk_terms(r) if isinstance(t, AspVar)}


def is_ground(obj) -> bool:
    return not any(isinstance(t, AspVar) for t in walk_terms(obj))


def variable_names(e) -> Iterator[Term]:
    """Terms naming integer variables in a constraint or assignment atom.

    Integer constants in variable positions denote themselves and are skipped.
    """
    return (t for t in theory_terms(e) if not isinstance(t, IntConst))


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

"""Deterministic generators of random test programs.

Everything here is driven by an explicit random.Random instance (or is
fully enumerated, as the rule pool is), so differential tests and
experiment scripts can be replayed from a seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from htsolve.core import (
    COMPARATORS,
    FALSITY,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Rule,
    SymConst,
)
from htsolve.grounder import GroundProgram
from htsolve.ht import Interpretation, World
from htsolve.semantics import Valuation

ATOM_NAMES = ("a", "b", "c", "d", "e", "f")
VAR_NAMES = ("x", "y", "z")


def _names(pool: tuple, fresh: str, n: int) -> list:
    """The first n names of pool, then fresh + its index past the pool's end."""
    return [*pool[:n], *(f"{fresh}{i}" for i in range(len(pool), n))]


def _atoms(n: int) -> tuple:
    return tuple(Atom(name) for name in _names(ATOM_NAMES, "a", n))


def _vars(n: int) -> tuple:
    return tuple(SymConst(name) for name in _names(VAR_NAMES, "x", n))


def boolean_rule_pool(n_atoms: int, max_body: int = 2) -> tuple:
    """Every rule over n_atoms atoms with at most max_body body literals."""
    atoms = _atoms(n_atoms)
    literals = [Literal(sign, a) for a in atoms for sign in (True, False)]
    bodies = [()]
    for size in range(1, max_body + 1):
        bodies.extend(combinations(literals, size))
    heads = list(atoms) + [FALSITY]
    return tuple(
        Rule(h, b)
        for h in heads
        for b in bodies
        if b or not isinstance(h, Falsity)  # ":- ." is ill-formed
    )


def random_boolean_program(rng: random.Random, n_atoms: int = 3, max_rules: int = 4,
                           max_body: int = 2) -> GroundProgram:
    """One random Boolean ground program drawn from the rule pool."""
    pool = boolean_rule_pool(n_atoms, max_body)
    rules = tuple(rng.sample(pool, rng.randint(0, max_rules)))
    return GroundProgram(rules, ())


def _random_sum(rng: random.Random, variables) -> LinearConstraintAtom:
    n_terms = rng.randint(1, 2)
    terms = []
    for _ in range(n_terms):
        coeff = rng.choice((-2, -1, 1, 2))
        if variables and rng.random() < 0.9:
            term = rng.choice(variables)
        else:
            term = IntConst(rng.randint(0, 3))
        terms.append((coeff, term))
    cmp = rng.choice(COMPARATORS)
    rhs = rng.randint(-3, 6)
    return LinearConstraintAtom(tuple(terms), cmp, rhs)


def _random_diff(rng: random.Random, variables) -> DiffConstraintAtom:
    def pick():
        if variables and rng.random() < 0.9:
            return rng.choice(variables)
        return IntConst(rng.randint(0, 3))

    return DiffConstraintAtom(pick(), pick(), rng.randint(-4, 4))


def random_hybrid_program(rng: random.Random, n_atoms: int = 6, n_vars: int = 3,
                          max_rules: int = 6,
                          assignments: bool = False) -> GroundProgram:
    """Random ground program mixing atoms with sum/diff constraint atoms.

    With assignments=False the result is assignment-free and therefore
    valid casp input for both solver engines; assignments=True sprinkles
    in assignment heads for founded-mode testing.
    """
    atoms = _atoms(rng.randint(1, n_atoms))
    variables = _vars(rng.randint(0, n_vars))
    theory_pool = [
        _random_sum(rng, variables) if rng.random() < 0.5 else _random_diff(rng, variables)
        for _ in range(rng.randint(1, 4))
    ]

    def random_body_atom():
        if rng.random() < 0.6:
            return rng.choice(atoms)
        return rng.choice(theory_pool)

    def random_assignment():
        bound_pool = tuple(variables) + tuple(
            IntConst(rng.randint(-1, 3)) for _ in range(2)
        )
        return AssignmentAtom(
            rng.choice(bound_pool), rng.choice(bound_pool), rng.choice(variables)
        )

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        roll = rng.random()
        if assignments and variables and roll < 0.25:
            head = random_assignment()
        elif roll < 0.55:
            head = rng.choice(atoms)
        elif roll < 0.75:
            head = FALSITY
        else:
            head = rng.choice(theory_pool)
        n_body = rng.randint(0, 2)
        if isinstance(head, Falsity) and n_body == 0:
            n_body = 1
        body = tuple(
            Literal(rng.random() < 0.7, random_body_atom()) for _ in range(n_body)
        )
        rules.append(Rule(head, body))
    return GroundProgram(tuple(rules), ())


def random_dl_instance(rng: random.Random, n_vars: int = 6, max_constraints: int = 10,
                       weight: int = 5) -> list:
    """Random difference-constraint batch as (x, y, bound) triples."""
    variables = tuple(SymConst(f"v{i}") for i in range(1, rng.randint(2, n_vars) + 1))
    out = []
    for _ in range(rng.randint(1, max_constraints)):
        x, y = rng.sample(variables, 2)
        out.append((x, y, rng.randint(-weight, weight)))
    return out


def random_valuation_pair(rng: random.Random, variables) -> tuple:
    """A (here, there) valuation pair with here a restriction of there."""
    vt = {}
    for v in variables:
        if rng.random() < 0.7:
            vt[v] = rng.randint(-2, 3)
    if rng.random() < 0.5:
        vh = dict(vt)
    else:
        vh = {v: x for v, x in vt.items() if rng.random() < 0.7}
    return Valuation.of(vh), Valuation.of(vt)


def random_interpretation(rng: random.Random, atoms, variables) -> Interpretation:
    there = frozenset(a for a in atoms if rng.random() < 0.5)
    here = frozenset(a for a in there if rng.random() < 0.7)
    vh, vt = random_valuation_pair(rng, variables)
    return Interpretation(World(here, vh), World(there, vt))


def random_rule(rng: random.Random, atoms, variables) -> Rule:
    """Random ground rule over the pools, including assignment heads."""

    def random_element():
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(atoms)
        if roll < 0.8:
            return _random_sum(rng, variables)
        return _random_diff(rng, variables)

    roll = rng.random()
    if roll < 0.45:
        head = rng.choice(atoms)
    elif roll < 0.6:
        head = FALSITY
    elif roll < 0.85:
        head = random_element()
    else:
        lo = rng.choice(tuple(variables) + (IntConst(rng.randint(-2, 3)),))
        hi = rng.choice(tuple(variables) + (IntConst(rng.randint(-2, 3)),))
        head = AssignmentAtom(lo, hi, rng.choice(variables))
    body = tuple(
        Literal(rng.random() < 0.7, random_element())
        for _ in range(rng.randint(0, 3))
    )
    return Rule(head, body)


def random_interpretation_and_rule(rng: random.Random) -> tuple:
    """Paired random interpretation and rule for persistence testing."""
    atoms = _atoms(4)
    variables = _vars(3)
    return random_interpretation(rng, atoms, variables), random_rule(rng, atoms, variables)


# Pieces of random parser input: whole rules (some malformed), tokens of the
# language with words next to its keywords, blanks and comments, and texts
# the lexer rejects.
RULE_PIECES = (
    "a :- not b.", "p(X,1) :- q(f(X),-2), not r.", ":- a, b.", "&sum{2*x;-1*y;(-3)*z} <= 3.",
    "&diff{x-y} <= -1 :- a.", "&in{1..Y} =: w(Y).", "q(a,b,c).", "p(f(g(a))).", "a :- not not b.",
    "&in{1..2} =: 3.", "a :- &in{0..1} =: x.", "&diff{x-y} < 1.",
)
TOKEN_PIECES = (
    "a", "b", "p", "X", "Y_1", "Not", "not", "not1", "nota", "not_b", "w1", "&in1",
    "(", ")", ",", ".", "..", ":-", "=:", "=", "<", "<=", ">", ">=", "!=", "=<",
    "&sum", "&diff", "&in", "{", "}", ";", "*", "-", "0", "12", "-7",
    " ", "  ", "\n", "\t", "\r", "% note\n", "%", "%:- x.\n",
)
ODD_PIECES = ("&summary", "&inx", "&", "&_", "_x", "\u00b2", "\u0663", "1\u0663", "\u00e9",
              "a\u00e9", "$", "\u00bd", "\f", ":", "!")


def random_source(rng: random.Random, pieces: int = 12) -> str:
    """Up to `pieces` pieces of parser input, each followed by nothing, a
    blank or a newline.  One source in four is whole rules only, one in
    four may hold texts the lexer rejects, and one in 200 holds a
    5,000-digit integer."""
    mode = rng.randrange(4)
    out = []
    for _ in range(rng.randint(0, pieces)):
        r = 0.0 if mode == 0 else rng.random()
        pool = RULE_PIECES if r < 0.4 else ODD_PIECES if mode == 1 and r > 0.9 else TOKEN_PIECES
        out.append(rng.choice(pool))
        out.append(rng.choice(("", "", " ", "\n")))
    if rng.random() < 0.005:
        out.insert(rng.randint(0, len(out)), "9" * 5000)
    return "".join(out)

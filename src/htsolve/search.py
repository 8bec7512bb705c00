"""Generate-and-certify solving for casp mode.

The ground program is abstracted by replacing every distinct constraint
atom with a fresh proposition (__t1, __t2, ... in first-occurrence order).
Constraint-atom truth is a function of the shared valuation, not something
rules derive, so solve() hands the propositions to the Boolean search as
free atoms: each is decided true or false like any atom but needs no
supporting rule, and a rule with one as head still forbids "body true,
head false".  For each Boolean model, theory_certify() is the single place
that decides its valuations: a difference-logic graph refutes inconsistent
&diff signs outright, and one backtracking pass over the bounded grid then
returns every valuation under which each atom has its sign, so the result
set matches the exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    Literal,
    Rule,
    atoms_of,
    variable_names,
)
from .dl import Conflict, DiffGraph, negate_diff
from .grounder import GroundProgram
from .semantics import (
    AnswerSet,
    Valuation,
    _answer_sort_key,
    _bounds_ok,
    _elem_true,
    enumerate_equilibrium,
)


@dataclass(frozen=True)
class Abstraction:
    """Boolean rules plus the proposition-to-constraint-atom bijection."""

    rules: tuple
    mapping: tuple  # of (proposition Atom, constraint atom) in introduction order


def abstract(g: GroundProgram) -> Abstraction:
    """Replace constraint atoms by fresh propositions; rejects assignments."""
    prop_of: dict = {}
    order: list = []

    def lift(e):
        if isinstance(e, Atom):
            return e
        if isinstance(e, AssignmentAtom):
            raise ValueError("assignment atoms have no Boolean abstraction")
        if e not in prop_of:
            prop = Atom(f"__t{len(prop_of) + 1}")
            prop_of[e] = prop
            order.append((prop, e))
        return prop_of[e]

    rules = []
    for r in g.rules:
        head = r.head if isinstance(r.head, Falsity) else lift(r.head)
        body = tuple(Literal(lit.positive, lift(lit.atom)) for lit in r.body)
        rules.append(Rule(head, body))
    return Abstraction(tuple(rules), tuple(order))


def stable_models_bool(b: GroundProgram, free=frozenset()) -> list:
    """All reduct-stable atom sets of a Boolean program, sorted.

    Atoms in free are choices: a model may hold or omit each of them with
    no rule supporting it, as if the reduct had it as a fact whenever it
    is true.  A rule with a free head still forbids a true body with that
    head false.  Models range over the atoms of b together with free.
    """
    atoms = sorted(set(atoms_of(b)[0]) | set(free), key=str)
    index = {a: n for n, a in enumerate(atoms)}
    compiled = []
    for r in b.rules:
        head = None if isinstance(r.head, Falsity) else index[r.head]
        pos = frozenset(index[lit.atom] for lit in r.body if lit.positive)
        neg = frozenset(index[lit.atom] for lit in r.body if not lit.positive)
        compiled.append((head, pos, neg))
    touching: list = [[] for _ in atoms]
    for ci, (head, pos, neg) in enumerate(compiled):
        involved = set(pos) | set(neg) | ({head} if head is not None else set())
        for a in involved:
            touching[a].append(ci)

    if any(head is None and not pos and not neg for head, pos, neg in compiled):
        return []  # an empty-bodied constraint admits nothing

    n = len(atoms)
    free_ids = frozenset(index[a] for a in free)
    assign: list = [None] * n
    models: list = []

    def violated_now(changed: int) -> bool:
        # A rule is hopeless once its body is fully true yet its head is
        # already false (or it has no head).  Undecided atoms block nothing.
        for ci in touching[changed]:
            head, pos, neg = compiled[ci]
            if head is not None and assign[head] is not False:
                continue
            if all(assign[a] is True for a in pos) and all(
                assign[a] is False for a in neg
            ):
                return True
        return False

    def stable(true_set: frozenset) -> bool:
        # Supportedness is a cheap necessary condition before the fixpoint.
        for a in true_set - free_ids:
            if not any(
                head == a and pos <= true_set and not (neg & true_set)
                for head, pos, neg in compiled
            ):
                return False
        derived = set(true_set & free_ids)
        changed = True
        while changed:
            changed = False
            for head, pos, neg in compiled:
                if head is None or neg & true_set:
                    continue
                if head not in derived and pos <= derived:
                    derived.add(head)
                    changed = True
        return derived == true_set

    def walk(i: int) -> None:
        if i == n:
            true_set = frozenset(a for a in range(n) if assign[a])
            if stable(true_set):
                models.append(frozenset(atoms[a] for a in true_set))
            return
        for value in (False, True):
            assign[i] = value
            if not violated_now(i):
                walk(i + 1)
        assign[i] = None

    walk(0)
    models.sort(key=lambda m: tuple(sorted(str(a) for a in m)))
    return models


def theory_certify(signs: dict, bounds) -> list:
    """Every total valuation within bounds under which each atom has its sign.

    The &diff atoms, negated ones via negate_diff, are first asserted into a
    DiffGraph; a negative cycle means no valuation exists.  Variable-free
    atoms are checked once.  One backtracking pass over the bounded grid
    then checks each remaining atom as soon as the last of its variables
    is bound.  Valuations come in grid order: variables sorted by text,
    values ascending.
    """
    lo, hi = _bounds_ok(bounds)
    graph = DiffGraph()
    cid = 0
    for atom, sign in sorted(signs.items(), key=lambda kv: str(kv[0])):
        if not isinstance(atom, DiffConstraintAtom):
            continue
        x, y, k = atom.lhs_var, atom.rhs_var, atom.bound
        if not sign:
            x, y, k = negate_diff(x, y, k)
        cid += 1
        if isinstance(graph.assert_diff(x, y, k, cid), Conflict):
            return []

    variables = sorted({v for atom in signs for v in variable_names(atom)}, key=str)
    position = {v: i for i, v in enumerate(variables)}
    checks: list = [[] for _ in variables]  # atoms whose last variable is i
    for atom, sign in signs.items():
        names = [position[v] for v in variable_names(atom)]
        if names:
            checks[max(names)].append((atom, sign))
        elif _elem_true((), {}, atom) != sign:
            return []

    found: list = []
    vd: dict = {}

    def grid(i: int) -> None:
        if i == len(variables):
            found.append(Valuation.of(vd))
            return
        v = variables[i]
        for value in range(lo, hi + 1):
            vd[v] = value
            if all(_elem_true((), vd, atom) == sign for atom, sign in checks[i]):
                grid(i + 1)
        del vd[v]

    grid(0)
    return found


def solve(g: GroundProgram, mode: str, bounds, engine: str = "oracle") -> list:
    """Answer sets of g, via the exhaustive oracle or the search engine."""
    if engine not in ("oracle", "search"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "oracle":
        return enumerate_equilibrium(g, mode, bounds)
    if mode != "casp":
        raise ValueError("engine 'search' supports casp mode only")
    _bounds_ok(bounds)  # also when no Boolean model reaches theory_certify
    ab = abstract(g)
    _, _, variables = atoms_of(g)
    props = frozenset(prop for prop, _ in ab.mapping)
    answers = []
    for model in stable_models_bool(GroundProgram(ab.rules, g.universe), props):
        signs = {theory: (prop in model) for prop, theory in ab.mapping}
        visible = model - props
        for val in theory_certify(signs, bounds):
            answers.append(AnswerSet(visible, val))
    return sorted(answers, key=lambda a: _answer_sort_key(a, variables))

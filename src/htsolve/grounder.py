"""Join-based grounding over the term universe.

Safety requires every rule variable to occur in a positive body atom;
constraint atoms never bind variables, and a variable binds only to a term
of the Herbrand universe (a derived term such as f(a) from a head w(f(X))
is never a binding unless it occurs in the program).

The result is the greatest set of rule instances in which every positive
body atom is the head of a kept instance.  It is built without the cross
product over all rule variables:

1. The positive dependency graph over predicate keys (name, arity) is
   split into strongly connected components, processed dependencies first.
2. A rule's positive body atoms from lower components are joined against
   the atoms already kept for those predicates.  A variable occurring only
   in body atoms of the rule's own component ranges over the universe.
   The candidates are then cut down to the greatest fixpoint with support
   counters: an instance dies once one of its same-component positive body
   atoms is the head of no live instance.
3. Integrity constraints and theory-atom heads are joined last, against
   every kept atom.

The greatest fixpoint keeps positive loops that nothing derives, such as
q(x) :- p(x) and p(x) :- q(x), not s(x).  This shows in casp mode, where
every integer variable the ground program mentions takes a value: add
a :- &diff{x-y} <= 0, q(X) and the kept instances for q(x) and q(y) make x
and y range over the whole domain, one answer per pair of values.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import product

from .core import (
    AspVar,
    AssignmentAtom,
    Atom,
    Diagnostic,
    DiffConstraintAtom,
    Falsity,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Rule,
    is_ground,
    rule_variables,
    walk_terms,
)


@dataclass(frozen=True)
class GroundingOptions:
    """Knobs for universe construction; int_range adds lo..hi as constants."""

    int_range: tuple | None = None

    def __post_init__(self) -> None:
        if self.int_range is not None:
            lo, hi = self.int_range
            if lo > hi:
                raise ValueError(f"empty int_range {lo}..{hi}")


@dataclass(frozen=True)
class GroundProgram:
    """Variable-free program with its term universe; rules sorted and deduplicated."""

    rules: tuple = ()
    universe: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "universe", tuple(self.universe))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def herbrand_universe(p, opts: GroundingOptions = GroundingOptions()) -> tuple:
    """All ground terms occurring in p, plus the optional integer range."""
    terms = set()
    for r in p.rules:
        for t in walk_terms(r):
            if is_ground(t):
                terms.add(t)
    if opts.int_range is not None:
        lo, hi = opts.int_range
        terms.update(IntConst(v) for v in range(lo, hi + 1))
    return tuple(sorted(terms, key=str))


def check_safety(p) -> list:
    """One diagnostic per rule whose variables are not bound by a positive body atom."""
    out = []
    for i, r in enumerate(p.rules):
        bound = set()
        for lit in r.body:
            if lit.positive and isinstance(lit.atom, Atom):
                bound.update(t for t in walk_terms(lit.atom) if isinstance(t, AspVar))
        loose = rule_variables(r) - bound
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            out.append(Diagnostic(i, f"unsafe variables: {names}"))
    return out


def _subst_term(t, env: dict):
    if isinstance(t, AspVar):
        return env[t]
    if isinstance(t, FuncTerm):
        return FuncTerm(t.name, tuple(_subst_term(a, env) for a in t.args))
    return t


def _subst_elem(e, env: dict):
    if isinstance(e, Atom):
        return Atom(e.predicate, tuple(_subst_term(a, env) for a in e.args))
    if isinstance(e, LinearConstraintAtom):
        return LinearConstraintAtom(
            tuple((k, _subst_term(t, env)) for k, t in e.terms), e.cmp, e.rhs
        )
    if isinstance(e, DiffConstraintAtom):
        return DiffConstraintAtom(
            _subst_term(e.lhs_var, env), _subst_term(e.rhs_var, env), e.bound
        )
    if isinstance(e, AssignmentAtom):
        return AssignmentAtom(
            _subst_term(e.lo, env), _subst_term(e.hi, env), _subst_term(e.target, env)
        )
    return e


def _subst_rule(r: Rule, env: dict) -> Rule:
    head = r.head if isinstance(r.head, Falsity) else _subst_elem(r.head, env)
    body = tuple(Literal(lit.positive, _subst_elem(lit.atom, env)) for lit in r.body)
    return Rule(head, body)


def _key(a: Atom) -> tuple:
    return (a.predicate, len(a.args))


def _positive_atoms(r: Rule) -> list:
    return [lit.atom for lit in r.body if lit.positive and isinstance(lit.atom, Atom)]


def strongly_connected(succ: dict) -> list:
    """Node sets of the strongly connected components, dependencies first.

    succ maps each node to an iterable of its successors, all of them keys
    of succ.  Tarjan's algorithm on an explicit stack, so a long chain
    cannot reach the recursion limit; it emits a component after every
    component reachable from it.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        k = stack.pop()
                        on_stack.discard(k)
                        component.add(k)
                        if k == node:
                            break
                    out.append(component)
    return out


def _components(rules: list) -> list:
    """Predicate-key sets of the positive dependency graph, dependencies first."""
    succ: dict = {}
    for r in rules:
        succ.setdefault(_key(r.head), {})
    for r in rules:
        edges = succ[_key(r.head)]
        edges.update((k, None) for k in map(_key, _positive_atoms(r)) if k in succ)
    return strongly_connected(succ)


class _KeptAtoms:
    """Atoms kept so far per predicate key, indexed by argument value on first use."""

    def __init__(self) -> None:
        self.by_key: dict = defaultdict(list)
        self.by_arg: dict = {}

    def add(self, atoms) -> None:
        # All atoms of a key arrive in one call, before any lookup of that key.
        for a in atoms:
            self.by_key[_key(a)].append(a)

    def matching(self, pattern: Atom, env: dict):
        """Kept atoms that may match pattern, narrowed by its first bound argument."""
        key = _key(pattern)
        for i, t in enumerate(pattern.args):
            if isinstance(t, AspVar):
                t = env.get(t)
            elif isinstance(t, FuncTerm):
                continue  # may hold variables
            if t is None:
                continue
            index = self.by_arg.get((key, i))
            if index is None:
                index = self.by_arg[key, i] = defaultdict(list)
                for a in self.by_key[key]:
                    index[a.args[i]].append(a)
            return index.get(t, ())
        return self.by_key[key]


def _match(pattern, term, env: dict, universe: set) -> bool:
    """Extend env in place so that pattern becomes term; variables bind only in universe."""
    if isinstance(pattern, AspVar):
        bound = env.get(pattern)
        if bound is None:
            if term not in universe:
                return False
            env[pattern] = term
            return True
        return bound == term
    if isinstance(pattern, FuncTerm):
        return (
            isinstance(term, FuncTerm)
            and term.name == pattern.name
            and len(term.args) == len(pattern.args)
            and all(_match(p, t, env, universe) for p, t in zip(pattern.args, term.args))
        )
    return pattern == term


def _join(atoms: list, kept: _KeptAtoms, universe: set):
    """Yield every binding under which each pattern in atoms is a kept atom.

    Depth first over atoms in order, one candidate iterator per matched
    pattern on an explicit stack, so bindings come in nested-loop order.
    """
    if not atoms:
        yield {}
        return
    envs = [{}]  # envs[i]: the binding atoms[i] is matched under
    stack = [iter(kept.matching(atoms[0], {}))]
    while stack:
        depth = len(stack) - 1
        pattern, env = atoms[depth], envs[depth]
        for a in stack[-1]:
            extended = dict(env)
            if all(_match(p, t, extended, universe) for p, t in zip(pattern.args, a.args)):
                break
        else:
            stack.pop()
            envs.pop()
            continue
        if depth + 1 == len(atoms):
            yield extended
        else:
            envs.append(extended)
            stack.append(iter(kept.matching(atoms[depth + 1], extended)))


def _instantiate(r: Rule, joined: list, kept: _KeptAtoms, universe: tuple, allowed: set):
    """Instances of r whose joined atoms are kept; other variables range over universe."""
    variables = rule_variables(r)
    bound = {t for a in joined for t in walk_terms(a) if isinstance(t, AspVar)}
    free = sorted(variables - bound, key=lambda v: v.name)
    for env in _join(joined, kept, allowed):
        if not variables:
            yield r
            continue
        for values in product(universe, repeat=len(free)):
            yield _subst_rule(r, {**env, **dict(zip(free, values))})


def _greatest_fixpoint(candidates: list, keys: set) -> list:
    """Candidates left once every instance with an unsupported same-component atom is gone."""
    inner = [
        (i, a) for i, r in enumerate(candidates) for a in _positive_atoms(r) if _key(a) in keys
    ]
    if not inner:
        return candidates
    support = Counter(r.head for r in candidates)
    watchers = defaultdict(list)
    doomed = []
    for i, a in inner:
        watchers[a].append(i)
        if not support[a]:
            doomed.append(i)
    dead = [False] * len(candidates)
    while doomed:
        i = doomed.pop()
        if dead[i]:
            continue
        dead[i] = True
        head = candidates[i].head
        support[head] -= 1
        if not support[head]:
            doomed.extend(watchers[head])
    return [r for r, gone in zip(candidates, dead) if not gone]


def ground(p, opts: GroundingOptions = GroundingOptions()) -> GroundProgram:
    """Instantiate p bottom-up over its universe; rejects unsafe programs."""
    diags = check_safety(p)
    if diags:
        raise ValueError("unsafe program: " + "; ".join(str(d) for d in diags))
    universe = herbrand_universe(p, opts)
    allowed = set(universe)
    plain = [r for r in p.rules if isinstance(r.head, Atom)]
    components = _components(plain)
    component_of = {k: i for i, keys in enumerate(components) for k in keys}
    by_component: list = [[] for _ in components]
    for r in plain:
        by_component[component_of[_key(r.head)]].append(r)
    kept = _KeptAtoms()
    ground_rules: list = []
    for i, keys in enumerate(components):
        candidates: list = []
        for r in by_component[i]:
            lower = [a for a in _positive_atoms(r) if _key(a) not in keys]
            candidates.extend(_instantiate(r, lower, kept, universe, allowed))
        live = _greatest_fixpoint(candidates, keys)
        kept.add(dict.fromkeys(r.head for r in live))
        ground_rules.extend(live)
    for r in p.rules:
        if not isinstance(r.head, Atom):
            ground_rules.extend(_instantiate(r, _positive_atoms(r), kept, universe, allowed))
    unique = sorted(set(ground_rules), key=str)
    return GroundProgram(tuple(unique), universe)

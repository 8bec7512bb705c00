"""Join-based grounding over interned term ids.

Safety requires every rule variable to occur in a positive body atom;
constraint atoms never bind variables, and a variable binds only to a term
of the Herbrand universe (a derived term such as f(a) from a head w(f(X))
is never a binding unless it occurs in the program).

Every rule is walked once (``_RuleCode``); the walk yields its variables,
its safety, the ground terms it adds to the universe and each ordinary atom
as a predicate name plus argument codes.  Terms are interned as ints: the
universe's terms are ids 0..U-1 in universe order, and derived function
terms get ids from U on, so "binds only in the universe" is "id below U".
An instance is a rule's code plus a frame, a tuple of ids: the constants
of its atoms with variables, then its variables in the order the join binds
them, then those that range over the universe.  An atom of an instance is (predicate name,
id tuple), read from the frame by an ``itemgetter``.

The result is the greatest set of rule instances in which every positive
body atom is the head of a kept instance.  It is built without the cross
product over all rule variables:

1. The positive dependency graph over predicate keys (name, arity) is
   split into strongly connected components, processed dependencies first.
2. A rule's positive body atoms from lower components are joined against
   the id tuples already kept for those predicates.  A variable occurring
   only in body atoms of the rule's own component ranges over the universe.
   The candidates are then cut down to the greatest fixpoint with support
   counters keyed on atoms as id tuples: an instance dies once one of its
   same-component positive body atoms is the head of no live instance.
3. Integrity constraints and theory-atom heads are joined last, against
   every kept atom.

A variable-free rule is not planned and has no frame: its walk's ground
terms give its atoms' id tuples directly (``_RuleCode.fix``).  It is a
candidate when each of its positive body atoms from a lower component is
already kept, and its same-component body atoms enter the greatest
fixpoint like any instance's.

Only the surviving instances become ``Rule`` objects.  Each distinct ground
atom is one ``Atom`` and each (sign, atom) one ``Literal``; rules are
deduplicated on their id keys and sorted by their text, built from each
atom's string, computed once and kept on the ``Atom``, whose str() returns
it.  Theory atoms with rule variables are substituted per surviving
instance.

The greatest fixpoint keeps positive loops that nothing derives, such as
q(x) :- p(x) and p(x) :- q(x), not s(x).  This shows in casp mode, where
every integer variable the ground program mentions takes a value: add
a :- &diff{x-y} <= 0, q(X) and the kept instances for q(x) and q(y) make x
and y range over the whole domain, one answer per pair of values.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import compress, product
from operator import itemgetter

from .core import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    Diagnostic,
    DiffConstraintAtom,
    FuncTerm,
    LinearConstraintAtom,
    Literal,
    Rule,
    theory_terms,
)


@dataclass(frozen=True)
class GroundProgram:
    """Variable-free program with its term universe; rules sorted and deduplicated."""

    rules: tuple = ()
    universe: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "_numbered", None)  # semantics.numbered's; not a field

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def herbrand_universe(p) -> tuple:
    """All ground terms occurring in p, sorted by text."""
    terms: set = set()
    for r in p.rules:
        _RuleCode(r, terms)
    return tuple(sorted(terms, key=str))


def check_safety(p) -> list:
    """One diagnostic per rule whose variables are not bound by a positive body atom."""
    return _unsafe([_RuleCode(r, set()) for r in p.rules])


def _unsafe(codes: list) -> list:
    return [
        Diagnostic(i, "unsafe variables: " + ", ".join(sorted(v.name for v in c.unsafe)))
        for i, c in enumerate(codes)
        if c.unsafe
    ]


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


def _walk(t, found: list, terms: set):
    """t's raw code: the AspVar itself (appended to found), the ground term
    itself (added to terms), or (name, codes) for a function term with variables."""
    if isinstance(t, AspVar):
        found.append(t)
        return t
    if isinstance(t, FuncTerm):
        codes = tuple(_walk(a, found, terms) for a in t.args)
        if any(isinstance(c, (AspVar, tuple)) for c in codes):
            return (t.name, codes)
    terms.add(t)
    return t


def _place_constants(codes: tuple, slot: dict, consts: list, ids: dict) -> None:
    for c in codes:
        if isinstance(c, tuple):
            _place_constants(c[1], slot, consts, ids)
        elif not isinstance(c, AspVar) and c not in slot:
            slot[c] = len(consts)
            consts.append(ids[c])


def _frame_codes(codes: tuple, slot: dict) -> tuple:
    """Raw codes as frame positions; a function term with variables stays (name, codes)."""
    return tuple(
        (c[0], _frame_codes(c[1], slot)) if isinstance(c, tuple) else slot[c] for c in codes
    )


def _getter(positions) -> itemgetter:
    """A C-level callable giving the items at positions, always as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


class _Terms:
    """Term ids: the universe's terms are 0..size-1 in universe order; derived
    function terms follow, interned on (name, argument ids)."""

    def __init__(self, universe: tuple) -> None:
        self.size = len(universe)
        self.objs = list(universe)
        self.texts = [str(t) for t in universe]
        self.ids = {t: i for i, t in enumerate(universe)}
        self.func_id: dict = {}
        self.func_of: dict = {}
        for i, t in enumerate(universe):
            if isinstance(t, FuncTerm):
                f = (t.name, tuple(self.ids[a] for a in t.args))
                self.func_id[f] = i
                self.func_of[i] = f

    def intern(self, name: str, args: tuple) -> int:
        fid = self.func_id.get((name, args))
        if fid is None:
            fid = self.func_id[name, args] = len(self.objs)
            self.func_of[fid] = (name, args)
            self.objs.append(FuncTerm(name, tuple(self.objs[a] for a in args)))
            self.texts.append(f"{name}({','.join(self.texts[a] for a in args)})")
        return fid

    def build(self, codes: tuple, frame: tuple) -> tuple:
        """The ids of an atom whose codes hold a function term with variables."""
        return tuple(
            self.intern(c[0], self.build(c[1], frame)) if isinstance(c, tuple) else frame[c]
            for c in codes
        )

    def match(self, codes: tuple, args: tuple, env: list) -> bool:
        """Extend env (None where unbound) so that codes become args; a
        variable binds only to an id below size."""
        for c, a in zip(codes, args):
            if type(c) is tuple:
                f = self.func_of.get(a)
                if f is None or f[0] != c[0] or len(f[1]) != len(c[1]):
                    return False
                if not self.match(c[1], f[1], env):
                    return False
            elif env[c] is None:
                if a >= self.size:
                    return False
                env[c] = a
            elif env[c] != a:
                return False
        return True


class _AtomCode:
    """An ordinary atom of a planned rule: ids(frame) gives its argument ids.

    codes are the arguments as frame positions, None for a variable-free atom.
    """

    __slots__ = ("name", "pkey", "codes", "ids")

    def __init__(self, raw: tuple, slot: dict, terms: _Terms) -> None:
        name, codes, variables = raw
        self.name = name
        self.pkey = (name, len(codes))
        if not variables:
            key = tuple([terms.ids[t] for t in codes])
            self.codes = None
            self.ids = lambda frame: key
        else:
            self.codes = _frame_codes(codes, slot)
            if any(isinstance(c, tuple) for c in self.codes):
                self.ids = partial(terms.build, self.codes)
            else:
                self.ids = _getter(self.codes)


class _Kept:
    """Atoms kept so far as id tuples per predicate key, indexed by argument id on first use."""

    def __init__(self) -> None:
        self.rows: dict = {}
        self.keys: set = set()
        self.index: dict = {}

    def add(self, heads) -> None:
        # All atoms of a key arrive in one call, before any lookup of that key.
        for key in heads:
            if key not in self.keys:
                self.keys.add(key)
                self.rows.setdefault((key[0], len(key[1])), []).append(key[1])

    def lookup(self, pkey: tuple, pos: int, value: int):
        index = self.index.get((pkey, pos))
        if index is None:
            index = self.index[pkey, pos] = defaultdict(list)
            for ids in self.rows.get(pkey, ()):
                index[ids[pos]].append(ids)
        return index.get(value, ())

    def join(self, envs: list, atom: _AtomCode, terms: _Terms) -> list:
        """Each env extended by every kept atom that atom matches under it,
        looked up by the first argument the env already binds."""
        if atom.codes is None:
            return envs if (atom.name, atom.ids(())) in self.keys else []
        out = []
        for env in envs:
            for pos, c in enumerate(atom.codes):
                if type(c) is int and env[c] is not None:
                    rows = self.lookup(atom.pkey, pos, env[c])
                    break
            else:
                rows = self.rows.get(atom.pkey, ())
            for args in rows:
                extended = env.copy()
                if terms.match(atom.codes, args, extended):
                    out.append(extended)
        return out


class _RuleCode:
    """A rule walked once, then planned, or fixed if it has no variables,
    once its universe and component are known.

    The walk keeps each ordinary atom as (predicate, raw codes, variables);
    planning lays out the frame: the constants of the atoms with variables,
    then the variables the join binds, then those ranging over the universe.
    """

    def __init__(self, r: Rule, terms: set) -> None:
        found: list = []
        bound: set = set()
        self.raw_head = self._walk_elem(r.head, found, terms)
        ordinary = isinstance(self.raw_head, tuple)
        self.head_pkey = (self.raw_head[0], len(self.raw_head[1])) if ordinary else None
        self.open = bool(found) and not ordinary  # a theory atom holds variables
        self.raw_body = []
        for lit in r.body:
            start = len(found)
            raw = self._walk_elem(lit.atom, found, terms)
            if lit.positive and isinstance(raw, tuple):
                bound.update(raw[2])
            open_ = len(found) > start and not isinstance(raw, tuple)
            self.open = self.open or open_
            self.raw_body.append((lit.positive, raw, open_))
        self.variables = dict.fromkeys(found)
        self.unsafe = [v for v in self.variables if v not in bound]

    @staticmethod
    def _walk_elem(e, found: list, terms: set):
        """(predicate, raw codes, variables) for an ordinary atom; any other element itself."""
        start = len(found)
        if isinstance(e, Atom):
            codes = tuple([_walk(t, found, terms) for t in e.args])
            return (e.predicate, codes, found[start:])
        for t in theory_terms(e):
            _walk(t, found, terms)
        return e

    def fix(self, ids: dict) -> None:
        """A variable-free rule's keys, in place of a plan: hkey is the head's
        (predicate, id tuple), None for #false, or the theory atom itself;
        lits holds (positive, key, predicate key) per literal, where key is
        an ordinary atom's (predicate, id tuple) or a theory atom itself,
        whose predicate key is None."""
        head = self.raw_head
        if type(head) is tuple:
            self.hkey = (head[0], tuple([ids[t] for t in head[1]]))
        else:
            self.hkey = None if head is FALSITY else head
        self.lits = [
            (pos, (e[0], tuple([ids[t] for t in e[1]])), (e[0], len(e[1])))
            if type(e) is tuple else (pos, e, None)
            for pos, e, _ in self.raw_body
        ]

    def plan(self, terms: _Terms, inner: set) -> None:
        """Lay out the frame and the join of a rule with variables (a
        variable-free rule is fixed instead); inner: predicate keys of the
        rule's own component."""
        slot: dict = {}
        consts: list = []
        for e in [self.raw_head, *(e for _, e, _ in self.raw_body)]:
            if isinstance(e, tuple) and e[2]:
                _place_constants(e[1], slot, consts, terms.ids)
        for positive, e, _ in self.raw_body:
            if positive and isinstance(e, tuple) and (e[0], len(e[1])) not in inner:
                for v in e[2]:
                    slot.setdefault(v, len(slot))
        free = [v for v in self.variables if v not in slot]
        self.start = consts + [None] * (len(slot) - len(consts))
        for v in free:
            slot[v] = len(slot)
        self.slot = slot
        self.tails = list(product(range(terms.size), repeat=len(free)))
        code = partial(_AtomCode, slot=slot, terms=terms)
        head = self.raw_head
        self.head = code(head) if isinstance(head, tuple) else head
        self.body = [(pos, code(e) if isinstance(e, tuple) else e, open_) for pos, e, open_ in self.raw_body]
        positive = [e for pos, e, _ in self.body if pos and isinstance(e, _AtomCode)]
        self.lower = [e for e in positive if e.pkey not in inner]
        self.inner = [e for e in positive if e.pkey in inner]

    def frames(self, kept: _Kept, terms: _Terms, inner) -> list:
        """The frames of the rule's candidate instances: its positive body
        atoms from lower components joined against kept, inner holding the
        predicate keys of its own component.  A variable-free rule is fixed,
        not planned: its one frame is None, if those atoms are all kept."""
        if not self.variables:
            self.fix(terms.ids)
            for pos, k, pkey in self.lits:
                if pos and pkey and pkey not in inner and k not in kept.keys:
                    return []
            return [None]
        self.plan(terms, inner)
        envs = [self.start]
        for atom in self.lower:
            envs = kept.join(envs, atom, terms)
        return [tuple(env) + tail for env in envs for tail in self.tails]


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


def _components(plain: list) -> list:
    """Predicate-key sets of the positive dependency graph, dependencies first."""
    succ: dict = {}
    for c in plain:
        succ.setdefault(c.head_pkey, {})
    for c in plain:
        edges = succ[c.head_pkey]
        for positive, e, _ in c.raw_body:
            if positive and isinstance(e, tuple) and (e[0], len(e[1])) in succ:
                edges[e[0], len(e[1])] = None
    return strongly_connected(succ)


def _greatest_fixpoint(heads: list, inner: list) -> list:
    """Which candidates are left once every instance with an unsupported
    same-component atom is gone: one flag per candidate, given its head
    key in heads, and inner holding (candidate number, atom key) per
    same-component positive body atom."""
    alive = [True] * len(heads)
    if not inner:
        return alive
    support = Counter(heads)
    watchers = defaultdict(list)
    doomed = []
    for n, atom in inner:
        watchers[atom].append(n)
        if atom not in support:
            doomed.append(n)
    while doomed:
        n = doomed.pop()
        if not alive[n]:
            continue
        alive[n] = False
        head = heads[n]
        support[head] -= 1
        if not support[head]:
            doomed.extend(watchers.get(head, ()))
    return alive


class _Builder:
    """Rule objects for the surviving instances, deduplicated on id keys.

    An ordinary atom's key is (predicate, id tuple), a theory atom's its
    number here, a literal's (sign, atom key) and a rule's (head key, literal
    keys), with None for a #false head.  Each key has one object, which
    every rule shares.
    """

    def __init__(self, terms: _Terms) -> None:
        self.terms = terms
        self.atoms: dict = {}  # key -> (Atom, text)
        self.theory: dict = {}  # theory atom -> key
        self.theory_atoms: list = []  # key -> (theory atom, text)
        self.literals: dict = {}  # key -> (Literal, text)
        self.rules: dict = {}  # key -> [text, Rule]

    def _atom(self, key) -> tuple:
        if type(key) is int:
            return self.theory_atoms[key]
        entry = self.atoms.get(key)
        if entry is None:
            name, ids = key
            texts = self.terms.texts
            # the format of Atom.__str__, which Atom.with_text must be given
            text = f"{name}({','.join([texts[i] for i in ids])})" if ids else name
            atom = Atom.with_text(name, tuple([self.terms.objs[i] for i in ids]), text)
            entry = self.atoms[key] = (atom, text)
        return entry

    def _theory_key(self, e) -> int:
        key = self.theory.get(e)
        if key is None:
            key = self.theory[e] = len(self.theory_atoms)
            self.theory_atoms.append((e, str(e)))
        return key

    def _literal(self, key: tuple) -> tuple:
        positive, akey = key
        atom, text = self._atom(akey)
        entry = self.literals[key] = (Literal.new(positive, atom), text if positive else "not " + text)
        return entry

    def add(self, c: _RuleCode, frame) -> None:
        """The rule of c at frame, or of the variable-free c at frame None."""
        if frame is None:
            hkey = c.hkey
            if hkey is not None and type(hkey) is not tuple:
                hkey = self._theory_key(hkey)
            lkeys = tuple([(pos, k if pkey else self._theory_key(k)) for pos, k, pkey in c.lits])
        else:
            env = None
            if c.open:
                objs = self.terms.objs
                env = {v: objs[frame[c.slot[v]]] for v in c.variables}
            head = c.head
            if head is FALSITY:
                hkey = None
            elif type(head) is _AtomCode:
                hkey = (head.name, head.ids(frame))
            else:
                hkey = self._theory_key(_subst_elem(head, env) if env else head)
            lkeys = tuple([
                (pos, (e.name, e.ids(frame)) if type(e) is _AtomCode
                 else self._theory_key(_subst_elem(e, env) if open_ else e))
                for pos, e, open_ in c.body
            ])
        entry: list = []  # [text, Rule] when the rule is new
        if self.rules.setdefault((hkey, lkeys), entry) is not entry:
            return
        get = self.literals.get
        entries = [get(k) or self._literal(k) for k in lkeys]
        lits = tuple([lit for lit, _ in entries])
        body = ", ".join([text for _, text in entries])
        if hkey is None:
            head, text = FALSITY, f":- {body}."
        else:
            head, text = self.atoms.get(hkey) or self._atom(hkey)
            text = f"{text} :- {body}." if lits else f"{text}."
        entry += (text, Rule.new(head, lits))

    def sorted_rules(self) -> tuple:
        return tuple(r for _, r in sorted(self.rules.values(), key=itemgetter(0)))


def ground(p) -> GroundProgram:
    """Instantiate p bottom-up over its universe; rejects unsafe programs."""
    found: set = set()
    codes = [_RuleCode(r, found) for r in p.rules]
    diags = _unsafe(codes)
    if diags:
        raise ValueError("unsafe program: " + "; ".join(str(d) for d in diags))
    universe = tuple(sorted(found, key=str))
    terms = _Terms(universe)
    plain = [c for c in codes if c.head_pkey]
    components = _components(plain)
    component_of = {k: i for i, keys in enumerate(components) for k in keys}
    by_component: list = [[] for _ in components]
    for c in plain:
        by_component[component_of[c.head_pkey]].append(c)
    kept = _Kept()
    builder = _Builder(terms)
    for i, keys in enumerate(components):
        candidates: list = []  # (code, frame)
        heads: list = []
        inner: list = []
        for c in by_component[i]:
            for f in c.frames(kept, terms, keys):
                if f is None:
                    inner += [(len(heads), k) for pos, k, pkey in c.lits if pos and pkey in keys]
                    heads.append(c.hkey)
                else:
                    inner += [(len(heads), (a.name, a.ids(f))) for a in c.inner]
                    heads.append((c.head.name, c.head.ids(f)))
                candidates.append((c, f))
        alive = _greatest_fixpoint(heads, inner)
        kept.add(compress(heads, alive))
        for c, f in compress(candidates, alive):
            builder.add(c, f)
    for c in codes:
        if not c.head_pkey:
            for f in c.frames(kept, terms, ()):
                builder.add(c, f)
    return GroundProgram(builder.sorted_rules(), universe)

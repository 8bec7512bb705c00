"""Join-based grounding over interned term ids.

Safety requires every rule variable to occur in a positive body atom;
constraint atoms never bind variables, and a variable binds only to a term
of the Herbrand universe (a derived term such as f(a) from a head w(f(X))
is never a binding unless it occurs in the program).

Every rule with variables is walked once (``_RuleCode``); the walk
yields its variables, its safety, the ground terms it adds to the universe
and each ordinary atom as a predicate name plus argument codes.  Terms are
interned as ints: the universe's terms are ids 0..U-1 in universe order, and
derived function terms ids from U on, so "binds only in the universe" is "id below U".
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

A rule without variables is data, as in gringo's predicate domains, and
gets no ``_RuleCode``.  A constant fact (no body, an ordinary head over
constants) has its arguments join the universe, and its key is kept, and
made one bodiless row, before any component is processed; it supports its
component's instances in the greatest fixpoint.  Any other variable-free
rule has its terms join the universe, and, once the universe is known, its
atoms' keys come straight from its terms: it is one candidate, in its rule's
place among its component's, when each of its positive body atoms from a
lower component is already kept, and its same-component body atoms enter
the greatest fixpoint like any instance's.

The surviving instances go straight into the numbered rule table
(``_Table``).  Each distinct ground element, an ordinary atom keyed by its
(predicate, id tuple) or a theory atom keyed by itself, gets a number and
its text when its key is first built, and each kept instance is one row
(head, literals) over those numbers, deduplicated on that tuple.  Theory
atoms with rule variables are substituted per surviving instance.
``semantics.numbered`` alone orders the elements, theory atoms first and
each kind by text, and remaps the rows.  An ordinary atom stays its key and
its text: its ``Atom`` is built only when something reads it, through the
one accessor ``_Table.elements``, which ``GroundProgram.rules``,
``_Compiled.atoms`` and the answers' atom sets share, so every reader gets
one object per element.  ``Literal`` and ``Rule`` objects are built when
``GroundProgram.rules`` is first read: one per distinct literal, the rules
sorted by their text.  Solving and printing need none of them: the CLI
prints an answer's atoms from their texts, and ``ground --text`` formats
each row from its elements' texts (``_Table.lines``).

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
from itertools import compress, count, product, repeat
from operator import itemgetter

from .core import (
    FALSITY,
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
    SymConst,
    _set,
    theory_terms,
)


@dataclass(frozen=True, init=False)
class GroundProgram:
    """Variable-free program with its term universe.

    Its numbered rule table (_Table) is the grounder's, or, for a program
    built by hand from rules, made in one pass over them when numbered asks.
    The grounder's program builds its rules (sorted by text, deduplicated)
    from its table when rules is first read, and formats its text from the
    table's texts, building no rule.
    """

    rules: tuple
    universe: tuple

    def __init__(self, rules=(), universe=(), _table=None) -> None:
        if _table is None:
            _set(self, "rules", tuple(rules))
        _set(self, "universe", tuple(universe))
        _set(self, "_table", _table)
        _set(self, "_numbered", None)  # semantics.numbered's; not a field

    def __getattr__(self, name: str):
        # only the grounder's program misses an attribute: rules, until read
        if name != "rules" or self.__dict__.get("_table") is None:
            raise AttributeError(name)
        _set(self, "rules", self._table.rules())
        return self.rules

    def rule_count(self) -> int:
        """len(self.rules), without building the rules."""
        return len(self.rules) if "rules" in self.__dict__ else len(self._table.rows)

    def __str__(self) -> str:
        return "\n".join(sorted(self._table.lines()) if self._table is not None
                         else map(str, self.rules))


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
        if type(c) is _RuleCode and c.unsafe
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
    return itemgetter(*positions)


class _Terms:
    """Term ids and texts: the universe's terms (texts given) are 0..size-1 in
    universe order; derived function terms follow, interned on (name, argument ids)."""

    def __init__(self, universe: tuple, texts: list) -> None:
        self.size = len(universe)
        self.objs = list(universe)
        self.texts = texts
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
        # All atoms of a key arrive before any lookup of that key.
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
    """A rule walked once, then planned once its universe and component are
    known.  ground walks only rules with variables.

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
        self.body_pkeys = [(e[0], len(e[1])) for positive, e, _ in self.raw_body
                           if positive and type(e) is tuple]
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

    def plan(self, terms: _Terms, inner: set) -> None:
        """Lay out the frame and the join; inner: predicate keys of the
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
        # a literal's sign as a mask: number ^ 0 is a positive literal, number ^ -1 (~number) a negative one
        self.body = [(0 if pos else -1, code(e) if isinstance(e, tuple) else e, open_)
                     for pos, e, open_ in self.raw_body]
        positive = [e for sign, e, _ in self.body if not sign and isinstance(e, _AtomCode)]
        self.lower = [e for e in positive if e.pkey not in inner]
        self.inner = [e for e in positive if e.pkey in inner]

    def frames(self, kept: _Kept, terms: _Terms, inner) -> list:
        """The frames of the rule's candidate instances: its positive body
        atoms from lower components joined against kept, inner holding the
        predicate keys of its own component."""
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
    """Predicate-key sets of the positive dependency graph, dependencies
    first; plain holds (head key, positive body atoms' keys, ...) per rule."""
    succ: dict = {}
    for head, _, _ in plain:
        succ.setdefault(head, {})
    for head, body, _ in plain:
        edges = succ[head]
        for k in body:
            if k in succ:
                edges[k] = None
    return strongly_connected(succ)


def _fixed(ts, terms: set) -> bool:
    """Do the terms ts hold no variable?  Each that holds none joins terms,
    with its subterms, as a walk would add it."""
    free = True
    for t in ts:
        if type(t) is AspVar:
            free = False
        elif type(t) is not FuncTerm or _fixed(t.args, terms):
            terms.add(t)
        else:
            free = False
    return free


def _fixed_row(r: Rule, ids: dict) -> tuple:
    """A variable-free rule as data: its head's predicate key (None unless
    the head is ordinary) and its head's key (None for #false), then
    (key, sign mask) per literal, then (key, predicate key) per positive
    ordinary body atom.  An ordinary atom's key is (predicate, id tuple),
    any other element's the element itself."""
    lits = []
    body = []
    for lit in r.body:
        e = lit.atom
        if type(e) is Atom:
            k = (e.predicate, tuple([ids[t] for t in e.args]))
            if lit.positive:
                body.append((k, (e.predicate, len(e.args))))
        else:
            k = e
        lits.append((k, 0 if lit.positive else -1))
    h = r.head
    if type(h) is Atom:
        head = (h.predicate, tuple([ids[t] for t in h.args]))
        return (h.predicate, len(h.args)), head, lits, body
    return None, None if h is FALSITY else h, lits, body


def _greatest_fixpoint(heads: list, inner: list, given: set) -> list:
    """Which candidates are left once every instance with an unsupported
    same-component atom is gone: one flag per candidate, given its head
    key in heads, inner holding (candidate number, atom key) per same-component
    positive body atom, and given the keys kept already: the constant facts,
    supported without a candidate, and lower components' atoms, never inner."""
    alive = [True] * len(heads)
    if not inner:
        return alive
    support = Counter(heads)
    watchers = defaultdict(list)
    doomed = []
    for n, atom in inner:
        watchers[atom].append(n)
        if atom not in support and atom not in given:
            doomed.append(n)
    while doomed:
        n = doomed.pop()
        if not alive[n]:
            continue
        alive[n] = False
        head = heads[n]
        support[head] -= 1
        if not support[head] and head not in given:
            doomed.extend(watchers.get(head, ()))
    return alive


class _Table(dict):
    """The numbered rule table: maps each element key to its number, until
    the grounder's table is finished.

    An element is an ordinary or a theory atom.  The grounder keys an
    ordinary atom by (predicate, id tuple); any other key, and every key of
    a table of rules built by hand, is the element itself.  Numbers follow
    first insertion; texts holds each number's text, and theory the numbers
    of the theory atoms.  rows holds each rule once, in the order added, as
    (head, literals): head a number or -1 for #false, a literal n if
    positive and ~n if negative, in body order.  objs holds each number's
    key until elements() first reads it, and its object from then on: an
    ordinary atom's Atom is built then, given its text.
    """

    def __init__(self, terms: _Terms | None = None) -> None:
        self.terms = terms  # the grounder's, then its term objects; None for rules built by hand
        self.texts: list = []
        self.theory: list = []
        self.rows: dict = {}  # (head, literals) -> None
        self.objs: list = []  # filled once every row is in

    def __missing__(self, key) -> int:
        n = self[key] = len(self.texts)
        if type(key) is tuple:
            name, ids = key
            texts = self.terms.texts
            # the format of Atom.__str__, which an Atom given its text must return
            self.texts.append(f"{name}({','.join(map(texts.__getitem__, ids))})" if ids else name)
        else:
            self.texts.append(str(key))
            self.theory.append(n)
        return n

    @classmethod
    def of_rules(cls, rules) -> "_Table":
        """The table of rules built by hand, numbered in their order."""
        table = cls()
        number, rows = table.setdefault, table.rows
        for r in rules:
            h = -1 if isinstance(r.head, Falsity) else number(r.head, len(table))
            lits = []
            for lit in r.body:
                n = number(lit.atom, len(table))
                lits.append(n if lit.positive else ~n)
            rows[h, tuple(lits)] = None
        table.objs = list(table)
        table.texts = list(map(str, table))
        table.theory = [n for n, e in enumerate(table.objs) if type(e) is not Atom]
        return table

    def add(self, c, frame, head=None) -> None:
        """The row of the _RuleCode c's instance at frame, head the key of
        its ordinary head if it has one, or of the variable-free rule c
        (_fixed_row) at frame None."""
        if frame is None:
            head = c[1]
            lits = tuple([self[k] ^ sign for k, sign in c[2]])
        else:
            env = None
            if c.open:
                objs = self.terms.objs
                env = {v: objs[frame[c.slot[v]]] for v in c.variables}
            if head is None and c.head is not FALSITY:
                head = _subst_elem(c.head, env) if env else c.head
            lits = tuple([
                self[(e.name, e.ids(frame)) if type(e) is _AtomCode
                     else _subst_elem(e, env) if open_ else e] ^ sign
                for sign, e, open_ in c.body
            ])
        self.rows[-1 if head is None else self[head], lits] = None

    def finish(self) -> None:
        """Keep each element's key in objs and the term objects an Atom is
        built from; the key map goes, since nothing looks a key up once
        every row is in."""
        self.objs = list(self)
        self.terms = self.terms.objs
        self.clear()

    def elements(self, numbers) -> list:
        """The objects of the elements with the given numbers.  An ordinary
        atom's Atom is built, given its text, on its first read and kept in
        objs, so every reader shares one object per element."""
        objs = self.objs
        out = []
        for n in numbers:
            e = objs[n]
            if type(e) is tuple:
                e = objs[n] = Atom(e[0], tuple(map(self.terms.__getitem__, e[1])), self.texts[n])
            out.append(e)
        return out

    def lines(self) -> list:
        """Each row's text, in row order, as Rule.__str__ formats it."""
        texts = self.texts
        out = []
        for h, lits in self.rows:
            body = ", ".join([texts[c] if c >= 0 else "not " + texts[~c] for c in lits])
            out.append(f":- {body}." if h < 0 else f"{texts[h]} :- {body}." if lits
                       else f"{texts[h]}.")
        return out

    def rules(self) -> tuple:
        """The rows as Rules sorted by their text; the Rules share one
        Literal per distinct literal and one object per element."""
        objs = self.elements(range(len(self.objs)))
        made = dict.fromkeys(c for _, lits in self.rows for c in lits)
        for c in made:
            made[c] = Literal(True, objs[c]) if c >= 0 else Literal(False, objs[~c])
        rules = [
            Rule(objs[h] if h >= 0 else FALSITY, tuple(map(made.__getitem__, lits)))
            for h, lits in self.rows
        ]
        order = sorted(range(len(rules)), key=self.lines().__getitem__)
        return tuple(map(rules.__getitem__, order))


def ground(p) -> GroundProgram:
    """Instantiate p bottom-up over its universe; rejects unsafe programs."""
    found: set = set()
    facts = []  # the constant facts' heads
    codes = []  # per rule: its _RuleCode, the rule if variable-free, None if a constant fact
    for r in p.rules:
        h = r.head
        if not r.body and type(h) is Atom and all(type(t) in (SymConst, IntConst) for t in h.args):
            found.update(h.args)
            facts.append(h)
            codes.append(None)
        elif all(_fixed(e.args if type(e) is Atom else theory_terms(e), found)
                 for e in (h, *[lit.atom for lit in r.body])):
            codes.append(r)  # a variable-free rule, whose terms have joined the universe
        else:
            codes.append(_RuleCode(r, found))
    diags = _unsafe(codes)
    if diags:
        raise ValueError("unsafe program: " + "; ".join(str(d) for d in diags))
    text = {t: str(t) for t in found}  # each term formatted once
    universe = tuple(sorted(found, key=text.__getitem__))
    terms = _Terms(universe, [text[t] for t in universe])
    plain = []  # (head's predicate key, positive body atoms' predicate keys, code or row)
    rest = []  # the codes and rows whose head is not an ordinary atom
    for c in codes:
        if type(c) is Rule:
            c = _fixed_row(c, terms.ids)
            pkey, body = c[0], [k for _, k in c[3]]
        elif c:
            pkey, body = c.head_pkey, c.body_pkeys
        else:
            continue
        if pkey:
            plain.append((pkey, body, c))
        else:
            rest.append(c)
    components = _components(plain)
    component_of = {k: i for i, keys in enumerate(components) for k in keys}
    by_component: list = [[] for _ in components]
    for k, _, c in plain:
        by_component[component_of[k]].append(c)
    kept = _Kept()
    table = _Table(terms)
    if facts:
        given = [(h.predicate, tuple([terms.ids[t] for t in h.args])) for h in facts]
        kept.add(given)
        for k in given:
            table.rows[table[k], ()] = None
    for i, keys in enumerate(components):
        candidates: list = []  # (code, frame), frame None for a variable-free rule
        heads: list = []
        inner: list = []
        for c in by_component[i]:
            if type(c) is tuple:  # variable-free: one candidate, if its lower atoms are kept
                if all(k in kept.keys for k, pkey in c[3] if pkey not in keys):
                    inner += [(len(heads), k) for k, pkey in c[3] if pkey in keys]
                    heads.append(c[1])
                    candidates.append((c, None))
                continue
            frames = c.frames(kept, terms, keys)
            if frames:
                for a in c.inner:
                    inner += zip(count(len(heads)), zip(repeat(a.name), map(a.ids, frames)))
                heads += zip(repeat(c.head.name), map(c.head.ids, frames))
                candidates += zip(repeat(c), frames)
        alive = _greatest_fixpoint(heads, inner, kept.keys)
        kept.add(compress(heads, alive))
        for (c, f), h in compress(zip(candidates, heads), alive):
            table.add(c, f, h)
    for c in rest:
        if type(c) is tuple:
            if all(k in kept.keys for k, _ in c[3]):
                table.add(c, None)
        else:
            for f in c.frames(kept, terms, ()):
                table.add(c, f)
    table.finish()
    return GroundProgram(universe=universe, _table=table)

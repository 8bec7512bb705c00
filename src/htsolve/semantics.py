"""The engines' shared layer: numbering, the Boolean core and the oracle.

The answer sets computed here are those of the two-world relation in ht:
total interpretations with no strictly smaller here world.  Two solve
modes differ in what "smaller" means:

* casp: every integer variable must be valued, the valuation is shared by
  both worlds and exempt from minimization; only atom sets shrink.
* founded: valuations may be partial, and sub-valuations (dropping defined
  pairs) take part in minimization alongside atom subsets.

The reference enumerator numbers the program once, into the rule table the
Boolean core reads (_Compiled), and walks every valuation within bounds.
A valuation matters to the Boolean part only through its truth vector,
the truth of each distinct theory atom, so the core solves once per
distinct truth vector, with the theory atoms assumed to their truth.
Founded mode adds a Horn check per proper sub-valuation, cached by (atoms,
truth vector, sub-valuation's truth vector).

The Boolean core (_Core; the search engine runs it too) runs Smodels'
expand (Simons, Niemela, Soininen 2002) to a fixpoint after every
assignment, on an explicit trail, in passes linear in the program.
Atleast forces the head of a true body, makes false the last open literal
of a rule whose head cannot hold, and sets false every atom (theory atoms
need no rule) whose rules all have a false body.  Atmost derives, by a
Horn least fixpoint, the atoms on positive cycles that the rules could
still support, and sets the others false; off such cycles, support
already implies stability (Fages 1994).  The search branches, false then
true, only on atoms expand leaves open, in id order, and backtracks
chronologically; a leaf without a conflict is a stable model, and facts,
Horn and stratified programs need no decision.

Theory atoms are evaluated by ht's rules: a constraint atom referring to
an undefined variable is false, and an &in assignment whose bounds
reference an undefined variable is true.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product

from .core import (
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    atoms_of,  # noqa: F401  looked up here by the benchmark's tracer
    variable_names,
    variables_of,
)
from .grounder import GroundProgram, strongly_connected

MODES = ("casp", "founded")

_CMP = {
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Valuation:
    """Immutable partial mapping from variable-name terms to integers."""

    entries: tuple = ()

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.entries, key=lambda kv: str(kv[0])))
        names = [str(k) for k, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in valuation")
        object.__setattr__(self, "entries", pairs)

    @classmethod
    def of(cls, mapping) -> "Valuation":
        if isinstance(mapping, dict):
            return cls(tuple(mapping.items()))
        return cls(tuple(mapping))

    @classmethod
    def from_sorted(cls, pairs: tuple) -> "Valuation":
        """Valuation of pairs already sorted by name text, names distinct.

        Nothing is checked.
        """
        val = object.__new__(cls)
        object.__setattr__(val, "entries", pairs)
        return val

    @cached_property
    def _map(self) -> dict:
        """The lookup table, built on first use."""
        return dict(self.entries)

    def get(self, name):
        return self._map.get(name)

    def defined(self, name) -> bool:
        return name in self._map

    def as_dict(self) -> dict:
        return dict(self._map)

    def names(self) -> tuple:
        return tuple(k for k, _ in self.entries)

    def subset_of(self, other: "Valuation") -> bool:
        return all(other.get(k) == v for k, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name) -> bool:
        return name in self._map

    def __str__(self) -> str:
        return valuation_text(self.names(), [v for _, v in self.entries])


def valuation_text(names, values) -> str:
    """How a valuation prints: name=value for each defined value (not None),
    separated by spaces."""
    return " ".join([f"{n}={v}" for n, v in zip(names, values) if v is not None])


EMPTY_VALUATION = Valuation()


@dataclass(frozen=True)
class AnswerSet:
    """Total stable point: an atom set together with its valuation."""

    atoms: frozenset = frozenset()
    val: Valuation = EMPTY_VALUATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))


class _Built(Sequence):
    """A read-only sequence whose items are built from value tuples only when
    read.  It compares equal to a list, tuple or _Built with equal items,
    and + with one of those gives a list."""

    _items = None

    def __getitem__(self, i):
        if self._items is None:
            self._items = list(self)
        return self._items[i]

    def __eq__(self, other):
        if not isinstance(other, (_Built, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __add__(self, other):
        if not isinstance(other, (_Built, list, tuple)):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return list(other) + list(self)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class Answers(_Built):
    """Answer sets in printed order, held as value tuples per atom set.

    groups holds (atoms, values) pairs: an atom set and a sized iterable of
    value tuples over variables (in text order; None where a variable is
    undefined, founded mode only), in grid order.  An AnswerSet is built
    only when read, so a printer reads groups instead.
    """

    def __init__(self, variables: tuple, groups: list):
        self.variables = variables
        self.groups = groups
        self._len = sum(len(values) for _, values in groups)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        variables = self.variables
        for atoms, values in self.groups:
            for vals in values:
                if None in vals:  # undefined variables are left out
                    pairs = tuple([(v, x) for v, x in zip(variables, vals) if x is not None])
                else:
                    pairs = tuple(zip(variables, vals))
                yield AnswerSet(atoms, Valuation.from_sorted(pairs))

    def head(self, k: int) -> "Answers":
        """The first k answers."""
        groups = []
        for atoms, values in self.groups:
            if k <= 0:
                break
            if len(values) > k:
                values = list(islice(values, k))
            groups.append((atoms, values))
            k -= len(values)
        return Answers(self.variables, groups)


# --- compiled fast paths ---------------------------------------------------

# Head codes of compiled rows: an atom's bit (> 0), _FAIL for a head that
# cannot hold, or ~tid (< 0) for the theory atom numbered tid.
_FAIL = 0

# comparator of a false atom; over the integers, < and > become <= and >=
_NEGATED = {"<=": ">", "=": "!=", "!=": "=", "<": ">=", ">": "<=", ">=": "<"}
_STRICT = {"<": ("<=", -1), ">": (">=", 1)}


def _row(atom, sign: bool, position: dict) -> tuple:
    """atom under its sign as (terms, cmp, rhs), meaning sum c * x[p] cmp rhs.

    terms are the (position, coefficient) pairs with a nonzero merged
    coefficient, in position order; integer constants are folded into rhs,
    and cmp is one of <=, >=, = and !=.
    """
    if isinstance(atom, DiffConstraintAtom):
        elems, cmp, rhs = ((1, atom.lhs_var), (-1, atom.rhs_var)), "<=", atom.bound
    else:
        elems, cmp, rhs = atom.terms, atom.cmp, atom.rhs
    coef: dict = {}
    for k, t in elems:
        if isinstance(t, IntConst):
            rhs -= k * t.value
        else:
            coef[position[t]] = coef.get(position[t], 0) + k
    if not sign:
        cmp = _NEGATED[cmp]
    if cmp in _STRICT:
        cmp, shift = _STRICT[cmp]
        rhs += shift
    return sorted((p, k) for p, k in coef.items() if k), cmp, rhs


def _operand(t, position: dict):
    """Getter of a term's value from a value tuple; None when undefined."""
    if isinstance(t, IntConst):
        return lambda vals, c=t.value: c
    return operator.itemgetter(position[t])


def _evaluator(e, position: dict):
    """Truth of theory atom e over a value tuple, by ht._elem_true's rules."""
    if isinstance(e, AssignmentAtom):
        lo, hi, target = (_operand(t, position) for t in (e.lo, e.hi, e.target))

        def assign(vals):
            vlo, vhi = lo(vals), hi(vals)
            if vlo is None or vhi is None:
                return True
            v = target(vals)
            return v is not None and vlo <= v <= vhi

        return assign
    if not isinstance(e, (LinearConstraintAtom, DiffConstraintAtom)):
        raise ValueError(f"cannot evaluate {e!r}")
    # every variable named must be defined, also one whose coefficients cancel
    named = tuple({position[t]: None for t in variable_names(e)})
    terms, cmp, rhs = _row(e, True, position)
    holds = _CMP[cmp]

    def constraint(vals):
        for p in named:
            if vals[p] is None:
                return False
        tally = 0
        for p, c in terms:
            tally += c * vals[p]
        return holds(tally, rhs)

    return constraint


class _Compiled:
    """A ground program numbered once: the rule table every engine reads.

    Boolean ids put the t distinct theory atoms first, by first occurrence
    with a rule's head before its body, so theory[k] is id k and abstract()'s
    __t{k+1}; the atoms follow in text order, atoms[i] as id t + i.  rules
    holds each rule as (head, pos, neg) of ids, head -1 for a constraint,
    bodies without repeats, and no rule with its head in its positive body
    (it always holds and supports nothing).  variables are in text order.
    The oracle reads a valuation as a value tuple (None: undefined) and each
    theory atom as an evaluator over such tuples; a truth vector tau holds
    every theory atom's truth at one valuation, and the stable models a
    valuation allows depend only on its tau.  Founded mode reads ids as
    bits of a mask and each rule as a row of horn.
    """

    def __init__(self, g: GroundProgram):
        index: dict = {}  # atom -> number of its first occurrence
        theory: dict = {}  # theory atom -> id
        raw = []
        for r in g.rules:
            head = r.head
            if isinstance(head, Atom):
                h = index.setdefault(head, len(index))
            elif isinstance(head, Falsity):
                h = None
            else:
                h = ~theory.setdefault(head, len(theory))
            pos, neg, pids, nids = [], [], [], []
            for lit in r.body:
                e = lit.atom
                if isinstance(e, Atom):
                    (pos if lit.positive else neg).append(index.setdefault(e, len(index)))
                else:
                    (pids if lit.positive else nids).append(theory.setdefault(e, len(theory)))
            raw.append((h, pos, neg, pids, nids))

        self.theory = tuple(theory)
        self.atoms = tuple(sorted(index, key=str))
        ids = [0] * len(index)  # first-occurrence number -> Boolean id
        for i, a in enumerate(self.atoms, len(theory)):
            ids[index[a]] = i
        self.rules = []
        for h, pos, neg, pids, nids in raw:
            p = list({*map(ids.__getitem__, pos), *pids})
            h = -1 if h is None else ids[h] if h >= 0 else ~h
            if h not in p:
                self.rules.append((h, p, list({*map(ids.__getitem__, neg), *nids})))

        self.variables = variables_of(theory)
        for v in self.variables:
            if isinstance(v, AspVar):
                raise ValueError(f"non-ground element: variable {v}")

    @cached_property
    def evaluators(self) -> list:
        """Each theory atom's truth over a value tuple, built on first use."""
        position = {v: p for p, v in enumerate(self.variables)}
        return [_evaluator(e, position) for e in self.theory]

    def truth(self, vals: tuple) -> tuple:
        """tau: the truth of every theory atom under a value tuple."""
        return tuple([ev(vals) for ev in self.evaluators])

    def core(self) -> "_Core":
        """The Boolean core over this table (see _Core)."""
        return _Core(self)

    def visible(self, ids) -> frozenset:
        """The atoms with the given ids, all past the theory atoms."""
        t = len(self.theory)
        return frozenset([self.atoms[i - t] for i in ids])

    @cached_property
    def horn(self) -> list:
        """Each rule as (pos_mask, neg_mask, pids, nids, head code): its body
        atoms' bits, its theory literals' ids, and as head an atom's bit,
        ~k for theory atom k or _FAIL."""
        t = len(self.theory)
        return [
            (sum([1 << a for a in p if a >= t]), sum([1 << a for a in q if a >= t]),
             [a for a in p if a < t], [a for a in q if a < t],
             _FAIL if h < 0 else 1 << h if h >= t else ~h)
            for h, p, q in self.rules
        ]

    def here_world(self, mask: int, tau: tuple, sub: tuple) -> bool:
        """Is there a here world with atoms within mask and a valuation whose
        truth vector is sub, below the there world (mask, tau)?  Its rows
        are Horn, so one exists iff their least model fires no _FAIL row."""
        rows = []
        for pm, nm, pids, nids, hc in self.horn:
            if pm & ~mask or nm & mask or _blocked(pids, nids, sub, tau):
                continue
            if hc < 0 and sub[~hc]:
                continue  # its theory head holds at sub
            rows.append((pm, hc if hc > 0 and hc & mask else _FAIL))
        return _least_model(rows) is not None

    def smaller(self, key: tuple, tau: tuple, subs, memo: dict) -> bool:
        """Does some proper sub-valuation, given by its truth vectors subs,
        have a here world below the there world of the atom ids key and tau?
        memo caches here_world; the mask is made on a miss only."""
        mask = None
        for sub in subs:
            found = memo.get((key, tau, sub))
            if found is None:
                if mask is None:
                    mask = sum([1 << i for i in key])
                found = memo[key, tau, sub] = self.here_world(mask, tau, sub)
            if found:
                return True
        return False

    def sub_truths(self, vals: tuple) -> set:
        """The distinct truth vectors of the proper sub-valuations of vals."""
        subs = list(product(*[(None,) if v is None else (None, v) for v in vals]))
        subs.pop()  # the last one keeps every value: vals itself
        return {self.truth(s) for s in subs}


def numbered(g: GroundProgram) -> _Compiled:
    """g numbered (see _Compiled), once per program object and kept in
    g._numbered (g is immutable); the only maker of a _Compiled."""
    prog = g._numbered
    if prog is None:
        prog = _Compiled(g)
        object.__setattr__(g, "_numbered", prog)
    return prog


def _blocked(pids, nids, pos_truth: tuple, neg_truth: tuple) -> bool:
    """Does a theory literal make the body false?  Positive ones are read
    in pos_truth, negative ones in neg_truth."""
    for i in pids:
        if not pos_truth[i]:
            return True
    for i in nids:
        if neg_truth[i]:
            return True
    return False


def _least_model(rows):
    """Least model of Horn rows (pos_mask, head_code); None once a _FAIL row fires."""
    model = 0
    changed = True
    while changed:
        changed = False
        for pos_mask, hc in rows:
            if (model & pos_mask) == pos_mask:
                if hc == _FAIL:
                    return None
                if not (model & hc):
                    model |= hc
                    changed = True
    return model


class _Core:
    """Propagating search over the rules of a numbered program.

    Its atoms are prog's Boolean ids 0..n-1, its rules prog.rules; the
    theory atoms, ids 0..t-1, need no supporting rule.  Values live in val
    (None while open) and, in assignment order, on the trail; the entries
    before qhead have been propagated, and only those are counted in the
    per-rule counters:

    - need[r]: body literals of r not yet true;
    - false_lits[r]: body literals of r that are false;
    - support[a]: rules with head a and no false body literal.
    """

    def __init__(self, prog: _Compiled) -> None:
        self.t = t = len(prog.theory)
        self.n = n = t + len(prog.atoms)
        self.head, self.pos, self.neg, self.need = heads, pos, neg, need = [], [], [], []
        self.support = support = [0] * n
        self.pos_occ = pos_occ = [[] for _ in range(n)]
        self.neg_occ = neg_occ = [[] for _ in range(n)]
        self.head_occ = head_occ = [[] for _ in range(n)]
        succ: dict = {}  # positive dependency graph of the heads with a positive body
        for r, (h, p, q) in enumerate(prog.rules):
            heads.append(h)
            pos.append(p)
            neg.append(q)
            need.append(len(p) + len(q))
            if h >= 0:
                support[h] += 1
                head_occ[h].append(r)
                if p:
                    succ.setdefault(h, []).extend(p)
            for a in p:
                pos_occ[a].append(r)
            for a in q:
                neg_occ[a].append(r)
        self.false_lits = [0] * len(heads)
        self.val: list = [None] * n
        self.trail: list = []
        self.qhead = 0

        # Unfounded-set check: only atoms on a positive cycle need it; for
        # the rest, support (a rule whose body is not false) is enough.  No
        # rule is left with its head in its positive body, so a cycle has
        # two atoms at least.
        for h, body in succ.items():
            succ[h] = [a for a in body if a in succ]
        self.cyclic = []
        if any(succ.values()):
            self.cyclic = [a for c in strongly_connected(succ) if len(c) > 1 for a in c]
        if not self.cyclic:
            return  # _expand never runs _atmost
        in_loop = bytearray(n)
        for a in self.cyclic:
            in_loop[a] = 1
        self.loop_seeds = [a for a in self.cyclic if a < t]
        self.loop_rules = [r for r, h in enumerate(heads) if h >= 0 and in_loop[h]]
        self.loop_need = []  # per loop rule: body atoms on a positive cycle
        self.loop_occ: list = [[] for _ in range(n)]
        for j, r in enumerate(self.loop_rules):
            inner = [a for a in pos[r] if in_loop[a]]
            self.loop_need.append(len(inner))
            for a in inner:
                self.loop_occ[a].append(j)

    def _set(self, a: int, value: bool) -> None:
        self.val[a] = value
        self.trail.append(a)

    def _falsify_last(self, r: int) -> bool:
        """r has one literal left and its head cannot hold: make it false."""
        val = self.val
        last = None
        for a in self.pos[r]:
            if val[a] is False:
                return True
            if val[a] is None:
                last = (a, False)
        for a in self.neg[r]:
            if val[a]:
                return True
            if val[a] is None:
                last = (a, True)
        if last is None:
            return False  # the body is true already
        self._set(*last)
        return True

    def _start(self) -> bool:
        """Propagate what holds before any decision: facts, rule-less atoms."""
        val = self.val
        for a in range(self.t, self.n):
            if not self.support[a]:
                if val[a]:
                    return False  # assumed true, but no rule can support it
                if val[a] is None:
                    self._set(a, False)
        for r, h in enumerate(self.head):
            if not self.need[r]:
                if h < 0 or val[h] is False:
                    return False
                if val[h] is None:
                    self._set(h, True)
            elif self.need[r] == 1 and h < 0 and not self._falsify_last(r):
                return False
        return True

    def _propagate(self) -> bool:
        """Atleast: forward and backward rule propagation over the trail."""
        val, trail, head = self.val, self.trail, self.head
        need, false_lits, support, t = self.need, self.false_lits, self.support, self.t
        while self.qhead < len(trail):
            a = trail[self.qhead]
            self.qhead += 1
            if val[a]:
                made_true, made_false = self.pos_occ[a], self.neg_occ[a]
            else:
                made_true, made_false = self.neg_occ[a], self.pos_occ[a]
            for r in made_true:
                need[r] -= 1
            for r in made_false:
                false_lits[r] += 1
                if false_lits[r] == 1 and head[r] >= 0:
                    support[head[r]] -= 1
            for r in made_true:
                if false_lits[r] or need[r] > 1:
                    continue
                h = head[r]
                if need[r] == 0:
                    if h < 0 or val[h] is False:
                        return False
                    if val[h] is None:
                        self._set(h, True)
                elif (h < 0 or val[h] is False) and not self._falsify_last(r):
                    return False
            for r in made_false:
                h = head[r]
                if false_lits[r] == 1 and h >= t and not support[h]:
                    if val[h]:
                        return False
                    if val[h] is None:
                        self._set(h, False)
            if val[a] is False:
                for r in self.head_occ[a]:
                    if need[r] == 1 and not false_lits[r] and not self._falsify_last(r):
                        return False
        return True

    def _atmost(self) -> bool:
        """Set false every cyclic atom the open rules cannot derive.

        A Horn least fixpoint over the rules with a cyclic head and no false
        body literal, seeded by the cyclic theory atoms that are not false;
        body atoms off the cycles count as given.
        """
        val, head, false_lits = self.val, self.head, self.false_lits
        rules, occ = self.loop_rules, self.loop_occ
        need = self.loop_need[:]
        reached = bytearray(self.n)
        stack = [a for a in self.loop_seeds if val[a] is not False]
        stack += [head[r] for j, r in enumerate(rules) if not need[j] and not false_lits[r]]
        while stack:
            a = stack.pop()
            if reached[a]:
                continue
            reached[a] = 1
            for j in occ[a]:
                if not false_lits[rules[j]]:
                    need[j] -= 1
                    if not need[j]:
                        stack.append(head[rules[j]])
        for a in self.cyclic:
            if not reached[a]:
                if val[a]:
                    return False
                if val[a] is None:
                    self._set(a, False)
        return True

    def _expand(self) -> bool:
        """Run atleast and atmost to a common fixpoint; False on a conflict."""
        while self._propagate():
            if not self.cyclic:
                return True
            mark = len(self.trail)
            if not self._atmost():
                return False
            if len(self.trail) == mark:
                return True
        return False

    def _undo(self, mark: int) -> None:
        val, trail, head = self.val, self.trail, self.head
        need, false_lits, support = self.need, self.false_lits, self.support
        while len(trail) > mark:
            a = trail.pop()
            if len(trail) < self.qhead:
                if val[a]:
                    made_true, made_false = self.pos_occ[a], self.neg_occ[a]
                else:
                    made_true, made_false = self.neg_occ[a], self.pos_occ[a]
                for r in made_true:
                    need[r] += 1
                for r in made_false:
                    false_lits[r] -= 1
                    if not false_lits[r] and head[r] >= 0:
                        support[head[r]] += 1
            val[a] = None
        self.qhead = mark

    def models(self, assume=()) -> list:
        """Every stable model, each as the ascending tuple of its true ids, in
        the order the search finds them.

        Ids 0..len(assume)-1 are first set to the values in assume, and a
        model must keep them.  Chronological backtracking over the open atoms
        in index order, each tried false, then true; expand runs to a
        fixpoint after each assignment, so a leaf without a conflict is a
        stable model.  Each call starts from an empty trail, so one core
        serves any number of calls.
        """
        self._undo(0)
        for a, value in enumerate(assume):
            self._set(a, value)
        found: list = []
        if not (self._start() and self._expand()):
            return found
        val, trail, n = self.val, self.trail, self.n
        stack: list = []  # (trail length before the decision, atom, flipped)
        nxt = 0
        ok = True
        while True:
            if ok:
                while nxt < n and val[nxt] is not None:
                    nxt += 1
                if nxt == n:
                    found.append(tuple(a for a in range(n) if val[a]))
                    ok = False
                else:
                    stack.append((len(trail), nxt, False))
                    self._set(nxt, False)
                    ok = self._expand()
                continue
            while stack and stack[-1][2]:
                stack.pop()
            if not stack:
                return found
            mark, nxt, _ = stack.pop()
            self._undo(mark)
            stack.append((mark, nxt, True))
            self._set(nxt, True)
            ok = self._expand()


def _bounds_ok(bounds) -> tuple:
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"empty bounds {lo}..{hi}")
    return lo, hi


def _mode_ok(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def is_equilibrium(m: AnswerSet, g: GroundProgram, mode: str, bounds) -> bool:
    """Is m a stable point: a total model with no smaller here-world model?

    In both modes the valuation may name only the program's variables, with
    values within bounds; casp mode also needs every variable valued.
    """
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    prog = numbered(g)
    vd = m.val.as_dict()
    known = set(prog.variables)
    extra = [k for k in vd if k not in known]
    if extra:
        raise ValueError(
            "valuation mentions variables not in the program: "
            + ", ".join(str(k) for k in extra)
        )
    off = [k for k, v in vd.items() if not lo <= v <= hi]
    if off:
        raise ValueError("valuation outside bounds: " + ", ".join(str(k) for k in off))
    if mode == "casp":
        missing = [v for v in prog.variables if v not in vd]
        if missing:
            raise ValueError(
                "casp mode needs a total valuation; undefined: "
                + ", ".join(str(v) for v in missing)
            )
    if not m.atoms.issubset(prog.atoms):
        return False  # no rule derives a foreign atom
    vals = tuple(vd.get(v) for v in prog.variables)
    tau = prog.truth(vals)
    # m's truth on every Boolean id: the theory atoms', then the atoms'
    if not prog.core().models(tau + tuple(a in m.atoms for a in prog.atoms)):
        return False
    key = tuple(i for i, a in enumerate(prog.atoms, len(tau)) if a in m.atoms)
    return mode == "casp" or not prog.smaller(key, tau, prog.sub_truths(vals), {})


def enumerate_equilibrium(g: GroundProgram, mode: str, bounds) -> Answers:
    """All answer sets over the program's atoms and variables, sorted.

    The numbered program's Boolean core is built once.  Each grid point (a
    total valuation in casp mode, a partial one in founded mode) gives a
    truth vector tau, and the core solves each distinct tau once, with the
    theory atoms assumed to their truth in tau.  Founded mode rejects a
    candidate when a proper sub-valuation has a here world, a Horn check
    cached per (atoms, tau, sub-valuation tau).

    Atom sets come in the order of their sorted atom texts (atom ids are in
    text order), and each set's valuations, as value tuples, in grid order:
    variables by text, each undefined first, then ascending.
    """
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    founded = mode == "founded"
    prog = numbered(g)
    core = prog.core()
    # with no variables the grid is one empty valuation: build no options
    values = tuple(range(lo, hi + 1)) if prog.variables else ()
    options = (None,) + values if founded else values
    solved: dict = {}  # tau -> each stable model's ids past its sum(tau) theory ids
    here_memo: dict = {}
    found: dict = {}  # visible atom ids -> value tuples, in grid order
    for vals in product(options, repeat=len(prog.variables)):
        tau = prog.truth(vals)
        keys = solved.get(tau)
        if keys is None:
            keys = solved[tau] = [m[sum(tau):] for m in core.models(tau)]
        if founded and keys:
            subs = prog.sub_truths(vals)
            keys = [key for key in keys if not prog.smaller(key, tau, subs, here_memo)]
        for key in keys:
            found.setdefault(key, []).append(vals)
    return Answers(prog.variables, [(prog.visible(key), found[key]) for key in sorted(found)])

"""The engines' shared layer: numbering, the Boolean core and the oracle.

The answer sets computed here are those of the two-world relation in ht:
total interpretations with no strictly smaller here world.  Two solve
modes differ in what "smaller" means:

* casp: every integer variable must be valued, the valuation is shared by
  both worlds and exempt from minimization; only atom sets shrink.
* founded: valuations may be partial, and sub-valuations (dropping defined
  pairs) take part in minimization alongside atom subsets.

The reference enumerator numbers the program once, from its numbered rule
table into the Boolean core's arrays (_Compiled), and walks every valuation
within bounds.  A valuation matters to the Boolean part only through its
truth vector, the truth of each distinct theory atom, so the core solves
once per distinct truth vector, with the theory atoms assumed to their
truth.  Founded mode walks each variable's static window, not all of
bounds, and keeps a model iff one Horn pass per (truth vector, model),
over the core's rules and static links, finds it to be its own least here
world at a grid point's defined variables.

The Boolean core (_Compiled.models; the search engine runs it too) runs
Smodels' expand (Simons, Niemela, Soininen 2002) to a fixpoint after every
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

Each theory atom is read once per program, into the theory table that
both engines read (_Compiled.theory_table), and is true by ht's rules: a
constraint atom referring to an undefined variable is false, and an &in
atom with an undefined bound is true.
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
    DiffConstraintAtom,
    IntConst,
    _set,
    atoms_of,  # noqa: F401  looked up here by the benchmark's tracer
    variable_names,
    variables_of,
)
from .grounder import GroundProgram, _Table, strongly_connected

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


class Answers(Sequence):
    """Answer sets in printed order, held as value tuples per atom set.

    prog is the numbered program (_Compiled) the answers are of, and
    id_groups holds (ids, values) pairs: the ascending Boolean ids of an
    atom set's atoms and a sized iterable of value tuples over variables
    (prog's, in text order; None where a variable is undefined, founded
    mode only), in grid order.  groups holds the same pairs with each atom
    set as a frozenset of Atoms, built when groups is first read, and an
    AnswerSet is built only when read, so a printer reads id_groups and
    prog.texts instead.  Answers compares equal to a list, tuple or Answers
    with equal items, and + with one of those gives a list.
    """

    _items = _groups = None

    def __init__(self, prog, id_groups: list):
        self.prog = prog
        self.variables = prog.variables
        self.id_groups = id_groups
        self._len = sum(len(values) for _, values in id_groups)

    @property
    def groups(self) -> list:
        if self._groups is None:
            visible = self.prog.visible
            self._groups = [(visible(ids), values) for ids, values in self.id_groups]
        return self._groups

    def __getitem__(self, i):
        if self._items is None:
            self._items = list(self)
        return self._items[i]

    def __eq__(self, other):
        if not isinstance(other, (Answers, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __add__(self, other):
        if not isinstance(other, (Answers, list, tuple)):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return list(other) + list(self)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        # each AnswerSet is built as Valuation.from_sorted builds a Valuation:
        # its atoms are a frozenset already, so its __post_init__ has nothing to do
        variables, new, of = self.variables, object.__new__, Valuation.from_sorted
        for atoms, values in self.groups:
            for vals in values:
                if None in vals:  # undefined variables are left out
                    pairs = tuple([(v, x) for v, x in zip(variables, vals) if x is not None])
                else:
                    pairs = tuple(zip(variables, vals))
                answer = new(AnswerSet)
                _set(answer, "atoms", atoms)
                _set(answer, "val", of(pairs))
                yield answer

    def head(self, k: int) -> "Answers":
        """The first k answers."""
        groups = []
        for ids, values in self.id_groups:
            if k <= 0:
                break
            if len(values) > k:
                values = list(islice(values, k))
            groups.append((ids, values))
            k -= len(values)
        return Answers(self.prog, groups)


# --- the theory table: each constraint atom as one linear row ------------

_STRICT = {"<": ("<=", -1), ">": (">=", 1)}  # over the integers


def _row(atom, position: dict) -> tuple:
    """atom as (terms, cmp, rhs), meaning sum c * x[p] cmp rhs.

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
    if cmp in _STRICT:
        cmp, shift = _STRICT[cmp]
        rhs += shift
    return sorted((p, k) for p, k in coef.items() if k), cmp, rhs


class _Compiled:
    """A ground program numbered once, its theory table, and the Boolean
    core over it.

    It is made from the program's numbered rule table (grounder._Table),
    by ranking its elements by their texts and remapping the rows; no Rule
    is read, so the grounder's program builds its rules only if they are
    read.  This is the one place that orders the elements.  The table's
    record of its theory atoms' numbers tells them from the atoms, and no
    Atom is built here: atoms, and the atom sets visible gives, are read
    from the table (_Table.elements), each Atom built on its first read.

    Boolean ids put the t distinct theory atoms first, in text order, so
    theory[k] is id k; the atoms follow in text order, atoms[i] as id
    t + i.  elems[i] is id i's number in the table and texts[i] its text,
    so joining the texts of ascending ids lists the atoms sorted by text.
    Rule r is (head[r], pos[r], neg[r]) of ids, in the table's row
    order, head -1 for a constraint, bodies without repeats, and no rule
    has its head in its positive body (it always holds and supports
    nothing).  variables are in text order.  cyclic holds the atoms on a
    positive cycle; those whose positive bodies reach no cycle are peeled
    off by counters first, so an acyclic program is never split into
    strongly connected components.
    theory_table holds each theory atom, in id order, as a plain tuple over
    variable positions (the variables' indexes), built here; both engines
    read each theory atom's terms from it alone.  A constraint atom is
    (named, terms, cmp, rhs): the positions of every variable it names,
    one whose coefficients cancel too, then its _row.  An &in atom is
    (None, lo, hi, target), each a position or, for an integer constant c,
    the box (c,), so that no constant is read as a position.  The oracle
    reads a valuation as a value tuple (None: undefined); a truth vector
    tau holds every theory atom's truth at one valuation, and the stable
    models a valuation allows depend only on its tau.

    The core's search (models) keeps values in val (None while open) and,
    in assignment order, on the trail; the entries before qhead have been
    propagated, and only those are counted in need[r] (body literals of r
    not yet true), false_lits[r] (those that are false) and support[a]
    (rules with head a and no false body literal).  Each search starts
    from fresh copies of them, so a program runs one search at a time.
    """

    def __init__(self, table):
        texts = table.texts
        self.n = n = len(texts)
        order = sorted(range(n), key=texts.__getitem__)
        theory = []
        if table.theory:
            is_theory = set(table.theory)
            theory = [e for e in order if e in is_theory]
            order = [e for e in order if e not in is_theory]
        self.table = table
        self.theory = tuple(table.elements(theory)) if theory else ()
        self.t = t = len(theory)
        self.elems = elems = theory + order
        ids = [-1] * (n + 1)  # element number -> Boolean id; ids[-1], a #false head, stays -1
        for i, e in enumerate(elems):
            ids[e] = i
        self.head, self.pos, self.neg, self.base_need = heads, pos, neg, need = [], [], [], []
        self.base_support = support = [0] * n
        self.pos_occ = pos_occ = [[] for _ in range(n)]
        self.neg_occ = neg_occ = [[] for _ in range(n)]
        self.head_occ = head_occ = [[] for _ in range(n)]
        left = [0] * n + [-1]  # per head, its rules' positive body atoms not yet peeled
        for h, lits in table.rows:
            h = ids[h]
            p, q = [], []
            for c in lits:
                if c >= 0:
                    if ids[c] not in p:
                        p.append(ids[c])
                elif ids[~c] not in q:
                    q.append(ids[~c])
            if h in p:
                continue
            r = len(heads)
            heads.append(h)
            pos.append(p)
            neg.append(q)
            need.append(len(p) + len(q))
            if h >= 0:
                support[h] += 1
                head_occ[h].append(r)
                left[h] += len(p)
            for a in p:
                pos_occ[a].append(r)
            for a in q:
                neg_occ[a].append(r)

        self.variables = variables_of(self.theory)
        for v in self.variables:
            if isinstance(v, AspVar):
                raise ValueError(f"non-ground element: variable {v}")
        position = {v: p for p, v in enumerate(self.variables)}
        self.theory_table = table = []
        for e in self.theory:
            if isinstance(e, AssignmentAtom):
                table.append((None, *[(t.value,) if isinstance(t, IntConst) else position[t]
                                      for t in (e.lo, e.hi, e.target)]))
            else:
                named = tuple({position[v]: None for v in variable_names(e)})
                terms, cmp, rhs = _row(e, position)
                table.append((named, tuple(terms), cmp, rhs))
        # Set on first use, but declared here: every instance then has one
        # attribute layout, whichever of these methods runs first.
        self.links = None  # by founded()
        self.val = self.trail = self.need = self.false_lits = self.support = None  # by models()
        self.qhead = 0

        # Unfounded-set check: only atoms on a positive cycle need it; for
        # the rest, support (a rule whose body is not false) is enough.  No
        # rule is left with its head in its positive body, so a cycle has
        # two atoms at least.  Only the atoms that reach a cycle outlast the
        # peel (left[-1], a #false head's, never reaches 0).
        self.cyclic = []
        if any(left[a] for p in pos for a in p):  # else no head waits on another
            peeled = [a for a in range(n) if not left[a]]
            for a in peeled:
                for r in pos_occ[a]:
                    h = heads[r]
                    left[h] -= 1
                    if not left[h]:
                        peeled.append(h)
            if len(peeled) < n:
                succ = {h: [a for r in head_occ[h] for a in pos[r] if left[a]]
                        for h in range(n) if left[h]}
                self.cyclic = [a for c in strongly_connected(succ) if len(c) > 1 for a in c]
        self.loop_seeds, self.loop_rules, self.loop_need, self.loop_occ = [], [], [], []
        if not self.cyclic:
            return  # _expand never runs _atmost
        in_loop = bytearray(n)
        for a in self.cyclic:
            in_loop[a] = 1
        self.loop_seeds = [a for a in self.cyclic if a < t]
        self.loop_rules = [r for r, h in enumerate(heads) if h >= 0 and in_loop[h]]
        self.loop_occ = [[] for _ in range(n)]
        for j, r in enumerate(self.loop_rules):
            inner = [a for a in pos[r] if in_loop[a]]
            self.loop_need.append(len(inner))  # its body atoms on a positive cycle
            for a in inner:
                self.loop_occ[a].append(j)

    def truth(self, vals: tuple) -> tuple:
        """tau: each theory atom's truth under a value tuple, by ht._elem_true's rules."""
        tau = []
        for row in self.theory_table:
            if row[0] is None:  # an &in atom holds if a bound is undefined
                _, lo, hi, v = row
                lo = lo[0] if type(lo) is tuple else vals[lo]
                hi = hi[0] if type(hi) is tuple else vals[hi]
                v = v[0] if type(v) is tuple else vals[v]
                tau.append(lo is None or hi is None or v is not None and lo <= v <= hi)
                continue
            named, terms, cmp, rhs = row
            for p in named:
                if vals[p] is None:
                    tau.append(False)
                    break
            else:
                tally = 0
                for p, k in terms:
                    tally += k * vals[p]
                tau.append(_CMP[cmp](tally, rhs))
        return tuple(tau)

    @property
    def texts(self) -> list:
        """Each id's text, in id order."""
        return list(map(self.table.texts.__getitem__, self.elems))

    @property
    def atoms(self) -> tuple:
        """The atoms in id order, atoms[i] as id t + i."""
        return tuple(self.table.elements(self.elems[self.t:]))

    def visible(self, ids) -> frozenset:
        """The atoms with the given ids, all past the theory atoms."""
        return frozenset(self.table.elements(map(self.elems.__getitem__, ids)))

    def founded(self, key: tuple, tau: tuple) -> bytes | None:
        """The least here world below the model of the atom ids key and
        truth vector tau: None if it misses an atom of key, else the mask of
        the variables it defines (1: defined).  A valuation of tau is founded
        with key iff the mask is its defined set, as a here world defines a
        variable at the model's value or not at all.  The here worlds below
        a model are closed under meets: positive bodies, atom heads and
        &sum/&diff heads are monotone, and an &in head (never in a body)
        that holds at two here worlds holds at their meet, whose defined
        bounds both define.  One counter-based Horn pass (Dowling and
        Gallier 1984) finds the least, over the rules whose positive atoms
        are in key and theory atoms true at tau and whose negative literals
        are false at there, and over static links, with variable p as node
        n + p: a constraint atom holds once its variables are defined and
        defines them when it holds, and an &in atom that holds defines a
        variable target once its non-constant bounds are defined.
        """
        if self.links is None:
            n = self.n  # variable p is node n + p
            links = []
            for k, row in enumerate(self.theory_table):
                if row[0] is not None:  # a constraint atom
                    named = tuple(n + p for p in row[0])
                    links += [(k, named)] + [(x, (k,)) for x in named]
                elif type(row[3]) is int:  # an integer target, ground from a rule, defines nothing
                    _, lo, hi, target = row
                    bounds = {n + p for p in (lo, hi) if type(p) is int}
                    links.append((n + target, (k, *bounds)))
            occ = [rules[:] for rules in self.pos_occ] + [[] for _ in self.variables]
            for j, (_, body) in enumerate(links, len(self.head)):
                for b in body:
                    occ[b].append(j)
            self.links = (self.head + [h for h, _ in links], [len(body) for _, body in links],
                          occ, [h for h, body in links if not body])
        heads, link_need, occ, seeds = self.links
        there = bytearray(tau) + bytearray(self.n - self.t)  # each id's truth at there
        for a in key:
            there[a] = 1
        need = []  # per rule, its body atoms not yet derived; -1 if it takes no part
        queue = seeds[:]
        for h, p, q in zip(self.head, self.pos, self.neg):
            for a in p:
                if not there[a]:
                    break
            else:
                for a in q:
                    if there[a]:
                        break
                else:
                    need.append(len(p))
                    if not p:
                        queue.append(h)
                    continue
            need.append(-1)
        # No tau gate on the links: a theory atom false at tau that its variables
        # derive defines nothing new, and no rule with it in its body takes part.
        need += link_need
        here = bytearray(len(occ))  # no #false is reached: key and tau are a model
        while queue:
            a = queue.pop()
            if not here[a]:
                here[a] = 1
                for r in occ[a]:
                    need[r] -= 1
                    if not need[r]:
                        queue.append(heads[r])
        return bytes(here[self.n:]) if all(here[a] for a in key) else None

    def windows(self, lo: int, hi: int) -> list:
        """Each variable's founded window, in grid order: undefined, then the
        values in lo..hi its heads can give it.  founded() defines variables
        only through heads, so one that no &sum/&diff head names, and whose
        &in heads all have integer bounds, takes values in their ranges
        only; any other takes lo..hi.  The ranges are read from the theory
        table's rows of the rule heads."""
        table = self.theory_table
        ranges = [[] for _ in self.variables]  # per variable, its heads' ranges; None: lo..hi
        for row in map(table.__getitem__, {h for h in self.head if 0 <= h < self.t}):
            if row[0] is not None:  # a constraint head
                for p in row[0]:
                    ranges[p] = None
                continue
            _, l, u, target = row  # an integer target, a box, defines nothing
            if type(target) is int and ranges[target] is not None:
                if type(l) is tuple and type(u) is tuple:
                    ranges[target].append((l[0], u[0]))
                else:
                    ranges[target] = None
        full = (None, *range(lo, hi + 1)) if None in ranges else ()
        return [full if rs is None else
                (None, *sorted({x for l, u in rs for x in range(max(l, lo), min(u, hi) + 1)}))
                for rs in ranges]

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
        stable model.  Each call starts from fresh counters and an empty
        trail, so a call that raised leaves nothing for the next to read.
        """
        self.val, self.trail, self.qhead = [None] * self.n, [], 0
        self.need, self.support = self.base_need[:], self.base_support[:]
        self.false_lits = [0] * len(self.head)
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


def numbered(g: GroundProgram) -> _Compiled:
    """g numbered (see _Compiled), once per program object and kept in
    g._numbered (g is immutable); the only maker of a _Compiled."""
    prog = g._numbered
    if prog is None:
        prog = _Compiled(g._table if g._table is not None else _Table.of_rules(g.rules))
        object.__setattr__(g, "_numbered", prog)
    return prog


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
    atoms = prog.atoms
    if not m.atoms.issubset(atoms):
        return False  # no rule derives a foreign atom
    vals = tuple(vd.get(v) for v in prog.variables)
    tau = prog.truth(vals)
    # m's truth on every Boolean id: the theory atoms', then the atoms'
    if not prog.models(tau + tuple(a in m.atoms for a in atoms)):
        return False
    key = tuple(i for i, a in enumerate(atoms, len(tau)) if a in m.atoms)
    return mode == "casp" or prog.founded(key, tau) == bytes(v is not None for v in vals)


def enumerate_equilibrium(g: GroundProgram, mode: str, bounds) -> Answers:
    """All answer sets over the program's atoms and variables, sorted.

    The program is numbered once, with its Boolean core.  Each grid point (a
    total valuation in casp mode, a partial one in founded mode) gives a
    truth vector tau, and the core solves each distinct tau once, with the
    theory atoms assumed to their truth in tau.  Founded mode walks each
    variable's window (_Compiled.windows), runs one Horn pass per stable
    model of a tau (_Compiled.founded), and keeps the model at each grid
    point of that tau whose defined variables its least here world defines.

    Atom sets come in the order of their sorted atom texts (atom ids are in
    text order), and each set's valuations, as value tuples, in grid order:
    variables by text, each undefined first, then ascending.
    """
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    founded = mode == "founded"
    prog = numbered(g)
    # with no variables the grid is one empty valuation: build no values
    windows = prog.windows(lo, hi) if founded else [range(lo, hi + 1)] * len(prog.variables)
    nones = (None,) * len(prog.variables)
    solved: dict = {}  # tau -> its stable models' ids past the theory ids (founded: with masks)
    found: dict = {}  # visible atom ids -> value tuples, in grid order
    for vals in product(*windows):
        tau = prog.truth(vals)
        keys = solved.get(tau)
        if keys is None:
            keys = [m[sum(tau):] for m in prog.models(tau)]
            if founded:
                keys = [(key, prog.founded(key, tau)) for key in keys]
            solved[tau] = keys
        if founded and keys:
            defined = bytes(map(operator.is_not, vals, nones))
            keys = [key for key, mask in keys if mask == defined]
        for key in keys:
            found.setdefault(key, []).append(vals)
    return Answers(prog, [(key, found[key]) for key in sorted(found)])

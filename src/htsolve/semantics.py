"""Two-world model semantics with partial integer valuations.

An interpretation pairs a "here" world with a "there" world; the here world
never exceeds the there world, in atoms or in defined values.  Negation is
always checked at there.  A total interpretation (here equals there) is an
answer set when no strictly smaller here world yields a model.

Two solve modes differ in what "smaller" means:

* casp: every integer variable must be valued, the valuation is shared by
  both worlds and exempt from minimization; only atom sets shrink.
* founded: valuations may be partial, and sub-valuations (dropping defined
  pairs) take part in minimization alongside atom subsets.

The reference enumerator compiles the program once and walks every
valuation within bounds.  A valuation matters to the Boolean part only
through its truth vector, the truth of each distinct theory atom, so the
rules are folded and every guess of which negated atoms are true is tried
once per distinct truth vector: a guess yields at most one candidate, the
least model of the reduct.  Founded mode adds a Horn check per proper
sub-valuation, cached by (atoms, truth vector, sub-valuation's truth vector).

Constraint atoms referring to an undefined variable are false.  An &in
assignment whose bounds reference an undefined variable is true: it imposes
nothing.  Integer constants in variable positions denote themselves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product

from .core import (
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    Rule,
    atoms_of,  # noqa: F401  looked up here by the benchmark's tracer
    is_ground,
    variable_names,
    variables_of,
)
from .grounder import GroundProgram

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
    _map: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.entries, key=lambda kv: str(kv[0])))
        names = [str(k) for k, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in valuation")
        object.__setattr__(self, "entries", pairs)
        object.__setattr__(self, "_map", dict(pairs))

    @classmethod
    def of(cls, mapping) -> "Valuation":
        if isinstance(mapping, dict):
            return cls(tuple(mapping.items()))
        return cls(tuple(mapping))

    @classmethod
    def from_sorted(cls, pairs: tuple) -> "Valuation":
        """Valuation of pairs already sorted by name text, names distinct.

        Nothing is checked, and the lookup table is built on first use.
        """
        val = object.__new__(cls)
        object.__setattr__(val, "entries", pairs)
        return val

    def __getattr__(self, name):
        # Reached only for what an instance lacks: a from_sorted _map.
        if name != "_map":
            raise AttributeError(name)
        table = dict(self.entries)
        object.__setattr__(self, "_map", table)
        return table

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
        return " ".join(f"{k}={v}" for k, v in self.entries)


EMPTY_VALUATION = Valuation()


@dataclass(frozen=True)
class World:
    """One side of an interpretation: true atoms plus a partial valuation."""

    atoms: frozenset = frozenset()
    val: Valuation = EMPTY_VALUATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))


@dataclass(frozen=True)
class Interpretation:
    """here/there world pair; here is bounded by there."""

    here: World
    there: World

    def __post_init__(self) -> None:
        if not self.here.atoms <= self.there.atoms:
            raise ValueError("here atoms exceed there atoms")
        if not self.here.val.subset_of(self.there.val):
            raise ValueError("here valuation disagrees with there valuation")


@dataclass(frozen=True)
class AnswerSet:
    """Total stable point: an atom set together with its valuation."""

    atoms: frozenset = frozenset()
    val: Valuation = EMPTY_VALUATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))


def total(atoms, val: Valuation = EMPTY_VALUATION) -> Interpretation:
    w = World(frozenset(atoms), val)
    return Interpretation(w, w)


# --- element and rule satisfaction ---------------------------------------


def _term_value(vd: dict, t):
    """Value of a term under a valuation dict; None when undefined."""
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, AspVar):
        raise ValueError(f"non-ground element: variable {t}")
    return vd.get(t)


def _elem_true(atoms, vd: dict, e) -> bool:
    """Truth of one element in a single world given (atom set, valuation dict)."""
    if isinstance(e, Atom):
        if not is_ground(e):
            raise ValueError(f"non-ground element: {e}")
        return e in atoms
    if isinstance(e, LinearConstraintAtom):
        tally = 0
        for k, t in e.terms:
            v = _term_value(vd, t)
            if v is None:
                return False
            tally += k * v
        return _CMP[e.cmp](tally, e.rhs)
    if isinstance(e, DiffConstraintAtom):
        vx = _term_value(vd, e.lhs_var)
        vy = _term_value(vd, e.rhs_var)
        if vx is None or vy is None:
            return False
        return vx - vy <= e.bound
    if isinstance(e, AssignmentAtom):
        lo = _term_value(vd, e.lo)
        hi = _term_value(vd, e.hi)
        if lo is None or hi is None:
            return True
        tv = _term_value(vd, e.target)
        return tv is not None and lo <= tv <= hi
    raise ValueError(f"cannot evaluate {e!r}")


def _world(i: Interpretation, w: str) -> World:
    if w == "here":
        return i.here
    if w == "there":
        return i.there
    raise ValueError(f"unknown world {w!r}")


def sat_elem(i: Interpretation, w: str, e) -> bool:
    """Satisfaction of a single element at the chosen world."""
    world = _world(i, w)
    return _elem_true(world.atoms, world.val._map, e)


def _body_holds(i: Interpretation, w: str, body) -> bool:
    for lit in body:
        if lit.positive:
            if not sat_elem(i, w, lit.atom):
                return False
        else:
            # Negation is checked at there regardless of w.
            if sat_elem(i, "there", lit.atom):
                return False
    return True


def _head_holds(i: Interpretation, w: str, head) -> bool:
    if isinstance(head, Falsity):
        return False
    return sat_elem(i, w, head)


def sat_rule(i: Interpretation, w: str, r: Rule) -> bool:
    """Rule satisfaction; at here this includes the classical there condition."""
    there_ok = (not _body_holds(i, "there", r.body)) or _head_holds(i, "there", r.head)
    if w == "there":
        return there_ok
    if not there_ok:
        return False
    return (not _body_holds(i, "here", r.body)) or _head_holds(i, "here", r.head)


def is_ht_model(i: Interpretation, g: GroundProgram) -> bool:
    return all(sat_rule(i, "here", r) for r in g.rules)


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
    """Truth of theory atom e over a value tuple, by _elem_true's rules."""
    for t in variable_names(e):
        if isinstance(t, AspVar):
            raise ValueError(f"non-ground element: variable {t}")
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
    """A ground program numbered once, the table both engines read.

    Atoms and distinct theory atoms are numbered by first occurrence, a
    rule's head before its body, so theory[k] is abstract()'s __t{k+1}.
    atoms is in text order, rank[n] is atom n's place there, and variables
    are in text order.  raw holds each rule as (pos, neg, pids, nids, head),
    head being an atom number, ~k for theory atom k or None.  The oracle
    reads atom n as bit rank[n], a valuation as a value tuple (None:
    undefined), each theory atom as an evaluator over such tuples and each
    rule as a row (pos_mask, neg_mask, pids, nids, head code).  A truth
    vector tau holds every theory atom's truth at one valuation; the
    Boolean rows a valuation folds to depend only on its tau.
    """

    def __init__(self, g: GroundProgram):
        index: dict = {}  # atom -> number of its first occurrence
        theory: dict = {}  # theory atom -> id
        self.raw = []
        for r in g.rules:
            head = r.head
            if isinstance(head, Atom):
                hc = index.setdefault(head, len(index))
            elif isinstance(head, Falsity):
                hc = None
            else:
                hc = ~theory.setdefault(head, len(theory))
            pos, neg, pids, nids = [], [], [], []
            for lit in r.body:
                e = lit.atom
                if isinstance(e, Atom):
                    (pos if lit.positive else neg).append(index.setdefault(e, len(index)))
                else:
                    (pids if lit.positive else nids).append(theory.setdefault(e, len(theory)))
            self.raw.append((pos, neg, tuple(pids), tuple(nids), hc))

        self.index, self.theory = index, tuple(theory)
        self.atoms = tuple(sorted(index, key=str))
        self.rank = [0] * len(index)
        for place, a in enumerate(self.atoms):
            self.rank[index[a]] = place
        bit = [1 << place for place in self.rank]
        self.rows = []
        self.fixed = []  # (pos_mask, neg_mask, head) of rows no tau changes
        self.fixed_negated = 0
        self.gated = []
        for pos, neg, pids, nids, hc in self.raw:
            pm = nm = 0
            for n in pos:
                pm |= bit[n]
            for n in neg:
                nm |= bit[n]
            hc = _FAIL if hc is None else bit[hc] if hc >= 0 else hc
            row = (pm, nm, pids, nids, hc)
            self.rows.append(row)
            if pids or nids or hc < 0:
                self.gated.append(row)
            else:
                self.fixed.append((pm, nm, hc))
                self.fixed_negated |= nm

        self.variables = variables_of(theory)
        position = {v: p for p, v in enumerate(self.variables)}
        self.evaluators = [_evaluator(e, position) for e in theory]

    def truth(self, vals: tuple) -> tuple:
        """tau: the truth of every theory atom under a value tuple."""
        return tuple([ev(vals) for ev in self.evaluators])

    def fold(self, tau: tuple) -> tuple:
        """Boolean rows (pos_mask, neg_mask, head) of the rules not already
        satisfied under tau, and the union of their neg_masks."""
        rows = list(self.fixed)
        negated = self.fixed_negated
        for pm, nm, pids, nids, hc in self.gated:
            if _blocked(pids, nids, tau, tau):
                continue
            if hc < 0:
                if tau[~hc]:
                    continue
                hc = _FAIL
            rows.append((pm, nm, hc))
            negated |= nm
        return rows, negated

    def stable_masks(self, tau: tuple) -> list:
        """Stable there-masks under tau, one per guess over the negated
        atoms where the guess holds, guesses descending from all-true."""
        rows, negated = self.fold(tau)
        masks = []
        guess = negated
        while True:
            mask = _stable_mask(rows, negated, guess)
            if mask is not None:
                masks.append(mask)
            if not guess:
                return masks
            guess = (guess - 1) & negated

    def here_world(self, mask: int, tau: tuple, sub: tuple) -> bool:
        """Is there a here world with atoms within mask and a valuation whose
        truth vector is sub, below the there world (mask, tau)?  Its rows
        are Horn, so one exists iff their least model fires no _FAIL row."""
        rows = []
        for pm, nm, pids, nids, hc in self.rows:
            if pm & ~mask or nm & mask or _blocked(pids, nids, sub, tau):
                continue
            if hc > 0:
                if not hc & mask:
                    hc = _FAIL
            elif hc < 0:
                if sub[~hc]:
                    continue
                hc = _FAIL
            rows.append((pm, hc))
        return _least_model(rows) is not None

    def smaller(self, mask: int, tau: tuple, subs, memo: dict) -> bool:
        """Does some proper sub-valuation, given by its truth vectors subs,
        have a here world below (mask, tau)?  memo caches here_world."""
        for sub in subs:
            key = (mask, tau, sub)
            found = memo.get(key)
            if found is None:
                found = memo[key] = self.here_world(mask, tau, sub)
            if found:
                return True
        return False

    def sub_truths(self, vals: tuple) -> set:
        """The distinct truth vectors of the proper sub-valuations of vals."""
        subs = list(product(*[(None,) if v is None else (None, v) for v in vals]))
        subs.pop()  # the last one keeps every value: vals itself
        return {self.truth(s) for s in subs}

    def atoms_in(self, mask: int) -> frozenset:
        return frozenset(a for n, a in enumerate(self.atoms) if mask >> n & 1)


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


def _stable_mask(rows, negated: int, guess: int):
    """The stable atom set T with T & negated == guess, or None: the least
    model of the reduct under guess, firing no constraint, matching guess."""
    model = _least_model([(pm, hc) for pm, nm, hc in rows if not (nm & guess)])
    if model is None or (model & negated) != guess:
        return None
    return model


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
    prog = _Compiled(g)
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
    tmask = 0
    for a in m.atoms:
        n = prog.index.get(a)
        if n is None:
            return False  # no rule derives a foreign atom
        tmask |= 1 << prog.rank[n]
    vals = tuple(vd.get(v) for v in prog.variables)
    tau = prog.truth(vals)
    rows, negated = prog.fold(tau)
    if _stable_mask(rows, negated, tmask & negated) != tmask:
        return False
    return mode == "casp" or not prog.smaller(tmask, tau, prog.sub_truths(vals), {})


def _answer_sort_key(ans: AnswerSet, variables) -> tuple:
    atom_key = tuple(sorted(str(a) for a in ans.atoms))
    val_key = tuple(
        (1, ans.val.get(v)) if ans.val.defined(v) else (0,) for v in variables
    )
    return (atom_key, val_key)


def enumerate_equilibrium(g: GroundProgram, mode: str, bounds) -> list:
    """All answer sets over the program's atoms and variables, sorted.

    The program is compiled once.  Each grid point (a total valuation in
    casp mode, a partial one in founded mode) gives a truth vector tau,
    and each distinct tau is folded to Boolean rows and solved once: per
    guess over the negated atoms, one least model, kept when stable.
    Founded mode rejects a candidate when a proper sub-valuation has a
    here world, a Horn check cached per (atoms, tau, sub-valuation tau).

    The order is _answer_sort_key's: atom sets by their sorted atom texts
    (the atoms' bits are in text order), each set's valuations in grid order.
    """
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    founded = mode == "founded"
    prog = _Compiled(g)
    values = tuple(range(lo, hi + 1))
    options = (None,) + values if founded else values
    solved: dict = {}  # tau -> stable masks
    here_memo: dict = {}
    found: dict = {}  # mask -> value tuples, in grid order
    for vals in product(options, repeat=len(prog.variables)):
        tau = prog.truth(vals)
        masks = solved.get(tau)
        if masks is None:
            masks = solved[tau] = prog.stable_masks(tau)
        if founded and masks:
            subs = prog.sub_truths(vals)
            masks = [m for m in masks if not prog.smaller(m, tau, subs, here_memo)]
        for mask in masks:
            found.setdefault(mask, []).append(vals)
    variables = prog.variables
    results = []
    for mask in sorted(found, key=lambda m: [n for n in range(m.bit_length()) if m >> n & 1]):
        chosen = prog.atoms_in(mask)
        for vals in found[mask]:
            pairs = tuple((v, x) for v, x in zip(variables, vals) if x is not None)
            results.append(AnswerSet(chosen, Valuation.from_sorted(pairs)))
    return results


# --- reduct-based checks ---------------------------------------------------


def _require_boolean(g: GroundProgram, op: str) -> None:
    for r in g.rules:
        if not isinstance(r.head, (Atom, Falsity)):
            raise ValueError(f"{op} expects a Boolean program, found head {r.head}")
        for lit in r.body:
            if not isinstance(lit.atom, Atom):
                raise ValueError(f"{op} expects a Boolean program, found {lit.atom}")
        if not is_ground(r):
            raise ValueError(f"{op} expects a ground program")


def gl_reduct(g: GroundProgram, t) -> GroundProgram:
    """Classical reduct: drop rules negated by t, strip remaining negation."""
    _require_boolean(g, "gl_reduct")
    t = frozenset(t)
    kept = []
    for r in g.rules:
        if any((not lit.positive) and lit.atom in t for lit in r.body):
            continue
        kept.append(Rule(r.head, tuple(lit for lit in r.body if lit.positive)))
    return GroundProgram(tuple(sorted(set(kept), key=str)), g.universe)


def least_model(g: GroundProgram) -> frozenset:
    """Least Horn model; integrity constraints are ignored here."""
    for r in g.rules:
        if any(not lit.positive for lit in r.body):
            raise ValueError("least_model expects a negation-free program")
    _require_boolean(g, "least_model")
    prog = _Compiled(g)
    return prog.atoms_in(_least_model([(pm, hc) for pm, _, _, _, hc in prog.rows if hc > 0]))

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

The reference enumerator walks every valuation within bounds and, per
valuation, every guess of which negated atoms are true: a guess yields at
most one candidate, the least model of the reduct, and founded mode adds a
Horn check per proper sub-valuation.

Constraint atoms referring to an undefined variable are false.  An &in
assignment whose bounds reference an undefined variable is true: it imposes
nothing.  Integer constants in variable positions denote themselves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations, product

from .core import (
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Rule,
    atoms_of,
    is_ground,
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

_FAIL = -1
_TRUE = -2


def _compile(g: GroundProgram) -> list:
    rules = []
    for r in g.rules:
        if isinstance(r.head, Falsity):
            head = ("false", None)
        elif isinstance(r.head, Atom):
            head = ("atom", r.head)
        else:
            head = ("theory", r.head)
        body = tuple(
            (lit.positive, isinstance(lit.atom, Atom), lit.atom) for lit in r.body
        )
        rules.append((head, body))
    return rules


def _fold_classical(compiled, vd: dict, bit: dict) -> tuple:
    """Reduce rules under a fixed total-world valuation.

    Result rows are (pos_mask, neg_mask, head_code) where head_code is an
    atom bit, _FAIL for an unsatisfiable head, and rows for rules that are
    already satisfied are omitted.  Returns the rows and the union of their
    neg_masks.
    """
    folded = []
    negated = 0
    for (htag, hobj), body in compiled:
        pos_mask = 0
        neg_mask = 0
        skip = False
        for positive, is_atom, obj in body:
            if is_atom:
                b = bit[obj]
                if positive:
                    pos_mask |= b
                else:
                    neg_mask |= b
            else:
                tv = _elem_true((), vd, obj)
                if tv != positive:
                    skip = True
                    break
        if skip:
            continue
        if htag == "false":
            hc = _FAIL
        elif htag == "atom":
            hc = bit[hobj]
        else:
            hc = _TRUE if _elem_true((), vd, hobj) else _FAIL
        if hc == _TRUE:
            continue
        folded.append((pos_mask, neg_mask, hc))
        negated |= neg_mask
    return folded, negated


def _fold_here(compiled, tmask: int, vd_there: dict, vd_here: dict, bit: dict) -> list:
    """Reduce rules to here-side checks for subsets of a fixed there world."""
    folded = []
    for (htag, hobj), body in compiled:
        pos_mask = 0
        skip = False
        for positive, is_atom, obj in body:
            if positive:
                if is_atom:
                    b = bit[obj]
                    if not (tmask & b):
                        skip = True
                        break
                    pos_mask |= b
                else:
                    if not _elem_true((), vd_here, obj):
                        skip = True
                        break
            else:
                sat_there = (
                    bool(tmask & bit[obj]) if is_atom else _elem_true((), vd_there, obj)
                )
                if sat_there:
                    skip = True
                    break
        if skip:
            continue
        if htag == "false":
            hc = _FAIL
        elif htag == "atom":
            b = bit[hobj]
            hc = b if (tmask & b) else _FAIL
        else:
            hc = _TRUE if _elem_true((), vd_here, hobj) else _FAIL
        if hc == _TRUE:
            continue
        folded.append((pos_mask, hc))
    return folded


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


def _stable_mask(folded, negated: int, guess: int):
    """The stable atom set T with T & negated == guess, or None: the least
    model of the reduct under guess, firing no constraint, matching guess."""
    model = _least_model([(pm, hc) for pm, nm, hc in folded if not (nm & guess)])
    if model is None or (model & negated) != guess:
        return None
    return model


def _smaller_sub_valuation(compiled, bit, tmask: int, vd: dict) -> bool:
    """Does a proper sub-valuation of vd have a here world?  Its rows are
    Horn, so one exists iff their least model fires no _FAIL row."""
    pairs = list(vd.items())
    for size in range(len(pairs)):
        for kept in combinations(pairs, size):
            if _least_model(_fold_here(compiled, tmask, vd, dict(kept), bit)) is not None:
                return True
    return False


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
    """Is m a stable point: a total model with no smaller here-world model?"""
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    atoms, _, variables = atoms_of(g)
    vd = m.val.as_dict()
    if mode == "casp":
        missing = [v for v in variables if v not in vd]
        if missing:
            raise ValueError(
                "casp mode needs a total valuation; undefined: "
                + ", ".join(str(v) for v in missing)
            )
    else:
        known = set(variables)
        extra = [k for k in vd if k not in known]
        if extra:
            raise ValueError(
                "valuation mentions variables not in the program: "
                + ", ".join(str(k) for k in extra)
            )
        off = [k for k, v in vd.items() if not lo <= v <= hi]
        if off:
            raise ValueError(
                "valuation outside bounds: " + ", ".join(str(k) for k in off)
            )
    compiled = _compile(g)
    atom_pool = sorted(set(atoms) | set(m.atoms), key=str)
    bit = {a: 1 << n for n, a in enumerate(atom_pool)}
    tmask = 0
    for a in m.atoms:
        tmask |= bit[a]
    folded, negated = _fold_classical(compiled, vd, bit)
    if _stable_mask(folded, negated, tmask & negated) != tmask:
        return False
    return mode == "casp" or not _smaller_sub_valuation(compiled, bit, tmask, vd)


def _answer_sort_key(ans: AnswerSet, variables) -> tuple:
    atom_key = tuple(sorted(str(a) for a in ans.atoms))
    val_key = tuple(
        (1, ans.val.get(v)) if ans.val.defined(v) else (0,) for v in variables
    )
    return (atom_key, val_key)


def enumerate_equilibrium(g: GroundProgram, mode: str, bounds) -> list:
    """All answer sets over the program's atoms and variables, sorted.

    Per valuation, the rules fold to Boolean rows and each guess over the
    negated atoms gives one least model, kept when stable (_stable_mask);
    founded mode also rejects it when a sub-valuation has a here world.
    """
    _mode_ok(mode)
    lo, hi = _bounds_ok(bounds)
    atoms, _, variables = atoms_of(g)
    compiled = _compile(g)
    bit = {a: 1 << n for n, a in enumerate(atoms)}
    values = list(range(lo, hi + 1))
    options = [values if mode == "casp" else [None] + values for _ in variables]
    results = []
    for combo in product(*options):
        vd = {v: x for v, x in zip(variables, combo) if x is not None}
        folded, negated = _fold_classical(compiled, vd, bit)
        guess = negated
        while True:
            mask = _stable_mask(folded, negated, guess)
            if mask is not None and (
                mode == "casp" or not _smaller_sub_valuation(compiled, bit, mask, vd)
            ):
                chosen = frozenset(a for a in atoms if mask & bit[a])
                results.append(AnswerSet(chosen, Valuation.of(vd)))
            if guess == 0:
                break
            guess = (guess - 1) & negated
    results.sort(key=lambda a: _answer_sort_key(a, variables))
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
    model: set = set()
    rules = [r for r in g.rules if isinstance(r.head, Atom)]
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.head not in model and all(lit.atom in model for lit in r.body):
                model.add(r.head)
                changed = True
    return frozenset(model)

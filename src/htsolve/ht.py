"""The here-and-there (two-world) relation with partial integer valuations.

An interpretation pairs a "here" world with a "there" world; the here world
never exceeds the there world, in atoms or in defined values.  Negation is
always checked at there.  A total interpretation (here equals there) is an
answer set when no strictly smaller here world yields a model.  This is
the definition the engines of semantics and search are held to; none of
them calls it.  For Boolean programs, gl_reduct and least_model give the
classical reduct test of stability, over Rule objects as well.

Constraint atoms referring to an undefined variable are false.  An &in
assignment whose bounds reference an undefined variable is true: it imposes
nothing.  Integer constants in variable positions denote themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    Rule,
    is_ground,
)
from .grounder import GroundProgram
from .semantics import _CMP, EMPTY_VALUATION, Valuation


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
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            if (
                isinstance(r.head, Atom)
                and r.head not in model
                and all(lit.atom in model for lit in r.body)
            ):
                model.add(r.head)
                changed = True
    return frozenset(model)

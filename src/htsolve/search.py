"""Generate-and-certify solving for casp mode.

solve() reads the ground program as semantics.numbered numbers it, once,
and finds its Boolean models with the core the oracle runs too,
_Compiled.core(): Smodels-style propagation with chronological
backtracking.  Constraint-atom truth is a function of the shared
valuation, not something rules derive, so the core takes the t distinct
constraint atoms, ids 0..t-1 of the table, as free propositions; the atoms
follow in text order.  A free proposition is decided true or false like
any atom but needs no supporting rule, and a rule with one as head still
forbids "body true, head false".  The oracle assumes each one's truth
instead.  The names __t1, __t2, ... exist only in abstract()'s output.

_grid_walk() is the single place that decides valuations: a
difference-logic graph refutes inconsistent &diff signs outright, each
atom becomes one linear row over the variables, and one backtracking pass
over the bounded grid, pruned by the interval each row's unbound terms can
still add (bounds propagation as in clingcon, Ostrowski and Schaub 2012),
generates, in grid order, every valuation under which each atom has its
sign, so the result set matches the exhaustive oracle.  It generates them
as runs: per binding of the variables before the last, the last one's
allowed values, split where a != row bans one.  theory_certify() keeps
those runs (_Grid), up to a limit if one is given, and builds a Valuation
only when one is read.

solve() groups the Boolean models by their ids past t, the visible atoms,
and takes the groups in the order answers are printed.  It splits each
group's models into cubes, sets of models that agree on some theory atoms
and take every sign pattern of the others, and certifies each cube once:
the atoms it agrees on keep their sign and the others get none.  A group
whose models take every pattern of the atoms they differ on is one cube;
the runs of a group's cubes are disjoint ranges, so ordering them by
prefix, then first value, puts the group's valuations in grid order.
With models=N no cube is walked past its first N valuations, and no group
past the Nth answer is certified.  Both engines return an Answers
sequence: value tuples per atom set, in printed order, from which the CLI
prints without building an AnswerSet.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat

from .core import (
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    Literal,
    Rule,
    atoms_of,  # noqa: F401  looked up here by the benchmark's tracer
    variables_of,
)
from .dl import Conflict, DiffGraph, negate_diff
from .grounder import GroundProgram
from .semantics import (
    _CMP,
    Answers,
    Valuation,
    _bounds_ok,
    _Built,
    _Compiled,
    _row,
    enumerate_equilibrium,
    numbered,
)


@dataclass(frozen=True)
class Abstraction:
    """Boolean rules plus the proposition-to-constraint-atom bijection."""

    rules: tuple
    mapping: tuple  # of (proposition Atom, constraint atom) in introduction order


def _reject_assignments(atoms) -> None:
    if any(isinstance(e, AssignmentAtom) for e in atoms):
        raise ValueError("assignment atoms have no Boolean abstraction")


def _compile(g: GroundProgram) -> _Compiled:
    """g numbered once; &in atoms have no Boolean abstraction."""
    prog = numbered(g)
    _reject_assignments(prog.theory)
    return prog


def abstract(g: GroundProgram) -> Abstraction:
    """Replace constraint atoms by fresh propositions; rejects assignments."""
    mapping = tuple((Atom(f"__t{k}"), e) for k, e in enumerate(_compile(g).theory, 1))
    prop_of = {e: prop for prop, e in mapping}

    def lift(e):
        return prop_of.get(e, e)

    rules = tuple(
        Rule(lift(r.head), tuple(Literal(lit.positive, lift(lit.atom)) for lit in r.body))
        for r in g.rules
    )
    return Abstraction(rules, mapping)


def stable_models_bool(b: GroundProgram) -> list:
    """All reduct-stable atom sets of a Boolean program, sorted by their
    atoms' texts; b is numbered as semantics.numbered numbers it."""
    prog = numbered(b)
    if prog.theory:
        raise ValueError(f"stable_models_bool expects a Boolean program, found {prog.theory[0]}")
    return [prog.visible(m) for m in sorted(prog.core().models())]  # ids in text order


def _schedule(rows: list, n: int, lo: int, hi: int) -> tuple:
    """Per grid position 0..n-1, what binding its variable x checks and sums.

    rows are _row results with at least one term.  A row keeps the running
    sum of its bound terms in sums[slot], slot 0 holding 0.  The result is
    (windows, forbid, carry, slots), the first three one list per position:

    - windows (src, c, lb, ub): lb <= sums[src] + c*x <= ub, the row's
      bounds less what its unbound terms can still add (c*lo or c*hi each);
    - forbid (src, c, t): sums[src] + c*x != t, at the last term of a !=;
    - carry (src, dst, c): sums[dst] = sums[src] + c*x.

    A window that cannot cut is left out, and a row is carried only up to
    its last check, so a row that always holds costs nothing.
    """
    windows: list = [[] for _ in range(n)]
    forbid: list = [[] for _ in range(n)]
    carry: list = [[] for _ in range(n)]
    slots = 1
    for terms, cmp, rhs in rows:
        low = rhs if cmp in (">=", "=") else None
        high = rhs if cmp in ("<=", "=") else None
        spans = [(min(c * lo, c * hi), max(c * lo, c * hi)) for _, c in terms]
        rest_min, rest_max = sum(s for s, _ in spans), sum(s for _, s in spans)
        pre_min = pre_max = 0
        checks = []  # per term: its window, or None
        for smin, smax in spans:
            pre_min, pre_max = pre_min + smin, pre_max + smax
            rest_min, rest_max = rest_min - smin, rest_max - smax
            lb = pre_min if low is None else low - rest_max
            ub = pre_max if high is None else high - rest_min
            cuts = cmp != "!=" and (lb > pre_min or ub < pre_max)
            checks.append((lb, ub) if cuts else None)
        if cmp == "!=":
            if not pre_min <= rhs <= pre_max:
                continue  # the sum never equals rhs
            used = len(terms)
        else:
            used = max((k + 1 for k, w in enumerate(checks) if w), default=0)
        src = 0
        for k in range(used):
            p, c = terms[k]
            if checks[k]:
                windows[p].append((src, c, *checks[k]))
            if k + 1 < used:
                carry[p].append((src, slots, c))
                src, slots = slots, slots + 1
            elif cmp == "!=":
                forbid[p].append((src, c, rhs))
    return windows, forbid, carry, slots


class Valuations(_Built):
    """Total valuations over variables, one per value tuple of values, each
    Valuation built only when read."""

    def __init__(self, variables: tuple, values):
        self.variables = variables
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        variables = self.variables
        for vals in self.values:
            yield Valuation.from_sorted(tuple(zip(variables, vals)))


class _Grid:
    """Value tuples in grid order, held as runs (prefix, lasts): the tuples
    prefix + (v,) for v in lasts, or prefix alone where lasts is None (no
    variables).  Runs are nonempty; with limit > 0 only the first limit
    tuples are kept, and runs past them are never read."""

    __slots__ = ("runs", "_len")

    def __init__(self, runs, limit: int = 0):
        self.runs = []
        n = 0
        for prefix, lasts in runs:
            size = 1 if lasts is None else len(lasts)
            if limit and n + size >= limit:
                self.runs.append((prefix, lasts[: limit - n] if n + size > limit else lasts))
                n = limit
                break
            self.runs.append((prefix, lasts))
            n += size
        self._len = n

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for prefix, lasts in self.runs:
            if lasts is None:
                yield prefix
            else:
                yield from zip(*map(repeat, prefix), lasts)


def theory_certify(signs: dict, bounds, limit: int = 0) -> Valuations:
    """Every total valuation within bounds under which each atom has its sign,
    in grid order; with limit > 0, only the first limit of them.

    A sign is True, False or None, "either": an atom signed None constrains
    nothing, but its variables still join the grid, so the result is the
    union, in grid order, of the results for each of its two signs.  The
    valuations are those of _grid_walk over the signed atoms' variables,
    held as its runs.  &in atoms, signed or not, and a negative limit are
    rejected.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    variables = variables_of(signs)
    return Valuations(variables, _Grid(_grid_walk(signs, bounds, variables), limit))


def _grid_walk(signs: dict, bounds, variables: tuple):
    """Generate, in grid order, the runs (see _Grid) of the value tuples over
    variables (in text order, a superset of the signed atoms' variables)
    within bounds under which each atom has its sign.  Grid order is
    variables by text, values ascending, which is the tuples' own order.

    The signed &diff atoms, negated ones via negate_diff, are first
    asserted into a DiffGraph; a negative cycle means no valuation exists.
    Each signed atom is then compiled into one linear row over the
    variables' grid positions, and a row without variables is checked once.
    One backtracking pass binds the variables before the last in grid
    order.  A row keeps a running sum of its bound terms, and the interval
    its unbound terms can still add (c * lo or c * hi each) bounds that sum
    at every position of the row; variable i then takes only the values
    that keep each of its rows satisfiable, so a subtree with no valuation
    is never entered, and a row is exact at its last position.  A != row
    bans at most one value, so a variable's allowed values are a few
    ranges, never listed.  Each binding of the variables before the last
    gives one run per range of the last variable's allowed values.
    """
    lo, hi = _bounds_ok(bounds)
    _reject_assignments(signs)
    graph = DiffGraph()
    cid = 0
    for atom, sign in signs.items():
        if sign is None or not isinstance(atom, DiffConstraintAtom):
            continue
        x, y, k = atom.lhs_var, atom.rhs_var, atom.bound
        if not sign:
            x, y, k = negate_diff(x, y, k)
        cid += 1
        if isinstance(graph.assert_diff(x, y, k, cid), Conflict):
            return

    position = {v: i for i, v in enumerate(variables)}
    rows = []
    for atom, sign in signs.items():
        if sign is None:
            continue
        terms, cmp, rhs = _row(atom, sign, position)
        if terms:
            rows.append((terms, cmp, rhs))
        elif not _CMP[cmp](0, rhs):
            return
    if not variables:
        yield (), None
        return
    windows, forbid, carry, slots = _schedule(rows, len(variables), lo, hi)
    sums = [0] * slots

    def allowed(i: int) -> list:
        """Values of variable i that keep each of its rows satisfiable, as
        nonempty ranges: its window, cut at the value each of its != rows
        bans (at most one each)."""
        vlo, vhi = lo, hi
        for src, c, lb, ub in windows[i]:
            low, high = lb - sums[src], ub - sums[src]
            if c < 0:
                low, high = high, low
            vlo, vhi = max(vlo, -(-low // c)), min(vhi, high // c)
        runs = [range(vlo, vhi + 1)] if vlo <= vhi else []
        for src, c, t in forbid[i]:
            v, rest = divmod(t - sums[src], c)
            for j, run in enumerate(runs):
                if not rest and v in run:
                    runs[j : j + 1] = [r for r in (range(run.start, v), range(v + 1, run.stop)) if r]
                    break
        return runs

    last = len(variables) - 1
    values = [lo] * last  # of the variables before the last
    pending: list = []  # per bound variable before the last: its values left
    while True:
        i = len(pending)
        if i < last:
            pending.append(chain.from_iterable(allowed(i)))
        else:
            prefix = tuple(values)
            for lasts in allowed(last):
                yield prefix, lasts
        v = None
        while pending and v is None:
            v = next(pending[-1], None)
            if v is None:
                pending.pop()
        if v is None:
            return
        i = len(pending) - 1
        values[i] = v
        for src, dst, c in carry[i]:
            sums[dst] = sums[src] + c * v


def _cubes(trues: list) -> list:
    """Split distinct sign patterns, each given as its set of true theory
    ids, into disjoint cubes that together hold exactly those patterns.

    A cube (true, free) holds the patterns that take every sign on the free
    ids, and are true on the ids in true and false on all the others.
    """
    true = set.intersection(*trues)
    free = set.union(*trues) - true
    if len(trues) == 2 ** len(free):
        return [(true, free)]
    pivot = min(free)
    return _cubes([s for s in trues if pivot in s]) + _cubes([s for s in trues if pivot not in s])


def solve(g: GroundProgram, mode: str, bounds, engine: str = "oracle", models: int = 0) -> Answers:
    """Answer sets of g, via the exhaustive oracle or the search engine.

    Answers are sorted by their atoms' text, then by value in grid order;
    with models > 0 only the first models answers are returned, and the
    search engine walks no valuation past them.  It groups the Boolean
    models by visible atoms and takes the groups in text order.  The
    models of one group differ only in the signs of theory atoms; one
    theory_certify call per cube of the group, its free atoms unsigned,
    yields the union of its models' valuations in grid order, so every
    call is pruned by each atom the cube's models agree on.  The cubes
    hold disjoint sign patterns, so their runs never overlap, and the
    group's values are their runs by prefix, then first value.  Without
    variables every atom's truth is fixed, so of cubes that differ on a
    signed atom only one yields the run ((), None).
    """
    if engine not in ("oracle", "search"):
        raise ValueError(f"unknown engine {engine!r}")
    if models < 0:
        raise ValueError("models must be nonnegative")
    if engine == "oracle":
        answers = enumerate_equilibrium(g, mode, bounds)
        return answers.head(models) if models else answers
    if mode != "casp":
        raise ValueError("engine 'search' supports casp mode only")
    _bounds_ok(bounds)  # also when no Boolean model reaches theory_certify
    prog = _compile(g)
    t = len(prog.theory)  # the theory atoms' Boolean ids come first
    groups: dict = {}  # visible atom ids -> true theory ids of each model
    for m in prog.core().models():
        k = bisect_left(m, t)
        groups.setdefault(m[k:], []).append(set(m[:k]))
    answers = []
    left = models
    for key in sorted(groups):
        runs = []
        for true, free in _cubes(groups[key]):
            signs = {e: None if i in free else i in true for i, e in enumerate(prog.theory)}
            runs.append(theory_certify(signs, bounds, left).values.runs)
        values = _Grid(heapq.merge(*runs, key=lambda run: (run[0], run[1] and run[1][0])), left)
        if values:
            answers.append((prog.visible(key), values))
        if models:
            left -= len(values)
            if not left:
                break
    return Answers(prog.variables, answers)

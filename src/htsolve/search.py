"""Generate-and-certify solving for casp mode.

solve() reads the ground program as semantics.numbered numbers it, once,
and finds its Boolean models with the core the oracle runs too,
_Compiled.models(): Smodels-style propagation with chronological
backtracking.  Constraint-atom truth is a function of the shared
valuation, not something rules derive, so the core takes the t distinct
constraint atoms, ids 0..t-1 in text order, as free propositions; the
atoms follow in text order.  A free proposition is decided true or false
like any atom but needs no supporting rule, and a rule with one as head
still forbids "body true, head false".  The oracle assumes each one's
truth instead.  abstract() alone names them __t1, __t2, ...

_grid_walk() is the single place that decides valuations: each signed
theory atom is its row of the program's theory table, one linear row over
the variables compiled once per program (a false atom takes the row's
complement), a difference-logic graph refutes inconsistent rows of
difference shape outright, and one backtracking pass over the bounded
grid, pruned by the interval each row's unbound terms can still add
(bounds propagation as in clingcon, Ostrowski and Schaub 2012), generates,
in grid order, every valuation under which each atom has its sign, so the
result set matches the exhaustive oracle.  It generates them as runs: per
binding of the variables before the last, the last one's allowed values,
split where a != row bans one.  theory_certify() returns that walk
unread, so the grid is walked only as far as its runs are read.

solve() groups the Boolean models by their ids past t, the visible atoms,
and takes the groups in the order answers are printed.  It splits each
group's models into cubes, sets of models that agree on some theory atoms
and take every sign pattern of the others, and certifies each cube once:
the atoms it agrees on keep their sign and the others get none.  A group
whose models take every pattern of the atoms they differ on is one cube;
the runs of a group's cubes are disjoint ranges, so merging the cubes'
walks by prefix, then first value, puts the group's valuations in grid
order, and one _Grid per group holds them.  With models=N that _Grid
stops reading at the Nth answer, so each walk goes at most the one run
the merge holds ahead past it, and no group past it is certified.  Both
engines return an Answers sequence: value tuples per atom set, held as its
atoms' ids, in printed order, from which the CLI prints without building
an AnswerSet or an Atom.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat

from .core import (
    FALSITY,
    AssignmentAtom,
    Atom,
    Literal,
    Rule,
    atoms_of,  # noqa: F401  looked up here by the benchmark's tracer
)
from .dl import Conflict, DiffGraph
from .grounder import GroundProgram
from .semantics import (
    _CMP,
    Answers,
    _bounds_ok,
    _Compiled,
    _mode_ok,
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
    """Replace constraint atoms by fresh propositions __t1, __t2, ..., named
    by first occurrence over g's rules, a rule's head before its body;
    rejects assignments."""
    theory = set(_compile(g).theory)
    first = dict.fromkeys(
        e for r in g.rules for e in (r.head, *[lit.atom for lit in r.body]) if e in theory
    )
    mapping = tuple((Atom(f"__t{k}"), e) for k, e in enumerate(first, 1))
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
    return [prog.visible(m) for m in sorted(prog.models())]  # ids in text order


def _schedule(rows: list, n: int, lo: int, hi: int) -> tuple:
    """Per grid position 0..n-1, what binding its variable x checks and sums.

    rows are signed theory-table rows with at least one term.  A row keeps
    the running sum of its bound terms in sums[slot], slot 0 holding 0.
    The result is (windows, forbid, carry, slots), the first three one
    list per position:

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


class _Cube(dict):
    """One cube's signs from solve(), by atom and by theory id, with their
    program, whose table theory_certify (which the tracer counts) walks."""

    def __init__(self, prog: _Compiled, by_id: list):
        super().__init__(zip(prog.theory, by_id))
        self.prog, self.by_id = prog, by_id


def theory_certify(signs: dict, bounds):
    """Every total valuation within bounds under which each atom has its sign,
    as _grid_walk's runs over variables_of(signs), generated in grid order.

    A sign is True, False or None, "either": an atom signed None constrains
    nothing, but its variables still join the grid, so the result is the
    union, in grid order, of the results for each of its two signs.  Empty
    bounds and &in atoms, signed or not, are rejected at the call; the grid
    is walked only as the runs are read.  The atoms are numbered as the
    program of one constraint :- e. per atom e (a _Cube brings its own).
    """
    _bounds_ok(bounds)
    if isinstance(signs, _Cube):
        return _grid_walk(signs.prog, signs.by_id, bounds)
    _reject_assignments(signs)
    prog = numbered(GroundProgram([Rule(FALSITY, (Literal(True, e),)) for e in signs]))
    return _grid_walk(prog, [signs[e] for e in prog.theory], bounds)


# a false row's comparator and the shift of its rhs, over the integers
_COMPLEMENT = {"<=": (">=", 1), ">=": ("<=", -1), "=": ("!=", 0), "!=": ("=", 0)}


def _grid_walk(prog: _Compiled, signs: list, bounds):
    """Generate, in grid order, the runs (see _Grid) of the value tuples over
    prog's variables within bounds under which each theory atom has its
    sign, signs[k] for theory id k (None: either).  Grid order is
    variables by text, values ascending, which is the tuples' own order.

    Each signed atom is its row of prog's theory table, a false one the
    row's complement, and a row without variables is checked once.  A row
    of difference shape, two terms with coefficients 1 and -1 and the
    comparator <= or >=, is also asserted into a DiffGraph over variable
    positions; a negative cycle means no valuation exists.  One
    backtracking pass binds the variables before the last in grid order.
    A row keeps a running sum of its bound terms, and the interval its
    unbound terms can still add (c * lo or c * hi each) bounds that sum at
    every position of the row; variable i then takes only the values that
    keep each of its rows satisfiable, so a subtree with no valuation is
    never entered, and a row is exact at its last position.  A != row bans
    at most one value, so a variable's allowed values are a few ranges,
    never listed.  Each binding of the variables before the last gives one
    run per range of the last variable's allowed values.
    """
    lo, hi = bounds
    graph = DiffGraph()
    rows = []
    for cid, (sign, (_, terms, cmp, rhs)) in enumerate(zip(signs, prog.theory_table)):
        if sign is None:
            continue
        if not sign:
            cmp, shift = _COMPLEMENT[cmp]
            rhs += shift
        if not terms:
            if not _CMP[cmp](0, rhs):
                return
            continue
        rows.append((terms, cmp, rhs))
        if len(terms) == 2 and terms[0][1] * terms[1][1] == -1 and cmp in ("<=", ">="):
            (p, c), (q, _) = terms
            k = rhs
            if cmp == ">=":  # c * (x[p] - x[q]) >= rhs as -c * (x[p] - x[q]) <= -rhs
                c, k = -c, -rhs
            x, y = (p, q) if c == 1 else (q, p)
            if isinstance(graph.assert_diff(x, y, k, cid), Conflict):
                return
    n = len(prog.variables)
    if not n:
        yield (), None
        return
    windows, forbid, carry, slots = _schedule(rows, n, lo, hi)
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

    last = n - 1
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
    search engine walks no valuation past them.  It certifies each cube of
    Boolean models (see the module docstring) with one theory_certify call
    over g's own theory table.  Without variables every atom's truth is
    fixed, so of cubes that differ on a signed atom only one yields the
    run ((), None).
    """
    if engine not in ("oracle", "search"):
        raise ValueError(f"unknown engine {engine!r}")
    if models < 0:
        raise ValueError("models must be nonnegative")
    _mode_ok(mode)
    if engine == "oracle":
        answers = enumerate_equilibrium(g, mode, bounds)
        return answers.head(models) if models else answers
    if mode != "casp":
        raise ValueError("engine 'search' supports casp mode only")
    _bounds_ok(bounds)  # also when no Boolean model reaches theory_certify
    prog = _compile(g)
    t = len(prog.theory)  # the theory atoms' Boolean ids come first
    groups: dict = {}  # visible atom ids -> true theory ids of each model
    for m in prog.models():
        k = bisect_left(m, t)
        groups.setdefault(m[k:], []).append(set(m[:k]))
    answers = []
    left = models
    for key in sorted(groups):
        walks = []
        for true, free in _cubes(groups[key]):
            signs = [None if i in free else i in true for i in range(t)]
            walks.append(theory_certify(_Cube(prog, signs), bounds))
        values = _Grid(heapq.merge(*walks, key=lambda run: (run[0], run[1] and run[1][0])), left)
        if values:
            answers.append((key, values))
        if models:
            left -= len(values)
            if not left:
                break
    return Answers(prog, answers)

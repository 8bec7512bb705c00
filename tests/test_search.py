"""Search-engine tests: abstraction, Boolean stability, certification, solve."""

import os
import random
import resource
import subprocess
import sys
from itertools import combinations, groupby, product
from pathlib import Path

import pytest

import htsolve.search
from htsolve import (
    FALSITY,
    Abstraction,
    AnswerSet,
    Atom,
    AssignmentAtom,
    DiffConstraintAtom,
    Falsity,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Rule,
    SymConst,
    Valuation,
    abstract,
    gl_reduct,
    ground,
    least_model,
    parse_program,
    solve,
    stable_models_bool,
    theory_certify,
)
from htsolve.core import COMPARATORS, atoms_of, variable_names, walk_terms
from htsolve.grounder import GroundProgram
from htsolve.ht import _elem_true
from oracles import REPEATED_BODY, naive_equilibrium, rule_shapes
from randprog import random_boolean_program, random_hybrid_program

x, y = SymConst("x"), SymConst("y")
a, b = Atom("a"), Atom("b")


def gprog(src: str) -> GroundProgram:
    return ground(parse_program(src))


# abstraction -----------------------------------------------------------------


def test_abstract_golden():
    ab = abstract(gprog("a :- &diff{x-y} <= 5."))
    assert ab.rules == (Rule(a, (Literal(True, Atom("__t1")),)),)
    assert ab.mapping == ((Atom("__t1"), DiffConstraintAtom(x, y, 5)),)
    assert [str(r) for r in ab.rules] == ["a :- __t1."]


def test_abstract_reuses_propositions_for_repeated_atoms():
    d = DiffConstraintAtom(x, y, 5)
    s = LinearConstraintAtom(((1, x),), "<=", 2)
    g = GroundProgram(
        (
            Rule(a, (Literal(True, d),)),
            Rule(b, (Literal(False, d), Literal(True, s))),
            Rule(s, (Literal(True, a),)),
        ),
        (),
    )
    ab = abstract(g)
    assert ab.mapping == ((Atom("__t1"), d), (Atom("__t2"), s))
    assert [str(r) for r in ab.rules] == [
        "a :- __t1.",
        "b :- not __t1, __t2.",
        "__t2 :- a.",
    ]


def test_abstract_is_identity_on_boolean_programs():
    g = gprog("a :- not b. b :- not a. :- a, b.")
    ab = abstract(g)
    assert ab.rules == g.rules
    assert ab.mapping == ()


def test_abstract_rejects_assignment_atoms():
    with pytest.raises(ValueError, match="no Boolean abstraction"):
        abstract(gprog("&in{1..2} =: x."))


def test_numbering_contract_golden():
    """Theory atoms are numbered by first occurrence, a rule's head first."""
    src = """
        &sum{1*x} <= 1 :- &diff{x-y} <= 0.
        b :- not a, &sum{1*y} >= 1.
        a :- not b, &diff{y-x} <= 0.
        c :- a, &sum{1*x;1*y} = 1.
        c :- b, not &diff{x-y} <= 0.
        :- c, &sum{2*x} != 2.
        a :- &diff{x-y} <= -1, &sum{1*x;-1*y} > 0.
        b :- not &sum{1*y} < 1.
        c :- &sum{1*x} = 0, not &diff{y-x} <= -1.
    """
    g = GroundProgram(parse_program(src).rules, ())  # rules not in text order
    assert [str(r) for r in g.rules] != sorted(str(r) for r in g.rules)
    ab = abstract(g)
    assert [(str(prop), str(e)) for prop, e in ab.mapping] == [
        ("__t1", "&sum{1*x} <= 1"),
        ("__t2", "&diff{x-y} <= 0"),
        ("__t3", "&sum{1*y} >= 1"),
        ("__t4", "&diff{y-x} <= 0"),
        ("__t5", "&sum{1*x;1*y} = 1"),
        ("__t6", "&sum{2*x} != 2"),
        ("__t7", "&diff{x-y} <= -1"),
        ("__t8", "&sum{1*x;-1*y} > 0"),
        ("__t9", "&sum{1*y} < 1"),
        ("__t10", "&sum{1*x} = 0"),
        ("__t11", "&diff{y-x} <= -1"),
    ]
    assert str(ab.rules[0]) == "__t1 :- __t2."
    assert str(ab.rules[4]) == "c :- b, not __t2."
    want = naive_equilibrium(g, "casp", (0, 1))
    assert want
    for engine in ("oracle", "search"):
        assert solve(g, "casp", (0, 1), engine) == want
    with pytest.raises(ValueError, match="expects a Boolean program"):
        stable_models_bool(g)


# Boolean stable models ----------------------------------------------------------


def test_stable_models_even_loop():
    g = gprog("a :- not b. b :- not a.")
    assert stable_models_bool(g) == [frozenset({a}), frozenset({b})]


def test_stable_models_facts_and_chain():
    g = gprog("a. b :- a. c :- b, not d.")
    assert stable_models_bool(g) == [frozenset({a, b, Atom("c")})]


def test_stable_models_constraint_prunes():
    g = gprog("a :- not b. b :- not a. :- a.")
    assert stable_models_bool(g) == [frozenset({b})]


def test_stable_models_unsatisfiable():
    g = gprog(":- not a.")
    assert stable_models_bool(g) == []


def test_stable_models_empty_bodied_constraint():
    g = GroundProgram((Rule(a), Rule(FALSITY, ())), ())
    assert stable_models_bool(g) == []


def test_stable_models_unsupported_atoms_never_appear():
    g = gprog("a :- b. b :- a.")
    assert stable_models_bool(g) == [frozenset()]


def _reduct_stable_sets(g: GroundProgram) -> list:
    """Definitional oracle: fixpoints of the reduct that violate no constraint."""
    atoms = sorted(atoms_of(g)[0], key=str)
    out = []
    for size in range(len(atoms) + 1):
        for chosen in combinations(atoms, size):
            t = frozenset(chosen)
            red = gl_reduct(g, t)
            if least_model(red) != t:
                continue
            if any(
                isinstance(r.head, Falsity) and all(l.atom in t for l in r.body)
                for r in red.rules
            ):
                continue
            out.append(t)
    out.sort(key=lambda m: tuple(sorted(str(at) for at in m)))
    return out


def test_stable_models_match_reduct_oracle():
    rng = random.Random(41)
    for _ in range(150):
        g = random_boolean_program(rng, n_atoms=3, max_rules=5)
        assert stable_models_bool(g) == _reduct_stable_sets(g), f"differs on:\n{g}"


def _even_loop_stable_sets(g: GroundProgram, free) -> list:
    """Free atoms as one even loop each (a :- not c. c :- not a.), c dropped."""
    loops = []
    counters = set()
    for n, atom in enumerate(sorted(free, key=str)):
        counter = Atom(f"free_counter{n}")
        counters.add(counter)
        loops += [Rule(atom, (Literal(False, counter),)),
                  Rule(counter, (Literal(False, atom),))]
    models = _reduct_stable_sets(GroundProgram(g.rules + tuple(loops), g.universe))
    out = [m - counters for m in models]
    out.sort(key=lambda m: tuple(sorted(str(at) for at in m)))
    return out


def _free_atom_models(g: GroundProgram, free) -> list:
    """The models of g with each atom p in free a choice, as the search
    engine finds them: p becomes the theory atom &sum{1*v_p} >= 1 over 0..1,
    a free proposition of the Boolean core, and a model is an answer's
    atoms plus each p with v_p = 1.  Sorted as _even_loop_stable_sets."""
    var = {p: SymConst(f"v_{p}") for p in free}
    theory = {p: LinearConstraintAtom(((1, v),), ">=", 1) for p, v in var.items()}

    def lift(e):
        return theory.get(e, e)

    rules = tuple(Rule(lift(r.head), tuple(Literal(lit.positive, lift(lit.atom)) for lit in r.body))
                  for r in g.rules)
    answers = solve(GroundProgram(rules, g.universe), "casp", (0, 1), engine="search")
    models = [ans.atoms | {p for p, v in var.items() if ans.val.get(v) == 1} for ans in answers]
    return sorted(models, key=lambda m: tuple(sorted(str(at) for at in m)))


def test_stable_models_free_atoms_match_even_loop_encoding():
    rng = random.Random(43)
    seen = {"free head": 0, "free body-only": 0, "models": 0,
            "head in positive body": 0, "repeated literal": 0}
    for n in range(200):
        g = random_boolean_program(rng, n_atoms=3, max_rules=5)
        if n % 4 == 0:
            g = GroundProgram(g.rules + (REPEATED_BODY,), ())
        heads = {r.head for r in g.rules if not isinstance(r.head, Falsity)}
        pool = (a, b, Atom("c"), Atom("extra"))
        used = set(atoms_of(g)[0])
        free = frozenset(at for at in pool if rng.random() < 0.4) & used
        want = _even_loop_stable_sets(g, free)
        assert _free_atom_models(g, free) == want, f"differs on {free}:\n{g}"
        body_atoms = used - heads
        seen["free head"] += bool(free & heads)
        seen["free body-only"] += bool(free & body_atoms)
        seen["models"] += len(want) > 1
        for shape in rule_shapes(g):
            seen[shape] += 1
    assert min(seen.values()) >= 20, seen


def _dependency_loops(g: GroundProgram) -> tuple:
    """(has a positive loop, has a loop through negation) in g's atom graph."""
    positive: dict = {}
    every: dict = {}
    negated = []
    for r in g.rules:
        if isinstance(r.head, Falsity):
            continue
        for lit in r.body:
            every.setdefault(r.head, set()).add(lit.atom)
            if lit.positive:
                positive.setdefault(r.head, set()).add(lit.atom)
            else:
                negated.append((r.head, lit.atom))

    def reaches(edges, src, dst) -> bool:
        seen, todo = set(), [src]
        while todo:
            at = todo.pop()
            if at == dst:
                return True
            if at not in seen:
                seen.add(at)
                todo.extend(edges.get(at, ()))
        return False

    return (
        any(reaches(positive, p, h) for h, body in positive.items() for p in body),
        any(reaches(every, q, h) for h, q in negated),
    )


def test_stable_models_wider_programs_match_oracles():
    rng = random.Random(47)
    seen = {"positive loop": 0, "loop through negation": 0, "models": 0, "free": 0}
    for _ in range(150):
        g = random_boolean_program(rng, n_atoms=rng.randint(5, 6), max_rules=10, max_body=3)
        pool = sorted(atoms_of(g)[0], key=str) + [Atom("extra")]
        free = frozenset(at for at in pool if rng.random() < 0.15) & set(atoms_of(g)[0])
        want = _even_loop_stable_sets(g, free)
        assert _free_atom_models(g, free) == want, f"differs on {free}:\n{g}"
        positive, negative = _dependency_loops(g)
        seen["positive loop"] += positive
        seen["loop through negation"] += negative
        seen["models"] += len(want) > 1
        seen["free"] += bool(free)
    assert min(seen.values()) >= 20, seen


# theory certification -------------------------------------------------------------


def vals(*rows) -> list:
    """Valuations over (x, y) from value pairs, or over x alone from ints."""
    return [
        Valuation.of({x: r[0], y: r[1]} if isinstance(r, tuple) else {x: r})
        for r in rows
    ]


def test_certify_positive_difference():
    d = DiffConstraintAtom(x, y, 0)
    assert theory_certify({d: True}, (0, 1)) == vals((0, 0), (0, 1), (1, 1))


def test_certify_negated_difference():
    d = DiffConstraintAtom(x, y, 0)
    assert theory_certify({d: False}, (0, 1)) == vals((1, 0))


def test_certify_conflicting_differences():
    signs = {
        DiffConstraintAtom(x, y, -1): True,
        DiffConstraintAtom(y, x, -1): True,
    }
    assert theory_certify(signs, (0, 9)) == []


def test_certify_sum_signs():
    s = LinearConstraintAtom(((1, x),), "<=", 2)
    assert theory_certify({s: True}, (0, 5)) == vals(0, 1, 2)
    assert theory_certify({s: False}, (0, 5)) == vals(3, 4, 5)
    assert theory_certify({s: False}, (0, 2)) == []


def test_certify_mixed_diff_and_sum():
    signs = {
        DiffConstraintAtom(x, y, 0): True,
        LinearConstraintAtom(((1, x), (1, y)), "=", 3): True,
    }
    assert theory_certify(signs, (0, 3)) == vals((0, 3), (1, 2))


def test_certify_variable_free_atoms():
    ground_true = LinearConstraintAtom(((2, IntConst(3)),), "<=", 7)
    assert theory_certify({ground_true: True}, (0, 1)) == [Valuation()]
    assert theory_certify({ground_true: False}, (0, 1)) == []
    assert theory_certify({}, (0, 1)) == [Valuation()]
    s = LinearConstraintAtom(((1, x),), "<=", 0)
    assert theory_certify({ground_true: True, s: True}, (0, 1)) == vals(0)
    assert theory_certify({ground_true: False, s: True}, (0, 1)) == []


def test_certify_rejects_empty_bounds():
    with pytest.raises(ValueError, match="empty bounds"):
        theory_certify({}, (2, 1))


def test_certify_rejects_assignment_atoms():
    assign = AssignmentAtom(IntConst(0), IntConst(1), x)
    for sign in (True, False, None):
        with pytest.raises(ValueError, match="assignment atoms have no Boolean abstraction"):
            theory_certify({assign: sign}, (0, 1))


def _brute_certify(signs: dict, bounds) -> list:
    """Reference: filter the whole domain^vars grid, in product order."""
    lo, hi = bounds
    variables = sorted({v for atom in signs for v in variable_names(atom)}, key=str)
    out = []
    for combo in product(range(lo, hi + 1), repeat=len(variables)):
        vd = dict(zip(variables, combo))
        if all(_elem_true((), vd, atom) == sign for atom, sign in signs.items()):
            out.append(Valuation.of(vd))
    return out


def _has_diff_cycle(signs: dict) -> bool:
    """Do the sign-adjusted &diff edges y -> x close a directed cycle?"""
    out: dict = {}
    for atom, sign in signs.items():
        if isinstance(atom, DiffConstraintAtom):
            x_, y_ = atom.lhs_var, atom.rhs_var
            if not sign:
                x_, y_ = y_, x_
            out.setdefault(y_, set()).add(x_)

    def reaches(src, dst, seen) -> bool:
        for nxt in out.get(src, ()):
            if nxt == dst or (nxt not in seen and reaches(nxt, dst, seen | {nxt})):
                return True
        return False

    return any(reaches(v, v, {v}) for v in out)


def test_certify_matches_brute_force_grid():
    rng = random.Random(2024)
    kinds = ("variable-free", "negated diff", "diff cycle", "empty", "some")
    seen = dict.fromkeys(kinds, 0)
    for _ in range(400):
        pool = set()
        for _ in range(2):
            pool |= set(atoms_of(random_hybrid_program(rng, n_atoms=2))[1])
        signs = {atom: rng.random() < 0.5 for atom in sorted(pool, key=str)}
        lo = rng.randint(-2, 1)
        bounds = (lo, lo + rng.randint(0, 3))
        want = _brute_certify(signs, bounds)
        assert theory_certify(signs, bounds) == want, f"differs on {signs} {bounds}"
        limit = rng.randint(1, 3)
        assert theory_certify(signs, bounds, limit) == want[:limit], f"limit {limit}"
        seen["variable-free"] += any(not list(variable_names(t)) for t in signs)
        seen["negated diff"] += any(
            isinstance(t, DiffConstraintAtom) and not s for t, s in signs.items()
        )
        seen["diff cycle"] += _has_diff_cycle(signs)
        seen["empty"] += not want
        seen["some"] += bool(want)
    assert min(seen.values()) >= 20, seen


def test_certify_rejects_a_negative_limit():
    signs = {LinearConstraintAtom(((1, x),), ">=", 0): True}
    with pytest.raises(ValueError, match="limit must be nonnegative"):
        theory_certify(signs, (0, 5), -1)
    assert len(theory_certify(signs, (0, 5), 0)) == 6


def _wide_atom(rng: random.Random, names: list):
    """A &sum or &diff over names with coefficients -3..3, constants and repeats."""

    def term():
        if rng.random() < 0.15:
            return IntConst(rng.randint(-2, 3))
        return rng.choice(names)

    if rng.random() < 0.3:
        return DiffConstraintAtom(term(), term(), rng.randint(-4, 4))
    terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), term()) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        v, k = rng.choice(names), rng.randint(1, 2)
        terms += [(k, v), (-k, v)]  # as in &sum{1*x;-1*x}
    return LinearConstraintAtom(tuple(terms), rng.choice(COMPARATORS), rng.randint(-6, 6))


def _cancels(atom) -> bool:
    """Does some variable of a &sum have coefficients that add up to 0?"""
    if not isinstance(atom, LinearConstraintAtom):
        return False
    total: dict = {}
    for k, t in atom.terms:
        if not isinstance(t, IntConst):
            total[t] = total.get(t, 0) + k
    return 0 in total.values()


def test_certify_compiled_rows_match_brute_force_wide():
    rng = random.Random(707)
    names = [x, y, SymConst("z")]
    seen = {f"{cmp} {sign}": 0 for cmp in COMPARATORS for sign in (True, False)}
    seen.update({"bounds -3..3": 0, "negative lower bound": 0, "negative coefficient": 0,
                 "cancelling variable": 0, "integer constant": 0, "empty": 0, "some": 0})
    for _ in range(500):
        signs = {_wide_atom(rng, names): rng.random() < 0.5 for _ in range(rng.randint(1, 4))}
        lo = rng.randint(-3, 0)
        bounds = (lo, rng.randint(max(lo, 0), 3)) if rng.random() < 0.8 else (-3, 3)
        want = _brute_certify(signs, bounds)
        assert theory_certify(signs, bounds) == want, f"differs on {signs} {bounds}"
        for atom, sign in signs.items():
            if isinstance(atom, LinearConstraintAtom):
                seen[f"{atom.cmp} {sign}"] += 1
                seen["negative coefficient"] += any(k < 0 for k, _ in atom.terms)
            seen["cancelling variable"] += _cancels(atom)
            seen["integer constant"] += any(isinstance(t, IntConst) for t in walk_terms(atom))
        seen["bounds -3..3"] += bounds == (-3, 3)
        seen["negative lower bound"] += lo < 0
        seen["empty"] += not want
        seen["some"] += bool(want)
    assert min(seen.values()) >= 30, seen


def test_certify_either_sign_is_union_of_both_signs():
    rng = random.Random(808)
    names = [x, y, SymConst("z")]
    seen = {"both signs hold somewhere": 0, "empty": 0}
    for _ in range(300):
        signs = {_wide_atom(rng, names): rng.random() < 0.5 for _ in range(rng.randint(1, 4))}
        either = rng.choice(list(signs))
        lo = rng.randint(-2, 0)
        bounds = (lo, rng.randint(max(lo, 0), 2))
        true = theory_certify({**signs, either: True}, bounds)
        false = theory_certify({**signs, either: False}, bounds)
        got = theory_certify({**signs, either: None}, bounds)
        assert got == sorted(true + false, key=lambda val: val.entries), (
            f"differs on {signs} with {either} unsigned, {bounds}"
        )
        seen["both signs hold somewhere"] += bool(true) and bool(false)
        seen["empty"] += not got
    assert min(seen.values()) >= 30, seen


# solve ------------------------------------------------------------------------


def test_solve_engine_validation():
    g = gprog("a.")
    with pytest.raises(ValueError, match="unknown engine"):
        solve(g, "casp", (0, 0), engine="guess")
    with pytest.raises(ValueError, match="casp mode only"):
        solve(g, "founded", (0, 0), engine="search")
    with pytest.raises(ValueError, match="empty bounds"):
        solve(gprog(":- not a."), "casp", (2, 1), engine="search")
    two_loops = gprog("a :- not b. b :- not a. c :- not d. d :- not c.")
    for engine in ("oracle", "search"):
        assert len(solve(two_loops, "casp", (0, 0), engine)) == 4
        with pytest.raises(ValueError, match="models must be nonnegative"):
            solve(two_loops, "casp", (0, 0), engine, -1)


def test_solve_boolean_program_both_engines():
    g = gprog("a :- not b. b :- not a.")
    want = [AnswerSet(frozenset({a})), AnswerSet(frozenset({b}))]
    assert solve(g, "casp", (0, 0), engine="oracle") == want
    assert solve(g, "casp", (0, 0), engine="search") == want


def test_solve_diff_body_engines_agree_and_hide_propositions():
    g = gprog("a :- &diff{x-y} <= 0.")
    oracle = solve(g, "casp", (0, 1), engine="oracle")
    search = solve(g, "casp", (0, 1), engine="search")
    assert oracle == search
    assert len(search) == 4
    for ans in search:
        assert all(not at.predicate.startswith("__") for at in ans.atoms)


def test_solve_constraint_pipeline_engines_agree():
    g = gprog(":- not a. a :- &sum{1*x} <= 2.")
    oracle = solve(g, "casp", (0, 5), engine="oracle")
    search = solve(g, "casp", (0, 5), engine="search")
    assert oracle == search
    assert [str(ans.val) for ans in search] == ["x=0", "x=1", "x=2"]


def test_solve_unsatisfiable_theory_combination():
    g = gprog(":- not a. a :- &diff{x-y} <= -1. :- &diff{y-x} <= -1.")
    # needs x - y <= -1 while rejecting y - x <= -1: satisfiable, x < y
    out = solve(g, "casp", (0, 1), engine="search")
    assert out == [AnswerSet(frozenset({a}), Valuation.of({x: 0, y: 1}))]
    assert out == solve(g, "casp", (0, 1), engine="oracle")


def test_solve_random_hybrid_differential():
    rng = random.Random(42)
    for _ in range(60):
        g = random_hybrid_program(rng, n_atoms=3, n_vars=2, max_rules=4)
        oracle = solve(g, "casp", (0, 2), engine="oracle")
        search = solve(g, "casp", (0, 2), engine="search")
        assert oracle == search, f"engines differ on:\n{g}"


def test_random_programs_draw_names_past_the_first_pools():
    """Above six atoms and three variables the generator makes fresh names,
    a6, a7, ... and x3, x4, ..., and the engines agree on such programs."""
    rng = random.Random(4008)
    atoms: set = set()
    variables: set = set()
    for _ in range(100):
        g = random_hybrid_program(rng, n_atoms=8, n_vars=4)
        found, _, names = atoms_of(g)
        atoms.update(map(str, found))
        variables.update(map(str, names))
        if "x3" in map(str, names):
            assert solve(g, "casp", (0, 1), engine="search") == solve(g, "casp", (0, 1))
    assert atoms == {"a", "b", "c", "d", "e", "f", "a6", "a7"}, atoms
    assert variables == {"x", "y", "z", "x3"}, variables


@pytest.mark.parametrize(
    "src, bounds, calls",
    [
        # groups {on}, {off} and {near, off} hold 4, 2 and 1 Boolean models,
        # every sign pattern of their varying theory atoms, so one cube each
        ("on :- not off. off :- not on. near :- &diff{x-y} <= 0, off. "
         ":- near, &sum{1*x;1*y} >= 3.", (0, 2), 3),
        # one group with 3 of the 4 sign patterns: a cube of 2 and one of 1
        (":- &diff{x-y} <= 0, &sum{1*x;1*y} >= 2.", (0, 2), 2),
        # groups {} and {a} hold 3 and 5 of the 8 patterns, 2 and 3 cubes; in
        # {a}, the cube x != 3, x != 4 yields 0..2 and 5..7, and another 3
        ("a :- &sum{1*x} != 3, &sum{1*x} != 4. a :- &sum{1*x} = 3.", (0, 7), 5),
    ],
    ids=["every-pattern", "3-of-4-patterns", "interleaved-runs"],
)
def test_solve_certifies_each_cube_once(monkeypatch, src, bounds, calls):
    g = gprog(src)
    seen = []

    walk = htsolve.search._grid_walk

    def certify(signs, bounds, variables):
        seen.append(signs)
        return walk(signs, bounds, variables)

    monkeypatch.setattr(htsolve.search, "_grid_walk", certify)
    want = naive_equilibrium(g, "casp", bounds)
    assert solve(g, "casp", bounds, engine="search") == want
    assert len(seen) == calls
    for k in range(1, len(want) + 1):
        assert solve(g, "casp", bounds, engine="search", models=k) == want[:k]


def test_solve_streams_a_group_of_two_cubes_over_a_huge_domain():
    # group a is two cubes, x >= 5 and x <= 3, over 10^12 values: its runs
    # are merged, never listed, so 1 GiB of address space is plenty
    script = "\n".join([
        "from itertools import islice",
        "from htsolve import ground, parse_program, solve",
        "g = ground(parse_program('a :- &sum{1*x} >= 5. a :- &sum{1*x} <= 3.'))",
        "answers = solve(g, 'casp', (0, 10**12), engine='search')",
        "(empty, fours), (a, values) = answers.groups",
        "print(len(answers), sorted(map(str, empty)), list(fours),",
        "      sorted(map(str, a)), list(islice(values, 5)))",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    gib = 1 << 30
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{10**12 + 1} [] [(4,)] ['a'] [(0,), (1,), (2,), (3,), (5,)]\n"


def test_solve_answers_read_as_a_list_of_answer_sets():
    # Answers holds value tuples per atom set and reads like naive_equilibrium's list
    g = gprog("a :- &sum{1*x;1*y} >= 3, not b. b :- not a. c :- &diff{x-y} <= 0, b.")
    want = naive_equilibrium(g, "casp", (0, 2))
    groups = [(atoms, [tuple(v for _, v in ans.val.entries) for ans in same])
              for atoms, same in groupby(want, lambda ans: ans.atoms)]
    assert len(groups) == 3
    for engine in ("oracle", "search"):
        got = solve(g, "casp", (0, 2), engine)
        assert len(got) == len(want) and got == want and want == got
        assert (got[0], got[-1], got[2:5]) == (want[0], want[-1], want[2:5])
        assert got + [] == want and [] + got == want
        assert [(atoms, list(values)) for atoms, values in got.groups] == groups
        assert got.variables == (x, y)


def test_cubes_partition_the_sign_patterns():
    rng = random.Random(909)
    for _ in range(300):
        n = rng.randint(0, 4)
        every = [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(2**n)]
        trues = [set(p) for p in rng.sample(every, rng.randint(1, len(every)))]
        held = []
        for true, free in htsolve.search._cubes(trues):
            assert true.isdisjoint(free)
            held += [true | set(c) for k in range(len(free) + 1) for c in combinations(free, k)]
        assert sorted(map(sorted, held)) == sorted(map(sorted, trues))


def test_solve_prunes_a_group_missing_a_sign_pattern(monkeypatch):
    # one group with patterns TT, TF and FT over a 10^12 grid; certifying it
    # with both atoms unsigned would walk the whole grid
    total = "&sum{" + ";".join(f"1*x{i}" for i in range(12)) + "}"
    g = gprog(f":- not {total} >= 108, not {total} <= 0.")
    built = []
    walk = htsolve.search._grid_walk

    def counted(signs, bounds, variables):
        for prefix, lasts in walk(signs, bounds, variables):
            built.extend((*prefix, v) for v in lasts)
            assert len(built) <= 10, "certification walks the grid"
            yield prefix, lasts

    monkeypatch.setattr(htsolve.search, "_grid_walk", counted)
    got = solve(g, "casp", (0, 9), engine="search")
    assert [sorted(v for _, v in ans.val.entries) for ans in got] == [[0] * 12, [9] * 12]

"""Semantics tests: worlds, element truth, rule satisfaction, stable points."""

import dataclasses
import pickle
import random
from collections import Counter
from itertools import product

import pytest

import htsolve.search
import htsolve.semantics
from htsolve import (
    AnswerSet,
    AspVar,
    Atom,
    AssignmentAtom,
    DiffConstraintAtom,
    IntConst,
    Interpretation,
    LinearConstraintAtom,
    Literal,
    Program,
    Rule,
    SymConst,
    Valuation,
    World,
    enumerate_equilibrium,
    gl_reduct,
    ground,
    is_equilibrium,
    is_ht_model,
    least_model,
    load_instance,
    load_model,
    parse_program,
    sat_rule,
    solve,
    total,
    translate,
    value_bounds,
)
from htsolve.configkit import EMPTY_INSTANCE
from htsolve.core import atoms_of
from htsolve.grounder import GroundProgram, check_safety
from htsolve.ht import _elem_true, sat_elem
from htsolve.semantics import EMPTY_VALUATION, MODES, _Compiled, numbered

from oracles import (
    REPEATED_BODY,
    answer_sort_key,
    cyclic_atoms,
    naive_equilibrium,
    partial_valuations,
    rule_shapes,
    total_valuations,
)
from randprog import (
    _POOL,
    random_boolean_program,
    random_hybrid_program,
    random_interpretation_and_rule,
    random_valuation_pair,
)

x, y = SymConst("x"), SymConst("y")
a, b, c = Atom("a"), Atom("b"), Atom("c")


def gprog(src: str) -> GroundProgram:
    p = parse_program(src)
    assert isinstance(p, Program), p
    return ground(p)


# Valuation -------------------------------------------------------------------


def test_valuation_sorts_entries_by_name():
    v = Valuation(((y, 2), (x, 1)))
    assert v.entries == ((x, 1), (y, 2))
    assert str(v) == "x=1 y=2"


def test_valuation_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate variable"):
        Valuation(((x, 1), (x, 2)))


def test_valuation_accessors():
    v = Valuation.of({x: 4})
    assert v.get(x) == 4 and v.get(y) is None
    assert v.defined(x) and not v.defined(y)
    assert v.as_dict() == {x: 4}
    assert v.names() == (x,)
    assert len(v) == 1 and x in v and y not in v
    assert Valuation.of([(x, 4)]) == v


def test_valuation_subset_of():
    small = Valuation.of({x: 1})
    big = Valuation.of({x: 1, y: 2})
    clash = Valuation.of({x: 9, y: 2})
    assert small.subset_of(big) and not big.subset_of(small)
    assert EMPTY_VALUATION.subset_of(small)
    assert not small.subset_of(clash)


# World / Interpretation -------------------------------------------------------


def test_here_atoms_must_stay_inside_there():
    with pytest.raises(ValueError, match="here atoms exceed there atoms"):
        Interpretation(World(frozenset({a})), World(frozenset()))


def test_here_valuation_must_agree_with_there():
    with pytest.raises(ValueError, match="here valuation disagrees"):
        Interpretation(
            World(frozenset(), Valuation.of({x: 1})),
            World(frozenset(), Valuation.of({x: 2})),
        )
    with pytest.raises(ValueError, match="here valuation disagrees"):
        Interpretation(
            World(frozenset(), Valuation.of({x: 1})),
            World(frozenset(), EMPTY_VALUATION),
        )


def test_total_builds_matching_worlds():
    i = total({a}, Valuation.of({x: 1}))
    assert i.here == i.there == World(frozenset({a}), Valuation.of({x: 1}))


# element truth ----------------------------------------------------------------


def _single(atoms=(), vals=None):
    return total(frozenset(atoms), Valuation.of(vals or {}))


def test_plain_atom_truth_is_membership():
    assert sat_elem(_single(atoms=[a]), "there", a)
    assert not sat_elem(_single(), "there", a)


def test_sum_truth_and_undefined_variable():
    e = LinearConstraintAtom(((1, x), (1, y)), "<=", 5)
    assert sat_elem(_single(vals={x: 2, y: 3}), "there", e)
    assert not sat_elem(_single(vals={x: 2, y: 4}), "there", e)
    # any undefined variable makes the constraint false
    assert not sat_elem(_single(vals={x: 2}), "there", e)
    assert not sat_elem(_single(), "there", e)


def test_all_sum_comparators_evaluate():
    cases = {"<=": True, "<": False, "=": True, "!=": False, ">": False, ">=": True}
    for cmp, expect in cases.items():
        e = LinearConstraintAtom(((2, x),), cmp, 6)
        assert sat_elem(_single(vals={x: 3}), "there", e) is expect


def test_integer_constants_denote_themselves():
    e = LinearConstraintAtom(((2, SymConst("three")), (1, SymConst("three"))), "=", 9)
    i = _single(vals={SymConst("three"): 3})
    assert sat_elem(i, "there", e)
    from htsolve.core import IntConst

    lit = LinearConstraintAtom(((2, IntConst(3)),), "<=", 7)
    assert sat_elem(_single(), "there", lit)  # 6 <= 7, no valuation needed


def test_diff_truth_table():
    e = DiffConstraintAtom(x, y, 1)
    assert sat_elem(_single(vals={x: 2, y: 1}), "there", e)
    assert not sat_elem(_single(vals={x: 3, y: 1}), "there", e)
    assert not sat_elem(_single(vals={x: 2}), "there", e)


def test_assignment_truth_table():
    e = AssignmentAtom(y, y, x)
    # undefined bound: imposes nothing, counts as true
    assert sat_elem(_single(), "there", e)
    assert sat_elem(_single(vals={x: 7}), "there", e)
    # defined bounds require a defined target inside the range
    assert sat_elem(_single(vals={x: 3, y: 3}), "there", e)
    assert not sat_elem(_single(vals={x: 4, y: 3}), "there", e)
    assert not sat_elem(_single(vals={y: 3}), "there", e)


def test_non_ground_elements_are_rejected():
    with pytest.raises(ValueError, match="non-ground element"):
        sat_elem(_single(), "there", Atom("p", (AspVar("X"),)))
    with pytest.raises(ValueError, match="non-ground element"):
        sat_elem(_single(), "there", LinearConstraintAtom(((1, AspVar("X")),), "<=", 0))


def test_engines_reject_a_rule_variable_in_a_theory_atom():
    # a hand-built GroundProgram; ground() never leaves a rule variable
    at_least_one = LinearConstraintAtom(((1, AspVar("X")),), ">=", 1)
    g = GroundProgram((Rule(Atom("a"), (Literal(True, at_least_one),)),), ())
    calls = [
        lambda: solve(g, "casp", (0, 1), "oracle"),
        lambda: solve(g, "casp", (0, 1), "search"),
        lambda: is_equilibrium(AnswerSet(), g, "founded", (0, 1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^non-ground element: variable X$"):
            call()


# rule satisfaction --------------------------------------------------------------


def test_negation_checked_at_there():
    r = parse_program("a :- not b.").rules[0]
    # b true at there blocks the body even when evaluating at here
    i = Interpretation(World(frozenset()), World(frozenset({b})))
    assert sat_rule(i, "here", r)
    # b false everywhere: the there-condition requires a at there
    assert not sat_rule(total(frozenset()), "here", r)
    assert sat_rule(total(frozenset({a})), "here", r)


def test_here_satisfaction_includes_there_condition():
    r = parse_program("a :- b.").rules[0]
    i = Interpretation(World(frozenset()), World(frozenset({b})))
    # body fails at here (b not here) but the there-condition fails: b there, a not
    assert not sat_rule(i, "here", r)
    assert not sat_rule(i, "there", r)


def test_persistence_here_implies_there():
    rng = random.Random(11)
    for _ in range(1500):
        i, r = random_interpretation_and_rule(rng)
        if sat_rule(i, "here", r):
            assert sat_rule(i, "there", r), f"persistence broken for {r} on {i}"


def test_total_interpretations_collapse_to_classical():
    rng = random.Random(12)
    for _ in range(800):
        i, r = random_interpretation_and_rule(rng)
        t = Interpretation(i.there, i.there)
        assert sat_rule(t, "here", r) == sat_rule(t, "there", r)


def test_is_ht_model_simple():
    g = gprog("a :- not b.")
    assert is_ht_model(total(frozenset({a})), g)
    assert not is_ht_model(Interpretation(World(frozenset()), World(frozenset({a}))), g)


# stable points -------------------------------------------------------------------


def test_negation_default_example():
    g = gprog("a :- not b.")
    assert is_equilibrium(AnswerSet(frozenset({a})), g, "casp", (0, 0))
    assert not is_equilibrium(AnswerSet(frozenset({b})), g, "casp", (0, 0))
    assert not is_equilibrium(AnswerSet(frozenset()), g, "casp", (0, 0))
    assert enumerate_equilibrium(g, "casp", (0, 0)) == [AnswerSet(frozenset({a}))]


def test_even_loop_has_two_stable_points():
    g = gprog("a :- not b. b :- not a.")
    out = enumerate_equilibrium(g, "casp", (0, 0))
    assert out == [AnswerSet(frozenset({a})), AnswerSet(frozenset({b}))]


def test_assignment_chain_founded():
    g = gprog("&in{3..3} =: y. &in{y..y} =: x.")
    want = AnswerSet(frozenset(), Valuation.of({x: 3, y: 3}))
    assert is_equilibrium(want, g, "founded", (0, 5))
    assert not is_equilibrium(AnswerSet(frozenset(), Valuation.of({y: 3})), g, "founded", (0, 5))
    assert enumerate_equilibrium(g, "founded", (0, 5)) == [want]


def test_unconstrained_assignment_founded_leaves_target_undefined():
    g = gprog("&in{y..y} =: x.")
    assert enumerate_equilibrium(g, "founded", (0, 1)) == [AnswerSet(frozenset())]


def test_unconstrained_assignment_casp_forces_equality():
    g = gprog("&in{y..y} =: x.")
    out = enumerate_equilibrium(g, "casp", (0, 1))
    assert out == [
        AnswerSet(frozenset(), Valuation.of({x: 0, y: 0})),
        AnswerSet(frozenset(), Valuation.of({x: 1, y: 1})),
    ]


def test_sum_equality_casp():
    g = gprog("&sum{1*x;-1*y} = 0.")
    out = enumerate_equilibrium(g, "casp", (0, 1))
    assert out == [
        AnswerSet(frozenset(), Valuation.of({x: 0, y: 0})),
        AnswerSet(frozenset(), Valuation.of({x: 1, y: 1})),
    ]


def test_diff_body_casp_enumeration():
    g = gprog("a :- &diff{x-y} <= 0.")
    out = enumerate_equilibrium(g, "casp", (0, 1))
    assert out == [
        AnswerSet(frozenset(), Valuation.of({x: 1, y: 0})),
        AnswerSet(frozenset({a}), Valuation.of({x: 0, y: 0})),
        AnswerSet(frozenset({a}), Valuation.of({x: 0, y: 1})),
        AnswerSet(frozenset({a}), Valuation.of({x: 1, y: 1})),
    ]


def test_constraint_prunes_candidates():
    g = gprog(":- not a. a :- &sum{1*x} <= 2.")
    out = enumerate_equilibrium(g, "casp", (0, 5))
    assert [(sorted(str(at) for at in ans.atoms), str(ans.val)) for ans in out] == [
        (["a"], "x=0"),
        (["a"], "x=1"),
        (["a"], "x=2"),
    ]


def test_is_equilibrium_argument_validation():
    g = gprog("a :- &sum{1*x} <= 2.")
    with pytest.raises(ValueError, match="casp mode needs a total valuation"):
        is_equilibrium(AnswerSet(frozenset({a})), g, "casp", (0, 2))
    with pytest.raises(ValueError, match="not in the program"):
        is_equilibrium(
            AnswerSet(frozenset(), Valuation.of({SymConst("zz"): 1})), g, "founded", (0, 2)
        )
    with pytest.raises(ValueError, match="valuation outside bounds"):
        is_equilibrium(AnswerSet(frozenset(), Valuation.of({x: 9})), g, "founded", (0, 2))
    # casp mode checks the valuation the same way
    g = gprog("&sum{1*x} >= 0.")
    with pytest.raises(ValueError, match="valuation outside bounds: x"):
        is_equilibrium(AnswerSet(frozenset(), Valuation.of({x: 99})), g, "casp", (0, 3))
    with pytest.raises(ValueError, match="not in the program: z"):
        is_equilibrium(
            AnswerSet(frozenset(), Valuation.of({x: 1, SymConst("z"): 1})), g, "casp", (0, 3)
        )
    with pytest.raises(ValueError, match="unknown mode"):
        is_equilibrium(AnswerSet(frozenset()), g, "weird", (0, 2))
    with pytest.raises(ValueError, match="empty bounds"):
        enumerate_equilibrium(g, "casp", (3, 1))


def test_foreign_atoms_are_never_stable():
    g = gprog("a :- not b.")
    assert not is_equilibrium(AnswerSet(frozenset({c})), g, "casp", (0, 0))


def test_left_recursive_closure_on_40_chain_founded():
    n = 40
    edges = [f"edge(n{i},n{i + 1})" for i in range(n - 1)]
    paths = [f"path(n{i},n{j})" for i in range(n) for j in range(i + 1, n)]
    g = gprog(". ".join(edges) + ". path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).")
    (ans,) = enumerate_equilibrium(g, "founded", (0, 0))
    assert sorted(str(at) for at in ans.atoms) == sorted(edges + paths)
    assert len(ans.atoms) == 819


# reduct-based checks -------------------------------------------------------------


def test_gl_reduct_golden():
    g = gprog("a :- not b. b :- not a. c :- a, b.")
    under_a = gl_reduct(g, {a})
    assert [str(r) for r in under_a.rules] == ["a.", "c :- a, b."]
    under_ab = gl_reduct(g, {a, b})
    assert [str(r) for r in under_ab.rules] == ["c :- a, b."]
    under_none = gl_reduct(g, set())
    assert [str(r) for r in under_none.rules] == ["a.", "b.", "c :- a, b."]


def test_gl_reduct_rejects_theory_programs():
    g = gprog("a :- &diff{x-y} <= 0.")
    with pytest.raises(ValueError, match="Boolean program"):
        gl_reduct(g, set())


def test_least_model_golden():
    g = gprog("p. q :- p. r :- q, s.")
    assert least_model(g) == frozenset({Atom("p"), Atom("q")})


def test_least_model_rejects_negation():
    g = gprog("a :- not b.")
    with pytest.raises(ValueError, match="negation-free"):
        least_model(g)


def test_reduct_fixpoint_matches_stability():
    g = gprog("a :- not b.")
    assert least_model(gl_reduct(g, {a})) == frozenset({a})
    # under {b} the rule is dropped, so the fixpoint is empty and {b} is not stable
    assert least_model(gl_reduct(g, {b})) == frozenset()


# differential: naive definition vs compiled enumeration ---------------------------

# Loop shapes that give the enumeration several negated atoms to guess over.
LOOPS = tuple(
    gprog(src).rules
    for src in (
        "a :- not b. b :- not a.",
        "a :- not a.",
        "a :- not b. b :- not c. c :- not a.",
        "a :- not b. b :- not a. c :- a, not d. d :- not c.",
        "a :- b. b :- a. a :- not c. c :- not e.",
    )
)


def _candidates(want, atoms, variables, mode, bounds, rng):
    """Each answer, each answer with one atom toggled or one value dropped,
    and four random (atoms, valuation) pairs within bounds."""
    out = list(want)
    for ans in want:
        out.extend(AnswerSet(ans.atoms ^ {atom}, ans.val) for atom in atoms)
        if mode == "founded":
            pairs = ans.val.entries
            out.extend(AnswerSet(ans.atoms, Valuation(pairs[:i] + pairs[i + 1:]))
                       for i in range(len(pairs)))
    for _ in range(4):
        vals = {v: rng.randint(*bounds) for v in variables
                if mode == "casp" or rng.random() < 0.7}
        chosen = frozenset(a for a in atoms if rng.random() < 0.5)
        out.append(AnswerSet(chosen, Valuation.of(vals)))
    return out


def _check_against_naive(g, mode, bounds, rng, naive=naive_equilibrium) -> list:
    """enumerate_equilibrium equals the definitional oracle, in order, and
    is_equilibrium agrees with membership in it; returns the answers."""
    want = naive(g, mode, bounds)
    assert enumerate_equilibrium(g, mode, bounds) == want, f"{mode} {bounds} differs on:\n{g}"
    atoms, _, variables = atoms_of(g)
    for cand in _candidates(want, atoms, variables, mode, bounds, rng):
        assert is_equilibrium(cand, g, mode, bounds) == (cand in want), (
            f"{mode} {bounds} is_equilibrium({cand}) wrong on:\n{g}"
        )
    return want


def test_boolean_enumeration_matches_naive_oracle():
    rng = random.Random(7001)
    programs = [random_boolean_program(rng, n_atoms=3, max_rules=4) for _ in range(80)]
    programs += [random_boolean_program(rng, n_atoms=5, max_rules=7) for _ in range(300)]
    programs += [
        GroundProgram(loop + random_boolean_program(rng, n_atoms=5, max_rules=4).rules, ())
        for loop in LOOPS
        for _ in range(60)
    ]
    programs += [
        GroundProgram((REPEATED_BODY, *random_boolean_program(rng, n_atoms=5, max_rules=4).rules), ())
        for _ in range(60)
    ]
    check_rng = random.Random(7101)
    several = wide = 0
    shapes = Counter()
    for g in programs:
        for mode in ("casp", "founded"):
            several += len(_check_against_naive(g, mode, (0, 0), check_rng)) > 1
        wide += len({lit.atom for r in g.rules for lit in r.body if not lit.positive}) >= 3
        shapes.update(rule_shapes(g))
    assert several >= 100 and wide >= 200, (several, wide)
    assert shapes["head in positive body"] >= 100 and shapes["repeated literal"] >= 50, shapes


def _with_loop(rng, g) -> GroundProgram:
    return GroundProgram(rng.choice(LOOPS) + g.rules, ())


def _with_loop_and_assignments(rng, g) -> GroundProgram:
    """g plus a loop shape and two &in rules guarded by loop atoms: y takes
    a constant range, x a range whose bounds mention y."""
    lo, hi = rng.choice(((y, IntConst(1)), (IntConst(-1), y), (y, y)))
    assign_y = Rule(AssignmentAtom(IntConst(-1), IntConst(0), y), (Literal(rng.random() < 0.7, a),))
    assign_x = Rule(AssignmentAtom(lo, hi, x), (Literal(rng.random() < 0.7, rng.choice((a, b))),))
    return _with_loop(rng, GroundProgram((assign_y, assign_x) + g.rules, ()))


def test_hybrid_casp_enumeration_matches_naive_oracle():
    rng = random.Random(7002)
    cases = [
        (random_hybrid_program(rng, n_atoms=3, n_vars=2, max_rules=4), (0, 2))
        for _ in range(40)
    ]
    for _ in range(200):
        g = random_hybrid_program(rng, n_atoms=5, n_vars=2, max_rules=6,
                                  assignments=rng.random() < 0.5)
        cases.append((_with_loop(rng, g) if rng.random() < 0.5 else g,
                      rng.choice(((-1, 1), (-2, 0)))))
    check_rng = random.Random(7102)
    several = negative = 0
    shapes = Counter()
    for g, bounds in cases:
        answers = _check_against_naive(g, "casp", bounds, check_rng)
        several += len(answers) > 1
        negative += any(v < 0 for ans in answers for _, v in ans.val.entries)
        shapes.update(rule_shapes(g))
    assert several >= 50 and negative >= 40, (several, negative)
    assert len(shapes) == 3 and min(shapes.values()) >= 20, shapes


# (program over 0..2, its number of founded answers): &in bounds that
# support each other support nothing, a &sum head feeds an &in bound that
# a body theory atom reads, and the grounder puts an integer in an &in
# target, which defines no variable, within or outside its bounds
FOUNDED_BY_HAND = (
    ("&in{y..3} =: x. &in{x..3} =: y.", 1),
    ("&in{y..3} =: x. &in{x..3} =: y. &in{0..1} =: y :- a. a :- not b. b :- not a.", 3),
    ("&sum{1*x} >= 1 :- a. &in{x..2} =: y. a :- not b. b :- not a. c :- &sum{1*y} >= 2.", 4),
    ("&in{0..2} =: X :- p(X). p(1).", 1),
    ("&in{0..2} =: X :- p(X). p(5).", 0),
    ("&in{y..2} =: X :- p(X). p(1). &in{0..1} =: y.", 2),
    # founded windows: x has no defining head, so it is only undefined
    ("a :- &sum{1*x} >= 1. b :- not a. &in{0..1} =: y.", 2),
    # an &sum head defines x: x keeps the whole window
    ("&sum{2*x} != 5 :- not c.", 3),
    # a variable bound: x keeps the whole window, y its own
    ("&in{y..2} =: x. &in{1..1} =: y.", 2),
    # the integer target 1 defines nothing, the target y gets 0..1
    ("&in{0..1} =: X :- p(X). p(1). p(y).", 2),
    # two disjoint ranges: 1 is in neither
    ("&in{0..0} =: x :- a. &in{2..2} =: x :- b. a :- not b. b :- not a.", 2),
    # ranges sticking out of the domain at both ends
    ("&in{-1..1} =: x. &in{2..5} =: y :- a. a :- not b. b :- not a.", 4),
)


def test_hybrid_founded_enumeration_matches_naive_oracle():
    rng = random.Random(7003)
    cases = [
        (random_hybrid_program(rng, n_atoms=2, n_vars=2, max_rules=3, assignments=True), (0, 2))
        for _ in range(30)
    ]
    for _ in range(300):
        g = random_hybrid_program(rng, n_atoms=4, n_vars=2, max_rules=5, assignments=True)
        cases.append((_with_loop_and_assignments(rng, g) if rng.random() < 0.7 else g,
                      rng.choice(((-1, 1), (-2, 0), (0, 1)))))
    check_rng = random.Random(7103)
    for src, count in FOUNDED_BY_HAND:
        assert len(_check_against_naive(gprog(src), "founded", (0, 2), check_rng)) == count, src
    several = partial = mixed = 0
    shapes = Counter()
    for g, bounds in cases:
        answers = _check_against_naive(g, "founded", bounds, check_rng)
        n_vars = len(atoms_of(g)[2])
        several += len(answers) > 1
        partial += any(len(ans.val) < n_vars for ans in answers)
        mixed += any(0 < len(ans.val) < n_vars for ans in answers)
        shapes.update(rule_shapes(g))
    assert several >= 40 and partial >= 80 and mixed >= 25, (several, partial, mixed)
    assert len(shapes) == 3 and min(shapes.values()) >= 20, shapes


# one fold and guess loop per truth vector ------------------------------------


def _naive_without_facts(g, mode, bounds) -> list:
    """naive_equilibrium(g, mode, bounds), computed on g less its Boolean facts.

    Every here world holds the facts, so g's answers are those of its other
    rules with the fact atoms deleted from their positive bodies, each with
    the facts added back.  The asserts check that this applies: no fact
    atom is negated or derived by another rule, and no variable is lost.
    """
    facts = frozenset(r.head for r in g.rules if not r.body and isinstance(r.head, Atom))
    rest = []
    for r in g.rules:
        if r.body or r.head not in facts:
            assert r.head not in facts and all(
                lit.positive for lit in r.body if lit.atom in facts
            ), r
            rest.append(Rule(r.head, tuple(lit for lit in r.body if lit.atom not in facts)))
    reduced = GroundProgram(tuple(rest), g.universe)
    variables = atoms_of(g)[2]
    assert atoms_of(reduced)[2] == variables
    lifted = [AnswerSet(ans.atoms | facts, ans.val)
              for ans in naive_equilibrium(reduced, mode, bounds)]
    return sorted(lifted, key=lambda ans: answer_sort_key(ans, variables))


def _gated_assignment_program(rng) -> tuple:
    """An even loop over a1/a2, one &in rule per variable guarded by a loop
    atom (lower bound 0 or another variable), and further atoms guarded by
    a loop atom and often a bound, maybe negated, on one variable; with its
    bounds."""
    atoms = [f"a{i}" for i in range(1, rng.randint(3, 5) + 1)]
    names = rng.sample(("x", "y", "z"), rng.randint(1, 3))
    dom = rng.randint(1, 2)
    rules = ["a1 :- not a2.", "a2 :- not a1."]
    for v in names:
        lo = rng.choice(["0"] + [w for w in names if w != v])
        rules.append(f"&in{{{lo}..{dom}}} =: {v} :- {rng.choice(atoms[:2])}.")
    for at in atoms[2:]:
        body = [rng.choice(atoms[:2])]
        if rng.random() < 0.7:
            sign = rng.choice(("", "", "not "))
            cmp = rng.choice((">=", "<="))
            body.append(f"{sign}&sum{{1*{rng.choice(names)}}} {cmp} {rng.randint(0, dom)}")
        rules.append(f"{at} :- {', '.join(body)}.")
    if rng.random() < 0.5:
        rules.append(f":- {rng.choice(atoms[2:])}, not {rng.choice(atoms)}.")
    return gprog(" ".join(rules)), (0, dom)


def test_truth_vector_memo_matches_naive_oracle():
    """Grid points with one truth vector (the truth of every theory atom)
    share one solve, yet founded minimality still tells them apart:
    configurations and gated &in programs, both modes, against the oracle."""
    rng = random.Random(7006)
    cases = []
    for slots, values, pinned in product((1, 2), (2, 3, 4), (False, True)):
        model = load_model(parse_program(
            "ptype(bike). root(bike). ptype(wheel). "
            f"subpart(bike,wheel,0,{slots}). attrdom(wheel,diam,10,{9 + values})."
        ))
        partial = EMPTY_INSTANCE
        if pinned:
            partial = load_instance(parse_program(
                "inst(b1,bike). inst(w1,wheel). parentOf(w1,b1). "
                f"val(w1,diam,{rng.randint(10, 9 + values)})."
            ))
        for mode in MODES:
            g = ground(translate(model, partial, mode))
            cases.append((g, mode, value_bounds(model), _naive_without_facts))
    for _ in range(60):
        g, bounds = _gated_assignment_program(rng)
        cases.extend((g, mode, bounds, naive_equilibrium) for mode in MODES)
    check_rng = random.Random(7106)
    shared = split = 0
    for g, mode, bounds, naive in cases:
        answers = _check_against_naive(g, mode, bounds, check_rng, naive)
        _, theory, variables = atoms_of(g)
        grid = list((total_valuations if mode == "casp" else partial_valuations)(variables, bounds))
        answered = {ans.val for ans in answers}
        by_tau: dict = {}
        for val in grid:
            tau = tuple(sat_elem(total((), val), "there", e) for e in theory)
            by_tau.setdefault(tau, set()).add(val in answered)
        shared += len(by_tau) < len(grid)
        split += any(len(outcomes) == 2 for outcomes in by_tau.values())
    # 122 of the 144 cases have fewer truth vectors than grid points, and 28
    # have two grid points with one truth vector where only one is answered
    assert shared >= 100 and split >= 10, (shared, split)


def test_founded_here_check_reads_negation_at_there():
    """y=0 and y=1 give c the same atoms and, with y dropped, the same
    truth vector; only y=0 blocks the first rule at there, so only y=0 is
    founded (y=1 supports itself through c)."""
    g = gprog("c :- not &sum{1*y} >= 1. c :- &sum{1*y} >= 1. &in{0..1} =: y :- c.")
    want = [AnswerSet(frozenset({c}), Valuation.of({y: 0}))]
    assert naive_equilibrium(g, "founded", (0, 1)) == want
    assert enumerate_equilibrium(g, "founded", (0, 1)) == want
    assert not is_equilibrium(AnswerSet(frozenset({c}), Valuation.of({y: 1})), g, "founded", (0, 1))


def test_founded_here_check_fires_a_rule_on_its_whole_body_only():
    """x supports itself through b: dropping x keeps a but not b, so the
    rule for x must not fire on a alone, and {a, b} with x valued is not
    founded."""
    g = gprog("a. b :- &sum{1*x} >= 0. &in{0..1} =: x :- a, b.")
    want = [AnswerSet(frozenset({a}))]
    assert enumerate_equilibrium(g, "founded", (0, 1)) == want
    assert naive_equilibrium(g, "founded", (0, 1)) == want
    assert not is_equilibrium(AnswerSet(frozenset({a, b}), Valuation.of({x: 0})), g, "founded", (0, 1))


def test_founded_mask_is_compared_at_each_grid_point_of_a_truth_vector():
    """y has no head, so &in{y..2} =: x holds at every grid point and all
    four values of x give one truth vector; the head defines x only once
    its bound y is defined, so each model is founded only where x is
    undefined."""
    g = gprog("&in{y..2} =: x :- a. a :- not b. b :- not a.")
    prog = numbered(g)
    assert prog.windows(0, 2) == [(None, 0, 1, 2), (None,)]
    assert len({prog.truth((v, None)) for v in (None, 0, 1, 2)}) == 1
    want = [AnswerSet(frozenset({a})), AnswerSet(frozenset({b}))]
    assert enumerate_equilibrium(g, "founded", (0, 2)) == want
    assert naive_equilibrium(g, "founded", (0, 2)) == want
    assert not is_equilibrium(AnswerSet(frozenset({a}), Valuation.of({x: 1})), g, "founded", (0, 2))


def test_founded_mixed_range_bike_on_the_oracle_equals_casp_search():
    """Wheels over 16..29 and a frame over 1000..1200, solved over the union
    16..1200: the founded windows keep each attribute to its own range."""
    m = load_model(parse_program(
        "ptype(bike). root(bike). ptype(wheel). subpart(bike,wheel,2,2). "
        "attrdom(wheel,diam,16,29). ptype(frame). subpart(bike,frame,1,1). "
        "attrdom(frame,weight,1000,1200)."
    ))
    bounds = value_bounds(m)
    founded = solve(ground(translate(m, EMPTY_INSTANCE, "founded")), "founded", bounds)
    casp = solve(ground(translate(m, EMPTY_INSTANCE, "casp")), "casp", bounds, "search")
    assert bounds == (16, 1200) and len(casp) == 39396
    assert list(founded) == list(casp)


def test_cancelled_variable_must_still_be_defined_founded():
    """x's coefficients cancel in the &sum, which still needs x defined:
    with b false x stays undefined, so a is not derived."""
    g = gprog(
        "b :- not c. c :- not b. &in{0..1} =: x :- b. a :- &sum{1*x;-1*x} = 0."
    )
    want = [
        AnswerSet(frozenset({a, b}), Valuation.of({x: 0})),
        AnswerSet(frozenset({a, b}), Valuation.of({x: 1})),
        AnswerSet(frozenset({c})),
    ]
    assert enumerate_equilibrium(g, "founded", (0, 1)) == want
    assert naive_equilibrium(g, "founded", (0, 1)) == want
    assert not is_equilibrium(AnswerSet(frozenset({a, c})), g, "founded", (0, 1))


_TRUTH_BY_HAND = [
    # &in bounds that are negative constants, variables, or undefined
    "&in{-2..-1} =: x. &in{y..-1} =: x. &in{-1..y} =: z. &in{y..z} =: x.",
    # an integer &in target, next to a variable bound
    "&in{0..2} =: X :- p(X). &in{y..2} =: X :- q(X). p(1). q(-1). q(3).",
    # cancelling coefficients and strict comparators
    "a :- &sum{1*x;-1*x} >= 0. b :- &sum{2*x;-1*y;-2*x} < 0. c :- &sum{1*x;1*y} > 1. "
    "d :- &sum{3*x} != 3. e :- &sum{1*x;-1*y} = 0. f :- &sum{1*x} <= -1.",
    # a constant operand of a difference
    "a :- &diff{2-x} <= 0. b :- &diff{x-2} <= -1. c :- &diff{x-y} <= 0.",
]


def _truth_cases():
    for src in _TRUTH_BY_HAND:
        yield gprog(src)
    rng = random.Random(3636)
    for _ in range(80):
        yield random_hybrid_program(rng, assignments=True)


def test_truth_vector_equals_each_theory_atom_by_ht():
    """At every partial valuation over -2..2, the oracle's truth vector is
    each theory atom's truth by ht's rules."""
    for g in _truth_cases():
        prog = numbered(g)
        for vals in product((None, -2, -1, 0, 1, 2), repeat=len(prog.variables)):
            vd = {v: x for v, x in zip(prog.variables, vals) if x is not None}
            want = [_elem_true((), vd, e) for e in prog.theory]
            assert list(prog.truth(vals)) == want, f"{vals} on:\n{g}"


def test_numbering_is_kept_with_the_program_and_ignored_by_its_value():
    g = ground(parse_program("a :- &sum{1*x} >= 1. b :- not a."))
    twin = ground(parse_program("a :- &sum{1*x} >= 1. b :- not a."))
    text = (repr(g), hash(g))
    prog = numbered(g)
    assert numbered(g) is prog
    assert g == twin and (repr(g), hash(g)) == text == (repr(twin), hash(twin))
    copy = dataclasses.replace(g)
    assert copy == g and copy._numbered is None
    again = numbered(copy)
    assert again is not prog
    assert (again.head, again.pos, again.neg) == (prog.head, prog.pos, prog.neg)


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_a_search_that_raised_leaves_nothing_for_the_next(engine, monkeypatch):
    """An exception between storing a value and trailing it, at each
    assignment of a solve in turn; the next solve of the same program
    object still gives the reference answers."""
    g = ground(parse_program("a :- not b. b :- not a. c :- a, not d. d :- &sum{1*x} >= 2."))
    want = naive_equilibrium(g, "casp", (0, 3))
    set_value = _Compiled._set
    calls = []

    def counted(self, a, value):
        calls.append(a)
        set_value(self, a, value)

    monkeypatch.setattr(_Compiled, "_set", counted)
    assert solve(g, "casp", (0, 3), engine) == want
    for k in range(len(calls)):
        done = []

        def failing(self, a, value):
            if len(done) == k:
                self.val[a] = value
                raise RuntimeError("interrupted")
            done.append(a)
            set_value(self, a, value)

        monkeypatch.setattr(_Compiled, "_set", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            solve(g, "casp", (0, 3), engine)
        monkeypatch.setattr(_Compiled, "_set", set_value)
        assert solve(g, "casp", (0, 3), engine) == want, k


def test_search_solve_compiles_each_constraint_atom_once(monkeypatch):
    """Both engines read one theory table, built with the numbered program:
    a search solve that certifies 5 cubes, each through theory_certify (the
    name the benchmark's tracer counts), compiles each of its 3 constraint
    atoms into a row once, and the oracle compiles none again."""
    g = ground(parse_program("a :- &sum{1*x} != 3, &sum{1*x} != 4. a :- &sum{1*x} = 3."))
    compiled, walks = [], []
    row, certify = htsolve.semantics._row, htsolve.search.theory_certify

    def counted_row(atom, position):
        compiled.append(str(atom))
        return row(atom, position)

    def counted_certify(signs, bounds):
        walks.append(signs)
        return certify(signs, bounds)

    monkeypatch.setattr(htsolve.semantics, "_row", counted_row)
    monkeypatch.setattr(htsolve.search, "theory_certify", counted_certify)
    answers = solve(g, "casp", (0, 7), engine="search")
    assert len(walks) == 5
    assert sorted(compiled) == ["&sum{1*x} != 3", "&sum{1*x} != 4", "&sum{1*x} = 3"]
    assert solve(g, "casp", (0, 7)) == answers and len(compiled) == 3


def test_modes_agree_on_boolean_programs():
    rng = random.Random(7004)
    for _ in range(60):
        g = random_boolean_program(rng, n_atoms=3, max_rules=5)
        casp = enumerate_equilibrium(g, "casp", (0, 0))
        founded = enumerate_equilibrium(g, "founded", (0, 0))
        assert casp == founded, f"modes differ on:\n{g}"


def test_random_valuation_pairs_are_coherent():
    rng = random.Random(7005)
    for _ in range(200):
        vh, vt = random_valuation_pair(rng, (x, y))
        assert vh.subset_of(vt)


# positive loops: the atoms the unfounded-set check watches ----------------------


def _cyclic(g) -> set:
    """numbered(g).cyclic as the atoms and theory atoms it numbers."""
    c = numbered(g)
    return {c.theory[a] if a < c.t else c.atoms[a - c.t] for a in c.cyclic}


def test_cyclic_atoms_match_plain_reachability():
    """The peel and the strongly connected components left after it find
    the atoms on positive cycles that plain reachability finds."""
    cases = {
        # a 2-cycle with acyclic atoms below it (low, base) and above it (top, up)
        "base. low :- base. x :- y, low. y :- x, not base. top :- x. up :- top, low.": "x y",
        # two cycles joined by an acyclic path m, n
        "x :- y. y :- x, m. m :- n. n :- u. u :- v. v :- u, not x.": "u v x y",
        # a rule with its head in its positive body adds no edge
        "g :- g, h. h :- g. k :- h.": "",
    }
    for src, want in cases.items():
        g = ground(parse_program(src))
        assert {str(a) for a in _cyclic(g)} == set(want.split()) == {str(a) for a in cyclic_atoms(g)}, src
    # 2 to 14 rules, as the grounder differential's --rules 14 draws: at
    # most 7, hardly one draw in a hundred holds a positive cycle
    rng = random.Random(20261020)
    nonempty = drawn = 0
    while drawn < 300:
        p = parse_program("\n".join(rng.choice(_POOL) for _ in range(rng.randint(2, 14))))
        if check_safety(p):
            continue
        drawn += 1
        g = ground(p)
        want = cyclic_atoms(g)
        assert _cyclic(g) == want, f"program:\n{p}"
        nonempty += bool(want)
    assert nonempty >= 25, nonempty


def test_acyclic_chain_runs_no_strongly_connected(monkeypatch):
    """Transitive closure on a chain of 80 has no positive cycle: the peel
    takes every atom, and no component is split."""
    edges = "".join(f"edge(n{i},n{i + 1}). " for i in range(79))
    g = ground(parse_program(edges + "path(X,Y) :- edge(X,Y). path(X,Z) :- edge(X,Y), path(Y,Z)."))
    assert cyclic_atoms(g) == set()

    def refused(succ):
        raise AssertionError("strongly_connected ran on an acyclic program")

    monkeypatch.setattr("htsolve.semantics.strongly_connected", refused)
    assert numbered(g).cyclic == []


_ON_READ = """\
d(a). d(b).
w(f(X)) :- d(X), not e(X).
e(b) :- &sum{1*x} >= 1.
q :- w(f(a)), &diff{x-y} <= 0.
:- q, e(b).
"""


@pytest.mark.parametrize("first", ["answers", "rules"])
def test_atoms_built_on_read_are_one_object_per_atom(first):
    """The grounder keeps atoms as keys and texts; whichever reader comes
    first, the rules, the numbered atoms and both engines' answers share
    one Atom per atom, equal to the parser's."""
    g = ground(parse_program(_ON_READ))
    if first == "rules":
        text = str(g)
    answers = {engine: list(solve(g, "casp", (0, 1), engine)) for engine in ("oracle", "search")}
    if first == "answers":
        text = str(g)
    assert text == "\n".join([
        ":- q, e(b).", "d(a).", "d(b).", "e(b) :- &sum{1*x} >= 1.",
        "q :- w(f(a)), &diff{x-y} <= 0.",
        "w(f(a)) :- d(a), not e(a).", "w(f(b)) :- d(b), not e(b).",
    ])
    atoms = numbered(g).atoms
    assert [str(a) for a in atoms] == ["d(a)", "d(b)", "e(a)", "e(b)", "q", "w(f(a))", "w(f(b))"]
    in_rules = [e for r in g.rules for e in (r.head, *[lit.atom for lit in r.body])
                if isinstance(e, Atom)]
    assert {id(e) for e in in_rules} == {id(a) for a in atoms}
    assert answers["oracle"] == answers["search"] and len(answers["oracle"]) == 3
    one = {a: a for a in atoms}
    for ans in answers["oracle"] + answers["search"]:
        assert all(a is one[a] for a in ans.atoms)
        assert is_equilibrium(ans, g, "casp", (0, 1))
    for a in atoms:
        parsed = parse_program(f"{a}.").rules[0].head
        assert a == parsed and hash(a) == hash(parsed) and str(a) == str(parsed)


def test_answers_pickle_with_their_program():
    # Answers hold the numbered program; its theory table and a founded
    # solve's links pickle with it
    g = ground(parse_program(_ON_READ))
    for engine, mode in (("oracle", "founded"), ("oracle", "casp"), ("search", "casp")):
        answers = solve(g, mode, (0, 1), engine)
        copy = pickle.loads(pickle.dumps(answers))
        assert copy == answers
        assert [(a, list(v)) for a, v in copy.groups] == [(a, list(v)) for a, v in answers.groups]
        assert copy.prog.theory_table == answers.prog.theory_table is not None
        if mode == "founded":
            assert answers.prog.links is not None and copy.prog.links == answers.prog.links
    again = pickle.loads(pickle.dumps(g))
    assert str(again) == str(g) and solve(again, "casp", (0, 1)) == answers

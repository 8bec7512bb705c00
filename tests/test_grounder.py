"""Grounder tests: universe construction, safety, instantiation, simplification.

The cross-product reference ``naive_ground`` (tests/oracles.py) is tested
here too, and the join-based ``ground`` is compared against it.
"""

import random

import pytest

from htsolve import (
    AspVar,
    Atom,
    GroundProgram,
    IntConst,
    Literal,
    Program,
    Rule,
    SymConst,
    enumerate_equilibrium,
    ground,
    parse_program,
    pretty_print,
    run,
)
from htsolve.cli import EXIT_OK, EXIT_SAT
from htsolve.configkit import EMPTY_INSTANCE, translate
from htsolve.core import rule_variables
from htsolve.grounder import check_safety, herbrand_universe
from oracles import _numbering, _one_object_each, instances, naive_ground
from randprog import _GROUND_POOL, _POOL, _draw_model


def prog(src: str) -> Program:
    out = parse_program(src)
    assert isinstance(out, Program), out
    return out


# universe ------------------------------------------------------------------


def test_universe_of_plain_program():
    assert herbrand_universe(prog("p(a). q(X) :- p(X).")) == (SymConst("a"),)


def test_universe_empty_program():
    assert herbrand_universe(prog("")) == ()


def test_universe_is_deduplicated_and_string_sorted():
    u = herbrand_universe(prog("p(b,a). q(10). q(2). r(a)."))
    assert u == (IntConst(10), IntConst(2), SymConst("a"), SymConst("b"))


def test_universe_includes_function_terms_and_their_arguments():
    u = herbrand_universe(prog("p(f(a))."))
    assert [str(t) for t in u] == ["a", "f(a)"]


def test_universe_collects_constraint_atom_terms():
    u = herbrand_universe(prog("&in{0..4} =: w. &diff{x-y} <= 2."))
    assert [str(t) for t in u] == ["0", "4", "w", "x", "y"]


# safety --------------------------------------------------------------------


def test_safe_rule_has_no_diagnostics():
    assert check_safety(prog("q(X) :- p(X).")) == []


def test_negated_body_does_not_bind():
    (d,) = check_safety(prog("q(X) :- not p(X)."))
    assert d.rule_index == 0
    assert d.message == "unsafe variables: X"


def test_theory_atoms_do_not_bind():
    (d,) = check_safety(prog("a :- &sum{1*v(X)} <= 3."))
    assert d.message == "unsafe variables: X"
    # ...but a positive plain atom alongside binds the variable
    assert check_safety(prog("&sum{1*v(X)} <= 3 :- p(X).")) == []


def test_head_only_variable_is_unsafe_and_names_sorted():
    (d,) = check_safety(prog("q(Y,X)."))
    assert d.message == "unsafe variables: X, Y"


def test_safety_indexes_each_offending_rule():
    out = check_safety(prog("p(a). q(X) :- not p(X). r(Z)."))
    assert [(d.rule_index, d.message) for d in out] == [
        (1, "unsafe variables: X"),
        (2, "unsafe variables: Z"),
    ]


# instantiation -------------------------------------------------------------


def test_instances_cross_product():
    r = prog("q(X) :- p(X).").rules[0]
    out = instances(r, (SymConst("a"), SymConst("b")))
    assert [str(i) for i in out] == ["q(a) :- p(a).", "q(b) :- p(b)."]


def test_instance_count_is_universe_size_to_the_variable_count():
    r = prog("s(X,Y,Z) :- p(X), p(Y), p(Z).").rules[0]
    for size in (1, 2, 3):
        universe = tuple(SymConst(f"c{i}") for i in range(size))
        assert len(instances(r, universe)) == size**3


def test_ground_rule_passes_through():
    r = prog("p(a).").rules[0]
    assert instances(r, ()) == [r]


# ground --------------------------------------------------------------------


def test_ground_plain_example():
    gp = ground(prog("p(a). p(b). q(X) :- p(X)."))
    assert [str(r) for r in gp.rules] == [
        "p(a).",
        "p(b).",
        "q(a) :- p(a).",
        "q(b) :- p(b).",
    ]
    assert gp.universe == (SymConst("a"), SymConst("b"))


def test_ground_names_the_unsafe_rule_by_its_source_index_after_a_fact():
    # a constant fact is not walked, but still counts in the rule numbering
    with pytest.raises(ValueError, match="unsafe program: rule 1: unsafe variables: X"):
        ground(prog("p(a). q(X) :- not p(X)."))


def test_ground_rejects_unsafe_program():
    with pytest.raises(ValueError, match="unsafe program: rule 0: unsafe variables: X"):
        ground(prog("q(X) :- not p(X)."))


def test_ground_empty_universe_yields_no_instances():
    gp = naive_ground(prog("q(X) :- p(X)."), simplify=False)
    assert gp.rules == () and gp.universe == ()


def test_ground_assignment_rule_over_facts():
    gp = ground(prog("part(a). cap(4). &in{0..C} =: w(X) :- part(X), cap(C)."))
    assert set(str(r) for r in gp.rules) == {
        "part(a).",
        "cap(4).",
        "&in{0..4} =: w(a) :- part(a), cap(4).",
    }


def test_simplification_drops_underivable_rules_to_fixpoint():
    src = "a. p :- q. q :- r."
    kept = ground(prog(src))
    assert [str(r) for r in kept.rules] == ["a."]
    raw = naive_ground(prog(src), simplify=False)
    assert len(raw.rules) == 3


def test_simplification_keeps_negated_and_theory_bodies():
    gp = ground(prog("a :- not q. b :- &diff{x-y} <= 0."))
    assert len(gp.rules) == 2


def test_ground_output_is_deduplicated():
    gp = naive_ground(prog("p(a). p(a). q(X) :- p(X)."), simplify=False)
    assert [str(r) for r in gp.rules] == ["p(a).", "q(a) :- p(a)."]


def test_ground_deduplicates_instances_of_different_rules():
    src = (
        "q(a). q(b). q(a).\n"
        "r(X) :- q(X). r(X) :- q(X). r(a) :- q(a).\n"
        "b :- &diff{x-y} <= 0, q(X). b :- &diff{x-y} <= 0, q(X).\n"
        ":- r(X), not q(X). :- r(b), not q(b)."
    )
    gp = ground(prog(src))
    assert [str(r) for r in gp.rules] == [
        ":- r(a), not q(a).",
        ":- r(b), not q(b).",
        "b :- &diff{x-y} <= 0, q(a).",
        "b :- &diff{x-y} <= 0, q(b).",
        "q(a).",
        "q(b).",
        "r(a) :- q(a).",
        "r(b) :- q(b).",
    ]
    assert gp == naive_ground(prog(src))


def test_ground_shares_one_object_per_ground_atom_and_literal():
    gp = ground(prog(
        "e(a,b). e(b,c). p(a). p(a). q :- p(a), not s(a).\n"
        "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).\n"
        "s(X) :- p(X), not t(X,X). :- t(X,X), p(X). w(f(X)) :- p(X). v :- w(f(a))."
    ))
    atoms: dict = {}
    literals: dict = {}
    for r in gp.rules:
        if isinstance(r.head, Atom):
            assert atoms.setdefault(r.head, r.head) is r.head, r
        for lit in r.body:
            assert atoms.setdefault(lit.atom, lit.atom) is lit.atom, r
            assert literals.setdefault(lit, lit) is lit, r
    assert str(atoms[Atom("p", (SymConst("a"),))]) == "p(a)"
    assert len(atoms) == 11 and len(literals) == 7


def test_ground_atom_text_is_the_atom_format():
    # the builder hands each Atom the text it formats; it must be Atom.__str__'s
    gp = ground(prog("r. p(a). p(-3). n(10). e(a,f(b,1)). q(X,Y) :- p(X), n(Y). s :- q(a,10), not r."))
    atoms = {lit.atom for r in gp.rules for lit in r.body} | {r.head for r in gp.rules if isinstance(r.head, Atom)}
    assert len(atoms) == 8
    for a in atoms:
        plain = Atom(a.predicate, a.args)
        assert str(a) == str(plain) and a == plain and hash(a) == hash(plain) and repr(a) == repr(plain)
        assert "_text" in vars(a) and "_text" not in vars(plain)


def test_ground_program_contains_no_variables():
    gp = naive_ground(prog("p(a). p(b). s(X,Y) :- p(X), p(Y), not q(X)."), simplify=False)
    assert all(not rule_variables(r) for r in gp.rules)


def test_ground_program_str_is_pretty_print():
    gp = ground(prog("p(a). q(X) :- p(X)."))
    assert str(gp) == pretty_print(gp)


# simplification preserves equilibrium models ---------------------------------

_RULE_MAKERS = [
    lambda: "p(a).",
    lambda: "p(b).",
    lambda: "q(b).",
    lambda: "r.",
    lambda: "q(X) :- p(X).",
    lambda: "s(X) :- p(X), not q(X).",
    lambda: "p(X) :- q(X), not s(X).",
    lambda: "r :- q(X).",
    lambda: ":- s(X), q(X).",
    lambda: "t :- r, not t2.",
    lambda: "t2 :- not t.",
]


def test_simplification_preserves_equilibrium_models():
    rng = random.Random(20240817)
    for _ in range(120):
        k = rng.randint(1, 5)
        src = "\n".join(rng.choice(_RULE_MAKERS)() for _ in range(k))
        p = prog(src)
        if check_safety(p):
            continue
        simplified = ground(p)
        raw = naive_ground(p, simplify=False)
        for mode in ("casp", "founded"):
            assert enumerate_equilibrium(simplified, mode, (0, 0)) == enumerate_equilibrium(
                raw, mode, (0, 0)
            ), f"mode={mode} program:\n{src}"


def test_ground_program_defaults():
    gp = GroundProgram()
    assert gp.rules == () and gp.universe == ()
    assert GroundProgram(rules=[Rule(Atom("a"))]).rules == (Rule(Atom("a")),)


# join-based ground == cross-product reference ----------------------------------


def _least_fixpoint_drops(g) -> bool:
    """Does g keep an instance whose positive body is not derivable bottom-up?"""
    derived: set = set()
    while True:
        new = {
            r.head
            for r in g.rules
            if isinstance(r.head, Atom)
            and all(lit.atom in derived for lit in r.body if lit.positive and isinstance(lit.atom, Atom))
        }
        if new == derived:
            break
        derived = new
    return any(
        lit.positive and isinstance(lit.atom, Atom) and lit.atom not in derived
        for r in g.rules
        for lit in r.body
    )


# Fixed inputs for join paths the random pool seldom takes: a variable-free
# atom joined after one with variables, without and with its fact, and a
# candidate doomed twice in the greatest fixpoint (by q(a) and by r(a)), and
# function-term patterns that fail to match: by symbol or arity, and by a
# repeated variable bound twice.
_FIXED = [
    "q(X) :- p(X), r. p(a).",
    "q(X) :- p(X), r. p(a). r.",
    "p(X) :- s(X), q(X), r(X). q(X) :- p(X), t(X). r(X) :- p(X), t(X). s(a).",
    "q(X) :- p(f(X)). p(g(a)). p(a). p(f(b)).",
    "q(X) :- p(f(X,X)). p(f(a,b)). p(f(c,c)).",
]


def _random_programs(rng: random.Random, count: int):
    """count safe programs with variables, drawn from _POOL, with their source."""
    programs = 0
    while programs < count:
        src = "\n".join(rng.choice(_POOL) for _ in range(rng.randint(2, 7)))
        p = prog(src)
        if check_safety(p) or not any(rule_variables(r) for r in p.rules):
            continue
        programs += 1
        yield src, p


def test_ground_matches_naive_reference():
    for src in _FIXED:
        assert ground(prog(src)).rules == naive_ground(prog(src)).rules, f"program:\n{src}"
    beyond_least_fixpoint = 0
    for src, p in _random_programs(random.Random(20261018), 1000):
        joined, naive = ground(p), naive_ground(p)
        assert joined.rules == naive.rules, f"program:\n{src}"
        assert joined.universe == naive.universe
        beyond_least_fixpoint += _least_fixpoint_drops(joined)
    assert beyond_least_fixpoint >= 50, beyond_least_fixpoint


def test_grounder_table_numbers_as_the_rules_do():
    """The grounder's table and the one a program built by hand from the
    reference's rules make the same numbered program, its theory atoms
    sorted by text."""
    for src, p in _random_programs(random.Random(20261018), 1000):
        naive = naive_ground(p)
        by_hand = GroundProgram(naive.rules, naive.universe)
        numbering = _numbering(ground(p))
        assert numbering == _numbering(by_hand), f"program:\n{src}"
        texts = [str(e) for e in numbering[1]]
        assert texts == sorted(texts), f"program:\n{src}"


def test_ground_matches_naive_reference_on_variable_free_programs():
    rng = random.Random(20261019)
    dropped = 0
    for _ in range(400):
        src = "\n".join(rng.choice(_GROUND_POOL) for _ in range(rng.randint(2, 8)))
        p = prog(src)
        joined, naive = ground(p), naive_ground(p)
        assert joined.rules == naive.rules, f"program:\n{src}"
        assert joined.universe == naive.universe
        assert str(joined) == str(naive), f"program:\n{src}"
        assert _one_object_each(joined), f"program:\n{src}"
        dropped += len(joined.rules) < len(set(p.rules))
    assert dropped >= 100, dropped


def _same_as_the_reference(p) -> bool:
    """ground(p) equals naive_ground(p): rules in order, universe, numbered
    program, and one object per atom and per literal."""
    joined, naive = ground(p), naive_ground(p)
    return (
        joined.rules == naive.rules
        and joined.universe == naive.universe
        and _numbering(joined) == _numbering(GroundProgram(naive.rules, naive.universe))
        and _one_object_each(joined)
    )


# Variable-free rules feeding rules with variables, and the reverse, also
# through a loop that only the greatest fixpoint keeps
_MIXED = [
    "q(a) :- p(a). s(X) :- q(X). p(a).",
    "q(a) :- p(a). s(X) :- q(X), not r(X). r(b) :- q(a).",
    "q(X) :- p(X). s :- q(a), not r. p(a).",
    "q(X) :- p(X), m(X). p(a) :- q(a). m(a).",
    "t(X,Y) :- e(X,Y). e(a,b). u :- t(a,b), not t(b,a). :- u, t(X,X).",
    "w(f(X)) :- p(X). v :- w(f(a)). p(a). &sum{1*z(X)} <= 1 :- w(f(X)), v.",
]


def test_variable_free_rules_ground_as_the_reference_does():
    """Variable-free rules take the data path wherever they occur: in
    programs of them alone, in translated configurations, and next to rules
    with variables."""
    for src in _MIXED:
        assert _same_as_the_reference(prog(src)), f"program:\n{src}"
    rng = random.Random(20261021)
    for _ in range(300):
        src = "\n".join(rng.choice(_GROUND_POOL) for _ in range(rng.randint(1, 10)))
        assert _same_as_the_reference(prog(src)), f"program:\n{src}"
    for _ in range(200):
        src = "\n".join(rng.choice(_GROUND_POOL + _POOL) for _ in range(rng.randint(2, 8)))
        p = prog(src)
        if not check_safety(p):
            assert _same_as_the_reference(p), f"program:\n{src}"
    for _ in range(20):
        m = _draw_model(rng)
        for mode in ("casp", "founded"):
            assert _same_as_the_reference(translate(m, EMPTY_INSTANCE, mode)), m


# Constant facts are data: kept before any component, supporting their
# component's instances in the greatest fixpoint, one bodiless row each.
# Each case meets one side of that path; a fact over a function term takes
# the general one.
_FACT_CASES = [
    # facts were not support in a first draft of the path; this caught it
    "p(c) :- q(c). p(a). &in{0..1} =: z :- q(b). p(a). q(a) :- p(a). t(a,b) :- e(a,b).",
    # facts sharing a predicate with a recursive rule
    "e(a,b). e(X,Y) :- e(Y,X).",
    "e(a,b). e(b,c). e(X,Z) :- e(X,Y), e(Y,Z). f(X) :- e(X,X).",
    # duplicate facts
    "p(a). p(a). q(X) :- p(X). p(X) :- q(X), not s(X). p(a).",
    # a 0-ary fact, alone and supporting a loop
    "r. g :- h. h :- g, r. s :- r, not g.",
    # integer facts
    "m(0). m(1). m(0). n(X) :- m(X), n(X). n(X) :- m(X), not k. &sum{1*z(X)} <= 1 :- m(X).",
    # a function-term fact
    "p(f(a)). q(X) :- p(f(X)). p(X) :- q(X). w(f(X)) :- q(X).",
]


@pytest.mark.parametrize("src", _FACT_CASES)
def test_constant_facts_ground_as_the_reference_does(src):
    p = prog(src)
    joined, naive = ground(p), naive_ground(p)
    assert joined.rules == naive.rules
    assert joined.universe == naive.universe
    assert _numbering(joined) == _numbering(GroundProgram(naive.rules, naive.universe))


# scale ------------------------------------------------------------------------


def _closure_on_chain(n: int, recursive_rule: str) -> Program:
    edges = "".join(f"edge(n{i},n{i + 1}). " for i in range(n - 1))
    return prog(edges + "path(X,Y) :- edge(X,Y). " + recursive_rule)


def _closure_rule_count(n: int) -> int:
    """Edge facts, base rules and recursive rules kept on an n-node chain."""
    return 2 * (n - 1) + (n - 1) * (n - 2) // 2


def test_left_recursive_closure_on_200_chain():
    gp = ground(_closure_on_chain(200, "path(X,Z) :- path(X,Y), edge(Y,Z)."))
    assert len(gp.rules) == _closure_rule_count(200) == 20099


def test_right_recursive_closure_on_40_chain():
    gp = ground(_closure_on_chain(40, "path(X,Z) :- edge(X,Y), path(Y,Z)."))
    assert len(gp.rules) == _closure_rule_count(40) == 819


def _counting_rules(monkeypatch) -> list:
    """Make every Rule construction append its head to the returned list."""
    built: list = []
    init = Rule.__init__

    def counted(self, head, body=()):
        built.append(head)
        init(self, head, body)

    monkeypatch.setattr(Rule, "__init__", counted)
    return built


def test_solve_and_ground_summary_build_no_ground_rule(tmp_path, monkeypatch, capsys):
    """Rules are built from the grounder's table only when read: solving and
    counting the rules build none beyond the parser's."""
    text = pretty_print(_closure_on_chain(40, "path(X,Z) :- edge(X,Y), path(Y,Z)."))
    path = tmp_path / "closure.lp"
    path.write_text(text, encoding="utf-8")
    parsed = len(parse_program(text).rules)
    built = _counting_rules(monkeypatch)
    assert run(["solve", str(path), "--engine", "search"]) == EXIT_SAT
    assert len(built) == parsed
    assert run(["ground", str(path)]) == EXIT_OK
    assert len(built) == 2 * parsed
    assert capsys.readouterr().out.endswith(f"rules: {_closure_rule_count(40)}\nuniverse: 40\n")


def test_ground_text_on_a_closure_is_the_reference_rules(tmp_path, capsys):
    p = _closure_on_chain(20, "path(X,Z) :- edge(X,Y), path(Y,Z).")
    path = tmp_path / "closure.lp"
    path.write_text(pretty_print(p), encoding="utf-8")
    assert run(["ground", str(path), "--text"]) == EXIT_OK
    naive = naive_ground(p)
    assert capsys.readouterr().out == "".join(f"{r}\n" for r in naive.rules)
    g = ground(p)
    assert g.rules == naive.rules and _one_object_each(g)
    assert g.rule_count() == len(naive.rules) == _closure_rule_count(20)


def test_long_predicate_chain_grounds_without_recursion_error():
    src = "p0. " + " ".join(f"p{i + 1} :- p{i}." for i in range(2000))
    gp = ground(prog(src))
    assert len(gp.rules) == 2001
    assert str(gp.rules[0]) == "p0."

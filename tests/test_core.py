"""AST construction, printing, well-formedness checks, and collectors."""

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from htsolve import check_wellformed, parse_term
from htsolve.core import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    Diagnostic,
    DiffConstraintAtom,
    Falsity,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Program,
    Rule,
    SymConst,
    atoms_of,
    is_ground,
    pretty_print,
    rule_variables,
    variable_names,
    walk_terms,
)

X = SymConst("x")
Y = SymConst("y")
A = Atom("a")


def test_term_display_forms():
    assert str(IntConst(-3)) == "-3"
    assert str(SymConst("wheel")) == "wheel"
    assert str(AspVar("X")) == "X"
    assert str(FuncTerm("w", (SymConst("a"),))) == "w(a)"
    assert str(FuncTerm("f", (IntConst(1), AspVar("X")))) == "f(1,X)"


def test_sum_atom_display_is_the_documented_form():
    atom = LinearConstraintAtom(((2, X), (3, Y)), "<=", 7)
    assert str(atom) == "&sum{2*x;3*y} <= 7"
    assert str(Rule(atom, ())) == "&sum{2*x;3*y} <= 7."


def test_diff_atom_display_is_the_documented_form():
    atom = DiffConstraintAtom(X, Y, 5)
    assert str(atom) == "&diff{x-y} <= 5"


def test_assignment_atom_display_is_the_documented_form():
    atom = AssignmentAtom(Y, Y, X)
    assert str(atom) == "&in{y..y} =: x"


def test_rule_display_forms():
    b = Atom("b")
    assert str(Rule(A, (Literal(True, b),))) == "a :- b."
    assert str(Rule(A, (Literal(False, b),))) == "a :- not b."
    assert str(Rule(FALSITY, (Literal(True, b),))) == ":- b."
    assert str(Rule(A, ())) == "a."


def test_atom_args_are_coerced_to_tuples():
    atom = Atom("p", [IntConst(1)])
    assert atom.args == (IntConst(1),)
    f = FuncTerm("f", [X])
    assert f.args == (X,)


def test_falsity_is_a_singleton_marker():
    assert isinstance(FALSITY, Falsity)
    assert str(FALSITY) == "#false"


def test_pretty_print_has_no_trailing_newline():
    p = Program((Rule(A, ()), Rule(Atom("b"), ())))
    assert pretty_print(p) == "a.\nb."


def test_walk_terms_reaches_nested_positions():
    r = Rule(
        LinearConstraintAtom(((1, FuncTerm("w", (AspVar("X"),))),), "=", 0),
        (Literal(True, Atom("p", (AspVar("X"),))),),
    )
    names = {str(t) for t in walk_terms(r)}
    assert "w(X)" in names and "X" in names


def test_rule_variables_and_groundness():
    r = Rule(A, (Literal(True, Atom("p", (AspVar("X"),))),))
    assert {v.name for v in rule_variables(r)} == {"X"}
    assert not is_ground(r)
    assert is_ground(Rule(A, ()))


def test_variable_names_skips_integer_constants():
    atom = LinearConstraintAtom(((2, X), (1, IntConst(4))), "<=", 9)
    assert list(variable_names(atom)) == [X]
    diff = DiffConstraintAtom(IntConst(0), Y, 2)
    assert list(variable_names(diff)) == [Y]
    assignment = AssignmentAtom(IntConst(1), IntConst(2), X)
    assert list(variable_names(assignment)) == [X]


def test_atoms_of_partitions_atoms_theory_and_variables():
    sum_atom = LinearConstraintAtom(((1, X),), "<=", 3)
    g = Program((Rule(sum_atom, (Literal(True, A),)),))
    atoms, theory, variables = atoms_of(g)
    assert atoms == (A,)
    assert theory == (sum_atom,)
    assert variables == (X,)


def test_wellformed_accepts_the_documented_shapes():
    rules = (
        Rule(LinearConstraintAtom(((2, X), (3, Y)), "<=", 7), ()),
        Rule(DiffConstraintAtom(X, X, -1), ()),
        Rule(AssignmentAtom(Y, Y, X), ()),
        Rule(FALSITY, (Literal(True, A),)),
    )
    assert check_wellformed(Program(rules)) == []


def test_wellformed_rejects_assignment_in_body():
    r = Rule(FALSITY, (Literal(True, AssignmentAtom(IntConst(1), IntConst(2), X)),))
    diags = check_wellformed(Program((r,)))
    assert len(diags) == 1
    assert diags[0].rule_index == 0
    assert diags[0].message == "assignment atom in rule body"


def test_wellformed_rejects_empty_bodied_constraint():
    diags = check_wellformed(Program((Rule(FALSITY, ()),)))
    assert [d.message for d in diags] == ["expected a literal, found '.'"]


def test_wellformed_rejects_empty_sum():
    diags = check_wellformed(Program((Rule(LinearConstraintAtom((), "<=", 0), ()),)))
    assert [d.message for d in diags] == ["expected a term, found '}'"]


def test_wellformed_rejects_constant_assignment_target():
    r = Rule(AssignmentAtom(IntConst(1), IntConst(2), IntConst(3)), ())
    diags = check_wellformed(Program((r,)))
    assert any("target" in d.message for d in diags)


def test_wellformed_rejects_nested_function_terms():
    nested = FuncTerm("f", (FuncTerm("g", (X,)),))
    diags = check_wellformed(Program((Rule(Atom("p", (nested,)), ()),)))
    assert any("nested function term" in d.message for d in diags)


def test_wellformed_rejects_bad_names():
    diags = check_wellformed(Program((Rule(Atom("Pred"), ()),)))
    assert [d.message for d in diags] == ["expected a rule head, found 'Pred'"]
    diags = check_wellformed(Program((Rule(Atom("p", (SymConst("Big"),)), ()),)))
    assert [d.message for d in diags] == [
        "reads back as Rule(head=Atom(predicate='p', args=(AspVar(name='Big'),)), body=())"
    ]


def test_wellformed_rejects_falsity_in_body():
    diags = check_wellformed(Program((Rule(A, (Literal(True, FALSITY),)),)))
    assert [d.message for d in diags] == ["unexpected character '#'"]


def test_wellformed_indexes_diagnostics_by_rule():
    p = Program(
        (
            Rule(A, ()),
            Rule(LinearConstraintAtom((), "<=", 0), ()),
        )
    )
    diags = check_wellformed(p)
    assert [d.rule_index for d in diags] == [1]


@pytest.mark.parametrize(
    "rule, message",
    [
        (Rule(Atom("p", (SymConst("not"),)), ()), "expected a term, found 'not'"),
        (Rule(Atom("not"), ()), "expected a rule head, found 'not'"),
        (Rule(LinearConstraintAtom(((True, X),), "<=", 1), ()), "expected '}', found '*'"),
        (Rule(Atom("p", (IntConst(True),)), ()),
         "reads back as Rule(head=Atom(predicate='p', args=(AspVar(name='True'),)), body=())"),
        (Rule(Atom("p", (AspVar("x"),)), ()),
         "reads back as Rule(head=Atom(predicate='p', args=(SymConst(name='x'),)), body=())"),
        (Rule(LinearConstraintAtom(((1, SymConst("Big")),), "<=", 1), ()),
         "reads back as Rule(head=LinearConstraintAtom(terms=((1, AspVar(name='Big')),), "
         "cmp='<=', rhs=1), body=())"),
    ],
    ids=["p(not)", "not", "true-coefficient", "true-constant", "lower-case-variable",
         "upper-case-constant"],
)
def test_wellformed_rejects_what_the_parser_cannot_read_back(rule, message):
    # each rule prints to text that fails to parse or parses to another rule
    assert check_wellformed(Program((Rule(A, ()), rule))) == [Diagnostic(1, message)]


def test_diff_with_equal_variables_is_wellformed():
    # unsatisfiable is a semantic matter, not a shape error
    assert check_wellformed(Program((Rule(DiffConstraintAtom(X, X, -1), ()),))) == []


def test_ast_nodes_are_hashable_and_comparable():
    assert Atom("a") == Atom("a")
    assert len({Atom("a"), Atom("a"), Atom("b")}) == 2
    assert DiffConstraintAtom(X, Y, 1) != DiffConstraintAtom(Y, X, 1)


def test_terms_hash_alike_from_the_parser_and_by_hand():
    # constants hash their one field; a function term keeps its hash
    by_hand = FuncTerm("f", [SymConst("a"), IntConst(2)])
    parsed = parse_term("f(a,2)")
    assert parsed == by_hand and hash(parsed) == hash(by_hand)
    assert {parsed: 1}[by_hand] == 1
    for text, term in (("a", SymConst("a")), ("2", IntConst(2)), ("-3", IntConst(-3))):
        assert parse_term(text) == term and hash(parse_term(text)) == hash(term)
    assert SymConst("a") != AspVar("a") and len({SymConst("a"), AspVar("a")}) == 2
    assert SymConst("1") != IntConst(1)
    assert hash(pickle.loads(pickle.dumps(by_hand))) == hash(by_hand)
    assert hash(replace(by_hand, name="h")) == hash(FuncTerm("h", by_hand.args))


def test_direct_constructors_build_what_the_dataclass_builds():
    # one hand-written __init__ per node; an atom given its text is the atom
    # without it in ==, hash, repr, str, fields(), pickling and frozenness
    args = (SymConst("a"), IntConst(2))
    kept, plain = Atom("p", args, "p(a,2)"), Atom(predicate="p", args=list(args))
    assert kept == plain and hash(kept) == hash(plain)
    assert repr(kept) == repr(plain) == "Atom(predicate='p', args=(SymConst(name='a'), IntConst(value=2)))"
    assert str(kept) == str(plain) == "p(a,2)"
    assert [getattr(kept, f.name) for f in fields(kept)] == [getattr(plain, f.name) for f in fields(plain)] == ["p", args]
    r = Atom("r")
    rule = Rule(A, [Literal(True, r)])
    assert rule.body == (Literal(True, r),)  # a list body becomes a tuple
    assert type(FuncTerm("f", [IntConst(1)]).args) is tuple
    for node in (kept, Literal(False, plain), rule, FuncTerm("f", args)):
        assert pickle.loads(pickle.dumps(node)) == node
        assert "__post_init__" not in vars(type(node))
        with pytest.raises(FrozenInstanceError):
            setattr(node, fields(node)[0].name, None)
    # replace builds through __init__: the new atom's own text and hash
    moved = replace(kept, args=(SymConst("b"),))
    assert str(moved) == "p(b)" and moved == Atom("p", (SymConst("b"),))
    assert hash(moved) == hash(Atom("p", (SymConst("b"),)))
    assert replace(Rule(A), body=[Literal(True, r)]) == rule


def test_comparator_validation():
    diags = check_wellformed(
        Program((Rule(LinearConstraintAtom(((1, X),), "~", 0), ()),))
    )
    assert [d.message for d in diags] == ["unexpected character '~'"]

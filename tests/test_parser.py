"""Parser tests: golden ASTs, byte-identical round trips, positioned errors."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htsolve import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    ParseDiagnostic,
    Program,
    Rule,
    SymConst,
    check_wellformed,
    parse_program,
    parse_term,
    pretty_print,
)
from htsolve.parser import _lex
from oracles import scanner_differences
from randprog import random_source

x, y = SymConst("x"), SymConst("y")


def parsed(src: str) -> Program:
    out = parse_program(src)
    assert isinstance(out, Program), f"expected a program, got {out}"
    return out


def diags(src: str) -> list:
    out = parse_program(src)
    assert isinstance(out, list) and out, f"expected diagnostics, got {out}"
    return out


# golden ASTs ---------------------------------------------------------------


def test_sum_fact_golden():
    assert parsed("&sum{2*x;3*y} <= 7.") == Program(
        (Rule(LinearConstraintAtom(((2, x), (3, y)), "<=", 7)),)
    )


def test_diff_rule_golden():
    assert parsed("&diff{x-y} <= 5 :- a.") == Program(
        (Rule(DiffConstraintAtom(x, y, 5), (Literal(True, Atom("a")),)),)
    )


def test_assignment_fact_golden():
    assert parsed("&in{y..y} =: x.") == Program((Rule(AssignmentAtom(y, y, x)),))


def test_plain_rules_and_constraint():
    p = parsed("a :- not b.\n:- a, b.")
    assert p.rules[0] == Rule(Atom("a"), (Literal(False, Atom("b")),))
    assert p.rules[1] == Rule(FALSITY, (Literal(True, Atom("a")), Literal(True, Atom("b"))))


def test_function_terms_and_variables():
    p = parsed("q(X) :- p(f(X,a),-2).")
    body_atom = p.rules[0].body[0].atom
    assert p.rules[0].head == Atom("q", (AspVar("X"),))
    assert body_atom == Atom("p", (FuncTerm("f", (AspVar("X"), SymConst("a"))), IntConst(-2)))


def test_one_term_object_per_name_in_a_parse():
    p = parsed("p(a,X) :- q(f(a,X)), &sum{2*a} >= 1. &diff{a-X} <= 0 :- r(X).")
    first, second = p.rules
    a, var = first.head.args
    fa, fx = first.body[0].atom.args[0].args
    assert fa is a and fx is var and first.body[1].atom.terms[0][1] is a
    assert second.head.lhs_var is a and second.head.rhs_var is var and second.body[0].atom.args[0] is var
    assert a == SymConst("a") and var == AspVar("X")


def test_empty_program_and_comments():
    assert parsed("") == Program(())
    assert parsed("% nothing here\n   \n% more\n") == Program(())
    p = parsed("p(a). % trailing note\nq(b).")
    assert [str(r) for r in p.rules] == ["p(a).", "q(b)."]


def test_coefficient_forms():
    one = parsed("&sum{x} <= 1.").rules[0].head
    assert one.terms == ((1, x),)
    neg = parsed("&sum{-2*x} <= 1.").rules[0].head
    assert neg.terms == ((-2, x),)
    paren = parsed("&sum{(-2)*x} <= 1.").rules[0].head
    assert paren.terms == ((-2, x),)
    # canonical print re-renders the parenthesised form without parentheses
    assert str(paren) == "&sum{-2*x} <= 1"
    mixed = parsed("&sum{2*4;1*X} = 8.").rules[0].head
    assert mixed.terms == ((2, IntConst(4)), (1, AspVar("X")))


def test_all_sum_comparators():
    for cmp in ("<=", ">=", "<", ">", "=", "!="):
        src = f"&sum{{1*x}} {cmp} -3."
        head = parsed(src).rules[0].head
        assert head.cmp == cmp and head.rhs == -3
        assert pretty_print(parsed(src)) == src


def test_diff_negative_bound_and_equal_terms():
    head = parsed("&diff{x-x} <= -1.").rules[0].head
    assert head == DiffConstraintAtom(x, x, -1)


def test_assignment_with_variables_and_function_target():
    head = parsed("&in{0..C} =: w(X).").rules[0].head
    assert head == AssignmentAtom(IntConst(0), AspVar("C"), FuncTerm("w", (AspVar("X"),)))


# round trips ---------------------------------------------------------------

CANONICAL = "\n".join(
    [
        "&sum{2*x;3*y} <= 7.",
        "&diff{x-y} <= 5.",
        "&in{y..y} =: x.",
        "a :- not b.",
        ":- a, b.",
        "p(f(a,b),c).",
        "&sum{1*x} = 0 :- a, not c.",
        "&sum{-2*x;1*y} != -3.",
        "&diff{w1-w2} <= -1 :- p(a).",
        "&in{-3..4} =: slack.",
        "q(X) :- p(X).",
    ]
)


def test_canonical_text_round_trips_byte_identically():
    program = parsed(CANONICAL)
    assert pretty_print(program) == CANONICAL
    assert parsed(pretty_print(program)) == program


# error positions (1-based line and column) ---------------------------------


def test_double_negation_rejected():
    (d,) = diags("a :- not not b.")
    assert (d.line, d.column) == (1, 10)
    assert d.message == "double negation is not supported"


def test_assignment_in_body_rejected():
    (d,) = diags("a :- &in{1..2} =: x.")
    assert (d.line, d.column) == (1, 6)
    assert d.message == "assignment atom in rule body"


def test_diff_requires_le():
    (d,) = diags("&diff{x-y} < 5.")
    assert (d.line, d.column) == (1, 12)
    assert d.message == "difference constraints support only '<='"


def test_assignment_target_must_not_be_constant():
    (d,) = diags("&in{1..2} =: 3.")
    assert (d.line, d.column) == (1, 14)
    assert d.message == "assignment target must be a variable name, not a constant"


def test_nested_function_term_rejected():
    (d,) = diags("p(f(g(a))).")
    assert (d.line, d.column) == (1, 5)
    assert d.message == "nested function term 'g(...)' is not supported"


def test_missing_dot():
    (d,) = diags("p(a)")
    assert (d.line, d.column) == (1, 5)
    assert d.message == "expected '.', found end of input"


def test_lexer_invalid_name():
    (d,) = diags("_x.")
    assert (d.line, d.column, d.message) == (1, 1, "invalid name '_x'")


def test_lexer_unknown_constraint_atom():
    (d,) = diags("&foo{x-y} <= 1.")
    assert (d.line, d.column, d.message) == (1, 1, "unknown constraint atom '&foo'")


def test_lexer_non_ascii_digits_and_numerals_are_names():
    (d,) = diags("a(\u00b2).")  # superscript two
    assert (d.line, d.column, d.message) == (1, 3, "invalid name '\u00b2'")
    (d,) = diags("p(\u0663).")  # Arabic-Indic three
    assert (d.line, d.column, d.message) == (1, 3, "invalid name '\u0663'")
    (d,) = diags("p(1\u0663).")
    assert (d.line, d.column, d.message) == (1, 4, "invalid name '\u0663'")
    (d,) = diags("p(\u00bd).")  # vulgar fraction one half
    assert (d.line, d.column, d.message) == (1, 3, "invalid name '\u00bd'")


# Each case: source, then its tokens as (kind, text, line, column) and the
# lexer's diagnostics.  Pins which scanner alternative wins where two could
# match, and the positions after blanks, newlines and comments.
_LEX_CASES = [
    (
        "nota not_b not1 not(b) Not",
        [("sym", "nota", 1, 1), ("sym", "not_b", 1, 6), ("sym", "not1", 1, 12),
         ("not", "not", 1, 17), ("lparen", "(", 1, 20), ("sym", "b", 1, 21),
         ("rparen", ")", 1, 22), ("var", "Not", 1, 24), ("eof", "", 1, 27)],
        [],
    ),
    (
        "p(1..3). q.",
        [("sym", "p", 1, 1), ("lparen", "(", 1, 2), ("int", "1", 1, 3), ("dots", "..", 1, 4),
         ("int", "3", 1, 6), ("rparen", ")", 1, 7), ("dot", ".", 1, 8), ("sym", "q", 1, 10),
         ("dot", ".", 1, 11), ("eof", "", 1, 12)],
        [],
    ),
    (
        "&in{X..2} =: x = 1 := 2",
        [("in", "&in", 1, 1), ("lbrace", "{", 1, 4), ("var", "X", 1, 5), ("dots", "..", 1, 6),
         ("int", "2", 1, 8), ("rbrace", "}", 1, 9), ("assign", "=:", 1, 11), ("sym", "x", 1, 14),
         ("cmp", "=", 1, 16), ("int", "1", 1, 18), ("cmp", "=", 1, 21), ("int", "2", 1, 23),
         ("eof", "", 1, 24)],
        ["1:20: unexpected character ':'"],
    ),
    (
        ":- a, b :-c",
        [("if", ":-", 1, 1), ("sym", "a", 1, 4), ("comma", ",", 1, 5), ("sym", "b", 1, 7),
         ("if", ":-", 1, 9), ("sym", "c", 1, 11), ("eof", "", 1, 12)],
        [],
    ),
    (
        "&sum{1*x} &summary &in1 &inx",
        [("sum", "&sum", 1, 1), ("lbrace", "{", 1, 5), ("int", "1", 1, 6), ("star", "*", 1, 7),
         ("sym", "x", 1, 8), ("rbrace", "}", 1, 9), ("in", "&in", 1, 20), ("int", "1", 1, 23),
         ("eof", "", 1, 29)],
        ["1:11: unknown constraint atom '&summary'", "1:25: unknown constraint atom '&inx'"],
    ),
    (
        "<= >= != < > =<",
        [("cmp", "<=", 1, 1), ("cmp", ">=", 1, 4), ("cmp", "!=", 1, 7), ("cmp", "<", 1, 10),
         ("cmp", ">", 1, 12), ("cmp", "=", 1, 14), ("cmp", "<", 1, 15), ("eof", "", 1, 16)],
        [],
    ),
    (
        "a % c\n  b. % x:-\nc%\n",
        [("sym", "a", 1, 1), ("sym", "b", 2, 3), ("dot", ".", 2, 4), ("sym", "c", 3, 1),
         ("eof", "", 4, 1)],
        [],
    ),
]


@pytest.mark.parametrize("src, tokens, errors", _LEX_CASES)
def test_lexer_token_kinds_and_positions(src, tokens, errors):
    got, diagnostics = _lex(src)
    assert [(t.kind, t.text, t.line, t.column) for t in got] == tokens
    assert [str(d) for d in diagnostics] == errors


def test_lexer_and_token_pass_match_the_reference_scanner():
    # _lex against the one-alternative-per-kind reference scanner of
    # tests/oracles.py, and the parse path's kinds and texts against its
    # tokens where it reports no diagnostic
    rng = random.Random(2424)
    for _ in range(3000):
        src = random_source(rng)
        assert scanner_differences(src) == [], repr(src)


# One case per place the parser rejects its input, each on line 2 after a
# comment: (parse function, source, 1-based line, column, message).
_HEAD = "p(a). % a comment\n  "
_PARSE_ERRORS = {
    "expected": (parse_program, _HEAD + "a :- b c.", 2, 10, "expected '.', found 'c'"),
    "end of input": (parse_program, _HEAD + "a :- b", 2, 9, "expected '.', found end of input"),
    "nested function": (parse_program, _HEAD + "p(f(g(a))).", 2, 7,
                        "nested function term 'g(...)' is not supported"),
    "long integer": (parse_program, _HEAD + f"a({'1' * 5000}).", 2, 5, "integer of 5000 digits is too long"),
    "diff comparator": (parse_program, _HEAD + "&diff{x-y} < 5.", 2, 14,
                        "difference constraints support only '<='"),
    "constant target": (parse_program, _HEAD + "&in{1..2} =: -3.", 2, 16,
                        "assignment target must be a variable name, not a constant"),
    "double negation": (parse_program, _HEAD + "a :- not not b.", 2, 12, "double negation is not supported"),
    "assignment in body": (parse_program, _HEAD + "a :- &in{1..2} =: x.", 2, 8, "assignment atom in rule body"),
    "trailing input": (parse_term, "% a comment\n  foo bar", 2, 7, "trailing input 'bar' after term"),
}


@pytest.mark.parametrize("parse, src, line, column, message", _PARSE_ERRORS.values(), ids=_PARSE_ERRORS)
def test_parse_errors_are_positioned_after_comments(parse, src, line, column, message):
    out = parse(src)
    (d,) = out if isinstance(out, list) else [out]
    assert (d.line, d.column, d.message) == (line, column, message)


def test_many_malformed_rules_are_placed_in_one_pass():
    bad = ["a :- b c.", "p(f(g(a))).", "&diff{x-y} < 5.", "a :- not not b."]
    src = "% header\n" + "\n".join(bad[i % 4] for i in range(2000))
    start = time.perf_counter()
    found = diags(src)
    assert time.perf_counter() - start < 1.0
    assert len(found) == 2000
    assert [(d.line, d.column) for d in found[:4]] == [(2, 8), (3, 5), (4, 12), (5, 10)]
    assert (found[-1].line, found[-1].message) == (2001, "double negation is not supported")


def test_integers_too_long_to_convert_are_positioned_errors():
    long = "1" * 5000  # int() refuses more than 4,300 digits
    (d,) = diags(f"a({long}).")
    assert (d.line, d.column, d.message) == (1, 3, "integer of 5000 digits is too long")
    found = diags(
        f"b(-{long}).\n"
        f"c :- &sum{{{long}*x;(-{long})*y}} <= 1.\n"
        f"d :- &diff{{x-y}} <= -{long}.\n"
        "e(7)."
    )
    assert [(d.line, d.column) for d in found] == [(1, 4), (2, 11), (3, 21)]
    assert parsed(f"a({'9' * 4300}).").rules[0].head.args == (IntConst(int("9" * 4300)),)


def test_eof_after_trailing_comment_is_past_the_last_character():
    (d,) = diags("a :- b % note")
    assert (d.line, d.column, d.message) == (1, 14, "expected '.', found end of input")
    (d,) = diags("a :- b % note\n")
    assert (d.line, d.column) == (2, 1)


def test_lexer_unexpected_character_with_line_tracking():
    (d,) = diags("p(a).\nq :- $x.")
    assert (d.line, d.column) == (2, 6)
    assert d.message == "unexpected character '$'"


def test_recovery_reports_one_diagnostic_per_bad_rule():
    out = diags("a :- not not b. p(a). c :- &in{1..1} =: x.")
    assert [(d.line, d.column) for d in out] == [(1, 10), (1, 28)]
    assert out[0].message == "double negation is not supported"
    assert out[1].message == "assignment atom in rule body"


def test_diagnostic_str_format():
    (d,) = diags("a :- not not b.")
    assert str(d) == "1:10: double negation is not supported"
    assert isinstance(d, ParseDiagnostic)


# parse_term ----------------------------------------------------------------


def test_parse_term_goldens():
    assert parse_term("42") == IntConst(42)
    assert parse_term("-3") == IntConst(-3)
    assert parse_term("width") == SymConst("width")
    assert parse_term("Part") == AspVar("Part")
    assert parse_term("f(a,B)") == FuncTerm("f", (SymConst("a"), AspVar("B")))


def test_parse_term_trailing_input():
    d = parse_term("foo bar")
    assert isinstance(d, ParseDiagnostic)
    assert (d.line, d.column) == (1, 5)
    assert d.message == "trailing input 'bar' after term"


def test_parse_term_empty_input():
    d = parse_term("")
    assert isinstance(d, ParseDiagnostic)
    assert (d.line, d.column, d.message) == (1, 1, "expected a term, found end of input")


def test_parse_term_lexer_error_passthrough():
    d = parse_term("_bad")
    assert isinstance(d, ParseDiagnostic)
    assert d.message == "invalid name '_bad'"


# parsing never raises ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("a(\u00b2).")
def test_parse_program_and_parse_term_never_raise(src):
    out = parse_program(src)
    assert isinstance(out, Program) or (
        isinstance(out, list) and out and all(isinstance(d, ParseDiagnostic) for d in out)
    )
    term = parse_term(src)
    assert isinstance(term, (IntConst, SymConst, AspVar, FuncTerm, ParseDiagnostic))


# randomized round-trip property ---------------------------------------------

_sym_names = st.sampled_from(["a", "b", "p", "q", "width", "w1"])
_var_names = st.sampled_from(["X", "Y", "Part"])
_ints = st.integers(min_value=-9, max_value=9)

_simple_terms = st.one_of(
    _ints.map(IntConst), _sym_names.map(SymConst), _var_names.map(AspVar)
)
_func_terms = st.builds(
    FuncTerm, _sym_names, st.lists(_simple_terms, min_size=1, max_size=2).map(tuple)
)
_terms = st.one_of(_simple_terms, _func_terms)

_plain_atoms = st.one_of(
    _sym_names.map(Atom),
    st.builds(Atom, _sym_names, st.lists(_terms, min_size=1, max_size=2).map(tuple)),
)
_sum_atoms = st.builds(
    LinearConstraintAtom,
    st.lists(st.tuples(st.integers(min_value=-3, max_value=3), _terms), min_size=1, max_size=3).map(tuple),
    st.sampled_from(["<=", ">=", "<", ">", "=", "!="]),
    _ints,
)
_diff_atoms = st.builds(DiffConstraintAtom, _terms, _terms, _ints)
_assign_targets = st.one_of(_sym_names.map(SymConst), _var_names.map(AspVar), _func_terms)
_assign_atoms = st.builds(AssignmentAtom, _terms, _terms, _assign_targets)

_literals = st.builds(Literal, st.booleans(), st.one_of(_plain_atoms, _sum_atoms, _diff_atoms))
_rules = st.one_of(
    st.builds(
        Rule,
        st.one_of(_plain_atoms, _sum_atoms, _diff_atoms, _assign_atoms),
        st.lists(_literals, max_size=3).map(tuple),
    ),
    st.builds(Rule, st.just(FALSITY), st.lists(_literals, min_size=1, max_size=3).map(tuple)),
)
_programs = st.builds(Program, st.lists(_rules, max_size=5).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_print_parse_round_trip(program):
    assert parse_program(pretty_print(program)) == program
    assert check_wellformed(program) == []

"""Recursive-descent parser for the rule language over a single regex scanner.

Grammar (terminals in quotes, % starts a comment running to end of line):

    program  := (rule ".")*
    rule     := head | head ":-" body | ":-" body
    head     := atom | sumatom | diffatom | inassign
    body     := literal ("," literal)*
    literal  := ["not"] (atom | sumatom | diffatom)
    atom     := SYM ["(" term ("," term)* ")"]
    sumatom  := "&sum" "{" linelem (";" linelem)* "}" CMP INT
    linelem  := [INT "*"] term
    diffatom := "&diff" "{" term "-" term "}" "<=" INT
    inassign := "&in" "{" arith ".." arith "}" "=:" term
    arith    := INT | term
    term     := INT | VAR | SYM ["(" simpleterm ("," simpleterm)* ")"]
    CMP      := "<=" | "=" | "!=" | "<" | ">" | ">="

SYM matches [a-z][A-Za-z0-9_]*, VAR matches [A-Z][A-Za-z0-9_]*, INT is an
optionally negated ASCII [0-9]+; any other word (a run of word characters
not starting with an ASCII digit) is an invalid name.  Function terms take
only simple arguments; nesting them is rejected.  parse_program never
raises on bad input: it returns the program or a list of positioned
diagnostics.  check_wellformed holds a hand-built program to this same
grammar, by parsing each rule's text back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    DiffConstraintAtom,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Program,
    Rule,
    SymConst,
)
from .core import Diagnostic as RuleDiagnostic


@dataclass(frozen=True)
class Diagnostic:
    """Parse failure at a 1-based line and column."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# One alternative per token kind, tried in order; the group name is the
# kind, and the unnamed alternatives (blanks, comments) are skipped.  A
# theory word is "&" and the letters after it.  The commonest tokens come
# first.  Where two alternatives can match at one place, the one that must
# win comes first: not before sym, sym and var before name, dots before
# dot, assign before cmp, the three theory words before theory.
_SCANNER = re.compile(
    r"""
    (?P<not>not(?!\w))
  | (?P<sym>[a-z][A-Za-z0-9_]*(?!\w))
  | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,)
  | (?P<dots>\.\.) | (?P<dot>\.)
  | (?P<newline>\n)
  | [ \t\r]+ | %[^\n]*
  | (?P<if>:-)
  | (?P<int>[0-9]+)
  | (?P<var>[A-Z][A-Za-z0-9_]*(?!\w))
  | (?P<name>[^\W0-9]\w*)
  | (?P<sum>&sum(?![^\W\d_]))
  | (?P<diff>&diff(?![^\W\d_]))
  | (?P<in>&in(?![^\W\d_]))
  | (?P<theory>&[^\W\d_]*)
  | (?P<assign>=:) | (?P<cmp>[<>!]=|[<>=])
  | (?P<semi>;) | (?P<lbrace>\{) | (?P<rbrace>\})
  | (?P<star>\*) | (?P<minus>-)
  | (?P<bad>.)
    """,
    re.X,
)

_LEX_ERRORS = {
    "name": "invalid name '{}'",
    "theory": "unknown constraint atom '{}'",
    "bad": "unexpected character {!r}",
}


def _lex(src: str):
    tokens: list = []
    diags: list = []
    line, line_start = 1, 0  # line_start: offset just past the last newline
    for m in _SCANNER.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if kind in _LEX_ERRORS:
            diags.append(Diagnostic(line, col, _LEX_ERRORS[kind].format(m.group())))
        else:
            tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("eof", "", line, len(src) - line_start + 1))
    return tokens, diags


# The coefficient spellings of a linear element as token kinds, each with
# the sign it puts on its one INT.
_COEFFICIENTS = (
    (("int", "star"), 1),
    (("minus", "int", "star"), -1),
    (("lparen", "int", "rparen", "star"), 1),
    (("lparen", "minus", "int", "rparen", "star"), -1),
)


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise _ParseError(Diagnostic(tok.line, tok.column, message))

    def fail_expected(self, tok: _Token, what: str):
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        self.fail(tok, f"expected {what}, found {found}")

    def integer(self, tok: _Token, sign: int = 1) -> int:
        """The value of INT token tok times sign.  int() refuses very long
        digit strings, so that becomes a diagnostic at tok."""
        try:
            return sign * int(tok.text)
        except ValueError:
            self.fail(tok, f"integer of {len(tok.text)} digits is too long")

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail_expected(tok, what)
        return self.next()

    # terms ---------------------------------------------------------------

    def term(self, depth: int = 0):
        tok = self.peek()
        if tok.kind in ("minus", "int"):
            return IntConst(self.signed_int())
        if tok.kind == "var":
            self.next()
            return AspVar(tok.text)
        if tok.kind == "sym":
            self.next()
            if self.peek().kind != "lparen":
                return SymConst(tok.text)
            if depth > 0:
                self.fail(tok, f"nested function term '{tok.text}(...)' is not supported")
            return FuncTerm(tok.text, self.arguments(depth + 1))
        self.fail_expected(tok, "a term")

    def arguments(self, depth: int) -> tuple:
        """'(' term (',' term)* ')', the terms at the given nesting depth."""
        self.expect("lparen", "'('")
        args = [self.term(depth)]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.term(depth))
        self.expect("rparen", "')'")
        return tuple(args)

    # constraint atoms ----------------------------------------------------

    def sum_atom(self):
        self.expect("sum", "'&sum'")
        self.expect("lbrace", "'{'")
        terms = [self.lin_elem()]
        while self.peek().kind == "semi":
            self.next()
            terms.append(self.lin_elem())
        self.expect("rbrace", "'}'")
        cmp_tok = self.expect("cmp", "a comparator")
        rhs = self.signed_int()
        return LinearConstraintAtom(tuple(terms), cmp_tok.text, rhs)

    def lin_elem(self):
        for kinds, sign in _COEFFICIENTS:
            window = self.tokens[self.pos : self.pos + len(kinds)]
            if tuple(tok.kind for tok in window) == kinds:
                self.pos += len(kinds)
                return (self.integer(window[kinds.index("int")], sign), self.term())
        return (1, self.term())

    def signed_int(self) -> int:
        tok = self.peek()
        if tok.kind == "minus":
            self.next()
            return self.integer(self.expect("int", "an integer"), -1)
        return self.integer(self.expect("int", "an integer"))

    def diff_atom(self):
        self.expect("diff", "'&diff'")
        self.expect("lbrace", "'{'")
        lhs = self.term()
        self.expect("minus", "'-'")
        rhs = self.term()
        self.expect("rbrace", "'}'")
        cmp_tok = self.peek()
        if cmp_tok.kind != "cmp" or cmp_tok.text != "<=":
            self.fail(cmp_tok, "difference constraints support only '<='")
        self.next()
        bound = self.signed_int()
        return DiffConstraintAtom(lhs, rhs, bound)

    def in_assignment(self):
        self.expect("in", "'&in'")
        self.expect("lbrace", "'{'")
        lo = self.term()
        self.expect("dots", "'..'")
        hi = self.term()
        self.expect("rbrace", "'}'")
        self.expect("assign", "'=:'")
        tgt_tok = self.peek()
        target = self.term()
        if isinstance(target, IntConst):
            self.fail(tgt_tok, "assignment target must be a variable name, not a constant")
        return AssignmentAtom(lo, hi, target)

    # atoms, literals, rules ----------------------------------------------

    def plain_atom(self):
        name = self.expect("sym", "a predicate name")
        if self.peek().kind != "lparen":
            return Atom(name.text)
        return Atom(name.text, self.arguments(0))

    def literal(self):
        positive = True
        if self.peek().kind == "not":
            self.next()
            positive = False
            if self.peek().kind == "not":
                self.fail(self.peek(), "double negation is not supported")
        tok = self.peek()
        if tok.kind == "sym":
            return Literal(positive, self.plain_atom())
        if tok.kind == "sum":
            return Literal(positive, self.sum_atom())
        if tok.kind == "diff":
            return Literal(positive, self.diff_atom())
        if tok.kind == "in":
            self.fail(tok, "assignment atom in rule body")
        self.fail_expected(tok, "a literal")

    def head(self):
        tok = self.peek()
        if tok.kind == "sym":
            return self.plain_atom()
        if tok.kind == "sum":
            return self.sum_atom()
        if tok.kind == "diff":
            return self.diff_atom()
        if tok.kind == "in":
            return self.in_assignment()
        self.fail_expected(tok, "a rule head")

    def body(self):
        lits = [self.literal()]
        while self.peek().kind == "comma":
            self.next()
            lits.append(self.literal())
        return tuple(lits)

    def rule(self):
        head = FALSITY if self.peek().kind == "if" else self.head()
        body = ()
        if self.peek().kind == "if":
            self.next()
            body = self.body()
        self.expect("dot", "'.'")
        return Rule(head, body)

    def skip_past_dot(self) -> None:
        while True:
            tok = self.next()
            if tok.kind in ("dot", "eof"):
                return


def parse_program(src: str):
    """Parse a whole program.  Returns a Program or a list of Diagnostics."""
    tokens, diags = _lex(src)
    if diags:
        return diags
    parser = _Parser(tokens)
    rules: list = []
    errors: list = []
    while parser.peek().kind != "eof":
        try:
            rules.append(parser.rule())
        except _ParseError as exc:
            errors.append(exc.diag)
            parser.skip_past_dot()
    if errors:
        return errors
    return Program(tuple(rules))


def parse_term(src: str):
    """Parse a single term occupying the whole input; Term or one Diagnostic."""
    tokens, diags = _lex(src)
    if diags:
        return diags[0]
    parser = _Parser(tokens)
    try:
        term = parser.term()
    except _ParseError as exc:
        return exc.diag
    trailing = parser.peek()
    if trailing.kind != "eof":
        return Diagnostic(trailing.line, trailing.column, f"trailing input {trailing.text!r} after term")
    return term


def check_wellformed(p) -> list:
    """Rule diagnostics of p (anything with .rules); empty means well formed.

    A rule is well formed when its text, str(r), parses back to that same
    rule.  Each parse diagnostic of a rule's text is reported at the rule's
    index, and so is a rule that reads back as something else.
    """
    out: list = []
    for i, r in enumerate(p.rules):
        back = parse_program(str(r))
        if isinstance(back, list):
            out.extend(RuleDiagnostic(i, d.message) for d in back)
        elif back.rules != (r,):
            read = " ".join(map(repr, back.rules)) or "no rule"
            out.append(RuleDiagnostic(i, f"reads back as {read}"))
    return out

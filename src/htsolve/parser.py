"""Recursive-descent parser for the rule language over one token regex.

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

Scanning is one regex, _TOKEN: each match is a blank run, a comment or one
token, and its one group is the token's text (empty for the first two).  A
token's kind comes from one table, _KINDS, for the fixed texts
(punctuation, comparators, "not", the theory words); any other text is
classified by _CLASSES, once per distinct text in a parse.  The parser
walks the flat lists of kinds and texts by index.  Positions are found on
demand: only when a text is of an error kind, or a rule fails to parse,
does _lex scan the source again, with the same regex and table, for each
token's line and column.  That happens at most once per parse.
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


# A blank run, a comment, or a token in the group: a word (a run of word
# characters not starting with an ASCII digit), an ASCII integer, "&" and
# the letters after it, a two-character operator, or one other character.
_TOKEN = re.compile(r"[ \t\r\n]+|%[^\n]*|([^\W0-9]\w*|[0-9]+|&[^\W\d_]*|\.\.?|:-|=:|[<>!]=|.)")

_KINDS = {
    "not": "not", "(": "lparen", ")": "rparen", ",": "comma", "..": "dots",
    ".": "dot", ":-": "if", "&sum": "sum", "&diff": "diff", "&in": "in",
    "=:": "assign", ";": "semi", "{": "lbrace", "}": "rbrace", "*": "star",
    "-": "minus", **dict.fromkeys(("<=", ">=", "!=", "<", ">", "="), "cmp"),
}

# The kind of a token text outside _KINDS: the alternative that matches it whole.
_CLASSES = re.compile(r"(?P<int>[0-9]+)|(?P<sym>[a-z][A-Za-z0-9_]*)|(?P<var>[A-Z][A-Za-z0-9_]*)"
                      r"|(?P<theory>&.*)|(?P<name>\w+)|(?P<bad>.)")

_LEX_ERRORS = {
    "name": "invalid name '{}'",
    "theory": "unknown constraint atom '{}'",
    "bad": "unexpected character {!r}",
}


def _scan(src: str):
    """Kinds and texts of src's tokens, eof last; None if a token is of an error kind."""
    texts = list(filter(None, _TOKEN.findall(src)))
    kind_of = dict(_KINDS)
    for text in set(texts).difference(kind_of):
        kind = kind_of[text] = _CLASSES.fullmatch(text).lastgroup
        if kind in _LEX_ERRORS:
            return None
    kinds = list(map(kind_of.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _lex(src: str):
    """src's tokens with their positions, and the lexer's diagnostics."""
    tokens, diags = [], []
    line, line_start, seen = 1, 0, 0  # line_start: offset just past the last newline
    found = [(m.start(), m.group(1)) for m in _TOKEN.finditer(src) if m.group(1)]
    for start, text in found + [(len(src), "")]:
        breaks = src.count("\n", seen, start)
        if breaks:
            line += breaks
            line_start = src.rindex("\n", seen, start) + 1
        seen = start
        kind = (_KINDS.get(text) or _CLASSES.fullmatch(text).lastgroup) if text else "eof"
        if kind in _LEX_ERRORS:
            diags.append(Diagnostic(line, start - line_start + 1, _LEX_ERRORS[kind].format(text)))
        else:
            tokens.append(_Token(kind, text, line, start - line_start + 1))
    return tokens, diags


# The coefficient spellings of a linear element as token kinds, each with
# the sign it puts on its one INT.
_COEFFICIENTS = (
    (["int", "star"], 1),
    (["minus", "int", "star"], -1),
    (["lparen", "int", "rparen", "star"], 1),
    (["lparen", "minus", "int", "rparen", "star"], -1),
)


class _ParseError(Exception):
    """A rule that does not parse; args are the index of the token to blame
    and the message."""


class _Parser:
    """Recursive descent over the kinds and texts of _scan; self.pos is the
    index of the next token, and never passes the eof token."""

    def __init__(self, kinds: list, texts: list):
        self.kinds = kinds
        self.texts = texts
        self.pos = 0
        self.names: dict = {}  # text -> its one SymConst or AspVar in this parse

    def fail_expected(self, pos: int, what: str):
        found = "end of input" if self.kinds[pos] == "eof" else repr(self.texts[pos])
        raise _ParseError(pos, f"expected {what}, found {found}")

    def expect(self, kind: str, what: str) -> int:
        """Step past the next token, which must be of kind; its index."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail_expected(pos, what)
        self.pos = pos + 1
        return pos

    def integer(self, pos: int, sign: int = 1) -> int:
        """The value of the INT token at pos times sign.  int() refuses very
        long digit strings, so that becomes a diagnostic at the token."""
        text = self.texts[pos]
        try:
            return sign * int(text)
        except ValueError:
            raise _ParseError(pos, f"integer of {len(text)} digits is too long") from None

    # terms ---------------------------------------------------------------

    def name(self, pos: int):
        """A new SymConst or AspVar for the sym or var token at pos, kept as
        its text's one term in this parse."""
        text = self.texts[pos]
        term = self.names[text] = (SymConst if self.kinds[pos] == "sym" else AspVar)(text)
        return term

    def term(self, depth: int = 0):
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "sym" and self.kinds[pos + 1] == "lparen":
            if depth > 0:
                raise _ParseError(pos, f"nested function term '{self.texts[pos]}(...)' is not supported")
            self.pos = pos + 1
            return FuncTerm(self.texts[pos], self.arguments(depth + 1))
        if kind == "sym" or kind == "var":
            self.pos = pos + 1
            return self.names.get(self.texts[pos]) or self.name(pos)
        if kind == "int" or kind == "minus":
            return IntConst(self.signed_int())
        self.fail_expected(pos, "a term")

    def arguments(self, depth: int) -> tuple:
        """'(' term (',' term)* ')' from the '(' at self.pos, the terms at the
        given nesting depth."""
        kinds, texts, names = self.kinds, self.texts, self.names
        pos = self.pos
        args = []
        while True:
            pos += 1
            kind = kinds[pos]
            if (kind == "sym" or kind == "var") and kinds[pos + 1] != "lparen":
                args.append(names.get(texts[pos]) or self.name(pos))
                pos += 1
            else:
                self.pos = pos
                args.append(self.term(depth))
                pos = self.pos
            if kinds[pos] != "comma":
                break
        if kinds[pos] != "rparen":
            self.fail_expected(pos, "')'")
        self.pos = pos + 1
        return tuple(args)

    # constraint atoms ----------------------------------------------------

    def sum_atom(self):
        self.expect("sum", "'&sum'")
        self.expect("lbrace", "'{'")
        terms = [self.lin_elem()]
        while self.kinds[self.pos] == "semi":
            self.pos += 1
            terms.append(self.lin_elem())
        self.expect("rbrace", "'}'")
        cmp = self.texts[self.expect("cmp", "a comparator")]
        return LinearConstraintAtom(tuple(terms), cmp, self.signed_int())

    def lin_elem(self):
        pos = self.pos
        for kinds, sign in _COEFFICIENTS:
            if self.kinds[pos : pos + len(kinds)] == kinds:
                self.pos = pos + len(kinds)
                return (self.integer(pos + kinds.index("int"), sign), self.term())
        return (1, self.term())

    def signed_int(self) -> int:
        if self.kinds[self.pos] == "minus":
            self.pos += 1
            return self.integer(self.expect("int", "an integer"), -1)
        return self.integer(self.expect("int", "an integer"))

    def diff_atom(self):
        self.expect("diff", "'&diff'")
        self.expect("lbrace", "'{'")
        lhs = self.term()
        self.expect("minus", "'-'")
        rhs = self.term()
        pos = self.expect("rbrace", "'}'") + 1
        if self.kinds[pos] != "cmp" or self.texts[pos] != "<=":
            raise _ParseError(pos, "difference constraints support only '<='")
        self.pos = pos + 1
        return DiffConstraintAtom(lhs, rhs, self.signed_int())

    def in_assignment(self):
        self.expect("in", "'&in'")
        self.expect("lbrace", "'{'")
        lo = self.term()
        self.expect("dots", "'..'")
        hi = self.term()
        self.expect("rbrace", "'}'")
        pos = self.expect("assign", "'=:'") + 1
        target = self.term()
        if isinstance(target, IntConst):
            raise _ParseError(pos, "assignment target must be a variable name, not a constant")
        return AssignmentAtom(lo, hi, target)

    # atoms, literals, rules ----------------------------------------------

    def element(self, pos: int, what: str):
        """The atom or constraint atom at pos, which is self.pos."""
        kind = self.kinds[pos]
        if kind == "sym":
            self.pos = pos + 1
            if self.kinds[pos + 1] != "lparen":
                return Atom(self.texts[pos])
            return Atom(self.texts[pos], self.arguments(0))
        if kind == "sum":
            return self.sum_atom()
        if kind == "diff":
            return self.diff_atom()
        if kind == "in":
            raise _ParseError(pos, "assignment atom in rule body")
        self.fail_expected(pos, what)

    def body(self) -> tuple:
        kinds = self.kinds
        lits = []
        while True:
            pos = self.pos
            positive = kinds[pos] != "not"
            if not positive:
                pos = self.pos = pos + 1
                if kinds[pos] == "not":
                    raise _ParseError(pos, "double negation is not supported")
            lits.append(Literal(positive, self.element(pos, "a literal")))
            if kinds[self.pos] != "comma":
                return tuple(lits)
            self.pos += 1

    def rule(self):
        kinds, pos = self.kinds, self.pos
        if kinds[pos] == "if":
            head = FALSITY
        elif kinds[pos] == "in":
            head = self.in_assignment()
        else:
            head = self.element(pos, "a rule head")
        body = ()
        if kinds[self.pos] == "if":
            self.pos += 1
            body = self.body()
        self.expect("dot", "'.'")
        return Rule(head, body)

    def skip_past(self, pos: int) -> None:
        """Resume after the first dot at or after pos, or at eof."""
        try:
            self.pos = self.kinds.index("dot", pos) + 1
        except ValueError:
            self.pos = len(self.kinds) - 1


def _placed(src: str, errors: list) -> list:
    """The Diagnostics of parse errors, each at the position of its token."""
    tokens = _lex(src)[0]
    return [Diagnostic(tokens[pos].line, tokens[pos].column, message) for pos, message in errors]


def parse_program(src: str):
    """Parse a whole program.  Returns a Program or a list of Diagnostics."""
    scanned = _scan(src)
    if scanned is None:
        return _lex(src)[1]
    parser = _Parser(*scanned)
    end = len(parser.kinds) - 1
    rules: list = []
    errors: list = []
    while parser.pos < end:
        try:
            rules.append(parser.rule())
        except _ParseError as exc:
            errors.append(exc.args)
            parser.skip_past(exc.args[0])
    if errors:
        return _placed(src, errors)
    return Program(tuple(rules))


def parse_term(src: str):
    """Parse a single term occupying the whole input; Term or one Diagnostic."""
    scanned = _scan(src)
    if scanned is None:
        return _lex(src)[1][0]
    parser = _Parser(*scanned)
    try:
        term = parser.term()
        pos = parser.pos
        if parser.kinds[pos] != "eof":
            raise _ParseError(pos, f"trailing input {parser.texts[pos]!r} after term")
    except _ParseError as exc:
        return _placed(src, [exc.args])[0]
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

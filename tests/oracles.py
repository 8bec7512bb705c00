"""Reference implementations used only by tests.

These deliberately avoid the package's optimized paths: grounding
substitutes every tuple of universe terms into every rule and then prunes
to a fixpoint, equilibrium enumeration walks every interpretation through
the definitional satisfaction functions, and difference-logic
satisfiability is decided by windowed interval narrowing instead of
incremental potentials, and the reference scanner tries one named
alternative per token kind with a per-token loop that tracks positions.
The grounder's and the configuration differentials' checks live here too,
free of pytest, so that the scripts under scripts/ can import them.
"""

import re
from collections import Counter
from itertools import chain, combinations, product

from htsolve.configkit import (
    EMPTY_INSTANCE,
    ConfigInstance,
    ConfigModel,
    check_instance,
    decode_instance,
    translate,
    value_bounds,
)
from htsolve.core import FALSITY, Atom, Falsity, Literal, Rule, atoms_of, rule_variables
from htsolve.grounder import GroundProgram, _subst_elem, check_safety, ground, herbrand_universe
from htsolve.ht import Interpretation, World, is_ht_model
from htsolve.parser import Diagnostic, _lex, _scan, _Token
from htsolve.search import solve
from htsolve.semantics import AnswerSet, Valuation, numbered


def subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


def total_valuations(variables, bounds):
    lo, hi = bounds
    for combo in product(range(lo, hi + 1), repeat=len(variables)):
        yield Valuation.of(dict(zip(variables, combo)))


def partial_valuations(variables, bounds):
    lo, hi = bounds
    options = [None] + list(range(lo, hi + 1))
    for combo in product(options, repeat=len(variables)):
        yield Valuation.of(
            {v: c for v, c in zip(variables, combo) if c is not None}
        )


def sub_valuations(val: Valuation):
    entries = list(val.as_dict().items())
    for keep in subsets(entries):
        yield Valuation.of(dict(keep))


def _subst_rule(r: Rule, env: dict) -> Rule:
    head = r.head if isinstance(r.head, Falsity) else _subst_elem(r.head, env)
    body = tuple(Literal(lit.positive, _subst_elem(lit.atom, env)) for lit in r.body)
    return Rule(head, body)


def instances(r: Rule, universe) -> list:
    """All cross-product instantiations of r; len == len(universe) ** #variables."""
    variables = sorted(rule_variables(r), key=lambda v: v.name)
    if not variables:
        return [r]
    out = []
    for values in product(universe, repeat=len(variables)):
        env = dict(zip(variables, values))
        out.append(_subst_rule(r, env))
    return out


def _simplify(rules: list) -> list:
    """Drop rules with an underivable positive body atom, to fixpoint."""
    kept = list(rules)
    while True:
        heads = {r.head for r in kept if isinstance(r.head, Atom)}
        surviving = [
            r
            for r in kept
            if all(
                lit.atom in heads
                for lit in r.body
                if lit.positive and isinstance(lit.atom, Atom)
            )
        ]
        if len(surviving) == len(kept):
            return surviving
        kept = surviving


def naive_ground(p, simplify: bool = True) -> GroundProgram:
    """Instantiate every rule over the universe; rejects unsafe programs."""
    diags = check_safety(p)
    if diags:
        raise ValueError("unsafe program: " + "; ".join(str(d) for d in diags))
    universe = herbrand_universe(p)
    ground_rules: list = []
    for r in p.rules:
        ground_rules.extend(instances(r, universe))
    if simplify:
        ground_rules = _simplify(ground_rules)
    unique = sorted(set(ground_rules), key=str)
    return GroundProgram(tuple(unique), universe)


def answer_sort_key(ans: AnswerSet, variables) -> tuple:
    """The order of the engines' answers: atom sets by their sorted atom
    texts, then valuations by value per variable, undefined first."""
    atom_key = tuple(sorted(str(a) for a in ans.atoms))
    val_key = tuple(
        (1, ans.val.get(v)) if ans.val.defined(v) else (0,) for v in variables
    )
    return (atom_key, val_key)


def cli_text(answers: list, models: int = 0) -> str:
    """What `htsolve solve --models models` prints for answers, the full
    sorted list, rendered field by field without the CLI's code."""
    shown = answers[:models] if models else answers
    out = []
    for i, ans in enumerate(shown, 1):
        out.append(f"Answer: {i}\n" + " ".join(sorted(str(a) for a in ans.atoms)) + "\n")
        if ans.val.entries:
            out.append("val " + " ".join(f"{k}={v}" for k, v in ans.val.entries) + "\n")
    out.append("SATISFIABLE\n" if shown else "UNSATISFIABLE\n")
    return "".join(out)


def naive_equilibrium(g, mode: str, bounds) -> list:
    """Equilibrium enumeration straight from the definitions (slow)."""
    atoms, _, variables = atoms_of(g)
    vals = (
        total_valuations(variables, bounds)
        if mode == "casp"
        else partial_valuations(variables, bounds)
    )
    answers = []
    for vt in vals:
        for tatoms in subsets(atoms):
            tset = frozenset(tatoms)
            there = World(tset, vt)
            if not is_ht_model(Interpretation(there, there), g):
                continue
            here_vals = [vt] if mode == "casp" else list(sub_valuations(vt))
            smaller = False
            for hatoms in subsets(tatoms):
                hset = frozenset(hatoms)
                for vh in here_vals:
                    if hset == tset and vh == vt:
                        continue
                    if is_ht_model(Interpretation(World(hset, vh), there), g):
                        smaller = True
                        break
                if smaller:
                    break
            if not smaller:
                answers.append(AnswerSet(tset, vt))
    answers.sort(key=lambda a: answer_sort_key(a, variables))
    return answers


# a :- b, b, not c, not c.  The rule pool of randprog repeats no body literal.
REPEATED_BODY = Rule(Atom("a"), (Literal(True, Atom("b")), Literal(True, Atom("b")),
                                 Literal(False, Atom("c")), Literal(False, Atom("c"))))


def rule_shapes(g) -> set:
    """The shapes the numbering must normalise that g's rules take: a head
    in its own positive body, a repeated body literal, and a theory atom
    that is a head and also a body literal."""
    theory_heads = {r.head for r in g.rules if not isinstance(r.head, (Atom, Falsity))}
    shapes = set()
    for r in g.rules:
        if r.head in [lit.atom for lit in r.body if lit.positive]:
            shapes.add("head in positive body")
        if len(set(r.body)) < len(r.body):
            shapes.add("repeated literal")
        if any(lit.atom in theory_heads for lit in r.body):
            shapes.add("theory head in a body")
    return shapes


def brute_force_dl(constraints, window=(-30, 30)):
    """Decide x-y<=k conjunctions inside the window; witness dict or None.

    Upper bounds are narrowed to a fixpoint; on success every variable
    takes its upper bound, which satisfies each constraint by the fixpoint
    condition, and the witness is re-verified by substitution.  A negative
    cycle drives some upper bound below the window, yielding None.
    """
    lo, hi = window
    variables = sorted({t for x, y, _ in constraints for t in (x, y)}, key=str)
    upper = {v: hi for v in variables}
    changed = True
    while changed:
        changed = False
        for x, y, k in constraints:
            if upper[x] > upper[y] + k:
                upper[x] = upper[y] + k
                if upper[x] < lo:
                    return None
                changed = True
    assert all(upper[x] - upper[y] <= k for x, y, k in constraints)
    return upper


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


def reference_lex(src: str):
    """(tokens, diagnostics) of src, as parser._lex must give them."""
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


def scanner_differences(src: str) -> list:
    """Where parser._lex and the parse path's token pass differ from
    reference_lex on src: the names of the parts that differ, or []."""
    tokens, diags = reference_lex(src)
    got_tokens, got_diags = _lex(src)
    out = []
    if got_tokens != tokens:
        out.append("tokens")
    if got_diags != diags:
        out.append("diagnostics")
    scanned = _scan(src)
    if (scanned is None) != bool(diags):
        out.append("error detection")
    elif scanned is not None and scanned != ([t.kind for t in tokens], [t.text for t in tokens]):
        out.append("kinds and texts")
    return out


# the grounder's differential: its numbering and sharing checks


def _numbering(g) -> tuple:
    """numbered(g)'s atoms, theory atoms, variables (each in its text
    order), and its rule rows as a multiset of (head, positive body set,
    negative body set)."""
    c = numbered(g)
    rows = Counter(zip(c.head, map(frozenset, c.pos), map(frozenset, c.neg)))
    return c.atoms, c.theory, c.variables, rows


def cyclic_atoms(g) -> set:
    """The atoms of g, theory atoms included, that reach themselves through a
    cycle of two or more atoms, by plain reachability over the positive
    dependency graph: an edge from each rule's head to each element of its
    positive body.  A rule whose head is in its own positive body always
    holds and supports nothing, so it adds no edge."""
    succ: dict = {}
    for r in g.rules:
        body = {lit.atom for lit in r.body if lit.positive}
        if r.head is not FALSITY and r.head not in body:
            succ.setdefault(r.head, set()).update(body)
    cyclic = set()
    for a in succ:
        seen: set = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        if a in seen:
            cyclic.add(a)
    return cyclic


def _one_object_each(g) -> bool:
    """Does g hold one object per distinct atom, theory atoms included, and
    one per distinct literal?"""
    atoms: dict = {}
    literals: dict = {}
    for r in g.rules:
        elems = [lit.atom for lit in r.body]
        if r.head is not FALSITY:
            elems.append(r.head)
        if any(atoms.setdefault(e, e) is not e for e in elems):
            return False
        if any(literals.setdefault(lit, lit) is not lit for lit in r.body):
            return False
    return True


# the configuration differential: the instance reference and the path it checks


def _subtrees(m: ConfigModel, ident: str, ptype: str, parent) -> list:
    """Every included subtree at slot ident, as (id, type, parent) triples:
    per edge, a count j in min..max, and the edge's slots 1..j in."""
    choices = [[((ident, ptype, parent),)]]
    for _, child, mn, mx in m.edges_from(ptype):
        choices.append([
            sum(kids, ())
            for j in range(mn, mx + 1)
            for kids in product(
                *[_subtrees(m, f"{ident}_{child}_{k}", child, ident) for k in range(1, j + 1)]
            )
        ])
    return [sum(pick, ()) for pick in product(*choices)]


def _reference(m: ConfigModel) -> dict:
    """Every complete instance check_instance passes, mapped to its number of
    casp answers: w^k, where w is the size of the value window and k the
    number of attributes of the minted slots it excludes."""
    trees = _subtrees(m, f"{m.root}1", m.root, None)
    lo, hi = value_bounds(m)
    minted = {(ident, ptype) for tree in trees for ident, ptype, _ in tree}
    out = {}
    for tree in trees:
        present = {(ident, ptype) for ident, ptype, _ in tree}
        k = sum(len(m.attrs_of(ptype)) for _, ptype in minted - present)
        attrs = [(ident, attr, a, b)
                 for ident, ptype, _ in tree for _, attr, a, b in m.attrs_of(ptype)]
        for values in product(*[range(a, b + 1) for *_, a, b in attrs]):
            inst = ConfigInstance(
                tuple(present),
                tuple((ident, parent) for ident, _, parent in tree if parent),
                tuple((ident, attr, v) for (ident, attr, _, _), v in zip(attrs, values)),
            )
            if check_instance(m, inst) == []:
                out[inst] = (hi - lo + 1) ** k
    return out


def _solved(m: ConfigModel, mode: str, engine: str = "oracle") -> tuple:
    """The decoded instances of translate -> ground -> solve, and the answer count."""
    answers = solve(ground(translate(m, EMPTY_INSTANCE, mode)), mode, value_bounds(m), engine)
    return {decode_instance(a) for a in answers}, len(answers)

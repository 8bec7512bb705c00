"""Product-configuration toolkit: partonomy models, instances, translation.

A configuration model is a fact file over the reserved predicates
``ptype/1``, ``root/1``, ``subpart/4`` and ``attrdom/4``; any further rule
is kept as a constraint over the instance predicates ``inst/2``,
``parentOf/2`` and ``val/3``.  An instance is a fact file over those three
instance predicates.  translate() compiles a model plus a partial instance
into a solver program whose answer sets decode to exactly the admissible
completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FALSITY,
    AspVar,
    AssignmentAtom,
    Atom,
    Diagnostic,
    Falsity,
    FuncTerm,
    IntConst,
    LinearConstraintAtom,
    Literal,
    Program,
    Rule,
    SymConst,
    _set,
)
from .grounder import GroundProgram, check_safety, ground
from .search import stable_models_bool
from .semantics import _mode_ok

VIOLATION_KINDS = (
    "undeclared-type",
    "multiple-roots",
    "dangling-parent",
    "bad-parent-type",
    "multiplicity",
    "missing-attr",
    "attr-domain",
    "constraint",
)


@dataclass(frozen=True)
class ConfigModel:
    """Partonomy blueprint: types, edges, attribute domains, constraints."""

    part_types: tuple  # of type names, sorted
    root: str
    edges: tuple  # of (parent type, child type, min, max), sorted
    attributes: tuple  # of (part type, attribute, lo, hi), sorted
    constraints: tuple = ()  # of Rule, in source order

    def edges_from(self, parent_type: str) -> list:
        return [e for e in self.edges if e[0] == parent_type]

    def attrs_of(self, part_type: str) -> list:
        return [a for a in self.attributes if a[0] == part_type]


@dataclass(frozen=True)
class ConfigInstance:
    """Concrete instantiation: individuals, parent links, attribute values."""

    individuals: tuple = ()  # of (id, type)
    parents: tuple = ()  # of (child id, parent id)
    values: tuple = ()  # of (id, attribute, value)

    def __post_init__(self) -> None:
        object.__setattr__(self, "individuals", tuple(sorted(self.individuals)))
        object.__setattr__(self, "parents", tuple(sorted(self.parents)))
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        ids = [i for i, _ in self.individuals]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate individual id")
        children = [c for c, _ in self.parents]
        if len(children) != len(set(children)):
            raise ValueError("individual with more than one parent")

    def type_of(self) -> dict:
        return dict(self.individuals)


EMPTY_INSTANCE = ConfigInstance()


@dataclass(frozen=True)
class Violation:
    """One checker finding; kind fixes which subjects accompany it."""

    kind: str
    subjects: tuple
    message: str

    def __post_init__(self) -> None:
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {self.kind!r}")
        object.__setattr__(self, "subjects", tuple(self.subjects))

    def __str__(self) -> str:
        where = f" [{', '.join(self.subjects)}]" if self.subjects else ""
        return f"{self.kind}{where}: {self.message}"


def _sym(t):
    return t.name if isinstance(t, SymConst) else None


def _num(t):
    return t.value if isinstance(t, IntConst) else None


# The reserved facts of each file kind: predicate -> (argument readers,
# diagnostic for arguments of the wrong kind); an instance fact also has
# the diagnostic for a value that conflicts with an earlier fact's.
MODEL_FACTS = {
    "ptype": ((_sym,), "ptype expects one part-type name"),
    "root": ((_sym,), "root expects one part-type name"),
    "subpart": ((_sym, _sym, _num, _num), "subpart expects (parent type, child type, min, max)"),
    "attrdom": ((_sym, _sym, _num, _num), "attrdom expects (part type, attribute, lo, hi)"),
}
MODEL_PREDICATES = tuple(MODEL_FACTS)
INSTANCE_FACTS = {
    "inst": ((_sym, _sym), "inst expects (id, type)", "conflicting types for {0}"),
    "parentOf": ((_sym, _sym), "parentOf expects (child id, parent id)",
                 "{0} has more than one parent"),
    "val": ((_sym, _sym, _num), "val expects (id, attribute, integer)",
            "conflicting values for {0}.{1}"),
}


# the instance facts decode_instance reads from an answer's atoms
_DECODED = ("inst", "parentOf")


def _read(args: tuple, readers: tuple):
    """The fact arguments args read through readers, or None on a mismatch."""
    if len(args) != len(readers):
        return None
    values = tuple([read(a) for read, a in zip(readers, args)])
    return None if None in values else values


def load_model(facts: Program):
    """Structure a fact program into a ConfigModel, or return diagnostics."""
    diags: list = []
    ptypes: set = set()
    roots: list = []
    edges: dict = {}
    attrs: dict = {}
    constraints: list = []

    def bad(idx: int, msg: str) -> None:
        diags.append(Diagnostic(idx, msg))

    for idx, r in enumerate(facts.rules):
        head = r.head
        if not (isinstance(head, Atom) and head.predicate in MODEL_FACTS):
            constraints.append((idx, r))
            continue
        if r.body:
            bad(idx, f"reserved predicate '{head.predicate}' must be a fact")
            continue
        readers, mismatch = MODEL_FACTS[head.predicate]
        args = _read(head.args, readers)
        if args is None:
            bad(idx, mismatch)
        elif head.predicate == "ptype":
            ptypes.add(args[0])
        elif head.predicate == "root":
            if args[0] not in roots:
                roots.append(args[0])
        elif head.predicate == "subpart":
            parent, child, mn, mx = args
            if mn < 0 or mx < 0:
                bad(idx, f"subpart({parent},{child}): negative multiplicity")
            elif mn > mx:
                bad(idx, f"subpart({parent},{child}): min {mn} exceeds max {mx}")
            elif (parent, child) in edges:
                bad(idx, f"duplicate partonomy edge {parent} -> {child}")
            else:
                edges[(parent, child)] = (mn, mx)
        else:
            ptype, attr, lo, hi = args
            if lo > hi:
                bad(idx, f"attrdom({ptype},{attr}): lo {lo} exceeds hi {hi}")
            elif (ptype, attr) in attrs:
                bad(idx, f"duplicate attribute {ptype}.{attr}")
            else:
                attrs[(ptype, attr)] = (lo, hi)

    for (parent, child) in sorted(edges):
        for t in (parent, child):
            if t not in ptypes:
                diags.append(Diagnostic(None, f"subpart references undeclared type {t}"))
    for (ptype, _attr) in sorted(attrs):
        if ptype not in ptypes:
            diags.append(Diagnostic(None, f"attrdom references undeclared type {ptype}"))
    if not roots:
        diags.append(Diagnostic(None, "missing root declaration"))
    elif len(roots) > 1:
        diags.append(Diagnostic(None, f"duplicate root: {', '.join(sorted(roots))}"))
    elif roots[0] not in ptypes:
        diags.append(Diagnostic(None, f"root references undeclared type {roots[0]}"))

    cycle = _find_cycle(edges)
    if cycle:
        diags.append(Diagnostic(None, "cyclic partonomy: " + " -> ".join(cycle)))

    constraint_rules = []
    for idx, r in constraints:
        ok = True
        elems = ([] if isinstance(r.head, Falsity) else [r.head]) + [
            lit.atom for lit in r.body
        ]
        for e in elems:
            if not isinstance(e, Atom):
                bad(idx, "constraint rules must use plain atoms only")
                ok = False
                break
            if e.predicate in MODEL_FACTS:
                bad(idx, f"reserved predicate '{e.predicate}' in constraint rule")
                ok = False
                break
            shape = INSTANCE_FACTS.get(e.predicate)
            if shape and len(e.args) != len(shape[0]):
                bad(idx, f"'{e.predicate}' expects {len(shape[0])} arguments")
                ok = False
                break
            if e is r.head and e.predicate in _DECODED and any(
                not isinstance(a, AspVar) and read(a) is None for read, a in zip(shape[0], e.args)
            ):
                bad(idx, shape[1])  # decode_instance could not read what it derives
                ok = False
                break
        if ok:
            constraint_rules.append((idx, r))
    safety = check_safety(Program(tuple(r for _, r in constraint_rules)))
    for d in safety:
        original = constraint_rules[d.rule_index][0]
        diags.append(Diagnostic(original, d.message))

    if diags:
        return diags
    return ConfigModel(
        part_types=tuple(sorted(ptypes)),
        root=roots[0],
        edges=tuple(sorted((p, c, mn, mx) for (p, c), (mn, mx) in edges.items())),
        attributes=tuple(sorted((t, a, lo, hi) for (t, a), (lo, hi) in attrs.items())),
        constraints=tuple(r for _, r in constraint_rules),
    )


def _find_cycle(edges: dict):
    """First partonomy cycle in sorted order, as a type path, or None."""
    adjacency: dict = {}
    for parent, child in sorted(edges):
        adjacency.setdefault(parent, []).append(child)
    done: set = set()
    for root in sorted(adjacency):
        if root in done:
            continue
        # depth-first, with an explicit stack: the path from root, each
        # type with an iterator over its children still to visit
        path = {root: iter(adjacency[root])}
        while path:
            child = next(path[next(reversed(path))], None)
            if child is None:
                done.add(path.popitem()[0])
            elif child in path:
                cycle = list(path)
                return cycle[cycle.index(child):] + [child]
            elif child not in done:
                path[child] = iter(adjacency.get(child, ()))
    return None


def load_instance(facts: Program):
    """Structure a fact program into a ConfigInstance, or return diagnostics."""
    diags: list = []
    found: dict = {p: {} for p in INSTANCE_FACTS}  # predicate -> {key args: value}
    for idx, r in enumerate(facts.rules):
        head = r.head
        if r.body or not isinstance(head, Atom):
            diags.append(Diagnostic(idx, "instance files contain facts only"))
            continue
        shape = INSTANCE_FACTS.get(head.predicate)
        if shape is None or len(head.args) != len(shape[0]):
            diags.append(
                Diagnostic(idx, f"unknown instance fact '{head.predicate}/{len(head.args)}'")
            )
            continue
        readers, mismatch, conflict = shape
        args = _read(head.args, readers)
        if args is None:
            diags.append(Diagnostic(idx, mismatch))
        elif found[head.predicate].setdefault(args[:-1], args[-1]) != args[-1]:
            diags.append(Diagnostic(idx, conflict.format(*args)))
    if diags:
        return diags
    rows = {p: tuple((*key, v) for key, v in f.items()) for p, f in found.items()}
    return ConfigInstance(rows["inst"], rows["parentOf"], rows["val"])


def instance_facts(inst: ConfigInstance) -> Program:
    """Render an instance back into its fact-file program."""
    rules = []
    for ident, ptype in inst.individuals:
        rules.append(Rule(Atom("inst", (SymConst(ident), SymConst(ptype))), ()))
    for child, parent in inst.parents:
        rules.append(Rule(Atom("parentOf", (SymConst(child), SymConst(parent))), ()))
    for ident, attr, value in inst.values:
        rules.append(
            Rule(Atom("val", (SymConst(ident), SymConst(attr), IntConst(value))), ())
        )
    return Program(tuple(rules))


def check_instance(m: ConfigModel, inst: ConfigInstance) -> list:
    """All violations of inst against m, in (kind, subjects) order.

    The violations that inst's values do not change (undeclared types,
    roots, parent links, multiplicities) are found once per (m, individuals,
    parents) and m's per-type tables once per model, each cache holding the
    last one only; so the instances of one answer group, which differ in
    their values alone, pay only for the attribute and constraint checks.
    The result is the list a fresh check would give.
    """
    return _in_order(_structural_violations(m, inst) + _constraint_violations(m, inst))


def _in_order(out: list) -> list:
    return sorted(out, key=lambda v: (VIOLATION_KINDS.index(v.kind), v.subjects, v.message))


def _structural_violations(m: ConfigModel, inst: ConfigInstance) -> list:
    """Every violation of inst against m but the "constraint" ones, unsorted."""
    out, types, domains = _shape(m, inst.individuals, inst.parents)
    return out + _value_violations(types, domains, inst.values)


@lru_cache(maxsize=1)
def _tables(m: ConfigModel) -> tuple:
    """m's declared types, its edges as {(parent, child): (min, max)}, and
    per part type its edges and its attributes."""
    edges_from: dict = {}
    attrs_of: dict = {}
    for e in m.edges:
        edges_from.setdefault(e[0], []).append(e)
    for a in m.attributes:
        attrs_of.setdefault(a[0], []).append(a)
    edge_map = {(p, c): (mn, mx) for p, c, mn, mx in m.edges}
    return set(m.part_types), edge_map, edges_from, attrs_of


@lru_cache(maxsize=1)
def _shape(m: ConfigModel, individuals: tuple, parents: tuple) -> tuple:
    """The violations of an instance with these individuals and parents that
    its values do not change (a list no caller may change), its types as
    {id: type}, and {(id, attribute): (lo, hi)} for each attribute that m
    declares for an individual's type."""
    out: list = []
    types = dict(individuals)
    declared, edge_map, edges_from, attrs_of = _tables(m)

    for ident, ptype in individuals:
        if ptype not in declared:
            out.append(
                Violation(
                    "undeclared-type",
                    (ident,),
                    f"individual {ident} has undeclared type {ptype}",
                )
            )

    parented = {c for c, _ in parents}
    unparented = sorted(i for i, _ in individuals if i not in parented)
    rooted = [i for i in unparented if types[i] == m.root]
    if not rooted:
        out.append(
            Violation("multiple-roots", (), f"no root individual of type {m.root}")
        )
    for ident in unparented:
        if rooted and ident == rooted[0]:
            continue
        out.append(
            Violation(
                "multiple-roots",
                (ident,),
                f"unexpected unparented individual {ident}",
            )
        )

    for child, parent in parents:
        missing = [x for x in (child, parent) if x not in types]
        if missing:
            for x in missing:
                out.append(
                    Violation(
                        "dangling-parent",
                        (child, parent),
                        f"parent link references unknown individual {x}",
                    )
                )
            continue
        if (types[parent], types[child]) not in edge_map:
            out.append(
                Violation(
                    "bad-parent-type",
                    (child, parent),
                    f"{types[parent]} has no component of type {types[child]}",
                )
            )

    children_of: dict = {}
    for child, parent in parents:
        if child in types and parent in types:
            children_of.setdefault(parent, []).append(child)
    for ident, ptype in individuals:
        for _, child_type, mn, mx in edges_from.get(ptype, ()):
            n = sum(
                1 for c in children_of.get(ident, ()) if types[c] == child_type
            )
            if not mn <= n <= mx:
                out.append(
                    Violation(
                        "multiplicity",
                        (ident, child_type),
                        f"{ident} has {n} parts of type {child_type}, "
                        f"expected {mn}..{mx}",
                    )
                )

    domains = {
        (ident, attr): (lo, hi)
        for ident, ptype in individuals
        for _, attr, lo, hi in attrs_of.get(ptype, ())
    }
    return out, types, domains


def _value_violations(types: dict, domains: dict, values: tuple) -> list:
    """The missing-attr and attr-domain violations of an instance's values,
    given its _shape."""
    out: list = []
    value_count: dict = {}
    for ident, attr, _value in values:
        value_count[(ident, attr)] = value_count.get((ident, attr), 0) + 1
    for ident, attr in domains:
        n = value_count.get((ident, attr), 0)
        if n == 0:
            out.append(
                Violation(
                    "missing-attr",
                    (ident, attr),
                    f"missing value for attribute {attr}",
                )
            )
        elif n > 1:
            out.append(
                Violation(
                    "missing-attr",
                    (ident, attr),
                    f"attribute {attr} defined {n} times, expected once",
                )
            )
    for ident, attr, value in values:
        if ident not in types:
            out.append(
                Violation(
                    "attr-domain",
                    (ident, attr),
                    f"value for unknown individual {ident}",
                )
            )
            continue
        dom = domains.get((ident, attr))
        if dom is None:
            out.append(
                Violation(
                    "attr-domain",
                    (ident, attr),
                    f"attribute {attr} not declared for type {types[ident]}",
                )
            )
        elif not dom[0] <= value <= dom[1]:
            out.append(
                Violation(
                    "attr-domain",
                    (ident, attr),
                    f"{attr}={value} outside {dom[0]}..{dom[1]}",
                )
            )

    return out


def _constraint_violations(m: ConfigModel, inst: ConfigInstance) -> list:
    if not m.constraints:
        return []
    program = Program(instance_facts(inst).rules + tuple(m.constraints))
    g = ground(program)
    defining = tuple(r for r in g.rules if not isinstance(r.head, Falsity))
    checks = [r for r in g.rules if isinstance(r.head, Falsity)]
    models = stable_models_bool(GroundProgram(defining, g.universe))
    if len(models) != 1:
        return [
            Violation(
                "constraint",
                (),
                f"constraint rules admit {len(models)} models, expected one",
            )
        ]
    model = models[0]
    out = []
    for r in checks:
        holds = all(
            (lit.atom in model) == lit.positive for lit in r.body
        )
        if holds:
            out.append(Violation("constraint", (), f"violated: {r}"))
    return out


RELAXED_EXEMPT = ("multiplicity", "missing-attr")


def relaxed_violations(m: ConfigModel, partial: ConfigInstance) -> list:
    """check_instance minus completeness requirements and constraint rules, for partial inputs."""
    out = []
    for v in _in_order(_structural_violations(m, partial)):
        if v.kind in RELAXED_EXEMPT:
            continue
        if v.kind == "multiple-roots" and not v.subjects:
            continue  # a partial instance may omit the root
        out.append(v)
    return out


def value_bounds(m: ConfigModel) -> tuple:
    """Smallest integer window covering every attribute domain of m."""
    if not m.attributes:
        return (0, 0)
    return (
        min(lo for _, _, lo, _ in m.attributes),
        max(hi for _, _, _, hi in m.attributes),
    )


def _mint(parent_id: str, child_type: str, k: int) -> str:
    return f"{parent_id}_{child_type}_{k}"


def _structure(m: ConfigModel):
    """Breadth-first slot tree: (id, type, parent id or None, slot index)."""
    root_id = f"{m.root}1"
    nodes = [(root_id, m.root, None, 0)]
    frontier = [(root_id, m.root)]
    while frontier:
        ident, ptype = frontier.pop(0)
        for _, child_type, mn, mx in m.edges_from(ptype):
            if mn > mx:
                raise ValueError(f"subpart({ptype},{child_type}): min {mn} exceeds max {mx}")
            for k in range(1, mx + 1):
                sid = _mint(ident, child_type, k)
                nodes.append((sid, child_type, ident, k))
                frontier.append((sid, child_type))
    ids = [n[0] for n in nodes]
    if len(ids) != len(set(ids)):
        clash = sorted(i for i in set(ids) if ids.count(i) > 1)[0]
        raise ValueError(f"minted id collision: {clash}")
    return nodes


def _inject(m: ConfigModel, partial: ConfigInstance) -> dict:
    """Deterministic embedding of partial individuals into minted slot ids."""
    types = partial.type_of()
    parented = {c for c, _ in partial.parents}
    roots = [i for i, t in partial.individuals if t == m.root and i not in parented]
    mapping: dict = {}
    if not roots:
        if partial.individuals:
            raise ValueError("partial instance has no root individual to anchor it")
        return mapping
    mapping[roots[0]] = f"{m.root}1"
    queue = [roots[0]]
    while queue:
        pid = queue.pop(0)
        mid = mapping[pid]
        kids = sorted(c for c, p in partial.parents if p == pid)
        by_type: dict = {}
        for c in kids:
            by_type.setdefault(types[c], []).append(c)
        for child_type in sorted(by_type):
            edge = next(
                e for e in m.edges_from(types[pid]) if e[1] == child_type
            )
            mx = edge[3]
            group = by_type[child_type]
            if len(group) > mx:
                raise ValueError(
                    f"partial instance puts {len(group)} parts of type "
                    f"{child_type} under {pid}, model allows at most {mx}"
                )
            for k, c in enumerate(group, start=1):
                mapping[c] = _mint(mid, child_type, k)
                queue.append(c)
    unmapped = sorted(set(types) - set(mapping))
    if unmapped:
        raise ValueError(
            f"partial individuals unreachable from the root: {', '.join(unmapped)}"
        )
    return mapping


def translate(m: ConfigModel, partial: ConfigInstance, mode: str) -> Program:
    """Compile model + partial instance into a solver program.

    Slots are pre-enumerated per partonomy edge; inclusion is chosen by
    in/out even loops; an edge's slots fill in order, so its minimum is one
    integrity constraint per parent slot, that slot min is in whenever the
    parent is (maxima are capped by construction); attribute values become
    founded assignments or casp bound pairs; the partial instance pins its
    slots and values; constraint rules ride along verbatim.
    """
    _mode_ok(mode)
    problems = relaxed_violations(m, partial)
    if problems:
        raise ValueError(
            "partial instance rejected: " + "; ".join(str(v) for v in problems)
        )

    nodes = _structure(m)
    root_id = nodes[0][0]
    rules: list = []

    consts: dict = {}  # name -> its one SymConst, as a parse keeps one per name

    def sym(*names):
        return tuple([consts.get(n) or consts.setdefault(n, SymConst(n)) for n in names])

    def in_atom(ident):
        return Atom("in", sym(ident))

    def out_atom(ident):
        return Atom("out", sym(ident))

    def val_term(ident, attr):
        return FuncTerm("val", sym(ident, attr))

    def never(*atoms):
        return Rule(FALSITY, tuple(Literal(True, a) for a in atoms))

    rules.append(Rule(Atom("inst", sym(root_id, m.root)), ()))
    rules.append(Rule(in_atom(root_id), ()))

    # an edge's slots fill in order, so its minimum holds when slot min is in
    types = {ident: ptype for ident, ptype, _parent, _k in nodes}
    least = {(p, c): mn for p, c, mn, _mx in m.edges}
    for sid, child_type, parent, k in nodes[1:]:
        rules.append(Rule(in_atom(sid), (Literal(False, out_atom(sid)),)))
        rules.append(Rule(out_atom(sid), (Literal(False, in_atom(sid)),)))
        if parent != root_id:
            rules.append(never(in_atom(sid), out_atom(parent)))
        if k > 1:
            rules.append(never(in_atom(sid), out_atom(_mint(parent, child_type, k - 1))))
        if k == least[types[parent], child_type]:
            rules.append(never(out_atom(sid), in_atom(parent)))
        rules.append(
            Rule(Atom("inst", sym(sid, child_type)), (Literal(True, in_atom(sid)),))
        )
        rules.append(
            Rule(Atom("parentOf", sym(sid, parent)), (Literal(True, in_atom(sid)),))
        )

    for ident, ptype, _parent, _k in nodes:
        for _, attr, lo, hi in m.attrs_of(ptype):
            guard = (Literal(True, in_atom(ident)),)
            if mode == "founded":
                rules.append(
                    Rule(
                        AssignmentAtom(IntConst(lo), IntConst(hi), val_term(ident, attr)),
                        guard,
                    )
                )
            else:
                weighted = ((1, val_term(ident, attr)),)
                rules.append(Rule(LinearConstraintAtom(weighted, ">=", lo), guard))
                rules.append(Rule(LinearConstraintAtom(weighted, "<=", hi), guard))

    if m.constraints:
        for ident, ptype, _parent, _k in nodes:
            for _, attr, lo, hi in m.attrs_of(ptype):
                for v in range(lo, hi + 1):
                    rules.append(
                        Rule(
                            Atom("val", sym(ident, attr) + (IntConst(v),)),
                            (
                                Literal(True, in_atom(ident)),
                                Literal(
                                    True,
                                    LinearConstraintAtom(
                                        ((1, val_term(ident, attr)),), "=", v
                                    ),
                                ),
                            ),
                        )
                    )

    mapping = _inject(m, partial)
    for pid in sorted(mapping):
        mid = mapping[pid]
        if mid != root_id:
            rules.append(never(out_atom(mid)))
    for pid, attr, v in partial.values:
        mid = mapping[pid]
        rules.append(
            Rule(
                FALSITY,
                (
                    Literal(
                        False,
                        LinearConstraintAtom(((1, val_term(mid, attr)),), "=", v),
                    ),
                ),
            )
        )

    rules.extend(m.constraints)
    return Program(tuple(rules))


def decode_instance(answer) -> ConfigInstance:
    """Read a solved answer set back into a ConfigInstance.

    Raises ValueError on an inst/2 or parentOf/2 atom with an argument that
    is not a symbol, which a constraint rule's variable can still bind.

    The individuals and parent links are read once per atom set, which
    every answer of a group shares, and kept for the last set only; each
    call reads its answer's values.  The result, or the error, is the one
    a fresh call would give.
    """
    base, present = _decoded(frozenset(answer.atoms))
    values = []
    for term, value in answer.val.entries:
        if (
            isinstance(term, FuncTerm)
            and term.name == "val"
            and len(term.args) == 2
            and _sym(term.args[0]) in present
        ):
            values.append((_sym(term.args[0]), _sym(term.args[1]), value))
    # base with these values, sorted as ConfigInstance sorts them; its
    # individuals and parents are checked already, and values are not checked
    inst = object.__new__(ConfigInstance)
    _set(inst, "individuals", base.individuals)
    _set(inst, "parents", base.parents)
    _set(inst, "values", tuple(sorted(values)))
    return inst


@lru_cache(maxsize=1)
def _decoded(atoms: frozenset) -> tuple:
    """The instance of atoms without values, and the set of its ids."""
    individuals = []
    parents = []
    for atom in atoms:
        if atom.predicate in _DECODED and len(atom.args) == 2:
            pair = (_sym(atom.args[0]), _sym(atom.args[1]))
            if None in pair:
                raise ValueError(f"cannot decode {atom}: {INSTANCE_FACTS[atom.predicate][1]}")
            (individuals if atom.predicate == "inst" else parents).append(pair)
    return ConfigInstance(individuals, parents), {i for i, _ in individuals}

"""Seeded inputs and answer references for the benchmark workloads.

Every input is generated as source text from ``random.Random(seed)``, so the
same seed gives the same inputs.  Each workload is a fixed list of strata
(input shapes whose cost is known); the seed picks names, value windows,
pins and fact order inside each stratum.  That keeps the cost of one round
of inputs nearly the same from seed to seed while the inputs themselves
differ.

References never come from the engine that the benchmark times:

* configurations and chains have closed forms, computed here in plain
  Python;
* the other programs are solved by ``tests/oracles.py::naive_equilibrium``,
  which walks every interpretation through the definitional satisfaction
  relation.

The generator deliberately does not use ``htsolve.randprog``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# Percentile reported as latency_tail_ms: the highest of 75/90 that a run of
# the benchmark's length leaves at least 10 samples beyond (harness.measure
# adds rounds if a slow run would not).
TAIL_LEVEL = {"config-casp": 75.0, "datalog-ground": 75.0,
              "valuation-wide": 90.0, "founded": 90.0}

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Input:
    """One generated input.

    ``kind`` is ``"program"`` for a program file solved through the CLI with
    ``solve_args``, or ``"config"`` for a configuration model (``text``) and
    optional partial instance (``partial``) run through the library loop
    translate -> ground -> solve -> decode_instance -> check_instance.
    """

    name: str
    kind: str
    text: str
    solve_args: tuple
    semantics: str = "casp"
    engine: str = "search"
    partial: str = ""
    # the closed-form reference: (min, max, attr, lo, hi, pin) of a bike
    # model, or the atoms of a program's single answer; empty when the
    # reference is naive_equilibrium
    closed_form: tuple = ()


@dataclass(frozen=True)
class Reference:
    """What a correct run of one input must produce.

    ``full`` is the digest of the full job's answers and ``answers`` their
    number; ``first`` holds every digest a one-answer request may return.
    """

    full: str
    answers: int
    first: frozenset


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# --- rendering shared by references and job checks -------------------------


def render(answers, limit: int = 0) -> str:
    """CLI ``solve`` output for answers given as (atom strings, valuation text)."""
    shown = answers if limit == 0 else answers[:limit]
    lines = []
    for i, (atoms, val) in enumerate(shown, start=1):
        lines.append(f"Answer: {i}")
        lines.append(" ".join(sorted(atoms)))
        if val:
            lines.append(f"val {val}")
    lines.append("SATISFIABLE" if answers else "UNSATISFIABLE")
    return "\n".join(lines) + "\n"


def config_key(individuals, parents, values) -> str:
    """Name-independent form of a one-level bike configuration.

    Parts are listed in the order of their identifiers, which for minted slot
    identifiers is slot order; anything that is not one root with direct
    children maps to ``"malformed"`` and so matches no reference.
    """
    types = dict(individuals)
    parent = dict(parents)
    roots = [i for i in types if i not in parent]
    if len(roots) != 1 or len(types) != len(individuals):
        return "malformed"
    root = roots[0]
    if any(parent.get(i) != root for i in types if i != root):
        return "malformed"
    attrs: dict = {}
    for ident, attr, value in values:
        attrs.setdefault(ident, []).append(f"{attr}={value}")
    parts = [
        f"{types[i]}({','.join(sorted(attrs.get(i, ())))})"
        for i in sorted(types)
        if i != root
    ]
    return f"{types[root]}:" + " ".join(parts)


# --- generators ------------------------------------------------------------

ATTRS = ("diam", "width", "spokes", "hub", "rim")


def _bike(rng: random.Random, name: str, mn: int, mx: int, nvals: int,
          pinned: bool, semantics: str, engine: str) -> Input:
    attr = rng.choice(ATTRS)
    lo = rng.randint(10, 30)
    hi = lo + nvals - 1
    pin = rng.randint(lo, hi) if pinned else None
    text = (
        "ptype(bike). root(bike). ptype(wheel).\n"
        f"subpart(bike,wheel,{mn},{mx}).\n"
        f"attrdom(wheel,{attr},{lo},{hi}).\n"
    )
    partial = ""
    if pinned:
        partial = (
            "inst(b1,bike). inst(w1,wheel). parentOf(w1,b1).\n"
            f"val(w1,{attr},{pin}).\n"
        )
    args = ("--semantics", semantics, "--domain", f"{lo}..{hi}")
    if engine == "search":
        args += ("--engine", "search")
    return Input(name, "config", text, args, semantics, engine, partial,
                 (mn, mx, attr, lo, hi, pin))


# (min wheels, max wheels, values per attribute, pinned).  Latency groups:
# two 2-wheel bikes (~15 ms), five fixed 3-wheel bikes (~0.12 s), three
# ranges (~0.4 s), one 4-wheel bike (~2.4 s).  With 11 inputs whose jobs
# succeed, the median falls in the middle of the 6th-cheapest input and the
# p75 a quarter of an input past the 8th, so the 5th to 7th and the 8th to
# 9th inputs are of one group; the other workloads follow the same rule.
CONFIG_CASP_STRATA = (
    (2, 2, 2, False), (2, 2, 3, True),
    (3, 3, 2, False), (3, 3, 3, False), (3, 3, 4, False), (3, 3, 3, False),
    (3, 3, 2, False),
    (1, 3, 2, False), (2, 3, 4, True), (1, 3, 2, False),
    (4, 4, 4, False),
)


def config_casp(rng: random.Random) -> list:
    out = []
    for n, (mn, mx, nvals, pinned) in enumerate(CONFIG_CASP_STRATA):
        out.append(_bike(rng, f"bike{n}-w{mn}-{mx}-v{nvals}{'-pin' if pinned else ''}",
                         mn, mx, nvals, pinned, "casp", "search"))
    return out


# Chain lengths.  Of the 11 that succeed, the median of a run's jobs falls
# in the middle of the 6th-cheapest and the p75 a quarter of an input past
# the 8th, so the 5th to 7th and the 8th and 9th are of one size each.
CHAIN_SIZES = (10, 12, 14, 16, 20, 20, 20, 26, 26, 28, 40)
FACTS = 1100


def _chain_labels(rng: random.Random, n: int) -> list:
    """Node names whose text order follows the chain, in a seeded direction.

    The search engine walks atoms in text order; with names in random order
    its walk on a 40-node chain takes 1.9 to 31 s instead of 0.1 s, which
    would bury the grounding cost this workload is for (see WORKLOADS.md).
    """
    nodes = [f"n{k}" for k in sorted(rng.sample(range(100, 1000), n))]
    return nodes if rng.random() < 0.5 else nodes[::-1]


def datalog_ground(rng: random.Random) -> list:
    out = []
    for k, n in enumerate(CHAIN_SIZES):
        nodes = _chain_labels(rng, n)
        facts = [f"edge({a},{b})." for a, b in zip(nodes, nodes[1:])]
        rng.shuffle(facts)
        text = "\n".join(facts) + (
            "\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"
        )
        closure = [f"edge({a},{b})" for a, b in zip(nodes, nodes[1:])] + [
            f"path({a},{b})" for i, a in enumerate(nodes) for b in nodes[i + 1:]
        ]
        out.append(Input(f"chain{k}-n{n}", "program", text, ("--engine", "search"),
                         closed_form=tuple(closure)))
    items = [f"item(i{k})" for k in rng.sample(range(10 * FACTS), FACTS)]
    out.append(Input(f"facts{FACTS}", "program", ".\n".join(items) + ".\n",
                     ("--engine", "search"), closed_form=tuple(items)))
    return out


VAR_NAMES = ("x", "y", "z", "u", "v", "w", "p", "q")

# (variables, domain upper bound) of the gated valuation programs.  The p90
# of a run's jobs falls a tenth of an input past the 8th-cheapest input, so
# the two dearest inputs are of one shape, (4, 4).
VALUATION_STRATA = ((3, 6), (3, 5), (3, 4), (4, 4), (4, 3), (4, 2), (5, 2), (5, 2), (4, 4))


def _covering_pairs(rng: random.Random, xs, n: int) -> list:
    """n pairs of distinct variables that together mention every variable."""
    while True:
        seq = list(xs) + rng.choices(xs, k=2 * n - len(xs))
        rng.shuffle(seq)
        pairs = list(zip(seq[::2], seq[1::2]))
        if all(a != b for a, b in pairs):
            return pairs


def valuation_wide(rng: random.Random) -> list:
    """Two even-loop gates switch &diff/&sum constraints on and off.

    Which variables each constraint binds is fixed per stratum (a stratum's
    own generator picks the pairs); the seed picks the variable names and
    the rule order, so an input's answers and cost do not change with the
    seed.
    """
    out = []
    for n, (k, dom) in enumerate(VALUATION_STRATA):
        shape = _covering_pairs(random.Random(f"valuation-wide/{k}/{dom}"), range(k), 4)
        xs = rng.sample(VAR_NAMES, k)
        (a, b), (c, d), (e, f), (g, h) = [(xs[i], xs[j]) for i, j in shape]
        rules = [
            "on1 :- not off1.", "off1 :- not on1.",
            "on2 :- not off2.", "off2 :- not on2.",
            f"&diff{{{a}-{b}}} <= 1 :- on1.",
            f"&sum{{1*{c};1*{d}}} <= {dom} :- on2.",
            f"near :- &diff{{{e}-{f}}} <= 0, off1.",
            f"wide :- &sum{{2*{g};-1*{h}}} >= 1, off2.",
            ":- near, wide.",
        ]
        rng.shuffle(rules)
        out.append(Input(f"val{n}-k{k}-d{dom}", "program", "\n".join(rules) + "\n",
                         ("--engine", "search", "--domain", f"0..{dom}")))
    return out


# (min wheels, values) of the two-slot founded bikes; every other one is pinned
FOUNDED_BIKES = ((0, 2), (1, 3), (2, 4), (0, 3), (2, 5), (1, 2), (0, 4), (2, 3))
# (atoms, variables, domain upper bound) of the random founded programs
FOUNDED_PROGRAMS = ((7, 1, 3), (6, 1, 4), (6, 3, 1), (5, 3, 1), (7, 1, 3))


def _founded_program(rng: random.Random, n_atoms: int, n_vars: int, dom: int) -> str:
    """Ground program: an even loop a1/a2 guards `&in` assignments (lower
    bound 0 or another variable) and atoms derived over `&sum` bodies, plus
    one integrity constraint.

    The rules are drawn once per shape; the seed (``rng``) picks the
    variable names and the rule order, so the answers do not change with it.
    """
    shape = random.Random(f"founded/{n_atoms}/{n_vars}/{dom}")
    atoms = [f"a{i}" for i in range(1, n_atoms + 1)]
    xs = rng.sample(VAR_NAMES, n_vars)
    rules = [f"{atoms[0]} :- not {atoms[1]}.", f"{atoms[1]} :- not {atoms[0]}."]
    for x in xs:
        lo = shape.choice(["0"] + [y for y in xs if y != x])
        rules.append(f"&in{{{lo}..{dom}}} =: {x} :- {shape.choice(atoms[:2])}.")
    for a in atoms[2:]:
        body = [shape.choice(atoms[:2])]
        if shape.random() < 0.7:
            x = shape.choice(xs)
            body.append(f"&sum{{1*{x}}} {shape.choice(('>=', '<='))} {shape.randint(0, dom)}")
        rules.append(f"{a} :- {', '.join(body)}.")
    rules.append(f":- {shape.choice(atoms[2:])}, not {shape.choice(atoms)}.")
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


def founded(rng: random.Random) -> list:
    out = []
    for n, (mn, nvals) in enumerate(FOUNDED_BIKES):
        pinned = n % 2 == 1
        out.append(_bike(rng, f"fbike{n}-w{mn}-2-v{nvals}{'-pin' if pinned else ''}",
                         mn, 2, nvals, pinned, "founded", "oracle"))
    for n, (na, nv, dom) in enumerate(FOUNDED_PROGRAMS):
        out.append(Input(f"fprog{n}-a{na}-x{nv}-d{dom}", "program",
                         _founded_program(rng, na, nv, dom),
                         ("--semantics", "founded", "--domain", f"0..{dom}")))
    return out


GENERATORS = {
    "config-casp": config_casp,
    "datalog-ground": datalog_ground,
    "valuation-wide": valuation_wide,
    "founded": founded,
}


def generate(workload: str, seed: int) -> list:
    """The inputs of one workload for one seed."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# --- references ------------------------------------------------------------


def _config_reference(inp: Input) -> Reference:
    mn, mx, attr, lo, hi, pin = inp.closed_form
    keys = []
    for k in range(max(mn, 1 if pin is not None else 0), mx + 1):
        choices = [range(lo, hi + 1)] * k
        if pin is not None:
            choices[0] = (pin,)
        for combo in product(*choices):
            keys.append("bike:" + " ".join(f"wheel({attr}={v})" for v in combo))
    keys.sort()
    return Reference(digest("\n".join(keys)), len(keys),
                     frozenset(digest(k) for k in keys))


def _program_reference(answers) -> Reference:
    return Reference(digest(render(answers)), len(answers),
                     frozenset({digest(render(answers, 1))}))


def load_oracles():
    """Import ``tests/oracles.py`` from the checkout by path."""
    spec = importlib.util.spec_from_file_location(
        "htsolve_test_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _naive_reference(inp: Input, oracles) -> Reference:
    from htsolve import ground, parse_program

    args = dict(zip(inp.solve_args[::2], inp.solve_args[1::2]))
    lo, hi = (int(b) for b in args["--domain"].split(".."))
    mode = args.get("--semantics", "casp")
    found = oracles.naive_equilibrium(ground(parse_program(inp.text)), mode, (lo, hi))
    return _program_reference([
        ([str(a) for a in ans.atoms], " ".join(f"{k}={v}" for k, v in ans.val.entries))
        for ans in found
    ])


def reference(inp: Input, oracles) -> Reference:
    """The expected answers of one input, computed without the timed engine."""
    if inp.kind == "config":
        return _config_reference(inp)
    if inp.closed_form:
        return _program_reference([(inp.closed_form, "")])
    return _naive_reference(inp, oracles)

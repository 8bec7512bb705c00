"""Command-line frontend tests: output goldens and exit codes."""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import htsolve.cli
from htsolve import Program, pretty_print, run, solve
from htsolve.cli import (
    _CHUNK,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
)
from htsolve.configkit import EMPTY_INSTANCE, load_model, translate
from htsolve.core import Atom, atoms_of
from htsolve.grounder import ground
from htsolve.parser import parse_program
from oracles import cli_text, naive_equilibrium
from randprog import random_hybrid_program

BIKE_MODEL = """\
ptype(bike). root(bike).
ptype(wheel).
subpart(bike,wheel,2,2).
attrdom(wheel,diam,16,29).
"""

GOOD_INSTANCE = """\
inst(b1,bike). inst(w1,wheel). inst(w2,wheel).
parentOf(w1,b1). parentOf(w2,b1).
val(w1,diam,26). val(w2,diam,26).
"""


@pytest.fixture
def lp(tmp_path):
    """Write source text to a file and return its path as a string."""

    def write(text, name="input.lp"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


# solve ---------------------------------------------------------------------------


def test_solve_golden(lp, capsys):
    code = run(["solve", lp("a :- not b.")])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\na\nSATISFIABLE\n"


def test_solve_multiple_answers_sorted(lp, capsys):
    code = run(["solve", lp("a :- not b. b :- not a.")])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == (
        "Answer: 1\na\nAnswer: 2\nb\nSATISFIABLE\n"
    )


def test_solve_models_cap(lp, capsys):
    code = run(["solve", lp("a :- not b. b :- not a."), "--models", "1"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\na\nSATISFIABLE\n"


def test_solve_unsatisfiable(lp, capsys):
    code = run(["solve", lp("a. :- a.")])
    assert code == EXIT_UNSAT
    assert capsys.readouterr().out == "UNSATISFIABLE\n"


def test_solve_prints_valuation_line(lp, capsys):
    code = run(["solve", lp("&sum{1*x} = 1."), "--domain", "0..2"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\n\nval x=1\nSATISFIABLE\n"


def test_solve_founded_semantics(lp, capsys):
    code = run(
        ["solve", lp("&in{2..2} =: x."), "--semantics", "founded", "--domain", "0..3"]
    )
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\n\nval x=2\nSATISFIABLE\n"


def test_solve_search_engine_agrees(lp, capsys):
    path = lp("a :- &diff{x-y} <= 0. b :- not a.")
    run(["solve", path, "--domain", "0..1"])
    oracle_out = capsys.readouterr().out
    code = run(["solve", path, "--domain", "0..1", "--engine", "search"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == oracle_out


def test_solve_requires_domain_for_variables(lp, capsys):
    code = run(["solve", lp("&sum{1*x;1*y} <= 2.")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        "htsolve: usage error: --domain is required for programs with "
        "integer variables: x, y\n"
    )


def test_solve_founded_with_search_engine_is_rejected(lp, capsys):
    code = run(
        ["solve", lp("a."), "--semantics", "founded", "--engine", "search"]
    )
    assert code == EXIT_USAGE
    assert (
        "usage error: --engine search supports --semantics casp only"
        in capsys.readouterr().err
    )


def test_solve_assignment_head_with_search_engine_is_rejected(lp, capsys):
    code = run(["solve", lp("&in{y..y} =: x."), "--domain", "0..1", "--engine", "search"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "htsolve: usage error: --engine search does not support &in assignments\n"
    )


def test_solve_assignment_rule_grounded_away_runs_on_search_engine(lp, capsys):
    code = run(["solve", lp("&in{0..1} =: x :- p.\nq."), "--engine", "search"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\nq\nSATISFIABLE\n"


def test_solve_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.lp")
    code = run(["solve", missing])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"htsolve: cannot read {missing}:")


def test_solve_parse_error_reports_position(lp, capsys):
    path = lp("a :- not not b.")
    code = run(["solve", path])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"{path}:1:10: double negation is not supported\n"
    )


@pytest.mark.parametrize("command", ["solve", "ground"])
def test_non_ascii_digit_is_a_positioned_input_error(command, lp, capsys):
    path = lp("a(\u00b2).")  # superscript two is not an integer
    assert run([command, path]) == EXIT_INPUT
    assert capsys.readouterr().err == f"{path}:1:3: invalid name '\u00b2'\n"


def test_solve_integer_too_long_is_a_positioned_input_error(lp, capsys):
    path = lp("a(" + "1" * 5000 + ").")
    assert run(["solve", path]) == EXIT_INPUT
    assert capsys.readouterr().err == f"{path}:1:3: integer of 5000 digits is too long\n"


def test_solve_unsafe_program(lp, capsys):
    path = lp("p(X).")
    code = run(["solve", path])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"htsolve: {path}: unsafe program: rule 0: unsafe variables: X\n"
    )


def test_solve_unsafe_program_after_a_fact_names_its_source_index(lp, capsys):
    path = lp("p(a).\nq(X) :- not p(X).")
    assert run(["solve", path]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"htsolve: {path}: unsafe program: rule 1: unsafe variables: X\n"
    )


def test_solve_domain_argument_validation(lp, capsys):
    path = lp("a.")
    assert run(["solve", path, "--domain", "5..1"]) == EXIT_USAGE
    assert "empty domain '5..1'" in capsys.readouterr().err
    assert run(["solve", path, "--domain", "abc"]) == EXIT_USAGE
    assert "expected LO..HI with integer bounds, got 'abc'" in capsys.readouterr().err


def test_solve_negative_models_cap(lp, capsys):
    assert run(["solve", lp("a."), "--models", "-1"]) == EXIT_USAGE
    assert "usage error: --models must be nonnegative" in capsys.readouterr().err


def test_solve_ten_thousand_facts_on_default_engine(lp, capsys):
    facts = [f"item(i{k})" for k in range(10000)]
    code = run(["solve", lp(". ".join(facts) + ".")])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == (
        "Answer: 1\n" + " ".join(sorted(facts)) + "\nSATISFIABLE\n"
    )


def test_solve_ten_thousand_facts_on_search_engine(lp, capsys):
    facts = [f"item(i{k})" for k in range(10000)]
    code = run(["solve", lp(". ".join(facts) + "."), "--engine", "search"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == (
        "Answer: 1\n" + " ".join(sorted(facts)) + "\nSATISFIABLE\n"
    )


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_solve_long_negation_chain(lp, capsys, engine):
    # p1 has no rule, so p0 and every even pI from p2 on are true.
    rules = ["p0 :- not p1."] + [f"p{k + 1} :- not p{k}." for k in range(1, 1500)]
    code = run(["solve", lp("\n".join(rules)), "--engine", engine])
    assert code == EXIT_SAT
    atoms = ["p0"] + [f"p{k}" for k in range(2, 1501, 2)]
    assert capsys.readouterr().out == (
        "Answer: 1\n" + " ".join(sorted(atoms)) + "\nSATISFIABLE\n"
    )


def test_solve_even_loops_first_model_on_default_engine(lp, capsys):
    # 2^14 answers; the first in text order takes every aI.
    loops = [f"a{k} :- not b{k}. b{k} :- not a{k}." for k in range(1, 15)]
    code = run(["solve", lp("\n".join(loops)), "--models", "1"])
    assert code == EXIT_SAT
    atoms = [f"a{k}" for k in range(1, 15)]
    assert capsys.readouterr().out == (
        "Answer: 1\n" + " ".join(sorted(atoms)) + "\nSATISFIABLE\n"
    )


NEGATIVE_DOMAIN = "a :- &sum{1*x} < 0. b :- &diff{x-y} <= -1."


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_solve_negative_domain_either_spelling(lp, capsys, engine):
    path = lp(NEGATIVE_DOMAIN)
    cases = (
        ("--domain", "-1..0"), ("--domain", "-3..-1"), ("--domain", "-2..1"),
        ("--dom", "-1..1"), ("--domain", "-5..-7"), ("--domain", "-2"),
        ("--domain", "-2..x"),
    )
    for option, value in cases:
        spaced = run(["solve", path, option, value, "--engine", engine]), capsys.readouterr()
        joined = run(["solve", path, f"{option}={value}", "--engine", engine]), capsys.readouterr()
        assert spaced == joined, (option, value)
    assert run(["solve", path, "--domain", "-1..0", "--engine", engine]) == EXIT_SAT
    assert capsys.readouterr().out == (
        "Answer: 1\n\nval x=0 y=-1\n"
        "Answer: 2\n\nval x=0 y=0\n"
        "Answer: 3\na\nval x=-1 y=-1\n"
        "Answer: 4\na b\nval x=-1 y=0\n"
        "SATISFIABLE\n"
    )
    assert run(["solve", path, "--domain", "-5..-7"]) == EXIT_USAGE
    assert "empty domain '-5..-7'" in capsys.readouterr().err


def test_solve_negative_domain_before_a_double_dash(lp, capsys):
    # "--" ends the options: the file after it is no option value
    path = lp("a :- &sum{1*x} >= 0.", "x.lp")
    assert run(["solve", "--domain", "-1..0", "--models", "1", "--", path]) == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\n\nval x=-1\nSATISFIABLE\n"


def _answer_blocks(out: str) -> tuple:
    """(one string per "Answer:" block, the final line) of solve output."""
    lines = out.splitlines(keepends=True)
    blocks: list = []
    for line in lines[:-1]:
        if line.startswith("Answer: "):
            blocks.append("")
        blocks[-1] += line
    return blocks, lines[-1]


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_solve_models_prints_the_first_answers(lp, capsys, engine):
    rng = random.Random(808)
    seen = {"several answers": 0, "one answer": 0, "unsatisfiable": 0}
    for n in range(40):
        g = random_hybrid_program(rng, n_atoms=4, n_vars=2, max_rules=6)
        args = ["solve", lp(f"{g}\n", f"p{n}.lp"), "--engine", engine, "--domain=-1..1"]
        code = run(args)
        blocks, final = _answer_blocks(capsys.readouterr().out)
        for limit in range(1, len(blocks) + 2):
            assert run(args + ["--models", str(limit)]) == code
            assert capsys.readouterr().out == "".join(blocks[:limit]) + final, (g, limit)
        seen["several answers"] += len(blocks) > 2
        seen["one answer"] += len(blocks) == 1
        seen["unsatisfiable"] += not blocks
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("mode", ["casp", "founded"])
def test_solve_prints_the_definitional_answers(lp, capsys, mode):
    # stdout against naive_equilibrium's list rendered field by field, on
    # both engines where they apply, for the full list and the first 1-3;
    # the founded answers of the fixed program define x and y but not z
    rng = random.Random(1818)
    founded = mode == "founded"
    engines = ("oracle",) if founded else ("oracle", "search")
    texts = [
        f"{random_hybrid_program(rng, n_atoms=4, n_vars=2, max_rules=6, assignments=founded)}\n"
        for _ in range(60)
    ]
    if founded:
        texts.insert(0, "&in{0..1} =: x. &in{0..1} =: y. a :- &sum{1*z} >= 0, not b. b :- not a.")
    seen = {"answers": 0, "partly defined": 0, "empty valuation": 0}
    for n, text in enumerate(texts):
        path = lp(text, f"p{n}.lp")
        g = ground(parse_program(text))
        want = naive_equilibrium(g, mode, (0, 2))
        for engine in engines:
            for models in (0, 1, 2, 3):
                code = run(["solve", path, "--semantics", mode, "--engine", engine,
                            "--domain=0..2", "--models", str(models)])
                assert capsys.readouterr().out == cli_text(want, models), (text, engine, models)
                assert code == (EXIT_SAT if want else EXIT_UNSAT)
        n_vars = len(atoms_of(g)[2])
        seen["answers"] += len(want)
        seen["partly defined"] += sum(0 < len(ans.val) < n_vars for ans in want)
        seen["empty valuation"] += sum(not ans.val.entries for ans in want)
    assert seen["answers"] >= 40, seen
    if founded:
        assert seen["partly defined"] >= 5 and seen["empty valuation"] >= 5, seen


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_solve_writes_answers_across_chunks(lp, capsys, engine):
    # over 8,000 answers in two groups: several writes, one numbering
    text = "a :- &sum{1*x;1*y;1*z} >= 30, not b. b :- not a."
    want = solve(ground(parse_program(text)), "casp", (0, 19), engine)
    assert len(want) > 2 * _CHUNK
    assert run(["solve", lp(text), "--engine", engine, "--domain", "0..19"]) == EXIT_SAT
    assert capsys.readouterr().out == cli_text(want)


@pytest.mark.parametrize(
    "program, domain, out",
    [
        # 4^9 answers in one group; the first is the grid's first point
        ("a :- &sum{" + ";".join(f"1*x{i}" for i in range(9)) + "} >= 0.", "0..3",
         "Answer: 1\na\nval " + " ".join(f"x{i}=0" for i in range(9)) + "\nSATISFIABLE\n"),
        # about 5 * 10^11 answers before the three with a
        ("a :- &sum{1*x;1*y} >= 1999999.", "0..1000000",
         "Answer: 1\n\nval x=0 y=0\nSATISFIABLE\n"),
        # a != row bans one value of a 10^12-value range
        ("a :- &sum{1*x} != 5. :- not a.", "0..1000000000000",
         "Answer: 1\na\nval x=0\nSATISFIABLE\n"),
        ("a :- &sum{1*x;1*y} != 5. :- not a.", "0..1000000000000",
         "Answer: 1\na\nval x=0 y=0\nSATISFIABLE\n"),
    ],
    ids=["nine-variables", "wide-domain", "not-equal-one-variable", "not-equal-two-variables"],
)
def test_solve_first_model_of_a_huge_group_in_a_subprocess(lp, program, domain, out):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    gib = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "htsolve", "solve", lp(program), "--engine", "search",
         "--domain", domain, "--models", "1"],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_SAT, out, "")


@pytest.mark.parametrize("semantics", ["casp", "founded"])
def test_solve_program_without_variables_over_a_huge_domain_in_a_subprocess(lp, semantics):
    # the grid is one empty valuation, whatever the domain: no value is built
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    gib = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "htsolve", "solve", lp("a. b :- not c."),
         "--semantics", semantics, "--domain", "0..1000000000000"],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_SAT, "Answer: 1\na b\nSATISFIABLE\n", "")


def test_solve_founded_over_a_huge_domain_in_a_subprocess(lp):
    # every variable has a founded window of its own: the domain is never built
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    gib = 1 << 30

    def solved(path, domain):
        done = subprocess.run(
            [sys.executable, "-m", "htsolve", "solve", path, "--semantics", "founded",
             "--domain", domain],
            env=env, capture_output=True, text=True, timeout=20,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
        )
        return done.returncode, done.stdout, done.stderr

    huge = "0..1000000000000"
    assert solved(lp("a :- &sum{1*x} >= 0."), huge) == (EXIT_SAT, "Answer: 1\n\nSATISFIABLE\n", "")
    path = lp("&in{3..4} =: x. b :- &sum{1*x} >= 4.")
    small = solved(path, "0..1000")
    assert small[0] == EXIT_SAT and small[1].count("Answer:") == 2
    assert solved(path, huge) == small


def test_solve_rule_with_three_thousand_body_atoms(lp, capsys):
    facts = [f"p{k}(a)" for k in range(3000)]
    rule = "q(X) :- " + ", ".join(f"p{k}(X)" for k in range(3000)) + "."
    path = lp(rule + "\n" + ". ".join(facts) + ".\n")
    assert run(["ground", path]) == EXIT_OK
    assert capsys.readouterr().out == "rules: 3001\nuniverse: 1\n"
    for engine in ("oracle", "search"):
        assert run(["solve", path, "--engine", engine]) == EXIT_SAT
        assert capsys.readouterr().out == (
            "Answer: 1\n" + " ".join(sorted(facts + ["q(a)"])) + "\nSATISFIABLE\n"
        )


# ground --------------------------------------------------------------------------


def test_ground_summary(lp, capsys):
    code = run(["ground", lp("p(a). q(X) :- p(X).")])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "rules: 2\nuniverse: 1\n"


def test_ground_text(lp, capsys):
    code = run(["ground", lp("p(a). q(X) :- p(X)."), "--text"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "p(a).\nq(a) :- p(a).\n"


def test_ground_empty_program(lp, capsys):
    assert run(["ground", lp("")]) == EXIT_OK
    assert capsys.readouterr().out == "rules: 0\nuniverse: 0\n"
    assert run(["ground", lp(""), "--text"]) == EXIT_OK
    assert capsys.readouterr().out == ""



# A positive loop that nothing derives is kept by the grounder (greatest
# fixpoint), and in casp mode every integer variable of the ground program
# takes a value, so x and y range over the domain in the first program.
UNSUPPORTED_LOOP = """\
q(X) :- p(X).
p(X) :- q(X), not s(X).
a :- &diff{x-y} <= 0, q(X).
"""


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_unsupported_loop_keeps_integer_variables(lp, capsys, engine):
    path = lp(UNSUPPORTED_LOOP)
    code = run(["solve", path, "--domain", "0..1", "--engine", engine])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "".join(
        f"Answer: {i}\n\nval x={x} y={y}\n"
        for i, (x, y) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)], 1)
    ) + "SATISFIABLE\n"
    assert run(["ground", path, "--text"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "a :- &diff{x-y} <= 0, q(x).\n"
        "a :- &diff{x-y} <= 0, q(y).\n"
        "p(x) :- q(x), not s(x).\n"
        "p(y) :- q(y), not s(y).\n"
        "q(x) :- p(x).\n"
        "q(y) :- p(y).\n"
    )


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_underivable_body_drops_integer_variables(lp, capsys, engine):
    path = lp("a :- &diff{x-y} <= 0, q(X).")
    assert run(["ground", path]) == EXIT_OK
    assert capsys.readouterr().out == "rules: 0\nuniverse: 2\n"
    code = run(["solve", path, "--domain", "0..1", "--engine", engine])
    assert code == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\n\nSATISFIABLE\n"

# check-config --------------------------------------------------------------------


def test_check_config_ok(lp, capsys):
    code = run(
        [
            "check-config",
            "--model", lp(BIKE_MODEL, "model.lp"),
            "--instance", lp(GOOD_INSTANCE, "inst.lp"),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "OK\n"


def test_check_config_reports_violations(lp, capsys):
    partial = "inst(b1,bike). inst(w1,wheel). parentOf(w1,b1). val(w1,diam,26)."
    code = run(
        [
            "check-config",
            "--model", lp(BIKE_MODEL, "model.lp"),
            "--instance", lp(partial, "inst.lp"),
        ]
    )
    assert code == EXIT_VIOLATIONS
    assert capsys.readouterr().out == (
        "multiplicity [b1, wheel]: b1 has 1 parts of type wheel, expected 2..2\n"
    )


def test_check_config_bad_model_file(lp, capsys):
    path = lp("ptype(bike).", "model.lp")
    code = run(["check-config", "--model", path, "--instance", path])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"{path}: missing root declaration\n"


@pytest.mark.parametrize("command", ["check-config", "translate-config"])
def test_config_commands_report_an_unparsable_model(command, lp, tmp_path, capsys):
    model = lp("ptype(bike). root(bike)\n", "bad.lp")
    if command == "check-config":
        rest = ["--instance", lp(GOOD_INSTANCE, "inst.lp")]
    else:
        rest = ["--semantics", "casp", "-o", str(tmp_path / "c.lp")]
    assert run([command, "--model", model, *rest]) == EXIT_INPUT
    assert capsys.readouterr().err == f"{model}:2:1: expected '.', found end of input\n"


def test_check_config_model_diag_with_rule_index(lp, capsys):
    path = lp("ptype(a). ptype(b). root(a). subpart(a,b,3,1).", "model.lp")
    inst = lp("inst(x,a).", "inst.lp")
    code = run(["check-config", "--model", path, "--instance", inst])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"{path}: rule 3: subpart(a,b): min 3 exceeds max 1\n"
    )


def test_check_config_bad_instance_file(lp, capsys):
    model = lp(BIKE_MODEL, "model.lp")
    inst = lp("foo(a).", "inst.lp")
    code = run(["check-config", "--model", model, "--instance", inst])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"{inst}: rule 0: unknown instance fact 'foo/1'\n"


def test_check_config_cycle_message(lp, capsys):
    model = lp(
        "ptype(a). ptype(b). ptype(c). root(a).\n"
        "subpart(a,b,0,1). subpart(b,c,0,1). subpart(c,a,0,1).\n",
        "model.lp",
    )
    code = run(["check-config", "--model", model, "--instance", lp("inst(x,a).", "inst.lp")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"{model}: cyclic partonomy: a -> b -> c -> a\n"


def test_config_commands_on_a_deep_partonomy(lp, tmp_path, capsys):
    # a 1,500-type subpart chain: deeper than Python's recursion limit
    n = 1500
    model = lp(
        "root(t0).\n"
        + "".join(f"ptype(t{i}).\n" for i in range(n))
        + "".join(f"subpart(t{i - 1},t{i},0,1).\n" for i in range(1, n)),
        "model.lp",
    )
    inst = lp("inst(r,t0).", "inst.lp")
    assert run(["check-config", "--model", model, "--instance", inst]) == EXIT_OK
    assert capsys.readouterr().out == "OK\n"
    out = tmp_path / "compiled.lp"
    code = run(["translate-config", "--model", model, "--semantics", "casp", "-o", str(out)])
    assert code == EXIT_OK
    assert isinstance(parse_program(out.read_text(encoding="utf-8")), Program)


# translate-config ----------------------------------------------------------------


def test_translate_config_writes_program(lp, tmp_path, capsys):
    model_path = lp(BIKE_MODEL, "model.lp")
    out = tmp_path / "compiled.lp"
    code = run(
        [
            "translate-config",
            "--model", model_path,
            "--semantics", "founded",
            "-o", str(out),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    expected = pretty_print(
        translate(load_model(parse_program(BIKE_MODEL)), EMPTY_INSTANCE, "founded")
    )
    first = out.read_text(encoding="utf-8")
    assert first == expected + "\n"
    # a second run produces byte-identical output
    assert run(
        ["translate-config", "--model", model_path, "--semantics", "founded",
         "-o", str(out)]
    ) == EXIT_OK
    assert out.read_text(encoding="utf-8") == first


def test_translate_config_output_parses_and_solves(lp, tmp_path, capsys):
    model_path = lp(BIKE_MODEL.replace("16,29", "16,17"), "model.lp")
    out = tmp_path / "compiled.lp"
    assert run(
        ["translate-config", "--model", model_path, "--semantics", "casp",
         "-o", str(out)]
    ) == EXIT_OK
    capsys.readouterr()
    code = run(["solve", str(out), "--domain", "16..17"])
    assert code == EXIT_SAT
    assert capsys.readouterr().out.count("Answer: ") == 4


def test_translate_config_with_partial_instance(lp, tmp_path, capsys):
    model_path = lp(BIKE_MODEL, "model.lp")
    inst_path = lp("inst(b1,bike).", "partial.lp")
    out = tmp_path / "compiled.lp"
    code = run(
        ["translate-config", "--model", model_path, "--instance", inst_path,
         "--semantics", "founded", "-o", str(out)]
    )
    assert code == EXIT_OK
    assert ":- out(bike1)." not in out.read_text(encoding="utf-8")


def test_translate_config_rejects_bad_partial(lp, tmp_path, capsys):
    model_path = lp(BIKE_MODEL, "model.lp")
    inst_path = lp("inst(x1,saddle).", "partial.lp")
    code = run(
        ["translate-config", "--model", model_path, "--instance", inst_path,
         "--semantics", "founded", "-o", str(tmp_path / "c.lp")]
    )
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("htsolve: partial instance rejected:")


def test_translate_config_reports_an_unparsable_instance(lp, tmp_path, capsys):
    inst = lp("inst(b1 bike).", "partial.lp")
    out = tmp_path / "c.lp"
    code = run(["translate-config", "--model", lp(BIKE_MODEL, "model.lp"), "--instance", inst,
                "--semantics", "casp", "-o", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"{inst}:1:9: expected ')', found 'bike'\n"
    assert not out.exists()


def test_translate_config_unwritable_output(lp, tmp_path, capsys):
    code = run(
        ["translate-config", "--model", lp(BIKE_MODEL, "model.lp"),
         "--semantics", "casp", "-o", str(tmp_path)]
    )
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"htsolve: cannot write {tmp_path}:")


# argument plumbing ---------------------------------------------------------------


def test_usage_errors(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["translate-config", "--model", "m.lp", "-o", "x.lp"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error:" in err


def test_options_do_not_leak_between_runs(lp, capsys):
    path = lp("a :- not b. b :- not a.")
    assert run(["solve", path, "--models", "1", "--engine", "search"]) == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\na\nSATISFIABLE\n"
    assert run(["solve", path]) == EXIT_SAT
    assert capsys.readouterr().out == "Answer: 1\na\nAnswer: 2\nb\nSATISFIABLE\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("engine", ["oracle", "search"])
def test_solve_builds_no_atom_after_parsing(engine, lp, capsys, monkeypatch):
    # transitive closure on 20 nodes: solving numbers its atoms and the
    # answer is printed from their texts, so no Atom is built once
    # parse_program returns
    nodes = [f"v{i:02d}" for i in range(20)]
    edges = [f"edge({a},{b})" for a, b in zip(nodes, nodes[1:])]
    src = " ".join(e + "." for e in edges) + (
        "\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\n")
    built = []
    init, parse = Atom.__init__, htsolve.cli.parse_program

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def parse_then_count(text):
        program = parse(text)
        monkeypatch.setattr(Atom, "__init__", counted)
        return program

    monkeypatch.setattr(htsolve.cli, "parse_program", parse_then_count)
    assert run(["solve", lp(src), "--engine", engine]) == EXIT_SAT
    paths = [f"path({nodes[i]},{nodes[j]})" for i in range(20) for j in range(i + 1, 20)]
    assert capsys.readouterr().out == "Answer: 1\n" + " ".join(edges + paths) + "\nSATISFIABLE\n"
    assert built == []

"""Configuration-toolkit tests: model/instance loading, checking, translation."""

import random
from itertools import product

import pytest

import htsolve.configkit
from htsolve import (
    FALSITY,
    ConfigInstance,
    ConfigModel,
    Program,
    Violation,
    check_instance,
    check_wellformed,
    decode_instance,
    ground,
    instance_facts,
    load_instance,
    load_model,
    parse_program,
    pretty_print,
    solve,
    translate,
    value_bounds,
)
from htsolve.configkit import (
    EMPTY_INSTANCE,
    MODEL_PREDICATES,
    RELAXED_EXEMPT,
    VIOLATION_KINDS,
    _inject,
    _structure,
    relaxed_violations,
)

BIKE_MODEL = """\
ptype(bike). root(bike).
ptype(wheel).
subpart(bike,wheel,2,2).
attrdom(wheel,diam,16,29).
"""

MINI_BIKE = BIKE_MODEL.replace("16,29", "16,17")


def model_of(src: str) -> ConfigModel:
    out = load_model(parse_program(src))
    assert isinstance(out, ConfigModel), out
    return out


def model_diags(src: str) -> list:
    out = load_model(parse_program(src))
    assert isinstance(out, list), out
    return out


def instance_of(src: str) -> ConfigInstance:
    out = load_instance(parse_program(src))
    assert isinstance(out, ConfigInstance), out
    return out


def bike_instance(*wheel_diams, root="b1") -> ConfigInstance:
    individuals = [(root, "bike")]
    parents = []
    values = []
    for n, diam in enumerate(wheel_diams, start=1):
        wid = f"w{n}"
        individuals.append((wid, "wheel"))
        parents.append((wid, root))
        if diam is not None:
            values.append((wid, "diam", diam))
    return ConfigInstance(tuple(individuals), tuple(parents), tuple(values))


# load_model -------------------------------------------------------------------


def test_load_model_golden():
    m = model_of(BIKE_MODEL)
    assert m == ConfigModel(
        part_types=("bike", "wheel"),
        root="bike",
        edges=(("bike", "wheel", 2, 2),),
        attributes=(("wheel", "diam", 16, 29),),
        constraints=(),
    )
    assert m.edges_from("bike") == [("bike", "wheel", 2, 2)]
    assert m.edges_from("wheel") == []
    assert m.attrs_of("wheel") == [("wheel", "diam", 16, 29)]


def test_load_model_collects_constraint_rules_in_order():
    m = model_of(BIKE_MODEL + ":- val(X,diam,16), inst(X,wheel).\nmarker :- inst(X,wheel).")
    assert [str(r) for r in m.constraints] == [
        ":- val(X,diam,16), inst(X,wheel).",
        "marker :- inst(X,wheel).",
    ]


def test_load_model_min_exceeding_max():
    out = model_diags(BIKE_MODEL + "subpart(bike,frame,3,1). ptype(frame).")
    assert [(d.rule_index, d.message) for d in out] == [
        (5, "subpart(bike,frame): min 3 exceeds max 1")
    ]


def test_load_model_negative_multiplicity():
    out = model_diags(BIKE_MODEL + "ptype(frame). subpart(bike,frame,-1,2).")
    assert out[0].message == "subpart(bike,frame): negative multiplicity"


def test_load_model_duplicate_edge_and_attribute():
    out = model_diags(
        BIKE_MODEL + "subpart(bike,wheel,1,1). attrdom(wheel,diam,0,5)."
    )
    assert [d.message for d in out] == [
        "duplicate partonomy edge bike -> wheel",
        "duplicate attribute wheel.diam",
    ]


def test_load_model_attrdom_bounds():
    out = model_diags(BIKE_MODEL + "attrdom(bike,weight,9,3).")
    assert out[0].message == "attrdom(bike,weight): lo 9 exceeds hi 3"


def test_load_model_undeclared_type_references():
    out = model_diags("ptype(bike). root(bike). subpart(bike,pedal,1,1). attrdom(saddle,w,0,1).")
    assert [(d.rule_index, d.message) for d in out] == [
        (None, "subpart references undeclared type pedal"),
        (None, "attrdom references undeclared type saddle"),
    ]


def test_load_model_root_problems():
    assert model_diags("ptype(bike).")[0].message == "missing root declaration"
    out = model_diags("ptype(a). ptype(b). root(a). root(b).")
    assert out[0].message == "duplicate root: a, b"
    out = model_diags("ptype(a). root(z).")
    assert out[0].message == "root references undeclared type z"


def test_load_model_cycle_detection():
    out = model_diags(
        "ptype(a). ptype(b). root(a). subpart(a,b,0,1). subpart(b,a,0,1)."
    )
    assert out[0].message == "cyclic partonomy: a -> b -> a"


def test_load_model_reserved_predicate_must_be_fact():
    out = model_diags(BIKE_MODEL + "ptype(frame) :- inst(X,bike).")
    assert out[0].message == "reserved predicate 'ptype' must be a fact"


def test_load_model_bad_reserved_arguments():
    assert model_diags("ptype(bike,extra). root(bike).")[0].message == (
        "ptype expects one part-type name"
    )
    assert model_diags("ptype(bike). root(bike). subpart(bike,2,1,1).")[0].message == (
        "subpart expects (parent type, child type, min, max)"
    )
    assert model_diags("ptype(bike). root(bike). attrdom(bike,w,a,3).")[0].message == (
        "attrdom expects (part type, attribute, lo, hi)"
    )


def test_load_model_constraint_rule_validation():
    assert model_diags(BIKE_MODEL + ":- &sum{1*x} <= 2.")[0].message == (
        "constraint rules must use plain atoms only"
    )
    assert model_diags(BIKE_MODEL + ":- ptype(bike).")[0].message == (
        "reserved predicate 'ptype' in constraint rule"
    )
    assert model_diags(BIKE_MODEL + ":- inst(onearg).")[0].message == (
        "'inst' expects 2 arguments"
    )
    out = model_diags(BIKE_MODEL + ":- not inst(X,wheel).")
    assert [(d.rule_index, d.message) for d in out] == [(5, "unsafe variables: X")]


# load_instance -----------------------------------------------------------------


def test_load_instance_golden():
    inst = instance_of(
        "inst(b1,bike). inst(w1,wheel). parentOf(w1,b1). val(w1,diam,26)."
    )
    assert inst == ConfigInstance(
        individuals=(("b1", "bike"), ("w1", "wheel")),
        parents=(("w1", "b1"),),
        values=(("w1", "diam", 26),),
    )
    assert inst.type_of() == {"b1": "bike", "w1": "wheel"}


def test_load_instance_conflicts():
    out = load_instance(parse_program("inst(w1,wheel). inst(w1,frame)."))
    assert [d.message for d in out] == ["conflicting types for w1"]
    out = load_instance(parse_program("parentOf(w1,a). parentOf(w1,b)."))
    assert [d.message for d in out] == ["w1 has more than one parent"]
    out = load_instance(parse_program("val(w1,diam,16). val(w1,diam,17)."))
    assert [d.message for d in out] == ["conflicting values for w1.diam"]


def test_load_instance_repeated_identical_facts_collapse():
    inst = instance_of("inst(b1,bike). inst(b1,bike).")
    assert inst.individuals == (("b1", "bike"),)


def test_load_instance_rejects_rules_and_unknown_predicates():
    out = load_instance(parse_program("inst(a,b) :- inst(c,d)."))
    assert [d.message for d in out] == ["instance files contain facts only"]
    out = load_instance(parse_program("foo(a)."))
    assert [d.message for d in out] == ["unknown instance fact 'foo/1'"]
    out = load_instance(parse_program("val(w1,diam,big)."))
    assert [d.message for d in out] == ["val expects (id, attribute, integer)"]


@pytest.mark.parametrize(
    "kind, fact, message",
    [
        ("model", "ptype(3).", "ptype expects one part-type name"),
        ("model", "root(f(bike)).", "root expects one part-type name"),
        ("model", "subpart(bike,wheel,one,2).",
         "subpart expects (parent type, child type, min, max)"),
        ("model", "attrdom(wheel,3,0,1).", "attrdom expects (part type, attribute, lo, hi)"),
        ("model", "root(bike) :- inst(X,bike).", "reserved predicate 'root' must be a fact"),
        ("model", ":- inst(X,wheel,extra).", "'inst' expects 2 arguments"),
        ("model", ":- parentOf(X).", "'parentOf' expects 2 arguments"),
        ("model", ":- val(X,diam).", "'val' expects 3 arguments"),
        ("model", "inst(w9,3) :- inst(X,wheel).", "inst expects (id, type)"),
        ("model", "parentOf(X,f(b1)) :- inst(X,wheel).", "parentOf expects (child id, parent id)"),
        ("instance", "inst(w1,3).", "inst expects (id, type)"),
        ("instance", "parentOf(w1,f(b1)).", "parentOf expects (child id, parent id)"),
        ("instance", "val(w1,2,16).", "val expects (id, attribute, integer)"),
        ("instance", "inst(w1).", "unknown instance fact 'inst/1'"),
        ("instance", "parentOf(w1,b1,c1).", "unknown instance fact 'parentOf/3'"),
        ("instance", "val(w1,diam).", "unknown instance fact 'val/2'"),
        ("instance", "inst(w1,wheel) :- inst(b1,bike).", "instance files contain facts only"),
    ],
)
def test_loader_diagnostics(kind, fact, message):
    if kind == "model":
        out, index = load_model(parse_program(BIKE_MODEL + fact)), 5
    else:
        out, index = load_instance(parse_program(fact)), 0
    assert [(d.rule_index, d.message) for d in out] == [(index, message)]


def test_instance_facts_round_trips():
    inst = bike_instance(26, 26)
    again = load_instance(instance_facts(inst))
    assert again == inst
    assert pretty_print(instance_facts(bike_instance(16))) == (
        "inst(b1,bike).\ninst(w1,wheel).\nparentOf(w1,b1).\nval(w1,diam,16)."
    )


def test_config_instance_invariants():
    with pytest.raises(ValueError, match="duplicate individual id"):
        ConfigInstance(individuals=(("a", "bike"), ("a", "wheel")))
    with pytest.raises(ValueError, match="more than one parent"):
        ConfigInstance(parents=(("c", "p1"), ("c", "p2")))


def test_violation_str_and_kind_guard():
    v = Violation("multiplicity", ("b", "wheel"), "b has 1 parts of type wheel, expected 2..2")
    assert str(v) == "multiplicity [b, wheel]: b has 1 parts of type wheel, expected 2..2"
    assert str(Violation("multiple-roots", (), "no root individual of type bike")) == (
        "multiple-roots: no root individual of type bike"
    )
    with pytest.raises(ValueError, match="unknown violation kind"):
        Violation("typo", (), "x")


# check_instance ------------------------------------------------------------------


def test_check_valid_instance_is_clean():
    m = model_of(BIKE_MODEL)
    assert check_instance(m, bike_instance(26, 26)) == []


def test_check_multiplicity_violation():
    m = model_of(BIKE_MODEL)
    (v,) = check_instance(m, bike_instance(26))
    assert v.kind == "multiplicity"
    assert v.subjects == ("b1", "wheel")
    assert str(v) == "multiplicity [b1, wheel]: b1 has 1 parts of type wheel, expected 2..2"


def test_check_attr_domain_violation():
    m = model_of(BIKE_MODEL)
    (v,) = check_instance(m, bike_instance(40, 26))
    assert (v.kind, v.subjects) == ("attr-domain", ("w1", "diam"))
    assert v.message == "diam=40 outside 16..29"


def test_check_missing_and_duplicated_attributes():
    m = model_of(BIKE_MODEL)
    (v,) = check_instance(m, bike_instance(None, 26))
    assert (v.kind, v.subjects, v.message) == (
        "missing-attr",
        ("w1", "diam"),
        "missing value for attribute diam",
    )
    doubled = ConfigInstance(
        individuals=(("b1", "bike"), ("w1", "wheel"), ("w2", "wheel")),
        parents=(("w1", "b1"), ("w2", "b1")),
        values=(("w1", "diam", 16), ("w1", "diam", 17), ("w2", "diam", 16)),
    )
    (v,) = check_instance(m, doubled)
    assert v.kind == "missing-attr"
    assert v.message == "attribute diam defined 2 times, expected once"


def test_check_undeclared_type():
    m = model_of(BIKE_MODEL)
    inst = ConfigInstance(individuals=(("b1", "bike"), ("x1", "saddle")))
    out = check_instance(m, inst)
    assert out[0] == Violation(
        "undeclared-type", ("x1",), "individual x1 has undeclared type saddle"
    )


def test_check_root_violations():
    m = model_of(BIKE_MODEL)
    (v, *_rest) = check_instance(m, ConfigInstance(individuals=(("w1", "wheel"),)))
    assert (v.kind, v.subjects) == ("multiple-roots", ())
    assert v.message == "no root individual of type bike"
    two = check_instance(
        m, ConfigInstance(individuals=(("b1", "bike"), ("b2", "bike")))
    )
    assert any(
        v.kind == "multiple-roots" and v.subjects == ("b2",) and
        v.message == "unexpected unparented individual b2"
        for v in two
    )


def test_check_parent_link_violations():
    m = model_of(BIKE_MODEL)
    dangling = ConfigInstance(
        individuals=(("b1", "bike"),), parents=(("ghost", "b1"),)
    )
    out = check_instance(m, dangling)
    assert any(
        v.kind == "dangling-parent"
        and v.subjects == ("ghost", "b1")
        and v.message == "parent link references unknown individual ghost"
        for v in out
    )
    nested = ConfigInstance(
        individuals=(("b1", "bike"), ("w1", "wheel"), ("w2", "wheel"), ("w3", "wheel")),
        parents=(("w1", "b1"), ("w2", "b1"), ("w3", "w1")),
        values=(("w1", "diam", 16), ("w2", "diam", 16), ("w3", "diam", 16)),
    )
    out = check_instance(m, nested)
    assert any(
        v.kind == "bad-parent-type"
        and v.subjects == ("w3", "w1")
        and v.message == "wheel has no component of type wheel"
        for v in out
    )


def test_check_attr_for_unknown_individual_or_undeclared_attribute():
    m = model_of(BIKE_MODEL)
    inst = ConfigInstance(
        individuals=(("b1", "bike"),),
        values=(("zz", "diam", 16), ("b1", "color", 3)),
    )
    out = [v for v in check_instance(m, inst) if v.kind == "attr-domain"]
    assert [(v.subjects, v.message) for v in out] == [
        (("b1", "color"), "attribute color not declared for type bike"),
        (("zz", "diam"), "value for unknown individual zz"),
    ]


def test_check_violations_sorted_by_kind_then_subjects():
    m = model_of(BIKE_MODEL)
    inst = ConfigInstance(
        individuals=(("b1", "bike"), ("w1", "wheel"), ("x1", "saddle")),
        parents=(("w1", "b1"), ("x1", "b1")),
        values=(("w1", "diam", 99),),
    )
    out = check_instance(m, inst)
    kinds = [v.kind for v in out]
    assert kinds == sorted(kinds, key=VIOLATION_KINDS.index)
    assert kinds[0] == "undeclared-type"


def test_check_constraint_rules():
    src = BIKE_MODEL + ":- inst(X,wheel), val(X,diam,16)."
    m = model_of(src)
    assert check_instance(m, bike_instance(17, 17)) == []
    out = check_instance(m, bike_instance(16, 17))
    assert [str(v) for v in out] == [
        "constraint: violated: :- inst(w1,wheel), val(w1,diam,16)."
    ]


def test_check_constraint_rules_with_derived_predicates():
    src = BIKE_MODEL + (
        "matched :- val(X,diam,16), inst(X,wheel).\n"
        ":- not matched."
    )
    m = model_of(src)
    assert check_instance(m, bike_instance(16, 17)) == []
    out = check_instance(m, bike_instance(17, 17))
    assert [str(v) for v in out] == ["constraint: violated: :- not matched."]


def test_check_constraint_rules_need_unique_model():
    src = BIKE_MODEL + "p :- not q. q :- not p."
    m = model_of(src)
    out = check_instance(m, bike_instance(16, 16))
    assert [str(v) for v in out] == [
        "constraint: constraint rules admit 2 models, expected one"
    ]


def test_check_constraint_rules_on_six_hundred_wheels():
    src = BIKE_MODEL.replace("2,2", "600,600") + ":- inst(X,wheel), val(X,diam,16)."
    diams = [16 if n in (7, 300) else 26 for n in range(1, 601)]
    out = check_instance(model_of(src), bike_instance(*diams))
    assert [str(v) for v in out] == [
        "constraint: violated: :- inst(w300,wheel), val(w300,diam,16).",
        "constraint: violated: :- inst(w7,wheel), val(w7,diam,16).",
    ]


def test_relaxed_violations_allow_partial_instances():
    m = model_of(BIKE_MODEL)
    assert relaxed_violations(m, bike_instance(16)) == []  # one wheel, missing one
    assert relaxed_violations(m, bike_instance(None)) == []  # missing attribute
    assert relaxed_violations(m, EMPTY_INSTANCE) == []  # even the root may be absent
    bad = ConfigInstance(individuals=(("x1", "saddle"),))
    out = relaxed_violations(m, bad)
    assert [v.kind for v in out] == ["undeclared-type", "multiple-roots"]
    assert set(RELAXED_EXEMPT) < set(VIOLATION_KINDS)


def test_value_bounds():
    assert value_bounds(model_of(BIKE_MODEL)) == (16, 29)
    assert value_bounds(model_of("ptype(bike). root(bike).")) == (0, 0)
    wide = model_of(BIKE_MODEL + "attrdom(bike,weight,-5,3).")
    assert value_bounds(wide) == (-5, 29)


# translate ------------------------------------------------------------------------


def test_translate_structure_golden():
    m = model_of(MINI_BIKE)
    text = pretty_print(translate(m, EMPTY_INSTANCE, "founded"))
    lines = text.split("\n")
    assert lines[:4] == [
        "inst(bike1,bike).",
        "in(bike1).",
        "slot(bike1,wheel,1).",
        "slotname(bike1_wheel_1,bike1,wheel,1).",
    ]
    for needed in [
        "in(bike1_wheel_1) :- not out(bike1_wheel_1).",
        "out(bike1_wheel_1) :- not in(bike1_wheel_1).",
        "inst(bike1_wheel_1,wheel) :- in(bike1_wheel_1).",
        "parentOf(bike1_wheel_1,bike1) :- in(bike1_wheel_1).",
        ":- out(bike1_wheel_2), in(bike1).",
        ":- in(bike1_wheel_2), out(bike1_wheel_1).",
        "&in{16..17} =: val(bike1_wheel_1,diam) :- in(bike1_wheel_1).",
        "&in{16..17} =: val(bike1_wheel_2,diam) :- in(bike1_wheel_2).",
    ]:
        assert needed in lines, f"missing: {needed}"


def test_translate_casp_emits_bound_pairs():
    m = model_of(MINI_BIKE)
    text = pretty_print(translate(m, EMPTY_INSTANCE, "casp"))
    assert "&sum{1*val(bike1_wheel_1,diam)} >= 16 :- in(bike1_wheel_1)." in text
    assert "&sum{1*val(bike1_wheel_1,diam)} <= 17 :- in(bike1_wheel_1)." in text
    assert "&in{" not in text


def test_translate_injects_partial_instance():
    m = model_of(MINI_BIKE)
    text = pretty_print(translate(m, bike_instance(16), "founded"))
    assert ":- out(bike1_wheel_1)." in text.split("\n")
    assert ":- not &sum{1*val(bike1_wheel_1,diam)} = 16." in text.split("\n")


def test_translate_emits_val_bridge_only_with_constraints():
    plain = model_of(MINI_BIKE)
    assert "val(bike1_wheel_1,diam,16)" not in pretty_print(
        translate(plain, EMPTY_INSTANCE, "founded")
    )
    constrained = model_of(MINI_BIKE + ":- inst(X,wheel), val(X,diam,16).")
    text = pretty_print(translate(constrained, EMPTY_INSTANCE, "founded"))
    assert (
        "val(bike1_wheel_1,diam,16) :- in(bike1_wheel_1), "
        "&sum{1*val(bike1_wheel_1,diam)} = 16." in text.split("\n")
    )
    assert text.rstrip().endswith(":- inst(X,wheel), val(X,diam,16).")


@pytest.mark.parametrize("mode", ["casp", "founded"])
def test_translate_output_is_wellformed(mode):
    constrained = model_of(MINI_BIKE + ":- inst(X,wheel), val(X,diam,16).")
    program = translate(constrained, bike_instance(16), mode)
    assert check_wellformed(program) == []


def test_translate_solves_no_constraint_rules(monkeypatch):
    calls = []
    solver = htsolve.configkit.stable_models_bool
    monkeypatch.setattr(htsolve.configkit, "stable_models_bool",
                        lambda *args: calls.append(args) or solver(*args))
    constrained = model_of(MINI_BIKE + ":- inst(X,wheel), val(X,diam,16).")
    translate(constrained, bike_instance(16), "founded")  # violates the rule
    assert calls == []
    (v,) = check_instance(constrained, bike_instance(16, 17))
    assert v.kind == "constraint" and len(calls) == 1


def test_translate_zero_max_edge_has_no_slots():
    m = model_of(BIKE_MODEL + "ptype(bell). subpart(bike,bell,0,0).")
    text = pretty_print(translate(m, EMPTY_INSTANCE, "founded"))
    assert "bell" not in text


def test_translate_argument_validation():
    m = model_of(MINI_BIKE)
    with pytest.raises(ValueError, match="unknown mode"):
        translate(m, EMPTY_INSTANCE, "weird")
    with pytest.raises(ValueError, match="partial instance rejected"):
        translate(m, ConfigInstance(individuals=(("x1", "saddle"),)), "founded")


def test_injection_errors():
    m = model_of(MINI_BIKE)
    crowded = ConfigInstance(
        individuals=(("b1", "bike"), ("w1", "wheel"), ("w2", "wheel"), ("w3", "wheel")),
        parents=(("w1", "b1"), ("w2", "b1"), ("w3", "b1")),
    )
    with pytest.raises(ValueError, match="at most 2"):
        translate(m, crowded, "founded")
    with pytest.raises(ValueError, match="no root individual to anchor"):
        _inject(m, ConfigInstance(individuals=(("w1", "wheel"),)))
    stray = ConfigInstance(individuals=(("b1", "bike"), ("w9", "wheel")))
    with pytest.raises(ValueError, match="unreachable from the root"):
        _inject(m, stray)


def test_structure_minted_id_collision():
    m = model_of(
        "ptype(a). ptype(b). ptype(c). ptype(b_1_c). root(a). "
        "subpart(a,b,0,1). subpart(b,c,0,1). subpart(a,b_1_c,0,1)."
    )
    with pytest.raises(ValueError, match="minted id collision: a1_b_1_c_1"):
        _structure(m)


# decode + full round trip -----------------------------------------------------------


def _solved_instances(m: ConfigModel, partial: ConfigInstance, mode: str) -> set:
    program = translate(m, partial, mode)
    g = ground(program)
    answers = solve(g, mode, value_bounds(m))
    return {decode_instance(ans) for ans in answers}


def test_round_trip_full_enumeration():
    m = model_of(MINI_BIKE)
    decoded = _solved_instances(m, EMPTY_INSTANCE, "founded")
    wanted = {
        ConfigInstance(
            individuals=(("bike1", "bike"), ("bike1_wheel_1", "wheel"), ("bike1_wheel_2", "wheel")),
            parents=(("bike1_wheel_1", "bike1"), ("bike1_wheel_2", "bike1")),
            values=(
                ("bike1_wheel_1", "diam", d1),
                ("bike1_wheel_2", "diam", d2),
            ),
        )
        for d1 in (16, 17)
        for d2 in (16, 17)
    }
    assert decoded == wanted
    for inst in decoded:
        assert check_instance(m, inst) == []


def test_round_trip_partial_restricts_answers():
    m = model_of(MINI_BIKE)
    decoded = _solved_instances(m, bike_instance(16), "founded")
    assert len(decoded) == 2
    first_wheel = {
        v for inst in decoded for v in inst.values if v[0] == "bike1_wheel_1"
    }
    assert first_wheel == {("bike1_wheel_1", "diam", 16)}
    for inst in decoded:
        assert check_instance(m, inst) == []


def test_round_trip_modes_agree():
    m = model_of(MINI_BIKE)
    assert _solved_instances(m, EMPTY_INSTANCE, "founded") == _solved_instances(
        m, EMPTY_INSTANCE, "casp"
    )


def test_round_trip_respects_constraints():
    m = model_of(MINI_BIKE + ":- inst(X,wheel), val(X,diam,16).")
    decoded = _solved_instances(m, EMPTY_INSTANCE, "founded")
    diams = {v[2] for inst in decoded for v in inst.values}
    assert diams == {17} and len(decoded) == 1
    for inst in decoded:
        assert check_instance(m, inst) == []


def test_round_trip_optional_part():
    m = model_of(
        "ptype(bike). root(bike). ptype(light). subpart(bike,light,0,1). "
        "attrdom(light,lum,1,2)."
    )
    decoded = _solved_instances(m, EMPTY_INSTANCE, "founded")
    # either no light, or one light with lum 1 or 2
    assert len(decoded) == 3
    sizes = sorted(len(inst.individuals) for inst in decoded)
    assert sizes == [1, 2, 2]
    for inst in decoded:
        assert check_instance(m, inst) == []


def test_decode_ignores_values_of_excluded_slots():
    from htsolve import AnswerSet, Atom, FuncTerm, SymConst, Valuation

    answer = AnswerSet(
        frozenset({Atom("inst", (SymConst("b1"), SymConst("bike")))}),
        Valuation.of(
            {
                FuncTerm("val", (SymConst("b1"), SymConst("weight"))): 3,
                FuncTerm("val", (SymConst("ghost"), SymConst("weight"))): 9,
            }
        ),
    )
    inst = decode_instance(answer)
    assert inst == ConfigInstance(
        individuals=(("b1", "bike"),), values=(("b1", "weight", 3),)
    )


SINGLE_WHEEL = (
    "ptype(bike). root(bike). ptype(wheel). subpart(bike,wheel,1,1). "
    "attrdom(wheel,diam,16,16). "
)


def test_constraint_rule_deriving_an_undecodable_instance_fact_is_rejected():
    # load_model used to accept this rule; decode_instance then read the
    # individual ('w9', None) and check_instance crashed grounding it
    out = model_diags(SINGLE_WHEEL + "inst(w9,3) :- inst(X,wheel).")
    assert [(d.rule_index, d.message) for d in out] == [(5, "inst expects (id, type)")]


def test_decode_names_an_atom_a_variable_made_undecodable():
    m = model_of(SINGLE_WHEEL + "num(3). inst(w9,N) :- inst(X,wheel), num(N).")
    (answer,) = solve(ground(translate(m, EMPTY_INSTANCE, "casp")), "casp", value_bounds(m))
    with pytest.raises(ValueError, match=r"cannot decode inst\(w9,3\): inst expects \(id, type\)"):
        decode_instance(answer)


def test_model_predicates_are_stable():
    assert MODEL_PREDICATES == ("ptype", "root", "subpart", "attrdom")


# configuration differential ---------------------------------------------------------


def _draw_model(rng: random.Random) -> ConfigModel:
    """A random partonomy: 2-4 part types in a tree under the root, max <= 3
    and at most 6 minted slots, at least one edge with min >= 1 and max > min,
    attributes of 1-2 values on some types, sometimes one constraint rule."""
    while True:
        types = ["car", "a", "b", "c"][: rng.randint(2, 4)]
        edges = []
        for i, child in enumerate(types[1:], start=1):
            mx = rng.randint(1, 3)
            edges.append((types[rng.randrange(i)], child, rng.randint(0, mx), mx))

        def slots(ident, ptype):
            """(id, type, whether some instance leaves it out) per slot under ident."""
            return [s for p, c, mn, mx in edges if p == ptype for k in range(1, mx + 1)
                    for s in [(f"{ident}_{c}_{k}", c, k > mn), *slots(f"{ident}_{c}_{k}", c)]]

        minted = slots("car1", "car")
        if len(minted) <= 6 and any(1 <= mn < mx for *_, mn, mx in edges):
            break
    facts = [f"ptype({t})." for t in types] + ["root(car)."]
    facts += [f"subpart({p},{c},{mn},{mx})." for p, c, mn, mx in edges]
    for t in types:
        if rng.random() < 0.5:
            lo = rng.randint(0, 1)
            facts.append(f"attrdom({t},w,{lo},{lo + rng.randint(0, 1)}).")
    if rng.random() < 0.4:  # one that only some instances break
        sid, t, _ = rng.choice([s for s in minted if s[2]])
        facts.append(rng.choice(
            [f":- inst({sid},{t}).", f":- parentOf({sid},Y)."]
            + [f":- inst(X,{c}), parentOf(X,Y), inst(Y,{p})." for p, c, mn, _ in edges if not mn]
        ))
    return model_of(" ".join(facts))


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


def _minimum_rules(program: Program) -> list:
    """The texts of translate's minimum constraints, ":- out(slot), in(parent)."."""
    return [
        str(r) for r in program.rules
        if r.head == FALSITY and [(lit.positive, lit.atom.predicate) for lit in r.body]
        == [(True, "out"), (True, "in")]
    ]


def test_translate_emits_one_minimum_constraint_per_parent_slot_and_edge():
    rng = random.Random(2121)
    for _ in range(40):
        m = _draw_model(rng)
        minted = {(ident, ptype) for tree in _subtrees(m, "car1", "car", None)
                  for ident, ptype, _ in tree}
        wanted = sorted(
            f":- out({ident}_{child}_{mn}), in({ident})."
            for ident, ptype in minted for _, child, mn, _mx in m.edges_from(ptype) if mn
        )
        assert sorted(_minimum_rules(translate(m, EMPTY_INSTANCE, "founded"))) == wanted
    wide = model_of("ptype(bike). root(bike). ptype(wheel). subpart(bike,wheel,8,16).")
    program = translate(wide, EMPTY_INSTANCE, "founded")
    assert len(program.rules) <= 120
    assert _minimum_rules(program) == [":- out(bike1_wheel_8), in(bike1)."]
    assert len(solve(ground(program), "founded", value_bounds(wide))) == 9
    backwards = ConfigModel(("bike", "wheel"), "bike", (("bike", "wheel", 3, 2),), ())
    with pytest.raises(ValueError, match=r"subpart\(bike,wheel\): min 3 exceeds max 2"):
        translate(backwards, EMPTY_INSTANCE, "founded")


def _solved(m: ConfigModel, mode: str, engine: str = "oracle") -> tuple:
    """The decoded instances of translate -> ground -> solve, and the answer count."""
    answers = solve(ground(translate(m, EMPTY_INSTANCE, mode)), mode, value_bounds(m), engine)
    return {decode_instance(a) for a in answers}, len(answers)


def test_config_differential_against_the_instance_reference():
    rng = random.Random(2121)
    bike = model_of(MINI_BIKE.replace("16,17", "1,2") + "ptype(bag). subpart(bike,bag,0,1). "
                    "attrdom(bag,vol,1,3).")
    reference = _reference(bike)
    assert (len(reference), sum(reference.values())) == (16, 24)
    constrained = 0
    for m in [bike] + [_draw_model(rng) for _ in range(40)]:
        reference = _reference(m)
        casp = (set(reference), sum(reference.values()))
        assert _solved(m, "founded") == (set(reference), len(reference)), m
        assert _solved(m, "casp") == casp, m
        if m.constraints:
            constrained += 1
        else:  # the val/3 bridge a constraint rule brings is slow on search
            assert _solved(m, "casp", "search") == casp, m
    assert constrained

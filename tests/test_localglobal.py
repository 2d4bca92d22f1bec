"""Separation and gluing across coverings, from literal to stateless."""

import dataclasses
import itertools

import pytest

import randgen as rg
from randgen import extend_section_alphabet
from site_oracle import per_input_covering
from sheafmealy import (
    CheckerError,
    IncompatibleFamily,
    NotStateless,
    ObstructionReport,
    Section,
    StatelessSectionReport,
    behavioral_equiv,
    check_cogerm_witness,
    check_separation,
    cogerm_equiv,
    covering,
    glue_behavioral,
    glue_cogerm,
    glue_stateless,
    glue_strict,
    identity_judge,
    is_j_full,
    judge,
    judged_section,
    make_system,
    overlap_patch,
    restrict_section,
    restricted_interface,
    search_bounded_behavioral_glue,
    section,
    stateless_ri_section,
    subsystem,
    validate_section,
)
from sheafmealy import fixtures as fx
from sheafmealy.systems import Covering, identity_patch, morphism


# --------------------------------------------------- separation: behavioral

def _partial_range_pair(rng):
    """Two valid sections of a partial-input patch source that can differ
    behaviorally over the full judged alphabet: a restriction of a global
    section, and its range-narrowed recompletion."""
    system, jdg, sec = rg.rand_explained_system(rng, max_states=4,
                                                max_machine_states=2)
    if len(jdg.interp_inputs) < 2:
        return None
    p = rg.rand_input_split_covering(rng, system).patches[0]
    local = restrict_section(sec, p)
    ri = restricted_interface(jdg, local.patch)
    if set(ri) == set(jdg.interp_inputs):
        return None
    redone = extend_section_alphabet(jdg, _narrow(local, ri, jdg))
    return jdg, local, redone


def _narrow(local, ri_alphabet, jdg):
    mach = local.explanatory
    dyn = {
        (s, c): mach.transition(s, c)
        for s in mach.before
        for c in ri_alphabet
    }
    outs = sorted({o for (_, o) in dyn.values()} | set(mach.outputs))
    narrow = make_system(mach.before, mach.after, sorted(ri_alphabet), outs, dyn)
    src = local.patch.source
    psi = morphism(src, narrow,
                   {s: local.psi.map_b(s) for s in src.before},
                   {s: local.psi.map_a(s) for s in src.after},
                   {c: local.psi.map_i(c) for c in src.inputs},
                   {o: local.psi.map_o(o) for o in src.outputs})
    return section(local.patch, narrow, psi)


def test_beh_separation_pointwise_random(rng):
    """Behavioral comparison is pointwise on before-states, so over a
    data-local covering the patchwise verdicts determine the global one
    exactly, in both directions."""
    vio = 0
    unequal_seen = 0
    equal_seen = 0
    for _ in range(500):
        if rng.random() < 0.5:
            system, jdg, cov, s, t = rg.rand_section_pair(rng)
        else:
            got = _partial_range_pair(rng)
            if got is None:
                continue
            jdg, s, t = got
            cov = rg.rand_data_local_covering(rng, s.patch.source)
        rep = check_separation("beh", cov, s, t, jdg)
        if rep.separation_violated:
            vio += 1
        assert rep.globally_equal == all(rep.locally_equal)
        if rep.globally_equal:
            equal_seen += 1
        else:
            unequal_seen += 1
    assert vio == 0
    assert equal_seen > 0 and unequal_seen > 0


def test_ri_separation_jfull_random(rng):
    """Over j-full coverings the range-restricted comparison cannot be
    violated: each patch already sees the whole judged range."""
    for _ in range(200):
        system, jdg, cov, s, t = rg.rand_section_pair(rng)
        assert is_j_full(cov, jdg)
        rep = check_separation("ri", cov, s, t, jdg)
        assert not rep.separation_violated
        assert rep.globally_equal == all(rep.locally_equal)


def test_ri_separation_fixture_violation():
    f = fx.ri_separation_objects()
    assert not is_j_full(f.covering, f.judge)
    rep = check_separation("ri", f.covering, f.sections[0], f.sections[1], f.judge)
    assert rep.locally_equal == (True, True)
    assert not rep.globally_equal
    assert rep.separation_violated
    assert rep.global_witness == ("s1", ("a", "b"))
    ob = rep.obstruction
    assert ob is not None and ob.kind == "separation"
    assert ob.site == ("s1",) and ob.word == ("a", "b")
    runs = set()
    for forced in ob.forced:
        assert forced.machine.run(forced.state, ob.word) == forced.outputs
        runs.add(forced.outputs)
    assert len(runs) == 2
    # The same pair over the full alphabet is not even locally equal, so no
    # violation is reported there.
    rep2 = check_separation("beh", f.covering, f.sections[0], f.sections[1], f.judge)
    assert not all(rep2.locally_equal)
    assert not rep2.separation_violated


def test_cogerm_separation_fixture_violation():
    f = fx.extra_states_objects()
    rep = check_separation("cogerm", f.covering, f.sections[0], f.sections[1],
                           f.judge)
    assert rep.locally_equal == (True, True)
    assert not rep.globally_equal
    assert rep.separation_violated
    assert rep.obstruction is not None
    assert rep.obstruction.word is None
    assert "no common core" in rep.obstruction.narrative
    # The same pair is behaviorally equal, locally and globally.
    rep2 = check_separation("beh", f.covering, f.sections[0], f.sections[1],
                            f.judge)
    assert all(rep2.locally_equal) and rep2.globally_equal
    assert not rep2.separation_violated


def test_strict_separation_kind():
    f = fx.jfull_pair_objects()
    s, t = f.sections
    rep = check_separation("strict", f.covering, s, s, f.judge)
    assert all(rep.locally_equal) and rep.globally_equal
    assert not rep.separation_violated
    # A decorated copy differs as a literal object on every patch already.
    rep2 = check_separation("strict", f.covering, s, t, f.judge)
    assert not any(rep2.locally_equal)
    assert not rep2.separation_violated


def test_separation_rejects_bad_arguments():
    f = fx.ri_separation_objects()
    with pytest.raises(CheckerError):
        check_separation("word", f.covering, f.sections[0], f.sections[1], f.judge)
    other = fx.extra_states_objects()
    with pytest.raises(CheckerError):
        check_separation("beh", f.covering, other.sections[0], other.sections[1],
                         other.judge)


# --------------------------------------------------------- gluing: cogerm

def test_glue_cogerm_roundtrip_random(rng):
    for _ in range(200):
        system, jdg, cov, locals_, sec = rg.rand_cogerm_family(rng)
        glued = glue_cogerm(cov, locals_, jdg)
        assert validate_section(jdg, glued).ok
        for p, local in zip(cov.patches, locals_):
            back = restrict_section(glued, p)
            w = cogerm_equiv(back, local)
            assert w is not None
            ok, reason = check_cogerm_witness(back, local, w)
            assert ok, reason


def test_glue_cogerm_single_patch_returns_local(rng):
    system, jdg, sec = rg.rand_explained_system(rng)
    cov = covering(system, [subsystem(system)])
    glued = glue_cogerm(cov, [sec], jdg)
    assert glued.explanatory == sec.explanatory
    assert glued.psi == sec.psi


def _fixed_point_pair():
    es = make_system(
        ["v", "w"], ["v", "w"], ["i"], ["0"],
        {("v", "i"): ("v", "0"), ("w", "i"): ("w", "0")},
    )
    j = identity_judge(es)
    c = covering(es, [subsystem(es, before=["v"], after=["v"]),
                      subsystem(es, before=["w"], after=["w"])])
    return es, j, c


def test_glue_cogerm_disjoint_patches_disjoint_union():
    es, j, c = _fixed_point_pair()
    m_a = make_system(["a0"], ["a0"], ["i"], ["0"], {("a0", "i"): ("a0", "0")})
    m_b = make_system(["b0"], ["b0"], ["i"], ["0"], {("b0", "i"): ("b0", "0")})
    s_a = section(c.patches[0], m_a,
                  morphism(c.patches[0].source, m_a, {"v": "a0"}, {"v": "a0"},
                           {"i": "i"}, {"0": "0"}))
    s_b = section(c.patches[1], m_b,
                  morphism(c.patches[1].source, m_b, {"w": "b0"}, {"w": "b0"},
                           {"i": "i"}, {"0": "0"}))
    glued = glue_cogerm(c, [s_a, s_b], j)
    assert sorted(glued.explanatory.before) == ["a0", "b0"]
    assert glued.psi.map_b("v") == "a0" and glued.psi.map_b("w") == "b0"


def _overlapping_hand_family():
    """Four states falling into a shared sink: two overlapping patches with
    isomorphic two-state locals whose overlap pins a one-state core."""
    sys4 = make_system(
        ["z0", "z1", "z2", "z3"], ["z0", "z1", "z2", "z3"], ["i"], ["0", "1"],
        {
            ("z0", "i"): ("z1", "0"),
            ("z1", "i"): ("z1", "1"),
            ("z2", "i"): ("z1", "0"),
            ("z3", "i"): ("z1", "0"),
        },
    )
    j = identity_judge(sys4)
    p1 = subsystem(sys4, before=["z0", "z1"], after=["z0", "z1"])
    p2 = subsystem(sys4, before=["z1", "z2", "z3"], after=["z1", "z2", "z3"])
    c = covering(sys4, [p1, p2])
    m1 = make_system(["a", "b"], ["a", "b"], ["i"], ["0", "1"],
                     {("a", "i"): ("b", "0"), ("b", "i"): ("b", "1")})
    m2 = make_system(["c", "d"], ["c", "d"], ["i"], ["0", "1"],
                     {("c", "i"): ("d", "0"), ("d", "i"): ("d", "1")})
    s1 = section(p1, m1, morphism(p1.source, m1,
                                  {"z0": "a", "z1": "b"},
                                  {"z0": "a", "z1": "b"},
                                  {"i": "i"}, {"0": "0", "1": "1"}))
    s2 = section(p2, m2, morphism(p2.source, m2,
                                  {"z1": "d", "z2": "c", "z3": "c"},
                                  {"z1": "d", "z2": "c", "z3": "c"},
                                  {"i": "i"}, {"0": "0", "1": "1"}))
    return sys4, j, c, [s1, s2]


def test_glue_cogerm_shared_core_instance():
    sys4, j, c, locals_ = _overlapping_hand_family()
    glued = glue_cogerm(c, locals_, j)
    assert len(glued.explanatory.before) == 3
    for p, local in zip(c.patches, locals_):
        assert cogerm_equiv(restrict_section(glued, p), local) is not None


def _off_range_conflict_family():
    """Two input-split patches whose locals disagree off their own ranges.
    Each local is valid on its patch; the full-alphabet overlap comparison
    sees the conflict."""
    sysu = make_system(["u"], ["u"], ["a", "b"], ["0", "1"],
                       {("u", "a"): ("u", "0"), ("u", "b"): ("u", "1")})
    j = identity_judge(sysu)
    p_a = subsystem(sysu, inputs=["a"])
    p_b = subsystem(sysu, inputs=["b"])
    c = covering(sysu, [p_a, p_b])
    m1 = make_system(["m"], ["m"], ["a", "b"], ["0", "1"],
                     {("m", "a"): ("m", "0"), ("m", "b"): ("m", "0")})
    m2 = make_system(["n"], ["n"], ["a", "b"], ["0", "1"],
                     {("n", "a"): ("n", "1"), ("n", "b"): ("n", "1")})
    s_a = section(p_a, m1, morphism(p_a.source, m1, {"u": "m"}, {"u": "m"},
                                    {"a": "a"}, {"0": "0", "1": "1"}))
    s_b = section(p_b, m2, morphism(p_b.source, m2, {"u": "n"}, {"u": "n"},
                                    {"b": "b"}, {"0": "0", "1": "1"}))
    return sysu, j, c, [s_a, s_b]


def test_glue_cogerm_rejects_incompatible_overlap():
    sysu, j, c, locals_ = _off_range_conflict_family()
    for k, s in enumerate(locals_):
        assert validate_section(j, s).ok
    with pytest.raises(IncompatibleFamily):
        glue_cogerm(c, locals_, j)


# ----------------------------------------------------- gluing: behavioral

def test_glue_behavioral_obstruction_fixture():
    f = fx.beh_gluing_objects()
    got = glue_behavioral(f.covering, list(f.sections), f.judge)
    assert isinstance(got, ObstructionReport)
    assert got.kind == "behavioral-gluing"
    assert got.site == ("s2",)
    assert got.word == (fx.DOT,)
    outs = []
    for forced in got.forced:
        assert forced.machine.run(forced.state, got.word) == forced.outputs
        outs.append(forced.outputs)
    assert sorted(outs) == [("0",), ("1",)]
    assert "s2" in got.narrative


def test_glue_behavioral_repaired_fixture():
    f = fx.beh_gluing_objects(repaired=True)
    got = glue_behavioral(f.covering, list(f.sections), f.judge)
    assert isinstance(got, Section)
    assert len(got.explanatory.before) == 2
    assert validate_section(f.judge, got).ok
    for p, local in zip(f.covering.patches, f.sections):
        assert behavioral_equiv(restrict_section(got, p), local,
                                f.judge.interp_inputs).ok


def test_glue_behavioral_roundtrip_random(rng):
    for _ in range(200):
        system, jdg, sec = rg.rand_explained_system(rng)
        cov = rg.rand_covering(rng, system)
        locals_ = [rg.mutate_section(rng, restrict_section(sec, p), f"g{k}")
                   for k, p in enumerate(cov.patches)]
        got = glue_behavioral(cov, locals_, jdg)
        assert isinstance(got, Section)
        assert validate_section(jdg, got).ok
        for p, local in zip(cov.patches, locals_):
            assert behavioral_equiv(restrict_section(got, p), local,
                                    jdg.interp_inputs).ok


def test_glue_behavioral_rejects_incompatible_overlap():
    sysu, j, c, locals_ = _off_range_conflict_family()
    with pytest.raises(IncompatibleFamily):
        glue_behavioral(c, locals_, j)


def test_glue_behavioral_single_identity_patch(rng):
    system, jdg, sec = rg.rand_explained_system(rng)
    cov = covering(system, [subsystem(system)])
    got = glue_behavioral(cov, [sec], jdg)
    assert isinstance(got, Section)
    assert behavioral_equiv(got, sec, jdg.interp_inputs).ok


def test_glue_behavioral_names_the_step_a_covering_misses():
    """A patch that sees input a only leaves the step at (s1, b) to its
    machine, which emits 1 where the system emits 0.  Outside the covering
    nothing forces the pooled class, so both behavioral gluers refuse the
    family the way the covering check words it."""
    c, j, locals_ = rg.uncovered_step_family()
    assert validate_section(j, locals_[0]).ok
    for glue in (glue_behavioral, search_bounded_behavioral_glue):
        with pytest.raises(CheckerError) as exc:
            glue(c, locals_, j)
        assert type(exc.value) is CheckerError
        assert str(exc.value) == "family covering leaves ('s1', 'b') uncovered on the before side"


@pytest.mark.parametrize("on_b", ["0", "1"])
def test_every_section_checker_refuses_a_family_that_is_no_covering(on_b):
    """One state under inputs a and b, and one patch that sees a only: its
    local section is valid whatever its machine emits on b, and every
    section checker refuses the family in the covering check's words."""
    system = make_system(["s0"], ["s0"], ["a", "b"], ["0", "1"],
                         {("s0", "a"): ("s0", "0"), ("s0", "b"): ("s0", "0")})
    j = identity_judge(system)
    patch = subsystem(system, inputs=["a"])
    machine = make_system(["m"], ["m"], ["a", "b"], ["0", "1"],
                          {("m", "a"): ("m", "0"), ("m", "b"): ("m", on_b)})
    local = judged_section(patch, machine, j, {"s0": "m"}, {"s0": "m"})
    assert validate_section(j, local).ok
    c = covering(system, [patch])
    whole = judged_section(identity_patch(system), system, j, {"s0": "s0"}, {"s0": "s0"})
    calls = [(glue, (c, [local], j)) for glue in (glue_strict, glue_behavioral, glue_cogerm)]
    calls += [(check_separation, (kind, c, whole, whole, j))
              for kind in ("strict", "cogerm", "beh", "ri")]
    for check, args in calls:
        with pytest.raises(CheckerError) as exc:
            check(*args)
        assert type(exc.value) is CheckerError
        assert str(exc.value) == "family covering leaves ('s0', 'b') uncovered on the before side"


def test_section_checkers_refuse_a_family_in_one_order():
    """Each refusal of a family, and what it takes precedence over: the
    family's length and placement come before the covering, which comes
    before the sections' validity, their interface and their agreement on
    overlaps."""
    j, whole, c, family, narrow, broken = rg.input_split_family()
    system = c.target
    assert validate_section(j, narrow).ok and not validate_section(j, broken).ok
    only_a = covering(system, [c.patches[0]])
    half = covering(system, [subsystem(system, before=["s0"], after=["s0", "s1"])])
    inc_c, inc_j, disagreeing = rg.uncovered_incompatible_family()
    gluers = (glue_strict, glue_behavioral, glue_cogerm)
    refusals = [
        (gluers, c, family[:1], j, "one section per covering patch is required"),
        (gluers, c, family[::-1], j, "section 0 does not sit on covering patch 0"),
        (gluers, only_a, [broken], j,
         "family covering leaves ('s0', 'b') uncovered on the before side"),
        (gluers, inc_c, disagreeing, inc_j,
         "family covering leaves ('s1', 'b') uncovered on the before side"),
        (gluers, half, [restrict_section(whole, half.patches[0])], j,
         "covering leaves states unexplained: ['s1']"),
        (gluers, c, [broken, family[1]], j,
         "local section 0 invalid: psi does not commute with the dynamics"),
        (gluers[1:], c, [narrow, family[1]], j,
         "local machine 0 is not on the full interpretable interface"),
    ]
    for checks, cov, secs, jdg, message in refusals:
        for glue in checks:
            with pytest.raises(CheckerError) as exc:
                glue(cov, secs, jdg)
            assert type(exc.value) is CheckerError
            assert str(exc.value) == message
    got = glue_strict(c, [narrow, family[1]], j)
    assert got.conflict == "patch 1 explains with a different machine"
    with pytest.raises(CheckerError, match=r"^covering leaves states unexplained: \['s1'\]$"):
        check_separation("beh", half, whole, whole, j)


def test_bounded_search_confirms_fixture_obstruction():
    f = fx.beh_gluing_objects()
    for bound in (4, 12):
        assert search_bounded_behavioral_glue(f.covering, list(f.sections), f.judge,
                                              max_states=bound) is None
    r = fx.beh_gluing_objects(repaired=True)
    found = search_bounded_behavioral_glue(r.covering, list(r.sections), r.judge,
                                           max_states=4)
    assert isinstance(found, Section)
    assert validate_section(r.judge, found).ok
    assert search_bounded_behavioral_glue(r.covering, list(r.sections), r.judge,
                                          max_states=1) is None
    least = search_bounded_behavioral_glue(r.covering, list(r.sections), r.judge,
                                           max_states=2)
    assert len(least.explanatory.before) == 2
    assert validate_section(r.judge, least).ok


# --------------------------------------------------------- gluing: strict

def test_glue_strict_roundtrip_and_conflict(rng):
    for _ in range(100):
        system, jdg, sec = rg.rand_explained_system(rng)
        cov = rg.rand_covering(rng, system)
        locals_ = [restrict_section(sec, p) for p in cov.patches]
        got = glue_strict(cov, locals_, jdg)
        assert got.conflict is None
        assert got.section.explanatory == sec.explanatory
        assert got.section.psi == sec.psi
        if len(locals_) > 1:
            renamed = rg.iso_rename(rng, locals_[0], "sg")
            bad = glue_strict(cov, [renamed, *locals_[1:]], jdg)
            assert bad.section is None
            assert "different machine" in bad.conflict


def test_glue_strict_names_the_state_where_patches_conflict():
    """Two self-looping states explained by one two-state machine: a patch
    that sends a state, or only its after copy, elsewhere than the whole
    system's section does is a conflict named at that state, and a family
    that misses a state is refused."""
    system = make_system(["s0", "s1"], ["s0", "s1"], ["a"], ["0"],
                         {("s0", "a"): ("s0", "0"), ("s1", "a"): ("s1", "0")})
    machine = make_system(["p", "q"], ["p", "q"], ["a"], ["0"],
                          {("p", "a"): ("p", "0"), ("q", "a"): ("q", "0")})
    j = identity_judge(system)
    whole = subsystem(system)
    to_p = {"s0": "p", "s1": "p"}
    first = judged_section(whole, machine, j, to_p, to_p)
    for before, expected in ((["s0"], "state 's0'"), ([], "after-state 's0'")):
        patch = subsystem(system, before=before, after=["s0"])
        psi_b = {s: "q" for s in before}
        second = judged_section(patch, machine, j, psi_b, {"s0": "q"})
        got = glue_strict(covering(system, [whole, patch]), [first, second], j)
        assert got.section is None
        assert got.conflict == f"patches assign different images to {expected}"
    patch = subsystem(system, before=["s0"], after=["s0"])
    alone = judged_section(patch, machine, j, {"s0": "q"}, {"s0": "q"})
    with pytest.raises(CheckerError, match=r"covering leaves states unexplained: \['s1', 's1'\]"):
        glue_strict(covering(system, [patch]), [alone], j)


# ------------------------------------------------------ stateless sections

def _stateless_system(table):
    """Single-state system from {raw input: raw output}."""
    inputs = sorted(table)
    outputs = sorted(set(table.values()))
    dyn = {("s", c): ("s", table[c]) for c in inputs}
    return make_system(["s"], ["s"], inputs, outputs, dyn)


def test_stateless_ri_section_cases():
    # Injective judged inputs: fibers are singletons, a section always exists.
    sys1 = _stateless_system({"x": "0", "y": "1"})
    j1 = judge({"x": "X", "y": "Y"}, {"0": "o0", "1": "o1"})
    rep = stateless_ri_section(subsystem(sys1), j1)
    assert rep.ok and dict(rep.assignment) == {"X": "o0", "Y": "o1"}

    # A collapsed fiber with two outputs has no stateless explanation.
    sys2 = _stateless_system({"a": "0", "b": "1"})
    j2 = judge({"a": "A", "b": "A"}, {"0": "o0", "1": "o1"})
    rep2 = stateless_ri_section(subsystem(sys2), j2)
    assert not rep2.ok
    assert rep2.violation == ("A", "a", "o0", "b", "o1")
    # Cut down to one input of the fiber, the conflict disappears.
    rep3 = stateless_ri_section(subsystem(sys2, inputs=["a"]), j2)
    assert rep3.ok and dict(rep3.assignment) == {"A": "o0"}

    # Two fibers, outputs constant on each: the induced map is explicit.
    sys3 = _stateless_system({"a": "0", "b": "0", "c": "1"})
    j3 = judge({"a": "A", "b": "A", "c": "B"}, {"0": "o0", "1": "o1"})
    rep4 = stateless_ri_section(subsystem(sys3), j3)
    assert rep4.ok and dict(rep4.assignment) == {"A": "o0", "B": "o1"}

    two = make_system(["s", "t"], ["s", "t"], ["a"], ["0"],
                      {("s", "a"): ("t", "0"), ("t", "a"): ("s", "0")})
    with pytest.raises(NotStateless):
        stateless_ri_section(subsystem(two), identity_judge(two))


def test_stateless_ri_section_of_a_patch_without_states_is_empty():
    """A patch with no before-states forces no judged output: its stateless
    explanation exists and assigns nothing."""
    system = _stateless_system({"a": "0", "b": "1"})
    j = judge({"a": "A", "b": "A"}, {"0": "o0", "1": "o1"})
    for patch in (subsystem(system, before=[]), subsystem(system, before=[], after=[])):
        assert stateless_ri_section(patch, j) == StatelessSectionReport(True, (), None)


def test_glue_stateless_success_and_checks():
    sys3 = _stateless_system({"a": "0", "b": "0", "c": "1"})
    j3 = judge({"a": "A", "b": "A", "c": "B"}, {"0": "o0", "1": "o1"})
    c = covering(sys3, [subsystem(sys3, inputs=["a", "c"]),
                        subsystem(sys3, inputs=["b", "c"])])
    got = glue_stateless(c, j3)
    assert got.ok and dict(got.assignment) == {"A": "o0", "B": "o1"}
    assert got.patch_assignments == ((("A", "o0"), ("B", "o1")), (("A", "o0"), ("B", "o1")))

    # A patch seeing both members of a two-output fiber is incoherent.
    sys2 = _stateless_system({"a": "0", "b": "1"})
    j2 = judge({"a": "A", "b": "A"}, {"0": "o0", "1": "o1"})
    c2 = covering(sys2, [subsystem(sys2)])
    with pytest.raises(IncompatibleFamily):
        glue_stateless(c2, j2)


def test_glue_stateless_cut_fixture():
    cut = fx.two_band_cut_objects()
    got = glue_stateless(cut.covering, cut.judge)
    assert not got.ok
    ob = got.obstruction
    assert ob is not None and ob.kind == "stateless"
    assert ob.site == cut.obstruction.site
    outs = set()
    for forced in ob.forced:
        assert forced.machine.run(forced.state, ob.word) == forced.outputs
        outs.add(forced.outputs)
    assert len(outs) == 2
    # Every patch assignment is the forced stateless explanation of its patch.
    assert got.patch_assignments == cut.assignments
    for p, asg in zip(cut.covering.patches, got.patch_assignments):
        rep = stateless_ri_section(p, cut.judge)
        assert rep.ok and rep.assignment == asg


# ------------------------------------------------- discrete sheaf verdicts

def _discrete_verdicts(system, j):
    """The discrete stateless sheaf verdict, read two ways: gluing the
    forced family over the covering that splits off each input, and the
    stateless section of the whole system.  A failing gluing keeps one
    patch per input, and its forced machines replay."""
    glued = glue_stateless(per_input_covering(system), j)
    if not glued.ok:
        assert len(glued.patch_assignments) == len(system.inputs)
        ob = glued.obstruction
        assert ob.kind == "stateless"
        for forced in ob.forced:
            assert forced.machine.run(forced.state, ob.word) == forced.outputs
    return glued.ok, stateless_ri_section(identity_patch(system), j).ok


def test_discrete_sheaf_check_trivial_cases():
    sys1 = _stateless_system({"x": "0", "y": "1"})
    j1 = judge({"x": "X", "y": "Y"}, {"0": "o0", "1": "o1"})
    assert _discrete_verdicts(sys1, j1) == (True, True)

    # Outputs judged to one value: fibers may collapse freely.
    sys2 = _stateless_system({"a": "0", "b": "1"})
    j_const = judge({"a": "A", "b": "A"}, {"0": "o", "1": "o"})
    assert _discrete_verdicts(sys2, j_const) == (True, True)

    j2 = judge({"a": "A", "b": "A"}, {"0": "o0", "1": "o1"})
    assert _discrete_verdicts(sys2, j2) == (False, False)
    assert glue_stateless(per_input_covering(sys2), j2).obstruction.site == ("A",)

    two = make_system(["s", "t"], ["s", "t"], ["a"], ["0"],
                      {("s", "a"): ("t", "0"), ("t", "a"): ("s", "0")})
    with pytest.raises(NotStateless):
        stateless_ri_section(identity_patch(two), identity_judge(two))

    # No input cap: 13 inputs, one fiber holding two judged outputs.
    wide = _stateless_system({f"i{k:02d}": str(k % 2) for k in range(13)})
    j_wide = judge({c: "A" if c in ("i00", "i01") else c for c in wide.inputs},
                   {"0": "o0", "1": "o1"})
    brute = _brute_force_stateless_sheaf(wide, j_wide, max_patches=1)
    assert not brute
    assert _discrete_verdicts(wide, j_wide) == (brute, brute)


def _brute_force_stateless_sheaf(system, j, max_patches=3):
    """Genuine covering enumeration: all coverings by up to ``max_patches``
    input subsets, plus the all-singletons covering, each patch carrying its
    forced stateless section."""
    inputs = list(system.inputs)
    subsets = []
    for r in range(1, len(inputs) + 1):
        subsets.extend(itertools.combinations(inputs, r))
    families = [
        combo
        for n in range(1, max_patches + 1)
        for combo in itertools.combinations(subsets, n)
        if set().union(*combo) == set(inputs)
    ]
    families.append(tuple((c,) for c in inputs))
    for combo in families:
        patches = [subsystem(system, inputs=list(sub)) for sub in combo]
        cov = Covering(system, tuple(patches))
        if not all(stateless_ri_section(p, j).ok for p in patches):
            continue
        got = glue_stateless(cov, j)
        # The forced family is compatible: two patches agree at every
        # judged input their overlap realizes.
        graphs = [dict(a) for a in got.patch_assignments]
        for a, b in itertools.combinations(range(len(patches)), 2):
            for i_p in restricted_interface(j, overlap_patch(patches[a], patches[b])):
                va, vb = graphs[a].get(i_p), graphs[b].get(i_p)
                assert None in (va, vb) or va == vb
        if not got.ok:
            return False
    return True


def test_discrete_sheaf_check_matches_brute_force(rng):
    agree_sheaf = 0
    agree_not = 0
    for _ in range(60):
        n_in = rng.randint(2, 4)
        inputs = [f"i{k}" for k in range(n_in)]
        j_i = {c: rng.choice(["A", "B"]) for c in inputs}
        table = {c: rng.choice(["0", "1"]) for c in inputs}
        j_o = {"0": rng.choice(["oa", "ob"]), "1": rng.choice(["oa", "ob"])}
        system = _stateless_system(table)
        jdg = judge({c: j_i[c] for c in system.inputs},
                    {o: j_o[o] for o in system.outputs})
        brute = _brute_force_stateless_sheaf(system, jdg)
        assert _discrete_verdicts(system, jdg) == (brute, brute)
        if brute:
            agree_sheaf += 1
        else:
            agree_not += 1
    assert agree_sheaf > 0 and agree_not > 0


# ---------------------------------------------------------- the landscape

def test_landscape_matrix():
    rows = fx.landscape()
    table = {r.presheaf: r for r in rows}
    assert set(table) == {"unquotiented", "cogerm", "behavioral",
                          "restricted-interface", "stateless"}
    assert table["unquotiented"].separation == "yes"
    assert table["unquotiented"].gluing == "yes (sheaf)"
    assert table["cogerm"].separation == "no"
    assert table["cogerm"].gluing == "yes"
    assert table["behavioral"].separation == "yes"
    assert table["behavioral"].gluing == "no"
    assert table["restricted-interface"].separation == "j-full only"
    assert table["restricted-interface"].gluing == "no in general"
    assert table["stateless"].separation == "j-full only"
    assert table["stateless"].gluing == "iff no robust disconnection"
    for row in rows:
        for line, ok in row.evidence:
            assert ok, f"{row.presheaf}: {line}"


def test_landscape_stateless_coverage_evidence_is_computed(monkeypatch):
    # Drop the patch that holds the sample "w": the remaining patch leaves
    # that input uncovered, so the coverage evidence must read False.
    real = fx.two_band_cut_objects()
    assert "w" not in real.covering.patches[0].i_image
    partial = dataclasses.replace(
        real,
        covering=covering(real.system, [real.covering.patches[0]]),
        assignments=real.assignments[:1],
    )
    monkeypatch.setattr(fx, "two_band_cut_objects", lambda: partial)
    row = {r.presheaf: r for r in fx.landscape()}["stateless"]
    assert row.evidence[-1] == (
        "stateless sections agreeing on every patch agree globally here, "
        "since patch inputs jointly cover the raw inputs", False)

"""Explanations: sections, equivalences, minimization, hierarchy maps."""

from __future__ import annotations

import itertools

import pytest

import randgen as rg
from randgen import extend_section_alphabet
from sheafmealy import (
    CheckerError,
    HeterogeneousInput,
    behavioral_equiv,
    check_cogerm_witness,
    cogerm_equiv,
    identity_judge,
    identity_patch,
    is_j_full,
    judge,
    judged_section,
    make_system,
    minimize,
    morphism,
    pooled_behavior,
    restrict_section,
    restricted_interface,
    section,
    subsystem,
    validate_judge,
    validate_section,
)
from sheafmealy.explain import CogermWitness, block_distinguishing_word
from sheafmealy.systems import (
    OpenImmersion,
    SystemMorphism,
    check_morphism,
    compose,
    identity_morphism,
)


# ------------------------------------------------------------- validation

def _refused_section(flaw):
    """A section of the whole system of :func:`randgen.input_split_family`
    by a copy of itself with one flaw, and the judge it is checked under."""
    j, whole, *_ = rg.input_split_family()
    system = whole.explanatory
    dyn = {(s, x): system.transition(s, x) for s in system.before for x in system.inputs}
    ids = {x: x for x in ("s0", "s1", "a", "b", "0", "1")}
    maps = {"b": ids, "a": ids, "i": ids, "o": ids}
    machine = system
    if flaw == "after-states":
        machine = make_system(["s0", "s1"], ["s0", "s1", "t"], ["a", "b"], ["0", "1"], dyn)
    elif flaw == "outputs":
        machine = make_system(["s0", "s1"], ["s0", "s1"], ["a", "b"], ["0", "1", "2"], dyn)
    elif flaw == "inputs":
        machine = make_system(["s0", "s1"], ["s0", "s1"], ["a", "b", "c"], ["0", "1"],
                              {**dyn, ("s0", "c"): ("s0", "0"), ("s1", "c"): ("s1", "0")})
    elif flaw == "input map":
        maps["i"] = {"a": "b", "b": "a"}
    elif flaw == "output map":
        maps["o"] = {"0": "1", "1": "0"}
    else:
        maps["b"] = {"s0": "s1", "s1": "s1"}
    psi = morphism(whole.patch.source, machine, maps["b"], maps["a"], maps["i"], maps["o"])
    return j, section(whole.patch, machine, psi)


@pytest.mark.parametrize("flaw, reason", [
    ("after-states", "explanatory machine is not homogeneous"),
    ("outputs", "explanatory outputs differ from the interpretable outputs"),
    ("inputs", "explanatory inputs are neither the interpretable inputs nor the patch range"),
    ("input map", "input component of psi is not the judged input map"),
    ("output map", "output component of psi is not the judged output map"),
    ("state map", "psi does not commute with the dynamics"),
])
def test_validate_section_names_each_refusal(flaw, reason):
    j, s = _refused_section(flaw)
    rep = validate_section(j, s)
    assert (rep.ok, rep.reason) == (False, reason)


def test_validate_judge_names_the_raw_letter_it_misses():
    system = rg.input_split_family()[1].explanatory
    validate_judge(judge({"a": "a", "b": "b"}, {"0": "0", "1": "1"}), system)
    for j, letter in ((judge({"a": "a"}, {"0": "0", "1": "1"}), "input 'b'"),
                      (judge({"a": "a", "b": "b"}, {"1": "1"}), "output '0'")):
        with pytest.raises(CheckerError, match=f"^judge undefined on {letter}$"):
            validate_judge(j, system)


def _one_state_pair():
    """A one-state machine on ``a`` and ``b``, its patch on ``a`` alone, and
    two sections of that patch: by the machine itself, and by a machine on
    ``a`` alone."""
    whole = make_system(["s"], ["s"], ["a", "b"], ["0"],
                        {("s", "a"): ("s", "0"), ("s", "b"): ("s", "0")})
    narrow = make_system(["q"], ["q"], ["a"], ["0"], {("q", "a"): ("q", "0")})
    j = identity_judge(whole)
    on_a = subsystem(whole, inputs=["a"])
    by_whole = judged_section(on_a, whole, j, {"s": "s"}, {"s": "s"})
    by_narrow = judged_section(on_a, narrow, j, {"s": "q"}, {"s": "q"})
    return whole, narrow, by_whole, by_narrow


@pytest.mark.parametrize("refused, error, text", [
    (lambda w, n, bw, bn: section(identity_patch(w), n, identity_morphism(w)), CheckerError,
     "section morphism must map the patch into the explanatory machine"),
    (lambda w, n, bw, bn: restrict_section(bw, identity_patch(w)), CheckerError,
     "restriction patch must map into the section's patch"),
    (lambda w, n, bw, bn: cogerm_equiv(section(identity_patch(w), w, identity_morphism(w)), bw),
     CheckerError, "core comparison needs sections of one patch"),
    (lambda w, n, bw, bn: cogerm_equiv(bw, bn), CheckerError,
     "core comparison needs matching explanatory interfaces"),
    (lambda *_: minimize(make_system(["s"], ["t"], ["a"], ["0"], {("s", "a"): ("t", "0")})),
     HeterogeneousInput, "minimization is defined for homogeneous machines"),
    (lambda *_: pooled_behavior([], ("a",)), CheckerError,
     "behavior pooling needs at least one machine"),
    (lambda w, n, bw, bn: pooled_behavior([w], ("a", "z")), CheckerError,
     "letter 'z' missing from a pooled machine"),
], ids=["section-into-another-machine", "restrict-along-a-foreign-patch",
        "cores-of-two-patches", "cores-of-two-interfaces", "minimize-heterogeneous",
        "pool-nothing", "pool-a-missing-letter"])
def test_explain_refusals_name_their_cause(refused, error, text):
    with pytest.raises(error) as caught:
        refused(*_one_state_pair())
    assert type(caught.value) is error and str(caught.value) == text


def test_one_class_has_no_distinguishing_word():
    whole = _one_state_pair()[0]
    part = pooled_behavior([whole], whole.inputs)
    assert block_distinguishing_word(part, 0, 0) is None


# ----------------------------------------------------------- functoriality

def _sections_equal(s, t) -> bool:
    return (
        s.explanatory == t.explanatory
        and s.psi == t.psi
        and s.patch.morphism == t.patch.morphism
    )


def test_restriction_functoriality(rng):
    for _ in range(300):
        system, jdg, sec = rg.rand_explained_system(rng)
        n = rg.rand_patch(rng, system)
        middle = restrict_section(sec, n)
        n2 = rg.rand_patch(rng, n.source)
        twice = restrict_section(middle, n2)
        once = restrict_section(
            sec, OpenImmersion(compose(n2.morphism, n.morphism))
        )
        assert _sections_equal(twice, once)


def test_restrictions_validate(rng):
    for _ in range(200):
        system, jdg, sec = rg.rand_explained_system(rng)
        assert validate_section(jdg, sec).ok
        n = rg.rand_patch(rng, system)
        assert validate_section(jdg, restrict_section(sec, n)).ok


# ------------------------------------------------------------ equivalences

def _behavior_oracle(s1, s2, alphabet) -> bool:
    # Exhaustive word search to the bisimulation depth bound.
    m1, m2 = s1.explanatory, s2.explanatory
    depth = len(m1.before) * len(m2.before)
    for x in s1.patch.source.before:
        u, v = s1.psi.map_b(x), s2.psi.map_b(x)
        for n in range(1, depth + 1):
            for word in itertools.product(alphabet, repeat=n):
                if m1.run(u, word) != m2.run(v, word):
                    return False
    return True


def test_behavioral_equiv_matches_word_oracle(rng):
    checked_unequal = 0
    for _ in range(150):
        system, jdg, sec = rg.rand_explained_system(rng, max_states=4,
                                                    max_machine_states=2)
        alphabet = jdg.interp_inputs
        pairs = [(sec, rg.iso_rename(rng, sec, "o")),
                 (sec, rg.row_quotient(sec))]
        if len(alphabet) > 1:
            # Recompleting a range-narrowed local changes off-range behavior
            # unless the original already self-looped with the least output,
            # so this produces honest unequal pairs.
            p = rg.rand_input_split_covering(rng, system).patches[0]
            local = restrict_section(sec, p)
            ri = restricted_interface(jdg, local.patch)
            if set(ri) != set(alphabet):
                redone = extend_section_alphabet(
                    jdg, _narrow_machine_section(local, ri, jdg))
                pairs.append((local, redone))
        for s1, s2 in pairs:
            rep = behavioral_equiv(s1, s2, alphabet)
            assert rep.ok == _behavior_oracle(s1, s2, alphabet)
            if not rep.ok:
                checked_unequal += 1
                m1, m2 = s1.explanatory, s2.explanatory
                run1 = m1.run(s1.psi.map_b(rep.state), rep.word)
                run2 = m2.run(s2.psi.map_b(rep.state), rep.word)
                assert run1 != run2
    assert checked_unequal > 0


def test_behavioral_inequality_and_witness_minimality():
    # Two machines telling apart only on the second letter of (a,b).
    m1 = make_system(
        ["u0", "u1"], ["u0", "u1"], ["a", "b"], ["0", "1"],
        {("u0", "a"): ("u1", "0"), ("u0", "b"): ("u0", "0"),
         ("u1", "a"): ("u1", "0"), ("u1", "b"): ("u1", "1")},
    )
    m2 = make_system(
        ["v0"], ["v0"], ["a", "b"], ["0", "1"],
        {("v0", "a"): ("v0", "0"), ("v0", "b"): ("v0", "0")},
    )
    base = make_system(["x"], ["x"], ["a", "b"], ["0", "1"],
                       {("x", "a"): ("x", "0"), ("x", "b"): ("x", "0")})
    jdg = identity_judge(base)
    patch = subsystem(base)
    s1 = section(patch, m1, morphism(base, m1, {"x": "u0"}, {"x": "u0"},
                                     {"a": "a", "b": "b"},
                                     {"0": "0", "1": "1"}))
    s2 = section(patch, m2, morphism(base, m2, {"x": "v0"}, {"x": "v0"},
                                     {"a": "a", "b": "b"},
                                     {"0": "0", "1": "1"}))
    rep = behavioral_equiv(s1, s2)
    assert not rep.ok
    assert rep.state == "x"
    # Shortest separating words have length 2; (a, b) is the least of them.
    assert rep.word == ("a", "b")


def test_cogerm_implies_behavioral(rng):
    witnesses = 0
    for _ in range(200):
        system, jdg, sec = rg.rand_explained_system(rng)
        other = rg.mutate_section(rng, sec, "w")
        w = cogerm_equiv(sec, other)
        if w is not None:
            witnesses += 1
            ok, reason = check_cogerm_witness(sec, other, w)
            assert ok, reason
            assert behavioral_equiv(sec, other, jdg.interp_inputs).ok
    assert witnesses > 0


def test_cogerm_rejects_cycle_multiples():
    # Same constant behavior, incompatible cycle structure: behaviorally
    # equal, no common core.
    def cycle(n, prefix):
        states = [f"{prefix}{k}" for k in range(n)]
        dyn = {(states[k], "u"): (states[(k + 1) % n], "X") for k in range(n)}
        return make_system(states, states, ["u"], ["X"], dyn)

    base = cycle(6, "s")
    jdg = judge({"u": "u"}, {"X": "X"})
    patch = subsystem(base)
    m3, m6 = cycle(3, "p"), cycle(6, "q")
    psi3 = morphism(base, m3, {f"s{k}": f"p{k % 3}" for k in range(6)},
                    {f"s{k}": f"p{k % 3}" for k in range(6)},
                    {"u": "u"}, {"X": "X"})
    psi6 = morphism(base, m6, {f"s{k}": f"q{k}" for k in range(6)},
                    {f"s{k}": f"q{k}" for k in range(6)},
                    {"u": "u"}, {"X": "X"})
    s3 = section(patch, m3, psi3)
    s6 = section(patch, m6, psi6)
    assert behavioral_equiv(s3, s6).ok
    assert cogerm_equiv(s3, s6) is None


def test_cogerm_witness_checker_rejects_tampering(rng):
    for _ in range(50):
        system, jdg, sec = rg.rand_explained_system(rng)
        other = rg.iso_rename(rng, sec, "t")
        w = cogerm_equiv(sec, other)
        assert w is not None
        ok, _ = check_cogerm_witness(sec, other, w)
        assert ok
        # Both legs into the first machine: the span misses the second.
        both = CogermWitness(w.core, w.i1, w.i1, w.phi)
        assert check_cogerm_witness(sec, other, both) == (
            False, "span legs do not reach the explanatory machines")
        if len(w.core.before) > 1:
            # Collapse the first leg onto one state: no longer injective.
            bad_leg = morphism(
                w.core, sec.explanatory,
                {s: w.i1.map_b(w.core.before[0]) for s in w.core.before},
                {s: w.i1.map_a(w.core.after[0]) for s in w.core.after},
                {c: w.i1.map_i(c) for c in w.core.inputs},
                {o: w.i1.map_o(o) for o in w.core.outputs},
            )
            bad = CogermWitness(w.core, bad_leg, w.i2, w.phi)
            ok2, reason = check_cogerm_witness(sec, other, bad)
            assert not ok2 and reason is not None


def _twin_loops(names):
    """Three self-loops over one letter: the first two emit 0 and may be
    swapped, the third emits 1."""
    x, y, z = names
    return make_system(names, names, ["a"], ["0", "1"],
                       {(x, "a"): (x, "0"), (y, "a"): (y, "0"), (z, "a"): (z, "1")})


def test_cogerm_witness_checker_names_each_tampering():
    """One tampered part of a true common core per refusal, each refused
    with its own reason before any later check reads the witness."""
    m1, m2 = _twin_loops(["x", "y", "z"]), _twin_loops(["p", "q", "r"])
    patch = subsystem(m1)
    iface = ({"a": "a"}, {"0": "0", "1": "1"})
    s1 = section(patch, m1, identity_morphism(m1))
    s2 = section(patch, m2, morphism(m1, m2, *[{"x": "p", "y": "q", "z": "r"}] * 2, *iface))
    w = cogerm_equiv(s1, s2)
    assert w is not None and check_cogerm_witness(s1, s2, w) == (True, None)
    core = w.core
    xp, yq, zr = core.before

    def leg(target, images, source=core, outputs=iface[1]):
        f = dict(zip(source.before, images))
        return morphism(source, target, f, f, iface[0], outputs)

    hetero = make_system(["h"], ["h", "k"], ["a"], ["0", "1"], {("h", "a"): ("k", "0")})
    wide = make_system(core.before, core.after, ["a"], ["0", "1", "2"],
                       {(s, "a"): (s, "1" if s == zr else "0") for s in core.before})
    onto = {"0": "0", "1": "1", "2": "1"}
    split = SystemMorphism(core, m1, w.i1.f_b, (0, 0, 0), w.i1.f_i, w.i1.f_o)
    bent1, bent2 = leg(m1, "zyx"), leg(m2, "rqp")
    mixed = {"x": yq, "y": xp, "z": zr}
    cases = [
        (CogermWitness(hetero, w.i1, w.i2, w.phi), "core is not homogeneous"),
        (CogermWitness(core, identity_morphism(m1), w.i2, w.phi),
         "span legs do not start at the core"),
        (CogermWitness(core, w.i1, w.i1, w.phi),
         "span legs do not reach the explanatory machines"),
        (CogermWitness(core, leg(m1, "xxz"), w.i2, w.phi),
         "first leg is not an injective state map"),
        (CogermWitness(core, split, w.i2, w.phi), "first leg is not an injective state map"),
        (CogermWitness(core, w.i1, leg(m2, "pqq"), w.phi),
         "second leg is not an injective state map"),
        (CogermWitness(wide, leg(m1, "xyz", wide, onto), leg(m2, "pqr", wide, onto), w.phi),
         "first leg does not fix the interface"),
        (CogermWitness(core, bent1, w.i2, w.phi),
         f"first leg breaks dynamics at {check_morphism(bent1).witness!r}"),
        (CogermWitness(core, w.i1, bent2, w.phi),
         f"second leg breaks dynamics at {check_morphism(bent2).witness!r}"),
        (CogermWitness(core, w.i1, w.i2, s1.psi), "factoring morphism has the wrong endpoints"),
        (CogermWitness(core, w.i1, w.i2, morphism(m1, core, mixed, mixed, *iface)),
         "factoring through the first leg does not recover psi"),
        # Swapping the two 0-loops keeps the second leg a morphism.
        (CogermWitness(core, w.i1, leg(m2, "qpr"), w.phi),
         "factoring through the second leg does not recover psi"),
    ]
    for tampered, reason in cases:
        assert check_cogerm_witness(s1, s2, tampered) == (False, reason)


def test_cogerm_witness_checker_refuses_a_factoring_map_off_the_dynamics():
    """Legs that merge both outputs into 0 recover psi from a factoring map
    that sends the patch's output 0 to 1, which the core never emits."""
    m = make_system(["s"], ["s"], ["a"], ["0", "1"], {("s", "a"): ("s", "0")})
    patch = subsystem(m, outputs=["0"])
    psi = morphism(patch.source, m, {"s": "s"}, {"s": "s"}, {"a": "a"}, {"0": "0"})
    s1 = section(patch, m, psi)
    w = cogerm_equiv(s1, s1)
    merge = SystemMorphism(w.core, m, w.i1.f_b, w.i1.f_a, w.i1.f_i, (0, 0))
    phi = SystemMorphism(patch.source, w.core, w.phi.f_b, w.phi.f_a, w.phi.f_i, (1,))
    assert compose(phi, merge) == psi
    assert check_cogerm_witness(s1, s1, CogermWitness(w.core, merge, merge, phi)) == (
        False, f"factoring morphism breaks dynamics at {check_morphism(phi).witness!r}")



def test_cogerm_witness_checker_refuses_legs_that_merge_outputs():
    """Legs that send both outputs to 0, over a machine that emits only 0,
    commute with the dynamics and recover psi through the true factoring
    map, yet do not fix the interface."""
    m = make_system(["s"], ["s"], ["a"], ["0", "1"], {("s", "a"): ("s", "0")})
    patch = subsystem(m, outputs=["0"])
    psi = morphism(patch.source, m, {"s": "s"}, {"s": "s"}, {"a": "a"}, {"0": "0"})
    s1 = section(patch, m, psi)
    w = cogerm_equiv(s1, s1)
    merge = SystemMorphism(w.core, m, w.i1.f_b, w.i1.f_a, w.i1.f_i, (0, 0))
    assert check_morphism(merge).ok and compose(w.phi, merge) == psi
    assert check_cogerm_witness(s1, s1, CogermWitness(w.core, merge, merge, w.phi)) == (
        False, "first leg does not fix the interface")
    assert check_cogerm_witness(s1, s1, CogermWitness(w.core, w.i1, merge, w.phi)) == (
        False, "second leg does not fix the interface")


# ------------------------------------------------------------- minimization

def test_minimize_six_cycle_constant_output():
    states = [f"s{k}" for k in range(6)]
    dyn = {(states[k], "u"): (states[(k + 1) % 6], "0") for k in range(6)}
    system = make_system(states, states, ["u"], ["0"], dyn)
    res = minimize(system)
    assert len(res.machine.before) == 1
    block = dict(res.state_map)
    # Partition oracle: pairwise word search to the depth bound finds no
    # separating word, so all states share one class.
    depth = len(states) ** 2
    for x, y in itertools.combinations(states, 2):
        assert all(
            system.run(x, ("u",) * n) == system.run(y, ("u",) * n)
            for n in range(1, depth + 1)
        )
        assert block[x] == block[y]


def test_minimize_idempotent_and_output_preserving(rng):
    for _ in range(150):
        mach = rg.rand_machine(rng, ["a", "b"][: rng.randint(1, 2)],
                               ["0", "1"][: rng.randint(1, 2)],
                               rng.randint(1, 5), duplicate_rows=True)
        res = minimize(mach)
        again = minimize(res.machine)
        assert len(again.machine.before) == len(res.machine.before)
        block = dict(res.state_map)
        for s in mach.before:
            rep = block[s]
            for n in range(1, 4):
                for word in itertools.product(mach.inputs, repeat=n):
                    assert mach.run(s, word) == res.machine.run(rep, word)


def test_minimize_with_judge_merges_by_judged_outputs():
    system = make_system(
        ["s0", "s1"], ["s0", "s1"], ["u"], ["hot", "cold"],
        {("s0", "u"): ("s1", "hot"), ("s1", "u"): ("s0", "cold")},
    )
    j_same = judge({"u": "u"}, {"hot": "W", "cold": "W"})
    j_diff = judge({"u": "u"}, {"hot": "W", "cold": "C"})
    assert len(minimize(system, j_same).machine.before) == 1
    assert len(minimize(system, j_diff).machine.before) == 2


# ----------------------------------------------------------- hierarchy map

def test_ri_section_extends_to_full_alphabet(rng):
    extended = 0
    for _ in range(100):
        system, jdg, sec = rg.rand_explained_system(rng)
        cov = rg.rand_input_split_covering(rng, system)
        for p in cov.patches:
            local = restrict_section(sec, p)
            ri_alphabet = restricted_interface(jdg, local.patch)
            if set(ri_alphabet) == set(jdg.interp_inputs):
                continue
            # Cut the local machine down to the patch's judged range, then
            # recomplete it; behavior over the range must be unchanged.
            narrowed = _narrow_machine_section(local, ri_alphabet, jdg)
            full = extend_section_alphabet(jdg, narrowed)
            assert validate_section(jdg, full).ok
            assert full.explanatory.inputs == jdg.interp_inputs
            assert behavioral_equiv(full, local, ri_alphabet).ok
            extended += 1
    assert extended > 0


def _narrow_machine_section(local, ri_alphabet, jdg):
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


# ------------------------------------------------------------------ judges

def test_data_local_coverings_are_j_full(rng):
    for _ in range(200):
        system, jdg, _ = rg.rand_explained_system(rng)
        cov = rg.rand_data_local_covering(rng, system)
        assert is_j_full(cov, jdg)

"""Site structure: coverings, pullbacks, pushouts, and cube stability."""

from __future__ import annotations

import itertools

import pytest

import randgen as rg
from site_oracle import (
    pullback_covering,
    pushout_along_mono,
    reference_factorization,
    reference_subsystem,
    systems_isomorphic,
    verify_vk_square,
)
from sheafmealy import (
    CheckerError,
    ForeignElement,
    InterfaceMismatch,
    InternalConsistencyError,
    PartialDynamics,
    amalgamate,
    check_covering,
    check_morphism,
    compose,
    covering,
    make_system,
    morphism,
    open_immersion,
    overlap_patch,
    restrict_immersion,
    subsystem,
    system_violations,
)
from sheafmealy.systems import identity_morphism, identity_patch


# ------------------------------------------------------- pretopology axioms

def test_identity_covers(rng):
    for _ in range(500):
        system = rg.rand_system(rng)
        c = covering(system, [identity_patch(system)])
        assert check_covering(c).ok


def test_pullback_covering_is_covering(rng):
    for _ in range(500):
        system = rg.rand_system(rng)
        c = rg.rand_covering(rng, system)
        assert check_covering(c).ok
        n = rg.rand_patch(rng, system)
        pulled = pullback_covering(c, n)
        assert pulled.target == n.source
        assert check_covering(pulled).ok
        # Componentwise intersections: every pulled patch lands inside both
        # the original patch images and n's carriers.
        originals = [
            (p.b_image, p.a_image, p.i_image, p.o_image) for p in c.patches
        ]
        for q in pulled.patches:
            images = (
                {n.morphism.map_b(s) for s in q.source.before},
                {n.morphism.map_a(s) for s in q.source.after},
                {n.morphism.map_i(ch) for ch in q.source.inputs},
                {n.morphism.map_o(o) for o in q.source.outputs},
            )
            assert any(
                all(img <= orig for img, orig in zip(images, patch_images))
                for patch_images in originals
            )


def test_pullback_along_identity_is_same_covering(rng):
    for _ in range(50):
        system = rg.rand_system(rng)
        c = rg.rand_covering(rng, system)
        pulled = pullback_covering(c, identity_patch(system))
        assert len(pulled.patches) <= len(c.patches)
        for p, q in zip(c.patches, pulled.patches):
            assert q.b_image <= p.b_image and q.i_image <= p.i_image


def test_covering_composition(rng):
    for _ in range(500):
        system = rg.rand_system(rng, max_states=5)
        outer = rg.rand_covering(rng, system)
        composite = []
        for p in outer.patches:
            inner = rg.rand_covering(rng, p.source)
            assert check_covering(inner).ok
            for q in inner.patches:
                composite.append(open_immersion(compose(q.morphism, p.morphism)))
        c = covering(system, composite)
        assert check_covering(c).ok


def test_covering_rejects_uncovered_pair():
    system = make_system(
        ["s0", "s1"], ["s0", "s1"], ["a", "b"], ["0"],
        {("s0", "a"): ("s0", "0"), ("s0", "b"): ("s1", "0"),
         ("s1", "a"): ("s0", "0"), ("s1", "b"): ("s1", "0")},
    )
    p1 = subsystem(system, before=["s0"], after=["s0", "s1"], inputs=["a"])
    p2 = subsystem(system, before=["s1"], after=["s0", "s1"])
    chk = check_covering(covering(system, [p1, p2]))
    assert not chk.ok
    assert chk.side == "before"
    assert chk.pair == ("s0", "b")


def test_subsystem_requires_closure():
    system = make_system(
        ["s0", "s1"], ["s0", "s1"], ["a"], ["0"],
        {("s0", "a"): ("s1", "0"), ("s1", "a"): ("s0", "0")},
    )
    with pytest.raises(CheckerError):
        subsystem(system, before=["s0"], after=["s0"])


def test_system_violations_order_and_unhashable_values():
    doc = {
        "before_states": ["p", "q"], "after_states": ["p"],
        "inputs": ["a"], "outputs": ["0"],
        "dynamics": [
            {"s": ["p"], "i": "a", "s2": "p", "o": "0"},
            {"s": "p", "i": "a", "s2": [], "o": {"x": 1}},
            {"s": "p", "i": "a", "s2": "p", "o": "0"},
            {"s": "r", "i": "a", "s2": "p", "o": "0"},
        ],
    }
    assert [(v.kind, v.detail) for v in system_violations(doc)] == [
        ("ForeignElement", "dynamics at foreign pair (['p'], 'a')"),
        ("ForeignElement", "successor [] at ('p', 'a') not an after-state"),
        ("ForeignElement", "output {'x': 1} at ('p', 'a') not in output set"),
        ("ForeignElement", "conflicting dynamics entries at ('p', 'a')"),
        ("ForeignElement", "dynamics at foreign pair ('r', 'a')"),
        ("PartialDynamics", "dynamics missing at ('q', 'a')"),
    ]
    # A carrier of unhashable values is scanned, not hashed.
    odd = {"before_states": [["p"]], "after_states": ["p"], "inputs": [],
           "outputs": ["0"], "dynamics": [{"s": ["p"], "i": "a", "s2": "p", "o": "0"}]}
    assert [v.kind for v in system_violations(odd)] == ["EmptyInterface", "ForeignElement"]


def test_pullback_drops_disjoint_patches():
    system = make_system(
        ["s0", "s1"], ["s0", "s1"], ["a"], ["0"],
        {("s0", "a"): ("s0", "0"), ("s1", "a"): ("s1", "0")},
    )
    p1 = subsystem(system, before=["s0"], after=["s0"])
    p2 = subsystem(system, before=["s1"], after=["s1"])
    pulled = pullback_covering(covering(system, [p1, p2]), p2)
    assert len(pulled.patches) == 1
    assert pulled.patches[0].b_image == {"s1"}


# -------------------------------------------- patches on their index tables

def _rand_carriers(rng, system) -> list[list[str] | None]:
    """Shuffled random subsets of the four carriers, closed under the kept
    steps half of the time; now and then one carrier is left out (None),
    or gets a duplicate or a foreign element."""
    b = [s for s in system.before if rng.random() < 0.6]
    a = [s for s in system.after if rng.random() < 0.5]
    i = [c for c in system.inputs if rng.random() < 0.7]
    o = [x for x in system.outputs if rng.random() < 0.5]
    if rng.random() < 0.5:
        a = sorted({*a, *(system.transition(s, c)[0] for s in b for c in i)})
        o = sorted({*o, *(system.transition(s, c)[1] for s in b for c in i)})
    carriers: list[list[str] | None] = [b, a, i, o]
    for carrier in carriers:
        rng.shuffle(carrier)
    k, roll = rng.randrange(4), rng.random()
    if roll < 0.1 and carriers[k]:
        carriers[k] = [*carriers[k], carriers[k][0]]
    elif roll < 0.2:
        carriers[k] = [*carriers[k], "zz"]
    elif roll < 0.3:
        carriers[k] = None
    return carriers


def _outcome(build, system, carriers):
    try:
        return build(system, *carriers)
    except CheckerError as exc:
        return type(exc), str(exc)


def test_subsystem_matches_the_name_based_reference(rng):
    errors = ("duplicate identifier", "is not", "not closed")
    seen = dict.fromkeys((*errors, "patch"), 0)
    for trial in range(600):
        system = rg.rand_system(rng, max_states=8, homogeneous=trial % 3 == 0)
        carriers = _rand_carriers(rng, system)
        got = _outcome(subsystem, system, carriers)
        assert got == _outcome(reference_subsystem, system, carriers), (trial, carriers)
        if isinstance(got, tuple):
            seen[next(k for k in errors if k in got[1])] += 1
        else:
            seen["patch"] += 1
            assert check_morphism(got.morphism).ok
    assert min(seen.values()) >= 20, seen


def test_overlap_factors_through_both_patches_as_by_names(rng):
    for trial in range(400):
        system = rg.rand_system(rng, max_states=8, homogeneous=trial % 2 == 0)
        p, q = rg.rand_patch(rng, system), rg.rand_patch(rng, system)
        w = overlap_patch(p, q)
        assert w == overlap_patch(q, p)
        for patch in (p, q):
            r = restrict_immersion(w, patch)
            assert r == reference_factorization(w, patch)
            assert compose(r.morphism, patch.morphism) == w.morphism


# ------------------------------------------------------------ check_morphism

def _morphism_oracle(m) -> bool:
    # Re-derivation from scratch: totality is already structural, so only
    # the commuting squares need checking.
    src, tgt = m.source, m.target
    for s in src.before:
        for c in src.inputs:
            s2, o = src.transition(s, c)
            t2, p = tgt.transition(m.map_b(s), m.map_i(c))
            if t2 != m.map_a(s2) or p != m.map_o(o):
                return False
    return True


def test_check_morphism_matches_oracle(rng):
    agree = disagree_found = 0
    for _ in range(300):
        system, jdg, sec = rg.rand_explained_system(rng)
        candidates = [sec.psi, identity_morphism(system)]
        # Corrupt a copy: redirect one before-state image.
        psi = sec.psi
        mach = sec.explanatory
        if len(mach.before) > 1:
            table_b = {s: psi.map_b(s) for s in system.before}
            victim = rng.choice(system.before)
            others = [x for x in mach.before if x != table_b[victim]]
            table_b[victim] = rng.choice(others)
            candidates.append(morphism(
                system, mach, table_b,
                {s: psi.map_a(s) for s in system.after},
                {c: psi.map_i(c) for c in system.inputs},
                {o: psi.map_o(o) for o in system.outputs},
            ))
        for cand in candidates:
            verdict = check_morphism(cand).ok
            assert verdict == _morphism_oracle(cand)
            agree += 1
            if not verdict:
                disagree_found += 1
    assert agree > 0 and disagree_found > 0


# ----------------------------------------------------------------- pushouts

def _two_cycle_with_anchor(prefix: str) -> tuple:
    anchor = f"{prefix}0"
    states = [anchor, f"{prefix}1", f"{prefix}2"]
    dyn = {
        (anchor, "u"): (anchor, "0"),
        (f"{prefix}1", "u"): (f"{prefix}2", "0"),
        (f"{prefix}2", "u"): (f"{prefix}1", "0"),
    }
    return make_system(states, states, ["u"], ["0"], dyn), anchor


def test_pushout_shared_anchor_state():
    a, a0 = _two_cycle_with_anchor("a")
    b, b0 = _two_cycle_with_anchor("b")
    c = make_system(["z"], ["z"], ["u"], ["0"], {("z", "u"): ("z", "0")})
    m = morphism(c, a, {"z": a0}, {"z": a0}, {"u": "u"}, {"0": "0"})
    f = morphism(c, b, {"z": b0}, {"z": b0}, {"u": "u"}, {"0": "0"})
    po = pushout_along_mono(c, a, b, m, f)
    assert len(po.apex.before) == 5
    # Quotient-and-check oracle: classes by union-find over m(z) ~ f(z),
    # dynamics read off any member, conflicts would be a defect.
    members = {(0, s) for s in a.before} | {(1, s) for s in b.before}
    cls = {x: x for x in members}
    cls[(1, b0)] = (0, a0)
    dyn_seen = {}
    for tag, sys_ in ((0, a), (1, b)):
        for s in sys_.before:
            s2, o = sys_.transition(s, "u")
            key = cls[(tag, s)]
            val = (cls[(tag, s2)], o)
            assert dyn_seen.setdefault((key, "u"), val) == val
    assert check_morphism(po.can_a).ok and check_morphism(po.can_b).ok


def test_pushout_empty_apex_is_disjoint_union():
    a, _ = _two_cycle_with_anchor("a")
    b, _ = _two_cycle_with_anchor("b")
    c = make_system([], [], ["u"], ["0"], {})
    empty_map: dict = {}
    m = morphism(c, a, empty_map, empty_map, {"u": "u"}, {"0": "0"})
    f = morphism(c, b, empty_map, empty_map, {"u": "u"}, {"0": "0"})
    po = pushout_along_mono(c, a, b, m, f)
    assert len(po.apex.before) == len(a.before) + len(b.before)


def test_pushout_along_identity_recovers_other_leg():
    inputs, outputs = ["u"], ["0"]
    c = make_system(["z0", "z1"], ["z0", "z1"], inputs, outputs,
                    {("z0", "u"): ("z1", "0"), ("z1", "u"): ("z0", "0")})
    ren = {"z0": "y0", "z1": "y1"}
    b = make_system(["y0", "y1"], ["y0", "y1"], inputs, outputs,
                    {("y0", "u"): ("y1", "0"), ("y1", "u"): ("y0", "0")})
    f = morphism(c, b, ren, ren, {"u": "u"}, {"0": "0"})
    po = pushout_along_mono(c, c, b, identity_morphism(c), f)
    assert systems_isomorphic(po.apex, b)


def test_pushout_mono_side_embeds(rng):
    found_noninjective_f = 0
    for _ in range(200):
        c, a, b, m, f, f_injective = rg.rand_mono_span(rng)
        po = pushout_along_mono(c, a, b, m, f)
        # The embedding opposite the injective leg is itself injective.
        assert len(set(po.can_b.f_b)) == len(po.can_b.f_b)
        if f_injective:
            assert len(set(po.can_a.f_b)) == len(po.can_a.f_b)
        else:
            found_noninjective_f += 1
        assert check_morphism(po.can_a).ok and check_morphism(po.can_b).ok
        # Square commutes.
        left = compose(m, po.can_a)
        right = compose(f, po.can_b)
        assert left.f_b == right.f_b and left.f_a == right.f_a
    assert found_noninjective_f > 0


def _mediating_checks(po, c, a, b, m, f, x, h_a, h_b):
    table: dict = {}
    for s in a.before:
        cls = po.can_a.map_b(s)
        if table.setdefault(cls, h_a.map_b(s)) != h_a.map_b(s):
            return False
    for s in b.before:
        cls = po.can_b.map_b(s)
        if table.setdefault(cls, h_b.map_b(s)) != h_b.map_b(s):
            return False
    assert set(table) == set(po.apex.before)
    u = morphism(po.apex, x, table, table,
                 {ch: ch for ch in x.inputs}, {o: o for o in x.outputs})
    assert check_morphism(u).ok
    assert all(u.map_b(po.can_a.map_b(s)) == h_a.map_b(s) for s in a.before)
    assert all(u.map_b(po.can_b.map_b(s)) == h_b.map_b(s) for s in b.before)
    return True


def test_pushout_universal_property(rng):
    cocones_checked = 0
    for _ in range(12):
        c, a, b, m, f, _ = rg.rand_mono_span(rng)
        po = pushout_along_mono(c, a, b, m, f)
        # The canonical cocone mediates through the identity.
        assert _mediating_checks(po, c, a, b, m, f, po.apex, po.can_a, po.can_b)
        x = rg.rand_machine(rng, list(c.inputs), list(c.outputs), 2, prefix="x")
        for va in itertools.product(x.before, repeat=len(a.before)):
            ha_map = dict(zip(a.before, va))
            h_a = morphism(a, x, ha_map, ha_map,
                           {ch: ch for ch in x.inputs}, {o: o for o in x.outputs})
            if not check_morphism(h_a).ok:
                continue
            for vb in itertools.product(x.before, repeat=len(b.before)):
                hb_map = dict(zip(b.before, vb))
                h_b = morphism(b, x, hb_map, hb_map,
                               {ch: ch for ch in x.inputs},
                               {o: o for o in x.outputs})
                if not check_morphism(h_b).ok:
                    continue
                if any(h_a.map_b(m.map_b(z)) != h_b.map_b(f.map_b(z))
                       for z in c.before):
                    continue
                assert _mediating_checks(po, c, a, b, m, f, x, h_a, h_b)
                cocones_checked += 1
    assert cocones_checked > 0


@pytest.mark.parametrize("change, error, message", [
    ({("t", "a"): ("s", "0")}, ForeignElement, "dynamics defined at foreign pair ('t', 'a')"),
    ({("s", "c"): ("s", "0")}, ForeignElement, "dynamics defined at foreign pair ('s', 'c')"),
    ({("s", "a"): ("t", "0")}, ForeignElement,
     "successor 't' of ('s', 'a') is not an after-state"),
    ({("s", "a"): ("s", "2")}, ForeignElement,
     "output '2' of ('s', 'a') is not in the output set"),
    ({("s", "b"): None}, PartialDynamics, "dynamics missing at ('s', 'b')"),
])
def test_make_system_refuses_dynamics_off_its_carriers(change, error, message):
    """Each refusal of ``make_system``'s dynamics, from one changed step of
    a one-state machine over inputs a and b."""
    dyn = {("s", "a"): ("s", "0"), ("s", "b"): ("s", "1")}
    dyn.update(change)
    dyn = {k: v for k, v in dyn.items() if v is not None}
    with pytest.raises(error) as err:
        make_system(["s"], ["s"], ["a", "b"], ["0", "1"], dyn)
    assert type(err.value) is error and str(err.value) == message


def test_amalgamate_refuses_its_arguments():
    """No component, a heterogeneous component, and components on two
    interfaces are refused before any identification is read."""
    loop = make_system(["s"], ["s"], ["u"], ["0"], {("s", "u"): ("s", "0")})
    hetero = make_system(["s"], ["s", "t"], ["u"], ["0"], {("s", "u"): ("t", "0")})
    other = make_system(["s"], ["s"], ["v"], ["0"], {("s", "v"): ("s", "0")})
    for comps, error, message in (
            ([], CheckerError, "amalgamation needs at least one component"),
            ([loop, hetero], CheckerError, "amalgamation is defined for homogeneous machines"),
            ([loop, other], InterfaceMismatch,
             "amalgamation components must share one interface")):
        with pytest.raises(CheckerError) as err:
            amalgamate(comps, [(0, "nowhere", 0, "nowhere")])
        assert type(err.value) is error and str(err.value) == message



def test_site_operations_refuse_patches_off_their_target():
    """Each refusal of composition, immersion, covering, overlap and
    factoring, pinned to its message."""
    two = make_system(["s", "t"], ["s", "t"], ["u"], ["0"],
                      {("s", "u"): ("t", "0"), ("t", "u"): ("s", "0")})
    loop = make_system(["s"], ["s"], ["u"], ["0"], {("s", "u"): ("s", "0")})
    fold = morphism(two, loop, {"s": "s", "t": "s"}, {"s": "s", "t": "s"}, {"u": "u"}, {"0": "0"})
    whole, foreign = subsystem(two), subsystem(loop)
    inner = subsystem(loop, inputs=[])
    for refuse, message in (
            (lambda: compose(identity_morphism(loop), fold),
             "composition mismatch: target of first is not source of second"),
            (lambda: open_immersion(fold), "immersion before component is not injective"),
            (lambda: covering(two, [whole, foreign]),
             "covering patch does not map into the stated target"),
            (lambda: covering(two, []), "coverings need at least one patch"),
            (lambda: overlap_patch(whole, foreign), "patches of different targets have no overlap"),
            (lambda: restrict_immersion(whole, foreign),
             "patches of different targets cannot be factored"),
            (lambda: restrict_immersion(foreign, inner),
             "patch does not lie inside the containing patch")):
        with pytest.raises(CheckerError) as err:
            refuse()
        assert type(err.value) is CheckerError and str(err.value) == message


def test_amalgamate_conflicting_identification_is_internal_error():
    # Two genuine 3-cycles share only their base point: the class of the
    # base has two distinct successors, so the quotient dynamics cannot be
    # a machine and the defect must surface loudly.
    def cycle(prefix):
        states = [f"{prefix}{k}" for k in range(3)]
        dyn = {(states[k], "u"): (states[(k + 1) % 3], "0") for k in range(3)}
        return make_system(states, states, ["u"], ["0"], dyn)

    with pytest.raises(InternalConsistencyError):
        amalgamate([cycle("a"), cycle("b")], [(0, "a0", 1, "b0")])


def test_amalgamate_names_classes_by_their_members():
    """A class is named by its members' names joined with '+'; classes
    sharing a name get '#k' in class order; if names still clash, every
    class is 'q<k>' in class order."""
    def loops(*states):
        return make_system(states, states, ["u"], ["0"], {(s, "u"): (s, "0") for s in states})

    def names(comps, idents):
        am = amalgamate(comps, idents)
        maps = [[e.map_b(s) for s in c.before] for e, c in zip(am.embeddings, comps)]
        return am.system.before, maps

    assert names([loops("a", "b"), loops("c")], [(0, "a", 1, "c")]) == (
        ("a+c", "b"), [["a+c", "b"], ["a+c"]])
    assert names([loops("s", "t"), loops("s", "t")], [(0, "s", 1, "s")]) == (
        ("s", "t#0", "t#1"), [["s", "t#0"], ["s", "t#1"]])
    assert names([loops("s", "t"), loops("s", "t")], []) == (
        ("s#0", "s#1", "t#0", "t#1"), [["s#0", "t#0"], ["s#1", "t#1"]])
    assert names([loops("x", "x#0"), loops("x")], []) == (
        ("q0", "q1", "q2"), [["q0", "q1"], ["q2"]])


# ------------------------------------------------------------ cube checks

def test_vk_identity_test_morphism():
    a, a0 = _two_cycle_with_anchor("a")
    b, b0 = _two_cycle_with_anchor("b")
    c = make_system(["z"], ["z"], ["u"], ["0"], {("z", "u"): ("z", "0")})
    m = morphism(c, a, {"z": a0}, {"z": a0}, {"u": "u"}, {"0": "0"})
    f = morphism(c, b, {"z": b0}, {"z": b0}, {"u": "u"}, {"0": "0"})
    po = pushout_along_mono(c, a, b, m, f)
    rep = verify_vk_square(c, a, b, m, f, identity_morphism(po.apex))
    assert rep.ok, rep.reason


def test_vk_restriction_to_first_leg_image():
    a, a0 = _two_cycle_with_anchor("a")
    b, b0 = _two_cycle_with_anchor("b")
    c = make_system(["z"], ["z"], ["u"], ["0"], {("z", "u"): ("z", "0")})
    m = morphism(c, a, {"z": a0}, {"z": a0}, {"u": "u"}, {"0": "0"})
    f = morphism(c, b, {"z": b0}, {"z": b0}, {"u": "u"}, {"0": "0"})
    po = pushout_along_mono(c, a, b, m, f)
    image = sorted({po.can_a.map_b(s) for s in a.before})
    g = subsystem(po.apex, image, image).morphism
    rep = verify_vk_square(c, a, b, m, f, g)
    assert rep.ok, rep.reason
    # The pulled-back square sees all of a and only the shared part of b.
    assert rep.pulled_sizes[0] == len(a.before)
    assert rep.pulled_sizes[2] == len(c.before)


def run_vk_trials(seed: int, trials: int) -> dict:
    import random as _random

    rng = _random.Random(seed)
    stats = {"trials": 0, "lifted": 0, "noninjective_f": 0}
    while stats["trials"] < trials:
        c, a, b, m, f, f_injective = rg.rand_mono_span(rng)
        po = pushout_along_mono(c, a, b, m, f)
        assert len(set(po.can_b.f_b)) == len(po.can_b.f_b)
        if not f_injective:
            stats["noninjective_f"] += 1
        g = rg.lift_over(rng, po.apex, max_states=4)
        if g is None:
            continue
        rep = verify_vk_square(c, a, b, m, f, g)
        assert rep.ok, rep.reason
        stats["trials"] += 1
        stats["lifted"] += 1
    return stats


def test_vk_random_squares_small(seed):
    stats = run_vk_trials(seed + 1, 40)
    assert stats["trials"] == 40

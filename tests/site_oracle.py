"""Reference constructions on the site of Mealy machines.

Name-based patches and factorizations, amalgams, common cores and glued
sections, pullbacks of coverings, pushouts along injective state maps, the
van Kampen cube check (the stability condition of adhesive categories, Lack
and Sobociński 2004) and a backtracking isomorphism test.  No checker needs
them; the property suites use them to test the site structure that the
checkers rely on, so they are small exhaustive references with scale caps
rather than library code.  The name-based builders replay each step
through ``transition`` and build through ``make_system`` and ``morphism``,
as the library once did; the library builds the same machines on index
tables, and the seeded tests require equal dataclasses from both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from sheafmealy.errors import (
    CheckerError,
    ForeignElement,
    InterfaceMismatch,
    InternalConsistencyError,
    ScaleExceeded,
)
from sheafmealy.explain import BehaviorPartition, CogermWitness, Judge, Section, validate_section
from sheafmealy.systems import (
    Amalgam,
    Covering,
    Ident,
    MealySystem,
    OpenImmersion,
    SystemMorphism,
    amalgamate,
    check_morphism,
    compose,
    covering,
    finset,
    identity_patch,
    make_system,
    morphism,
    subsystem,
)


def _preimages(n: OpenImmersion) -> tuple[dict[Ident, Ident], ...]:
    """For each carrier, the name in ``n``'s source of each name in its image."""
    m, src, tgt = n.morphism, n.source, n.target
    return tuple(
        {target[k]: source[j] for j, k in enumerate(table)}
        for table, source, target in ((m.f_b, src.before, tgt.before),
                                      (m.f_a, src.after, tgt.after),
                                      (m.f_i, src.inputs, tgt.inputs),
                                      (m.f_o, src.outputs, tgt.outputs))
    )


def reference_subsystem(
    system: MealySystem,
    before: list[Ident] | None = None,
    after: list[Ident] | None = None,
    inputs: list[Ident] | None = None,
    outputs: list[Ident] | None = None,
) -> OpenImmersion:
    """``subsystem`` by names: each kept step replayed through
    ``transition``, the machine built by ``make_system`` and the inclusion
    indexed by ``morphism``, with the same checks in the same order."""
    b = finset(before if before is not None else system.before)
    a = finset(after if after is not None else system.after)
    i = finset(inputs if inputs is not None else system.inputs)
    o = finset(outputs if outputs is not None else system.outputs)
    for carrier, index, name in ((b, system.b_index, "a before-state"),
                                 (a, system.a_index, "an after-state"),
                                 (i, system.i_index, "an input"),
                                 (o, system.o_index, "an output")):
        for x in carrier:
            if x not in index:
                raise ForeignElement(f"{x!r} is not {name}")
    dyn: dict[tuple[Ident, Ident], tuple[Ident, Ident]] = {}
    for s in b:
        for c in i:
            s2, out = system.transition(s, c)
            if s2 not in a or out not in o:
                raise CheckerError(f"carriers not closed: step at ({s!r}, {c!r}) leaves the patch")
            dyn[(s, c)] = (s2, out)
    sub = make_system(b, a, i, o, dyn)
    same = [{x: x for x in carrier} for carrier in (b, a, i, o)]
    return OpenImmersion(morphism(sub, system, *same))


def reference_factorization(w: OpenImmersion, p: OpenImmersion) -> OpenImmersion:
    """``restrict_immersion`` by names: each name of ``w``'s source sent
    through ``w`` and back through ``p``; no containment check."""
    wm = w.morphism
    pre_b, pre_a, pre_i, pre_o = _preimages(p)
    return OpenImmersion(morphism(
        w.source,
        p.source,
        {s: pre_b[wm.map_b(s)] for s in w.source.before},
        {s: pre_a[wm.map_a(s)] for s in w.source.after},
        {c: pre_i[wm.map_i(c)] for c in w.source.inputs},
        {x: pre_o[wm.map_o(x)] for x in w.source.outputs},
    ))


def reference_amalgamate(
    components: list[MealySystem],
    identifications: Iterable[tuple[int, Ident, int, Ident]],
) -> Amalgam:
    """``amalgamate`` by names: classes named by their members as there,
    each step replayed through ``transition`` into a name-keyed dynamics
    dict, the quotient built by ``make_system`` and each embedding by
    ``morphism``.  An ill-defined quotient raises
    :class:`InternalConsistencyError` naming the class."""
    if not components:
        raise CheckerError("amalgamation needs at least one component")
    iface_i, iface_o = components[0].inputs, components[0].outputs
    for comp in components:
        if not comp.homogeneous:
            raise CheckerError("amalgamation is defined for homogeneous machines")
        if comp.inputs != iface_i or comp.outputs != iface_o:
            raise InterfaceMismatch("amalgamation components must share one interface")
    parent = {(k, s): (k, s) for k, comp in enumerate(components) for s in comp.before}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k, s, l, t in identifications:
        rx, ry = find((k, s)), find((l, t))
        parent[max(rx, ry)] = min(rx, ry)
    classes: dict[tuple[int, Ident], list[tuple[int, Ident]]] = {}
    for member in parent:
        classes.setdefault(find(member), []).append(member)
    roots = sorted(classes, key=lambda r: sorted(classes[r]))
    base_names = {r: "+".join(sorted({s for _, s in classes[r]})) for r in roots}
    totals, seen = Counter(base_names.values()), Counter()
    names: dict = {}
    for r in roots:
        n = base_names[r]
        names[r] = n if totals[n] == 1 else f"{n}#{seen[n]}"
        seen[n] += 1
    if len(set(names.values())) != len(roots):
        names = {r: f"q{k}" for k, r in enumerate(roots)}
    state_of = {member: names[find(member)] for member in parent}
    dyn: dict[tuple[Ident, Ident], tuple[Ident, Ident]] = {}
    for k, comp in enumerate(components):
        for s in comp.before:
            for c in iface_i:
                s2, out = comp.transition(s, c)
                key, val = (state_of[(k, s)], c), (state_of[(k, s2)], out)
                if dyn.setdefault(key, val) != val:
                    raise InternalConsistencyError(f"quotient dynamics ill defined at {key[0]!r}")
    carrier = sorted(names.values())
    system = make_system(carrier, carrier, iface_i, iface_o, dyn)
    return Amalgam(system, tuple(
        morphism(comp, system, {s: state_of[(k, s)] for s in comp.before},
                 {s: state_of[(k, s)] for s in comp.after},
                 {c: c for c in iface_i}, {o: o for o in iface_o})
        for k, comp in enumerate(components)
    ))


def reference_cogerm_witness(s1: Section, s2: Section) -> CogermWitness | None:
    """``cogerm_equiv`` by names: the closure of name pairs, its pairs
    named ``x~y`` (or ``r<k>`` in pair order when two names clash), the
    core built by ``make_system`` and the span and factoring maps by
    ``morphism``."""
    m1, m2 = s1.explanatory, s2.explanatory
    alphabet, u = m1.inputs, s1.patch.source
    todo = sorted({(s1.psi.map_b(s), s2.psi.map_b(s)) for s in u.before}
                  | {(s1.psi.map_a(s), s2.psi.map_a(s)) for s in u.after})
    fwd: dict[Ident, Ident] = {}
    bwd: dict[Ident, Ident] = {}
    pairs: set[tuple[Ident, Ident]] = set()
    while todo:
        x, y = todo.pop()
        if (x, y) in pairs:
            continue
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return None
        pairs.add((x, y))
        for c in alphabet:
            (x2, o1), (y2, o2) = m1.transition(x, c), m2.transition(y, c)
            if o1 != o2:
                return None
            todo.append((x2, y2))
    ordered = sorted(pairs)
    names = {p: f"{p[0]}~{p[1]}" for p in ordered}
    if len(set(names.values())) != len(ordered):
        names = {p: f"r{k}" for k, p in enumerate(ordered)}
    dyn = {}
    for x, y in ordered:
        for c in alphabet:
            x2, o = m1.transition(x, c)
            dyn[(names[(x, y)], c)] = (names[(x2, m2.transition(y, c)[0])], o)
    carrier = sorted(names.values())
    core = make_system(carrier, carrier, alphabet, m1.outputs, dyn)
    back = {names[p]: p for p in ordered}
    legs = [morphism(core, m, {n: back[n][k] for n in carrier}, {n: back[n][k] for n in carrier},
                     {c: c for c in alphabet}, {o: o for o in m.outputs})
            for k, m in enumerate((m1, m2))]
    phi = morphism(u, core,
                   {s: names[(s1.psi.map_b(s), s2.psi.map_b(s))] for s in u.before},
                   {s: names[(s1.psi.map_a(s), s2.psi.map_a(s))] for s in u.after},
                   {c: s1.psi.map_i(c) for c in u.inputs},
                   {o: s1.psi.map_o(o) for o in u.outputs})
    return CogermWitness(core, *legs, phi)


def reference_glued_section(
    c: Covering,
    sections: Sequence[Section],
    j: Judge,
    part: BehaviorPartition,
    before_block: Mapping[Ident, int],
    derived: Mapping[Ident, Mapping[int, object]],
) -> Section:
    """``glue_behavioral``'s glued section by names, once no after-state is
    forced into two classes: ``before_block`` holds each target
    before-state's class and ``derived`` the classes the steps force on
    after-states.  Other after-states take the class of their image in the
    first patch holding them; the classes reached from all of these are
    named ``b<k>`` in class order, and the machine is built by
    ``make_system`` and ``psi`` by ``morphism``."""
    tgt = c.target
    after_block = {x: next(iter(derived[x])) for x in tgt.after if x in derived}
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        for u in p.source.after:
            after_block.setdefault(p.morphism.map_a(u), part.block_index[(k, s.psi.map_a(u))])
    missing = [x for x in tgt.after if x not in after_block]
    if missing:
        raise CheckerError(f"covering leaves after-states unexplained: {missing!r}")
    reach = set(before_block.values()) | set(after_block.values())
    frontier = sorted(reach)
    while frontier:
        blk = frontier.pop()
        for t in part.succ_table[blk]:
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    names = {blk: f"b{k}" for k, blk in enumerate(sorted(reach))}
    dyn = {(names[blk], ch): (names[part.succ_table[blk][i]],
                              part.outputs[part.out_table[blk][i]])
           for blk in names for i, ch in enumerate(part.alphabet)}
    carrier = sorted(names.values())
    machine = make_system(carrier, carrier, part.alphabet, j.interp_outputs, dyn)
    psi = morphism(tgt, machine,
                   {x: names[before_block[x]] for x in tgt.before},
                   {x: names[after_block[x]] for x in tgt.after},
                   {i: j.j_i[i] for i in tgt.inputs},
                   {o: j.j_o[o] for o in tgt.outputs})
    glued = Section(identity_patch(tgt), machine, psi)
    if not validate_section(j, glued).ok:
        raise InternalConsistencyError("glued section fails validation")
    return glued


def pullback_covering(c: Covering, n: OpenImmersion) -> Covering:
    """Restrict a covering along a patch ``n`` of the same target.

    Each patch is intersected with ``n`` componentwise and re-expressed as a
    patch of ``n``'s source.  Patches whose before x input and after x output
    products are both empty are dropped; if everything drops (only possible
    when the source itself is fully empty) the identity patch is kept so the
    family stays non-empty.
    """
    if n.target != c.target:
        raise CheckerError("cannot pull a covering back along a patch of another target")
    src = n.source
    pre_b, pre_a, pre_i, pre_o = _preimages(n)
    patches: list[OpenImmersion] = []
    for p in c.patches:
        b = sorted(pre_b[s] for s in (p.b_image & n.b_image))
        a = sorted(pre_a[s] for s in (p.a_image & n.a_image))
        i = sorted(pre_i[ch] for ch in (p.i_image & n.i_image))
        o = sorted(pre_o[x] for x in (p.o_image & n.o_image))
        if (not b or not i) and (not a or not o):
            continue
        patches.append(subsystem(src, b, a, i, o))
    if not patches:
        patches.append(subsystem(src))
    return covering(src, patches)


def per_input_covering(system: MealySystem) -> Covering:
    """The covering of a single-state system that splits off each raw input
    as its own patch.  The overlaps see no shared judged input, so the
    forced stateless family over it is compatible, and it glues exactly
    when every judged-input fiber carries one judged output."""
    s0 = system.before[0]
    return Covering(system, tuple(
        subsystem(system, before=[s0], after=[s0], inputs=[raw], outputs=system.outputs)
        for raw in system.inputs))


@dataclass(frozen=True)
class PushoutResult:
    apex: MealySystem
    can_a: SystemMorphism
    can_b: SystemMorphism


def _require_state_map(m: SystemMorphism, label: str) -> None:
    if m.source.inputs != m.target.inputs or m.source.outputs != m.target.outputs:
        raise InterfaceMismatch(f"{label} must keep the interface fixed")
    n_i, n_o = len(m.source.inputs), len(m.source.outputs)
    if m.f_i != tuple(range(n_i)) or m.f_o != tuple(range(n_o)):
        raise InterfaceMismatch(f"{label} must be the identity on inputs and outputs")
    if m.f_b != m.f_a:
        raise CheckerError(f"{label} must act the same on before- and after-states")


def pushout_along_mono(
    c: MealySystem,
    a: MealySystem,
    b: MealySystem,
    m: SystemMorphism,
    f: SystemMorphism,
) -> PushoutResult:
    """Pushout of homogeneous machines ``a <-m- c -f-> b`` with ``m`` injective.

    Computed as the quotient of the disjoint union of ``a`` and ``b`` by
    ``m(x) ~ f(x)``.  Injectivity of ``m`` guarantees the quotient dynamics
    are well defined and that the canonical map from ``b`` is injective; a
    post-hoc failure of well-definedness is therefore an internal error.
    """
    for sys_, label in ((c, "c"), (a, "a"), (b, "b")):
        if not sys_.homogeneous:
            raise CheckerError(f"pushout components must be homogeneous ({label} is not)")
    if a.inputs != b.inputs or a.outputs != b.outputs:
        raise InterfaceMismatch("pushout legs must share one interface")
    if m.source != c or m.target != a or f.source != c or f.target != b:
        raise CheckerError("pushout legs do not match the given span")
    _require_state_map(m, "the mono leg")
    _require_state_map(f, "the free leg")
    if len(set(m.f_b)) != len(m.f_b):
        raise CheckerError("the leg into the first component must be injective on states")
    for leg, label in ((m, "mono leg"), (f, "free leg")):
        chk = check_morphism(leg)
        if not chk.ok:
            raise CheckerError(f"{label} is not a morphism (square fails at {chk.witness!r})")
    amalgam = amalgamate([a, b], [(0, m.map_b(s), 1, f.map_b(s)) for s in c.before])
    return PushoutResult(amalgam.system, amalgam.embeddings[0], amalgam.embeddings[1])


def _identity_interface_pullback(
    h: SystemMorphism, g: SystemMorphism
) -> tuple[MealySystem, dict[Ident, tuple[Ident, Ident]]]:
    """State-pair pullback of two interface-fixing morphisms into one target."""
    x_sys, w_sys = h.source, g.source
    pairs = sorted(
        (x, w)
        for x in x_sys.before
        for w in w_sys.before
        if h.map_b(x) == g.map_b(w)
    )
    names: dict[tuple[Ident, Ident], Ident] = {}
    for x, w in pairs:
        if "|" in x or "|" in w:
            raise InternalConsistencyError("state names with '|' break pair naming")
        names[(x, w)] = f"{x}|{w}"
    dyn: dict[tuple[Ident, Ident], tuple[Ident, Ident]] = {}
    for x, w in pairs:
        for ch in x_sys.inputs:
            x2, o1 = x_sys.transition(x, ch)
            w2, o2 = w_sys.transition(w, ch)
            if o1 != o2 or (x2, w2) not in names:
                raise InternalConsistencyError("pullback pair dynamics left the pair set")
            dyn[(names[(x, w)], ch)] = (names[(x2, w2)], o1)
    carrier = sorted(names.values())
    system = make_system(carrier, carrier, x_sys.inputs, x_sys.outputs, dyn)
    return system, {names[p]: p for p in pairs}


@dataclass(frozen=True)
class VKReport:
    ok: bool
    reason: str | None
    pulled_sizes: tuple[int, int, int]


def verify_vk_square(
    c: MealySystem,
    a: MealySystem,
    b: MealySystem,
    m: SystemMorphism,
    f: SystemMorphism,
    g: SystemMorphism,
) -> VKReport:
    """Stability of the pushout of ``a <-m- c -f-> b`` under pulling back.

    ``g`` must be an interface-fixing morphism into the computed pushout
    apex.  The three legs are pulled back along ``g``, the pushout of the
    pulled-back span is computed, and the verdict says whether its canonical
    comparison onto ``g``'s source is an isomorphism of machines.  Component
    sizes above 5 states raise :class:`ScaleExceeded`.
    """
    for sys_, label in ((c, "c"), (a, "a"), (b, "b"), (g.source, "test source")):
        if len(sys_.before) > 5:
            raise ScaleExceeded(f"component {label} has more than 5 states")
    po = pushout_along_mono(c, a, b, m, f)
    if g.target != po.apex:
        raise CheckerError("test morphism must map into the pushout apex")
    _require_state_map(g, "the test morphism")
    gchk = check_morphism(g)
    if not gchk.ok:
        raise CheckerError(f"test morphism square fails at {gchk.witness!r}")
    w_sys = g.source

    a_pb, a_members = _identity_interface_pullback(po.can_a, g)
    b_pb, b_members = _identity_interface_pullback(po.can_b, g)
    c_pb, c_members = _identity_interface_pullback(compose(m, po.can_a), g)

    def pair_map(src: MealySystem, members: dict, tgt: MealySystem,
                 tgt_members: dict, leg: SystemMorphism) -> SystemMorphism:
        table: dict[Ident, Ident] = {}
        rev = {v: k for k, v in tgt_members.items()}
        for name in src.before:
            x, w = members[name]
            table[name] = rev[(leg.map_b(x), w)]
        return morphism(src, tgt, table, table,
                        {ch: ch for ch in src.inputs}, {o: o for o in src.outputs})

    m_pb = pair_map(c_pb, c_members, a_pb, a_members, m)
    f_pb = pair_map(c_pb, c_members, b_pb, b_members, f)
    sizes = (len(a_pb.before), len(b_pb.before), len(c_pb.before))
    top = pushout_along_mono(c_pb, a_pb, b_pb, m_pb, f_pb)

    # Canonical comparison onto g's source: a class goes to the shared second
    # coordinate of its members.
    med_table: dict[Ident, Ident] = {}
    for name in a_pb.before:
        cls = top.can_a.map_b(name)
        w = a_members[name][1]
        if med_table.setdefault(cls, w) != w:
            return VKReport(False, f"comparison map ill defined at class {cls!r}", sizes)
    for name in b_pb.before:
        cls = top.can_b.map_b(name)
        w = b_members[name][1]
        if med_table.setdefault(cls, w) != w:
            return VKReport(False, f"comparison map ill defined at class {cls!r}", sizes)
    if len(med_table) != len(top.apex.before):
        raise InternalConsistencyError("canonical maps failed to cover the apex")
    hit = set(med_table.values())
    if hit != set(w_sys.before):
        missing = sorted(set(w_sys.before) - hit)
        return VKReport(False, f"comparison map misses states {missing!r}", sizes)
    if len(hit) != len(top.apex.before):
        return VKReport(False, "comparison map identifies distinct classes", sizes)
    med = morphism(top.apex, w_sys, med_table, med_table,
                   {ch: ch for ch in w_sys.inputs}, {o: o for o in w_sys.outputs})
    chk = check_morphism(med)
    if not chk.ok:
        return VKReport(False, f"comparison map breaks dynamics at {chk.witness!r}", sizes)
    return VKReport(True, None, sizes)


def systems_isomorphic(s1: MealySystem, s2: MealySystem) -> bool:
    """State-renaming isomorphism test for homogeneous machines on one
    interface.  Backtracking over output signatures; at most 8 states."""
    if not (s1.homogeneous and s2.homogeneous):
        raise CheckerError("isomorphism test is for homogeneous machines")
    if s1.inputs != s2.inputs or s1.outputs != s2.outputs:
        return False
    if len(s1.before) != len(s2.before):
        return False
    if len(s1.before) > 8:
        raise ScaleExceeded("isomorphism test capped at 8 states")

    def signature(sys_: MealySystem, s: Ident) -> tuple[Ident, ...]:
        return tuple(sys_.transition(s, ch)[1] for ch in sys_.inputs)

    candidates = {
        s: [t for t in s2.before if signature(s2, t) == signature(s1, s)]
        for s in s1.before
    }

    def extend(assign: dict[Ident, Ident], used: set[Ident], todo: list[Ident]) -> bool:
        if not todo:
            return all(
                assign[s1.transition(s, ch)[0]] == s2.transition(assign[s], ch)[0]
                for s in s1.before
                for ch in s1.inputs
            )
        s = todo[0]
        for t in candidates[s]:
            if t in used:
                continue
            assign[s] = t
            used.add(t)
            ok = True
            for ch in s1.inputs:
                nxt1 = s1.transition(s, ch)[0]
                nxt2 = s2.transition(t, ch)[0]
                if nxt1 in assign and assign[nxt1] != nxt2:
                    ok = False
                    break
            if ok and extend(assign, used, todo[1:]):
                return True
            del assign[s]
            used.remove(t)
        return False

    return extend({}, set(), list(s1.before))

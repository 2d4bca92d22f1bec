"""Seeded generators shared by the property suites.

Every generator takes an explicit ``random.Random`` so a failing trial can
be replayed from the seed printed by conftest.
"""

from __future__ import annotations

import random
from itertools import combinations

from sheafmealy import (
    Covering,
    Judge,
    MealySystem,
    OpenImmersion,
    Section,
    SystemMorphism,
    covering,
    judge,
    judged_section,
    make_system,
    morphism,
    restrict_section,
    section,
    subsystem,
)
from sheafmealy.systems import Ident

RAW_INPUTS = ["a", "b", "c", "d"]
RAW_OUTPUTS = ["0", "1", "2", "3"]
INTERP_INPUTS = ["A", "B", "C"]
INTERP_OUTPUTS = ["X", "Y", "Z"]


# ------------------------------------------------------------- bare systems

def rand_system(
    rng: random.Random,
    max_states: int = 6,
    max_inputs: int = 3,
    max_outputs: int = 3,
    homogeneous: bool = False,
) -> MealySystem:
    nb = rng.randint(1, max_states)
    before = [f"s{k}" for k in range(nb)]
    if homogeneous:
        after = before
    else:
        na = rng.randint(1, max_states)
        after = [f"t{k}" for k in range(na)]
    inputs = RAW_INPUTS[: rng.randint(1, max_inputs)]
    outputs = RAW_OUTPUTS[: rng.randint(1, max_outputs)]
    dyn = {
        (s, c): (rng.choice(after), rng.choice(outputs))
        for s in before
        for c in inputs
    }
    return make_system(before, after, inputs, outputs, dyn)


def rand_machine(
    rng: random.Random,
    inputs: list[str],
    outputs: list[str],
    n_states: int,
    prefix: str = "m",
    duplicate_rows: bool = False,
) -> MealySystem:
    """Homogeneous machine over a fixed interface.  With ``duplicate_rows``
    some states copy another state's whole transition row, which makes the
    identical-row quotient used by the pushout generators non-trivial."""
    states = [f"{prefix}{k}" for k in range(n_states)]
    dyn: dict[tuple[str, str], tuple[str, str]] = {}
    for k, s in enumerate(states):
        if duplicate_rows and k > 0 and rng.random() < 0.4:
            src = states[rng.randrange(k)]
            for c in inputs:
                dyn[(s, c)] = dyn[(src, c)]
        else:
            for c in inputs:
                dyn[(s, c)] = (rng.choice(states), rng.choice(outputs))
    return make_system(states, states, inputs, outputs, dyn)


# ---------------------------------------------------------------- patches

def rand_patch(rng: random.Random, system: MealySystem) -> OpenImmersion:
    """Random valid subsystem: carriers are closed under the kept dynamics
    by construction (successors and their outputs are forced in)."""
    b = [s for s in system.before if rng.random() < 0.6]
    if not b and system.before:
        b = [rng.choice(system.before)]
    i = [c for c in system.inputs if rng.random() < 0.7]
    if not i:
        i = [rng.choice(system.inputs)]
    a = {system.transition(s, c)[0] for s in b for c in i}
    o = {system.transition(s, c)[1] for s in b for c in i}
    a.update(s for s in system.after if rng.random() < 0.2)
    o.update(x for x in system.outputs if rng.random() < 0.2)
    if not a:
        a = {rng.choice(system.after)}
    if not o:
        o = {rng.choice(system.outputs)}
    return subsystem(system, sorted(b), sorted(a), sorted(i), sorted(o))


def rand_data_local_covering(
    rng: random.Random, system: MealySystem, max_patches: int = 3
) -> Covering:
    """Patches keep the full interface and split the state carriers."""
    k = rng.randint(1, max_patches)
    buckets: list[set] = [set() for _ in range(k)]
    for s in system.before:
        buckets[rng.randrange(k)].add(s)
    pieces: list[tuple[set, set]] = []
    covered_after: set = set()
    for bset in buckets:
        if not bset:
            continue
        succ = {system.transition(s, c)[0] for s in bset for c in system.inputs}
        succ.update(s for s in system.after if rng.random() < 0.25)
        pieces.append((bset, succ))
        covered_after |= succ
    if not pieces:
        pieces.append((set(system.before), set(system.after)))
        covered_after = set(system.after)
    for s in system.after:
        if s not in covered_after:
            pieces[rng.randrange(len(pieces))][1].add(s)
    ims = [subsystem(system, sorted(b), sorted(a)) for b, a in pieces]
    return covering(system, ims)


def rand_input_split_covering(rng: random.Random, system: MealySystem) -> Covering:
    """Patches keep the full carriers and split the input alphabet."""
    letters = list(system.inputs)
    rng.shuffle(letters)
    k = rng.randint(1, min(3, len(letters)))
    ims = []
    for start in range(k):
        blk = sorted(letters[start::k])
        if blk:
            ims.append(subsystem(system, inputs=blk))
    return covering(system, ims)


def rand_covering(rng: random.Random, system: MealySystem, max_patches: int = 3) -> Covering:
    if rng.random() < 0.5:
        return rand_data_local_covering(rng, system, max_patches)
    return rand_input_split_covering(rng, system)


# ------------------------------------------------- explained random systems

def rand_explained_system(
    rng: random.Random,
    max_states: int = 6,
    max_machine_states: int = 3,
) -> tuple[MealySystem, Judge, Section]:
    """A system built over a random explanatory machine, so the labeling is
    a valid global section by construction.  The judge is surjective on both
    interfaces and the labeling is surjective on machine states."""
    interp_i = INTERP_INPUTS[: rng.randint(1, 2)]
    interp_o = INTERP_OUTPUTS[: rng.randint(1, 2)]
    n_m = rng.randint(1, max_machine_states)
    mach = rand_machine(rng, interp_i, interp_o, n_m)
    raw_i: list[str] = []
    j_i: dict[str, str] = {}
    for k, ci in enumerate(interp_i):
        for n in range(rng.randint(1, 2)):
            name = f"{RAW_INPUTS[k]}{n}"
            raw_i.append(name)
            j_i[name] = ci
    raw_o: list[str] = []
    j_o: dict[str, str] = {}
    for k, co in enumerate(interp_o):
        for n in range(rng.randint(1, 2)):
            name = f"{RAW_OUTPUTS[k]}{n}"
            raw_o.append(name)
            j_o[name] = co
    n_s = rng.randint(n_m, max_states)
    before = [f"s{k}" for k in range(n_s)]
    # Surjective labeling: permuting a surjective assignment keeps it onto.
    pool = [mach.before[k % n_m] for k in range(n_s)]
    rng.shuffle(pool)
    labels = dict(zip(before, pool))
    by_label: dict[str, list[str]] = {}
    for s, m in labels.items():
        by_label.setdefault(m, []).append(s)
    o_pre: dict[str, list[str]] = {}
    for o, co in j_o.items():
        o_pre.setdefault(co, []).append(o)
    dyn: dict[tuple[str, str], tuple[str, str]] = {}
    for s in before:
        for c in raw_i:
            m2, co = mach.transition(labels[s], j_i[c])
            dyn[(s, c)] = (rng.choice(by_label[m2]), rng.choice(o_pre[co]))
    system = make_system(before, before, raw_i, raw_o, dyn)
    jdg = judge(j_i, j_o, interp_i, interp_o)
    ident = subsystem(system)
    psi = morphism(system, mach,
                   {s: labels[s] for s in before},
                   {s: labels[s] for s in before},
                   dict(j_i), dict(j_o))
    return system, jdg, section(ident, mach, psi)


# ------------------------------------------------------- section mutations

def _rename_machine(rng: random.Random, mach: MealySystem, prefix: str) -> tuple[MealySystem, dict[str, str]]:
    order = list(mach.before)
    rng.shuffle(order)
    table = {s: f"{prefix}{k}" for k, s in enumerate(order)}
    dyn = {
        (table[s], c): (table[mach.transition(s, c)[0]], mach.transition(s, c)[1])
        for s in mach.before
        for c in mach.inputs
    }
    names = sorted(table.values())
    return make_system(names, names, mach.inputs, mach.outputs, dyn), table


def iso_rename(rng: random.Random, s: Section, prefix: str) -> Section:
    mach, table = _rename_machine(rng, s.explanatory, prefix)
    src = s.patch.source
    psi = morphism(src, mach,
                   {x: table[s.psi.map_b(x)] for x in src.before},
                   {x: table[s.psi.map_a(x)] for x in src.after},
                   {c: s.psi.map_i(c) for c in src.inputs},
                   {o: s.psi.map_o(o) for o in src.outputs})
    return section(s.patch, mach, psi)


def junk_extend(rng: random.Random, s: Section, prefix: str) -> Section:
    """Add unreachable machine states; the section maps nothing to them."""
    mach = s.explanatory
    extras = [f"{prefix}{k}" for k in range(rng.randint(1, 2))]
    states = list(mach.before) + extras
    dyn = {
        (x, c): mach.transition(x, c)
        for x in mach.before
        for c in mach.inputs
    }
    for x in extras:
        for c in mach.inputs:
            dyn[(x, c)] = (rng.choice(states), rng.choice(mach.outputs))
    big = make_system(states, states, mach.inputs, mach.outputs, dyn)
    src = s.patch.source
    psi = morphism(src, big,
                   {x: s.psi.map_b(x) for x in src.before},
                   {x: s.psi.map_a(x) for x in src.after},
                   {c: s.psi.map_i(c) for c in src.inputs},
                   {o: s.psi.map_o(o) for o in src.outputs})
    return section(s.patch, big, psi)


def row_quotient(s: Section) -> Section:
    """Merge machine states with identical transition rows."""
    mach = s.explanatory
    rows: dict[tuple, str] = {}
    table: dict[str, str] = {}
    for x in mach.before:
        row = tuple(mach.transition(x, c) for c in mach.inputs)
        rep = rows.setdefault(row, x)
        table[x] = rep
    # Rows mention state names, so chase merges until stable.
    changed = True
    while changed:
        changed = False
        rows.clear()
        for x in mach.before:
            row = tuple(
                (table[mach.transition(x, c)[0]], mach.transition(x, c)[1])
                for c in mach.inputs
            )
            rep = rows.setdefault(row, table[x])
            if table[x] != rep:
                table[x] = rep
                changed = True
    reps = sorted(set(table.values()))
    dyn = {
        (table[x], c): (table[mach.transition(x, c)[0]], mach.transition(x, c)[1])
        for x in mach.before
        for c in mach.inputs
    }
    small = make_system(reps, reps, mach.inputs, mach.outputs, dyn)
    src = s.patch.source
    psi = morphism(src, small,
                   {x: table[s.psi.map_b(x)] for x in src.before},
                   {x: table[s.psi.map_a(x)] for x in src.after},
                   {c: s.psi.map_i(c) for c in src.inputs},
                   {o: s.psi.map_o(o) for o in src.outputs})
    return section(s.patch, small, psi)


def mutate_section(rng: random.Random, s: Section, tag: str) -> Section:
    """A section with the same behavior presented by a different machine."""
    r = rng.random()
    if r < 0.3:
        return iso_rename(rng, s, f"{tag}r")
    if r < 0.6:
        return junk_extend(rng, iso_rename(rng, s, f"{tag}r"), f"{tag}j")
    if r < 0.8:
        return row_quotient(s)
    return s


def rand_section_pair(
    rng: random.Random,
) -> tuple[MealySystem, Judge, Covering, Section, Section]:
    system, jdg, sec = rand_explained_system(rng)
    cov = rand_data_local_covering(rng, system)
    return system, jdg, cov, sec, mutate_section(rng, sec, "q")


def core_safe_mutate(rng: random.Random, s: Section, tag: str) -> Section:
    """Like mutate_section but keeps the machine injective over the original
    states.  Merging image states destroys common cores, so quotients are
    out."""
    r = rng.random()
    if r < 0.4:
        return iso_rename(rng, s, f"{tag}r")
    if r < 0.8:
        return junk_extend(rng, iso_rename(rng, s, f"{tag}r"), f"{tag}j")
    return s


def rand_cogerm_family(
    rng: random.Random,
) -> tuple[MealySystem, Judge, Covering, list[Section], Section]:
    system, jdg, sec = rand_explained_system(rng)
    cov = rand_covering(rng, system)
    locals_ = [
        core_safe_mutate(rng, restrict_section(sec, p), f"l{k}")
        for k, p in enumerate(cov.patches)
    ]
    return system, jdg, cov, locals_, sec


def uncovered_step_family() -> tuple[Covering, Judge, list[Section]]:
    """Two states under inputs a and b, one patch that sees input a only,
    and a valid local section whose machine emits 1 on b where the system
    emits 0, so the step at (s1, b) is neither covered nor explained."""
    system = make_system(["s1", "s2"], ["s1", "s2"], ["a", "b"], ["0", "1"],
                         {("s1", "a"): ("s2", "0"), ("s1", "b"): ("s1", "0"),
                          ("s2", "a"): ("s1", "0"), ("s2", "b"): ("s2", "0")})
    j = judge({"a": "a", "b": "b"}, {"0": "0", "1": "1"})
    patch = subsystem(system, inputs=["a"])
    mach = make_system(["m1", "m2"], ["m1", "m2"], ["a", "b"], ["0", "1"],
                       {("m1", "a"): ("m2", "0"), ("m1", "b"): ("m1", "1"),
                        ("m2", "a"): ("m1", "0"), ("m2", "b"): ("m2", "1")})
    states = {"s1": "m1", "s2": "m2"}
    return covering(system, [patch]), j, [judged_section(patch, mach, j, states, states)]


def uncovered_incompatible_family() -> tuple[Covering, Judge, list[Section]]:
    """The patch of :func:`uncovered_step_family` and a second patch on
    input a holding s1 only, whose machine emits 0 on b: the two sections
    disagree on b, and the family is no covering either."""
    c, j, locals_ = uncovered_step_family()
    inner = subsystem(c.target, before=["s1"], inputs=["a"])
    other = make_system(["n1", "n2"], ["n1", "n2"], ["a", "b"], ["0", "1"],
                        {("n1", "a"): ("n2", "0"), ("n1", "b"): ("n1", "0"),
                         ("n2", "a"): ("n1", "0"), ("n2", "b"): ("n2", "0")})
    second = judged_section(inner, other, j, {"s1": "n1"}, {"s1": "n1", "s2": "n2"})
    return covering(c.target, [c.patches[0], inner]), j, [locals_[0], second]


def input_split_family() -> tuple[Judge, Section, Covering, list[Section], Section, Section]:
    """Two states under inputs a and b, covered by one patch per input: the
    judge, the system's own global section and the family of its
    restrictions, then two more sections on the patch of a.  One is the
    system cut down to a, valid on its judged range; the other sends both
    before-states to s1, which does not commute with the dynamics."""
    system = make_system(["s0", "s1"], ["s0", "s1"], ["a", "b"], ["0", "1"],
                         {("s0", "a"): ("s1", "0"), ("s0", "b"): ("s0", "1"),
                          ("s1", "a"): ("s0", "0"), ("s1", "b"): ("s1", "1")})
    j = judge({"a": "a", "b": "b"}, {"0": "0", "1": "1"})
    ids = {"s0": "s0", "s1": "s1"}
    whole = judged_section(subsystem(system), system, j, ids, ids)
    c = covering(system, [subsystem(system, inputs=[x]) for x in ("a", "b")])
    family = [restrict_section(whole, p) for p in c.patches]
    narrow = judged_section(c.patches[0], c.patches[0].source, j, ids, ids)
    broken = judged_section(c.patches[0], system, j, {"s0": "s1", "s1": "s1"}, ids)
    return j, whole, c, family, narrow, broken


def extend_section_alphabet(j: Judge, s: Section) -> Section:
    """Complete a section whose machine lives on the patch's judged range to
    one on the full interpretable alphabet.  Missing letters become self
    loops emitting the least interpretable output, the canonical completion;
    behavior over the original range is unchanged."""
    mach = s.explanatory
    if mach.inputs == j.interp_inputs:
        return s
    least = j.interp_outputs[0]
    dyn: dict[tuple[Ident, Ident], tuple[Ident, Ident]] = {}
    for st in mach.before:
        for c in j.interp_inputs:
            if c in mach.i_index:
                dyn[(st, c)] = mach.transition(st, c)
            else:
                dyn[(st, c)] = (st, least)
    full = make_system(mach.before, mach.after, j.interp_inputs, j.interp_outputs, dyn)
    psi = morphism(
        s.patch.source,
        full,
        {st: s.psi.map_b(st) for st in s.patch.source.before},
        {st: s.psi.map_a(st) for st in s.patch.source.after},
        {c: s.psi.map_i(c) for c in s.patch.source.inputs},
        {o: s.psi.map_o(o) for o in s.patch.source.outputs},
    )
    return Section(s.patch, full, psi)


# --------------------------------------------------------------- pushouts

def rand_mono_span(
    rng: random.Random,
) -> tuple[MealySystem, MealySystem, MealySystem, SystemMorphism, SystemMorphism, bool]:
    """Span a <-m- c -f-> b over one interface with m an inclusion and f a
    rename, an identical-row quotient, or an embedding into a larger machine.
    Returns the span plus whether f is injective."""
    inputs = RAW_INPUTS[: rng.randint(1, 2)]
    outputs = RAW_OUTPUTS[: rng.randint(1, 2)]
    c = rand_machine(rng, inputs, outputs, rng.randint(1, 2), prefix="c",
                     duplicate_rows=True)
    # a: extend c with fresh states whose transitions may enter c.
    extras = [f"a{k}" for k in range(rng.randint(0, 2))]
    a_states = list(c.before) + extras
    dyn_a = {(s, ch): c.transition(s, ch) for s in c.before for ch in inputs}
    for s in extras:
        for ch in inputs:
            dyn_a[(s, ch)] = (rng.choice(a_states), rng.choice(outputs))
    a = make_system(a_states, a_states, inputs, outputs, dyn_a)
    m = morphism(c, a, {s: s for s in c.before}, {s: s for s in c.before},
                 {ch: ch for ch in inputs}, {o: o for o in outputs})
    # b: quotient identical rows, then embed and rename.
    rows: dict[tuple, str] = {}
    table: dict[str, str] = {}
    for s in c.before:
        row = tuple(c.transition(s, ch) for ch in inputs)
        table[s] = rows.setdefault(row, s)
    reps = sorted(set(table.values()))
    dyn_q = {
        (table[s], ch): (table[c.transition(s, ch)[0]], c.transition(s, ch)[1])
        for s in c.before
        for ch in inputs
    }
    b_extras = [f"b{k}" for k in range(rng.randint(0, 2))]
    rename = {s: f"b{s}" for s in reps}
    b_states = sorted(rename.values()) + b_extras
    dyn_b = {
        (rename[s], ch): (rename[s2], o)
        for (s, ch), (s2, o) in dyn_q.items()
    }
    for s in b_extras:
        for ch in inputs:
            dyn_b[(s, ch)] = (rng.choice(b_states), rng.choice(outputs))
    b = make_system(b_states, b_states, inputs, outputs, dyn_b)
    f_table = {s: rename[table[s]] for s in c.before}
    f = morphism(c, b, f_table, f_table,
                 {ch: ch for ch in inputs}, {o: o for o in outputs})
    injective = len(set(f_table.values())) == len(f_table)
    return c, a, b, m, f, injective


def lift_over(
    rng: random.Random, apex: MealySystem, max_states: int = 4
) -> SystemMorphism | None:
    """Random interface-fixing morphism into ``apex``: pick a dynamics-closed
    label set, give each label one or more covering states, and lift each
    transition to a random state with the right label."""
    seed_label = rng.choice(apex.before)
    labels = {seed_label}
    frontier = [seed_label]
    while frontier:
        x = frontier.pop()
        for ch in apex.inputs:
            y = apex.transition(x, ch)[0]
            if y not in labels:
                labels.add(y)
                frontier.append(y)
    labels_l = sorted(labels)
    if len(labels_l) > max_states:
        return None
    states: list[str] = []
    label_of: dict[str, str] = {}
    by_label: dict[str, list[str]] = {lab: [] for lab in labels_l}
    for k, lab in enumerate(labels_l):
        name = f"w{k}"
        states.append(name)
        label_of[name] = lab
        by_label[lab].append(name)
    while len(states) < max_states and rng.random() < 0.5:
        lab = rng.choice(labels_l)
        name = f"w{len(states)}"
        states.append(name)
        label_of[name] = lab
        by_label[lab].append(name)
    dyn = {}
    for w in states:
        for ch in apex.inputs:
            y, o = apex.transition(label_of[w], ch)
            dyn[(w, ch)] = (rng.choice(by_label[y]), o)
    w_sys = make_system(states, states, apex.inputs, apex.outputs, dyn)
    return morphism(w_sys, apex, label_of, label_of,
                    {ch: ch for ch in apex.inputs},
                    {o: o for o in apex.outputs})


# --------------------------------------------------------------- epsilon

def rand_point(rng: random.Random, dim: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(dim))


def rand_point_family(
    rng: random.Random, dim: int, max_patches: int = 6, max_points: int = 3
) -> list[tuple[tuple[float, ...], ...]]:
    n = rng.randint(dim + 2, max_patches)
    return [
        tuple(rand_point(rng, dim) for _ in range(rng.randint(1, max_points)))
        for _ in range(n)
    ]


def subfamilies(n: int, size: int):
    return combinations(range(n), size)

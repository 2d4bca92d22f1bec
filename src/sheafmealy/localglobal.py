"""Separation and gluing checkers for families of judged sections.

Local data lives on the patches of a covering; the checkers here decide
whether local agreement forces global agreement (separation) and whether
compatible local explanations assemble into a global one (gluing), at four
resolutions of "same explanation": literal equality, common core, equal
behavior, and equal behavior over the patch's judged input range.  Negative
verdicts come with replayable obstruction reports.

Conventions used throughout:

* gluers take ``(covering, sections, judge)``; stateless gluing takes
  ``(covering, judge)``, because a stateless section over a patch is unique
  when it exists, so the covering alone fixes the family;
* families are indexed like their covering's patches, and each section's
  patch must be the covering patch itself;
* every section checker refuses a patch family that is no covering, by
  one function and before it validates a section; the gluers check in one
  order: one section per patch, each on its patch, the covering, each
  section valid, then its interface.  ``glue_stateless`` takes any patch
  family;
* behavioral comparisons on an overlap use the componentwise intersection
  patch of the two covering patches;
* every state of the target is read off the first patch holding it, in
  patch order, by one rule, ``_paste``: the strict and core gluers paste
  their state maps with it, and the behavioral gluer its before-classes and
  the classes of after-states that no transition forces.  Only the
  before-state assignment is observable, so this choice never affects
  behavioral comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CheckerError,
    IncompatibleFamily,
    InternalConsistencyError,
    NotStateless,
)
from .explain import (
    BehaviorPartition,
    Judge,
    Section,
    _witness_walk,
    behavioral_equiv,
    block_distinguishing_word,
    check_cogerm_witness,
    cogerm_equiv,
    pooled_behavior,
    restrict_section,
    restricted_interface,
    validate_section,
)
from .systems import (
    Covering,
    Ident,
    MealySystem,
    OpenImmersion,
    SystemMorphism,
    _table_system,
    amalgamate,
    check_covering,
    identity_patch,
    overlap_patch,
    restrict_immersion,
)


@dataclass(frozen=True)
class ForcedBehavior:
    """One of the conflicting continuations in an obstruction: a state of a
    concrete machine whose outputs along the report's word realize it."""

    label: str
    machine: MealySystem
    state: Ident
    outputs: tuple[Ident, ...]


@dataclass(frozen=True)
class ObstructionReport:
    """Replayable negative verdict.

    ``kind`` is one of behavioral-gluing, separation, stateless.  ``site``
    names the offending identifiers (an after-state, a state, or a judged
    input).  Each forced behavior's ``outputs`` are its machine's run from
    its state along ``word``, replayed by construction in
    :func:`_obstruction`, and the two output sequences differ.
    """

    kind: str
    site: tuple[Ident, ...]
    word: tuple[Ident, ...] | None
    forced: tuple[ForcedBehavior, ...]
    narrative: str


def _obstruction(
    kind: str,
    site: tuple[Ident, ...],
    word: tuple[Ident, ...] | None,
    narrative: str,
    *forced: tuple[str, MealySystem, Ident],
) -> ObstructionReport:
    """The report whose forced behaviors are the ``(label, machine, state)``
    triples, each with its machine's outputs from its state along ``word``."""
    return ObstructionReport(kind, site, word, tuple(
        ForcedBehavior(label, m, q, m.run(q, word)) for label, m, q in forced), narrative)


def _glued_section(
    tgt: MealySystem,
    machine: MealySystem,
    j: Judge,
    f_b: Sequence[int],
    f_a: Sequence[int],
) -> Section:
    """The judged section of the whole target that a gluer assembled from
    the positions of its before- and after-states' images in ``machine``;
    it is valid by construction, so a failure is a bug."""
    psi = SystemMorphism(tgt, machine, tuple(f_b), tuple(f_a),
                         tuple([machine.i_index[j.j_i[c]] for c in tgt.inputs]),
                         tuple([machine.o_index[j.j_o[o]] for o in tgt.outputs]))
    glued = Section(identity_patch(tgt), machine, psi)
    rep = validate_section(j, glued)
    if not rep.ok:
        raise InternalConsistencyError(f"glued section fails validation: {rep.reason}")
    return glued


def _paste(
    c: Covering,
    sections: Sequence[Section],
    relabel: Sequence[Sequence[int]] | None = None,
) -> tuple[list[int], list[int], tuple[bool, Ident] | None]:
    """The sections' state maps pasted patch by patch into before- and
    after-state tables of the target, each state taken from the first patch
    holding it and its image relabelled by ``relabel[k]`` for patch ``k``
    when given, and the first conflict ``(is_after, state)``, or None."""
    tgt = c.target
    carriers = (tgt.before, tgt.after)
    glued: tuple[list, list] = ([None] * len(tgt.before), [None] * len(tgt.after))
    conflict = None
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        for after, f_p, f_s in ((0, p.morphism.f_b, s.psi.f_b), (1, p.morphism.f_a, s.psi.f_a)):
            table = glued[after]
            for x, v in zip(f_p, f_s if relabel is None else map(relabel[k].__getitem__, f_s)):
                if table[x] is None:
                    table[x] = v
                elif conflict is None and table[x] != v:
                    conflict = (bool(after), carriers[after][x])
    return *glued, conflict


def _closure(seeds, successors) -> set:
    """The seeds and everything ``successors`` reaches from them."""
    reach = set(seeds)
    frontier = list(reach)
    while frontier:
        for nxt in successors(frontier.pop()):
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    return reach


def _overlap_restrictions(
    c: Covering, sections: Sequence[Section], a: int, b: int
) -> tuple[Section, Section]:
    w = overlap_patch(c.patches[a], c.patches[b])
    na = restrict_immersion(w, c.patches[a])
    nb = restrict_immersion(w, c.patches[b])
    return restrict_section(sections[a], na), restrict_section(sections[b], nb)


def _check_covering(c: Covering) -> None:
    """Refuse a patch family that is no covering, raising
    :class:`CheckerError` that names the target states lying in no patch,
    else the first pair of a state and a letter that no patch holds."""
    tgt = c.target
    held_b = set().union(*(p.b_image for p in c.patches))
    held_a = set().union(*(p.a_image for p in c.patches))
    missing = [x for x in tgt.before if x not in held_b]
    missing += [x for x in tgt.after if x not in held_a]
    if missing:
        raise CheckerError(f"covering leaves states unexplained: {missing!r}")
    chk = check_covering(c)
    if not chk.ok:
        raise CheckerError(f"family covering leaves {chk.pair!r} uncovered on the {chk.side} side")


def _check_family(
    c: Covering,
    j: Judge,
    sections: Sequence[Section],
    alphabet: tuple[Ident, ...] | None = None,
) -> None:
    """Check a family of local sections, raising :class:`CheckerError` at
    the first failure in this order: one section per covering patch, each
    sitting on its patch; the covering itself (:func:`_check_covering`);
    each section valid and, given an ``alphabet``, with that input
    interface."""
    if len(sections) != len(c.patches):
        raise CheckerError("one section per covering patch is required")
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        if s.patch != p:
            raise CheckerError(f"section {k} does not sit on covering patch {k}")
    _check_covering(c)
    for k, s in enumerate(sections):
        rep = validate_section(j, s)
        if not rep.ok:
            raise CheckerError(f"local section {k} invalid: {rep.reason}")
        if alphabet is not None and s.explanatory.inputs != alphabet:
            raise CheckerError(f"local machine {k} is not on the full interpretable interface")


@dataclass(frozen=True)
class SeparationReport:
    kind: str
    locally_equal: tuple[bool, ...]
    local_witnesses: tuple[tuple[Ident, tuple[Ident, ...]] | None, ...]
    globally_equal: bool
    global_witness: tuple[Ident, tuple[Ident, ...]] | None
    separation_violated: bool
    obstruction: ObstructionReport | None


def check_separation(
    kind: str,
    c: Covering,
    s: Section,
    t: Section,
    j: Judge,
) -> SeparationReport:
    """Compare two sections of the covered system patchwise and globally.

    ``kind`` selects the resolution: ``strict`` (literal equality),
    ``cogerm`` (common core), ``beh`` (equal behavior over the full
    interpretable alphabet), or ``ri`` (equal behavior over each patch's
    judged input range, and over the target's range globally).  Separation
    is violated when all patchwise comparisons succeed but the global one
    fails; the report then carries a replayable obstruction.
    """
    if kind not in ("strict", "cogerm", "beh", "ri"):
        raise CheckerError(f"unknown separation kind {kind!r}")
    if s.patch != t.patch or s.patch.source != c.target:
        raise CheckerError("separation compares sections of the covered system")
    _check_covering(c)

    def compare(a: Section, b: Section, patch: OpenImmersion
                ) -> tuple[bool, tuple[Ident, tuple[Ident, ...]] | None]:
        """Whether ``a`` and ``b``, sections over ``patch``, are equal at
        this resolution, with a distinguishing state and word if not."""
        if kind == "strict":
            return a.explanatory == b.explanatory and a.psi == b.psi, None
        if kind == "cogerm":
            return cogerm_equiv(a, b) is not None, None
        alphabet = j.interp_inputs if kind == "beh" else restricted_interface(j, patch)
        rep = behavioral_equiv(a, b, alphabet)
        return rep.ok, (None if rep.ok else (rep.state, rep.word))

    local = [compare(restrict_section(s, p), restrict_section(t, p), p) for p in c.patches]
    locally = tuple(ok for ok, _ in local)
    globally, gwit = compare(s, t, s.patch)
    violated = all(locally) and not globally
    obstruction = None
    if violated and gwit is not None:
        state, word = gwit
        obstruction = _obstruction(
            "separation", (state,), word,
            f"sections agree on every patch but diverge from state {state!r} "
            f"on the word {'/'.join(word)}",
            *((f"{which} section from its image of the witness state",
               sec.explanatory, sec.psi.map_b(state))
              for which, sec in (("first", s), ("second", t))))
    elif violated:
        obstruction = _obstruction(
            "separation", (), None,
            "sections agree on every patch but admit no common core globally")
    return SeparationReport(
        kind,
        locally,
        tuple(wit for _, wit in local),
        globally,
        gwit,
        violated,
        obstruction,
    )


def glue_cogerm(c: Covering, sections: Sequence[Section], j: Judge) -> Section:
    """Assemble a family into a global section, up to common cores.

    Overlap witnesses are synthesized by the pair-closure decision
    procedure; an overlap without one raises :class:`IncompatibleFamily`,
    and a synthesized witness that fails its check is a bug.  The global
    machine is the quotient of the disjoint union of the local machines by
    the witness identifications, computed as iterated pushouts of
    injections in one amalgamation step.
    """
    _check_family(c, j, sections, j.interp_inputs)
    machines = [s.explanatory for s in sections]
    idents: list[tuple[int, Ident, int, Ident]] = []
    for a in range(len(sections)):
        for b in range(a + 1, len(sections)):
            ra, rb = _overlap_restrictions(c, sections, a, b)
            w = cogerm_equiv(ra, rb)
            if w is None:
                raise IncompatibleFamily(
                    f"patches {a} and {b} admit no common core on their overlap"
                )
            ok, reason = check_cogerm_witness(ra, rb, w)
            if not ok:
                raise InternalConsistencyError(
                    f"synthesized witness for patches {a} and {b} fails: {reason}"
                )
            for r in w.core.before:
                idents.append((a, w.i1.map_b(r), b, w.i2.map_b(r)))
    amalgam = amalgamate(machines, idents)
    f_b, f_a, conflict = _paste(c, sections, [e.f_b for e in amalgam.embeddings])
    if conflict is not None:
        after, x = conflict
        raise InternalConsistencyError(
            f"glued {'after' if after else 'before'}-assignment conflicts at {x!r}"
        )
    return _glued_section(c.target, amalgam.system, j, f_b, f_a)


def glue_behavioral(
    c: Covering,
    sections: Sequence[Section],
    j: Judge,
) -> Section | ObstructionReport:
    """Assemble a family into a global section, up to behavior.

    The local machines are pooled into one behavior partition; each
    before-state of the target takes the class of its image in the first
    patch containing it (:func:`_paste`), which pairwise overlap
    compatibility (checked first on the same partition, raising
    :class:`IncompatibleFamily`) makes patch-independent.  Every transition
    of the target then forces a class on its successor;
    an after-state forced to two distinct classes is a gluing obstruction,
    returned as a replayable report.  Otherwise the forced classes, closed
    under one-step dynamics, form the global machine.
    """
    alphabet = j.interp_inputs
    _check_family(c, j, sections, alphabet)
    machines = [s.explanatory for s in sections]
    part = pooled_behavior(machines, alphabet)
    block_of = [[part.block_index[(k, s)] for s in m.before] for k, m in enumerate(machines)]
    tgt = c.target
    _check_compatible(c, sections, part, block_of)
    before_block, first_after, _ = _paste(c, sections, block_of)
    judged_in = [part.letter_index[j.j_i[ch]] for ch in tgt.inputs]
    judged_out = [part.outputs.index(j.j_o[o]) for o in tgt.outputs]
    # Each step is explained by its before-state's class and forces a class on its after-state.
    derived: dict[int, dict[int, tuple[int, int]]] = {}
    for b, (blk, row) in enumerate(zip(before_block, tgt.step)):
        for i, (x, o) in enumerate(row):
            if part.out_table[blk][judged_in[i]] != judged_out[o]:
                # Valid, compatible local sections explain every step of a covering.
                raise InternalConsistencyError(
                    f"pooled class misexplains the step at ({tgt.before[b]!r}, {tgt.inputs[i]!r})"
                )
            derived.setdefault(x, {}).setdefault(part.succ_table[blk][judged_in[i]], (b, i))
    for x in sorted(derived):
        if len(derived[x]) > 1:
            (b1, via1), (b2, via2) = sorted(derived[x].items())[:2]
            word = block_distinguishing_word(part, b1, b2)
            forced = []
            for blk, (b, i) in ((b1, via1), (b2, via2)):
                mk, rep_state = part.blocks[blk][0]
                forced.append((f"forced by the step at ({tgt.before[b]!r}, {tgt.inputs[i]!r})",
                               machines[mk], rep_state))
            return _obstruction(
                "behavioral-gluing", (tgt.after[x],), word,
                f"after-state {tgt.after[x]!r} is forced into two behavior classes; "
                f"they diverge on the word {'/'.join(word)}", *forced)
    after_block = [next(iter(derived[x])) if x in derived else blk
                   for x, blk in enumerate(first_after)]
    order = sorted(_closure({*before_block, *after_block}, part.succ_table.__getitem__))
    at = {blk: k for k, blk in enumerate(order)}
    names = [f"b{k}" for k in range(len(order))]
    machine, pos = _table_system(names, alphabet, j.interp_outputs, (
        [(at[t], o) for t, o in zip(part.succ_table[blk], part.out_table[blk])] for blk in order))
    return _glued_section(tgt, machine, j, [pos[at[blk]] for blk in before_block],
                          [pos[at[blk]] for blk in after_block])


def _check_compatible(
    c: Covering, sections: Sequence[Section], part: BehaviorPartition, block_of: list[list[int]]
) -> None:
    """Refuse a family whose patches disagree on the behavior class of a
    shared before-state, in the partition pooled from the sections'
    machines in family order, whose class of state ``v`` of machine ``k``
    is ``block_of[k][v]``.  Only the before-side is constrained:
    behavioral identity of sections compares the images of before-states.

    Two patches are compatible when their sections put every shared
    before-state in one class.  The overlap of two patches is closed, and
    the shortest, least separating word of two states does not depend on
    which other machines are pooled with them, so this is the comparison of
    the two sections restricted to the overlap.  The first incompatible pair
    of patches raises :class:`IncompatibleFamily` naming the witness of
    :func:`explain.behavioral_equiv`, found by the same walk over the two
    sections' machines from the images of the shared before-states that
    the partition separates, keyed by their target positions."""
    images = [dict(zip(p.morphism.f_b, s.psi.f_b)) for p, s in zip(c.patches, sections)]
    tgt = c.target
    for a, b in itertools.combinations(range(len(images)), 2):
        # Target states are numbered in name order, so the least position is the least name.
        starts = [(x, v, images[b][x]) for x, v in images[a].items()
                  if x in images[b] and block_of[a][v] != block_of[b][images[b][x]]]
        if starts:
            word, x = _witness_walk(sections[a].explanatory, sections[b].explanatory,
                                    part.alphabet, starts)
            raise IncompatibleFamily(
                f"patches {a} and {b} disagree behaviorally at state {tgt.before[x]!r} "
                f"on word {'/'.join(word)}"
            )


def search_bounded_behavioral_glue(
    c: Covering,
    sections: Sequence[Section],
    j: Judge,
    max_states: int = 4,
) -> Section | None:
    """A global section matching the family's behavior whose explanatory
    machine has at most ``max_states`` states, or None when there is none.

    Decided from :func:`glue_behavioral`, without enumerating machines.  An
    obstruction forces one after-state into two behavior classes, so no
    machine of any size glues.  Otherwise the glued machine's states are
    pairwise inequivalent classes, and every machine that glues carries
    each class reachable from the images of the target's before-states on
    a state of its own (Moore's minimal machine).  The glued machine cut
    down to those classes R still glues once each after-state that no
    transition reaches points into R.  So the least size is |R|, or one
    state when the target has after-states but no before-states; that
    least section is returned when it fits the bound.
    """
    glued = glue_behavioral(c, sections, j)
    if isinstance(glued, ObstructionReport):
        return None
    m, psi = glued.explanatory, glued.psi
    reach = _closure(set(psi.f_b), lambda q: [a for a, _ in m.step[q]])
    keep = sorted(reach) or [0][:len(m.before)]
    if len(keep) > max_states:
        return None
    if len(keep) == len(m.before):
        return glued
    # Only the one-state machine of a target without before-states has
    # steps leaving ``reach``; they loop back.
    at = {q: k for k, q in enumerate(keep)}
    machine, pos = _table_system([m.before[q] for q in keep], m.inputs, m.outputs, (
        [(at.get(a, k), o) for a, o in m.step[q]] for k, q in enumerate(keep)))
    return _glued_section(c.target, machine, j, [pos[at[q]] for q in psi.f_b],
                          [pos[at.get(q, 0)] for q in psi.f_a])


@dataclass(frozen=True)
class GlueStrictResult:
    section: Section | None
    conflict: str | None


def glue_strict(c: Covering, sections: Sequence[Section], j: Judge) -> GlueStrictResult:
    """Assemble a family into a global section, literally.

    All local machines must be one and the same machine and the maps must
    agree pointwise on overlaps; the global map is then read off pointwise.
    """
    _check_family(c, j, sections)
    machine = sections[0].explanatory
    for k, s in enumerate(sections):
        if s.explanatory != machine:
            return GlueStrictResult(None, f"patch {k} explains with a different machine")
    f_b, f_a, conflict = _paste(c, sections)
    if conflict is not None:
        after, x = conflict
        return GlueStrictResult(
            None, f"patches assign different images to {'after-' if after else ''}state {x!r}"
        )
    return GlueStrictResult(_glued_section(c.target, machine, j, f_b, f_a), None)


@dataclass(frozen=True)
class StatelessSectionReport:
    ok: bool
    assignment: tuple[tuple[Ident, Ident], ...] | None
    violation: tuple[Ident, Ident, Ident, Ident, Ident] | None


def stateless_ri_section(m: OpenImmersion, j: Judge) -> StatelessSectionReport:
    """The unique candidate stateless explanation of a patch, if coherent.

    The patched system must have a single state: it is then an output
    function ``f`` on its inputs, and a stateless explanation over the
    patch's judged range exists exactly when ``j_O . f`` is constant on each
    judged-input fiber within the patch.  On failure the violation names
    the fiber and two witnesses ``(i', i1, o1', i2, o2')``.
    """
    system = m.target
    if len(system.before) != 1 or len(system.after) != 1 or not system.homogeneous:
        raise NotStateless("stateless sections need a single-state homogeneous system")
    s0 = m.source.before[0] if m.source.before else None
    if s0 is None:
        return StatelessSectionReport(True, (), None)
    values: dict[Ident, tuple[Ident, Ident]] = {}
    for ki in m.morphism.f_i:
        raw = system.inputs[ki]
        judged_in = j.j_i[raw]
        judged_out = j.j_o[system.outputs[system.step[0][ki][1]]]
        prev = values.get(judged_in)
        if prev is not None and prev[1] != judged_out:
            first = min((prev, (raw, judged_out)), key=lambda t: t[0])
            second = max((prev, (raw, judged_out)), key=lambda t: t[0])
            return StatelessSectionReport(
                False, None, (judged_in, first[0], first[1], second[0], second[1])
            )
        if prev is None or prev[0] > raw:
            values[judged_in] = (raw, judged_out)
    assignment = tuple(sorted((k, v[1]) for k, v in values.items()))
    return StatelessSectionReport(True, assignment, None)


def _stateless_machine(j: Judge, letters: tuple[Ident, ...], out: Ident) -> MealySystem:
    row = [(0, j.interp_outputs.index(out))] * len(letters)
    return _table_system(["s"], letters, j.interp_outputs, [row])[0]


@dataclass(frozen=True)
class GlueStatelessResult:
    ok: bool
    assignment: tuple[tuple[Ident, Ident], ...] | None
    obstruction: ObstructionReport | None
    patch_assignments: tuple[tuple[tuple[Ident, Ident], ...], ...]


def glue_stateless(c: Covering, j: Judge) -> GlueStatelessResult:
    """Glue the stateless explanations of a covering's patches into one
    judged output function.

    A stateless section over a patch is unique when it exists, so the
    family is the covering's own; a patch without one raises
    :class:`IncompatibleFamily`.  The family is always compatible: every
    patch restricts the one output function of ``c.target``, so two patches
    agree at each judged input their overlap realizes.  The overlap's own
    judged range can be strictly smaller than the intersection of the patch
    ranges, so the family glues exactly when the union of the assignment
    graphs is single-valued.  The result carries each patch's assignment.
    """
    reports = [stateless_ri_section(p, j) for p in c.patches]
    for k, rep in enumerate(reports):
        if not rep.ok:
            raise IncompatibleFamily(
                f"patch {k} admits no stateless explanation: fiber {rep.violation[0]!r}"
            )
    assignments = tuple(rep.assignment for rep in reports)
    merged: dict[Ident, Ident] = {}
    for asg in assignments:
        for i_p, o_p in asg:
            prev = merged.get(i_p)
            if prev is not None and prev != o_p:
                return GlueStatelessResult(False, None, _obstruction(
                    "stateless", (i_p,), (i_p,),
                    f"judged input {i_p!r} is forced to both {prev!r} and {o_p!r} "
                    "by patches whose overlap never sees it",
                    *((f"assignment of a patch containing judged input {i_p!r}",
                       _stateless_machine(j, (i_p,), o_val), "s") for o_val in (prev, o_p))),
                    assignments)
            merged.setdefault(i_p, o_p)
    return GlueStatelessResult(True, tuple(sorted(merged.items())), None, assignments)

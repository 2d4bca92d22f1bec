"""References for :func:`sheafmealy.glue_behavioral` and
:func:`sheafmealy.search_bounded_behavioral_glue`.

``overlap_glue_behavioral`` is the direct form of behavioral gluing: it
checks overlap compatibility pair by pair, restricting both sections to the
intersection patch and comparing them with :func:`behavioral_equiv`, which
pools the two machines afresh.  The library reads the same verdict off the
one partition of all local machines; the seeded tests require the same
glued sections, obstruction reports and error messages from both.  The
reference names an obstruction's word with ``explain_oracles._class_word``,
not with the library's walk.

``enumerate_behavioral_glue`` answers the bounded search by brute force,
trying every machine table up to the bound.  The library decides the same
question from the glued machine; the seeded tests require the same outcome,
error and least machine size from both.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from explain_oracles import _class_word
from sheafmealy import (
    CheckerError,
    Covering,
    ForcedBehavior,
    IncompatibleFamily,
    InternalConsistencyError,
    Judge,
    MealySystem,
    ObstructionReport,
    OpenImmersion,
    ScaleExceeded,
    Section,
    behavioral_equiv,
    identity_morphism,
    judged_section,
    make_system,
    overlap_patch,
    pooled_behavior,
    restrict_immersion,
    restrict_section,
    validate_section,
)
from site_oracle import reference_glued_section


def _overlap_forced_classes(c: Covering, sections: Sequence[Section], j: Judge):
    """The family checks, then the pooled partition, its block lookup and
    the class each target before-state takes, with overlap compatibility
    checked pair by pair."""
    if len(sections) != len(c.patches):
        raise CheckerError("one section per covering patch is required")
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        if s.patch != p:
            raise CheckerError(f"section {k} does not sit on covering patch {k}")
    alphabet = j.interp_inputs
    for k, s in enumerate(sections):
        rep = validate_section(j, s)
        if not rep.ok:
            raise CheckerError(f"local section {k} invalid: {rep.reason}")
        if s.explanatory.inputs != alphabet:
            raise CheckerError(f"local machine {k} is not on the full interpretable interface")
    machines = [s.explanatory for s in sections]
    part = pooled_behavior(machines, alphabet)
    lookup = {ks: bk for bk, members in enumerate(part.blocks) for ks in members}
    for a in range(len(sections)):
        for b in range(a + 1, len(sections)):
            w = overlap_patch(c.patches[a], c.patches[b])
            ra = restrict_section(sections[a], restrict_immersion(w, c.patches[a]))
            rb = restrict_section(sections[b], restrict_immersion(w, c.patches[b]))
            rep = behavioral_equiv(ra, rb, alphabet)
            if not rep.ok:
                raise IncompatibleFamily(
                    f"patches {a} and {b} disagree behaviorally at state {rep.state!r} "
                    f"on word {'/'.join(rep.word)}"
                )
    tgt = c.target
    before_block: dict[str, int] = {}
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        for u in p.source.before:
            before_block.setdefault(p.morphism.map_b(u), lookup[(k, s.psi.map_b(u))])
    missing = [x for x in tgt.before if x not in before_block]
    if missing:
        raise CheckerError(f"covering leaves before-states unexplained: {missing!r}")
    return machines, part, lookup, before_block


def overlap_glue_behavioral(
    c: Covering, sections: Sequence[Section], j: Judge
) -> Section | ObstructionReport:
    machines, part, lookup, before_block = _overlap_forced_classes(c, sections, j)
    alphabet = j.interp_inputs
    tgt = c.target
    for x in tgt.before:
        for i_raw in tgt.inputs:
            _, o = tgt.transition(x, i_raw)
            row = part.out_table[before_block[x]]
            if part.outputs[row[part.letter_index[j.j_i[i_raw]]]] != j.j_o[o]:
                if not any((x, i_raw) in {(p.morphism.map_b(u), p.morphism.map_i(ch))
                                          for u in p.source.before for ch in p.source.inputs}
                           for p in c.patches):
                    raise CheckerError(f"family covering leaves {(x, i_raw)!r} "
                                       "uncovered on the before side")
                raise InternalConsistencyError(
                    f"pooled class misexplains the step at ({x!r}, {i_raw!r})"
                )
    derived: dict[str, dict[int, tuple[str, str]]] = {}
    for s_st in tgt.before:
        for i_raw in tgt.inputs:
            x, _ = tgt.transition(s_st, i_raw)
            blk = part.succ_table[before_block[s_st]][part.letter_index[j.j_i[i_raw]]]
            derived.setdefault(x, {}).setdefault(blk, (s_st, i_raw))
    for x in sorted(derived):
        if len(derived[x]) > 1:
            (b1, via1), (b2, via2) = sorted(derived[x].items())[:2]
            word = _class_word(part.alphabet, part.out_table, part.succ_table, b1, b2)
            forced = []
            for blk, via in ((b1, via1), (b2, via2)):
                mk, rep_state = part.blocks[blk][0]
                forced.append(ForcedBehavior(
                    f"forced by the step at ({via[0]!r}, {via[1]!r})",
                    machines[mk], rep_state, machines[mk].run(rep_state, word),
                ))
            return ObstructionReport(
                "behavioral-gluing", (x,), word, tuple(forced),
                f"after-state {x!r} is forced into two behavior classes; "
                f"they diverge on the word {'/'.join(word)}",
            )
    return reference_glued_section(c, sections, j, part, before_block, derived)


def enumerate_behavioral_glue(
    c: Covering,
    sections: Sequence[Section],
    j: Judge,
    max_states: int = 4,
    cap: int = 200_000,
) -> Section | None:
    """Exhaustive search for a global section matching the family's behavior,
    over explanatory machines with at most ``max_states`` states.

    Machines over the interpretable interface are enumerated in size order.
    For each candidate, every target state must take the behavior class its
    patches force, and the dynamics squares then propagate a concrete
    assignment; any consistent one is returned as a validated section.  If a
    machine admits an assignment, so does its quotient by behavioral
    equality of states, where class membership determines the assignment
    outright, and that quotient is enumerated no later than the machine
    itself; a None return therefore rules out every machine within the
    bound.  A size level whose table count exceeds ``cap`` raises
    :class:`ScaleExceeded` instead of being searched.
    """
    alphabet = j.interp_inputs
    outs = j.interp_outputs
    locals_, part, _, forced = _overlap_forced_classes(c, sections, j)
    # Behavior classes belong to states, not to pools: a member of each
    # forced class stands for it when a candidate machine joins the pool.
    reps = {x: part.blocks[blk][0] for x, blk in forced.items()}
    for n in range(1, max_states + 1):
        states = tuple(f"n{q}" for q in range(n))
        cells = [(st, ch) for st in states for ch in alphabet]
        count = (n * len(outs)) ** len(cells)
        if count > cap:
            raise ScaleExceeded(f"machine enumeration at {n} states needs {count} tables")
        choices = [(st2, o) for st2 in states for o in outs]
        for table in itertools.product(choices, repeat=len(cells)):
            machine = make_system(states, states, alphabet, outs, dict(zip(cells, table)))
            glued = _assign_over_machine(c, sections, j, machine, locals_, reps)
            if glued is not None:
                return glued
    return None


def _assign_over_machine(
    c: Covering,
    sections: Sequence[Section],
    j: Judge,
    machine: MealySystem,
    locals_: Sequence[MealySystem],
    reps: Mapping[str, tuple[int, str]],
) -> Section | None:
    alphabet = j.interp_inputs
    index = pooled_behavior([machine, *locals_], alphabet).block_index
    tgt = c.target
    cand_b = {x: [q for q in machine.before if index[(0, q)] == index[(k + 1, st)]]
              for x, (k, st) in reps.items()}
    if any(not v for v in cand_b.values()):
        return None
    psi_b = {x: cand_b[x][0] for x in tgt.before}
    psi_a: dict[str, str] = {}
    for x in tgt.before:
        for i_raw in tgt.inputs:
            x2, o = tgt.transition(x, i_raw)
            q2, oo = machine.transition(psi_b[x], j.j_i[i_raw])
            if oo != j.j_o[o]:
                return None
            if psi_a.setdefault(x2, q2) != q2:
                return None
    # After-states no transition reaches are unconstrained; park them on the
    # first machine state.
    for x in tgt.after:
        psi_a.setdefault(x, machine.before[0])
    glued = judged_section(OpenImmersion(identity_morphism(tgt)), machine, j, psi_b, psi_a)
    if not validate_section(j, glued).ok:
        return None
    for p, s in zip(c.patches, sections):
        if not behavioral_equiv(restrict_section(glued, p), s, alphabet).ok:
            return None
    return glued

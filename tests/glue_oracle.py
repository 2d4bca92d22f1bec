"""Reference for :func:`sheafmealy.glue_behavioral`.

``overlap_glue_behavioral`` is the direct form of behavioral gluing: it
checks overlap compatibility pair by pair, restricting both sections to the
intersection patch and comparing them with :func:`behavioral_equiv`, which
pools the two machines afresh.  The library reads the same verdict off the
one partition of all local machines; the seeded tests require the same
glued sections, obstruction reports and error messages from both.
"""

from __future__ import annotations

from typing import Sequence

from sheafmealy import (
    CheckerError,
    Covering,
    ForcedBehavior,
    IncompatibleFamily,
    InternalConsistencyError,
    Judge,
    ObstructionReport,
    OpenImmersion,
    Section,
    behavioral_equiv,
    identity_morphism,
    make_system,
    morphism,
    overlap_patch,
    pooled_behavior,
    restrict_immersion,
    restrict_section,
    validate_section,
)
from sheafmealy.explain import block_distinguishing_word


def overlap_glue_behavioral(
    c: Covering, sections: Sequence[Section], j: Judge
) -> Section | ObstructionReport:
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
            raise CheckerError("behavioral gluing needs full-interface local machines")
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
            before_block.setdefault(p.morphism.map_b(u), lookup[(k, s.psi_b(u))])
    missing = [x for x in tgt.before if x not in before_block]
    if missing:
        raise CheckerError(f"covering leaves before-states unexplained: {missing!r}")
    for x in tgt.before:
        for i_raw in tgt.inputs:
            _, o = tgt.transition(x, i_raw)
            if part.out(before_block[x], j.j_i[i_raw]) != j.j_o[o]:
                raise InternalConsistencyError(
                    f"pooled class misexplains the step at ({x!r}, {i_raw!r})"
                )
    derived: dict[str, dict[int, tuple[str, str]]] = {}
    for s_st in tgt.before:
        for i_raw in tgt.inputs:
            x, _ = tgt.transition(s_st, i_raw)
            blk = part.succ(before_block[s_st], j.j_i[i_raw])
            derived.setdefault(x, {}).setdefault(blk, (s_st, i_raw))
    for x in sorted(derived):
        if len(derived[x]) > 1:
            (b1, via1), (b2, via2) = sorted(derived[x].items())[:2]
            word = block_distinguishing_word(part, b1, b2)
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
    after_block = {x: next(iter(derived[x])) for x in tgt.after if x in derived}
    for k, (p, s) in enumerate(zip(c.patches, sections)):
        for u in p.source.after:
            after_block.setdefault(p.morphism.map_a(u), lookup[(k, s.psi_a(u))])
    missing = [x for x in tgt.after if x not in after_block]
    if missing:
        raise CheckerError(f"covering leaves after-states unexplained: {missing!r}")
    reach = set(before_block.values()) | set(after_block.values())
    frontier = sorted(reach)
    while frontier:
        blk = frontier.pop()
        for ch in alphabet:
            nxt = part.succ(blk, ch)
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    names = {blk: f"b{k}" for k, blk in enumerate(sorted(reach))}
    dyn = {(names[blk], ch): (names[part.succ(blk, ch)], part.out(blk, ch))
           for blk in names for ch in alphabet}
    carrier = sorted(names.values())
    machine = make_system(carrier, carrier, alphabet, j.interp_outputs, dyn)
    psi = morphism(tgt, machine,
                   {x: names[before_block[x]] for x in tgt.before},
                   {x: names[after_block[x]] for x in tgt.after},
                   {i: j.j_i[i] for i in tgt.inputs},
                   {o: j.j_o[o] for o in tgt.outputs})
    glued = Section(OpenImmersion(identity_morphism(tgt)), machine, psi)
    if not validate_section(j, glued).ok:
        raise InternalConsistencyError("glued section fails validation")
    return glued

"""Behavioral gluing against the per-overlap reference in ``glue_oracle``.

``glue_behavioral`` reads overlap compatibility off the one partition it
pools from every local machine.  On seeded random families it must return
what the pair-by-pair overlap comparison returns: the same glued section,
the same obstruction report, or the same error message.
"""

from __future__ import annotations

from collections import Counter

import randgen as rg
from glue_oracle import overlap_glue_behavioral
from sheafmealy import (
    CheckerError,
    ObstructionReport,
    glue_behavioral,
    jsonio,
    judged_section,
    make_system,
    restrict_section,
    restricted_interface,
    validate_section,
)


def _rewired_family(rng):
    """Restrictions of one global section, each presented by a mutated
    machine and then rewired where the section does not pin it: letters off
    the patch's judged range, and states no before-state of the patch maps
    to.  The local sections stay valid, but their overlaps may now disagree
    and their after-states may be forced into two classes."""
    system, jdg, sec = rg.rand_explained_system(rng)
    cov = rg.rand_covering(rng, system)
    locals_ = []
    for k, p in enumerate(cov.patches):
        local = rg.mutate_section(rng, restrict_section(sec, p), f"g{k}")
        mach = local.explanatory
        pinned_letters = set(restricted_interface(jdg, p))
        pinned_states = {local.psi_b(u) for u in p.source.before}
        dyn = {}
        for st in mach.before:
            for ch in mach.inputs:
                free = ch not in pinned_letters or st not in pinned_states
                if free and rng.random() < 0.3:
                    dyn[(st, ch)] = (rng.choice(mach.before), rng.choice(mach.outputs))
                else:
                    dyn[(st, ch)] = mach.transition(st, ch)
        rewired = make_system(mach.before, mach.after, mach.inputs, mach.outputs, dyn)
        local = judged_section(p, rewired, jdg,
                               {u: local.psi_b(u) for u in p.source.before},
                               {u: local.psi_a(u) for u in p.source.after})
        assert validate_section(jdg, local).ok
        locals_.append(local)
    return cov, jdg, locals_


def _outcome(glue, cov, locals_, jdg):
    try:
        got = glue(cov, locals_, jdg)
    except CheckerError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(got, ObstructionReport):
        return ("obstruction", jsonio.obstruction_payload(got))
    return ("glued", jsonio.section_payload(got))


def test_glue_behavioral_matches_per_overlap_reference(rng):
    kinds = Counter()
    for _ in range(400):
        cov, jdg, locals_ = _rewired_family(rng)
        got = _outcome(glue_behavioral, cov, locals_, jdg)
        assert got == _outcome(overlap_glue_behavioral, cov, locals_, jdg)
        kinds[got[0]] += 1
    assert kinds["glued"] and kinds["obstruction"] and kinds["IncompatibleFamily"], kinds

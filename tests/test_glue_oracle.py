"""Behavioral gluing against the references in ``glue_oracle``.

``glue_behavioral`` reads overlap compatibility off the one partition it
pools from every local machine.  On seeded random families it must return
what the pair-by-pair overlap comparison returns: the same glued section,
the same obstruction report, or the same error message.

``search_bounded_behavioral_glue`` decides the bounded search from the
glued machine.  On seeded families, some planted to obstruct and some to
glue with more classes than the least machine needs, it must agree with the
enumeration of every machine table up to each bound.
"""

from __future__ import annotations

from collections import Counter

import randgen as rg
from glue_oracle import enumerate_behavioral_glue, overlap_glue_behavioral
from sheafmealy import (
    CheckerError,
    ObstructionReport,
    behavioral_equiv,
    covering,
    glue_behavioral,
    jsonio,
    judge,
    judged_section,
    make_system,
    restrict_section,
    restricted_interface,
    search_bounded_behavioral_glue,
    subsystem,
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
        pinned_states = {local.psi.map_b(u) for u in p.source.before}
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
                               {u: local.psi.map_b(u) for u in p.source.before},
                               {u: local.psi.map_a(u) for u in p.source.after})
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


def _unfolded_family(rng):
    """Each patch explained by an unfolded machine: a state per patch
    before-state with its judged one-step outputs, every step into one state
    ``a`` standing for all the patch's after-states, and random rows
    elsewhere.  The sections are valid, but what follows the first step is
    arbitrary, so an after-state reached from two patches tends to be forced
    into two classes, and patches sharing before-states tend to disagree."""
    jdg = None
    while jdg is None or len(jdg.interp_outputs) < 2:  # one output never obstructs
        system, jdg, _ = rg.rand_explained_system(rng)
    cov = rg.rand_covering(rng, system)
    letters, outs = jdg.interp_inputs, jdg.interp_outputs
    locals_ = []
    for p in cov.patches:
        src, m = p.source, p.morphism
        names = {u: f"b{u}" for u in src.before}
        states = ["a", *names.values()]
        dyn = {(st, ch): (rng.choice(states), rng.choice(outs))
               for st in states for ch in letters}
        for u in src.before:
            for c in src.inputs:
                o = src.transition(u, c)[1]
                dyn[(names[u], jdg.j_i[m.map_i(c)])] = ("a", jdg.j_o[m.map_o(o)])
        mach = make_system(states, states, letters, outs, dyn)
        locals_.append(judged_section(p, mach, jdg, names, {x: "a" for x in src.after}))
    return cov, jdg, locals_


def _stray_after_family(rng):
    """Restrictions of one global section to a target with an extra
    after-state ``z`` that no transition reaches.  Each local machine gains
    junk states and points ``z`` at a random state, so the glued machine can
    carry a class that no before-state reaches."""
    system, jdg, sec = rg.rand_explained_system(rng)
    dyn = {(x, c): system.transition(x, c) for x in system.before for c in system.inputs}
    target = make_system(system.before, [*system.after, "z"], system.inputs,
                         system.outputs, dyn)
    psi_a = {x: sec.psi.map_a(x) for x in system.after}
    whole = judged_section(subsystem(target), sec.explanatory, jdg,
                           {x: sec.psi.map_b(x) for x in target.before},
                           {**psi_a, "z": sec.explanatory.before[0]})
    cov = rg.rand_covering(rng, target)
    locals_ = []
    for k, p in enumerate(cov.patches):
        local = rg.junk_extend(rng, restrict_section(whole, p), f"g{k}")
        psi_a = {u: local.psi.map_a(u) for u in p.source.after}
        psi_a["z"] = rng.choice([q for q in local.explanatory.before
                                 if q.startswith(f"g{k}")])
        locals_.append(judged_section(p, local.explanatory, jdg,
                                      {u: local.psi.map_b(u) for u in p.source.before}, psi_a))
    return cov, jdg, locals_


def _bounded(search, cov, locals_, jdg, bound):
    try:
        found = search(cov, locals_, jdg, max_states=bound)
    except CheckerError as exc:
        return (type(exc).__name__, str(exc)), None
    return (None if found is None else len(found.explanatory.before)), found


def test_bounded_search_matches_enumeration(rng):
    """The decision and the enumeration give the same outcome, error and
    least machine size at every bound whose enumeration stays small: up to
    two states over two letters, three over one."""
    kinds = Counter()
    makers = (_rewired_family, _unfolded_family, _stray_after_family)
    for trial in range(240):
        cov, jdg, locals_ = makers[trial % 3](rng)
        try:
            glued = glue_behavioral(cov, locals_, jdg)
        except CheckerError:
            glued = None
        for bound in range(4 if len(jdg.interp_inputs) == 1 else 3):
            got, found = _bounded(search_bounded_behavioral_glue, cov, locals_, jdg, bound)
            want, _ = _bounded(enumerate_behavioral_glue, cov, locals_, jdg, bound)
            assert got == want, (trial, bound)
            if isinstance(got, tuple):
                kinds[got[0]] += 1
            elif isinstance(glued, ObstructionReport):
                kinds["obstruction"] += 1
            elif got is None:
                kinds["above bound"] += 1
            else:
                kinds["found"] += 1
                kinds["fewer than glued"] += got < len(glued.explanatory.before)
                assert validate_section(jdg, found).ok
                for p, local in zip(cov.patches, locals_):
                    assert behavioral_equiv(restrict_section(found, p), local,
                                            jdg.interp_inputs).ok
    for kind in ("found", "obstruction", "above bound", "fewer than glued",
                 "IncompatibleFamily"):
        assert kinds[kind] >= 20, kinds


def test_bounded_search_without_before_states_needs_one_state():
    """No step constrains a target without before-states, so one state
    serves, though the glued machine keeps both after-states' classes."""
    target = make_system([], ["x", "y"], ["a"], ["0", "1"], {})
    jdg = judge({"a": "a"}, {"0": "0", "1": "1"})
    patch = subsystem(target)
    mach = make_system(["m0", "m1"], ["m0", "m1"], ["a"], ["0", "1"],
                       {("m0", "a"): ("m0", "0"), ("m1", "a"): ("m1", "1")})
    cov = covering(target, [patch])
    locals_ = [judged_section(patch, mach, jdg, {}, {"x": "m0", "y": "m1"})]
    assert len(glue_behavioral(cov, locals_, jdg).explanatory.before) == 2
    for bound in range(3):
        got, found = _bounded(search_bounded_behavioral_glue, cov, locals_, jdg, bound)
        assert got == _bounded(enumerate_behavioral_glue, cov, locals_, jdg, bound)[0]
        assert got == (None if bound == 0 else 1)
        assert found is None or validate_section(jdg, found).ok

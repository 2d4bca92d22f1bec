"""chain-behavior: the ``explain`` and ``localglobal`` layers on machines.

Two kinds of machine, over inputs a, b and outputs 0, 1:

* chain machines: ``a`` advances along the chain, ``b`` resets to its
  start, and only the last state answers 1 to ``a``, so refining behavior
  classes takes about n levels;
* random machines: uniform successors and outputs, about log n levels.

Sizes are fixed per slot (the seed only draws contents and names), so the
work of a run is the same on every seed and every commit.
"""

from __future__ import annotations

import random

from sheafmealy import explain, localglobal, systems

from harness import Check
from oracles import (behavior_classes, core_closure, morphism_maps, replay, shortest_split,
                     square_commutes, table_of)

ALPHA = ("a", "b")
OUTS = ("0", "1")

# (check kind, machine or planting kind, states).  The list is the workload.
# Chain machines cost the same on every seed; random instances come in twos
# so that their seed-to-seed variation averages out.  Two blocks of chain
# checks hold the ranks that the reported percentiles read: the eleven
# costliest checks are all chain comparisons (the tail is the cheapest of
# them), and twenty minimizations of one chain size straddle the median.
SLOTS = (
    [("beh-equal", "chain", n) for n in (30, 48, 50, 52, 54, 56, 58)]
    + [("beh-deep", "chain", n) for n in (56, 58, 60, 62, 64)]
    + 20 * [("minimize", "chain", 60)]
    + [("minimize", "chain", n) for n in (40, 80, 100)]
    + 2 * [("beh-equal", "random", n) for n in (40, 60, 80, 100, 120)]
    + 2 * [("beh-deep", "random", n) for n in (40, 60, 80, 100, 120)]
    + 2 * [(f"sep-{kind}", plant, 30) for kind in ("beh", "ri")
           for plant in ("copy", "mixed", "single")]
    + 2 * [("minimize", "random", n) for n in (30, 50, 70, 90, 110)]
    + 2 * [(what, plant, n) for what in ("pooled", "glue", "cogerm")
           for plant in ("glue", "obstruct") for n in (30, 60, 90, 120)]
)

# -------------------------------------------------------------- generators


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """Distinct state names in a seeded order, so carrier sorting differs
    from chain order."""
    tags = rng.sample(range(10 * n), n)
    return [f"{prefix}{t}" for t in tags]


def chain_table(states: list[str]) -> dict:
    n = len(states)
    d = {}
    for k, s in enumerate(states):
        d[(s, "a")] = (states[min(k + 1, n - 1)], "1" if k == n - 1 else "0")
        d[(s, "b")] = (states[0], "0")
    return d


def random_table(states: list[str], rng: random.Random, targets=None) -> dict:
    targets = targets or states
    return {(s, c): (rng.choice(targets), rng.choice(OUTS)) for s in states for c in ALPHA}


def build(states, d) -> systems.MealySystem:
    return systems.make_system(states, states, ALPHA, OUTS, d)


def renamed(d: dict, prefix: str) -> tuple[dict, dict]:
    ren = {s: prefix + s for (s, _) in d}
    return {(ren[s], c): (ren[s2], o) for (s, c), (s2, o) in d.items()}, ren


def whole(m) -> systems.OpenImmersion:
    return systems.open_immersion(systems.identity_morphism(m))


def inclusion_section(patch, m, ren=None):
    """Section of ``patch`` into ``m`` along the patch inclusion, renamed by
    ``ren`` when ``m`` is a renamed copy."""
    src = patch.source
    ren = ren or {}
    psi = systems.morphism(src, m, {s: ren.get(s, s) for s in src.before},
                           {s: ren.get(s, s) for s in src.after},
                           {c: c for c in src.inputs}, {o: o for o in src.outputs})
    return explain.section(patch, m, psi)


def base_table(kind: str, n: int, rng: random.Random) -> tuple[list, dict]:
    states = _names(rng, "s", n)
    d = chain_table(states) if kind == "chain" else random_table(states, rng)
    return states, d


def _flip(o: str) -> str:
    return "1" if o == "0" else "0"


# -------------------------------------------------------------- verifiers


def _behavior_verdict(rep, d1, st1, d2, st2, alphabet, starts, state_pair) -> str | None:
    """Check a BehEquivReport against the product search: the verdict, the
    witness length, the witness state and the replayed outputs."""
    expect = shortest_split(d1, st1, d2, st2, alphabet, starts)
    if (expect is None) != rep.ok:
        return f"verdict ok={rep.ok}, product search says shortest split {expect}"
    if rep.ok:
        return None
    if len(rep.word) != expect:
        return f"witness length {len(rep.word)}, shortest is {expect}"
    x, y = state_pair(rep.state)
    if replay(d1, x, rep.word) == replay(d2, y, rep.word):
        return "witness word does not split the outputs"
    return None


# ------------------------------------------------------------------ checks


def _beh_equal(kind, n, rng, tag):
    states, d = base_table(kind, n, rng)
    d2, ren = renamed(d, "x")
    m1, m2 = build(states, d), build([ren[s] for s in states], d2)
    p = whole(m1)
    s1, s2 = inclusion_section(p, m1), inclusion_section(p, m2, ren)
    starts = [(s, ren[s]) for s in states]

    def verify(rep):
        return _behavior_verdict(rep, d, states, d2, list(ren.values()), ALPHA, starts,
                                 lambda s: (s, ren[s]))

    return Check(tag, lambda: explain.behavioral_equiv(s1, s2), verify)


def _beh_deep(kind, n, rng, tag):
    """Compare two explanations of a one-state patch at the chain start; the
    second machine carries a flipped output a few steps before the end."""
    states, d = base_table(kind, n, rng)
    start = states[0]
    d2, ren = renamed(d, "x")
    deep = states[n - 4]
    o = d2[(ren[deep], "b")]
    d2[(ren[deep], "b")] = (o[0], _flip(o[1]))
    m1, m2 = build(states, d), build([ren[s] for s in states], d2)
    succ = sorted({d[(start, c)][0] for c in ALPHA} | {start})
    patch = systems.subsystem(m1, before=[start], after=succ)
    s1, s2 = inclusion_section(patch, m1), inclusion_section(patch, m2, ren)

    def verify(rep):
        return _behavior_verdict(rep, d, states, d2, list(ren.values()), ALPHA,
                                 [(start, ren[start])], lambda s: (s, ren[s]))

    return Check(tag, lambda: explain.behavioral_equiv(s1, s2), verify)


def mixed_copy(d: dict, states: list[str], plant: str) -> tuple[dict, list, dict]:
    """An explanation that agrees with ``d`` on one-letter words from every
    state.  Four copies X, A, B, Z: X is entered first, a keeps to A and b
    to B, and a mixed word ends in Z.  ``plant`` says where one output is
    flipped: in Z ("mixed", visible only on mixed words) or in A ("single",
    visible on a-words); "copy" flips nothing."""
    def n(tag, s):
        return f"{tag}.{s}"
    out = {}
    for s in states:
        (sa, oa), (sb, ob) = d[(s, "a")], d[(s, "b")]
        out[(n("X", s), "a")] = (n("A", sa), oa)
        out[(n("X", s), "b")] = (n("B", sb), ob)
        out[(n("A", s), "a")] = (n("A", sa), oa)
        out[(n("A", s), "b")] = (n("Z", sb), ob)
        out[(n("B", s), "a")] = (n("Z", sa), oa)
        out[(n("B", s), "b")] = (n("B", sb), ob)
        out[(n("Z", s), "a")] = (n("Z", sa), oa)
        out[(n("Z", s), "b")] = (n("Z", sb), ob)
    if plant != "copy":
        # A state the word a (mixed: a b) reaches from the first state, so
        # the flipped output shows on a (mixed: a b a).
        victim = d[(states[0], "a")][0]
        if plant == "mixed":
            victim = d[(victim, "b")][0]
        key = (n("Z" if plant == "mixed" else "A", victim), "a")
        out[key] = (out[key][0], _flip(out[key][1]))
    copy_states = [n(t, s) for t in "XABZ" for s in states]
    return out, copy_states, {s: n("X", s) for s in states}


def _separation(kind, plant, n, rng, tag):
    states, d = base_table("random", n, rng)
    m = build(states, d)
    d2, st2, ren = mixed_copy(d, states, plant)
    m2 = build(st2, d2)
    cov = systems.covering(m, [systems.subsystem(m, inputs=["a"]),
                               systems.subsystem(m, inputs=["b"])])
    j = explain.judge({c: c for c in ALPHA}, {o: o for o in OUTS})
    p = whole(m)
    s, t = inclusion_section(p, m), inclusion_section(p, m2, ren)
    starts = [(x, ren[x]) for x in states]
    local_alpha = [ALPHA, ALPHA] if kind == "beh" else [("a",), ("b",)]

    def verify(rep):
        for k, alpha in enumerate(local_alpha):
            expect = shortest_split(d, states, d2, st2, alpha, starts)
            if rep.locally_equal[k] != (expect is None):
                return f"patch {k}: locally_equal={rep.locally_equal[k]}, search says {expect}"
            w = rep.local_witnesses[k]
            if w is not None and (len(w[1]) != expect
                                  or replay(d, w[0], w[1]) == replay(d2, ren[w[0]], w[1])):
                return f"patch {k}: witness {w} is not a shortest split"
        expect = shortest_split(d, states, d2, st2, ALPHA, starts)
        if rep.globally_equal != (expect is None):
            return f"globally_equal={rep.globally_equal}, search says {expect}"
        if rep.global_witness is not None:
            st, word = rep.global_witness
            if len(word) != expect or replay(d, st, word) == replay(d2, ren[st], word):
                return f"global witness {rep.global_witness} is not a shortest split"
        violated = all(rep.locally_equal) and not rep.globally_equal
        if rep.separation_violated != violated:
            return "separation_violated disagrees with the local and global verdicts"
        if violated and rep.obstruction is None:
            return "violation without an obstruction report"
        return None

    return Check(tag, lambda: localglobal.check_separation(kind, cov, s, t, j), verify)


def _minimize(kind, n, rng, tag):
    """A minimal-or-random base machine with planted duplicate states: each
    duplicate copies a state's row and takes over some of its incoming
    transitions, so the quotient keeps the base machine's class count."""
    states, d = base_table(kind, n, rng)
    dups = {}
    for k, s in enumerate(rng.sample(states, n // 4)):
        dups[s] = f"dup{k}.{s}"
    full = dict(d)
    for s, s_dup in dups.items():
        for c in ALPHA:
            full[(s_dup, c)] = d[(s, c)]
    for key, (s2, o) in list(full.items()):
        if s2 in dups and rng.random() < 0.5:
            full[key] = (dups[s2], o)
    all_states = states + list(dups.values())
    m = build(all_states, full)

    def verify(res):
        q = res.machine
        base_classes = len(behavior_classes([(d, states)], ALPHA))
        if len(q.before) != base_classes:
            return f"quotient has {len(q.before)} states, planted {base_classes}"
        mapping = dict(res.state_map)
        if set(mapping) != set(all_states):
            return "state map does not cover the machine"
        dq = table_of(q)
        starts = [(s, mapping[s]) for s in all_states]
        if shortest_split(full, all_states, dq, list(q.before), ALPHA, starts) is not None:
            return "a state and its block behave differently"
        return None

    return Check(tag, lambda: explain.minimize(m), verify)


def data_local_tables(n: int, rng: random.Random, obstruct: bool) -> dict:
    """A system covered by two data-local patches that share a closed middle
    region O.  P1 and P2 hold the states only one patch sees; y in P1 and z
    in P2 both step into x2, which lies in O and has no other incoming
    transition.  The first local explanation is a renamed copy of the
    system; with ``obstruct`` it explains the after-state x2 by a fresh
    state whose first output differs, so the two patches force x2 into two
    behavior classes while agreeing on O.  The second local explanation is
    the system itself."""
    states = _names(rng, "s", n)
    third = n // 3
    p1, mid, p2 = states[:third], states[third:2 * third], states[2 * third:]
    x2, y, z = mid[0], p1[0], p2[0]
    rest = mid[1:]
    d = {}
    d.update(random_table(mid, rng, rest))
    d.update(random_table(p1, rng, p1 + rest))
    d.update(random_table(p2, rng, p2 + rest))
    d[(y, "a")] = (x2, d[(y, "a")][1])
    d[(z, "b")] = (x2, d[(z, "b")][1])
    b1, b2 = sorted(p1 + mid), sorted(p2 + mid)
    d1, ren = renamed(d, "r")
    st1 = [ren[s] for s in states]
    psi_a = {s: ren[s] for s in b1}
    if obstruct:
        star = "r*" + x2
        row_a, row_b = d[(x2, "a")], d[(x2, "b")]
        d1[(star, "a")] = (ren[row_a[0]], _flip(row_a[1]))
        d1[(star, "b")] = (ren[row_b[0]], row_b[1])
        d1[(ren[y], "a")] = (star, d1[(ren[y], "a")][1])
        st1.append(star)
        psi_a[x2] = star
    return {"states": states, "table": d, "b1": b1, "b2": b2, "x2": x2,
            "local": [(d1, st1, {s: ren[s] for s in b1}, psi_a),
                      (d, states, {s: s for s in b2}, {s: s for s in b2})]}


def data_local_family(n: int, rng: random.Random, obstruct: bool) -> dict:
    """Library objects for :func:`data_local_tables`."""
    t = data_local_tables(n, rng, obstruct)
    m = build(t["states"], t["table"])
    patches = [systems.subsystem(m, before=b, after=b) for b in (t["b1"], t["b2"])]
    cov = systems.covering(m, patches)
    j = explain.judge({c: c for c in ALPHA}, {o: o for o in OUTS})
    secs = []
    for patch, (dl, stl, psi_b, psi_a) in zip(patches, t["local"]):
        ml = m if dl is t["table"] else build(stl, dl)
        psi = systems.morphism(patch.source, ml, psi_b, psi_a,
                               {c: c for c in ALPHA}, {o: o for o in OUTS})
        secs.append(explain.section(patch, ml, psi))
    return {"covering": cov, "judge": j, "sections": secs, "x2": t["x2"],
            "tables": [(dl, stl) for dl, stl, _, _ in t["local"]]}


def _pooled(plant, n, rng, tag):
    fam = data_local_family(n, rng, plant == "obstruct")
    machines = [s.explanatory for s in fam["sections"]]

    def verify(part):
        expect = {frozenset(c) for c in behavior_classes(fam["tables"], ALPHA)}
        got = {frozenset(b) for b in part.blocks}
        if got != expect:
            return f"{len(got)} blocks, product search finds {len(expect)} classes"
        tables = [t for t, _ in fam["tables"]]
        for b, members in enumerate(part.blocks):
            for ci, c in enumerate(ALPHA):
                for k, s in members:
                    s2, o = tables[k][(s, c)]
                    if part.outputs[part.out_table[b][ci]] != o:
                        return f"block {b} misstates an output"
                    if (k, s2) not in part.blocks[part.succ_table[b][ci]]:
                        return f"block {b} misstates a successor"
        return None

    return Check(tag, lambda: explain.pooled_behavior(machines, ALPHA), verify)


def _glue(plant, n, rng, tag):
    fam = data_local_family(n, rng, plant == "obstruct")
    cov, secs, j = fam["covering"], fam["sections"], fam["judge"]

    def verify(res):
        if plant == "obstruct":
            if not isinstance(res, localglobal.ObstructionReport):
                return "planted conflict glued"
            if res.kind != "behavioral-gluing" or res.site != (fam["x2"],):
                return f"obstruction at {res.site}, planted at {fam['x2']}"
            if len(res.forced) != 2 or not res.word:
                return "obstruction lacks two forced behaviors and a word"
            outs = []
            for f in res.forced:
                got = replay(table_of(f.machine), f.state, res.word)
                if got != tuple(f.outputs):
                    return "forced behavior does not replay"
                outs.append(got)
            return "forced behaviors agree on the word" if outs[0] == outs[1] else None
        if isinstance(res, localglobal.ObstructionReport):
            return f"compatible family obstructed at {res.site}"
        if not square_commutes(res.psi):
            return "glued section does not commute with the dynamics"
        dg = table_of(res.explanatory)
        gb = morphism_maps(res.psi)[0]
        for patch, sec, (dl, stl) in zip(cov.patches, secs, fam["tables"]):
            pb = morphism_maps(patch.morphism)[0]
            lb = morphism_maps(sec.psi)[0]
            starts = [(gb[pb[u]], lb[u]) for u in patch.source.before]
            if shortest_split(dg, list(res.explanatory.before), dl, stl, ALPHA,
                              starts) is not None:
                return "glued section does not restrict to a local section"
        return None

    return Check(tag, lambda: localglobal.glue_behavioral(cov, secs, j), verify)


def _cogerm(plant, n, rng, tag):
    """A renamed copy ("glue": a common core exists) or a copy with one
    flipped output ("obstruct": none does)."""
    states, d = base_table("random", n, rng)
    d2, ren = renamed(d, "x")
    if plant == "obstruct":
        victim = rng.choice(states)
        s2, o = d2[(ren[victim], "a")]
        d2[(ren[victim], "a")] = (s2, _flip(o))
    m1, m2 = build(states, d), build([ren[s] for s in states], d2)
    p = whole(m1)
    s1, s2 = inclusion_section(p, m1), inclusion_section(p, m2, ren)
    seeds = [(s, ren[s]) for s in states]

    def verify(w):
        expect = core_closure(d, d2, ALPHA, seeds)
        if (w is None) != (expect is None):
            return f"core found={w is not None}, closure says {expect is not None}"
        if w is None:
            return None
        if w.core.before != w.core.after:
            return "core is not homogeneous"
        for leg, psi in ((w.i1, s1.psi), (w.i2, s2.psi)):
            fb, fa, fi, fo = morphism_maps(leg)
            if fb != fa or len(set(fb.values())) != len(fb):
                return "span leg is not an injective state map"
            if any(k != v for k, v in fi.items()) or any(k != v for k, v in fo.items()):
                return "span leg moves the interface"
            if not square_commutes(leg):
                return "span leg breaks the dynamics"
            pb, pa = morphism_maps(w.phi)[:2]
            qb, qa = morphism_maps(psi)[:2]
            if any(fb[pb[u]] != qb[u] for u in pb) or any(fa[pa[u]] != qa[u] for u in pa):
                return "factoring through the core does not recover psi"
        return None if square_commutes(w.phi) else "factoring morphism breaks the dynamics"

    return Check(tag, lambda: explain.cogerm_equiv(s1, s2), verify)


BUILDERS = {
    "beh-equal": _beh_equal,
    "beh-deep": _beh_deep,
    "minimize": _minimize,
    "pooled": _pooled,
    "glue": _glue,
    "cogerm": _cogerm,
}


def setup(seed: int, workdir: str) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for k, (what, kind, n) in enumerate(SLOTS):
        tag = f"{k:02d}-{what}-{kind}-{n}"
        if what in ("sep-beh", "sep-ri"):
            checks.append(_separation(what[4:], kind, n, rng, tag))
        else:
            checks.append(BUILDERS[what](kind, n, rng, tag))
    return checks

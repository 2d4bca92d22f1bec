"""Judged sections of machine patches and their equivalence notions.

A judge translates raw inputs and outputs into an interpretable interface.
A section over a patch ``m : U -> S`` is a homogeneous machine on the
interpretable interface together with a morphism ``psi : U -> S'`` whose
interface components are forced to be the judged ones.  The before and after
components of ``psi`` are independent; nothing ties the state a trace is
explained from to the state it is explained into.

Two sections can be compared at different resolutions:

* literally (same machine, same maps),
* up to a common core (a span of interface-fixing injections through which
  both sections factor), decided here by a pair-closure algorithm,
* behaviorally (equal output sequences from corresponding before-states for
  every interpretable input word).

The closure algorithm seeds the pair relation with both the before- and the
after-images of the two sections and closes it under one-step dynamics; the
sections admit a common core exactly when the closure stays single-valued in
both directions with matching outputs.  Seeding only before-images would
accept strictly more pairs; the stronger seeding keeps restriction of
witness cores pointwise.

Behavioral comparison builds no partition.  An equal verdict comes from a
union-find over state pairs; an unequal one names one witness, by one rule
and one walk over image pairs (:func:`_witness_walk`): of the states whose
two images emit different outputs on some word, the one whose separating
word is shortest, then least, then the state itself.  Both
:func:`behavioral_equiv` and the overlap check of the behavioral gluer use it,
and so does :func:`block_distinguishing_word`, from one pair of classes on
the class automaton: it names the word of every ``glue_behavioral``
obstruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from .errors import CheckerError, HeterogeneousInput, InternalConsistencyError
from .systems import (
    Covering,
    Ident,
    MealySystem,
    OpenImmersion,
    SystemMorphism,
    _table_system,
    _UnionFind,
    check_morphism,
    compose,
    finset,
    identity_patch,
    morphism,
)


@dataclass(frozen=True)
class Judge:
    """Interpretation maps for raw inputs and outputs.

    ``i_map`` and ``o_map`` are stored as sorted pair tuples so judges are
    hashable; the interpretable alphabets may be strictly larger than the
    map images.
    """

    interp_inputs: tuple[Ident, ...]
    interp_outputs: tuple[Ident, ...]
    i_map: tuple[tuple[Ident, Ident], ...]
    o_map: tuple[tuple[Ident, Ident], ...]

    @cached_property
    def j_i(self) -> dict[Ident, Ident]:
        return dict(self.i_map)

    @cached_property
    def j_o(self) -> dict[Ident, Ident]:
        return dict(self.o_map)


def judge(
    i_map: Mapping[Ident, Ident],
    o_map: Mapping[Ident, Ident],
    interp_inputs: Iterable[Ident] | None = None,
    interp_outputs: Iterable[Ident] | None = None,
) -> Judge:
    """A judge from its maps and carriers; an identifier that is unhashable,
    or of another type than the first, raises :class:`CheckerError` naming it."""
    interp = [list(xs) if xs is not None else None for xs in (interp_inputs, interp_outputs)]
    try:
        ii = finset(interp[0]) if interp[0] is not None else finset(set(i_map.values()))
        io = finset(interp[1]) if interp[1] is not None else finset(set(o_map.values()))
        ii_set, io_set = set(ii), set(io)
        for v in i_map.values():
            if v not in ii_set:
                raise CheckerError(f"judged input {v!r} outside the interpretable inputs")
        for v in o_map.values():
            if v not in io_set:
                raise CheckerError(f"judged output {v!r} outside the interpretable outputs")
    except TypeError:
        names = [*i_map.values(), *o_map.values(), *(x for xs in interp for x in xs or ())]
        bad = next((x for x in names if type(x).__hash__ is None),
                   next((x for x in names if type(x) is not type(names[0])), None))
        raise CheckerError(f"judge names {bad!r}, which is no identifier") from None
    return Judge(ii, io, tuple(sorted(i_map.items())), tuple(sorted(o_map.items())))


def identity_judge(system: MealySystem) -> Judge:
    return judge({c: c for c in system.inputs}, {o: o for o in system.outputs})


def validate_judge(j: Judge, system: MealySystem) -> None:
    for c in system.inputs:
        if c not in j.j_i:
            raise CheckerError(f"judge undefined on input {c!r}")
    for o in system.outputs:
        if o not in j.j_o:
            raise CheckerError(f"judge undefined on output {o!r}")


def restricted_interface(j: Judge, m: OpenImmersion) -> tuple[Ident, ...]:
    """Interpretable inputs actually reachable through the patch: the image
    of the patch's inputs under the judge."""
    return finset({j.j_i[m.morphism.map_i(c)] for c in m.source.inputs})


def is_j_full(c: Covering, j: Judge) -> bool:
    """Whether every patch realizes the same judged input range as the
    covered system.  Data-local patches (full on inputs) always do."""
    full = restricted_interface(j, identity_patch(c.target))
    return all(restricted_interface(j, p) == full for p in c.patches)


@dataclass(frozen=True)
class Section:
    """Explanation of a patch: homogeneous machine plus a judged morphism.

    ``patch`` is the immersion ``m : U -> S`` being explained, ``explanatory``
    the machine ``S'`` on the interpretable interface, and ``psi`` the
    morphism ``U -> S'``.  The input interface of ``S'`` is either the full
    interpretable input set or exactly the patch's judged range; both occur.
    """

    patch: OpenImmersion
    explanatory: MealySystem
    psi: SystemMorphism


def section(patch: OpenImmersion, explanatory: MealySystem, psi: SystemMorphism) -> Section:
    if psi.source != patch.source or psi.target != explanatory:
        raise CheckerError("section morphism must map the patch into the explanatory machine")
    return Section(patch, explanatory, psi)


def judged_section(
    patch: OpenImmersion,
    machine: MealySystem,
    j: Judge,
    psi_b: Mapping[Ident, Ident],
    psi_a: Mapping[Ident, Ident],
) -> Section:
    """Section of ``patch`` explained by ``machine`` with the given state
    components of ``psi``; its input and output components are the ones the
    judge and the patch force."""
    src = patch.source
    psi = morphism(
        src,
        machine,
        psi_b,
        psi_a,
        {c: j.j_i[patch.morphism.map_i(c)] for c in src.inputs},
        {o: j.j_o[patch.morphism.map_o(o)] for o in src.outputs},
    )
    return section(patch, machine, psi)


@dataclass(frozen=True)
class SectionCheck:
    ok: bool
    reason: str | None = None


def validate_section(j: Judge, s: Section) -> SectionCheck:
    """Check the section conditions in a fixed order, reporting the first
    violation: machine shape, interface discipline, judged input and output
    components, then the dynamics square of ``psi``."""
    u = s.patch.source
    mach = s.explanatory
    if not mach.homogeneous:
        return SectionCheck(False, "explanatory machine is not homogeneous")
    if mach.outputs != j.interp_outputs:
        return SectionCheck(False, "explanatory outputs differ from the interpretable outputs")
    if mach.inputs not in (j.interp_inputs, restricted_interface(j, s.patch)):
        return SectionCheck(
            False, "explanatory inputs are neither the interpretable inputs nor the patch range"
        )
    if any(s.psi.map_i(c) != j.j_i[s.patch.morphism.map_i(c)] for c in u.inputs):
        return SectionCheck(False, "input component of psi is not the judged input map")
    if any(s.psi.map_o(o) != j.j_o[s.patch.morphism.map_o(o)] for o in u.outputs):
        return SectionCheck(False, "output component of psi is not the judged output map")
    if not check_morphism(s.psi).ok:
        return SectionCheck(False, "psi does not commute with the dynamics")
    return SectionCheck(True)


def restrict_section(s: Section, n: OpenImmersion) -> Section:
    """Pull a section back along a patch-of-a-patch ``n``; the explanatory
    machine is unchanged and ``psi`` is precomposed."""
    if n.target != s.patch.source:
        raise CheckerError("restriction patch must map into the section's patch")
    return Section(
        OpenImmersion(compose(n.morphism, s.patch.morphism)),
        s.explanatory,
        compose(n.morphism, s.psi),
    )


# Phase 1 of ``_refine`` goes on while each round ends with more than
# ``_GROWTH`` times the blocks it started from, plus one block.
_GROWTH = 9 / 8


def _refine(outs: Sequence[tuple[int, ...]], succs: Sequence[tuple[int, ...]]) -> list[int]:
    """Moore partition refinement of states given by their per-letter
    outputs and successor indices; returns a block number per state.

    The blocks are those of Moore's synchronous rounds: they start as the
    ranks of the sorted output rows, each round splits every block by the
    blocks of its states' successors, and the rounds stop once a round
    splits nothing, so states end in the same block exactly when they emit
    equal outputs on every word.  The numbering is that of the plain rounds:
    each round ranks the sorted (block, successor blocks) signatures, and
    the last round that splits a block fixes the numbers.

    The rounds run in two phases.  Phase 1 runs them as written, each in a
    few C-level passes over all states (zip, set, sort, map), so its
    numbering is that of the plain rounds because its rounds are those
    rounds.  It goes on while each round ends with more than ``_GROWTH``
    times the blocks it started from, plus one; ranking the output rows
    counts as a round from one block.  The block count thus grows by that
    factor in every round but the last, and never passes n, so phase 1 runs
    at most log(n) / log(_GROWTH) + 1 rounds, O(log n), of O(|alphabet| n)
    work each.  A round that splits nothing, or that leaves every state
    alone in its block, ends the refinement.  A round that grows the count
    less ends phase 1, and its partition is where phase 2 starts: a round
    that splits off a single block, as every round on a chain does,
    leaves the rest to phase 2, and a chain's output rows, two blocks out
    of one, hand a chain to phase 2 before any phase-1 round.

    Phase 2 runs the rounds left only where the last round split, with
    Hopcroft's smaller-half bookkeeping (Hopcroft 1971; Valmari & Lehtinen
    2008).  Two states of one block have, on each letter, successors in one
    block of the round before, so their signatures can differ only on
    letters whose successor block split in the last round.  A round
    therefore reads the predecessors of the children that the last round
    split off, except the largest child of each split, and a block holding
    none of them cannot split.  A state reached from none of them has every
    successor in a largest child or in a block that did not split, so such
    states of one block share one signature, read off any one of them.  A
    state lies outside the largest child of a split at most log2 n times,
    so the rounds read O(|alphabet| n log n) transitions, and build a
    signature of |alphabet| entries for each state they reach, plus O(1)
    per round.

    A signature is the tuple, over the letters, of each successor's
    position.  On each letter the successors of one block's states are the
    children of one block of the round before, so only the positions of
    the children of one split are ever compared: a split numbers its
    children 0, 1, ... in its order, and a block that did not split keeps
    any position.  Siblings sit in the block order by position, so ordering
    a block's children by these tuples orders them as the plain rounds do,
    by the successors' block numbers.  Blocks are kept in a linked list,
    and each split puts its children, in that order, where the parent sat.
    The list is therefore in the order of the last splitting round's sorted
    signatures, and it is numbered once, at the end.

    Phase 2 takes over the last round of phase 1 as if it had run that
    round itself.  That round numbered its blocks by their sorted
    signatures, which start with the parent block, so the list holds the
    blocks in number order, the children of one parent are consecutive in
    it, and a block's position is its place among them.  Those are the
    invariants above, so phase 2 ends with the numbering of the plain
    rounds.  The largest child of each split is left out of the first
    round's reading, as after any round."""
    n = len(outs)
    sig, blk, nb = outs, [0] * n, 1
    while True:
        keys = sorted(set(sig))
        if len(keys) == nb:
            return blk
        blk = list(map(dict(zip(keys, range(len(keys)))).__getitem__, sig))
        grew, nb = len(keys) > _GROWTH * nb + 1, len(keys)
        if nb == n:
            return blk
        if not grew:
            break
        if sig is outs:
            # The successor columns, one per letter, built for the first round.
            cols = list(zip(*succs))
        sig = list(zip(blk, *[map(blk.__getitem__, col) for col in cols]))
    members: list[set[int]] = [set() for _ in keys]
    for s, b in enumerate(blk):
        members[b].add(s)
    pred: list[list[int]] = [[] for _ in outs]
    for s, row in enumerate(succs):
        for t in row:
            pred[t].append(s)
    # The sizes of the sibling groups, in block order; the ranked output
    # rows are the children of the block of all states.
    sizes = [nb] if sig is outs else Counter(map(itemgetter(0), keys)).values()
    pos = [0] * nb
    work: list[int] = []
    first = 0
    for size in sizes:
        if size > 1:
            kids = range(first, first + size)
            pos[first:first + size] = range(size)
            largest = max(kids, key=lambda c: len(members[c]))
            work += [c for c in kids if c != largest]
        first += size
    nxt = [*range(1, nb), -1]
    prv = [*range(-1, nb - 1)]
    head = 0
    while work:
        hit = set().union(*[pred[t] for c in work for t in members[c]])
        touched: dict[int, list[int]] = {}
        for s in hit:
            b = blk[s]
            if b in touched:
                touched[b].append(s)
            else:
                touched[b] = [s]
        # Every signature of the round is read before any block splits.
        plans = []
        for b, ts in touched.items():
            mem = members[b]
            if len(mem) == 1:
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for s in ts:
                key = tuple([pos[blk[t]] for t in succs[s]])
                if key in groups:
                    groups[key].append(s)
                else:
                    groups[key] = [s]
            if len(ts) == len(mem):
                if len(groups) == 1:
                    continue
                stay = max(groups, key=lambda k: len(groups[k]))
            else:
                # A reached state steps, on some letter, into a split child
                # that is not the largest; an unreached state of the block
                # steps on that letter into the same parent, so into its
                # largest child. So ``stay`` is no key of ``groups``, and the
                # block splits.
                for rep in mem:
                    if rep not in hit:
                        break
                stay = tuple([pos[blk[t]] for t in succs[rep]])
            plans.append((b, stay, groups))
        work = []
        for b, stay, groups in plans:
            # The states with signature ``stay`` keep the parent's number.
            mem = members[b]
            groups.pop(stay, None)
            before, after = prv[b], nxt[b]
            kids = []
            for i, key in enumerate(sorted([stay, *groups])):
                if key == stay:
                    c = b
                    pos[b] = i
                else:
                    c = len(members)
                    moved = groups[key]
                    members.append(set(moved))
                    mem.difference_update(moved)
                    for s in moved:
                        blk[s] = c
                    pos.append(i)
                    nxt.append(-1)
                    prv.append(-1)
                prv[c] = before
                if before < 0:
                    head = c
                else:
                    nxt[before] = c
                before = c
                kids.append(c)
            nxt[before] = after
            if after >= 0:
                prv[after] = before
            kids.remove(max(kids, key=lambda c: len(members[c])))
            work += kids
    number = [0] * len(members)
    b, k = head, 0
    while b >= 0:
        number[b] = k
        b, k = nxt[b], k + 1
    return [number[b] for b in blk]


def _pool(
    machines: Sequence[MealySystem], alphabet: tuple[Ident, ...]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """One-step tables of the disjoint union of homogeneous machines over
    ``alphabet`` and its refinement.  States, and then outputs, are numbered
    machine by machine in carrier order, an output on its first appearance;
    rows hold the emitted output numbers and successor numbers, so only
    output equality is read."""
    outs: list[tuple[int, ...]] = []
    succs: list[tuple[int, ...]] = []
    number: dict[Ident, int] = {}
    base = 0
    for m in machines:
        if not m.homogeneous:
            raise HeterogeneousInput("behavior is defined for homogeneous machines")
        emit = [number.setdefault(o, len(number)) for o in m.outputs]
        m_outs, m_succs = _rows(m, [m.i_index[c] for c in alphabet], emit, base)
        outs += m_outs
        succs += m_succs
        base += len(m.before)
    return outs, succs, _refine(outs, succs)


def _rows(
    m: MealySystem, cols: Sequence[int], emit: Sequence[int], base: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The output and successor rows of ``m``'s states on its letters at
    ``cols``, built a letter column at a time: outputs are read through
    ``emit``, and successors are shifted by ``base``."""
    if not cols:
        return [()] * len(m.step), [()] * len(m.step)
    steps = [list(map(itemgetter(k), m.step)) for k in cols]
    return (list(zip(*[map(emit.__getitem__, map(itemgetter(1), col)) for col in steps])),
            list(zip(*[map(base.__add__, map(itemgetter(0), col)) for col in steps])))


def _classes(
    outs: Sequence[tuple[int, ...]], succs: Sequence[tuple[int, ...]], block: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Per-block output and successor-block rows, read off one state of
    each block: its states emit the same outputs and step into the same
    blocks."""
    rep = dict(zip(block, range(len(block))))
    reps = list(map(rep.__getitem__, range(len(rep))))
    return (list(map(outs.__getitem__, reps)),
            [tuple(map(block.__getitem__, succs[st])) for st in reps])


def _same_behavior(m1: MealySystem, m2: MealySystem, alphabet: tuple[Ident, ...],
                   starts: Iterable[tuple[int, int]]) -> bool:
    """Whether each start pair (a state of ``m1``, one of ``m2``) emits equal
    outputs on every word over ``alphabet``, by Hopcroft and Karp's
    union-find (1971).  A pair is expanded only when its union joins two
    classes; each expanded pair emits equal outputs and steps into one
    class, so on True the classes are a bisimulation up to equivalence."""
    n1, out1, out2 = len(m1.before), m1.outputs, m2.outputs
    cols = [(m1.i_index[c], m2.i_index[c]) for c in alphabet]
    uf = _UnionFind(n1 + len(m2.before))
    todo = [(x, y) for x, y in starts if uf.union(x, n1 + y)]
    while todo:
        x, y = todo.pop()
        r1, r2 = m1.step[x], m2.step[y]
        for k1, k2 in cols:
            (x2, o1), (y2, o2) = r1[k1], r2[k2]
            if out1[o1] != out2[o2]:
                return False
            if uf.union(x2, n1 + y2):
                todo.append((x2, y2))
    return True


@dataclass(frozen=True)
class BehEquivReport:
    ok: bool
    state: Ident | None = None
    word: tuple[Ident, ...] | None = None


def behavioral_equiv(
    s1: Section,
    s2: Section,
    alphabet: tuple[Ident, ...] | None = None,
) -> BehEquivReport:
    """Equality of observable behavior of two sections of one patch.

    For every before-state of the patch, the images under the two sections
    must emit identical output sequences on every word over ``alphabet``.
    The two machines may have different output sets, compared only for
    equality, so their outputs need not be ordered.  An equal verdict comes
    from the union-find of :func:`_same_behavior`.  On an unequal one,
    :func:`_witness_walk` from the images of the patch's before-states
    names the before-state and word least by (word length, word, state),
    each state's word being its shortest separating word least in alphabet
    order.  Neither refines.
    """
    if s1.patch.source != s2.patch.source:
        raise CheckerError("behavioral comparison needs sections of one patch")
    m1, m2 = s1.explanatory, s2.explanatory
    if alphabet is None:
        if m1.inputs != m2.inputs:
            raise CheckerError("sections: explanatory input interfaces differ; pass an alphabet")
        alphabet = m1.inputs
    for c in alphabet:
        if c not in m1.i_index or c not in m2.i_index:
            raise CheckerError(f"alphabet letter {c!r} outside an explanatory interface")
    if not (m1.homogeneous and m2.homogeneous):
        raise HeterogeneousInput("behavior is defined for homogeneous machines")
    if _same_behavior(m1, m2, alphabet, zip(s1.psi.f_b, s2.psi.f_b)):
        return BehEquivReport(True)
    least = _witness_walk(m1, m2, alphabet,
                          zip(s1.patch.source.before, s1.psi.f_b, s2.psi.f_b))
    return BehEquivReport(True) if least is None else BehEquivReport(False, least[1], least[0])


def _witness_walk(
    m1: MealySystem | SimpleNamespace,
    m2: MealySystem | SimpleNamespace,
    alphabet: tuple[Ident, ...],
    starts: Iterable[tuple[Ident, int, int]],
) -> tuple[tuple[Ident, ...], Ident] | None:
    """Over the ``(key, state of m1, state of m2)`` starts whose states
    emit different outputs on some word over ``alphabet``, the ``(word,
    key)`` least by (word length, word, key), where each start's word is
    its shortest separating word least in alphabet order; or None.  The
    walk reads only the ``step``, ``outputs`` and ``i_index`` of ``m1`` and
    ``m2``, which may be a partition's class automaton.

    One walk over state pairs serves every start.  A breadth-first search
    from all distinct start pairs at once, with one ``seen`` set, expands
    whole levels until a level holds a pair with a letter on which the
    outputs differ; that level L is the least separating length.  A pair
    first met at level d is at least L - d letters from a divergence, or a
    lower level would hold one.  So a start L letters from a divergence is
    a level-0 pair, and the first d letters of a shortest separating word
    lead it to a pair first met at level d and L - d letters away.  A sweep
    down the levels marks exactly those pairs: at level L the pairs that
    diverge, and at each lower level d the pairs with a letter into a
    marked pair of level d + 1.  It keeps, for each, the first such letter
    in alphabet order, which is the next letter of its least shortest
    word.  Each explored pair is read at most twice, so the walk reads
    O(|alphabet| n1 n2) transitions at worst."""
    cols = [(m1.i_index[c], m2.i_index[c]) for c in alphabet]
    out1, out2, step1, step2 = m1.outputs, m2.outputs, m1.step, m2.step
    starts = list(starts)
    frontier = list(dict.fromkeys((x, y) for _, x, y in starts))
    seen = set(frontier)
    levels: list[list[tuple[int, int]]] = []
    # Each marked pair's next letter and the pair it leads to, None when
    # the pair diverges on that letter.
    step_of: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    while frontier:
        levels.append(frontier)
        nxt: list[tuple[int, int]] = []
        for x, y in frontier:
            r1, r2 = step1[x], step2[y]
            for k, (k1, k2) in enumerate(cols):
                (x2, o1), (y2, o2) = r1[k1], r2[k2]
                if out1[o1] != out2[o2]:
                    step_of[x, y] = (k, None)
                    break
                if (x2, y2) not in seen:
                    seen.add((x2, y2))
                    nxt.append((x2, y2))
        if step_of:
            break
        frontier = nxt
    else:
        return None
    marked = dict(step_of)
    for level in reversed(levels[:-1]):
        here = {}
        for x, y in level:
            r1, r2 = step1[x], step2[y]
            for k, (k1, k2) in enumerate(cols):
                p = (r1[k1][0], r2[k2][0])
                if p in marked:
                    here[x, y] = (k, p)
                    break
        step_of.update(here)
        marked = here
    # The sweep ends on level 0: ``marked`` holds the start pairs L letters away.
    words = {}
    for p in marked:
        word, q = [], p
        while q is not None:
            k, q = step_of[q]
            word.append(alphabet[k])
        words[p] = tuple(word)
    return min((words[x, y], key) for key, x, y in starts if (x, y) in words)


@dataclass(frozen=True)
class CogermWitness:
    """Common core of two sections: a span of interface-fixing injections
    ``s1.explanatory <-i1- core -i2-> s2.explanatory`` together with the
    factoring morphism ``phi`` satisfying ``i_k . phi = psi_k``."""

    core: MealySystem
    i1: SystemMorphism
    i2: SystemMorphism
    phi: SystemMorphism


def check_cogerm_witness(s1: Section, s2: Section, w: CogermWitness) -> tuple[bool, str | None]:
    if not w.core.homogeneous:
        return False, "core is not homogeneous"
    if w.i1.source != w.core or w.i2.source != w.core:
        return False, "span legs do not start at the core"
    if w.i1.target != s1.explanatory or w.i2.target != s2.explanatory:
        return False, "span legs do not reach the explanatory machines"
    for leg, label in ((w.i1, "first"), (w.i2, "second")):
        if len(set(leg.f_b)) != len(leg.f_b) or leg.f_b != leg.f_a:
            return False, f"{label} leg is not an injective state map"
        if leg.source.inputs != leg.target.inputs or leg.source.outputs != leg.target.outputs:
            return False, f"{label} leg does not fix the interface"
        chk = check_morphism(leg)
        if not chk.ok:
            return False, f"{label} leg breaks dynamics at {chk.witness!r}"
    if w.phi.source != s1.patch.source or w.phi.target != w.core:
        return False, "factoring morphism has the wrong endpoints"
    if compose(w.phi, w.i1) != s1.psi:
        return False, "factoring through the first leg does not recover psi"
    if compose(w.phi, w.i2) != s2.psi:
        return False, "factoring through the second leg does not recover psi"
    chk = check_morphism(w.phi)
    if not chk.ok:
        return False, f"factoring morphism breaks dynamics at {chk.witness!r}"
    # The carriers matched above, so a leg fixes the interface when its
    # letter maps are identities; a map off the dynamics is named first.
    for leg, label in ((w.i1, "first"), (w.i2, "second")):
        if (leg.f_i != tuple(range(len(leg.source.inputs)))
                or leg.f_o != tuple(range(len(leg.source.outputs)))):
            return False, f"{label} leg does not fix the interface"
    return True, None


def cogerm_equiv(s1: Section, s2: Section) -> CogermWitness | None:
    """Decide whether two sections of one patch share a common core.

    Seeds the pair relation with corresponding before- and after-images,
    closes under dynamics on the full explanatory alphabet, and succeeds
    exactly when the closure is a partial bijection with matching outputs.
    The witness core is the closure itself with the coordinate projections.
    """
    if s1.patch.source != s2.patch.source:
        raise CheckerError("core comparison needs sections of one patch")
    m1, m2 = s1.explanatory, s2.explanatory
    if m1.inputs != m2.inputs or m1.outputs != m2.outputs:
        raise CheckerError("core comparison needs matching explanatory interfaces")
    if not (m1.homogeneous and m2.homogeneous):
        raise CheckerError("core comparison needs homogeneous explanatory machines")
    p1, p2 = s1.psi, s2.psi
    todo = [*zip(p1.f_b, p2.f_b), *zip(p1.f_a, p2.f_a)]
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    while todo:
        x, y = todo.pop()
        # Both maps are written together, and a failed write returns at
        # once, so ``fwd[x] == y`` exactly when the pair is already closed.
        if fwd.get(x) == y:
            continue
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return None
        for (x2, o1), (y2, o2) in zip(m1.step[x], m2.step[y]):
            if o1 != o2:
                return None
            todo.append((x2, y2))
    # Carriers are sorted, so index pairs sort as the name pairs do.
    ordered = sorted(fwd.items())
    at = {p: k for k, p in enumerate(ordered)}
    names = [f"{m1.before[x]}~{m2.before[y]}" for x, y in ordered]
    if len(set(names)) != len(names):
        names = [f"r{k}" for k in range(len(ordered))]
    core, pos = _table_system(names, m1.inputs, m1.outputs, (
        [(at[x2, y2], o) for (x2, o), (y2, _) in zip(m1.step[x], m2.step[y])] for x, y in ordered))
    member = [ordered[k] for k in sorted(range(len(ordered)), key=pos.__getitem__)]
    letters, outs = tuple(range(len(m1.inputs))), tuple(range(len(m1.outputs)))
    f1, f2 = tuple([x for x, _ in member]), tuple([y for _, y in member])
    i1 = SystemMorphism(core, m1, f1, f1, letters, outs)
    i2 = SystemMorphism(core, m2, f2, f2, letters, outs)
    phi = SystemMorphism(s1.patch.source, core,
                         tuple([pos[at[p]] for p in zip(p1.f_b, p2.f_b)]),
                         tuple([pos[at[p]] for p in zip(p1.f_a, p2.f_a)]), p1.f_i, p1.f_o)
    return CogermWitness(core, i1, i2, phi)


@dataclass(frozen=True)
class MinimizeResult:
    machine: MealySystem
    state_map: tuple[tuple[Ident, Ident], ...]


def minimize(system: MealySystem, j: Judge | None = None) -> MinimizeResult:
    """Quotient of a homogeneous machine by behavioral equality of states
    over its raw input alphabet.  Blocks are named ``p0, p1, ...`` in the
    order of their smallest member.

    With a judge, outputs are judged first, so states merge exactly when
    their stepwise judged behaviors agree; the quotient keeps the raw input
    alphabet and emits judged outputs."""
    if not system.homogeneous:
        raise HeterogeneousInput("minimization is defined for homogeneous machines")
    if j is not None:
        validate_judge(j, system)
    outputs = system.outputs if j is None else j.interp_outputs
    out_of = [outputs.index(o if j is None else j.j_o[o]) for o in system.outputs]
    outs, succs = _rows(system, range(len(system.inputs)), out_of, 0)
    block = _refine(outs, succs)
    # Blocks in the order of their first states, each with its last state,
    # whose row every state of the block shares.
    order = list(dict.fromkeys(block))
    last = dict(zip(block, range(len(block))))
    label = list(map(dict(zip(order, range(len(order)))).__getitem__, block))
    names = [f"p{k}" for k in range(len(order))]
    machine, _ = _table_system(names, system.inputs, outputs, (
        zip(map(label.__getitem__, succs[last[b]]), outs[last[b]]) for b in order))
    state_map = tuple(zip(system.before, map(names.__getitem__, label)))
    return MinimizeResult(machine, state_map)


@dataclass(frozen=True)
class BehaviorPartition:
    """Joint behavior classes of the states of several machines over one
    alphabet, with per-class one-step data."""

    alphabet: tuple[Ident, ...]
    blocks: tuple[tuple[tuple[int, Ident], ...], ...]
    out_table: tuple[tuple[int, ...], ...]
    succ_table: tuple[tuple[int, ...], ...]
    outputs: tuple[Ident, ...]

    @cached_property
    def letter_index(self) -> dict[Ident, int]:
        return {c: k for k, c in enumerate(self.alphabet)}

    @cached_property
    def block_index(self) -> dict[tuple[int, Ident], int]:
        """Block of each ``(machine number, state)`` member."""
        return {ks: bk for bk, members in enumerate(self.blocks) for ks in members}


def pooled_behavior(machines: Sequence[MealySystem], alphabet: tuple[Ident, ...]) -> BehaviorPartition:
    """Partition the disjoint union of the machines' states by behavioral
    equality over ``alphabet``.

    Blocks are numbered by the sorted ranks of the refinement signatures of
    the last round that split a block (in the first round, the sorted rows
    of outputs over ``alphabet``); :func:`localglobal.glue_behavioral` names
    glued states and picks obstruction classes by these numbers.  Members
    of a block are sorted, and its table rows are read off one member, on
    which all its members agree."""
    if not machines:
        raise CheckerError("behavior pooling needs at least one machine")
    outputs = machines[0].outputs
    for m in machines:
        if m.outputs != outputs:
            raise CheckerError("pooled machines must share an output interface")
        for c in alphabet:
            if c not in m.i_index:
                raise CheckerError(f"letter {c!r} missing from a pooled machine")
    outs, succs, block = _pool(machines, alphabet)
    out_rows, succ_rows = _classes(outs, succs, block)
    states = [(k, s) for k, m in enumerate(machines) for s in m.before]
    members: list[list[tuple[int, Ident]]] = [[] for _ in out_rows]
    for ks, b in zip(states, block):
        members[b].append(ks)
    # On the one shared carrier the pooled output numbers are its positions.
    return BehaviorPartition(tuple(alphabet), tuple(tuple(sorted(ms)) for ms in members),
                             tuple(out_rows), tuple(succ_rows), outputs)


class _ClassRows(dict):
    """The ``step`` table of a partition's class automaton: the row of
    class ``b``, its (successor class, output position) pairs, is zipped
    from the partition's tables when a walk first reads it."""

    def __init__(self, part: BehaviorPartition) -> None:
        super().__init__()
        self.succ_table, self.out_table = part.succ_table, part.out_table

    def __missing__(self, b: int) -> tuple[tuple[int, int], ...]:
        row = self[b] = tuple(zip(self.succ_table[b], self.out_table[b]))
        return row


def block_distinguishing_word(
    part: BehaviorPartition, b1: int, b2: int
) -> tuple[Ident, ...] | None:
    """Shortest lex-least word on which two behavior classes diverge: one
    start of :func:`_witness_walk` on the class automaton against itself.
    The walk reads the partition's tables, and zips a row only for the
    classes it reaches; the rows hold output positions, which the
    partition's distinct outputs tell apart exactly."""
    for b in (b1, b2):
        if not 0 <= b < len(part.blocks):
            raise CheckerError(f"no behavior class {b!r}: the partition has {len(part.blocks)}")
    if b1 == b2:
        return None
    classes = SimpleNamespace(step=_ClassRows(part), outputs=part.outputs,
                              i_index=part.letter_index)
    least = _witness_walk(classes, classes, part.alphabet, [(None, b1, b2)])
    if least is None:
        raise InternalConsistencyError("distinct behavior classes admit no separating word")
    return least[0]

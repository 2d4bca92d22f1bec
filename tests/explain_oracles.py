"""Brute-force references for the behavior kernels of ``sheafmealy.explain``.

These are the direct algorithms the refinement kernel replaced, kept here
so the seeded tests can compare results field for field:

* ``pair_level_behavioral_equiv`` labels every state pair of the two
  machines with the length of its shortest distinguishing word, one scan
  of all pairs per word length, and reads each witness off the labels;
* ``refined_behavioral_equiv`` is the refinement path that the library's
  walk over image pairs replaced: it pools and refines both machines with
  the library's kernel, walks the class automaton once per distinct pair
  of image classes, and keeps the least witness by one rule,
  ``least_witness``;
* ``moore_minimize`` and ``moore_pooled`` run Moore's refinement with the
  signatures ranked by ``list.index``, one full round at a time: the plain
  rounds whose block numbering the library's kernel must reproduce.

All but the refinement path are cubic or worse; use them on small
machines only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from sheafmealy import CheckerError, MealySystem, Section, make_system
from sheafmealy.explain import Judge, _class_word, _classes, _pool, validate_judge
from sheafmealy.systems import Ident


def _pair_levels(m1, m2, alphabet) -> dict[tuple[str, str], int]:
    levels: dict[tuple[str, str], int] = {}
    for x in m1.before:
        for y in m2.before:
            if any(m1.transition(x, c)[1] != m2.transition(y, c)[1] for c in alphabet):
                levels[(x, y)] = 1
    changed = True
    k = 1
    while changed:
        changed = False
        k += 1
        for x in m1.before:
            for y in m2.before:
                if (x, y) in levels:
                    continue
                if any(levels.get((m1.transition(x, c)[0], m2.transition(y, c)[0])) == k - 1
                       for c in alphabet):
                    levels[(x, y)] = k
                    changed = True
    return levels


def _word_from_pair(m1, m2, alphabet, levels: Mapping, x, y) -> tuple[str, ...]:
    k = levels[(x, y)]
    word: list[str] = []
    while k > 1:
        for c in alphabet:
            nxt = (m1.transition(x, c)[0], m2.transition(y, c)[0])
            if levels.get(nxt) == k - 1:
                word.append(c)
                x, y = nxt
                k -= 1
                break
        else:
            raise AssertionError("level table is not decreasing")
    for c in alphabet:
        if m1.transition(x, c)[1] != m2.transition(y, c)[1]:
            word.append(c)
            return tuple(word)
    raise AssertionError("level-one pair has no separating letter")


def _checked_alphabet(s1: Section, s2: Section, alphabet):
    """The alphabet of a behavioral comparison; bad arguments raise the
    errors of ``behavioral_equiv``."""
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
    return alphabet


def pair_level_behavioral_equiv(s1: Section, s2: Section, alphabet=None):
    """``(ok, state, word)`` with the witness minimizing (length, word, state)."""
    alphabet = _checked_alphabet(s1, s2, alphabet)
    m1, m2 = s1.explanatory, s2.explanatory
    levels = _pair_levels(m1, m2, alphabet)
    best = None
    for s in s1.patch.source.before:
        pair = (s1.psi.map_b(s), s2.psi.map_b(s))
        if pair in levels:
            word = _word_from_pair(m1, m2, alphabet, levels, *pair)
            key = (len(word), word, s)
            if best is None or key < best:
                best = key
    if best is None:
        return (True, None, None)
    return (False, best[2], best[1])


def least_witness(
    triples: Iterable[tuple[Ident, int, int]],
    word: Callable[[int, int], tuple[Ident, ...]],
) -> tuple[tuple[Ident, ...], Ident] | None:
    """Over the ``(state, class, class)`` triples whose classes differ, the
    ``(word, state)`` least by (word length, word, state), or None; ``word``
    separates two classes and is asked once per class pair."""
    words: dict[tuple[int, int], tuple[Ident, ...]] = {}
    keys: list[tuple[int, tuple[Ident, ...], Ident]] = []
    for state, b1, b2 in triples:
        if b1 != b2:
            if (b1, b2) not in words:
                words[b1, b2] = word(b1, b2)
            keys.append((len(words[b1, b2]), words[b1, b2], state))
    return min(keys)[1:] if keys else None


def refined_behavioral_equiv(s1: Section, s2: Section, alphabet=None):
    """``(ok, state, word)`` from the pooled refinement of both machines,
    the witness minimizing (length, word, state)."""
    alphabet = _checked_alphabet(s1, s2, alphabet)
    m1, m2 = s1.explanatory, s2.explanatory
    outs, succs, block = _pool((m1, m2), alphabet)
    out_table, succ_table = _classes(outs, succs, block)
    n1 = len(m1.before)
    least = least_witness(
        ((s, block[x], block[n1 + y])
         for s, x, y in zip(s1.patch.source.before, s1.psi.f_b, s2.psi.f_b)),
        lambda b1, b2: _class_word(alphabet, out_table, succ_table, b1, b2))
    return (True, None, None) if least is None else (False, least[1], least[0])


def _moore(states, sig0, succ_of, alphabet) -> dict:
    keys = sorted(set(sig0.values()))
    block = {s: keys.index(sig0[s]) for s in states}
    while True:
        sig = {s: (block[s], tuple(block[succ_of(s, c)] for c in alphabet)) for s in states}
        keys2 = sorted(set(sig.values()))
        nxt = {s: keys2.index(sig[s]) for s in states}
        if len(keys2) == len(set(block.values())):
            return block
        block = nxt


def moore_minimize(system: MealySystem, j: Judge | None = None):
    """``(machine, state_map)`` of the quotient, blocks named in the order
    of their first member."""
    if j is not None:
        validate_judge(j, system)
    out_of = (lambda o: j.j_o[o]) if j is not None else (lambda o: o)
    alphabet = system.inputs
    sig0 = {s: tuple(out_of(system.transition(s, c)[1]) for c in alphabet)
            for s in system.before}
    block = _moore(system.before, sig0, lambda s, c: system.transition(s, c)[0], alphabet)
    order: list[int] = []
    for s in system.before:
        if block[s] not in order:
            order.append(block[s])
    rename = {b: f"p{k}" for k, b in enumerate(order)}
    dyn = {}
    for s in system.before:
        for c in alphabet:
            s2, o = system.transition(s, c)
            dyn[(rename[block[s]], c)] = (rename[block[s2]], out_of(o))
    carrier = sorted(rename.values())
    outs = system.outputs if j is None else j.interp_outputs
    machine = make_system(carrier, carrier, alphabet, outs, dyn)
    return machine, tuple((s, rename[block[s]]) for s in system.before)


def moore_pooled(machines: Sequence[MealySystem], alphabet):
    """``(blocks, out_table, succ_table)`` of the pooled partition."""
    outputs = machines[0].outputs
    states = [(k, s) for k, m in enumerate(machines) for s in m.before]

    def tr(ks, c):
        k, s = ks
        s2, o = machines[k].transition(s, c)
        return (k, s2), o

    sig0 = {ks: tuple(tr(ks, c)[1] for c in alphabet) for ks in states}
    block = _moore(states, sig0, lambda ks, c: tr(ks, c)[0], alphabet)
    n_blocks = len(set(block.values()))
    members: list[list] = [[] for _ in range(n_blocks)]
    for ks in states:
        members[block[ks]].append(ks)
    o_ix = {o: k for k, o in enumerate(outputs)}
    out_table, succ_table = [], []
    for b in range(n_blocks):
        rep = members[b][0]
        out_table.append(tuple(o_ix[tr(rep, c)[1]] for c in alphabet))
        succ_table.append(tuple(block[tr(rep, c)[0]] for c in alphabet))
    return (tuple(tuple(sorted(ms)) for ms in members), tuple(out_table), tuple(succ_table))

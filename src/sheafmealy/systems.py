"""Finite Mealy machines with split state sets, morphisms and coverings.

A machine here is a quadruple of finite carriers (before-states, after-states,
inputs, outputs) together with a total dynamics table
``step : before x inputs -> after x outputs``.  Keeping the before and after
carriers separate is what makes restriction well behaved: a patch may contain
a state whose one-step successors lie outside the patch, as long as the
successors are kept on the after side.  A machine is homogeneous when both
carriers coincide.

Carriers are sets of string identifiers, stored sorted and duplicate-free, so
structural equality of systems is plain dataclass equality.  Dynamics are
stored as dense index tables over the sorted carriers, and so are
morphisms.  Every machine a checker builds (patches, overlaps, amalgams,
cores, glued and minimal machines) is built on those tables, not through
:func:`make_system` and :func:`morphism`, which read names for documents.
Names sort as strings (``"b10" < "b2"``), so a new state's position comes
from the one constructor that sorts them, never from its class number.

The whole system is a patch of itself, :func:`identity_patch`; global
sections sit on it.  Top-level systems must have non-empty inputs and
outputs.  Patches may have empty carriers or interfaces (the overlap of two
patches can, and so can a patch pulled back along another); they are legal
covering members and are checked structurally rather than through
:func:`validate_system`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import (
    CheckerError,
    EmptyInterface,
    ForeignElement,
    InterfaceMismatch,
    InternalConsistencyError,
    MalformedDocument,
    PartialDynamics,
)

Ident = str


def finset(elements: Iterable[Ident]) -> tuple[Ident, ...]:
    """Normalize identifiers into canonical sorted order, rejecting duplicates.

    Equal elements are neighbours once sorted, unless a NaN breaks the sort
    order; a repeat kept apart is named from a set.  A carrier with an
    unhashable element is left to the caller, which refuses it as no
    identifier."""
    elems = tuple(sorted(elements))
    try:
        distinct = set(elems)
    except TypeError:
        distinct = None
    if distinct is not None and len(distinct) == len(elems):
        return elems
    for x, y in zip(elems, elems[1:]):
        if x == y:
            raise CheckerError(f"duplicate identifier {x!r}")
    if distinct is not None:
        seen: set[Ident] = set()
        for x in elems:
            if x in seen:
                raise CheckerError(f"duplicate identifier {x!r}")
            seen.add(x)
    return elems


@dataclass(frozen=True)
class MealySystem:
    """Finite machine with separate before/after state carriers.

    ``step[b][i] = (a, o)`` gives the index of the successor state in
    ``after`` and of the emitted output in ``outputs``.
    """

    before: tuple[Ident, ...]
    after: tuple[Ident, ...]
    inputs: tuple[Ident, ...]
    outputs: tuple[Ident, ...]
    step: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def b_index(self) -> dict[Ident, int]:
        return {s: k for k, s in enumerate(self.before)}

    @cached_property
    def a_index(self) -> dict[Ident, int]:
        return {s: k for k, s in enumerate(self.after)}

    @cached_property
    def i_index(self) -> dict[Ident, int]:
        return {s: k for k, s in enumerate(self.inputs)}

    @cached_property
    def o_index(self) -> dict[Ident, int]:
        return {s: k for k, s in enumerate(self.outputs)}

    @property
    def homogeneous(self) -> bool:
        return self.before == self.after

    def transition(self, state: Ident, letter: Ident) -> tuple[Ident, Ident]:
        a, o = self.step[self.b_index[state]][self.i_index[letter]]
        return self.after[a], self.outputs[o]

    def run(self, state: Ident, word: Iterable[Ident]) -> tuple[Ident, ...]:
        """Emitted output sequence along ``word``; requires a homogeneous system."""
        k = self.b_index[state]
        outs: list[Ident] = []
        for letter in word:
            k, o = self.step[k][self.i_index[letter]]
            outs.append(self.outputs[o])
        return tuple(outs)


def make_system(
    before: Iterable[Ident],
    after: Iterable[Ident],
    inputs: Iterable[Ident],
    outputs: Iterable[Ident],
    dynamics: Mapping[tuple[Ident, Ident], tuple[Ident, Ident]],
) -> MealySystem:
    """Build a machine from a dynamics mapping ``(state, input) -> (state, output)``.

    Totality and carrier membership are enforced; empty interfaces are
    permitted here because patches, such as overlaps, may have them.
    """
    b = finset(before)
    a = finset(after)
    i = finset(inputs)
    o = finset(outputs)
    b_set, i_set = set(b), set(i)
    a_ix = {s: k for k, s in enumerate(a)}
    o_ix = {s: k for k, s in enumerate(o)}
    for (s, c), (s2, out) in dynamics.items():
        if s not in b_set or c not in i_set:
            raise ForeignElement(f"dynamics defined at foreign pair ({s!r}, {c!r})")
        if s2 not in a_ix:
            raise ForeignElement(f"successor {s2!r} of ({s!r}, {c!r}) is not an after-state")
        if out not in o_ix:
            raise ForeignElement(f"output {out!r} of ({s!r}, {c!r}) is not in the output set")
    table: list[tuple[tuple[int, int], ...]] = []
    for s in b:
        row: list[tuple[int, int]] = []
        for c in i:
            if (s, c) not in dynamics:
                raise PartialDynamics(f"dynamics missing at ({s!r}, {c!r})")
            s2, out = dynamics[(s, c)]
            row.append((a_ix[s2], o_ix[out]))
        table.append(tuple(row))
    return MealySystem(b, a, i, o, tuple(table))


def _table_system(
    states: list[Ident],
    inputs: tuple[Ident, ...],
    outputs: tuple[Ident, ...],
    rows: Iterable[Iterable[tuple[int, int]]],
) -> tuple[MealySystem, list[int]]:
    """A homogeneous machine from distinct state names in any order and
    their rows of ``(successor's place in states, output index)`` pairs,
    over given carriers; with each state's position in the sorted carrier."""
    carrier = finset(states)
    at = {s: k for k, s in enumerate(carrier)}
    pos = [at[s] for s in states]
    step: list = [None] * len(carrier)
    for p, row in zip(pos, rows):
        step[p] = tuple([(pos[t], o) for t, o in row])
    return MealySystem(carrier, carrier, inputs, outputs, tuple(step)), pos


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def system_violations(candidate: Mapping) -> list[Violation]:
    """All structural violations of a candidate system description: a
    mapping with keys ``before_states``, ``after_states``, ``inputs``,
    ``outputs`` and a ``dynamics`` list of ``{"s":..., "i":..., "s2":...,
    "o":...}`` entries.  A candidate that is no mapping, or a carrier or
    ``dynamics`` that is no list, raises :class:`MalformedDocument`.
    """
    return _scan(candidate)[0]


def _scan(candidate: Mapping) -> tuple[list[Violation], MealySystem | None]:
    """The violations of :func:`system_violations` and, when there are
    none, the machine, its step table filled in one pass over the rows;
    only a row naming a foreign or unhashable value takes an ``except`` arm."""
    if not isinstance(candidate, Mapping):
        raise MalformedDocument(f"a system must be an object, got {candidate!r}")
    for key in ("before_states", "after_states", "inputs", "outputs"):
        if not isinstance(candidate.get(key, []), list):
            raise MalformedDocument(f"a system: {key} must be a list, got {candidate[key]!r}")
    out: list[Violation] = []
    try:
        b = finset(candidate["before_states"])
        a = finset(candidate["after_states"])
        i = finset(candidate["inputs"])
        o = finset(candidate["outputs"])
    except KeyError as exc:
        return [Violation("ForeignElement", f"missing field {exc.args[0]!r}")], None
    except CheckerError as exc:
        return [Violation("ForeignElement", str(exc))], None
    except TypeError as exc:
        return [Violation("ForeignElement", f"carriers must hold comparable identifiers ({exc})")], None
    if not i or not o:
        out.append(Violation("EmptyInterface", "inputs and outputs must be non-empty"))
    # Positions in each carrier.  Unhashable values (JSON lists and objects)
    # are no identifiers, so they have none.
    ib, ia, ii, io = positions = ({}, {}, {}, {})
    for index, carrier in zip(positions, (b, a, i, o)):
        for k, x in enumerate(carrier):
            try:
                index[x] = k
            except TypeError:
                pass
    # Slot ``b * n + i`` holds the last row's step at (b, i): its positions,
    # None for a foreign part, then the raw ``(s2, o)`` if a part is foreign.
    n = len(i)
    flat: list[tuple | None] = [None] * (len(b) * n)
    dynamics = candidate.get("dynamics", [])
    if not isinstance(dynamics, list):
        raise MalformedDocument(f"dynamics must be a list of rows, got {dynamics!r}")
    for k, row in enumerate(dynamics):
        try:
            s, c, s2, emit = row["s"], row["i"], row["s2"], row["o"]
        except (KeyError, TypeError) as exc:
            raise MalformedDocument(f"dynamics row {k} needs the fields s, i, s2 and o") from exc
        try:
            at = ib[s] * n + ii[c]
        except (KeyError, TypeError):
            out.append(Violation("ForeignElement", f"dynamics at foreign pair ({s!r}, {c!r})"))
            continue
        try:
            step = (ia[s2], io[emit])
        except (KeyError, TypeError):
            ka = ko = None
            with suppress(KeyError, TypeError):
                ka = ia[s2]
            with suppress(KeyError, TypeError):
                ko = io[emit]
            if ka is None:
                out.append(Violation("ForeignElement", f"successor {s2!r} at ({s!r}, {c!r}) not an after-state"))
            if ko is None:
                out.append(Violation("ForeignElement", f"output {emit!r} at ({s!r}, {c!r}) not in output set"))
            step = (ka, ko, s2, emit)
        # Two rows at one pair agree when they wrote equal values.
        prev = flat[at]
        if prev is not None and prev != step:
            out.append(Violation("ForeignElement", f"conflicting dynamics entries at ({s!r}, {c!r})"))
        flat[at] = step
    if None in flat:
        out += [Violation("PartialDynamics", f"dynamics missing at ({b[at // n]!r}, {i[at % n]!r})")
                for at, step in enumerate(flat) if step is None]
    if not out:
        # Every carrier element must be an identifier, also one that no
        # dynamics row names (say an input when there are no before-states).
        out = [Violation("ForeignElement", f"{x!r} is no identifier")
               for x in (*b, *a, *i, *o) if type(x).__hash__ is None]
    return out, None if out else MealySystem(b, a, i, o, tuple(zip(*[iter(flat)] * n)))


_VIOLATION_ERRORS = {
    "EmptyInterface": EmptyInterface,
    "PartialDynamics": PartialDynamics,
    "ForeignElement": ForeignElement,
}


def validate_system(candidate: Mapping) -> MealySystem:
    """Validate a top-level system description, raising the first violation
    found, and return its machine, built in the same scan.

    Unlike :func:`make_system` this enforces non-empty inputs and outputs.
    """
    violations, machine = _scan(candidate)
    if violations:
        raise _VIOLATION_ERRORS[violations[0].kind](violations[0].detail)
    return machine


@dataclass(frozen=True)
class SystemMorphism:
    """Componentwise map of machines: before, after, input and output maps.

    The four components are independent; in particular the before and after
    maps of a homogeneous machine need not agree.  Stored as dense index
    tables over the source carriers.
    """

    source: MealySystem
    target: MealySystem
    f_b: tuple[int, ...]
    f_a: tuple[int, ...]
    f_i: tuple[int, ...]
    f_o: tuple[int, ...]

    def map_b(self, s: Ident) -> Ident:
        return self.target.before[self.f_b[self.source.b_index[s]]]

    def map_a(self, s: Ident) -> Ident:
        return self.target.after[self.f_a[self.source.a_index[s]]]

    def map_i(self, c: Ident) -> Ident:
        return self.target.inputs[self.f_i[self.source.i_index[c]]]

    def map_o(self, o: Ident) -> Ident:
        return self.target.outputs[self.f_o[self.source.o_index[o]]]


def _index_map(
    mapping: Mapping[Ident, Ident],
    source: tuple[Ident, ...],
    t_ix: Mapping[Ident, int],
    label: str,
) -> tuple[int, ...]:
    out: list[int] = []
    for s in source:
        if s not in mapping:
            raise CheckerError(f"{label} map undefined at {s!r}")
        v = mapping[s]
        try:
            out.append(t_ix[v])
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise CheckerError(f"{label} map sends {s!r} to foreign element {v!r}") from None
    return tuple(out)


def morphism(
    source: MealySystem,
    target: MealySystem,
    f_b: Mapping[Ident, Ident],
    f_a: Mapping[Ident, Ident],
    f_i: Mapping[Ident, Ident],
    f_o: Mapping[Ident, Ident],
) -> SystemMorphism:
    """Build a morphism from identifier mappings; totality is enforced here,
    the dynamics square is checked separately by :func:`check_morphism`."""
    return SystemMorphism(
        source,
        target,
        _index_map(f_b, source.before, target.b_index, "before"),
        _index_map(f_a, source.after, target.a_index, "after"),
        _index_map(f_i, source.inputs, target.i_index, "input"),
        _index_map(f_o, source.outputs, target.o_index, "output"),
    )


def identity_morphism(system: MealySystem) -> SystemMorphism:
    return SystemMorphism(
        system,
        system,
        tuple(range(len(system.before))),
        tuple(range(len(system.after))),
        tuple(range(len(system.inputs))),
        tuple(range(len(system.outputs))),
    )


def identity_patch(system: MealySystem) -> OpenImmersion:
    """The whole system as a patch of itself, where global sections sit."""
    return OpenImmersion(identity_morphism(system))


def compose(first: SystemMorphism, second: SystemMorphism) -> SystemMorphism:
    """Composite morphism, ``first`` followed by ``second``."""
    if first.target != second.source:
        raise CheckerError("composition mismatch: target of first is not source of second")
    return SystemMorphism(
        first.source,
        second.target,
        tuple(second.f_b[k] for k in first.f_b),
        tuple(second.f_a[k] for k in first.f_a),
        tuple(second.f_i[k] for k in first.f_i),
        tuple(second.f_o[k] for k in first.f_o),
    )


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    witness: tuple[Ident, Ident] | None = None


def check_morphism(m: SystemMorphism) -> MorphismCheck:
    """Check the dynamics square; on failure, report the first (state, input)
    pair, in carrier order, where mapping-then-stepping differs from
    stepping-then-mapping."""
    src, tgt = m.source, m.target
    for b, s in enumerate(src.before):
        for i, c in enumerate(src.inputs):
            a, o = src.step[b][i]
            a2, o2 = tgt.step[m.f_b[b]][m.f_i[i]]
            if (m.f_a[a], m.f_o[o]) != (a2, o2):
                return MorphismCheck(False, (s, c))
    return MorphismCheck(True, None)


@dataclass(frozen=True)
class OpenImmersion:
    """A morphism all four components of which are injective.

    Between discrete finite carriers every injection is open, so injectivity
    is the whole invariant; the dynamics square is still a separate check.
    """

    morphism: SystemMorphism

    @property
    def source(self) -> MealySystem:
        return self.morphism.source

    @property
    def target(self) -> MealySystem:
        return self.morphism.target

    @cached_property
    def b_image(self) -> frozenset[Ident]:
        return frozenset(map(self.target.before.__getitem__, self.morphism.f_b))

    @cached_property
    def a_image(self) -> frozenset[Ident]:
        return frozenset(map(self.target.after.__getitem__, self.morphism.f_a))

    @cached_property
    def i_image(self) -> frozenset[Ident]:
        return frozenset(map(self.target.inputs.__getitem__, self.morphism.f_i))

    @cached_property
    def o_image(self) -> frozenset[Ident]:
        return frozenset(map(self.target.outputs.__getitem__, self.morphism.f_o))


def open_immersion(m: SystemMorphism) -> OpenImmersion:
    for name, comp in (("before", m.f_b), ("after", m.f_a), ("input", m.f_i), ("output", m.f_o)):
        if len(set(comp)) != len(comp):
            raise CheckerError(f"immersion {name} component is not injective")
    return OpenImmersion(m)


def subsystem(
    system: MealySystem,
    before: Iterable[Ident] | None = None,
    after: Iterable[Ident] | None = None,
    inputs: Iterable[Ident] | None = None,
    outputs: Iterable[Ident] | None = None,
) -> OpenImmersion:
    """Open immersion of the full subsystem on the given carriers.

    Requires closure: every step from the kept before-states under the kept
    inputs must land in the kept after-states with a kept output.
    """
    b = finset(before if before is not None else system.before)
    a = finset(after if after is not None else system.after)
    i = finset(inputs if inputs is not None else system.inputs)
    o = finset(outputs if outputs is not None else system.outputs)
    tables: list[tuple[int, ...]] = []
    for carrier, index, name in ((b, system.b_index, "a before-state"),
                                 (a, system.a_index, "an after-state"),
                                 (i, system.i_index, "an input"),
                                 (o, system.o_index, "an output")):
        for x in carrier:
            if x not in index:
                raise ForeignElement(f"{x!r} is not {name}")
        tables.append(tuple(map(index.__getitem__, carrier)))
    return _closed_patch(system, *tables)


def _closed_patch(
    system: MealySystem,
    f_b: tuple[int, ...],
    f_a: tuple[int, ...],
    f_i: tuple[int, ...],
    f_o: tuple[int, ...],
) -> OpenImmersion:
    """The full subsystem on the carrier positions of four increasing index
    tables, refused unless its steps stay inside it."""
    at_a, at_o = _inverse(f_a), _inverse(f_o)
    step: list[tuple[tuple[int, int], ...]] = []
    for kb in f_b:
        row: list[tuple[int, int]] = []
        for ki in f_i:
            ka, ko = system.step[kb][ki]
            if ka not in at_a or ko not in at_o:
                s, c = system.before[kb], system.inputs[ki]
                raise CheckerError(f"carriers not closed: step at ({s!r}, {c!r}) leaves the patch")
            row.append((at_a[ka], at_o[ko]))
        step.append(tuple(row))
    b, a, i, o = (tuple(map(carrier.__getitem__, table)) for carrier, table in (
        (system.before, f_b), (system.after, f_a), (system.inputs, f_i), (system.outputs, f_o)))
    return OpenImmersion(SystemMorphism(MealySystem(b, a, i, o, tuple(step)), system,
                                        f_b, f_a, f_i, f_o))


def _inverse(table: tuple[int, ...]) -> dict[int, int]:
    """The position of each value of an injective index table."""
    return {k: j for j, k in enumerate(table)}


@dataclass(frozen=True)
class Covering:
    """Finite family of open immersions into one target.

    The covering condition is joint surjectivity on both products,
    before x inputs and after x outputs; it is strictly stronger than
    surjectivity factor by factor and is checked by :func:`check_covering`.
    """

    target: MealySystem
    patches: tuple[OpenImmersion, ...]


def covering(target: MealySystem, patches: Iterable[OpenImmersion]) -> Covering:
    """Normalize a patch family: duplicates collapse, order is preserved."""
    kept: list[OpenImmersion] = []
    for p in patches:
        if p.target != target:
            raise CheckerError("covering patch does not map into the stated target")
        if p not in kept:
            kept.append(p)
    if not kept:
        raise CheckerError("coverings need at least one patch")
    return Covering(target, tuple(kept))


@dataclass(frozen=True)
class CoveringCheck:
    ok: bool
    side: str | None = None
    pair: tuple[Ident, Ident] | None = None


def check_covering(c: Covering) -> CoveringCheck:
    """Joint surjectivity on before x inputs and after x outputs; on failure
    report the first uncovered pair in carrier order.  A patch holds exactly
    the pairs of its state and letter images, so a letter is covered at the
    states of the patches holding it."""
    tgt = c.target
    for side, states, letters, images in (
        ("before", tgt.before, tgt.inputs, [(p.b_image, p.i_image) for p in c.patches]),
        ("after", tgt.after, tgt.outputs, [(p.a_image, p.o_image) for p in c.patches]),
    ):
        held: dict[Ident, set[Ident]] = {x: set() for x in letters}
        for state_image, letter_image in images:
            for x in letter_image:
                held[x] |= state_image
        if any(len(h) < len(states) for h in held.values()):
            for s in states:
                for x in letters:
                    if s not in held[x]:
                        return CoveringCheck(False, side, (s, x))
    return CoveringCheck(True)


def overlap_patch(p: OpenImmersion, q: OpenImmersion) -> OpenImmersion:
    """Intersection of two patches of one target, as a patch of that target."""
    if p.target != q.target:
        raise CheckerError("patches of different targets have no overlap")
    pm, qm = p.morphism, q.morphism
    return _closed_patch(p.target, *(tuple(sorted(set(f).intersection(g))) for f, g in (
        (pm.f_b, qm.f_b), (pm.f_a, qm.f_a), (pm.f_i, qm.f_i), (pm.f_o, qm.f_o))))


def restrict_immersion(w: OpenImmersion, p: OpenImmersion) -> OpenImmersion:
    """Factor the patch ``w`` through the containing patch ``p``.

    Requires the images of ``w`` to lie inside those of ``p``; the result is
    the immersion ``w.source -> p.source`` with ``p`` after it giving ``w``.
    """
    if w.target != p.target:
        raise CheckerError("patches of different targets cannot be factored")
    if not (w.b_image <= p.b_image and w.a_image <= p.a_image
            and w.i_image <= p.i_image and w.o_image <= p.o_image):
        raise CheckerError("patch does not lie inside the containing patch")
    wm, pm = w.morphism, p.morphism
    return OpenImmersion(SystemMorphism(w.source, p.source, *(
        tuple(map(_inverse(f_p).__getitem__, f_w))
        for f_w, f_p in ((wm.f_b, pm.f_b), (wm.f_a, pm.f_a), (wm.f_i, pm.f_i), (wm.f_o, pm.f_o))
    )))


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Join the classes of ``x`` and ``y``; whether they were apart."""
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)
        return rx != ry


@dataclass(frozen=True)
class Amalgam:
    """Quotient of a disjoint union of homogeneous machines by identifications."""

    system: MealySystem
    embeddings: tuple[SystemMorphism, ...]


def amalgamate(
    components: list[MealySystem],
    identifications: Iterable[tuple[int, Ident, int, Ident]],
) -> Amalgam:
    """Quotient machine of ``sum components / (k, s) ~ (l, t)``.

    All components must be homogeneous and share one interface.  The step of
    a class is taken from its members; members that disagree on the class of
    the successor or on the output make the quotient dynamics ill defined,
    which is an internal error because every caller identifies along a span
    of morphisms, and chains of such identifications preserve one-step data.
    """
    if not components:
        raise CheckerError("amalgamation needs at least one component")
    iface_i, iface_o = components[0].inputs, components[0].outputs
    for comp in components:
        if not comp.homogeneous:
            raise CheckerError("amalgamation is defined for homogeneous machines")
        if comp.inputs != iface_i or comp.outputs != iface_o:
            raise InterfaceMismatch("amalgamation components must share one interface")
    offsets = [0, *accumulate(len(comp.before) for comp in components)]
    uf = _UnionFind(offsets[-1])
    for ident in identifications:
        ends = []
        for k, s in (ident[:2], ident[2:]):
            comp = components[k] if isinstance(k, int) and 0 <= k < len(components) else None
            if comp is None or s not in comp.b_index:
                raise CheckerError(f"identification {ident!r}: component {k!r} has no state {s!r}")
            ends.append(offsets[k] + comp.b_index[s])
        uf.union(*ends)
    classes: dict[int, list[tuple[int, Ident]]] = {}
    for k, comp in enumerate(components):
        for b, s in enumerate(comp.before):
            classes.setdefault(uf.find(offsets[k] + b), []).append((k, s))
    # Deterministic readable names: member names joined, disambiguated on
    # clash.  Members are listed in (component, state) order, so the classes
    # are in the order of their least members.
    base_names = ["+".join(sorted({s for _, s in members})) for members in classes.values()]
    totals, seen = Counter(base_names), Counter()
    names: list[Ident] = []
    for n in base_names:
        names.append(n if totals[n] == 1 else f"{n}#{seen[n]}")
        seen[n] += 1
    if len(set(names)) != len(names):
        # Pathological identifier clash; fall back to opaque canonical names.
        names = [f"q{k}" for k in range(len(names))]
    cls = dict(zip(classes, range(len(names))))
    of = [cls[uf.find(g)] for g in range(offsets[-1])]
    rows: list = [None] * len(names)
    for k, comp in enumerate(components):
        for b, step_row in enumerate(comp.step):
            row = tuple([(of[offsets[k] + a], o) for a, o in step_row])
            q = of[offsets[k] + b]
            if rows[q] is None:
                rows[q] = row
            elif rows[q] != row:
                raise InternalConsistencyError(f"quotient dynamics ill defined at {names[q]!r}")
    system, pos = _table_system(names, iface_i, iface_o, rows)
    letters, outs = tuple(range(len(iface_i))), tuple(range(len(iface_o)))
    embeds = []
    for k, comp in enumerate(components):
        f = tuple([pos[of[offsets[k] + b]] for b in range(len(comp.before))])
        embeds.append(SystemMorphism(comp, system, f, f, letters, outs))
    return Amalgam(system, tuple(embeds))

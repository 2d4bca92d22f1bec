"""Exact fiber topology of axis-aligned rectangle unions under projection.

Domains are finite unions of open/half-open/closed axis-aligned rectangles
in the plane (or intervals on the line) with rational endpoints; the judged
input map is the projection onto one axis.  A box is the product of its
sides, one interval per axis (a cell in the sense of o-minimal cell
decomposition), and every box operation is written once over the sides:
two boxes merge when they agree on every side but one and are linked on
that one, and clipping replaces one side.  Everything here is exact:
endpoints are rationals or their integer ranks, and there are no
tolerances in this module.

Three facts, proved directly for this class of domains, drive the algorithms:

* Components by pairwise linkage.  Boxes A and B satisfy
  ``cl(A) meets B or A meets cl(B)`` exactly when their union is connected,
  and for a finite family the connected components are the classes of the
  transitive closure of this relation: any class is chainwise connected,
  and distinct classes are separated sets (neither contains a limit point
  of the other), coordinatewise because closures of products are products
  of closures.

* Candidate abscissae.  With the judged axis fixed, nothing about the band
  ``projection in (t - d, t + d)`` changes while the band avoids interval
  endpoints of the union on that axis: component structure and fiber
  membership are constant on each open gap between consecutive endpoints.
  A full sheaf verdict therefore needs only the endpoints themselves plus
  one interior point per gap; midpoints are used, and cross-sections
  decide each of them.  Over a gap every box that reaches the band spans
  the gap, so the band's preimage is the fiber times the band: one
  component per fiber piece, each meeting the fiber.  At an endpoint ``t``
  the preimage has three cross-sections, each constant on its part of the
  band: just left of ``t``, at ``t`` (the fiber) and just right of ``t``.
  Pieces of one cross-section are apart and so are a left and a right
  piece, while a side piece joins a fiber piece exactly when its closure
  meets it.  A side piece is one run, so the fiber pieces it joins are
  consecutive, and the fiber splits exactly when some gap between two
  consecutive fiber pieces has no side piece whose closure meets both.
  Only a band whose fiber splits at an endpoint is clipped, normalized and
  linked, to build the components of its certificate; each component's
  first fiber piece gives its fiber point.  ``sheaf_verdict`` and
  ``robustly_disconnected`` both decide a band this way, in ``_split``.

* Cells, not values.  Every box operation compares endpoints only, so it
  commutes with any strictly increasing relabelling of the coordinates.
  Each union keeps one rank grid, built once (from the document's
  spellings, from the boxes given to ``rect_union``, or on first use): per
  axis its distinct endpoint values in order, the ``i``-th of rank ``4i``,
  and its boxes with each side as the run of cells it covers (``_Run``).
  Cell ``2r`` is the point of rank ``r`` and cell ``2r + 1`` the open gap
  after it, so the side from rank ``lo`` to rank ``hi`` is the run from
  ``2 lo + lo_open`` to ``2 hi - hi_open``, and emptiness, clips, hulls,
  linkage, closures and membership are int comparisons.  Candidate ``k``
  has rank ``2k`` and its band the run ``(4k - 1, 4k + 1)``, so bands are
  decided and their components built on runs; a counterexample cuts on
  runs, each cut at a rank of its own in its gap.  Rationals appear only at
  parse, in candidate midpoints and band widths, in ``_point`` (fiber
  points and samples) and in the outputs: an ``Interval`` is built only for
  ``RectUnion.rects``, for certificate components and by ``fiber``.  On
  the line a fiber is at most one point and never splits, so verdicts
  there answer from the candidates.

Linkage is found by a sweep along axis 0: closures of two sides meet only
if neither closure ends before the other begins, so each box, taken in
order of its first cell, is tested only against the earlier boxes whose
closure does not end below the start of its own.

A robustly disconnected fiber at ``t0`` means: some open band around ``t0``
has its preimage split by two disjoint relatively open sets, both meeting
the fiber.  Components of the preimage are relatively open (the domains are
locally connected), so this holds exactly when the preimage of a small band
has at least two components meeting the fiber; the certificate lists all
band components with a marked rational fiber point in each one that meets
the fiber.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Mapping, Sequence
from heapq import heappop, heappush
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from typing import NamedTuple

from .errors import CheckerError, IncompatibleFamily, InternalConsistencyError, MalformedDocument
from .explain import Judge, judge as make_judge
from .localglobal import ObstructionReport, glue_stateless
from .systems import Covering, MealySystem, _table_system, _UnionFind, covering, finset, subsystem

Point = tuple[Fraction, ...]


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open))


class Rect(tuple):
    """A box: the product of its sides, one interval per axis.

    ``Rect(x)`` is a segment on the line and ``Rect(x, y)`` a rectangle in
    the plane; :meth:`of` builds a box from a sequence of sides.  Boxes
    compare, sort and hash as the tuples of their sides.
    """

    __slots__ = ()

    def __new__(cls, x: Interval, y: Interval | None = None) -> Rect:
        return tuple.__new__(cls, (x,) if y is None else (x, y))

    @classmethod
    def of(cls, sides: Iterable[Interval]) -> Rect:
        return tuple.__new__(cls, sides)

    def __reduce__(self):
        return Rect.of, (tuple(self),)

    def __repr__(self) -> str:
        return f"Rect{tuple(self)!r}"

    @property
    def x(self) -> Interval:
        return self[0]

    @property
    def y(self) -> Interval | None:
        return self[1] if len(self) > 1 else None

    @property
    def empty(self) -> bool:
        return any(s.empty for s in self)


class _Run(NamedTuple):
    """A box side on a rank grid: the cells ``first`` to ``last``, none if ``first > last``."""

    first: int
    last: int

    @property
    def lo(self) -> int:
        return self.first >> 1

    @property
    def hi(self) -> int:
        return (self.last + 1) >> 1


_Box = tuple[_Run, ...]
_Tables = tuple[tuple[Fraction, ...], ...]


def _interval(values: Mapping[int, Fraction], s: _Run) -> Interval:
    """The side that the run ``s`` covers, its ends read through ``values``."""
    return Interval(values[s.lo], values[s.hi], bool(s.first & 1), bool(s.last & 1))


def _rects(boxes: Iterable[_Box], values: Sequence[Mapping[int, Fraction]]) -> tuple[Rect, ...]:
    """Each box of runs as a ``Rect``, axis ``k`` read through ``values[k]``."""
    return tuple(Rect.of(map(_interval, values, r)) for r in boxes)


def _order(r: _Box) -> list:
    """The key that sorts boxes of runs as the tuples of their intervals sort."""
    return [(first >> 1, (last + 1) >> 1, first & 1, last & 1) for first, last in r]


def _with_side(r: _Box, k: int, s: _Run) -> _Box:
    return (*r[:k], s, *r[k + 1:])


def _linked_1d(a: _Run, b: _Run) -> bool:
    """Union of two non-empty runs is a run: neither starts more than one
    cell past the other's end, as a point and an open gap beside it touch."""
    return a.first <= b.last + 1 and b.first <= a.last + 1


def _merge_runs(parts: Iterable[_Run]) -> list[_Run]:
    """Maximal connected components of a finite union of sides: in order of
    their first cells, each run joins the last component it is linked to."""
    out: list[_Run] = []
    for s in sorted(p for p in parts if p.first <= p.last):
        if out and s.first <= out[-1].last + 1:
            if s.last > out[-1].last:
                out[-1] = _Run(out[-1].first, s.last)
        else:
            out.append(s)
    return out


class _Grid(NamedTuple):
    """A union's rank grid: per axis its endpoint values in increasing order, the ``i``-th at
    rank ``4i``; its boxes as runs, the values by rank, and the representatives of runs so far."""

    tables: _Tables
    boxes: tuple[_Box, ...]
    values: tuple[dict[int, Fraction], ...]
    points: tuple[dict[_Run, Fraction], ...]

    @classmethod
    def of(cls, tables: _Tables, boxes: tuple[_Box, ...]) -> _Grid:
        return cls(tables, boxes, tuple({4 * i: v for i, v in enumerate(t)} for t in tables),
                   tuple({} for _ in tables))


@dataclass(frozen=True)
class RectUnion:
    dim: int
    rects: tuple[Rect, ...]
    _grid: _Grid | None = field(default=None, init=False, repr=False, compare=False)


def _rank_grid(dim: int, boxes: Sequence[Rect],
               value: Mapping | None = None) -> tuple[_Tables, tuple[_Box, ...]]:
    """The endpoint tables of ``boxes`` and the boxes as runs on them.  Given ``value``, their
    endpoints are spellings and ``value`` holds the number each one spells: spellings of one
    number share its rank, and no number is hashed."""
    tables, ranks = [], []
    for a in range(dim):
        table, rank, number = [], {}, None if value is None else value.__getitem__
        for e in sorted({e for r in boxes for e in (r[a].lo, r[a].hi)}, key=number):
            v = e if number is None else number(e)
            if not table or table[-1] < v:
                table.append(v)
            rank[e] = 4 * len(table) - 4
        tables.append(tuple(table))
        ranks.append(rank)
    return tuple(tables), tuple(tuple(_Run(2 * k[s.lo] + s.lo_open, 2 * k[s.hi] - s.hi_open)
                                      for k, s in zip(ranks, r)) for r in boxes)


def _grid_of(u: RectUnion) -> _Grid:
    """The union's rank grid, built on first use and kept."""
    if u._grid is None:
        object.__setattr__(u, "_grid", _Grid.of(*_rank_grid(u.dim, u.rects)))
    return u._grid


def _normalized(dim: int, tables: _Tables, boxes: Iterable[_Box]) -> RectUnion:
    """The union of boxes of runs on ``tables`` merged, its tables cut down
    to the endpoints the merged boxes keep, and ``rects`` read off them."""
    boxes = _merge(dim, boxes)
    kept = [sorted({e for r in boxes for e in (r[a].lo, r[a].hi)}) for a in range(dim)]
    if sum(map(len, kept)) < sum(map(len, tables)):
        ranks = [{e: 4 * i for i, e in enumerate(ks)} for ks in kept]
        boxes = tuple(tuple(_Run(2 * m[s.lo] + (s.first & 1), 2 * m[s.hi] - (s.last & 1))
                            for m, s in zip(ranks, r)) for r in boxes)
    grid = _Grid.of(tuple(tuple(t[e >> 2] for e in ks) for t, ks in zip(tables, kept)), boxes)
    u = RectUnion(dim, _rects(boxes, grid.values))
    object.__setattr__(u, "_grid", grid)
    return u


def rect_union(dim: int, rects: Iterable[Rect]) -> RectUnion:
    """Normalize: drop empty boxes, merge aligned neighbours on ranks, sort."""
    if dim not in (1, 2):
        raise CheckerError("only dimensions 1 and 2 are supported")
    boxes = [r for r in rects if not r.empty]
    if any(len(r) != dim for r in boxes):
        raise CheckerError(f"{dim}-dimensional unions need {dim} sides per box")
    return _normalized(dim, *_rank_grid(dim, boxes))


def _merge(dim: int, boxes: Iterable[_Box]) -> tuple[_Box, ...]:
    """The non-empty boxes merged and sorted.

    Merging repeats one step until no pair merges: take the first mergeable
    pair ``(a, k)`` in list order, put the merged box at ``k`` and drop
    ``a``.  Two boxes merge when they agree on every side but one and are
    linked on that one (the earliest such axis), so they share that axis's
    coface (the sides left when it is dropped; on the line, the empty one).
    The steps are replayed here without rescanning.  Boxes keep their
    slots, each in one coface group per axis, and two slots of axis ``a``'s
    group merge exactly when their sides on ``a`` are linked.  Row ``i``
    scans each group from the first later slot up to the first linked slot
    or the best found so far, so the earliest slot wins (axis 0 on a tie,
    which only identical boxes make).  Rows before ``i`` have no mergeable
    pair and a merge changes only the pairs of the new box, so until no
    earlier row merges with it, the next step pairs it with the earliest.
    """
    slots: list[_Box | None] = [r for r in boxes if all(s.first <= s.last for s in r)]
    if len(slots) < 2:
        return tuple(slots)
    # Live slots by axis and coface, ascending; each slot keeps its groups,
    # so cofaces are hashed only when a box is placed.
    groups: dict[tuple[int, _Box], list[int]] = {}

    def place(k: int, r: _Box) -> list[list[int]]:
        own = [groups.setdefault((a, r[:a] + r[a + 1:]), []) for a in range(dim)]
        for g in own:
            insort(g, k)
        return own

    own = [place(k, r) for k, r in enumerate(slots)]

    def put(k: int, new: _Box | None) -> None:
        for g in own[k]:
            g.remove(k)
        slots[k] = new
        if new is not None:
            own[k] = place(k, new)

    def first_merge(k: int, lo: int, hi: int) -> tuple[int, _Box] | None:
        """The earliest slot in ``[lo, hi)`` that merges with slot ``k``,
        and the merged box."""
        box, linked = slots[k], _linked_1d
        best, axis = hi, 0
        for a, g in enumerate(own[k]):
            side = box[a]
            for pos in range(bisect_left(g, lo), len(g)):
                j = g[pos]
                if j >= best:
                    break
                if linked(side, slots[j][a]):
                    best, axis = j, a
                    break
        if best == hi:
            return None
        s, t = box[axis], slots[best][axis]
        return best, _with_side(box, axis, _Run(min(s.first, t.first), max(s.last, t.last)))

    # Row ``i`` empties only slots at or below ``i``, so slot ``i`` is live.
    for i in range(len(slots)):
        # The pair drops its earlier slot and keeps the merged box in the later.
        k, lo, hi = i, i + 1, len(slots)
        while (step := first_merge(k, lo, hi)) is not None:
            j, merged = step
            put(min(j, k), None)
            k = max(j, k)
            put(k, merged)
            lo, hi = 0, i
    return tuple(sorted((r for r in slots if r is not None), key=_order))


def _closure_meets(s: _Run, t: _Run) -> bool:
    """Whether the closure of the run ``s``, from the point cell of its low
    end to that of its high end, meets the run ``t``."""
    return s.first & -2 <= t.last and t.first <= s.last + (s.last & 1)


def _rects_linked(a: _Box, b: _Box) -> bool:
    """Whether the union of two non-empty boxes is connected: the closure of
    one meets the other, side by side."""
    return all(map(_closure_meets, a, b)) or all(map(_closure_meets, b, a))


def _linked_groups(boxes: Sequence[_Box]) -> list[list[_Box]]:
    """The boxes grouped by the transitive closure of linkage, each group in
    list order, the groups in the order of their sorted boxes."""
    uf = _UnionFind(len(boxes))
    active: list[tuple[int, int]] = []  # heap of (closure's last cell on axis 0, index)
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i][0].first):
        s = boxes[i][0]
        while active and active[0][0] < s.first & -2:
            heappop(active)
        for _, k in active:
            if _rects_linked(boxes[k], boxes[i]):
                uf.union(k, i)
        heappush(active, (s.last + (s.last & 1), i))
    groups: dict[int, list[_Box]] = {}
    for i, r in enumerate(boxes):
        groups.setdefault(uf.find(i), []).append(r)
    # Identical boxes are linked, so distinct groups have distinct least boxes.
    return sorted(groups.values(), key=lambda g: min(map(_order, g)))


def components(u: RectUnion) -> tuple[RectUnion, ...]:
    """Connected components, each as a rectangle union; empty boxes are
    dropped first, as :func:`rect_union` drops them."""
    grid = _grid_of(u)
    groups = _linked_groups([r for r in grid.boxes if all(s.first <= s.last for s in r)])
    return tuple(_normalized(u.dim, grid.tables, g) for g in groups)


@dataclass(frozen=True)
class ProjectionJudge:
    """Judged input map: projection of the domain onto one axis."""

    axis: int


def critical_values(u: RectUnion, axis: int) -> tuple[Fraction, ...]:
    """Interval endpoints of the union on the given axis, sorted."""
    if not 0 <= axis < u.dim:
        raise CheckerError(f"axis {axis} out of range")
    return _grid_of(u).tables[axis]


def fiber(u: RectUnion, pj: ProjectionJudge, t: Fraction) -> tuple[Interval, ...]:
    """The fiber of the projection at ``t`` as merged interval components: the other sides of
    the boxes over ``t``, merged on the grid.  On the line the fiber is the point itself (a
    degenerate interval) when it lies in the union."""
    t, axis = Fraction(t), pj.axis
    cell = 2 * _position(critical_values(u, axis), t, 2)
    grid = _grid_of(u)
    over = [r for r in grid.boxes if r[axis].first <= cell <= r[axis].last]
    if u.dim == 1:
        return (Interval(t, t),) if over else ()
    return tuple(map(partial(_interval, grid.values[1 - axis]),
                     _merge_runs(r[1 - axis] for r in over)))


def _width(crit: Sequence[Fraction], t: Fraction, pos: int) -> Fraction:
    """The default band width at ``t``, of rank ``pos``: half the distance to
    the nearest other critical value in ``crit``, or 1 when there is none."""
    below, above = (pos - 1) // 4, (pos + 4) // 4
    gaps = [t - crit[below]] if below >= 0 else []
    if above < len(crit):
        gaps.append(crit[above] - t)
    return min(gaps) / 2 if gaps else Fraction(1)


def _band(axis: int, boxes: Sequence[_Box], t: int) -> tuple[list[list[_Box]], list]:
    """The components of the strip of ``boxes`` over the open band of ranks
    ``(t - 1, t + 1)``, and the first piece of each one's fiber at ``t``,
    None where it misses the fiber.  The strip is normalized and every
    subset of a merge-free set is merge-free, so the components need no
    normalization of their own."""
    cell = 2 * t
    clipped = (_with_side(r, axis, _Run(max(r[axis].first, cell - 1), min(r[axis].last, cell + 1)))
               for r in boxes)
    groups = _linked_groups(_merge(2, clipped))
    pieces = [_merge_runs(r[1 - axis] for r in g if r[axis].first <= cell <= r[axis].last)
              for g in groups]
    return groups, [p[0] if p else None for p in pieces]


def _fiber_splits(boxes: Sequence[_Box], axis: int, t: int) -> bool:
    """Whether the fiber at the endpoint of rank ``t`` meets two components
    of the preimage of a band around it, given the plane boxes whose judged
    sides reach ``t``: whether some gap between consecutive fiber pieces
    (over cell ``2t``) is spanned by no piece just left or right of it whose
    closure meets both; see the candidate-abscissae fact."""
    cell, other = 2 * t, 1 - axis
    here = _merge_runs(r[other] for r in boxes if r[axis].first <= cell <= r[axis].last)
    if len(here) < 2:
        return False
    sides = [*_merge_runs(r[other] for r in boxes if r[axis].first < cell),
             *_merge_runs(r[other] for r in boxes if r[axis].last > cell)]
    return not all(any(_closure_meets(s, a) and _closure_meets(s, b) for s in sides)
                   for a, b in zip(here, here[1:]))


def _split(axis: int, boxes: Sequence[_Box],
           t: int) -> tuple[list[list[_Box]], Sequence[_Run | None]] | None:
    """The components of the preimage of the band around the rank ``t``,
    given the grid's plane boxes whose judged sides reach it, with the first
    fiber piece of each (None where it misses the fiber); None when the
    fiber does not split across them."""
    if t % 4 == 0:
        return _band(axis, boxes, t) if _fiber_splits(boxes, axis, t) else None
    # In a gap the band's preimage is the fiber times the band, one
    # component per fiber piece, each meeting the fiber.
    pieces = _merge_runs(r[1 - axis] for r in boxes)
    if len(pieces) < 2:
        return None
    band = _Run(2 * t - 1, 2 * t + 1)
    return [[(band, p) if axis == 0 else (p, band)] for p in pieces], pieces


@dataclass(frozen=True)
class RobustDisconnectionCertificate:
    """Witness that the fiber at ``t0`` is robustly disconnected.

    ``components`` are all components of the preimage of the open band
    ``(n_lo, n_hi)``; ``fiber_points`` marks a rational fiber point inside
    each component that meets the fiber (None otherwise); ``v_index`` is the
    first fiber-meeting component, the remaining ones forming the other side
    of the disconnection.
    """

    t0: Fraction
    n_lo: Fraction
    n_hi: Fraction
    components: tuple[RectUnion, ...]
    fiber_points: tuple[Point | None, ...]
    v_index: int


def _point(memo: dict[_Run, Fraction], values: Mapping[int, Fraction], s: _Run) -> Fraction:
    """The representative of the run ``s`` read through ``values`` (its end
    if it is one point, else the middle of its ends), kept in ``memo``."""
    x = memo.get(s)
    if x is None:
        lo, hi = s.lo, s.hi
        x = memo[s] = values[lo] if lo == hi else (values[lo] + values[hi]) / 2
    return x


def robustly_disconnected(u: RectUnion, pj: ProjectionJudge,
                          t0: Fraction) -> RobustDisconnectionCertificate | None:
    """Certificate that the fiber at ``t0`` splits across the components of
    the preimage of the open band ``(t0 - d, t0 + d)``, or None when it does
    not.  The width ``d`` is half the distance to the nearest interval
    endpoint on the judged axis other than ``t0``; every narrower band gives
    the same answer."""
    t0 = Fraction(t0)
    crit = critical_values(u, pj.axis)
    if u.dim == 1:
        # On the line a fiber is at most one point.
        return None
    grid, pos, axis = _grid_of(u), _position(crit, t0, 2), pj.axis
    return _certify(grid, axis, [r for r in grid.boxes if r[axis].lo <= pos <= r[axis].hi], pos, t0)


def _certify(grid: _Grid, axis: int, near: Sequence[_Box], pos: int,
             t0: Fraction) -> RobustDisconnectionCertificate | None:
    """The certificate of the band around ``t0``, whose rank is ``pos``,
    given the grid's plane boxes whose judged sides span ``pos``, or None
    when the fiber does not split across them.  Only a certifying band is
    measured and mapped back to rationals."""
    split = _split(axis, near, pos)
    if split is None:
        return None
    groups, pieces = split
    delta = _width(grid.tables[axis], t0, pos)
    lo, hi = t0 - delta, t0 + delta
    # A certifying band's boxes have only these ranks on the judged axis.
    judged, other = {pos - 1: lo, pos: t0, pos + 1: hi}, grid.values[1 - axis]
    back = (judged, other) if axis == 0 else (other, judged)
    points = tuple(None if p is None else tuple(
        t0 if k == axis else _point(grid.points[k], other, p) for k in range(2)) for p in pieces)
    comps = tuple(RectUnion(2, _rects(g, back)) for g in groups)
    v_index = next(k for k, p in enumerate(points) if p is not None)
    return RobustDisconnectionCertificate(t0, lo, hi, comps, points, v_index)


@dataclass(frozen=True)
class SheafVerdict:
    is_sheaf: bool
    candidates: tuple[Fraction, ...]
    certificates: tuple[RobustDisconnectionCertificate, ...]
    notes: tuple[str, ...]


def sheaf_verdict(u: RectUnion, pj: ProjectionJudge) -> SheafVerdict:
    """Decide whether stateless explanations over this domain glue globally.

    Gluing over every covering holds exactly when no fiber of the projection
    is robustly disconnected; by piecewise constancy it suffices to examine
    the interval endpoints on the judged axis and one midpoint per gap.
    """
    crit = critical_values(u, pj.axis)
    # The endpoints and the gap midpoints in increasing order.
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    candidates = [*(t for pair in zip(crit, mids) for t in pair), *crit[-1:]]
    notes: list[str] = []
    if any(s.lo_open or s.hi_open for r in u.rects for s in r):
        notes.append("domain has open edges: the compactness hypothesis of the "
                     "characterization was not verified")
    notes.append("output side assumed connected with at least two values; the verdict "
                 "covers the topological condition only")
    if u.dim == 1:
        # On the line a fiber is at most one point, so none splits.
        return SheafVerdict(True, tuple(candidates), (), tuple(notes))
    axis, grid = pj.axis, _grid_of(u)
    # Candidate ``k`` has the rank ``2k``; a box reaches the bands of the
    # candidates whose ranks its judged side spans.
    reach: list[list[_Box]] = [[] for _ in candidates]
    for r in grid.boxes:
        for k in range(r[axis].lo >> 1, (r[axis].hi >> 1) + 1):
            reach[k].append(r)
    certs = [c for k, (near, t) in enumerate(zip(reach, candidates))
             if (c := _certify(grid, axis, near, 2 * k, t)) is not None]
    return SheafVerdict(not certs, tuple(candidates), tuple(certs), tuple(notes))


@dataclass(frozen=True)
class TameCounterexample:
    """Finite two-patch covering realizing a robust disconnection.

    ``system`` is a single-state machine whose inputs sample the domain:
    one marked fiber point in the first fiber-meeting band component, one in
    the second side, and one interior point per box of the off-band region.
    The judge sends each sample to its judged-axis coordinate.  The two
    patches (each side of the disconnection plus the whole off-band region)
    admit forced stateless explanations that agree on their overlap yet
    conflict at the fiber's judged value.
    """

    system: MealySystem
    judge: Judge
    covering: Covering
    assignments: tuple[tuple[tuple[str, str], ...], ...]
    samples: tuple[tuple[str, Point], ...]
    obstruction: ObstructionReport


def _position(table: Sequence[Fraction], x: Fraction, back: int) -> int:
    """The rank of ``x`` on a grid axis with the values ``table``: ``4i`` at
    ``table[i]``, else ``4i - back`` in the gap below it, where ``back``
    from 1 to 3 orders points within one gap."""
    i = bisect_left(table, x)
    return 4 * i if i < len(table) and table[i] == x else 4 * i - back


def two_patch_counterexample(u: RectUnion, pj: ProjectionJudge,
                             cert: RobustDisconnectionCertificate) -> TameCounterexample:
    axis, grid = pj.axis, _grid_of(u)
    delta = (cert.n_hi - cert.n_lo) / 2
    inner = (cert.t0 - delta / 2, cert.t0 + delta / 2)
    # Remove the closed band between the cuts on runs: each cut has a rank
    # of its own, the low one below the high one when both fall in one gap,
    # and each side keeps its cells below the low cut and above the high one.
    lo, hi = map(_position, repeat(grid.tables[axis]), inner, (3, 1))
    off_band = [_with_side(r, axis, piece) for r in grid.boxes
                for piece in (_Run(r[axis].first, min(r[axis].last, 2 * lo - 1)),
                              _Run(max(r[axis].first, 2 * hi + 1), r[axis].last))
                if piece.first <= piece.last]
    # The cuts' values, and representatives kept for this call alone.
    values, memos = [*grid.values], [*grid.points]
    values[axis], memos[axis] = {**values[axis], lo: inner[0], hi: inner[1]}, {}
    w = next(p for k, p in enumerate(cert.fiber_points) if p is not None and k != cert.v_index)
    samples: list[tuple[str, Point]] = [("v", cert.fiber_points[cert.v_index]), ("w", w)]
    samples += [(f"c{k}", tuple(map(_point, memos, values, r)))
                for k, r in enumerate(_merge(u.dim, off_band))]
    # Sanity: every sample, placed on the grid by bisecting its value (each
    # value once per axis), lies in a box starting at or before it on axis 0.
    place = [cache(partial(_position, t, back=2)) for t in grid.tables]
    boxes = sorted(grid.boxes, key=lambda r: r[0].first)
    firsts = [r[0].first for r in boxes]
    for name, p in samples:
        q = [2 * f(x) for f, x in zip(place, p)]
        if not any(all(s.first <= c <= s.last for s, c in zip(r, q))
                   for r in reversed(boxes[:bisect_right(firsts, q[0])])):
            raise InternalConsistencyError(f"sample {name} fell outside the domain")
    letters = finset(name for name, _ in samples)
    system = _table_system(["s"], letters, ("0", "1"), [[(0, int(c == "w")) for c in letters]])[0]
    jdg = make_judge({name: str(p[axis]) for name, p in samples}, {"0": "0", "1": "1"})
    c_names = [name for name, _ in samples if name.startswith("c")]
    cov = covering(system, [subsystem(system, inputs=sorted([side, *c_names])) for side in "vw"])
    # The covering is built to be unglueable, so a patch without its forced
    # explanation, or a family that glues, is a bug.
    try:
        res = glue_stateless(cov, jdg)
    except IncompatibleFamily as exc:
        raise InternalConsistencyError(f"witness covering lost its forced family: {exc}") from exc
    if res.ok:
        raise InternalConsistencyError("witness covering unexpectedly glues")
    return TameCounterexample(system, jdg, cov, res.patch_assignments, tuple(samples),
                              res.obstruction)


SIDE_KEYS = ("x", "y")
"""The JSON key of each side of a box, by axis."""


def union_from_payload(payload: Mapping) -> tuple[RectUnion, ProjectionJudge]:
    """Build a domain and projection from the JSON shape used by fixtures:
    ``{"dim": 2, "axis": 0, "rects": [{"x": ["0","1"], "y": ["0","1/2"],
    "open": [left, right, bottom, top]}, ...]}``.  A missing field, a value
    of the wrong type, an endpoint that is not a finite rational (a boolean
    is none), or an ``open`` list of the wrong length or holding a flag that
    is no boolean raises :class:`MalformedDocument`; a dimension other than
    1 or 2, or an axis outside ``[0, dim)``, raises :class:`CheckerError`.
    Each distinct spelling of an endpoint is parsed once."""
    if "dim" not in payload or "rects" not in payload:
        raise MalformedDocument("a rectangle union needs the fields dim and rects")
    dim, axis = _integer(payload, "dim"), _integer(payload, "axis", 0)
    if not isinstance(payload["rects"], list):
        raise MalformedDocument("rects must be a list of rectangles")
    if not 1 <= dim <= len(SIDE_KEYS):
        raise CheckerError("only dimensions 1 and 2 are supported")
    if not 0 <= axis < dim:
        raise CheckerError(f"axis {axis} out of range")
    rects: list[Rect] = []
    value: dict = {}
    for k, row in enumerate(payload["rects"]):
        if not isinstance(row, Mapping):
            raise MalformedDocument(f"rectangle {k} must be an object")
        flags = row.get("open", [False] * (2 * dim))
        if not isinstance(flags, (list, tuple)) or len(flags) != 2 * dim:
            raise MalformedDocument(f"rectangle {k}: open needs {2 * dim} flags")
        if not all(isinstance(f, bool) for f in flags):
            raise MalformedDocument(f"rectangle {k}: open flags must be booleans, got {flags!r}")
        rects.append(Rect.of(_side(row, k, key, flags[2 * a:2 * a + 2], value)
                             for a, key in enumerate(SIDE_KEYS[:dim])))
    return _normalized(dim, *_rank_grid(dim, rects, value)), ProjectionJudge(axis)


def _integer(payload: Mapping, key: str, default: int | None = None) -> int:
    """``payload[key]``, or ``default`` when absent, if it is a JSON integer:
    a float, string or boolean is refused, not truncated or coerced."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedDocument(f"{key} must be an integer, got {value!r}")
    return value


def _side(row: Mapping, k: int, key: str, flags: Sequence, value: dict) -> Interval:
    """The interval ``row[key]`` of rectangle ``k``, its endpoints as spelled,
    with its open flags; ``value`` gains the number of each new spelling."""
    ends = row.get(key)
    if not isinstance(ends, (list, tuple)) or len(ends) != 2:
        raise MalformedDocument(f"rectangle {k}: {key} needs two endpoints")
    bad = f"rectangle {k}: {key} endpoints must be finite rationals, got {ends!r}"
    if any(isinstance(v, bool) for v in ends):
        raise MalformedDocument(bad)
    try:
        for v in ends:
            if v not in value:
                value[v] = Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedDocument(bad) from exc
    return Interval(ends[0], ends[1], flags[0], flags[1])

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
  meets it; so the fiber splits exactly when its pieces, joined through
  side pieces, fall into two or more classes.  Only such a band is
  clipped, normalized and linked, to build the components of its
  certificate.  The same fact decides the equality of two unions from
  their fibers at those points.

* Order, not values.  Normalization (``rect_union``, ``_try_merge``,
  ``merge_intervals``), linkage (``_linked_1d``, ``_closure_meets``),
  clipping and membership (``Interval.intersect``, ``empty`` and
  ``contains``) and the sort of boxes as tuples only compare endpoints;
  none of them does arithmetic on one.  So each commutes with any strictly
  increasing relabelling of the coordinates: the same merges happen in the
  same order, with the same coface grouping and the same sorted output.
  ``sheaf_verdict`` examines every candidate, so it sorts each axis's
  endpoints once, together with every candidate and both ends of its band
  on the judged axis, replaces every endpoint by its rank, and decides
  every candidate and builds the components of every certifying band on
  integers.  Components are mapped back to rationals only when their
  candidate certifies, before ``representative`` (the one piece of
  arithmetic) picks their fiber points.  A single abscissa
  (``preimage_components_near``) has nothing to share, so the same band
  routine runs on its rationals directly, with the same result.

Linkage is found by a sweep along axis 0: closures of two sides meet only
if neither side ends before the other begins, so each box, taken in order
of its low endpoint, is tested only against the earlier boxes whose high
endpoint is not below that low endpoint.

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
from heapq import heappop, heappush
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .errors import CheckerError, InternalConsistencyError, MalformedDocument
from .explain import Judge, judge as make_judge
from .localglobal import ObstructionReport, _unglueable_stateless
from .systems import Covering, MealySystem, _UnionFind, covering, make_system, subsystem

Point = tuple[Fraction, ...]


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if self.lo_open and x == self.lo:
            return False
        if self.hi_open and x == self.hi:
            return False
        return True

    def intersect(self, other: Interval) -> Interval:
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def closure(self) -> Interval:
        return Interval(self.lo, self.hi, False, False)

    def representative(self) -> Fraction:
        """A rational point inside a non-empty interval."""
        if self.empty:
            raise CheckerError("empty interval has no representative")
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2


def interval(lo: Fraction | int | str, hi: Fraction | int | str,
             lo_open: bool = False, hi_open: bool = False) -> Interval:
    return Interval(Fraction(lo), Fraction(hi), lo_open, hi_open)


def _linked_1d(a: Interval, b: Interval) -> bool:
    """Union of two non-empty intervals is an interval: the closure of one
    meets the other."""
    return _closure_meets(a, b) or _closure_meets(b, a)


def merge_intervals(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    """Maximal connected components of a finite union of intervals.

    The sweep takes a closed start before an open one at the same point:
    ``[4,7)`` joins ``[3,4)`` to ``(4,6]``, so it must come first."""
    todo = sorted((p for p in parts if not p.empty), key=lambda p: (p.lo, p.lo_open))
    out: list[Interval] = []
    for iv in todo:
        if out and _linked_1d(out[-1], iv):
            last = out.pop()
            if iv.hi > last.hi or (iv.hi == last.hi and not iv.hi_open):
                hi, hi_open = iv.hi, iv.hi_open
            else:
                hi, hi_open = last.hi, last.hi_open
            out.append(Interval(last.lo, hi, last.lo_open, hi_open))
        else:
            out.append(iv)
    return tuple(out)


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

    def axis(self, k: int) -> Interval:
        if not 0 <= k < len(self):
            raise CheckerError(f"axis {k} out of range")
        return self[k]

    def coface(self, k: int) -> tuple[Interval, ...]:
        """The sides left when axis ``k`` is dropped."""
        return self[:k] + self[k + 1:]

    def with_side(self, k: int, side: Interval) -> Rect:
        return Rect.of((*self[:k], side, *self[k + 1:]))

    def contains(self, p: Point) -> bool:
        return len(p) == len(self) and all(map(Interval.contains, self, p))


@dataclass(frozen=True)
class RectUnion:
    dim: int
    rects: tuple[Rect, ...]

    def contains(self, p: Point) -> bool:
        return any(map(Rect.contains, self.rects, repeat(p)))

    @property
    def empty(self) -> bool:
        return not self.rects


def _try_merge(a: Rect, b: Rect) -> Rect | None:
    """The box ``a | b`` when the two agree on every side but one and are
    linked on that one (the earliest such axis), else None."""
    for k, (s, t) in enumerate(zip(a, b)):
        if a.coface(k) == b.coface(k) and _linked_1d(s, t):
            return a.with_side(k, merge_intervals([s, t])[0])
    return None


def rect_union(dim: int, rects: Iterable[Rect]) -> RectUnion:
    """Normalize: drop empty boxes, merge aligned neighbours, sort.

    Merging repeats one step until no pair merges: take the first mergeable
    pair ``(a, k)`` in list order, put the merged box at ``k`` and drop
    ``a``.  The steps are replayed here without rescanning.  Boxes keep
    their slots, and a pair merges only if it shares a coface (the sides
    left when one axis is dropped; in dimension 1 every pair shares the
    empty one), so row ``i`` tries only the later slots indexed under its
    cofaces.  Rows before ``i`` have no mergeable pair, and a merge changes
    only the pairs of the new box, so until no earlier row merges with it
    the next step pairs it with the earliest such row.
    """
    if dim not in (1, 2):
        raise CheckerError("only dimensions 1 and 2 are supported")
    slots: list[Rect | None] = [r for r in rects if not r.empty]
    if any(len(r) != dim for r in slots):
        raise CheckerError(f"{dim}-dimensional unions need {dim} sides per box")
    if len(slots) < 2:
        return RectUnion(dim, tuple(slots))
    # Live slots by axis and coface, ascending; each slot keeps its groups,
    # so cofaces are hashed only when a box is placed.
    groups: dict[tuple[int, tuple[Interval, ...]], list[int]] = {}

    def place(k: int, r: Rect) -> list[list[int]]:
        own = [groups.setdefault((a, r.coface(a)), []) for a in range(dim)]
        for g in own:
            insort(g, k)
        return own

    own = [place(k, r) for k, r in enumerate(slots)]

    def sharing(k: int) -> list[int]:
        """Live slots sharing a coface with slot ``k``, ascending."""
        return sorted(set().union(*own[k]))

    def put(k: int, new: Rect | None) -> None:
        for g in own[k]:
            g.remove(k)
        slots[k] = new
        if new is not None:
            own[k] = place(k, new)

    def first_merge(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, Rect] | None:
        for a, k in pairs:
            merged = _try_merge(slots[a], slots[k])
            if merged is not None:
                return a, k, merged
        return None

    for i, row in enumerate(slots):
        if row is None:
            continue
        step = first_merge((i, k) for k in sharing(i) if k > i)
        while step is not None:
            a, k, merged = step
            put(a, None)
            put(k, merged)
            step = first_merge((j, k) for j in sharing(k) if j < i)
    return RectUnion(dim, tuple(sorted(r for r in slots if r is not None)))


def _closure_meets(s: Interval, t: Interval) -> bool:
    """Whether the closure of ``s`` meets ``t``: ``cl(s) & t`` without
    building it."""
    lo, lo_open = (t.lo, t.lo_open) if t.lo >= s.lo else (s.lo, False)
    hi, hi_open = (t.hi, t.hi_open) if t.hi <= s.hi else (s.hi, False)
    return lo < hi or (lo == hi and not (lo_open or hi_open))


def _rects_linked(a: Rect, b: Rect) -> bool:
    """Whether the union of two non-empty boxes is connected: the closure of
    one meets the other, side by side."""
    return all(map(_closure_meets, a, b)) or all(map(_closure_meets, b, a))


def _linked_groups(rects: Sequence[Rect]) -> list[list[Rect]]:
    """The boxes grouped by the transitive closure of linkage, each group in
    list order, the groups in the order of their sorted boxes."""
    uf = _UnionFind(len(rects))
    active: list[tuple[Fraction, int]] = []  # heap of (high end on axis 0, index)
    for i in sorted(range(len(rects)), key=lambda i: rects[i][0].lo):
        lo = rects[i][0].lo
        while active and active[0][0] < lo:
            heappop(active)
        for _, k in active:
            if _rects_linked(rects[k], rects[i]):
                uf.union(k, i)
        heappush(active, (rects[i][0].hi, i))
    groups: dict[int, list[Rect]] = {}
    for i, r in enumerate(rects):
        groups.setdefault(uf.find(i), []).append(r)
    return sorted(groups.values(), key=sorted)


def components(u: RectUnion) -> tuple[RectUnion, ...]:
    """Connected components, each as a rectangle union; empty boxes are
    dropped first, as :func:`rect_union` drops them."""
    boxes = [r for r in u.rects if not r.empty]
    return tuple(rect_union(u.dim, g) for g in _linked_groups(boxes))


@dataclass(frozen=True)
class ProjectionJudge:
    """Judged input map: projection of the domain onto one axis."""

    axis: int


def critical_values(u: RectUnion, axis: int) -> tuple[Fraction, ...]:
    """Interval endpoints of the union on the given axis, sorted."""
    if not 0 <= axis < u.dim:
        raise CheckerError(f"axis {axis} out of range")
    vals: set[Fraction] = set()
    for r in u.rects:
        iv = r.axis(axis)
        vals.add(iv.lo)
        vals.add(iv.hi)
    return tuple(sorted(vals))


def fiber(u: RectUnion, pj: ProjectionJudge, t: Fraction) -> tuple[Interval, ...]:
    """The fiber of the projection at ``t`` as merged interval components:
    the cofaces of the boxes over ``t``.  A box in the plane has one side in
    its coface; on the line the coface is empty and the fiber is the point
    itself (a degenerate interval) when it lies in the union.
    """
    t = Fraction(t)
    if not 0 <= pj.axis < u.dim:
        raise CheckerError(f"axis {pj.axis} out of range")
    point = (Interval(t, t),)
    return merge_intervals(
        (r.coface(pj.axis) or point)[0] for r in u.rects if r[pj.axis].contains(t)
    )


def _clip_axis(r: Rect, axis: int, band: Interval) -> Rect | None:
    iv = r.axis(axis).intersect(band)
    return None if iv.empty else r.with_side(axis, iv)


def clip_band(u: RectUnion, axis: int, band: Interval) -> RectUnion:
    kept = [c for c in (_clip_axis(r, axis, band) for r in u.rects) if c is not None]
    return rect_union(u.dim, kept)


def subtract_closed_band(u: RectUnion, axis: int, lo: Fraction, hi: Fraction) -> RectUnion:
    """Remove ``axis-coordinate in [lo, hi]`` from the union; the cut edges
    of the remainder are open because the removed band is closed."""
    out: list[Rect] = []
    for r in u.rects:
        iv = r.axis(axis)
        left = iv.intersect(Interval(iv.lo, lo, iv.lo_open, True))
        right = iv.intersect(Interval(hi, iv.hi, True, iv.hi_open))
        out.extend(r.with_side(axis, piece) for piece in (left, right) if not piece.empty)
    return rect_union(u.dim, out)


@dataclass(frozen=True)
class StripComponents:
    t0: Fraction
    delta: Fraction
    strip: RectUnion
    components: tuple[RectUnion, ...]
    meets_fiber: tuple[bool, ...]


def _width(crit: Sequence[Fraction], t: Fraction) -> Fraction:
    """The default band width at ``t``: half the distance to the nearest
    critical value other than ``t`` in the sorted ``crit``, or 1 when there
    is none."""
    k = bisect_left(crit, t)
    after = k + (k < len(crit) and crit[k] == t)
    gaps = [t - crit[k - 1]] if k else []
    if after < len(crit):
        gaps.append(crit[after] - t)
    return min(gaps) / 2 if gaps else Fraction(1)


def preimage_components_near(
    u: RectUnion,
    pj: ProjectionJudge,
    t0: Fraction,
    delta: Fraction | None = None,
) -> StripComponents:
    """Components of the preimage of the open band ``(t0 - d, t0 + d)``.

    The band must avoid every interval endpoint of the union on the judged
    axis other than ``t0`` itself; the default ``d`` is half the distance to
    the nearest such endpoint.  On each open gap between endpoints the answer
    is the same for every admissible ``d``, which the test suite exercises by
    comparing two widths.
    """
    t0 = Fraction(t0)
    if delta is None:
        delta = _width(critical_values(u, pj.axis), t0)
    else:
        delta = Fraction(delta)
        if delta <= 0:
            raise CheckerError("the band width must be positive")
        for v in critical_values(u, pj.axis):
            if v != t0 and abs(v - t0) <= delta:
                raise CheckerError(
                    f"band width {delta} reaches the critical abscissa {v}"
                )
    strip, groups, marks = _band(u.dim, pj.axis, u.rects, t0 - delta, t0, t0 + delta)
    comps = tuple(RectUnion(u.dim, tuple(g)) for g in groups)
    return StripComponents(t0, delta, strip, comps, tuple(marks))


def _ranks(
    u: RectUnion, axis: int, extra: Iterable[Fraction]
) -> tuple[list[list[Fraction]], list[dict[Fraction, int]]]:
    """Each axis's endpoints in increasing order, with ``extra`` on the
    judged axis, and the rank of each endpoint on its axis."""
    ends = [{e for r in u.rects for e in (r[k].lo, r[k].hi)} for k in range(u.dim)]
    ends[axis].update(extra)
    values = [sorted(vs) for vs in ends]
    return values, [{v: i for i, v in enumerate(vs)} for vs in values]


def _relabel(rects: Iterable[Rect], tables: Sequence[Mapping | Sequence]) -> tuple[Rect, ...]:
    """Each box with every endpoint ``e`` of its side on axis ``k`` replaced
    by ``tables[k][e]``: ranks for endpoints, or endpoints for ranks."""
    return tuple(
        Rect.of(Interval(m[s.lo], m[s.hi], s.lo_open, s.hi_open) for m, s in zip(tables, r))
        for r in rects
    )


def _band(
    dim: int, axis: int, boxes: Sequence[Rect], lo: Fraction, t: Fraction, hi: Fraction
) -> tuple[RectUnion, list[list[Rect]], list[bool]]:
    """The strip of ``boxes`` over the open band ``(lo, hi)``, its
    components, and whether each meets the fiber at ``t``.  The strip is
    normalized and every subset of a merge-free set is merge-free, so the
    components need no normalization of their own.  Only order matters
    here, so the endpoints may be rationals or their ranks."""
    strip = clip_band(RectUnion(dim, tuple(boxes)), axis, Interval(lo, hi, True, True))
    groups = _linked_groups(strip.rects)
    return strip, groups, [any(r[axis].contains(t) for r in g) for g in groups]


def _fiber_splits(boxes: Sequence[Rect], axis: int, t: Fraction) -> bool:
    """Whether the fiber at the endpoint ``t`` meets two components of the
    preimage of a band around it, given the plane boxes whose judged sides
    reach ``t``: whether the fiber's pieces, joined through each piece just
    left of ``t`` (sides starting before it) or just right of it (sides
    ending after it) whose closure meets them, fall into two or more
    classes.  The module docstring's candidate-abscissae fact shows why."""
    here = merge_intervals(r[1 - axis] for r in boxes if r[axis].contains(t))
    if len(here) < 2:
        return False
    left = merge_intervals(r[1 - axis] for r in boxes if r[axis].lo < t)
    right = merge_intervals(r[1 - axis] for r in boxes if r[axis].hi > t)
    uf = _UnionFind(len(here))
    for piece in left + right:
        met = [j for j, h in enumerate(here) if _closure_meets(piece, h)]
        for j in met[1:]:
            uf.union(met[0], j)
    return len({uf.find(j) for j in range(len(here))}) > 1


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


def _fiber_point(comp: RectUnion, pj: ProjectionJudge, t0: Fraction) -> Point | None:
    pieces = fiber(comp, pj, t0)
    if not pieces:
        return None
    other = pieces[0].representative()
    return tuple(t0 if k == pj.axis else other for k in range(comp.dim))


def robustly_disconnected(
    u: RectUnion,
    pj: ProjectionJudge,
    t0: Fraction,
    delta: Fraction | None = None,
) -> RobustDisconnectionCertificate | None:
    """Certificate that the fiber at ``t0`` splits across band components,
    or None when every admissible band keeps it inside one component."""
    sc = preimage_components_near(u, pj, t0, delta)
    if sum(sc.meets_fiber) < 2:
        return None
    return _certificate(sc.t0, sc.delta, sc.components, sc.meets_fiber, pj)


def _certificate(t0: Fraction, delta: Fraction, comps: tuple[RectUnion, ...],
                 marks: Sequence[bool], pj: ProjectionJudge) -> RobustDisconnectionCertificate:
    """The certificate of a band whose components meet the fiber at least
    twice."""
    points = tuple(_fiber_point(comp, pj, t0) for comp in comps)
    return RobustDisconnectionCertificate(
        t0, t0 - delta, t0 + delta, comps, points, marks.index(True)
    )


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
    # The endpoints and the gap midpoints in increasing order, each with the
    # default band width.
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    candidates = [*(t for pair in zip(crit, mids) for t in pair), *crit[-1:]]
    widths = [_width(crit, t) for t in candidates]
    ends = [(t - d, t + d) for t, d in zip(candidates, widths)]
    values, ranks = _ranks(u, pj.axis, [*candidates, *(e for pair in ends for e in pair)])
    at = ranks[pj.axis]
    # A box clips to nothing in the bands of candidates outside its extent.
    position = {at[t]: k for k, t in enumerate(candidates)}
    reach: list[list[Rect]] = [[] for _ in candidates]
    for r in _relabel(u.rects, ranks):
        iv = r[pj.axis]
        for k in range(position[iv.lo], position[iv.hi] + 1):
            reach[k].append(r)
    certs = []
    # On the line a fiber is at most one point, so no candidate certifies.
    bands = zip(candidates, widths, ends, reach) if u.dim == 2 else ()
    for k, (t, delta, (lo, hi), boxes) in enumerate(bands):
        if k % 2:
            # A gap: the band's preimage is the fiber times the band, one
            # component per fiber piece, each meeting the fiber.
            pieces = merge_intervals(r[1 - pj.axis] for r in boxes)
            if len(pieces) < 2:
                continue
            band = Interval(at[lo], at[hi], True, True)
            groups = [[Rect.of((band, p) if pj.axis == 0 else (p, band))] for p in pieces]
            marks = [True] * len(pieces)
        elif _fiber_splits(boxes, pj.axis, at[t]):
            _, groups, marks = _band(u.dim, pj.axis, boxes, at[lo], at[t], at[hi])
        else:
            continue
        comps = tuple(RectUnion(u.dim, _relabel(g, values)) for g in groups)
        certs.append(_certificate(t, delta, comps, marks, pj))
    notes: list[str] = []
    if any(s.lo_open or s.hi_open for r in u.rects for s in r):
        notes.append(
            "domain has open edges: the compactness hypothesis of the "
            "characterization was not verified"
        )
    notes.append(
        "output side assumed connected with at least two values; the verdict "
        "covers the topological condition only"
    )
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


def two_patch_counterexample(
    u: RectUnion,
    pj: ProjectionJudge,
    cert: RobustDisconnectionCertificate,
) -> TameCounterexample:
    delta = (cert.n_hi - cert.n_lo) / 2
    inner_lo = cert.t0 - delta / 2
    inner_hi = cert.t0 + delta / 2
    off_band = subtract_closed_band(u, pj.axis, inner_lo, inner_hi)
    v_point = cert.fiber_points[cert.v_index]
    w_index = next(
        k
        for k, p in enumerate(cert.fiber_points)
        if p is not None and k != cert.v_index
    )
    w_point = cert.fiber_points[w_index]
    samples: list[tuple[str, Point]] = [("v", v_point), ("w", w_point)]
    for k, r in enumerate(off_band.rects):
        samples.append((f"c{k}", tuple(s.representative() for s in r)))
    # Sanity: every sample lies in the domain.  Only boxes whose low end on
    # axis 0 is at most the sample's can hold it; the nearest are tried first.
    boxes = sorted(u.rects, key=lambda r: r[0].lo)
    lows = [r[0].lo for r in boxes]
    for name, p in samples:
        if not any(map(Rect.contains, reversed(boxes[:bisect_right(lows, p[0])]), repeat(p))):
            raise InternalConsistencyError(f"sample {name} fell outside the domain")
    i_map = {name: str(p[pj.axis]) for name, p in samples}
    o_map = {"0": "0", "1": "1"}
    dyn = {
        ("s", name): ("s", "1" if name == "w" else "0")
        for name, _ in samples
    }
    system = make_system(["s"], ["s"], [name for name, _ in samples], ["0", "1"], dyn)
    jdg = make_judge(i_map, o_map)
    c_names = [name for name, _ in samples if name.startswith("c")]
    patch1 = subsystem(system, inputs=sorted(["v", *c_names]))
    patch2 = subsystem(system, inputs=sorted(["w", *c_names]))
    cov = covering(system, [patch1, patch2])
    assignments, obstruction = _unglueable_stateless(cov, jdg)
    return TameCounterexample(system, jdg, cov, assignments, tuple(samples), obstruction)


def regions_equal(u1: RectUnion, u2: RectUnion) -> bool:
    """Exact set equality of two rectangle unions: their fibers over axis 0
    agree at every endpoint on that axis and at the midpoint of each gap,
    the candidate abscissae of both."""
    if u1.dim != u2.dim:
        return False
    xs = sorted(set(critical_values(u1, 0)).union(critical_values(u2, 0)))
    pj = ProjectionJudge(0)
    ts = [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:]))]
    return all(fiber(u1, pj, t) == fiber(u2, pj, t) for t in ts)


def disjoint(u1: RectUnion, u2: RectUnion) -> bool:
    """Whether two rectangle unions share no point."""
    return not any(
        all(not s.intersect(t).empty for s, t in zip(a, b))
        for a in u1.rects
        for b in u2.rects
    )


SIDE_KEYS = ("x", "y")
"""The JSON key of each side of a box, by axis."""


def union_from_payload(payload: Mapping) -> tuple[RectUnion, ProjectionJudge]:
    """Build a domain and projection from the JSON shape used by fixtures:
    ``{"dim": 2, "axis": 0, "rects": [{"x": ["0","1"], "y": ["0","1/2"],
    "open": [left, right, bottom, top]}, ...]}``.  A missing field, a value
    of the wrong type, an endpoint that is not a finite rational (a boolean
    is none), or an ``open`` list of the wrong length or holding a flag that
    is no boolean raises :class:`MalformedDocument`; a
    dimension other than 1 or 2, or an axis outside ``[0, dim)``, raises
    :class:`CheckerError`."""
    if "dim" not in payload or "rects" not in payload:
        raise MalformedDocument("a rectangle union needs the fields dim and rects")
    dim, axis = _integer(payload, "dim"), _integer(payload, "axis", 0)
    if not isinstance(payload["rects"], list):
        raise MalformedDocument("rects must be a list of rectangles")
    if not 1 <= dim <= len(SIDE_KEYS):
        raise CheckerError("only dimensions 1 and 2 are supported")
    if not 0 <= axis < dim:
        raise CheckerError(f"axis {axis} out of range")
    rects = []
    for k, row in enumerate(payload["rects"]):
        if not isinstance(row, Mapping):
            raise MalformedDocument(f"rectangle {k} must be an object")
        flags = row.get("open", [False] * (2 * dim))
        if not isinstance(flags, (list, tuple)) or len(flags) != 2 * dim:
            raise MalformedDocument(f"rectangle {k}: open needs {2 * dim} flags")
        if not all(isinstance(f, bool) for f in flags):
            raise MalformedDocument(f"rectangle {k}: open flags must be booleans, got {flags!r}")
        rects.append(Rect.of(_side(row, k, key, flags[2 * a:2 * a + 2])
                             for a, key in enumerate(SIDE_KEYS[:dim])))
    return rect_union(dim, rects), ProjectionJudge(axis)


def _integer(payload: Mapping, key: str, default: int | None = None) -> int:
    """``payload[key]``, or ``default`` when absent, if it is a JSON integer:
    a float, string or boolean is refused, not truncated or coerced."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedDocument(f"{key} must be an integer, got {value!r}")
    return value


def _side(row: Mapping, k: int, key: str, flags: Sequence) -> Interval:
    """The interval ``row[key]`` of rectangle ``k`` with its open flags."""
    if not isinstance(row.get(key), (list, tuple)) or len(row[key]) != 2:
        raise MalformedDocument(f"rectangle {k}: {key} needs two endpoints")
    bad = f"rectangle {k}: {key} endpoints must be finite rationals, got {row[key]!r}"
    if any(isinstance(v, bool) for v in row[key]):
        raise MalformedDocument(bad)
    try:
        lo, hi = (Fraction(v) for v in row[key])
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedDocument(bad) from exc
    return Interval(lo, hi, flags[0], flags[1])

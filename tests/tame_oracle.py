"""Reference versions of the tame layer's normalization and verdict.

``rect_union`` is the plain merge loop: it restarts its pair scan from the
first row after every merge, so it is cubic, but the order of its merges is
plain to read.  ``sheaf_verdict`` examines each candidate abscissa on its
own: the band width from all critical values, every box clipped to the band,
the strip normalized by the loop here.  ``two_patch_counterexample`` cuts
the closed band out of the union and picks its samples on rationals.  The
library replays the same merges without rescanning, works through the
candidates in one pass and cuts on the ranks of the endpoints; the
differential suite holds it to these results.

The box helpers here (merging, linkage, clipping, fibers, fiber points,
region equality and disjointness) are written per dimension, reading a
box's ``x`` and ``y`` sides by name, so that they stay independent of the
library's versions, which work on cell runs over the sides of a box in any
order.  Intervals are merged by membership on the grid of atoms, not by
the library's sweep.  The side and box predicates (``contains``,
``intersect``, ``representative``, ``coface``, ``with_side``,
``rect_contains``) work on rationals and live only here; the library
compares runs.  ``library_merge`` is the seam that runs the library's
sweep on intervals, through the library's encoder.

``fiber_splits`` works on runs, through the library's ``_merge_runs`` and
``_closure_meets``: it joins fiber pieces through side pieces by a
union-find and counts the classes, where the library's split test makes
one closure comparison per gap between consecutive fiber pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sheafmealy import tame as _tame
from sheafmealy.errors import CheckerError
from sheafmealy.explain import judge as make_judge
from sheafmealy.localglobal import glue_stateless
from sheafmealy.systems import _table_system, _UnionFind, covering, finset, subsystem
from sheafmealy.tame import (
    Interval,
    ProjectionJudge,
    Rect,
    RectUnion,
    RobustDisconnectionCertificate,
    SheafVerdict,
    TameCounterexample,
)


def interval(lo: Fraction | int | str, hi: Fraction | int | str,
             lo_open: bool = False, hi_open: bool = False) -> Interval:
    """The box side from ``lo`` to ``hi``, each read as a rational."""
    return Interval(Fraction(lo), Fraction(hi), lo_open, hi_open)


def contains(iv: Interval, x: Fraction) -> bool:
    """Whether the side ``iv`` holds the rational ``x``."""
    return ((iv.lo < x or (x == iv.lo and not iv.lo_open))
            and (x < iv.hi or (x == iv.hi and not iv.hi_open)))


def intersect(a: Interval, b: Interval) -> Interval:
    """The higher start and the lower end, open where either is open."""
    lo, lo_open = max((a.lo, a.lo_open), (b.lo, b.lo_open))
    hi, hi_closed = min((a.hi, not a.hi_open), (b.hi, not b.hi_open))
    return Interval(lo, hi, lo_open, not hi_closed)


def representative(iv: Interval) -> Fraction:
    """A rational point inside a non-empty interval."""
    if iv.empty:
        raise CheckerError("empty interval has no representative")
    return iv.lo if iv.lo == iv.hi else (iv.lo + iv.hi) / 2


def coface(r: Rect, k: int) -> tuple[Interval, ...]:
    """The sides of a box left when axis ``k`` is dropped."""
    return r[:k] + r[k + 1:]


def with_side(r: Rect, k: int, side: Interval) -> Rect:
    """The box ``r`` with its side on axis ``k`` replaced by ``side``."""
    return Rect.of((*r[:k], side, *r[k + 1:]))


def rect_contains(r: Rect, p) -> bool:
    """Whether the box ``r`` holds the point ``p`` of its dimension."""
    return len(p) == len(r) and all(map(contains, r, p))


def library_merge(parts) -> tuple[Interval, ...]:
    """The library's sweep, ``tame._merge_runs``, on ``parts`` encoded as
    runs on the ranks of their endpoints, its runs read back as intervals."""
    tables, boxes = _tame._rank_grid(1, [Rect(p) for p in parts])
    values = {4 * i: v for i, v in enumerate(tables[0])}
    return tuple(_tame._interval(values, s) for s in _tame._merge_runs(r[0] for r in boxes))


def rect_side(r: Rect, k: int) -> Interval:
    """Side ``k`` of a box; an axis the box does not have is refused."""
    if not 0 <= k < len(r):
        raise CheckerError(f"axis {k} out of range")
    return r[k]


def union_contains(u: RectUnion, p) -> bool:
    """Whether some box of the union holds the point ``p``."""
    return any(rect_contains(r, p) for r in u.rects)


def critical_values(u: RectUnion, axis: int) -> tuple[Fraction, ...]:
    """The endpoints of the union's sides on ``axis``, sorted."""
    return tuple(sorted({e for r in u.rects for s in [rect_side(r, axis)] for e in (s.lo, s.hi)}))


def merge_intervals(parts) -> tuple[Interval, ...]:
    """Components of a union of intervals, by membership on the grid of
    atoms: atom ``2k`` is the k-th endpoint and atom ``2k + 1`` the open gap
    after it.  A part covers a range of atoms, neighbouring atoms touch, and
    an atom no part covers splits the union, so each run of covered atoms
    is one component."""
    parts = [p for p in parts if not p.empty]
    vals = sorted({e for p in parts for e in (p.lo, p.hi)})
    rank = {v: k for k, v in enumerate(vals)}
    # The gap after the last endpoint is never covered, so every run ends.
    covered = [False] * (2 * len(vals))
    for p in parts:
        for atom in range(2 * rank[p.lo] + p.lo_open, 2 * rank[p.hi] + 1 - p.hi_open):
            covered[atom] = True
    out: list[Interval] = []
    start = None
    for atom, hit in enumerate(covered):
        if hit and start is None:
            start = atom
        elif not hit and start is not None:
            end = atom - 1
            out.append(Interval(vals[start // 2], vals[(end + 1) // 2],
                                start % 2 == 1, end % 2 == 1))
            start = None
    return tuple(out)


def _merged(s: Interval, t: Interval) -> Interval | None:
    """The interval ``s | t`` when the union of the two is one, else None."""
    merged = merge_intervals([s, t])
    return merged[0] if len(merged) == 1 else None


def _try_merge(a: Rect, b: Rect) -> Rect | None:
    if a.y is None:
        x = _merged(a.x, b.x)
        return None if x is None else Rect(x, None)
    x = _merged(a.x, b.x) if a.y == b.y else None
    if x is not None:
        return Rect(x, a.y)
    y = _merged(a.y, b.y) if a.x == b.x else None
    return None if y is None else Rect(a.x, y)


def _rects_linked(a: Rect, b: Rect) -> bool:
    if a.y is None:
        return _merged(a.x, b.x) is not None
    fwd = (
        not intersect(_closed(a.x), b.x).empty
        and not intersect(_closed(a.y), b.y).empty
    )
    bwd = (
        not intersect(a.x, _closed(b.x)).empty
        and not intersect(a.y, _closed(b.y)).empty
    )
    return fwd or bwd


def _closed(iv: Interval) -> Interval:
    return Interval(iv.lo, iv.hi)


def _clip_axis(r: Rect, axis: int, band: Interval) -> Rect | None:
    iv = intersect(rect_side(r, axis), band)
    if iv.empty:
        return None
    if r.y is None:
        return Rect(iv, None)
    return Rect(iv, r.y) if axis == 0 else Rect(r.x, iv)


def clip_band(u: RectUnion, axis: int, band: Interval) -> RectUnion:
    """The part of the union over ``band`` on ``axis``."""
    kept = [c for c in (_clip_axis(r, axis, band) for r in u.rects) if c is not None]
    return rect_union(u.dim, kept)


def subtract_closed_band(u: RectUnion, axis: int, lo: Fraction, hi: Fraction) -> RectUnion:
    """Remove ``axis-coordinate in [lo, hi]`` from the union; the cut edges
    of the remainder are open because the removed band is closed."""
    out: list[Rect] = []
    for r in u.rects:
        iv = rect_side(r, axis)
        left = intersect(iv, Interval(iv.lo, lo, iv.lo_open, True))
        right = intersect(iv, Interval(hi, iv.hi, True, iv.hi_open))
        out.extend(Rect(piece, r.y) if axis == 0 else Rect(r.x, piece)
                   for piece in (left, right) if not piece.empty)
    return rect_union(u.dim, out)


def fiber(u: RectUnion, pj: ProjectionJudge, t: Fraction) -> tuple[Interval, ...]:
    t = Fraction(t)
    if u.dim == 1:
        if pj.axis != 0:
            raise CheckerError("1-dimensional unions project on axis 0")
        return (Interval(t, t),) if union_contains(u, (t,)) else ()
    if pj.axis not in (0, 1):
        raise CheckerError("projection axis must be 0 or 1")
    other = 1 - pj.axis
    parts = [rect_side(r, other) for r in u.rects if contains(rect_side(r, pj.axis), t)]
    return merge_intervals(parts)


def _fiber_point(comp: RectUnion, pj: ProjectionJudge, t0: Fraction):
    pieces = fiber(comp, pj, t0)
    if not pieces:
        return None
    if comp.dim == 1:
        return (t0,)
    y = representative(pieces[0])
    return (t0, y) if pj.axis == 0 else (y, t0)


def _atom_intervals(values) -> list[Interval]:
    atoms: list[Interval] = []
    vals = sorted(set(values))
    for k, v in enumerate(vals):
        atoms.append(Interval(v, v))
        if k + 1 < len(vals):
            atoms.append(Interval(v, vals[k + 1], True, True))
    return atoms


def _covers_atom(iv: Interval, atom: Interval) -> bool:
    if atom.lo == atom.hi:
        return contains(iv, atom.lo)
    return not iv.empty and iv.lo <= atom.lo and iv.hi >= atom.hi


def regions_equal(u1: RectUnion, u2: RectUnion) -> bool:
    """Set equality on the grid of atoms: each endpoint on axis 0 and each
    open gap between two of them."""
    if u1.dim != u2.dim:
        return False
    xs = list(critical_values(u1, 0)) + list(critical_values(u2, 0))
    if not xs:
        return u1.empty and u2.empty
    atoms_x = _atom_intervals(xs)
    if u1.dim == 1:
        for atom in atoms_x:
            in1 = any(_covers_atom(r.x, atom) for r in u1.rects)
            in2 = any(_covers_atom(r.x, atom) for r in u2.rects)
            if in1 != in2:
                return False
        return True
    for atom in atoms_x:
        ys1 = merge_intervals([r.y for r in u1.rects if _covers_atom(r.x, atom)])
        ys2 = merge_intervals([r.y for r in u2.rects if _covers_atom(r.x, atom)])
        if ys1 != ys2:
            return False
    return True


def disjoint(u1: RectUnion, u2: RectUnion) -> bool:
    """Whether two rectangle unions share no point."""
    return not any(not intersect(a.x, b.x).empty
                   and (a.y is None or not intersect(a.y, b.y).empty)
                   for a in u1.rects for b in u2.rects)


def rect_union(dim, rects) -> RectUnion:
    if dim not in (1, 2):
        raise CheckerError("only dimensions 1 and 2 are supported")
    kept = [r for r in rects if not r.empty]
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            for k in range(i + 1, len(kept)):
                merged = _try_merge(kept[i], kept[k])
                if merged is not None:
                    kept[k] = merged
                    del kept[i]
                    changed = True
                    break
            if changed:
                break
    return RectUnion(dim, tuple(sorted(kept)))


def components(u: RectUnion) -> tuple[RectUnion, ...]:
    rects = list(u.rects)
    uf = _UnionFind(len(rects))
    for i in range(len(rects)):
        for k in range(i + 1, len(rects)):
            if _rects_linked(rects[i], rects[k]):
                uf.union(i, k)
    groups: dict[int, list] = {}
    for i, r in enumerate(rects):
        groups.setdefault(uf.find(i), []).append(r)
    return tuple(
        rect_union(u.dim, groups[g]) for g in sorted(groups, key=lambda g: sorted(groups[g]))
    )


def default_delta(u: RectUnion, pj: ProjectionJudge, t0: Fraction) -> Fraction:
    others = [v for v in critical_values(u, pj.axis) if v != t0]
    if not others:
        return Fraction(1)
    return min(abs(v - t0) for v in others) / 2


@dataclass(frozen=True)
class StripComponents:
    """The components of the preimage of the band ``(t0 - delta, t0 +
    delta)`` and whether each meets the fiber at ``t0``."""

    t0: Fraction
    delta: Fraction
    components: tuple[RectUnion, ...]
    meets_fiber: tuple[bool, ...]


def preimage_components_near(u, pj, t0, delta=None) -> StripComponents:
    t0 = Fraction(t0)
    delta = default_delta(u, pj, t0) if delta is None else Fraction(delta)
    band = Interval(t0 - delta, t0 + delta, True, True)
    clipped = [_clip_axis(r, pj.axis, band) for r in u.rects]
    strip = rect_union(u.dim, [c for c in clipped if c is not None])
    comps = components(strip)
    marks = tuple(bool(fiber(comp, pj, t0)) for comp in comps)
    return StripComponents(t0, delta, comps, marks)


def robustly_disconnected(u, pj, t0) -> RobustDisconnectionCertificate | None:
    sc = preimage_components_near(u, pj, t0)
    hits = [k for k, m in enumerate(sc.meets_fiber) if m]
    if len(hits) < 2:
        return None
    points = tuple(_fiber_point(comp, pj, sc.t0) for comp in sc.components)
    return RobustDisconnectionCertificate(
        sc.t0, sc.t0 - sc.delta, sc.t0 + sc.delta, sc.components, points, hits[0]
    )


def fiber_splits(boxes, axis: int, t: int) -> bool:
    """``tame._fiber_splits`` by classes: the fiber's pieces over cell
    ``2t``, joined by a union-find through each piece just left or right of
    it whose closure meets them, fall into two or more classes.  It takes
    the grid's boxes of runs whose judged sides reach the rank ``t``."""
    cell, other = 2 * t, 1 - axis
    here = _tame._merge_runs(r[other] for r in boxes if r[axis].first <= cell <= r[axis].last)
    if len(here) < 2:
        return False
    left = _tame._merge_runs(r[other] for r in boxes if r[axis].first < cell)
    right = _tame._merge_runs(r[other] for r in boxes if r[axis].last > cell)
    uf = _UnionFind(len(here))
    for piece in left + right:
        met = [j for j, h in enumerate(here) if _tame._closure_meets(piece, h)]
        for j in met[1:]:
            uf.union(met[0], j)
    return len({uf.find(j) for j in range(len(here))}) > 1


def sheaf_verdict(u: RectUnion, pj: ProjectionJudge) -> SheafVerdict:
    crit = critical_values(u, pj.axis)
    candidates = sorted(set(crit) | {(a + b) / 2 for a, b in zip(crit, crit[1:])})
    certs = [c for c in (robustly_disconnected(u, pj, t) for t in candidates) if c is not None]
    notes = []
    sides = [rect_side(r, k) for r in u.rects for k in range(u.dim)]
    if any(s.lo_open or s.hi_open for s in sides):
        notes.append(
            "domain has open edges: the compactness hypothesis of the "
            "characterization was not verified"
        )
    notes.append(
        "output side assumed connected with at least two values; the verdict "
        "covers the topological condition only"
    )
    return SheafVerdict(not certs, tuple(candidates), tuple(certs), tuple(notes))


def two_patch_counterexample(u: RectUnion, pj: ProjectionJudge,
                             cert: RobustDisconnectionCertificate) -> TameCounterexample:
    """The two-patch covering of a certificate, cut and sampled on
    rationals: the closed band ``t0 -+ delta / 2`` is subtracted from the
    union, and each remaining box gives the midpoint of its sides."""
    delta = (cert.n_hi - cert.n_lo) / 2
    off_band = subtract_closed_band(u, pj.axis, cert.t0 - delta / 2, cert.t0 + delta / 2)
    hits = [k for k, p in enumerate(cert.fiber_points) if p is not None and k != cert.v_index]
    samples = [("v", cert.fiber_points[cert.v_index]), ("w", cert.fiber_points[hits[0]])]
    samples += [(f"c{k}", tuple(map(representative, r)))
                for k, r in enumerate(off_band.rects)]
    for name, p in samples:
        if not union_contains(u, p):
            raise AssertionError(f"sample {name} fell outside the domain")
    letters = finset(name for name, _ in samples)
    system = _table_system(["s"], letters, ("0", "1"), [[(0, int(c == "w")) for c in letters]])[0]
    jdg = make_judge({name: str(p[pj.axis]) for name, p in samples}, {"0": "0", "1": "1"})
    c_names = [name for name, _ in samples if name.startswith("c")]
    cov = covering(system, [subsystem(system, inputs=sorted([side, *c_names])) for side in "vw"])
    res = glue_stateless(cov, jdg)
    assert not res.ok
    return TameCounterexample(system, jdg, cov, res.patch_assignments, tuple(samples),
                              res.obstruction)

"""Reference versions of the tame layer's normalization and verdict.

``rect_union`` is the plain merge loop: it restarts its pair scan from the
first row after every merge, so it is cubic, but the order of its merges is
plain to read.  ``sheaf_verdict`` examines each candidate abscissa on its
own: the band width from all critical values, every box clipped to the band,
the strip normalized by the loop here.  The library replays the same merges
without rescanning and works through the candidates in one pass; the
differential suite holds it to these results.
"""

from __future__ import annotations

from fractions import Fraction

from sheafmealy.errors import CheckerError
from sheafmealy.systems import _UnionFind
from sheafmealy.tame import (
    Interval,
    ProjectionJudge,
    RectUnion,
    RobustDisconnectionCertificate,
    SheafVerdict,
    StripComponents,
    _clip_axis,
    _fiber_point,
    _rects_linked,
    _try_merge,
    critical_values,
    fiber,
)


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


def preimage_components_near(u, pj, t0, delta=None) -> StripComponents:
    t0 = Fraction(t0)
    delta = default_delta(u, pj, t0) if delta is None else Fraction(delta)
    band = Interval(t0 - delta, t0 + delta, True, True)
    clipped = [_clip_axis(r, pj.axis, band) for r in u.rects]
    strip = rect_union(u.dim, [c for c in clipped if c is not None])
    comps = components(strip)
    marks = tuple(bool(fiber(comp, pj, t0)) for comp in comps)
    return StripComponents(t0, delta, strip, comps, marks)


def robustly_disconnected(u, pj, t0) -> RobustDisconnectionCertificate | None:
    sc = preimage_components_near(u, pj, t0)
    hits = [k for k, m in enumerate(sc.meets_fiber) if m]
    if len(hits) < 2:
        return None
    points = tuple(_fiber_point(comp, pj, sc.t0) for comp in sc.components)
    return RobustDisconnectionCertificate(
        sc.t0, sc.t0 - sc.delta, sc.t0 + sc.delta, sc.components, points, hits[0]
    )


def sheaf_verdict(u: RectUnion, pj: ProjectionJudge) -> SheafVerdict:
    crit = critical_values(u, pj.axis)
    candidates = sorted(set(crit) | {(a + b) / 2 for a, b in zip(crit, crit[1:])})
    certs = [c for c in (robustly_disconnected(u, pj, t) for t in candidates) if c is not None]
    notes = []
    if any(r.axis(k).lo_open or r.axis(k).hi_open for r in u.rects for k in range(u.dim)):
        notes.append(
            "domain has open edges: the compactness hypothesis of the "
            "characterization was not verified"
        )
    notes.append(
        "output side assumed connected with at least two values; the verdict "
        "covers the topological condition only"
    )
    return SheafVerdict(not certs, tuple(candidates), tuple(certs), tuple(notes))

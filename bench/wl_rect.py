"""rect-topology: the ``tame`` layer on rectangle unions.

Each union gives a chain of checks: normalization (``union_from_payload``
on a JSON payload written here), then ``sheaf_verdict`` of the normalized
union on each axis, then ``two_patch_counterexample`` from the first
certificate of each verdict that has one.  Set-up only writes payloads;
the union is built once per round, inside the timed normalization.

Random unions sit on a quarter-integer grid with mixed open and closed
edges.  Some pile many boxes over few distinct abscissae, others spread
few boxes over many, so the number of candidate abscissae and the cost per
candidate vary separately.  Each random union also carries two small
planted gadgets, two stacked boxes to the right and two side-by-side boxes
above, so both axes always have a certificate and the list of checks does
not depend on the seed.  Planted families have a known verdict: stacked
bands are not a sheaf on axis 0, punctured squares and staircases are a
sheaf on both axes.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from sheafmealy import tame

from harness import Check
from oracles import (component_of, float_boxes, regions_equal, replay, robust_at, sheaf_reference,
                     table_of, union_contains)

# (family, size, x span, y span).  Random unions come in twos and threes so
# that their seed-to-seed variation averages out.
SLOTS = (
    3 * [("random", n, 2, 10) for n in (20, 40, 80)]
    + 2 * [("random", 160, 2, 10)]
    + 2 * [("random", n, 20, 10) for n in (20, 40, 80)]
    + 2 * [("bands", k, 0, 0) for k in (3, 6, 12)]
    + 2 * [("punctured", k, 0, 0) for k in (2, 5)]
    + 2 * [("staircase", k, 0, 0) for k in (8, 20)]
)

# Verdicts of the planted families on axes 0 and 1.
PLANTED = {"bands": (False, True), "punctured": (True, True), "staircase": (True, True)}

CLOSED = (False, False, False, False)


def box(x0, x1, y0, y1, flags=CLOSED):
    return (F(x0), F(x1), flags[0], flags[1], F(y0), F(y1), flags[2], flags[3])


def random_boxes(rng: random.Random, n: int, x_span: int, y_span: int,
                 open_share: float = 0.3) -> list:
    """``n`` boxes on the quarter grid over ``[0, x_span] x [0, y_span]``,
    each edge open with probability ``open_share``, plus the two gadgets."""
    boxes = []
    for _ in range(n):
        x0 = rng.randrange(0, 4 * x_span)
        x1 = rng.randrange(x0 + 1, min(4 * x_span, x0 + 8) + 1)
        y0 = rng.randrange(0, 4 * y_span)
        y1 = rng.randrange(y0 + 1, min(4 * y_span, y0 + 12) + 1)
        flags = tuple(rng.random() < open_share for _ in range(4))
        boxes.append(box(F(x0, 4), F(x1, 4), F(y0, 4), F(y1, 4), flags))
    gx, gy = x_span + 1, y_span + 1
    boxes += [box(gx, gx + 1, 0, 1), box(gx, gx + 1, 2, 3),
              box(0, 1, gy, gy + 1), box(2, 3, gy, gy + 1)]
    return boxes


def bands(rng: random.Random, k: int) -> list:
    out, y = [], F(0)
    width = F(rng.randrange(4, 12), 2)
    for _ in range(k):
        h = F(rng.randrange(1, 5), 4)
        flags = (rng.random() < 0.5, rng.random() < 0.5, False, False)
        out.append(box(0, width, y, y + h, flags))
        y += h + F(rng.randrange(1, 4), 4)
    return out


def punctured(rng: random.Random, k: int) -> list:
    """Open squares along the diagonal, each missing its center point; the
    squares share no abscissa and no ordinate."""
    out, o = [], F(0)
    op = (True, True, True, True)
    for _ in range(k):
        s = F(rng.randrange(2, 6), 2)
        h = s / 2
        out += [box(o, o + s, o, o + h, op), box(o, o + s, o + h, o + s, op),
                box(o, o + h, o, o + s, op), box(o + h, o + s, o, o + s, op)]
        o += s + F(1, 2)
    return out


def staircase(rng: random.Random, k: int) -> list:
    out, h, x = [], F(0), F(0)
    for _ in range(k):
        w = F(rng.randrange(1, 5), 4)
        h += F(rng.randrange(1, 5), 4)
        out.append(box(x, x + w, 0, h))
        x += w
    return out


def payload(boxes: list, axis: int) -> dict:
    """The rect-union document shape, written without the library."""
    return {"dim": 2, "axis": axis, "rects": [
        {"x": [str(b[0]), str(b[1])], "y": [str(b[4]), str(b[5])],
         "open": [b[2], b[3], b[6], b[7]]} for b in boxes]}


def library_union(boxes: list):
    rects = [tame.Rect(tame.Interval(b[0], b[1], b[2], b[3]),
                       tame.Interval(b[4], b[5], b[6], b[7])) for b in boxes]
    return tame.rect_union(2, rects)


def boxes_of(u) -> list:
    return [(r.x.lo, r.x.hi, r.x.lo_open, r.x.hi_open, r.y.lo, r.y.hi, r.y.lo_open, r.y.hi_open)
            for r in u.rects]


# ------------------------------------------------------------------ checks


def _normalize_check(tag, boxes, cell):
    """Normalize the union from its payload; the verdict checks of the same
    round take the normalized union from here."""
    doc = payload(boxes, 0)

    def call():
        cell["union"] = tame.union_from_payload(doc)[0]
        return cell["union"], tame.ProjectionJudge(0)

    def verify(out):
        u, pj = out
        if u.dim != 2 or pj.axis != 0:
            return "wrong dimension or axis"
        if not regions_equal(boxes, boxes_of(u)):
            return "normalized union is a different region"
        return None

    return Check(tag, call, verify)


class _Verdicts:
    """Reference answers per axis and abscissa, computed once."""

    def __init__(self, boxes):
        self.boxes = boxes
        self.fboxes = float_boxes(boxes)
        self._ref = {}
        self._at = {}

    def ref(self, axis):
        """Candidates of the raw boxes and the robust splits among them."""
        if axis not in self._ref:
            self._ref[axis] = sheaf_reference(self.fboxes, axis)
        return self._ref[axis]

    def at(self, axis, t):
        """Robust split at any abscissa; the region decides it, not the
        boxes that describe it."""
        _, robust = self.ref(axis)
        if t in robust:
            return robust[t]
        if (axis, t) not in self._at:
            self._at[(axis, t)] = robust_at(self.fboxes, axis, t)
        return self._at[(axis, t)]


def _certificate_reason(cert, ref: _Verdicts, axis) -> str | None:
    boxes = ref.boxes
    entry = ref.at(axis, cert.t0)
    if entry is None:
        return f"certificate at {cert.t0} where the cells show no robust split"
    seen = set()
    points = [p for p in cert.fiber_points if p is not None]
    if len(points) < 2 or cert.fiber_points[cert.v_index] is None:
        return "certificate marks fewer than two fiber points"
    for p in points:
        if p[axis] != cert.t0 or not union_contains(boxes, p):
            return f"fiber point {p} is off the fiber or outside the union"
        comp = component_of(entry, p, axis)
        if comp is None or comp in seen:
            return "fiber points do not sit in distinct band components"
        seen.add(comp)
    return None


def _verdict_check(tag, ref: _Verdicts, axis, planted, cell):
    pj = tame.ProjectionJudge(axis)

    def call():
        cell[axis] = tame.sheaf_verdict(cell["union"], pj)
        return cell[axis]

    def verify(v):
        _, robust = ref.ref(axis)
        certified = {c.t0 for c in v.certificates}
        for t in v.candidates:
            if (ref.at(axis, t) is not None) != (t in certified):
                return f"candidate {t}: certified={t in certified}, the cells disagree"
        if v.is_sheaf != (not robust):
            return f"is_sheaf={v.is_sheaf}, cells show robust splits at {sorted(robust)}"
        if planted is not None and v.is_sheaf != planted:
            return f"planted verdict is_sheaf={planted}"
        for cert in v.certificates:
            reason = _certificate_reason(cert, ref, axis)
            if reason:
                return reason
        return None

    return Check(tag, call, verify)


def _counterexample_check(tag, ref: _Verdicts, axis, cell):
    pj = tame.ProjectionJudge(axis)

    def call():
        return tame.two_patch_counterexample(cell["union"], pj, cell[axis].certificates[0])

    def verify(cex):
        cert = cell[axis].certificates[0]
        rep = cex.obstruction
        if rep is None or len(rep.forced) != 2:
            return "no obstruction"
        outs = [replay(table_of(f.machine), f.state, rep.word) for f in rep.forced]
        if any(o != tuple(f.outputs) for o, f in zip(outs, rep.forced)) or outs[0] == outs[1]:
            return "obstruction does not replay to two different outputs"
        samples = dict(cex.samples)
        for name, p in samples.items():
            if not union_contains(ref.boxes, p):
                return f"sample {name} lies outside the union"
        comps = {component_of(ref.at(axis, cert.t0), samples[k], axis) for k in ("v", "w")}
        if None in comps or len(comps) != 2:
            return "the two marked samples are not in distinct band components"
        return None

    return Check(tag, call, verify)


def setup(seed: int, workdir: str) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for k, (family, size, xs, ys) in enumerate(SLOTS):
        tag = f"{k:02d}-{family}-{size}" + (f"-x{xs}" if family == "random" else "")
        if family == "random":
            boxes = random_boxes(rng, size, xs, ys)
            planted, cex_axes = (None, None), (0, 1)
        else:
            boxes = {"bands": bands, "punctured": punctured, "staircase": staircase}[family](rng, size)
            planted = PLANTED[family]
            cex_axes = tuple(a for a in (0, 1) if not planted[a])
        ref = _Verdicts(boxes)
        cell: dict = {}
        checks.append(_normalize_check(tag + "-normalize", boxes, cell))
        for axis in (0, 1):
            checks.append(_verdict_check(f"{tag}-verdict{axis}", ref, axis, planted[axis], cell))
        for axis in cex_axes:
            checks.append(_counterexample_check(f"{tag}-cex{axis}", ref, axis, cell))
    return checks

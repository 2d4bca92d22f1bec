"""Exact rectangle-union geometry: fibers, robust disconnection, verdicts."""

import copy
import pickle
from fractions import Fraction

import pytest

from sheafmealy import (
    CheckerError,
    Interval,
    ProjectionJudge,
    Rect,
    RectUnion,
    components,
    critical_values,
    disjoint,
    fiber,
    glue_stateless,
    interval,
    preimage_components_near,
    rect_union,
    regions_equal,
    robustly_disconnected,
    sheaf_verdict,
    stateless_ri_section,
    subtract_closed_band,
    two_patch_counterexample,
    union_from_payload,
)
from sheafmealy import fixtures as fx
from sheafmealy.tame import clip_band, merge_intervals

HALF = Fraction(1, 2)


def box(x0, x1, y0, y1, open_flags=(False, False, False, False)) -> Rect:
    return Rect(
        Interval(Fraction(x0), Fraction(x1), open_flags[0], open_flags[1]),
        Interval(Fraction(y0), Fraction(y1), open_flags[2], open_flags[3]),
    )


def seg(lo, hi, lo_open=False, hi_open=False) -> Rect:
    return Rect(Interval(Fraction(lo), Fraction(hi), lo_open, hi_open), None)


# ------------------------------------------------------------- 1-d plumbing

def test_merge_intervals_touching_flags():
    assert merge_intervals([interval(0, 1), interval(1, 2)]) == (interval(0, 2),)
    two_open = merge_intervals([interval(0, 1, False, True),
                                interval(1, 2, True, False)])
    assert len(two_open) == 2
    assert merge_intervals([interval(0, 1, False, True), interval(1, 2)]) == (
        interval(0, 2),
    )
    assert merge_intervals([interval(2, 1), interval(0, 0)]) == (interval(0, 0),)
    got = merge_intervals([interval(0, 3), interval(1, 2, True, True)])
    assert got == (interval(0, 3),)
    # [4,7) joins [3,4) to (4,6]: a closed start goes before an open one.
    got = merge_intervals([interval(3, 4, False, True), interval(4, 6, True, False),
                           interval(4, 7, False, True)])
    assert got == (interval(3, 7, False, True),)


def test_rect_union_normalizes_and_validates():
    u = rect_union(2, [box(0, 1, 0, 1), box(1, 2, 0, 1)])
    assert len(u.rects) == 1
    assert u.rects[0].x == interval(0, 2)
    kept = rect_union(2, [box(0, 1, 0, 1), box(0, 1, 2, 3)])
    assert len(kept.rects) == 2
    assert rect_union(1, [seg(0, 1), Rect(interval(1, 0), None)]).rects == (
        seg(0, 1),
    )
    with pytest.raises(CheckerError):
        rect_union(3, [])
    with pytest.raises(CheckerError):
        rect_union(1, [box(0, 1, 0, 1)])
    with pytest.raises(CheckerError):
        rect_union(2, [seg(0, 1)])


def test_components_linkage():
    ps, _ = fx.punctured_square_objects()
    assert len(components(ps)) == 1
    tb, _ = fx.two_band_objects()
    assert len(components(tb)) == 2
    corner_closed = rect_union(2, [box(0, 1, 0, 1), box(1, 2, 1, 2)])
    assert len(components(corner_closed)) == 1
    corner_open = rect_union(2, [
        box(0, 1, 0, 1, (True, True, True, True)),
        box(1, 2, 1, 2, (True, True, True, True)),
    ])
    assert len(components(corner_open)) == 2
    gap_1d = rect_union(1, [seg(0, 1), seg(2, 3)])
    assert len(components(gap_1d)) == 2


def test_components_ignore_empty_boxes():
    # Unions built without rect_union may hold empty boxes; one whose sides'
    # closures span both components of a union must not link them either.
    tb, _ = fx.two_band_objects()
    cases = [
        (rect_union(1, [seg(0, 1)]), [seg(1, 0), seg(2, 2, True, False)]),
        (rect_union(1, [seg(0, 1), seg(2, 3)]), [seg(3, 0), seg(1, 1, False, True)]),
        (tb, [box(-5, 5, 1, 0), box(HALF, HALF, 0, 1, (True, False, False, False))]),
        (rect_union(2, [box(0, 1, 0, 1), box(2, 3, 0, 1)]),
         [box(0, 3, 1, 1, (False, False, True, False)), box(2, 1, 0, 1)]),
    ]
    for u, empties in cases:
        assert all(r.empty for r in empties)
        want = components(u)
        assert len(want) >= 1
        for k in range(len(empties) + 1):
            padded = RectUnion(u.dim, (*empties[:k], *u.rects, *empties[k:]))
            got = components(padded)
            assert got == want, (u, empties[:k])
            assert not any(comp.empty for comp in got)


# ------------------------------------------------------------------ fibers

def test_fiber_full_square():
    u = rect_union(2, [box(0, 1, 0, 1)])
    got = fiber(u, ProjectionJudge(0), Fraction(3, 10))
    assert got == (interval(0, 1),)
    assert fiber(u, ProjectionJudge(0), Fraction(2)) == ()


def test_fiber_punctured_square():
    u, pj = fx.punctured_square_objects()
    at_half = fiber(u, pj, HALF)
    assert at_half == (
        Interval(Fraction(0), HALF, True, True),
        Interval(HALF, Fraction(1), True, True),
    )
    nearby = fiber(u, pj, Fraction(2, 5))
    assert nearby == (Interval(Fraction(0), Fraction(1), True, True),)
    # Exactness: endpoints are the stated rationals, not approximations.
    assert at_half[0].hi == HALF and at_half[1].lo == HALF


def test_fiber_one_dimensional():
    u = rect_union(1, [seg(0, 1), seg(2, 3, True, False)])
    assert fiber(u, ProjectionJudge(0), HALF) == (Interval(HALF, HALF),)
    assert fiber(u, ProjectionJudge(0), Fraction(2)) == ()
    with pytest.raises(CheckerError):
        fiber(u, ProjectionJudge(1), HALF)


def test_projection_axis_outside_the_dimension_is_refused():
    """Sides are read by position, so a negative axis must not read the
    last side."""
    for u in (rect_union(2, [box(0, 1, 0, 2)]), rect_union(1, [seg(0, 1)]), rect_union(2, [])):
        for axis in (-1, u.dim):
            with pytest.raises(CheckerError):
                fiber(u, ProjectionJudge(axis), HALF)
            with pytest.raises(CheckerError):
                sheaf_verdict(u, ProjectionJudge(axis))


def test_rect_is_the_tuple_of_its_sides():
    x, y = interval(0, 1), interval(2, 3, True, False)
    r = Rect(x, y)
    assert r == Rect.of([x, y]) == (x, y) and len(seg(0, 1)) == 1
    assert (r.x, r.y, seg(0, 1).y) == (x, y, None)
    assert r.coface(0) == (y,) and r.coface(1) == (x,) and seg(0, 1).coface(0) == ()
    assert r.with_side(1, x) == Rect(x, x) and r.with_side(0, y) == Rect(y, y)
    assert copy.deepcopy(r) == pickle.loads(pickle.dumps(r)) == r
    assert type(pickle.loads(pickle.dumps(r))) is Rect
    assert eval(repr(r)) == r
    assert r.contains((HALF, Fraction(3))) and not r.contains((HALF, Fraction(2)))
    assert not r.contains((HALF,)) and Rect(x, interval(1, 0)).empty
    with pytest.raises(CheckerError):
        r.axis(-1)


# ---------------------------------------------------------- strip components

def test_preimage_components_examples():
    full = rect_union(2, [box(0, 1, 0, 1)])
    sc = preimage_components_near(full, ProjectionJudge(0), HALF)
    assert len(sc.components) == 1 and sc.meets_fiber == (True,)

    ps, pj = fx.punctured_square_objects()
    sc2 = preimage_components_near(ps, pj, HALF)
    assert len(sc2.components) == 1
    assert sc2.meets_fiber == (True,)

    tb, pj_tb = fx.two_band_objects()
    sc3 = preimage_components_near(tb, pj_tb, HALF)
    assert len(sc3.components) == 2
    assert sc3.meets_fiber == (True, True)


def test_preimage_components_delta_stability():
    cases = [fx.punctured_square_objects(), fx.two_band_objects()]
    for u, pj in cases:
        for t0 in sheaf_verdict(u, pj).candidates:
            sc = preimage_components_near(u, pj, t0)
            half_width = preimage_components_near(u, pj, t0, sc.delta / 2)
            quarter = preimage_components_near(u, pj, t0, sc.delta / 4)
            assert len(sc.components) == len(half_width.components)
            assert sc.meets_fiber == half_width.meets_fiber
            assert sc.meets_fiber == quarter.meets_fiber


def test_preimage_components_rejects_bad_delta():
    u, pj = fx.punctured_square_objects()
    with pytest.raises(CheckerError):
        preimage_components_near(u, pj, HALF, Fraction(0))
    with pytest.raises(CheckerError):
        preimage_components_near(u, pj, HALF, HALF)


# ------------------------------------------------------ robust disconnection

def _check_certificate(u, pj, cert):
    band = Interval(cert.n_lo, cert.n_hi, True, True)
    strip = clip_band(u, pj.axis, band)
    pieces = [r for comp in cert.components for r in comp.rects]
    assert regions_equal(strip, rect_union(u.dim, pieces))
    for a in range(len(cert.components)):
        for b in range(a + 1, len(cert.components)):
            assert disjoint(cert.components[a], cert.components[b])
    marked = 0
    for comp, point in zip(cert.components, cert.fiber_points):
        if point is None:
            continue
        marked += 1
        assert point[pj.axis] == cert.t0
        assert comp.contains(point) and u.contains(point)
    assert marked >= 2
    assert cert.fiber_points[cert.v_index] is not None


def test_robustly_disconnected_examples():
    full = rect_union(2, [box(0, 1, 0, 1)])
    for t0 in (Fraction(0), HALF, Fraction(1)):
        assert robustly_disconnected(full, ProjectionJudge(0), t0) is None

    ps, pj = fx.punctured_square_objects()
    assert robustly_disconnected(ps, pj, HALF) is None

    tb, pj_tb = fx.two_band_objects()
    cert = robustly_disconnected(tb, pj_tb, HALF)
    assert cert is not None and cert.t0 == HALF
    assert len(cert.components) == 2
    _check_certificate(tb, pj_tb, cert)


def test_sheaf_verdict_fixtures():
    ps, pj = fx.punctured_square_objects()
    v = sheaf_verdict(ps, pj)
    assert v.is_sheaf and v.certificates == ()
    assert v.candidates == (Fraction(0), Fraction(1, 4), HALF,
                            Fraction(3, 4), Fraction(1))
    assert any("compactness" in note for note in v.notes)

    tb, pj_tb = fx.two_band_objects()
    v2 = sheaf_verdict(tb, pj_tb)
    assert not v2.is_sheaf
    assert tuple(c.t0 for c in v2.certificates) == (Fraction(0), HALF, Fraction(1))
    assert not any("compactness" in note for note in v2.notes)
    assert any("output side" in note for note in v2.notes)

    single = rect_union(2, [box(0, 2, 0, 1)])
    assert sheaf_verdict(single, ProjectionJudge(0)).is_sheaf
    assert sheaf_verdict(single, ProjectionJudge(1)).is_sheaf


# --------------------------------------------------- the implication chain

def _rand_fraction(rng, span=8):
    return Fraction(rng.randint(0, span * 2), rng.choice([1, 2, 4]))


def _rand_union(rng, dim):
    rects = []
    for _ in range(rng.randint(1, 5)):
        lo = _rand_fraction(rng)
        width = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
        x = Interval(lo, lo + width,
                     width > 0 and rng.random() < 0.3,
                     width > 0 and rng.random() < 0.3)
        if dim == 1:
            rects.append(Rect(x, None))
        else:
            lo2 = _rand_fraction(rng)
            h = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            y = Interval(lo2, lo2 + h, rng.random() < 0.3, rng.random() < 0.3)
            rects.append(Rect(x, y))
    return rect_union(dim, rects)


def test_connected_fibers_imply_sheaf_random(rng):
    """Fibers all connected forces no certificates forces a sheaf verdict;
    certificates always sit over a disconnected fiber.  Candidate abscissae
    suffice because the slice structure is constant between endpoints."""
    all_connected_seen = 0
    disconnected_seen = 0
    for trial in range(300):
        dim = 1 if trial % 3 == 0 else 2
        u = _rand_union(rng, dim)
        pj = ProjectionJudge(0 if dim == 1 else rng.randint(0, 1))
        v = sheaf_verdict(u, pj)
        connected = all(len(fiber(u, pj, t)) <= 1 for t in v.candidates)
        if connected:
            all_connected_seen += 1
            assert all(robustly_disconnected(u, pj, t) is None
                       for t in v.candidates)
            assert v.is_sheaf
        else:
            disconnected_seen += 1
        for cert in v.certificates:
            assert len(fiber(u, pj, cert.t0)) >= 2
            _check_certificate(u, pj, cert)
    assert all_connected_seen > 50 and disconnected_seen > 50
    # Strictness of the chain: a disconnected fiber alone does not break
    # the sheaf verdict.
    ps, pj = fx.punctured_square_objects()
    assert len(fiber(ps, pj, HALF)) == 2
    assert sheaf_verdict(ps, pj).is_sheaf


def _closed_side(rng) -> Interval:
    """A closed half-grid interval, a single point one time in ten."""
    lo = rng.randrange(0, 12)
    hi = lo if rng.random() < 0.1 else rng.randrange(lo + 1, lo + 6)
    return Interval(Fraction(lo, 2), Fraction(hi, 2))


def test_closed_domains_certify_exactly_the_split_fibers(rng):
    """With every edge closed, the pieces of a fiber are closed and a
    positive gap lies between two of them; it persists in the nearby
    fibers, so it splits every band.  The certified candidates are then
    exactly the candidates whose fiber is disconnected, and the verdict is
    "not a sheaf" exactly when some candidate fiber is."""
    seen = {True: 0, False: 0}
    for _ in range(1000):
        u = rect_union(2, [Rect(_closed_side(rng), _closed_side(rng))
                           for _ in range(rng.randint(1, 6))])
        for axis in (0, 1):
            pj = ProjectionJudge(axis)
            v = sheaf_verdict(u, pj)
            split = {t for t in v.candidates if len(fiber(u, pj, t)) > 1}
            assert {c.t0 for c in v.certificates} == split
            assert v.is_sheaf == (not split)
            seen[v.is_sheaf] += 1
    assert seen[True] > 400 and seen[False] > 400


def test_one_dimensional_domains_always_glue(rng):
    for _ in range(50):
        u = _rand_union(rng, 1)
        assert sheaf_verdict(u, ProjectionJudge(0)).is_sheaf


# ------------------------------------- certificates drive covering failures

def _check_counterexample(u, pj, cut):
    assert not glue_stateless(cut.covering, cut.judge).ok
    for p, asg in zip(cut.covering.patches, cut.assignments):
        rep = stateless_ri_section(p, cut.judge)
        assert rep.ok and rep.assignment == asg
    for _, point in cut.samples:
        assert u.contains(point)
    assert cut.obstruction.kind == "stateless"


def test_two_band_counterexample_construction():
    u, pj = fx.two_band_objects()
    cert = robustly_disconnected(u, pj, HALF)
    cut = two_patch_counterexample(u, pj, cert)
    _check_counterexample(u, pj, cut)
    assert cut.judge.j_i["v"] == str(HALF)
    assert cut.judge.j_i["w"] == str(HALF)
    assert cut.obstruction.site == (str(HALF),)
    names = [name for name, _ in cut.samples]
    assert names[:2] == ["v", "w"]


def test_random_certificates_yield_counterexamples(rng):
    built = 0
    for _ in range(200):
        u = _rand_union(rng, 2)
        pj = ProjectionJudge(rng.randint(0, 1))
        v = sheaf_verdict(u, pj)
        for cert in v.certificates[:2]:
            cut = two_patch_counterexample(u, pj, cert)
            _check_counterexample(u, pj, cut)
            built += 1
    assert built > 30


# ------------------------------------------------------ region comparisons

# A = [0,3]x[3,4), B = [0,1]x(4,6] and C = [0,2]x[4,7): B lies inside C, and
# over x in [0,1] the fiber [3,4) | (4,6] | [4,7) is the one interval [3,7).
ABC = (box(0, 3, 3, 4, (False, False, False, True)),
       box(0, 1, 4, 6, (False, False, True, False)),
       box(0, 2, 4, 7, (False, False, False, True)))


def test_regions_equal_and_disjoint():
    a, _, c = ABC
    assert fiber(rect_union(2, ABC), ProjectionJudge(0), HALF) == (interval(3, 7, False, True),)
    assert regions_equal(rect_union(2, ABC), rect_union(2, [a, c]))
    split = RectUnion(2, (box(0, 1, 0, 2), box(1, 3, 0, 2)))
    merged = rect_union(2, [box(0, 3, 0, 2)])
    assert regions_equal(split, merged)
    assert not regions_equal(merged, rect_union(2, [box(0, 3, 0, 1)]))
    assert regions_equal(rect_union(1, [seg(0, 1), seg(1, 2)]),
                         rect_union(1, [seg(0, 2)]))
    assert not regions_equal(rect_union(1, [seg(0, 1)]),
                             rect_union(2, [box(0, 1, 0, 1)]))

    a = rect_union(2, [box(0, 1, 0, 1)])
    b = rect_union(2, [box(2, 3, 0, 1)])
    touch = rect_union(2, [box(1, 2, 0, 1)])
    open_touch = rect_union(2, [box(1, 2, 0, 1, (True, False, False, False))])
    assert disjoint(a, b)
    assert not disjoint(a, touch)
    assert disjoint(a, open_touch)


def test_subtract_closed_band_edges():
    u = rect_union(2, [box(0, 2, 0, 1)])
    rest = subtract_closed_band(u, 0, Fraction(3, 4), Fraction(5, 4))
    assert len(rest.rects) == 2
    left, right = sorted(rest.rects)
    assert left.x == Interval(Fraction(0), Fraction(3, 4), False, True)
    assert right.x == Interval(Fraction(5, 4), Fraction(2), True, False)
    assert disjoint(rest, rect_union(2, [box(Fraction(3, 4), Fraction(5, 4), 0, 1)]))


def test_union_from_payload_shapes():
    u, pj = union_from_payload({
        "dim": 2,
        "axis": 1,
        "rects": [
            {"x": ["0", "1"], "y": ["0", "1/2"], "open": [False, False, False, True]},
            {"x": ["0", "1"], "y": ["1/2", "1"]},
        ],
    })
    assert pj.axis == 1
    assert regions_equal(u, rect_union(2, [box(0, 1, 0, 1)]))
    u1, pj1 = union_from_payload({"dim": 1, "rects": [{"x": ["-1/2", "1/2"]}]})
    assert pj1.axis == 0
    assert u1.contains((Fraction(0),))

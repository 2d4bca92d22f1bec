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
    fiber,
    glue_stateless,
    rect_union,
    robustly_disconnected,
    sheaf_verdict,
    stateless_ri_section,
    two_patch_counterexample,
    union_from_payload,
)
from sheafmealy import fixtures as fx
from sheafmealy import jsonio, tame
from sheafmealy.errors import InternalConsistencyError, MalformedDocument
from tame_oracle import (
    clip_band,
    coface,
    disjoint,
    interval,
    library_merge,
    rect_contains,
    rect_side,
    representative,
    regions_equal,
    subtract_closed_band,
    union_contains,
    with_side,
)

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
    assert library_merge([interval(0, 1), interval(1, 2)]) == (interval(0, 2),)
    two_open = library_merge([interval(0, 1, False, True),
                              interval(1, 2, True, False)])
    assert len(two_open) == 2
    assert library_merge([interval(0, 1, False, True), interval(1, 2)]) == (
        interval(0, 2),
    )
    assert library_merge([interval(2, 1), interval(0, 0)]) == (interval(0, 0),)
    got = library_merge([interval(0, 3), interval(1, 2, True, True)])
    assert got == (interval(0, 3),)
    # [4,7) joins [3,4) to (4,6]: a closed start goes before an open one.
    got = library_merge([interval(3, 4, False, True), interval(4, 6, True, False),
                         interval(4, 7, False, True)])
    assert got == (interval(3, 7, False, True),)


@pytest.mark.parametrize("side", [interval(1, 0), interval(0, 0, True, False),
                                  interval(0, 0, False, True), interval(0, 0, True, True)],
                         ids=["reversed", "open-start", "open-end", "open-point"])
def test_an_empty_side_has_no_representative(side):
    with pytest.raises(CheckerError) as caught:
        representative(side)
    assert type(caught.value) is CheckerError
    assert str(caught.value) == "empty interval has no representative"


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
            assert all(comp.rects for comp in got)


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
    assert coface(r, 0) == (y,) and coface(r, 1) == (x,) and coface(seg(0, 1), 0) == ()
    assert with_side(r, 1, x) == Rect(x, x) and with_side(r, 0, y) == Rect(y, y)
    assert copy.deepcopy(r) == pickle.loads(pickle.dumps(r)) == r
    assert type(pickle.loads(pickle.dumps(r))) is Rect
    assert eval(repr(r)) == r
    assert rect_contains(r, (HALF, Fraction(3))) and not rect_contains(r, (HALF, Fraction(2)))
    assert not rect_contains(r, (HALF,)) and Rect(x, interval(1, 0)).empty
    with pytest.raises(CheckerError):
        rect_side(r, -1)


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
        assert union_contains(comp, point) and union_contains(u, point)
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
        assert union_contains(u, point)
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


def test_a_sample_past_its_box_is_refused(monkeypatch):
    """The sample check places every sample on the grid by its value alone,
    so a representative past its side's high end is caught."""
    u, pj = fx.two_band_objects()
    cert = robustly_disconnected(u, pj, HALF)
    monkeypatch.setattr(tame, "_point", lambda memo, values, s: values[s.hi] + 1)
    with pytest.raises(InternalConsistencyError, match="sample c0 fell outside the domain"):
        two_patch_counterexample(u, pj, cert)


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
    assert union_contains(u1, (Fraction(0),))


# ------------------------------------------------------- parsing and ranks

def _spellings(v: Fraction) -> list:
    """Ways a document may write ``v``: its canonical string, the same
    fraction unreduced, a decimal string and a JSON number where ``v`` has
    a finite binary expansion."""
    out = [str(v), f"{2 * v.numerator}/{2 * v.denominator}"]
    if v.denominator in (1, 2, 4):
        out += [str(float(v)), float(v)]
    if v.denominator == 1:
        out.append(int(v))
    return out


def _half_grid_rows(rng, n: int) -> list[list[Fraction]]:
    rows = []
    for _ in range(n):
        x0, y0 = rng.randrange(0, 8), rng.randrange(0, 8)
        rows.append([Fraction(x0, 2), Fraction(rng.randrange(x0 + 1, x0 + 4), 2),
                     Fraction(y0, 2), Fraction(rng.randrange(y0, y0 + 4), 2)])
    return rows


def _cert_bytes(certs) -> list[bytes]:
    return [jsonio.canonical_bytes(jsonio.certificate_payload(c)) for c in certs]


def test_spellings_of_one_value_share_a_rank(rng):
    """A document that spells one value in several ways (``"1/2"``,
    ``"2/4"``, ``"0.5"`` and the JSON number 0.5) gives the union, the
    candidates and the certificate bytes of the canonical spelling."""
    seen: set = set()
    for trial in range(60):
        rows = _half_grid_rows(rng, rng.randint(2, 14))
        flags = [[rng.random() < 0.3 for _ in range(4)] for _ in rows]

        def doc(spell):
            return {"dim": 2, "axis": trial % 2, "rects": [
                {"x": [spell(r[0]), spell(r[1])], "y": [spell(r[2]), spell(r[3])], "open": f}
                for r, f in zip(rows, flags)]}

        def mixed(v):
            s = rng.choice(_spellings(v))
            if v == HALF:
                seen.add(repr(s))
            return s

        (want, pj), (got, pj2) = union_from_payload(doc(str)), union_from_payload(doc(mixed))
        assert pj == pj2 and got.rects == want.rects and got == want, trial
        assert jsonio.union_payload(got, pj) == jsonio.union_payload(want, pj)
        for axis in (0, 1):
            a, b = (sheaf_verdict(v, ProjectionJudge(axis)) for v in (got, want))
            assert a.candidates == b.candidates and a.is_sheaf == b.is_sheaf
            assert _cert_bytes(a.certificates) == _cert_bytes(b.certificates)
    assert {"'1/2'", "'2/4'", "'0.5'", "0.5"} <= seen, seen


def test_a_malformed_endpoint_is_refused_at_its_first_rectangle():
    """Parsing each spelling once changes no refusal: with a malformed
    endpoint in rectangles 0 and 3 (after valid ones in rectangle 0 and a
    repeat of the bad one), the refusal names rectangle 0 with the text
    that parsing every endpoint gives."""
    for bad in ("zz", "1/0", [1], {"a": 1}, float("nan"), float("inf"), None):
        rows = [{"x": ["0", "1/2"], "y": ["0", bad]}, {"x": ["1/2", "1"], "y": ["0", "1"]},
                {"x": [0.5, "1"], "y": ["0", "1/2"]}, {"x": [bad, "1"], "y": ["0", "1"]}]
        with pytest.raises(MalformedDocument) as exc:
            union_from_payload({"dim": 2, "rects": rows})
        assert str(exc.value) == (f"rectangle 0: y endpoints must be finite rationals, "
                                  f"got {['0', bad]!r}"), bad


def test_each_union_is_ranked_once(rng, monkeypatch):
    """The chain the benchmark times (a union read from its document, its
    verdicts on both axes, then a counterexample from each verdict's first
    certificate) ranks the union's endpoints once; a union built by hand
    is ranked on first use, once across its verdicts, a single abscissa and
    a counterexample."""
    calls = 0
    rank_grid = tame._rank_grid

    def counting(*args):
        nonlocal calls
        calls += 1
        return rank_grid(*args)

    monkeypatch.setattr(tame, "_rank_grid", counting)
    built = 0

    def chain(v):
        nonlocal built
        for axis in (0, 1):
            pj = ProjectionJudge(axis)
            cert = sheaf_verdict(v, pj).certificates[0]
            assert robustly_disconnected(v, pj, cert.t0) == cert
            two_patch_counterexample(v, pj, cert)
            built += 1

    for _ in range(20):
        rows = _half_grid_rows(rng, rng.randint(4, 30))
        # Two stacked boxes and two side by side certify both axes.
        rows += [[Fraction(v) for v in r] for r in ((9, 10, 0, 1), (9, 10, 2, 3),
                                                     (0, 1, 9, 10), (2, 3, 9, 10))]
        doc = {"dim": 2, "axis": 0, "rects": [
            {"x": [str(r[0]), str(r[1])], "y": [str(r[2]), str(r[3])]} for r in rows]}

        calls = 0
        u, _ = union_from_payload(doc)
        assert calls == 1
        chain(u)
        assert calls == 1
        calls = 0
        chain(RectUnion(2, tuple(box(*r) for r in rows)))
        assert calls == 1
    assert built == 80

"""The tame layer against its reference versions in ``tame_oracle``.

``rect_union`` replays the reference loop's merges without rescanning,
``sheaf_verdict`` takes its band widths and the boxes of each band in one
pass and works every band on the ranks of the endpoints, and ``components``
links boxes by a sweep along axis 0; all must give the reference results
exactly: the same normalized boxes, candidates, notes and certificates, and
the same band components.
"""

from fractions import Fraction
from itertools import product

from sheafmealy import jsonio, tame
from sheafmealy.tame import Interval, ProjectionJudge, Rect, RectUnion, interval

import tame_oracle as oracle


def _side(rng, span: int, open_share: float) -> Interval:
    """A quarter-grid interval, degenerate one time in eight."""
    lo = rng.randrange(0, 4 * span)
    hi = lo if rng.random() < 0.125 else rng.randrange(lo + 1, min(4 * span, lo + 6) + 1)
    return Interval(Fraction(lo, 4), Fraction(hi, 4),
                    rng.random() < open_share, rng.random() < open_share)


def _boxes(rng, dim: int, n: int, open_share: float) -> list[Rect]:
    span = rng.choice((2, 3, 10))
    return [Rect(_side(rng, span, open_share),
                 _side(rng, 3, open_share) if dim == 2 else None) for _ in range(n)]


def _cert_bytes(certs) -> list[bytes]:
    return [jsonio.canonical_bytes(jsonio.certificate_payload(c)) for c in certs]


def _strip_key(sc):
    return (sc.t0, sc.delta, sc.strip, sc.components, sc.meets_fiber)


def test_rect_union_replays_the_reference_merges(rng):
    merged = 0
    for trial in range(300):
        dim = 1 + trial % 2
        boxes = _boxes(rng, dim, rng.randint(1, 60), (0, 0.3, 0.7)[trial % 3])
        want = oracle.rect_union(dim, boxes)
        assert tame.rect_union(dim, boxes).rects == want.rects, trial
        merged += len(want.rects) < len([b for b in boxes if not b.empty])
    assert merged > 150


def test_sheaf_verdict_matches_the_per_candidate_reference(rng):
    seen = {"certificates": 0, "midpoint certificates": 0, "open": 0, "1-d": 0}
    for trial in range(72):
        dim = 1 if trial % 4 == 0 else 2
        share = (0, 0.3, 0.7)[trial % 3]
        u = tame.rect_union(dim, _boxes(rng, dim, rng.randint(1, 40), share))
        seen["1-d"] += dim == 1
        for axis in range(dim):
            pj = ProjectionJudge(axis)
            got, want = tame.sheaf_verdict(u, pj), oracle.sheaf_verdict(u, pj)
            assert got.candidates == want.candidates
            assert got.notes == want.notes
            assert got.is_sheaf == want.is_sheaf
            assert _cert_bytes(got.certificates) == _cert_bytes(want.certificates)
            seen["certificates"] += len(got.certificates)
            crit = set(tame.critical_values(u, axis))
            seen["midpoint certificates"] += sum(c.t0 not in crit for c in got.certificates)
            seen["open"] += len(got.notes) == 2
            ts = {c.t0 for c in got.certificates[:2]} | set(got.candidates[:2])
            for t in sorted(ts):
                assert _strip_key(tame.preimage_components_near(u, pj, t)) == _strip_key(
                    oracle.preimage_components_near(u, pj, t))
    assert seen["certificates"] > 100 and seen["midpoint certificates"] > 20
    assert seen["open"] > 20 and seen["1-d"] > 10


def test_sheaf_verdict_on_unnormalized_unions(rng):
    """The verdict reads the boxes as given: unmerged, repeated, empty."""
    for trial in range(40):
        boxes = _boxes(rng, 2, rng.randint(1, 25), (0, 0.3, 0.7)[trial % 3])
        boxes += [boxes[0], Rect(Interval(Fraction(1), Fraction(0)), boxes[0].y)]
        u = RectUnion(2, tuple(boxes))
        for axis in (0, 1):
            pj = ProjectionJudge(axis)
            got, want = tame.sheaf_verdict(u, pj), oracle.sheaf_verdict(u, pj)
            assert got.candidates == want.candidates
            assert _cert_bytes(got.certificates) == _cert_bytes(want.certificates)


def test_sheaf_verdict_builds_a_band_only_where_an_endpoint_certifies(rng, monkeypatch):
    """Cross-sections decide every candidate.  A gap's components are its
    fiber pieces times the band, so no gap builds a band; an endpoint's
    band is clipped, normalized and linked by ``_band`` only when its fiber
    splits, to build the certificate.  On the line no band is built."""
    calls = 0
    band = tame._band

    def counting(*args):
        nonlocal calls
        calls += 1
        return band(*args)

    monkeypatch.setattr(tame, "_band", counting)
    seen = {"endpoint certificates": 0, "gap certificates": 0, "1-d": 0}
    for trial in range(60):
        dim = 1 if trial % 4 == 0 else 2
        boxes = _boxes(rng, dim, rng.randint(1, 40), (0, 0.3, 0.7)[trial % 3])
        for u in (tame.rect_union(dim, boxes), RectUnion(dim, tuple(boxes))):
            seen["1-d"] += dim == 1
            for axis in range(dim):
                calls = 0
                v = tame.sheaf_verdict(u, ProjectionJudge(axis))
                crit = set(tame.critical_values(u, axis))
                ends = sum(c.t0 in crit for c in v.certificates)
                assert calls == (ends if dim == 2 else 0), trial
                seen["endpoint certificates"] += ends
                seen["gap certificates"] += len(v.certificates) - ends
    assert seen["endpoint certificates"] > 100 and seen["gap certificates"] > 20
    assert seen["1-d"] > 20


def _touching_pairs(rng, dim: int) -> list[Rect]:
    """Two boxes meeting at x = 2k + 1 for each of the four open/closed
    combinations of the shared edge, their other sides overlapping."""
    out = []
    for k, (left, right) in enumerate(product((False, True), repeat=2)):
        y = _side(rng, 3, 0.3) if dim == 2 else None
        out += [Rect(interval(2 * k, 2 * k + 1, rng.random() < 0.3, left), y),
                Rect(interval(2 * k + 1, 2 * k + 2, right, rng.random() < 0.3),
                     interval(y.lo, y.hi + 1, y.lo_open, rng.random() < 0.3) if y else None)]
    return out


def test_sheaf_verdict_where_neighbouring_bands_share_an_end(rng):
    """Judged-axis endpoints 0, 1, 3, 4, 6, 7: neighbouring gaps in a 2:1
    ratio, so one candidate's band ends where the next one's begins (at 1
    the band is (1/2, 3/2), at the midpoint 2 it is (3/2, 5/2)), and both
    bands take that end from one entry of the rank table.  The unions come
    normalized and raw, with a repeated box, an empty box and boxes touching
    under each combination of open flags."""
    ends = [Fraction(v) for v in (0, 1, 3, 4, 6, 7)]

    def side() -> Interval:
        lo, hi = sorted(rng.sample(range(len(ends)), 2))
        if rng.random() < 0.1:
            hi = lo
        return Interval(ends[lo], ends[hi], rng.random() < 0.4, rng.random() < 0.4)

    seen = {"certificates": 0, "shared ends": 0}
    for trial in range(48):
        dim = 1 if trial % 4 == 0 else 2
        boxes = [Rect.of(side() for _ in range(dim)) for _ in range(rng.randint(1, 14))]
        for left, right in product((False, True), repeat=2):
            k, y = rng.randrange(1, len(ends) - 1), side()
            boxes += [Rect.of((Interval(ends[k - 1], ends[k], False, left), y)[:dim]),
                      Rect.of((Interval(ends[k], ends[k + 1], right, False), y)[:dim])]
        boxes += [boxes[0], Rect.of((Interval(ends[2], ends[1]),) * dim)]
        for u in (tame.rect_union(dim, boxes), RectUnion(dim, tuple(boxes))):
            for axis in range(dim):
                pj = ProjectionJudge(axis)
                got, want = tame.sheaf_verdict(u, pj), oracle.sheaf_verdict(u, pj)
                assert got.candidates == want.candidates, trial
                assert _cert_bytes(got.certificates) == _cert_bytes(want.certificates), trial
                seen["certificates"] += len(got.certificates)
                bands = {(c.n_lo, c.n_hi) for c in got.certificates}
                seen["shared ends"] += any(hi == lo for _, hi in bands for lo, _ in bands)
                for t in got.candidates:
                    assert _strip_key(tame.preimage_components_near(u, pj, t)) == _strip_key(
                        oracle.preimage_components_near(u, pj, t)), (trial, t)
    assert seen["certificates"] > 40 and seen["shared ends"] > 5


def test_components_match_the_pairwise_reference(rng):
    """The sweep links exactly the pairs the reference's scan of all pairs
    links, on normalized and raw unions whose boxes share axis-0 endpoints
    with every combination of open and closed sides there.  The raw unions
    hold no empty box: the library gives one a component of its own with no
    boxes, the reference links it on the line, and neither is a region."""
    split = 0
    for trial in range(200):
        dim = 1 + trial % 2
        boxes = _boxes(rng, dim, rng.randint(1, 30), (0, 0.3, 0.7)[trial % 3])
        boxes += _touching_pairs(rng, dim)
        raw = RectUnion(dim, tuple(b for b in boxes if not b.empty))
        for u in (tame.rect_union(dim, boxes), raw):
            want = oracle.components(u)
            assert tame.components(u) == want, trial
            split += len(want) > 1
    assert split > 300


def test_components_links_a_row_of_boxes_in_linear_time(monkeypatch):
    """200 boxes in a row along axis 0, each meeting the next at a closed
    edge, form one component.  The sweep tests each box against the boxes
    still open at its low end, one here; a test of all pairs makes 19,900."""
    n = 200
    u = tame.rect_union(2, [Rect(interval(k, k + 1), interval(k % 2, k % 2 + 2))
                            for k in range(n)])
    assert len(u.rects) == n
    tests = 0
    linked = tame._rects_linked

    def counting(a, b):
        nonlocal tests
        tests += 1
        return linked(a, b)

    monkeypatch.setattr(tame, "_rects_linked", counting)
    assert len(tame.components(u)) == 1
    assert tests < 2 * n


def test_rect_union_merge_attempts_stay_linear(rng, monkeypatch):
    """Normalizing 320 quarter-grid boxes tries fewer than five merges per
    box; the reference loop, which rescans after every merge, tries over a
    million on unions like this one."""
    rows = []
    for _ in range(320):
        x0, y0 = rng.randrange(0, 8), rng.randrange(0, 40)
        x1, y1 = rng.randrange(x0 + 1, min(8, x0 + 8) + 1), rng.randrange(y0 + 1, min(40, y0 + 12) + 1)
        rows.append({"x": [f"{x0}/4", f"{x1}/4"], "y": [f"{y0}/4", f"{y1}/4"],
                     "open": [rng.random() < 0.3 for _ in range(4)]})
    attempts = 0
    try_merge = tame._try_merge

    def counting(a, b):
        nonlocal attempts
        attempts += 1
        return try_merge(a, b)

    monkeypatch.setattr(tame, "_try_merge", counting)
    u, _ = tame.union_from_payload({"dim": 2, "axis": 0, "rects": rows})
    assert attempts < 5 * len(rows)
    assert len(u.rects) < len(rows)


def test_merge_intervals_matches_the_atom_grid(rng):
    """The library's sweep gives the components that membership on the
    grid of atoms gives, on lists where open and closed starts tie."""
    ties = 0
    for trial in range(2000):
        parts = [_side(rng, 2, 0.5) for _ in range(rng.randint(0, 6))]
        starts = [p.lo for p in parts if not p.empty]
        ties += len(starts) > len(set(starts))
        assert tame.merge_intervals(parts) == oracle.merge_intervals(parts), (trial, parts)
    assert ties > 500


def test_regions_equal_matches_the_atom_grid(rng):
    """Fibers at the candidate abscissae decide equality exactly as the
    reference's grid of atoms does.  First a fixed case: [0,1]x(4,6] lies
    inside [0,2]x[4,7), so dropping it leaves the region as it was."""
    a = Rect(interval(0, 3), interval(3, 4, False, True))
    b = Rect(interval(0, 1), interval(4, 6, True, False))
    c = Rect(interval(0, 2), interval(4, 7, False, True))
    for u in (RectUnion(2, (a, b, c)), tame.rect_union(2, [a, b, c])):
        assert oracle.regions_equal(u, RectUnion(2, (a, c)))
        assert tame.regions_equal(u, tame.rect_union(2, [a, c]))
    seen = {True: 0, False: 0}
    for trial in range(300):
        dim = 1 + trial % 2
        share = (0, 0.3, 0.7)[trial % 3]
        boxes = _boxes(rng, dim, rng.randint(1, 20), share)
        u = tame.rect_union(dim, boxes)
        for other in (RectUnion(dim, tuple(boxes)), RectUnion(dim, tuple(boxes[1:])),
                      tame.rect_union(dim, _boxes(rng, dim, rng.randint(0, 3), share))):
            want = oracle.regions_equal(u, other)
            assert tame.regions_equal(u, other) == tame.regions_equal(other, u) == want, trial
            seen[want] += 1
    assert seen[True] > 300 and seen[False] > 300

"""The tame layer against its reference versions in ``tame_oracle``.

``rect_union`` replays the reference loop's merges without rescanning, and
``sheaf_verdict`` takes its band widths and the boxes of each band in one
pass; both must give the reference results exactly: the same normalized
boxes, candidates, notes and certificates, and the same band components.
"""

from fractions import Fraction

from sheafmealy import jsonio, tame
from sheafmealy.tame import Interval, ProjectionJudge, Rect, RectUnion

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


def test_regions_equal_matches_the_atom_grid(rng):
    """Fibers at the candidate abscissae decide equality exactly as the
    reference's grid of atoms does."""
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

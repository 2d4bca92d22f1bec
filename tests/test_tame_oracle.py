"""The tame layer against its reference versions in ``tame_oracle``.

``rect_union`` replays the reference loop's merges without rescanning,
``sheaf_verdict`` reads judged-axis ranks off the candidate index, takes
the boxes of each band in one pass and works every band on ranks, and
``components`` links boxes by a sweep along axis 0; all must give the
reference results exactly: the same normalized boxes, candidates, notes
and certificates.
``robustly_disconnected`` decides a single abscissa on the same rank grid
and must give the reference's certificate, or None, at every candidate and
off the midpoints of the gaps.  ``two_patch_counterexample`` cuts on ranks
and must give the reference's samples, cut on rationals, byte for byte.
``fiber`` reads the grid and must give the reference's fiber everywhere;
sides stay cell runs, and an ``Interval`` is built only for the output.
``_fiber_splits`` decides an endpoint by one closure comparison per gap
between consecutive fiber pieces and must give the answer of the
reference's union-find over the fiber and side pieces.
"""

from fractions import Fraction
from itertools import product

from sheafmealy import fixtures as fx
from sheafmealy import jsonio, tame
from sheafmealy.tame import Interval, ProjectionJudge, Rect, RectUnion

import tame_oracle as oracle
from tame_oracle import interval


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


def _robust_matches(u, pj, candidates) -> int:
    """Hold ``robustly_disconnected`` to the reference, certificate bytes or
    None, at every candidate and at the point ``(3a + b) / 4`` of every gap
    ``(a, b)`` between endpoints; the number of certificates off the
    candidates."""
    crit = candidates[::2]
    quarters = [(3 * a + b) / 4 for a, b in zip(crit, crit[1:])]
    found = 0
    for t in [*candidates, *quarters]:
        got, want = tame.robustly_disconnected(u, pj, t), oracle.robustly_disconnected(u, pj, t)
        assert (got is None) == (want is None), t
        if got is not None:
            assert _cert_bytes([got]) == _cert_bytes([want]), t
            found += t in quarters
    return found


def test_rect_union_replays_the_reference_merges(rng):
    merged = 0
    for trial in range(300):
        dim = 1 + trial % 2
        boxes = _boxes(rng, dim, rng.randint(1, 60), (0, 0.3, 0.7)[trial % 3])
        want = oracle.rect_union(dim, boxes)
        assert tame.rect_union(dim, boxes).rects == want.rects, trial
        merged += len(want.rects) < len([b for b in boxes if not b.empty])
    assert merged > 150


def _union_bytes(u: RectUnion) -> bytes:
    return jsonio.canonical_bytes(jsonio.union_payload(u, ProjectionJudge(0)))


def _strip(rng, n: int) -> list[Rect]:
    """The clipped-strip shape: four boxes in five share their side on one
    axis, so one coface group of the other axis holds most of the boxes."""
    axis, band = rng.randrange(2), _side(rng, 3, 0.5)
    boxes = []
    for _ in range(n):
        own = band if rng.random() < 0.8 else _side(rng, 3, 0.5)
        free = _side(rng, 10, 0.4)
        boxes.append(Rect.of((own, free) if axis == 0 else (free, own)))
    return boxes


def test_rect_union_matches_the_reference_on_strips_repeats_and_the_line(rng):
    """Byte-identical normalized documents on three shapes that load one
    coface group: clipped strips, unions drawn with repetition from a few
    boxes, and unions on the line, where every box shares the empty
    coface."""
    seen = {"strip": 0, "repeats": 0, "1-d": 0}
    for trial in range(240):
        kind = ("strip", "repeats", "1-d")[trial % 3]
        share = (0, 0.3, 0.7)[trial // 3 % 3]
        if kind == "strip":
            boxes, dim = _strip(rng, rng.randint(2, 50)), 2
        elif kind == "repeats":
            dim = 1 + trial // 3 % 2
            pool = _boxes(rng, dim, rng.randint(1, 6), share)
            boxes = [rng.choice(pool) for _ in range(rng.randint(2, 40))]
        else:
            boxes, dim = _boxes(rng, 1, rng.randint(2, 80), share), 1
        want = oracle.rect_union(dim, boxes)
        assert _union_bytes(tame.rect_union(dim, boxes)) == _union_bytes(want), trial
        seen[kind] += len(want.rects) < len([b for b in boxes if not b.empty])
    assert min(seen.values()) > 50, seen


def test_sheaf_verdict_where_bands_overlap_their_neighbours(rng):
    """Neighbouring gaps on the judged axis in ratios from 1:1 to 1:1000,
    either way round.  An endpoint's band is half its nearer gap wide, so
    where the gap before it is over half the gap after it, the band passes
    the start of the next midpoint's band (a quarter of that gap wide); the
    ranks give each band its own three ranks regardless.  Certificates must
    be the reference's byte for byte, and neighbouring certifying bands
    must overlap many times."""
    seen = {"certificates": 0, "overlaps": 0}
    for trial in range(40):
        gaps = []
        for _ in range(rng.randint(1, 3)):
            pair = [Fraction(1, 4), Fraction(rng.choice((1, 3, 10, 100, 1000)), 4)]
            rng.shuffle(pair)
            gaps += pair
        ends = [Fraction(rng.randrange(8), 4)]
        for g in gaps:
            ends.append(ends[-1] + g)

        axis = trial % 2

        def box() -> Rect:
            lo, hi = sorted(rng.sample(range(len(ends)), 2))
            sides = (Interval(ends[lo], ends[hi], rng.random() < 0.3, rng.random() < 0.3),
                     _side(rng, 3, 0.3))
            return Rect.of(sides if axis == 0 else sides[::-1])

        boxes = [box() for _ in range(rng.randint(2, 12))]
        for u in (tame.rect_union(2, boxes), RectUnion(2, tuple(boxes))):
            pj = ProjectionJudge(axis)
            got, want = tame.sheaf_verdict(u, pj), oracle.sheaf_verdict(u, pj)
            assert got.candidates == want.candidates, trial
            assert _cert_bytes(got.certificates) == _cert_bytes(want.certificates), trial
            certs, crit = got.certificates, set(tame.critical_values(u, axis))
            seen["certificates"] += len(certs)
            seen["overlaps"] += sum(a.t0 in crit and a.n_hi > b.n_lo
                                    for a, b in zip(certs, certs[1:]))
    assert seen["certificates"] > 100 and seen["overlaps"] > 40, seen


def test_sheaf_verdict_matches_the_per_candidate_reference(rng):
    seen = {"certificates": 0, "midpoint certificates": 0, "quarter certificates": 0,
            "open": 0, "1-d": 0}
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
            seen["quarter certificates"] += _robust_matches(u, pj, got.candidates)
    assert seen["certificates"] > 100 and seen["midpoint certificates"] > 20
    assert seen["quarter certificates"] > 200
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


def _seeded_unions(rng, trials: int):
    """Seeded quarter-grid unions, one trial in four on the line, each
    normalized and raw, with every axis they can be judged on."""
    for trial in range(trials):
        dim = 1 if trial % 4 == 0 else 2
        boxes = _boxes(rng, dim, rng.randint(1, 30), (0, 0.3, 0.7)[trial % 3])
        for u in (tame.rect_union(dim, boxes), RectUnion(dim, tuple(boxes))):
            for axis in range(dim):
                yield trial, u, ProjectionJudge(axis)


def test_robustly_disconnected_builds_a_band_only_where_an_endpoint_certifies(rng, monkeypatch):
    """``robustly_disconnected`` decides its band as ``sheaf_verdict``
    does: ``_band`` runs exactly when it returns a certificate at an
    endpoint, and never at a gap or on the line."""
    calls = 0
    band = tame._band

    def counting(*args):
        nonlocal calls
        calls += 1
        return band(*args)

    monkeypatch.setattr(tame, "_band", counting)
    seen = {"endpoint certificates": 0, "gap certificates": 0, "1-d": 0}
    for trial, u, pj in _seeded_unions(rng, 40):
        seen["1-d"] += u.dim == 1
        crit = set(tame.critical_values(u, pj.axis))
        for t in tame.sheaf_verdict(u, pj).candidates:
            calls = 0
            cert = tame.robustly_disconnected(u, pj, t)
            endpoint = cert is not None and t in crit
            assert calls == endpoint, (trial, t)
            seen["endpoint certificates"] += endpoint
            seen["gap certificates"] += cert is not None and not endpoint
    assert seen["endpoint certificates"] > 200 and seen["gap certificates"] > 200
    assert seen["1-d"] > 10


def test_verdict_and_single_abscissa_agree_without_fiber(rng, monkeypatch):
    """At every candidate ``robustly_disconnected``, deciding that abscissa
    alone, returns the certificate of the verdict, or None where the
    verdict has none.  Neither calls ``fiber``: the fiber point of each
    component comes from the fiber pieces that decided its band."""

    def no_fiber(*args):
        raise AssertionError("fiber was called")

    monkeypatch.setattr(tame, "fiber", no_fiber)
    certified = 0
    for trial, u, pj in _seeded_unions(rng, 40):
        v = tame.sheaf_verdict(u, pj)
        certs = {c.t0: c for c in v.certificates}
        for t in v.candidates:
            assert tame.robustly_disconnected(u, pj, t) == certs.get(t), (trial, t)
        certified += len(certs)
    assert certified > 400


def test_on_the_line_no_endpoint_is_ranked_and_no_band_measured(rng, monkeypatch):
    """On the line a fiber is at most one point and never splits, so
    ``sheaf_verdict`` and ``robustly_disconnected`` answer from the
    candidates alone, which the union's rank grid gives: with ``_split``
    (which decides a band on ranks beyond the grid) and ``_width`` (which
    measures a band) refusing to run, both still return and match the
    reference, at every candidate and off the midpoints of the gaps."""

    def refuse(*args):
        raise AssertionError("a verdict on the line decided or measured a band")

    for name in ("_split", "_width"):
        monkeypatch.setattr(tame, name, refuse)
    seen = {"raw": 0, "open": 0}
    for trial in range(60):
        boxes = _boxes(rng, 1, rng.randint(1, 200), (0, 0.3, 0.7)[trial % 3])
        for u in (tame.rect_union(1, boxes), RectUnion(1, tuple(boxes))):
            pj = ProjectionJudge(0)
            got, want = tame.sheaf_verdict(u, pj), oracle.sheaf_verdict(u, pj)
            assert got == want, trial
            assert got.is_sheaf and not got.certificates
            assert _robust_matches(u, pj, got.candidates) == 0
            seen["raw"] += u.rects != tame.rect_union(1, u.rects).rects
            seen["open"] += len(got.notes) == 2
    assert seen["raw"] > 20 and seen["open"] > 20


def test_preimage_components_delta_stability():
    """The reference's band components and fiber marks are the same for
    the default width and for a half and a quarter of it."""
    for u, pj in (fx.punctured_square_objects(), fx.two_band_objects()):
        for t0 in tame.sheaf_verdict(u, pj).candidates:
            sc = oracle.preimage_components_near(u, pj, t0)
            half_width = oracle.preimage_components_near(u, pj, t0, sc.delta / 2)
            quarter = oracle.preimage_components_near(u, pj, t0, sc.delta / 4)
            assert len(sc.components) == len(half_width.components)
            assert sc.meets_fiber == half_width.meets_fiber
            assert sc.meets_fiber == quarter.meets_fiber


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

    seen = {"certificates": 0, "shared ends": 0, "quarter certificates": 0}
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
                seen["quarter certificates"] += _robust_matches(u, pj, got.candidates)
    assert seen["certificates"] > 40 and seen["shared ends"] > 5
    assert seen["quarter certificates"] > 20


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
    """Normalizing 320 quarter-grid boxes makes fewer than five linkage
    tests per box: each row scans its coface groups only from the first
    slot in range to the first linked one.  The reference loop, which
    rescans after every merge, tries over a million merges on unions like
    this one."""
    rows = []
    for _ in range(320):
        x0, y0 = rng.randrange(0, 8), rng.randrange(0, 40)
        x1, y1 = rng.randrange(x0 + 1, min(8, x0 + 8) + 1), rng.randrange(y0 + 1, min(40, y0 + 12) + 1)
        rows.append({"x": [f"{x0}/4", f"{x1}/4"], "y": [f"{y0}/4", f"{y1}/4"],
                     "open": [rng.random() < 0.3 for _ in range(4)]})
    tests = 0
    linked = tame._linked_1d

    def counting(a, b):
        nonlocal tests
        tests += 1
        return linked(a, b)

    monkeypatch.setattr(tame, "_linked_1d", counting)
    u, _ = tame.union_from_payload({"dim": 2, "axis": 0, "rects": rows})
    assert tests < 5 * len(rows)
    assert len(u.rects) < len(rows)


def test_merge_intervals_matches_the_atom_grid(rng):
    """The library's sweep gives the components that membership on the
    grid of atoms gives, on lists where open and closed starts tie."""
    ties = 0
    for trial in range(2000):
        parts = [_side(rng, 2, 0.5) for _ in range(rng.randint(0, 6))]
        starts = [p.lo for p in parts if not p.empty]
        ties += len(starts) > len(set(starts))
        assert oracle.library_merge(parts) == oracle.merge_intervals(parts), (trial, parts)
    assert ties > 500


def test_linkage_of_two_intervals_matches_the_atom_grid():
    """Two non-empty intervals are linked exactly when the grid of atoms
    makes their union one interval: every pair on four points, with every
    combination of open and closed ends."""
    sides = [s for s in (Interval(Fraction(lo), Fraction(hi), a, b)
                         for lo in range(4) for hi in range(lo, 4)
                         for a, b in product((False, True), repeat=2)) if not s.empty]
    for a, b in product(sides, repeat=2):
        runs = [r[0] for r in tame._rank_grid(1, [Rect(a), Rect(b)])[1]]
        assert tame._linked_1d(*runs) == (len(oracle.merge_intervals([a, b])) == 1), (a, b)


def test_counterexamples_match_the_rational_cut(rng):
    """Every certificate's counterexample, cut and sampled on ranks, gives
    the samples that cutting the closed band out on rationals gives, byte
    for byte, and the same obstruction: at endpoint certificates, whose cuts
    fall in the gaps on either side, and at gap certificates, whose two cuts
    fall in one gap."""
    seen = {"endpoint": 0, "gap": 0}
    for trial, u, pj in _seeded_unions(rng, 40):
        crit = set(tame.critical_values(u, pj.axis))
        for cert in tame.sheaf_verdict(u, pj).certificates:
            got = tame.two_patch_counterexample(u, pj, cert)
            want = oracle.two_patch_counterexample(u, pj, cert)
            assert repr(got.samples) == repr(want.samples), (trial, cert.t0)
            assert got.obstruction == want.obstruction, (trial, cert.t0)
            assert got.assignments == want.assignments
            seen["endpoint" if cert.t0 in crit else "gap"] += 1
    assert seen["endpoint"] > 200 and seen["gap"] > 200, seen


def test_fiber_reads_the_grid(rng, monkeypatch):
    """``fiber`` places ``t`` on the union's grid by one bisection, merges
    the runs over it and reads the pieces back; it must give the fiber that
    the reference reads off the boxes, at every candidate, at the point
    ``(3a + b) / 4`` of every gap ``(a, b)``, and below and above every
    endpoint, on normalized and raw unions with open and closed edges, on
    the line and in the plane."""
    calls = 0
    position = tame._position

    def counting(*args):
        nonlocal calls
        calls += 1
        return position(*args)

    monkeypatch.setattr(tame, "_position", counting)
    seen = {"split": 0, "open ends": 0, "empty": 0, "1-d": 0}
    for trial, u, pj in _seeded_unions(rng, 60):
        crit = tame.critical_values(u, pj.axis)
        quarters = [(3 * a + b) / 4 for a, b in zip(crit, crit[1:])]
        outside = [crit[0] - 1, crit[-1] + 1] if crit else [Fraction(0)]
        for t in [*tame.sheaf_verdict(u, pj).candidates, *quarters, *outside]:
            calls = 0
            got = tame.fiber(u, pj, t)
            assert got == oracle.fiber(u, pj, t), (trial, t)
            assert calls == 1, (trial, t)
            seen["split"] += len(got) > 1
            seen["open ends"] += any(p.lo_open or p.hi_open for p in got)
            seen["empty"] += not got
            seen["1-d"] += u.dim == 1
    assert min(seen.values()) > 100, seen


def test_interval_is_an_output_type_only(rng, monkeypatch):
    """On unions whose grid exists, sides stay runs of cells until they are
    output: a verdict or a single abscissa with no certificate, and every
    counterexample, build no ``Interval``; a certificate builds two for each
    box of its components."""
    built = 0

    class Counted(tame.Interval):
        __slots__ = ()

        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    def sides(certs) -> int:
        return 2 * sum(len(comp.rects) for cert in certs for comp in cert.components)

    seen = {"plane verdicts without certificates": 0, "certificates": 0}
    for trial, u, pj in _seeded_unions(rng, 40):
        tame.critical_values(u, pj.axis)
        with monkeypatch.context() as m:
            m.setattr(tame, "Interval", Counted)
            built = 0
            v = tame.sheaf_verdict(u, pj)
            assert built == sides(v.certificates), trial
            for t in v.candidates:
                built = 0
                cert = tame.robustly_disconnected(u, pj, t)
                assert built == sides([cert] if cert else []), (trial, t)
            for cert in v.certificates:
                built = 0
                tame.two_patch_counterexample(u, pj, cert)
                assert built == 0, (trial, cert.t0)
        seen["plane verdicts without certificates"] += u.dim == 2 and not v.certificates
        seen["certificates"] += len(v.certificates)
    assert seen["plane verdicts without certificates"] > 5 and seen["certificates"] > 500, seen


def _endpoint_splits(u: RectUnion, axis: int) -> list[tuple[bool, bool]]:
    """At each endpoint on ``axis``, the library's split test and the
    reference's, given the boxes whose judged sides reach it."""
    boxes = tame._grid_of(u).boxes
    out = []
    for i in range(len(tame.critical_values(u, axis))):
        near = [r for r in boxes if r[axis].lo <= 4 * i <= r[axis].hi]
        out.append((tame._fiber_splits(near, axis, 4 * i), oracle.fiber_splits(near, axis, 4 * i)))
    return out


def test_fiber_splits_matches_the_union_find(rng):
    """The gap rule gives the union-find's answer at every endpoint of
    seeded plane unions, closed and with open edges, on both axes."""
    seen = {"splits": 0, "joined": 0}
    for trial in range(300):
        boxes = _boxes(rng, 2, rng.randint(3, 30), (0, 0.3, 0.7)[trial % 3])
        for u in (tame.rect_union(2, boxes), RectUnion(2, tuple(boxes))):
            for axis in (0, 1):
                for got, want in _endpoint_splits(u, axis):
                    assert got == want, (trial, axis)
                    seen["splits" if got else "joined"] += 1
    assert min(seen.values()) > 1000, seen


def _splits_at(rects: list[Rect], t) -> bool:
    """The split test at the endpoint ``t`` on axis 0, held to the reference."""
    u = tame.rect_union(2, rects)
    at = tame.critical_values(u, 0).index(Fraction(t))
    got, want = _endpoint_splits(u, 0)[at]
    assert got == want
    return got


def test_fiber_splits_hand_cases():
    # Judged on axis 0 at x = 1: fiber pieces are boxes over [1, 2], side
    # pieces left of the fiber are boxes over [0, 1).
    q, over, left = Fraction(1, 4), interval(1, 2), interval(0, 1, hi_open=True)
    # Fiber pieces [0, 1] and [2, 3]; a side piece (1, 2) touches each only
    # through its closure's open ends.
    pieces = [Rect(over, interval(0, 1)), Rect(over, interval(2, 3))]
    assert not _splits_at([*pieces, Rect(left, interval(1, 2, True, True))], 1)
    # Fiber pieces open at 1 and 2: the closed side piece [1, 2] meets
    # neither, and [1/2, 3/2] meets only the lower one.
    open_pieces = [Rect(over, interval(0, 1, hi_open=True)),
                   Rect(over, interval(2, 3, lo_open=True))]
    assert _splits_at([*open_pieces, Rect(left, interval(1, 2))], 1)
    assert _splits_at([*open_pieces, Rect(left, interval(2 * q, 6 * q))], 1)
    # Two gaps, each bridged by its own side piece: [1/2, 5/2] and [11/4, 17/4].
    rows = [Rect(over, interval(2 * k, 2 * k + 1)) for k in range(3)]
    bridges = [Rect(left, interval(2 * q, 10 * q)), Rect(left, interval(11 * q, 17 * q))]
    assert not _splits_at([*rows, *bridges], 1)
    assert _splits_at([*rows, bridges[0]], 1) and _splits_at([*rows, bridges[1]], 1)
    # A single fiber piece never splits.
    assert not _splits_at([Rect(interval(0, 2), interval(0, 1)),
                           Rect(interval(1, 3), interval(2 * q, 3))], 1)
    # Long rows [0, 8] x [3k, 3k + 1] crossed by ticks [2k, 2k + 1] x [-2, -1]:
    # each row meets only its own fiber piece, so the first gap splits.
    long_rows = [Rect(interval(0, 8), interval(3 * k, 3 * k + 1)) for k in range(4)]
    ticks = [Rect(interval(2 * k, 2 * k + 1), interval(-2, -1)) for k in range(4)]
    assert all(_splits_at([*long_rows, *ticks], t) for t in (0, 2, 3, 8))

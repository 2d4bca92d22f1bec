"""Tests of the benchmark's own reference computations.

    python3 -m pytest bench/test_oracles.py -q
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import wl_chain  # noqa: E402
import wl_eps  # noqa: E402
import wl_rect  # noqa: E402

ALPHA = wl_chain.ALPHA


def _chain(n, prefix="c"):
    states = [f"{prefix}{k}" for k in range(n)]
    return states, wl_chain.chain_table(states)


def test_product_search_equal_copies():
    states, d = _chain(12)
    d2, ren = wl_chain.renamed(d, "x")
    starts = [(s, ren[s]) for s in states]
    assert oracles.shortest_split(d, states, d2, list(ren.values()), ALPHA, starts) is None


def test_product_search_finds_planted_depth():
    for n, k in ((10, 3), (20, 15), (40, 36)):
        states, d = _chain(n)
        d2, ren = wl_chain.renamed(d, "x")
        s2, o = d2[(ren[states[k]], "b")]
        d2[(ren[states[k]], "b")] = (s2, "1" if o == "0" else "0")
        got = oracles.shortest_split(d, states, d2, list(ren.values()), ALPHA,
                                     [(states[0], ren[states[0]])])
        # a^k reaches the planted state, then b splits the outputs
        assert got == k + 1
        word = ("a",) * k + ("b",)
        assert oracles.replay(d, states[0], word) != oracles.replay(d2, ren[states[0]], word)


def test_product_search_mixed_word_plant():
    rng = random.Random(3)
    states, d = wl_chain.base_table("random", 15, rng)
    d2, st2, ren = wl_chain.mixed_copy(d, states, "mixed")
    starts = [(s, ren[s]) for s in states]
    for letter in ALPHA:
        assert oracles.shortest_split(d, states, d2, st2, (letter,), starts) is None
    assert oracles.shortest_split(d, states, d2, st2, ALPHA, starts) <= 3


def test_behavior_classes_count_planted_duplicates():
    states, d = _chain(9)
    d = dict(d)
    for c in ALPHA:
        d[("dup", c)] = d[(states[4], c)]
    d[(states[3], "a")] = ("dup", d[(states[3], "a")][1])
    classes = oracles.behavior_classes([(d, states + ["dup"])], ALPHA)
    assert len(classes) == 9
    assert frozenset({(0, "dup"), (0, states[4])}) in classes


def test_core_closure_copy_and_difference():
    states, d = _chain(8)
    d2, ren = wl_chain.renamed(d, "x")
    seeds = [(s, ren[s]) for s in states]
    assert oracles.core_closure(d, d2, ALPHA, seeds) == set(seeds)
    s2, o = d2[(ren[states[2]], "a")]
    d2[(ren[states[2]], "a")] = (s2, "1")
    assert oracles.core_closure(d, d2, ALPHA, seeds) is None


def test_grid_check_flags_f2():
    where, best = oracles.box_grid_minimax(wl_eps.F2_BOX, wl_eps.F2_TARGETS, wl_eps.GRID)
    assert best < wl_eps.F2_EPS
    assert abs(best - 2.0973) < 1e-3
    assert all(math.dist(where, p) <= best + 1e-12 for p in wl_eps.F2_TARGETS)


def test_grid_check_flags_listed_near_radius_slots():
    near = random.Random(wl_eps.NEAR_SEED)
    for k, (domain, factor) in enumerate(wl_eps.NEAR):
        box, pts, radius = wl_eps.outside_targets(near, domain)
        if k not in wl_eps.NEAR_FAULTS:
            continue
        assert domain == "box"
        _, best = oracles.box_grid_minimax(box, pts, wl_eps.GRID)
        reported, grid_best = wl_eps.NEAR_FAULTS[k]
        assert abs(best - grid_best) < 1e-4
        # the grid proves a center within eps, below the reported radius
        assert radius <= best <= factor * radius < reported


def test_pruned_grid_search_matches_full_scan():
    rng = random.Random(5)
    steps = 45
    for _ in range(6):
        for domain in ("box", "simplex"):
            box, pts, _ = wl_eps.outside_targets(rng, domain)
            if domain == "box":
                (x0, x1), (y0, y1) = box
                grid = [(x0 + (x1 - x0) * i / steps, y0 + (y1 - y0) * j / steps)
                        for i in range(steps + 1) for j in range(steps + 1)]
                _, best = oracles.box_grid_minimax(box, pts, steps)
            else:
                grid = [(i / steps, j / steps, 1.0 - i / steps - j / steps)
                        for i in range(steps + 1) for j in range(steps + 1 - i)]
                _, best = oracles.simplex_grid_minimax(pts, steps)
            full = min(max(sum((c - q) ** 2 for c, q in zip(g, p)) for p in pts) for g in grid)
            assert best == math.sqrt(full)


def test_grid_check_passes_known_instances():
    rng = random.Random(11)
    for domain in ("box", "simplex"):
        for _ in range(3):
            box, pts, radius = wl_eps.outside_targets(rng, domain)
            if domain == "box":
                _, best = oracles.box_grid_minimax(box, pts, 200)
            else:
                _, best = oracles.simplex_grid_minimax(pts, 200)
            # the known center is optimal: the grid can only approach it
            assert radius - 1e-9 <= best <= radius * 1.02
            assert best > 0.85 * radius
            assert best <= 1.15 * radius


def test_enclosing_ball_enumeration_and_hull():
    tri = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
    c, r = oracles.meb_by_enumeration(tri)
    assert abs(r - 2 / math.sqrt(3.0)) < 1e-12
    assert oracles.in_convex_hull(tri, c)
    assert not oracles.in_convex_hull(tri[:2], c)


def test_band_components_two_band_and_punctured_square():
    two_band = [wl_rect.box(0, 1, 0, F(1, 4)), wl_rect.box(0, 1, F(3, 4), 1)]
    cands, robust = oracles.sheaf_reference(oracles.float_boxes(two_band), 0)
    assert set(robust) == {F(0), F(1, 2), F(1)}
    punctured = wl_rect.punctured(random.Random(0), 1)
    for axis in (0, 1):
        _, robust = oracles.sheaf_reference(oracles.float_boxes(punctured), axis)
        assert robust == {}
    bands = oracles.float_boxes(wl_rect.bands(random.Random(1), 3))
    assert oracles.robust_at(bands, 0, F(1, 8)) is not None


def test_regions_equal_after_merging():
    a = [wl_rect.box(0, 1, 0, 1), wl_rect.box(1, 2, 0, 1)]
    b = [wl_rect.box(0, 2, 0, 1)]
    assert oracles.regions_equal(a, b)
    assert not oracles.regions_equal(a, [wl_rect.box(0, 2, 0, 1, (False, True, False, False))])

"""Reference versions of the epsilon layer's ball solver and depth search.

``welzl_ball`` is the recursive randomized incremental solver (Welzl 1991):
the same dedupe, sort, shuffle and circumball subroutine as the library,
by default in the library's visiting order, but one recursion level per
point, so it needs a raised recursion limit on large sets.  ``combination_depth`` is the plain obstruction
search: the full family, then every subfamily of every size in
``itertools.combinations`` order, one ``feasibility`` solve per subfamily
and judged input.  The library recurses over the boundary only, stops at
the Helly number and skips the solves a bound decides; the seeded tests
hold it to these results, in the visiting orders they choose by setting
``epshelly._ORDER_SEED``.  ``basis_minimax`` solves the box and simplex
minimax problem apart from the library, with numpy least squares over
every candidate basis of rim points and tight facets.
``discrete_feasible`` and ``discrete_obstruction_depth`` decide the
discrete metric (exact-match explanations), whose Helly number is 2, in one
pass; the property suites check that bound with them.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Sequence

import numpy as np

from sheafmealy.epshelly import (
    _ORDER_SEED,
    Ball,
    DepthReport,
    _ball_contains,
    _check_eps,
    _circumball,
    feasibility,
    target_set,
)


def welzl_ball(points, seed=_ORDER_SEED) -> Ball:
    uniq = sorted({tuple(float(x) for x in p) for p in points})
    d = len(uniq[0])
    random.Random(seed).shuffle(uniq)

    def welzl(idx, boundary):
        if idx == len(uniq) or len(boundary) == d + 1:
            if not boundary:
                return None
            ball = _circumball(boundary)
            if ball is None:
                ball = _circumball(boundary[:-1])
            return ball
        ball = welzl(idx + 1, boundary)
        p = uniq[idx]
        if ball is not None and _ball_contains(ball, p):
            return ball
        return welzl(idx + 1, boundary + [p])

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * len(uniq) + 200))
    try:
        center, radius = welzl(0, [])
    finally:
        sys.setrecursionlimit(limit)
    return Ball(center, radius)


def _union_points(inst, patches, subset, i_prime):
    pts = set()
    for k in subset:
        pts.update(target_set(inst, i_prime, patches[k]).points)
    return tuple(sorted(pts))


def combination_depth(inst, patches, eps) -> DepthReport:
    marginal = False
    full_bad = None
    for i_prime in inst.interp_inputs:
        pts = _union_points(inst, patches, range(len(patches)), i_prime)
        if not pts:
            continue
        res = feasibility(inst, pts, eps)
        marginal = marginal or res.marginal
        if not res.feasible:
            full_bad = i_prime
            break
    if full_bad is None:
        return DepthReport(True, None, None, None, marginal)
    for size in range(1, len(patches) + 1):
        for combo in itertools.combinations(range(len(patches)), size):
            for i_prime in inst.interp_inputs:
                pts = _union_points(inst, patches, combo, i_prime)
                if not pts:
                    continue
                res = feasibility(inst, pts, eps)
                marginal = marginal or res.marginal
                if not res.feasible:
                    return DepthReport(False, size, combo, i_prime, marginal)
    return DepthReport(False, None, None, full_bad, marginal)


def basis_minimax(points, facets=(), simplex=False):
    """Center and radius of the smallest ball holding ``points`` whose center
    keeps every facet ``(axis, bound, side)`` and, for the simplex, has
    coordinate sum one, by trying every basis: each set of rim points and
    tight facets, at most d+1 constraints (d on the simplex).  Each center
    is the least-squares, least-norm solution of its equalities; the least
    radius whose center meets them, holds every point and keeps every facet
    wins."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    d = pts.shape[1]
    full = d if simplex else d + 1
    best = None
    for size in range(1, min(full, len(pts)) + 1):
        for rim in itertools.combinations(pts, size):
            p0 = rim[0]
            vs = [p - p0 for p in rim[1:]]
            for count in range(full - size + 1):
                for tight in itertools.combinations(facets, count):
                    rows = [2.0 * v for v in vs] + [np.eye(d)[axis] for axis, _, _ in tight]
                    rhs = [v @ v for v in vs] + [bound - p0[axis] for axis, bound, _ in tight]
                    if simplex:
                        rows.append(np.ones(d))
                        rhs.append(1.0 - p0.sum())
                    if not rows:
                        x = np.zeros(d)
                    else:
                        a, b = np.array(rows), np.array(rhs)
                        x = np.linalg.lstsq(a, b, rcond=None)[0]
                        if np.abs(a @ x - b).max() > 1e-9 * (1.0 + np.abs(b).max()):
                            continue
                    center, radius = p0 + x, float(np.linalg.norm(x))
                    if best is not None and radius >= best[1]:
                        continue
                    if np.linalg.norm(pts - center, axis=1).max() > radius * (1 + 1e-10) + 1e-12:
                        continue
                    if any(side * (center[axis] - bound) < -1e-12 for axis, bound, side in facets):
                        continue
                    best = center, radius
    return tuple(float(x) for x in best[0]), best[1]


def discrete_feasible(points: Sequence[Sequence[float]], eps: float) -> bool:
    """Feasibility under the discrete metric: some value is within ``eps``
    of every target exactly when the targets agree or ``eps`` allows a full
    mismatch (distance 1)."""
    _check_eps(eps)
    pts = {tuple(float(x) for x in p) for p in points}
    return len(pts) <= 1 or eps >= 1.0


def discrete_obstruction_depth(
    patch_points: Sequence[Sequence[Sequence[float]]], eps: float
) -> int | None:
    """Smallest jointly infeasible subfamily under the discrete metric, in
    one pass: None when the family is feasible, 1 when some patch forces
    two different exact values, otherwise 2 (two patches forcing different
    values), the Helly number of the discrete metric."""
    _check_eps(eps)
    parts = [{tuple(float(x) for x in p) for p in pts} for pts in patch_points]
    if eps >= 1.0 or len(set().union(*parts)) <= 1:
        return None
    return 1 if any(len(part) > 1 for part in parts) else 2

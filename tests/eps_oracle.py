"""Reference versions of the epsilon layer's ball solver and depth search.

``gram_minimax`` is the library's move-to-front solver with facets as it
stood before the boundary frame: the same dedupe, sort, shuffle by
``epshelly._ORDER_SEED``, facet recursion and refusal, but one plain
move-to-front pass with no pivot loop, and each recursive call solves the
Gram system of its whole boundary afresh in ``_circumball``.  Its points
are not visited in the library's order, so the tests compare only the
radius, and check containment on the library's ball alone.  ``welzl_ball`` is
the recursive randomized incremental solver (Welzl 1991) on that kernel,
shuffled by the same seed by default, but one recursion level per point,
so it needs a raised recursion limit on large sets.  ``combination_depth`` is the plain
obstruction search: the full family, then every subfamily of every size in
``itertools.combinations`` order, one ``feasibility`` solve per subfamily
and judged input.  ``pairwise_depth`` is the library's depth search as it
stood before it skipped the subfamilies Jung's bound clears from the pair
table: up to the Helly number, it reads every subfamily's diameter off that
table and hands every one to ``_certified``, solving where that cannot
decide.  The library recurses over the boundary only, stops at the Helly
number and skips the solves a bound decides; the seeded tests
hold it to these results, in the visiting orders they choose by setting
``epshelly._ORDER_SEED``.  ``basis_minimax`` solves the box and simplex
minimax problem apart from the library, with numpy least squares over
every candidate basis of rim points and tight facets.
``target_set`` reads one patch's target points for one judged input off
the library's ``_patch_targets``.  ``discrete_feasible`` and
``discrete_obstruction_depth`` decide the discrete metric (exact-match
explanations), whose Helly number is 2, in one pass; the property suites
check that bound with them.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from typing import Sequence

import numpy as np

from sheafmealy import CheckerError, epshelly
from sheafmealy.epshelly import (
    _ORDER_SEED,
    MEB_REL_TOL,
    Ball,
    DepthReport,
    _check_eps,
    _dot,
    _farthest,
    _patch_targets,
    feasibility,
)


def _ball_contains(ball, p) -> bool:
    """Whether ``ball`` holds ``p``, with the library's slack (1e-12
    relative, 1e-14 absolute); None holds no point."""
    if ball is None:
        return False
    center, r = ball
    return math.dist(center, p) <= r * (1.0 + MEB_REL_TOL) + 1e-14


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(matrix)
    a = [row[:] + [rhs[k]] for k, row in enumerate(matrix)]
    scale = max((abs(x) for row in matrix for x in row), default=0.0)
    if scale == 0.0:
        return None
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) <= 1e-13 * scale:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for cc in range(col, n + 1):
                a[r][cc] -= factor * a[col][cc]
    out = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][cc] * out[cc] for cc in range(r + 1, n))
        out[r] = s / a[r][r]
    return out


def _circumball(boundary, tight=(), simplex=False):
    """Smallest ball with the given points on its rim and its center on the
    ``tight`` facets (and at coordinate sum one for the simplex), from the
    Gram system of the points' offsets and the facet normals, these scaled
    to the longest offset so that the singularity test is free of scale;
    None when the constraints are dependent.  Tight coordinates are then
    set to their bounds."""
    p0 = boundary[0]
    vs = [tuple(x - y for x, y in zip(p, p0)) for p in boundary[1:]]
    gram = [[2.0 * _dot(vk, vl) for vl in vs] for vk in vs]
    rhs = [_dot(vk, vk) for vk in vs]
    normals = [tuple(float(k == axis) for k in range(len(p0))) for axis, _, _ in tight]
    if simplex:
        normals.append((1.0,) * len(p0))
    if not vs and not normals:
        return p0, 0.0
    if normals:
        s = math.sqrt(max(rhs, default=1.0))
        normals = [tuple(s * x for x in n) for n in normals]
        for row, vk in zip(gram, vs):
            row.extend(2.0 * _dot(vk, n) for n in normals)
        gram.extend([_dot(n, v) for v in vs + normals] for n in normals)
        rhs.extend(s * (bound - p0[axis]) for axis, bound, _ in tight)
        if simplex:
            rhs.append(s * (1.0 - sum(p0)))
    lam = _solve(gram, rhs)
    if lam is None:
        return None
    center = [x0 + sum(l * v[k] for l, v in zip(lam, vs + normals))
              for k, x0 in enumerate(p0)]
    for axis, bound, _ in tight:
        center[axis] = bound
    return tuple(center), math.dist(center, p0)


def gram_minimax(points, facets=(), simplex=False):
    """Center and radius of the smallest ball holding ``points`` whose
    center keeps every facet, by move-to-front on ``_circumball``."""
    uniq = sorted({tuple(float(x) for x in p) for p in points})
    random.Random(epshelly._ORDER_SEED).shuffle(uniq)
    full = len(uniq[0]) + (not simplex)

    def mtf(end, boundary, tight, outer):
        rim = (_circumball(boundary, tight, simplex) if boundary else None) or outer
        if len(boundary) + len(tight) == full:
            return rim
        ball = rim
        for k in range(end):
            p = uniq[k]
            if not _ball_contains(ball, p):
                ball = mtf(k, boundary + [p], tight, rim)
                uniq.insert(0, uniq.pop(k))
        return ball

    def keep(cut, tight):
        ball = mtf(len(uniq), [], tight, None)
        for j in range(cut):
            axis, bound, side = facets[j]
            if ball is not None and side * (ball[0][axis] - bound) < 0.0:
                ball = keep(j, tight + [facets[j]])
        return ball

    ball = keep(len(facets), [])
    if ball is None or not all(_ball_contains(ball, p) for p in uniq):
        raise CheckerError("ball computation failed")
    return ball


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


def target_set(inst, i_prime, patch) -> tuple[tuple[float, ...], ...]:
    """The sorted judged sample points a patch forces for one judged input;
    empty when the patch never sees it."""
    (pts,) = _patch_targets(inst, [patch]).get(i_prime, [set()])
    return tuple(sorted(pts))


def _union_points(inst, patches, subset, i_prime):
    pts = set()
    for k in subset:
        pts.update(target_set(inst, i_prime, patches[k]))
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


def pairwise_depth(inst, patches, eps, skip=None) -> DepthReport:
    """The depth search deciding every subfamily up to the Helly number,
    with ``epshelly._certified`` and ``epshelly.feasibility`` looked up at
    each call, so that a test can record them; ``skip(size, combo)``, when
    given, passes over the subfamilies it is true for."""
    _check_eps(eps)
    n = len(patches)
    helly = inst.dim if inst.domain == "simplex" else inst.dim + 1
    sizes = range(1, min(helly, n) + 1)
    if sum(math.comb(n, size) for size in sizes) > epshelly.MAX_SUBFAMILIES:
        raise epshelly.ScaleExceeded(
            f"obstruction search over {n} patches up to size {helly} "
            f"exceeds {epshelly.MAX_SUBFAMILIES} subfamilies"
        )
    targets = _patch_targets(inst, patches)
    marginal = False
    full_bad = None
    for i_prime in inst.interp_inputs:
        pts = set().union(*targets[i_prime])
        if not pts:
            continue
        res = epshelly.feasibility(inst, sorted(pts), eps)
        marginal = marginal or res.marginal
        if not res.feasible:
            full_bad = i_prime
            break
    if full_bad is None:
        return DepthReport(True, None, None, None, marginal)
    far = {i_prime: {(k, k): _farthest(t, t) for k, t in enumerate(groups)}
           for i_prime, groups in targets.items()}
    for size in sizes:
        if size == 2:
            for i_prime, groups in targets.items():
                far[i_prime].update(
                    ((a, b), _farthest(groups[a], groups[b]))
                    for a, b in itertools.combinations(range(n), 2)
                )
        for combo in itertools.combinations(range(n), size):
            if skip is not None and skip(size, combo):
                continue
            pairs = list(itertools.combinations_with_replacement(combo, 2))
            for i_prime in inst.interp_inputs:
                pts = set().union(*(targets[i_prime][k] for k in combo))
                if not pts:
                    continue
                diameter = max(far[i_prime][pair] for pair in pairs)
                ok = epshelly._certified(inst, pts, diameter, eps)
                if ok is None:
                    res = epshelly.feasibility(inst, sorted(pts), eps)
                    marginal = marginal or res.marginal
                    ok = res.feasible
                if not ok:
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

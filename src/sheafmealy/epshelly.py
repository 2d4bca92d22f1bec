"""Approximate stateless explanations: targets, feasibility, obstruction depth.

A stateless system with judged outputs in a metric space admits an
``eps``-explanation over a patch when some assignment of judged inputs to
output points stays within ``eps`` of every judged sample the patch sees.
For one judged input this is a smallest-enclosing-ball question: the
feasible set is the intersection of ``eps``-balls around the sample points,
non-empty exactly when the minimax radius is at most ``eps``.

Domains: all of Euclidean space, an axis-aligned box, or the probability
simplex.  One solver computes the minimax radius on all three, exactly up
to 1e-12 relative tolerance, with the domain's facets as constraints on
the center.  It pivots: the farthest point outside the current ball goes
on the rim of the ball of the few points that ball rests on, found by
move-to-front, whose recursive calls each add one orthogonalized rim
point to their caller's circumcentre.  The radius is compared with
``eps`` to 1e-9, and results within that band are flagged marginal, not
silently classified.

Because ``eps``-balls are convex, a family of patches over a common judged
input obeys the Helly bound: in dimension ``d``, if every ``d+1`` of them
are jointly feasible then all of them are (``d`` on the simplex).
``obstruction_depth`` searches for the smallest jointly infeasible
subfamily up to that size, and decides most subfamilies without a ball
solve: half the diameter of their targets bounds the radius from below,
and on the euclidean domain Jung's theorem and the centroid bound it from
above.  On that domain it joins two patches when their farthest targets
clear Jung's bound at the largest dimension a subfamily of the size being
searched can span, and passes over every subfamily whose patches are all
joined without reading it; the solves, their order and the report stay
those of deciding every subfamily.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    CheckerError,
    EmptyInput,
    Infeasible,
    NegativeEpsilon,
    ScaleExceeded,
)

COMPARISON_TOL = 1e-9
MEB_REL_TOL = 1e-12
# The one order in which the minimax solver visits points; no verdict
# depends on it (see :func:`_minimax`).
_ORDER_SEED = 20250817

Vector = tuple[float, ...]
# (axis, bound, side): a center y keeps it when side * (y[axis] - bound) >= 0.
Facet = tuple[int, float, float]
# A boundary in the minimax solver: its rim ball, first rim point p0, an
# orthonormal basis of the tight facet normals and rim offsets from p0, and
# the longest squared offset.
Frame = tuple[tuple[Vector, float], Vector, tuple[Vector, ...], float]


@dataclass(frozen=True)
class EpsilonInstance:
    """Judged samples of a stateless system with metric outputs.

    ``values`` maps each raw input to its judged output point (the judge is
    already applied); ``i_map`` maps raw inputs to judged inputs.  ``domain``
    is ``euclidean``, ``box`` (with per-axis bounds), or ``simplex`` (the
    probability simplex in ``dim`` coordinates).
    """

    dim: int
    domain: str
    values: tuple[tuple[str, Vector], ...]
    i_map: tuple[tuple[str, str], ...]
    interp_inputs: tuple[str, ...]
    box: tuple[tuple[float, float], ...] | None = None


def _check_eps(eps: float) -> None:
    """Refuse a negative tolerance, NaN, which no comparison refuses, and
    infinity, which JSON cannot carry."""
    if not eps >= 0:
        raise NegativeEpsilon("tolerances must be non-negative")
    if eps == math.inf:
        raise NegativeEpsilon("tolerances must be finite")


def _on_simplex(p: Vector) -> bool:
    return all(x >= -COMPARISON_TOL for x in p) and abs(sum(p) - 1.0) <= COMPARISON_TOL


def epsilon_instance(
    dim: int,
    domain: str,
    values: Mapping[str, Sequence[float]],
    i_map: Mapping[str, str],
    interp_inputs: Iterable[str] | None = None,
    box: Sequence[Sequence[float]] | None = None,
) -> EpsilonInstance:
    if domain not in ("euclidean", "box", "simplex"):
        raise CheckerError(f"unknown domain {domain!r}")
    if dim < 1:
        raise CheckerError("dimension must be positive")
    vals: list[tuple[str, Vector]] = []
    for raw in sorted(values):
        p = tuple(map(float, values[raw]))
        if len(p) != dim:
            raise CheckerError(f"value of {raw!r} has wrong dimension")
        if not all(map(math.isfinite, p)):
            raise CheckerError(f"value of {raw!r} is not finite")
        vals.append((raw, p))
    for raw in values:
        if raw not in i_map:
            raise CheckerError(f"raw input {raw!r} has no judged value")
    interp = tuple(sorted(set(interp_inputs) if interp_inputs is not None else set(i_map.values())))
    for v in i_map.values():
        if v not in interp:
            raise CheckerError(f"judged input {v!r} outside the interpretable inputs")
    bx: tuple[tuple[float, float], ...] | None = None
    if domain == "box":
        if box is None or len(box) != dim:
            raise CheckerError("box domains need per-axis bounds")
        bx = tuple((float(lo), float(hi)) for lo, hi in box)
        for lo, hi in bx:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise CheckerError("box bounds must be finite and ordered")
        for raw, p in vals:
            if not all(lo - COMPARISON_TOL <= x <= hi + COMPARISON_TOL
                       for x, (lo, hi) in zip(p, bx)):
                raise CheckerError(f"value of {raw!r} lies outside the box")
    if domain == "simplex":
        for raw, p in vals:
            if not _on_simplex(p):
                raise CheckerError(f"value of {raw!r} is not a probability vector")
    return EpsilonInstance(dim, domain, tuple(vals),
                           tuple(sorted(i_map.items())), interp, bx)


def _patch_targets(inst: EpsilonInstance, patches: Sequence[Sequence[str]]
                   ) -> dict[str, list[set[Vector]]]:
    """Each patch's target points for each judged input, in one pass over
    the patches."""
    judged, value = dict(inst.i_map), dict(inst.values)
    targets: dict[str, list[set[Vector]]] = {
        i_prime: [set() for _ in patches] for i_prime in inst.interp_inputs
    }
    for k, patch in enumerate(patches):
        for raw in patch:
            if raw not in judged:
                raise CheckerError(f"raw input {raw!r} has no judged value")
            if raw not in value:
                raise CheckerError(f"unknown raw input {raw!r}")
            if judged[raw] in targets:
                targets[judged[raw]][k].add(value[raw])
    return targets


def _dot(a: Iterable[float], b: Iterable[float]) -> float:
    return sum(map(operator.mul, a, b))


def _push(basis: tuple[Vector, ...], center: Sequence[float], row: Sequence[float],
          residual: float, floor: float) -> tuple[tuple[Vector, ...], list[float]] | None:
    """Add the equality ``row . y = row . center + residual`` to an
    orthonormal ``basis`` and its ``center``: the part u of ``row``
    orthogonal to the basis (two Gram-Schmidt passes) joins it, and the
    center moves by ``residual / |u|^2`` times u, which the earlier rows,
    all in the span, do not see.  None when |u|^2 <= ``floor``."""
    u = list(row)
    for _ in range(2):
        for q in basis:
            t = _dot(q, u)
            u = [x - t * y for x, y in zip(u, q)]
    z = _dot(u, u)
    if z <= floor:
        return None
    step, norm = residual / z, math.sqrt(z)
    return (*basis, tuple([x / norm for x in u])), [c + step * x for c, x in zip(center, u)]


def _reach(radius: float) -> float:
    """The farthest distance from its center at which a ball of ``radius``
    holds a point: 1e-12 relative slack, and 1e-14 for a ball of radius 0."""
    return radius * (1.0 + MEB_REL_TOL) + 1e-14


def _minimax(points: Sequence[Sequence[float]], facets: Sequence[Facet] = (),
             simplex: bool = False) -> tuple[Vector, float]:
    """Center and radius of the smallest ball holding ``points`` whose
    center keeps every facet, and has coordinate sum one on the simplex.

    Gärtner's pivot loop (Gärtner 1999) around move-to-front (Welzl
    1991), on the deduplicated points in one fixed shuffled order, inside
    a recursion over the facets.  The loop starts from the ball of the
    first point.  Each step finds the farthest point in one pass and stops
    once it is held; otherwise that point, the pivot, goes on the rim of
    the smallest ball holding the support prefix, and then moves to the
    front.  The support prefix is the front of the list that the last ball
    rests on: each move-to-front call starts it empty and extends it by
    every point at or past it that moves to the front, the pivot too.  In
    move-to-front a point outside the ball joins the boundary and the
    points before it are redone.  In exact arithmetic the radius grows at
    every step; when rounding keeps it from growing the loop stops, and
    the final check below decides.  Once all points are held, a facet the
    center breaks becomes tight, an equality on the center, and the loop
    reruns with it, then the earlier facets are redone.  A basis has at
    most d+1 constraints (d on the simplex), so the recursion is at most
    d+2 calls deep.

    Each call hands its children a :data:`Frame`, which :func:`_push`
    moves from the first rim point p0 onto the tight facets (and the
    sum-one row), then onto the rim of each further point: the Gram
    solution in exact arithmetic, at O(kd) per point.  A push whose |u|^2
    is at most 1e-13 of the longest squared offset (of a normal's squared
    length) is dependent, and leaves its boundary and all that extend it on
    the outer rim.  Points beyond 2**500 are first scaled down, with the
    facet bounds, by an exact power of two, so that no square overflows;
    the scale comes from the points alone, so far bounds never shrink them.

    This is exact because the problem is LP-type (Sharir & Welzl 1992).
    The optimum is unique: between two candidate balls every ball keeps
    every point both hold, every rim point on its rim and every facet both
    centers keep, and has a smaller radius.  So a constraint that the
    optimum without it breaks is tight at the optimum with it, which is
    the lemma Welzl's proof uses.  Hence the visiting order and the
    pivots fix only the work, never the ball.  A ball that misses a point
    is refused.
    """
    pts = [tuple(map(float, p)) for p in points]
    if not pts:
        raise EmptyInput("a ball needs at least one point")
    d = len(pts[0])
    if d > 8:
        raise ScaleExceeded("enclosing balls are capped at 8 dimensions")
    for p in pts:
        if len(p) != d:
            raise CheckerError("points of mixed dimension")
        if not all(map(math.isfinite, p)):
            raise CheckerError("points must be finite")
    big = max(map(abs, itertools.chain(*pts)), default=0.0)
    shift = 500 - math.frexp(big)[1] if big > 2.0 ** 500 else 0
    if shift:
        pts = [tuple(math.ldexp(x, shift) for x in p) for p in pts]
        facets = [(axis, math.ldexp(b, shift), side) for axis, b, side in facets]
    uniq = sorted(set(pts))
    random.Random(_ORDER_SEED).shuffle(uniq)
    full = d if simplex else d + 1
    # The prefix of uniq that the last ball rests on: every mtf call resets
    # it, and a point at or past it that moves to the front extends it.
    support = 0

    def grow(frame: Frame | None, boundary: list[Vector], p: Vector,
             tight: list[Facet]) -> Frame | None:
        """The frame of ``boundary + [p]``, from the frame of ``boundary``."""
        if not boundary:
            p0, basis, center, longest = p, (), list(p), 0.0
            rows = [(tuple(float(k == axis) for k in range(d)), bound) for axis, bound, _ in tight]
            if simplex:
                rows.append(((1.0,) * d, 1.0))  # simplex points never shift
            for row, level in rows:
                pushed = _push(basis, center, row, level - _dot(row, center), 1e-13 * _dot(row, row))
                if pushed is None:
                    return None
                basis, center = pushed
        elif frame is None:
            return None
        else:
            (center, _), p0, basis, longest = frame
            v = list(map(operator.sub, p, p0))
            vv = _dot(v, v)
            longest = max(longest, vv)
            lean = _dot(map(operator.sub, center, p0), v)
            pushed = _push(basis, center, v, (vv - 2.0 * lean) / 2.0, 1e-13 * longest)
            if pushed is None:
                return None
            basis, center = pushed
        for axis, bound, _ in tight:
            center[axis] = bound
        return (tuple(center), math.dist(center, p0)), p0, basis, longest

    def mtf(end: int, boundary: list[Vector], frame: Frame | None, tight: list[Facet],
            outer: tuple[Vector, float] | None) -> tuple[Vector, float] | None:
        """Smallest ball with ``boundary`` on its rim and its center on the
        ``tight`` facets that holds ``uniq[:end]``; ``frame`` is the
        boundary's, and ``outer`` is the rim ball of the boundary without
        its last point.  Each point found outside moves to the front of
        ``uniq``."""
        nonlocal support
        support = 0
        # On dependent constraints the point added last is on the outer rim.
        rim = frame[0] if frame else outer
        if rim is None or len(boundary) + len(tight) == full:
            return rim
        ball = rim
        center, reach = rim[0], _reach(rim[1])
        for k in range(end):
            p = uniq[k]
            if math.dist(center, p) > reach:
                ball = mtf(k, boundary + [p], grow(frame, boundary, p, tight), tight, rim)
                center, reach = ball[0], _reach(ball[1])
                if k >= support:
                    support += 1
                uniq.insert(0, uniq.pop(k))
        return ball

    def pivot(tight: list[Facet]) -> tuple[Vector, float] | None:
        """Smallest ball holding every point with its center on ``tight``,
        grown from the ball of ``uniq[0]``: the farthest point outside goes
        on the rim of the ball of the support prefix, then to the front."""
        nonlocal support
        frame = grow(None, [], uniq[0], tight)
        if frame is None:
            return None
        ball, support = frame[0], 1
        while True:
            center, radius = ball
            dists = list(map(math.dist, itertools.repeat(center), uniq))
            far = max(dists)
            if far <= _reach(radius):
                return ball
            k = dists.index(far)
            p = uniq[k]
            ball = mtf(support, [p], grow(None, [], p, tight), tight, None)
            if k >= support:
                support += 1
            uniq.insert(0, uniq.pop(k))
            # Only rounding keeps the radius from growing.
            if ball is None or ball[1] <= radius:
                return ball

    def keep(cut: int, tight: list[Facet]) -> tuple[Vector, float] | None:
        """Smallest ball holding every point, centered on ``tight``, keeping ``facets[:cut]``."""
        ball = pivot(tight)
        for j in range(cut):
            axis, bound, side = facets[j]
            if ball is not None and side * (ball[0][axis] - bound) < 0.0:
                ball = keep(j, tight + [facets[j]])
        return ball

    ball = keep(len(facets), [])
    if ball is None or max(map(math.dist, itertools.repeat(ball[0]), uniq)) > _reach(ball[1]):
        raise CheckerError("ball computation failed")
    center, radius = ball
    return tuple(math.ldexp(x, -shift) for x in center), math.ldexp(radius, -shift)


@dataclass(frozen=True)
class Ball:
    center: Vector
    radius: float


def min_enclosing_ball(points: Sequence[Sequence[float]]) -> Ball:
    """Minimum enclosing ball in up to 8 dimensions, exact up to 1e-12
    relative tolerance (:func:`_minimax`)."""
    return Ball(*_minimax(points))


def canonical_point(inst: EpsilonInstance) -> Vector:
    if inst.domain == "euclidean":
        return tuple(0.0 for _ in range(inst.dim))
    if inst.domain == "box":
        return tuple((lo + hi) / 2.0 for lo, hi in inst.box)
    return tuple(1.0 / inst.dim for _ in range(inst.dim))


def project_box(p: Sequence[float], box: Sequence[tuple[float, float]]) -> Vector:
    return tuple(min(max(x, lo), hi) for x, (lo, hi) in zip(p, box))


def project_simplex(p: Sequence[float]) -> Vector:
    """Euclidean projection onto the probability simplex (sort-based, exact
    up to floating point)."""
    y = [float(x) for x in p]
    u = sorted(y, reverse=True)
    css = list(itertools.accumulate(u))
    k = max(n for n, (x, c) in enumerate(zip(u, css), 1) if x + (1.0 - c) / n > 0.0)
    tau = (css[k - 1] - 1.0) / k
    return tuple(max(x - tau, 0.0) for x in y)


@dataclass(frozen=True)
class FeasibilityResult:
    """Minimax verdict for one judged input against a tolerance.

    ``radius`` is the best achieved maximum distance from ``center`` to the
    target points; ``feasible`` compares it against the ``eps`` asked for,
    up to ``COMPARISON_TOL``, and ``marginal`` flags results within it.
    """

    domain: str
    center: Vector
    radius: float
    feasible: bool
    marginal: bool
    unconstrained: bool


def feasibility(
    inst: EpsilonInstance,
    points: Sequence[Sequence[float]],
    eps: float,
) -> FeasibilityResult:
    """Whether some domain point is within ``eps`` of every target point."""
    _check_eps(eps)
    pts = [tuple(map(float, p)) for p in points]
    if not pts:
        return FeasibilityResult(inst.domain, canonical_point(inst), 0.0, True, False, True)
    if any(len(p) != inst.dim for p in pts):
        raise CheckerError(f"target points must have {inst.dim} coordinates")
    simplex = inst.domain == "simplex"
    if simplex:
        facets = [(k, 0.0, 1.0) for k in range(inst.dim)]
    else:  # a box's sides; the euclidean domain has none
        facets = [(k, b, side) for k, (lo, hi) in enumerate(inst.box or ())
                  for b, side in ((lo, 1.0), (hi, -1.0))]
    center, radius = _minimax(pts, facets, simplex)
    return FeasibilityResult(inst.domain, center, radius, radius <= eps + COMPARISON_TOL,
                             abs(radius - eps) <= COMPARISON_TOL, False)


def _farthest(a: Iterable[Vector], b: Iterable[Vector]) -> float:
    return max((math.dist(p, q) for p in a for q in b), default=0.0)


def _jung_clears(diameter: float, m: int, eps: float) -> bool:
    """Jung's theorem puts the radius of points of diameter ``diameter``
    whose affine hull has dimension at most ``m`` below ``eps``, clear of
    the 1e-9 band.  The factor sqrt(m / (2(m+1))) grows with m, and sqrt,
    / and * round monotonically, so a pass at some m is a pass at every
    smaller one."""
    return diameter * math.sqrt(m / (2.0 * (m + 1))) < eps - COMPARISON_TOL


def _certified(inst: EpsilonInstance, pts: set[Vector], diameter: float,
               eps: float) -> bool | None:
    """Feasibility of ``pts`` when a bound alone decides it, clear of the
    1e-9 band, so that the solver would agree and not flag it marginal;
    None when only a solve can tell.

    Any center is at least half the diameter from some point.  On the
    euclidean domain the radius is at most the diameter times
    sqrt(m / (2(m+1))), m the dimension of the points' affine hull (Jung's
    theorem), and the farthest point's distance from the centroid.  These
    bound the unconstrained radius only, and targets may lie 1e-9 outside
    a box or simplex, so those domains use the lower bound alone.
    """
    if diameter / 2.0 > eps + COMPARISON_TOL:
        return False
    if inst.domain != "euclidean":
        return None
    if _jung_clears(diameter, min(inst.dim, len(pts) - 1), eps):
        return True
    centroid = tuple(sum(xs) / len(pts) for xs in zip(*pts))
    if max(map(math.dist, itertools.repeat(centroid), pts)) < eps - COMPARISON_TOL:
        return True
    return None


@dataclass(frozen=True)
class DepthReport:
    feasible: bool
    depth: int | None
    subfamily: tuple[int, ...] | None
    i_prime: str | None
    marginal: bool


MAX_SUBFAMILIES = 2**20 - 1


def _unjoined(n: int, size: int, joined: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """The ``size``-subsets of ``range(n)`` in ``itertools.combinations``
    order, less those whose every two members, each member with itself
    too, are joined: bit ``b`` of ``joined[a]`` joins ``a`` and ``b``.

    The walk goes depth first over prefixes and carries the members joined
    to the whole prefix, so while the prefix stays a clique each child
    costs one bit test; past its first unjoined member every completion is
    yielded."""

    def walk(prefix: tuple[int, ...], start: int, common: int) -> Iterable[tuple[int, ...]]:
        left = size - len(prefix)
        for c in range(start, n - left + 1):
            if not common >> c & 1:
                for rest in itertools.combinations(range(c + 1, n), left - 1):
                    yield (*prefix, c, *rest)
            elif left > 1:
                yield from walk((*prefix, c), c + 1, common & joined[c])

    common = sum(1 << k for k in range(n) if joined[k] >> k & 1)
    return walk((), 0, common)


def obstruction_depth(
    inst: EpsilonInstance,
    patches: Sequence[Sequence[str]],
    eps: float,
) -> DepthReport:
    """Size of the smallest jointly infeasible subfamily, judged input by
    judged input; None when the whole family is feasible.

    The full family is checked first, then subfamilies in increasing size,
    index order, up to the Helly number h: d+1, or d on the simplex, whose
    points span d-1 dimensions.  An infeasible family whose subfamilies of
    at most h patches are all feasible (possible only within the 1e-9
    tolerance) gets depth None.  A subfamily is solved only when
    :func:`_certified` cannot decide it from the diameter of its targets,
    read from a table of the farthest pair of targets of every two patches.

    On the euclidean domain a subfamily of ``size`` patches holds at most
    the ``size`` largest target counts together, which caps the dimension
    m in Jung's bound.  Two patches are joined when their farthest pair
    clears that bound at the cap for every judged input; a subfamily whose
    every pair is joined is feasible by the bound :func:`_certified` would
    apply, so it is skipped unread.  The solves, their order and the report
    are those of deciding every subfamily.  More than 2**20 - 1 subfamilies
    to search raise :class:`ScaleExceeded`.
    """
    _check_eps(eps)
    n = len(patches)
    helly = inst.dim if inst.domain == "simplex" else inst.dim + 1
    sizes = range(1, min(helly, n) + 1)
    if sum(math.comb(n, size) for size in sizes) > MAX_SUBFAMILIES:
        raise ScaleExceeded(
            f"obstruction search over {n} patches up to size {helly} "
            f"exceeds {MAX_SUBFAMILIES} subfamilies"
        )
    targets = _patch_targets(inst, patches)
    marginal = False
    full_bad = None
    for i_prime in inst.interp_inputs:
        pts = set().union(*targets[i_prime])
        if not pts:
            continue
        res = feasibility(inst, sorted(pts), eps)
        marginal = marginal or res.marginal
        if not res.feasible:
            full_bad = i_prime
            break
    if full_bad is None:
        return DepthReport(True, None, None, None, marginal)
    far = {i_prime: {(k, k): _farthest(t, t) for k, t in enumerate(groups)}
           for i_prime, groups in targets.items()}
    # Each patch's most targets over the judged inputs, most first.
    counts = sorted(map(max, zip(*(map(len, groups) for groups in targets.values()))),
                    reverse=True)
    for size in sizes:
        if size == 2:
            for i_prime, groups in targets.items():
                far[i_prime].update(
                    ((a, b), _farthest(groups[a], groups[b]))
                    for a, b in itertools.combinations(range(n), 2)
                )
        joined = [0] * n
        if inst.domain == "euclidean":
            # No subfamily of this size spans more than m dimensions.
            m = min(inst.dim, max(sum(counts[:size]) - 1, 0))
            for a, b in far[full_bad]:
                if all(_jung_clears(table[a, b], m, eps) for table in far.values()):
                    joined[a] |= 1 << b
                    joined[b] |= 1 << a
        for combo in _unjoined(n, size, joined):
            for i_prime in inst.interp_inputs:
                pts = set().union(*map(targets[i_prime].__getitem__, combo))
                if not pts:
                    continue
                diameter = max(map(far[i_prime].__getitem__,
                                   itertools.combinations_with_replacement(combo, 2)))
                ok = _certified(inst, pts, diameter, eps)
                if ok is None:
                    res = feasibility(inst, sorted(pts), eps)
                    marginal = marginal or res.marginal
                    ok = res.feasible
                if not ok:
                    return DepthReport(False, size, combo, i_prime, marginal)
    return DepthReport(False, None, None, full_bad, marginal)


@dataclass(frozen=True)
class EpsGlueResult:
    assignment: tuple[tuple[str, Vector], ...]
    radii: tuple[tuple[str, float], ...]
    unconstrained: tuple[str, ...]
    marginal: tuple[str, ...]


def eps_glue(
    inst: EpsilonInstance,
    patches: Sequence[Sequence[str]],
    eps: float,
) -> EpsGlueResult:
    """Glue per-patch approximate explanations into one global assignment.

    For each judged input the feasible sets of the patches intersect in the
    feasible set of the union of their targets, so the glued value is any
    point feasible for the union; the minimax center is chosen.  A judged
    input no patch constrains gets the domain's canonical point, flagged.
    Raises :class:`Infeasible` naming the first judged input whose union
    target is infeasible.
    """
    _check_eps(eps)
    assignment: list[tuple[str, Vector]] = []
    radii: list[tuple[str, float]] = []
    unconstrained: list[str] = []
    marginal: list[str] = []
    targets = _patch_targets(inst, patches)
    for i_prime in inst.interp_inputs:
        res = feasibility(inst, sorted(set().union(*targets[i_prime])), eps)
        if not res.feasible:
            err = Infeasible(
                f"no point is within {eps} of every target for judged input {i_prime!r}"
            )
            err.i_prime = i_prime
            raise err
        if res.unconstrained:
            unconstrained.append(i_prime)
        if res.marginal:
            marginal.append(i_prime)
        assignment.append((i_prime, res.center))
        radii.append((i_prime, res.radius))
    return EpsGlueResult(
        tuple(assignment), tuple(radii), tuple(unconstrained), tuple(marginal)
    )

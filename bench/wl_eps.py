"""eps-helly: the ``epshelly`` layer.

* ``obstruction_depth`` on families of 8 to 20 patches in dimensions 2 to
  4.  Some hide the vertices of a regular simplex, one per patch, among
  distractor patches near its centroid, at a tolerance between the facet
  and the full circumradius: the depth is d+1 and the search visits every
  smaller subfamily first.  Others are feasible throughout.
* ``feasibility`` on box and simplex domains.  Targets outside the domain
  are built around a boundary point that is the constrained minimax center
  by construction (two targets at radius r, balanced against the outward
  normal), so the answer r is known and the tolerance is set 15% to either
  side of it; these take the projected-subgradient path.  Targets inside
  the domain sit around an interior center.  A further 48 outside
  instances, from a generator that does not depend on the seed, set the
  tolerance 0.5% to 5% above r, where an overstated radius shows.
* ``min_enclosing_ball`` on Gaussian clouds: a few hundred points in
  dimensions 2 to 4, 20 to 40 points in dimensions 5 to 8.  Clouds and
  depth distractors have fixed shapes (see ``SHAPE_SEED``) placed by the
  seed.
* ``eps_glue`` on feasible families with several judged inputs.

Four checks fail today and are kept, on inputs that do not depend on the
seed: F2, a false "infeasible" verdict on a box instance, two more false
"infeasible" verdicts among the near-radius instances (``NEAR_FAULTS``),
and F3, a ``RecursionError`` from ``min_enclosing_ball`` on 1,200 points.
"""

from __future__ import annotations

import math
import random

from sheafmealy import epshelly

from harness import Check, Raised
from oracles import (box_grid_minimax, in_box, in_convex_hull, meb_by_enumeration, on_simplex,
                     simplex_grid_minimax)

TOL = 1e-9
GRID = 400

# (dimension, patches, indices of the simplex vertex patches); None: feasible
# family.  The vertex positions fix how many subfamilies the search tries, so
# these checks cost the same on every seed.
DEPTH = (
    (2, 20, (16, 18, 19)), (2, 20, (10, 15, 19)), (2, 18, (13, 15, 17)),
    (3, 14, (10, 11, 12, 13)), (3, 14, (9, 11, 12, 13)), (3, 15, (3, 12, 13, 14)),
    (3, 14, (2, 5, 9, 13)), (3, 13, (9, 10, 11, 12)), (3, 14, (0, 11, 12, 13)),
    (4, 12, (7, 8, 9, 10, 11)), (4, 12, (0, 3, 6, 9, 11)), (4, 11, (6, 7, 8, 9, 10)),
    (4, 11, (1, 3, 5, 7, 10)), (4, 12, (2, 4, 6, 8, 11)), (4, 11, (0, 2, 4, 6, 10)),
    (2, 20, None), (3, 14, None), (4, 8, None), (4, 20, None),
)

# (domain, where the targets lie, tolerance factor on the known radius)
FEASIBILITY = (
    [("box", "outside", f) for f in (1.15, 0.85) for _ in range(4)]
    + [("simplex", "outside", f) for f in (1.15, 0.85) for _ in range(3)]
    + [(dom, "inside", f) for dom in ("box", "simplex") for f in (1.15, 0.85) for _ in range(2)]
)

# Outside instances with the tolerance just above the known radius:
# (domain, tolerance factor).  The subgradient path overstates the radius by
# 0.5% to 2.6% on about one outside instance in ten, so some of these
# get a false "infeasible" verdict.  Which ones depends on the targets, and
# a failure that strikes on some seeds only cannot be counted steadily, so
# these come from a generator of their own, seeded with NEAR_SEED.
NEAR_SEED = 0
NEAR = [(dom, f) for dom, copies in (("box", 10), ("simplex", 2))
        for f in (1.005, 1.01, 1.02, 1.05) for _ in range(copies)]

# Slots of NEAR that the grid check finds falsely "infeasible" today:
# reported radius, and the grid point's distance to the farthest target.
NEAR_FAULTS = {9: (0.5959, 0.5924), 10: (0.9567, 0.9474)}

# The work of the randomized ball solver, inside min_enclosing_ball and
# inside every Euclidean feasibility call of a depth search, depends on the
# shape of its point set and varies several-fold between Gaussian clouds.
# So each cloud and each family of depth distractors has a shape of its own
# slot, drawn from random.Random(SHAPE_SEED + slot), and the seed draws its
# placement: the inputs differ from seed to seed and the solver's work does
# not.
SHAPE_SEED = 1000

# (dimension, points): four clouds of each.  High-dimensional clouds are
# small, to keep the depth searches the costliest checks.
MEB = 4 * ((2, 300), (3, 250), (4, 150), (5, 40), (6, 30), (7, 24), (8, 20))

GLUE = 2 * ((2, 3, 6), (3, 3, 8), (4, 2, 6), (2, 4, 10), (3, 4, 12), ("box", 3, 8))

# F2: a box instance whose minimax radius the subgradient path overstates.
F2_BOX = ((0.0, 1.0), (0.0, 1.0))
F2_TARGETS = ((-0.6006, 2.4312), (2.5299, 0.2477), (0.1707, 0.3485), (2.9956, 0.6342))
F2_EPS = 2.1140

# F3: a cloud deep enough for the recursive ball solver to exhaust the stack.
F3_POINTS = 1200


# ------------------------------------------------------------------ geometry


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def rotation(rng: random.Random, d: int) -> list[list[float]]:
    """A random orthonormal basis (Gram-Schmidt on Gaussian vectors)."""
    basis: list[list[float]] = []
    while len(basis) < d:
        v = [rng.gauss(0, 1) for _ in range(d)]
        for b in basis:
            dot = sum(x * y for x, y in zip(v, b))
            v = [x - dot * y for x, y in zip(v, b)]
        if math.sqrt(sum(x * x for x in v)) > 1e-3:
            basis.append(_unit(v))
    return basis


def placement(rng: random.Random, d: int):
    """A rotation that keeps the first axis, a scale and a shift.  The ball
    solver sorts its points before a fixed shuffle, so its work depends on
    the shape of the point set and the order of the first coordinates, and
    a placement keeps both."""
    basis = [[1.0] + [0.0] * (d - 1)] + [[0.0] + row for row in rotation(rng, d - 1)]
    return basis, rng.uniform(0.5, 3.0), [rng.uniform(-5, 5) for _ in range(d)]


def _apply(basis, scale, shift, p):
    return tuple(shift[k] + scale * sum(p[j] * basis[j][k] for j in range(len(p)))
                 for k in range(len(p)))


def simplex_vertices(d: int) -> list[tuple[float, ...]]:
    """Regular simplex with side sqrt(2), centroid at the origin."""
    alpha = (1.0 - math.sqrt(d + 1.0)) / d
    pts = [tuple(1.0 if k == m else 0.0 for k in range(d)) for m in range(d)]
    pts.append(tuple(alpha for _ in range(d)))
    cen = [sum(p[k] for p in pts) / (d + 1) for k in range(d)]
    return [tuple(p[k] - cen[k] for k in range(d)) for p in pts]


def ball_point(rng, d, radius):
    v = _unit([rng.gauss(0, 1) for _ in range(d)])
    r = radius * rng.random() ** (1.0 / d)
    return [x * r for x in v]


# ------------------------------------------------------------------ checks


def depth_check(tag, rng, shape, d, n, planted):
    """``shape`` draws the distractors and ``rng`` the placement."""
    basis, scale, shift = placement(rng, d)
    r_face = math.sqrt((d - 1.0) / d)
    r_full = math.sqrt(d / (d + 1.0))
    eps = scale * (r_face + r_full) / 2
    values, patches = {}, []
    # turned by the shape, so no two vertices share a first coordinate
    turn = rotation(shape, d)
    verts = [_apply(turn, 1.0, [0.0] * d, v) for v in simplex_vertices(d)]
    for k in range(n):
        if planted is not None and k in planted:
            p = verts[planted.index(k)]
        elif planted is not None:
            p = ball_point(shape, d, 0.05)
        else:
            p = ball_point(shape, d, 0.9 * (r_face + r_full) / 2)
        values[f"p{k:02d}"] = _apply(basis, scale, shift, p)
        patches.append([f"p{k:02d}"])
    inst = epshelly.epsilon_instance(d, "euclidean", values, {r: "cls" for r in values})

    def verify(rep):
        if planted is None:
            if not rep.feasible or rep.depth is not None:
                return "planted feasible family reported infeasible"
            far = max(math.dist(shift, p) for p in values.values())
            return None if far <= eps else "planted center is not within eps"
        if rep.feasible or rep.depth != d + 1 or tuple(rep.subfamily) != planted:
            return f"depth {rep.depth} at {rep.subfamily}, planted {d + 1} at {planted}"
        pts = [values[f"p{k:02d}"] for k in rep.subfamily]
        if meb_by_enumeration(pts)[1] <= eps:
            return "reported subfamily is feasible by support enumeration"
        for drop in range(len(pts)):
            rest = pts[:drop] + pts[drop + 1:]
            if meb_by_enumeration(rest)[1] > eps:
                return "a one-smaller subfamily is infeasible"
        if abs(meb_by_enumeration(pts)[1] - scale * r_full) > 1e-9 * scale:
            return "subfamily radius is not the simplex circumradius"
        return None

    return Check(tag, lambda: epshelly.obstruction_depth(inst, patches, eps), verify)


def outside_targets(rng, domain):
    """Targets whose constrained minimax center is a known boundary point."""
    theta = rng.uniform(math.radians(20), math.radians(70))
    r = rng.uniform(0.5, 2.5)
    if domain == "box":
        w, h = rng.uniform(1, 3), rng.uniform(1, 3)
        box = ((0.0, w), (0.0, h))
        edge = rng.randrange(4)
        s = rng.uniform(0.2, 0.8)
        c, normal, tangent = {
            0: ((s * w, 0.0), (0.0, -1.0), (1.0, 0.0)),
            1: ((s * w, h), (0.0, 1.0), (1.0, 0.0)),
            2: ((0.0, s * h), (-1.0, 0.0), (0.0, 1.0)),
            3: ((w, s * h), (1.0, 0.0), (0.0, 1.0)),
        }[edge]
        lift = (0.0, 0.0)
        extra_dim = 0.0
    else:
        box = None
        k = rng.randrange(3)
        others = [i for i in range(3) if i != k]
        a = rng.uniform(0.25, 0.75)
        c = [0.0, 0.0, 0.0]
        c[others[0]], c[others[1]] = a, 1.0 - a
        normal = _unit([(-1.0 if i == k else 0.0) + 1.0 / 3 for i in range(3)])
        tangent = _unit([1.0 if i == others[0] else (-1.0 if i == others[1] else 0.0)
                         for i in range(3)])
        lift = _unit([1.0, 1.0, 1.0])
        extra_dim = rng.uniform(-0.5, 0.5)
    pts = []
    for sign in (1.0, -1.0):
        pts.append(tuple(ci + r * (math.cos(theta) * ni + sign * math.sin(theta) * ti)
                         + extra_dim * li
                         for ci, ni, ti, li in zip(c, normal, tangent, lift)))
    radius = math.sqrt(r * r + extra_dim * extra_dim)
    for _ in range(3):
        off = ball_point(rng, len(c), 0.8 * radius)
        pts.append(tuple(ci + oi for ci, oi in zip(c, off)))
    rng.shuffle(pts)
    return box, pts, radius


def inside_targets(rng, domain):
    """Targets around an interior center: an antipodal pair at radius r and
    a few points inside that ball."""
    if domain == "box":
        box = ((0.0, rng.uniform(2, 3)), (0.0, rng.uniform(2, 3)))
        c = (rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1))
        r = rng.uniform(0.3, 0.8)
        u = _unit([rng.gauss(0, 1), rng.gauss(0, 1)])
    else:
        box = None
        a, b = rng.uniform(0.25, 0.4), rng.uniform(0.25, 0.4)
        c = (a, b, 1.0 - a - b)
        r = rng.uniform(0.05, 0.15)
        t = rng.uniform(0, 2 * math.pi)
        e1 = _unit([1.0, -1.0, 0.0])
        e2 = _unit([1.0, 1.0, -2.0])
        u = [math.cos(t) * x + math.sin(t) * y for x, y in zip(e1, e2)]
    pts = [tuple(ci + r * ui for ci, ui in zip(c, u)), tuple(ci - r * ui for ci, ui in zip(c, u))]
    for _ in range(3):
        if domain == "box":
            off = ball_point(rng, 2, 0.8 * r)
        else:
            s, t = rng.uniform(-0.5, 0.5) * r, rng.uniform(-0.5, 0.5) * r
            off = [s * x + t * y for x, y in zip(_unit([1.0, -1.0, 0.0]), _unit([1.0, 1.0, -2.0]))]
        pts.append(tuple(ci + oi for ci, oi in zip(c, off)))
    rng.shuffle(pts)
    return box, pts, r


def feasibility_check(tag, domain, box, pts, eps, fault=None):
    if domain == "box":
        inst = epshelly.epsilon_instance(2, "box", {}, {}, box=[list(b) for b in box])
    else:
        inst = epshelly.epsilon_instance(3, "simplex", {}, {})
    pts = [tuple(p) for p in pts]

    def verify(res):
        if res.feasible:
            inside = in_box(res.center, box) if domain == "box" else on_simplex(res.center)
            if not inside:
                return "feasible center lies outside the domain"
            if max(math.dist(res.center, p) for p in pts) > eps + TOL:
                return "feasible center is farther than eps from a target"
            return None
        if domain == "box":
            where, best = box_grid_minimax(box, pts, GRID)
        else:
            where, best = simplex_grid_minimax(pts, GRID)
        if best <= eps:
            return (f"'infeasible' (radius {res.radius:.4f}) yet a grid point lies within "
                    f"{best:.4f} of every target at eps {eps:.4f}")
        return None

    return Check(tag, lambda: epshelly.feasibility(inst, pts, eps), verify, fault)


def meb_check(tag, pts, fault=None):
    def verify(ball):
        if isinstance(ball, Raised):
            return f"raised {ball}"
        c, r = ball.center, ball.radius
        if any(math.dist(c, p) > r * (1 + 1e-9) + 1e-12 for p in pts):
            return "a point lies outside the ball"
        rim = [p for p in pts if math.dist(c, p) >= r * (1 - 1e-9) - 1e-12]
        if not in_convex_hull(rim, c):
            return "the boundary points do not hold the center in their hull"
        return None

    return Check(tag, lambda: epshelly.min_enclosing_ball(pts), verify, fault)


def _glue_check(tag, rng, d, classes, raws):
    domain = "box" if d == "box" else "euclidean"
    dim = 2 if d == "box" else d
    eps = rng.uniform(0.5, 2.0)
    values, i_map, centers = {}, {}, {}
    for k in range(classes):
        centers[f"c{k}"] = [rng.uniform(2, 8) for _ in range(dim)]
    for k in range(raws):
        cls = f"c{k % classes}"
        off = ball_point(rng, dim, 0.9 * eps)
        values[f"r{k:02d}"] = [x + y for x, y in zip(centers[cls], off)]
        i_map[f"r{k:02d}"] = cls
    box = [[0.0, 10.0]] * dim if domain == "box" else None
    inst = epshelly.epsilon_instance(dim, domain, values, i_map, box=box)
    names = sorted(values)
    patches = [names[k::3] + names[:1] for k in range(3)]

    def verify(res):
        if isinstance(res, Raised):
            return f"raised {res}"
        got = dict(res.assignment)
        for cls in centers:
            pts = [values[r] for r in names if i_map[r] == cls]
            if cls not in got:
                return f"no value for judged input {cls}"
            if max(math.dist(got[cls], p) for p in pts) > eps + TOL:
                return f"glued value of {cls} is farther than eps from a target"
            if box is not None and not in_box(got[cls], box):
                return f"glued value of {cls} lies outside the box"
        return None

    return Check(tag, lambda: epshelly.eps_glue(inst, patches, eps), verify)


def setup(seed: int, workdir: str) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for k, (d, n, planted) in enumerate(DEPTH):
        kind = "hidden" if planted else "feasible"
        checks.append(depth_check(f"depth-{k:02d}-d{d}-n{n}-{kind}", rng,
                                  random.Random(SHAPE_SEED + k), d, n, planted))
    for k, (domain, where, factor) in enumerate(FEASIBILITY):
        make = outside_targets if where == "outside" else inside_targets
        box, pts, radius = make(rng, domain)
        tag = f"feasibility-{k:02d}-{domain}-{where}-x{factor}"
        checks.append(feasibility_check(tag, domain, box, pts, factor * radius))
    checks.append(feasibility_check("feasibility-F2-box", "box", F2_BOX, F2_TARGETS, F2_EPS,
                                    fault="F2"))
    near = random.Random(NEAR_SEED)
    for k, (domain, factor) in enumerate(NEAR):
        box, pts, radius = outside_targets(near, domain)
        fault = "F2 kind" if k in NEAR_FAULTS else None
        checks.append(feasibility_check(f"feasibility-near-{k:02d}-{domain}-x{factor}", domain,
                                        box, pts, factor * radius, fault))
    for k, (d, n) in enumerate(MEB):
        shape = random.Random(SHAPE_SEED + len(DEPTH) + k)
        cloud = [[shape.gauss(0, 1) for _ in range(d)] for _ in range(n)]
        basis, scale, shift = placement(rng, d)
        pts = [_apply(basis, scale, shift, p) for p in cloud]
        checks.append(meb_check(f"meb-{k:02d}-d{d}-n{n}", pts))
    cloud = random.Random(F3_POINTS)
    f3 = [(cloud.gauss(0, 1), cloud.gauss(0, 1)) for _ in range(F3_POINTS)]
    checks.append(meb_check(f"meb-F3-d2-n{F3_POINTS}", f3, fault="F3"))
    for k, (d, classes, raws) in enumerate(GLUE):
        checks.append(_glue_check(f"glue-{k:02d}-{d}-{classes}x{raws}", rng, d, classes, raws))
    return checks

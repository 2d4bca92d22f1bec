"""The move-to-front ball solver and the certified, Helly-capped depth
search, held to the recursive solver and the plain combination search in
``eps_oracle``."""

import math
import random
import sys

import randgen as rg
from eps_oracle import combination_depth, welzl_ball

from sheafmealy import epshelly
from sheafmealy import (
    epsilon_instance,
    min_enclosing_ball,
    obstruction_depth,
    target_set,
)

# Offsets of eps from a subfamily radius: on it, inside the 1e-9 band on
# either side, just outside it, and well away.
EPS_OFFSETS = (0.0, 0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9, 1e-3, -1e-3)


def _family(rng, dim, domain, integer):
    """Patches of 1 to 3 points over 1 to 3 judged inputs.  Integer points
    make exact ties between eps and subfamily radii."""
    n = rng.randint(2, 6)
    judged = [f"c{k}" for k in range(rng.randint(1, 3))]
    values, i_map, patches = {}, {}, []
    for k in range(n):
        names = []
        for m in range(rng.randint(1, 3)):
            name = f"p{k}.{m}"
            if domain == "simplex":
                w = [float(rng.randint(0, 3)) if integer else rng.random() for _ in range(dim)]
                w[rng.randrange(dim)] += 1.0
                values[name] = tuple(x / sum(w) for x in w)
            elif integer:
                values[name] = tuple(float(rng.randint(-2, 2)) for _ in range(dim))
            else:
                values[name] = rg.rand_point(rng, dim)
            i_map[name] = rng.choice(judged)
            names.append(name)
        patches.append(names)
    box = [(-2.0, 2.0)] * dim if domain == "box" else None
    inst = epsilon_instance(dim, domain, values, i_map, box=box)
    # eps at or near the radius of a random subfamily and judged input
    combo = rng.sample(range(n), rng.randint(1, n))
    i_prime = rng.choice(inst.interp_inputs)
    pts = target_set(inst, i_prime, [r for k in combo for r in patches[k]]).points
    radius = min_enclosing_ball(pts).radius if pts else 0.5
    return inst, patches, max(0.0, radius + rng.choice(EPS_OFFSETS))


def test_depth_matches_combination_search_on_euclidean_families(rng, monkeypatch):
    seen = {"feasible": 0, "depth": 0, "marginal": 0}
    for trial in range(400):
        dim = 1 + trial % 4
        inst, patches, eps = _family(rng, dim, "euclidean", integer=trial % 2 == 1)
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        got = obstruction_depth(inst, patches, eps)
        want = combination_depth(inst, patches, eps)
        assert got == want, (dim, patches, eps)
        seen["feasible"] += got.feasible
        seen["depth"] += got.depth is not None
        seen["marginal"] += got.marginal
    assert min(seen.values()) > 40, seen


def test_depth_matches_combination_search_up_to_helly_on_box_and_simplex(rng):
    found = 0
    for trial in range(160):
        domain = ("box", "simplex")[trial % 2]
        dim = rng.randint(1 if domain == "box" else 2, 3)
        helly = dim if domain == "simplex" else dim + 1
        inst, patches, eps = _family(rng, dim, domain, integer=trial % 4 < 2)
        got = obstruction_depth(inst, patches, eps)
        want = combination_depth(inst, patches, eps)
        if want.depth is None or want.depth <= helly:
            assert got == want, (domain, patches, eps)
        else:
            assert (got.feasible, got.depth, got.subfamily) == (False, None, None)
        found += got.depth is not None
    assert found > 20


def test_depth_search_solves_few_subfamilies(monkeypatch):
    """A regular simplex hidden among 10 patches near its centroid: the
    search passes 1,000 smaller subfamilies and finds the simplex, solving
    only where neither bound decides."""
    dim = 3
    r_face, r_full = math.sqrt((dim - 1) / dim), math.sqrt(dim / (dim + 1))
    shape = random.Random(7)
    alpha = (1.0 - math.sqrt(dim + 1.0)) / dim
    verts = [tuple(float(k == m) for k in range(dim)) for m in range(dim)]
    verts.append((alpha,) * dim)
    mid = [sum(v[k] for v in verts) / (dim + 1) for k in range(dim)]
    values = {}
    for k in range(14):
        if k >= 10:
            values[f"p{k:02d}"] = tuple(x - c for x, c in zip(verts[k - 10], mid))
        else:
            values[f"p{k:02d}"] = tuple(shape.uniform(-0.03, 0.03) for _ in range(dim))
    inst = epsilon_instance(dim, "euclidean", values, {r: "cls" for r in values})
    patches = [[name] for name in sorted(values)]
    eps = (r_face + r_full) / 2
    solves = []
    real = epshelly.feasibility

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(epshelly, "feasibility", counted)
    report = obstruction_depth(inst, patches, eps)
    assert (report.depth, report.subfamily) == (4, (10, 11, 12, 13))
    assert report == combination_depth(inst, patches, eps)
    assert len(solves) < 20


def _clouds(rng):
    for dim, n in ((2, 900), (3, 600), (4, 300), (6, 60), (8, 30)):
        yield "gaussian", [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(n)]
    for dim, n in ((2, 900), (3, 300), (5, 60)):
        base = [rng.uniform(-3, 3) for _ in range(dim)]
        step = [rng.gauss(0, 1) for _ in range(dim)]
        yield "collinear", [tuple(b + t * s for b, s in zip(base, step))
                            for t in (rng.uniform(-5, 5) for _ in range(n))]
    for dim in (2, 3, 4, 5, 6):
        scale, shift = rng.uniform(0.5, 2), [rng.uniform(-3, 3) for _ in range(dim)]
        cube = [tuple(shift[k] + scale * ((m >> k) & 1) for k in range(dim))
                for m in range(2 ** dim)]
        yield "cube", cube
    for dim, distinct in ((2, 5), (3, 12), (4, 3), (7, 9)):
        few = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(distinct)]
        yield "duplicates", [rng.choice(few) for _ in range(900 if dim < 7 else 60)]


def test_meb_matches_welzl_on_clouds(rng):
    for kind, pts in _clouds(rng):
        got, want = min_enclosing_ball(pts), welzl_ball(pts)
        assert abs(got.radius - want.radius) <= 1e-12 * want.radius, kind
        assert math.dist(got.center, want.center) <= 1e-9, kind
        assert all(math.dist(got.center, p) <= got.radius * (1 + 1e-12) + 1e-14 for p in pts)


def test_meb_recursion_stays_shallow():
    """The recursion follows the boundary, not the points: 20,000 planar
    points need a handful of frames, where the recursive solver in
    ``eps_oracle`` needs one per point."""
    cloud = random.Random(1200)
    pts = [(cloud.gauss(0, 1), cloud.gauss(0, 1)) for _ in range(20000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(60)
    try:
        balls = [min_enclosing_ball(pts[:1200]), min_enclosing_ball(pts)]
    finally:
        sys.setrecursionlimit(limit)
    for ball, n in zip(balls, (1200, 20000)):
        want = welzl_ball(pts[:n])
        assert abs(ball.radius - want.radius) <= 1e-12 * want.radius
        assert math.dist(ball.center, want.center) <= 1e-9

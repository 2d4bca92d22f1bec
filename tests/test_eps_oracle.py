"""The move-to-front ball solver and the certified, Helly-capped depth
search, held to the Gram-solve reference, the recursive solver, the
plain combination search and the search over every subfamily in
``eps_oracle``."""

import itertools
import math
import random
import sys

import randgen as rg
import test_domain_minimax as dm
from eps_oracle import combination_depth, gram_minimax, pairwise_depth, target_set, welzl_ball

from sheafmealy import epshelly
from sheafmealy import (
    epsilon_instance,
    feasibility,
    min_enclosing_ball,
    obstruction_depth,
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
    pts = target_set(inst, i_prime, [r for k in combo for r in patches[k]])
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


def _hidden_simplex():
    """A regular simplex hidden among 10 patches near its centroid, at a
    tolerance between its facets' circumradius and its own."""
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
    return inst, patches, (r_face + r_full) / 2


def _recorded(monkeypatch, name):
    """The arguments of every call to ``epshelly.<name>``, in order."""
    calls = []
    real = getattr(epshelly, name)

    def record(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(epshelly, name, record)
    return calls


def test_depth_search_solves_few_subfamilies(monkeypatch):
    """On the hidden simplex the search passes 1,000 smaller subfamilies
    and finds the simplex, solving only where neither bound decides."""
    inst, patches, eps = _hidden_simplex()
    solves = _recorded(monkeypatch, "feasibility")
    report = obstruction_depth(inst, patches, eps)
    assert (report.depth, report.subfamily) == (4, (10, 11, 12, 13))
    assert report == combination_depth(inst, patches, eps)
    assert len(solves) < 20


def test_depth_search_skips_the_subfamilies_jung_clears(monkeypatch):
    """Of the 1,470 subfamilies up to the simplex, most are pairwise close
    enough for Jung's bound at their size, and the search never reads
    them: fewer than 400 reach ``_certified``."""
    inst, patches, eps = _hidden_simplex()
    decided = _recorded(monkeypatch, "_certified")
    report = obstruction_depth(inst, patches, eps)
    assert (report.depth, report.subfamily) == (4, (10, 11, 12, 13))
    assert len(decided) < 400


def _regular_simplex(k, dim):
    """k+1 vertices of a regular k-simplex with edge sqrt(2), centered at
    the origin: in the first k+1 coordinates of ``dim`` when k < dim."""
    if k == dim:
        alpha = (1.0 - math.sqrt(dim + 1.0)) / dim
        verts = [tuple(float(j == m) for j in range(dim)) for m in range(dim)]
        verts.append((alpha,) * dim)
    else:
        verts = [tuple(float(j == m) for j in range(dim)) for m in range(k + 1)]
    mid = [sum(v[j] for v in verts) / len(verts) for j in range(dim)]
    return [tuple(x - c for x, c in zip(v, mid)) for v in verts]


def _planted_family(rng, domain, dim):
    """8 to 14 patches over 1 to 3 judged inputs.  The first judged input
    carries a regular simplex of Helly-number many vertices, one per
    patch, among distractors near its centroid; patches share raw inputs
    from one pool near the centroid.  Returns the instance, the patches,
    and the tolerance halfway between the simplex's facet and full
    circumradius."""
    n = rng.randint(8, 14)
    judged = [f"c{k}" for k in range(rng.randint(1, 3))]
    k = dim - 1 if domain == "simplex" else dim
    if domain == "simplex":
        t = rng.uniform(0.3, 0.9)
        bary = (1.0 / dim,) * dim
        edge = t * math.sqrt(2.0)
        verts = [tuple(b + t * x for b, x in zip(bary, v)) for v in _regular_simplex(k, dim)]
        center = bary

        def near():
            w = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            mean = sum(w) / dim
            return tuple(b + 0.03 * t * (x - mean) / dim for b, x in zip(bary, w))
    else:
        scale = rng.uniform(0.2, 1.0)
        edge = scale * math.sqrt(2.0)
        center = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim))
        verts = [tuple(c + scale * x for c, x in zip(center, v))
                 for v in _regular_simplex(k, dim)]

        def near():
            return tuple(c + scale * rng.uniform(-0.03, 0.03) for c in center)
    values, i_map = {}, {}
    pool = []
    for m in range(n):
        name = f"q{m}"
        values[name], i_map[name] = near(), rng.choice(judged)
        pool.append(name)
    planted = sorted(rng.sample(range(n), k + 1))
    patches = []
    for j in range(n):
        names = set(rng.sample(pool, rng.randint(0 if j in planted else 1, 2)))
        if j in planted:
            v = verts[planted.index(j)]
            for i in judged:
                if i == judged[0] or rng.random() < 0.5:
                    values[f"v{j}{i}"], i_map[f"v{j}{i}"] = v, i
                    names.add(f"v{j}{i}")
        patches.append(sorted(names))
    if rng.random() < 0.2:  # one patch also sees a vertex of the simplex
        patches[rng.randrange(n)].append(f"v{planted[0]}{judged[0]}")
    box = [(c - 2.0, c + 2.0) for c in center] if domain == "box" else None
    inst = epsilon_instance(dim, domain, values, i_map, interp_inputs=judged, box=box)
    r_full, r_face = (edge * math.sqrt(j / (2.0 * (j + 1))) for j in (k, k - 1))
    return inst, patches, (r_face + r_full) / 2


def _jung_cliques(inst, patches, eps):
    """Whether the search may pass a subfamily unread: on the euclidean
    domain, when every two of its patches (each with itself too) have, for
    every judged input, a farthest pair of targets that clears Jung's bound
    at the largest dimension a subfamily of its size can span."""
    sets = {i: [target_set(inst, i, p) for p in patches] for i in inst.interp_inputs}
    counts = sorted((max(len(s[k]) for s in sets.values()) for k in range(len(patches))),
                    reverse=True)
    far = {}

    def farthest(i, a, b):
        if (i, a, b) not in far:
            far[i, a, b] = max((math.dist(p, q) for p in sets[i][a] for q in sets[i][b]),
                               default=0.0)
        return far[i, a, b]

    def clique(size, combo):
        if inst.domain != "euclidean":
            return False
        m = min(inst.dim, max(sum(counts[:size]) - 1, 0))
        factor = math.sqrt(m / (2.0 * (m + 1)))
        return all(farthest(i, a, b) * factor < eps - 1e-9 for i in sets
                   for a, b in itertools.combinations_with_replacement(combo, 2))
    return clique


def test_depth_matches_the_pairwise_search(rng, monkeypatch):
    """The search against the one that decides every subfamily: the same
    report, after the same solves in the same order, and the same bounds
    read on every subfamily but the Jung cliques.  Families of 8 to 14
    patches hide a regular simplex among distractors near its centroid,
    at a tolerance between its facet and full radius, on or 5e-10 either
    side of a subfamily's radius, zero, or below 1e-9."""
    seen = {"feasible": 0, "depth": 0, "marginal": 0, "skipped": 0}
    for trial in range(120):
        domain = ("euclidean", "euclidean", "box", "simplex")[trial % 4]
        dim = rng.randint(2, 3) if trial % 8 else 4 if domain != "simplex" else 3
        inst, patches, between = _planted_family(rng, domain, dim)
        kind = trial // 4 % 6
        if kind < 2:
            eps = between
        elif kind < 4:
            # a few patches, or all of them
            helly = dim if domain == "simplex" else dim + 1
            size = rng.randint(1, helly) if kind == 2 else len(patches)
            combo = rng.sample(range(len(patches)), size)
            i_prime = rng.choice(inst.interp_inputs)
            pts = target_set(inst, i_prime, [r for k in combo for r in patches[k]])
            radius = feasibility(inst, pts, 0.0).radius if pts else 0.5
            eps = max(0.0, radius + rng.choice((0.0, 5e-10, -5e-10)))
        else:
            eps = (0.0, rng.uniform(0.0, 1e-9))[kind - 4]
        with monkeypatch.context() as m:
            solves, decided = _recorded(m, "feasibility"), _recorded(m, "_certified")
            got = obstruction_depth(inst, patches, eps)
            want_solves, want_decided = list(solves), list(decided)
            solves.clear()
            decided.clear()
            want = pairwise_depth(inst, patches, eps)
            assert got == want, (domain, patches, eps)
            assert want_solves == solves, (domain, patches, eps)
            seen["skipped"] += len(want_decided) < len(decided)
            decided.clear()
            pairwise_depth(inst, patches, eps, skip=_jung_cliques(inst, patches, eps))
            assert want_decided == decided, (domain, patches, eps)
        seen["feasible"] += got.feasible
        seen["depth"] += got.depth is not None
        seen["marginal"] += got.marginal
    assert min(seen.values()) > 5, seen


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


def test_meb_pivots_on_few_points(monkeypatch):
    """A plain move-to-front pass over a Gaussian cloud puts dozens of
    points on a rim (26 and 70 on these two); the pivot loop puts few."""
    cloud = random.Random(3)
    clouds = [[tuple(cloud.gauss(0, 1) for _ in range(dim)) for _ in range(n)]
              for dim, n in ((2, 300), (3, 250))]
    pushes = _recorded(monkeypatch, "_push")
    for pts in clouds:
        pushes.clear()
        ball = min_enclosing_ball(pts)
        assert abs(ball.radius - welzl_ball(pts).radius) <= 1e-12 * ball.radius
        assert len(pushes) <= 15, len(pushes)


def _cloud(rng, dim):
    """1 to 40 points: Gaussian, on a line or a plane (dependent rims), on
    a small integer grid, the corners of a cube or the vertices of a
    cross-polytope (cospherical, with integer coordinates), or a few
    distinct points repeated."""
    n = rng.randint(1, 40)
    kind = rng.choice(("gaussian", "line", "plane", "grid", "cube", "cross", "duplicates"))
    if kind in ("gaussian", "line", "plane"):
        span = {"line": 1, "plane": 2}.get(kind, dim)
        axes = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(span)]
        base = [rng.uniform(-3, 3) for _ in range(dim)]
        return [tuple(b + sum(t * a[k] for t, a in zip(ts, axes)) for k, b in enumerate(base))
                for ts in ([rng.gauss(0, 1) for _ in axes] for _ in range(n))]
    if kind == "grid":
        return [tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(n)]
    if kind == "cube":
        return [tuple(float((m >> k) & 1) for k in range(dim)) for m in range(2 ** dim)]
    if kind == "cross":
        return [tuple(s * float(k == m) for k in range(dim)) for m in range(dim) for s in (1, -1)]
    few = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
    return [rng.choice(few) for _ in range(n)]


def test_minimax_matches_the_gram_reference(rng, monkeypatch):
    """The boundary frame against the Gram solve it replaces, on euclidean
    clouds in 1 to 8 dimensions and the box and simplex instances of
    ``test_domain_minimax``.  The two visit points in different orders, so
    only the radius is compared, with the library's ball holding every
    cloud point and its center in the box or simplex domain."""
    for trial in range(480):
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        dim = 1 + trial % 8
        pts = _cloud(rng, dim)
        (got_center, got), (_, want) = epshelly._minimax(pts), gram_minimax(pts)
        assert abs(got - want) <= 1e-12 * want, pts
        assert all(math.dist(got_center, p) <= got * (1 + 1e-12) + 1e-14 for p in pts)
    for trial in range(360):
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        domain, dim = ("box", "simplex")[trial % 2], 1 + trial % 4
        box = dm._box(rng, dim) if domain == "box" else None
        facets = dm._box_facets(box) if box else [(k, 0.0, 1.0) for k in range(dim)]
        pts = dm._targets(rng, domain, dim, box)
        (got_center, got) = epshelly._minimax(pts, facets, domain == "simplex")
        _, want = gram_minimax(pts, facets, domain == "simplex")
        assert abs(got - want) <= 1e-12 * want, (box, pts)
        assert dm._in_domain(got_center, domain, box), (box, pts, got_center)


def test_depth_reports_match_on_the_gram_reference(rng, monkeypatch):
    """``obstruction_depth`` on the boundary frame and on the Gram solve
    agree field by field, ``marginal`` included, with eps on, inside and
    just outside the 1e-9 band around a subfamily radius."""
    seen = {"feasible": 0, "depth": 0, "marginal": 0}
    for trial in range(300):
        domain = ("euclidean", "box", "simplex")[trial % 3]
        dim = rng.randint(1 if domain != "simplex" else 2, 4)
        inst, patches, eps = _family(rng, dim, domain, integer=trial % 2 == 1)
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        got = obstruction_depth(inst, patches, eps)
        with monkeypatch.context() as m:
            m.setattr(epshelly, "_minimax", gram_minimax)
            want = obstruction_depth(inst, patches, eps)
        assert got == want, (domain, patches, eps)
        seen["feasible"] += got.feasible
        seen["depth"] += got.depth is not None
        seen["marginal"] += got.marginal
    assert min(seen.values()) > 30, seen


def test_coordinates_whose_squares_overflow_are_rescaled(rng):
    """Scaling an instance by 2**600 is exact, and its squared offsets
    overflow; the solver rescales by a power of two and finds 2**600 times
    the unit radius, on a cloud and on a box."""
    big = 2.0 ** 600
    for dim in range(1, 6):
        pts = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(30)]
        unit = min_enclosing_ball(pts)
        ball = min_enclosing_ball([tuple(x * big for x in p) for p in pts])
        assert abs(ball.radius - unit.radius * big) <= 1e-12 * unit.radius * big
        assert math.dist([x / big for x in ball.center], unit.center) <= 1e-12 * unit.radius
        box = dm._box(rng, dim)
        targets = dm._targets(rng, "box", dim, box)
        facets = dm._box_facets(box)
        _, want = epshelly._minimax(targets, facets)
        center, radius = epshelly._minimax([tuple(x * big for x in p) for p in targets],
                                           [(axis, b * big, side) for axis, b, side in facets])
        assert abs(radius - want * big) <= 1e-12 * want * big
        assert dm._in_domain([x / big for x in center], "box", box)


def test_far_box_bounds_leave_the_targets_unscaled(rng):
    """Box bounds near 1e300 do not set the solver's scale: targets of
    unit size, or 1e-5 apart, keep the Gram reference's radius and their
    feasibility verdicts, with some of the near bounds tight."""
    for trial in range(120):
        dim = 1 + trial % 4
        spread = (1.0, 1e-5)[trial % 2]
        box = [rng.choice([(-1e300, 1e300), (0.0, 1e300), (-1e300, 0.0)])
               for _ in range(dim)]
        targets = [tuple(rng.uniform(0.0, spread) * (-1.0 if hi == 0.0 else 1.0)
                         for _, hi in box) for _ in range(rng.randint(2, 6))]
        facets = dm._box_facets(box)
        center, radius = epshelly._minimax(targets, facets)
        _, want = gram_minimax(targets, facets)
        assert 0.0 < want and abs(radius - want) <= 1e-12 * want, (box, targets)
        assert dm._in_domain(center, "box", box)
        values = {f"p{k}": p for k, p in enumerate(targets)}
        inst = epsilon_instance(dim, "box", values, {raw: "c" for raw in values}, box=box)
        assert not feasibility(inst, targets, want / 2).feasible
        assert feasibility(inst, targets, want).feasible


def _frame(rng, dim, k):
    """``k`` orthonormal vectors in ``dim`` dimensions, from Gaussian ones."""
    basis = []
    while len(basis) < k:
        v = [rng.gauss(0, 1) for _ in range(dim)]
        for _ in range(2):
            for q in basis:
                t = sum(x * y for x, y in zip(v, q))
                v = [x - t * y for x, y in zip(v, q)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            basis.append([x / norm for x in v])
    return basis


def _placed(rng, dim, shape):
    """``shape`` (points of k <= dim coordinates) turned into a random
    k-dimensional subspace, scaled and shifted."""
    frame = _frame(rng, dim, len(shape[0]))
    scale, base = rng.uniform(0.1, 10.0), [rng.uniform(-5, 5) for _ in range(dim)]
    return [tuple(b + scale * sum(t * q[j] for t, q in zip(p, frame)) for j, b in enumerate(base))
            for p in shape]


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# Regular polyhedra: tetrahedron, octahedron, icosahedron.
SOLIDS = (
    [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)],
    [tuple(s * float(k == m) for k in range(3)) for m in range(3) for s in (1, -1)],
    [tuple(v[(k - m) % 3] for k in range(3))
     for m in range(3) for v in ((0.0, a, b * GOLDEN) for a in (1, -1) for b in (1, -1))],
)


def _degenerate(rng, dim, kind):
    """A degenerate cloud in ``dim`` dimensions: points on a line, on a
    circle or the sphere of a regular solid, the corners of a cube, a few
    points repeated, or points on a line moved by 1e-9.  A circle needs two
    dimensions, so in one the cocircular cloud is collinear."""
    if kind == "cocircular" and dim == 1:
        kind = "collinear"
    if kind in ("collinear", "near-collinear"):
        line = _placed(rng, dim, [(rng.uniform(-3, 3),) for _ in range(rng.randint(2, 60))])
        if kind == "collinear":
            return line
        return [tuple(x + 1e-9 * rng.gauss(0, 1) for x in p) for p in line]
    if kind == "cocircular":
        if dim >= 3 and rng.random() < 0.5:
            return _placed(rng, dim, rng.choice(SOLIDS))
        m, turn = rng.randint(3, 24), rng.uniform(0, 2 * math.pi)
        polygon = [(math.cos(turn + 2 * math.pi * k / m), math.sin(turn + 2 * math.pi * k / m))
                   for k in range(m)]
        return _placed(rng, dim, polygon)
    if kind == "cube":
        scale, shift = rng.uniform(0.5, 2), [rng.uniform(-3, 3) for _ in range(dim)]
        return [tuple(shift[k] + scale * ((m >> k) & 1) for k in range(dim))
                for m in range(2 ** dim)]
    few = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
    return [rng.choice(few) for _ in range(rng.randint(1, 200))]


def test_minimax_on_degenerate_inputs(rng, monkeypatch):
    """Clouds on lines and circles, regular solids, cube corners, heavy
    duplicates and 1e-9 jitter in 1 to 8 dimensions, and box (some sides a
    single point) and simplex instances: the pivot loop finds the Gram
    reference's radius, holds every point, and never refuses an input."""
    kinds = ("collinear", "cocircular", "cube", "duplicates", "near-collinear", "box", "simplex")
    trial = 0
    for dim, kind in itertools.product(range(1, 9), kinds):
        for _ in range(12):
            trial += 1
            monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
            box, facets = None, []
            if kind == "box":
                box = dm._box(rng, dim)
                facets = dm._box_facets(box)
                pts = dm._targets(rng, kind, dim, box)
            elif kind == "simplex":
                facets = [(k, 0.0, 1.0) for k in range(dim)]
                pts = dm._targets(rng, kind, dim, None)
            else:
                pts = _degenerate(rng, dim, kind)
            center, got = epshelly._minimax(pts, facets, kind == "simplex")
            _, want = gram_minimax(pts, facets, kind == "simplex")
            assert abs(got - want) <= 1e-12 * want, (kind, box, pts)
            assert all(math.dist(center, p) <= got * (1 + 1e-12) + 1e-14 for p in pts)
            if facets:
                assert dm._in_domain(center, kind, box), (kind, box, pts, center)

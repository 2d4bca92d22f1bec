"""Box and simplex feasibility held to the basis-enumeration oracle in
``eps_oracle``, to instances whose radius is known by construction, and to
three instances once given false "infeasible" verdicts."""

import math

import pytest
from eps_oracle import basis_minimax

from sheafmealy import CheckerError, epshelly, epsilon_instance, feasibility


def _box_facets(box):
    return [f for k, (lo, hi) in enumerate(box) for f in ((k, lo, 1.0), (k, hi, -1.0))]


def _instance(domain, dim, box=None):
    anchor = [lo for lo, _ in box] if domain == "box" else [1.0] + [0.0] * (dim - 1)
    return epsilon_instance(dim, domain, {"a": anchor}, {"a": "c"}, box=box)


def _in_domain(center, domain, box):
    if domain == "box":
        return all(lo - 1e-12 <= x <= hi + 1e-12 for x, (lo, hi) in zip(center, box))
    return all(x >= -1e-12 for x in center) and abs(sum(center) - 1.0) <= 1e-12


def _box(rng, dim):
    """Integer or random sides, one in four of them a single point."""
    box = []
    for _ in range(dim):
        lo = float(rng.randint(-2, 1)) if rng.random() < 0.5 else rng.uniform(-2.0, 1.0)
        width = 0.0 if rng.random() < 0.25 else rng.choice([1.0, rng.uniform(0.1, 2.0)])
        box.append((lo, lo + width))
    return box


def _targets(rng, domain, dim, box):
    """Targets inside the domain, outside it and on its facets, with
    duplicates."""
    pts = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(("inside", "outside", "facet", "duplicate"))
        if kind == "duplicate" and pts:
            pts.append(rng.choice(pts))
            continue
        if domain == "box":
            p = [rng.uniform(lo, hi) if kind != "outside" else rng.uniform(lo - 2.0, hi + 2.0)
                 for lo, hi in box]
            if kind == "facet":
                k = rng.randrange(dim)
                p[k] = rng.choice(box[k])
        else:
            w = [-math.log(rng.random()) for _ in range(dim)]
            if kind == "facet":
                w[rng.randrange(dim)] = 0.0
            p = [x / sum(w) for x in w] if sum(w) > 0 else [1.0] + [0.0] * (dim - 1)
            if kind == "outside":
                p = [rng.uniform(-1.0, 2.0) for _ in range(dim)]
        pts.append(tuple(p))
    return pts


@pytest.mark.parametrize("domain", ["box", "simplex"])
def test_feasibility_matches_basis_oracle(rng, monkeypatch, domain):
    for trial in range(160):
        dim = 1 + trial % 3
        box = _box(rng, dim) if domain == "box" else None
        facets = _box_facets(box) if box else [(k, 0.0, 1.0) for k in range(dim)]
        pts = _targets(rng, domain, dim, box)
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        res = feasibility(_instance(domain, dim, box), pts, 1.0)
        _, want = basis_minimax(pts, facets, simplex=domain == "simplex")
        assert abs(res.radius - want) <= 1e-12 * max(want, 1.0), (box, pts)
        assert _in_domain(res.center, domain, box), (box, pts, res.center)
        assert all(math.dist(res.center, p) <= res.radius * (1 + 1e-12) + 1e-14 for p in pts)


# A power of two, so that scaling an instance by it is exact.
SMALL = 2.0 ** -23


def _tiny_simplex(rng, dim):
    """A dyadic point c of the simplex, some coordinates zero, and targets
    c + SMALL * u with u at unit scale: on the simplex's plane or off it,
    on the facets through c or outside them, and duplicated."""
    counts = [0] * dim
    for _ in range(8):
        counts[rng.randrange(dim)] += 1
    c = [n / 8 for n in counts]
    us = []
    for _ in range(rng.randint(1, 6)):
        if us and rng.random() < 0.2:
            us.append(rng.choice(us))
            continue
        u = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        if rng.random() < 0.5:
            u[-1] = -sum(u[:-1])
        us.append([0.0 if ck == 0.0 and rng.random() < 0.3 else x for x, ck in zip(u, c)])
    return c, [tuple(ck + SMALL * x for ck, x in zip(c, u)) for u in us]


@pytest.mark.parametrize("domain", ["box", "simplex"])
def test_feasibility_is_free_of_scale(rng, monkeypatch, domain):
    """Boxes with sides near 1e7 and 1e-7, and simplex targets near 1e-7
    apart, held to the oracle on the same instance mapped exactly to unit
    scale: the box divided by its scale, the simplex around c as
    (y - c) / SMALL, shifted onto the plane of coordinate sum one."""
    for trial in range(60):
        dim = 1 + trial % 3 if domain == "box" else 2 + trial % 2
        if domain == "box":
            scale = rng.choice((2.0 ** 23, SMALL))
            unit_box = _box(rng, dim)
            unit_pts = _targets(rng, domain, dim, unit_box)
            box = [(lo * scale, hi * scale) for lo, hi in unit_box]
            pts = [tuple(x * scale for x in p) for p in unit_pts]
            _, unit_radius = basis_minimax(unit_pts, _box_facets(unit_box))
        else:
            scale, box = SMALL, None
            c, pts = _tiny_simplex(rng, dim)
            unit_pts = [tuple((y - ck) / SMALL + (k == 0) for k, (y, ck) in enumerate(zip(p, c)))
                        for p in pts]
            facets = [(k, (k == 0) - ck / SMALL, 1.0) for k, ck in enumerate(c)]
            _, unit_radius = basis_minimax(unit_pts, facets, simplex=True)
        want = unit_radius * scale
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        res = feasibility(_instance(domain, dim, box), pts, want)
        assert abs(res.radius - want) <= 1e-12 * want + 1e-14, (box, pts)
        assert _in_domain(res.center, domain, box), (box, pts, res.center)
        assert all(math.dist(res.center, p) <= res.radius * (1 + 1e-12) + 1e-14 for p in pts)


def test_simplex_targets_closer_than_the_tolerance_apart():
    """Two targets 1.4e-7 apart are at radius 7.07e-8, so eps 1e-8 is
    infeasible: the sum row must not swamp the targets' offsets."""
    inst = _instance("simplex", 2)
    res = feasibility(inst, [(0.5, 0.5), (0.5000001, 0.4999999)], 1e-8)
    assert not res.feasible and not res.marginal
    assert abs(res.radius - 0.5e-7 * math.sqrt(2.0)) <= 1e-14


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _known_radius(rng, domain, dim):
    """Targets whose constrained center is a known boundary point c: two at
    radius r from c, balanced against the outward normal of the domain at
    c, and a few more well inside that ball.  On the simplex the targets
    also sit at a common height off its hyperplane."""
    theta = rng.uniform(math.radians(20), math.radians(70))
    r = rng.uniform(0.5, 2.5)
    k = rng.randrange(dim)
    i, j = [m for m in range(dim) if m != k][:2] if dim > 2 else ((k + 1) % dim, None)
    if domain == "box":
        box = [(0.0, rng.uniform(1.0, 3.0)) for _ in range(dim)]
        side = rng.choice((0, 1))
        c = [rng.uniform(0.2, 0.8) * hi for _, hi in box]
        c[k] = box[k][side]
        normal = [0.0] * dim
        normal[k] = 1.0 if side else -1.0
        tangent = [float(m == i) for m in range(dim)]
        lift, height = [0.0] * dim, 0.0
    else:
        box = None
        c = [rng.uniform(0.25, 1.0) if m != k else 0.0 for m in range(dim)]
        c = [x / sum(c) for x in c]
        normal = _unit([-float(m == k) + 1.0 / dim for m in range(dim)])
        tangent = _unit([float(m == i) - float(m == j) for m in range(dim)])
        lift, height = _unit([1.0] * dim), rng.uniform(-0.5, 0.5)
    pts = [tuple(ci + r * (math.cos(theta) * ni + sign * math.sin(theta) * ti) + height * li
                 for ci, ni, ti, li in zip(c, normal, tangent, lift))
           for sign in (1.0, -1.0)]
    radius = math.hypot(r, height)
    for _ in range(3):
        off = _unit([rng.gauss(0.0, 1.0) for _ in range(dim)])
        scale = 0.8 * radius * rng.random()
        pts.append(tuple(ci + scale * oi for ci, oi in zip(c, off)))
    rng.shuffle(pts)
    return box, pts, radius


@pytest.mark.parametrize("domain", ["box", "simplex"])
def test_feasibility_finds_radii_known_by_construction(rng, monkeypatch, domain):
    for trial in range(100):
        dim = 2 + trial % 2 if domain == "box" else 3 + trial % 2
        box, pts, radius = _known_radius(rng, domain, dim)
        monkeypatch.setattr(epshelly, "_ORDER_SEED", trial)
        res = feasibility(_instance(domain, dim, box), pts, radius * 1.005)
        assert abs(res.radius - radius) <= 1e-12 * radius, (box, pts)
        assert res.feasible and _in_domain(res.center, domain, box)


# Box instances whose radius an iterative solver overstated beyond a
# tolerance just above it: (box, targets, eps, radius).
FALSE_INFEASIBLE = [
    (((0.0, 1.0), (0.0, 1.0)),
     [(-0.6006, 2.4312), (2.5299, 0.2477), (0.1707, 0.3485), (2.9956, 0.6342)],
     2.1140, 2.0964471613),
    (((0.0, 1.5617663284366965), (0.0, 1.480260815652708)),
     [(1.2707295288791398, 0.8558212325994916), (1.2947372491860287, 0.3107599141966691),
      (1.4532293078372958, 1.0562899854536898), (2.035339041619649, 0.25465971063500725),
      (2.035339041619649, 0.9631074520052898)],
     0.5943499520725174, 0.5913929871),
    (((0.0, 1.8962706532872924), (0.0, 2.4206999521765615)),
     [(2.356727564876696, 0.04992722402166677), (2.7316808893070577, 0.08568716363137069),
      (1.847533310011034, 0.3449425414343489), (2.7316808893070577, 0.9742273820980951),
      (1.682687040663377, -0.14933715284241356)],
     0.9556575981344787, 0.9461956417),
]


@pytest.mark.parametrize("box, pts, eps, radius", FALSE_INFEASIBLE)
def test_box_instances_once_falsely_infeasible(box, pts, eps, radius):
    res = feasibility(_instance("box", 2, box), pts, eps)
    assert res.feasible and not res.marginal
    assert abs(res.radius - radius) <= 1e-9


@pytest.mark.parametrize("domain", ["euclidean", "box", "simplex"])
def test_targets_of_another_dimension_are_refused(domain):
    inst = _instance(domain, 2, [(0.0, 1.0)] * 2 if domain == "box" else None)
    for pts in ([(5.0,)], [(5.0, 5.0, 5.0)]):
        with pytest.raises(CheckerError, match="target points must have 2 coordinates"):
            feasibility(inst, pts, 1.0)

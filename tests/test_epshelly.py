"""Feasibility geometry checked against independent oracles.

The minimal-ball oracle below enumerates candidate support subsets and
solves each circumcenter from the Gram system of the subset, a different
route from the library's randomized recursion, so agreement is meaningful.
"""

import itertools
import math
import struct

import numpy as np
import pytest
import randgen as rg
from eps_oracle import discrete_feasible, discrete_obstruction_depth, target_set

from sheafmealy import (
    Ball,
    CheckerError,
    DepthReport,
    EmptyInput,
    Infeasible,
    NegativeEpsilon,
    ScaleExceeded,
    canonical_point,
    eps_glue,
    epsilon_instance,
    feasibility,
    min_enclosing_ball,
    obstruction_depth,
    project_box,
    project_simplex,
)
from sheafmealy import epshelly
from sheafmealy import fixtures as fx


def _circumball(pts: list[np.ndarray]) -> tuple[np.ndarray, float] | None:
    """Equidistant point in the affine hull of pts, or None if degenerate."""
    base = pts[0]
    if len(pts) == 1:
        return base, 0.0
    span = np.array([p - base for p in pts[1:]])
    gram = span @ span.T
    try:
        lam = np.linalg.solve(gram, 0.5 * np.array([v @ v for v in span]))
    except np.linalg.LinAlgError:
        return None
    center = base + span.T @ lam
    return center, float(np.linalg.norm(center - base))


def _oracle_meb_radius(points, dim: int) -> float:
    """Minimal enclosing radius by support-subset enumeration."""
    arr = [np.asarray(p, dtype=float) for p in points]
    best = math.inf
    for size in range(1, min(dim + 1, len(arr)) + 1):
        for combo in itertools.combinations(range(len(arr)), size):
            got = _circumball([arr[k] for k in combo])
            if got is None:
                continue
            center, radius = got
            if radius < best and all(
                float(np.linalg.norm(p - center)) <= radius + 1e-12
                for p in arr
            ):
                best = radius
    return best


def _family_instance(dim, family):
    """One judged input, one raw input per sample point, patch per part."""
    values: dict[str, tuple[float, ...]] = {}
    i_map: dict[str, str] = {}
    patches: list[list[str]] = []
    for k, part in enumerate(family):
        names = []
        for m, point in enumerate(part):
            name = f"p{k}.{m}"
            values[name] = point
            i_map[name] = "cls"
            names.append(name)
        patches.append(names)
    return epsilon_instance(dim, "euclidean", values, i_map), patches


def test_meb_small_exact_cases():
    one = min_enclosing_ball([(3.0, 4.0)])
    assert one.center == (3.0, 4.0) and one.radius == 0.0
    two = min_enclosing_ball([(0.0, 0.0), (2.0, 0.0)])
    assert math.dist(two.center, (1.0, 0.0)) <= 1e-12
    assert abs(two.radius - 1.0) <= 1e-12
    line = min_enclosing_ball([(0.0,), (1.0,), (4.0,)])
    assert abs(line.center[0] - 2.0) <= 1e-12
    assert abs(line.radius - 2.0) <= 1e-12
    tri = min_enclosing_ball([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))])
    assert abs(tri.radius - 2.0 / math.sqrt(3.0)) <= 1e-12
    # an obtuse apex stays strictly inside the long side's diameter ball
    obtuse = min_enclosing_ball([(0.0, 0.0), (4.0, 0.0), (1.0, 0.5)])
    assert abs(obtuse.radius - 2.0) <= 1e-12
    assert math.dist(obtuse.center, (2.0, 0.0)) <= 1e-12
    # points with no coordinates: the one point of R^0, radius 0
    assert min_enclosing_ball([()]) == Ball((), 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_meb_matches_support_subset_oracle(rng, dim):
    for trial in range(250):
        count = rng.randint(1, dim + 2)
        pts = [rg.rand_point(rng, dim) for _ in range(count)]
        if trial % 5 == 0:
            pts.append(pts[0])
        ball = min_enclosing_ball(pts)
        assert abs(ball.radius - _oracle_meb_radius(pts, dim)) <= 1e-12
        assert all(
            math.dist(p, ball.center) <= ball.radius + 1e-9 for p in pts
        )


def test_meb_high_dim_and_guards(monkeypatch):
    basis = [tuple(1.0 if i == k else 0.0 for i in range(8)) for k in range(8)]
    ball = min_enclosing_ball(basis)
    assert abs(ball.radius - math.sqrt(7.0 / 8.0)) <= 1e-12
    assert all(abs(c - 1.0 / 8.0) <= 1e-12 for c in ball.center)
    for s in (1, 2, 20250817):
        monkeypatch.setattr(epshelly, "_ORDER_SEED", s)
        again = min_enclosing_ball(basis)
        assert abs(again.radius - ball.radius) <= 1e-12
    with pytest.raises(EmptyInput):
        min_enclosing_ball([])
    with pytest.raises(ScaleExceeded):
        min_enclosing_ball([(0.0,) * 9])
    with pytest.raises(CheckerError):
        min_enclosing_ball([(0.0,), (0.0, 1.0)])


def test_triangle_pair_triple_radii_and_depth():
    inst, patches, eps = fx.triangle_objects()
    assert eps == 1.08
    names = [p[0] for p in patches]
    for a, b in itertools.combinations(names, 2):
        pts = target_set(inst, "cls", [a, b])
        assert abs(min_enclosing_ball(pts).radius - 1.0) <= 1e-9
        assert feasibility(inst, pts, eps).feasible
    all_pts = target_set(inst, "cls", names)
    assert abs(min_enclosing_ball(all_pts).radius - 2.0 / math.sqrt(3.0)) <= 1e-9
    triple = feasibility(inst, all_pts, eps)
    assert not triple.feasible and not triple.marginal
    report = obstruction_depth(inst, patches, eps)
    assert not report.feasible
    assert report.depth == 3
    assert report.subfamily == (0, 1, 2)
    assert report.i_prime == "cls"
    with pytest.raises(Infeasible) as exc:
        eps_glue(inst, patches, eps)
    assert exc.value.i_prime == "cls"
    # above the triple radius the same family glues
    glued = eps_glue(inst, patches, 1.2)
    ((key, center),) = glued.assignment
    assert key == "cls"
    assert all(math.dist(center, p) <= 1.2 + 1e-9 for p in all_pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_helly_bound_on_random_families(rng, dim):
    """Feasibility of every (dim+1)-subfamily at eps forces the full family."""
    probe = epsilon_instance(
        dim, "euclidean", {"z": (0.0,) * dim}, {"z": "cls"}
    )
    for trial in range(300):
        family = rg.rand_point_family(rng, dim)
        union = [p for part in family for p in part]
        r_small = 0.0
        for combo in rg.subfamilies(len(family), dim + 1):
            pts = [p for k in combo for p in family[k]]
            r_small = max(r_small, min_enclosing_ball(pts).radius)
        eps = r_small + 1e-6
        res = feasibility(probe, union, eps)
        assert res.feasible
        assert res.radius <= r_small + 1e-7
        if trial % 30 == 0:
            inst, patches = _family_instance(dim, family)
            report = obstruction_depth(inst, patches, eps)
            assert report.feasible
            assert report.depth is None and report.subfamily is None
            if res.radius > 1e-6:
                # contrapositive: an infeasible budget must already break
                # on some subfamily of at most dim+1 parts
                tight = res.radius * 0.98
                low = obstruction_depth(inst, patches, tight)
                assert not low.feasible
                assert low.depth is not None and low.depth <= dim + 1
                blame = [p for k in low.subfamily for p in family[k]]
                assert min_enclosing_ball(blame).radius > tight


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sharp_simplex_depth_is_dim_plus_one(dim):
    inst, patches, eps = fx.sharp_simplex_objects(dim)
    assert len(patches) == dim + 1
    names = [p[0] for p in patches]
    r_face = math.sqrt((dim - 1) / dim) if dim > 1 else 0.0
    r_full = math.sqrt(dim / (dim + 1))
    assert abs(eps - (r_face + r_full) / 2) <= 1e-12
    full_pts = target_set(inst, "cls", names)
    assert abs(min_enclosing_ball(full_pts).radius - r_full) <= 1e-9
    for combo in rg.subfamilies(dim + 1, dim):
        pts = target_set(inst, "cls", [names[k] for k in combo])
        assert abs(min_enclosing_ball(pts).radius - r_face) <= 1e-9
        assert feasibility(inst, pts, eps).feasible
    report = obstruction_depth(inst, patches, eps)
    assert not report.feasible
    assert report.depth == dim + 1
    assert report.subfamily == tuple(range(dim + 1))
    assert report.i_prime == "cls"


def test_union_patch_feasibility_decomposition(rng):
    """A union patch is feasible exactly where every part is feasible."""
    feas_seen = infeas_seen = 0
    for _ in range(200):
        raws = [f"r{k}" for k in range(rng.randint(4, 8))]
        values = {n: rg.rand_point(rng, 2) for n in raws}
        inst = epsilon_instance(2, "euclidean", values,
                                {n: "cls" for n in raws})
        patch_a = rng.sample(raws, rng.randint(1, len(raws) - 1))
        patch_b = rng.sample(raws, rng.randint(1, len(raws) - 1))
        union = sorted(set(patch_a) | set(patch_b))
        ts_a = target_set(inst, "cls", patch_a)
        ts_b = target_set(inst, "cls", patch_b)
        ts_u = target_set(inst, "cls", union)
        assert set(ts_u) == set(ts_a) | set(ts_b)
        base = min_enclosing_ball(ts_u).radius
        eps = base * (0.85 if rng.random() < 0.5 else 1.15)
        res = feasibility(inst, ts_u, eps)
        if res.feasible:
            feas_seen += 1
            for side in (ts_a, ts_b):
                assert all(
                    math.dist(res.center, p) <= eps + 1e-9 for p in side
                )
        else:
            infeas_seen += 1
            assert _oracle_meb_radius(ts_u, 2) > eps
        for _ in range(8):
            y = rg.rand_point(rng, 2)
            in_a = all(math.dist(y, p) <= eps for p in ts_a)
            in_b = all(math.dist(y, p) <= eps for p in ts_b)
            in_u = all(math.dist(y, p) <= eps for p in ts_u)
            assert in_u == (in_a and in_b)
    assert feas_seen > 20 and infeas_seen > 20


def test_target_set_selection():
    inst = epsilon_instance(
        1, "euclidean",
        {"a": (0.0,), "b": (0.0,), "c": (1.0,)},
        {"a": "x", "b": "x", "c": "y"},
    )
    assert target_set(inst, "x", ["a", "b"]) == ((0.0,),)
    assert target_set(inst, "y", ["a", "b"]) == ()
    assert target_set(inst, "y", ["a", "c"]) == ((1.0,),)
    with pytest.raises(CheckerError):
        target_set(inst, "x", ["zz"])


def test_discrete_hard_classification_helly_two(rng):
    """Pairwise-compatible hard labels force a global hard label."""
    agree = disagree = 0
    grid = [(0.0,), (1.0,)]
    for _ in range(500):
        n = rng.randint(2, 4)
        family = [
            tuple(rng.choice(grid) for _ in range(rng.randint(1, 2)))
            for _ in range(n)
        ]
        eps = rng.choice([0.0, 0.25, 0.5, 0.99])
        union = [p for part in family for p in part]
        pairwise = all(
            discrete_feasible(list(family[i]) + list(family[j]), eps)
            for i in range(n)
            for j in range(i, n)
        )
        full = discrete_feasible(union, eps)
        assert pairwise == full
        depth = discrete_obstruction_depth(family, eps)
        assert (depth is None) == full
        if depth is not None:
            assert depth <= 2
            singles_ok = all(
                discrete_feasible(list(part), eps) for part in family
            )
            assert singles_ok == (depth == 2)
        if full:
            agree += 1
        else:
            disagree += 1
    assert agree > 20 and disagree > 20


def test_discrete_feasibility_basics():
    assert discrete_feasible([], 0.0)
    assert discrete_feasible([(0.0,), (0.0,)], 0.0)
    assert not discrete_feasible([(0.0,), (1.0,)], 0.999)
    assert discrete_feasible([(0.0,), (1.0,)], 1.0)
    assert discrete_obstruction_depth([[(0.0,)], [(1.0,)]], 1.0) is None
    assert discrete_obstruction_depth([[(0.0,), (1.0,)]], 0.5) == 1
    assert discrete_obstruction_depth(
        [[(0.0,)], [(0.5,)], [(1.0,)]], 0.5
    ) == 2
    with pytest.raises(NegativeEpsilon):
        discrete_feasible([(0.0,)], -0.5)


def test_nan_tolerance_is_refused_everywhere():
    """NaN compares false with everything, so no ``eps < 0`` test sees it;
    every entry point that takes a tolerance refuses it as negative ones."""
    inst, patches, _ = fx.triangle_objects()
    nan = float("nan")
    for call in (lambda: feasibility(inst, [(0.0, 0.0)], nan),
                 lambda: obstruction_depth(inst, patches, nan),
                 lambda: eps_glue(inst, patches, nan),
                 lambda: discrete_feasible([(0.0,)], nan),
                 lambda: discrete_obstruction_depth([[(0.0,)]], nan)):
        with pytest.raises(NegativeEpsilon, match="tolerances must be non-negative"):
            call()


def test_infinite_tolerance_is_refused_everywhere():
    """Reports carry their tolerance, and JSON has no infinity, so every
    entry point that takes a tolerance refuses an infinite one."""
    inst, patches, _ = fx.triangle_objects()
    inf = float("inf")
    for call in (lambda: feasibility(inst, [(0.0, 0.0)], inf),
                 lambda: obstruction_depth(inst, patches, inf),
                 lambda: eps_glue(inst, patches, inf)):
        with pytest.raises(NegativeEpsilon, match="tolerances must be finite"):
            call()


def test_projection_helpers(rng):
    box = [(0.0, 1.0), (-1.0, 2.0)]
    assert project_box((5.0, -3.0), box) == (1.0, -1.0)
    assert project_box((0.25, 0.5), box) == (0.25, 0.5)
    assert project_simplex((2.0, 0.0)) == (1.0, 0.0)
    assert project_simplex((-1.0, -1.0)) == (0.5, 0.5)
    stays = (0.25, 0.25, 0.5)
    assert all(
        abs(a - b) <= 1e-12 for a, b in zip(project_simplex(stays), stays)
    )
    for _ in range(100):
        y = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        clamped = project_box(y, [(0.0, 1.0)] * 3)
        assert all(0.0 <= c <= 1.0 for c in clamped)
        onto = project_simplex(y)
        assert all(c >= -1e-12 for c in onto)
        assert abs(sum(onto) - 1.0) <= 1e-9
        for _ in range(20):
            draws = [-math.log(rng.random()) for _ in range(3)]
            z = tuple(d / sum(draws) for d in draws)
            assert math.dist(y, onto) <= math.dist(y, z) + 1e-9


def _np_project_simplex(p):
    y = np.asarray(p, dtype=float)
    u = -np.sort(-y)
    css = np.cumsum(u)
    cond = u + (1.0 - css) / np.arange(1, y.shape[0] + 1) > 0.0
    k = int(np.nonzero(cond)[0][-1]) + 1
    return tuple(float(x) for x in np.maximum(y - (css[k - 1] - 1.0) / k, 0.0))


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def test_float_paths_match_numpy_formulas_bit_for_bit(rng):
    for k in range(300):
        y = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, 6))]
        if k % 5 == 0:
            y[0] = -0.0
        assert _bits(project_simplex(y)) == _bits(_np_project_simplex(y))


def test_box_domain_feasibility():
    inst = epsilon_instance(
        2, "box", {"a": (1.0, 1.0)}, {"a": "c"},
        box=[(0.0, 1.0), (0.0, 1.0)],
    )
    assert canonical_point(inst) == (0.5, 0.5)
    pulled = feasibility(inst, [(2.0, 2.0)], 2.0)
    assert pulled.feasible and not pulled.unconstrained
    assert math.dist(pulled.center, (1.0, 1.0)) <= 1e-9
    assert abs(pulled.radius - math.sqrt(2.0)) <= 1e-9
    split = feasibility(inst, [(2.0, 0.5), (-1.0, 0.5)], 2.0)
    assert abs(split.radius - 1.5) <= 1e-9
    assert math.dist(split.center, (0.5, 0.5)) <= 1e-6
    short = feasibility(inst, [(2.0, 2.0)], 1.0)
    assert not short.feasible
    assert abs(short.radius - math.sqrt(2.0)) <= 1e-9
    empty = feasibility(inst, [], 0.5)
    assert empty.unconstrained and empty.feasible and empty.radius == 0.0
    assert empty.center == canonical_point(inst)


def test_simplex_domain_feasibility():
    flat = epsilon_instance(2, "simplex", {"a": (1.0, 0.0)}, {"a": "c"})
    assert canonical_point(flat) == (0.5, 0.5)
    res = feasibility(flat, [(1.0, 1.0)], 1.0)
    assert abs(res.radius - math.sqrt(0.5)) <= 1e-9
    assert math.dist(res.center, (0.5, 0.5)) <= 1e-9
    tall = epsilon_instance(3, "simplex", {"a": (1.0, 0.0, 0.0)}, {"a": "c"})
    drop = feasibility(tall, [(0.5, 0.5, -2.0)], 3.0)
    assert math.dist(drop.center, (0.5, 0.5, 0.0)) <= 1e-6
    assert abs(drop.radius - 2.0) <= 1e-9
    # when the unconstrained center already sits on the simplex the
    # constrained ball coincides with it
    tgts = [(0.9, 0.1, 0.0), (0.1, 0.9, 0.0), (0.0, 0.0, 1.0)]
    ball = min_enclosing_ball(tgts)
    cons = feasibility(tall, tgts, 1.0)
    assert abs(cons.radius - ball.radius) <= 1e-9
    assert abs(sum(cons.center) - 1.0) <= 1e-9
    assert all(c >= -1e-9 for c in cons.center)


def test_feasibility_flags_and_guards():
    inst = epsilon_instance(1, "euclidean", {"a": (0.0,)}, {"a": "c"})
    res = feasibility(inst, [(0.0,), (2.0,)], 1.0)
    assert res.feasible and res.marginal
    exact = feasibility(inst, [(0.5,), (0.5,)], 0.0)
    assert exact.feasible and exact.marginal
    assert exact.center == (0.5,) and exact.radius == 0.0
    with pytest.raises(NegativeEpsilon):
        feasibility(inst, [(0.0,)], -1e-9)
    wide = epsilon_instance(9, "euclidean", {"a": (0.0,) * 9}, {"a": "c"})
    with pytest.raises(ScaleExceeded):
        feasibility(wide, [(0.0,) * 9], 1.0)
    many = epsilon_instance(
        1, "euclidean",
        {f"r{k}": (float(k),) for k in range(21)},
        {f"r{k}": "c" for k in range(21)},
    )
    # 21 patches on a line: the search stops at the Helly number 2 and finds
    # the pair (0, 3) at radius 1.5 after the marginal pair (0, 2) at radius 1
    report = obstruction_depth(many, [[f"r{k}"] for k in range(21)], 1.0)
    assert report == DepthReport(False, 2, (0, 3), "c", True)
    # 50 patches in dimension 4: 2,369,935 subfamilies of at most 5 patches
    crowd = epsilon_instance(
        4, "euclidean",
        {f"r{k}": (float(k), 0.0, 0.0, 0.0) for k in range(50)},
        {f"r{k}": "c" for k in range(50)},
    )
    with pytest.raises(ScaleExceeded):
        obstruction_depth(crowd, [[f"r{k}"] for k in range(50)], 1.0)


def test_instance_validation():
    with pytest.raises(CheckerError):
        epsilon_instance(1, "euclidean", {"a": (0.0, 1.0)}, {"a": "x"})
    with pytest.raises(CheckerError):
        epsilon_instance(2, "simplex", {"a": (0.7, 0.7)}, {"a": "x"})
    with pytest.raises(CheckerError):
        epsilon_instance(1, "box", {"a": (0.0,)}, {"a": "x"})
    with pytest.raises(CheckerError):
        epsilon_instance(1, "box", {"a": (2.0,)}, {"a": "x"},
                         box=[(0.0, 1.0)])
    with pytest.raises(CheckerError):
        epsilon_instance(1, "euclidean", {"a": (0.0,)}, {"zz": "x"})
    with pytest.raises(CheckerError):
        epsilon_instance(1, "gibberish", {"a": (0.0,)}, {"a": "x"})


@pytest.mark.parametrize("refused, text", [
    (lambda: epsilon_instance(0, "euclidean", {}, {}), "dimension must be positive"),
    (lambda: epsilon_instance(1, "euclidean", {"a": (math.nan,)}, {"a": "x"}),
     "value of 'a' is not finite"),
    (lambda: epsilon_instance(1, "box", {"a": (0.5,)}, {"a": "x"}, box=[(1.0, 0.0)]),
     "box bounds must be finite and ordered"),
    (lambda: epsilon_instance(1, "box", {"a": (0.5,)}, {"a": "x"}, box=[(0.0, math.inf)]),
     "box bounds must be finite and ordered"),
    (lambda: min_enclosing_ball([(0.0, 1.0), (math.inf, 0.0)]), "points must be finite"),
    (lambda: fx.sharp_simplex_objects(0), "the simplex family starts at dimension 1"),
], ids=["dimension-zero", "nan-value", "unordered-box", "infinite-box", "infinite-point",
        "sharp-simplex-dimension-zero"])
def test_epsilon_refusals_name_their_cause(refused, text):
    with pytest.raises(CheckerError) as caught:
        refused()
    assert type(caught.value) is CheckerError and str(caught.value) == text


def test_a_dependent_row_is_not_pushed():
    """A row in the span of the basis has no orthogonal part to add."""
    assert epshelly._push(((1.0, 0.0),), [0.0, 0.0], (2.0, 0.0), 1.0, 1e-13) is None


def test_eps_glue_assignment_and_flags():
    values = {"a": (0.0, 0.0), "b": (0.6, 0.0), "c": (0.0, 0.8)}
    i_map = {"a": "u", "b": "u", "c": "v"}
    inst = epsilon_instance(2, "euclidean", values, i_map,
                            interp_inputs=["u", "v", "w"])
    glued = eps_glue(inst, [["a", "c"], ["b"]], 0.5)
    assign = dict(glued.assignment)
    radii = dict(glued.radii)
    assert set(assign) == {"u", "v", "w"}
    assert glued.unconstrained == ("w",)
    assert assign["w"] == canonical_point(inst)
    for name, pts in (("u", [(0.0, 0.0), (0.6, 0.0)]), ("v", [(0.0, 0.8)])):
        assert all(math.dist(assign[name], p) <= 0.5 + 1e-9 for p in pts)
        assert radii[name] <= 0.5 + 1e-9
    assert abs(radii["u"] - 0.3) <= 1e-9
    assert radii["v"] == 0.0
    tight = eps_glue(inst, [["a", "c"], ["b"]], 0.3)
    assert "u" in tight.marginal
    with pytest.raises(Infeasible) as exc:
        eps_glue(inst, [["a", "c"], ["b"]], 0.1)
    assert exc.value.i_prime == "u"

"""Reference computations written apart from sheafmealy.

Every output the benchmark times is checked here, outside the timed call,
against an algorithm that shares no code with the library:

* machines: a backward breadth-first search over the product of two
  machines gives, for every state pair, the length of the shortest word on
  which the pair emits different outputs (the library refines levels
  forward instead);
* common cores: the pair closure written out directly;
* rectangle unions: an exact cell decomposition on the grid of all box
  endpoints, with a flood fill for connected components (the library links
  boxes pairwise);
* epsilon feasibility: support-subset enumeration for small enclosing
  balls, a dense grid for box and simplex domains, and a convex-hull test
  for enclosing-ball optimality.

Machines are plain dicts here: ``{(state, letter): (successor, output)}``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction

# ---------------------------------------------------------------- machines


def table_of(m) -> dict:
    """Plain transition dict of a library machine, read from its carriers
    and its dense index table."""
    return {
        (s, c): (m.after[m.step[b][i][0]], m.outputs[m.step[b][i][1]])
        for b, s in enumerate(m.before)
        for i, c in enumerate(m.inputs)
    }


def distinguish_lengths(d1: dict, states1, d2: dict, states2, alphabet) -> dict:
    """Shortest distinguishing word length for every distinguishable pair
    ``(x, y)`` of states of two machines over ``alphabet``; pairs missing
    from the result emit equal outputs on every word.

    Backward breadth-first search over the product graph from the pairs
    that differ on one letter."""
    pred1 = {c: {} for c in alphabet}
    pred2 = {c: {} for c in alphabet}
    for c in alphabet:
        for x in states1:
            pred1[c].setdefault(d1[(x, c)][0], []).append(x)
        for y in states2:
            pred2[c].setdefault(d2[(y, c)][0], []).append(y)
    dist: dict = {}
    queue: deque = deque()
    for x in states1:
        outs1 = [d1[(x, c)][1] for c in alphabet]
        for y in states2:
            if any(o != d2[(y, c)][1] for o, c in zip(outs1, alphabet)):
                dist[(x, y)] = 1
                queue.append((x, y))
    while queue:
        x2, y2 = queue.popleft()
        nd = dist[(x2, y2)] + 1
        for c in alphabet:
            for x in pred1[c].get(x2, ()):
                for y in pred2[c].get(y2, ()):
                    if (x, y) not in dist:
                        dist[(x, y)] = nd
                        queue.append((x, y))
    return dist


def shortest_split(d1: dict, states1, d2: dict, states2, alphabet, starts) -> int | None:
    """Least distinguishing word length over the start pairs, or None when
    every start pair is behaviorally equal."""
    dist = distinguish_lengths(d1, states1, d2, states2, alphabet)
    found = [dist[p] for p in starts if p in dist]
    return min(found) if found else None


def replay(d: dict, state, word) -> tuple:
    outs = []
    for c in word:
        state, o = d[(state, c)]
        outs.append(o)
    return tuple(outs)


def behavior_classes(tables: list, alphabet) -> list[frozenset]:
    """Partition of the disjoint union of several machines (each given as
    ``(dict, states)``) into behavioral equality classes; members are
    ``(machine index, state)`` pairs."""
    union: dict = {}
    states = []
    for k, (d, sts) in enumerate(tables):
        for s in sts:
            states.append((k, s))
            for c in alphabet:
                s2, o = d[(s, c)]
                union[((k, s), c)] = ((k, s2), o)
    dist = distinguish_lengths(union, states, union, states, alphabet)
    classes: list[set] = []
    for st in states:
        for cls in classes:
            rep = next(iter(cls))
            if (st, rep) not in dist:
                cls.add(st)
                break
        else:
            classes.append({st})
    return [frozenset(c) for c in classes]


def core_closure(d1: dict, d2: dict, alphabet, seeds) -> set | None:
    """The pair relation generated by ``seeds`` under joint steps, or None
    when it stops being a partial bijection or two paired states emit
    different outputs; a common core exists exactly when this is not None."""
    fwd: dict = {}
    bwd: dict = {}
    seen: set = set()
    stack = list(seeds)
    while stack:
        x, y = stack.pop()
        if (x, y) in seen:
            continue
        if fwd.get(x, y) != y or bwd.get(y, x) != x:
            return None
        fwd[x] = y
        bwd[y] = x
        seen.add((x, y))
        for c in alphabet:
            x2, o1 = d1[(x, c)]
            y2, o2 = d2[(y, c)]
            if o1 != o2:
                return None
            stack.append((x2, y2))
    return seen


def morphism_maps(m) -> tuple[dict, dict, dict, dict]:
    """The four component maps of a library morphism as plain dicts."""
    src, tgt = m.source, m.target
    return (
        {s: tgt.before[k] for s, k in zip(src.before, m.f_b)},
        {s: tgt.after[k] for s, k in zip(src.after, m.f_a)},
        {s: tgt.inputs[k] for s, k in zip(src.inputs, m.f_i)},
        {s: tgt.outputs[k] for s, k in zip(src.outputs, m.f_o)},
    )


def square_commutes(m) -> bool:
    """Whether a library morphism commutes with the two dynamics tables."""
    fb, fa, fi, fo = morphism_maps(m)
    ds, dt = table_of(m.source), table_of(m.target)
    for (s, c), (s2, o) in ds.items():
        t2, o2 = dt[(fb[s], fi[c])]
        if (fa[s2], fo[o]) != (t2, o2):
            return False
    return True


# ---------------------------------------------------------- rectangle unions
#
# A box is (x_lo, x_hi, x_lo_open, x_hi_open, y_lo, y_hi, y_lo_open, y_hi_open)
# with Fraction endpoints.  Atoms of an axis are its endpoint values and the
# open gaps between consecutive ones; each atom is stored with a sample point
# (the value itself, or the gap midpoint) and a flag telling points from gaps.


def iv_contains(lo, hi, lo_open, hi_open, v) -> bool:
    if v < lo or v > hi:
        return False
    if v == lo and lo_open:
        return False
    if v == hi and hi_open:
        return False
    return True


def box_contains(b, p) -> bool:
    return iv_contains(b[0], b[1], b[2], b[3], p[0]) and iv_contains(b[4], b[5], b[6], b[7], p[1])


def union_contains(boxes, p) -> bool:
    return any(box_contains(b, p) for b in boxes)


def _atoms(values) -> list[tuple[Fraction, bool]]:
    vals = sorted(set(values))
    out: list[tuple[Fraction, bool]] = []
    for k, v in enumerate(vals):
        out.append((v, True))
        if k + 1 < len(vals):
            out.append(((v + vals[k + 1]) / 2, False))
    return out


def _swap(b):
    return (b[4], b[5], b[6], b[7], b[0], b[1], b[2], b[3])


def _column(boxes, xs, y_atoms) -> list[bool]:
    """Membership of each cell ``{xs-atom} x y-atom`` of one column."""
    vals = [v for v, _ in y_atoms]
    inside = [False] * len(vals)
    for b in boxes:
        if iv_contains(b[0], b[1], b[2], b[3], xs):
            lo = (bisect_right if b[6] else bisect_left)(vals, b[4])
            hi = (bisect_left if b[7] else bisect_right)(vals, b[5])
            for k in range(lo, hi):
                inside[k] = True
    return inside


def regions_equal(boxes_a, boxes_b) -> bool:
    """Exact set equality of two box unions on their common atom grid."""
    boxes_a, boxes_b = float_boxes(boxes_a), float_boxes(boxes_b)
    both = list(boxes_a) + list(boxes_b)
    xs = _atoms([v for b in both for v in (b[0], b[1])])
    ys = _atoms([v for b in both for v in (b[4], b[5])])
    return all(_column(boxes_a, x, ys) == _column(boxes_b, x, ys) for x, _ in xs)


def _closure_meets(a_point: bool, a_ix: int, b_point: bool, b_ix: int) -> bool:
    """Whether the closure of atom a meets atom b (neighbouring atoms of one
    axis, indexed along it)."""
    if a_ix == b_ix:
        return True
    return (not a_point) and b_point and abs(a_ix - b_ix) == 1


def _linked(ca, cb) -> bool:
    (ax, axp), (ay, ayp) = ca
    (bx, bxp), (by, byp) = cb
    fwd = _closure_meets(axp, ax, bxp, bx) and _closure_meets(ayp, ay, byp, by)
    bwd = _closure_meets(bxp, bx, axp, ax) and _closure_meets(byp, by, ayp, ay)
    return fwd or bwd


def band_components(boxes, t0: Fraction, lo: Fraction, hi: Fraction):
    """Connected components of the part of the union over the open band
    ``lo < x < hi`` around ``t0`` (no box x-endpoint lies inside the band
    other than ``t0``).  Returns the components as lists of cells and, for
    each, whether it meets the fiber ``x = t0``; a cell is
    ``((x index, x is point), (y index, y is point))`` and the x atoms are
    the gap left of t0, t0 itself and the gap right of it."""
    x_atoms = [((lo + t0) / 2, False), (t0, True), ((t0 + hi) / 2, False)]
    boxes = [b for b in boxes if any(iv_contains(b[0], b[1], b[2], b[3], x) for x, _ in x_atoms)]
    y_atoms = _atoms([v for b in boxes for v in (b[4], b[5])])
    present = set()
    for xi, (xs, xp) in enumerate(x_atoms):
        col = _column(boxes, xs, y_atoms)
        for yi, inside in enumerate(col):
            if inside:
                present.add(((xi, xp), (yi, y_atoms[yi][1])))
    comps = []
    seen: set = set()
    for cell in sorted(present):
        if cell in seen:
            continue
        seen.add(cell)
        comp = [cell]
        todo = [cell]
        while todo:
            (xi, xp), (yi, yp) = todo.pop()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nx, ny = xi + dx, yi + dy
                    if not (0 <= nx < 3 and 0 <= ny < len(y_atoms)):
                        continue
                    nb = ((nx, x_atoms[nx][1]), (ny, y_atoms[ny][1]))
                    if nb in present and nb not in seen and _linked(((xi, xp), (yi, yp)), nb):
                        seen.add(nb)
                        comp.append(nb)
                        todo.append(nb)
        comps.append(comp)
    meets = [any(c[0][0] == 1 for c in comp) for comp in comps]
    return comps, meets, x_atoms, y_atoms


def exact_float(v) -> float:
    """``v`` as a float, refusing values a float cannot hold exactly.  The
    workloads use dyadic rationals only, so the cell search can compare
    floats and stay exact."""
    f = float(v)
    if Fraction(f) != v:
        raise ValueError(f"{v} is not a dyadic rational")
    return f


def float_boxes(boxes) -> list:
    return [(exact_float(b[0]), exact_float(b[1]), b[2], b[3],
             exact_float(b[4]), exact_float(b[5]), b[6], b[7]) for b in boxes]


def robust_at(boxes, axis: int, t):
    """Band components at ``t`` when the fiber there is robustly
    disconnected (at least two of them meet it), else None.  ``boxes``
    are given by :func:`float_boxes`."""
    t = exact_float(t)
    bx = [b if axis == 0 else _swap(b) for b in boxes]
    others = [v for b in bx for v in (b[0], b[1]) if v != t]
    delta = min(abs(v - t) for v in others) / 2 if others else 1.0
    comps, meets, xa, ya = band_components(bx, t, t - delta, t + delta)
    return (comps, xa, ya) if sum(meets) >= 2 else None


def sheaf_reference(boxes, axis: int):
    """Candidate abscissae on ``axis`` (every box endpoint and every
    midpoint between consecutive ones) and the robust disconnections among
    them, keyed by abscissa.  ``boxes`` are given by :func:`float_boxes`."""
    crit = sorted({v for b in boxes for v in ((b[0], b[1]) if axis == 0 else (b[4], b[5]))})
    cands = sorted(set(crit) | {(a + b) / 2 for a, b in zip(crit, crit[1:])})
    robust = {}
    for t in cands:
        entry = robust_at(boxes, axis, t)
        if entry is not None:
            robust[t] = entry
    return cands, robust


def component_of(robust_entry, point, axis: int) -> int | None:
    """Index of the band component holding a fiber point ``point`` (given in
    the union's own coordinates)."""
    comps, xa, ya = robust_entry
    x, y = (point[0], point[1]) if axis == 0 else (point[1], point[0])
    if x != xa[1][0]:
        return None
    for yi, (ys, yp) in enumerate(ya):
        if (yp and ys == y) or (not yp and yi > 0 and yi + 1 < len(ya)
                                and ya[yi - 1][0] < y < ya[yi + 1][0]):
            cell = ((1, True), (yi, yp))
            for k, comp in enumerate(comps):
                if cell in comp:
                    return k
    return None


# -------------------------------------------------------- epsilon feasibility


def solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gauss-Jordan elimination with full row pivoting; None when singular."""
    n = len(matrix)
    a = [list(row) + [rhs[k]] for k, row in enumerate(matrix)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-12:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col] / a[col][col]
                for cc in range(col, n + 1):
                    a[r][cc] -= f * a[col][cc]
    return [a[k][n] / a[k][k] for k in range(n)]


def _affine_circumcenter(pts) -> tuple[tuple, float] | None:
    """Center of the smallest sphere through affinely independent points,
    lying in their affine hull."""
    p0 = pts[0]
    if len(pts) == 1:
        return tuple(p0), 0.0
    vs = [[x - y for x, y in zip(p, p0)] for p in pts[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vs] for u in vs]
    rhs = [0.5 * sum(a * a for a in u) for u in vs]
    lam = solve(gram, rhs)
    if lam is None:
        return None
    c = tuple(p0[k] + sum(l * v[k] for l, v in zip(lam, vs)) for k in range(len(p0)))
    return c, math.dist(c, p0)


def meb_by_enumeration(points) -> tuple[tuple, float]:
    """Exact minimum enclosing ball of a small point set: the smallest
    circumball over support subsets of at most d+1 points that holds every
    point."""
    pts = sorted(set(tuple(float(x) for x in p) for p in points))
    d = len(pts[0])
    best = None
    for size in range(1, min(d + 1, len(pts)) + 1):
        for sub in itertools.combinations(pts, size):
            ball = _affine_circumcenter(sub)
            if ball is None:
                continue
            c, r = ball
            if best is not None and r >= best[1]:
                continue
            if all(math.dist(c, p) <= r * (1 + 1e-12) + 1e-12 for p in pts):
                best = (c, r)
    return best


def in_convex_hull(points, c, tol: float = 1e-7) -> bool:
    """Whether ``c`` lies in the convex hull of ``points`` (at most a few
    dozen): some affinely independent subset holds it with non-negative
    barycentric weights."""
    pts = [tuple(p) for p in points]
    d = len(c)
    for size in range(1, min(d + 1, len(pts)) + 1):
        for sub in itertools.combinations(pts, size):
            lam = _barycentric(sub, c)
            if lam is not None and min(lam) >= -tol:
                back = [sum(l * p[k] for l, p in zip(lam, sub)) for k in range(d)]
                if math.dist(back, c) <= tol * (1.0 + max(abs(x) for x in c)):
                    return True
    return False


def _barycentric(sub, c) -> list[float] | None:
    """Affine weights of the least-squares projection of ``c`` on the affine
    hull of ``sub``."""
    p0 = sub[0]
    if len(sub) == 1:
        return [1.0]
    vs = [[x - y for x, y in zip(p, p0)] for p in sub[1:]]
    w = [x - y for x, y in zip(c, p0)]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vs] for u in vs]
    rhs = [sum(a * b for a, b in zip(u, w)) for u in vs]
    mu = solve(gram, rhs)
    if mu is None:
        return None
    return [1.0 - sum(mu)] + mu


def _grid_minimax(steps: int, last_j, point, targets, block: int = 16) -> tuple[tuple, float]:
    """Least largest distance to the targets over the grid points
    ``point(i, j)``, 0 <= i <= steps, 0 <= j <= last_j(i), and where.

    The largest distance is 1-Lipschitz, so a block of grid points cannot
    beat the best found so far when the value at its middle, less the
    block's reach from there, already exceeds it.  Blocks are visited from
    the lowest such bound and the rest skipped once the bound passes the
    best: the minimum is the one a scan of every point gives."""

    def value(pt):
        return max(sum((c - q) ** 2 for c, q in zip(pt, p)) for p in targets)

    order = []
    for lo_i in range(0, steps + 1, block):
        for lo_j in range(0, last_j(lo_i) + 1, block):
            hi_i, hi_j = lo_i + block - 1, lo_j + block - 1
            mid = point((lo_i + hi_i) / 2, (lo_j + hi_j) / 2)
            reach = max(math.dist(mid, point(i, j)) for i in (lo_i, hi_i) for j in (lo_j, hi_j))
            order.append((math.sqrt(value(mid)) - reach, lo_i, lo_j))
    order.sort()
    best = (None, math.inf)
    for bound, lo_i, lo_j in order:
        if bound > math.sqrt(best[1]) + 1e-9:
            break
        for i in range(lo_i, min(lo_i + block - 1, steps) + 1):
            for j in range(lo_j, min(lo_j + block - 1, last_j(i)) + 1):
                pt = point(i, j)
                m = value(pt)
                if m < best[1]:
                    best = (pt, m)
    return best[0], math.sqrt(best[1])


def box_grid_minimax(box, targets, steps: int) -> tuple[tuple, float]:
    """Best point of a regular grid over a 2-D box: the least largest
    distance to the targets, and where it is reached."""
    (x0, x1), (y0, y1) = box

    def point(i, j):
        return (x0 + (x1 - x0) * i / steps, y0 + (y1 - y0) * j / steps)

    return _grid_minimax(steps, lambda i: steps, point, targets)


def simplex_grid_minimax(targets, steps: int) -> tuple[tuple, float]:
    """Best point of a regular grid over the 2-simplex in three
    coordinates: the least largest distance to the targets."""

    def point(i, j):
        a, b = i / steps, j / steps
        return (a, b, 1.0 - a - b)

    return _grid_minimax(steps, lambda i: steps - i, point, targets)


def in_box(p, box, tol: float = 1e-9) -> bool:
    return all(lo - tol <= x <= hi + tol for x, (lo, hi) in zip(p, box))


def on_simplex(p, tol: float = 1e-9) -> bool:
    return all(x >= -tol for x in p) and abs(sum(p) - 1.0) <= tol

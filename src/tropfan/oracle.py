"""Brute-force oracles used to cross-check the symbolic algorithms.

These are deliberately independent code paths: exact box sweeps and
scans, and seeded random sampling, never the symbolic decision
procedures they are meant to validate.
"""

import random
from itertools import product

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from . import semiabelian as S


def _stacky_pieces(obj):
    if isinstance(obj, MIN.MinimalFan):
        return list(obj.pieces)
    return list(obj.cones)


def _adds_points(sc, rays, keyed):
    """False when another piece contains sc's cone and lattice, so that
    sc adds no point: its rays (the set `rays`) are a proper subset of the
    other's rays and its lattice lies in the other's lattice.  `keyed`
    holds each piece with the set of its rays."""
    return not any(
        rays < other and L.contains(p.lattice, sc.lattice) for p, other in keyed
    )


def s_enumerate(obj, radius):
    """All points of the S-set inside the box [-radius, radius]^n, in the
    box's lexicographic order.

    Each piece is swept along the box lines.  At a fixed prefix u of the
    first n−1 coordinates, each facet normal of the piece, and each span
    equation taken with both signs, is affine in the last coordinate t
    and bounds it from one side, by floor or ceil of an integer division;
    an equation's two rows pin t to at most one integer.  Each row's
    values are worked out over all prefixes at once and folded into one
    interval per line.  Inside the interval every point lies in the cone,
    and the lattice points of the line are one solve for u
    (`lattice.line_solve`), which gives none, one t, or an arithmetic
    progression of t; no solve is needed when the piece's lattice is its
    span's full lattice.  Every box point is still decided exactly, with
    no symbolic decision procedure involved.
    """
    n = obj.ambient_rank
    if radius < 0 and n > 0:
        return []  # the box is empty
    pieces = _stacky_pieces(obj)
    points = {tuple([0] * n)}
    keyed = [(p, set(p.cone.rays)) for p in pieces]
    for p, rays in keyed:
        if p.dim > 0 and _adds_points(p, rays, keyed):
            _sweep_piece(p, radius, points)
    return sorted(points)


def _sweep_piece(p, radius, points):
    """Add to `points` each point of p's cone ∩ lattice in the box."""
    n = p.ambient_rank
    cone = p.cone
    rows = []  # x ∈ cone ⇔ <row, x> >= 0 for every row
    for e in cone.span_equations:
        rows += [e, [-x for x in e]]
    rows += cone.facet_normals
    box = range(-radius, radius + 1)
    lines = list(product(box, repeat=n - 1))
    lo, hi = [-radius] * len(lines), [radius] * len(lines)
    for row in rows:
        a = [0]  # <row, (u, 0)> for each u of `lines`, in the same order
        for c in row[:-1]:
            terms = [c * y for y in box]
            a = [x + y for x in a for y in terms]
        b = row[-1]  # <row, (u, t)> = a + b·t
        if b > 0:
            lo = [max(l, -(x // b)) for l, x in zip(lo, a)]  # t >= ceil(-a / b)
        elif b < 0:
            hi = [min(h, x // -b) for h, x in zip(hi, a)]  # t <= floor(a / -b)
        else:
            hi = [h if x >= 0 else -radius - 1 for h, x in zip(hi, a)]  # a < 0 empties
    check_lattice = not p.saturated
    for u, l, h in zip(lines, lo, hi):
        if l > h:
            continue
        ts = range(l, h + 1)
        if check_lattice:
            solved = L.line_solve(u, p.lattice)
            if solved is None:
                continue
            s, d = solved
            if d:
                ts = range(l + (s - l) % d, h + 1, d)
            else:
                ts = (s,) if l <= s <= h else ()
        for t in ts:
            points.add(u + (t,))


def cover_sample_fan(fan, count, seed, radius=10):
    """Number of random box points lying in the fan's support."""
    rng = random.Random(seed)
    n = fan.ambient_rank
    covered = 0
    for _ in range(count):
        v = tuple(rng.randint(-radius, radius) for _ in range(n))
        if any(C.member(sc.cone, v) for sc in fan.cones):
            covered += 1
    return covered, count


def _random_admissible_point(rng, base, radius):
    """A random admissible point (n, n', n'') with integer entries."""
    rays = base.base_cone.cone.rays
    b = base.base_rank
    n = tuple([0] * b)
    if rays:
        coeffs = [rng.randint(0, radius) for _ in rays]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1
        n = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(b))
    # A rational slope p/q is realized integrally after scaling the base
    # point by q.
    q = rng.randint(1, 4)
    p = tuple(rng.randint(-radius, radius) for _ in range(base.m_rank))
    n_scaled = tuple(q * x for x in n)
    nprime = S.q_hom(base, p, n)
    nsecond = tuple(rng.randint(-radius, radius) for _ in range(base.torus_rank))
    return n_scaled + nprime + nsecond


def cover_sample_av(fan, count, seed, radius=6):
    """Random admissible points covered by some translated representative."""
    rng = random.Random(seed)
    base = fan.base
    reps = list(fan.representatives)
    covered = 0
    for _ in range(count):
        v = _random_admissible_point(rng, base, radius)
        if all(x == 0 for x in v):
            covered += 1
            continue
        ray_sc = F.StackyCone(
            C.ray_cone(v, base.ambient_rank),
            L.canonicalize([v], base.ambient_rank),
        )
        hit = False
        for rho in reps:
            if rho.dim == 0:
                continue
            for m in S.candidate_translations(ray_sc, rho, base):
                if C.member(S.translate(rho, m, base).cone, v):
                    hit = True
                    break
            if hit:
                break
        if hit:
            covered += 1
    return covered, count


def translations_bruteforce(c1, c2, base, bound):
    """All m with |m_i| <= bound and c1 ∩ T_m(c2) ≠ {0}, by direct scan."""
    g = base.m_rank
    found = []
    for m in product(range(-bound, bound + 1), repeat=g):
        if C.intersect_cones(c1.cone, S.translate(c2, m, base).cone).dim > 0:
            found.append(m)
    return sorted(found)

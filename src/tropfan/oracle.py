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
from ._linalg import dot


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

    Each piece is swept one box line at a time.  At a fixed prefix u of
    the first n−1 coordinates, each facet normal of the piece, and each
    span equation taken with both signs, is affine in the last coordinate
    t and bounds it from one side, by floor or ceil of an integer
    division; an equation's two rows pin t to at most one integer.
    Inside the interval left every point lies in the cone, so only
    lattice membership is tested, and not even that when the piece's
    lattice is its span's full lattice.  Every box point is still decided
    exactly, with no symbolic decision procedure involved.
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
    check_lattice = p.lattice.basis != cone.span_basis
    for u in product(range(-radius, radius + 1), repeat=n - 1):
        lo, hi = -radius, radius
        for row in rows:
            a, b = dot(row, u), row[-1]  # <row, (u, t)> = a + b·t
            if b > 0:
                lo = max(lo, -(a // b))  # t >= ceil(-a / b)
            elif b < 0:
                hi = min(hi, a // -b)  # t <= floor(a / -b)
            elif a < 0:
                break
            if lo > hi:
                break
        else:
            for t in range(lo, hi + 1):
                v = u + (t,)
                if not check_lattice or L.member(v, p.lattice):
                    points.add(v)


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

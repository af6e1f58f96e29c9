"""Seeded random generators shared by the test suite."""

import random
from itertools import product
from math import gcd

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.serialize as SER


def _angular_sort(rays):
    # Sort by half-plane, then by exact cross-product comparison.
    import functools

    def cmp(a, b):
        ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
        hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return sorted(rays, key=functools.cmp_to_key(cmp))


def random_primitive_ray(rng, bound=3):
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if (x, y) == (0, 0):
            continue
        g = gcd(abs(x), abs(y))
        return (x // g, y // g)


def random_index_lattice(rng, rank, max_index=4):
    """A random full-rank sublattice of Z^rank with small index."""
    while True:
        basis = [
            [rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)
        ]
        lat = L.canonicalize(basis, rank)
        if lat.rank != rank:
            continue
        idx = L.index_in(lat, L.full_lattice(rank))
        if 1 <= idx <= max_index:
            return lat


def random_complete_fan2(rng, full_lattice_only=False, max_index=4):
    """A random complete stacky fan of rank 2.

    Lattice structure: a random small-index sublattice is assigned to the
    maximal cones both of whose rays lie in it; everything else is full.
    This makes the induced face lattices automatically compatible.
    """
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randint(0, 4)):
        rays.add(random_primitive_ray(rng))
    ordered = _angular_sort(rays)
    lam = None if full_lattice_only else random_index_lattice(rng, 2, max_index)
    full = L.full_lattice(2)
    maximal = []
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        cone = C.from_rays([a, b], 2)
        lat = full
        if lam is not None and L.member(a, lam) and L.member(b, lam) and rng.random() < 0.5:
            lat = lam
        maximal.append(F.StackyCone(cone, lat))
    return F.fan_from_maximal(maximal, 2)


def random_orthant_fan(rng, n, max_index=4):
    """A random (not necessarily complete) stacky fan of up to four
    coordinate orthants of R^n."""
    orthants = [
        [tuple(s if j == i else 0 for j in range(n)) for i, s in enumerate(signs)]
        for signs in product((1, -1), repeat=n)
    ]
    count = rng.randint(1, min(4, len(orthants)))
    chosen = rng.sample(range(len(orthants)), count)
    lam = random_index_lattice(rng, n, max_index)
    full = L.full_lattice(n)
    maximal = []
    for i in chosen:
        cone = C.from_rays(orthants[i], n)
        lat = full
        if all(L.member(r, lam) for r in orthants[i]) and rng.random() < 0.5:
            lat = lam
        maximal.append(F.StackyCone(cone, lat))
    return F.fan_from_maximal(maximal, n)


def random_fan3(rng, max_index=4):
    """A random (not necessarily complete) stacky fan of rank 3."""
    return random_orthant_fan(rng, 3, max_index)


def random_fan(rng, max_index=4):
    if rng.random() < 0.7:
        if rng.random() < 0.5:
            return random_complete_fan2(rng, max_index=max_index)
        # possibly partial rank-2 fan: drop a maximal cone
        fan = random_complete_fan2(rng, max_index=max_index)
        maxs = F.maximal_cones(fan)
        drop = rng.randrange(len(maxs))
        return F.fan_from_maximal([sc for i, sc in enumerate(maxs) if i != drop], 2)
    return random_fan3(rng, max_index)


def random_stellar(rng, fan):
    """Stellar subdivision at a random interior ray of a random maximal cone."""
    maxs = [sc for sc in F.maximal_cones(fan) if sc.dim >= 2]
    if not maxs:
        return fan
    sc = maxs[rng.randrange(len(maxs))]
    weights = [rng.randint(1, 3) for _ in sc.cone.rays]
    v = [0] * fan.ambient_rank
    for w, r in zip(weights, sc.cone.rays):
        v = [a + w * b for a, b in zip(v, r)]
    from tropfan._linalg import primitive

    return F.stellar_subdivision(fan, primitive(v))


def global_root(fan, d=5):
    """Root construction: intersect every lattice with d·Z^n."""
    n = fan.ambient_rank
    scaled = L.canonicalize(
        [[d if i == j else 0 for j in range(n)] for i in range(n)], n
    )
    return F.make_fan(
        [F.StackyCone(sc.cone, L.intersect(sc.lattice, scaled)) for sc in fan.cones],
        n,
    )


# --- helpers only the tests use ----------------------------------------------

def quadrant_and_diagonal_ray():
    """The fans {quadrant, Z^2} and {ray (1, 1), Z(1, 1)}.  The ray holds
    the quadrant's interior point but covers none of the quadrant, so the
    supports and the S-sets differ."""
    quadrant = C.from_rays([(1, 0), (0, 1)], 2)
    ray = C.from_rays([(1, 1)], 2)
    return (
        F.fan_from_maximal([F.StackyCone(quadrant, L.full_lattice(2))], 2),
        F.fan_from_maximal([F.StackyCone(ray, L.canonicalize([(1, 1)], 2))], 2),
    )


def minimal_set_member(v, m):
    """Is v in the point set S of the minimal fan?"""
    if len(v) != m.ambient_rank:
        raise L.DimensionError("point has wrong length")
    if all(x == 0 for x in v):
        return True
    return any(
        C.member(p.cone, v) and L.member(v, p.lattice) for p in m.pieces
    )


def dump_path(obj, path):
    """Write obj's JSON document to a file."""
    with open(path, "w") as fh:
        fh.write(SER.dumps(obj))


def support_member(v, fan):
    """Does the integer point v lie in the support of the fan?"""
    return any(C.member(sc.cone, v) for sc in fan.cones)


def join_with_barycenter(cone, boundary_cones):
    """Subdivide a cone by joining boundary cells with its barycenter ray.

    `boundary_cones` should subdivide the boundary of `cone`; the result
    lists the maximal cells of the joined subdivision.
    """
    bary = C.interior_point(cone)
    out = []
    for b in boundary_cones:
        out.append(C.from_rays(list(b.rays) + [bary], cone.ambient_rank))
    return sorted(out, key=lambda c: c.rays)


def congruent_by(q1, q2, u):
    """Does uᵀ · Q1 · u == Q2 entrywise (entries are covectors)?"""
    g = len(q1)
    for a in range(g):
        for c in range(g):
            b_len = len(q2[a][c]) if g else 0
            total = [0] * b_len
            for i in range(g):
                for j in range(g):
                    f = u[i][a] * u[j][c]
                    if f:
                        total = [t + f * x for t, x in zip(total, q1[i][j])]
            if tuple(total) != tuple(q2[a][c]):
                return False
    return True

"""Seeded input generators of the benchmark.

They live here, not in the test suite, so that a change to the tests
cannot silently change what the benchmark measures.  Every generator
takes a `random.Random` and builds its objects through the public
constructors of `tropfan`.
"""

import functools
from math import gcd

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.semiabelian as S


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _half_plane_cmp(a, b):
    """Exact angular order of rank-2 directions, starting at the +x axis."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    if cross == 0:
        return 0
    return -1 if cross > 0 else 1


def _primitive_ray2(rng, bound=3):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            return primitive(v)


def index_lattice(rng, rank, max_index=4):
    """A random full-rank sublattice of Z^rank of index at most max_index."""
    full = L.full_lattice(rank)
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        lat = L.canonicalize(basis, rank)
        if lat.rank == rank and L.index_in(lat, full) <= max_index:
            return lat


def complete_fan2(rng, extra_rays, max_index=4):
    """Complete rank-2 stacky fan: the four axes plus `extra_rays` distinct
    random rays.  Maximal cones whose two rays lie in a random small-index
    lattice take it with probability 1/2, so induced lattices agree."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < 4 + extra_rays:
        rays.add(_primitive_ray2(rng))
    ordered = sorted(rays, key=functools.cmp_to_key(_half_plane_cmp))
    lam = index_lattice(rng, 2, max_index)
    full = L.full_lattice(2)
    maximal = []
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        lat = full
        if L.member(a, lam) and L.member(b, lam) and rng.random() < 0.5:
            lat = lam
        maximal.append(F.StackyCone(C.from_rays([a, b], 2), lat))
    return F.fan_from_maximal(maximal, 2)


def partial_fan2(rng, extra_rays, max_index=4):
    """A complete rank-2 fan with one maximal cone removed."""
    maxs = F.maximal_cones(complete_fan2(rng, extra_rays, max_index))
    drop = rng.randrange(len(maxs))
    return F.fan_from_maximal([sc for i, sc in enumerate(maxs) if i != drop], 2)


def orthant_fan(rng, rank, count):
    """`count` distinct coordinate orthants of R^rank.  They carry the full
    lattice: a sublattice containing every ray ±e_i of an orthant is Z^rank."""
    full = L.full_lattice(rank)
    maximal = []
    for mask in rng.sample(range(2**rank), count):
        rays = [
            tuple((-1 if (mask >> i) & 1 else 1) if j == i else 0 for j in range(rank))
            for i in range(rank)
        ]
        maximal.append(F.StackyCone(C.from_rays(rays, rank), full))
    return F.fan_from_maximal(maximal, rank)


def stellar(rng, fan):
    """Stellar subdivision at a random interior ray of a random maximal cone
    of dimension at least 2 (the fan itself when there is none)."""
    maxs = [sc for sc in F.maximal_cones(fan) if sc.dim >= 2]
    if not maxs:
        return fan
    sc = maxs[rng.randrange(len(maxs))]
    v = [0] * fan.ambient_rank
    for r in sc.cone.rays:
        w = rng.randint(1, 3)
        v = [a + w * b for a, b in zip(v, r)]
    return F.stellar_subdivision(fan, primitive(v))


def global_root(fan, d):
    """Root construction: every lattice intersected with d·Z^n."""
    n = fan.ambient_rank
    scaled = L.canonicalize([[d if i == j else 0 for j in range(n)] for i in range(n)], n)
    return F.make_fan(
        [F.StackyCone(sc.cone, L.intersect(sc.lattice, scaled)) for sc in fan.cones], n
    )


# --- translation-equivariant fans ------------------------------------------

def tate_base():
    """The Tate curve: base ray R≥0 with Q = (1), g = 1, no torus factor."""
    return S.PolarizedBase(F.stacky_cone([(1,)], [(1,)], 1), 1, (((1,),),), 0)


# The index-2 sublattices of Z^2 in the order (b even), (a even), (a+b even).
# Lattice i contains exactly the primitive vectors whose parity class is
# _CLASSES[i]; two lattices agree on a ray exactly when neither contains it.
_IDX2 = (((1, 0), (0, 2)), ((2, 0), (0, 1)), ((1, 1), (0, 2)))
_CLASSES = ((1, 0), (0, 1), (1, 1))


def _idx2_path(rays):
    """Index-2 lattices for the arcs between consecutive rays, starting with
    (b even) at the base ray and ending with (a+b even) = T_1(b even) at (1, 1),
    agreeing on every interior ray; None when no such choice exists."""
    k = len(rays) - 1
    paths = {0: [0]}
    for j in range(1, k):
        cls = (rays[j][0] % 2, rays[j][1] % 2)
        nxt = {}
        for cur, path in paths.items():
            for new in range(3):
                if new == cur or cls not in (_CLASSES[cur], _CLASSES[new]):
                    nxt.setdefault(new, path + [new])
        paths = nxt
    return paths.get(2)


def _arc_rays(k):
    return [primitive((k, j)) for j in range(k + 1)]


def tate_arc_fan(k, index, shifts):
    """The Tate k-arc fan: rays of slope j/k over the base ray, one arc
    between consecutive slopes, the last closing at T_1 of the base ray.

    `shifts` gives the translation T_m applied to each arc and each non-base
    ray: a different choice of orbit representatives of the same fan.
    """
    base = tate_base()
    rays = _arc_rays(k)
    if index == 1:
        lats = [L.full_lattice(2)] * k
    else:
        path = _idx2_path(rays)
        lats = [L.canonicalize([list(v) for v in _IDX2[i]], 2) for i in path]
    reps = [F.StackyCone(C.zero_cone(2), L.zero_lattice(2))]
    arcs = []
    for j in range(k):
        arc = F.StackyCone(C.from_rays([rays[j], rays[j + 1]], 2), lats[j])
        arcs.append(arc)
        ray = F.induced_stacky_cone(C.ray_cone(rays[j], 2), lats[j])
        reps.append(ray if j == 0 else S.translate(ray, (shifts[j],), base))
    for j, arc in enumerate(arcs):
        reps.append(S.translate(arc, (shifts[k + j],), base))
    return S.av_fan(base, reps)


def grid_base():
    """g = 2 over the base ray R≥0 with Q = identity."""
    q = (((1,), (0,)), ((0,), (1,)))
    return S.PolarizedBase(F.stacky_cone([(1,)], [(1,)], 1), 2, q, 0)


def torus_grid_fan(k):
    """The k×k triangulated torus: rays over the grid points (i/k, j/k),
    edges along the two axes and the diagonal, two triangles per square."""
    base = grid_base()
    full = L.full_lattice(3)

    def ray(i, j):
        return primitive((k, i, j))

    reps = [F.StackyCone(C.zero_cone(3), L.zero_lattice(3))]
    for i in range(k):
        for j in range(k):
            corner = ray(i, j)
            reps.append(F.induced_stacky_cone(C.ray_cone(corner, 3), full))
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                edge = C.from_rays([corner, ray(i + di, j + dj)], 3)
                reps.append(F.induced_stacky_cone(edge, full))
            for other in (ray(i + 1, j), ray(i, j + 1)):
                tri = C.from_rays([corner, other, ray(i + 1, j + 1)], 3)
                reps.append(F.StackyCone(tri, full))
    return S.av_fan(base, reps)

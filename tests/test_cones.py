import ast
import pathlib
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.semiabelian as S
from tropfan._linalg import (
    dot,
    express_in_hnf,
    integer_kernel,
    primitive,
    rational_rank,
)

import _gen
from _ref import (
    ref_extreme_generators,
    ref_facets,
    ref_is_face_of,
    ref_split_by_hyperplanes,
    ref_uncovered_point,
)


# Reference implementations: the subset-enumerating cone operations that
# double description and the incidence walks replaced.


def ref_extreme_rays_of_inequalities(ineqs, k):
    """Extreme rays of the pointed cone {x in R^k : A x >= 0}.

    Every extreme ray of a pointed cone has an active constraint set of
    rank k-1, so enumerating (k-1)-subsets of rows finds all of them.
    """
    if k == 0:
        return []
    rays = []
    seen = set()
    if k == 1:
        for v in [(1,), (-1,)]:
            if all(dot(row, v) >= 0 for row in ineqs) and v not in seen:
                seen.add(v)
                rays.append(v)
        # Both directions surviving means the constraints carve out a
        # line; the caller checks.
        return rays
    for subset in combinations(range(len(ineqs)), k - 1):
        rows = [ineqs[i] for i in subset]
        kernel = integer_kernel(rows, k)
        if len(kernel) != 1:
            continue
        v = primitive(kernel[0])
        for cand in (v, tuple(-x for x in v)):
            if all(dot(row, cand) >= 0 for row in ineqs):
                if cand not in seen:
                    seen.add(cand)
                    rays.append(cand)
                break
    return rays


def ref_from_rays(rays, ambient_rank):
    """`from_rays` with the subset-enumerating dual step and one rank test
    per generator: extreme iff its active facet normals have rank d-1."""
    prims = []
    for r in rays:
        p = primitive(r)
        if any(p) and p not in prims:
            prims.append(p)
    if not prims:
        return C.zero_cone(ambient_rank)
    span = L.saturate(L.canonicalize(prims, ambient_rank))
    d = span.rank
    coords = [express_in_hnf(span.basis, ambient_rank, p) for p in prims]
    normals_d = ref_extreme_rays_of_inequalities(coords, d)
    if rational_rank(normals_d) != d:
        raise C.PointednessError(f"cone generated by {rays} contains a line")
    extreme = [
        p
        for p, c in zip(prims, coords)
        if rational_rank([h for h in normals_d if dot(h, c) == 0]) == d - 1
    ]
    lifted = [
        primitive(y)
        for y in C._lift_functionals(span.basis, normals_d, ambient_rank)
    ]
    return C.Cone(
        ambient_rank,
        tuple(sorted(extreme)),
        tuple(span.basis),
        tuple(sorted(lifted)),
    )


def ref_arrangement_fan_cones(normals, n):
    """Chambers of the arrangement {<h, x> = 0} by the orthant start: the
    2^n orthants split by every normal, the full-dimensional cells grouped
    by the sign vector of an interior point, each group rebuilt as one
    cone."""
    orthants = [
        C.from_rays(
            [tuple(-(i == j) if (mask >> i) & 1 else int(i == j) for j in range(n))
             for i in range(n)],
            n,
        )
        for mask in range(2**n)
    ]
    groups = {}
    for cell in C.split_by_hyperplanes(orthants, normals):
        if cell.dim == n:
            p = C.interior_point(cell)
            sign = tuple((dot(h, p) > 0) - (dot(h, p) < 0) for h in normals)
            groups.setdefault(sign, []).extend(cell.rays)
    return sorted((C.from_rays(rays, n) for rays in groups.values()), key=lambda c: c.rays)


def whitney_chamber_count(normals):
    """Number of chambers of a central arrangement by Whitney's formula
    (Zaslavsky 1975): r = sum over subsets S of the distinct hyperplanes
    of (-1)^(|S| - rank S)."""
    hyperplanes = set()
    for h in normals:
        p = primitive(h)
        if any(p):
            hyperplanes.add(max(p, tuple(-x for x in p)))
    hyperplanes = sorted(hyperplanes)
    total = 0
    for k in range(len(hyperplanes) + 1):
        for subset in combinations(hyperplanes, k):
            total += (-1) ** (k - rational_rank(list(subset)))
    return total


def _lift(coords, basis, n):
    v = [0] * n
    for c, b in zip(coords, basis):
        v = [a + c * x for a, x in zip(v, b)]
    return primitive(v)


def ref_halfspace_slice(cone, h, sign):
    n = cone.ambient_rank
    if cone.dim == 0:
        return cone
    hh = tuple(sign * x for x in h)
    ineqs = [tuple(dot(g, b) for b in cone.span_basis) for g in cone.facet_normals]
    ineqs.append(tuple(dot(hh, b) for b in cone.span_basis))
    lifted = []
    for r in ref_extreme_rays_of_inequalities(ineqs, cone.dim):
        v = _lift(r, cone.span_basis, n)
        if C.member(cone, v) and dot(hh, v) >= 0:
            lifted.append(v)
    if not lifted:
        return C.zero_cone(n)
    return C.from_rays(lifted, n)


def ref_intersect_cones(c1, c2):
    n = c1.ambient_rank
    if c1.dim == 0 or c2.dim == 0:
        return C.zero_cone(n)
    span = L.saturate(
        L.intersect(
            L.canonicalize([list(b) for b in c1.span_basis], n),
            L.canonicalize([list(b) for b in c2.span_basis], n),
        )
    )
    if span.rank == 0:
        return C.zero_cone(n)
    ineqs = [
        tuple(dot(h, b) for b in span.basis)
        for h in c1.facet_normals + c2.facet_normals
    ]
    lifted = [
        _lift(r, span.basis, n)
        for r in ref_extreme_rays_of_inequalities(ineqs, span.rank)
    ]
    lifted = [v for v in lifted if C.member(c1, v) and C.member(c2, v)]
    if not lifted:
        return C.zero_cone(n)
    return C.from_rays(lifted, n)


def ref_faces(cone):
    if cone.dim == 0:
        return [cone]
    result = {}
    normals = cone.facet_normals
    for size in range(len(normals) + 1):
        for subset in combinations(normals, size):
            rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in subset)]
            f = C.from_rays(rays, cone.ambient_rank)
            result[f.rays] = f
    result[()] = C.zero_cone(cone.ambient_rank)
    return sorted(result.values(), key=lambda c: (c.dim, c.rays))


def ref_faces_by_facets(cone):
    """Facets of facets (`ref_facets`), walked down to {0}: the faces where
    the normal subsets of `ref_faces` are too many, as on C(14, 4)."""
    found = {cone.rays: cone, (): C.zero_cone(cone.ambient_rank)}
    todo = [cone]
    while todo:
        for f in ref_facets(todo.pop()):
            if f.rays not in found:
                found[f.rays] = f
                todo.append(f)
    return sorted(found.values(), key=lambda c: (c.dim, c.rays))


def _full(cone):
    return (cone.ambient_rank, cone.rays, cone.span_basis, cone.facet_normals)


def _in_face_walk(f, cone):
    """Is f a face of cone, read from `face_walk`: does f have the rays of
    one of its faces?"""
    return any(f.rays == face[0] for face in cone.face_walk)


def _facet_rays(cone):
    """The ray set of each facet, as `fans.stellar_subdivision` and
    `_ref.ref_is_complete_by_ridges` read them: the rays tight on one
    facet normal, sorted."""
    return sorted(
        tuple(C.tight_rays(cone, 1 << k)) for k in range(len(cone.facet_normals))
    )


def quadrant():
    return C.from_rays([(1, 0), (0, 1)], 2)


def octant():
    return C.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


def _in_cone2_oracle(rays, v):
    """Rank-2 membership by cross products, independent of the library."""
    # v in cone(a, b) iff cross(a, v) and cross(v, b) are both >= 0
    # (after orienting a, b counterclockwise).
    a, b = rays
    if a[0] * b[1] - a[1] * b[0] < 0:
        a, b = b, a
    return a[0] * v[1] - a[1] * v[0] >= 0 and v[0] * b[1] - v[1] * b[0] >= 0


class TestConstruction:
    def test_dedupe_and_primitive(self):
        c = C.from_rays([(2, 0), (1, 0), (1, 1)], 2)
        assert c.rays == ((1, 0), (1, 1))

    def test_non_extreme_dropped(self):
        c = C.from_rays([(1, 0), (1, 1), (0, 1)], 2)
        assert c.rays == ((0, 1), (1, 0))

    def test_not_pointed(self):
        with pytest.raises(C.PointednessError):
            C.from_rays([(1, 0), (-1, 0)], 2)

    def test_zero_cone(self):
        z = C.zero_cone(2)
        assert z.dim == 0 and z.rays == ()

    def test_ray_cone(self):
        c = C.ray_cone((4, 6), 2)
        assert c.rays == ((2, 3),)
        assert c.dim == 1


class TestMembership:
    def test_quadrant(self):
        q = quadrant()
        assert C.member(q, (3, 5))
        assert not C.member(q, (-1, 2))
        assert C.contains_point(q, (0, 0)) == C.BOUNDARY
        assert C.contains_point(q, (1, 1)) == C.RELATIVE_INTERIOR
        assert C.contains_point(q, (1, 0)) == C.BOUNDARY
        assert C.contains_point(q, (-1, 0)) == C.OUTSIDE

    def test_ray_relative_interior(self):
        r = C.ray_cone((1, 2), 2)
        assert C.contains_point(r, (2, 4)) == C.RELATIVE_INTERIOR
        assert C.contains_point(r, (0, 0)) == C.BOUNDARY
        assert C.contains_point(r, (1, 1)) == C.OUTSIDE

    def test_random_rank2_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            b = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a == (0, 0) or b == (0, 0):
                continue
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            cone = C.from_rays([a, b], 2)
            for x in range(-5, 6):
                for y in range(-5, 6):
                    assert C.member(cone, (x, y)) == _in_cone2_oracle(
                        (a, b), (x, y)
                    ), (a, b, x, y)

    def test_interior_point(self):
        for cone in (quadrant(), octant(), C.ray_cone((2, 1), 2)):
            p = C.interior_point(cone)
            assert C.contains_point(cone, p) == C.RELATIVE_INTERIOR


class TestFaces:
    def test_quadrant_faces(self):
        fs = C.faces(quadrant())
        ray_sets = sorted(f.rays for f in fs)
        assert ray_sets == [(), ((0, 1),), ((0, 1), (1, 0)), ((1, 0),)]

    def test_octant_facets(self):
        assert _facet_rays(octant()) == [
            ((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0))
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5),
            )
        )
    )
    def test_facets_match_faces(self, case):
        # Reference: the codimension-one members of the full face lattice.
        n, rays = case
        try:
            cone = C.from_rays(rays, n)
        except C.PointednessError:
            assume(False)
        codim_one = [f.rays for f in C.faces(cone) if f.dim == cone.dim - 1]
        assert _facet_rays(cone) == codim_one

    def test_is_face_of(self):
        q = quadrant()
        for f, face in [
            (C.ray_cone((1, 0), 2), True),
            (C.zero_cone(2), True),
            (q, True),
            (C.ray_cone((1, 1), 2), False),
        ]:
            assert ref_is_face_of(f, q) == _in_face_walk(f, q) == face

    def test_common_face(self):
        left = C.from_rays([(0, 1), (-1, 0)], 2)
        assert C.common_face(quadrant(), left)
        overlapping = C.from_rays([(1, 1), (-1, 1)], 2)
        assert not C.common_face(quadrant(), overlapping)


class TestIntersection:
    def test_half_overlap(self):
        a = C.from_rays([(1, 0), (1, 2)], 2)
        b = C.from_rays([(1, 1), (0, 1)], 2)
        inter = C.intersect_cones(a, b)
        assert inter.rays == ((1, 1), (1, 2))

    def test_touching_along_ray(self):
        a = quadrant()
        b = C.from_rays([(0, 1), (-1, 1)], 2)
        inter = C.intersect_cones(a, b)
        assert inter.rays == ((0, 1),)

    def test_disjoint_interiors(self):
        a = quadrant()
        b = C.from_rays([(-1, 0), (0, -1)], 2)
        assert C.intersect_cones(a, b).dim == 0

    def test_contains_cone(self):
        assert C.contains_cone(quadrant(), C.from_rays([(1, 1), (1, 2)], 2))
        assert not C.contains_cone(quadrant(), C.from_rays([(1, 1), (-1, 2)], 2))


class TestSplitting:
    def test_halfspace_slice(self):
        q = quadrant()
        pos = C.halfspace_slice(q, (1, -1), 1)
        neg = C.halfspace_slice(q, (1, -1), -1)
        assert pos is not None and neg is not None
        assert C.cone_covered_by(q, [pos, neg])

    def test_split_by_hyperplanes(self):
        cells = C.split_by_hyperplanes([quadrant()], [(1, -1)])
        tops = [c for c in cells if c.dim == 2]
        assert len(tops) == 2

    def test_arrangement_not_spanning_raises(self):
        # The braid normals e_i - e_j all vanish on (1, 1, 1).
        with pytest.raises(L.DimensionError):
            C.arrangement_chambers([(1, -1, 0), (1, 0, -1), (0, 1, -1)], 3)

    def test_covered(self):
        q = quadrant()
        lower = C.from_rays([(1, 0), (1, 1)], 2)
        upper = C.from_rays([(1, 1), (0, 1)], 2)
        assert C.cone_covered_by(q, [lower, upper])
        assert not C.cone_covered_by(q, [lower])

    def test_uncovered_point_is_witness(self):
        q = quadrant()
        lower = C.from_rays([(1, 0), (1, 1)], 2)
        pt = C.uncovered_point(q, [lower])
        assert pt is not None
        assert C.member(q, pt)
        assert not C.member(lower, pt)

    def test_first_uncovered_reads_targets_in_order(self):
        # The first quadrant is a piece and the second is not covered, so
        # the point is the second's interior point, whichever target follows.
        q1, q2 = quadrant(), C.from_rays([(-1, 0), (0, 1)], 2)
        q3 = C.from_rays([(-1, 0), (0, -1)], 2)
        assert C.first_uncovered([q1, q2, q3], [q1]) == (-1, 1)
        assert C.first_uncovered([q1, q3, q2], [q1]) == (-1, -1)
        assert C.first_uncovered([q1], [q1]) is None
        assert C.first_uncovered([], []) is None

    def test_piece_of_another_span_covers_nothing(self):
        # The target's interior point (1, 1, 0) lies in the piece, but the
        # piece meets the target's plane only along the ray through it.
        target = C.from_rays([(1, 0, 0), (0, 1, 0)], 3)
        piece = C.from_rays([(1, 1, 0), (0, 0, 1)], 3)
        assert not C.cone_covered_by(target, [piece])
        pt = C.uncovered_point(target, [piece])
        assert C.contains_point(target, pt) == C.RELATIVE_INTERIOR
        assert not C.member(piece, pt)

    def test_covered_by_overshooting_pieces(self):
        # Pieces may stick out of the target; coverage still detected.
        c = C.from_rays([(1, 0), (1, 2)], 2)
        assert C.cone_covered_by(c, [quadrant()])

    def test_rank3_coverage(self):
        o = octant()
        a = C.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
        b = C.from_rays([(0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
        d = C.from_rays([(1, 0, 0), (0, 0, 1), (1, 1, 1)], 3)
        assert C.cone_covered_by(o, [a, b, d])
        assert not C.cone_covered_by(o, [a, b])


def _vector(rng, n):
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            return v


def _oriented(vs, w):
    """The vectors with <w, v> != 0, each flipped so that <w, v> > 0."""
    return [v if dot(w, v) > 0 else [-x for x in v] for v in vs if dot(w, v) != 0]


def _rank(rng):
    """Rank 1 to 4, weighted towards the ranks with more face structure."""
    return rng.choice((1, 2, 3, 3, 4, 4))


def _random_cone(rng, n, max_rays=7, span_rank=None):
    """A nonzero pointed cone of ambient rank n; about a third are
    lower-dimensional, their rays drawn from the span of fewer than n
    random vectors (of span_rank vectors, when given).  Each ray is
    oriented to pair positively with a random functional, so the cone is
    pointed."""
    while True:
        count = rng.randint(2, max_rays)
        k = span_rank
        if k is None and n > 1 and rng.random() < 1 / 3:
            k = rng.randint(1, n - 1)
        if k is not None:
            basis = [_vector(rng, n) for _ in range(k)]
            coeffs = [_vector(rng, len(basis)) for _ in range(count)]
            vs = [[dot(cs, col) for col in zip(*basis)] for cs in coeffs]
        else:
            vs = [_vector(rng, n) for _ in range(count)]
        vs = [v for v in _oriented(vs, _vector(rng, n)) if any(v)]
        if vs:
            return C.from_rays(vs, n)


def _interior_functional(cone):
    """A functional positive on every ray: each ray misses some facet."""
    return [sum(h[i] for h in cone.facet_normals) for i in range(cone.ambient_rank)]


def _random_pair(rng):
    """Pairs of unrelated cones (often in different spans), pairs sharing
    the rays of a face of the first cone, pairs whose second cone lies on
    the far side of a face of the first, and pairs meeting only at the
    origin."""
    n = _rank(rng)
    c1 = _random_cone(rng, n)
    kind = rng.choice(["random", "shared", "face", "disjoint"])
    if kind == "random":
        return c1, _random_cone(rng, n)
    extras = [_vector(rng, n) for _ in range(rng.randint(1, 3))]
    if kind == "disjoint":
        w = [-x for x in _interior_functional(c1)]
        vs = _oriented(extras, w)
        return c1, C.from_rays(vs, n) if vs else C.zero_cone(n)
    chosen = rng.sample(c1.facet_normals, rng.randint(1, len(c1.facet_normals)))
    face_rays = [r for r in c1.rays if all(dot(h, r) == 0 for h in chosen)]
    if kind == "face":
        extras = _oriented(extras, [-x for x in chosen[0]])
    try:
        return c1, C.from_rays(face_rays + extras, n)
    except C.PointednessError:
        return c1, C.from_rays(face_rays, n)


def _random_halfspace(rng):
    """(cone, h, sign) where the cut goes through the cone, touches it
    along a face (h a facet normal), or keeps all of it or nothing but
    the origin (h positive on the cone)."""
    n = _rank(rng)
    cone = _random_cone(rng, n)
    kind = rng.choice(["through", "facet", "miss"])
    if kind == "facet":
        h = rng.choice(cone.facet_normals)
    elif kind == "miss":
        h = _interior_functional(cone)
    else:
        for _ in range(20):
            h = _vector(rng, n)
            vals = [dot(h, r) for r in cone.rays]
            if min(vals) < 0 < max(vals):
                break
    return cone, tuple(h), rng.choice([1, -1])


HOLDS = ("equal", "stellar", "overlap")


def _holders(rng, cell, kind):
    """Pieces whose union is `cell`: the cell itself ("equal"), a stellar
    subdivision of it at a positive combination of its rays ("stellar"),
    or two overlapping pieces ("overlap"): one side of a cut, and the
    cone over the other side and a point inside the first."""
    n = cell.ambient_rank
    if kind == "equal":
        return [cell]
    if kind == "stellar":
        v = [0] * n
        for r in cell.rays:
            w = rng.randint(1, 3)
            v = [a + w * x for a, x in zip(v, r)]
        return [C.from_rays(list(f.rays) + [v], n) for f in ref_facets(cell)]
    h = _vector(rng, n)
    side = C.halfspace_slice(cell, h, 1)
    other = C.halfspace_slice(cell, h, -1)
    return [side, C.from_rays(list(other.rays) + [C.interior_point(side)], n)]


def _random_cover(rng):
    """(target, pieces) at rank 1 to 4: random pieces, some of lower
    dimension than the target, plus the two sides of the target cut by a
    random hyperplane (opposite normals, and pieces that may cover it),
    a piece repeated (repeated normals) and a piece negated.  Often
    `_holders` of the target, or of one side of a cut of it, are mixed
    in, so that some cells are held whole by one piece."""
    n = _rank(rng)
    target = _random_cone(rng, n)
    pieces = [_random_cone(rng, n) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        h = _vector(rng, n)
        pieces += [C.halfspace_slice(target, h, 1), C.halfspace_slice(target, h, -1)]
    if rng.random() < 0.5:
        pieces.append(rng.choice(pieces))
    if rng.random() < 0.5:
        p = rng.choice(pieces)
        pieces.append(C.from_rays([[-x for x in r] for r in p.rays], n))
    if rng.random() < 0.75:
        held = target
        if rng.random() < 0.5:
            held = C.halfspace_slice(target, _vector(rng, n), 1)
        if held.dim > 0:
            pieces += _holders(rng, held, rng.choice(HOLDS))
    rng.shuffle(pieces)
    return target, pieces


def _random_generators(rng):
    """(generators, n) at rank 1 to 5: pointed sets, sets with a lower-
    dimensional span, and sets that are not pointed, each with redundant
    generators (multiples, repeats and sums of others) mixed in."""
    n = rng.randint(1, 5)
    count = rng.randint(1, n + 4)
    kind = rng.choice(["pointed", "low", "line"])
    if kind == "low" and n > 1:
        basis = [_vector(rng, n) for _ in range(rng.randint(1, n - 1))]
        coeffs = [_vector(rng, len(basis)) for _ in range(count)]
        vs = [[dot(cs, col) for col in zip(*basis)] for cs in coeffs]
    else:
        vs = [_vector(rng, n) for _ in range(count)]
    if kind != "line" or rng.random() < 0.5:
        vs = _oriented(vs, _vector(rng, n)) or [_vector(rng, n)]
    if kind == "line":
        vs.append([-x for x in rng.choice(vs)])
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(vs), rng.choice(vs)
        extra = [[2 * x for x in a], list(a), [x + y for x, y in zip(a, b)]]
        vs.append(rng.choice(extra))
    rng.shuffle(vs)
    return vs, n


def _random_arrangement(rng):
    """(normals, n): n to n + 3 normals with entries in [-2, 2] that span
    R^n, at rank 1 to 4; zero normals, repeats and negatives may occur."""
    n = rng.randint(1, 4)
    while True:
        normals = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(n, n + 3))
        ]
        if rational_rank(normals) == n:
            return normals, n


def _with_inner_generators(rng, cone):
    """The cone's rays with generators inside it mixed in (repeats,
    doubles and sums of two rays), shuffled."""
    gens = list(cone.rays)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(cone.rays), rng.choice(cone.rays)
        gens.append(rng.choice([a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b))]))
    rng.shuffle(gens)
    return gens


def _holding_a_line(rng):
    """(generators, normals) of a cone that holds a line, at rank 1 to 4:
    a random cone of rank m < n (or none, for m = 0) times R^(n - m),
    generated by its rays, ±e_i for i >= m and sums of those, with its
    facet normals padded by zeros.  Random shears x_i += c·x_j move the
    generators, and h_j -= c·h_i the normals, which keeps every value
    <h, g>."""
    n = rng.randint(1, 4)
    m = rng.randint(0, n - 1)
    base = _random_cone(rng, m) if m else C.zero_cone(0)
    pad = (0,) * (n - m)
    units = [tuple(int(i == j) for j in range(n)) for i in range(m, n)]
    gens = [r + pad for r in base.rays] + units + [tuple(-x for x in u) for u in units]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append(tuple(x + y for x, y in zip(a, b)))
    gens, normals = [list(g) for g in gens], [list(h) + list(pad) for h in base.facet_normals]
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for g in gens:
            g[i] += c * g[j]
        for h in normals:
            h[j] -= c * h[i]
    rng.shuffle(gens)
    return [tuple(g) for g in gens], [tuple(h) for h in normals]


def _from_rays_outcome(build, vs, n):
    try:
        return _full(build(vs, n))
    except C.PointednessError as e:
        return str(e)


_seeds = st.integers(0, 2**32 - 1).map(random.Random)


def _through(rng, point, n):
    """A cone through `point` that leaves its span: the ray through it, or
    the cone over it and a random vector."""
    if rng.random() < 0.5:
        return C.from_rays([point], n)
    try:
        return C.from_rays([point, _vector(rng, n)], n)
    except C.PointednessError:
        return C.from_rays([point], n)


def _random_spans(rng):
    """(target, pieces) at rank 2 or 3, the target a third of the time
    lower-dimensional: random pieces of any dimension, cones through the
    target's interior point or through that of one side of a cut of it
    in other spans (`_through`), one side of such a cut, and often
    `_holders` of the target."""
    n = rng.choice((2, 3))
    target = _random_cone(rng, n)
    pieces = [_random_cone(rng, n) for _ in range(rng.randint(0, 2))]
    side = C.halfspace_slice(target, _vector(rng, n), 1)
    for cell in (target, side):
        if cell.dim > 0 and rng.random() < 0.6:
            pieces.append(_through(rng, C.interior_point(cell), n))
    if rng.random() < 0.5:
        pieces.append(side)
    if rng.random() < 0.4:
        pieces += _holders(rng, target, rng.choice(HOLDS))
    rng.shuffle(pieces)
    return target, pieces


def _box_outside(cones, pieces):
    """The points of the box [-R, R]^n (R = 6 at rank 2, 3 at rank 3) that
    lie in one of the cones and in no piece, by membership tests alone."""
    n = cones[0].ambient_rank
    radius = 6 if n == 2 else 3
    return [
        v
        for v in product(range(-radius, radius + 1), repeat=n)
        if any(C.member(c, v) for c in cones) and not any(C.member(p, v) for p in pieces)
    ]


@settings(max_examples=300, deadline=5000, derandomize=True)
@given(_seeds)
def test_coverage_against_box_scan(rng):
    """Coverage with pieces of lower dimension and of other spans, checked
    against a box scan that does not split: a returned point lies in the
    target's relative interior and in no piece; "covered" means no box
    point of the target lies outside every piece.  The same holds for
    `union_difference` of the target with extra cones against the
    pieces, in either order."""
    target, pieces = _random_spans(rng)
    pt = C.uncovered_point(target, pieces)
    assert C.cone_covered_by(target, pieces) == (pt is None)
    if pt is None:
        assert _box_outside([target], pieces) == []
    else:
        assert C.contains_point(target, pt) == C.RELATIVE_INTERIOR
        assert not any(C.member(p, pt) for p in pieces)
    n = target.ambient_rank
    cones = [target] + [_random_cone(rng, n) for _ in range(rng.randint(0, 2))]
    for c1, c2 in ((cones, pieces), (pieces, cones)):
        pt = C.union_difference(c1, c2)
        if pt is None:
            assert _box_outside(c1, c2) == [] and _box_outside(c2, c1) == []
        else:
            in1 = [c for c in c1 if C.contains_point(c, pt) == C.RELATIVE_INTERIOR]
            in2 = [c for c in c2 if C.contains_point(c, pt) == C.RELATIVE_INTERIOR]
            assert (in1 and not any(C.member(c, pt) for c in c2)) or (
                in2 and not any(C.member(c, pt) for c in c1)
            )


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_seeds)
    def test_from_rays(self, rng):
        vs, n = _random_generators(rng)
        assert _from_rays_outcome(C.from_rays, vs, n) == _from_rays_outcome(
            ref_from_rays, vs, n
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_seeds)
    def test_extreme_generators(self, rng):
        # The rays of a random cone are its extreme generators; with
        # inner generators and repeats mixed in, and on sets that hold a
        # line, the plain-loop scan gives what the reference gives.
        n = rng.randint(1, 4)
        cone = _random_cone(rng, n)
        normals = cone.facet_normals
        assert C.extreme_generators(list(cone.rays), normals) == list(cone.rays)
        gens = _with_inner_generators(rng, cone)
        assert C.extreme_generators(gens, normals) == ref_extreme_generators(gens, normals)
        gens, normals = _holding_a_line(rng)
        assert ref_extreme_generators(gens, normals) is None
        assert C.extreme_generators(gens, normals) is None

    @settings(max_examples=300, deadline=None)
    @given(_seeds)
    def test_halfspace_slice(self, rng):
        cone, h, sign = _random_halfspace(rng)
        assert _full(C.halfspace_slice(cone, h, sign)) == _full(
            ref_halfspace_slice(cone, h, sign)
        )

    @settings(max_examples=300, deadline=None)
    @given(_seeds)
    def test_intersect_cones(self, rng):
        c1, c2 = _random_pair(rng)
        ref = _full(ref_intersect_cones(c1, c2))
        assert _full(C.intersect_cones(c1, c2)) == ref
        assert _full(C.intersect_cones(c2, c1)) == ref

    def test_intersect_cones_low_dimensional(self):
        # c2 of codimension 2 or more, whose span equations are cut as
        # equations: a random low cone, or a face of c1 so that the two
        # meet; and the zero cone on either side.
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.choice((3, 4))
            c1 = _random_cone(rng, n)
            faces = [f for f in C.faces(c1) if 0 < f.dim <= n - 2]
            low = _random_cone(rng, n, span_rank=rng.randint(1, n - 2))
            for c2 in (low, rng.choice(faces or [low]), C.zero_cone(n)):
                assert c2.dim <= n - 2
                ref = _full(ref_intersect_cones(c1, c2))
                assert _full(C.intersect_cones(c1, c2)) == ref
                assert _full(C.intersect_cones(c2, c1)) == ref

    @settings(max_examples=100, deadline=None)
    @given(_seeds)
    def test_cuts_of_low_dimensional_parents(self, rng):
        # Parents of span rank 2 to n - 1 at rank 4 and 5, sliced by a
        # random half-space and intersected with a random cone.
        n = rng.choice((4, 5))
        cone = _random_cone(rng, n, max_rays=6, span_rank=rng.randint(2, n - 1))
        h, sign = tuple(_vector(rng, n)), rng.choice([1, -1])
        assert _full(C.halfspace_slice(cone, h, sign)) == _full(
            ref_halfspace_slice(cone, h, sign)
        )
        other = _random_cone(rng, n, max_rays=6)
        ref = _full(ref_intersect_cones(cone, other))
        assert _full(C.intersect_cones(cone, other)) == ref
        assert _full(C.intersect_cones(other, cone)) == ref

    def test_equation_cuts_to_lower_dimension(self):
        # Rank 4 and 5 parents, some lower-dimensional, cut by the
        # equations of a proper face of their own (which gives the face)
        # or of a random cone whose span has rank 1 to n - 2.
        rng = random.Random(16)
        for _ in range(60):
            n = rng.choice((4, 5))
            c1 = _random_cone(rng, n, max_rays=6)
            proper = [f for f in C.faces(c1) if 0 < f.dim < c1.dim]
            face = rng.choice(proper or [C.zero_cone(n)])
            low = _random_cone(rng, n, max_rays=5, span_rank=rng.randint(1, n - 2))
            assert _full(C.intersect_cones(c1, face)) == _full(face)
            assert _full(C.intersect_cones(face, c1)) == _full(face)
            ref = _full(ref_intersect_cones(c1, low))
            assert _full(C.intersect_cones(c1, low)) == ref
            assert _full(C.intersect_cones(low, c1)) == ref

    def test_rows_vanishing_on_the_parent(self):
        # A zero row, or a span equation of a lower-dimensional parent,
        # keeps the parent alone and is an implicit equality beside a row
        # that cuts.
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            cone = _random_cone(rng, n)
            rows = [(0,) * n] + list(cone.span_equations)
            for h in rows:
                for sign in (1, -1):
                    assert _full(C.halfspace_slice(cone, h, sign)) == _full(cone)
            assert _full(C._cut(cone, rows, len(rows))) == _full(cone)
            h = tuple(_vector(rng, n))
            ref = _full(ref_halfspace_slice(cone, h, 1))
            assert _full(C._cut(cone, rows + [h])) == ref
            assert _full(C._cut(cone, rows + [h], len(rows))) == ref

    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_split_by_hyperplanes(self, rng):
        target, pieces = _random_cover(rng)
        normals = [h for p in pieces for h in p.facet_normals]
        assert [_full(c) for c in C.split_by_hyperplanes([target], normals)] == [
            _full(c) for c in ref_split_by_hyperplanes([target], normals)
        ]

    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_uncovered_point(self, rng):
        target, pieces = _random_cover(rng)
        assert C.uncovered_point(target, pieces) == ref_uncovered_point(target, pieces)

    @settings(max_examples=100, deadline=None)
    @given(_seeds, st.sampled_from(HOLDS))
    def test_uncovered_point_of_held_target(self, rng, kind):
        target, pieces = _random_cover(rng)
        pieces += _holders(rng, target, kind)
        rng.shuffle(pieces)
        assert ref_uncovered_point(target, pieces) is None
        assert C.uncovered_point(target, pieces) is None

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_faces(self, rng):
        cone = _random_cone(rng, _rank(rng))
        assert [_full(f) for f in C.faces(cone)] == [_full(f) for f in ref_faces(cone)]

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_facets(self, rng):
        cone = _random_cone(rng, rng.randint(1, 5))
        assert _facet_rays(cone) == [f.rays for f in ref_facets(cone)]

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_built_cones_match_from_rays(self, rng):
        # Every cone that faces and cuts build from incidences equals
        # `from_rays` of its rays on every field, at rank 1 to 5.
        n = rng.randint(1, 5)
        cone = _random_cone(rng, n)
        h = tuple(_vector(rng, n))
        built = C.faces(cone)
        built += [C.halfspace_slice(cone, h, 1), C.halfspace_slice(cone, h, -1)]
        built.append(C.intersect_cones(cone, _random_cone(rng, n)))
        for c in built:
            assert _full(c) == _full(C.from_rays(c.rays, n))

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_is_face_of_and_common_face(self, rng):
        c1, c2 = _random_pair(rng)
        inter = ref_intersect_cones(c1, c2)
        for f in ref_faces(c1) + [c2, inter]:
            assert _in_face_walk(f, c1) == ref_is_face_of(f, c1)
            assert _in_face_walk(f, c2) == ref_is_face_of(f, c2)
        assert C.common_face(c1, c2) == (
            ref_is_face_of(inter, c1) and ref_is_face_of(inter, c2)
        )

    def test_face_walk_of_cyclic_polytope_cone(self):
        cone = C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5)
        assert [face[:2] for face in cone.face_walk] == [
            (f.rays, f.span_basis) for f in ref_faces_by_facets(cone)
        ]

    def test_faces_of_cyclic_polytope_cone(self):
        # The cone over the cyclic 4-polytope C(14, 4): 14 rays, 77 facets.
        # Neighborly, so its f-vector is 1, 14, C(14, 2), 154, 77, 1.
        cone = C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5)
        dims = [f.dim for f in C.faces(cone)]
        assert [dims.count(d) for d in range(6)] == [1, 14, 91, 154, 77, 1]

    def test_cut_of_cyclic_polytope_cone(self):
        # The cone over C(14, 4) cut by t^4 >= 42: 44 rays and 78 facets.
        # Its dual step has 44 generators in rank 5.
        cone = C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5)
        cut = C.halfspace_slice(cone, (-42, 0, 0, 0, 1), 1)
        assert (len(cut.rays), len(cut.facet_normals)) == (44, 78)

    @settings(max_examples=60, deadline=None)
    @given(_seeds)
    def test_arrangement_chambers(self, rng):
        normals, n = _random_arrangement(rng)
        chambers = C.arrangement_chambers(normals, n)
        assert [_full(c) for c in chambers] == [
            _full(c) for c in ref_arrangement_fan_cones(normals, n)
        ]
        assert len(chambers) == whitney_chamber_count(normals)


def test_cuts_and_faces_make_no_from_rays_call(monkeypatch):
    # Faces, slices, intersections, splits and coverage of rank 2 to 5
    # cones and of the cone over C(14, 4), built before `from_rays` is
    # counted.
    rng = random.Random(18)
    cones = [_random_cone(rng, n) for n in (2, 3, 4, 5) for _ in range(8)]
    cones.append(C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5))
    others = [_random_cone(rng, c.ambient_rank) for c in cones]
    calls = []
    real = C.from_rays
    monkeypatch.setattr(C, "from_rays", lambda *a: calls.append(a) or real(*a))
    changed = 0
    for cone, other in zip(cones, others):
        n = cone.ambient_rank
        h = tuple(_vector(rng, n))
        C.faces(cone)
        cuts = [C.halfspace_slice(cone, h, 1), C.halfspace_slice(cone, h, -1)]
        cuts.append(C.intersect_cones(cone, other))
        cuts += C.split_by_hyperplanes([cone], other.facet_normals)
        C.uncovered_point(cone, [other, cuts[0]])
        changed += sum(c != cone for c in cuts)
    assert calls == []
    assert changed > len(cones)


def test_target_held_by_a_piece_is_not_split(monkeypatch):
    """A target equal to one of its pieces is held whole, so no cell is
    cut, however many pieces' hyperplanes cross it."""
    rng = random.Random(7)
    covers = [_random_cover(rng) for _ in range(40)]
    crossed = sum(
        any(C._crosses(h, target.rays) for p in pieces for h in p.facet_normals)
        for target, pieces in covers
    )
    calls = []
    real = C.halfspace_slice
    monkeypatch.setattr(C, "halfspace_slice", lambda *a: calls.append(a) or real(*a))
    for target, pieces in covers:
        assert C.uncovered_point(target, pieces + [target]) is None
    assert calls == []
    assert crossed > len(covers) // 2


def test_uncovered_point_tests_each_hyperplane_once_per_cell(monkeypatch):
    """Each facet hyperplane is kept once up to sign: within one
    `uncovered_point` call, `_crosses` never gets h for a cell once it has
    had h or −h for that cell.  Targets and pieces are the maximal cones
    of seeded fans, of their stellar subdivisions and of the fans with one
    cone dropped, each against another; neighbouring pieces share walls,
    so their facet normals repeat up to sign."""
    rng = random.Random(29)
    pairs = []
    for _ in range(8):
        fan = _gen.random_fan(rng)
        maxs = [sc.cone for sc in F.maximal_cones(fan)]
        sub = [sc.cone for sc in F.maximal_cones(_gen.random_stellar(rng, fan))]
        dropped = maxs[:]
        del dropped[rng.randrange(len(dropped))]
        for targets, pieces in ((maxs, sub), (sub, maxs), (maxs, dropped), (sub, dropped)):
            pairs += [(target, pieces) for target in targets]
    tested = []
    crosses = C._crosses
    monkeypatch.setattr(
        C, "_crosses", lambda h, rays: tested.append((rays, h)) or crosses(h, rays)
    )
    uncovered = repeated = 0
    for target, pieces in pairs:
        want = ref_uncovered_point(target, pieces)
        tested.clear()
        assert C.uncovered_point(target, pieces) == want
        seen = set()
        for rays, h in tested:
            assert (rays, h) not in seen
            seen.update(((rays, h), (rays, tuple(-x for x in h))))
        normals = [h for p in pieces if p.dim >= target.dim for h in p.facet_normals]
        repeated += len({min(h, tuple(-x for x in h)) for h in normals}) < len(normals)
        uncovered += want is not None
    assert uncovered and repeated > len(pairs) // 2


def test_face_walk_matches_reference_faces():
    # Rays and span basis of every face, in order, at rank 1 to 5 and at
    # every span rank up to the ambient rank; rank-5 cones keep to 6 rays,
    # so that `ref_faces` walks at most 2^9 subsets of normals.
    rng = random.Random(19)
    for n in range(1, 6):
        for k in range(1, n + 1):
            for _ in range(6):
                cone = _random_cone(rng, n, max_rays=6 if n == 5 else 7, span_rank=k)
                assert [face[:2] for face in cone.face_walk] == [
                    (f.rays, f.span_basis) for f in ref_faces(cone)
                ]
    zero = C.zero_cone(3)
    assert list(zero.face_walk) == [((), (), 0)]


def test_common_face_matches_reference_on_seeded_pairs():
    # Both orders of each pair; the pairs include ones that meet outside a
    # common face, ones that meet in a common face and ones that meet only
    # at the origin.
    rng = random.Random(20)
    seen = set()
    for _ in range(300):
        c1, c2 = _random_pair(rng)
        inter = ref_intersect_cones(c1, c2)
        ref = ref_is_face_of(inter, c1) and ref_is_face_of(inter, c2)
        assert C.common_face(c1, c2) == ref
        assert C.common_face(c2, c1) == ref
        seen.add((ref, inter.dim > 0))
    assert {(True, True), (True, False), (False, True)} <= seen


def _recomputed(cone):
    """(zero masks, facet masks, span equations) of a cone, by dot products
    and one integer kernel."""
    zero = tuple(
        sum(1 << i for i, h in enumerate(cone.facet_normals) if dot(h, r) == 0)
        for r in cone.rays
    )
    facet = tuple(
        sum(1 << k for k, r in enumerate(cone.rays) if dot(h, r) == 0)
        for h in cone.facet_normals
    )
    return zero, facet, integer_kernel(cone.span_basis, cone.ambient_rank)


def test_carried_incidences_and_equations_match_recomputed():
    # Cones from every constructor: `from_rays` at rank 1 to 5 and every
    # span rank, and the cone over C(14, 4); their faces, both sides of a
    # cut and the wall merge of the two, intersections, and, at rank 5,
    # translates over a base with b = 1, g = 2 and r = 2.  The face walk
    # is carried too: a second read of `face_walk` returns the same tuple,
    # equal to the walk of a fresh copy of the cone.
    rng = random.Random(21)
    base = S.PolarizedBase(
        F.StackyCone(C.ray_cone((1,), 1), L.full_lattice(1)),
        2,
        (((2,), (1,)), ((1,), (2,))),
        2,
    )
    cones = [
        _random_cone(rng, n, max_rays=6 if n == 5 else 7, span_rank=k)
        for n in range(1, 6)
        for k in range(1, n + 1)
        for _ in range(4)
    ]
    cones.append(C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5))
    built, merges = [], 0
    for cone in cones:
        n = cone.ambient_rank
        built += [cone, C.intersect_cones(cone, _random_cone(rng, n))]
        built += C.faces(cone)
        # A hyperplane through the interior point p: <h, p> w − <w, p> h.
        h, w, p = _interior_functional(cone), _vector(rng, n), C.interior_point(cone)
        cut = [dot(h, p) * x - dot(w, p) * y for x, y in zip(w, h)]
        sides = [C.halfspace_slice(cone, cut, 1), C.halfspace_slice(cone, cut, -1)]
        built += sides
        lattice = F.span_lattice(cone)
        merged = F.merge_across_wall(*(F.StackyCone(c, lattice) for c in sides))
        if merged is not None:
            built.append(merged.cone)
            merges += 1
        if n == 5:
            sc = F.StackyCone(cone, lattice)
            for m in ((1, 0), (-1, 2)):
                built.append(S.translate(sc, m, base).cone)
    built.append(C.zero_cone(3))
    assert merges > sum(c.dim > 1 for c in cones) // 2
    for cone in built:
        zero, facet, equations = _recomputed(cone)
        assert cone.zero_masks == zero
        assert cone.facet_masks == facet
        assert list(cone.span_equations) == equations
        walk = cone.face_walk
        assert cone.face_walk is walk
        fresh = C.Cone(cone.ambient_rank, cone.rays, cone.span_basis, cone.facet_normals)
        assert walk == fresh.face_walk


def test_only_cones_reads_private_names_of_cones():
    # The incidence format is private to `cones`: no other library module
    # reads a name of it that starts with an underscore.
    src = pathlib.Path(C.__file__).resolve().parent
    users, readers = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "cones.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("cones"):
                names = [a.name for a in node.names]
                readers += [f"{path.name}: {a}" for a in names if a.startswith("_")]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                aliases |= {a.asname or a.name for a in node.names if a.name.endswith("cones")}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                users.append(path.name)
                if node.attr.startswith("_"):
                    readers.append(f"{path.name}: {node.attr}")
    assert {"fans.py", "semiabelian.py"} <= set(users)
    assert readers == []

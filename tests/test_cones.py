import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan.cones as C
import tropfan.lattice as L
from tropfan._linalg import dot, primitive


# Reference implementations: the subset-enumerating cone operations that
# the double-description step and the incidence walks replaced.


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
    for r in C._extreme_rays_of_inequalities(ineqs, cone.dim):
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
        for r in C._extreme_rays_of_inequalities(ineqs, span.rank)
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


def ref_is_face_of(f, cone):
    if not all(C.member(cone, r) for r in f.rays):
        return False
    if f == cone:
        return True
    vanishing = [h for h in cone.facet_normals if all(dot(h, r) == 0 for r in f.rays)]
    face_rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing)]
    if f.dim == 0:
        return cone.dim == 0 or not face_rays
    if not vanishing:
        return False
    return C.from_rays(face_rays, cone.ambient_rank) == f


def _full(cone):
    return (cone.ambient_rank, cone.rays, cone.span_basis, cone.facet_normals)


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
        fs = C.facets(octant())
        assert len(fs) == 3
        assert all(f.dim == 2 for f in fs)

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
        assert C.facets(cone) == [f for f in C.faces(cone) if f.dim == cone.dim - 1]

    def test_is_face_of(self):
        q = quadrant()
        assert C.is_face_of(C.ray_cone((1, 0), 2), q)
        assert C.is_face_of(C.zero_cone(2), q)
        assert C.is_face_of(q, q)
        assert not C.is_face_of(C.ray_cone((1, 1), 2), q)

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


class TestDual:
    def test_quadrant_self_dual(self):
        d = C.dual(quadrant())
        assert d.rays == ((0, 1), (1, 0))

    def test_dual_of_wide_cone(self):
        c = C.from_rays([(1, 0), (-1, 2)], 2)
        d = C.dual(c)
        # Every dual ray pairs nonnegatively with every primal ray.
        for h in d.rays:
            for r in c.rays:
                assert h[0] * r[0] + h[1] * r[1] >= 0


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


def _random_cone(rng, n, max_rays=7):
    """A nonzero pointed cone of ambient rank n; about a third are
    lower-dimensional, their rays drawn from the span of fewer than n
    random vectors.  Each ray is oriented to pair positively with a
    random functional, so the cone is pointed."""
    while True:
        count = rng.randint(2, max_rays)
        if n > 1 and rng.random() < 1 / 3:
            basis = [_vector(rng, n) for _ in range(rng.randint(1, n - 1))]
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


_seeds = st.integers(0, 2**32 - 1).map(random.Random)


class TestAgainstReference:
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

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_faces(self, rng):
        cone = _random_cone(rng, _rank(rng))
        assert [_full(f) for f in C.faces(cone)] == [_full(f) for f in ref_faces(cone)]

    @settings(max_examples=150, deadline=None)
    @given(_seeds)
    def test_is_face_of_and_common_face(self, rng):
        c1, c2 = _random_pair(rng)
        inter = ref_intersect_cones(c1, c2)
        for f in ref_faces(c1) + [c2, inter]:
            assert C.is_face_of(f, c1) == ref_is_face_of(f, c1)
            assert C.is_face_of(f, c2) == ref_is_face_of(f, c2)
        assert C.common_face(c1, c2) == (
            ref_is_face_of(inter, c1) and ref_is_face_of(inter, c2)
        )

    def test_faces_of_cyclic_polytope_cone(self):
        # The cone over the cyclic 4-polytope C(14, 4): 14 rays, 77 facets.
        # Neighborly, so its f-vector is 1, 14, C(14, 2), 154, 77, 1.
        cone = C.from_rays([(1, t, t**2, t**3, t**4) for t in range(14)], 5)
        dims = [f.dim for f in C.faces(cone)]
        assert [dims.count(d) for d in range(6)] == [1, 14, 91, 154, 77, 1]

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan.cones as C


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

"""The local wall-merge test against the checks it replaced.

The reference is the old merge decision: the exact intersection must be
a common facet of both cones (`is_face_of` on each), and the hyperplane
arrangement of `cone_covered_by` must show that the convex hull of the
union does not overshoot the two cones.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L


def ref_merge(p, q):
    if p.lattice != q.lattice or p.dim != q.dim:
        return None
    wall = C.intersect_cones(p.cone, q.cone)
    if wall.dim != p.dim - 1:
        return None
    if not (C.is_face_of(wall, p.cone) and C.is_face_of(wall, q.cone)):
        return None
    try:
        union = C.from_rays(list(p.cone.rays) + list(q.cone.rays), p.ambient_rank)
    except C.PointednessError:
        return None
    if union.dim != p.dim:
        return None
    if not C.cone_covered_by(union, [p.cone, q.cone]):
        return None
    return F.StackyCone(union, p.lattice)


coef = st.integers(-3, 3)


@st.composite
def pairs(draw):
    """Two cones of one dimension d in a common span, with stacky lattices.

    The span is all of Z^n or a random d-dimensional subspace.  The
    second cone is random, or built on a facet of the first; `split`
    cuts one cone in two by a hyperplane, so that many pairs merge, and
    `half_space` pairs cross a wall into a non-pointed union.
    """
    n = draw(st.integers(2, 4))
    how = draw(st.sampled_from(["random", "on_facet", "split", "half_space"]))
    if how == "half_space":
        axis = draw(st.integers(0, n - 1))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        p = C.from_rays(units, n)
        q = C.from_rays([tuple(-x for x in u) if i == axis else u for i, u in enumerate(units)], n)
    else:
        d = draw(st.integers(2 if how == "split" else 1, n))
        basis = draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=d, max_size=d))
        assume(L.canonicalize(basis, n).rank == d)

        def vector():
            cs = draw(st.lists(coef, min_size=d, max_size=d))
            return tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))

        def cone(rays):
            try:
                c = C.from_rays(rays, n)
            except C.PointednessError:
                assume(False)
            assume(c.dim == d)
            return c

        p = cone([vector() for _ in range(draw(st.integers(d, d + 2)))])
        if how == "random":
            q = cone([vector() for _ in range(draw(st.integers(d, d + 2)))])
        elif how == "split":
            h = draw(st.lists(coef, min_size=n, max_size=n))
            p, q = C.halfspace_slice(p, h, 1), C.halfspace_slice(p, h, -1)
            assume(p.dim == q.dim == d)
        else:
            facet = draw(st.sampled_from(C.facets(p)))
            q = cone(list(facet.rays) + [vector() for _ in range(draw(st.integers(1, 2)))])
    k = draw(st.sampled_from([1, 1, 2]))
    scaled = L.canonicalize([[k * (i == j) for j in range(n)] for i in range(n)], n)
    other = scaled if draw(st.booleans()) else L.full_lattice(n)
    return F.StackyCone(p, F._restrict(scaled, p)), F.StackyCone(q, F._restrict(other, q))


def test_merge_across_wall_matches_reference():
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(pairs())
    def check(case):
        p, q = case
        merged = F.merge_across_wall(p, q)
        assert merged == ref_merge(p, q)
        outcomes.add(merged is not None)

    check()
    assert outcomes == {True, False}

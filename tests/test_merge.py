"""The local wall-merge test against the checks it replaced.

The reference is the old merge decision: the exact intersection must be
a common facet of both cones (`ref_is_face_of` on each), and the hyperplane
arrangement of `cone_covered_by` must show that the convex hull of the
union does not overshoot the two cones.
"""

import ast
import pathlib
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
from tropfan._linalg import dot

import _gen
from _ref import ref_extreme_generators, ref_facets, ref_is_face_of, ref_merge_pieces


def ref_merge(p, q):
    if p.lattice != q.lattice or p.dim != q.dim:
        return None
    wall = C.intersect_cones(p.cone, q.cone)
    if wall.dim != p.dim - 1:
        return None
    if not (ref_is_face_of(wall, p.cone) and ref_is_face_of(wall, q.cone)):
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
            facet = draw(st.sampled_from(ref_facets(p)))
            q = cone(list(facet.rays) + [vector() for _ in range(draw(st.integers(1, 2)))])
    k = draw(st.sampled_from([1, 1, 2]))
    scaled = L.canonicalize([[k * (i == j) for j in range(n)] for i in range(n)], n)
    other = scaled if draw(st.booleans()) else L.full_lattice(n)
    return F.StackyCone(p, F._restrict(scaled, p)), F.StackyCone(q, F._restrict(other, q))


def fields(sc):
    """Every field of a merge result: `Cone.__eq__` compares rays only."""
    if sc is None:
        return None
    c = sc.cone
    return c.ambient_rank, c.rays, c.span_basis, c.facet_normals, sc.lattice.basis


def test_merge_across_wall_matches_reference():
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(pairs())
    def check(case):
        p, q = case
        merged = F.merge_across_wall(p, q)
        assert fields(merged) == fields(ref_merge(p, q))
        outcomes.add(merged is not None)

    check()
    assert outcomes == {True, False}


def _piece(rays, n):
    cone = C.from_rays(rays, n)
    return F.StackyCone(cone, F._restrict(L.full_lattice(n), cone))


def test_opposite_rays_make_a_line():
    for ray in [(1,), (1, 2), (0, -1, 3)]:
        n = len(ray)
        p, q = _piece([ray], n), _piece([tuple(-x for x in ray)], n)
        assert ref_merge(p, q) is None
        assert F.merge_across_wall(p, q) is None


def test_octants_across_a_wall_hold_a_line():
    # The octants (+,+,+) and (+,+,−) share the wall z = 0, so both sign
    # scans pass, but their union {x ≥ 0, y ≥ 0} holds the z-axis: both
    # off-wall generators ±e₃ are tight on every remaining normal.
    p = _piece([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    q = _piece([(1, 0, 0), (0, 1, 0), (0, 0, -1)], 3)
    assert F._only_cutting_normal(p.cone, q.cone) == (0, 0, 1)
    assert F._only_cutting_normal(q.cone, p.cone) == (0, 0, -1)
    gens = sorted(set(p.cone.rays) | set(q.cone.rays))
    normals = [(0, 1, 0), (1, 0, 0)]
    assert C.extreme_generators(gens, normals) is None
    assert ref_extreme_generators(gens, normals) is None
    assert F.merge_across_wall(p, q) is None
    assert ref_merge(p, q) is None
    assert MIN._merge_pieces([p, q]) == tuple(ref_merge_pieces([p, q])) == (q, p)


def test_wall_ray_stops_being_extreme():
    p, q = _piece([(1, 0), (1, 1)], 2), _piece([(1, 1), (0, 1)], 2)
    merged = F.merge_across_wall(p, q)
    assert merged.cone.rays == ((0, 1), (1, 0))
    assert fields(merged) == fields(ref_merge(p, q))


def _cutting_normals(p, q):
    return sum(any(dot(h, r) < 0 for r in q.cone.rays) for h in p.cone.facet_normals)


def test_merge_across_wall_matches_reference_on_fan_pieces():
    # Ordered pairs of maximal pieces of seeded fans and their stellar
    # subdivisions.  Most pairs share no wall, and many of those have two
    # or more normals of p negative on q, where `_only_cutting_normal`
    # stops early.
    outcomes = set()
    early = 0
    for seed in range(12):
        rng = random.Random(seed)
        fan = _gen.random_fan(rng)
        for f in (fan, _gen.random_stellar(rng, fan)):
            pieces = F.maximal_cones(f)
            for p in pieces:
                for q in pieces:
                    if p is q:
                        continue
                    merged = F.merge_across_wall(p, q)
                    assert fields(merged) == fields(ref_merge(p, q))
                    outcomes.add(merged is not None)
                    early += _cutting_normals(p, q) >= 2
    assert outcomes == {True, False}
    assert early > 0


@st.composite
def loose_pairs(draw):
    """Two cones drawn apart from each other, so that their spans and
    dimensions may differ: "any" draws both at random (mostly not
    adjacent), "overlap"
    cuts a cone and pairs a side with the whole, "lower" pairs a cone
    with a face of it, and "other_span" pairs cones of one dimension in
    two spans through a common ray."""
    n = draw(st.integers(1, 4))
    how = draw(st.sampled_from(["any", "overlap", "lower", "other_span"]))

    def vectors(k_min, k_max):
        row = st.lists(coef, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=k_min, max_size=k_max))

    def cone(rays):
        try:
            return C.from_rays(rays, n)
        except C.PointednessError:
            assume(False)

    p = cone(vectors(1, 4))
    if how == "any":
        q = cone(vectors(1, 4))
    elif how == "overlap":
        h = draw(st.lists(coef, min_size=n, max_size=n))
        q = C.halfspace_slice(p, h, draw(st.sampled_from([1, -1])))
    elif how == "lower":
        assume(p.dim >= 1)
        q = draw(st.sampled_from(ref_facets(p) or [C.zero_cone(n)]))
    else:
        assume(n >= 3 and p.rays)
        q = cone([p.rays[0]] + vectors(p.dim - 1, p.dim - 1))
        assume(q.dim == p.dim and q.span_basis != p.span_basis)
    if draw(st.booleans()):
        p, q = q, p
    doubled = L.canonicalize([[2 * (i == j) for j in range(n)] for i in range(n)], n)
    lattice = L.full_lattice(n) if draw(st.booleans()) else doubled
    return how, *(F.StackyCone(c, F._restrict(lattice, c)) for c in (p, q))


def test_merge_across_wall_matches_reference_on_loose_pairs():
    # Most of these pairs are refused (the merging ones come from `pairs`),
    # some only after the first scan finds its one cutting normal.
    seen = set()
    past_first_scan = []

    @settings(max_examples=300, derandomize=True, deadline=5000)
    @given(loose_pairs())
    def check(case):
        how, p, q = case
        merged = F.merge_across_wall(p, q)
        assert fields(merged) == fields(ref_merge(p, q))
        seen.add(how)
        if p.lattice == q.lattice and p.cone.span_basis == q.cone.span_basis:
            past_first_scan.append(F._only_cutting_normal(p.cone, q.cone) is not None)

    check()
    assert seen == {"any", "overlap", "lower", "other_span"}
    assert any(past_first_scan)


def test_merge_scans_build_no_generator():
    # The sign scans of a merge attempt are plain loops: a generator per
    # facet normal was most of the cost of the attempts that fail.
    # `cones.extreme_generators` ends every attempt that passes them.
    scans = {
        F: {"merge_across_wall", "_only_cutting_normal"},
        C: {"extreme_generators"},
    }
    found, want = {}, {}
    for module, names in scans.items():
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name in names:
                found[top.name] = [
                    node.lineno
                    for node in ast.walk(top)
                    if isinstance(node, ast.GeneratorExp)
                ]
        want.update((name, []) for name in names)
    assert found == want

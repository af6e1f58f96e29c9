"""Exact pointed rational polyhedral cones.

A Cone keeps three descriptions in sync: primitive extreme rays, a
saturated basis of the lattice of its linear span (in HNF), and facet
normals as ambient integer functionals.  Membership is a sign test plus,
for a lower-dimensional cone, an integer HNF span test; faces and
intersections come from the usual double-description bookkeeping.  All
cones are pointed: a cone is pointed iff its dual is full-dimensional in
the span, and non-pointed input is rejected.
"""

from dataclasses import dataclass
from itertools import combinations

from . import lattice as lat
from ._linalg import (
    dot,
    express_in_hnf,
    integer_kernel,
    is_zero,
    primitive,
    rational_rank,
    solve_integer,
)
from .lattice import DimensionError

OUTSIDE = "outside"
BOUNDARY = "boundary"
RELATIVE_INTERIOR = "relative_interior"


class PointednessError(ValueError):
    pass


class DualNotPointedError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    ambient_rank: int
    rays: tuple          # sorted primitive integer tuples (extreme rays)
    span_basis: tuple    # HNF basis of Z^n ∩ Span(cone)
    facet_normals: tuple # ambient integer functionals; x ∈ cone ⇔ x ∈ span, all ⟨h,x⟩ ≥ 0

    @property
    def dim(self):
        return len(self.span_basis)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.rays))

    def __repr__(self):
        return f"Cone(rays={list(self.rays)})"


def _extreme_rays_of_inequalities(ineqs, k):
    """Extreme rays of the pointed cone {x in R^k : A x >= 0}.

    Every extreme ray of a pointed cone has an active constraint set of
    rank k-1, so enumerating (k-1)-subsets of rows finds all of them.
    """
    if k == 0:
        return []
    rays = []
    seen = set()
    if k == 1:
        candidates = [(1,), (-1,)]
        for v in candidates:
            if all(dot(row, v) >= 0 for row in ineqs):
                if v not in seen:
                    seen.add(v)
                    rays.append(v)
        # A pointed 1-d cone keeps at most one direction; both directions
        # surviving means the constraints carve out a line (caller checks).
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


def from_rays(rays, ambient_rank):
    """Canonical pointed cone generated by the given integer vectors."""
    for r in rays:
        if len(r) != ambient_rank:
            raise DimensionError(f"ray {r} does not have length {ambient_rank}")
    prims = []
    for r in rays:
        p = primitive(r)
        if not is_zero(p) and p not in prims:
            prims.append(p)
    if not prims:
        return Cone(ambient_rank, (), (), ())
    span = lat.saturate(lat.canonicalize(prims, ambient_rank))
    d = span.rank
    coords = [express_in_hnf(span.basis, ambient_rank, p) for p in prims]
    # Facet normals in span coordinates: extreme rays of the dual cone,
    # which is pointed because the coordinates span R^d.  The cone is
    # pointed iff its dual is full-dimensional.
    normals_d = _extreme_rays_of_inequalities(coords, d)
    if rational_rank(normals_d) != d:
        raise PointednessError(f"cone generated by {rays} contains a line")
    # Extreme-ray filter: active normal set of rank d-1.
    extreme = []
    for p, c in zip(prims, coords):
        active = [h for h in normals_d if dot(h, c) == 0]
        if rational_rank(active) == d - 1:
            extreme.append(p)
    # Lift normals to ambient integer functionals (the span basis is
    # saturated, so an integer lift always exists).
    lifted = []
    for h in normals_d:
        y = _lift_functional(span.basis, h, ambient_rank)
        lifted.append(primitive(y))
    return Cone(
        ambient_rank,
        tuple(sorted(extreme)),
        tuple(span.basis),
        tuple(sorted(lifted)),
    )


def _lift_functional(span_basis, h, ambient_rank):
    """Integer functional y on Z^n with <b_i, y> = h_i for the span basis."""
    rows = [list(b) for b in span_basis]  # d x n; want y with B y = h
    n = ambient_rank
    columns = [[rows[i][j] for i in range(len(rows))] for j in range(n)]
    sol = solve_integer(columns, len(rows), h)
    if sol is None:
        raise AssertionError("saturated span basis must admit an integer lift")
    return tuple(sol)


def zero_cone(ambient_rank):
    return Cone(ambient_rank, (), (), ())


def ray_cone(v, ambient_rank):
    return from_rays([v], ambient_rank)


def contains_point(cone, v):
    """Classify an integer point: outside, boundary, relative_interior."""
    if len(v) != cone.ambient_rank:
        raise DimensionError("point length mismatch")
    if is_zero(v):
        return RELATIVE_INTERIOR if cone.dim == 0 else BOUNDARY
    if cone.dim == 0:
        return OUTSIDE
    # The span basis is saturated, so an integer point lies in the span
    # iff it has integer coordinates in that basis.
    if cone.dim < cone.ambient_rank:
        if express_in_hnf(cone.span_basis, cone.ambient_rank, v) is None:
            return OUTSIDE
    signs = [dot(h, v) for h in cone.facet_normals]
    if any(s < 0 for s in signs):
        return OUTSIDE
    if any(s == 0 for s in signs):
        return BOUNDARY
    return RELATIVE_INTERIOR


def member(cone, v):
    return contains_point(cone, v) != OUTSIDE


def interior_point(cone):
    """An integer point in the relative interior (sum of the extreme rays)."""
    if cone.dim == 0:
        return tuple([0] * cone.ambient_rank)
    p = [0] * cone.ambient_rank
    for r in cone.rays:
        p = [a + b for a, b in zip(p, r)]
    return tuple(p)


def dual(cone):
    """Dual cone of a full-dimensional cone (pointed since cone is full)."""
    if cone.dim != cone.ambient_rank:
        raise DualNotPointedError("dual of a non-full-dimensional cone is not pointed")
    if cone.ambient_rank == 0:
        return cone
    return from_rays([list(h) for h in cone.facet_normals], cone.ambient_rank)


def faces(cone):
    """All faces of the cone, including {0} and the cone itself."""
    if cone.dim == 0:
        return [cone]
    result = {}
    nfacets = len(cone.facet_normals)
    for size in range(nfacets + 1):
        for subset in combinations(range(nfacets), size):
            sel = [cone.facet_normals[i] for i in subset]
            face_rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in sel)]
            f = from_rays(face_rays, cone.ambient_rank)
            result[f.rays] = f
    result[()] = zero_cone(cone.ambient_rank)
    return sorted(result.values(), key=lambda c: (c.dim, c.rays))


def facets(cone):
    """Codimension-one faces: one per facet normal, cut out by the rays on
    which it vanishes."""
    fs = [
        from_rays([r for r in cone.rays if dot(h, r) == 0], cone.ambient_rank)
        for h in cone.facet_normals
    ]
    return sorted(fs, key=lambda f: f.rays)


def intersect_cones(c1, c2):
    """Intersection cone; pointed whenever the inputs are."""
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    n = c1.ambient_rank
    if c1.dim == 0 or c2.dim == 0:
        return zero_cone(n)
    span = lat.intersect(
        lat.canonicalize([list(b) for b in c1.span_basis], n),
        lat.canonicalize([list(b) for b in c2.span_basis], n),
    )
    span = lat.saturate(span)
    k = span.rank
    if k == 0:
        return zero_cone(n)
    # Restrict both facet systems to the common span.
    ineqs = []
    for h in list(c1.facet_normals) + list(c2.facet_normals):
        ineqs.append(tuple(dot(h, b) for b in span.basis))
    rays_k = _extreme_rays_of_inequalities(ineqs, k)
    lifted = []
    for r in rays_k:
        v = [0] * n
        for c, b in zip(r, span.basis):
            v = [a + c * x for a, x in zip(v, b)]
        lifted.append(primitive(v))
    # Keep only directions actually inside both cones (guards the k=1 case
    # and any spurious candidates).
    lifted = [v for v in lifted if member(c1, v) and member(c2, v)]
    if not lifted:
        return zero_cone(n)
    return from_rays(lifted, n)


def is_face_of(f, cone):
    """True iff f equals cone ∩ ker(h) for a supporting functional h."""
    if f.ambient_rank != cone.ambient_rank:
        raise DimensionError("ambient ranks differ")
    if not all(member(cone, r) for r in f.rays):
        return False
    if f == cone:
        return True
    # The candidate face cut out by every facet normal vanishing on f.
    vanishing = [h for h in cone.facet_normals if all(dot(h, r) == 0 for r in f.rays)]
    if f.dim == 0:
        if cone.dim == 0:
            return True
        face_rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing)]
        return not face_rays
    if not vanishing and f != cone:
        return False
    face_rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing)]
    return from_rays(face_rays, cone.ambient_rank) == f


def common_face(c1, c2):
    """True iff c1 ∩ c2 is a face of both cones."""
    inter = intersect_cones(c1, c2)
    return is_face_of(inter, c1) and is_face_of(inter, c2)


def contains_cone(big, small):
    return all(member(big, r) for r in small.rays)


def halfspace_slice(cone, h, sign):
    """cone ∩ {x : sign * <h, x> >= 0} as a Cone."""
    n = cone.ambient_rank
    if cone.dim == 0:
        return cone
    hh = tuple(sign * x for x in h)
    ineqs = []
    for g in cone.facet_normals:
        ineqs.append(tuple(dot(g, b) for b in cone.span_basis))
    ineqs.append(tuple(dot(hh, b) for b in cone.span_basis))
    rays_k = _extreme_rays_of_inequalities(ineqs, cone.dim)
    lifted = []
    for r in rays_k:
        v = [0] * n
        for c, b in zip(r, cone.span_basis):
            v = [a + c * x for a, x in zip(v, b)]
        v = primitive(v)
        if member(cone, v) and dot(hh, v) >= 0:
            lifted.append(v)
    if not lifted:
        return zero_cone(n)
    return from_rays(lifted, n)


def split_by_hyperplanes(cones, hyperplanes):
    """Refine a list of cones by the hyperplanes {<h, x> = 0}.

    Keeps every resulting cell (cells of all dimensions may appear but
    only cells of the original dimensions matter to callers).
    """
    cells = list(cones)
    for h in hyperplanes:
        new_cells = []
        for c in cells:
            sides = [halfspace_slice(c, h, 1), halfspace_slice(c, h, -1)]
            for s in sides:
                if s.dim == c.dim and s not in new_cells:
                    new_cells.append(s)
            if all(s.dim < c.dim for s in sides) and c not in new_cells:
                new_cells.append(c)
        cells = new_cells
    return cells


def arrangement_cells(hyperplanes, ambient_rank):
    """Cells of the central arrangement {<h, x> = 0} of the hyperplanes.

    The 2^n orthants of R^n are split by every hyperplane; exact and fine
    for the small ranks this library targets.  Cells of lower dimension
    may appear, so callers keep the full-dimensional ones.
    """
    n = ambient_rank
    orthants = []
    for mask in range(2 ** n):
        rays = []
        for i in range(n):
            sign = -1 if (mask >> i) & 1 else 1
            rays.append(tuple(sign if j == i else 0 for j in range(n)))
        orthants.append(from_rays(rays, n))
    return split_by_hyperplanes(orthants, hyperplanes)


def _splitting_hyperplanes(target, pieces):
    """Facet hyperplanes of the pieces that actually cut the target."""
    hyperplanes = []
    for p in pieces:
        if p.dim < target.dim:
            continue
        for h in p.facet_normals:
            if h in hyperplanes or tuple(-x for x in h) in hyperplanes:
                continue
            signs = [dot(h, r) for r in target.rays]
            if any(s > 0 for s in signs) and any(s < 0 for s in signs):
                hyperplanes.append(h)
    return hyperplanes


def uncovered_point(target, pieces):
    """An integer interior point of target outside every piece, or None.

    Exact: the target is split by every facet hyperplane of every piece
    that cuts it; each full-dimensional cell is represented by an interior
    point which must land in some piece.
    """
    cells = split_by_hyperplanes([target], _splitting_hyperplanes(target, pieces))
    for cell in cells:
        if cell.dim != target.dim:
            continue
        pt = interior_point(cell)
        if not any(member(p, pt) for p in pieces):
            return pt
    return None


def cone_covered_by(target, pieces):
    """Exact test: is `target` contained in the union of `pieces`?"""
    return uncovered_point(target, pieces) is None


def same_union(cones1, cones2):
    """Exact test: do two lists of cones cover the same set?"""
    return all(cone_covered_by(c, cones2) for c in cones1) and all(
        cone_covered_by(c, cones1) for c in cones2
    )
